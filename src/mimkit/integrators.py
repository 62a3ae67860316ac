"""Explicit time integrators for autonomous Hamiltonian field systems.

Systems are autonomous: every rate is a function of the state alone
(``rhs(u, v)``, ``position_rate(u, v)``, ``velocity_rate(u, v)``), so no
step takes a time argument; ``integrate`` tracks t only for the record.

Schemes (``SchemeKind``):

* ``RK4`` — the classical fourth-order Runge-Kutta method (``TABLEAU_RK4``).
* ``RRK_analytic`` / ``RRK_bisection`` — relaxation RK4: after forming the
  RK4 increment d, the update ``state + gamma*dt*d`` uses the relaxation
  parameter gamma that restores the energy exactly, found in closed form for
  quadratic energies or by bisection in general.  Time advances by
  ``gamma*dt`` (configurable to plain ``dt``).  Relaxation RK with gamma = 1
  is its base method (Ketcheson, SIAM J. Numer. Anal. 57, 2019), so RK4 is
  the same loop with gamma = 1, bitwise the plain RK4 step since
  ``1.0*dt == dt``.
* ``ForestRuth``, ``PEFRL``, ``Leapfrog``, ``Composition4`` — symplectic
  splittings.  Each is nothing but its coefficient table: drift weights
  (a_1, ..., a_{s+1}) and kick weights (b_1, ..., b_s), run by one loop as
  drift a_1, kick b_1, ..., kick b_s, drift a_{s+1}; s is its number of
  force evaluations per step.  Forest-Ruth is the 4th-order triple jump
  (s = 3), PEFRL the position-extended Forest-Ruth-like 4th-order method
  with an optimized error constant (s = 4), Leapfrog the 2nd-order
  synchronized drift-kick-drift form of the staggered kick-drift leapfrog,
  so recorded (t, H) samples are time-aligned (s = 1), and Composition4 the
  5-stage 4th-order palindromic composition (s = 5).  Every table is a
  palindrome, so every splitting step is exactly time-reversible.

Splitting schemes assume the separable pattern u' = f(v), v' = F(u); for
systems that are not exactly separable (shallow water) they are applied in
lockstep form: each drift uses the current velocity field, each kick the
already-updated position field.  Lockstep splitting of a non-separable
system is first-order accurate: on shallow water ForestRuth, PEFRL,
Composition4 and Leapfrog all converge at order 1 and their energy error
grows like dt*t, so the nominal orders hold only for separable systems such
as the wave equation.

``integrate`` drives any scheme to ``t_end`` (shortening the final step to
land exactly, except relaxation schemes, whose accumulated ``gamma*dt`` may
overshoot by less than one step; the record keeps the true final time) and
records the energy trace.  Each row, at t = 0, every ``record_every``-th
step and the last step (unless a row is already at that t), is taken one
way: H at the state, refused if not finite, appended as (t, H, step count).
``RunRecord.times``, ``energies`` and ``steps`` are the rows' columns (a
relaxation row at step s > 0 has gamma ``gammas[s - 1]``); ``gammas`` has
one entry per step.

One table, ``_ADVANCE``, maps each scheme to the code that advances a
state by one step: the RK loop with its gamma rule (constant 1, closed form
or bisection), or the drift-kick loop bound to the scheme's coefficient
table.  ``integrate`` and ``step`` both dispatch through it; nothing else
decides which code runs which scheme.

``integrate`` owns one contiguous float buffer per run: ``_load`` copies
``state0`` into it once, with u and v as views, checking that it holds one
real field of the right length per entry of ``system.state_lengths``, and
projects the copy onto the boundary conditions (``system.apply_boundary``),
the one projection of the run: a system's rates keep its boundary
conditions (the wave rates are ±0.0 at the Dirichlet ends, and
+0.0 + ±0.0 = +0.0), so no stage, trial or step projects again.  Every
RK4 stage, relaxation trial state, drift and kick then updates buffers of
that run in place (``_Workspace``), the rates writing into them through
their ``out`` argument, passed positionally.
Each drift and kick passes its coefficient (``a*dt`` or ``b*dt``) to the
rate as its ``scale``, so the rate writes the scaled rate in one pass and
the step only adds it.  Every scalar an array is updated by is a 0-d
float64 array (``_Workspace.c``, ``_RK4_B``, ``_ZERO``), never a Python
float, which takes numpy's slower scalar path; the results are the same.
A step allocates no array.  ``step`` loads its input the same way into a
fresh workspace and runs the same in-place code, so it never modifies the
caller's arrays and is bitwise ``integrate``'s first step; it returns the
new state only, and a caller that wants gamma reads ``RunRecord.gammas``.
``RunRecord.final_state`` are views of the run's own buffer.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Optional, Tuple

import numpy as np

from .errors import NumericalFailure, _require_positive_finite, _require_positive_integer
from .grid_fields import StaggeredGrid1D
from .hamiltonian_systems import HamiltonianSystem

__all__ = [
    "ButcherTableau",
    "TABLEAU_RK4",
    "SchemeKind",
    "normalize_scheme",
    "RunRecord",
    "step",
    "integrate",
    "cfl_dt",
]

State = Tuple[np.ndarray, np.ndarray]


# ---------------------------------------------------------------------------
# the RK4 Butcher tableau
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ButcherTableau:
    """Runge-Kutta coefficients (a, b, c); sum(b) must equal 1."""

    a: Tuple[Tuple[float, ...], ...]
    b: Tuple[float, ...]
    c: Tuple[float, ...]

    def __post_init__(self):
        s = len(self.b)
        if len(self.c) != s or len(self.a) != s or any(len(row) != s for row in self.a):
            raise ValueError("inconsistent tableau dimensions")
        if abs(sum(self.b) - 1.0) > 1e-12:
            raise ValueError(f"tableau is inconsistent: sum(b) = {sum(self.b)!r} != 1")

    @property
    def stages(self) -> int:
        return len(self.b)


TABLEAU_RK4 = ButcherTableau(
    a=((0.0, 0.0, 0.0, 0.0), (0.5, 0.0, 0.0, 0.0), (0.0, 0.5, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0)),
    b=(1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0),
    c=(0.0, 0.5, 0.5, 1.0),
)


# ---------------------------------------------------------------------------
# scheme registry
# ---------------------------------------------------------------------------

class SchemeKind(str, Enum):
    RK4 = "RK4"
    RRK_ANALYTIC = "RRK_analytic"
    RRK_BISECTION = "RRK_bisection"
    FOREST_RUTH = "ForestRuth"
    PEFRL = "PEFRL"
    LEAPFROG = "Leapfrog"
    COMPOSITION4 = "Composition4"

    @property
    def rhs_evals_per_step(self) -> int:
        """Force evaluations per step: one per kick of a splitting scheme,
        one per stage of RK4 and its relaxation variants."""
        if self in _SPLITTINGS:
            return len(_SPLITTINGS[self][1])
        return TABLEAU_RK4.stages

    @property
    def is_relaxation(self) -> bool:
        return self in (SchemeKind.RRK_ANALYTIC, SchemeKind.RRK_BISECTION)

    @property
    def nominal_order(self) -> int:
        return 2 if self is SchemeKind.LEAPFROG else 4


_SCHEME_NAMES = {
    **{kind.value.lower(): kind for kind in SchemeKind},
    "rrk": SchemeKind.RRK_ANALYTIC,
    "fr": SchemeKind.FOREST_RUTH,
    "lf": SchemeKind.LEAPFROG,
    "comp4": SchemeKind.COMPOSITION4,
}


def normalize_scheme(name) -> SchemeKind:
    """Resolve a scheme's name in any case, or one of the short names
    ``rrk``, ``fr``, ``lf``, ``comp4``, to a SchemeKind."""
    if isinstance(name, SchemeKind):
        return name
    try:
        return _SCHEME_NAMES[str(name).strip().lower()]
    except KeyError:
        valid = ", ".join(kind.value for kind in SchemeKind)
        raise ValueError(f"unknown scheme {name!r}; expected one of: {valid}") from None


# ---------------------------------------------------------------------------
# Runge-Kutta and relaxation steps
# ---------------------------------------------------------------------------

# TABLEAU_RK4 is explicit with one nonzero a[i][i-1] per stage, so stage i
# reads only stage i - 1.
_RK4_A = tuple(TABLEAU_RK4.a[i][i - 1] for i in range(1, 4))
# The b-weights, and the zero the increment's sum starts from, as 0-d
# float64 arrays: an in-place update by one skips numpy's slower path for a
# Python float, with the same result.
_RK4_B = tuple(np.array(b) for b in TABLEAU_RK4.b)
_ZERO = np.array(0.0)


class _Workspace:
    """The buffers of one run, each holding both fields (lengths ``n_u`` and
    ``n_v``) back to back.

    ``x`` is the state, updated in place by every step; ``k`` the four RK4
    stage slopes (row 0 doubles as the splitting schemes' rate buffer);
    ``y`` an RK4 stage or relaxation trial state; ``d`` the RK4 increment.
    ``state``, ``slopes``, ``stage`` and ``incr`` are their (u, v) views,
    made once.  ``c`` is a 0-d float64 array that holds each step
    coefficient (``a*dt``, ``gamma*dt``) just before an array is multiplied
    by it: the product is the same as by the Python float, without numpy's
    slower path for one.  ``tol`` is the run's bisection tolerance on gamma.
    ``h`` is H(x) from ``integrate``'s last recorded row until the
    bisection, its only reader, takes it and resets it to None in one
    statement, so no step that changes ``x`` has to clear it.
    """

    def __init__(self, n_u: int, n_v: int, tol: float):
        self.x, self.y, self.d = (np.empty(n_u + n_v) for _ in range(3))
        self.k = np.empty((4, n_u + n_v))
        self.c = np.empty(())
        self.tol = tol
        self.h = None
        self.rows = tuple(self.k)
        self.state, self.stage, self.incr = ((a[:n_u], a[n_u:]) for a in (self.x, self.y, self.d))
        self.slopes = tuple((row[:n_u], row[n_u:]) for row in self.rows)


def _load(system: HamiltonianSystem, state: State, tol: float = 1e-12) -> _Workspace:
    """A fresh workspace holding a float copy of ``state`` in ``ws.x``,
    projected onto the boundary conditions in place: the one projection of
    a run or a step.

    Raises ValueError when ``state`` does not hold one field per entry of
    ``system.state_lengths``, or a field is complex or does not have the
    length given for it: the one layout check of a run or a step.
    """
    lengths = system.state_lengths
    state = tuple(state)
    if len(state) != len(lengths):
        raise ValueError(f"{system.name}: a state has {len(lengths)} fields "
                         f"({', '.join(lengths)}), got {len(state)}")
    ws = _Workspace(*lengths.values(), tol)
    for (name, n), x, view in zip(lengths.items(), state, ws.state):
        if np.iscomplexobj(x):
            raise ValueError(f"{system.name}: initial {name} must be real, "
                             f"got dtype {np.asarray(x).dtype}")
        x = np.asarray(x, dtype=float)
        if x.shape != (n,):
            raise ValueError(f"{system.name}: initial {name} must have length {n}, "
                             f"got shape {x.shape}")
        view[...] = x
    system.apply_boundary(*ws.state)
    return ws


def _rk4_increment(system: HamiltonianSystem, ws: _Workspace, dt: float):
    """Write the b-weighted RK4 increment at ``ws.x`` into ``ws.d``; the
    update is x + dt*d.

    The stage slopes of both fields share one (4, len(u) + len(v)) buffer,
    so each stage ``x + (dt*a[i][i-1])*k[i-1]`` and the sum
    d = (((0 + b1*k1) + b2*k2) + b3*k3) + b4*k4 take a few ufunc calls over
    both fields at once rather than one per field and term, whose fixed cost
    dominates at a few hundred cells.  Each element goes through the same
    floating-point operations as the term-by-term loop over the tableau, so
    the results are bitwise the same.
    """
    k, y, c = ws.rows, ws.y, ws.c
    system.rhs(*ws.state, ws.slopes[0])
    for i in range(1, 4):
        c[...] = dt * _RK4_A[i - 1]
        np.multiply(k[i - 1], c, out=y)
        y += ws.x
        system.rhs(*ws.stage, ws.slopes[i])
    for row, b in zip(k, _RK4_B):
        row *= b  # row by row: numpy forms k *= b[:, None] in a temporary
    d = np.add(k[0], _ZERO, out=ws.d)  # a sum starting from 0: -0.0 becomes +0.0
    d += k[1]
    d += k[2]
    d += k[3]


def _gamma_analytic(system: HamiltonianSystem, ws: _Workspace, dt: float) -> float:
    """Closed-form relaxation parameter for quadratic energies, at state
    ``ws.x`` along ``ws.d``.

    With E = <v, d_v>_Q + <G u, G d_u>_P and T = <d_v, d_v>_Q +
    <G d_u, G d_u>_P, the energy change of ``x + gamma*dt*d`` is
    ``gamma*dt*E + (1/2)(gamma*dt)^2*T``; its nontrivial root is
    gamma = -2E/(dt*T).  Returns 1 when d vanishes (E = T = 0) or dt = 0
    (every gamma then leaves the state as it is).
    """
    if dt == 0.0:
        return 1.0
    E, T = system.quadratic_parts(*ws.state, *ws.incr)
    if T == 0.0:
        if E == 0.0:
            return 1.0
        raise NumericalFailure(
            f"relaxation has no root: quadratic term vanished with E = {E:.3e}"
        )
    return -2.0 * E / (dt * T)


def _gamma_bisection(system: HamiltonianSystem, ws: _Workspace, dt: float) -> float:
    """Relaxation parameter by bisection on r(g) = H(x + g*dt*d) - H(x), at
    state ``ws.x`` along ``ws.d``, each trial state formed in ``ws.y``; H(x)
    is ``ws.h``, taken once, when ``integrate`` has just recorded it.

    Starts from the bracket [0.5, 1.5], expanding geometrically up to
    [0.1, 2.0] if the residual does not change sign; terminates when the
    bracket width drops below ``ws.tol`` or after 200 iterations.  Signs are
    compared, not multiplied: tiny residuals' products underflow to zero.  A
    zero residual ends the search; one that is not finite raises
    NumericalFailure.
    """
    h0, ws.h = (system.energy(*ws.state) if ws.h is None else ws.h), None

    def same_sign(a: float, b: float) -> bool:  # both nonzero, with one sign
        return (a > 0.0 and b > 0.0) or (a < 0.0 and b < 0.0)

    def residual(g: float) -> float:
        ws.c[...] = g * dt
        np.multiply(ws.d, ws.c, out=ws.y)
        ws.y += ws.x
        r = system.energy(*ws.stage) - h0
        if not math.isfinite(r):
            raise NumericalFailure(f"relaxation residual is not finite at gamma = {g!r}: {r!r}")
        return r

    r_one = residual(1.0)
    if r_one == 0.0:
        return 1.0
    lo, hi = 0.5, 1.5
    r_lo, r_hi = residual(lo), residual(hi)
    while same_sign(r_lo, r_hi) and (lo > 0.1 or hi < 2.0):
        lo = max(0.1, 0.5 * lo)
        hi = min(2.0, 1.5 * hi)
        r_lo, r_hi = residual(lo), residual(hi)
    if r_lo == 0.0:
        return lo
    if r_hi == 0.0:
        return hi
    if same_sign(r_lo, r_hi):
        raise NumericalFailure(
            "relaxation bisection found no sign change on [0.1, 2.0]: "
            f"r(0.1) = {r_lo:.3e}, r(2.0) = {r_hi:.3e}"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        # the first midpoint of the unexpanded bracket is 1.0, known already
        r_mid = r_one if mid == 1.0 else residual(mid)
        if r_mid == 0.0:
            return mid
        if same_sign(r_lo, r_mid):
            lo, r_lo = mid, r_mid
        else:
            hi, r_hi = mid, r_mid
        if hi - lo <= ws.tol:
            break
    return 0.5 * (lo + hi)

def _rrk_advance(system: HamiltonianSystem, ws: _Workspace, dt: float, gamma_rule) -> float:
    """One relaxation-RK4 step of ``ws.x`` in place: the RK4 increment d,
    then x + (gamma*dt)*d with gamma = gamma_rule(system, ws, dt); returns
    gamma."""
    _rk4_increment(system, ws, dt)
    gamma = gamma_rule(system, ws, dt)
    ws.c[...] = gamma * dt
    ws.d *= ws.c
    ws.x += ws.d
    return gamma


# ---------------------------------------------------------------------------
# symplectic splitting steps
# ---------------------------------------------------------------------------

_FR_X = (2.0 ** (1.0 / 3.0) + 2.0 ** (-1.0 / 3.0) - 1.0) / 6.0

_PEFRL_XI = +0.1644986515575760
_PEFRL_LAMBDA = -0.02094333910398989
_PEFRL_CHI = +1.235692651138917

_SQRT19 = math.sqrt(19.0)
_COMP4_BETA = (
    (14.0 - _SQRT19) / 108.0,
    (-23.0 - 20.0 * _SQRT19) / 270.0,
    1.0 / 5.0,
    (-2.0 + 10.0 * _SQRT19) / 135.0,
    (146.0 + 5.0 * _SQRT19) / 540.0,
)
# alpha_k = beta_{6-k} (palindromic pairing); alpha_0 = 0
_COMP4_ALPHA = tuple(reversed(_COMP4_BETA))

# (drifts, kicks) of each splitting scheme, len(drifts) == len(kicks) + 1.
_SPLITTINGS = {
    SchemeKind.FOREST_RUTH: (
        (_FR_X + 0.5, -_FR_X, -_FR_X, _FR_X + 0.5),
        (2.0 * _FR_X + 1.0, -4.0 * _FR_X - 1.0, 2.0 * _FR_X + 1.0),
    ),
    SchemeKind.PEFRL: (
        (_PEFRL_XI, _PEFRL_CHI, 1.0 - 2.0 * (_PEFRL_CHI + _PEFRL_XI), _PEFRL_CHI, _PEFRL_XI),
        ((1.0 - 2.0 * _PEFRL_LAMBDA) / 2.0, _PEFRL_LAMBDA, _PEFRL_LAMBDA,
         (1.0 - 2.0 * _PEFRL_LAMBDA) / 2.0),
    ),
    SchemeKind.LEAPFROG: ((0.5, 0.5), (1.0,)),
    # drifts beta_k + alpha_{k-1} (k = 1..5) and alpha_5; kicks beta_k + alpha_k
    SchemeKind.COMPOSITION4: (
        tuple(b + a for b, a in zip(_COMP4_BETA, (0.0,) + _COMP4_ALPHA)) + (_COMP4_ALPHA[-1],),
        tuple(b + a for b, a in zip(_COMP4_BETA, _COMP4_ALPHA)),
    ),
}


def _splitting_advance(system: HamiltonianSystem, ws: _Workspace, dt: float, drifts, kicks):
    """One splitting step of ``ws.x`` in place: drift, kick, drift, ...,
    kick, drift with the given weights, each drift u += (a*dt)*f(u, v), each
    kick v += (b*dt)*F(u, v) on the latest fields.  Each drift and kick
    passes its coefficient to the rate as ``scale`` (held in ``ws.c``), so
    the scaled rate is formed in ``ws.k[0]`` by the rate itself.  The rates
    keep the boundary conditions, so the state stays as ``_load`` projected
    it there."""
    u, v = ws.state
    rate_u, rate_v = ws.slopes[0]
    c = ws.c
    for a, b in zip(drifts, kicks):
        c[...] = a * dt
        u += system.position_rate(u, v, rate_u, c)
        c[...] = b * dt
        v += system.velocity_rate(u, v, rate_v, c)
    c[...] = drifts[-1] * dt
    u += system.position_rate(u, v, rate_u, c)


# ---------------------------------------------------------------------------
# the scheme table and the public step
# ---------------------------------------------------------------------------

# The one map from a scheme to its code: advance(system, ws, dt) takes one
# step of ws.x in place; the RK loop returns gamma (1.0 for RK4, whose update
# (1.0*dt)*d is then bitwise the plain dt*d).
_ADVANCE = {
    SchemeKind.RK4: partial(_rrk_advance, gamma_rule=lambda system, ws, dt: 1.0),
    SchemeKind.RRK_ANALYTIC: partial(_rrk_advance, gamma_rule=_gamma_analytic),
    SchemeKind.RRK_BISECTION: partial(_rrk_advance, gamma_rule=_gamma_bisection),
    **{kind: partial(_splitting_advance, drifts=drifts, kicks=kicks)
       for kind, (drifts, kicks) in _SPLITTINGS.items()},
}


def step(system: HamiltonianSystem, scheme, state: State, dt: float) -> State:
    """One step of ``scheme`` from ``state``: bitwise the first step
    ``integrate`` takes from ``state`` with step dt, loaded and projected
    the same way, on a copy: the caller's arrays are never modified.
    ``scheme`` is a SchemeKind, a scheme's name in any case, or one of the
    short names ``rrk``, ``fr``, ``lf``, ``comp4``.  Returns the new (u, v);
    a relaxation step's gamma is not returned (``integrate`` records it in
    ``RunRecord.gammas``).  Raises ValueError as ``integrate`` does when the
    state does not fit the system or ``dt`` is not finite; a negative ``dt``
    steps backwards.
    """
    if not math.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt!r}")
    ws = _load(system, state)
    _ADVANCE[normalize_scheme(scheme)](system, ws, dt)
    return ws.state


# ---------------------------------------------------------------------------
# integration loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunRecord:
    """Energy trace of one integration run.

    ``times`` are the recorded instants (strictly increasing, starting at 0);
    ``energies`` the matching H values; ``steps`` the number of steps taken
    at each recorded instant (0 for the initial row, then r, 2r, ..., and
    ``n_steps`` for ``record_every`` = r); ``gammas`` the per-step relaxation
    parameters (relaxation schemes only, one entry per step, not subsampled,
    so the row at step s > 0 has gamma ``gammas[s - 1]``);
    ``final_state`` the end state; ``final_time`` the true end time (equal to
    t_end except for relaxation schemes).
    """

    scheme: SchemeKind
    times: np.ndarray
    energies: np.ndarray
    steps: np.ndarray
    gammas: Optional[np.ndarray]
    final_state: State
    final_time: float
    n_steps: int
    dt: float
    wall_seconds: float
    rhs_evals: int


def cfl_dt(grid: StaggeredGrid1D, cfl: float, wave_speed: float = 1.0) -> float:
    """dt = cfl * h / wave_speed."""
    _require_positive_finite(cfl=cfl, wave_speed=wave_speed)
    return cfl * grid.h / wave_speed


def _check_run(t_end, dt, record_every, rrk_tol, rrk_advance):
    """``integrate``'s argument rules, which the CLI applies to each run it builds."""
    _require_positive_finite(dt=dt, t_end=t_end, rrk_tol=rrk_tol)
    if not math.isfinite(t_end / dt):
        raise ValueError(f"t_end / dt must be finite, got {t_end!r} / {dt!r}")
    _require_positive_integer("record_every", record_every)
    if rrk_advance not in ("gamma_dt", "plain_dt"):
        raise ValueError(f"rrk_advance must be 'gamma_dt' or 'plain_dt', got {rrk_advance!r}")


def integrate(
    system: HamiltonianSystem,
    scheme,
    state0: State,
    t_end: float,
    dt: float,
    record_every: int = 1,
    rrk_tol: float = 1e-12,
    rrk_advance: str = "gamma_dt",
) -> RunRecord:
    """Integrate to t_end, recording (t, H) at t = 0, every ``record_every``
    steps and the last step, one energy evaluation per row (module docstring).

    Fixed-step schemes shorten the final step to land exactly on t_end.
    Relaxation schemes always take full steps of nominal size dt and advance
    time by gamma*dt (or plain dt with rrk_advance="plain_dt"), so the final
    time may exceed t_end by less than one step; the record keeps the true
    final time.  Raises ValueError for a bad argument (``rrk_tol`` too), or
    a ``state0`` whose fields differ in number, kind (complex) or length
    from ``system.state_lengths`` (the one layout check of a run), and
    NumericalFailure when the initial energy is not finite (``step`` 0), or
    when a step aborts or the energy becomes non-finite (its message then
    starts with the step number); the failure's ``scheme``, ``step`` and
    ``t`` fields are set.
    """
    _check_run(t_end, dt, record_every, rrk_tol, rrk_advance)
    kind = normalize_scheme(scheme)
    advance = _ADVANCE[kind]

    ws = _load(system, state0, rrk_tol)
    u, v = ws.state
    rows = []  # (t, H, steps) of each recorded row
    gammas = [] if kind.is_relaxation else None

    def record(t, n):  # the one way a row is taken; ws.h serves the bisection
        h = system.energy(u, v)
        if not math.isfinite(h):
            raise NumericalFailure(f"non-finite initial energy: {h!r}" if n == 0
                                   else f"non-finite energy {h!r} at t = {t:.6g}")
        ws.h = h
        rows.append((t, h, n))

    t = 0.0
    n_steps = 0
    tiny = 1e-12 * t_end
    try:
        # Overflow and invalid values surface as non-finite energies or
        # failed checks, each raised as an attributed NumericalFailure, so
        # numpy's own warnings would only repeat them on stderr.
        with np.errstate(all="ignore"):
            record(t, n_steps)
            start = time.perf_counter()
            if kind.is_relaxation:
                # If the discrete energy is not an invariant of the semi-discrete
                # flow (boundary quadrature defect), gamma decays geometrically
                # and t stops advancing; cap the step count so that stall raises
                # instead of looping forever.
                max_steps = 50 * max(1, math.ceil(t_end / dt)) + 1000
                while t < t_end - tiny:
                    n_steps += 1
                    if n_steps > max_steps:
                        raise NumericalFailure(
                            f"relaxation stalled: reached only t = {t:.6g} of "
                            f"{t_end:.6g} after {max_steps} steps (dt = {dt:.6g})"
                        )
                    gamma = advance(system, ws, dt)
                    t_step = gamma * dt if rrk_advance == "gamma_dt" else dt
                    if not t_step > 0.0:
                        raise NumericalFailure(
                            f"relaxation parameter collapsed: gamma = {gamma!r}"
                        )
                    t += t_step
                    gammas.append(gamma)
                    if n_steps % record_every == 0:
                        record(t, n_steps)
            else:
                total = max(1, math.ceil(t_end / dt - 1e-9))
                for n_steps in range(1, total + 1):
                    target = t_end if n_steps == total else n_steps * dt
                    advance(system, ws, target - t)
                    t = target
                    if n_steps % record_every == 0:
                        record(t, n_steps)
            if rows[-1][0] != t:
                record(t, n_steps)
    except NumericalFailure as exc:
        exc.scheme, exc.step, exc.t = kind.value, n_steps, t
        if n_steps:
            exc.args = (f"step {n_steps}: {exc.args[0] if exc.args else ''}",)
        raise
    wall = time.perf_counter() - start

    times, energies, steps = map(np.array, zip(*rows))
    return RunRecord(
        scheme=kind,
        times=times,
        energies=energies,
        steps=steps,
        gammas=None if gammas is None else np.array(gammas),
        final_state=(u, v),
        final_time=t,
        n_steps=n_steps,
        dt=dt,
        wall_seconds=wall,
        rhs_evals=n_steps * kind.rhs_evals_per_step,
    )
