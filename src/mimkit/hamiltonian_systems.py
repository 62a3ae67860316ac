"""Semi-discrete Hamiltonian systems over staggered-grid field pairs.

Each system is autonomous: it defines the rates ``position_rate(u, v)``
(du/dt) and ``velocity_rate(u, v)`` (dv/dt), paired by the one
``HamiltonianSystem.rhs(u, v)``, and the energy functional it
(approximately) conserves:

* ``WaveSystem``: the linear wave equation with homogeneous Dirichlet
  conditions, ``u_t = v``, ``v_t = L u``, with energy
  ``H = (1/2)(<v, v>_Q + <G u, G u>_P)``; both fields live on extended
  centers.
* ``ShallowWaterSystem``: the nonlinear shallow-water equations with surface
  elevation ``e`` on extended centers and velocity ``u`` on nodes,
  ``e_t = -D_hat((d0 + I_G e) * u)``, ``u_t = -g G e - u * G(I_D u)``, with
  energy ``H = (1/2)(g <e, e>_Q + <(d0 + I_G e) u, u>_P)``; only its
  ``position_rate`` checks the total depth, once per evaluation.
* ``HarmonicOscillator``: the two-dimensional oracle ``u' = v, v' = -u`` with
  ``H = (u^2 + v^2)/2`` and a closed-form rotation solution, used to pin
  integrator orders and sign conventions.

Boundary handling: ``apply_boundary(u, v)`` projects a state onto the
boundary conditions in place (the wave system zeroes the Dirichlet end
values of both fields, shallow water the velocity at its walls; the
oscillator has none to impose), and the integrators call it once, on the
state they load.  The rates keep the boundary conditions (the field
systems' rates are zero at the ends), so explicit updates never move a
projected state off them.

Each system states the lengths of its two fields (``state_lengths``, from
its grid), which ``integrate`` checks once against the initial state, naming
the field.  Rates, energies and inner products take plain arrays and make no
length check of their own; called directly with a wrong-length field, they
raise ValueError from the first product that meets it (``matvec`` checks
its shapes, numpy its broadcasts).

The ``out`` and ``scale`` contract: ``position_rate(u, v, out, scale)`` and
``velocity_rate(u, v, out, scale)`` write their rate into the float array
``out`` and return it; ``rhs(u, v, out)`` takes a pair ``(out_u, out_v)``
and returns it.  With ``scale`` given (a splitting step's drift or kick
coefficient, a 0-d float64 array), a rate writes ``scale * rate`` instead,
bitwise the rate multiplied by ``scale`` afterwards, end values included:
the wave and oscillator drifts multiply ``v`` by it straight into ``out``,
saving the copy of ``v``, and every other rate multiplies ``out`` in place
once its end values are zero.  ``rhs`` and the Runge-Kutta stages leave it
out.  ``out`` and ``scale`` are positional, so a delegating proxy that
forwards ``*args`` passes them on, and ``out`` must not overlap the inputs.
With ``out`` left out a rate allocates a fresh array and then runs the same
code, so the two calls give bitwise the same values.  Energies,
``quadratic_parts`` and the intermediate products of the field systems'
rates go through scratch arrays each system allocates once from its grid,
and their inner products through the operator set's own scratch
(``MimeticOperatorSet.inner_q``), so a step allocates nothing.  It also
means one system instance must not be used from two threads at once; nor
may two systems built on the same cached operator set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalFailure, _require_positive_finite
from .grid_fields import StaggeredGrid1D
from .mimetic_ops import MimeticOperatorSet, matvec

__all__ = [
    "HamiltonianSystem",
    "WaveState",
    "ShallowWaterState",
    "WaveSystem",
    "ShallowWaterSystem",
    "HarmonicOscillator",
    "wave_standing_exact",
    "gaussian_ic",
    "shallow_water_ic",
]


class HamiltonianSystem:
    """An autonomous Hamiltonian ODE system: rates + energy + boundary handler.

    ``wave_speed`` (when not None) is the characteristic speed used by
    CFL-based step selection.
    """

    name: str = "abstract"
    wave_speed: Optional[float] = None

    def rhs(self, u: np.ndarray, v: np.ndarray, out=None):
        """(du/dt, dv/dt), the rates Runge-Kutta stages evaluate; ``out`` is
        an optional pair of arrays to write them into."""
        out_u, out_v = (None, None) if out is None else out
        return self.position_rate(u, v, out_u), self.velocity_rate(u, v, out_v)

    def position_rate(self, u: np.ndarray, v: np.ndarray, out=None, scale=None) -> np.ndarray:
        """du/dt (splitting schemes' drift), times ``scale`` when given,
        written into ``out``."""
        raise NotImplementedError

    def velocity_rate(self, u: np.ndarray, v: np.ndarray, out=None, scale=None) -> np.ndarray:
        """dv/dt (splitting schemes' kick), times ``scale`` when given,
        written into ``out``."""
        raise NotImplementedError

    def energy(self, u: np.ndarray, v: np.ndarray) -> float:
        raise NotImplementedError

    @property
    def state_lengths(self) -> dict:
        """{field name: length} of the two state fields, in (u, v) order."""
        raise NotImplementedError

    def apply_boundary(self, u: np.ndarray, v: np.ndarray) -> None:
        """Project the float arrays u, v onto the boundary conditions, in
        place (default: none to impose).  Integrators call it once, on the
        state they load; the rates must keep what it imposes."""

    def quadratic_parts(self, u, v, d_u, d_v):
        """(E, T) with H(state + s*d) - H(state) = s*E + (1/2)s^2*T.

        Only defined when the energy is a quadratic form; the analytic
        relaxation parameter is gamma = -2E/(dt*T).
        """
        raise NumericalFailure(
            f"{self.name}: energy is not a quadratic form; "
            "analytic relaxation is unavailable (use RRK_bisection)"
        )


@dataclass(frozen=True)
class WaveState:
    """Wave-equation state: displacement and velocity on extended centers."""

    u: np.ndarray
    v: np.ndarray

    def arrays(self):
        return self.u, self.v


@dataclass(frozen=True)
class ShallowWaterState:
    """Shallow-water state: elevation e (extended), velocity u (node), plus
    still-water depth d0 and gravity g.  Requires d0 + e > 0 everywhere."""

    e: np.ndarray
    u: np.ndarray
    d0: float = 1.0
    g: float = 1.0

    def arrays(self):
        return self.e, self.u


def _out(out, n):
    """The rate buffer: ``out``, or a new length-n float array if it is None."""
    return np.empty(n) if out is None else out


def _scaled_copy(a, out, scale):
    """``a``, times ``scale`` when given, written into the rate buffer
    ``_out(out, len(a))``."""
    out = _out(out, len(a))
    if scale is None:
        out[...] = a
    else:
        np.multiply(a, scale, out=out)
    return out


def _scaled(rate, scale):
    """``rate`` multiplied by ``scale`` in place, when it is given."""
    if scale is not None:
        rate *= scale
    return rate


class WaveSystem(HamiltonianSystem):
    """u_t = v, v_t = L u with homogeneous Dirichlet conditions.  The kick
    ``L u`` is +0.0 at both ends with no end value of its own: rows 0 and
    N+1 of L are empty, as D_hat's are, and ``matvec`` zero-fills its output."""

    name = "wave"
    wave_speed = 1.0

    def __init__(self, ops: MimeticOperatorSet):
        self.ops = ops
        self._L, self._G = ops.kernels["L"], ops.kernels["G"]
        self._gu, self._gd = np.empty((2, ops.grid.n_cells + 1))

    @property
    def state_lengths(self):
        n = self.ops.grid.n_cells + 2
        return {"u": n, "v": n}

    def position_rate(self, u, v, out=None, scale=None):
        return _scaled_copy(v, out, scale)

    def velocity_rate(self, u, v, out=None, scale=None):
        return _scaled(matvec(self._L, u, _out(out, len(u))), scale)

    def energy(self, u, v):
        ops = self.ops
        gu = matvec(self._G, u, self._gu)
        return 0.5 * (ops.inner_q(v, v) + ops.inner_p(gu, gu))

    def apply_boundary(self, u, v):
        """Zero the end values of both fields in place (+0.0)."""
        u[0] = u[-1] = v[0] = v[-1] = 0.0

    def quadratic_parts(self, u, v, d_u, d_v):
        ops = self.ops
        gu, gdu = matvec(self._G, u, self._gu), matvec(self._G, d_u, self._gd)
        E = ops.inner_q(v, d_v) + ops.inner_p(gu, gdu)
        T = ops.inner_q(d_v, d_v) + ops.inner_p(gdu, gdu)
        return E, T


class ShallowWaterSystem(HamiltonianSystem):
    """Nonlinear shallow water: e_t = -D_hat((d0 + I_G e) u),
    u_t = -g G e - u * G(I_D u); energy is non-quadratic.  Only
    ``position_rate`` checks the total depth; the integrators call it on
    every e ``velocity_rate`` sees, in the same step (``rhs`` first, a
    splitting step's drift after each kick), and a direct call is unchecked.
    ``d0`` and ``g`` must be positive and finite numbers, not bools
    (ValueError).

    Both rates are zero at both ends of both fields, so e keeps its initial
    end values and u the solid-wall condition u = 0 that ``apply_boundary``
    imposes on the state the integrators load."""

    name = "shallow_water"

    def __init__(self, ops: MimeticOperatorSet, d0: float = 1.0, g: float = 1.0):
        self.ops = ops
        kernels = ops.kernels
        self._G, self._D_hat = kernels["G"], kernels["D_hat"]
        self._I_D, self._I_G = kernels["I_D"], kernels["I_G"]
        _require_positive_finite(d0=d0, g=g)
        self.d0, self.g = float(d0), float(g)
        self.wave_speed = float(np.sqrt(self.g * self.d0))
        # d0 and -g as 0-d arrays for the in-place updates, which take
        # numpy's slower path for a Python float; the values are the same
        self._d0, self._minus_g = np.array(self.d0), np.array(-self.g)
        n = ops.grid.n_cells
        self._ext = np.empty(n + 2)
        self._node = np.empty(n + 1)

    @property
    def state_lengths(self):
        n = self.ops.grid.n_cells
        return {"e": n + 2, "u": n + 1}

    def _depth_nodes(self, e, out):
        """Total depth d0 + I_G e at nodes, written into ``out``; aborts on
        non-positive depth, d0 + e first."""
        if self.d0 + e.min() <= 0.0:
            raise NumericalFailure("non-positive total depth: min(d0 + e) = "
                                   f"{self.d0 + float(e.min()):.3e}")
        depth = matvec(self._I_G, e, out)
        depth += self._d0
        if depth.min() <= 0.0:
            raise NumericalFailure(
                f"non-positive total depth at nodes: min = {float(depth.min()):.3e}"
            )
        return depth

    def position_rate(self, e, u, out=None, scale=None):
        flux = self._depth_nodes(e, self._node)
        flux *= u
        de = matvec(self._D_hat, flux, _out(out, len(e)))
        np.negative(de, out=de)
        de[0] = de[-1] = 0.0
        return _scaled(de, scale)

    def velocity_rate(self, e, u, out=None, scale=None):
        """du/dt, with no depth check (see the class docstring)."""
        du = matvec(self._G, e, _out(out, len(u)))
        du *= self._minus_g
        advection = matvec(self._G, matvec(self._I_D, u, self._ext), self._node)
        advection *= u
        du -= advection
        du[0] = du[-1] = 0.0
        return _scaled(du, scale)

    def apply_boundary(self, e, u):
        """Zero the wall velocity in place (+0.0); e keeps its end values."""
        u[0] = u[-1] = 0.0

    def energy(self, e, u):
        ops, depth_u = self.ops, self._node
        matvec(self._I_G, e, depth_u)
        depth_u += self._d0
        depth_u *= u
        return 0.5 * (self.g * ops.inner_q(e, e) + ops.inner_p(depth_u, u))


class HarmonicOscillator(HamiltonianSystem):
    """u' = v, v' = -u on length-1 arrays; H = (u^2 + v^2)/2.

    The exact flow is rotation: u(t) = u0 cos t + v0 sin t,
    v(t) = -u0 sin t + v0 cos t.
    """

    name = "harmonic_oscillator"

    @property
    def state_lengths(self):
        return {"u": 1, "v": 1}

    def position_rate(self, u, v, out=None, scale=None):
        return _scaled_copy(v, out, scale)

    def velocity_rate(self, u, v, out=None, scale=None):
        return _scaled(np.negative(u, out=_out(out, len(u))), scale)

    def energy(self, u, v):
        return 0.5 * float(u @ u + v @ v)

    def quadratic_parts(self, u, v, d_u, d_v):
        E = float(u @ d_u + v @ d_v)
        T = float(d_u @ d_u + d_v @ d_v)
        return E, T

    @staticmethod
    def initial_state(u0: float = 1.0, v0: float = 0.0):
        return np.array([float(u0)]), np.array([float(v0)])

    @staticmethod
    def exact_solution(t: float, u0: float = 1.0, v0: float = 0.0):
        c, s = np.cos(t), np.sin(t)
        return np.array([u0 * c + v0 * s]), np.array([-u0 * s + v0 * c])


# ---------------------------------------------------------------------------
# exact solutions and initial conditions
# ---------------------------------------------------------------------------

def wave_standing_exact(x, t):
    """Standing-wave solution u(x, t) = sin(pi x) cos(pi t) on [0, 1]
    (zero-boundary, zero-source); reference for convergence studies."""
    return np.sin(np.pi * np.asarray(x, dtype=float)) * np.cos(np.pi * t)


def _bump(x, center, width, amplitude):
    """amplitude*exp(-((x-center)/width)^2); the width must be positive and finite."""
    _require_positive_finite(width=width)
    return amplitude * np.exp(-(((x - center) / width) ** 2))


def gaussian_ic(
    grid: StaggeredGrid1D,
    center: float = 0.5,
    width: float = 0.1,
    amplitude: float = 1.0,
) -> WaveState:
    """Gaussian displacement pulse amplitude*exp(-((x-center)/width)^2)
    sampled at extended centers, boundary entries zeroed; zero velocity.
    Defaults reproduce exp(-100 (x - 1/2)^2); ValueError unless 0 < width < inf.
    Built with numpy's warnings off: an overflowing exponent gives exactly 0."""
    with np.errstate(all="ignore"):
        u = _bump(grid.extended, center, width, amplitude)
    u[0] = u[-1] = 0.0
    return WaveState(u=u, v=np.zeros_like(u))


def shallow_water_ic(
    grid: StaggeredGrid1D,
    offset: float = 1.0,
    amplitude: float = 0.1,
    center: float = 0.0,
    width: float = 1.0,
    d0: float = 1.0,
    g: float = 1.0,
) -> ShallowWaterState:
    """Still velocity with a Gaussian elevation bump
    offset + amplitude*exp(-((x-center)/width)^2) at extended centers.
    Defaults reproduce eta = 1 + 0.1 exp(-x^2), u = 0; width as in ``gaussian_ic``.
    Built with numpy's warnings off: an overflowing elevation is inf, which
    ``integrate`` refuses as a non-finite initial energy."""
    with np.errstate(all="ignore"):
        e = offset + _bump(grid.extended, center, width, amplitude)
    u = np.zeros(grid.n_cells + 1)
    return ShallowWaterState(e=e, u=u, d0=float(d0), g=float(g))
