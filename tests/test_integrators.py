"""Time integrators: tableau algebra, per-scheme accuracy and order,
symplecticity, reversibility, relaxation behavior, and the integrate()
driver contract."""
from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mimkit import (
    TABLEAU_IMPLICIT_MIDPOINT,
    TABLEAU_RK4,
    ButcherTableau,
    NumericalFailure,
    SchemeKind,
    ShallowWaterSystem,
    WaveSystem,
    build_grid,
    build_operator_set,
    cfl_dt,
    gaussian_ic,
    integrate,
    normalize_scheme,
    shallow_water_ic,
    step,
    symplecticity_residual,
)
from mimkit.hamiltonian_systems import HarmonicOscillator
from mimkit.integrators import _SPLITTINGS, _gamma_bisection, _load

from oracles import (
    forest_ruth_drift_kick,
    linear_wave_flow,
    map_jacobian,
    observed_orders,
    relaxation_gamma_from_samples,
    rk4_amplification,
    rotation_exact,
    splitting_amplification,
    standing_wave,
    symplectic_defect,
    tableau_symplecticity_matrix,
)

ALL_SCHEMES = ["rk4", "rrk_analytic", "rrk_bisection", "fr", "pefrl", "lf", "comp4"]
FOURTH_ORDER = ["rk4", "rrk_analytic", "rrk_bisection", "fr", "pefrl", "comp4"]
SPLITTINGS = ["lf", "fr", "pefrl", "comp4"]

OSC = HarmonicOscillator()
STATE0 = HarmonicOscillator.initial_state(0.8, -0.6)


# ---------------------------------------------------------------------------
# Tableaus and the symplecticity residual
# ---------------------------------------------------------------------------


def test_rk4_tableau_coefficients():
    assert TABLEAU_RK4.b == (1 / 6, 1 / 3, 1 / 3, 1 / 6)
    assert TABLEAU_RK4.c == (0.0, 0.5, 0.5, 1.0)
    assert TABLEAU_IMPLICIT_MIDPOINT.b == (1.0,)


def test_tableau_rejects_inconsistent_weights():
    with pytest.raises(ValueError, match="sum"):
        ButcherTableau(a=((0.0,),), b=(0.5,), c=(0.0,))


def test_tableau_rejects_inconsistent_dimensions():
    with pytest.raises(ValueError, match="inconsistent tableau dimensions"):
        ButcherTableau(a=((0.0,),), b=(0.5, 0.5), c=(0.0, 0.5))


def test_symplecticity_residual_matches_algebraic_oracle():
    for tableau in (TABLEAU_RK4, TABLEAU_IMPLICIT_MIDPOINT):
        m = tableau_symplecticity_matrix(tableau.a, tableau.b)
        assert symplecticity_residual(tableau) == pytest.approx(
            np.abs(m).max(), abs=1e-15)
    assert symplecticity_residual(TABLEAU_RK4) == pytest.approx(1 / 9, abs=1e-15)
    assert symplecticity_residual(TABLEAU_IMPLICIT_MIDPOINT) == 0.0


# ---------------------------------------------------------------------------
# Scheme table
# ---------------------------------------------------------------------------


def test_scheme_alias_resolution():
    """A scheme is named by its value in any case or by one of four short
    names; no other spelling resolves, and the refusal lists the schemes."""
    for kind in SchemeKind:
        for name in (kind.value, kind.value.upper(), kind.value.lower()):
            assert normalize_scheme(name) is kind
        assert normalize_scheme(kind) is kind  # pass-through
    short = {"rrk": SchemeKind.RRK_ANALYTIC, "fr": SchemeKind.FOREST_RUTH,
             "lf": SchemeKind.LEAPFROG, "comp4": SchemeKind.COMPOSITION4}
    for name, kind in short.items():
        assert normalize_scheme(name) is kind
    valid = ", ".join(kind.value for kind in SchemeKind)
    for name in ("rrk-root", "rrk_root", "forest_ruth", "fruth", "rk45"):
        with pytest.raises(ValueError, match=f"^unknown scheme {name!r}; expected one of: {valid}$"):
            normalize_scheme(name)


def test_scheme_properties():
    assert SchemeKind.RRK_ANALYTIC.is_relaxation
    assert SchemeKind.RRK_BISECTION.is_relaxation
    assert not SchemeKind.RK4.is_relaxation
    assert SchemeKind.LEAPFROG.nominal_order == 2
    for name in FOURTH_ORDER:
        assert normalize_scheme(name).nominal_order == 4


@pytest.mark.parametrize("kind", list(_SPLITTINGS), ids=lambda kind: kind.value)
def test_splitting_tables_are_consistent_palindromes(kind):
    """Each splitting scheme is its (drifts, kicks) table: one more drift
    than kicks, each summing to 1 (consistency), each a palindrome (time
    symmetry).  Forest-Ruth's table is the triple jump of the oracle."""
    drifts, kicks = _SPLITTINGS[kind]
    assert len(drifts) == len(kicks) + 1
    assert abs(sum(drifts) - 1.0) <= 1e-15
    assert abs(sum(kicks) - 1.0) <= 1e-15
    assert drifts == drifts[::-1]
    assert kicks == kicks[::-1]
    if kind is SchemeKind.FOREST_RUTH:
        c, d = forest_ruth_drift_kick()
        np.testing.assert_allclose(drifts, c, rtol=0, atol=1e-15)
        np.testing.assert_allclose(kicks, d, rtol=0, atol=1e-15)


@pytest.mark.parametrize("name,expected", [
    ("rk4", 4), ("rrk_analytic", 4), ("rrk_bisection", 4), ("fr", 3), ("pefrl", 4),
    ("lf", 1), ("comp4", 5),
])
def test_declared_rhs_evals_match_actual_calls(name, expected):
    """The per-step work read from the coefficient tables is honest: count
    real force evaluations.  Splitting kicks call velocity_rate, and so does
    every rhs call of a Runge-Kutta stage."""

    class Counting(HarmonicOscillator):
        def __init__(self):
            self.calls = 0

        def velocity_rate(self, u, v, out=None, scale=None):
            self.calls += 1
            return super().velocity_rate(u, v, out, scale)

    system = Counting()
    integrate(system, name, STATE0, 1.0, 0.1)
    kind = normalize_scheme(name)
    assert kind.rhs_evals_per_step == expected
    assert system.calls == 10 * expected


# ---------------------------------------------------------------------------
# Accuracy against the exact rotation
# ---------------------------------------------------------------------------


def _rotation_error(record):
    ue, ve = HarmonicOscillator.exact_solution(record.final_time, 0.8, -0.6)
    return max(abs(record.final_state[0][0] - ue[0]),
               abs(record.final_state[1][0] - ve[0]))


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_rotation_accuracy_small_step(name):
    record = integrate(OSC, name, STATE0, 0.1, 1e-3)
    tol = 1e-6 if name == "lf" else 1e-12
    assert _rotation_error(record) <= tol


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_convergence_order_on_oscillator(name):
    errors = []
    for dt in (0.02, 0.01, 0.005):
        errors.append(_rotation_error(integrate(OSC, name, STATE0, 1.0, dt)))
    expected = 2.0 if name == "lf" else 4.0
    for rate in observed_orders(errors):
        assert rate == pytest.approx(expected, abs=0.1)


# cfl values per scheme for the temporal order on the semi-discrete wave:
# above round-off and inside each scheme's stability limit (Forest-Ruth's is
# cfl 0.642).  Measured max errors at k = 4, N = 64, t = 0.8:
#   RK4          3.10e-8, 2.01e-9, 1.22e-10, 7.58e-12 (orders 3.95, 4.05, 4.01)
#   ForestRuth   1.55e-8, 9.32e-10, 5.78e-11          (4.06, 4.01)
#   PEFRL        3.30e-9, 1.97e-10, 1.24e-11          (4.07, 3.99)
#   Composition4 1.12e-10, 7.15e-12                   (3.97; at cfl 0.25 a
#                round-off floor near 2e-13 pulls the order to 3.54)
#   Leapfrog     9.49e-5 .. 1.48e-6                   (2.00 throughout)
TEMPORAL_CFLS = {
    "rk4": (0.8, 0.4, 0.2, 0.1),
    "fr": (0.4, 0.2, 0.1),
    "pefrl": (0.8, 0.4, 0.2),
    "comp4": (1.0, 0.5),
    "lf": (0.8, 0.4, 0.2, 0.1),
}


@pytest.mark.parametrize("name", list(TEMPORAL_CFLS))
def test_temporal_order_against_the_exact_semi_discrete_wave(name):
    """Each scheme's own temporal order, with no spatial error in it: the
    k = 4, N = 64 standing wave on [0, 1] to t = 0.8 against the oracle's
    exact flow of u'' = L u on L's Dirichlet interior block, at the run's
    final time.  4 +- 0.25 for the fourth-order schemes, 2 +- 0.1 for
    Leapfrog."""
    grid = build_grid(0.0, 1.0, 64)
    ops = build_operator_set(4, grid)
    system, interior = WaveSystem(ops), ops.L.toarray()[1:-1, 1:-1]
    u0 = standing_wave(grid.extended, 0.0)
    u0[[0, -1]] = 0.0
    errors = []
    for cfl in TEMPORAL_CFLS[name]:
        record = integrate(system, name, (u0, np.zeros_like(u0)), 0.8, cfl_dt(grid, cfl),
                           record_every=10**9)
        exact = linear_wave_flow(interior, u0[1:-1], record.final_time)
        errors.append(np.abs(record.final_state[0][1:-1] - exact).max())
    expected, tol = (2.0, 0.1) if name == "lf" else (4.0, 0.25)
    for rate in observed_orders(errors):
        assert rate == pytest.approx(expected, abs=tol)


# ---------------------------------------------------------------------------
# Symplecticity of the one-step maps (oracle: phase-space Jacobian)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", SPLITTINGS, ids=["lf_sync", "fr", "pefrl", "comp4"])
def test_splitting_maps_are_symplectic(name):
    def phase_map(q, p):
        (u, v) = step(OSC, name, (np.array([q]), np.array([p])), 0.3)
        return u[0], v[0]

    J = map_jacobian(phase_map, 0.8, -0.6)
    assert symplectic_defect(J) <= 1e-9


def test_rk4_map_defect_matches_truncated_rotation():
    """RK4 on the oscillator is exactly the degree-4 Taylor polynomial of
    the rotation, whose symplectic defect is O(dt^6) but nonzero."""
    dt = 0.3

    def phase_map(q, p):
        (u, v) = step(OSC, "rk4", (np.array([q]), np.array([p])), dt)
        return u[0], v[0]

    J = map_jacobian(phase_map, 0.8, -0.6)
    oracle = symplectic_defect(rk4_amplification(dt))
    assert oracle > 1e-6  # genuinely not symplectic
    assert symplectic_defect(J) == pytest.approx(oracle, rel=1e-4, abs=1e-10)


def test_rk4_step_equals_truncated_rotation_matrix(rng):
    dt = 0.17
    M = rk4_amplification(dt)
    for _ in range(5):
        q, p = rng.standard_normal(2)
        u, v = step(OSC, "rk4", (np.array([q]), np.array([p])), dt)
        expected = M @ np.array([q, p])
        assert u[0] == pytest.approx(expected[0], abs=1e-14)
        assert v[0] == pytest.approx(expected[1], abs=1e-14)


def _rk4_step_generic(system, state, dt):
    """RK4 as a loop over every entry of TABLEAU_RK4, field by field, with
    the b-weighted sums formed by ``sum`` (which starts from 0).  It projects
    a float copy of its input onto the boundary conditions, as ``integrate``
    loads a state, and then projects again after every stage and the step,
    which the in-place steps no longer do."""
    u, v = (np.array(x, dtype=float) for x in state)
    system.apply_boundary(u, v)
    a, b = TABLEAU_RK4.a, TABLEAU_RK4.b
    ks = []
    for i in range(4):
        ui, vi = u, v
        for j in range(i):
            if a[i][j] != 0.0:
                ku, kv = ks[j]
                ui = ui + dt * a[i][j] * ku
                vi = vi + dt * a[i][j] * kv
        if i > 0:
            system.apply_boundary(ui, vi)
        ks.append(system.rhs(ui, vi))
    d_u = sum(bi * ku for bi, (ku, kv) in zip(b, ks))
    d_v = sum(bi * kv for bi, (ku, kv) in zip(b, ks))
    u, v = u + dt * d_u, v + dt * d_v
    system.apply_boundary(u, v)
    return u, v


@pytest.mark.parametrize("problem", ["wave", "shallow_water"])
def test_rk4_step_bitwise_equals_generic_tableau_loop(problem, rng):
    """The RK4 step keeps its stage slopes in one buffer over both fields;
    every entry must come out bit for bit as in the generic tableau loop
    (signed zeros included), also when the two fields differ in length (shallow
    water: centers and nodes).  A changed summation order, a dropped stage
    coefficient or a sum that no longer starts from 0 turns this red."""
    grid = build_grid(-3.0, 3.0, 48)
    ops = build_operator_set(4, grid)
    if problem == "wave":
        system = WaveSystem(ops)
        u, v = rng.standard_normal((2, grid.n_cells + 2))
        u[0] = u[-1] = v[0] = v[-1] = 0.0
        v[5:9] = -0.0
    else:
        system = ShallowWaterSystem(ops)
        e0, u0 = shallow_water_ic(grid).arrays()
        u = e0 + 0.01 * rng.standard_normal(e0.shape)
        v = u0 + 0.01 * rng.standard_normal(u0.shape)
    dt = cfl_dt(grid, 0.4)
    state = (u, v)
    for _ in range(3):
        got = step(system, "rk4", state, dt)
        want = _rk4_step_generic(system, state, dt)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        state = got


class _Growth(HarmonicOscillator):
    """u' = u, v' = v: every stage slope of a -0.0 state is -0.0."""

    def position_rate(self, u, v, out=None, scale=None):
        out = np.empty_like(u) if out is None else out
        out[...] = u
        if scale is not None:
            out *= scale
        return out

    def velocity_rate(self, u, v, out=None, scale=None):
        out = np.empty_like(v) if out is None else out
        out[...] = v
        if scale is not None:
            out *= scale
        return out


def _int_wave_case():
    u = np.zeros(18, dtype=int)
    v = np.zeros(18, dtype=int)
    u[5], v[9] = 1, 2
    return WaveSystem(build_operator_set(2, build_grid(0.0, 1.0, 16))), (u, v)


def _wave_case_off_boundary():
    """A float state whose end values are not zero: ``step`` projects it
    once as it loads it, as ``integrate`` does, before the first stage."""
    u, v = (np.linspace(1.0, 2.0, 18) for _ in range(2))
    return WaveSystem(build_operator_set(2, build_grid(0.0, 1.0, 16))), (u, v)


@pytest.mark.parametrize("case", [
    lambda: (_Growth(), (np.array([-0.0]), np.array([-0.0]))),
    _int_wave_case,
    _wave_case_off_boundary,
], ids=["signed_zero", "integer_state", "nonzero_ends"])
def test_rk4_step_edge_states_match_generic_tableau_loop(case):
    system, state = case()
    got = step(system, "rk4", state, 0.1)
    want = _rk4_step_generic(system, state, 0.1)
    for g, w in zip(got, want):
        assert g.dtype == np.float64
        assert g.tobytes() == w.tobytes()


def _splitting_step_allocating(system, state, dt, drifts, kicks):
    """The splitting step as it was before steps updated buffers in place:
    every drift and kick allocates its result.  It projects a float copy of
    its input onto the boundary conditions first and the state after the
    step, which the in-place step no longer does."""
    u, v = (np.array(x, dtype=float) for x in state)
    system.apply_boundary(u, v)
    for a, b in zip(drifts, kicks):
        u = u + (a * dt) * system.position_rate(u, v)
        v = v + (b * dt) * system.velocity_rate(u, v)
    u = u + (drifts[-1] * dt) * system.position_rate(u, v)
    system.apply_boundary(u, v)
    return u, v


def _field_case(problem):
    """(system, state, dt) for a short run on a small wave or shallow-water
    grid.  dt is not a power of two, so a regrouped product such as
    (rate*a)*dt for rate*(a*dt) changes bits."""
    if problem == "wave":
        grid = build_grid(-3.0, 3.0, 50)
        system = WaveSystem(build_operator_set(4, grid))
        return system, gaussian_ic(grid, center=0.3, width=0.5).arrays(), cfl_dt(grid, 0.5)
    grid = build_grid(-10.0, 10.0, 70)
    system = ShallowWaterSystem(build_operator_set(4, grid))
    return system, shallow_water_ic(grid).arrays(), cfl_dt(grid, 0.25, system.wave_speed)


def _drive(one_step, system, state, dt, n_steps):
    """Advance with ``one_step`` over integrate's time grid: step i lands on
    i*dt, so its size is i*dt - (i - 1)*dt."""
    t = 0.0
    for i in range(1, n_steps + 1):
        state = one_step(system, state, i * dt - t)
        t = i * dt
    return state


@pytest.mark.parametrize("problem", ["wave", "shallow_water"])
@pytest.mark.parametrize("kind", list(_SPLITTINGS), ids=lambda kind: kind.value)
def test_in_place_splitting_bitwise_equals_allocating_reference(kind, problem):
    """Fifty in-place steps, through the public ``step`` and through
    integrate's own buffer, give bit for bit the allocating loop's state."""
    system, state, dt = _field_case(problem)
    drifts, kicks = _SPLITTINGS[kind]

    def reference(system, state, dt):
        return _splitting_step_allocating(system, state, dt, drifts, kicks)

    got, want = state, state
    for _ in range(50):
        got, want = step(system, kind, got, dt), reference(system, want, dt)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    run = integrate(system, kind, state, 50 * dt, dt, record_every=10)
    want = _drive(reference, system, state, dt, 50)
    assert [a.tobytes() for a in run.final_state] == [a.tobytes() for a in want]


@pytest.mark.parametrize("problem", ["wave", "shallow_water"])
def test_in_place_rk4_run_bitwise_equals_generic_tableau_loop(problem):
    system, state, dt = _field_case(problem)
    want = _drive(_rk4_step_generic, system, state, dt, 50)
    run = integrate(system, "rk4", state, 50 * dt, dt, record_every=10)
    assert [a.tobytes() for a in run.final_state] == [a.tobytes() for a in want]


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_caller_arrays_are_never_modified(name):
    """Steps update buffers of their own: integrate copies state0 once, and
    the public ``step`` copies its input, so the caller's arrays keep their
    bits and the final state shares no memory with them."""
    grid = build_grid(0.0, 1.0, 64)
    system = WaveSystem(build_operator_set(4, grid))
    state = gaussian_ic(grid, center=0.5, width=0.1).arrays()
    before = [a.tobytes() for a in state]
    record = integrate(system, name, state, 0.05, cfl_dt(grid, 0.5))
    assert [a.tobytes() for a in state] == before
    for final in record.final_state:
        assert not any(np.shares_memory(final, a) for a in state)
    new = step(system, name, state, cfl_dt(grid, 0.5))
    assert [a.tobytes() for a in state] == before
    for final in new:
        assert not any(np.shares_memory(final, a) for a in state)


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_public_steps_reject_wave_state_of_wrong_length(name):
    """``step`` makes integrate's layout check: a wave field one entry
    short or long raises integrate's ValueError, naming the field and its
    length, before any product meets it."""
    grid = build_grid(0.0, 1.0, 64)
    system = WaveSystem(build_operator_set(4, grid))
    u, v = gaussian_ic(grid, center=0.5, width=0.1).arrays()
    for state, field in (((u[:-1], v), "u"), ((u, v[:-1]), "v"),
                         ((np.append(u, 0.0), np.append(v, 0.0)), "u")):
        with pytest.raises(ValueError, match=f"^wave: initial {field} must have length 66"):
            step(system, name, state, 1e-3)


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_step_is_integrates_first_step(name):
    """``step`` loads and projects a state as ``integrate`` does, so from a
    state whose end values are not zero it gives bit for bit the state of a
    one-step run (with plain_dt a relaxation run to t_end = dt takes one
    step)."""
    system, state = _wave_case_off_boundary()
    run = integrate(system, name, state, 0.01, 0.01, rrk_advance="plain_dt")
    assert run.n_steps == 1
    got = step(system, name, state, 0.01)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in run.final_state]


class _BoundaryWatch(WaveSystem):
    """A wave system that counts its projections and checks that every
    state a rate or the energy is evaluated at has +0.0 end values."""

    def __init__(self, ops):
        super().__init__(ops)
        self.projections = 0
        self.checked = 0

    def apply_boundary(self, u, v):
        self.projections += 1
        super().apply_boundary(u, v)

    def _assert_ends(self, *fields):
        ends = np.array([x[i] for x in fields for i in (0, -1)])
        assert np.all(ends == 0.0) and not np.signbit(ends).any(), ends
        self.checked += 1

    def position_rate(self, u, v, out=None, scale=None):
        self._assert_ends(u, v)
        return super().position_rate(u, v, out, scale)

    def velocity_rate(self, u, v, out=None, scale=None):
        self._assert_ends(u, v)
        return super().velocity_rate(u, v, out, scale)

    def energy(self, u, v):
        self._assert_ends(u, v)
        return super().energy(u, v)


def _watched_wave_case():
    """A k=4 wave whose initial end values are -0.0 and 1.0, and a dt that
    is not a power of two."""
    grid = build_grid(-5.0, 5.0, 100)
    system = _BoundaryWatch(build_operator_set(4, grid))
    u, v = gaussian_ic(grid, center=0.3, width=0.5).arrays()
    u[0], v[-1] = -0.0, 1.0
    return system, (u, v), cfl_dt(grid, 0.08)


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_integrate_projects_once_and_ends_stay_positive_zero(name):
    """``integrate`` projects its state once, at load, and the four end
    values then stay +0.0 (zero, sign bit clear) at every stage, relaxation
    trial and step of 200 steps."""
    system, state, dt = _watched_wave_case()
    run = integrate(system, name, state, 200 * dt, dt, rrk_advance="plain_dt")
    assert system.projections == 1
    assert run.n_steps >= 200 and system.checked > 200
    system._assert_ends(*run.final_state)


# ---------------------------------------------------------------------------
# Time symmetry
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", SPLITTINGS, ids=["lf_sync", "fr", "pefrl", "comp4"])
def test_symmetric_schemes_reverse_exactly(name):
    state = (STATE0[0].copy(), STATE0[1].copy())
    for _ in range(20):
        state = step(OSC, name, state, 0.05)
    for _ in range(20):
        state = step(OSC, name, state, -0.05)
    assert abs(state[0][0] - 0.8) <= 1e-12
    assert abs(state[1][0] + 0.6) <= 1e-12


def test_rk4_is_not_time_symmetric():
    state = (STATE0[0].copy(), STATE0[1].copy())
    for _ in range(20):
        state = step(OSC, "rk4", state, 0.05)
    for _ in range(20):
        state = step(OSC, "rk4", state, -0.05)
    assert abs(state[0][0] - 0.8) > 1e-10


# ---------------------------------------------------------------------------
# Long-run energy behavior
# ---------------------------------------------------------------------------


def test_leapfrog_energy_bounded_rk4_energy_decays():
    """Symplectic hallmark: leapfrog's energy error oscillates without
    growth over many periods, while RK4's energy decreases monotonically."""
    lf = integrate(OSC, "lf", STATE0, 200.0, 0.05)
    drift = np.abs(lf.energies - lf.energies[0]) / lf.energies[0]
    half = drift.size // 2
    assert drift.max() <= 1e-3
    assert drift[half:].max() <= 1.05 * drift[:half].max()

    rk4 = integrate(OSC, "rk4", STATE0, 200.0, 0.05)
    assert np.all(np.diff(rk4.energies) <= 1e-15)
    assert rk4.energies[-1] < rk4.energies[0] * (1.0 - 1e-8)


# ---------------------------------------------------------------------------
# Relaxation parameter
# ---------------------------------------------------------------------------


def _rk4_direction(system, state, dt):
    """Recover the RK4 increment direction d = (step(state) - state)/dt."""
    u1, v1 = step(system, "rk4", state, dt)
    return (u1 - state[0]) / dt, (v1 - state[1]) / dt


def test_analytic_gamma_matches_sampling_oracle():
    dt = 0.3
    d_u, d_v = _rk4_direction(OSC, STATE0, dt)
    (gamma,) = integrate(OSC, "rrk_analytic", STATE0, dt, dt, rrk_advance="plain_dt").gammas
    h0 = OSC.energy(*STATE0)
    oracle = relaxation_gamma_from_samples(
        lambda g: OSC.energy(STATE0[0] + g * dt * d_u, STATE0[1] + g * dt * d_v), h0)
    assert gamma == pytest.approx(oracle, rel=1e-9)
    # and the relaxed update really conserves H
    h1 = OSC.energy(STATE0[0] + gamma * dt * d_u, STATE0[1] + gamma * dt * d_v)
    assert h1 == pytest.approx(h0, rel=1e-13)


def test_bisection_gamma_agrees_with_analytic():
    dt = 0.3
    g_ana, g_bis = (integrate(OSC, name, STATE0, 10 * dt, dt, rrk_advance="plain_dt").gammas
                    for name in ("rrk_analytic", "rrk_bisection"))
    assert len(g_ana) == len(g_bis) == 10
    np.testing.assert_allclose(g_bis, g_ana, rtol=0, atol=1e-9)


def test_gamma_is_one_for_energy_preserving_direction():
    """From the zero state the RK4 increment vanishes (E = T = 0) and
    leaves the energy flat; both rules give gamma = 1 rather than dividing
    by zero."""
    for name in ("rrk_analytic", "rrk_bisection"):
        record = integrate(OSC, name, HarmonicOscillator.initial_state(0.0, 0.0), 1.0, 0.1)
        assert record.n_steps >= 10
        assert np.all(record.gammas == 1.0)


def test_bisection_rejects_non_finite_residual():
    """Every comparison with NaN is false, so a NaN residual would walk the
    bracket to a made-up gamma; it raises instead."""
    ws = _load(OSC, (np.array([1.0]), np.array([0.0])))
    ws.d[...] = np.nan
    with pytest.raises(NumericalFailure, match="residual is not finite"):
        _gamma_bisection(OSC, ws, 0.1)


class _EnergyLog(WaveSystem):
    """A wave system that logs the bytes of every state it evaluates H at."""

    def __init__(self, ops):
        super().__init__(ops)
        self.states = []

    def energy(self, u, v):
        self.states.append(u.tobytes() + v.tobytes())
        return super().energy(u, v)


def test_bisection_evaluates_each_trial_state_once():
    """The first midpoint of the bracket [0.5, 1.5] is gamma = 1, whose
    residual the bisection has already formed; no state reaches ``energy``
    twice within one step."""
    grid = build_grid(-5.0, 5.0, 100)
    system = _EnergyLog(build_operator_set(4, grid))
    step(system, "rrk_bisection", gaussian_ic(grid, width=0.5).arrays(), cfl_dt(grid, 0.5))
    assert len(system.states) > 10
    assert len(set(system.states)) == len(system.states)


def test_bisection_reuses_the_recorded_energy():
    """With record_every = 1, ``integrate`` evaluates H at every accepted
    state for its record, and the next bisection takes that value as
    H(x_n) rather than evaluating it again: no state reaches ``energy``
    twice in a run."""
    grid = build_grid(-5.0, 5.0, 100)
    system = _EnergyLog(build_operator_set(4, grid))
    record = integrate(system, "rrk_bisection", gaussian_ic(grid, width=0.5).arrays(),
                       20 * cfl_dt(grid, 0.5), cfl_dt(grid, 0.5))
    assert record.n_steps >= 20 and len(record.energies) == record.n_steps + 1
    assert len(set(system.states)) == len(system.states)


@pytest.mark.parametrize("record_every", [3, 10**9])
def test_bisection_never_reuses_a_stale_energy(record_every):
    """The bisection takes ``integrate``'s recorded H only at the state it
    was recorded at: with rows at every 3rd step, or only at the ends, each
    run is bitwise the run that records every step (its gammas, its final
    state and its energies at the rows both record).  A bisection that
    kept an H past the next step would relax every unrecorded step to an
    older energy."""
    grid = build_grid(-5.0, 5.0, 100)
    system = WaveSystem(build_operator_set(4, grid))
    state, dt = gaussian_ic(grid, width=0.5).arrays(), cfl_dt(grid, 0.5)
    every = integrate(system, "rrk_bisection", state, 20 * dt, dt)
    sparse = integrate(system, "rrk_bisection", state, 20 * dt, dt, record_every=record_every)
    assert sparse.n_steps == every.n_steps >= 20
    assert sparse.gammas.tobytes() == every.gammas.tobytes()
    for a, b in zip(sparse.final_state, every.final_state):
        assert a.tobytes() == b.tobytes()
    assert sparse.energies.tobytes() == every.energies[sparse.steps].tobytes()


@pytest.mark.parametrize("name", ["rrk_analytic", "rrk_bisection"])
def test_relaxation_is_exact_under_power_of_two_scaling(name):
    """Scaling a wave state by 2**-300 scales every array of a run by it and
    every energy by 2**-600, exactly, while nothing underflows (H(0) is then
    5.0e-182, a normal float), so the gammas are bitwise the unscaled run's.
    The bisection's residuals are then below 1e-190, so the product of two
    underflows to zero: the bisection compares their signs, where a product
    test walks to gamma = 1.5 at every step here, with no error."""
    grid = build_grid(-30.0, 30.0, 64)
    system = WaveSystem(build_operator_set(4, grid))
    u, v = gaussian_ic(grid, center=0.0, width=3.0).arrays()
    dt = cfl_dt(grid, 0.5)
    plain = integrate(system, name, (u, v), 20 * dt, dt)
    scaled = integrate(system, name, (u * 2.0**-300, v * 2.0**-300), 20 * dt, dt)
    assert plain.n_steps == scaled.n_steps == 20
    assert scaled.energies[0] == pytest.approx(5.0e-182, rel=1e-2)
    assert scaled.gammas.tobytes() == plain.gammas.tobytes()
    assert np.array_equal(scaled.energies, plain.energies * 2.0**-600)
    for a, b in zip(scaled.final_state, plain.final_state):
        assert np.array_equal(a, b * 2.0**-300)


@pytest.mark.parametrize("record_every", [1, 3, 10**9])
@pytest.mark.parametrize("name", ["rk4", "rrk_analytic", "lf", "fr", "pefrl", "comp4"])
def test_fixed_step_run_evaluates_energy_once_per_recorded_row(name, record_every):
    """A scheme that needs no energy to step evaluates H at each recorded
    row and nowhere else: t = 0, every record_every-th step and the last
    step (t_end is not a multiple of dt, so the last step is shortened),
    each at a state of its own."""
    grid = build_grid(0.0, 1.0, 32)
    system = _EnergyLog(build_operator_set(4, grid))
    dt = cfl_dt(grid, 0.5)
    record = integrate(system, name, gaussian_ic(grid).arrays(), 10.3 * dt, dt,
                       record_every=record_every)
    assert record.n_steps == 11
    assert len(set(system.states)) == len(system.states) == len(record.energies)


@pytest.mark.parametrize("kind", [SchemeKind.RK4, *_SPLITTINGS], ids=lambda kind: kind.value)
def test_step_on_an_eigenmode_equals_the_mode_matrix(kind):
    """On an eigenvector phi of L with eigenvalue lam, the wave system
    u' = v, v' = L u reduces to q' = p, p' = lam*q, so one step from
    (phi, 0) or (0, phi) is a column of the scheme's 2x2 mode matrix times
    phi (``rk4_amplification``, ``splitting_amplification`` with the
    scheme's own table).  k = 4, N = 64 on [0, 1], dt = h/2, every nonzero
    eigenvalue of L (all real); the deviation, relative to
    max(1, |matrix entries|), is at most 2.5e-13 across modes and schemes,
    and the bound is 1e-12."""
    grid = build_grid(0.0, 1.0, 64)
    ops = build_operator_set(4, grid)
    system = WaveSystem(ops)
    dt = 0.5 * grid.h
    lams, vecs = np.linalg.eig(ops.L.toarray())
    assert not lams.imag.any() and not vecs.imag.any()
    nonzero = np.abs(lams) > 1e-8 * np.abs(lams).max()
    assert nonzero.sum() == grid.n_cells
    for lam, phi in zip(lams.real[nonzero], vecs.real[:, nonzero].T):
        phi = phi / np.abs(phi).max()
        if kind is SchemeKind.RK4:
            M = rk4_amplification(dt, lam)
        else:
            M = splitting_amplification(*_SPLITTINGS[kind], dt, lam)
        tol = 1e-12 * max(1.0, np.abs(M).max())
        zero = np.zeros_like(phi)
        for col, start in enumerate([(phi, zero), (zero, phi)]):
            u, v = step(system, kind, start, dt)
            np.testing.assert_allclose(u, M[0, col] * phi, rtol=0, atol=tol)
            np.testing.assert_allclose(v, M[1, col] * phi, rtol=0, atol=tol)


def test_mode_bounds_behind_criteria_5a_and_5b():
    """The per-mode bounds that criteria 5a and 5b state, recomputed.  The
    shipped wave run (k = 4, N = 600 on [-30, 30], cfl 0.5, so dt = 0.05,
    480 steps to t_end 24) is linear, so each eigenmode of L's Dirichlet
    interior is an oscillator at omega*dt = sqrt(-lam)*dt, stepped by the
    scheme's 2x2 mode matrix; omega_max*dt is 1.2253 (rho(-L)*h^2 =
    6.0051).  The drift of one mode from (1, 0) is max_n |H_n - H_0| / H_0
    over the 480 steps.  On 245 points of omega*dt up to omega_max*dt the
    RK4/symplectic drift ratio peaks at 4.2011 for Leapfrog (omega*dt ~
    0.80) and 20.874 for ForestRuth (~ 0.655), so no pulse reaches 5a's
    100x; ForestRuth's own drift is 4.763e-7 at omega*dt = 0.05 and
    7.664e-6 at 0.1, so 5b's 1e-6 needs omega*dt <~ 0.06.  The kit's own
    ``integrate`` on ``HarmonicOscillator`` gives the same peaks to four
    digits."""
    grid = build_grid(-30.0, 30.0, 600)
    dt = cfl_dt(grid, 0.5)
    lams = np.linalg.eigvals(build_operator_set(4, grid).L.toarray()[1:-1, 1:-1])
    assert not lams.imag.any() and lams.real.max() < 0
    wdt_max = np.sqrt(-lams.real.min()) * dt
    assert wdt_max == pytest.approx(1.2253, abs=1e-4)

    def drift(matrices):  # every mode at once: H = |z|^2 / 2, H_0 = 1/2
        z = np.tile([1.0, 0.0], (len(matrices), 1))
        worst = np.zeros(len(matrices))
        for _ in range(480):
            z = np.einsum("kij,kj->ki", matrices, z)
            np.maximum(worst, np.abs((z * z).sum(axis=1) - 1.0), out=worst)
        return worst

    def splitting(kind, wdts):
        return drift(np.array([splitting_amplification(*_SPLITTINGS[kind], w) for w in wdts]))

    wdts = np.linspace(0.005, wdt_max, 245)
    rk4 = drift(np.array([rk4_amplification(w) for w in wdts]))
    for kind, peak, at in [(SchemeKind.LEAPFROG, 4.2011, 0.800),
                           (SchemeKind.FOREST_RUTH, 20.874, 0.655)]:
        ratio = rk4 / splitting(kind, wdts)
        assert ratio.max() == pytest.approx(peak, rel=1e-4)
        assert wdts[ratio.argmax()] == pytest.approx(at, abs=wdts[1] - wdts[0])
    np.testing.assert_allclose(splitting(SchemeKind.FOREST_RUTH, [0.05, 0.1]),
                               [4.763e-7, 7.664e-6], rtol=1e-3)


@pytest.mark.parametrize("name", ["rrk_analytic", "rrk_bisection"])
def test_relaxation_step_of_zero_dt_keeps_the_state(name):
    grid = build_grid(0.0, 1.0, 32)
    system = WaveSystem(build_operator_set(4, grid))
    state = gaussian_ic(grid, center=0.5, width=0.1).arrays()
    for new, old in zip(step(system, name, state, 0.0), state):
        assert np.array_equal(new, old)


@pytest.mark.parametrize("name", ["rrk_analytic", "rrk_bisection"])
def test_relaxation_conserves_energy_every_step(name):
    record = integrate(OSC, name, STATE0, 5.0, 0.1)
    per_step = np.abs(np.diff(record.energies)).max() / record.energies[0]
    assert per_step <= 1e-13
    assert record.gammas is not None
    assert np.abs(record.gammas - 1.0).max() <= 0.05
    # gamma*dt time advance overshoots by less than one nominal step
    assert 5.0 <= record.final_time < 5.0 + 0.1


def test_relaxation_plain_dt_mode_lands_on_t_end():
    record = integrate(OSC, "rrk_analytic", STATE0, 5.0, 0.1, rrk_advance="plain_dt")
    assert record.final_time == pytest.approx(5.0, abs=1e-12)
    per_step = np.abs(np.diff(record.energies)).max() / record.energies[0]
    assert per_step <= 1e-13


def test_relaxation_on_interior_wave_pulse():
    """With the pulse away from the boundary zone, both relaxation variants
    run to completion with gamma glued to 1 and agree step by step."""
    grid = build_grid(0.0, 1.0, 256)
    ops = build_operator_set(4, grid)
    state = gaussian_ic(grid, center=0.5, width=0.03)
    dt = cfl_dt(grid, 0.5)
    rec_a = integrate(WaveSystem(ops), "rrk_analytic", (state.u, state.v), 0.2, dt)
    rec_b = integrate(WaveSystem(ops), "rrk_bisection", (state.u, state.v), 0.2, dt)
    for rec in (rec_a, rec_b):
        assert np.abs(rec.gammas - 1.0).max() <= 1e-3
    n = min(rec_a.gammas.size, rec_b.gammas.size)
    assert np.abs(rec_a.gammas[:n] - rec_b.gammas[:n]).max() <= 1e-9


@pytest.mark.parametrize("name", ["rrk_analytic", "rrk_bisection"])
def test_relaxation_fails_loudly_on_boundary_spanning_state(name):
    """For a standing wave the discrete energy is not an invariant of the
    semi-discrete flow (O(h) boundary swing), so pinning H to H(0) drives
    gamma to collapse; the run must abort with a diagnosable error rather
    than silently stall."""
    grid = build_grid(0.0, 1.0, 32)
    ops = build_operator_set(4, grid)
    u = np.sin(np.pi * grid.extended)
    u[0] = u[-1] = 0.0
    with pytest.raises(NumericalFailure, match="gamma|sign change|stalled"):
        integrate(WaveSystem(ops), name, (u, np.zeros_like(u)), 2.0, cfl_dt(grid, 0.5))


class _FixedQuadratic(HarmonicOscillator):
    """The oscillator with ``quadratic_parts`` pinned to (E, T), so every
    analytic relaxation parameter is gamma = -2E/(dt*T)."""

    def __init__(self, E, T):
        self.parts = (E, T)

    def quadratic_parts(self, u, v, d_u, d_v):
        return self.parts


def test_analytic_relaxation_without_quadratic_term_has_no_root():
    """T = 0 with E != 0: the energy change along the step is linear in
    gamma and vanishes only at gamma = 0, so the first step refuses it."""
    with pytest.raises(NumericalFailure, match=r"^step 1: relaxation has no root: "
                       r"quadratic term vanished with E = 1\.000e-03$") as info:
        integrate(_FixedQuadratic(1e-3, 0.0), "rrk_analytic", STATE0, 1.0, 0.1)
    assert (info.value.scheme, info.value.step, info.value.t) == ("RRK_analytic", 1, 0.0)


def test_relaxation_stall_raises_at_the_step_cap():
    """gamma = 1e-3 on every step advances t by dt/1000, so reaching
    t_end = 10*dt would take 10^4 steps; the run stops at the cap of
    50*ceil(t_end/dt) + 1000 = 1500 steps and says how far it got."""
    dt = 0.1
    system = _FixedQuadratic(-0.5e-3 * dt, 1.0)
    with pytest.raises(NumericalFailure, match=r"^step 1501: relaxation stalled: reached "
                       r"only t = 0\.15 of 1 after 1500 steps \(dt = 0\.1\)$") as info:
        integrate(system, "rrk_analytic", STATE0, 10 * dt, dt)
    assert info.value.step == 1501


# ---------------------------------------------------------------------------
# integrate() driver contract
# ---------------------------------------------------------------------------


def test_integrate_validates_arguments():
    with pytest.raises(ValueError, match="dt must be positive"):
        integrate(OSC, "rk4", STATE0, 1.0, 0.0)
    with pytest.raises(ValueError, match="t_end must be positive"):
        integrate(OSC, "rk4", STATE0, -1.0, 0.1)
    with pytest.raises(ValueError, match="record_every"):
        integrate(OSC, "rk4", STATE0, 1.0, 0.1, record_every=0)
    for dt in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^dt must be positive and finite"):
            integrate(OSC, "rk4", STATE0, 1.0, dt)
    # step refuses a non-finite dt too, instead of returning a NaN state; a
    # negative dt is legal there (it steps backwards)
    for dt in (float("nan"), float("inf"), -float("inf")):
        for scheme in ("rk4", "rrk_bisection", "pefrl"):
            with pytest.raises(ValueError, match="^dt must be finite"):
                step(OSC, scheme, STATE0, dt)
    for t_end in (float("inf"), float("nan")):
        for scheme in ("rk4", "rrk"):
            with pytest.raises(ValueError, match="t_end must be positive and finite"):
                integrate(OSC, scheme, STATE0, t_end, 0.1)
    with pytest.raises(ValueError, match="t_end / dt must be finite"):
        integrate(OSC, "rk4", STATE0, 1e300, 1e-300)
    for record_every in (2.5, 0.5, 2.0, "3"):
        with pytest.raises(ValueError, match=f"record_every must be a positive integer, "
                                             f"got {record_every!r}"):
            integrate(OSC, "rk4", STATE0, 1.0, 0.1, record_every=record_every)
    with pytest.raises(ValueError, match="rrk_advance"):
        integrate(OSC, "rrk", STATE0, 1.0, 0.1, rrk_advance="half")
    with pytest.raises(ValueError, match="unknown scheme"):
        integrate(OSC, "euler", STATE0, 1.0, 0.1)


def test_integrate_refuses_bool_record_every():
    """A bool is not a stride, though Python counts it as an integer; numpy
    integers are."""
    for record_every in (True, False, np.bool_(True)):
        with pytest.raises(ValueError, match=re.escape(
                f"record_every must be a positive integer, got {record_every!r}")):
            integrate(OSC, "rk4", STATE0, 1.0, 0.1, record_every=record_every)
    record = integrate(OSC, "rk4", STATE0, 1.0, 0.1, record_every=np.int64(5))
    assert record.steps.tolist() == [0, 5, 10]


_GRID16 = build_grid(0.0, 1.0, 16)
_POSITIVE_FINITE_CALLERS = {
    "integrate": ("t_end", lambda x: integrate(OSC, "rk4", STATE0, x, 0.25)),
    "cfl_dt": ("cfl", lambda x: cfl_dt(_GRID16, x)),
    "gaussian_ic": ("width", lambda x: gaussian_ic(_GRID16, width=x)),
    "shallow_water_ic": ("width", lambda x: shallow_water_ic(_GRID16, width=x)),
    "ShallowWaterSystem": ("d0", lambda x: ShallowWaterSystem(build_operator_set(4, _GRID16), d0=x)),
}


@pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "numpy_bool"])
@pytest.mark.parametrize("caller", sorted(_POSITIVE_FINITE_CALLERS))
def test_positive_finite_values_refuse_bools(caller, flag):
    """Every function that reads a positive and finite number refuses a bool
    with the rule's message, though Python counts True as 1: ``integrate``
    would otherwise run 4 steps and record the bool as its final time."""
    name, call = _POSITIVE_FINITE_CALLERS[caller]
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be positive and finite, got {flag!r}")):
        call(flag)


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_integrate_rejects_bad_rrk_tol(name):
    """Every scheme refuses a relaxation tolerance that is not positive and
    finite at entry: a bisection held to one would run all its iterations
    (0, -1, NaN) or stop after one halving (inf)."""
    for rrk_tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"^rrk_tol must be positive and finite, "
                                             f"got {rrk_tol!r}$"):
            integrate(OSC, name, STATE0, 1.0, 0.1, rrk_tol=rrk_tol)


def test_integrate_shortens_final_step():
    record = integrate(OSC, "rk4", STATE0, 0.35, 0.1)
    assert record.times[-1] == pytest.approx(0.35, abs=1e-14)
    assert record.final_time == record.times[-1]
    exact = rotation_exact(0.8, -0.6, 0.35)
    assert record.final_state[0][0] == pytest.approx(exact[0], abs=1e-6)


def test_integrate_record_every_subsamples():
    record = integrate(OSC, "rk4", STATE0, 1.0, 0.1, record_every=3)
    np.testing.assert_allclose(record.times, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-12)
    assert record.energies.size == record.times.size


@pytest.mark.parametrize("record_every", [1, 3, 10**9])
@pytest.mark.parametrize("name", ["rk4", "pefrl", "rrk_analytic", "rrk_bisection"])
def test_record_steps_name_the_step_of_each_row(name, record_every):
    """``steps`` holds the step count behind each recorded row: 0, then
    every record_every-th step, then the last step."""
    record = integrate(OSC, name, STATE0, 1.0, 0.1, record_every=record_every)
    expected = list(range(0, record.n_steps + 1, record_every))
    if expected[-1] != record.n_steps:
        expected.append(record.n_steps)
    assert record.steps.tolist() == expected
    assert len(record.steps) == len(record.times)


def test_integrate_is_deterministic():
    a = integrate(OSC, "pefrl", STATE0, 3.0, 0.01)
    b = integrate(OSC, "pefrl", STATE0, 3.0, 0.01)
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.final_state[0], b.final_state[0])
    assert np.array_equal(a.final_state[1], b.final_state[1])


def test_integrate_rejects_non_finite_initial_energy():
    bad = (np.array([np.inf]), np.array([0.0]))
    with pytest.raises(NumericalFailure, match="^non-finite initial energy") as info:
        integrate(OSC, "rk4", bad, 1.0, 0.1)
    assert (info.value.scheme, info.value.step, info.value.t) == ("RK4", 0, 0.0)


def test_failure_carries_scheme_step_and_time():
    """A depression over an outflow runs dry: the failing step's depth check
    aborts the run, and the failure names the scheme, the step and the last
    time reached as fields as well as in the message.  The run up to that
    time completes."""
    grid = build_grid(-10.0, 10.0, 80)
    system = ShallowWaterSystem(build_operator_set(4, grid))
    state = (-0.9 * np.exp(-grid.extended ** 2), np.tanh(grid.nodes))
    dt = cfl_dt(grid, 0.25, system.wave_speed)
    with pytest.raises(NumericalFailure) as info:
        integrate(system, "pefrl", state, 5.0, dt)
    exc = info.value
    assert exc.scheme == "PEFRL" and exc.step > 1
    assert exc.t == (exc.step - 1) * dt
    assert str(exc).startswith(f"step {exc.step}: non-positive total depth")
    reached = integrate(system, "pefrl", state, exc.t, dt)
    assert reached.n_steps == exc.step - 1
    assert system.d0 + reached.final_state[0].min() > 0.0
    plain = NumericalFailure("outside a run")
    assert (plain.scheme, plain.step, plain.t) == (None, None, None)


def test_integrate_reports_blowup_with_step_index():
    """An unstable CFL number must abort with a step-tagged failure, not
    return silently wrong numbers."""
    grid = build_grid(0.0, 1.0, 64)
    ops = build_operator_set(4, grid)
    u = np.sin(np.pi * grid.extended)
    u[0] = u[-1] = 0.0
    with pytest.raises(NumericalFailure, match="step") as info:
        integrate(WaveSystem(ops), "rk4", (u, np.zeros_like(u)), 20.0,
                  cfl_dt(grid, 1.5))
    # the step is named once, by integrate's prefix
    message = str(info.value)
    assert message.startswith(f"step {info.value.step}: non-finite energy")
    assert message.count("step") == 1


# ---------------------------------------------------------------------------
# CFL helper
# ---------------------------------------------------------------------------


@given(cfl=st.floats(0.01, 2.0), n=st.integers(4, 400))
def test_cfl_dt_formula(cfl, n):
    grid = build_grid(0.0, 1.0, n)
    assert cfl_dt(grid, cfl) == pytest.approx(cfl * grid.h, rel=1e-14)
    assert cfl_dt(grid, cfl, wave_speed=2.0) == pytest.approx(cfl * grid.h / 2.0,
                                                              rel=1e-14)


def test_cfl_dt_validation(grid01):
    with pytest.raises(ValueError, match="cfl"):
        cfl_dt(grid01, 0.0)
    with pytest.raises(ValueError, match="wave_speed"):
        cfl_dt(grid01, 0.5, wave_speed=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^cfl must be positive and finite"):
            cfl_dt(grid01, bad)
        with pytest.raises(ValueError, match="^wave_speed must be positive and finite"):
            cfl_dt(grid01, 0.5, wave_speed=bad)
