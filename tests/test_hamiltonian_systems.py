"""Wave, shallow-water, and oscillator systems: right-hand sides, energies,
boundary handling, and the relationship between discrete and continuum
energy functionals."""
from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import quad

from mimkit import (
    HamiltonianSystem,
    HarmonicOscillator,
    NumericalFailure,
    ShallowWaterSystem,
    WaveSystem,
    build_grid,
    build_operator_set,
    cfl_dt,
    gaussian_ic,
    integrate,
    shallow_water_ic,
    step,
    wave_standing_exact,
)

from oracles import (
    STANDING_WAVE_ENERGY,
    observed_orders,
    standing_wave,
    standing_wave_velocity,
)


@pytest.mark.parametrize("call", [
    lambda system: system.position_rate(np.zeros(1), np.zeros(1)),
    lambda system: system.velocity_rate(np.zeros(1), np.zeros(1)),
    lambda system: system.energy(np.zeros(1), np.zeros(1)),
    lambda system: system.state_lengths,
], ids=["position_rate", "velocity_rate", "energy", "state_lengths"])
def test_base_system_leaves_rates_energy_and_lengths_to_subclasses(call):
    with pytest.raises(NotImplementedError):
        call(HamiltonianSystem())


@pytest.fixture
def wave64():
    grid = build_grid(0.0, 1.0, 64)
    ops = build_operator_set(4, grid)
    return grid, ops, WaveSystem(ops)


# ---------------------------------------------------------------------------
# Wave system
# ---------------------------------------------------------------------------


def test_wave_rhs_structure(wave64, rng):
    grid, ops, system = wave64
    u, v = rng.standard_normal((2, grid.n_cells + 2))
    du, dv = system.rhs(u, v)
    np.testing.assert_array_equal(du, v)
    assert dv[0] == 0.0 and dv[-1] == 0.0
    np.testing.assert_allclose(dv[1:-1], (ops.L @ u)[1:-1], atol=1e-13)


@pytest.mark.parametrize("k", [2, 4])
def test_wave_velocity_ends_are_the_empty_rows_of_l(k, rng):
    """Rows 0 and N+1 of D_hat, and so of L = D_hat*G, store no entry, and
    ``matvec`` zero-fills its output before adding each row's products, so
    the wave's ``velocity_rate`` is +0.0 at both ends for any u, ends
    included, with no end value of its own to assign."""
    for n in [*range(2 * k, 41), 600, 9600]:
        grid = build_grid(0.0, 1.0, n)
        ops = build_operator_set(k, grid)
        for name in ("D_hat", "L"):
            indptr = ops.kernels[name].indptr
            assert indptr[1] == 0 and indptr[-2] == indptr[-1], (name, n)
        system, u = WaveSystem(ops), rng.standard_normal(n + 2)
        u[[0, -1]] = -1.0
        for dv in (system.velocity_rate(u, u), system.velocity_rate(u, u, np.full(n + 2, -1.0))):
            ends = dv[[0, -1]]
            assert np.all(ends == 0.0) and not np.signbit(ends).any(), n


def test_integrate_rejects_wave_state_of_wrong_length(wave64):
    """integrate checks each initial field once against the extended
    length 66 and names it."""
    _, _, system = wave64
    good = np.zeros(66)
    for bad in (np.zeros(10), np.zeros(1)):
        for state in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match="66"):
                integrate(system, "pefrl", state, 0.1, 0.01)


def test_wave_energy_matches_manual_quadratic_form(wave64, rng):
    grid, ops, system = wave64
    u, v = rng.standard_normal((2, grid.n_cells + 2))
    gu = ops.G @ u
    manual = 0.5 * (float(v * ops.q_diag @ v) + float(gu * ops.p_diag @ gu))
    assert system.energy(u, v) == pytest.approx(manual, rel=1e-13)


def test_wave_apply_boundary_projects_dirichlet(wave64, rng):
    """The projection zeroes the four end values in place, to +0.0, and
    leaves every interior value as it was."""
    _, _, system = wave64
    u, v = rng.standard_normal((2, 66))
    u[0] = -0.0
    before = u.copy(), v.copy()
    assert system.apply_boundary(u, v) is None
    for after, was in zip((u, v), before):
        ends = after[[0, -1]]
        assert np.all(ends == 0.0) and not np.signbit(ends).any()
        np.testing.assert_array_equal(after[1:-1], was[1:-1])


def test_wave_standing_exact_matches_closed_form():
    x = np.linspace(0.0, 1.0, 11)
    for t in (0.0, 0.3, 1.7):
        np.testing.assert_allclose(wave_standing_exact(x, t), standing_wave(x, t),
                                   atol=1e-15)


def test_gaussian_ic_boundary_zeroed_and_shaped():
    grid = build_grid(-30.0, 30.0, 600)
    state = gaussian_ic(grid)
    x = grid.extended
    expected = np.exp(-100.0 * (x - 0.5) ** 2)
    expected[0] = expected[-1] = 0.0
    np.testing.assert_allclose(state.u, expected, atol=1e-15)
    assert not state.v.any()


# ---------------------------------------------------------------------------
# Discrete vs continuum energy
# ---------------------------------------------------------------------------


def test_standing_wave_energy_converges_first_order(order):
    """The discrete standing-wave energy approaches the continuum pi^2/4 at
    first order (the boundary quadrature weights carry an O(h) defect)."""
    errors = []
    for n in (16, 32, 64, 128):
        grid = build_grid(0.0, 1.0, n)
        ops = build_operator_set(order, grid)
        u = np.sin(np.pi * grid.extended)
        u[0] = u[-1] = 0.0
        errors.append(abs(WaveSystem(ops).energy(u, np.zeros_like(u))
                          - STANDING_WAVE_ENERGY))
    assert errors[-1] <= 0.1
    for rate in observed_orders(errors):
        assert rate == pytest.approx(1.0, abs=0.25)


def test_x_ramp_energy_known_value_second_order():
    """Green companion: for k=2 the ramp energy is exactly (b-a)/2 - h/8
    (the node-weight sum is (b-a) - h/4 and G(x) = 1 exactly)."""
    grid = build_grid(0.0, 1.0, 32)
    ops = build_operator_set(2, grid)
    H = WaveSystem(ops).energy(grid.extended.copy(), np.zeros(34))
    assert H == pytest.approx(0.5 - grid.h / 8.0, abs=1e-14)


@pytest.mark.xfail(
    strict=True,
    reason="H(u = x, v = 0) = (1/2) sum(p) != (b - a)/2: the node weights "
    "sum to (b - a) - O(h) (exactly (b - a) - h/4 for k=2), a deficit that "
    "is structural — removing it breaks the far-zone vanishing of B_hat.",
)
def test_x_ramp_energy_equals_half_domain_length(order):
    grid = build_grid(0.0, 1.0, 32)
    ops = build_operator_set(order, grid)
    H = WaveSystem(ops).energy(grid.extended.copy(), np.zeros(34))
    assert H == pytest.approx(0.5, abs=1e-10)


def test_resolved_gaussian_energy_matches_continuum():
    """Green companion: with the pulse width ten cells wide (width 1.0 on
    h = 0.1), the discrete energy matches (1/2) int u_x^2 dx to 1e-4."""
    grid = build_grid(-30.0, 30.0, 600)
    ops = build_operator_set(4, grid)
    state = gaussian_ic(grid, center=0.0, width=1.0)
    H = WaveSystem(ops).energy(*state.arrays())
    ref, _ = quad(lambda x: 0.5 * (-2.0 * x * np.exp(-(x ** 2))) ** 2,
                  -10.0, 10.0, limit=800)
    assert abs(H - ref) / ref <= 1e-4


@pytest.mark.xfail(
    strict=True,
    reason="the default pulse width (0.1) equals the grid spacing at "
    "N = 600 on [-30, 30], so the gradient is under-resolved and the "
    "discrete energy undershoots (1/2) int u_x^2 dx by ~15%, far outside "
    "1e-4; this is a resolution limit, not an operator defect (see the "
    "resolved-width companion).",
)
def test_default_gaussian_energy_matches_continuum():
    grid = build_grid(-30.0, 30.0, 600)
    ops = build_operator_set(4, grid)
    H = WaveSystem(ops).energy(*gaussian_ic(grid).arrays())
    ref, _ = quad(
        lambda x: 0.5 * (-200.0 * (x - 0.5) * np.exp(-100.0 * (x - 0.5) ** 2)) ** 2,
        -2.0, 3.0, limit=800)
    assert abs(H - ref) / ref <= 1e-4


# ---------------------------------------------------------------------------
# Energy along the semi-discrete flow
# ---------------------------------------------------------------------------


def test_energy_invariant_for_interior_pulse():
    """While the support stays away from the boundary closure zone, the
    semi-discrete flow conserves H to time-integration accuracy."""
    grid = build_grid(0.0, 1.0, 128)
    ops = build_operator_set(4, grid)
    state = gaussian_ic(grid, center=0.5, width=0.03)
    record = integrate(WaveSystem(ops), "rk4", (state.u, state.v), 0.2, grid.h / 20.0)
    drift = np.abs(record.energies - record.energies[0]).max() / record.energies[0]
    assert drift <= 1e-7


@pytest.mark.xfail(
    strict=True,
    reason="the discrete H is not an invariant of the semi-discrete flow "
    "for states touching the boundary zone: dH/dt = v^T B_hat (G u) with "
    "B_hat's O(1) defect rows gives a periodic O(h) energy swing (~6e-3 "
    "at N = 128), orders above time-integration error.  Compare the "
    "interior-pulse companion at the same settings.",
)
def test_energy_invariant_for_boundary_spanning_state():
    grid = build_grid(0.0, 1.0, 128)
    ops = build_operator_set(4, grid)
    u = np.sin(np.pi * grid.extended)
    u[0] = u[-1] = 0.0
    record = integrate(WaveSystem(ops), "rk4", (u, np.zeros_like(u)), 0.2, grid.h / 20.0)
    drift = np.abs(record.energies - record.energies[0]).max() / record.energies[0]
    assert drift <= 1e-6


# ---------------------------------------------------------------------------
# Harmonic oscillator
# ---------------------------------------------------------------------------


def test_oscillator_rhs_and_energy():
    system = HarmonicOscillator()
    u, v = np.array([0.8]), np.array([-0.6])
    du, dv = system.rhs(u, v)
    assert du[0] == -0.6 and dv[0] == -0.8
    assert system.energy(u, v) == pytest.approx(0.5, abs=1e-15)


def test_oscillator_quadratic_parts_match_energy_expansion(rng):
    system = HarmonicOscillator()
    u, v = rng.standard_normal((2, 1))
    d_u, d_v = rng.standard_normal((2, 1))
    E, T = system.quadratic_parts(u, v, d_u, d_v)
    for s in (0.25, 1.0, 2.0):
        expansion = s * E + 0.5 * s * s * T
        actual = system.energy(u + s * d_u, v + s * d_v) - system.energy(u, v)
        assert actual == pytest.approx(expansion, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Shallow water
# ---------------------------------------------------------------------------


@pytest.fixture
def swater():
    grid = build_grid(-30.0, 30.0, 300)
    ops = build_operator_set(4, grid)
    return grid, ops, ShallowWaterSystem(ops, d0=1.0, g=1.0)


def test_shallow_water_ic_defaults(swater):
    grid, _, _ = swater
    state = shallow_water_ic(grid)
    np.testing.assert_allclose(state.e, 1.0 + 0.1 * np.exp(-grid.extended ** 2),
                               atol=1e-15)
    assert not state.u.any()
    assert state.d0 == 1.0 and state.g == 1.0


def test_shallow_water_wave_speed():
    grid = build_grid(-30.0, 30.0, 300)
    ops = build_operator_set(4, grid)
    assert ShallowWaterSystem(ops, d0=4.0, g=9.0).wave_speed == pytest.approx(6.0)


_NOT_POSITIVE_FINITE = (0.0, -1.0, float("nan"), float("inf"), -float("inf"))


def test_shallow_water_refuses_non_positive_d0_and_g():
    """Depth and gravity must be positive and finite; before, d0 = g = -1
    built a system whose wave speed read 1.0."""
    ops = build_operator_set(4, build_grid(-30.0, 30.0, 300))
    for bad in _NOT_POSITIVE_FINITE:
        with pytest.raises(ValueError, match=f"^d0 must be positive and finite, got {bad!r}$"):
            ShallowWaterSystem(ops, d0=bad, g=1.0)
        with pytest.raises(ValueError, match=f"^g must be positive and finite, got {bad!r}$"):
            ShallowWaterSystem(ops, d0=1.0, g=bad)
    with pytest.raises(ValueError, match="^d0 must be positive and finite, got -1$"):
        ShallowWaterSystem(ops, d0=-1, g=-1)


@pytest.mark.parametrize("make_ic", [gaussian_ic, shallow_water_ic])
def test_initial_conditions_refuse_non_positive_width(make_ic):
    """A Gaussian needs a positive, finite width; before, width = 0 divided
    by zero."""
    grid = build_grid(-30.0, 30.0, 300)
    for width in _NOT_POSITIVE_FINITE:
        with pytest.raises(ValueError, match=f"^width must be positive and finite, "
                                             f"got {width!r}$"):
            make_ic(grid, width=width)


def test_integrate_rejects_shallow_water_state_of_wrong_lengths(swater):
    """Swapped layouts (e on nodes, u on extended centers) and length-1
    fields are rejected at entry, naming the field and its length; a
    length-1 field would otherwise broadcast through the weighted dots."""
    grid, _, system = swater
    n = grid.n_cells
    e, u = np.ones(n + 2), np.zeros(n + 1)
    assert system.state_lengths == {"e": n + 2, "u": n + 1}
    cases = [((np.ones(n + 1), np.zeros(n + 2)), f"initial e must have length {n + 2}"),
             ((np.ones(1), u), f"initial e must have length {n + 2}"),
             ((e, np.zeros(1)), f"initial u must have length {n + 1}")]
    for state, message in cases:
        with pytest.raises(ValueError, match=message):
            integrate(system, "rk4", state, 0.1, 0.01)


def test_lake_at_rest_is_stationary(swater):
    """Flat surface + still velocity is an exact equilibrium of the discrete
    right-hand side (G annihilates constants exactly)."""
    grid, _, system = swater
    e = np.full(grid.n_cells + 2, 0.7)
    u = np.zeros(grid.n_cells + 1)
    de, du = system.rhs(e, u)
    assert np.abs(de).max() == 0.0
    assert np.abs(du).max() <= 1e-12


def test_shallow_water_rhs_matches_formula(swater, rng):
    grid, ops, system = swater
    e = 1.0 + 0.05 * rng.standard_normal(grid.n_cells + 2)
    u = 0.05 * rng.standard_normal(grid.n_cells + 1)
    de, du = system.rhs(e, u)
    depth = 1.0 + ops.I_G @ e
    de_ref = -(ops.D_hat @ (depth * u))
    du_ref = -(ops.G @ e) - u * (ops.G @ (ops.I_D @ u))
    np.testing.assert_allclose(de[1:-1], de_ref[1:-1], atol=1e-12)
    np.testing.assert_allclose(du[1:-1], du_ref[1:-1], atol=1e-12)
    assert de[0] == de[-1] == 0.0 and du[0] == du[-1] == 0.0
    # the splitting schemes' drift and kick evaluate the same two halves
    np.testing.assert_array_equal(system.position_rate(e, u), de)
    np.testing.assert_array_equal(system.velocity_rate(e, u), du)


def test_shallow_water_energy_matches_formula(swater, rng):
    grid, ops, system = swater
    e = 1.0 + 0.05 * rng.standard_normal(grid.n_cells + 2)
    u = 0.05 * rng.standard_normal(grid.n_cells + 1)
    depth = 1.0 + ops.I_G @ e
    manual = 0.5 * (ops.inner_q(e, e) + ops.inner_p(depth * u, u))
    assert system.energy(e, u) == pytest.approx(manual, rel=1e-13)


def test_shallow_water_rejects_non_positive_depth(swater):
    grid, _, system = swater
    e = np.full(grid.n_cells + 2, -1.5)  # d0 + e < 0
    u = np.zeros(grid.n_cells + 1)
    with pytest.raises(NumericalFailure, match="non-positive total depth"):
        system.rhs(e, u)


def test_shallow_water_rejects_non_positive_depth_at_nodes():
    """d0 + e is positive at every center, but the interpolated depth
    d0 + I_G e is not at every node: a deep dip between two high plateaus
    undershoots, and ``position_rate`` refuses it at the nodes."""
    grid = build_grid(-1.0, 1.0, 64)
    system = ShallowWaterSystem(build_operator_set(4, grid), d0=1.0)
    e = np.full(grid.n_cells + 2, 5.0)
    e[30:32] = -0.99
    assert system.d0 + e.min() > 0.0
    with pytest.raises(NumericalFailure,
                       match="non-positive total depth at nodes: min = -7.388e-01"):
        system.position_rate(e, np.zeros(grid.n_cells + 1))


@pytest.mark.parametrize("scheme", ["RK4", "RRK_bisection", "ForestRuth", "PEFRL",
                                    "Leapfrog", "Composition4"])
def test_shallow_water_projects_wall_velocity(scheme):
    """A nonzero velocity at the walls is projected to +0.0 as a run loads
    its state, and the rates keep it there: ``step`` and ``integrate`` both
    return u = +0.0 at both walls, with e's end values as they were."""
    grid = build_grid(-1.0, 1.0, 64)
    system = ShallowWaterSystem(build_operator_set(4, grid))
    e, u = shallow_water_ic(grid).arrays()
    u[0], u[-1] = 0.1, -0.0
    dt = cfl_dt(grid, 0.25, system.wave_speed)
    for e_end, u_end in (step(system, scheme, (e, u), dt),
                         integrate(system, scheme, (e, u), 1.0, dt).final_state):
        walls = u_end[[0, -1]]
        assert np.all(walls == 0.0) and not np.signbit(walls).any()
        np.testing.assert_array_equal(e_end[[0, -1]], e[[0, -1]])
    assert u[0] == 0.1  # the caller's arrays are left as they were


class _RateLog(ShallowWaterSystem):
    """A shallow-water system that logs each rate call as (rate, bytes of e)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def position_rate(self, e, u, *args):
        self.calls.append(("position", e.tobytes()))
        return super().position_rate(e, u, *args)

    def velocity_rate(self, e, u, *args):
        self.calls.append(("velocity", e.tobytes()))
        return super().velocity_rate(e, u, *args)


def _unchecked(calls):
    """The e's of ``calls`` that reach velocity_rate but not position_rate."""
    checked = {e for rate, e in calls if rate == "position"}
    return [e for rate, e in calls if rate == "velocity" and e not in checked]


@pytest.mark.parametrize("scheme", ["RK4", "RRK_bisection", "ForestRuth", "PEFRL",
                                    "Leapfrog", "Composition4"])
def test_shallow_water_depth_check_sees_every_velocity_rate_e(scheme):
    """velocity_rate makes no depth check: position_rate checks every e the
    integrators pass to velocity_rate, within the same step, through
    ``step`` and ``integrate``.  A splitting table that ended in a kick
    would leave that kick's e unchecked until the next step."""
    grid = build_grid(-10.0, 10.0, 80)
    system = _RateLog(build_operator_set(4, grid))
    state = (0.1 * np.exp(-grid.extended ** 2), 0.1 * np.exp(-grid.nodes ** 2))
    dt = cfl_dt(grid, 0.25, system.wave_speed)
    for _ in range(3):
        system.calls.clear()
        state = step(system, scheme, state, dt)
        assert _unchecked(system.calls) == []
    system.calls.clear()
    record = integrate(system, scheme, state, 5 * dt, dt)
    calls = system.calls
    per_step, rest = divmod(len(calls), record.n_steps)
    assert rest == 0 and per_step >= 2
    for i in range(0, len(calls), per_step):
        assert _unchecked(calls[i:i + per_step]) == []
    # every velocity_rate call sees a new e, so the check above is not vacuous
    seen = [e for rate, e in calls if rate == "velocity"]
    assert len(set(seen)) == len(seen)


def test_shallow_water_analytic_relaxation_unavailable(swater):
    _, _, system = swater
    z_e = np.zeros(302)
    z_u = np.zeros(301)
    with pytest.raises(NumericalFailure, match="not a quadratic form"):
        system.quadratic_parts(z_e, z_u, z_e, z_u)


def test_shallow_water_energy_gap_is_exactly_half_h():
    """Green companion: at the still initial state the discrete energy
    exceeds the continuum (1/2) int g eta^2 dx by exactly h/2 — the
    extended-weight surplus sum(q) - (b - a) = h applied to eta ~ 1."""
    grid = build_grid(-30.0, 30.0, 600)
    ops = build_operator_set(4, grid)
    H = ShallowWaterSystem(ops).energy(*shallow_water_ic(grid).arrays())
    ref, _ = quad(lambda x: 0.5 * (1.0 + 0.1 * np.exp(-(x ** 2))) ** 2,
                  -30.0, 30.0, limit=800)
    assert H - ref == pytest.approx(grid.h / 2.0, abs=1e-9)


@pytest.mark.xfail(
    strict=True,
    reason="the discrete shallow-water energy overshoots the continuum "
    "integral by h/2 = 0.05 at N = 600 (the constant part of eta picks up "
    "the sum(q) = (b - a) + h weight surplus), so 1e-4 agreement is "
    "unattainable at any elevation offset of order one.",
)
def test_shallow_water_energy_matches_continuum():
    grid = build_grid(-30.0, 30.0, 600)
    ops = build_operator_set(4, grid)
    H = ShallowWaterSystem(ops).energy(*shallow_water_ic(grid).arrays())
    ref, _ = quad(lambda x: 0.5 * (1.0 + 0.1 * np.exp(-(x ** 2))) ** 2,
                  -30.0, 30.0, limit=800)
    assert abs(H - ref) <= 1e-4


# ---------------------------------------------------------------------------
# Rates into caller-owned arrays
# ---------------------------------------------------------------------------


def _random_case(problem, rng):
    """(system, u, v) with a random state; shallow-water depth stays positive."""
    if problem == "oscillator":
        return HarmonicOscillator(), rng.standard_normal(1), rng.standard_normal(1)
    grid = build_grid(-3.0, 3.0, 40)
    ops = build_operator_set(4, grid)
    if problem == "wave":
        u, v = rng.standard_normal((2, grid.n_cells + 2))
        v[3:6] = -0.0
        return WaveSystem(ops), u, v
    e = 0.3 * rng.standard_normal(grid.n_cells + 2)
    u = rng.standard_normal(grid.n_cells + 1)
    return ShallowWaterSystem(ops, d0=2.0, g=1.5), e, u


@pytest.mark.parametrize("problem", ["wave", "shallow_water", "oscillator"])
def test_rates_with_out_equal_allocating_calls(problem, rng):
    """With ``out`` a rate writes the allocating call's bits into it and
    returns it, whatever it held before; ``rhs`` does the same with a pair.
    The inputs are left as they were."""
    system, u, v = _random_case(problem, rng)
    before = u.tobytes(), v.tobytes()
    for rate in (system.position_rate, system.velocity_rate):
        want = rate(u, v)
        out = np.full(want.shape, np.nan)
        assert rate(u, v, out) is out
        assert out.tobytes() == want.tobytes()
    want = system.rhs(u, v)
    out = (np.full(want[0].shape, np.nan), np.full(want[1].shape, np.nan))
    got = system.rhs(u, v, out)
    assert got[0] is out[0] and got[1] is out[1]
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    assert (u.tobytes(), v.tobytes()) == before


# A drift weight and Forest-Ruth's negative middle kick weight, times a dt,
# as the 0-d arrays a splitting step passes.
_SCALES = [np.array(0.6756035959798289 * 0.05), np.array(-1.7024143839193153 * 0.05)]


@pytest.mark.parametrize("scale", _SCALES, ids=["positive", "negative"])
@pytest.mark.parametrize("problem", ["wave", "shallow_water", "oscillator"])
def test_scaled_rates_equal_scale_times_rate(problem, scale, rng):
    """``rate(u, v, out, s)`` writes bitwise ``s * rate(u, v)`` into
    ``out``, signed zeros included: a negative ``s`` turns the +0.0 end
    values of a rate into -0.0, as multiplying afterwards does.  Leaving
    ``scale`` out, or passing None, gives the unscaled rate."""
    system, u, v = _random_case(problem, rng)
    system.apply_boundary(u, v)  # the wave drift's ends are then +0.0 too
    before = u.tobytes(), v.tobytes()
    for rate in (system.position_rate, system.velocity_rate):
        plain = rate(u, v)
        want = scale * plain
        out = np.full(want.shape, np.nan)
        assert rate(u, v, out, scale) is out
        np.testing.assert_array_equal(out.view(np.int64), want.view(np.int64))
        if problem != "oscillator":
            assert np.signbit(out[[0, -1]]).all() == (scale < 0)
        np.testing.assert_array_equal(rate(u, v, out, None).view(np.int64),
                                      plain.view(np.int64))
    assert (u.tobytes(), v.tobytes()) == before


@pytest.mark.parametrize("problem", ["wave", "shallow_water"])
def test_energy_with_scratch_equals_allocating_formula(problem, rng):
    """Energies and the wave's quadratic parts form their products in
    scratch arrays; the result is bitwise the allocating formula, also when
    called twice in a row."""
    system, u, v = _random_case(problem, rng)
    ops = system.ops

    def inner_q(f, g):
        return float(np.dot(f * ops.q_diag, g))

    def inner_p(f, g):
        return float(np.dot(f * ops.p_diag, g))

    if problem == "wave":
        gu = ops.G @ u
        want = 0.5 * (inner_q(v, v) + inner_p(gu, gu))
        d_u, d_v = rng.standard_normal((2, u.size))
        gdu = ops.G @ d_u
        parts = (inner_q(v, d_v) + inner_p(gu, gdu),
                 inner_q(d_v, d_v) + inner_p(gdu, gdu))
        assert system.quadratic_parts(u, v, d_u, d_v) == parts
    else:
        depth = system.d0 + ops.I_G @ u
        want = 0.5 * (system.g * inner_q(u, u) + inner_p(depth * v, v))
    assert system.energy(u, v) == want
    assert system.energy(u, v) == want


@pytest.mark.parametrize("problem", ["wave", "shallow_water"])
def test_rates_and_energy_reject_fields_of_wrong_length(problem, rng):
    """Called directly, outside ``integrate``'s one layout check, a rate or
    energy given a field it reads one entry short, or an ``out`` one entry
    short, raises ValueError instead of reading or writing past an array's
    end."""
    system, u, v = _random_case(problem, rng)
    for bad in ((u[:-1], v), (u, v[:-1])):
        with pytest.raises(ValueError):
            system.energy(*bad)
    with pytest.raises(ValueError):
        system.velocity_rate(u[:-1], v)
    for rate, n in ((system.position_rate, len(u)), (system.velocity_rate, len(v))):
        with pytest.raises(ValueError):
            rate(u, v, np.empty(n - 1))
