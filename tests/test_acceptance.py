"""The acceptance gate: one test per criterion clause, at the stated
tolerances, reported as consolidated ``ACCEPTANCE #n`` lines at the end of
the run (see conftest).

Four clauses fail on the shipped configuration and are left as plain
failing tests rather than weakened: the RK4/symplectic drift ratio (5a) and
the fourth-order drift magnitude (5b) at the pinned wave pulse and step,
the relaxation schemes' convergence order on the boundary-spanning standing
wave (6b), and the RK4-worst-drift ordering for shallow water (8b).  Each
carries its measured mechanism in the docstring; the companion clauses that
do hold are asserted green.

Clauses 2a and 4 test the boundary structure of the operator family: a
boundary closure zone of N-independent depth and entries, exact zeros
outside it, and a semi-discrete energy budget closed by ``B_hat``.  Read as
strict summation by parts (all interior rows of ``B_hat`` zero) they would
contradict criterion 3: clauses 1 and 2c give ``1^T B_hat = (-1, 0, ...,
0, 1)``, so with rows 1..N zero the Gauss residual
``|f^T B_hat v - (v_N f_{N+1} - v_0 f_0)|`` would vanish identically instead
of decaying at first order.
"""
from __future__ import annotations

import json
import time

import numpy as np
import pytest

from mimkit import (
    TABLEAU_RK4,
    WaveSystem,
    build_grid,
    build_operator_set,
    cfl_dt,
    gaussian_ic,
    integrate,
    main,
    mimetic_identity_residual,
    normalize_scheme,
    parse_config,
    run_convergence_study,
    run_timing_benchmark,
    shallow_water_ic,
)
from mimkit.hamiltonian_systems import HarmonicOscillator, ShallowWaterSystem

from oracles import IMPLICIT_MIDPOINT, rotation_exact, tableau_symplecticity_matrix


def _drift(record) -> np.ndarray:
    h0 = record.energies[0]
    return np.abs(record.energies - h0) / abs(h0)


# ---------------------------------------------------------------------------
# Criterion 1 — operator exactness
# ---------------------------------------------------------------------------


def test_criterion_1_operator_exactness(acceptance):
    start = time.perf_counter()
    worst = 0.0
    for k in (2, 4):
        for n in (16, 64, 256):
            grid = build_grid(0.0, 1.0, n)
            ops = build_operator_set(k, grid)
            for p in range(k + 1):
                dx_nodes = p * grid.nodes ** (p - 1) if p else np.zeros(n + 1)
                dx_centers = p * grid.centers ** (p - 1) if p else np.zeros(n)
                worst = max(worst,
                            np.abs(ops.G @ grid.extended ** p - dx_nodes).max(),
                            np.abs(ops.D @ grid.nodes ** p - dx_centers).max())
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    acceptance(1, "exactness", ok,
               f"max monomial-derivative error {worst:.2e} (tol 1e-9), "
               f"{elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# Criterion 2 — duality / boundary structure
# ---------------------------------------------------------------------------


def _closure_block(B: np.ndarray) -> np.ndarray:
    """The left closure zone of ``B_hat``: rows 0..d and columns 0..c, where
    d is the deepest nonzero row in the left half and c the last nonzero
    column of those rows."""
    rows = np.flatnonzero(np.abs(B[: B.shape[0] // 2]).sum(axis=1))
    block = B[: rows.max() + 1]
    cols = np.flatnonzero(np.abs(block).sum(axis=0))
    return block[:, : cols.max() + 1]


def test_criterion_2a_interior_rows_vanish(acceptance):
    """Rows 1..N of B_hat vanish outside a boundary closure zone whose depth
    and unit-spacing entries do not depend on N.

    The zone is taken from the coarsest grid (N = 32): 2 rows deep for k=2,
    15 for k=4 (rows 1-5 carry entries 0.02-0.46, rows 6-15 fall
    geometrically from 8e-4 to 5e-18).  At every N, B_hat must equal that
    block at the left end, its antisymmetric mirror at the right end, and
    zero elsewhere, to 1e-12/h, and the zone must keep its documented depth.
    This catches a closure zone that deepens or changes with N, one that is
    deeper than documented at every N, and any nonzero entry outside it.

    Strict summation by parts (every interior row zero) is not the clause:
    clauses 1 and 2c give 1^T B_hat = (-1, 0, ..., 0, 1), so with rows 1..N
    zero the Gauss residual of criterion 3 would be identically zero
    instead of first order.
    """
    worst = 0.0
    depths = {}
    for k in (2, 4):
        block = None
        for n in (32, 64, 128, 256):
            grid = build_grid(0.0, 1.0, n)
            B = build_operator_set(k, grid).B_hat.toarray()
            if block is None:
                block = _closure_block(B)
                depths[k] = block.shape[0] - 1
            expected = np.zeros_like(B)
            rows, cols = block.shape
            expected[:rows, :cols] = block
            expected[-rows:, -cols:] = -block[::-1, ::-1]
            worst = max(worst, np.abs(B - expected).max() * grid.h / 1e-12)
    ok = worst <= 1.0 and depths == {2: 2, 4: 15}
    acceptance(2, "a-interior-rows", ok,
               "closure zone depth " + ", ".join(f"k={k}: {d}" for k, d in depths.items())
               + f" rows per end, N = 32..256; max |B_hat - zone model| = "
               f"{worst:.2e} x tol (tol 1e-12/h)")
    assert ok


def test_criterion_2b_weights_positive(acceptance):
    ok = True
    detail_min = np.inf
    for k in (2, 4):
        for n in (16, 64, 256):
            ops = build_operator_set(k, build_grid(0.0, 1.0, n))
            low = min(ops.q_diag.min(), ops.p_diag.min())
            detail_min = min(detail_min, low)
            ok = ok and low > 0.0
    acceptance(2, "b-positivity", ok,
               f"min quadrature weight {detail_min:.3e} > 0")
    assert ok


def test_criterion_2c_conservation_identity(acceptance):
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for k in (2, 4):
        ops = build_operator_set(k, build_grid(0.0, 1.0, 64))
        for _ in range(100):
            v = rng.standard_normal(65)
            lhs = float(ops.q_diag @ (ops.D_hat @ v))
            worst = max(worst, abs(lhs - (v[-1] - v[0])) / np.abs(v).max())
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    acceptance(2, "c-conservation", ok,
               f"max scaled defect {worst:.2e} (tol 1e-10), {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# Criterion 3 — first-order decay of the identity residual
# ---------------------------------------------------------------------------


def test_criterion_3_identity_residual_first_order(acceptance):
    ratios_all = []
    ok = True
    for k in (2, 4):
        residuals = []
        for n in (32, 64, 128):
            grid = build_grid(0.0, 1.0, n)
            ops = build_operator_set(k, grid)
            residuals.append(mimetic_identity_residual(
                ops, np.exp(grid.nodes), np.exp(grid.extended)))
        ratios = [residuals[i] / residuals[i + 1] for i in range(2)]
        ratios_all.extend(ratios)
        ok = ok and all(1.5 <= r <= 2.5 for r in ratios)
    acceptance(3, "first-order", ok,
               "residual ratios " + ", ".join(f"{r:.3f}" for r in ratios_all)
               + " all in [1.5, 2.5]")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 4 — semi-discrete Hamiltonian invariance
# ---------------------------------------------------------------------------


def test_criterion_4_duality_pairing(acceptance):
    """The semi-discrete energy budget: for zero-boundary states the pairing
    <v, L u>_Q + <G v, G u>_P, which is dH/dt of the wave system, equals
    v^T B_hat (G u) to 1e-11 relative, and it vanishes to 1e-11 when v is
    also zero on the closure zone of B_hat.

    The first check catches L = D_hat G and B_hat = Q D_hat + G^T P
    disagreeing (they are assembled separately from rationals); the second
    catches a nonzero pairing for zone-quiet states.  A pairing of zero for
    every zero-boundary state is not the clause: since G is banded, it
    would need rows 1..N of B_hat to vanish, which contradicts criterion 3
    (see criterion 2a).
    """
    ops = build_operator_set(4, build_grid(0.0, 1.0, 64))
    zone_rows = _closure_block(ops.B_hat.toarray()).shape[0]
    rng = np.random.default_rng(5)

    def pairing(u, v):
        return ops.inner_q(v, ops.L @ u) + ops.inner_p(ops.G @ v, ops.G @ u)

    worst_rel = worst_quiet = 0.0
    for _ in range(100):
        u, v = rng.standard_normal((2, 66))
        u[0] = u[-1] = v[0] = v[-1] = 0.0
        budget = float(v @ (ops.B_hat @ (ops.G @ u)))
        worst_rel = max(worst_rel, abs(pairing(u, v) - budget) / abs(budget))
        v[:zone_rows] = v[-zone_rows:] = 0.0
        worst_quiet = max(worst_quiet, abs(pairing(u, v)))
    ok = worst_rel <= 1e-11 and worst_quiet <= 1e-11
    acceptance(4, "pairing", ok,
               f"max |pairing - v^T B_hat G u| / |v^T B_hat G u| = "
               f"{worst_rel:.1e}, max |pairing| with v zero on the "
               f"{zone_rows - 1}-row closure zone = {worst_quiet:.1e} (tol 1e-11; "
               "100 zero-boundary states, k=4, N=64)")
    assert worst_rel <= 1e-11
    assert worst_quiet <= 1e-11


# ---------------------------------------------------------------------------
# Criterion 5 — wave energy traces at the pinned configuration
# ---------------------------------------------------------------------------

WAVE_SCHEMES = ["rk4", "fr", "pefrl", "comp4", "lf", "rrk_analytic", "rrk_bisection"]
SYMPLECTIC = ["fr", "pefrl", "comp4", "lf"]


@pytest.fixture(scope="module")
def wave_runs():
    grid = build_grid(-30.0, 30.0, 600)
    ops = build_operator_set(4, grid)
    system = WaveSystem(ops)
    state = gaussian_ic(grid)  # exp(-100 (x - 1/2)^2), zero velocity
    dt = cfl_dt(grid, 0.5)
    start = time.perf_counter()
    records = {name: integrate(system, name, (state.u, state.v), 24.0, dt)
               for name in WAVE_SCHEMES}
    return records, time.perf_counter() - start


def test_criterion_5a_rk4_vs_symplectic_ratio(wave_runs, acceptance):
    """FAILING: 100x is out of reach at the pinned step and horizon, for
    any pulse.  The spectrum of L is real with omega*dt <= 1.225 at
    dt = 0.05; over all of it, 480 harmonic-oscillator steps with the kit's
    own steppers give an RK4/symplectic drift ratio of at most 4.2x for
    Leapfrog (at omega*dt ~ 0.80) and 20.9x for ForestRuth (at
    omega*dt ~ 0.65).  The pinned pulse measures 3.9x.  Which schemes and
    which factor the paper claims is not stated, so the clause is kept as
    written."""
    records, _ = wave_runs
    rk4 = _drift(records["rk4"]).max()
    ratios = {name: rk4 / _drift(records[name]).max() for name in SYMPLECTIC}
    worst = min(ratios.values())
    acceptance(5, "a-rk4-100x", worst >= 100.0,
               f"RK4 drift {rk4:.3f}; min ratio over symplectic = "
               f"{worst:.1f}x (need >= 100x)")
    assert worst >= 100.0


def test_criterion_5b_fourth_order_drift_small(wave_runs, acceptance):
    """FAILING: the pinned pulse is too sharp for ForestRuth's error
    constant.  On a single mode ForestRuth stays under 1e-6 over the 480
    steps only for omega*dt <~ 0.06 (4.8e-7 at 0.05, 7.7e-6 at 0.1), and the
    pulse exp(-100(x - 1/2)^2) has a standard deviation of 0.71h: its
    energy spectrum k^2 exp(-k^2 sigma^2) peaks at omega*dt ~ 0.7.  ForestRuth
    measures 4.75e-2 (PEFRL and Composition4 about 3e-4).  The
    configuration is the pinned one, so the clause is kept as written."""
    records, _ = wave_runs
    drifts = {name: _drift(records[name]).max()
              for name in ("fr", "pefrl", "comp4")}
    worst = max(drifts.values())
    acceptance(5, "b-drift-1e-6", worst <= 1e-6,
               "FR/PEFRL/COMP4 max drifts "
               + ", ".join(f"{v:.2e}" for v in drifts.values())
               + " vs tol 1e-6")
    assert worst <= 1e-6


def test_criterion_5c_no_secular_growth(wave_runs, acceptance):
    records, _ = wave_runs
    ok = True
    ratios = {}
    for name in ("fr", "pefrl", "comp4"):
        rec = records[name]
        drift = _drift(rec)
        early = drift[(rec.times > 0.0) & (rec.times <= 12.0)].max()
        late = drift[rec.times > 12.0].max()
        ratios[name] = late / early
        ok = ok and late <= 1.1 * early
    acceptance(5, "c-no-secular-growth", ok,
               "late/early drift ratios "
               + ", ".join(f"{k}={v:.2f}" for k, v in ratios.items())
               + " all <= 1.1")
    assert ok


def test_criterion_5d_relaxation_per_step(wave_runs, acceptance):
    records, elapsed = wave_runs
    worst = 0.0
    for name in ("rrk_analytic", "rrk_bisection"):
        rec = records[name]
        worst = max(worst, np.abs(np.diff(rec.energies)).max() / rec.energies[0])
    ok = worst <= 1e-12 and elapsed < 60.0
    acceptance(5, "d-rrk-per-step", ok,
               f"max per-step |dH|/H0 = {worst:.2e} (tol 1e-12), "
               f"all 7 runs took {elapsed:.1f}s (< 60s)")
    assert worst <= 1e-12
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# Criterion 6 — convergence orders on the standing wave
# ---------------------------------------------------------------------------


def _standing_wave_orders(out, schemes):
    """Run the standing-wave convergence study (k=4, CFL 0.5, t_end 0.8,
    N in {16, 32, 64, 128}); return the finest observed order per scheme
    and the failure messages of schemes that aborted."""
    path = out / "config.json"
    path.write_text(json.dumps({
        "problem": "wave", "domain": [0.0, 1.0], "n_cells": 16, "k": 4,
        "schemes": schemes, "cfl": 0.5, "t_end": 0.8, "output_dir": str(out),
    }))
    rows, failures = run_convergence_study(parse_config(str(path)),
                                           [16, 32, 64, 128])
    orders = {row.scheme.value: row.observed_order for row in rows
              if row.observed_order is not None}
    return orders, failures


def test_criterion_6a_fixed_step_orders(tmp_path, acceptance):
    start = time.perf_counter()
    final_order, failures = _standing_wave_orders(
        tmp_path, ["rk4", "fr", "pefrl", "comp4", "lf"])
    elapsed = time.perf_counter() - start
    assert failures == []
    ok = elapsed < 30.0
    details = []
    for name, expected in [("RK4", 4.0), ("ForestRuth", 4.0), ("PEFRL", 4.0),
                           ("Composition4", 4.0), ("Leapfrog", 2.0)]:
        got = final_order[name]
        details.append(f"{name}={got:.3f}")
        ok = ok and abs(got - expected) <= 0.25
    acceptance(6, "a-fixed-step-orders", ok,
               "observed orders " + ", ".join(details)
               + f" (4.0/2.0 +- 0.25), {elapsed:.1f}s")
    assert ok


def test_criterion_6b_relaxation_order(tmp_path, acceptance):
    """FAILING: both relaxation schemes abort on the standing wave, so no
    order can be observed.  The documented relaxation pins H to H(0), but H
    is not invariant on this boundary-spanning state: dH/dt = v^T B_hat (G u)
    (criterion 4), which is nonzero while u and v reach into the closure
    zone of criterion 2a.  RRK_analytic's gamma collapses at step 140 and
    RRK_bisection finds no sign change at step 9, both at N = 16: the loud
    abort that test_relaxation_fails_loudly_on_boundary_spanning_state
    requires.
    Whether the paper's relaxation should instead match the RK estimate of
    the energy change (the general form in Ketcheson, SIAM J. Numer. Anal.
    57, 2019) is not settled by the docs, and that change would alter the
    byte-pinned RRK traces, so the clause is kept as written."""
    final_order, failures = _standing_wave_orders(
        tmp_path, ["rrk_analytic", "rrk_bisection"])
    ok = not failures
    details = []
    for name in ("RRK_analytic", "RRK_bisection"):
        got = final_order.get(name)
        details.append(f"{name}={'none' if got is None else f'{got:.3f}'}")
        ok = ok and got is not None and abs(got - 4.0) <= 0.25
    acceptance(6, "b-relaxation-order", ok,
               "observed orders " + ", ".join(details) + " (4.0 +- 0.25)"
               + "".join(f"; NumericalFailure {f}" for f in failures))
    assert failures == []
    assert ok


# ---------------------------------------------------------------------------
# Criterion 7 — relative timings
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def timing_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    path = out / "config.json"
    path.write_text(json.dumps({
        "problem": "wave", "domain": [-30.0, 30.0], "n_cells": 600, "k": 4,
        "schemes": ["rk4", "fr", "pefrl", "comp4", "rrk_analytic", "rrk_bisection"],
        "cfl": 0.5, "t_end": 24.0, "record_every": 8, "output_dir": str(out),
    }))
    # repeats is free in this criterion; 9 keeps the ~30 ms medians stable
    # against scheduler noise on a shared machine.
    rows = run_timing_benchmark(parse_config(str(path)), repeats=9)
    return {row["scheme"]: row["median_seconds"] for row in rows}


def test_criterion_7a_bisection_slower_than_analytic(timing_rows, acceptance):
    ratio = timing_rows["RRK_bisection"] / timing_rows["RRK_analytic"]
    acceptance(7, "a-bisection-2x", ratio >= 2.0,
               f"bisection/analytic median wall ratio = {ratio:.1f}x (need >= 2x)")
    assert ratio >= 2.0


def test_criterion_7b_fixed_step_timings_comparable(timing_rows, acceptance):
    times = [timing_rows[name] for name in ("RK4", "ForestRuth", "PEFRL",
                                            "Composition4")]
    spread = max(times) / min(times)
    acceptance(7, "b-within-2x", spread <= 2.0,
               f"RK4/FR/PEFRL/COMP4 spread = {spread:.2f}x (need <= 2x)")
    assert spread <= 2.0


# ---------------------------------------------------------------------------
# Criterion 8 — shallow-water energy drift
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def shallow_runs():
    grid = build_grid(-30.0, 30.0, 600)
    ops = build_operator_set(4, grid)
    system = ShallowWaterSystem(ops, d0=1.0, g=1.0)
    state = shallow_water_ic(grid)
    # CFL is free in this criterion; 0.25 keeps ForestRuth's large negative
    # substep inside the stability region of the true characteristic speed
    # sqrt(g*(d0 + eta)) ~ 1.45, which exceeds the declared sqrt(g*d0) = 1.
    dt = cfl_dt(grid, 0.25, wave_speed=system.wave_speed)
    return {name: integrate(system, name, state.arrays(), 10.0, dt)
            for name in ("rk4", "fr", "pefrl", "comp4", "lf")}


def test_criterion_8a_symplectic_drift_small(shallow_runs, acceptance):
    drifts = {name: _drift(shallow_runs[name]).max()
              for name in ("fr", "pefrl", "comp4", "lf")}
    worst = max(drifts.values())
    acceptance(8, "a-symplectic-1e-3", worst <= 1e-3,
               "symplectic drifts "
               + ", ".join(f"{k}={v:.2e}" for k, v in drifts.items())
               + " vs tol 1e-3")
    assert worst <= 1e-3


def test_criterion_8b_rk4_drift_largest(shallow_runs, acceptance):
    """FAILING: shallow water is not separable, and in the lockstep form
    the splitting schemes use on it (each drift with the current velocity,
    each kick with the updated position) ForestRuth, PEFRL, Composition4
    and Leapfrog are first order.  Against an RK4 reference at dt/16 their
    observed orders over dt, dt/2, dt/4 to t = 2 are 1.00-1.06, and their
    energy error grows like dt*t (ForestRuth: 7.9e-7 at t = 2, 6.15e-6 at
    t = 10), not as a bounded O(dt^4) oscillation.  RK4's drift does not
    depend on the step (1.10e-10, 1.07e-10, 1.07e-10 at t = 2): its 2.2e-9
    at t = 10 is the semi-discrete energy defect of the shallow-water
    discretization, and it sits below every splitting scheme's first-order
    error.  No explicit fourth-order symplectic splitting exists for this
    Hamiltonian, and the docs do not promise fourth order here, so the
    clause is kept as written."""
    rk4 = _drift(shallow_runs["rk4"]).max()
    sympl = {name: _drift(shallow_runs[name]).max()
             for name in ("fr", "pefrl", "comp4", "lf")}
    ok = all(rk4 > v for v in sympl.values())
    acceptance(8, "b-rk4-largest", ok,
               f"RK4 drift {rk4:.2e} vs symplectic "
               + ", ".join(f"{k}={v:.2e}" for k, v in sympl.items()))
    assert ok


# ---------------------------------------------------------------------------
# Criterion 9 — integrator oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_9_oscillator_oracles(acceptance):
    state0 = (np.array([1.0]), np.array([0.0]))
    system = HarmonicOscillator()
    worst4 = worst2 = 0.0
    for name in ("rk4", "rrk_analytic", "rrk_bisection", "fr", "pefrl",
                 "comp4", "lf"):
        record = integrate(system, name, state0, 1.0, 1e-3)
        ue, ve = rotation_exact(1.0, 0.0, record.final_time)
        err = max(abs(record.final_state[0][0] - ue),
                  abs(record.final_state[1][0] - ve))
        if normalize_scheme(name).nominal_order == 4:
            worst4 = max(worst4, err)
        else:
            worst2 = max(worst2, err)
    res_rk4 = float(np.abs(tableau_symplecticity_matrix(TABLEAU_RK4.a, TABLEAU_RK4.b)).max())
    res_mid = float(np.abs(tableau_symplecticity_matrix(*IMPLICIT_MIDPOINT)).max())
    ok = (worst4 <= 1e-9 and worst2 <= 1e-5 and res_rk4 > 0.01 and res_mid == 0.0)
    acceptance(9, "oracle-equivalence", ok,
               f"4th-order max err {worst4:.2e} (tol 1e-9), leapfrog "
               f"{worst2:.2e} (tol 1e-5), residual(RK4) = {res_rk4:.4f} > "
               f"0.01, residual(midpoint) = {res_mid}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 10 — determinism
# ---------------------------------------------------------------------------


def test_criterion_10_energy_runs_deterministic(tmp_path, acceptance):
    identical = True
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"out_{tag}"
        cfg = tmp_path / f"cfg_{tag}.json"
        cfg.write_text(json.dumps({
            "problem": "wave", "domain": [-30.0, 30.0], "n_cells": 200,
            "k": 4, "schemes": ["rk4", "pefrl", "lf", "rrk_bisection"],
            "cfl": 0.5, "t_end": 2.0, "output_dir": str(out),
        }))
        assert main(["energy", str(cfg)]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].glob("energy_*.csv"))
    for name in names:
        identical = identical and ((outs[0] / name).read_bytes()
                                   == (outs[1] / name).read_bytes())
    acceptance(10, "byte-identical", identical,
               f"{len(names)} energy CSVs byte-identical across repeated runs")
    assert identical and len(names) == 4
