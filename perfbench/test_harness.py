"""Self-test of the benchmark harness.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import sys

import pytest

from workloads import ALL_SCHEMES, COMMON_SCHEMES, ROOT, WORKLOADS, make_config

sys.path.insert(0, str(ROOT / "src"))

import mimkit  # noqa: E402
from checks import compare_bytes, compare_trace, invariant_problems, read_trace  # noqa: E402
from tracing import RecordingSystem  # noqa: E402


def _small_system(problem):
    grid = mimkit.build_grid(-30.0, 30.0, 64)
    ops = mimkit.build_operator_set(4, grid)
    if problem == "wave":
        return mimkit.WaveSystem(ops), mimkit.gaussian_ic(grid, center=0.0, width=3.0).arrays()
    return mimkit.ShallowWaterSystem(ops), mimkit.shallow_water_ic(grid).arrays()


@pytest.mark.parametrize("problem, schemes", [("wave", ALL_SCHEMES),
                                              ("shallow_water", COMMON_SCHEMES)])
def test_proxy_counts_equal_declared_evaluations(problem, schemes):
    system, state0 = _small_system(problem)
    for scheme in schemes:
        plain = mimkit.integrate(system, scheme, state0, 2.0, 0.1)
        proxy = RecordingSystem(system)
        record = mimkit.integrate(proxy, scheme, state0, 2.0, 0.1)
        declared = mimkit.normalize_scheme(scheme).rhs_evals_per_step
        assert proxy.force_evals == record.n_steps * declared, scheme
        assert proxy.calls["energy"] >= record.n_steps + 1, scheme
        assert 0.0 < proxy.system_seconds < record.wall_seconds, scheme
        # the proxy only observes: the trace is bit for bit the untraced one
        assert compare_trace(scheme, record.times, record.energies,
                             (plain.times, plain.energies)) == []


def test_check_rejects_one_perturbed_digit(tmp_path):
    reference = ROOT / "results" / "wave_energy" / "energy_PEFRL.csv"
    lines = reference.read_text().splitlines(keepends=True)
    t, h, rest = lines[5].split(",", 2)
    digit = h.index(".") + 1  # a digit every double representation keeps
    h = h[:digit] + str((int(h[digit]) + 1) % 10) + h[digit + 1:]
    lines[5] = ",".join((t, h, rest))
    perturbed = tmp_path / reference.name
    perturbed.write_text("".join(lines))

    assert compare_bytes(reference, reference) == []
    assert compare_bytes(perturbed, reference)
    times, energies = read_trace(perturbed.read_text())
    assert compare_trace("PEFRL", times, energies, read_trace(reference.read_text()))


def test_invariants_reject_a_short_trace():
    times = [0.0, 0.5, 1.0]
    assert invariant_problems("RK4", times, [1.0, 1.0, 1.0], 2, 0.5, 1.0, 1) == []
    assert invariant_problems("RK4", times[:2], [1.0, 1.0], 2, 0.5, 1.0, 1)
    assert invariant_problems("RRK_analytic", times, [1.0, 1.0, 1.0 + 1e-6], 2, 0.5, 1.0, 1)


def test_seed_1_run_passes_invariants(tmp_path):
    workload = WORKLOADS["wave_600"]
    raw = make_config(workload, 1, str(tmp_path / "out"))
    assert raw != make_config(workload, 0, str(tmp_path / "out"))
    assert raw == make_config(workload, 1, str(tmp_path / "out"))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    config = mimkit.parse_config(str(config_path))
    summary = mimkit.run_energy_experiment(config)
    assert summary["failures"] == []
    for kind in config.schemes:
        entry = summary["schemes"][kind.value]
        times, energies = read_trace((tmp_path / "out" / f"energy_{kind.value}.csv").read_text())
        assert invariant_problems(kind.value, times, energies, entry["n_steps"], entry["dt"],
                                  config.t_end, config.record_every) == []


def test_benchmark_json_lists_the_harness_metrics():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
