"""Experiment CLI: config parsing/validation, the four subcommands, file
formats, exit codes, and run-to-run determinism."""
from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from mimkit import (
    DRIFT_THRESHOLD,
    ConfigError,
    ConvergenceRow,
    main,
    parse_config,
    run_convergence_study,
    run_energy_experiment,
)
from mimkit import experiment_cli

ROOT = Path(__file__).resolve().parents[1]


def _write_config(tmp_path, name="config.json", **overrides):
    data = {
        "problem": "wave",
        "domain": [0.0, 1.0],
        "n_cells": 32,
        "k": 4,
        "schemes": ["rk4", "pefrl", "lf"],
        "cfl": 0.5,
        "t_end": 0.5,
        "output_dir": str(tmp_path / "out"),
    }
    data.update(overrides)
    data = {key: value for key, value in data.items() if value is not None}
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def test_parse_shipped_configs():
    wave = parse_config(ROOT / "configs" / "wave_energy.json")
    assert wave.problem == "wave"
    assert wave.domain == (-30.0, 30.0)
    assert wave.n_cells == 600 and wave.k == 4
    assert wave.cfl == 0.5 and wave.dt is None and wave.t_end == 24.0
    assert len(wave.schemes) == 7

    sw = parse_config(ROOT / "configs" / "shallow_water_energy.json")
    assert sw.problem == "shallow_water"
    assert sw.cfl == 0.25 and sw.t_end == 10.0
    assert sw.ic_offset == 1.0 and sw.d0 == 1.0 and sw.g == 1.0

    conv = parse_config(ROOT / "configs" / "wave_convergence.json")
    assert conv.domain == (0.0, 1.0) and conv.cfl == 0.5


@pytest.mark.parametrize("overrides,fragment", [
    ({"problem": "heat"}, "problem"),
    ({"n_cells": None}, "n_cells"),
    ({"t_end": -1.0}, "t_end"),
    ({"k": 3}, "'k'"),
    ({"n_cells": 6}, "2k"),
    ({"dt": 0.01}, "mutually exclusive"),
    ({"schemes": ["euler"]}, "scheme"),
    ({"domain": [1.0, 0.0]}, "domain"),
    ({"mystery_key": 1}, "unknown config key"),
    ({"ic_offset": 0.5}, "offset"),
    ({"k": 4.0}, "'k'"),
    ({"t_end": math.inf}, "'t_end' must be a finite number"),
    ({"domain": [0.0, math.inf]}, "'domain' must be a list of two finite numbers"),
    ({"d0": math.inf}, "'d0' must be a finite number"),
    ({"ic_center": math.nan}, "'ic_center' must be a finite number"),
    ({"order": 2}, "unknown config key"),
    ({"schemes": "rk4"}, "'schemes' must be a non-empty list"),
    ({"schemes": ["rk4", "RK4", "lf"]}, "'schemes' lists RK4 twice"),
])
def test_parse_config_rejects_bad_values(tmp_path, overrides, fragment):
    path = _write_config(tmp_path, **overrides)
    with pytest.raises(ConfigError, match=fragment):
        parse_config(path)


def test_parse_config_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="flat JSON object"):
        parse_config(str(arr))


def test_config_error_is_value_error(tmp_path):
    assert issubclass(ConfigError, ValueError)


# ---------------------------------------------------------------------------
# energy subcommand
# ---------------------------------------------------------------------------


def test_energy_end_to_end(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert main(["energy", path]) == 0
    out = capsys.readouterr().out
    out_dir = tmp_path / "out"
    for scheme in ("RK4", "PEFRL", "Leapfrog"):
        csv_path = out_dir / f"energy_{scheme}.csv"
        assert csv_path.exists()
        assert str(csv_path) in out
        rows = list(csv.reader(csv_path.read_text().splitlines()))
        assert rows[0] == ["t", "H", "rel_drift"]
        times = np.array([float(r[0]) for r in rows[1:]])
        drifts = np.array([float(r[2]) for r in rows[1:]])
        assert times[0] == 0.0 and times[-1] == pytest.approx(0.5, abs=1e-12)
        assert np.all(np.diff(times) > 0)
        assert drifts[0] == 0.0

    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["experiment"] == "energy"
    assert summary["drift_threshold"] == DRIFT_THRESHOLD == 1e-3
    assert summary["failures"] == []
    assert set(summary["schemes"]) == {"RK4", "PEFRL", "Leapfrog"}
    for entry in summary["schemes"].values():
        assert isinstance(entry["within_drift_threshold"], bool)


def test_energy_relaxation_csv_has_gamma_column(tmp_path):
    path = _write_config(tmp_path, schemes=["rrk_bisection"], n_cells=128,
                         t_end=0.2, ic_width=0.03)
    assert main(["energy", path]) == 0
    rows = (tmp_path / "out" / "energy_RRK_bisection.csv").read_text().splitlines()
    assert rows[0] == "t,H,rel_drift,gamma"
    first = rows[1].split(",")
    assert first[3] == ""  # no step has happened at t = 0
    assert float(rows[2].split(",")[3]) == pytest.approx(1.0, abs=1e-3)


def test_energy_isolates_failing_scheme(tmp_path, capsys):
    """A numerical blowup in one scheme exits 3 but still writes the other
    schemes' traces and records the error in summary.json.  (ForestRuth's
    large negative substep is unstable here: the resting depth d0 + offset
    doubles the true characteristic speed relative to the declared
    sqrt(g*d0), and the bump sharpens into a bore.)"""
    path = _write_config(tmp_path, problem="shallow_water", domain=None,
                         n_cells=128, schemes=["rk4", "fr"], t_end=15.0,
                         ic_offset=1.0, ic_width=1.0, ic_amplitude=0.1)
    assert main(["energy", path]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "ForestRuth" in err
    assert "non-positive total depth" in err
    out_dir = tmp_path / "out"
    assert (out_dir / "energy_RK4.csv").exists()
    assert not (out_dir / "energy_ForestRuth.csv").exists()
    summary = json.loads((out_dir / "summary.json").read_text())
    failed = summary["schemes"]["ForestRuth"]
    assert failed["status"] == "failed"
    assert failed["scheme"] == "ForestRuth"
    assert failed["error"].startswith(f"step {failed['step']}: ")
    assert 0.0 < failed["t"] < 15.0
    assert summary["schemes"]["RK4"]["within_drift_threshold"] is True
    assert len(summary["failures"]) == 1


def test_summary_json_holds_the_returned_summary(tmp_path):
    """summary.json is the summary run_energy_experiment returns (less the
    path it was written to), value for value, for finished, relaxation and
    failed schemes alike."""
    path = _write_config(tmp_path, problem="shallow_water", domain=None,
                         n_cells=128, schemes=["rrk_bisection", "fr"], t_end=15.0,
                         ic_offset=1.0, ic_width=1.0, ic_amplitude=0.1)
    summary = run_energy_experiment(parse_config(path))
    assert summary["schemes"]["ForestRuth"]["status"] == "failed"
    assert "gamma_min" in summary["schemes"]["RRK_bisection"]
    written = json.loads(Path(summary.pop("summary_path")).read_text())
    assert written == summary


def _bore_config(tmp_path, name, schemes):
    """The shallow-water bore of test_energy_isolates_failing_scheme, on
    which ForestRuth fails, written to tmp_path/<name>."""
    return parse_config(_write_config(
        tmp_path, name=f"{name}.json", output_dir=str(tmp_path / name),
        problem="shallow_water", domain=None, n_cells=128, schemes=schemes,
        t_end=15.0, ic_offset=1.0, ic_width=1.0, ic_amplitude=0.1))


@contextlib.contextmanager
def _deadline(seconds):
    """Fail with TimeoutError, rather than stall the suite, if the block is
    still running after ``seconds`` (forked children do not inherit the
    alarm)."""

    def hung(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_energy_in_worker_processes_matches_in_process(tmp_path):
    """Schemes run side by side in forked workers give the same CSVs, byte
    for byte, and the same summary in the same order (apart from wall
    time), failure included."""
    schemes = ["rk4", "fr", "rrk_bisection", "lf"]
    serial = run_energy_experiment(_bore_config(tmp_path, "serial", schemes), processes=1)
    with _deadline(60):
        parallel = run_energy_experiment(_bore_config(tmp_path, "parallel", schemes),
                                         processes=2)
    assert (serial["processes"], parallel["processes"]) == (1, 2)

    names = [Path(p).name for p in serial["files"]]
    assert names == ["energy_RK4.csv", "energy_RRK_bisection.csv", "energy_Leapfrog.csv"]
    assert [Path(p).name for p in parallel["files"]] == names
    for name in names:
        assert (tmp_path / "parallel" / name).read_bytes() == \
            (tmp_path / "serial" / name).read_bytes(), name
    assert parallel["failures"] == serial["failures"]
    assert len(serial["failures"]) == 1

    def without_wall(summary):
        return [(scheme, {k: v for k, v in entry.items() if k != "wall_seconds"})
                for scheme, entry in summary["schemes"].items()]

    assert without_wall(parallel) == without_wall(serial)
    assert list(parallel["schemes"]) == ["RK4", "ForestRuth", "RRK_bisection", "Leapfrog"]
    failed = parallel["schemes"]["ForestRuth"]
    assert failed["status"] == "failed" and failed["scheme"] == "ForestRuth"
    assert failed["error"].startswith(f"step {failed['step']}: ")
    assert 0.0 < failed["t"] < 15.0


def test_energy_dead_worker_raises(tmp_path, monkeypatch):
    """A worker process that dies mid-run makes run_energy_experiment raise
    BrokenProcessPool promptly instead of waiting for its result; an alarm
    fails the test if it hangs."""
    real_integrate = experiment_cli.integrate

    def dying_integrate(system, kind, *args, **kwargs):
        if kind.value == "Leapfrog":
            os._exit(1)  # the forked worker inherits this patch
        return real_integrate(system, kind, *args, **kwargs)

    monkeypatch.setattr(experiment_cli, "integrate", dying_integrate)
    config = parse_config(_write_config(tmp_path))
    start = time.perf_counter()
    with _deadline(30), pytest.raises(BrokenProcessPool):
        run_energy_experiment(config, processes=2)
    assert time.perf_counter() - start < 10.0


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_energy_worker_start_leaves_every_usable_cpu_allowed():
    """A worker's start takes its CPU from the queue and then restores its
    affinity: no worker stays pinned to one CPU."""
    import multiprocessing

    usable = os.sched_getaffinity(0)
    cpus = multiprocessing.get_context("fork").SimpleQueue()
    cpus.put(max(usable))
    experiment_cli._start_on_own_cpu(cpus)
    assert cpus.empty()
    assert os.sched_getaffinity(0) == usable


def test_energy_library_default_runs_in_process(tmp_path, monkeypatch):
    """run_energy_experiment's default runs every scheme in the calling
    process, so a patched integrate sees every call (in-process timing of
    the writes relies on this)."""
    real_integrate = experiment_cli.integrate
    calls = []

    def counting_integrate(system, kind, *args, **kwargs):
        calls.append(kind.value)
        return real_integrate(system, kind, *args, **kwargs)

    monkeypatch.setattr(experiment_cli, "integrate", counting_integrate)
    config = parse_config(_write_config(tmp_path))
    summary = run_energy_experiment(config)
    assert calls == ["RK4", "PEFRL", "Leapfrog"]
    assert summary["processes"] == 1
    with pytest.raises(ValueError, match="processes must be >= 1"):
        run_energy_experiment(config, processes=0)


def test_energy_cli_uses_one_process_per_usable_cpu(monkeypatch):
    """``mimkit energy`` runs one worker per usable CPU, at most one per
    scheme, and runs in-process on one CPU or without fork."""
    import multiprocessing

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert experiment_cli._energy_processes(7) == 4
    assert experiment_cli._energy_processes(3) == 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert experiment_cli._energy_processes(7) == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert experiment_cli._energy_processes(7) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert experiment_cli._energy_processes(7) == 2
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert experiment_cli._energy_processes(7) == 1


def test_energy_values_round_trip_17_digits(tmp_path):
    path = _write_config(tmp_path, schemes=["pefrl"], t_end=0.25)
    assert main(["energy", path]) == 0
    rows = (tmp_path / "out" / "energy_PEFRL.csv").read_text().splitlines()[1:]
    h_values = [float(r.split(",")[1]) for r in rows]
    # re-formatting at 17 significant digits reproduces the file exactly
    for row, h_val in zip(rows, h_values):
        assert f"{h_val:.17g}" == row.split(",")[1]


def test_energy_runs_are_byte_identical(tmp_path):
    path_a = _write_config(tmp_path, name="a.json",
                           output_dir=str(tmp_path / "out_a"))
    path_b = _write_config(tmp_path, name="b.json",
                           output_dir=str(tmp_path / "out_b"))
    assert main(["energy", path_a]) == 0
    assert main(["energy", path_b]) == 0
    for scheme in ("RK4", "PEFRL", "Leapfrog"):
        a = (tmp_path / "out_a" / f"energy_{scheme}.csv").read_bytes()
        b = (tmp_path / "out_b" / f"energy_{scheme}.csv").read_bytes()
        assert a == b


def test_energy_config_error_exit_code(tmp_path, capsys):
    path = _write_config(tmp_path, k=3)
    assert main(["energy", path]) == 2
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# converge subcommand
# ---------------------------------------------------------------------------


def test_converge_end_to_end(tmp_path):
    path = _write_config(tmp_path, schemes=["rk4", "lf"], t_end=0.5)
    assert main(["converge", path, "--n", "16,32,64"]) == 0
    rows = list(csv.DictReader(
        (tmp_path / "out" / "convergence.csv").read_text().splitlines()))
    assert list(rows[0]) == ["scheme", "n_cells", "h", "error", "observed_order",
                             "rhs_evals"]
    by_scheme = {}
    for row in rows:
        by_scheme.setdefault(row["scheme"], []).append(row)
    assert set(by_scheme) == {"RK4", "Leapfrog"}
    for scheme, entries in by_scheme.items():
        assert [int(r["n_cells"]) for r in entries] == [16, 32, 64]
        assert entries[0]["observed_order"] == ""
        errors = [float(r["error"]) for r in entries]
        assert errors[0] > errors[1] > errors[2]
        expected = 2.0 if scheme == "Leapfrog" else 4.0
        for r in entries[1:]:
            assert float(r["observed_order"]) == pytest.approx(expected, abs=0.4)
        assert all(int(r["rhs_evals"]) > 0 for r in entries)


def test_converge_continues_past_failing_scheme(tmp_path, capsys):
    path = _write_config(tmp_path, schemes=["rrk_analytic", "rk4"], t_end=0.8)
    assert main(["converge", path, "--n", "16,32"]) == 3
    assert "numerical failure" in capsys.readouterr().err
    rows = list(csv.DictReader(
        (tmp_path / "out" / "convergence.csv").read_text().splitlines()))
    assert {row["scheme"] for row in rows} == {"RK4"}


def test_run_convergence_study_returns_rows_and_failures(tmp_path):
    config = parse_config(_write_config(tmp_path, schemes=["rk4"], t_end=0.5))
    rows, failures = run_convergence_study(config, [16, 32])
    assert failures == []
    assert all(isinstance(row, ConvergenceRow) for row in rows)
    assert rows[0].observed_order is None
    assert rows[1].observed_order == pytest.approx(4.0, abs=0.4)


@pytest.mark.parametrize("overrides,argv_n", [
    ({"problem": "shallow_water", "ic_offset": 1.0}, "16,32"),  # wave only
    ({"domain": [0.0, 2.0]}, "16,32"),                          # unit domain only
    ({"cfl": None, "dt": 0.01}, "16,32"),                       # cfl required
    ({}, "16"),                                                 # two refinements
    ({}, "32,16"),                                              # increasing
    ({}, "4,8"),                                                # n >= 2k
])
def test_converge_validation_exit_code(tmp_path, capsys, overrides, argv_n):
    path = _write_config(tmp_path, **overrides)
    assert main(["converge", path, "--n", argv_n]) == 2
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench subcommand
# ---------------------------------------------------------------------------


def test_bench_end_to_end(tmp_path):
    path = _write_config(tmp_path, schemes=["rk4", "lf"], t_end=0.2)
    assert main(["bench", path, "--repeats", "3"]) == 0
    rows = list(csv.DictReader(
        (tmp_path / "out" / "timing.csv").read_text().splitlines()))
    assert list(rows[0]) == ["scheme", "median_seconds", "rhs_evals",
                             "seconds_per_rhs"]
    assert [row["scheme"] for row in rows] == ["RK4", "Leapfrog"]
    for row in rows:
        assert float(row["median_seconds"]) > 0.0
        assert float(row["seconds_per_rhs"]) > 0.0
    # same step count, so the work ratio is exactly the per-step eval ratio
    assert int(rows[0]["rhs_evals"]) == 4 * int(rows[1]["rhs_evals"])


# ---------------------------------------------------------------------------
# dump-ops subcommand
# ---------------------------------------------------------------------------


def test_dump_ops_end_to_end(capsys):
    assert main(["dump-ops", "--order", "2", "--cells", "8"]) == 0
    out = capsys.readouterr().out
    for name, shape in [("D", "(8x9)"), ("G", "(9x10)"), ("D_hat", "(10x9)"),
                        ("Q", "(10x10)"), ("P", "(9x9)"), ("B_hat", "(10x9)"),
                        ("L", "(10x10)"), ("I_D", "(10x9)"), ("I_G", "(9x10)")]:
        assert f"# operator {name} {shape}" in out
    for line in out.splitlines():
        if line.startswith("#"):
            continue
        r, c, v = line.split()
        int(r), int(c), float(v)  # triples parse

    assert main(["dump-ops", "--order", "2", "--cells", "8"]) == 0
    assert capsys.readouterr().out == out  # deterministic


def test_dump_ops_rejects_bad_order(capsys):
    assert main(["dump-ops", "--order", "3", "--cells", "8"]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["dump-ops", "--order", "4", "--cells", "4"]) == 2


def test_dump_ops_accepts_domain(capsys):
    assert main(["dump-ops", "--order", "2", "--cells", "8",
                 "--domain", "0,2"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_output_dir_created_if_missing(tmp_path):
    nested = tmp_path / "deep" / "nested" / "dir"
    path = _write_config(tmp_path, schemes=["lf"], t_end=0.1,
                         output_dir=str(nested))
    assert main(["energy", path]) == 0
    assert (nested / "energy_Leapfrog.csv").exists()


# ---------------------------------------------------------------------------
# committed results regenerate byte for byte
# ---------------------------------------------------------------------------

# sha256 of `mimkit dump-ops --order k --cells N` (domain [0, 1]).  The sizes
# sit on both sides of each construction branch: the full conservation solve
# gives way to the zone solve at N = 28, the node-weight zone saturates at
# N = 33, and at N = 34/35 (k = 2) and N = 36/37 (k = 4) exactly zero and then
# one tiled interior row lie between the exact B_hat/L rows of the two ends.
DUMP_OPS_SHA256 = {
    4: {
        8: "f3cfdae94e9480ffe0dc8fa85c32639c40d2d7cd2585713ff422891676ac00db",
        27: "c9c967cb1f3934c3d9234ccbbaee01f1216bdf3dd098b74c669f1320065f280b",
        28: "b5faa52f48a61dc7a67e72d9455988781eb8120c954881a9c050fa66468af857",
        33: "d6d33a799029cfa39911001fa5c1bc4ae55d70f6a834f9963013d9f302b25a70",
        36: "29ba1c712121ec863696c59d6b5d72d6734fe735c06f276225bf454e173f509f",
        37: "c11da87bd0d83424b1f4e0ba42077326fd8b293020b6ef26a7144db3d1b6fc67",
        40: "0a4f708c30ec1d9735d81656fbc108170d2be56fe8aa0036254c4ca11ded18f3",
        600: "ee93b18738a98832247daa9847eeac051545246071b821e45de0512123d54f64",
    },
    2: {
        8: "8d3d79f50d23bcd323a8dca02d7ce1e6d2104cd5fdbe546982e5a1e8023ae84b",
        27: "e28dcae44a1ffdc0d24f6b25f6284e0316045d02d9ca50c00389e1babb2e5128",
        28: "4fc5ed11b81c33c69bcc2e8865a5a20c930d92356e680d26f348f0848c1ba767",
        33: "0b92e28a2ca802402b0a82eb5b7e339496ff47188665874acc7d8ff2c9a7231d",
        34: "b7dea0d95778f47bc49e1840508fb588f639f0acb412e96529a764f7f265e280",
        35: "f8d9db2fa83fb0150c672b18d8105adf0313bbf4d1da284098b87870d6991b9a",
        40: "c8580b221b9d5f42ab320fdf8cccdcdaf1b4d4fa0d88cb148153c1f4219d4380",
        600: "ad2f1f215cae4ef6ffe1f0e5bdaaf98591e7308ecdd257a963af189525b429d8",
    },
}


def _committed_config(tmp_path, name):
    """configs/<name>.json with output redirected to tmp_path/out; returns
    (config path, committed results dir, output dir)."""
    data = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    committed = ROOT / data["output_dir"]
    data["output_dir"] = str(tmp_path / "out")
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return str(path), committed, tmp_path / "out"


@pytest.mark.parametrize("name", ["wave_energy", "shallow_water_energy"])
def test_energy_regenerates_committed_results(tmp_path, name):
    """summary.json and timing.csv hold wall times and are not compared."""
    path, committed, out = _committed_config(tmp_path, name)
    assert main(["energy", path]) == 0
    expected = sorted(p.name for p in committed.glob("energy_*.csv"))
    assert sorted(p.name for p in out.glob("energy_*.csv")) == expected
    for csv_name in expected:
        assert (out / csv_name).read_bytes() == (committed / csv_name).read_bytes(), csv_name


def test_converge_regenerates_committed_results(tmp_path):
    path, committed, out = _committed_config(tmp_path, "wave_convergence")
    # both relaxation schemes abort on the standing wave (criterion 6b)
    assert main(["converge", path, "--n", "16,32,64,128"]) == 3
    assert (out / "convergence.csv").read_bytes() == (committed / "convergence.csv").read_bytes()


@pytest.mark.parametrize("order", [4, 2])
def test_dump_ops_digest_is_pinned(capsys, order):
    for cells, expected in DUMP_OPS_SHA256[order].items():
        assert main(["dump-ops", "--order", str(order), "--cells", str(cells)]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == expected, cells
