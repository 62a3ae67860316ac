"""Experiment CLI: config parsing/validation, the four subcommands, file
formats, exit codes, and run-to-run determinism."""
from __future__ import annotations

import contextlib
import csv
import errno
import hashlib
import json
import math
import os
import random
import signal
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from mimkit import (
    DRIFT_THRESHOLD,
    ConfigError,
    ConvergenceRow,
    SchemeKind,
    main,
    parse_config,
    run_convergence_study,
    run_energy_experiment,
)
from mimkit import experiment_cli, mimetic_ops

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
    assert conv.domain == (0.0, 1.0) and conv.cfl == 0.5 and conv.n_cells is None


@pytest.mark.parametrize("overrides,fragment", [
    ({"problem": "heat"}, "problem"),
    ({"n_cells": "32"}, "n_cells"),
    ({"t_end": "1"}, "t_end"),
    ({"k": "4"}, "'k'"),
    ({"n_cells": 16.0}, "'n_cells' must be an integer, got 16.0"),
    ({"dt": 0.01}, "mutually exclusive"),
    ({"schemes": ["euler"]}, "scheme"),
    ({"domain": [0.0, "1"]}, "domain"),
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
    ({"schemes": ["forest_ruth"]}, "'schemes': unknown scheme 'forest_ruth'"),
    ({"problem": None}, "missing required key 'problem'"),
    ({"t_end": None}, "missing required key 't_end'"),
    ({"n_cells": [32]}, r"'n_cells' must be an integer, got \[32\]"),
    ({"n_cells": True}, "'n_cells' must be an integer, got True"),
    ({"record_every": 1.0}, "'record_every' must be an integer, got 1.0"),
    ({"record_every": True}, "'record_every' must be an integer, got True"),
    ({"cfl": "0.5"}, "'cfl' must be a finite number, got '0.5'"),
    ({"cfl": None, "dt": "0.1"}, "'dt' must be a finite number, got '0.1'"),
    ({"ic_width": math.nan}, "'ic_width' must be a finite number, got nan"),
    ({"d0": [1.0]}, r"'d0' must be a finite number, got \[1.0\]"),
    ({"g": True}, "'g' must be a finite number, got True"),
    ({"rrk_tol": "1e-12"}, "'rrk_tol' must be a finite number, got '1e-12'"),
    ({"output_dir": 1}, "'output_dir' must be a non-empty string, got 1"),
    ({"output_dir": ""}, "'output_dir' must be a non-empty string, got ''"),
    ({"schemes": []}, "'schemes' must be a non-empty list"),
    ({"domain": [0, 1, 2]}, "'domain' must be a list of two finite numbers"),
    # two errors each: the earlier-checked key is the one reported
    ({"k": 4.0, "cfl": "x"}, "config key 'k' must be an integer"),
    ({"problem": "heat", "n_cells": "x"}, "config key 'problem' must be"),
    # integer literals beyond float range
    ({"t_end": 10**400}, "'t_end' must be a finite number"),
    ({"domain": [0, 10**400]}, "'domain' must be a list of two finite numbers"),
])
def test_parse_config_rejects_bad_values(tmp_path, overrides, fragment):
    path = _write_config(tmp_path, **overrides)
    with pytest.raises(ConfigError, match=fragment):
        parse_config(path)


@pytest.mark.parametrize("n_cells,message", [
    (4, "operator construction requires n_cells >= 2k = 8, got 4"),
    (6, "operator construction requires n_cells >= 2k = 8, got 6"),
    (10**400, f"n_cells must be within float range, got {10**400}"),
], ids=["4", "6", "401_digits"])
def test_size_rule_prints_one_message(tmp_path, capsys, monkeypatch, n_cells, message):
    """A size rule is the library's alone, so a config's ``n_cells``, a
    ``converge --n`` refinement and ``dump-ops --cells`` break it with the
    same ``config error:`` line, before any integration."""
    def no_integration(*args, **kwargs):
        raise AssertionError("integrate ran before the size was checked")

    monkeypatch.setattr(experiment_cli, "integrate", no_integration)
    refinements = ",".join(map(str, sorted([16, n_cells])))
    argvs = [["energy", _write_config(tmp_path, "energy.json", n_cells=n_cells)],
             ["converge", _write_config(tmp_path, "converge.json"), "--n", refinements],
             ["dump-ops", "--order", "4", "--cells", str(n_cells)]]
    for argv in argvs:
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == f"config error: {message}\n", argv
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("content", [
    None, b"\xff\xfe", b'{"problem": ["wave"]}',
    b'{"problem": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    b'{"t_end": 1' + b"0" * 5000 + b"}",
], ids=["directory", "non_utf8", "list_problem", "deeply_nested", "int_beyond_int_limit"])
def test_energy_unreadable_config_exits_2(tmp_path, capsys, content):
    path = tmp_path / "config.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["energy", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


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


@pytest.mark.parametrize("overrides,message", [
    ({"problem": "shallow_water", "domain": None, "g": 1e300, "d0": 1e-300},
     "numerical failure: RK4: step 1: non-positive total depth: min(d0 + e) = -8.848e+296\n"),
    ({"ic_amplitude": 1e300}, "numerical failure: RK4: non-finite initial energy: inf\n"),
], ids=["shallow_water_overflow", "wave_overflow"])
def test_overflow_is_a_numerical_failure_without_runtime_warning(tmp_path, capsys, overrides,
                                                                 message):
    """An overflow inside a run is reported once, as the attributed
    ``numerical failure:`` line (exit 3): numpy's own RuntimeWarning (from
    ``advection *= u`` on shallow water, from the P inner product's dot on
    the wave) neither reaches stderr nor is issued at all."""
    path = _write_config(tmp_path, schemes=["rk4"], **overrides)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["energy", path]) == 3
    err = capsys.readouterr().err
    assert err.endswith(message) and err.count("numerical failure:") == 1
    assert "RuntimeWarning" not in err
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


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


def _parent_waits_for_a_child(monkeypatch):
    """Hold this process, where run_energy_experiment starts on its own CPU,
    until a forked child has exited (left unreaped for the runner), so the
    child claims the schemes first; children start as before."""
    parent, real_start = os.getpid(), experiment_cli._start_on_own_cpu

    def start(lane):
        if os.getpid() == parent:
            os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
        real_start(lane)

    monkeypatch.setattr(experiment_cli, "_start_on_own_cpu", start)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_energy_dead_worker_raises(tmp_path, monkeypatch):
    """A child process that dies mid-run makes run_energy_experiment raise
    ChildProcessError promptly, naming its exit status and the schemes left
    without a result, instead of waiting for them; an alarm fails the test
    if it hangs."""
    parent, real_integrate = os.getpid(), experiment_cli.integrate

    def dying_integrate(system, kind, *args, **kwargs):
        if kind.value == "Leapfrog" and os.getpid() != parent:
            os._exit(1)  # the forked child inherits this patch
        return real_integrate(system, kind, *args, **kwargs)

    monkeypatch.setattr(experiment_cli, "integrate", dying_integrate)
    _parent_waits_for_a_child(monkeypatch)
    config = parse_config(_write_config(tmp_path))
    start = time.perf_counter()
    with _deadline(30), pytest.raises(ChildProcessError, match=r"status 1\b.*Leapfrog"):
        run_energy_experiment(config, processes=2)
    assert time.perf_counter() - start < 10.0
    _assert_no_child_left()


def test_energy_scheme_raising_in_the_parent_leaves_no_child(tmp_path, monkeypatch):
    """A scheme that raises in the calling process stops every lane taking
    another: run_energy_experiment raises that exception promptly, once the
    child has finished the one scheme it was running (slowed here to 0.5 s),
    so at most one CSV is written, and no child is left."""
    parent, real_integrate = os.getpid(), experiment_cli.integrate

    def failing_integrate(system, kind, *args, **kwargs):
        if os.getpid() == parent:
            raise RuntimeError(f"{kind.value} failed in the parent")
        time.sleep(0.5)
        return real_integrate(system, kind, *args, **kwargs)

    monkeypatch.setattr(experiment_cli, "integrate", failing_integrate)
    schemes = ["rk4", "fr", "pefrl", "lf", "comp4", "rrk_analytic"]
    config = parse_config(_write_config(tmp_path, schemes=schemes))
    with _deadline(30), pytest.raises(RuntimeError, match="failed in the parent"):
        run_energy_experiment(config, processes=2)
    assert len(list((tmp_path / "out").glob("energy_*.csv"))) <= 1
    _assert_no_child_left()


def test_energy_lanes_beyond_the_cpus_run_each_scheme_once(tmp_path, monkeypatch):
    """Seven lanes, more than this machine's CPUs, claim each of the seven
    schemes exactly once from the shared pipe (each run appends its name to
    one file; a short append is atomic), give the in-process outputs, and
    leave no child."""
    log, real_integrate = tmp_path / "runs.log", experiment_cli.integrate

    def logging_integrate(system, kind, *args, **kwargs):
        with open(log, "a") as fh:
            fh.write(kind.value + "\n")
        return real_integrate(system, kind, *args, **kwargs)

    monkeypatch.setattr(experiment_cli, "integrate", logging_integrate)
    schemes = ["rk4", "rrk_analytic", "rrk_bisection", "fr", "pefrl", "lf", "comp4"]
    serial = run_energy_experiment(parse_config(_write_config(
        tmp_path, name="serial.json", output_dir=str(tmp_path / "serial"), schemes=schemes)))
    log.unlink()
    with _deadline(60):
        lanes = run_energy_experiment(parse_config(_write_config(tmp_path, schemes=schemes)),
                                      processes=7)
    assert sorted(log.read_text().split()) == sorted(kind.value for kind in SchemeKind)
    assert lanes["processes"] == 7 and lanes["failures"] == serial["failures"] == []
    for path in serial["files"]:
        name = Path(path).name
        assert (tmp_path / "out" / name).read_bytes() == Path(path).read_bytes(), name
    _assert_no_child_left()


@pytest.mark.parametrize("error", [
    ConfigError("config key 'output_dir': refused in a child"),
    OSError(errno.ENOSPC, "No space left on device", "energy_RK4.csv"),
], ids=["ConfigError", "OSError"])
def test_energy_exception_in_a_child_reaches_the_caller(tmp_path, monkeypatch, error):
    """An exception a scheme raises in a child process is raised by
    run_energy_experiment with its type and message."""
    parent, real_integrate = os.getpid(), experiment_cli.integrate

    def child_failing_integrate(system, kind, *args, **kwargs):
        if os.getpid() != parent:
            raise error
        return real_integrate(system, kind, *args, **kwargs)

    monkeypatch.setattr(experiment_cli, "integrate", child_failing_integrate)
    _parent_waits_for_a_child(monkeypatch)
    config = parse_config(_write_config(tmp_path))
    with _deadline(30), pytest.raises(type(error)) as raised:
        run_energy_experiment(config, processes=2)
    assert type(raised.value) is type(error) and str(raised.value) == str(error)
    _assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_energy_worker_start_leaves_every_usable_cpu_allowed(monkeypatch):
    """A process's start pins it to its own usable CPU, counted from the
    lowest, and then restores its affinity: no process stays pinned."""
    usable, real_setaffinity, calls = os.sched_getaffinity(0), os.sched_setaffinity, []

    def recording_setaffinity(pid, cpus):
        calls.append(set(cpus))
        real_setaffinity(pid, cpus)

    monkeypatch.setattr(os, "sched_setaffinity", recording_setaffinity)
    experiment_cli._start_on_own_cpu(len(usable) - 1)
    assert calls == [{max(usable)}, usable]
    assert os.sched_getaffinity(0) == usable


def test_energy_library_default_runs_in_process(tmp_path, monkeypatch):
    """run_energy_experiment's default runs every scheme in the calling
    process, longest first, so a patched integrate sees every call
    (in-process timing of the writes relies on this)."""
    real_integrate = experiment_cli.integrate
    calls = []

    def counting_integrate(system, kind, *args, **kwargs):
        calls.append(kind.value)
        return real_integrate(system, kind, *args, **kwargs)

    monkeypatch.setattr(experiment_cli, "integrate", counting_integrate)
    config = parse_config(_write_config(tmp_path, schemes=["rk4", "lf", "rrk_bisection", "fr"]))
    summary = run_energy_experiment(config)
    assert calls == ["RRK_bisection", "RK4", "ForestRuth", "Leapfrog"]
    assert summary["processes"] == 1
    with pytest.raises(ValueError, match="processes must be >= 1"):
        run_energy_experiment(config, processes=0)


def test_energy_starts_the_bisection_run_first(tmp_path, monkeypatch):
    """RRK_bisection, the longest run, starts first, then the others by
    force evaluations per step, ties in config order; the summary and the
    files stay in config order."""
    real_integrate = experiment_cli.integrate
    calls = []

    def recording_integrate(system, kind, *args, **kwargs):
        calls.append(kind.value)
        return real_integrate(system, kind, *args, **kwargs)

    monkeypatch.setattr(experiment_cli, "integrate", recording_integrate)
    schemes = ["lf", "pefrl", "rk4", "rrk_bisection", "comp4", "fr"]
    config = parse_config(_write_config(tmp_path, schemes=schemes))
    summary = run_energy_experiment(config, processes=1)
    assert calls == ["RRK_bisection", "Composition4", "PEFRL", "RK4", "ForestRuth", "Leapfrog"]
    in_config_order = [kind.value for kind in config.schemes]
    assert list(summary["schemes"]) == in_config_order
    assert [Path(p).name for p in summary["files"]] == [
        f"energy_{name}.csv" for name in in_config_order]


def test_energy_cli_uses_one_process_per_usable_cpu(monkeypatch):
    """``mimkit energy`` runs one process per usable CPU, at most one per
    scheme, and runs in-process on one CPU or without fork."""
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
    monkeypatch.delattr(os, "fork")
    assert experiment_cli._energy_processes(7) == 1


def test_energy_run_with_children_imports_no_process_pool(tmp_path, fresh_python):
    """An energy run in forked children imports no ``multiprocessing``,
    ``concurrent`` or ``queue`` module: an import hook refusing them, which
    the children inherit, would make the run fail."""
    fresh_python(f"""
import sys
import mimkit
POOL = ("multiprocessing", "concurrent", "queue")
assert not [m for m in sys.modules if m.split(".")[0] in POOL]

class RefusePool:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in POOL:
            raise ImportError(name + " imported during an energy run")

sys.meta_path.insert(0, RefusePool())
config = mimkit.parse_config({_write_config(tmp_path)!r})
summary = mimkit.run_energy_experiment(config, processes=2)
assert summary["processes"] == 2 and summary["failures"] == [], summary
assert not [m for m in sys.modules if m.split(".")[0] in POOL]
""")


@pytest.mark.parametrize("processes", [1, 2])
def test_energy_run_leaves_scipy_sparse_unloaded(tmp_path, fresh_python, processes):
    """An energy run imports no ``scipy.sparse`` module, in its own process
    or in a forked worker: an import hook refusing them, which the workers
    inherit, would make the run fail."""
    fresh_python(f"""
import sys
import mimkit
assert not [m for m in sys.modules if m.startswith("scipy.sparse")]

class RefuseScipySparse:
    def find_spec(self, name, path=None, target=None):
        if name.startswith("scipy.sparse"):
            raise ImportError(name + " imported during an energy run")

sys.meta_path.insert(0, RefuseScipySparse())
config = mimkit.parse_config({_write_config(tmp_path)!r})
summary = mimkit.run_energy_experiment(config, processes={processes})
assert summary["processes"] == {processes} and summary["failures"] == [], summary
assert not [m for m in sys.modules if m.startswith("scipy.sparse")]
""")


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


@pytest.mark.parametrize("overrides,message", [
    ({"n_cells": 10**300}, f"n_cells = {10**300} is too large for int32 CSR indices"),
    ({"n_cells": 10**11}, "n_cells = 100000000000 is too large for int32 CSR indices"),
    ({"n_cells": 600, "domain": [0, 1e-160]}, "grid spacing h = 1.6666666666666666e-163 must"),
    ({"n_cells": 8, "domain": [0, 1e300]}, "grid spacing h = 1.25e+299 must lie in"),
    ({"n_cells": 8, "domain": [-1e308, 1e308]}, "grid spacing h = inf must lie in"),
], ids=["cells_1e300", "cells_1e11", "h_tiny", "h_huge", "h_inf"])
def test_energy_rejects_unbuildable_size(tmp_path, capsys, monkeypatch, overrides, message):
    """Sizes and domains that parse but cannot be built are reported before
    any integration or output directory."""
    def no_integration(*args, **kwargs):
        raise AssertionError("integrate ran before the setup was built")

    monkeypatch.setattr(experiment_cli, "integrate", no_integration)
    path = _write_config(tmp_path, **overrides)
    assert main(["energy", path]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not (tmp_path / "out").exists()


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


def test_converge_refuses_non_integer_refinement(tmp_path, capsys):
    """A refinement list that is not all integers is a config error (exit 2)
    that quotes the list, before any output directory is made."""
    assert main(["converge", _write_config(tmp_path), "--n", "16,x"]) == 2
    assert capsys.readouterr().err == (
        "config error: --n expects a comma-separated integer list, got '16,x'\n")
    assert not (tmp_path / "out").exists()


def test_run_convergence_study_returns_rows_and_failures(tmp_path):
    config = parse_config(_write_config(tmp_path, schemes=["rk4"], t_end=0.5))
    rows, failures = run_convergence_study(config, [16, 32])
    assert failures == []
    assert all(isinstance(row, ConvergenceRow) for row in rows)
    assert rows[0].observed_order is None
    assert rows[1].observed_order == pytest.approx(4.0, abs=0.4)


def test_converge_builds_each_refinement_once(tmp_path, monkeypatch):
    """One setup per refinement, shared by every scheme."""
    built = []

    def counting_build_setup(config):
        built.append(config.n_cells)
        return real_build_setup(config)

    real_build_setup = experiment_cli._build_setup
    monkeypatch.setattr(experiment_cli, "_build_setup", counting_build_setup)
    config = parse_config(_write_config(tmp_path, schemes=["rk4", "lf"], t_end=0.1))
    rows, failures = run_convergence_study(config, [16, 32])
    assert failures == [] and len(rows) == 4
    assert built == [16, 32]


@pytest.mark.parametrize("overrides,argv_n", [
    ({"problem": "shallow_water", "ic_offset": 1.0}, "16,32"),  # wave only
    ({"domain": [0.0, 2.0]}, "16,32"),                          # unit domain only
    ({"cfl": None, "dt": 0.01}, "16,32"),                       # cfl required
    ({}, "16"),                                                 # two refinements
    ({}, "32,16"),                                              # increasing
    ({}, "4,8"),                                                # n >= 2k
    pytest.param({}, "16," + "1" + "0" * 400, id="beyond_float_range"),
    pytest.param({}, "16,3000000000", id="beyond_int32_csr"),
])
def test_converge_validation_exit_code(tmp_path, capsys, monkeypatch, overrides, argv_n):
    """Each refinement list is checked before the first integration."""
    def no_integration(*args, **kwargs):
        raise AssertionError("integrate ran before the refinements were checked")

    monkeypatch.setattr(experiment_cli, "integrate", no_integration)
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


def test_bench_failure_names_its_scheme(tmp_path, capsys):
    """bench stops at the first numerical failure and names the scheme, as
    energy does (the bore of test_energy_isolates_failing_scheme)."""
    path = _write_config(tmp_path, problem="shallow_water", domain=None,
                         n_cells=128, schemes=["rk4", "fr"], t_end=15.0,
                         ic_offset=1.0, ic_width=1.0, ic_amplitude=0.1)
    assert main(["bench", path, "--repeats", "3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ForestRuth: step ")
    assert "non-positive total depth" in err


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


def test_dump_ops_rejects_cells_beyond_float_range(capsys):
    huge = "1" + "0" * 400
    assert main(["dump-ops", "--order", "4", "--cells", huge]) == 2
    assert capsys.readouterr().err == f"config error: n_cells must be within float range, got {huge}\n"


@pytest.mark.parametrize("argv,message", [
    (["--cells", "1" + "0" * 300], "n_cells = 1" + "0" * 300 + " is too large for int32"),
    (["--cells", "100000000000"], "n_cells = 100000000000 is too large for int32"),
    (["--cells", "300000000000"], "n_cells = 300000000000 is too large for int32"),
    (["--cells", "8", "--domain", "0,1e-160"], "grid spacing h = 1.25e-161 must lie in"),
], ids=["cells_1e300", "cells_1e11", "cells_3e11", "h_tiny"])
def test_dump_ops_rejects_unbuildable_size(capsys, argv, message):
    """Sizes and domains that parse but cannot be built print nothing."""
    assert main(["dump-ops", "--order", "4", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"config error: {message}")


_COMMANDS = {"energy": ["energy"], "converge": ["converge", "--n", "16,32"],
             "bench": ["bench", "--repeats", "3"], "dump-ops": ["dump-ops"]}


@pytest.mark.parametrize("command,failing", [
    *((argv, "build") for argv in _COMMANDS.values()),
    *((argv, "conversion") for argv in _COMMANDS.values()),
], ids=[*_COMMANDS, *(f"{name}-conversion" for name in _COMMANDS)])
def test_memory_error_building_operators_is_config_error(tmp_path, capsys, monkeypatch,
                                                         command, failing):
    """Every subcommand builds its operators through one helper, which maps
    a MemoryError to exit 2, whether the operator set fails to build or an
    operator converted on first use (every one but Q and P, which the set
    converts when it is built) fails to convert."""
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB")

    if failing == "build":
        monkeypatch.setattr(experiment_cli, "build_operator_set", out_of_memory)
    else:
        to_csr = mimetic_ops._Operator.to_csr

        def to_csr_but_diagonals(op, scale=1.0):
            return to_csr(op, scale) if set(op.template) == {0} else out_of_memory()

        mimetic_ops.build_operator_set.cache_clear()  # so that the set's other operators convert anew
        monkeypatch.setattr(mimetic_ops._Operator, "to_csr", to_csr_but_diagonals)
    if command == ["dump-ops"]:
        argv = ["dump-ops", "--order", "4", "--cells", "32"]
    else:
        argv = [command[0], _write_config(tmp_path), *command[1:]]
    assert main(argv) == 2
    assert capsys.readouterr().err == "config error: Unable to allocate 745. GiB\n"


def test_dump_ops_leaves_scipy_sparse_unloaded(fresh_python):
    """dump-ops serializes the kernel arrays, so it imports no
    ``scipy.sparse`` module."""
    fresh_python("""
import contextlib, io, sys
from mimkit.experiment_cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert main(["dump-ops", "--order", "4", "--cells", "40"]) == 0
assert out.getvalue().count("# operator ") == 9
assert not [m for m in sys.modules if m.startswith("scipy.sparse")]
""")


def test_dump_ops_accepts_domain(capsys):
    assert main(["dump-ops", "--order", "2", "--cells", "8",
                 "--domain", "0,2"]) == 0
    capsys.readouterr()


def test_dump_ops_rejects_bad_domain(capsys):
    """A reversed domain is build_grid's config error; anything but two
    numbers is an argparse usage error that says what it expected and names
    no private function.  Both exit 2."""
    assert main(["dump-ops", "--order", "2", "--cells", "8", "--domain", "1,0"]) == 2
    assert capsys.readouterr().err.startswith("config error: grid requires b > a")
    for text in ("0,1,2", "0", "x,1"):
        with pytest.raises(SystemExit) as exc:
            main(["dump-ops", "--order", "2", "--cells", "8", f"--domain={text}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--domain: expected two numbers a,b, got '{text}'" in err
        assert "_parse_domain" not in err


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


@pytest.mark.parametrize("command", [["energy"], ["converge", "--n", "16,32"],
                                     ["bench", "--repeats", "3"]],
                         ids=["energy", "converge", "bench"])
def test_uncreatable_output_dir_exits_2_before_integrating(tmp_path, capsys, monkeypatch,
                                                           command):
    """A path under a regular file, or one holding a NUL character."""
    blocker = tmp_path / "a_file"
    blocker.write_text("")

    def no_integration(*args, **kwargs):
        raise AssertionError("integrate ran before the output directory was made")

    monkeypatch.setattr(experiment_cli, "integrate", no_integration)
    for output_dir in (str(blocker / "out"), str(tmp_path / "out\0")):
        path = _write_config(tmp_path, output_dir=output_dir)
        assert main([command[0], path, *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"config error: config key 'output_dir': cannot create {output_dir!r}: ")


def _converge_refusal(overrides):
    """The message of ``converge``'s own rule (wave only, domain [0, 1], cfl
    required) that refuses a config first, or None."""
    if overrides.get("problem") == "shallow_water":
        return "convergence study requires problem = 'wave' (closed-form reference)"
    if "domain" in overrides:
        return f"convergence study requires domain [0, 1], got {overrides['domain']}"
    if overrides.get("dt") is not None:
        return "convergence study requires the cfl key (dt must refine with h)"
    return None


@pytest.mark.parametrize("command", [["energy"], ["converge", "--n", "16,32"],
                                     ["bench", "--repeats", "3"]],
                         ids=["energy", "converge", "bench"])
@pytest.mark.parametrize("overrides,message", [
    ({"problem": "shallow_water", "g": 1e300, "d0": 1e300},
     "wave_speed must be positive and finite, got inf"),
    ({"problem": "shallow_water", "g": 1e-300, "d0": 1e-300},
     "wave_speed must be positive and finite, got 0.0"),
    ({"t_end": 1e300, "cfl": 1e-300}, "t_end / dt must be finite, got 1e+300 / "),
    ({"t_end": 1e300, "cfl": None, "dt": 1e-300}, "t_end / dt must be finite, got 1e+300 / "),
    # each value rule is the library's, stated by the function that reads the value
    ({"t_end": -1.0}, "t_end must be positive and finite, got -1.0"),
    ({"k": 3}, "order k must be one of (2, 4), got 3"),
    ({"domain": [1.0, 0.0]}, "grid requires b > a, got a=1.0, b=0.0"),
    ({"record_every": 0}, "record_every must be a positive integer, got 0"),
    ({"cfl": 0}, "cfl must be positive and finite, got 0.0"),
    ({"cfl": None, "dt": -0.1}, "dt must be positive and finite, got -0.1"),
    ({"ic_width": 0}, "width must be positive and finite, got 0.0"),
    ({"problem": "shallow_water", "d0": -1}, "d0 must be positive and finite, got -1.0"),
    ({"problem": "shallow_water", "g": 0}, "g must be positive and finite, got 0.0"),
    ({"rrk_tol": 0}, "rrk_tol must be positive and finite, got 0.0"),
    ({"rrk_advance": "half"}, "rrk_advance must be 'gamma_dt' or 'plain_dt', got 'half'"),
    ({"rrk_advance": 1}, "rrk_advance must be 'gamma_dt' or 'plain_dt', got 1"),
    # two errors: the rule met first while the run is built is the one reported
    ({"k": 3, "cfl": -1}, "order k must be one of (2, 4), got 3"),
], ids=["g_d0_huge", "g_d0_tiny", "cfl_tiny", "dt_tiny", "t_end_negative", "k_3",
        "domain_reversed", "record_every_0", "cfl_0", "dt_negative", "ic_width_0",
        "d0_negative", "g_0", "rrk_tol_0", "rrk_advance_half", "rrk_advance_1",
        "k_3_cfl_negative"])
def test_unrunnable_config_exits_2_before_integrating(tmp_path, capsys, monkeypatch,
                                                      command, overrides, message):
    """Values that parse but break a library rule, alone or together (no
    wave speed, no finite step count), are config errors from every
    experiment, found while the run is built: before any integration and
    before the output directory.  ``converge`` refuses shallow-water, ``dt``
    and other-domain configs by its own rules first."""
    def no_integration(*args, **kwargs):
        raise AssertionError("integrate ran before the setup was checked")

    monkeypatch.setattr(experiment_cli, "integrate", no_integration)
    path = _write_config(tmp_path, **overrides)
    assert main([command[0], path, *command[1:]]) == 2
    err = capsys.readouterr().err
    refusal = _converge_refusal(overrides) if command[0] == "converge" else None
    assert err.startswith(f"config error: {refusal or message}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["energy"], ["bench", "--repeats", "3"]],
                         ids=["energy", "bench"])
@pytest.mark.parametrize("n_cells", [None, 0, -4], ids=["missing", "0", "negative"])
def test_n_cells_is_required_where_it_is_read(tmp_path, capsys, monkeypatch, command, n_cells):
    """``energy`` and ``bench`` refuse a config without a usable ``n_cells``
    with ``build_grid``'s message, before any integration or output."""
    def no_integration(*args, **kwargs):
        raise AssertionError("integrate ran before the size was checked")

    monkeypatch.setattr(experiment_cli, "integrate", no_integration)
    path = _write_config(tmp_path, n_cells=n_cells)
    assert main([command[0], path, *command[1:]]) == 2
    assert capsys.readouterr().err == (
        f"config error: n_cells must be a positive integer, got {n_cells!r}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n_cells", [None, 0, -4], ids=["missing", "0", "negative"])
def test_converge_takes_its_sizes_from_n_only(tmp_path, n_cells):
    """A ``converge`` config needs no ``n_cells``; the study's sizes are
    ``--n``'s, whatever the config holds."""
    path = _write_config(tmp_path, n_cells=n_cells, schemes=["lf"], t_end=0.1)
    assert parse_config(path).n_cells == n_cells
    assert main(["converge", path, "--n", "16,32"]) == 0
    rows = list(csv.DictReader(
        (tmp_path / "out" / "convergence.csv").read_text().splitlines()))
    assert [row["n_cells"] for row in rows] == ["16", "32"]


# What a value mutation puts in place of a key's value, or of one entry of
# a list of numbers.  "huge" holds literals beyond float range: JSON reads
# the first two as infinities and the others as Python ints, the longest
# with more digits than int() accepts.
_MUTATION_VALUES = {
    "type": ["x", True, None, {}, []],
    "nan": [math.nan],
    "zero": [0],
    "huge": ["1e400", "-1e400", "1" + "0" * 400, "1" + "0" * 5000],
}
_SUBCOMMANDS = {"wave_energy": ["energy"], "shallow_water_energy": ["energy"],
                "wave_convergence": ["converge", "--n", "16,32"]}


def _mutate(rng, data):
    """The bytes of one mutant of the config dict ``data``."""
    data = dict(data)
    key = rng.choice(sorted(data))
    kind = rng.choice(["drop", "negative", "nest", "truncate", "non_utf8", *_MUTATION_VALUES])
    huge = rng.choice(_MUTATION_VALUES["huge"])
    if kind == "drop":
        del data[key]
    elif kind == "nest":
        data[key] = rng.choice([[data[key]], {"value": data[key]}])
    elif kind not in ("truncate", "non_utf8"):
        value = data[key]
        numbers = isinstance(value, list) and all(isinstance(x, (int, float)) for x in value)
        i = rng.randrange(len(value)) if numbers else None
        old = value[i] if numbers else value
        if kind == "negative":
            new = -abs(old) if isinstance(old, (int, float)) and old else -1
        elif kind == "huge":
            new = "__HUGE__"
        else:
            new = rng.choice(_MUTATION_VALUES[kind])
        data[key] = value[:i] + [new] + value[i + 1:] if numbers else new
    text = json.dumps(data).encode().replace(b'"__HUGE__"', huge.encode())
    cut = rng.randrange(len(text))
    if kind == "truncate":
        text = text[:cut]
    elif kind == "non_utf8":
        text = text[:cut] + b"\xff\xfe" + text[cut:]
    return text


def test_mutated_shipped_configs_exit_0_2_or_3(tmp_path, capsys, monkeypatch):
    """200 seeded mutations of the shipped configs (a key dropped, a value
    of the wrong type, NaN, negative, zero, beyond float range or nested,
    the file truncated or not UTF-8) each exit 0, 2 or 3 without raising,
    and every exit 2 is a ``config error:`` line.  Energy runs in-process,
    and integrate stops after three steps, so a mutant that passes
    validation costs milliseconds: the edge is under test here, not the
    numerics."""
    real_integrate = experiment_cli.integrate

    def three_steps(system, kind, state0, t_end, dt, **kwargs):
        return real_integrate(system, kind, state0, min(t_end, 3 * dt), dt, **kwargs)

    monkeypatch.setattr(experiment_cli, "integrate", three_steps)
    monkeypatch.setattr(experiment_cli, "_energy_processes", lambda n_schemes: 1)
    monkeypatch.chdir(tmp_path)  # a dropped output_dir defaults to ./results
    rng = random.Random(20261019)
    codes = []
    for i in range(200):
        name = rng.choice(sorted(_SUBCOMMANDS))
        data = json.loads((ROOT / "configs" / f"{name}.json").read_text())
        data["output_dir"] = str(tmp_path / "out" / str(i))
        path = tmp_path / f"mutant_{i}.json"
        path.write_bytes(_mutate(rng, data))
        command = _SUBCOMMANDS[name]
        code = main([command[0], str(path), *command[1:]])
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (path.read_bytes()[:300], err)
        assert code != 2 or err.startswith("config error:"), err
        codes.append(code)
    assert {0, 2} <= set(codes)


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
