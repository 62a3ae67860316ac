#!/usr/bin/env python3
"""The mimkit benchmark: time to result, per-scheme step cost, per-layer traces.

Usage, from the root of a checkout of the repository::

    python3 perfbench/run.py --workload wave_600 --seed 0 --seconds 35 --trace 0

Workloads are defined in ``workloads.py``.  One run is a closed loop with a
single client: measuring tasks run one after another for ``--seconds``,
each taking a fixed share of the time and at least ``MIN_SAMPLES`` turns.
BLAS/OpenMP pools are pinned to one thread.  Every metric is the median of
its samples, and every time is scaled by the machine speed measured around
the sample (``tracing.Calibration``), because other tenants of a shared
machine move all timings together by tens of percent.

With ``--trace 0`` the tasks measure, untraced:

* ``cli_s``: wall time of a fresh ``python -m mimkit energy`` subprocess;
* ``peak_rss_mb``: that subprocess's peak resident memory;
* ``setup_s``: cold grid + operator set + system + initial condition in a
  fresh interpreter, imports excluded (``probe.py``);
* ``step_us.<Scheme>``: warm ``integrate`` wall time per step over the
  workload's first ``sample_steps`` steps at its recording cadence, in the
  same fresh interpreters.

With ``--trace 1`` they measure the per-layer metrics instead: the probe's
split of set-up, operator matvecs and inner products, in-process
``integrate`` runs through ``tracing.RecordingSystem`` (each beside an
untraced run, which gives the tracing overhead), and an in-process
``run_energy_experiment`` whose time outside ``integrate`` is the CSV/JSON
formatting and writing.

Every scheme run is checked.  At seed 0 traces must equal the committed
energy CSVs (CLI output byte for byte); at any seed they must pass the
invariants in ``checks.py`` and repeat exactly.  A failed check counts the
run as failed.  Output goes to a temporary directory under ``.bench_tmp/``
in the checkout, removed at exit.  Standard output lists every metric with
its unit and sample count, then a ``record`` line (environment, sample
counts, unscaled medians, and metrics only some workloads have), and last
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits 2 without a result when mimkit's sources are absent.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads, here and in every child process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import compare_bytes, compare_trace, invariant_problems, read_trace  # noqa: E402
from tracing import SYSTEM_METHODS, Calibration, RecordingSystem, seconds_per_call  # noqa: E402
from workloads import (ALL_SCHEMES, COMMON_SCHEMES, DUMP_OPS_SHA256, FIXED_STEP_4TH, HERE, ROOT,  # noqa: E402
                       WORKLOADS, build_setup, make_config)

SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"
MIN_SAMPLES = 3  # per task, whatever --seconds says
MAX_RUN_SECONDS = 150.0  # start no task past this: a run must end within 180 s
CHILD_TIMEOUT = 25.0  # the longest child takes a few seconds
PROBE_STEP_SECONDS = 2.0  # step-cost sampling in each fresh probe process

END_TO_END = {
    "cli_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    **{f"step_us.{s}": "us" for s in COMMON_SCHEMES},
}

PER_LAYER = {
    "grid_fields.setup_s": "s",
    "mimetic_ops.rational_s": "s",
    "mimetic_ops.assemble_s": "s",
    "mimetic_ops.nnz": "count",
    **{f"mimetic_ops.matvec_us.{op}": "us" for op in ("L", "G", "D_hat", "I_G", "I_D")},
    "mimetic_ops.inner_q_us": "us",
    "mimetic_ops.inner_p_us": "us",
    **{f"hamiltonian_systems.{m}_us": "us" for m in SYSTEM_METHODS if m != "quadratic_parts"},
    "hamiltonian_systems.share": "ratio",
    **{f"integrators.{what}.{s}": unit
       for what, unit in (("self_us", "us"), ("rhs_calls_per_step", "count"),
                          ("energy_calls_per_step", "count"),
                          ("apply_boundary_calls_per_step", "count"))
       for s in COMMON_SCHEMES},
    "integrators.rhs_declared_mismatch": "count",
    "integrators.fixed_step_spread": "ratio",
    "experiment_cli.import_s": "s",
    "experiment_cli.write_s": "s",
    "experiment_cli.bytes_written": "bytes",
    "trace.overhead_frac": "ratio",
}

# Metrics that exist only where a workload runs the scheme or method they
# time; printed and recorded, but not part of the fixed metric set.
EXTRA_UNITS = {
    "time_scale": "ratio",
    "step_us.RRK_analytic": "us",
    "integrators.self_us.RRK_analytic": "us",
    "integrators.rhs_calls_per_step.RRK_analytic": "count",
    "integrators.energy_calls_per_step.RRK_analytic": "count",
    "integrators.apply_boundary_calls_per_step.RRK_analytic": "count",
    "hamiltonian_systems.quadratic_parts_us": "us",
    "integrators.bisection_over_analytic": "ratio",
}
UNITS = {**END_TO_END, **PER_LAYER, **EXTRA_UNITS}
# the probe scales these itself, pass by pass
PRESCALED = {f"step_us.{s}" for s in ALL_SCHEMES}


class Bench:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload, seed: int, tmp: Path):
        import mimkit

        self.mimkit = mimkit
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.cli_out = tmp / "cli_out"
        self.config_path = tmp / "config.json"
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(make_config(workload, seed, str(self.cli_out)), fh, indent=1)
        self.config = mimkit.parse_config(str(self.config_path))
        self.schemes = tuple(workload.timed_schemes)
        self.reference_dir = ROOT / workload.reference_dir
        self.references = {}         # scheme -> (times, energies, n_steps), whole run
        self.sample_references = {}  # scheme -> (times, energies), one timing sample
        self.samples = defaultdict(list)
        self.unscaled = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.grid, self.ops, self.system, self.state0, self.dt = build_setup(self.config)
        self.sample_t_end = workload.sample_steps * self.dt
        self.calibration = Calibration()

    # -- accounting -----------------------------------------------------------

    def account(self, problems, runs=1, failed_runs=None):
        """Count ``runs`` attempted operations, failed ones when problems."""
        self.attempted += runs
        self.failed += (runs if problems else 0) if failed_runs is None else failed_runs
        self.problems.extend(problems)

    # -- children -------------------------------------------------------------

    def run_child(self, args, stdout=subprocess.DEVNULL):
        """(wall seconds, exit code, peak RSS in MB) of one child process."""
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=stdout,
                                stderr=subprocess.DEVNULL, env=self.env, cwd=self.tmp)
        watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def probe(self, seconds=0.0, schemes=()):
        """The output of one fresh ``probe.py``, its step-cost samples
        checked and accounted; None if it failed."""
        out = self.tmp / "probe.json"
        with open(out, "wb") as fh:
            _, code, _ = self.run_child([str(HERE / "probe.py"), str(self.config_path),
                                         str(self.workload.sample_steps), str(seconds),
                                         *schemes], stdout=fh)
        self.account([] if code == 0 else [f"probe exited with code {code}"])
        if code != 0:
            return None
        probe = json.loads(out.read_text())
        for scheme, message in probe["failures"].items():
            self.account([f"probe {scheme}: numerical failure: {message}"])
        for scheme, (times, energies) in probe["first"].items():
            reference = self.sample_references.get(scheme)
            if reference is None:
                problems = [f"probe {scheme}: no reference trace (its first run failed)"]
            else:
                problems = compare_trace(f"probe {scheme}", np.array(times),
                                         np.array(energies), reference)
            # every later run must repeat the first run's trace exactly
            runs = 1 + len(probe["step_s"][scheme])
            differs = probe["differs"][scheme]
            failed_runs = runs if problems else differs
            if differs:
                problems.append(f"probe {scheme}: {differs} runs differ from the first")
            self.account(problems, runs, failed_runs)
        return probe

    def check_dump_ops(self):
        cells = self.workload.dump_ops_cells
        digest = hashlib.sha256()
        out = self.tmp / "dump_ops.txt"
        with open(out, "wb") as fh:
            _, code, _ = self.run_child(["-m", "mimkit", "dump-ops", "--order", "4",
                                         "--cells", str(cells)], stdout=fh)
        with open(out, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        out.unlink()
        problems = []
        if code != 0:
            problems.append(f"dump-ops exited with code {code}")
        elif digest.hexdigest() != DUMP_OPS_SHA256[cells]:
            problems.append(f"dump-ops --order 4 --cells {cells}: sha256 {digest.hexdigest()} "
                            f"!= recorded {DUMP_OPS_SHA256[cells]}")
        self.account(problems)

    # -- scheme runs ----------------------------------------------------------

    def integrate(self, scheme, t_end, system=None):
        """(wall seconds, record), or None after accounting a numerical failure."""
        cfg = self.config
        start = time.perf_counter()
        try:
            record = self.mimkit.integrate(system or self.system, scheme, self.state0, t_end,
                                           self.dt, record_every=cfg.record_every,
                                           rrk_tol=cfg.rrk_tol, rrk_advance=cfg.rrk_advance)
        except self.mimkit.NumericalFailure as exc:
            self.account([f"{scheme}: numerical failure: {exc}"])
            return None
        return time.perf_counter() - start, record

    def timing_sample(self, scheme, system=None):
        """(wall seconds, record) of one checked timing sample; None if it failed."""
        run = self.integrate(scheme, self.sample_t_end, system)
        if run is None:
            return None
        reference = self.sample_references.get(scheme)
        if reference is None:
            problems = [f"{scheme}: no reference trace (its first run failed)"]
        else:
            problems = compare_trace(scheme, run[1].times, run[1].energies, reference)
        self.account(problems)
        return None if problems else run

    def establish_references(self):
        """Run every scheme over the whole workload and over one timing sample.

        Checked, the two traces become the references that CLI output and
        timing samples must match exactly.  A timing sample is the first
        ``sample_steps`` steps of the whole run, so it must reproduce the whole
        run's rows up to its last one (which may fall between recorded rows).
        """
        cfg = self.config
        for scheme in self.schemes:
            run = self.integrate(scheme, cfg.t_end)
            if run is None:
                continue
            whole = run[1]
            problems = invariant_problems(scheme, whole.times, whole.energies, whole.n_steps,
                                          whole.dt, cfg.t_end, cfg.record_every, whole.final_time)
            if self.seed == 0:
                committed = self.reference_dir / f"energy_{scheme}.csv"
                problems += compare_trace(f"{scheme} vs {committed}", whole.times,
                                          whole.energies, read_trace(committed.read_text()))
            self.account(problems)
            if problems:
                continue
            self.references[scheme] = (whole.times, whole.energies, whole.n_steps)
            run = self.integrate(scheme, self.sample_t_end)
            if run is None:
                continue
            part = run[1]
            rows = len(part.times) - 1
            problems = invariant_problems(scheme, part.times, part.energies, part.n_steps,
                                          part.dt, self.sample_t_end, cfg.record_every,
                                          part.final_time)
            problems += compare_trace(f"{scheme} first {part.n_steps} steps", part.times[:rows],
                                      part.energies[:rows],
                                      (whole.times[:rows], whole.energies[:rows]))
            self.account(problems)
            if not problems:
                self.sample_references[scheme] = (part.times, part.energies)

    def check_energy_outputs(self, out_dir: Path, label: str):
        """Check the CSVs and summary.json an energy experiment wrote."""
        try:
            summary = json.loads((out_dir / "summary.json").read_text())["schemes"]
        except (OSError, ValueError, KeyError):
            summary = {}
        for kind in self.config.schemes:
            scheme = kind.value
            path = out_dir / f"energy_{scheme}.csv"
            reference = self.references.get(scheme)
            if not path.is_file() or summary.get(scheme, {}).get("status") != "ok":
                problems = [f"{label} {scheme}: no energy CSV or status ok in summary.json"]
            elif reference is None:
                problems = [f"{label} {scheme}: no reference trace (its first run failed)"]
            else:
                problems = []
                if self.seed == 0:
                    problems += compare_bytes(path, self.reference_dir / path.name)
                times, energies = read_trace(path.read_text())
                problems += compare_trace(f"{label} {scheme}", times, energies, reference[:2])
                if summary[scheme].get("n_steps") != reference[2]:
                    problems.append(f"{label} {scheme}: summary n_steps "
                                    f"{summary[scheme].get('n_steps')} != {reference[2]}")
            self.account(problems)

    def cli_energy(self):
        shutil.rmtree(self.cli_out, ignore_errors=True)
        wall, code, rss_mb = self.run_child(["-m", "mimkit", "energy", str(self.config_path)])
        if code != 0:
            self.problems.append(f"mimkit energy exited with code {code}")
        self.check_energy_outputs(self.cli_out, "cli")
        return wall, rss_mb

    # -- measuring ------------------------------------------------------------

    def run(self, seconds: float, trace: bool) -> int:
        """Check, warm up, then measure for ``seconds``; returns the task count."""
        start = time.perf_counter()
        # a first child compiles src/ to bytecode, as an installed package would be
        self.run_child(["-c", "import mimkit"])
        if self.seed == 0 and self.workload.dump_ops_cells:
            self.check_dump_ops()
        self.establish_references()
        tasks = self.trace_tasks() if trace else self.e2e_tasks()
        spent = [0.0] * len(tasks)
        done = [0] * len(tasks)
        loop_start = time.perf_counter()
        speed_before = self.calibration.seconds()
        while True:
            # run the task furthest behind its share of the time, so every
            # metric's samples spread over the whole run
            i = min(range(len(tasks)), key=lambda j: spent[j] / tasks[j][0])
            expected = spent[i] / done[i] if done[i] else 0.0
            now = time.perf_counter()
            if min(done) >= MIN_SAMPLES and now - loop_start + expected > seconds:
                break
            if now - start + expected > MAX_RUN_SECONDS:
                break
            counts = {name: len(values) for name, values in self.samples.items()}
            tasks[i][1]()
            spent[i] += time.perf_counter() - now
            done[i] += 1
            # scale the task's times by the machine speed measured around it
            speed_after = self.calibration.seconds()
            scale = Calibration.NOMINAL_S / (0.5 * (speed_before + speed_after))
            speed_before = speed_after
            for name, values in self.samples.items():
                if UNITS[name] in ("s", "us") and name not in PRESCALED:
                    new = values[counts.get(name, 0):]
                    self.unscaled[name].extend(new)
                    values[counts.get(name, 0):] = [v * scale for v in new]
            self.samples["time_scale"].append(scale)
        return sum(done)

    def e2e_tasks(self):
        return [(0.5, self.sample_probe), (0.5, self.sample_cli)]

    def trace_tasks(self):
        return [(0.25, self.trace_probe), (0.1, self.trace_operators),
                (0.5, self.trace_integrate), (0.15, self.trace_writes)]

    def sample_probe(self):
        probe = self.probe(PROBE_STEP_SECONDS, self.schemes)
        if probe:
            self.samples["setup_s"].append(probe["setup_s"])
            for scheme, values in probe["step_s"].items():
                self.samples[f"step_us.{scheme}"].extend(v * 1e6 for v in values)

    def sample_cli(self):
        wall, rss_mb = self.cli_energy()
        self.samples["cli_s"].append(wall)
        self.samples["peak_rss_mb"].append(rss_mb)

    def trace_probe(self):
        s = self.samples
        probe = self.probe()
        if not probe:
            return
        s["experiment_cli.import_s"].append(probe["import_s"])
        s["grid_fields.setup_s"].append(probe["grid_s"])
        s["mimetic_ops.assemble_s"].append(probe["assemble_s"])
        s["mimetic_ops.rational_s"].append(probe["ops_cold_s"] - probe["assemble_s"])
        s["mimetic_ops.nnz"].append(probe["nnz"])

    def trace_operators(self):
        ops = self.ops
        ext, node = self.state0[0], self.ops.I_G @ self.state0[0]
        for name, x in (("L", ext), ("G", ext), ("D_hat", node), ("I_G", ext), ("I_D", node)):
            matrix = getattr(ops, name)
            self.samples[f"mimetic_ops.matvec_us.{name}"].append(
                seconds_per_call(matrix.__matmul__, x) * 1e6)
        self.samples["mimetic_ops.inner_q_us"].append(
            seconds_per_call(ops.inner_q, ext, ext) * 1e6)
        self.samples["mimetic_ops.inner_p_us"].append(
            seconds_per_call(ops.inner_p, node, node) * 1e6)

    def trace_integrate(self):
        s = self.samples
        calls = dict.fromkeys(SYSTEM_METHODS, 0)
        seconds = dict.fromkeys(SYSTEM_METHODS, 0.0)
        untraced_total = traced_total = 0.0
        step_us = {}
        mismatch = 0
        traced_first = len(s["trace.overhead_frac"]) % 2  # alternate which runs first
        for scheme in self.schemes:
            proxy = RecordingSystem(self.system)
            if traced_first:
                traced = self.timing_sample(scheme, proxy)
                plain = self.timing_sample(scheme)
            else:
                plain = self.timing_sample(scheme)
                traced = self.timing_sample(scheme, proxy)
            if not (plain and traced):
                continue
            (plain_wall, _), (wall, record) = plain, traced
            n = record.n_steps
            step_us[scheme] = plain_wall / n * 1e6
            untraced_total += plain_wall
            traced_total += wall
            for name in SYSTEM_METHODS:
                calls[name] += proxy.calls[name]
                seconds[name] += proxy.seconds[name]
            s[f"integrators.self_us.{scheme}"].append((wall - proxy.system_seconds) / n * 1e6)
            s[f"integrators.rhs_calls_per_step.{scheme}"].append(proxy.force_evals / n)
            s[f"integrators.energy_calls_per_step.{scheme}"].append(proxy.calls["energy"] / n)
            s[f"integrators.apply_boundary_calls_per_step.{scheme}"].append(
                proxy.calls["apply_boundary"] / n)
            declared = self.mimkit.normalize_scheme(scheme).rhs_evals_per_step
            mismatch += proxy.force_evals != n * declared
        if not traced_total:
            return
        for name in SYSTEM_METHODS:
            if calls[name]:
                s[f"hamiltonian_systems.{name}_us"].append(seconds[name] / calls[name] * 1e6)
        s["hamiltonian_systems.share"].append(sum(seconds.values()) / traced_total)
        s["integrators.rhs_declared_mismatch"].append(mismatch)
        s["trace.overhead_frac"].append(traced_total / untraced_total - 1.0)
        fixed = [step_us[x] for x in FIXED_STEP_4TH if x in step_us]
        if fixed:
            s["integrators.fixed_step_spread"].append(max(fixed) / min(fixed))
        if "RRK_bisection" in step_us and "RRK_analytic" in step_us:
            s["integrators.bisection_over_analytic"].append(
                step_us["RRK_bisection"] / step_us["RRK_analytic"])

    def trace_writes(self):
        """Time run_energy_experiment outside integrate: formatting and writes."""
        cli = sys.modules["mimkit.experiment_cli"]
        out_dir = self.tmp / "inproc_out"
        shutil.rmtree(out_dir, ignore_errors=True)
        config = dataclasses.replace(self.config, output_dir=str(out_dir))
        real_integrate, inside = cli.integrate, [0.0]

        def timed_integrate(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return real_integrate(*args, **kwargs)
            finally:
                inside[0] += time.perf_counter() - t0

        cli.integrate = timed_integrate
        try:
            t0 = time.perf_counter()
            cli.run_energy_experiment(config)
            total = time.perf_counter() - t0
        finally:
            cli.integrate = real_integrate
        self.check_energy_outputs(out_dir, "run_energy_experiment")
        self.samples["experiment_cli.write_s"].append(total - inside[0])
        self.samples["experiment_cli.bytes_written"].append(
            sum(p.stat().st_size for p in out_dir.iterdir()))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mimkit" / "__init__.py").is_file():
        print(f"error: mimkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mimkit

    if Path(mimkit.__file__).resolve().parent != (SRC / "mimkit").resolve():
        print(f"error: imported mimkit from {mimkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, tmp)
        tasks = bench.run(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    reported = PER_LAYER if args.trace else END_TO_END
    medians = {name: statistics.median(values) for name, values in bench.samples.items()}
    missing = sorted(set(reported) - set(medians))
    for problem in bench.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name in missing:
        print(f"no sample for {name}", file=sys.stderr)

    if not args.trace:
        # criterion 7a and 7b of the paper: reported, never gated on
        step = {s: medians.get(f"step_us.{s}") for s in ALL_SCHEMES}
        fixed = [step[s] for s in FIXED_STEP_4TH if step[s]]
        if fixed:
            medians["integrators.fixed_step_spread"] = max(fixed) / min(fixed)
        if step["RRK_analytic"] and step["RRK_bisection"]:
            medians["integrators.bisection_over_analytic"] = (
                step["RRK_bisection"] / step["RRK_analytic"])
    for name, value in medians.items():
        n = len(bench.samples.get(name, ()))
        print(f"{name:<58} {value:>14.6g} {UNITS[name]:<6} "
              f"({f'median of {n}' if n else 'from the step_us medians'})")
    failed_frac = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"{'failed_frac':<58} {failed_frac:>14.6g} ratio  ({bench.failed} of "
          f"{bench.attempted} scheme runs and checks)")
    print("record " + json.dumps({
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "tasks": tasks, "environment": environment(args.seed),
        "samples": {name: len(values) for name, values in bench.samples.items()},
        "medians": medians, "failed_frac": failed_frac,
        "unscaled_medians": {name: statistics.median(v) for name, v in bench.unscaled.items()},
    }))
    print(json.dumps({
        "correct": bench.failed == 0 and not bench.problems and not missing,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed if bench.attempted else 1,
        "metrics": {name: {"value": medians[name], "unit": unit}
                    for name, unit in reported.items() if name in medians},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
