"""Command-line experiment driver.

Subcommands:

* ``energy <config>`` — integrate the configured problem with every
  configured scheme; write one CSV per scheme (``energy_<Scheme>.csv``,
  header ``t,H,rel_drift`` plus a ``gamma`` column for relaxation schemes)
  and a combined ``summary.json``.  The schemes run side by side in up to
  one process per usable CPU, this one and forked children (``"processes"``
  in the summary), or in-process where there is one CPU or no fork; the
  outputs are identical either way, and each scheme's ``wall_seconds`` is
  its time in its own process.
* ``converge <config> --n 16,32,64,128`` — standing-wave convergence study
  on [0, 1]; writes ``convergence.csv`` with observed orders.
* ``bench <config> --repeats 5`` — timing benchmark, strictly sequential
  in one process (repeats interleaved across schemes); writes
  ``timing.csv`` with median wall time and per-evaluation cost.
* ``dump-ops --order k --cells N [--domain a,b]`` — print every operator as
  ``row col value`` triples for debugging/diffing.

Exit codes: 0 success, 2 configuration error, 3 numerical failure (with
scheme/step diagnostics on stderr).  ``parse_config`` type-checks a config;
each experiment then builds its runs, where the library checks each value it
reads, and creates its ``output_dir``, before any integration.  A refused
value and a directory that cannot be created are configuration errors.

Configs are flat JSON objects (no nesting) whose keys are the fields of
``ExperimentConfig``, one per setting; any other key is an error.  A
``converge`` config needs no ``n_cells`` (its sizes come from ``--n``), and
``d0``/``g`` are read by shallow water only.

CSV numbers are written with 17 significant digits so identical runs produce
byte-identical CSVs and round-trip exactly; ``summary.json`` is written by
``json.dumps`` (shortest round-tripping floats).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pickle
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, NumericalFailure
from .grid_fields import build_grid
from .hamiltonian_systems import (
    ShallowWaterSystem,
    WaveSystem,
    gaussian_ic,
    shallow_water_ic,
    wave_standing_exact,
)
from .integrators import SchemeKind, _check_run, cfl_dt, integrate, normalize_scheme
from .mimetic_ops import build_operator_set, dump_operator

__all__ = [
    "ExperimentConfig",
    "ConvergenceRow",
    "DRIFT_THRESHOLD",
    "parse_config",
    "run_energy_experiment",
    "run_convergence_study",
    "run_timing_benchmark",
    "main",
]

# built-in relative-drift threshold reported in summaries
DRIFT_THRESHOLD = 1e-3

_ALL_SCHEMES = tuple(SchemeKind)

_PROBLEM_IC_DEFAULTS = {
    "wave": {"ic_center": 0.5, "ic_width": 0.1, "ic_amplitude": 1.0, "ic_offset": 0.0},
    "shallow_water": {"ic_center": 0.0, "ic_width": 1.0, "ic_amplitude": 0.1, "ic_offset": 1.0},
}

@dataclass(frozen=True)
class ExperimentConfig:
    """Type-checked, fully-defaulted experiment description (deterministic:
    no seeds anywhere).  Its fields are the config keys, in the order
    ``summary.json`` echoes them; ``parse_config`` sets every one."""

    problem: str
    domain: Tuple[float, float]
    n_cells: Optional[int]
    k: int
    schemes: Tuple[SchemeKind, ...]
    cfl: Optional[float]
    dt: Optional[float]
    t_end: float
    record_every: int
    ic_center: float
    ic_width: float
    ic_amplitude: float
    ic_offset: float
    d0: float
    g: float
    output_dir: str
    rrk_tol: float
    rrk_advance: str


_KNOWN_KEYS = {field.name for field in fields(ExperimentConfig)}


@dataclass(frozen=True)
class ConvergenceRow:
    """One refinement of the convergence table; observed_order is None on
    the first row of each scheme."""

    scheme: SchemeKind
    n_cells: int
    h: float
    error: float
    observed_order: Optional[float]
    rhs_evals: int


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _is_finite_number(x) -> bool:
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an int literal beyond float range
        return False


def _number(raw: dict, key: str, default) -> float:
    value = raw.get(key, default)
    _require(_is_finite_number(value),
             f"config key '{key}' must be a finite number, got {value!r}")
    return float(value)


def _integer(raw: dict, key: str, default) -> int:
    value = raw.get(key, default)
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"config key '{key}' must be an integer, got {value!r}")
    return value


def parse_config(path: str) -> ExperimentConfig:
    """Load a flat JSON config and type-check it, naming the key at fault.
    Beyond keys and types it checks only ``problem``, the scheme names,
    ``cfl``/``dt``, the wave's ``ic_offset`` and ``output_dir``; the library
    checks every value it reads when a run is built (``_build_setup``)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except (OSError, ValueError, RecursionError) as exc:
        # unreadable, not UTF-8, nested too deeply for the parser, or an
        # integer literal with more digits than int() accepts
        raise ConfigError(f"{path}: cannot read config: {exc}") from None
    _require(isinstance(raw, dict), f"{path}: config must be a flat JSON object")

    unknown = sorted(set(raw) - _KNOWN_KEYS)
    _require(not unknown, f"{path}: unknown config key(s): {', '.join(unknown)}")

    _require("problem" in raw, f"{path}: missing required key 'problem'")
    problem = raw["problem"]
    _require(isinstance(problem, str) and problem in _PROBLEM_IC_DEFAULTS,
             f"config key 'problem' must be 'wave' or 'shallow_water', got {problem!r}")

    n_cells = _integer(raw, "n_cells", None) if "n_cells" in raw else None

    _require("t_end" in raw, f"{path}: missing required key 't_end'")
    t_end = _number(raw, "t_end", None)

    k = _integer(raw, "k", 4)

    domain = raw.get("domain", [-30.0, 30.0])
    _require(isinstance(domain, (list, tuple)) and len(domain) == 2
             and all(map(_is_finite_number, domain)),
             f"config key 'domain' must be a list of two finite numbers [a, b], got {domain!r}")

    schemes_raw = raw.get("schemes", [kind.value for kind in _ALL_SCHEMES])
    _require(isinstance(schemes_raw, list) and schemes_raw,
             "config key 'schemes' must be a non-empty list of scheme names")
    schemes = []
    for name in schemes_raw:
        try:
            schemes.append(normalize_scheme(name))
        except ValueError as exc:
            raise ConfigError(f"config key 'schemes': {exc}") from None
        _require(schemes.count(schemes[-1]) == 1,
                 f"config key 'schemes' lists {schemes[-1].value} twice (as {name!r})")

    _require(not ("cfl" in raw and "dt" in raw),
             "config keys 'cfl' and 'dt' are mutually exclusive; set exactly one")
    dt = _number(raw, "dt", None) if "dt" in raw else None
    cfl = None if "dt" in raw else _number(raw, "cfl", 0.5)

    record_every = _integer(raw, "record_every", 1)

    ic = {key: _number(raw, key, default) for key, default in _PROBLEM_IC_DEFAULTS[problem].items()}
    _require(problem != "wave" or ic["ic_offset"] == 0.0,
             "config key 'ic_offset' must be 0 for the wave problem (Dirichlet boundaries)")

    d0 = _number(raw, "d0", 1.0)
    g = _number(raw, "g", 1.0)

    output_dir = raw.get("output_dir", "results")
    _require(isinstance(output_dir, str) and output_dir,
             f"config key 'output_dir' must be a non-empty string, got {output_dir!r}")

    return ExperimentConfig(
        problem=problem, domain=(float(domain[0]), float(domain[1])), n_cells=n_cells, k=k,
        schemes=tuple(schemes), cfl=cfl, dt=dt, t_end=t_end, record_every=record_every, **ic,
        d0=d0, g=g, output_dir=output_dir, rrk_tol=_number(raw, "rrk_tol", 1e-12),
        rrk_advance=raw.get("rrk_advance", "gamma_dt"),  # integrate checks the name
    )


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _csv(header: Sequence[str], rows) -> str:
    """CSV text, one line per row after the header.  A cell is a float
    (numpy's too) with 17 significant digits (round-trip exact), empty for
    None, or a name or an int as it is."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join([format(float(x), ".17g") if isinstance(x, float)
                               else "" if x is None else str(x) for x in row]))
    return "\n".join(lines) + "\n"


def _make_output_dir(config: ExperimentConfig):
    try:
        os.makedirs(config.output_dir, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise ConfigError(
            f"config key 'output_dir': cannot create {config.output_dir!r}: {exc}") from None


def _write(config: ExperimentConfig, name: str, text: str) -> str:
    """Write ``text`` to ``<output_dir>/<name>``; returns the path."""
    path = os.path.join(config.output_dir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def _config_echo(config: ExperimentConfig) -> dict:
    """Every config field but ``output_dir``, in field order, as JSON holds
    it: the domain as a list, the schemes by name."""
    echo = {field.name: getattr(config, field.name) for field in fields(config)
            if field.name != "output_dir"}
    echo["domain"] = list(config.domain)
    echo["schemes"] = [kind.value for kind in config.schemes]
    return echo


# ---------------------------------------------------------------------------
# experiment setup
# ---------------------------------------------------------------------------

@contextmanager
def _library_rules():
    """A ValueError or MemoryError while a run is built is a ConfigError."""
    try:
        yield
    except (ValueError, MemoryError) as exc:
        raise ConfigError(str(exc)) from None


@_library_rules()
def _build_setup(config: ExperimentConfig):
    """(grid, system, state0-arrays, dt) for a config, under every rule of a run."""
    ops = build_operator_set(config.k, build_grid(*config.domain, config.n_cells))
    if config.problem == "wave":
        state = gaussian_ic(ops.grid, center=config.ic_center, width=config.ic_width,
                            amplitude=config.ic_amplitude)
        system = WaveSystem(ops)
    else:
        state = shallow_water_ic(ops.grid, offset=config.ic_offset, amplitude=config.ic_amplitude,
                                 center=config.ic_center, width=config.ic_width)
        system = ShallowWaterSystem(ops, d0=config.d0, g=config.g)
    dt = config.dt if config.dt is not None else cfl_dt(ops.grid, config.cfl, system.wave_speed)
    _check_run(config.t_end, dt, config.record_every, config.rrk_tol, config.rrk_advance)
    return ops.grid, system, state.arrays(), dt


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _energy_run(config: ExperimentConfig, system, state0, dt: float,
                kind: SchemeKind) -> Tuple[dict, Optional[str]]:
    """One scheme of an energy experiment on the setup ``_build_setup`` made
    from ``config``: integrate, then write its CSV (``rel_drift`` is
    (H - H0) / |H0|, or H - H0 when H0 = 0).  Returns (summary entry, CSV
    path), or (failure entry, None) when the scheme fails numerically."""
    try:
        record = integrate(system, kind, state0, config.t_end, dt,
                           record_every=config.record_every,
                           rrk_tol=config.rrk_tol, rrk_advance=config.rrk_advance)
    except NumericalFailure as exc:
        return {
            "status": "failed",
            "error": str(exc),
            "scheme": exc.scheme,
            "step": exc.step,
            "t": exc.t,
            "within_drift_threshold": False,
        }, None
    h0 = float(record.energies[0])
    rel = (record.energies - h0) / (abs(h0) if h0 != 0.0 else 1.0)
    header = ["t", "H", "rel_drift"]
    # as Python floats, which format faster than numpy scalars
    columns = [record.times.tolist(), record.energies.tolist(), rel.tolist()]
    if record.gammas is not None:  # the row at step s > 0 has gammas[s - 1]
        header.append("gamma")
        columns.append([None, *record.gammas[record.steps[1:] - 1].tolist()])
    path = _write(config, f"energy_{kind.value}.csv", _csv(header, zip(*columns)))
    drift = np.abs(rel)
    summary = {
        "status": "ok",
        "final_time": record.final_time,
        "initial_energy": h0,
        "final_energy": float(record.energies[-1]),
        "max_rel_drift": float(np.max(drift)),
        "final_rel_drift": float(drift[-1]),
        "wall_seconds": record.wall_seconds,
        "rhs_evals": record.rhs_evals,
        "n_steps": record.n_steps,
        "dt": record.dt,
        "within_drift_threshold": bool(np.max(drift) <= DRIFT_THRESHOLD),
    }
    if record.gammas is not None and len(record.gammas):
        summary["gamma_min"] = float(np.min(record.gammas))
        summary["gamma_max"] = float(np.max(record.gammas))
    return summary, path


def _start_on_own_cpu(lane: int) -> None:
    """Move this process onto the ``lane``-th usable CPU, then let it run on
    any usable CPU again: a forked child starts on its parent's CPU, where
    the scheduler can leave it for hundreds of milliseconds."""
    if hasattr(os, "sched_setaffinity"):
        usable = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {sorted(usable)[lane % len(usable)]})
        os.sched_setaffinity(0, usable)


def _run_in_lanes(run, kinds: Sequence[SchemeKind], processes: int) -> dict:
    """{kind: run(kind)} from this process and up to ``processes`` - 1 forked
    children, each claiming the next index from a pipe (a 1-byte read is
    atomic) until it is empty or a run raises.  A child pickles its (index,
    result or exception) pairs into its own pipe and exits; every exit
    path empties the task pipe, then waits for every child."""
    def claim():
        done = []
        while index := os.read(tasks, 1):
            try:
                done.append((index[0], run(kinds[index[0]])))
            except Exception as exc:
                return done + [(index[0], exc)]
        return done

    tasks, feed = os.pipe()
    os.write(feed, bytes(range(len(kinds))))
    os.close(feed)
    children, replies = {}, []
    try:
        for lane in range(1, min(processes, len(kinds))):
            reply, send = os.pipe()
            if (pid := os.fork()) == 0:  # the child never leaves this block
                try:
                    _start_on_own_cpu(lane)
                    with open(send, "wb") as out:
                        out.write(pickle.dumps(claim()))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(send)
            children[pid] = reply
        _start_on_own_cpu(0)
        results = dict(claim())
    finally:
        while os.read(tasks, 256):  # no process claims another scheme
            pass
        os.close(tasks)
        for pid, reply in children.items():
            with open(reply, "rb") as fh:
                replies.append((fh.read(), os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])))
    for data, code in replies:
        results.update(pickle.loads(data) if code == 0 else ())
    for i in range(len(kinds)):
        if isinstance(results.get(i), Exception):
            raise results[i]
    if lost := [kind.value for i, kind in enumerate(kinds) if i not in results]:
        code = next(code for _, code in replies if code)
        raise ChildProcessError(f"a child process exited with status {code} before sending "
                                f"its results; no result for {', '.join(lost)}")
    return {kind: results[i] for i, kind in enumerate(kinds)}


def run_energy_experiment(config: ExperimentConfig, processes: int = 1) -> dict:
    """Integrate every configured scheme; write per-scheme energy CSVs and a
    combined summary.json.  A scheme that fails numerically is recorded in
    the summary and does not stop the others.  Returns the summary dict
    (with the written file paths under "files").

    With ``processes`` = 1 every scheme runs in this process, one after
    another.  With ``processes`` > 1 (``os.fork`` must exist) this process
    and up to ``processes`` - 1 forked children each take the next scheme
    as they become free; they share the setup built here, and each starts
    on its own usable CPU where the platform can set CPU affinity.  The
    outputs are identical either way, apart from each scheme's
    ``wall_seconds``, its time in its own process; ``processes`` is
    recorded in the summary.  A scheme's exception in a child is raised
    here, a child that exits without sending its results raises
    ``ChildProcessError``, and no child outlives the call.

    The schemes start longest first: RRK_bisection, then the others by
    force evaluations per step, ties in config order.  The summary lists
    the schemes and their files in config order.
    """
    if processes < 1:
        raise ValueError(f"processes must be >= 1, got {processes!r}")
    _, system, state0, dt = _build_setup(config)
    _make_output_dir(config)

    # An RRK_bisection step makes about 43 energy evaluations, any other
    # scheme's at most 5 force evaluations.
    first = sorted(config.schemes, key=lambda kind: (kind is not SchemeKind.RRK_BISECTION,
                                                     -kind.rhs_evals_per_step))
    run = partial(_energy_run, config, system, state0, dt)
    results = (dict(zip(first, map(run, first))) if processes == 1
               else _run_in_lanes(run, first, processes))

    scheme_summaries: Dict[str, dict] = {}
    files: List[str] = []
    failures: List[str] = []
    for kind in config.schemes:
        entry, path = results[kind]
        scheme_summaries[kind.value] = entry
        if path is None:
            failures.append(f"{kind.value}: {entry['error']}")
        else:
            files.append(path)

    summary = {
        "experiment": "energy",
        "drift_threshold": DRIFT_THRESHOLD,
        "config": _config_echo(config),
        "dt": dt,
        "processes": processes,
        "schemes": scheme_summaries,
        "files": files,
        "failures": failures,
    }
    summary["summary_path"] = _write(config, "summary.json", json.dumps(summary, indent=2) + "\n")
    return summary


def run_convergence_study(
    config: ExperimentConfig, refinements: Sequence[int]
) -> Tuple[List[ConvergenceRow], List[str]]:
    """Standing-wave convergence study: for each scheme and each n_cells,
    integrate u(x,0) = sin(pi x), v = 0 on [0, 1] to t_end and compare with
    sin(pi x) cos(pi t) at the run's true final time.  dt is tied to h via
    the CFL number so temporal and spatial errors refine together.  Writes
    convergence.csv and returns (rows, failures); a scheme that aborts with
    a NumericalFailure contributes no rows and one failure string."""
    _require(config.problem == "wave",
             "convergence study requires problem = 'wave' (closed-form reference)")
    _require(abs(config.domain[0]) < 1e-12 and abs(config.domain[1] - 1.0) < 1e-12,
             f"convergence study requires domain [0, 1], got {list(config.domain)}")
    _require(config.dt is None,
             "convergence study requires the cfl key (dt must refine with h)")
    refinements = list(refinements)
    _require(len(refinements) >= 2, "convergence study requires at least 2 refinements")
    _require(sorted(set(refinements)) == refinements,
             f"refinements must be strictly increasing, got {refinements}")
    setups = [_build_setup(replace(config, domain=(0.0, 1.0), n_cells=n)) for n in refinements]
    _make_output_dir(config)

    rows: List[ConvergenceRow] = []
    failures: List[str] = []
    for kind in config.schemes:
        prev: Optional[ConvergenceRow] = None
        scheme_rows: List[ConvergenceRow] = []
        try:
            for grid, system, _, dt in setups:
                x = grid.extended
                state0 = (wave_standing_exact(x, 0.0), np.zeros_like(x))
                record = integrate(system, kind, state0, config.t_end, dt,
                                   record_every=10**9,  # record only t = 0 and the last step
                                   rrk_tol=config.rrk_tol, rrk_advance=config.rrk_advance)
                u_num = record.final_state[0]
                u_ref = wave_standing_exact(x, record.final_time)
                error = float(np.max(np.abs(u_num - u_ref)))
                order = None
                if prev is not None and error > 0 and prev.error > 0:
                    order = math.log(prev.error / error) / math.log(prev.h / grid.h)
                row = ConvergenceRow(scheme=kind, n_cells=grid.n_cells, h=grid.h, error=error,
                                     observed_order=order, rhs_evals=record.rhs_evals)
                scheme_rows.append(row)
                prev = row
        except NumericalFailure as exc:
            # A scheme that cannot complete the study is reported on stderr
            # and omitted from the table; the others still produce rows.
            failures.append(f"{kind.value}: n_cells = {grid.n_cells}: {exc}")
            continue
        rows.extend(scheme_rows)

    _write(config, "convergence.csv", _csv(
        [field.name for field in fields(ConvergenceRow)],
        [(row.scheme.value, row.n_cells, row.h, row.error, row.observed_order, row.rhs_evals)
         for row in rows]))
    return rows, failures


def run_timing_benchmark(config: ExperimentConfig, repeats: int) -> List[dict]:
    """Median-of-repeats wall-clock benchmark over the configured schemes on
    one identical physical setup; strictly sequential.  Writes timing.csv and
    returns the per-scheme rows.

    Repeats are interleaved (each round runs every scheme once), so a
    slowdown of the machine lasting a fraction of a second costs each scheme
    at most a sample or two instead of shifting one scheme's median; the
    cyclic garbage collector is paused while timing, as ``timeit`` does.
    """
    _require(isinstance(repeats, int) and repeats >= 3,
             f"bench requires repeats >= 3, got {repeats!r}")
    grid, system, state0, dt = _build_setup(config)
    _make_output_dir(config)

    walls: List[List[float]] = [[] for _ in config.schemes]
    rhs_evals: List[int] = [0] * len(config.schemes)
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            for i, kind in enumerate(config.schemes):
                record = integrate(system, kind, state0, config.t_end, dt,
                                   record_every=config.record_every,
                                   rrk_tol=config.rrk_tol, rrk_advance=config.rrk_advance)
                walls[i].append(record.wall_seconds)
                rhs_evals[i] = record.rhs_evals
    finally:
        if gc_was_enabled:
            gc.enable()

    rows: List[dict] = []
    for kind, scheme_walls, evals in zip(config.schemes, walls, rhs_evals):
        median = statistics.median(scheme_walls)
        rows.append({
            "scheme": kind.value,
            "median_seconds": median,
            "rhs_evals": evals,
            "seconds_per_rhs": median / evals if evals else float("nan"),
        })

    _write(config, "timing.csv", _csv(list(rows[0]), [row.values() for row in rows]))
    return rows


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------

def _parse_cells_list(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"--n expects a comma-separated integer list, got {text!r}") from None


def _parse_domain(text: str) -> Tuple[float, float]:
    try:
        a, b = map(float, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two numbers a,b, got {text!r}") from None
    return a, b


def _energy_processes(n_schemes: int) -> int:
    """Processes for ``energy``: one per usable CPU, at most one per scheme;
    1 where only one CPU is usable or fork is unavailable."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, n_schemes) if hasattr(os, "fork") else 1


def _report(failures: Sequence[str]) -> int:
    """Print each numerical failure on stderr; exit code 3 if any, else 0."""
    for failure in failures:
        print(f"numerical failure: {failure}", file=sys.stderr)
    return 3 if failures else 0


def _cmd_energy(args) -> int:
    config = parse_config(args.config)
    summary = run_energy_experiment(config, _energy_processes(len(config.schemes)))
    for path in summary["files"]:
        print(f"wrote {path}")
    print(f"wrote {summary['summary_path']}")
    return _report(summary["failures"])


def _cmd_converge(args) -> int:
    config = parse_config(args.config)
    rows, failures = run_convergence_study(config, _parse_cells_list(args.n))
    print(f"wrote {os.path.join(config.output_dir, 'convergence.csv')} ({len(rows)} rows)")
    return _report(failures)


def _cmd_bench(args) -> int:
    config = parse_config(args.config)
    rows = run_timing_benchmark(config, args.repeats)
    print(f"wrote {os.path.join(config.output_dir, 'timing.csv')} ({len(rows)} schemes)")
    return 0


def _cmd_dump_ops(args) -> int:
    with _library_rules():  # dict() converts every operator here, under the rules
        kernels = dict(build_operator_set(args.order, build_grid(*args.domain, args.cells)).kernels)
    for name, kernel in kernels.items():
        rows, cols = kernel.shape
        sys.stdout.write(f"# operator {name} ({rows}x{cols})\n")
        sys.stdout.write(dump_operator(kernel))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimkit",
        description="Mimetic-operator energy, convergence, and timing experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_energy = sub.add_parser("energy", help="per-scheme energy traces + summary.json")
    p_energy.add_argument("config")
    p_energy.set_defaults(func=_cmd_energy)

    p_conv = sub.add_parser("converge", help="standing-wave convergence table")
    p_conv.add_argument("config")
    p_conv.add_argument("--n", default="16,32,64,128",
                        help="comma-separated n_cells refinements (default 16,32,64,128)")
    p_conv.set_defaults(func=_cmd_converge)

    p_bench = sub.add_parser("bench", help="median wall-clock timing per scheme")
    p_bench.add_argument("config")
    p_bench.add_argument("--repeats", type=int, default=5)
    p_bench.set_defaults(func=_cmd_bench)

    p_dump = sub.add_parser("dump-ops", help="print operators as 'row col value' triples")
    p_dump.add_argument("--order", type=int, required=True)
    p_dump.add_argument("--cells", type=int, required=True)
    p_dump.add_argument("--domain", type=_parse_domain, default=(0.0, 1.0),
                        help="a,b (default 0,1)")
    p_dump.set_defaults(func=_cmd_dump_ops)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        return _report([f"{exc.scheme}: {exc}" if exc.scheme else str(exc)])


if __name__ == "__main__":
    sys.exit(main())
