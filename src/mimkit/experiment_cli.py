"""Command-line experiment driver.

Subcommands:

* ``energy <config>`` — integrate the configured problem with every
  configured scheme; write one CSV per scheme (``energy_<Scheme>.csv``,
  header ``t,H,rel_drift`` plus a ``gamma`` column for relaxation schemes)
  and a combined ``summary.json``.  The schemes run side by side in up to
  one forked worker process per usable CPU (``"processes"`` in the
  summary), or in-process where there is one CPU or no fork; the outputs
  are identical either way, and each scheme's ``wall_seconds`` is its time
  in its own process.
* ``converge <config> --n 16,32,64,128`` — standing-wave convergence study
  on [0, 1]; writes ``convergence.csv`` with observed orders.
* ``bench <config> --repeats 5`` — timing benchmark, strictly sequential
  in one process (repeats interleaved across schemes); writes
  ``timing.csv`` with median wall time and per-evaluation cost.
* ``dump-ops --order k --cells N [--domain a,b]`` — print every operator as
  ``row col value`` triples for debugging/diffing.

Exit codes: 0 success, 2 configuration error, 3 numerical failure (with
scheme/step diagnostics on stderr).

Configs are flat JSON objects (no nesting).  Keys: ``problem`` (wave |
shallow_water), ``domain`` ([a, b], default [-30, 30]), ``n_cells``,
``k`` (2 or 4, default 4), ``schemes`` (list without repeats, default:
all), exactly one of ``cfl`` (default 0.5) / ``dt``, ``t_end``,
``record_every`` (default 1), IC parameters
``ic_center``/``ic_width``/``ic_amplitude``/``ic_offset`` (defaults depend
on the problem), ``d0``, ``g``, ``output_dir`` (default "results"),
``rrk_tol`` (default 1e-12), ``rrk_advance`` ("gamma_dt" | "plain_dt").
Each setting has exactly one key; any other key is an error.

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
import statistics
import sys
from dataclasses import dataclass, fields
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
from .integrators import (
    RunRecord,
    SchemeKind,
    cfl_dt,
    integrate,
    normalize_scheme,
)
from .mimetic_ops import SUPPORTED_ORDERS, build_operator_set, dump_operator

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
    """Validated, fully-defaulted experiment description (deterministic:
    no seeds anywhere).  Its fields are the config keys, in the order
    ``summary.json`` echoes them; ``parse_config`` sets every one."""

    problem: str
    domain: Tuple[float, float]
    n_cells: int
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


def _as_float(raw: dict, key: str, default: float) -> float:
    value = raw.get(key, default)
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and math.isfinite(value),
             f"config key '{key}' must be a finite number, got {value!r}")
    return float(value)


def parse_config(path: str) -> ExperimentConfig:
    """Load and validate a flat JSON config; every violation names the key."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    _require(isinstance(raw, dict), f"{path}: config must be a flat JSON object")

    unknown = sorted(set(raw) - _KNOWN_KEYS)
    _require(not unknown, f"{path}: unknown config key(s): {', '.join(unknown)}")

    _require("problem" in raw, f"{path}: missing required key 'problem'")
    problem = raw["problem"]
    _require(problem in _PROBLEM_IC_DEFAULTS,
             f"config key 'problem' must be 'wave' or 'shallow_water', got {problem!r}")

    _require("n_cells" in raw, f"{path}: missing required key 'n_cells'")
    n_cells = raw["n_cells"]
    _require(isinstance(n_cells, int) and not isinstance(n_cells, bool) and n_cells >= 1,
             f"config key 'n_cells' must be a positive integer, got {n_cells!r}")

    _require("t_end" in raw, f"{path}: missing required key 't_end'")
    t_end = _as_float(raw, "t_end", None)
    _require(t_end > 0, f"config key 't_end' must be positive, got {t_end}")

    k = raw.get("k", 4)
    _require(isinstance(k, int) and not isinstance(k, bool) and k in SUPPORTED_ORDERS,
             f"config key 'k' must be one of {SUPPORTED_ORDERS}, got {k!r}")
    _require(n_cells >= 2 * k,
             f"config key 'n_cells' must be >= 2k = {2 * k} for order k = {k}, got {n_cells}")

    domain = raw.get("domain", [-30.0, 30.0])
    _require(isinstance(domain, (list, tuple)) and len(domain) == 2
             and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                     and math.isfinite(x) for x in domain),
             f"config key 'domain' must be a list of two finite numbers [a, b], got {domain!r}")
    a, b = float(domain[0]), float(domain[1])
    _require(b > a, f"config key 'domain' must satisfy a < b, got [{a}, {b}]")

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
    cfl = dt = None
    if "dt" in raw:
        dt = _as_float(raw, "dt", None)
        _require(dt > 0, f"config key 'dt' must be positive, got {dt}")
    else:
        cfl = _as_float(raw, "cfl", 0.5)
        _require(cfl > 0, f"config key 'cfl' must be positive, got {cfl}")

    record_every = raw.get("record_every", 1)
    _require(isinstance(record_every, int) and not isinstance(record_every, bool)
             and record_every >= 1,
             f"config key 'record_every' must be a positive integer, got {record_every!r}")

    ic_defaults = _PROBLEM_IC_DEFAULTS[problem]
    ic_center = _as_float(raw, "ic_center", ic_defaults["ic_center"])
    ic_width = _as_float(raw, "ic_width", ic_defaults["ic_width"])
    _require(ic_width > 0, f"config key 'ic_width' must be positive, got {ic_width}")
    ic_amplitude = _as_float(raw, "ic_amplitude", ic_defaults["ic_amplitude"])
    ic_offset = _as_float(raw, "ic_offset", ic_defaults["ic_offset"])
    _require(problem != "wave" or ic_offset == 0.0,
             "config key 'ic_offset' must be 0 for the wave problem (Dirichlet boundaries)")

    d0 = _as_float(raw, "d0", 1.0)
    _require(d0 > 0, f"config key 'd0' must be positive, got {d0}")
    g = _as_float(raw, "g", 1.0)
    _require(g > 0, f"config key 'g' must be positive, got {g}")

    output_dir = raw.get("output_dir", "results")
    _require(isinstance(output_dir, str) and output_dir,
             f"config key 'output_dir' must be a non-empty string, got {output_dir!r}")

    rrk_tol = _as_float(raw, "rrk_tol", 1e-12)
    _require(rrk_tol > 0, f"config key 'rrk_tol' must be positive, got {rrk_tol}")
    rrk_advance = raw.get("rrk_advance", "gamma_dt")
    _require(rrk_advance in ("gamma_dt", "plain_dt"),
             f"config key 'rrk_advance' must be 'gamma_dt' or 'plain_dt', got {rrk_advance!r}")

    return ExperimentConfig(
        problem=problem, domain=(a, b), n_cells=n_cells, k=k, schemes=tuple(schemes),
        cfl=cfl, dt=dt, t_end=t_end, record_every=record_every,
        ic_center=ic_center, ic_width=ic_width, ic_amplitude=ic_amplitude,
        ic_offset=ic_offset, d0=d0, g=g, output_dir=output_dir,
        rrk_tol=rrk_tol, rrk_advance=rrk_advance,
    )


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    """A CSV number: 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


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

def _build_setup(config: ExperimentConfig):
    """(grid, system, state0-arrays, dt) for a config."""
    grid = build_grid(config.domain[0], config.domain[1], config.n_cells)
    ops = build_operator_set(config.k, grid)
    if config.problem == "wave":
        state = gaussian_ic(grid, center=config.ic_center, width=config.ic_width,
                            amplitude=config.ic_amplitude)
        system = WaveSystem(ops)
    else:
        state = shallow_water_ic(grid, offset=config.ic_offset, amplitude=config.ic_amplitude,
                                 center=config.ic_center, width=config.ic_width,
                                 d0=config.d0, g=config.g)
        system = ShallowWaterSystem(ops, d0=config.d0, g=config.g)
    dt = config.dt if config.dt is not None else cfl_dt(grid, config.cfl, system.wave_speed)
    return grid, system, state.arrays(), dt


def _record_summary(record: RunRecord) -> dict:
    h0 = float(record.energies[0])
    denom = abs(h0) if h0 != 0.0 else 1.0
    drifts = np.abs(record.energies - h0) / denom
    summary = {
        "status": "ok",
        "final_time": record.final_time,
        "initial_energy": h0,
        "final_energy": float(record.energies[-1]),
        "max_rel_drift": float(np.max(drifts)),
        "final_rel_drift": float(drifts[-1]),
        "wall_seconds": record.wall_seconds,
        "rhs_evals": record.rhs_evals,
        "n_steps": record.n_steps,
        "dt": record.dt,
        "within_drift_threshold": bool(np.max(drifts) <= DRIFT_THRESHOLD),
    }
    if record.gammas is not None and len(record.gammas):
        summary["gamma_min"] = float(np.min(record.gammas))
        summary["gamma_max"] = float(np.max(record.gammas))
    return summary


def _energy_csv(record: RunRecord) -> str:
    h0 = float(record.energies[0])
    denom = abs(h0) if h0 != 0.0 else 1.0
    with_gamma = record.gammas is not None
    lines = ["t,H,rel_drift,gamma" if with_gamma else "t,H,rel_drift"]
    for t, h_val, step_index in zip(record.times, record.energies, record.steps):
        rel = (float(h_val) - h0) / denom
        row = f"{_fmt(t)},{_fmt(h_val)},{_fmt(rel)}"
        if with_gamma:
            gamma = "" if step_index == 0 else _fmt(record.gammas[step_index - 1])
            row += f",{gamma}"
        lines.append(row)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _energy_run(config: ExperimentConfig, kind: SchemeKind) -> Tuple[dict, Optional[str]]:
    """One scheme of an energy experiment: integrate, then write its CSV.
    Returns (summary entry, CSV path), or (failure entry, None) when the
    scheme fails numerically.  The setup is rebuilt from ``config``; its
    operator set comes from ``build_operator_set``'s cache."""
    _, system, state0, dt = _build_setup(config)
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
    path = os.path.join(config.output_dir, f"energy_{kind.value}.csv")
    _write_text(path, _energy_csv(record))
    return _record_summary(record), path


def _start_on_own_cpu(cpus) -> None:
    """Worker initializer: move this worker onto the next CPU in the queue
    ``cpus``, then let it run on any usable CPU again.  A forked worker
    starts on its parent's CPU, and the scheduler can leave all the workers
    sharing that one CPU for hundreds of milliseconds."""
    usable = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpus.get()})
    os.sched_setaffinity(0, usable)


def run_energy_experiment(config: ExperimentConfig, processes: int = 1) -> dict:
    """Integrate every configured scheme; write per-scheme energy CSVs and a
    combined summary.json.  A scheme that fails numerically is recorded in
    the summary and does not stop the others.  Returns the summary dict
    (with the written file paths under "files").

    With ``processes`` = 1 every scheme runs in this process, one after
    another.  With ``processes`` > 1 the schemes run side by side in that
    many worker processes started by fork (``"fork"`` must be among
    ``multiprocessing.get_all_start_methods()``); the operator set is built
    here first, so the workers inherit it, and each worker starts on its own
    usable CPU where the platform can set CPU affinity.  The outputs are
    identical either way, apart from each scheme's ``wall_seconds``, which
    is its time in its own process; ``processes`` is recorded in the
    summary.  A worker that dies raises
    ``concurrent.futures.process.BrokenProcessPool``.
    """
    if processes < 1:
        raise ValueError(f"processes must be >= 1, got {processes!r}")
    _, _, _, dt = _build_setup(config)
    os.makedirs(config.output_dir, exist_ok=True)

    run = partial(_energy_run, config)
    if processes == 1:
        results = list(map(run, config.schemes))
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        context = multiprocessing.get_context("fork")
        spread = {}
        if hasattr(os, "sched_setaffinity"):
            cpus = context.SimpleQueue()
            usable = sorted(os.sched_getaffinity(0))
            for i in range(processes):
                cpus.put(usable[i % len(usable)])
            spread = {"initializer": _start_on_own_cpu, "initargs": (cpus,)}
        with ProcessPoolExecutor(processes, mp_context=context, **spread) as pool:
            results = list(pool.map(run, config.schemes))

    scheme_summaries: Dict[str, dict] = {}
    files: List[str] = []
    failures: List[str] = []
    for kind, (entry, path) in zip(config.schemes, results):
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
    summary_path = os.path.join(config.output_dir, "summary.json")
    _write_text(summary_path, json.dumps(summary, indent=2) + "\n")
    summary["summary_path"] = summary_path
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
    for n in refinements:
        _require(isinstance(n, int) and n >= 2 * config.k,
                 f"refinement n_cells = {n!r} must be an integer >= 2k = {2 * config.k}")
    _require(sorted(set(refinements)) == refinements,
             f"refinements must be strictly increasing, got {refinements}")

    rows: List[ConvergenceRow] = []
    failures: List[str] = []
    for kind in config.schemes:
        prev: Optional[ConvergenceRow] = None
        scheme_rows: List[ConvergenceRow] = []
        try:
            for n in refinements:
                grid = build_grid(0.0, 1.0, n)
                ops = build_operator_set(config.k, grid)
                system = WaveSystem(ops)
                x = grid.extended
                state0 = (wave_standing_exact(x, 0.0), np.zeros(n + 2))
                dt = cfl_dt(grid, config.cfl, system.wave_speed)
                record = integrate(system, kind, state0, config.t_end, dt,
                                   record_every=10**9,  # record only t = 0 and the last step
                                   rrk_tol=config.rrk_tol, rrk_advance=config.rrk_advance)
                u_num = record.final_state[0]
                u_ref = wave_standing_exact(x, record.final_time)
                error = float(np.max(np.abs(u_num - u_ref)))
                order = None
                if prev is not None and error > 0 and prev.error > 0:
                    order = math.log(prev.error / error) / math.log(prev.h / grid.h)
                row = ConvergenceRow(scheme=kind, n_cells=n, h=grid.h, error=error,
                                     observed_order=order, rhs_evals=record.rhs_evals)
                scheme_rows.append(row)
                prev = row
        except NumericalFailure as exc:
            # A scheme that cannot complete the study is reported on stderr
            # and omitted from the table; the others still produce rows.
            failures.append(f"{kind.value}: n_cells = {n}: {exc}")
            continue
        rows.extend(scheme_rows)

    os.makedirs(config.output_dir, exist_ok=True)
    lines = ["scheme,n_cells,h,error,observed_order,rhs_evals"]
    for row in rows:
        order_txt = "" if row.observed_order is None else _fmt(row.observed_order)
        lines.append(f"{row.scheme.value},{row.n_cells},{_fmt(row.h)},{_fmt(row.error)},"
                     f"{order_txt},{row.rhs_evals}")
    _write_text(os.path.join(config.output_dir, "convergence.csv"), "\n".join(lines) + "\n")
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

    os.makedirs(config.output_dir, exist_ok=True)
    lines = ["scheme,median_seconds,rhs_evals,seconds_per_rhs"]
    for row in rows:
        lines.append(f"{row['scheme']},{_fmt(row['median_seconds'])},{row['rhs_evals']},"
                     f"{_fmt(row['seconds_per_rhs'])}")
    _write_text(os.path.join(config.output_dir, "timing.csv"), "\n".join(lines) + "\n")
    return rows


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------

def _parse_cells_list(text: str) -> List[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"--n expects a comma-separated integer list, got {text!r}") from None
    _require(bool(values), f"--n expects a non-empty integer list, got {text!r}")
    return values


def _parse_domain(text: str) -> Tuple[float, float]:
    try:
        parts = [float(part) for part in text.split(",")]
    except ValueError:
        raise ConfigError(f"--domain expects 'a,b', got {text!r}") from None
    _require(len(parts) == 2 and parts[1] > parts[0], f"--domain expects a < b, got {text!r}")
    return parts[0], parts[1]


def _energy_processes(n_schemes: int) -> int:
    """Worker processes for ``energy``: one per usable CPU, at most one per
    scheme; 1 where only one CPU is usable or fork is unavailable."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    processes = min(cpus, n_schemes)
    if processes > 1:
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            return 1
    return processes


def _cmd_energy(args) -> int:
    config = parse_config(args.config)
    summary = run_energy_experiment(config, _energy_processes(len(config.schemes)))
    for path in summary["files"]:
        print(f"wrote {path}")
    print(f"wrote {summary['summary_path']}")
    if summary["failures"]:
        for failure in summary["failures"]:
            print(f"numerical failure: {failure}", file=sys.stderr)
        return 3
    return 0


def _cmd_converge(args) -> int:
    config = parse_config(args.config)
    rows, failures = run_convergence_study(config, _parse_cells_list(args.n))
    print(f"wrote {os.path.join(config.output_dir, 'convergence.csv')} ({len(rows)} rows)")
    if failures:
        for failure in failures:
            print(f"numerical failure: {failure}", file=sys.stderr)
        return 3
    return 0


def _cmd_bench(args) -> int:
    config = parse_config(args.config)
    rows = run_timing_benchmark(config, args.repeats)
    print(f"wrote {os.path.join(config.output_dir, 'timing.csv')} ({len(rows)} schemes)")
    return 0


def _cmd_dump_ops(args) -> int:
    try:
        grid = build_grid(args.domain[0], args.domain[1], args.cells)
        ops = build_operator_set(args.order, grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    named = [
        ("D", ops.D), ("G", ops.G), ("D_hat", ops.D_hat), ("Q", ops.Q), ("P", ops.P),
        ("B_hat", ops.B_hat), ("L", ops.L), ("I_D", ops.I_D), ("I_G", ops.I_G),
    ]
    out = sys.stdout
    for name, matrix in named:
        rows, cols = matrix.shape
        out.write(f"# operator {name} ({rows}x{cols})\n")
        out.write(dump_operator(matrix))
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
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
