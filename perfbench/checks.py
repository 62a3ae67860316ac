"""Correctness checks on mimkit energy traces.

Every check returns a list of problems; an empty list means the output is
correct.  The benchmark counts a scheme run as failed when any check on it
reports a problem.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

# Largest relative energy change between recorded rows that a relaxation
# scheme may show; rrk_tol = 1e-12 keeps it near 1e-15 at seed 0.
RRK_STEP_TOL = 1e-10


def read_trace(text: str) -> Tuple[np.ndarray, np.ndarray]:
    """(times, energies) from an ``energy_<Scheme>.csv`` text."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("t,H,rel_drift"):
        raise ValueError("not an energy CSV: bad header")
    rows = [line.split(",") for line in lines[1:]]
    return (np.array([float(r[0]) for r in rows]), np.array([float(r[1]) for r in rows]))


def compare_bytes(produced: Path, reference: Path) -> List[str]:
    """Problems unless the two files are byte for byte equal."""
    got, want = produced.read_bytes(), reference.read_bytes()
    if got == want:
        return []
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for number, (a, b) in enumerate(zip(got_lines, want_lines), start=1):
        if a != b:
            return [f"{produced.name}: line {number} differs from {reference}: "
                    f"{a.decode(errors='replace')!r} != {b.decode(errors='replace')!r}"]
    return [f"{produced.name}: {len(got_lines)} lines, reference {reference} has {len(want_lines)}"]


def compare_trace(name: str, times, energies, reference) -> List[str]:
    """Problems unless (times, energies) equal the reference trace exactly."""
    ref_times, ref_energies = reference
    if len(times) != len(ref_times):
        return [f"{name}: {len(times)} recorded rows, reference has {len(ref_times)}"]
    if not (np.array_equal(times, ref_times) and np.array_equal(energies, ref_energies)):
        row = int(np.argmax((times != ref_times) | (energies != ref_energies)))
        return [f"{name}: row {row} is (t={times[row]!r}, H={energies[row]!r}), "
                f"reference (t={ref_times[row]!r}, H={ref_energies[row]!r})"]
    return []


def expected_rows(n_steps: int, record_every: int) -> int:
    """Rows ``integrate`` records: t = 0, every record_every steps, and the end."""
    return 1 + n_steps // record_every + (1 if n_steps % record_every else 0)


def invariant_problems(scheme: str, times: Sequence[float], energies: Sequence[float],
                       n_steps: int, dt: float, t_end: float, record_every: int,
                       final_time: Optional[float] = None) -> List[str]:
    """Checks that hold for any seed: a finite trace, the declared step count
    and row count, and per-step energy conservation for relaxation schemes."""
    times = np.asarray(times, dtype=float)
    energies = np.asarray(energies, dtype=float)
    final_time = times[-1] if final_time is None else final_time
    problems = []
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(energies))):
        problems.append(f"{scheme}: non-finite time or energy in the trace")
    relaxation = scheme.startswith("RRK")
    if relaxation:
        # relaxation steps have nominal size dt and may overshoot t_end by
        # less than one step
        if not t_end - 1e-12 * max(dt, t_end) <= final_time < t_end + 2.0 * dt:
            problems.append(f"{scheme}: final time {final_time!r} is not within one step past "
                            f"t_end = {t_end!r}")
    else:
        declared = max(1, math.ceil(t_end / dt - 1e-9))
        if n_steps != declared:
            problems.append(f"{scheme}: {n_steps} steps, declared ceil(t_end/dt) = {declared}")
        if final_time != t_end:
            problems.append(f"{scheme}: final time {final_time!r} != t_end = {t_end!r}")
    rows = expected_rows(n_steps, record_every)
    if len(energies) != rows:
        problems.append(f"{scheme}: {len(energies)} recorded rows, expected {rows} "
                        f"for {n_steps} steps at record_every = {record_every}")
    if relaxation and len(energies) > 1:
        scale = abs(energies[0]) or 1.0
        worst = float(np.max(np.abs(np.diff(energies)))) / scale
        if not worst <= RRK_STEP_TOL:
            problems.append(f"{scheme}: relative energy change {worst:.3e} between recorded "
                            f"rows exceeds {RRK_STEP_TOL:.0e}")
    return problems
