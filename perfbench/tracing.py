"""Spans around calls into mimkit's layers, taken from outside the program.

``RecordingSystem`` stands in for a ``WaveSystem`` / ``ShallowWaterSystem``
when handed to ``integrate``: it delegates every call to the real system and
counts and times each system method.  The real system calls its own methods
directly, so proxy spans never nest and each span is that call's self time.
``seconds_per_call`` times one operator call; ``Calibration`` measures how
fast the machine runs right now, to scale every timing by.
"""

from __future__ import annotations

import statistics
import time

SYSTEM_METHODS = ("rhs", "position_rate", "velocity_rate", "energy", "apply_boundary",
                  "quadratic_parts")
# Splitting schemes evaluate the force through velocity_rate, Runge-Kutta
# schemes through rhs; SchemeKind.rhs_evals_per_step declares their sum.
FORCE_METHODS = ("rhs", "velocity_rate")


class RecordingSystem:
    """Delegating proxy that counts and times every system-method call."""

    def __init__(self, system):
        self._system = system
        self.calls = dict.fromkeys(SYSTEM_METHODS, 0)
        self.seconds = dict.fromkeys(SYSTEM_METHODS, 0.0)
        for name in SYSTEM_METHODS:
            setattr(self, name, self._recorded(name, getattr(system, name)))

    def __getattr__(self, name):
        return getattr(self._system, name)

    def _recorded(self, name, method):
        clock = time.perf_counter
        calls, seconds = self.calls, self.seconds

        def call(*args):
            start = clock()
            try:
                return method(*args)
            finally:
                seconds[name] += clock() - start
                calls[name] += 1

        return call

    @property
    def force_evals(self) -> int:
        return sum(self.calls[name] for name in FORCE_METHODS)

    @property
    def system_seconds(self) -> float:
        return sum(self.seconds.values())


def seconds_per_call(fn, *args, batch_seconds: float = 0.01, batches: int = 5) -> float:
    """Median over ``batches`` timed batches of the mean time of one call."""
    clock = time.perf_counter
    n = 1
    while True:  # grow the batch until it lasts batch_seconds
        start = clock()
        for _ in range(n):
            fn(*args)
        if clock() - start >= batch_seconds or n >= 1 << 20:
            break
        n *= 2
    per_call = []
    for _ in range(batches):
        start = clock()
        for _ in range(n):
            fn(*args)
        per_call.append((clock() - start) / n)
    return statistics.median(per_call)


class Calibration:
    """A fixed CPU load that shares no code with mimkit.

    Other tenants on a shared machine change its speed by tens of percent
    over seconds to minutes, and every timing moves with it.  The benchmark
    runs this kernel before and after each task (a probe, a CLI run, a pass
    over the schemes) and scales the task's times by ``NOMINAL_S`` over the
    mean of the two, so times read as on a machine that runs the kernel in
    ``NOMINAL_S``.  The work mixes sparse matvecs, small numpy updates and
    interpreted integer arithmetic, as mimkit's steps do.
    """

    NOMINAL_S = 0.008  # about the median on the 2-core Intel Xeon VM it was defined on

    def __init__(self, n: int = 2000, steps: int = 200):
        import numpy as np
        import scipy.sparse as sp

        offsets = (-2, -1, 0, 1, 2)
        self._matrix = sp.diags([np.full(n - abs(k), 1.0 / (1 + abs(k))) for k in offsets],
                                offsets, format="csr")
        self._x0 = np.linspace(0.0, 1.0, n)
        self._steps = steps

    def seconds(self) -> float:
        """Median wall time of three runs of the kernel."""
        return statistics.median(self._once() for _ in range(3))

    def _once(self) -> float:
        start = time.perf_counter()
        x, v = self._x0.copy(), 0.0 * self._x0
        acc = 0
        for i in range(self._steps):
            v = v + 1e-3 * (self._matrix @ x)
            x = x + 1e-3 * v
            x[0] = x[-1] = 0.0
            for j in range(200):
                acc += i * j % 7
        float(x @ x) + acc
        return time.perf_counter() - start
