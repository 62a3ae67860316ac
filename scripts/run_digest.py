"""Print one sha256 over the records of many ``integrate`` runs.

Every scheme runs on three systems: the k = 4 wave (N = 40 on [-5, 5], a
Gaussian of width 0.5), shallow water (k = 4, N = 40 on [-5, 5], its
default bump) and the harmonic oscillator from (0.8, -0.6).  Each runs at
its CFL step (dt = 0.1 for the oscillator) to t_end = 10*dt and to 10.3*dt,
with ``record_every`` 1, 3, 7 and 10**9 and both ``rrk_advance`` modes.  Two
failing runs per system and scheme follow: an initial state with a NaN
(a non-finite initial energy), and a step 20 times the CFL step over 400
steps, which blows up mid-run.  Amplitudes are near 1.

In that loop order, each run feeds its case, then either its times,
energies, steps, gammas and final-state bytes with ``repr`` of its final
time and step count, or the failure's type, message, step and time, into
one sha256, whose hex digest is printed.  Run it on two checkouts and
compare the digests to see whether a change moves any bit of any run:

    PYTHONPATH=src python scripts/run_digest.py
"""

from __future__ import annotations

import hashlib

import numpy as np

from mimkit import (HarmonicOscillator, NumericalFailure, SchemeKind, ShallowWaterSystem,
                    WaveSystem, build_grid, build_operator_set, cfl_dt, gaussian_ic,
                    integrate, shallow_water_ic)


def _cases():
    """(name, system, state, dt) of each system at its stable step."""
    grid = build_grid(-5.0, 5.0, 40)
    ops = build_operator_set(4, grid)
    dt = cfl_dt(grid, 0.5)
    yield "wave", WaveSystem(ops), gaussian_ic(grid, center=0.0, width=0.5).arrays(), dt
    yield "shallow_water", ShallowWaterSystem(ops), shallow_water_ic(grid).arrays(), dt
    yield "oscillator", HarmonicOscillator(), HarmonicOscillator.initial_state(0.8, -0.6), 0.1


def _feed(digest, case, run):
    digest.update(repr(case).encode())
    try:
        record = run()
    except NumericalFailure as exc:
        digest.update(f"{type(exc).__name__}: {exc} @ {exc.step!r} {exc.t!r}".encode())
        return
    gammas = b"none" if record.gammas is None else record.gammas.tobytes()
    for part in (record.times.tobytes(), record.energies.tobytes(), record.steps.tobytes(),
                 gammas, *(x.tobytes() for x in record.final_state),
                 repr((record.final_time, record.n_steps)).encode()):
        digest.update(part)


def run_digest() -> str:
    digest = hashlib.sha256()
    for name, system, state, dt in _cases():
        for scheme in SchemeKind:
            for steps in (10.0, 10.3):
                for record_every in (1, 3, 7, 10**9):
                    for mode in ("gamma_dt", "plain_dt"):
                        _feed(digest, (name, scheme.value, steps, record_every, mode),
                              lambda: integrate(system, scheme, state, steps * dt, dt,
                                                record_every=record_every, rrk_advance=mode))
            nan_state = tuple(x.copy() for x in state)
            nan_state[0][len(nan_state[0]) // 2] = np.nan
            _feed(digest, (name, scheme.value, "nan"),
                  lambda: integrate(system, scheme, nan_state, 10 * dt, dt))
            _feed(digest, (name, scheme.value, "unstable"),
                  lambda: integrate(system, scheme, state, 400 * 20 * dt, 20 * dt))
    return digest.hexdigest()


if __name__ == "__main__":
    print(run_digest())
