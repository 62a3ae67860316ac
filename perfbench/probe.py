"""Fresh-interpreter probe: times ``import mimkit``, one cold set-up, and
warm step costs.

Usage: ``python3 probe.py CONFIG.json SAMPLE_STEPS SECONDS [SCHEME ...]``
with mimkit on ``PYTHONPATH``.  Prints one JSON object with the import time;
the cold set-up split into grid, operator set and system + initial
condition; the warm operator re-assembly after
``build_operator_set.cache_clear()`` (the exact rational construction stays
cached); the stored entries of every operator; and, for each scheme, the
wall time per step of ``integrate`` runs over the first SAMPLE_STEPS steps,
taken in passes over the schemes for SECONDS after one warm-up pass and
scaled by the machine speed measured around each pass (``Calibration``).  The
warm-up trace of each scheme is printed for the caller to check, with the
number of later runs whose trace differed from it.  A fresh process per
probe keeps one process's memory layout from setting every sample.
"""

import json
import sys
import time

from tracing import Calibration
from workloads import build_system

OPERATORS = ("D", "G", "D_hat", "Q", "P", "B_hat", "L", "I_D", "I_G")


def main(config_path: str, sample_steps: int, seconds: float, schemes) -> None:
    clock = time.perf_counter
    start = clock()
    import mimkit
    import_s = clock() - start

    config = mimkit.parse_config(config_path)
    t0 = clock()
    grid = mimkit.build_grid(config.domain[0], config.domain[1], config.n_cells)
    grid.nodes, grid.extended  # coordinates are computed lazily; count them here
    t1 = clock()
    ops = mimkit.build_operator_set(config.k, grid)
    t2 = clock()
    system, state0 = build_system(config, grid, ops)
    t3 = clock()
    mimkit.build_operator_set.cache_clear()
    t4 = clock()
    mimkit.build_operator_set(config.k, grid)
    t5 = clock()
    result = {
        "import_s": import_s,
        "grid_s": t1 - t0,
        "ops_cold_s": t2 - t1,
        "setup_s": t3 - t0,
        "assemble_s": t5 - t4,
        "nnz": sum(getattr(ops, name).nnz for name in OPERATORS),
        "step_s": {}, "first": {}, "differs": {}, "failures": {},
    }

    dt = config.dt if config.dt is not None else mimkit.cfl_dt(grid, config.cfl, system.wave_speed)

    def sample(scheme):
        begin = clock()
        record = mimkit.integrate(system, scheme, state0, sample_steps * dt, dt,
                                  record_every=config.record_every, rrk_tol=config.rrk_tol,
                                  rrk_advance=config.rrk_advance)
        return (clock() - begin) / record.n_steps, [record.times.tolist(),
                                                    record.energies.tolist()]

    calibration = Calibration()
    live = []
    for scheme in schemes:
        try:
            result["first"][scheme] = sample(scheme)[1]
        except mimkit.NumericalFailure as exc:
            result["failures"][scheme] = str(exc)
            continue
        live.append(scheme)
        result["step_s"][scheme] = []
        result["differs"][scheme] = 0
    deadline = clock() + seconds
    speed_before = calibration.seconds() if live else 0.0
    while live and clock() < deadline:
        step_s = {}
        for scheme in live:
            step_s[scheme], trace = sample(scheme)
            result["differs"][scheme] += trace != result["first"][scheme]
        # scale each pass by the machine speed measured around it
        speed_after = calibration.seconds()
        scale = Calibration.NOMINAL_S / (0.5 * (speed_before + speed_after))
        speed_before = speed_after
        for scheme in live:
            result["step_s"][scheme].append(step_s[scheme] * scale)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4:])
