"""Benchmark workloads: each turns a seed into one mimkit ``energy`` config.

Seed 0 is exactly the configuration a workload names; any other seed moves
the Gaussian initial condition's center and width deterministically, so the
same seed always gives the same inputs.  This module does not import mimkit
at module level: ``probe.py`` imports it first to time a fresh
``import mimkit``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

ALL_SCHEMES = ("RK4", "RRK_analytic", "RRK_bisection", "ForestRuth", "PEFRL",
               "Leapfrog", "Composition4")
# Closed-form relaxation needs a quadratic energy; shallow water has none,
# so these six are the schemes every workload can time.
COMMON_SCHEMES = tuple(s for s in ALL_SCHEMES if s != "RRK_analytic")
# criterion 7b compares the fixed-step fourth-order schemes
FIXED_STEP_4TH = ("RK4", "ForestRuth", "PEFRL", "Composition4")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    base_config: str                  # repo-relative config it starts from
    reference_dir: str                # repo-relative seed-0 energy CSVs
    timed_schemes: Tuple[str, ...]    # schemes whose warm step cost is timed
    # steps in one timing sample: short samples spread over a run keep its
    # median steady while other tenants' load comes and goes
    sample_steps: int
    overrides: Dict[str, object] = field(default_factory=dict)
    dump_ops_cells: Optional[int] = None  # check the dump-ops digest at this N


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wave_600",
            why="paper wave energy run at N=600: per-call dispatch and per-step "
                "energy dominate, construction is under 10% of the run",
            base_config="configs/wave_energy.json",
            reference_dir="results/wave_energy",
            timed_schemes=ALL_SCHEMES,
            sample_steps=120,
        ),
        Workload(
            name="shallow_water_600",
            why="paper shallow-water run: same integrators, nonlinear system with "
                "more matvecs per rhs and a non-quadratic energy",
            base_config="configs/shallow_water_energy.json",
            reference_dir="results/shallow_water_energy",
            timed_schemes=COMMON_SCHEMES,
            sample_steps=100,
        ),
        Workload(
            name="wave_9600",
            why="Gaussian wave at N=9600: cold operator construction dominates "
                "and each step is arithmetic-bound, not dispatch-bound",
            base_config="configs/wave_energy.json",
            reference_dir="perfbench/reference/wave_9600",
            timed_schemes=ALL_SCHEMES,
            sample_steps=64,  # two recorded rows
            overrides={"n_cells": 9600, "t_end": 1.0, "record_every": 32,
                       "schemes": ["RK4", "RRK_analytic", "PEFRL", "Leapfrog"]},
            dump_ops_cells=9600,
        ),
    )
}

# dump-ops output (order 4, default domain) recorded when the benchmark was
# defined; a change to operator construction must leave it unchanged.
DUMP_OPS_SHA256 = {9600: "254ea90a703884402729d150697251ea5fb473d7f03aa39ca089325a46d0d91b"}


def make_config(workload: Workload, seed: int, output_dir: str) -> dict:
    """The raw JSON config of ``workload`` at ``seed``, writing to output_dir."""
    with open(ROOT / workload.base_config, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw.update(workload.overrides)
    if seed != 0:
        rng = random.Random(seed)
        raw["ic_center"] = raw["ic_center"] + rng.uniform(-2.0, 2.0)
        raw["ic_width"] = raw["ic_width"] * rng.uniform(0.8, 1.25)
    raw["output_dir"] = output_dir
    return raw


def build_setup(config):
    """(grid, ops, system, state0, dt) for a parsed ExperimentConfig, built
    from mimkit's public functions only."""
    from mimkit import build_grid, build_operator_set, cfl_dt

    grid = build_grid(config.domain[0], config.domain[1], config.n_cells)
    grid.nodes, grid.extended  # coordinates are computed lazily; count them here
    ops = build_operator_set(config.k, grid)
    system, state = build_system(config, grid, ops)
    dt = config.dt if config.dt is not None else cfl_dt(grid, config.cfl, system.wave_speed)
    return grid, ops, system, state, dt


def build_system(config, grid, ops):
    """(system, state0 arrays) for a config on an existing operator set."""
    from mimkit import ShallowWaterSystem, WaveSystem, gaussian_ic, shallow_water_ic

    if config.problem == "wave":
        state = gaussian_ic(grid, center=config.ic_center, width=config.ic_width,
                            amplitude=config.ic_amplitude)
        return WaveSystem(ops), state.arrays()
    state = shallow_water_ic(grid, offset=config.ic_offset, amplitude=config.ic_amplitude,
                             center=config.ic_center, width=config.ic_width,
                             d0=config.d0, g=config.g)
    return ShallowWaterSystem(ops, d0=config.d0, g=config.g), state.arrays()
