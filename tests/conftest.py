"""Shared fixtures, hypothesis profile, and the acceptance-line reporter.

The ``acceptance`` fixture lets tests in test_acceptance.py record one
verdict per criterion clause; ``pytest_terminal_summary`` merges the clauses
and prints a single ``ACCEPTANCE #n: PASS/FAIL`` line per criterion at the
end of the run, whether or not the backing test passed.
"""
from __future__ import annotations

import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from mimkit import build_grid, build_operator_set

settings.register_profile(
    "kit",
    deadline=None,
    max_examples=25,
    derandomize=True,
    # the parametrization fixtures used inside @given tests are pure
    # constants, so not resetting them between examples is sound
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
settings.load_profile("kit")


# ---------------------------------------------------------------------------
# Grid / operator fixtures (construction is cached inside the package, so
# function scope is cheap).
# ---------------------------------------------------------------------------


@pytest.fixture
def grid01():
    return build_grid(0.0, 1.0, 32)


@pytest.fixture(params=[2, 4], ids=["k2", "k4"])
def order(request) -> int:
    return request.param


@pytest.fixture
def ops(grid01, order):
    return build_operator_set(order, grid01)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)


@pytest.fixture
def fresh_python():
    """Run a code string in a fresh interpreter that imports mimkit from
    this checkout; a failed assertion in it fails the test with its
    traceback.  For facts about what a process has imported."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))

    def run(code: str) -> None:
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": path}, timeout=120)
        assert result.returncode == 0, result.stderr

    return run


# ---------------------------------------------------------------------------
# Acceptance reporting
# ---------------------------------------------------------------------------

_CLAUSES: Dict[int, Dict[str, Tuple[bool, str]]] = defaultdict(dict)


class _Recorder:
    def __call__(self, criterion: int, clause: str, passed: bool, detail: str):
        _CLAUSES[criterion][clause] = (bool(passed), detail)


@pytest.fixture
def acceptance() -> _Recorder:
    return _Recorder()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CLAUSES:
        return
    terminalreporter.section("acceptance criteria")
    for criterion in sorted(_CLAUSES):
        clauses = _CLAUSES[criterion]
        ok = all(passed for passed, _ in clauses.values())
        status = "PASS" if ok else "FAIL"
        parts = [f"[{name}: {'pass' if passed else 'FAIL'}] {detail}"
                 for name, (passed, detail) in sorted(clauses.items())]
        terminalreporter.write_line(
            f"ACCEPTANCE #{criterion}: {status} — " + "; ".join(parts))
