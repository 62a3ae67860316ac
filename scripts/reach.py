"""Print every ``raise`` statement in ``src/mimkit`` that the tier-1 suite never runs.

Runs the tier-1 suite (``tests`` and ``perfbench``) in this process with a
line tracer on every thread (``sys.settrace`` and ``threading.settrace``)
that records only frames whose code lives in ``src/mimkit``.  Then each
``ast.Raise`` in ``src/mimkit/*.py`` whose first line never ran is printed
as ``file:line: source``, followed by a count.  It reports reach, not
pass/fail: the exit status is 0 whatever the suite's verdict.  It writes
nothing into the checkout: no pytest cache, no bytecode files, and the
suite runs in a temporary working directory.

    PYTHONPATH=src python scripts/reach.py

Two limits: code that runs in a child process is not traced, so what only
the forked children of ``energy`` runs execute counts as never run (the
calling process claims schemes too, so the code they share is reached);
and criterion 7b is left out, because under the tracer its timing loop
only costs minutes.
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mimkit"
SKIPPED = "tests/test_acceptance.py::test_criterion_7b_fixed_step_timings_comparable"


def run_traced(args) -> set:
    """Run pytest on ``args`` under the tracer; return the (file, line)
    pairs that ran in the package, files as resolved paths."""
    files = {str(path) for path in PACKAGE.glob("*.py")}
    resolved, ran = {}, set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((resolved[frame.f_code.co_filename], frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in resolved:
            path = os.path.realpath(name)
            resolved[name] = path if path in files else None
        return local if resolved[name] else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return ran


def unreached_raises(ran):
    """``file:line: source`` for each raise statement whose line is not in ``ran``."""
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for line in sorted(node.lineno for node in ast.walk(ast.parse(source))
                           if isinstance(node, ast.Raise)):
            if (str(path), line) not in ran:
                yield f"{path.relative_to(ROOT)}:{line}: {lines[line - 1].strip()}"


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)  # hypothesis keeps its files in the working directory
        ran = run_traced([str(ROOT / "tests"), str(ROOT / "perfbench"), f"--rootdir={ROOT}",
                          "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                          f"--deselect={SKIPPED}"])
        os.chdir(ROOT)
    missed = list(unreached_raises(ran))
    for line in missed:
        print(line)
    print(f"{len(missed)} raise statement(s) in src/mimkit never ran")
