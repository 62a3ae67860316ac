"""Print the CLI's verdict on every single and paired bad value of the shipped configs.

Each key of each config gets each bad value in turn: a wrong JSON type,
NaN, +inf, -inf, 0, a negative number, or the key dropped (in a list of
numbers, such as ``domain``, every bad value but the type replaces the last
entry).  Every single mutant, and every pair of mutants on two different
keys, runs through ``mimkit.experiment_cli.main`` in this process, with
``integrate`` replaced by a stub that ends the run, so nothing is
integrated, and the CLI's argument parser built once and reused (``main``
builds it anew on each call, which would take most of the time here).
One line per mutant:

    <config> <key>=<value>[ <key>=<value>] -> <outcome> | <first stderr line>

The outcome is the exit code; ``integrate`` when the run got as far as
integrating; or the name of an exception that escaped ``main``.  A refused
mutant that left its output directory behind is marked ``output_dir made``.
A config whose file name holds "convergence" runs as ``converge --n 16,32``,
any other as ``energy``.

Run it on two checkouts and diff the outputs to see every rejection text a
change moves:

    PYTHONPATH=src python scripts/config_errors.py > errors.txt
    PYTHONPATH=src python scripts/config_errors.py configs/wave_energy.json
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

from mimkit import experiment_cli

ROOT = Path(__file__).resolve().parents[1]


class _Integrating(Exception):
    """Raised by the stub that stands in for ``integrate``."""


def _stub_integrate(*args, **kwargs):
    raise _Integrating


def _bad_values(value):
    """(label, replacement) for each bad value of one config entry; the label
    is what follows the key, such as ``=NaN`` or ``[-1]=0``."""
    if isinstance(value, list) and value and all(isinstance(x, (int, float)) for x in value):
        last = value[-1]
        numbers = [("NaN", math.nan), ("inf", math.inf), ("-inf", -math.inf), ("0", 0),
                   ("negative", -abs(last) if last else -1)]
        yield "=type", "x"
        for label, x in numbers:
            yield f"[-1]={label}", value[:-1] + [x]
        return
    yield "=type", 1 if isinstance(value, str) else "x"
    yield "=NaN", math.nan
    yield "=inf", math.inf
    yield "=-inf", -math.inf
    yield "=0", 0
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    yield "=negative", -abs(value) if is_number and value else -1


def _mutations(data):
    """(label, key, replacement or None to drop) for every single bad value."""
    for key in data:
        for label, replacement in _bad_values(data[key]):
            yield key + label, key, replacement
        yield f"{key}=dropped", key, None


def _run(argv, out_dirs, tmp):
    """(outcome, first stderr line) of ``main(argv)``, with the temporary
    directory ``tmp`` written as ``<tmp>``; removes ``out_dirs``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            outcome = str(experiment_cli.main(argv))
        except _Integrating:
            outcome = "integrate"
        except Exception as exc:  # a traceback the CLI let through
            outcome = type(exc).__name__
            print(exc, file=sys.stderr)
    made = [d for d in out_dirs if os.path.exists(d)]
    for d in made:
        shutil.rmtree(d)
    if made and outcome != "integrate":
        outcome += " (output_dir made)"
    first = err.getvalue().splitlines()[:1]
    return outcome, first[0].replace(tmp, "<tmp>") if first else ""


def main(paths):
    paths = [Path(path).resolve() for path in paths]
    experiment_cli.integrate = _stub_integrate
    experiment_cli._energy_processes = lambda n_schemes: 1
    experiment_cli._build_parser = functools.cache(experiment_cli._build_parser)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # a dropped output_dir defaults to ./results
        out_dirs = [os.path.join(tmp, "out"), os.path.join(tmp, "results")]
        for path in paths:
            data = json.loads(path.read_text())
            data["output_dir"] = out_dirs[0]
            name = path.stem
            command = ["converge", "--n", "16,32"] if "convergence" in name else ["energy"]
            singles = list(_mutations(data))
            mutants = [(m,) for m in singles] + [
                pair for pair in itertools.combinations(singles, 2) if pair[0][1] != pair[1][1]]
            config_path = os.path.join(tmp, "config.json")
            for mutant in mutants:
                mutated = dict(data)
                for _, key, replacement in mutant:
                    if replacement is None:
                        del mutated[key]
                    else:
                        mutated[key] = replacement
                Path(config_path).write_text(json.dumps(mutated))
                outcome, line = _run([command[0], config_path, *command[1:]], out_dirs, tmp)
                labels = " ".join(label for label, _, _ in mutant)
                print(f"{name} {labels} -> {outcome} | {line}")


if __name__ == "__main__":
    main(sys.argv[1:] or sorted(str(p) for p in (ROOT / "configs").glob("*.json")))
