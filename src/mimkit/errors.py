"""Exception types, and the value checks, that the package's modules share."""

import math
import numbers

import numpy as np

__all__ = ["ConfigError", "ConstructionError", "NumericalFailure"]


def _require_positive_finite(**values):
    """ValueError for the first of ``values`` that is not positive and finite
    (a bool, Python's or numpy's, is not a number here)."""
    for name, value in values.items():
        if isinstance(value, (bool, np.bool_)) or not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _require_positive_integer(name, value):
    """ValueError unless ``value`` is an integer >= 1 (numpy's too, not a bool)."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= 1):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 2)."""


class ConstructionError(RuntimeError):
    """Operator construction failed (e.g. a non-positive quadrature weight)."""


class NumericalFailure(RuntimeError):
    """Integration aborted (non-finite energy, non-positive depth, root-solver
    failure, ...). Maps to CLI exit code 3.

    A failure raised inside a run of ``integrate`` carries the run's
    ``scheme`` name, the ``step`` it happened in (counted from 1; 0 for the
    initial state) and ``t``, the last time the run reached; elsewhere they
    are None.
    """

    scheme = None
    step = None
    t = None
