"""Exception types shared across the package."""

__all__ = ["ConfigError", "ConstructionError", "NumericalFailure"]


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
