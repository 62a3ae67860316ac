"""mimkit: structure-preserving numerical kit for 1D Hamiltonian PDEs.

High-order (k = 2, 4) mimetic divergence/gradient operators on staggered
grids — satisfying a discrete conservation law and an O(h) discrete Gauss
identity with strictly positive quadrature weights — paired with explicit
fourth-order symplectic and relaxation Runge-Kutta time integrators for the
wave and nonlinear shallow-water equations, plus a CLI reproducing energy-
conservation, convergence, and timing experiments.
"""

from . import errors, experiment_cli, grid_fields, hamiltonian_systems, integrators, mimetic_ops
from .errors import *
from .grid_fields import *
from .mimetic_ops import *
from .hamiltonian_systems import *
from .integrators import *
from .experiment_cli import *

__version__ = "0.1.0"

__all__ = (
    errors.__all__
    + grid_fields.__all__
    + mimetic_ops.__all__
    + hamiltonian_systems.__all__
    + integrators.__all__
    + experiment_cli.__all__
    + ["__version__"]
)
