"""Staggered 1D grid geometry.

A grid with ``N`` cells on ``[a, b]`` carries three point layouts:

* nodes: ``a + i*h`` for ``i = 0..N`` (length ``N+1``),
* cell centers: ``a + (i + 1/2)*h`` for ``i = 0..N-1`` (length ``N``),
* extended centers: the centers with the two boundary points prepended and
  appended, ``[a, centers..., b]`` (length ``N+2``).

Scalar data sampled at cell centers, vector data at nodes.  Fields are
plain float arrays; ``integrate`` checks an initial state's lengths against
the system's layouts once, at entry.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import _require_positive_integer

__all__ = ["StaggeredGrid1D", "build_grid"]


@dataclass(frozen=True)
class StaggeredGrid1D:
    """Uniform staggered grid on ``[a, b]`` with ``n_cells`` cells."""

    a: float
    b: float
    n_cells: int
    h: float

    # Coordinates are computed as a + i*h (not by cumulative summation) so
    # spacing stays uniform to rounding even for large N.
    @cached_property
    def nodes(self) -> np.ndarray:
        x = self.a + self.h * np.arange(self.n_cells + 1)
        x.flags.writeable = False
        return x

    @cached_property
    def centers(self) -> np.ndarray:
        x = self.a + self.h * (np.arange(self.n_cells) + 0.5)
        x.flags.writeable = False
        return x

    @cached_property
    def extended(self) -> np.ndarray:
        x = np.concatenate(([self.a], self.centers, [self.b]))
        x.flags.writeable = False
        return x


def build_grid(a: float, b: float, n_cells: int) -> StaggeredGrid1D:
    """Validate and build a staggered grid; h = (b - a)/n_cells."""
    a, b = float(a), float(b)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError(f"grid endpoints must be finite, got a={a}, b={b}")
    if b <= a:
        raise ValueError(f"grid requires b > a, got a={a}, b={b}")
    _require_positive_integer("n_cells", n_cells)
    n = int(n_cells)
    if n > sys.float_info.max:
        raise ValueError(f"n_cells must be within float range, got {n_cells!r}")
    return StaggeredGrid1D(a=a, b=b, n_cells=n, h=(b - a) / n)
