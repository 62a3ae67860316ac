"""Staggered 1D grid and layout-tagged field containers.

A grid with ``N`` cells on ``[a, b]`` carries three point layouts:

* nodes: ``a + i*h`` for ``i = 0..N`` (length ``N+1``),
* cell centers: ``a + (i + 1/2)*h`` for ``i = 0..N-1`` (length ``N``),
* extended centers: the centers with the two boundary points prepended and
  appended, ``[a, centers..., b]`` (length ``N+2``).

Scalar data sampled at cell centers, vector data at nodes.  Fields are
layout-tagged so that operator application can reject mismatched layouts at
the interface instead of failing silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "StaggeredGrid1D",
    "NodeField",
    "CenterField",
    "ExtendedField",
    "build_grid",
    "extend_center_field",
    "sample",
]


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

    def coords(self, layout: str) -> np.ndarray:
        try:
            return {"node": self.nodes, "center": self.centers, "extended": self.extended}[layout]
        except KeyError:
            raise ValueError(f"unknown layout {layout!r}; expected node|center|extended") from None

    def layout_length(self, layout: str) -> int:
        return len(self.coords(layout))


def build_grid(a: float, b: float, n_cells: int) -> StaggeredGrid1D:
    """Validate and build a staggered grid; h = (b - a)/n_cells."""
    a = float(a)
    b = float(b)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError(f"grid endpoints must be finite, got a={a}, b={b}")
    if b <= a:
        raise ValueError(f"grid requires b > a, got a={a}, b={b}")
    n = int(n_cells)
    if n != n_cells or n < 1:
        raise ValueError(f"n_cells must be a positive integer, got {n_cells!r}")
    return StaggeredGrid1D(a=a, b=b, n_cells=n, h=(b - a) / n)


class _Field:
    """Immutable real-valued sequence bound to one grid layout."""

    layout: str = ""

    __slots__ = ("values", "grid")

    def __init__(self, values, grid: StaggeredGrid1D):
        arr = np.array(values, dtype=float, copy=True)
        if arr.ndim != 1:
            raise ValueError(f"{type(self).__name__} requires a 1D sequence, got shape {arr.shape}")
        expected = grid.layout_length(self.layout)
        if len(arr) != expected:
            raise ValueError(
                f"{type(self).__name__} on this grid must have length {expected}, got {len(arr)}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "grid", grid)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __len__(self) -> int:
        return len(self.values)

    def __array__(self, dtype=None, copy=None):
        # numpy >= 2 passes copy=None for "copy only if needed"; numpy 1.x
        # passes no copy argument at all.
        if copy:
            return np.array(self.values, dtype=dtype, copy=True)
        return np.asarray(self.values, dtype=dtype)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={len(self)}, grid=[{self.grid.a}, {self.grid.b}])"


class NodeField(_Field):
    """Values at the N+1 nodes."""

    layout = "node"


class CenterField(_Field):
    """Values at the N cell centers."""

    layout = "center"


class ExtendedField(_Field):
    """Values at the N+2 extended centers (boundary points first and last)."""

    layout = "extended"


_FIELD_BY_LAYOUT = {"node": NodeField, "center": CenterField, "extended": ExtendedField}


def extend_center_field(f: CenterField, left: float, right: float) -> ExtendedField:
    """Append boundary values: [left, f..., right]."""
    if not isinstance(f, CenterField):
        raise ValueError(f"extend_center_field expects a CenterField, got {type(f).__name__}")
    return ExtendedField(np.concatenate(([left], f.values, [right])), f.grid)


def sample(fn: Callable[[float], float], layout: str, grid: StaggeredGrid1D):
    """Evaluate ``fn`` pointwise at the coordinates of the given layout."""
    coords = grid.coords(layout)
    vectorized = np.vectorize(fn, otypes=[float])
    return _FIELD_BY_LAYOUT[layout](vectorized(coords), grid)
