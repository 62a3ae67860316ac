"""Staggered grid geometry and validation."""
from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mimkit import StaggeredGrid1D, build_grid


def test_grid_basic_geometry():
    g = build_grid(0.0, 1.0, 8)
    assert isinstance(g, StaggeredGrid1D)
    assert g.h == pytest.approx(0.125, abs=0.0)
    np.testing.assert_allclose(g.nodes, np.linspace(0.0, 1.0, 9), atol=1e-15)
    np.testing.assert_allclose(g.centers, np.linspace(0.0625, 0.9375, 8), atol=1e-15)
    expected_ext = np.concatenate(([0.0], np.linspace(0.0625, 0.9375, 8), [1.0]))
    np.testing.assert_allclose(g.extended, expected_ext, atol=1e-15)


@given(
    a=st.floats(-50.0, 50.0),
    width=st.floats(0.1, 100.0),
    n=st.integers(1, 500),
)
def test_grid_invariants(a, width, n):
    g = build_grid(a, a + width, n)
    assert g.nodes[0] == a and g.nodes[-1] == pytest.approx(a + width, rel=1e-14)
    # uniform spacing (differences of nearby coordinates lose absolute
    # precision at the ulp of the coordinate magnitude) and centers midway
    coord_ulp = np.spacing(max(abs(a), abs(a + width)))
    np.testing.assert_allclose(np.diff(g.nodes), g.h, rtol=1e-12, atol=4 * coord_ulp)
    np.testing.assert_allclose(g.centers, 0.5 * (g.nodes[:-1] + g.nodes[1:]),
                               atol=1e-12 * max(1.0, abs(a) + width))
    # extended layout is [a, centers, b]; the last node is a + n*h, which may
    # sit one rounding step away from the literal b stored at extended[-1]
    assert g.extended[0] == g.a and g.extended[-1] == g.b
    assert g.nodes[-1] == pytest.approx(g.b, rel=1e-14, abs=1e-14)
    np.testing.assert_array_equal(g.extended[1:-1], g.centers)


def test_build_grid_validation():
    with pytest.raises(ValueError, match="b > a"):
        build_grid(1.0, 1.0, 4)
    with pytest.raises(ValueError, match="n_cells"):
        build_grid(0.0, 1.0, 0)
    with pytest.raises(ValueError, match="finite"):
        build_grid(0.0, np.inf, 4)
    # h = (b - a) / n_cells needs n_cells as a float
    with pytest.raises(ValueError, match="^n_cells must be within float range"):
        build_grid(0, 1, 10**400)


def test_build_grid_refuses_bools_and_non_integers():
    """n_cells must be an integer, as numpy's are, and not a bool (which
    Python counts as one) or an integral float."""
    for n_cells in (True, False, 16.0, 16.5, "16", None, np.float64(16.0), np.bool_(True)):
        with pytest.raises(ValueError, match=re.escape(
                f"n_cells must be a positive integer, got {n_cells!r}")):
            build_grid(0.0, 1.0, n_cells)
    for n_cells in (np.int64(16), np.int32(16), np.uint8(16)):
        grid = build_grid(0.0, 1.0, n_cells)
        assert grid.n_cells == 16 and type(grid.n_cells) is int
