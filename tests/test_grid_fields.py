"""Staggered grid and field-container behavior."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mimkit import (
    CenterField,
    ExtendedField,
    NodeField,
    StaggeredGrid1D,
    build_grid,
    extend_center_field,
    sample,
)


def test_grid_basic_geometry():
    g = build_grid(0.0, 1.0, 8)
    assert isinstance(g, StaggeredGrid1D)
    assert g.h == pytest.approx(0.125, abs=0.0)
    np.testing.assert_allclose(g.nodes, np.linspace(0.0, 1.0, 9), atol=1e-15)
    np.testing.assert_allclose(g.centers, np.linspace(0.0625, 0.9375, 8), atol=1e-15)
    expected_ext = np.concatenate(([0.0], np.linspace(0.0625, 0.9375, 8), [1.0]))
    np.testing.assert_allclose(g.extended, expected_ext, atol=1e-15)


def test_layout_lengths_and_coords():
    g = build_grid(-2.0, 3.0, 10)
    assert g.layout_length("node") == 11
    assert g.layout_length("center") == 10
    assert g.layout_length("extended") == 12
    for layout in ("node", "center", "extended"):
        assert len(g.coords(layout)) == g.layout_length(layout)
    with pytest.raises(ValueError, match="unknown layout"):
        g.coords("edge")


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


def test_field_length_checks():
    g = build_grid(0.0, 1.0, 4)
    assert len(NodeField(np.zeros(5), g)) == 5
    assert len(CenterField(np.zeros(4), g)) == 4
    assert len(ExtendedField(np.zeros(6), g)) == 6
    with pytest.raises(ValueError):
        NodeField(np.zeros(4), g)
    with pytest.raises(ValueError):
        CenterField(np.zeros(5), g)
    with pytest.raises(ValueError):
        ExtendedField(np.zeros(5), g)


def test_fields_are_arraylike_and_frozen():
    g = build_grid(0.0, 1.0, 4)
    f = NodeField(np.arange(5.0), g)
    np.testing.assert_array_equal(np.asarray(f), np.arange(5.0))
    assert f.grid is g
    with pytest.raises(AttributeError):
        f.values = np.zeros(5)


def test_field_array_conversion_copies_only_when_asked():
    g = build_grid(0.0, 1.0, 4)
    f = ExtendedField(np.linspace(0.0, 1.0, 6), g)
    # a dtype change needs a copy, which "copy if needed" must allow
    as_f32 = np.asarray(f, dtype=np.float32)
    assert as_f32.dtype == np.float32
    np.testing.assert_array_equal(as_f32, f.values.astype(np.float32))
    view = np.asarray(f)
    assert np.shares_memory(view, f.values) and not view.flags.writeable
    copy = np.array(f)
    assert not np.shares_memory(copy, f.values) and copy.flags.writeable
    np.testing.assert_array_equal(copy, f.values)


def test_sample_matches_direct_evaluation():
    g = build_grid(0.0, 2.0, 16)
    f = sample(np.cos, "extended", g)
    assert isinstance(f, ExtendedField)
    np.testing.assert_allclose(np.asarray(f), np.cos(g.extended), atol=1e-15)
    u = sample(lambda x: x ** 2, "node", g)
    assert isinstance(u, NodeField)
    np.testing.assert_allclose(np.asarray(u), g.nodes ** 2, atol=1e-15)


def test_extend_center_field_appends_boundary_values():
    g = build_grid(0.0, 1.0, 4)
    c = CenterField(np.array([1.0, 2.0, 3.0, 4.0]), g)
    e = extend_center_field(c, -7.0, 7.0)
    assert isinstance(e, ExtendedField)
    np.testing.assert_array_equal(np.asarray(e), [-7.0, 1.0, 2.0, 3.0, 4.0, 7.0])
    with pytest.raises(ValueError, match="CenterField"):
        extend_center_field(NodeField(np.zeros(5), g), 0.0, 0.0)  # type: ignore[arg-type]
