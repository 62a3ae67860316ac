"""Mimetic operator construction: exactness, duality structure, quadrature,
conservation, spectra, and serialization.

Tests marked ``xfail(strict=True)`` encode stated properties that the
operator family provably cannot satisfy together with the ones it does
satisfy; each carries the mechanism in its docstring and has a green
companion pinning down what actually holds.
"""
from __future__ import annotations

import hashlib
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimkit import (
    SUPPORTED_ORDERS,
    ConstructionError,
    MimeticOperatorSet,
    SchemeKind,
    ShallowWaterSystem,
    WaveSystem,
    build_grid,
    build_operator_set,
    cfl_dt,
    dump_operator,
    gaussian_ic,
    integrate,
    mimetic_identity_residual,
    shallow_water_ic,
)
from mimkit import mimetic_ops
from mimkit.mimetic_ops import _solve_exact, matvec

OPERATORS = ("D", "G", "D_hat", "Q", "P", "B_hat", "L", "I_D", "I_G")

from oracles import (
    fd_weights_exact,
    fit_order,
    linear_wave_flow,
    observed_orders,
    rational_solve,
    standing_wave,
    zone_depth,
)

# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def test_supported_orders():
    assert SUPPORTED_ORDERS == (2, 4)


def test_build_rejects_bad_inputs(grid01):
    with pytest.raises(ValueError, match="order k"):
        build_operator_set(3, grid01)
    with pytest.raises(ValueError, match="n_cells"):
        build_operator_set(4, build_grid(0.0, 1.0, 7))
    # minimum size is exactly 2k
    assert build_operator_set(4, build_grid(0.0, 1.0, 8)) is not None
    # a float order neither hits the cached int entry nor builds
    build_operator_set(4, grid01)
    with pytest.raises(ValueError, match="order k"):
        build_operator_set(4.0, grid01)


def test_operator_set_is_cached(grid01):
    assert build_operator_set(2, grid01) is build_operator_set(2, grid01)


# ---------------------------------------------------------------------------
# Exact solver and bitwise construction
# ---------------------------------------------------------------------------

@st.composite
def _square_systems(draw):
    """(singular, A, b): a square system over small integers with a random
    b; when ``singular``, its last column is an integer combination of the
    others (all zero for one unknown)."""
    singular = draw(st.booleans())
    n = draw(st.integers(1, 5))
    ints = st.integers(-9, 9)
    A = draw(st.lists(st.lists(ints, min_size=n, max_size=n), min_size=n, max_size=n))
    if singular:
        weights = draw(st.lists(ints, min_size=n - 1, max_size=n - 1))
        for a in A:
            a[-1] = sum(w * c for w, c in zip(weights, a))
    return singular, A, draw(st.lists(ints, min_size=n, max_size=n))


@settings(max_examples=100)
@given(system=_square_systems())
def test_solve_exact_matches_rational_oracle(system):
    """The fraction-free solver returns the oracle's exact solution of a
    nonsingular square integer system, every entry a Fraction, and refuses
    a singular one."""
    singular, A, b = system
    solution, rank, _ = rational_solve(A, b)
    if singular:
        assert rank < len(A)
    if rank < len(A):
        with pytest.raises(ConstructionError, match="^singular weight system$"):
            _solve_exact(A, b)
    else:
        x = _solve_exact(A, b)
        assert x == solution and all(type(xi) is Fraction for xi in x)


def test_construction_solves_match_rational_oracle(monkeypatch):
    """Every system the exact construction solves is square and has the
    oracle's exact solution: Q's one conservation solve, in all N weights
    below N = 2*zone + k (28 at k = 4) and in the order's zone from there
    on (12 weights at k = 4, none at k = 2, whose zone is empty), with the
    equation at node N left out as implied (the law itself is checked in
    ``test_quadrature_weights_satisfy_the_conservation_law_exactly``).  The
    stencil rows are not solved; their exactness is
    ``test_stencil_rows_are_exact_in_fractions``."""
    solved = []

    def recording(A, b):
        solved.append((A, b, _solve_exact(A, b)))
        return solved[-1][2]

    monkeypatch.setattr(mimetic_ops, "_solve_exact", recording)
    for k in SUPPORTED_ORDERS:
        zone, sizes = mimetic_ops._Q_ZONE[k], [*range(2 * k, 41), 600]
        solved.clear()
        for n in sizes:
            mimetic_ops._rational_construction.__wrapped__(k, n)
        assert [len(A) for A, _, _ in solved] == [n if n < 2 * zone + k else zone for n in sizes]
        for A, b, x in solved:
            assert len(b) == len(A) and all(len(row) == len(A) for row in A)
            assert rational_solve(A, b) == (x, len(A), True)


def test_stencils_are_solved_once_per_order(monkeypatch):
    """The stencil and interpolation rows depend on the order only: once
    they are formed, a build at another size forms no stencil row and solves
    only Q's quadrature zone, and G, D, I_D and I_G have the same closures
    and templates."""
    rows, unknowns, lagrange_row = [], [], mimetic_ops._lagrange_row

    def counting_rows(points, x, slope):
        rows.append(x)
        return lagrange_row(points, x, slope)

    def counting_solves(A, b):
        unknowns.append(len(A[0]))
        return _solve_exact(A, b)

    monkeypatch.setattr(mimetic_ops, "_lagrange_row", counting_rows)
    monkeypatch.setattr(mimetic_ops, "_solve_exact", counting_solves)
    mimetic_ops._stencils.cache_clear()
    first = mimetic_ops._rational_construction.__wrapped__(4, 600)
    assert rows
    rows.clear()
    unknowns.clear()
    second = mimetic_ops._rational_construction.__wrapped__(4, 601)
    assert rows == []
    assert unknowns == [mimetic_ops._Q_ZONE[4]]
    for name in ("G", "D", "I_D", "I_G"):
        assert (second[name].den, second[name].closure, second[name].template) == \
            (first[name].den, first[name].closure, first[name].template), name


def _doubled_center(c):
    """Extended center c (left of the right boundary) at T = 2t."""
    return 0 if c == 0 else 2 * c - 1


# per stencil operator: the doubled point of row i, of column j, and
# whether its rows are first derivatives (else values)
_STENCIL_POINTS = {
    "G": (lambda i: 2 * i, _doubled_center, True),
    "D": (lambda r: 2 * r + 1, lambda j: 2 * j, True),
    "D_hat": (_doubled_center, lambda j: 2 * j, True),
    "I_D": (_doubled_center, lambda j: 2 * j, False),
    "I_G": (lambda i: 2 * i, _doubled_center, False),
}


@pytest.mark.parametrize("k", [2, 4, 6])
def test_stencil_rows_are_exact_in_fractions(k):
    """Every stencil row, each left-closure row and the interior template
    (placed at row 2k), meets its exactness conditions in Fractions on the
    doubled integer points T = 2t of its columns, at its own point X: a
    derivative row has sum_i c_i*T_i^s = 2s*X^(s-1) for s = 0..k (the
    k-point centered stencil too) and equals the oracle's finite-difference
    weights on the points t, at x = X/2; a value row has sum_i c_i*T_i^s =
    X^s for s = 0..k-1.  ``__wrapped__`` forms k = 6, outside
    SUPPORTED_ORDERS, without caching it."""
    parts = mimetic_ops._stencils.__wrapped__(k)
    assert parts.keys() == _STENCIL_POINTS.keys()
    for name, (den, closure, template, _) in parts.items():
        row_at, col_at, slope = _STENCIL_POINTS[name]
        interior = (2 * k, {2 * k + off: v for off, v in template.items()})
        for r, row in [*enumerate(closure), interior]:
            if not row:  # D_hat's zero first row
                continue
            x, points = row_at(r), [col_at(j) for j in row]
            c = [Fraction(v, den) for v in row.values()]
            for s in range(k + 1 if slope else k):
                want = (2 * s * x ** (s - 1) if s else 0) if slope else x**s
                assert sum(ci * t**s for ci, t in zip(c, points)) == want, (name, r, s)
            if slope:
                assert c == fd_weights_exact([Fraction(t, 2) for t in points], Fraction(x, 2)), \
                    (name, r)


@given(v=st.integers(-10**300, 10**300), den=st.integers(1, 10**320),
       scale=st.floats(allow_nan=False, allow_infinity=False), sign=st.sampled_from((-1, 1)))
def test_integer_entry_converts_as_its_fraction(v, den, scale, sign):
    """An exact entry stored as the integer v over the operator's
    denominator becomes ``v / den * scale`` (``sign * (v / den) * scale`` in
    a mirror row) in the CSR arrays: int/int division is correctly rounded,
    so these are the floats of ``Fraction(v, den)`` (reduced, unlike v/den)
    and of its products, down to subnormals."""
    exact = float(Fraction(v, den))
    assert v / den == exact
    assert v / den * scale == exact * scale
    assert sign * (v / den) * scale == sign * exact * scale


# sha256 over the kernel arrays of every operator set of both orders at
# N = 2k..199, 399, 511, 600, 1000, 1001, 4097 and 9600, each on [0, 1],
# [-30, 30] and [-1, 2.5], in that loop order: per operator, in ``kernels``
# order, the bytes of data, indices and indptr, then repr(shape).  A change
# that moves an operator's bits on purpose re-pins it.
KERNELS_SHA256 = "66c8581b7ff90cabb2292003beb262ba5af141505cf8ceadb108f72a11d76480"


def test_kernel_arrays_bitwise_pinned():
    digest = hashlib.sha256()
    for k in SUPPORTED_ORDERS:
        for n in [*range(2 * k, 200), 399, 511, 600, 1000, 1001, 4097, 9600]:
            for a, b in ((0.0, 1.0), (-30.0, 30.0), (-1.0, 2.5)):
                ops = build_operator_set(k, build_grid(a, b, n))
                for data, indices, indptr, shape in ops.kernels.values():
                    for part in (data.tobytes(), indices.tobytes(), indptr.tobytes(),
                                 repr(shape).encode()):
                        digest.update(part)
    assert digest.hexdigest() == KERNELS_SHA256


@pytest.mark.parametrize("k", SUPPORTED_ORDERS)
def test_to_csr_equals_a_row_by_row_reference(k):
    """``_Operator.to_csr`` gives every operator the kernel arrays a
    row-by-row reference builds from ``row(i)``: each row's entries in
    column order, each ``v / den * scale``, with int32 ``indices`` and
    ``indptr`` and float64 ``data``.  The sizes N = 2k..40 include operators
    whose interior block has no row and one row; B_hat's template is empty
    and L's 2k-1 wide."""
    scale, interior_rows = 1 / 0.3, set()
    for n in range(2 * k, 41):
        exact = mimetic_ops._rational_construction(k, n)
        assert exact["B_hat"].template == {} and len(exact["L"].template) == 2 * k - 1
        for name, op in exact.items():
            rows = [sorted(op.row(i).items()) for i in range(op.shape[0])]
            got = op.to_csr(scale)
            assert (got.data.dtype, got.indices.dtype, got.indptr.dtype) == \
                (np.float64, np.int32, np.int32)
            assert got.shape == op.shape
            assert got.indptr.tolist() == np.cumsum([0, *map(len, rows)]).tolist(), (n, name)
            assert got.indices.tolist() == [j for row in rows for j, _ in row], (n, name)
            want = np.array([v / op.den * scale for row in rows for _, v in row], dtype=np.float64)
            assert got.data.tobytes() == want.tobytes(), (n, name)
            interior_rows.add(max(op.shape[0] - 2 * len(op.closure), 0))
    assert {0, 1} <= interior_rows


# ---------------------------------------------------------------------------
# Exact identities of the rational construction, compared in Fractions at
# every size the construction handles alone (N = 2k..40) and at N = 600
# ---------------------------------------------------------------------------

def _exact_sets(k):
    """(N, the exact unit-spacing operators) for N = 2k..40 and 600."""
    for n in [*range(2 * k, 41), 600]:
        yield n, mimetic_ops._rational_construction(k, n)


def _nonzero(row):
    return {j: v for j, v in row.items() if v}


def _row(op, i):
    """Row i of an exact operator in Fractions."""
    return {j: Fraction(v, op.den) for j, v in op.row(i).items()}


def _rows(op):
    """Every row of an exact operator, zero entries dropped."""
    return [_nonzero(_row(op, i)) for i in range(op.shape[0])]


def _matmul(a, b):
    """The exact product of two operators given as lists of rows."""
    out = []
    for row in a:
        acc = {}
        for i, x in row.items():
            for j, y in b[i].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append(_nonzero(acc))
    return out


def _transpose(rows, n_cols):
    out = [{} for _ in range(n_cols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[j][i] = v
    return out


def _node(j, n):
    return Fraction(j)


def _cell(r, n):
    return Fraction(2 * r + 1, 2)


def _center(c, n):
    """Extended center c at unit spacing: the boundary points 0 and N, and
    the cell centers between them."""
    return Fraction(0) if c == 0 else Fraction(n) if c == n + 1 else Fraction(2 * c - 1, 2)


@pytest.mark.parametrize("k", SUPPORTED_ORDERS)
def test_closure_rows_equal_exact_stencil_weights(k):
    """Every one-sided row of G, D, I_D and I_G, at both ends, is exactly
    the oracle's Vandermonde weights on its window: the first derivative at
    the row's point for G and D, the value there for the interpolants (whose
    boundary rows take the boundary sample itself)."""
    stencil = [range(k + 1)]
    interp = [[0]] + [range(k)] * (k // 2 - 1)
    closures = {  # name: (row point, column point, derivative, window per closure row)
        "G": (_node, _center, 1, stencil * (k // 2)),
        "D": (_cell, _node, 1, stencil * (k // 2 - 1)),
        "I_D": (_center, _node, 0, interp),
        "I_G": (_node, _center, 0, interp),
    }
    for n, exact in _exact_sets(k):
        for name, (row_at, col_at, der, windows) in closures.items():
            n_rows, n_cols = exact[name].shape
            for i, window in enumerate(windows):
                for r, cols in ((i, list(window)), (n_rows - 1 - i, [n_cols - 1 - c for c in window])):
                    weights = fd_weights_exact([col_at(c, n) for c in cols], row_at(r, n), der)
                    assert _nonzero(_row(exact[name], r)) == _nonzero(dict(zip(cols, weights))), \
                        (name, n, r)


@pytest.mark.parametrize("k", SUPPORTED_ORDERS)
def test_boundary_operator_and_laplacian_equal_their_products(k):
    """Every row of B_hat is exactly that of Q*D_hat + G^T*P, and every row
    of L that of D_hat*G, each formed from the exact operators by its
    definition: the closure rows, the exactly-zero interior rows of B_hat
    and L's interior template alike."""
    for n, exact in _exact_sets(k):
        q, d_hat, g, p = (_rows(exact[name]) for name in ("Q", "D_hat", "G", "P"))
        b_hat = [_nonzero({i: x.get(i, 0) + y.get(i, 0) for i in x.keys() | y.keys()})
                 for x, y in zip(_matmul(q, d_hat), _matmul(_transpose(g, n + 2), p))]
        assert _rows(exact["B_hat"]) == b_hat, n
        assert _rows(exact["L"]) == _matmul(d_hat, g), n


@pytest.mark.parametrize("k", SUPPORTED_ORDERS)
def test_node_weights_minimize_boundary_operator_columns(k):
    """The corner node weights pin B_hat[0,0] = -1 (D_hat's first row is
    zero, so p_0 = -1/G[0,0]), and every other node weight p_i is the exact
    least-squares minimizer of its B_hat column q*D_hat[:,i] + p_i*G[i,:]:
    p_i = -sum_j q_j*D_hat[j,i]*G[i,j] / sum_j G[i,j]^2.  The one exception
    is the middle node of an even grid, which keeps weight 1; at k=4 and
    N < 28 that is not the minimizer (0.9618 at N = 8)."""
    for n, exact in _exact_sets(k):
        q = [_row(exact["Q"], j)[j] for j in range(n + 2)]
        p = [_row(exact["P"], i)[i] for i in range(n + 1)]
        d_hat_cols = _transpose(_rows(exact["D_hat"]), n + 1)
        g = _rows(exact["G"])
        assert _row(exact["B_hat"], 0)[0] == -1
        assert p[0] == p[n] == -1 / g[0][0]
        for i in range(1, n):
            if 2 * i == n:
                assert p[i] == 1
                continue
            num = sum(q[j] * d_hat_cols[i].get(j, 0) * c for j, c in g[i].items())
            assert p[i] == -num / sum(c * c for c in g[i].values()), (n, i)


@pytest.mark.parametrize("k", SUPPORTED_ORDERS)
def test_quadrature_weights_satisfy_the_conservation_law_exactly(k):
    """Q's center weights q_r = Q[r+1, r+1] satisfy the conservation law
    sum_r q_r*D[r,i] = -delta_{i,0} + delta_{i,N} exactly, on equations
    built here from D's rows, not by ``_build_q``.  Every equation the solve
    was given holds: nodes 0..N-1 below N = 2*zone + k (28 at k = 4), and
    from there on the zone's nodes 0..zone-1 (0..11 at k = 4), with every
    weight past the zone 1 (their mirrors N-zone+1..N hold too).  Below
    that size the equation at node N, which the solve leaves out as
    implied, holds as well, and the solve's own weights mirror, q_i =
    q_{N-1-i}.  At k = 2 the zone is empty and every equation holds, since
    unit weights telescope on the two-point stencil.  This takes over the
    consistency check the solver made at run time when it was given all
    N + 1 equations."""
    zone = mimetic_ops._Q_ZONE[k]
    for n, exact in _exact_sets(k):
        q = [_row(exact["Q"], r + 1)[r + 1] for r in range(n)]
        law = [Fraction(0)] * (n + 1)
        for r in range(n):
            for i, c in _row(exact["D"], r).items():
                law[i] += q[r] * c
        target = [-1, *[0] * (n - 1), 1]
        u = zone if n >= 2 * zone + k else n
        assert law[:u] == target[:u], n
        if u == n:
            solved = mimetic_ops._build_q(k, n, exact["D"])  # all n weights: Q mirrors the left half
            assert law[n] == 1 and [solved[i] for i in range(n)] == q == q[::-1], n
        else:
            assert q[u:n - u] == [1] * (n - 2 * u) and law[n + 1 - u:] == target[n + 1 - u:], n
        if zone == 0:
            assert law == target, n


@pytest.mark.parametrize("k", SUPPORTED_ORDERS)
def test_conservation_law_holds_on_the_equations_the_zone_leaves_out(k):
    """From N = 2*zone + k on, Q's solve keeps only the zone's equations;
    the law sum_r q_r*D[r,i] = -delta_{i,0} + delta_{i,N} at nodes
    zone..N-zone, formed here in Fractions, then holds as far as the zone's
    truncation allows.  At k = 2 the zone is empty and every equation holds
    exactly.  At k = 4 the exact residual is nonzero only at nodes 12, 13
    and their mirrors, and is at most 7.48e-15 at every size checked
    (N = 28..40 and 600), under the bound 1e-14."""
    zone = mimetic_ops._Q_ZONE[k]
    for n in [*range(28, 41), 600]:
        exact = mimetic_ops._rational_construction(k, n)
        q = [_row(exact["Q"], r + 1)[r + 1] for r in range(n)]
        law = [Fraction(0)] * (n + 1)
        for r in range(n):
            for i, c in _row(exact["D"], r).items():
                law[i] += q[r] * c
        target = [-1, *[0] * (n - 1), 1]
        residual = [law[i] - target[i] for i in range(zone, n - zone + 1)]
        if k == 2:
            assert residual == [0] * (n + 1), n
        else:
            assert float(max(map(abs, residual))) <= 1e-14, n


@pytest.mark.parametrize("k", [2, 4, 6])
def test_zone_depth_is_the_decay_rule(k):
    """Q's boundary-zone depth, the one depth kept per order, is the
    oracle's rule: the least m with rho^-m < 2^-52, rho the growing root of
    D's centered stencil polynomial over (z - 1).  k = 2 has no such root
    (depth 0), k = 4 has m* = 11.07 (depth 12), and the k = 6 stencil that
    ``_stencils(6)`` forms, outside SUPPORTED_ORDERS, has m* = 13.19
    (depth 14).  SUPPORTED_ORDERS is the table's keys."""
    depth, m_star = zone_depth(k)
    assert (depth, round(m_star, 2)) == {2: (0, 0.0), 4: (12, 11.07), 6: (14, 13.19)}[k]
    assert SUPPORTED_ORDERS == tuple(mimetic_ops._Q_ZONE)
    if k in SUPPORTED_ORDERS:
        assert mimetic_ops._Q_ZONE[k] == depth


@pytest.mark.parametrize("n", [40, 64, 600])
@pytest.mark.parametrize("k", SUPPORTED_ORDERS)
def test_closure_zones_end_within_their_depths(k, n):
    """The depths that follow from the zone bound what the construction
    makes: the last non-unit Q weight sits at extended index zone (0 at
    k = 2, the boundary half-weight; 12 at k = 4), the last non-unit P
    weight at node 0 or 13, within P's depth zone + k, and the last nonzero
    B_hat row at 2 or 15, below nb = zone + k + 1 + k/2, the rows B_hat's
    construction forms."""
    zone, exact = mimetic_ops._Q_ZONE[k], mimetic_ops._rational_construction(k, n)
    q, p, b_hat = exact["Q"], exact["P"], exact["B_hat"]
    assert max(i for i in range(n // 2) if q.row(i)[i] != q.den) == zone
    assert max(i for i in range(n // 2) if p.row(i)[i] != p.den) == {2: 0, 4: 13}[k] <= zone + k
    assert max(i for i in range(n // 2) if any(b_hat.row(i).values())) == \
        {2: 2, 4: 15}[k] < zone + k + 1 + k // 2


def test_shapes(ops, grid01):
    n = grid01.n_cells
    assert ops.D.shape == (n, n + 1)
    assert ops.G.shape == (n + 1, n + 2)
    assert ops.D_hat.shape == (n + 2, n + 1)
    assert ops.Q.shape == (n + 2, n + 2)
    assert ops.P.shape == (n + 1, n + 1)
    assert ops.B_hat.shape == (n + 2, n + 1)
    assert ops.L.shape == (n + 2, n + 2)
    assert ops.I_D.shape == (n + 2, n + 1)
    assert ops.I_G.shape == (n + 1, n + 2)


def test_extended_divergence_pads_zero_rows(ops):
    dh = ops.D_hat.toarray()
    assert not dh[0].any() and not dh[-1].any()
    np.testing.assert_array_equal(dh[1:-1], ops.D.toarray())


# ---------------------------------------------------------------------------
# Polynomial exactness (oracle: analytic derivatives)
# ---------------------------------------------------------------------------


@given(n=st.integers(8, 200))
def test_gradient_divergence_exact_on_monomials(order, n):
    grid = build_grid(0.0, 1.0, n)
    ops = build_operator_set(order, grid)
    for p in range(order + 1):
        du_exact_nodes = p * grid.nodes ** (p - 1) if p else np.zeros(n + 1)
        got = ops.G @ (grid.extended ** p)
        assert np.abs(got - du_exact_nodes).max() <= 1e-9
        du_exact_centers = p * grid.centers ** (p - 1) if p else np.zeros(n)
        got = ops.D @ (grid.nodes ** p)
        assert np.abs(got - du_exact_centers).max() <= 1e-9


def test_constants_are_annihilated(ops, grid01):
    n = grid01.n_cells
    assert np.abs(ops.G @ np.ones(n + 2)).max() <= 1e-12
    assert np.abs(ops.D @ np.ones(n + 1)).max() <= 1e-12


# ---------------------------------------------------------------------------
# Stencil structure (oracle: exact-rational Vandermonde weights)
# ---------------------------------------------------------------------------


def _dimensionless(matrix, h):
    return matrix.toarray() * h


def test_interior_stencils_match_vandermonde_weights(order, grid01):
    ops = build_operator_set(order, grid01)
    h = grid01.h
    half = Fraction(1, 2)
    mid = grid01.n_cells // 2
    if order == 2:
        g_pts, g_x0 = [mid - half, mid + half], Fraction(mid)
        d_pts, d_x0 = [Fraction(mid), Fraction(mid + 1)], mid + half
    else:
        g_pts = [mid - 3 * half, mid - half, mid + half, mid + 3 * half]
        g_x0 = Fraction(mid)
        d_pts = [Fraction(mid - 1), Fraction(mid), Fraction(mid + 1), Fraction(mid + 2)]
        d_x0 = mid + half
    expected_g = [float(w) for w in fd_weights_exact(g_pts, g_x0)]
    row = _dimensionless(ops.G, h)[mid]
    np.testing.assert_allclose(row[np.nonzero(row)[0]], expected_g, atol=1e-13)
    expected_d = [float(w) for w in fd_weights_exact(d_pts, d_x0)]
    row = _dimensionless(ops.D, h)[mid]
    np.testing.assert_allclose(row[np.nonzero(row)[0]], expected_d, atol=1e-13)


def test_gradient_boundary_rows_anchored_at_boundary(order, grid01):
    """Both one-sided gradient rows use the window that starts at the
    boundary point itself.  (Shifting the second row one slot inward makes
    the composed Laplacian non-normal enough to grow complex eigenvalue
    pairs with positive real part — an exponential instability.)"""
    ops = build_operator_set(order, grid01)
    gd = _dimensionless(ops.G, grid01.h)
    half = Fraction(1, 2)
    window = [Fraction(0)] + [half + j for j in range(order + 1 - 1)]
    for row_idx in (0, 1) if order == 4 else (0,):
        expected = [float(w) for w in fd_weights_exact(window, Fraction(row_idx))]
        row = gd[row_idx]
        np.testing.assert_allclose(row[np.nonzero(row)[0]], expected, atol=1e-13)


def test_gradient_rows_mirror_antisymmetric(ops):
    """Right-boundary closure is the left one reflected with a sign flip."""
    gd = ops.B_hat is not None and _dimensionless(ops.G, ops.grid.h)
    np.testing.assert_allclose(gd[-1], -gd[0][::-1], atol=1e-13)
    np.testing.assert_allclose(gd[-2], -gd[1][::-1], atol=1e-13)


# ---------------------------------------------------------------------------
# Quadrature weights
# ---------------------------------------------------------------------------


def test_quadrature_weights_strictly_positive(ops, grid01):
    assert ops.q_diag.min() > 0.0
    assert ops.p_diag.min() > 0.0
    # the smallest node weight stays a healthy fraction of h
    assert ops.p_diag.min() / grid01.h > 0.25


def test_construction_refuses_a_non_positive_weight(monkeypatch):
    """A quadrature weight <= 0 would make the inner products indefinite,
    so the construction refuses it rather than build the operators."""
    monkeypatch.setattr(mimetic_ops, "_build_q", lambda k, N, d: {0: Fraction(-1, 2)})
    with pytest.raises(ConstructionError, match="non-positive quadrature weight"):
        mimetic_ops._rational_construction.__wrapped__(4, 64)


def test_extended_weights_sum_to_length_plus_h(order):
    """sum(q) = (b - a) + h exactly: the two boundary points carry half-cell
    weights on top of the N interior cells, a first-order surplus that is
    the price of making the discrete conservation identity exact."""
    grid = build_grid(-2.0, 3.0, 40)
    ops = build_operator_set(order, grid)
    assert ops.q_diag.sum() == pytest.approx(5.0 + grid.h, abs=1e-12)
    assert ops.inner_q(np.ones(42), np.ones(42)) == pytest.approx(5.0 + grid.h, abs=1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="sum(q) = (b - a) + h exactly, not b - a: with the half-cell "
    "boundary weights that make 1^T Q D_hat v = v_N - v_0 exact, the "
    "constant's norm overshoots the domain length by one h; the surplus "
    "cannot be removed without breaking the conservation identity.",
)
def test_unit_constant_q_norm_equals_domain_length(order):
    grid = build_grid(-2.0, 3.0, 40)
    ops = build_operator_set(order, grid)
    assert ops.inner_q(np.ones(42), np.ones(42)) == pytest.approx(5.0, abs=1e-10)


@pytest.mark.xfail(
    strict=True,
    reason="sum(p) != b - a: node weights are fitted per-column to make "
    "B_hat = Q D_hat + G^T P vanish far from the boundary, which fixes "
    "their sum at (b - a) - h/4 for k=2 (and a larger O(h) deficit for "
    "k=4) rather than the domain length.",
)
def test_node_weights_sum_to_domain_length(order):
    grid = build_grid(0.0, 1.0, 32)
    ops = build_operator_set(order, grid)
    assert ops.p_diag.sum() == pytest.approx(1.0, abs=1e-10)


def test_node_weight_sum_known_values():
    """Green companion: the k=2 node-weight sum is exactly (b-a) - h/4."""
    grid = build_grid(0.0, 1.0, 32)
    ops = build_operator_set(2, grid)
    assert ops.p_diag.sum() == pytest.approx(1.0 - grid.h / 4.0, abs=1e-14)


# ---------------------------------------------------------------------------
# Conservation identity (exact by construction)
# ---------------------------------------------------------------------------


@given(n=st.integers(8, 120), seed=st.integers(0, 2**31))
def test_discrete_conservation_identity(order, n, seed):
    """1^T Q D_hat v = v_N - v_0 for arbitrary node fields."""
    grid = build_grid(0.0, 1.0, n)
    ops = build_operator_set(order, grid)
    v = np.random.default_rng(seed).standard_normal(n + 1)
    lhs = float(ops.q_diag @ (ops.D_hat @ v))
    assert abs(lhs - (v[-1] - v[0])) <= 1e-12 * max(1.0, np.abs(v).max())


# ---------------------------------------------------------------------------
# Boundary operator B_hat
# ---------------------------------------------------------------------------


def test_boundary_operator_matches_definition(ops):
    recomputed = ops.Q @ ops.D_hat + ops.G.T @ ops.P
    assert abs(recomputed - ops.B_hat).max() <= 1e-12


def test_boundary_operator_far_rows_exactly_zero(order):
    """Rows far from both boundaries are *exactly* zero (the identity is
    assembled in rational arithmetic), so B_hat acts only near the ends."""
    grid = build_grid(0.0, 1.0, 64)
    ops = build_operator_set(order, grid)
    dense = ops.B_hat.toarray()
    assert not dense[16:-16].any()


def test_boundary_operator_extracts_boundary_values(ops, rng):
    """1^T B_hat = (-1, 0, ..., 0, +1): summed over rows, the boundary
    operator reduces to the boundary-value extraction of Gauss' theorem."""
    n = ops.grid.n_cells
    col_sums = np.ones(n + 2) @ ops.B_hat.toarray()
    assert col_sums[0] == pytest.approx(-1.0, abs=1e-13)
    assert col_sums[-1] == pytest.approx(1.0, abs=1e-13)
    assert np.abs(col_sums[1:-1]).max() <= 1e-13
    assert ops.B_hat[0, 0] == pytest.approx(-1.0, abs=1e-14)
    assert ops.B_hat[-1, -1] == pytest.approx(1.0, abs=1e-14)


@pytest.mark.xfail(
    strict=True,
    reason="interior rows of B_hat do not vanish to 1e-12/h: the k=4 "
    "closure zone is 15 rows deep at each end (rows 1-5 carry entries "
    "0.02-0.46, rows 6-15 fall geometrically from 8e-4 to 5e-18; k=2 has "
    "2 rows of 0.125), independent of h.  Emptying it would contradict the "
    "first-order Gauss residual: G 1 = 0 and the conservation law give "
    "1^T B_hat = (-1, 0, ..., 0, 1), so with rows 1..N zero the residual "
    "would vanish identically.",
)
def test_boundary_operator_interior_rows_vanish(order):
    grid = build_grid(0.0, 1.0, 64)
    ops = build_operator_set(order, grid)
    interior = np.abs(ops.B_hat.toarray()[1:-1]).max()
    assert interior <= 1e-12 / grid.h


# ---------------------------------------------------------------------------
# Discrete Gauss identity
# ---------------------------------------------------------------------------


def test_gauss_identity_residual_first_order(order):
    """<D_hat v, f>_Q + <v, G f>_P - (v_N f_N - v_0 f_0) = O(h) for smooth
    fields with nonzero boundary values, with refinement ratio near 2."""
    residuals = []
    for n in (32, 64, 128):
        grid = build_grid(0.0, 1.0, n)
        ops = build_operator_set(order, grid)
        residuals.append(
            mimetic_identity_residual(ops, np.exp(grid.nodes), np.exp(grid.extended)))
    for ratio in [residuals[i] / residuals[i + 1] for i in range(2)]:
        assert 1.5 <= ratio <= 2.5


def test_gauss_identity_machine_zero_for_interior_fields(order, rng):
    """When both fields vanish near the boundary the residual is rounding
    noise: the identity defect lives only in the boundary closure zone."""
    grid = build_grid(0.0, 1.0, 64)
    ops = build_operator_set(order, grid)
    for _ in range(20):
        v = np.zeros(65)
        f = np.zeros(66)
        v[16:-16] = rng.standard_normal(65 - 32)
        f[16:-16] = rng.standard_normal(66 - 32)
        assert mimetic_identity_residual(ops, v, f) <= 1e-10


def test_gauss_identity_validates_lengths(ops, grid01):
    """Each field is checked against its own layout; a length-1 field would
    otherwise broadcast through the weighted dots and return a number."""
    n = grid01.n_cells
    node, ext = np.zeros(n + 1), np.zeros(n + 2)
    for v, f_hat in ((np.zeros(n), ext), (node, np.zeros(n + 1)), (ext, node),
                     (np.zeros(1), ext), (node, np.zeros(1))):
        with pytest.raises(ValueError, match=f"v of length {n + 1} and f_hat of length {n + 2}"):
            mimetic_identity_residual(ops, v, f_hat)


# ---------------------------------------------------------------------------
# Duality pairing (the energy-conservation mechanism)
# ---------------------------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="the pairing <v, L u>_Q + <G v, G u>_P equals v^T B_hat (G u), "
    "and B_hat keeps O(1) rows in its closure zone (15 rows per end for "
    "k=4, 2 for k=2), so for random zero-boundary states the pairing is "
    "O(1), not 1e-11.  Since G is banded, a zero pairing for every "
    "zero-boundary state would need rows 1..N of B_hat to vanish, which "
    "contradicts the first-order Gauss residual.",
)
def test_duality_pairing_zero_boundary(order, rng):
    grid = build_grid(0.0, 1.0, 64)
    ops = build_operator_set(order, grid)
    worst = 0.0
    for _ in range(100):
        u, v = rng.standard_normal((2, 66))
        u[0] = u[-1] = v[0] = v[-1] = 0.0
        pairing = ops.inner_q(v, ops.L @ u) + ops.inner_p(ops.G @ v, ops.G @ u)
        worst = max(worst, abs(pairing))
    assert worst <= 1e-11


def test_duality_pairing_interior_support(order, rng):
    """Green companion: away from the closure zone the pairing does vanish
    (to rounding amplified by the 1/h^2 entries of L)."""
    grid = build_grid(0.0, 1.0, 64)
    ops = build_operator_set(order, grid)
    for _ in range(50):
        u = np.zeros(66)
        v = np.zeros(66)
        u[16:-16] = rng.standard_normal(66 - 32)
        v[16:-16] = rng.standard_normal(66 - 32)
        pairing = ops.inner_q(v, ops.L @ u) + ops.inner_p(ops.G @ v, ops.G @ u)
        assert abs(pairing) <= 1e-8


# ---------------------------------------------------------------------------
# Inner products
# ---------------------------------------------------------------------------


@given(seed=st.integers(0, 2**31))
def test_inner_products_symmetric_bilinear_positive(order, seed):
    grid = build_grid(0.0, 1.0, 24)
    ops = build_operator_set(order, grid)
    rng = np.random.default_rng(seed)
    f, g = rng.standard_normal((2, 26))
    u, v = rng.standard_normal((2, 25))
    assert ops.inner_q(f, g) == pytest.approx(ops.inner_q(g, f), rel=1e-13, abs=1e-13)
    assert ops.inner_p(u, v) == pytest.approx(ops.inner_p(v, u), rel=1e-13, abs=1e-13)
    assert ops.inner_q(2.5 * f, g) == pytest.approx(2.5 * ops.inner_q(f, g), rel=1e-12, abs=1e-12)
    assert ops.inner_q(f, f) > 0.0
    assert ops.inner_p(u, u) > 0.0


# ---------------------------------------------------------------------------
# Composed Laplacian: spectrum and truncation
# ---------------------------------------------------------------------------


def test_laplacian_spectrum_real_and_nonpositive(order):
    """Regression for the boundary-closure instability: all eigenvalues of
    L = D_hat G are real and non-positive, so the semi-discrete wave system
    has no exponentially growing mode."""
    grid = build_grid(0.0, 1.0, 64)
    ops = build_operator_set(order, grid)
    lam = np.linalg.eigvals(ops.L.toarray())
    scale = np.abs(lam).max()
    assert np.abs(lam.imag).max() <= 1e-8 * scale
    assert lam.real.max() <= 1e-8 * scale


def test_laplacian_slowest_mode_approximates_pi_squared(order):
    """The least-negative nonzero eigenvalue matches the continuum -pi^2
    (two exact zeros come from the padded divergence rows)."""
    grid = build_grid(0.0, 1.0, 64)
    ops = build_operator_set(order, grid)
    lam = np.sort(np.linalg.eigvals(ops.L.toarray()).real)[::-1]
    assert abs(lam[0]) <= 1e-10 and abs(lam[1]) <= 1e-10
    assert lam[2] == pytest.approx(-np.pi ** 2, rel=5e-3)


def test_laplacian_truncation_interior_order_k(order):
    """Away from the closure zone, L u approximates u'' at full order k."""
    errors, hs = [], []
    for n in (64, 128, 256):
        grid = build_grid(0.0, 1.0, n)
        ops = build_operator_set(order, grid)
        u = np.sin(np.pi * grid.extended)
        err = np.abs(ops.L @ u + np.pi ** 2 * u)
        errors.append(err[16:-16].max())
        hs.append(grid.h)
    assert fit_order(hs, errors) == pytest.approx(order, abs=0.2)


def test_laplacian_truncation_max_norm_order_k_minus_one(order):
    """Over all rows the one-sided closures cost one order: O(h^(k-1))."""
    errors = []
    for n in (64, 128, 256):
        grid = build_grid(0.0, 1.0, n)
        ops = build_operator_set(order, grid)
        u = np.sin(np.pi * grid.extended)
        errors.append(np.abs((ops.L @ u + np.pi ** 2 * u)[1:-1]).max())
    for ratio in observed_orders(errors):
        assert ratio == pytest.approx(order - 1, abs=0.15)


@pytest.mark.xfail(
    strict=True,
    reason="max-norm truncation of L = D_hat G is O(h^(k-1)), not O(h^k): "
    "composing two stencils that are individually k-th order accurate "
    "loses one order in the boundary rows, where the outer divergence "
    "differentiates the gradient's O(h^k) closure error across one cell.",
)
def test_laplacian_truncation_max_norm_order_k(order):
    errors = []
    for n in (64, 128, 256):
        grid = build_grid(0.0, 1.0, n)
        ops = build_operator_set(order, grid)
        u = np.sin(np.pi * grid.extended)
        errors.append(np.abs((ops.L @ u + np.pi ** 2 * u)[1:-1]).max())
    for ratio in observed_orders(errors):
        assert ratio >= order - 0.25


def test_semi_discrete_wave_converges_at_order_k(order):
    """The green companion of the xfail above: the semi-discrete standing
    wave, u'' = L u on L's Dirichlet interior block, solved exactly by the
    oracle's eigendecomposition, meets sin(pi x) cos(pi t) at t = 0.8 to
    full order k in the max norm, though L's boundary rows are truncated at
    order k - 1.  It checks the operators' values, not their bits, so it
    holds every closure to that order whatever its depth.  N = 256 is left
    out: there the eigensolver's round-off reaches the k = 4 error."""
    errors = []
    for n in (16, 32, 64, 128):
        grid = build_grid(0.0, 1.0, n)
        x = grid.extended[1:-1]
        u = linear_wave_flow(build_operator_set(order, grid).L.toarray()[1:-1, 1:-1],
                             standing_wave(x, 0.0), 0.8)
        errors.append(np.abs(u - standing_wave(x, 0.8)).max())
    for ratio in observed_orders(errors):
        assert ratio == pytest.approx(order, abs=0.25)


# ---------------------------------------------------------------------------
# Interpolants
# ---------------------------------------------------------------------------


def test_interpolants_exact_through_degree_k_minus_one(order):
    grid = build_grid(0.0, 1.0, 32)
    ops = build_operator_set(order, grid)
    for p in range(order):
        assert np.abs(ops.I_G @ grid.extended ** p - grid.nodes ** p).max() <= 1e-12
        assert np.abs(ops.I_D @ grid.nodes ** p - grid.extended ** p).max() <= 1e-12
    # degree k is genuinely beyond the interpolation order
    assert np.abs(ops.I_G @ grid.extended ** order - grid.nodes ** order).max() > 1e-9


# ---------------------------------------------------------------------------
# In-place products
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [8, 37, 600])
def test_matvec_bitwise_equals_matmul(order, n, rng):
    """``matvec`` runs the kernel ``M @ x`` runs, so it must give the same
    bits for every operator: whatever ``out`` held before (NaN here) is
    overwritten, and signed zeros in the input come out as ``@`` gives
    them (an all -0.0 input, a random one with -0.0 entries)."""
    ops = build_operator_set(order, build_grid(-1.0, 2.0, n))
    for name in OPERATORS:
        M = getattr(ops, name)
        x = rng.standard_normal(M.shape[1])
        x[::3] = -0.0
        for xs in (x, np.full(M.shape[1], -0.0)):
            out = np.full(M.shape[0], np.nan)
            assert matvec(M, xs, out) is out
            assert out.tobytes() == (M @ xs).tobytes(), name


def test_matvec_rejects_wrong_lengths():
    """The kernel does no bounds checks, so ``matvec`` checks the shapes
    itself and raises ValueError, as ``M @ x`` does, rather than read or
    write past an array's end."""
    ops = build_operator_set(4, build_grid(0.0, 1.0, 40))
    M = ops.G  # 41 x 42
    for x, out in ((np.zeros(41), np.empty(41)), (np.zeros(1), np.empty(41)),
                   (np.zeros(42), np.empty(40)), (np.zeros(42), np.empty(42)),
                   (np.zeros((42, 1)), np.empty(41))):
        with pytest.raises(ValueError, match="matvec"):
            matvec(M, x, out)
    with pytest.raises(ValueError):
        matvec(M, np.zeros(42), np.empty(41, dtype=np.float32))


@pytest.mark.parametrize("n", [8, 600])
def test_inner_products_bitwise_equal_allocating_dots(order, n, rng):
    """``inner_q``/``inner_p`` form ``f * weights`` in the set's scratch;
    the result is bitwise the allocating dot, also called twice in a row,
    and a wrong-length argument raises ValueError."""
    ops = build_operator_set(order, build_grid(-1.0, 2.0, n))
    f, g = rng.standard_normal((2, n + 2))
    u, v = rng.standard_normal((2, n + 1))
    for _ in range(2):
        assert ops.inner_q(f, g) == float(np.dot(f * ops.q_diag, g))
        assert ops.inner_p(u, v) == float(np.dot(u * ops.p_diag, v))
    with pytest.raises(ValueError):
        ops.inner_q(u, u)
    with pytest.raises(ValueError):
        ops.inner_p(f, f)


# ---------------------------------------------------------------------------
# Kernel arrays and the scipy.sparse matrices built on first use
# ---------------------------------------------------------------------------

def test_import_build_and_step_leave_scipy_sparse_unloaded(fresh_python):
    """``import mimkit``, building an operator set and systems, their rates
    and energies, and the Gauss residual import no ``scipy.sparse`` module;
    the first access to ``ops.L`` imports it and builds one cached matrix
    over the kernel arrays themselves, as ``ops.Q`` and ``ops.P`` do, and
    ``q_diag`` and ``p_diag`` are the Q and P kernels' ``data``."""
    fresh_python("""
import sys
import numpy as np
import mimkit

def sparse_loaded():
    return sorted(m for m in sys.modules if m.startswith("scipy.sparse"))

assert sparse_loaded() == [], sparse_loaded()
grid = mimkit.build_grid(0.0, 1.0, 40)
ops = mimkit.build_operator_set(4, grid)
wave = mimkit.WaveSystem(ops)
u, v = mimkit.gaussian_ic(grid).arrays()
wave.rhs(u, v), wave.energy(u, v)
water = mimkit.ShallowWaterSystem(ops)
e, w = mimkit.shallow_water_ic(grid).arrays()
water.rhs(e, w), water.energy(e, w)
mimkit.mimetic_identity_residual(ops, grid.nodes, grid.extended)
assert sparse_loaded() == [], sparse_loaded()
assert ops.q_diag is ops.kernels["Q"].data and ops.p_diag is ops.kernels["P"].data

L = ops.L
assert "scipy.sparse" in sys.modules
assert ops.L is L and type(L).__name__ == "csr_matrix"
for name in ("L", "Q", "P"):
    for part in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(getattr(ops, name), part),
                                getattr(ops.kernels[name], part)), (name, part)
""")


@pytest.mark.parametrize("sparse_first", [True, False], ids=["sparse_first", "mimkit_first"])
def test_kernel_matvec_bitwise_equals_scipy_matmul(fresh_python, sparse_first):
    """``matvec`` on each operator's kernel arrays gives the bits of
    ``scipy`` ``M @ x`` on the public matrix, whether ``scipy.sparse`` was
    imported before mimkit loaded its own copy of the kernel or after."""
    imports = ["import scipy.sparse", "import mimkit"]
    fresh_python("\n".join(imports if sparse_first else imports[::-1]) + """
import numpy as np
from mimkit.mimetic_ops import matvec
rng = np.random.default_rng(7)
for k in (2, 4):
    ops = mimkit.build_operator_set(k, mimkit.build_grid(-1.0, 2.0, 37))
    assert list(ops.kernels) == ["D", "G", "D_hat", "Q", "P", "B_hat", "L", "I_D", "I_G"]
    assert len(ops.kernels) == 9
    for name, kernel in ops.kernels.items():
        x = rng.standard_normal(kernel.shape[1])
        x[::3] = -0.0
        got = matvec(kernel, x, np.full(kernel.shape[0], np.nan))
        want = getattr(ops, name) @ x
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (k, name)
""")


@pytest.fixture
def conversions(monkeypatch):
    """A fresh (uncached) k=4, N=40 operator set, and a Counter of the
    operators ``_Operator.to_csr`` has converted since, by name."""
    grid = build_grid(0.0, 1.0, 40)
    names = {id(op): name for name, op in mimetic_ops._rational_construction(4, 40).items()}
    counts = Counter()
    to_csr = mimetic_ops._Operator.to_csr

    def counting_to_csr(op, scale=1.0):
        counts[names[id(op)]] += 1
        return to_csr(op, scale)

    monkeypatch.setattr(mimetic_ops._Operator, "to_csr", counting_to_csr)
    return build_operator_set.__wrapped__(4, grid), counts


@pytest.mark.parametrize("problem,operators", [
    ("wave", {"Q", "P", "L", "G"}),
    ("shallow_water", {"Q", "P", "G", "D_hat", "I_D", "I_G"}),
])
def test_systems_convert_only_the_operators_they_read(conversions, problem, operators):
    """Building a set converts Q and P; building a system converts the
    operators its rates and energy read, each once; steps of every scheme
    that runs on the system (shallow water's energy is not quadratic, so not
    RRK_analytic) convert nothing more."""
    ops, counts = conversions
    assert counts == {"Q": 1, "P": 1}
    if problem == "wave":
        system, state0 = WaveSystem(ops), gaussian_ic(ops.grid).arrays()
    else:
        system, state0 = ShallowWaterSystem(ops), shallow_water_ic(ops.grid).arrays()
    assert counts == dict.fromkeys(operators, 1)
    dt = cfl_dt(ops.grid, 0.5, system.wave_speed)
    for kind in SchemeKind:
        if problem == "shallow_water" and kind is SchemeKind.RRK_ANALYTIC:
            continue
        assert integrate(system, kind, state0, 3 * dt, dt).n_steps == 3
    assert counts == dict.fromkeys(operators, 1)


def test_kernels_convert_once_and_share_with_the_matrices(conversions):
    """A repeated lookup returns the kernel converted first, which the
    ``scipy.sparse`` matrix wraps; iterating converts the rest, each once."""
    ops, counts = conversions
    assert ops.kernels["G"] is ops.kernels["G"]
    assert np.shares_memory(ops.L.data, ops.kernels["L"].data)
    assert counts == {"Q": 1, "P": 1, "G": 1, "L": 1}
    assert [name for name, _ in ops.kernels.items()] == list(OPERATORS)
    assert counts == dict.fromkeys(OPERATORS, 1)
    with pytest.raises(KeyError):
        ops.kernels["M"]


def test_operator_set_from_a_plain_dict(ops):
    """``MimeticOperatorSet`` accepts kernels as a plain dict."""
    kernels = dict(ops.kernels)
    plain = MimeticOperatorSet(ops.grid, kernels)
    assert plain.kernels is kernels and plain.q_diag is ops.q_diag
    assert np.shares_memory(plain.G.data, kernels["G"].data)
    rng = np.random.default_rng(3)
    v, f = rng.standard_normal(ops.grid.n_cells + 1), rng.standard_normal(ops.grid.n_cells + 2)
    assert mimetic_identity_residual(plain, v, f) == mimetic_identity_residual(ops, v, f)


def test_missing_kernel_file_is_an_import_error(monkeypatch):
    """Without scipy's ``_sparsetools`` extension file the kernel load, which
    runs when mimkit is imported, raises ImportError naming the file."""
    import importlib.machinery

    from mimkit import mimetic_ops

    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", lambda *args: None)
    with pytest.raises(ImportError, match="_sparsetools"):
        mimetic_ops._load_csr_matvec()


def test_missing_scipy_is_an_import_error(monkeypatch):
    """Without scipy at all the kernel load raises ImportError saying so."""
    import importlib.util

    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match="scipy is not installed"):
        mimetic_ops._load_csr_matvec()


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_dump_operator_triples_round_trip(ops):
    text = dump_operator(ops.G)
    dense = ops.G.toarray()
    seen = np.zeros_like(dense, dtype=bool)
    previous = (-1, -1)
    for line in text.strip().splitlines():
        r_s, c_s, v_s = line.split()
        r, c, v = int(r_s), int(c_s), float(v_s)
        assert (r, c) > previous  # row-major sorted
        previous = (r, c)
        assert dense[r, c] == v  # 17 significant digits round-trip exactly
        seen[r, c] = True
    assert seen.sum() == ops.G.nnz
    assert dump_operator(ops.G) == text  # deterministic
    for name in OPERATORS:  # the kernel arrays and the scipy matrix dump alike
        assert dump_operator(ops.kernels[name]) == dump_operator(getattr(ops, name)), name
    # each row's entries stored in reverse: the triples still come out row-major
    G = ops.kernels["G"]
    rows = [slice(a, b) for a, b in zip(G.indptr[:-1], G.indptr[1:])]
    flipped = G._replace(data=np.concatenate([G.data[r][::-1] for r in rows]),
                         indices=np.concatenate([G.indices[r][::-1] for r in rows]))
    assert dump_operator(flipped) == text
