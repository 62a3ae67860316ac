"""Order-k mimetic divergence/gradient operators on a staggered 1D grid.

Builds, for order k in {2, 4} on a grid with N cells and spacing h:

* ``D``  (N x (N+1)):   node field -> cell-center derivative values,
* ``G``  ((N+1) x (N+2)): extended-center field -> node derivative values,
* ``D_hat`` ((N+2) x (N+1)): ``D`` with zero first/last rows appended,
* ``Q``  ((N+2) diagonal), ``P`` ((N+1) diagonal): strictly positive
  quadrature weights defining the discrete inner products,
* ``B_hat = Q*D_hat + G^T*P`` ((N+2) x (N+1)): the boundary operator,
* ``L = D_hat*G`` ((N+2) x (N+2)): the Laplacian,
* ``I_D`` ((N+2) x (N+1)), ``I_G`` ((N+1) x (N+2)): interpolants.

Interior rows of G and D are the standard centered staggered stencils of
order k; boundary rows are one-sided width-(k+1) stencils, exact on
monomials x^0..x^k, whose coefficients are Lagrange's formula.  Quadrature
weights are forced by the discrete conservation law ``1^T Q D_hat v =
v_N - v_0`` (interior weights equal h); node weights minimize the column-wise
duality defect of ``B_hat`` with the corner weight pinned so that
``B_hat[0,0] = -1`` exactly.

Every operator is kept in one exact form from construction to sparse
matrix: Python integers over one positive denominator, as its left-closure
rows, its centered interior template, and a mirror sign.  The right-end
rows are the left closure reflected (row i -> n-1-i, column j -> m-1-j)
times -1 for G, D, D_hat and B_hat, +1 for the interpolants, L, Q and P.
Q and P are diagonal: their closures hold the boundary-zone weights, and
their template is the interior weight h (1 at unit spacing).  Exact
arithmetic and Python-level work are spent only in the closure zones, so
they do not grow with N: the closures (interior weights are exactly h and
are never formed one by one), the rows of B_hat within P's depth plus
the stencil reach of each end, and L's first k+1 rows (row k is interior,
the product of the two interior stencils, and gives L's template).
Interior rows of B_hat are empty.  The one-sided and centered stencils of
G, D and the interpolants depend on k only: each row is the Lagrange
basis's values or derivatives at its point, as integer products over grid
points derived from k (times 2, so integers), formed once per order, and N
only sets their shapes.  Q's conservation system is set on D's integer
rows; B_hat's Q*D_hat rows are formed once, the node weights read off them
and G's rows, and G^T*P added into them; Q's exact solve eliminates on
sparse integer rows.  Fractions appear only as the stencil weights, the
solver's results and the node weights, each turned into integers over its
operator's denominator.  On conversion to sparse floats (scaled by powers
of h) each entry v/den is ``v / den``, the float nearest it; the closure and
mirror rows are written entry by entry and the interior rows one template
column at a time, into preallocated arrays.  The exact stage is cached per
(k, N) and the operator set per (k, grid); within a set each float operator
is converted on its first use and kept, so a run converts only the operators
its system reads.

The float operators live as kernel arrays: the ``data``, ``indices``,
``indptr`` and ``shape`` that scipy's compiled CSR kernel reads
(``MimeticOperatorSet.kernels``).  The time-stepping path multiplies with
them through ``matvec``, which runs that kernel, loaded by file from scipy's
install when this module loads, without importing the ``scipy.sparse``
package (most of ``import mimkit``'s time when it did), and ``dump_operator``
reads them directly.  The public ``scipy.sparse`` matrices (``ops.D``,
``ops.Q``, ...) are built on first access, over the same arrays, and cached;
only they import ``scipy.sparse``.

Structure of ``B_hat``: the corner entries are exactly ``B_hat[0,0] = -1``
and ``B_hat[N+1,N] = +1``.  For k=2 they are the only entries of the first
and last rows; for k=4 both one-sided gradient rows touch the boundary
sample, so the first row also carries ``B_hat[0,1] = p_1*G[1,0] ~ 0.0992``,
mirrored with opposite sign in the last row.  The nonzero rows form a
boundary closure zone at each end whose depth and entries are the same at
every N from 32 up: 2 rows for k=2, 15 rows for k=4 (rows 1-5 carry
entries 0.02-0.46, rows 6-15 fall geometrically from 8e-4 to 5e-18).
The right-end zone is the antisymmetric mirror of the left, and every other
row is exactly zero.  The zone cannot be emptied without losing the O(h)
Gauss residual: ``G*1 = 0`` and the conservation law give ``1^T B_hat =
(-1, 0, ..., 0, 1)``, so if rows 1..N vanished the first and last rows would
reduce to their corners and ``mimetic_identity_residual`` would be
identically zero.

Each order has one boundary-zone depth, ``_Q_ZONE[k]`` cells, over which
Q's weights may differ from h: 12 at k=4, whose conservation solve decays
~26x per cell (truncated there: residual ~1e-14), 0 at k=2, whose stencil
telescopes.  P's node weights span zone + k nodes, B_hat's rows that + 1 +
k/2.  Grids from N = 2*zone + k on solve for the zone's weights, smaller
ones for all N; the last equation is implied, and the weights mirror, so Q
and P are built from their left-end weights.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import numbers
import os
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConstructionError
from .grid_fields import StaggeredGrid1D

__all__ = [
    "SUPPORTED_ORDERS",
    "MimeticOperatorSet",
    "build_operator_set",
    "mimetic_identity_residual",
    "dump_operator",
]

# Q's boundary-zone depth per order, the one per-order depth: the least m
# with rho^-m < 2^-52, rho the growing root of D's centered stencil
# polynomial over (z - 1) (z^2 - 26z + 1 at k=4; a constant at k=2).
_Q_ZONE = {2: 0, 4: 12}
SUPPORTED_ORDERS = tuple(_Q_ZONE)


# ---------------------------------------------------------------------------
# exact rational construction (unit spacing)
# ---------------------------------------------------------------------------

def _solve_exact(A, b):
    """The exact solution of the square integer system A x = b, as
    Fractions; raises on a singular one.  The construction solves only Q's
    weight systems (``_build_q``).

    Fraction-free Gauss-Jordan elimination (integer-preserving, as in
    Bareiss, Math. Comp. 22, 1968): each row of [A | b] is kept as a sparse
    integer row, and one Fraction per unknown is formed at the end.  Each
    column is cleared below its pivot, then above it from the last pivot
    back, when the pivot row holds only its pivot and right-hand side; so a
    banded system (Q's) fills in nothing above its band."""
    n = len(A)
    rows = [{j: c for j, c in enumerate([*row, bi]) if c} for row, bi in zip(A, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if col in rows[r]), None)
        if piv is None:
            raise ConstructionError("singular weight system")
        rows[col], rows[piv] = rows[piv], rows[col]
        for r in range(col + 1, n):
            if col in rows[r]:
                rows[r] = _cancel(rows[r], rows[col], col)
    for top in reversed(range(n)):  # pivot row top holds column top
        for r in range(top):
            if top in rows[r]:
                rows[r] = _cancel(rows[r], rows[top], top)
    return [Fraction(row.get(n, 0), row[col]) for col, row in enumerate(rows)]


def _cancel(row, p, col):
    """``row`` times a minus pivot row ``p`` times f, the smallest integers
    that cancel column ``col``, divided by the gcd of what is left."""
    g = math.gcd(p[col], row[col])
    a, f = p[col] // g, row[col] // g
    new = {j: a * v for j, v in row.items()}
    for j, v in p.items():
        new[j] = new.get(j, 0) - f * v
    g = math.gcd(*new.values())
    return {j: v // g for j, v in new.items() if v}


def _lagrange_row(points, x, slope):
    """The exact weights of the Lagrange basis l_i on the distinct integer
    ``points`` at x: l_i(x), or with ``slope`` 2*l_i'(x), the derivative on
    points doubled to integers (T = 2t, so d/dt = 2 d/dT).  The closed form
    of finite-difference weights (Fornberg, Math. Comp. 51, 1988): integer
    products over the other points, then one Fraction per weight."""
    row = []
    for t in points:
        others = [u for u in points if u != t]
        if slope:
            num = 2 * sum(math.prod(x - u for u in others if u != v) for v in others)
        else:
            num = math.prod(x - u for u in others)
        row.append(Fraction(num, math.prod(t - u for u in others)))
    return row


class _CSR(NamedTuple):
    """An operator as the four things scipy's CSR kernel reads: float64
    ``data``, int32 ``indices`` and ``indptr``, and ``(n_rows, n_cols)``."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple


class _Operator(NamedTuple):
    """An exact n x m operator with unit spacing, as integers over one
    positive denominator ``den``: a stored integer v is the entry v/den.

    ``closure`` holds the left-end rows as {column: integer} dicts;
    interior row i is ``template`` {offset: integer} shifted to column
    i + offset; right-end row n-1-i is closure row i mirrored (column j ->
    m-1-j) times ``sign``.  A closure may reach the middle row, which must
    then be its own mirror."""

    den: int
    closure: list
    template: dict
    sign: int
    shape: tuple

    def row(self, i):
        """Row i as {column: integer}, each entry times ``den``."""
        n, m = self.shape
        c = len(self.closure)
        if i >= n - c:
            return {m - 1 - j: self.sign * v for j, v in self.closure[n - 1 - i].items()}
        if i < c:
            return self.closure[i]
        return {i + off: v for off, v in self.template.items()}

    def to_csr(self, scale=1.0) -> _CSR:
        """Float CSR kernel arrays times ``scale``, each written once into
        its preallocated array: closure rows entry by entry, the right-end
        rows as ``row`` mirrors them, interior rows by template column.  An
        entry is ``v / den * scale``: Python's int/int division is correctly
        rounded, so ``v / den`` is ``float(Fraction(v, den))``, the float
        nearest the exact entry."""
        n = self.shape[0]
        c, den = len(self.closure), self.den
        top = [sorted(row.items()) for row in self.closure[:n - c]]
        bottom = [sorted(self.row(i).items()) for i in range(n - c, n)]
        tpl = sorted(self.template.items())
        mid, w = range(len(top), n - len(bottom)), len(tpl)
        first, last = ([e for row in rows for e in row] for rows in (top, bottom))
        a, b = len(first), len(first) + len(mid) * w
        indptr = np.empty(n + 1, dtype=np.int32)
        indptr[:mid.start + 1] = np.cumsum([0, *map(len, top)])
        indptr[mid.start + 1:mid.stop + 1] = a + w * np.arange(1, len(mid) + 1)
        indptr[mid.stop + 1:] = b + np.cumsum([*map(len, bottom)])
        indices = np.empty(b + len(last), dtype=np.int32)
        data = np.empty(b + len(last))
        indices[:a] = [j for j, _ in first]
        indices[b:] = [j for j, _ in last]
        data[:a] = [v / den * scale for _, v in first]
        data[b:] = [v / den * scale for _, v in last]  # (-v) / den is -(v / den), correctly rounded
        rows = np.arange(mid.start, mid.stop, dtype=np.int32)
        block_indices, block_data = (x[a:b].reshape(len(mid), w) for x in (indices, data))
        for j, (off, v) in enumerate(tpl):  # a long inner axis, where a w-wide row is slow
            np.add(rows, off, out=block_indices[:, j])
            block_data[:, j] = v / den * scale
        return _CSR(data, indices, indptr, self.shape)


def _exact(closure, template, sign):
    """``(den, closure, template, sign)``, the exact parts of an ``_Operator``,
    from rows of rationals ({column: rational} dicts): the rows times their
    least common denominator ``den``, in integers."""
    rows = [*closure, template]
    den = math.lcm(*(v.denominator for row in rows for v in row.values()))
    *closure, template = [{j: v.numerator * (den // v.denominator) for j, v in row.items()}
                          for row in rows]
    return den, closure, template, sign


@lru_cache(maxsize=None)
def _stencils(k):
    """The exact parts (``_exact``) of G, D, D_hat, I_D and I_G, by name.
    They depend on the order only, so each stencil is formed once per order.

    G and D take the centered order-k stencil inside: row i of G touches
    extended column i+off and row r of D (centered at x = r + 1/2) node
    r+off, both at the points off - 1/2 about the row's own point, so the
    stencil is antisymmetric, c_{1-off} = -c_off.  G's k/2 closure rows
    (nodes 0..k/2-1) are one-sided on the first k+1 extended centers, D's
    k/2 - 1 on the first k+1 nodes; D_hat is D with a zero row at each end.
    For k=4 both one-sided G rows use the window anchored at the boundary
    point.  Shifting row 1 one slot inward (dropping xi_0) makes the
    composed Laplacian non-normal enough to grow complex eigenvalue pairs
    with Re(lambda) ~ 1/h, i.e. an exponential instability of the
    semi-discrete wave system; anchoring both rows at xi_0 keeps the
    spectrum real and non-positive.

    The interpolants I_D node->extended and I_G extended->node are local
    polynomial interpolation of degree k-1 (exact on monomials <= k-1):
    centered k-point interior rows, one-sided rows from the first k points
    near the ends, and the boundary value itself at the boundary point.

    Each row is Lagrange's formula (``_lagrange_row``) at its own point on
    integer points T = 2t: derivative rows are exact on t^0..t^k (the
    k-point centered stencil on t^k by its antisymmetry), value rows on
    t^0..t^(k-1).  One-sided rows use the extended centers 0, 1, 3, ...,
    2k-1 and nodes 0, 2, ..., 2k.  tests/test_mimetic_ops.py checks the
    exactness in Fractions for k = 2, 4 and 6."""
    ext, nodes = (0, *range(1, 2 * k, 2)), range(0, 2 * k + 1, 2)
    stencil = dict(zip(range(1 - k // 2, k // 2 + 1), _lagrange_row(range(1 - k, k, 2), 0, True)))
    g = [dict(enumerate(_lagrange_row(ext, x, True))) for x in nodes[:k // 2]]
    d = [dict(enumerate(_lagrange_row(nodes, x, True))) for x in ext[1:k // 2]]
    interp = dict(zip(range(-(k // 2), k // 2), _lagrange_row(range(-k, k, 2), -1, False)))
    i_d = [{0: 1}, *(dict(enumerate(_lagrange_row(nodes[:k], x, False))) for x in ext[1:k // 2])]
    i_g = [{0: 1}, *(dict(enumerate(_lagrange_row(ext[:k], x, False))) for x in nodes[1:k // 2])]
    return {
        "G": _exact(g, stencil, -1),
        "D": _exact(d, stencil, -1),
        "D_hat": _exact([{}, *d], {off - 1: c for off, c in stencil.items()}, -1),
        "I_D": _exact(i_d, interp, 1),
        "I_G": _exact(i_g, {off + 1: c for off, c in interp.items()}, 1),
    }


def _build_q(k, N, d):
    """Center weights q_0..q_{u-1} from the left end, as {index: weight},
    forced by the conservation law sum_r q_r*D[r,i] = -delta_{i,0} +
    delta_{i,N} on D's integer rows (the law times D's denominator).  One
    square solve: the equations at nodes 0..u-1 in u unknowns, D's rows past
    the zone that reach those nodes (weight 1) moved to the right-hand side;
    u = zone = ``_Q_ZONE[k]`` from N = 2*zone + k on, else N.  The equation at
    node N is implied (minus the sum of the others: D annihilates constants);
    the solution is unique and D mirrors, so q_i = q_{N-1-i}."""
    zone = _Q_ZONE[k]
    u = zone if N >= 2 * zone + k else N
    rows = [d.row(r) for r in range(min(u + k // 2, N))]
    A = [[row.get(i, 0) for row in rows[:u]] for i in range(u)]
    b = [(-d.den if i == 0 else 0) - sum(row.get(i, 0) for row in rows[u:]) for i in range(u)]
    return dict(enumerate(_solve_exact(A, b)))


def _validate_order_cells(k, N):
    if not isinstance(k, int) or k not in SUPPORTED_ORDERS:
        raise ValueError(f"order k must be one of {SUPPORTED_ORDERS}, got {k!r}")
    if N < 2 * k:
        raise ValueError(f"operator construction requires n_cells >= 2k = {2 * k}, got {N}")
    if (2 * k - 1) * (N + 2) >= 2**31:  # L's entries, indexed by int32 in CSR
        raise ValueError(f"n_cells = {N} is too large for int32 CSR indices at order k = {k}")


def _diagonal(weights, n):
    """The n x n diagonal operator with the rational left-end ``weights``
    ({index: weight}) on its diagonal, mirrored to the right end, and 1
    elsewhere; its closure runs to the deepest weight, read up to the
    middle (a weight past it equals its mirror and is not read)."""
    depth = 1 + max(min(i, n - 1 - i) for i in weights)
    return _Operator(*_exact([{i: weights.get(i, 1)} for i in range(depth)], {0: 1}, 1), (n, n))


@lru_cache(maxsize=64, typed=True)
def _rational_construction(k: int, N: int):
    """All nine operators for (k, N) in exact unit-spacing form, by name.
    G, D, D_hat and the interpolants are the order's stencils shaped for N;
    Q is built from its boundary-zone weights, P from the node weights
    read off B_hat's own Q*D_hat rows, and B_hat and L as exact products of
    integer rows."""
    _validate_order_cells(k, N)
    shapes = {"G": (N + 1, N + 2), "D": (N, N + 1), "D_hat": (N + 2, N + 1),
              "I_D": (N + 2, N + 1), "I_G": (N + 1, N + 2)}
    ops = {name: _Operator(*parts, shapes[name]) for name, parts in _stencils(k).items()}
    g, d_hat = ops["G"], ops["D_hat"]
    q_weights = {r + 1: w for r, w in _build_q(k, N, ops["D"]).items()}
    q = ops["Q"] = _diagonal({0: Fraction(1, 2), **q_weights}, N + 2)
    # B_hat = Q*D_hat + G^T*P (spacing cancels, so this is the physical
    # matrix) and the unit-spacing Laplacian D_hat*G (physical scaling 1/h^2)
    # are formed exactly, on integer rows, in their left rows and mirrored to
    # the right end (up to the middle row on small grids).  Weights differ
    # from 1 only on cells < zone and nodes <= depth = zone + k, and G's
    # stencil reaches k/2 columns past its row, so a B_hat row j >= nb is
    # c_{i-j+1} + c_{j-i} = 0 by the stencil's antisymmetry.
    depth = _Q_ZONE[k] + k
    nb = min(depth + 1 + k // 2, (N + 3) // 2)
    g_rows = [g.row(i) for i in range(nb + 1)]  # G rows past nb start at column nb or later
    qd, qd_rows = q.den * d_hat.den, []  # Q*D_hat rows 0..nb over q.den*d_hat.den
    for j in range(nb + 1):
        w = q.row(j)[j]
        qd_rows.append({i: w * c for i, c in d_hat.row(j).items()})
    # Node weights: the corner weight pins B_hat[0,0] = -1 (D_hat's row 0 is
    # empty), and each node 1..N-1 within depth of either end takes the
    # exact least-squares minimizer of its B_hat column's defect,
    # p_i = -<(Q*D_hat)[:, i], G[i, :]> / |G[i, :]|^2, except the middle
    # node of an even grid, which keeps weight 1 (at k=4 and N < 28 that is
    # not its minimizer).
    weights = {0: Fraction(-g.den, g_rows[0][0])}
    for i in range(1, min(depth, (N - 1) // 2) + 1):
        row = g_rows[i]
        num = sum(qd_rows[j].get(i, 0) * c for j, c in row.items())
        weights[i] = Fraction(-num * g.den, qd * sum(c * c for c in row.values()))
    p = ops["P"] = _diagonal(weights, N + 1)
    if min(v for op in (q, p) for row in op.closure for v in row.values()) <= 0:
        raise ConstructionError(f"non-positive quadrature weight (order k={k}, n_cells N={N})")
    gp = g.den * p.den
    b_left = [{i: v * gp for i, v in row.items()} for row in qd_rows[:nb]]
    for i, row in enumerate(g_rows):
        w = p.row(i)[i] * qd
        for j, gc in row.items():
            if j < nb:
                b_left[j][i] = b_left[j].get(i, 0) + gc * w
    ops["B_hat"] = _Operator(qd * gp, [{i: v for i, v in row.items() if v} for row in b_left],
                             {}, -1, (N + 2, N + 1))
    # D_hat row k is interior and reaches only interior G rows (N >= 2k), so
    # L's row k is the product of the two interior stencils: its template.
    l_rows = [{} for _ in range(k + 1)]
    for j, l_row in enumerate(l_rows):
        for i, c in d_hat.row(j).items():
            for col, gc in g_rows[i].items():
                l_row[col] = l_row.get(col, 0) + c * gc
    *l_left, l_k = l_rows
    ops["L"] = _Operator(d_hat.den * g.den, [{j: v for j, v in row.items() if v} for row in l_left],
                         {col - k: v for col, v in l_k.items()}, 1, (N + 2, N + 2))
    return ops


# ---------------------------------------------------------------------------
# float sparse assembly
# ---------------------------------------------------------------------------

class _LazyKernels(Mapping):
    """Kernel arrays by operator name, in the order of ``scales``: each is
    its exact operator's ``to_csr(scales[name])``, converted on the name's
    first lookup and kept, so a run converts only the operators it reads,
    each once, and iterating converts them all."""

    def __init__(self, exact, scales):
        self._exact, self._scales, self._kernels = exact, scales, {}

    def __getitem__(self, name):
        kernel = self._kernels.get(name)
        if kernel is None:
            kernel = self._kernels[name] = self._exact[name].to_csr(self._scales[name])
        return kernel

    def __iter__(self):
        return iter(self._scales)

    def __len__(self):
        return len(self._scales)


def _kernel_matrix(name):
    """A cached property: kernel operator ``name`` as a ``scipy.sparse``
    ``csr_matrix`` over the same arrays (no copy)."""

    def matrix(self):
        import scipy.sparse as sp

        data, indices, indptr, shape = self.kernels[name]
        return sp.csr_matrix((data, indices, indptr), shape=shape, copy=False)

    return cached_property(matrix)


class MimeticOperatorSet:
    """All order-k operators for one grid, plus the weighted inner products.

    ``MimeticOperatorSet(grid, kernels)``: ``kernels`` maps each of D, G,
    D_hat, Q, P, B_hat, L, I_D and I_G, in that order, to its kernel arrays
    (data, indices, indptr, shape), which ``matvec`` and ``dump_operator``
    take.  It may be a plain dict; ``build_operator_set`` passes a mapping
    that converts each operator on its first lookup and keeps it, and reads
    Q and P here.  The attributes of those names are
    ``scipy.sparse.csr_matrix`` objects built on first access (importing
    ``scipy.sparse`` then) and cached.  They share their arrays with
    ``kernels``, and ``q_diag`` and ``p_diag`` are the ``data`` of Q and P,
    read off ``kernels``, so writing to one writes to the others.

    The inner products are bare weighted dots with no length check of their
    own (numpy refuses a product that does not fit the weights);
    ``integrate`` checks a run's state once, at entry.
    They form ``f * weights`` in a scratch array the set allocates once, so
    they allocate nothing, and take its dot product with ``ndarray.dot``:
    the same BLAS ``ddot`` call as ``np.dot``, so the same value, without
    ``np.dot``'s ``__array_function__`` dispatch, which costs about as much
    as the product itself at a few hundred cells (1.49 against 0.69 us per
    call on 602 floats, numpy 2.4, a shared 2-core Intel Xeon VM).
    ``build_operator_set`` caches sets, so every system built on the same
    (order, grid) shares that scratch: an operator set, like a system, must
    not be used from two threads at once."""

    D = _kernel_matrix("D")
    G = _kernel_matrix("G")
    D_hat = _kernel_matrix("D_hat")
    B_hat = _kernel_matrix("B_hat")
    I_D = _kernel_matrix("I_D")
    I_G = _kernel_matrix("I_G")
    L = _kernel_matrix("L")
    Q = _kernel_matrix("Q")
    P = _kernel_matrix("P")

    def __init__(self, grid: StaggeredGrid1D, kernels: Mapping):
        self.grid, self.kernels = grid, kernels
        self.q_diag, self.p_diag = kernels["Q"].data, kernels["P"].data
        self._q_scratch, self._p_scratch = np.empty_like(self.q_diag), np.empty_like(self.p_diag)

    def inner_q(self, f, g) -> float:
        """<f, g>_Q over extended-center fields."""
        return float(np.multiply(f, self.q_diag, out=self._q_scratch).dot(g))

    def inner_p(self, u, v) -> float:
        """<u, v>_P over node fields."""
        return float(np.multiply(u, self.p_diag, out=self._p_scratch).dot(v))


def _load_csr_matvec():
    """scipy's compiled ``csr_matvec``, loaded from the ``_sparsetools``
    extension file in scipy's install without importing scipy or
    ``scipy.sparse`` (finding the spec of a top-level package does not
    import it)."""
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None or scipy_spec.origin is None:
        raise ImportError("mimkit needs scipy's compiled CSR kernel, and scipy is not installed")
    sparse_dir = os.path.join(os.path.dirname(scipy_spec.origin), "sparse")
    spec = importlib.machinery.PathFinder.find_spec("_sparsetools", [sparse_dir])
    if spec is None:
        raise ImportError(f"scipy's compiled CSR kernel {sparse_dir}/_sparsetools.* is missing")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.csr_matvec


_csr_matvec = _load_csr_matvec()


def matvec(M, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the CSR product ``M @ x`` into the float array ``out`` and
    return it; ``out`` must not overlap ``x``.  ``M`` is anything with CSR
    ``data``, ``indices``, ``indptr`` and ``shape``: an operator's kernel
    arrays (``MimeticOperatorSet.kernels``), which the time-stepping path
    uses, or a ``scipy.sparse`` CSR matrix.

    This is the kernel ``M @ x`` itself runs (scipy's ``csr_matvec``, which
    adds each row's products to the row's entry of a zero-filled result), so
    the result is bitwise the same, signed zeros included.  What it skips is
    ``@``'s dispatch and the allocation of its result, which is most of a
    call at a few hundred cells: on the k=4, N=600 operators other than
    B_hat, ``M @ x`` takes 9.0-10.7 us and this function, shape checks
    included, 5.7-7.1 us, timed side by side (best of 7 x 20000 calls,
    scipy 1.17, a busy 2-core Intel Xeon VM), and a shallow-water ``rhs``
    makes five matvecs.
    Writing ``M @ x`` into ``out`` instead keeps both costs; on the wave
    that left the splitting steps as slow as allocating ones.  The kernel is
    loaded from its extension file in scipy's install when this module
    loads, without importing ``scipy.sparse``, so a scipy without it fails
    at ``import mimkit`` rather than inside a run; this is the only place
    the package uses it.

    The kernel does no bounds checks, so the shapes are checked here, as
    ``@`` does, and a wrong-length ``x`` or ``out`` raises ValueError; an
    ``out`` whose dtype cannot hold the result is refused by the kernel
    itself, also with ValueError.
    """
    n_rows, n_cols = M.shape
    if x.shape != (n_cols,) or out.shape != (n_rows,):
        raise ValueError(f"matvec: a {n_rows}x{n_cols} matrix needs x of shape ({n_cols},) "
                         f"and out of shape ({n_rows},), got {x.shape} and {out.shape}")
    out.fill(0.0)
    _csr_matvec(n_rows, n_cols, M.indptr, M.indices, M.data, x, out)
    return out


@lru_cache(maxsize=64, typed=True)
def build_operator_set(k: int, grid: StaggeredGrid1D) -> MimeticOperatorSet:
    """Build (or fetch from cache) the operator set of (k, grid) on its kernels.

    B_hat and L are assembled in exact rational arithmetic (the identity
    B_hat = Q*D_hat + G^T*P is exact by construction and h-independent), so
    rows outside the boundary closure zone are exactly zero.  An order, size
    or spacing it cannot build (1/h**2 must be a finite float) raises ValueError;
    the order is any integer, numpy's too, but not a bool.
    The exact construction runs here; of the float kernels only Q and P are
    converted here (``q_diag`` and ``p_diag``), and each other one on its
    first lookup in ``kernels`` (``_LazyKernels``).
    """
    if isinstance(k, numbers.Integral) and not isinstance(k, bool):
        k = int(k)  # numpy's integers too: one exact stage per order
    exact = _rational_construction(k, grid.n_cells)
    h = grid.h
    if not 1e-150 < h < 1e150:
        raise ValueError(f"grid spacing h = {h!r} must lie in (1e-150, 1e150)")
    # in the order dump-ops prints them
    scales = {"D": 1.0 / h, "G": 1.0 / h, "D_hat": 1.0 / h, "Q": h, "P": h,
              "B_hat": 1.0, "L": 1.0 / h**2, "I_D": 1.0, "I_G": 1.0}
    return MimeticOperatorSet(grid, _LazyKernels(exact, scales))


def mimetic_identity_residual(ops: MimeticOperatorSet, v, f_hat) -> float:
    """|<D_hat v, f>_Q + <v, G f>_P - (v_N f_N - v_0 f_0)|.

    The discrete Gauss identity; O(h) for smooth fields with nonzero
    boundary values, machine-zero when the boundary terms are inert.
    """
    N = ops.grid.n_cells
    v = np.asarray(v, dtype=float)
    f_hat = np.asarray(f_hat, dtype=float)
    if v.shape != (N + 1,) or f_hat.shape != (N + 2,):
        raise ValueError(
            f"mimetic_identity_residual expects v of length {N + 1} and f_hat of "
            f"length {N + 2}, got shapes {v.shape} and {f_hat.shape}"
        )
    d_hat_v = matvec(ops.kernels["D_hat"], v, np.empty(N + 2))
    g_f = matvec(ops.kernels["G"], f_hat, np.empty(N + 1))
    lhs = ops.inner_q(d_hat_v, f_hat) + ops.inner_p(v, g_f)
    boundary = v[-1] * f_hat[-1] - v[0] * f_hat[0]
    return abs(lhs - boundary)


def dump_operator(matrix) -> str:
    """Serialize a CSR operator as matrix-market-style triples.

    ``matrix`` is anything with CSR ``data``, ``indices``, ``indptr`` and
    ``shape``, as for ``matvec``: an operator's kernel arrays or a
    ``scipy.sparse`` CSR matrix.  One line per stored entry: ``row col
    value`` with 17 significant digits, sorted row-major whatever the order
    of the stored indices.  Returns the text.
    """
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    order = np.lexsort((matrix.indices, rows))
    return "".join(f"{r} {c} {v:.17g}\n" for r, c, v in zip(
        rows[order].tolist(), matrix.indices[order].tolist(), matrix.data[order].tolist()))
