"""Independent oracles for the test suite.

Everything in this module is computed from first principles — dense
Vandermonde solves, closed-form solutions, quadrature of known functions —
without calling into ``mimkit``, so the package is never used to validate
itself.  Tests import these helpers and compare the package's output
against them.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

# ---------------------------------------------------------------------------
# Finite-difference stencils
# ---------------------------------------------------------------------------


def fd_weights(points: Sequence[float], x0: float, der: int = 1) -> np.ndarray:
    """Weights w such that sum(w[j] * f(points[j])) approximates f^(der)(x0),
    exact for polynomials of degree < len(points).

    Solved from the Vandermonde moment conditions
        sum_j w_j (points_j - x0)^m = der! * delta(m, der),  m = 0..n-1.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.size
    if der >= n:
        raise ValueError("need more points than the derivative order")
    A = np.vander(pts - x0, N=n, increasing=True).T
    rhs = np.zeros(n)
    rhs[der] = math.factorial(der)
    return np.linalg.solve(A, rhs)


def fd_weights_exact(points: Sequence[Fraction], x0: Fraction,
                     der: int = 1) -> List[Fraction]:
    """Exact-rational version of :func:`fd_weights` (Gaussian elimination
    over ``fractions.Fraction``), for comparing stencil tables digit-for-digit."""
    pts = [Fraction(p) - Fraction(x0) for p in points]
    n = len(pts)
    if der >= n:
        raise ValueError("need more points than the derivative order")
    A = [[pts[j] ** m for j in range(n)] for m in range(n)]
    b = [Fraction(0)] * n
    b[der] = Fraction(math.factorial(der))
    # forward elimination with partial pivoting on exact rationals
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(col + 1, n):
            m = A[r][col] / A[col][col]
            if m == 0:
                continue
            b[r] -= m * b[col]
            for c in range(col, n):
                A[r][c] -= m * A[col][c]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = b[r] - sum(A[r][c] * x[c] for c in range(r + 1, n))
        x[r] = acc / A[r][r]
    return x


def rational_solve(A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
                   ) -> Tuple[Optional[List[Fraction]], int, bool]:
    """Exact analysis of an m x n system A x = b over ``fractions.Fraction``
    (dense forward elimination, then back substitution).

    Returns ``(solution, rank, consistent)``: the rank of A, whether b lies
    in A's column space, and the unique solution when there is one
    (consistent and rank n), else None.  No rows is the 0 x 0 system, whose
    solution is empty."""
    M = [[Fraction(a) for a in row] + [Fraction(bi)] for row, bi in zip(A, b)]
    m, n = len(M), len(M[0]) - 1 if M else 0
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, m) if M[r][col] != 0), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        for r in range(rank + 1, m):
            f = M[r][col] / M[rank][col]
            if f != 0:
                M[r] = [x - f * y for x, y in zip(M[r], M[rank])]
        rank += 1
    # rows past the rank are zero in A, so only their right-hand side can differ
    consistent = all(M[r][n] == 0 for r in range(rank, m))
    if not consistent or rank < n:
        return None, rank, consistent
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):  # pivot r sits in column r when rank == n
        x[r] = (M[r][n] - sum(M[r][c] * x[c] for c in range(r + 1, n))) / M[r][r]
    return x, rank, consistent


def zone_depth(k: int) -> Tuple[int, float]:
    """(depth, m*): the boundary-zone depth of order k's quadrature weights
    and the real number it rounds up.  The conservation law
    sum_r q_r*D[r, i] = 0 on interior nodes is a recursion whose modes are
    the roots of D's centered order-k stencil polynomial sum_off c_off
    z^(k/2 - off); z = 1 (constant weights) is one root, and the quotient by
    (z - 1) is palindromic, so its roots pair as rho, 1/rho.  A boundary
    deviation decays like rho^-m for the growing root rho, so it falls below
    2^-52 for m > m* = 52 ln 2 / ln|rho|, and the depth is the least such
    integer m.  A constant quotient (k = 2) has no mode: (0, 0.0)."""
    points = [Fraction(2 * j - k + 1, 2) for j in range(k)]  # offsets 1-k/2..k/2 less 1/2
    stencil = [float(c) for c in fd_weights_exact(points, Fraction(0))]
    quotient, _ = np.polydiv(stencil, [1.0, -1.0])
    rho = max(np.abs(np.roots(quotient)), default=1.0)
    if rho <= 1.0:
        return 0, 0.0
    m_star = 52 * math.log(2) / math.log(rho)
    return math.floor(m_star) + 1, m_star


# ---------------------------------------------------------------------------
# Convergence-order fitting
# ---------------------------------------------------------------------------


def observed_orders(errors: Sequence[float]) -> List[float]:
    """log2 ratios of successive errors under grid doubling."""
    errs = [float(e) for e in errors]
    return [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]


def fit_order(hs: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(h)."""
    return float(np.polyfit(np.log(np.asarray(hs, dtype=float)),
                            np.log(np.asarray(errors, dtype=float)), 1)[0])


# ---------------------------------------------------------------------------
# Quadrature of known functions
# ---------------------------------------------------------------------------


def dense_trapezoid(fn: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                    n: int = 2_000_001) -> float:
    """Composite trapezoid on a very fine grid — reference value for
    integrals of smooth functions."""
    x = np.linspace(a, b, n)
    return float(np.trapezoid(fn(x), x))


# ---------------------------------------------------------------------------
# Closed-form dynamics
# ---------------------------------------------------------------------------


def rotation_exact(q0: float, p0: float, t: float) -> Tuple[float, float]:
    """Exact flow of the unit harmonic oscillator q' = p, p' = -q."""
    c, s = math.cos(t), math.sin(t)
    return q0 * c + p0 * s, -q0 * s + p0 * c


def rk4_amplification(dt: float, lam: float = -1.0) -> np.ndarray:
    """The exact one-step matrix of classical RK4 applied to q' = p,
    p' = lam*q: the degree-4 Taylor truncation of exp(dt*A),
    A = [[0, 1], [lam, 0]].  The default lam = -1 is the oscillator, whose
    exp(dt*A) is the rotation; any other lam is one eigenmode of a linear
    wave system u' = v, v' = L u."""
    A = np.array([[0.0, 1.0], [lam, 0.0]])
    M = np.eye(2)
    term = np.eye(2)
    for j in range(1, 5):
        term = term @ (dt * A) / j
        M = M + term
    return M


def splitting_amplification(drifts: Sequence[float], kicks: Sequence[float], dt: float,
                            lam: float = -1.0) -> np.ndarray:
    """The exact one-step matrix of the drift-kick splitting with weights
    (drifts, kicks) applied to q' = p, p' = lam*q: drift a_1, kick b_1, ...,
    kick b_s, drift a_{s+1}, where a drift is [[1, a*dt], [0, 1]] and a kick
    [[1, 0], [b*dt*lam, 1]]."""
    M = np.array([[1.0, drifts[0] * dt], [0.0, 1.0]])
    for a, b in zip(drifts[1:], kicks):
        kick = np.array([[1.0, 0.0], [b * dt * lam, 1.0]])
        drift = np.array([[1.0, a * dt], [0.0, 1.0]])
        M = drift @ kick @ M
    return M


def standing_wave(x: np.ndarray, t: float) -> np.ndarray:
    """u(x, t) = sin(pi x) cos(pi t): zero-boundary wave solution on [0, 1]."""
    return np.sin(np.pi * np.asarray(x, dtype=float)) * math.cos(math.pi * t)


def standing_wave_velocity(x: np.ndarray, t: float) -> np.ndarray:
    """du/dt of :func:`standing_wave`."""
    return (-math.pi * math.sin(math.pi * t)
            * np.sin(np.pi * np.asarray(x, dtype=float)))


def linear_wave_flow(A: np.ndarray, u0: np.ndarray, t: float) -> np.ndarray:
    """Exact solution at time t of the linear semi-discrete wave u'' = A u
    with u(0) = u0 and u'(0) = 0: V cos(t sqrt(-Lambda)) V^-1 u0, from a
    dense eigendecomposition A = V Lambda V^-1 (A's spectrum real and
    non-positive)."""
    lam, V = np.linalg.eig(np.asarray(A, dtype=float))
    c = np.cos(t * np.sqrt(-lam.astype(complex)))
    return (V @ (c * np.linalg.solve(V, np.asarray(u0, dtype=float)))).real


STANDING_WAVE_ENERGY = math.pi ** 2 / 4.0
"""Continuum energy (1/2) \\int_0^1 (u_t^2 + u_x^2) dx of the standing wave —
constant in time: pi^2/4."""


# ---------------------------------------------------------------------------
# Symplecticity
# ---------------------------------------------------------------------------

_J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def map_jacobian(step: Callable[[float, float], Tuple[float, float]],
                 q: float, p: float, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference Jacobian of a phase-space map (q,p)->(q',p')."""
    J = np.empty((2, 2))
    for col, (dq, dp) in enumerate(((eps, 0.0), (0.0, eps))):
        qp, pp = step(q + dq, p + dp)
        qm, pm = step(q - dq, p - dp)
        J[0, col] = (qp - qm) / (2 * eps)
        J[1, col] = (pp - pm) / (2 * eps)
    return J


def symplectic_defect(M: np.ndarray) -> float:
    """max |M^T J M - J| — zero iff the 2x2 map matrix is symplectic."""
    return float(np.abs(M.T @ _J2 @ M - _J2).max())


def tableau_symplecticity_matrix(a, b) -> np.ndarray:
    """m_ij = b_i a_ij + b_j a_ji - b_i b_j, the classical algebraic test:
    a Runge-Kutta map is symplectic iff every m_ij vanishes."""
    b = np.asarray(b, dtype=float)
    s = b.size
    A = np.zeros((s, s))
    for i, row in enumerate(a):
        A[i, : len(row)] = row
    return (b[:, None] * A + (b[:, None] * A).T) - np.outer(b, b)


IMPLICIT_MIDPOINT = (((0.5,),), (1.0,))
"""(a, b) of the one-stage implicit midpoint rule, the simplest symplectic
Runge-Kutta method: its symplecticity matrix vanishes."""


# ---------------------------------------------------------------------------
# Relaxation parameter
# ---------------------------------------------------------------------------


def relaxation_gamma_from_samples(h_of_gamma: Callable[[float], float],
                                  h0: float) -> float:
    """Nonzero root of H(gamma) - H0 for a quadratic energy, recovered by
    fitting the parabola through gamma = 0, 1, 2 and using np.roots.

    Independent of any closed-form expression for the root: only three
    energy evaluations and a polynomial solve.
    """
    g = np.array([0.0, 1.0, 2.0])
    vals = np.array([h_of_gamma(x) - h0 for x in g])
    coeffs = np.polyfit(g, vals, 2)  # a g^2 + b g + c
    roots = np.roots(coeffs)
    roots = roots[np.isreal(roots)].real
    nonzero = roots[np.abs(roots) > 1e-10]
    if nonzero.size == 0:
        return 0.0
    # the relaxation parameter is the root nearest 1
    return float(nonzero[np.argmin(np.abs(nonzero - 1.0))])


# ---------------------------------------------------------------------------
# Splitting coefficients
# ---------------------------------------------------------------------------

FOREST_RUTH_THETA = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
"""theta of the triple-jump composition: three leapfrog sub-steps of sizes
theta, 1 - 2*theta, theta yield a fourth-order method."""


def forest_ruth_drift_kick() -> Tuple[np.ndarray, np.ndarray]:
    """(c, d): position (drift) and velocity (kick) coefficients of the
    Forest-Ruth scheme, derived from the triple-jump theta."""
    th = FOREST_RUTH_THETA
    c = np.array([th / 2.0, (1.0 - th) / 2.0, (1.0 - th) / 2.0, th / 2.0])
    d = np.array([th, 1.0 - 2.0 * th, th])
    return c, d
