"""Hermite expansion machinery for the critical-point count.

Contents: the low-order diagram (Wick) moment formulas of Hermite
polynomials, the exact Gram geometry of the rotation-invariant second-chaos
functionals p(A) = (tr A)^2 and q(A) = tr(A^2), the exact projection
coefficients (x, y) of |det A|, and the closed-form lower bound V_{2,inf}
obtained from the L^2 norms of the radial profiles G_0, G_1, G_2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg, special

from .randmat import _absdet_shift_moments
from .spectrum import SpectralDensity, SpectralMoments, _radial_moment, spectral_moments

__all__ = [
    "Chaos2Geometry",
    "diagram_pair_moments",
    "invariant_means",
    "invariant_gram",
    "chaos2_coefficients",
    "sphere_moment",
    "moment_Jk",
    "msum_inner_products",
    "g_inner_products",
    "v2_infinity",
]


_PATTERNS = ("H1H1", "H2H2", "H2H1H1", "H1H1H1H1")


def diagram_pair_moments(c: np.ndarray, pattern: str) -> float:
    """Closed-form mixed Hermite moments of a standard Gaussian vector.

    c is the correlation matrix of (X_1, ..., X_4) (only the leading block is
    used for the shorter patterns):

        E[H_1(X1) H_1(X2)]                = c12,
        E[H_2(X1) H_2(X2)]                = 2 c12^2,
        E[H_2(X1) H_1(X2) H_1(X3)]        = 2 c12 c13,
        E[H_1(X1) H_1(X2) H_1(X3) H_1(X4)] = c12 c34 + c13 c24 + c14 c23.
    """
    if pattern not in _PATTERNS:
        raise ValueError(f"pattern must be one of {_PATTERNS}")
    c = np.asarray(c, dtype=float)
    need = {"H1H1": 2, "H2H2": 2, "H2H1H1": 3, "H1H1H1H1": 4}[pattern]
    if c.shape[0] < need or c.shape[0] != c.shape[1]:
        raise ValueError(f"correlation matrix must be at least {need} x {need}")
    if not np.allclose(np.diag(c), 1.0, atol=1e-12):
        raise ValueError("correlation matrix must have unit diagonal")
    if np.linalg.eigvalsh(c).min() < -1e-10:
        raise ValueError("correlation matrix is not positive semidefinite")
    if pattern == "H1H1":
        return float(c[0, 1])
    if pattern == "H2H2":
        return float(2.0 * c[0, 1] ** 2)
    if pattern == "H2H1H1":
        return float(2.0 * c[0, 1] * c[0, 2])
    return float(c[0, 1] * c[2, 3] + c[0, 2] * c[1, 3] + c[0, 3] * c[1, 2])


# --- invariant second-chaos geometry ---------------------------------------


def invariant_means(m: int, v: float) -> tuple[float, float]:
    """E[p(A)] = E[q(A)] = m (m + 2) v over S(m; v, v)."""
    mu = m * (m + 2) * v
    return mu, mu


def invariant_gram(m: int, v: float) -> np.ndarray:
    """Exact 2 x 2 Gram matrix of the centered invariants (pbar, qbar).

    Wick raw moments over S(m; v, v):
        E[p^2] = 3 m^2 (m + 2)^2 v^2,
        E[p q] = m (m + 2)^3 v^2,
        E[q^2] = m (m + 2) (m^2 + 2 m + 6) v^2.

    tr A is N(0, m (m + 2) v), which gives E[p^2] = 3 (E p)^2 directly; the
    other two come from Wick pairings of the diagonal, off-diagonal and
    identity-shift contributions.  Centered versions:

        var(p) = 2 m^2 (m + 2)^2 v^2,   cov(p, q) = 2 m (m + 2)^2 v^2,
        var(q) = 6 m (m + 2) v^2,

    all pinned in the tests to exact Wick pairings and to Monte Carlo.  Note
    the asymmetry: p carries the O(m^4) variance while q concentrates at
    O(m^2), and the correlation tends to 1/sqrt(3).
    """
    if m < 2 or v <= 0:
        raise ValueError("need m >= 2 and v > 0")
    ep, eq = invariant_means(m, v)
    epp = 3.0 * m**2 * (m + 2) ** 2 * v**2
    epq = m * (m + 2) ** 3 * v**2
    eqq = m * (m + 2) * (m**2 + 2 * m + 6) * v**2
    return np.array([[epp - ep**2, epq - ep * eq], [epq - ep * eq, eqq - eq**2]])


@dataclass(frozen=True)
class Chaos2Geometry:
    """Projection of f = |det| onto span{1, pbar, qbar} over S(m; v, v)."""

    m: int
    v: float
    gram: np.ndarray
    rhs: tuple[float, float]
    x: float
    y: float
    z: float
    f0: float


def chaos2_coefficients(m: int, v: float) -> Chaos2Geometry:
    """Solve the exact-Gram normal equations with exact right-hand sides.

    The density of S(m; u, v) is proportional to exp(-q / (4 v) + c p) with
    c = u / (4 v (2 v + m u)), so F(u, v) = E|det A| has dF/du =
    cov(p, f) dc/du and dF/dv = cov(q, f) / (4 v^2) + cov(p, f) dc/dv.  With
    Euler's u dF/du + v dF/dv = m F / 2 (F is homogeneous of degree m/2),
    the centered right-hand sides at u = v are

        cov(p, f) = 2 (m + 2)^2 v^2 dF/du,
        cov(q, f) = 2 m v F + cov(p, f) / (m + 2),

    with F and dF/du from the GOE one-point density (randmat).
    """
    gram = invariant_gram(m, v)
    f0, df_du = _absdet_shift_moments(m, v)
    cov_pf = 2.0 * (m + 2) ** 2 * v**2 * df_du
    rhs = np.array([cov_pf, 2.0 * m * v * f0 + cov_pf / (m + 2)])
    xy = linalg.solve(gram, rhs, assume_a="pos")
    return Chaos2Geometry(
        m=m,
        v=v,
        gram=gram,
        rhs=(float(rhs[0]), float(rhs[1])),
        x=float(xy[0]),
        y=float(xy[1]),
        z=-0.5 * f0,
        f0=f0,
    )


# --- radial profiles and V_{2,inf} -----------------------------------------


def sphere_moment(m: int, exponents) -> float:
    """E[prod_i u_i^(2 a_i)] for u uniform on the unit sphere in R^m:
    prod_i (2 a_i - 1)!! divided by prod_{j < sum(a)} (m + 2 j)."""
    a = [int(e) for e in exponents]
    if any(e < 0 for e in a) or len(a) > m:
        raise ValueError("exponents must be nonnegative, at most m of them")
    total = sum(a)
    num = math.prod(math.prod(range(1, 2 * e, 2)) for e in a)  # (2e - 1)!!, (-1)!! = 1
    den = math.prod(m + 2 * j for j in range(total))
    return num / den


def moment_Jk(w: SpectralDensity, k: int) -> float:
    """Radial moment J_k = integral_0^inf w(r)^2 r^k dr of the squared density."""
    return _radial_moment(w, k, 2)


def msum_inner_products(w: SpectralDensity, m: int) -> dict:
    """L^2(w(|lam|) dlam)-type inner products of the three monomial sums

        S0 = sum_i M_ii,  S1 = sum_i M_iiii,  S2 = sum_(j<k) M_jjkk,

    where M_(i1...ik) carries the monomial lam_(i1) ... lam_(ik) w(|lam|).
    Each product reduces to (sphere area) x (exact sphere-average factor)
    x J_k for the appropriate radial moment of w^2.
    """
    omega = 2.0 * math.pi ** (m / 2.0) / special.gamma(m / 2.0)
    j3 = moment_Jk(w, m + 3)
    j5 = moment_Jk(w, m + 5)
    j7 = moment_Jk(w, m + 7)
    npairs = m * (m - 1) // 2
    d8 = m * (m + 2) * (m + 4) * (m + 6)
    return {
        # order 4: average of (sum u_i^2)^2 = 1
        (0, 0): omega * j3,
        # order 6
        (0, 1): omega * j5 * m * sphere_moment(m, (2,)),
        (0, 2): omega * j5 * npairs * sphere_moment(m, (1, 1)),
        # order 8, split by index coincidences
        (1, 1): omega * j7 * (m * 105 + m * (m - 1) * 9) / d8,
        (1, 2): omega
        * j7
        * (m * (m - 1) * 15 + m * (m - 1) * (m - 2) / 2 * 3)
        / d8,
        (2, 2): omega
        * j7
        * (npairs * 9 + npairs * 2 * (m - 2) * 3 + npairs * (m - 2) * (m - 3) / 2)
        / d8,
    }


def g_inner_products(w: SpectralDensity, mom: SpectralMoments) -> np.ndarray:
    """Symmetric 4 x 4 matrix of <G_i, G_j> in dimension mom.m for

        G0 = sqrt(2)/d_m S0,  G1 = sqrt(2)/(3 h_m) S1,
        G2 = sqrt(2)/h_m S2,  G3 = G2 / 3,

    with d_m and h_m from w's spectral moments ``mom``.
    """
    s = msum_inner_products(w, mom.m)
    scale = np.array(
        [
            math.sqrt(2.0) / mom.d,
            math.sqrt(2.0) / (3.0 * mom.h),
            math.sqrt(2.0) / mom.h,
            math.sqrt(2.0) / (3.0 * mom.h),
        ]
    )
    raw = np.empty((4, 4))
    base = {0: 0, 1: 1, 2: 2, 3: 2}
    for i in range(4):
        for j in range(4):
            a, b = sorted((base[i], base[j]))
            raw[i, j] = s[(a, b)]
    return raw * scale[:, None] * scale[None, :]


def v2_infinity(w: SpectralDensity, m: int, geometry: Chaos2Geometry) -> float:
    """The second-chaos variance contribution

        V_(2,inf) = d(0)^2 || 3 h_m (x + y) (G1 + (2/3) G2) + z G0 ||^2,

    assembled from the exact frequency-domain inner products.  Strictly
    positive for any admissible density.
    """
    mom = spectral_moments(w, m)
    g = g_inner_products(w, mom)
    kappa = 3.0 * mom.h * (geometry.x + geometry.y)
    z = geometry.z
    norm2 = (
        kappa**2 * (g[1, 1] + (4.0 / 3.0) * g[1, 2] + (4.0 / 9.0) * g[2, 2])
        + 2.0 * kappa * z * (g[0, 1] + (2.0 / 3.0) * g[0, 2])
        + z**2 * g[0, 0]
    )
    d0 = (2.0 * math.pi * mom.d) ** (-m / 2.0)
    return d0**2 * norm2
