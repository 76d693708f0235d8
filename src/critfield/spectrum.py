"""Radial spectral densities, their moments, and covariance-kernel derivatives.

Everything downstream (field synthesis, critical-point expectations, chaos
variance bounds) is validated against the quantities computed here.  A radial
density ``w`` on ``[0, inf)`` defines an isotropic covariance kernel

    C(t) = (2*pi)^(-m/2) * integral( exp(-i <t, lam>) w(|lam|) dlam ),

and the variances of the field, its gradient, and its Hessian are expressed
through the radial moments ``I_k(w) = integral( w(r) r^k dr )``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, interpolate, special

__all__ = [
    "SpectralDensity",
    "SpectralMoments",
    "CovarianceJet",
    "DivergentIntegralError",
    "moment_Ik",
    "spectral_moments",
    "covariance_jet",
    "radial_jet",
    "psi_envelope",
    "nondegeneracy_ratio",
]


class DivergentIntegralError(ValueError):
    """Raised when a radial integrand fails the tail-decay test."""


@dataclass(frozen=True)
class SpectralDensity:
    """Radial spectral density w(r), r >= 0.

    Families:
      * ``gaussian``: params = (sigma,), w(r) = exp(-r^2 / (2 sigma^2)).
      * ``compact-bump``: params = (R, p), w(r) = (1 - (r/R)^2)^p on [0, R],
        zero beyond.  p = 0 is the plain indicator; p >= 2 gives a C^1/C^2
        bump.
      * ``user-table``: params ignored; ``table`` holds (radii, values) and is
        cubic-spline interpolated with the tail clamped to zero past the last
        knot.
    """

    family: str
    params: tuple[float, ...] = ()
    table: tuple[tuple[float, ...], tuple[float, ...]] | None = None
    _spline: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in ("gaussian", "compact-bump", "user-table"):
            raise ValueError(f"unknown density family {self.family!r}")
        # an infinite parameter passes every sign test and fails in quadrature
        if not all(math.isfinite(x) for x in self.params):
            raise ValueError(f"density params must be finite, got {self.params}")
        if self.family == "gaussian":
            if len(self.params) != 1:
                raise ValueError("gaussian density needs params [sigma]")
            (sigma,) = self.params
            if sigma <= 0:
                raise ValueError("gaussian scale must be positive")
        elif self.family == "compact-bump":
            if len(self.params) != 2:
                raise ValueError("compact-bump density needs params [R, p]")
            radius, power = self.params
            if radius <= 0 or power < 0:
                raise ValueError("bump needs radius > 0 and power >= 0")
        else:
            if self.table is None:
                raise ValueError("user-table density needs a table")
            r, v = np.asarray(self.table[0]), np.asarray(self.table[1])
            if np.any(v < 0) or not np.any(v > 0):
                raise ValueError("table values must be >= 0 and not all zero")
            spline = interpolate.CubicSpline(r, v, bc_type="clamped")
            object.__setattr__(self, "_spline", spline)

    def __call__(self, r):
        r = np.abs(np.asarray(r, dtype=float))
        if self.family == "gaussian":
            sigma = self.params[0]
            return np.exp(-(r**2) / (2.0 * sigma**2))
        if self.family == "compact-bump":
            radius, power = self.params
            x = np.clip(1.0 - (r / radius) ** 2, 0.0, None)
            return x**power if power != 0 else (x > 0).astype(float)
        out = np.where(r <= self.table[0][-1], self._spline(r), 0.0)
        return np.clip(out, 0.0, None)

    def support_radius(self) -> float:
        """Radius beyond which w is (numerically) negligible: below 1e-14."""
        if self.family == "gaussian":
            sigma = self.params[0]
            return sigma * math.sqrt(-2.0 * math.log(1e-14))
        if self.family == "compact-bump":
            return self.params[0]
        return float(self.table[0][-1])


@dataclass(frozen=True)
class SpectralMoments:
    """Variance parameters s_m, d_m, h_m plus the radial I_k table."""

    m: int
    s: float
    d: float
    h: float
    i_table: dict[int, float]

    def __post_init__(self):
        if min(self.s, self.d, self.h) <= 0:
            raise ValueError("spectral moments must be positive")


def _radial_moment(w: SpectralDensity, k: int, power: int) -> float:
    """integral_0^inf w(r)^power r^k dr: I_k for power 1, J_k for power 2.

    Adaptive quadrature on [0, R], R = ``w.support_radius()``.  Raises
    DivergentIntegralError when w(r)^power r^(k+1) shows no decay at R.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    wp, name = ("w(r)", "I") if power == 1 else (f"w(r)^{power}", "J")
    rmax = w.support_radius()
    tail = np.linspace(rmax, 1.5 * rmax + 1.0, 8)
    tail_vals = w(tail) ** power * tail ** (k + 1)
    if np.any(tail_vals > 1e-8 * (1.0 + rmax) ** (k + 1)):
        raise DivergentIntegralError(
            f"{wp} r^{k + 1} does not decay near r = {rmax:.3g}"
        )
    val, err = integrate.quad(
        lambda r: float(w(r)) ** power * r**k, 0.0, rmax, limit=200, epsabs=1e-13, epsrel=1e-11
    )
    if val != 0 and err > 1e-8 * abs(val):
        raise DivergentIntegralError(f"{name}_{k} quadrature failed to converge")
    return val


def moment_Ik(w: SpectralDensity, k: int) -> float:
    """Radial moment I_k(w) = integral_0^inf w(r) r^k dr."""
    return _radial_moment(w, k, 1)


def _check_dimension(m: int) -> None:
    """The dimension rule of the spectral moments and all built on them."""
    if m < 2:
        raise ValueError("dimension m must be >= 2")


def spectral_moments(w: SpectralDensity, m: int) -> SpectralMoments:
    """s_m, d_m, h_m from the radial moments I_(m-1), I_(m+1), I_(m+3).

    (2 pi)^(m/2) s_m = 2 pi^(m/2) / Gamma(m/2) * I_(m-1),
    with d_m and h_m carrying the extra 1/m and 1/(m (m+2)) factors.
    """
    _check_dimension(m)
    i_table = {j: moment_Ik(w, j) for j in (m - 1, m + 1, m + 3)}
    base = 2.0 / (2.0 ** (m / 2.0) * special.gamma(m / 2.0))
    s = base * i_table[m - 1]
    d = base * i_table[m + 1] / m
    h = base * i_table[m + 3] / (m * (m + 2))
    return SpectralMoments(m=m, s=s, d=d, h=h, i_table=i_table)


# --- covariance jet -------------------------------------------------------
#
# For radial w the kernel is C(t) = G(q), q = |t|^2 / 2, and the radial
# coefficients satisfy
#
#   G^(k)(q) = (-1)^k * integral_0^inf w(r) r^(m - 1 + 2k) B_(m + 2k)(r |t|) dr,
#
# where B_n(x) = x^(1 - n/2) J_(n/2 - 1)(x) is the (unnormalized) spherical
# average of a plane wave in dimension n.  Partial derivatives of C are then
# polynomial in t with the G^(k) as coefficients, so no quadrature of an
# m-dimensional oscillatory integral is ever needed.


def _bessel_sphere_kernel(n, x: float) -> np.ndarray:
    """B_n(x) = x^(1 - n/2) J_(n/2 - 1)(x) for an array of n, with the x -> 0
    limit filled in."""
    nu = np.asarray(n) / 2.0 - 1.0
    if x < 1e-8:
        return 2.0**-nu / special.gamma(nu + 1.0)
    return x**-nu * special.jv(nu, x)


def radial_jet(w: SpectralDensity, m: int, rho) -> list[np.ndarray]:
    """G^(k)(|t|^2 / 2) for k = 0..4, vectorized over |t| = rho.

    Gaussian densities use the closed form G(q) = sigma^m exp(-sigma^2 q);
    other families go through oscillatory radial quadrature, one vector-valued
    integral over k per lag.  A derivative of C at lag |t| weighs G^(k) by
    up to |t|^k, so G^(k) is integrated scaled by (1 + |t|)^k under one
    absolute tolerance: psi stays accurate out where it has decayed by many
    orders.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    if w.family == "gaussian":
        sigma = w.params[0]
        g0 = sigma**m * np.exp(-(sigma**2) * rho**2 / 2.0)
        return [(-(sigma**2)) ** k * g0 for k in range(5)]
    rmax = w.support_radius()
    k = np.arange(5)
    out = np.empty((5, rho.size))
    for idx, p in enumerate(rho):
        scale = (1.0 + p) ** k

        def integrand(r, p=p, scale=scale):
            kernel = _bessel_sphere_kernel(m + 2 * k, r * p)
            return float(w(r)) * r ** (m - 1 + 2 * k) * kernel * scale

        val, err = integrate.quad_vec(
            integrand, 0.0, rmax, epsabs=1e-12, epsrel=1e-10, limit=400
        )
        if err > 1e-6 * (1.0 + np.max(np.abs(val))):
            raise DivergentIntegralError(
                f"radial quadrature did not converge at |t| = {p:.3g} "
                f"(oscillation scale ~ {p * rmax:.3g} radians)"
            )
        out[:, idx] = (-1.0) ** k * val / scale
    return list(out)


def _pair_partitions(indices: tuple[int, ...]):
    """All ways to split a tuple of indices into pairs plus singletons."""
    if not indices:
        yield ((), ())
        return
    first, rest = indices[0], indices[1:]
    # first stays a singleton
    for pairs, singles in _pair_partitions(rest):
        yield pairs, (first,) + singles
    # first pairs with each later index
    for j in range(len(rest)):
        partner = rest[j]
        remaining = rest[:j] + rest[j + 1 :]
        for pairs, singles in _pair_partitions(remaining):
            yield ((first, partner),) + pairs, singles


def _assemble_derivative(k: int, terms, t: np.ndarray, g: list) -> float:
    """d^k C / dt_(i1) ... dt_(ik) from the radial coefficients G^(j).

    C(t) = G(|t|^2/2) gives a sum over pairings: each paired index couple
    contributes a Kronecker delta, each singleton a factor t_i, and the term
    carries G^(k - #pairs).  ``terms`` holds the (#pairs, singletons) of the
    pairings whose deltas are all 1, as ``_jet_terms`` lists them.
    """
    total = 0.0
    for n_pairs, singles in terms:
        term = g[k - n_pairs]
        for i in singles:
            term = term * t[i]
        total += term
    return total


def _multi_indices(m: int, max_order: int):
    for k in range(max_order + 1):
        for combo in itertools.combinations_with_replacement(range(m), k):
            alpha = [0] * m
            for i in combo:
                alpha[i] += 1
            yield tuple(alpha)


@dataclass(frozen=True)
class CovarianceJet:
    """Partial derivatives of the covariance kernel at one point.

    ``derivatives`` maps a multi-index alpha (length-m tuple of orders) to
    d^alpha C(t).  Only |alpha| <= 4 is populated.
    """

    m: int
    t: tuple[float, ...]
    derivatives: dict[tuple[int, ...], float]

    def deriv(self, *indices: int) -> float:
        """Derivative by coordinate index list, e.g. deriv(0, 0, 1, 1)."""
        alpha = [0] * self.m
        for i in indices:
            alpha[i] += 1
        return self.derivatives[tuple(alpha)]


@functools.cache
def _jet_terms(m: int) -> tuple:
    """(alpha, |alpha|, terms) for every multi-index |alpha| <= 4, in the
    order of ``_multi_indices``: the terms are the (#pairs, singletons) of
    each pair partition of alpha's indices whose pairs match, in the order
    of ``_pair_partitions``.  They depend on m alone, so each m enumerates
    its partitions once, not at every point of a jet."""
    out = []
    for alpha in _multi_indices(m, 4):
        indices = tuple(i for i, a in enumerate(alpha) for _ in range(a))
        terms = tuple(
            (len(pairs), singles)
            for pairs, singles in _pair_partitions(indices)
            if all(a == b for a, b in pairs)
        )
        out.append((alpha, len(indices), terms))
    return tuple(out)


def covariance_jet(w: SpectralDensity, m: int, t) -> CovarianceJet:
    """All partial derivatives d^alpha C(t) with |alpha| <= 4."""
    t = np.asarray(t, dtype=float)
    if t.shape != (m,):
        raise ValueError(f"point must have shape ({m},)")
    rho = float(np.linalg.norm(t))
    g = [float(v[0]) for v in radial_jet(w, m, [rho])]
    derivs = {alpha: _assemble_derivative(k, terms, t, g) for alpha, k, terms in _jet_terms(m)}
    return CovarianceJet(m=m, t=tuple(t), derivatives=derivs)


def psi_envelope(w: SpectralDensity, m: int, t) -> float:
    """max over |alpha| <= 4 of |d^alpha C(t)| (the decay envelope)."""
    jet = covariance_jet(w, m, t)
    return max(abs(v) for v in jet.derivatives.values())


def nondegeneracy_ratio(moments: SpectralMoments) -> dict:
    """Nondegeneracy of the joint (value, gradient, Hessian) Gaussian vector.

    The (m+1) x (m+1) covariance of (X(0), d^2_11 X(0), ..., d^2_mm X(0))
    has determinant (2h)^(m-1) ((m+2) h s - m d^2); positivity is equivalent
    to h s / d^2 != m / (m+2).
    """
    m, s, d, h = moments.m, moments.s, moments.d, moments.h
    det_rm = (2.0 * h) ** (m - 1) * ((m + 2) * h * s - m * d**2)
    return {
        "ratio": float(h * s / d**2),
        "det_Rm": float(det_rm),
        "nondegenerate": bool(det_rm > 0.0),
    }
