"""Gaussian symmetric-matrix ensembles and determinant expectations.

The two-parameter ensemble S(m; u, v) is the set of real symmetric m x m
matrices with centered Gaussian entries satisfying

    E[a_ij a_kl] = u d_ij d_kl + v (d_ik d_jl + d_il d_jk),

equivalently a GOE matrix with off-diagonal variance v plus an independent
N(0, u) multiple of the identity.  This module provides sampling, the exact
finite-n one-point eigenvalue density, the shifted-determinant identity that
turns E|det(lam + B)| into a density evaluation, and the large-m predictions
for the |det|-weighted functionals used by the chaos expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

__all__ = [
    "EnsembleParams",
    "sample_matrices",
    "expect_functional_mc",
    "rho_one_point",
    "semicircle_density",
    "fyodorov_absdet",
    "expect_absdet_S",
    "asymptotic_targets",
    "asymptotic_targets_semicircle",
]

FUNCTIONALS = ("absdet", "p_absdet", "q_absdet", "p", "q", "p2", "pq", "q2")


@dataclass(frozen=True)
class EnsembleParams:
    """(m, u, v): dimension, identity-shift variance, GOE off-diag variance."""

    m: int
    u: float
    v: float

    def __post_init__(self):
        if self.m < 1 or self.u < 0 or self.v <= 0:
            raise ValueError("need m >= 1, u >= 0, v > 0")


def sample_matrices(params: EnsembleParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws, shape (n, m, m): GOE(v) plus an independent N(0, u) * identity."""
    m = params.m
    g = rng.standard_normal((n, m, m))
    b = (g + np.swapaxes(g, 1, 2)) * math.sqrt(params.v / 2.0)
    if params.u > 0:
        shift = rng.standard_normal(n) * math.sqrt(params.u)
        b += shift[:, None, None] * np.eye(m)
    return b


def _functional_values(a: np.ndarray) -> dict:
    """Every functional of FUNCTIONALS on the batch a, shape (n, m, m)."""
    p = np.trace(a, axis1=1, axis2=2) ** 2
    q = np.einsum("nij,nij->n", a, a)
    f = np.abs(np.linalg.det(a))
    return {
        "absdet": f, "p_absdet": p * f, "q_absdet": q * f, "p": p, "q": q,
        "p2": p**2, "pq": p * q, "q2": q**2,
    }


def _check_samples(n_samples: int) -> None:
    """The floor of expect_functional_mc's draw count."""
    if n_samples < 10_000:
        raise ValueError("n_samples must be >= 1e4")


def expect_functional_mc(
    params: EnsembleParams,
    functionals: tuple[str, ...],
    n_samples: int,
    seed: int = 0,
    batch: int = 200_000,
) -> dict:
    """Plain Monte Carlo means of invariant functionals, with their iid stderrs.

    Returns {name: {"mean", "stderr", "n", "seed"}} in the order of
    ``functionals``, every name averaged over the same draws.  n_samples
    counts each draw twice, so the call averages n = n_samples // 2
    independent matrices; the convention is kept from an (A, -A) pairing,
    a no-op for these functionals, which are all even in A, so that a given
    (n_samples, seed) keeps its draws.  The stderr is sd / sqrt(n).

    ``batch`` bounds the matrices drawn at once.  At u = 0 it only splits
    the work.  At u > 0 each batch draws its identity shifts after its GOE
    block, so the stream, and the estimate, depend on ``batch``.
    """
    if not set(functionals) <= set(FUNCTIONALS):
        raise ValueError(f"unknown functional in {functionals!r}")
    _check_samples(n_samples)
    rng = np.random.default_rng(seed)
    count = n_samples // 2
    sums = {name: [0.0, 0.0] for name in functionals}  # of values and of squares
    for start in range(0, count, batch):
        vals = _functional_values(sample_matrices(params, min(batch, count - start), rng))
        for name, acc in sums.items():
            acc[0] += vals[name].sum()
            acc[1] += np.sum(vals[name] ** 2)
    out = {}
    for name, (total, sq) in sums.items():
        mean = total / count
        var = max(sq - count * mean**2, 0.0) / (count - 1)
        out[name] = dict(mean=float(mean), stderr=math.sqrt(var / count), n=count, seed=seed)
    return out


# --- eigenvalue densities -------------------------------------------------

# Oscillator functions underflow (exp(-t^2 / 2) < 1e-308) beyond |t| ~ 37.6,
# which lies inside the spectrum once sqrt(2 n) gets close to it.
_RHO_MAX_N = 600


def rho_one_point(n: int, v: float, x):
    """Normalized one-point eigenvalue density rho_(n, v)(x) of GOE(n, v).

    Exact (Mehta, Random Matrices, ch. 7) and vectorized in x.  With
    t = x / sqrt(2 v), the orthonormal oscillator functions phi_k(t) and
    their running integrals I_k(t) = integral_(-inf)^t phi_k give

        n sqrt(2 v) rho = sum_(k<n) phi_k^2
                          + sqrt(n/2) phi_(n-1) (I_n(t) - I_n(inf) / 2)
                          + [n odd] phi_(n-1) / I_(n-1)(inf).

    phi_(k+1) = sqrt(2/(k+1)) t phi_k - sqrt(k/(k+1)) phi_(k-1) and
    I_(k+1) = sqrt(k/(k+1)) I_(k-1) - sqrt(2/(k+1)) phi_k, from
    I_0 = sqrt(2 pi) pi^(-1/4) Phi(t) and I_1 = -sqrt(2) phi_0.  Limited to
    n <= 600, where the recurrence starts above the floating-point underflow
    inside the bulk.
    """
    if not 1 <= n <= _RHO_MAX_N or v <= 0:
        raise ValueError(f"need 1 <= n <= {_RHO_MAX_N} and v > 0")
    t = np.asarray(x, dtype=float) / math.sqrt(2.0 * v)
    i0_inf = math.sqrt(2.0 * math.pi) * math.pi**-0.25  # I_0(inf)
    phi_prev, phi = np.zeros_like(t), math.pi**-0.25 * np.exp(-0.5 * t * t)
    int_prev, integral = np.zeros_like(t), i0_inf * special.ndtr(t)
    inf_prev, inf = 0.0, i0_inf
    kernel = np.zeros_like(t)
    for k in range(n):
        kernel += phi * phi
        a, b = math.sqrt(2.0 / (k + 1)), math.sqrt(k / (k + 1))
        phi_prev, phi = phi, a * t * phi - b * phi_prev
        int_prev, integral = integral, b * int_prev - a * phi_prev
        inf_prev, inf = inf, b * inf_prev
    # phi_prev is phi_(n-1); integral and inf are I_n(t) and I_n(inf)
    kernel += math.sqrt(n / 2.0) * phi_prev * (integral - 0.5 * inf)
    if n % 2:
        kernel += phi_prev / inf_prev
    return kernel / (n * math.sqrt(2.0 * v))


def semicircle_density(v: float, lam) -> np.ndarray:
    """Limiting bulk density (1 / (2 pi v)) sqrt(4 v - lam^2) on |lam| <= 2 sqrt(v)."""
    if v <= 0:
        raise ValueError("v must be positive")
    lam = np.asarray(lam, dtype=float)
    inside = np.clip(4.0 * v - lam**2, 0.0, None)
    return np.sqrt(inside) / (2.0 * np.pi * v)


def _log_cm(m: int) -> float:
    return 1.5 * math.log(2.0) + special.gammaln((m + 3) / 2.0)


def fyodorov_absdet(m: int, v: float, lam):
    """E over GOE(m, v) of |det(lam + B)| via the one-point density,
    vectorized in lam:

        (2 v)^((m+1)/2) C_m exp(lam^2 / (4 v)) rho_(m+1, v)(lam).
    """
    lam = np.asarray(lam, dtype=float)
    log_val = (m + 1) / 2.0 * math.log(2.0 * v) + _log_cm(m) + lam * lam / (4.0 * v)
    return np.exp(log_val) * rho_one_point(m + 1, v, lam)


# Simpson nodes on [0, lim] for the Gaussian average over the identity shift
_SIMPSON_POINTS = 201


def _absdet_shift_moments(m: int, v: float) -> tuple[float, float]:
    """F = E|det A| over S(m; u, v) and its derivative dF/du, both at u = v.

    F(u, v) is the N(0, u) average of fyodorov_absdet(m, v, lam), so at u = v

        F = (2 v)^((m+1)/2) C_m / sqrt(2 pi v) * integral rho_(m+1,v)(lam)
            exp(-lam^2 / (4 v)) dlam,

    and d/du of the N(0, u) density puts (lam^2 - v) / (2 v^2) under the
    integral.  Both share one Simpson rule on the even half-line, truncated
    8 sqrt(v) beyond the spectral edge 2 sqrt(v (m + 1)).
    """
    lim = 2.0 * math.sqrt(v) * (math.sqrt(m + 1) + 4.0)
    xs = np.linspace(0.0, lim, _SIMPSON_POINTS)
    base = rho_one_point(m + 1, v, xs) * np.exp(-(xs**2) / (4.0 * v))
    weights = np.stack([base, base * (xs**2 - v) / (2.0 * v * v)])
    half = integrate.simpson(weights, x=xs)
    log_pref = (
        (m + 1) / 2.0 * math.log(2.0 * v)
        + _log_cm(m)
        - 0.5 * math.log(2.0 * math.pi * v)
    )
    f, df_du = math.exp(log_pref) * 2.0 * half
    return float(f), float(df_du)


def expect_absdet_S(m: int, v: float) -> float:
    """E over S(m; v, v) of |det A|, exact up to the Simpson rule."""
    return _absdet_shift_moments(m, v)[0]


def asymptotic_targets(m: int) -> dict:
    """Large-m predictions at v = 1/2 for E[f], E[p f], E[q f], f = |det|.

    These are the printed leading-order constants:
        E[f]   ~ C_m sqrt(2/pi) m^(-1/2),
        E[p f] ~ 2 C_m / sqrt(pi) m^(3/2),
        E[q f] ~ C_m / sqrt(2 pi) m^(7/2),
    evaluated in log space (C_20 overflows naive products).

    The exact averages disagree with all three; asymptotic_targets_semicircle
    has the corrected constants.  E[f] is too large by sqrt(pi/2) and E[p f] by
    sqrt(pi).  E[q f] has the wrong power of m: the v-derivative identity
    E[tr B^2 |det B|] = v m (m + 3) E|det B| gives m^(3/2) (m + 3) / m, so
    the printed value is off by sqrt(pi/2) m^3 / (m + 3), which grows like
    m^2.  At m = 20 the exact/printed ratios are 0.760, 0.604 and 0.002.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    lc = _log_cm(m)
    return {
        "E_f": math.exp(lc + 0.5 * math.log(2.0 / math.pi) - 0.5 * math.log(m)),
        "E_pf": math.exp(lc + math.log(2.0) - 0.5 * math.log(math.pi) + 1.5 * math.log(m)),
        "E_qf": math.exp(lc - 0.5 * math.log(2.0 * math.pi) + 3.5 * math.log(m)),
        "log_Cm": lc,
    }


def asymptotic_targets_semicircle(m: int) -> dict:
    """Same targets with the constants rederived from the semicircle density.

    The printed constants implicitly use a bulk-center density value of
    sqrt(2/pi); the semicircle density itself gives rho(0) = sqrt(2)/pi at
    v = 1/2, and carrying that value through the derivation (together with
    the first-order tilt derivative for the q-weighted case) yields

        E[f]   ~ C_m (2/pi) m^(-1/2),
        E[p f] ~ (2/pi) C_m m^(3/2),
        E[q f] ~ (1/pi) C_m m^(3/2) (m + 3) / m.

    These are the constants the exact averages approach.
    """
    lc = _log_cm(m)
    return {
        "E_f": math.exp(lc + math.log(2.0 / math.pi) - 0.5 * math.log(m)),
        "E_pf": math.exp(lc + math.log(2.0 / math.pi) + 1.5 * math.log(m)),
        "E_qf": math.exp(lc - math.log(math.pi) + 0.5 * math.log(m) + math.log(m + 3)),
        "log_Cm": lc,
    }
