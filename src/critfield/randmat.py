"""Gaussian symmetric-matrix ensembles and determinant expectations.

The two-parameter ensemble S(m; u, v) is the set of real symmetric m x m
matrices with centered Gaussian entries satisfying

    E[a_ij a_kl] = u d_ij d_kl + v (d_ik d_jl + d_il d_jk),

equivalently a GOE matrix with off-diagonal variance v plus an independent
N(0, u) multiple of the identity.  This module provides sampling, the
kernels on symmetric matrices stored as upper-triangle rows in jet order
(the closed-form adjugate that Newton, the smoothed counter and the Monte
Carlo share), the exact finite-n one-point eigenvalue density, the shifted-determinant identity that
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

# Each functional as the product of its factors: p = (tr A)^2, q = tr A^2
# and f = |det A|.
FUNCTIONALS = {"absdet": "f", "p_absdet": "pf", "q_absdet": "qf", "p": "p", "q": "q",
               "p2": "pp", "pq": "pq", "q2": "qq"}

# Normals drawn at once: a block of _BLOCK_VALUES // m^2 matrices, its
# upper-triangle rows and its per-draw values stay in cache, so the working
# set of a sampler does not grow with the number of draws.
_BLOCK_VALUES = 2**16


@dataclass(frozen=True)
class EnsembleParams:
    """(m, u, v): dimension, identity-shift variance, GOE off-diag variance."""

    m: int
    u: float
    v: float

    def __post_init__(self):
        # each test is one that NaN fails, as NaN fails every comparison
        if not (self.m >= 1 and 0 <= self.u < math.inf and 0 < self.v < math.inf):
            raise ValueError(f"need m >= 1, finite u >= 0 and v > 0, got {self}")


def _draw(params: EnsembleParams, n: int, rng: np.random.Generator):
    """Yield n draws of S(m; u, v) in blocks of at most _BLOCK_VALUES // m^2
    draws, each as (index of its first draw, GOE normals (k, m, m), identity
    shifts (k,) scaled by sqrt(u), or None at u = 0).  The GOE normals come
    from ``rng`` in order, and the shifts from one child generator that
    ``rng.spawn`` makes per call, so the blocks split the draws without
    changing them.  Every sampler reads the draws here, so a seed gives each
    the same ones.  The spawn count lives in the seed sequence: restoring
    ``rng.bit_generator.state`` rewinds the normals but not the shifts,
    while a copy of the generator draws both again."""
    m = params.m
    step = max(1, _BLOCK_VALUES // (m * m))
    shifts = rng.spawn(1)[0] if params.u > 0 else None
    for start in range(0, n, step):
        k = min(step, n - start)
        shift = None if shifts is None else shifts.standard_normal(k) * math.sqrt(params.u)
        yield start, rng.standard_normal((k, m, m)), shift


def _on_diagonal(m: int) -> np.ndarray:
    """Which of the m(m+1)/2 upper-triangle rows in jet order are diagonal."""
    i, j = np.triu_indices(m)
    return i == j


def _upper_rows(params: EnsembleParams, g: np.ndarray) -> np.ndarray:
    """The upper triangles of a block of GOE normals g (k, m, m) as rows
    (m(m+1)/2, k) in jet order, b_ij = (g_ij + g_ji) sqrt(v / 2)."""
    m = params.m
    flat = g.reshape(len(g), m * m)
    rows = np.empty((m * (m + 1) // 2, len(g)))
    for k, (i, j) in enumerate(zip(*np.triu_indices(m))):
        np.add(flat[:, i * m + j], flat[:, j * m + i], out=rows[k])
    rows *= math.sqrt(params.v / 2.0)
    return rows


def hessian_stack(upper: np.ndarray, m: int) -> np.ndarray:
    """Symmetric (k, m, m) matrices from upper-triangle rows (m(m+1)/2, k)
    in jet order.  One gather of whole rows, returned as a strided view of
    the (m, m, k) result: LAPACK copies each matrix into its own buffer
    anyway, and a scatter into a contiguous stack is several times slower."""
    row = np.empty((m, m), dtype=np.intp)  # the jet row of entry (i, j)
    i, j = np.triu_indices(m)
    row[i, j] = row[j, i] = np.arange(len(i))
    return upper[row].transpose(2, 0, 1)


def _adjugate(rows: np.ndarray, m: int) -> tuple[list, np.ndarray]:
    """Adjugate and determinant (k,) of the symmetric matrices whose upper
    triangles are the rows (m(m+1)/2, k) in jet order, m = 2 or 3.

    The adjugate is an (m, m) nested list of (k,) rows, which ``np.asarray``
    (or einsum) stacks to (m, m, k); a caller that needs only the
    determinant never stacks it.  The determinant is the first row of the
    matrix against the first column of the adjugate."""
    if m == 2:
        a, b, d = rows
        return [[d, -b], [-b, a]], a * d - b * b
    a, b, c, d, e, f = rows
    c00, c01, c02 = d * f - e * e, c * e - b * f, b * e - c * d
    c11, c12, c22 = a * f - c * c, b * c - a * e, a * d - b * b
    adj = [[c00, c01, c02], [c01, c11, c12], [c02, c12, c22]]
    return adj, a * c00 + b * c01 + c * c02


def sample_matrices(params: EnsembleParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws, shape (n, m, m): GOE(v) plus an independent N(0, u) * identity."""
    m = params.m
    b = np.empty((n, m, m))
    for start, g, shift in _draw(params, n, rng):
        part = b[start:start + len(g)]
        np.multiply(g + np.swapaxes(g, 1, 2), math.sqrt(params.v / 2.0), out=part)
        if shift is not None:
            part.reshape(len(g), m * m)[:, :: m + 1] += shift[:, None]  # the diagonal
    return b


def _functional_values(rows: np.ndarray, m: int, names) -> dict:
    """Per-draw values of the functionals ``names`` on the matrices of the
    upper-triangle rows (m(m+1)/2, k), each factor computed only when a
    name needs it, since det is most of the cost.  |det| is
    ``_adjugate``'s at m = 2 and 3, LAPACK's at m = 1 and m >= 4."""
    need = set("".join(FUNCTIONALS[name] for name in names))
    on = _on_diagonal(m)
    factor = {}
    if "p" in need:
        factor["p"] = rows[on].sum(axis=0) ** 2
    if "q" in need:
        # each off-diagonal entry twice, summed row by row rather than by a
        # BLAS product, whose rounding depends on where a draw falls in it
        factor["q"] = (np.where(on, 1.0, 2.0)[:, None] * np.square(rows)).sum(axis=0)
    if "f" in need:
        if m in (2, 3):
            factor["f"] = np.abs(_adjugate(rows, m)[1])
        else:
            factor["f"] = np.abs(np.linalg.det(hessian_stack(rows, m)))
    out = {}
    for name in names:
        first, *second = FUNCTIONALS[name]
        out[name] = factor[first] * factor[second[0]] if second else factor[first]
    return out


def _check_samples(n_samples: int) -> None:
    """The floor of expect_functional_mc's draw count."""
    if n_samples < 10_000:
        raise ValueError("n_samples must be >= 1e4")


def expect_functional_mc(
    params: EnsembleParams,
    functionals: tuple[str, ...],
    n_samples: int,
    seed: int = 0,
) -> dict:
    """Plain Monte Carlo means of invariant functionals, with their iid stderrs.

    Returns {name: {"mean", "stderr", "n", "seed"}} in the order of
    ``functionals``, every name averaged over the same draws.  n_samples
    counts each draw twice, so the call averages n = n_samples // 2
    independent matrices; the convention is kept from an (A, -A) pairing,
    a no-op for these functionals, which are all even in A, so that a given
    (n_samples, seed) keeps its draws.  The stderr is sd / sqrt(n).

    The draws are ``sample_matrices``' for the seed, taken from ``_draw``
    in blocks of _BLOCK_VALUES // m^2: each block's upper-triangle rows take
    their shifts and are summed at once, so the working set is one block.
    """
    if not functionals:
        raise ValueError("need at least one functional")
    if not set(functionals) <= set(FUNCTIONALS):
        raise ValueError(f"unknown functional in {functionals!r}")
    _check_samples(n_samples)
    rng = np.random.default_rng(seed)
    m, count = params.m, n_samples // 2
    on = _on_diagonal(m)
    sums = {name: [0.0, 0.0] for name in functionals}  # of values and of squares
    for _, g, shift in _draw(params, count, rng):
        rows = _upper_rows(params, g)
        if shift is not None:
            rows[on] += shift
        vals = _functional_values(rows, m, functionals)
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
