import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from critfield.chaos import (
    chaos2_coefficients,
    diagram_pair_moments,
    g_inner_products,
    invariant_gram,
    invariant_means,
    moment_Jk,
    msum_inner_products,
    sphere_moment,
    v2_infinity,
)
from critfield.randmat import EnsembleParams, sample_matrices
from critfield.spectrum import DivergentIntegralError, SpectralDensity

GAUSS = SpectralDensity(family="gaussian", params=(1.0,))


class TestDiagramMoments:
    def test_equicorrelated_examples(self):
        c = np.full((4, 4), 0.5)
        np.fill_diagonal(c, 1.0)
        assert diagram_pair_moments(c, "H1H1") == 0.5
        assert diagram_pair_moments(c, "H2H2") == 0.5
        assert diagram_pair_moments(c, "H2H1H1") == 0.5
        assert diagram_pair_moments(c, "H1H1H1H1") == 0.75

    def test_validation(self):
        good = np.eye(4)
        with pytest.raises(ValueError):
            diagram_pair_moments(good, "H3H3")
        bad_diag = np.full((4, 4), 0.5)
        with pytest.raises(ValueError):
            diagram_pair_moments(bad_diag, "H1H1")
        not_psd = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError):
            diagram_pair_moments(not_psd, "H1H1")

    @pytest.mark.parametrize("trial", range(5))
    def test_against_monte_carlo(self, trial):
        rng = np.random.default_rng(100 + trial)
        a = rng.standard_normal((4, 6))
        cov = a @ a.T
        scale = np.sqrt(np.diag(cov))
        corr = cov / np.outer(scale, scale)
        x = rng.multivariate_normal(np.zeros(4), corr, size=200_000)
        samples = {
            "H1H1": x[:, 0] * x[:, 1],
            "H2H2": (x[:, 0] ** 2 - 1) * (x[:, 1] ** 2 - 1),
            "H2H1H1": (x[:, 0] ** 2 - 1) * x[:, 1] * x[:, 2],
            "H1H1H1H1": x[:, 0] * x[:, 1] * x[:, 2] * x[:, 3],
        }
        for pattern, vals in samples.items():
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            assert diagram_pair_moments(corr, pattern) == pytest.approx(
                vals.mean(), abs=4 * se
            ), pattern


def _entry_cov(e1, e2, v):
    """E[a_ij a_kl] over S(m; v, v): v (d_ij d_kl + d_ik d_jl + d_il d_jk)."""
    (i, j), (k, l) = e1, e2
    return v * ((i == j) * (k == l) + (i == k) * (j == l) + (i == l) * (j == k))


def _wick(entries, v):
    """Isserlis: the sum over perfect pairings of products of covariances."""
    if not entries:
        return Fraction(1)
    first, rest = entries[0], entries[1:]
    return sum(
        _entry_cov(first, rest[i], v) * _wick(rest[:i] + rest[i + 1:], v)
        for i in range(len(rest))
    )


def _exact_invariant_moment(m, a, b, v):
    """E[p^a q^b] over S(m; v, v) in exact rational arithmetic, with
    p = sum_ij a_ii a_jj and q = sum_ij a_ij a_ji expanded term by term."""
    terms = {
        "p": [((i, i), (j, j)) for i in range(m) for j in range(m)],
        "q": [((i, j), (j, i)) for i in range(m) for j in range(m)],
    }
    factors = [terms["p"]] * a + [terms["q"]] * b
    return sum(
        _wick([e for pair in combo for e in pair], v)
        for combo in itertools.product(*factors)
    )


class TestInvariantGeometry:
    def test_gram_dim_two_unit_variance(self):
        # raw moments E[p^2] = 192, E[pq] = 128, E[q^2] = 112, means both 8
        np.testing.assert_allclose(
            invariant_gram(2, 1.0), [[128.0, 64.0], [64.0, 48.0]], rtol=1e-12
        )

    @pytest.mark.parametrize("m,v", [(2, 0.5), (3, 1.0), (5, 0.5)])
    def test_gram_against_monte_carlo(self, m, v):
        rng = np.random.default_rng(31)
        a = sample_matrices(EnsembleParams(m=m, u=v, v=v), 200_000, rng)
        tr = np.trace(a, axis1=1, axis2=2)
        p = tr**2
        q = np.einsum("nij,nij->n", a, a)
        ep, eq = invariant_means(m, v)
        assert p.mean() == pytest.approx(ep, abs=4 * p.std() / math.sqrt(len(p)))
        assert q.mean() == pytest.approx(eq, abs=4 * q.std() / math.sqrt(len(q)))
        gram = invariant_gram(m, v)
        for (i, j), samp in [((0, 0), (p - ep) * (p - ep)),
                             ((0, 1), (p - ep) * (q - eq)),
                             ((1, 1), (q - eq) * (q - eq))]:
            se = samp.std(ddof=1) / math.sqrt(len(samp))
            assert gram[i, j] == pytest.approx(samp.mean(), abs=4 * se)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("v", [Fraction(1), Fraction(1, 2)])
    def test_gram_against_exact_wick_pairings(self, m, v):
        # the exact Gram and means carry x and y; certify them term by term
        ep, eq = (_exact_invariant_moment(m, a, b, v) for a, b in ((1, 0), (0, 1)))
        assert invariant_means(m, float(v)) == (ep, eq)
        raw = [[_exact_invariant_moment(m, 2, 0, v), _exact_invariant_moment(m, 1, 1, v)],
               [_exact_invariant_moment(m, 1, 1, v), _exact_invariant_moment(m, 0, 2, v)]]
        exact = [[raw[0][0] - ep * ep, raw[0][1] - ep * eq],
                 [raw[1][0] - eq * ep, raw[1][1] - eq * eq]]
        assert invariant_gram(m, float(v)).tolist() == exact
        if (m, v) == (2, 1):
            assert raw[0][1] == 128  # criterion 2's E[(tr A)^2 tr A^2]

    def test_gram_large_m_shape(self):
        # leading orders: var(p) ~ 2 m^4 v^2, var(q) ~ 6 m^2 v^2,
        # cov ~ 2 m^3 v^2, with the correlation tending to 1/sqrt(3)
        m, v = 50, 1.0
        g = invariant_gram(m, v)
        assert g[0, 0] / (2.0 * m**4 * v**2) == pytest.approx(1.0, rel=0.10)
        assert g[1, 1] / (6.0 * m**2 * v**2) == pytest.approx(1.0, rel=0.10)
        assert g[0, 1] / (2.0 * m**3 * v**2) == pytest.approx(1.0, rel=0.10)
        corr = g[0, 1] / math.sqrt(g[0, 0] * g[1, 1])
        assert corr == pytest.approx(1.0 / math.sqrt(3.0), rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            invariant_gram(1, 1.0)


class TestChaos2Coefficients:
    def test_normal_equations_consistency(self):
        geo = chaos2_coefficients(2, 1.0)
        lhs = geo.gram @ np.array([geo.x, geo.y])
        np.testing.assert_allclose(lhs, geo.rhs, rtol=1e-10)
        assert geo.z == -0.5 * geo.f0

    def test_deterministic(self):
        a, b = chaos2_coefficients(3, 0.5), chaos2_coefficients(3, 0.5)
        assert (a.f0, a.x, a.y, a.z, a.rhs) == (b.f0, b.x, b.y, b.z, b.rhs)

    def test_dim_two_values(self):
        # E|det| = 4 / sqrt(3) over S(2; 1, 1); E[p f] from the same grid
        geo = chaos2_coefficients(2, 1.0)
        ep, _ = invariant_means(2, 1.0)
        assert geo.f0 == pytest.approx(4.0 / math.sqrt(3.0), rel=1e-12)
        assert geo.rhs[0] + ep * geo.f0 == pytest.approx(38.15840287, rel=1e-9)

    @pytest.mark.parametrize("m", [2, 3, 6])
    def test_moments_against_monte_carlo(self, m):
        # E[f], E[p f], E[q f] against an independent sample average, with
        # sigma the per-draw sd over sqrt(n)
        v = 1.0
        geo = chaos2_coefficients(m, v)
        ep, eq = invariant_means(m, v)
        exact = (geo.f0, geo.rhs[0] + ep * geo.f0, geo.rhs[1] + eq * geo.f0)
        rng = np.random.default_rng(700 + m)
        a = sample_matrices(EnsembleParams(m=m, u=v, v=v), 200_000, rng)
        f = np.abs(np.linalg.det(a))
        p = np.trace(a, axis1=1, axis2=2) ** 2
        q = np.einsum("nij,nij->n", a, a)
        for name, value, samp in zip(("f", "pf", "qf"), exact, (f, p * f, q * f)):
            sigma = samp.std(ddof=1) / math.sqrt(len(samp))
            assert abs(value - samp.mean()) <= 4.0 * sigma, name

    @pytest.mark.parametrize("m,v", [(2, 0.5), (3, 1.0)])
    def test_residual_orthogonality(self, m, v):
        # the projection residual f - f0 - x pbar - y qbar is orthogonal to
        # both invariants; the fit is exact, so the bound is the sample noise
        geo = chaos2_coefficients(m, v)
        rng = np.random.default_rng(99)
        a = sample_matrices(EnsembleParams(m=m, u=v, v=v), 400_000, rng)
        tr = np.trace(a, axis1=1, axis2=2)
        ep, eq = invariant_means(m, v)
        pbar = tr**2 - ep
        qbar = np.einsum("nij,nij->n", a, a) - eq
        f = np.abs(np.linalg.det(a))
        resid = f - geo.f0 - geo.x * pbar - geo.y * qbar
        for w in (pbar, qbar):
            prod = resid * w
            se = prod.std(ddof=1) / math.sqrt(len(prod))
            assert abs(prod.mean()) <= 4.0 * se


class TestSphereIntegrals:
    def test_sphere_moment_values(self):
        assert sphere_moment(3, (1,)) == pytest.approx(1.0 / 3.0)
        assert sphere_moment(3, (1, 1)) == pytest.approx(1.0 / 15.0)
        assert sphere_moment(3, (2,)) == pytest.approx(1.0 / 5.0)
        assert sphere_moment(2, (2, 1)) == pytest.approx(3.0 / 48.0)
        # a zero exponent is a factor 1: (-1)!! = 1
        assert sphere_moment(3, (1, 0)) == pytest.approx(1.0 / 3.0)
        assert sphere_moment(3, (0,)) == 1.0
        assert sphere_moment(3, (2, 0, 1)) == sphere_moment(3, (2, 1))

    def test_sphere_moment_mc(self):
        rng = np.random.default_rng(8)
        u = rng.standard_normal((300_000, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        vals = u[:, 0] ** 4 * u[:, 1] ** 2
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert sphere_moment(3, (2, 1)) == pytest.approx(vals.mean(), abs=4 * se)

    def test_sphere_moment_validation(self):
        with pytest.raises(ValueError):
            sphere_moment(2, (1, 1, 1))
        with pytest.raises(ValueError):
            sphere_moment(3, (-1,))

    def test_moment_Jk_divergent_tail_rejected(self):
        r = np.linspace(0.0, 10.0, 101)
        w = SpectralDensity(family="user-table", table=(tuple(r), tuple(1.0 / (1.0 + r))))
        with pytest.raises(DivergentIntegralError, match=r"w\(r\)\^2 r\^4 does not decay"):
            moment_Jk(w, 3)

    def test_moment_Jk_gaussian(self):
        # J_k of exp(-r^2/2) is Gamma((k+1)/2) / 2
        for k in (3, 5, 7, 9):
            assert moment_Jk(GAUSS, k) == pytest.approx(
                0.5 * math.gamma((k + 1) / 2.0), rel=1e-9
            )


def _msum_quadrature_2d(key):
    # direct polar quadrature oracle for the m = 2 monomial-sum products
    def poly(theta, which):
        c, s = np.cos(theta), np.sin(theta)
        if which == 0:
            return c**2 + s**2
        if which == 1:
            return c**4 + s**4
        return c**2 * s**2

    a, b = key
    deg = {0: 2, 1: 4, 2: 4}
    thetas = np.linspace(0.0, 2.0 * np.pi, 2001)
    ang = integrate.simpson(poly(thetas, a) * poly(thetas, b), x=thetas)
    k = deg[a] + deg[b] + 1  # r^(deg) from each monomial plus the area element
    rad, _ = integrate.quad(lambda r: math.exp(-(r**2)) * r**k, 0.0, 10.0)
    return ang * rad


class TestMsumGeometry:
    def test_inner_products_against_quadrature(self):
        table = msum_inner_products(GAUSS, 2)
        for key in [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]:
            assert table[key] == pytest.approx(_msum_quadrature_2d(key), rel=1e-6), key

    def test_g_matrix_structure(self):
        for m in (2, 3):
            g = g_inner_products(GAUSS, m)
            np.testing.assert_allclose(g, g.T, rtol=1e-12)
            assert np.all(np.linalg.eigvalsh(g) > -1e-10)
            # G3 = G2 / 3 exactly
            assert g[3, 3] == pytest.approx(g[2, 2] / 9.0, rel=1e-12)
            assert g[1, 3] == pytest.approx(g[1, 2] / 3.0, rel=1e-12)

    def test_v2_infinity_positive(self):
        for m in (2, 3):
            geo = chaos2_coefficients(m, 0.5)
            val = v2_infinity(GAUSS, m, geo)
            assert val > 0.0

    def test_v2_infinity_dim_two_magnitude(self):
        geo = chaos2_coefficients(2, 0.5)
        val = v2_infinity(GAUSS, 2, geo)
        assert 0.05 < val < 0.2
