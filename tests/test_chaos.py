import math

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
from critfield.spectrum import SpectralDensity

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
        geo = chaos2_coefficients(2, 1.0, mc_budget=150_000, seed=1)
        lhs = geo.gram @ np.array([geo.x, geo.y])
        np.testing.assert_allclose(lhs, geo.rhs, rtol=1e-10)
        assert geo.z == -0.5 * geo.f0
        assert all(s > 0 for s in geo.stderr.values())

    def test_seed_stability(self):
        a = chaos2_coefficients(2, 0.5, mc_budget=600_000, seed=2)
        b = chaos2_coefficients(2, 0.5, mc_budget=600_000, seed=9)
        assert a.x == pytest.approx(b.x, abs=4 * (a.stderr["x"] + b.stderr["x"]))
        assert a.y == pytest.approx(b.y, abs=4 * (a.stderr["y"] + b.stderr["y"]))

    @pytest.mark.parametrize("m,v", [(2, 0.5), (3, 1.0)])
    def test_residual_orthogonality(self, m, v):
        # the projection residual f - f0 - x pbar - y qbar is orthogonal to
        # both invariants; checked on a sample independent of the fit
        geo = chaos2_coefficients(m, v, mc_budget=900_000, seed=11)
        rng = np.random.default_rng(99)
        a = sample_matrices(EnsembleParams(m=m, u=v, v=v), 400_000, rng)
        tr = np.trace(a, axis1=1, axis2=2)
        ep, eq = invariant_means(m, v)
        pbar = tr**2 - ep
        qbar = np.einsum("nij,nij->n", a, a) - eq
        f = np.abs(np.linalg.det(a))
        resid = f - geo.f0 - geo.x * pbar - geo.y * qbar
        for row, w in enumerate((pbar, qbar)):
            prod = resid * w
            se2 = prod.var(ddof=1) / len(prod)
            # the fitted (x, y) carry their own Monte Carlo error
            se2 += (geo.gram[row, 0] * geo.stderr["x"]) ** 2
            se2 += (geo.gram[row, 1] * geo.stderr["y"]) ** 2
            assert abs(prod.mean()) <= 4.0 * math.sqrt(se2)


class TestSphereIntegrals:
    def test_sphere_moment_values(self):
        assert sphere_moment(3, (1,)) == pytest.approx(1.0 / 3.0)
        assert sphere_moment(3, (1, 1)) == pytest.approx(1.0 / 15.0)
        assert sphere_moment(3, (2,)) == pytest.approx(1.0 / 5.0)
        assert sphere_moment(2, (2, 1)) == pytest.approx(3.0 / 48.0)

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
            geo = chaos2_coefficients(m, 0.5, mc_budget=300_000, seed=4)
            val = v2_infinity(GAUSS, m, geo)
            assert val > 0.0

    def test_v2_infinity_dim_two_magnitude(self):
        geo = chaos2_coefficients(2, 0.5, mc_budget=900_000, seed=5)
        val = v2_infinity(GAUSS, 2, geo)
        assert 0.05 < val < 0.2
