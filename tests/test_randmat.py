import itertools
import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from critfield.randmat import (
    EnsembleParams,
    _absdet_shift_moments,
    asymptotic_targets,
    asymptotic_targets_semicircle,
    expect_absdet_S,
    expect_functional_mc,
    fyodorov_absdet,
    rho_one_point,
    sample_matrices,
    semicircle_density,
)

# determinant average over the unit-variance symmetric ensemble in dim 2,
# frozen from a 1e7-sample antithetic Monte Carlo run (seed 20260826)
E_ABSDET_S21 = 2.30936836
E_ABSDET_S21_ERR = 1.05e-3


# --- reference: the joint eigenvalue (Weyl) density of GOE(n, v) ------------


def _weyl_log_norm(n: int, v: float) -> float:
    """log Z_n(v) = log[(2 v)^(n (n+1) / 4) 2^(n/2) n! prod_j Gamma(j/2)]."""
    out = n * (n + 1) / 4.0 * math.log(2.0 * v) + n / 2.0 * math.log(2.0)
    out += special.gammaln(n + 1)
    out += sum(special.gammaln(j / 2.0) for j in range(1, n + 1))
    return out


def _weyl_density(v: float, lam) -> float:
    """|Vandermonde| * exp(-sum lam^2 / (4 v)) / Z_n(v)."""
    lam = np.asarray(lam, dtype=float)
    vand = math.prod(abs(a - b) for a, b in itertools.combinations(lam, 2))
    return vand * math.exp(-np.sum(lam**2) / (4.0 * v) - _weyl_log_norm(len(lam), v))


def _weyl_marginal(n: int, v: float, x: float) -> float:
    """rho_(n, v)(x) by adaptive quadrature of the Weyl density over the
    other n - 1 eigenvalues (n = 2 or 3), every panel split at its kinks."""
    lim = 2.0 * math.sqrt(v * n) + 12.0 * math.sqrt(v)
    opts = {"epsabs": 0.0, "epsrel": 1e-13, "limit": 200}
    if n == 2:
        f = lambda y: _weyl_density(v, [x, y])
        return integrate.quad(f, -lim, lim, points=[x], **opts)[0]

    # n = 3: the integrand is symmetric in (y, z), so twice the region z < y
    def inner(y):
        f = lambda z: _weyl_density(v, [x, y, z])
        pts = [x] if x < y else None
        return integrate.quad(f, -lim, y, points=pts, **opts)[0]

    return 2.0 * integrate.quad(inner, -lim, lim, points=[x], **opts)[0]


class TestSampling:
    def test_entry_covariances(self):
        # E[a_ii^2] = u + 2v, E[a_ii a_jj] = u, E[a_ij^2] = v, cross terms 0
        params = EnsembleParams(m=3, u=0.3, v=0.7)
        rng = np.random.default_rng(11)
        a = sample_matrices(params, 200_000, rng)
        checks = [
            (a[:, 0, 0] * a[:, 0, 0], 0.3 + 1.4),
            (a[:, 0, 0] * a[:, 1, 1], 0.3),
            (a[:, 0, 1] * a[:, 0, 1], 0.7),
            (a[:, 0, 0] * a[:, 0, 1], 0.0),
            (a[:, 0, 1] * a[:, 0, 2], 0.0),
        ]
        for prod, want in checks:
            se = prod.std(ddof=1) / math.sqrt(len(prod))
            assert prod.mean() == pytest.approx(want, abs=4 * se)

    def test_symmetry(self):
        params = EnsembleParams(m=3, u=0.5, v=0.5)
        a = sample_matrices(params, 10, np.random.default_rng(0))
        np.testing.assert_array_equal(a, np.swapaxes(a, 1, 2))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            EnsembleParams(m=0, u=0.5, v=0.5)
        with pytest.raises(ValueError):
            EnsembleParams(m=2, u=0.5, v=0.0)


class TestFunctionalMC:
    PARAMS = EnsembleParams(m=3, u=0.4, v=0.6)

    def test_trace_moments(self):
        # E[(tr A)^2] = m^2 u + 2 m v and E[tr A^2] = m u + m (m + 1) v
        m, u, v = 3, 0.4, 0.6
        res = expect_functional_mc(self.PARAMS, ("p", "q"), 100_000, seed=3)
        res_p, res_q = res["p"], res["q"]
        assert res_p["mean"] == pytest.approx(
            m * m * u + 2 * m * v, abs=4 * res_p["stderr"]
        )
        assert res_q["mean"] == pytest.approx(
            m * u + m * (m + 1) * v, abs=4 * res_q["stderr"]
        )

    def test_deterministic_given_seed(self):
        a = expect_functional_mc(self.PARAMS, ("absdet",), 50_000, seed=9)
        b = expect_functional_mc(self.PARAMS, ("absdet",), 50_000, seed=9)
        assert a == b

    @pytest.mark.parametrize("functional", ["absdet", "pq"])
    def test_iid_stderr(self, functional):
        # n_samples // 2 independent draws in batches; stderr = sd / sqrt(n)
        n_samples, batch, seed = 60_000, 7_000, 21
        res = expect_functional_mc(
            self.PARAMS, (functional,), n_samples, seed=seed, batch=batch
        )[functional]
        rng = np.random.default_rng(seed)
        count = n_samples // 2
        a = np.concatenate([
            sample_matrices(self.PARAMS, min(batch, count - start), rng)
            for start in range(0, count, batch)
        ])
        tr = np.trace(a, axis1=1, axis2=2)
        vals = {
            "absdet": np.abs(np.linalg.det(a)),
            "pq": tr**2 * np.einsum("nij,nij->n", a, a),
        }[functional]
        assert res["n"] == count
        assert res["mean"] == pytest.approx(vals.mean(), rel=1e-12)
        assert res["stderr"] == pytest.approx(
            vals.std(ddof=1) / math.sqrt(count), rel=1e-9
        )

    def test_one_pass_matches_one_name_calls(self):
        # every name averages the same draws: at u > 0 over five batches, a
        # joint call returns each one-name call's result bit for bit
        names = ("q2", "absdet", "pq", "p", "q_absdet", "p_absdet", "q", "p2")
        kw = {"n_samples": 60_000, "seed": 4, "batch": 7_000}
        joint = expect_functional_mc(self.PARAMS, names, **kw)
        assert list(joint) == list(names)
        for name in names:
            assert joint[name] == expect_functional_mc(self.PARAMS, (name,), **kw)[name]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            expect_functional_mc(self.PARAMS, ("absdet", "trace"), 50_000)
        with pytest.raises(ValueError):
            expect_functional_mc(self.PARAMS, ("absdet",), 100)

    def test_homogeneous_rescale_consistency(self):
        # |det| is degree m homogeneous, so doubling v multiplies by 2^(m/2)
        half = expect_functional_mc(
            EnsembleParams(m=2, u=0.5, v=0.5), ("absdet",), 400_000, seed=5
        )["absdet"]
        full = expect_functional_mc(
            EnsembleParams(m=2, u=1.0, v=1.0), ("absdet",), 400_000, seed=6
        )["absdet"]
        pred = (2.0 * 1.0) ** (2 / 2.0) * half["mean"]  # (2 v)^(k/2), k = 2
        tol = 4 * (2.0 * half["stderr"] + full["stderr"])
        assert full["mean"] == pytest.approx(pred, abs=tol)


class TestWeyl:
    """The Weyl density above is the reference for rho_one_point."""

    def test_dim_one_is_gaussian(self):
        # single eigenvalue of GOE(1, v) is N(0, 2v)
        xs = np.array([0.0, 0.8, -1.7, 3.2])
        want = stats.norm.pdf(xs, scale=1.0)
        for x, w in zip(xs, want):
            assert _weyl_density(0.5, [x]) == pytest.approx(w, rel=1e-12)
        np.testing.assert_allclose(rho_one_point(1, 0.5, xs), want, rtol=1e-12)

    def test_coincident_eigenvalues_vanish(self):
        assert _weyl_density(0.5, [0.4, 0.4, -1.0]) == 0.0

    def test_dim_two_normalization(self):
        xs = np.linspace(-8.0, 8.0, 401)
        grid = np.array([[_weyl_density(0.5, [x, y]) for y in xs] for x in xs])
        total = integrate.simpson(integrate.simpson(grid, x=xs), x=xs)
        # the |x - y| kink along the diagonal limits Simpson to ~1e-4 here
        assert total == pytest.approx(1.0, abs=5e-4)

    def test_log_norm_dim_one(self):
        # Z_1(v) = sqrt(2 v) * sqrt(2) * Gamma(1/2) = sqrt(4 pi v)
        assert _weyl_log_norm(1, 0.5) == pytest.approx(
            0.5 * math.log(2.0 * math.pi), rel=1e-12
        )


class TestRhoOnePoint:
    def test_dim_one_center(self):
        assert rho_one_point(1, 0.5, 0.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=1e-12
        )

    @pytest.mark.parametrize("n,v", [(2, 0.5), (2, 1.0), (3, 0.5), (3, 1.0)])
    def test_against_weyl_marginal(self, n, v):
        xs = np.array([0.0, 0.45, -1.3, 2.7])
        got = rho_one_point(n, v, xs)
        want = np.array([_weyl_marginal(n, v, x) for x in xs])
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("n", range(1, 22))
    def test_normalization(self, n):
        total, _ = integrate.quad(
            lambda x: rho_one_point(n, 0.5, x), -np.inf, np.inf,
            epsabs=0.0, epsrel=1e-12, limit=200,
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", [5, 8])
    def test_against_sampled_histogram(self, n):
        # per-matrix bin counts are iid across matrices (not across the
        # eigenvalues of one matrix), so each bin's z-score uses their sd
        v, n_mat = 0.7, 40_000
        eigs = np.linalg.eigvalsh(
            sample_matrices(EnsembleParams(m=n, u=0.0, v=v), n_mat,
                            np.random.default_rng(50 + n))
        )
        edges = np.linspace(-1.1, 1.1, 23) * 2.0 * math.sqrt(v * n)
        counts = np.stack([np.histogram(row, bins=edges)[0] for row in eigs])
        share = counts.mean(axis=0) / n
        se = counts.std(axis=0, ddof=1) / (n * math.sqrt(n_mat))
        fine = np.linspace(edges[0], edges[-1], 22 * 40 + 1)
        rho = rho_one_point(n, v, fine)
        want = np.array([
            integrate.simpson(rho[40 * b: 40 * b + 41], x=fine[40 * b: 40 * b + 41])
            for b in range(22)
        ])
        z = np.abs(share - want) / se
        assert z.max() <= 4.5, z

    def test_symmetry(self):
        xs = np.linspace(0.1, 3.0, 7)
        for n in (2, 3, 4, 9):
            np.testing.assert_allclose(
                rho_one_point(n, 0.5, xs), rho_one_point(n, 0.5, -xs), rtol=1e-10
            )

    def test_rescaling_identity(self):
        # c rho_(n, c^2 v)(c x) = rho_(n, v)(x)
        c, v, x = 1.7, 0.5, 0.6
        for n in (2, 3, 4):
            assert c * rho_one_point(n, c * c * v, c * x) == pytest.approx(
                rho_one_point(n, v, x), rel=1e-9
            )

    def test_large_n_approaches_semicircle(self):
        # spectral bulk of GOE(n, v) follows the semicircle of variance n v
        n, v = 200, 1.0 / 400.0
        got = rho_one_point(n, v, 0.0)
        want = float(semicircle_density(n * v, 0.0))
        assert got == pytest.approx(want, rel=0.05)

    def test_input_validation(self):
        for n, v in ((0, 0.5), (601, 0.5), (3, 0.0)):
            with pytest.raises(ValueError):
                rho_one_point(n, v, 0.0)


class TestSemicircle:
    def test_center_and_edge(self):
        v = 0.5
        assert semicircle_density(v, 0.0) == pytest.approx(
            1.0 / (math.pi * math.sqrt(v)), rel=1e-12
        )
        assert semicircle_density(v, 2.0 * math.sqrt(v)) == 0.0
        assert semicircle_density(v, 5.0) == 0.0

    def test_normalization(self):
        xs = np.linspace(-2.0, 2.0, 4001)
        assert integrate.simpson(semicircle_density(1.0, xs), x=xs) == pytest.approx(
            1.0, abs=1e-5
        )

    def test_bad_variance(self):
        with pytest.raises(ValueError):
            semicircle_density(0.0, 0.0)


class TestFyodorov:
    def test_even_in_shift(self):
        assert fyodorov_absdet(2, 0.5, 0.8) == pytest.approx(
            fyodorov_absdet(2, 0.5, -0.8), rel=1e-9
        )

    @pytest.mark.parametrize("m,v,lam", [(2, 0.5, 0.0), (2, 0.5, 0.7), (3, 0.5, 0.4)])
    def test_against_monte_carlo(self, m, v, lam):
        rng = np.random.default_rng(17)
        g = rng.standard_normal((200_000, m, m))
        b = (g + np.swapaxes(g, 1, 2)) * math.sqrt(v / 2.0)
        vals = np.abs(np.linalg.det(lam * np.eye(m) + b))
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert fyodorov_absdet(m, v, lam) == pytest.approx(vals.mean(), abs=4 * se)


class TestExpectAbsdetS:
    def test_frozen_oracle_dim_two(self):
        got = expect_absdet_S(2, 1.0)
        assert abs(got - E_ABSDET_S21) <= 3.0 * E_ABSDET_S21_ERR

    def test_closed_form_dim_two(self):
        assert expect_absdet_S(2, 1.0) == pytest.approx(4.0 / math.sqrt(3.0), rel=1e-12)

    @pytest.mark.parametrize("m", [3, 20])
    def test_simpson_grid_against_adaptive_quadrature(self, m):
        # E|det| and its identity-shift derivative share the Simpson grid;
        # the derivative weight is (lam^2 - v) / (2 v^2)
        v = 0.5
        pref = math.exp(
            (m + 1) / 2.0 * math.log(2.0 * v) + 1.5 * math.log(2.0)
            + special.gammaln((m + 3) / 2.0) - 0.5 * math.log(2.0 * math.pi * v)
        )

        def quad(weight):
            total, _ = integrate.quad(
                lambda x: rho_one_point(m + 1, v, x) * math.exp(-x * x / (4.0 * v))
                * weight(x),
                -np.inf, np.inf, epsabs=0.0, epsrel=1e-13, limit=200,
            )
            return pref * total

        f, df_du = _absdet_shift_moments(m, v)
        assert expect_absdet_S(m, v) == f
        assert f == pytest.approx(quad(lambda x: 1.0), rel=1e-12)
        assert df_du == pytest.approx(
            quad(lambda x: (x * x - v) / (2.0 * v * v)), rel=1e-10
        )

    @pytest.mark.parametrize("m,v", [(2, 1.0), (3, 0.5)])
    def test_shift_derivative_against_finite_difference(self, m, v):
        # dF/du at u = v from E|det| over S(m; u, v) at u = v +- du, each an
        # adaptive integral of fyodorov_absdet against the N(0, u) density,
        # cut where the density is below 1e-30
        lim = 12.0 * math.sqrt(v)

        def f_at(u):
            total, _ = integrate.quad(
                lambda x: fyodorov_absdet(m, v, x) * stats.norm.pdf(x, scale=math.sqrt(u)),
                -lim, lim, epsabs=0.0, epsrel=1e-12, limit=200,
            )
            return total

        du = 1e-4 * v
        fd = (f_at(v + du) - f_at(v - du)) / (2.0 * du)
        assert _absdet_shift_moments(m, v)[1] == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("m", [5, 8])
    def test_against_monte_carlo(self, m):
        res = expect_functional_mc(
            EnsembleParams(m=m, u=1.0, v=1.0), ("absdet",), 400_000, seed=30 + m
        )["absdet"]
        assert expect_absdet_S(m, 1.0) == pytest.approx(
            res["mean"], abs=4 * res["stderr"]
        )

    def test_variance_scaling(self):
        # degree-2 homogeneity in dimension 2: doubling v doubles the mean
        ratio = expect_absdet_S(2, 1.0) / expect_absdet_S(2, 0.5)
        assert ratio == pytest.approx(2.0, rel=1e-6)

    def test_dim_three_against_monte_carlo(self):
        res = expect_functional_mc(
            EnsembleParams(m=3, u=0.5, v=0.5), ("absdet",), 600_000, seed=12
        )["absdet"]
        assert expect_absdet_S(3, 0.5) == pytest.approx(
            res["mean"], abs=4 * res["stderr"]
        )


class TestAsymptotics:
    def test_no_overflow_at_large_dim(self):
        for m in (20, 100, 300):
            for tab in (asymptotic_targets(m), asymptotic_targets_semicircle(m)):
                for key in ("E_f", "E_pf", "E_qf"):
                    assert math.isfinite(tab[key]) and tab[key] > 0.0

    def test_log_constant_growth(self):
        # log C_m / (m/2 log m) creeps toward 1 from below
        ratios = [
            asymptotic_targets(m)["log_Cm"] / (0.5 * m * math.log(m))
            for m in (50, 200, 300)
        ]
        assert ratios[0] < ratios[1] < ratios[2] < 1.0
        assert ratios[2] > 0.7

    def test_det_weight_constant_small_dims(self):
        # C_2 = 2^(3/2) Gamma(5/2) = 3 sqrt(2 pi) / 2
        assert math.exp(asymptotic_targets(2)["log_Cm"]) == pytest.approx(
            1.5 * math.sqrt(2.0 * math.pi), rel=1e-12
        )

    def test_variant_ratio(self):
        # the two E_f constants differ by exactly sqrt(2/pi)
        for m in (6, 20):
            r = asymptotic_targets_semicircle(m)["E_f"] / asymptotic_targets(m)["E_f"]
            assert r == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)

    def test_small_dim_rejected(self):
        with pytest.raises(ValueError):
            asymptotic_targets(1)
