import math

import numpy as np
import pytest
from scipy import special

from critfield.spectrum import (
    DivergentIntegralError,
    SpectralDensity,
    covariance_jet,
    moment_Ik,
    nondegeneracy_ratio,
    psi_envelope,
    radial_jet,
    spectral_moments,
)

GAUSS = SpectralDensity(family="gaussian", params=(1.0,))


class TestMoments:
    @pytest.mark.parametrize("m", [2, 3])
    def test_gaussian_unit_moments(self, m):
        mom = spectral_moments(GAUSS, m)
        # closed-form covariance e^(-|t|^2/2) has unit variance in every slot
        assert mom.s == pytest.approx(1.0, abs=1e-6)
        assert mom.d == pytest.approx(1.0, abs=1e-6)
        assert mom.h == pytest.approx(1.0, abs=1e-6)

    def test_gaussian_ik_closed_form(self):
        # I_k = 2^((k-1)/2) Gamma((k+1)/2) for w = exp(-r^2/2)
        for k in range(1, 8):
            expect = 2.0 ** ((k - 1) / 2.0) * special.gamma((k + 1) / 2.0)
            assert moment_Ik(GAUSS, k) == pytest.approx(expect, rel=1e-9)

    def test_bump_indicator_moment(self):
        w = SpectralDensity(family="compact-bump", params=(1.0, 0.0))
        assert moment_Ik(w, 2) == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_bump_scales_with_radius(self):
        # I_k of the p = 0 bump is R^(k+1)/(k+1)
        w = SpectralDensity(family="compact-bump", params=(2.5, 0.0))
        assert moment_Ik(w, 3) == pytest.approx(2.5**4 / 4.0, rel=1e-9)

    def test_table_density_matches_sampled_gaussian(self):
        r = np.linspace(0.0, 10.0, 2001)
        w = SpectralDensity(
            family="user-table", table=(tuple(r), tuple(np.exp(-r * r / 2.0)))
        )
        mom = spectral_moments(w, 2)
        assert mom.d == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("family, params, table", [
        ("gaussian", (math.inf,), None),
        ("gaussian", (math.nan,), None),
        ("compact-bump", (math.inf, 4.0), None),
        ("compact-bump", (1.0, math.inf), None),
        ("user-table", (), ((0.0, 1.0, 2.0), (1.0, math.inf, 0.0))),
        ("user-table", (), ((0.0, 1.0, math.inf), (1.0, 0.5, 0.0))),
    ], ids=["gaussian-inf", "gaussian-nan", "bump-radius-inf", "bump-power-inf",
            "table-value-inf", "table-radius-inf"])
    def test_nonfinite_input_refused(self, family, params, table):
        # an infinite sigma or radius passes every sign test
        with pytest.raises(ValueError, match="finite"):
            SpectralDensity(family=family, params=params, table=table)

    def test_divergent_tail_rejected(self):
        r = np.linspace(0.0, 10.0, 101)
        w = SpectralDensity(
            family="user-table", table=(tuple(r), tuple(1.0 / (1.0 + r)))
        )
        with pytest.raises(DivergentIntegralError, match=r"w\(r\) r\^4 does not decay"):
            moment_Ik(w, 3)


class TestCovarianceJet:
    def test_value_matches_closed_form(self):
        for t in [(0.0, 0.0), (0.3, -0.2), (1.0, 2.0)]:
            jet = covariance_jet(GAUSS, 2, t)
            assert jet.deriv() == pytest.approx(
                math.exp(-(t[0] ** 2 + t[1] ** 2) / 2.0), rel=1e-9
            )

    def test_derivative_patterns_at_zero(self):
        # second derivatives -d_m delta_ij, fourth derivatives
        # 3 h_m (iiii), h_m (iijj), 0 otherwise
        for m in (2, 3):
            mom = spectral_moments(GAUSS, m)
            jet = covariance_jet(GAUSS, m, (0.0,) * m)
            assert jet.deriv(0, 0) == pytest.approx(-mom.d, abs=1e-6)
            assert jet.deriv(0, 1) == pytest.approx(0.0, abs=1e-8)
            assert jet.deriv(0, 0, 0, 0) == pytest.approx(3.0 * mom.h, abs=1e-6)
            assert jet.deriv(0, 0, 1, 1) == pytest.approx(mom.h, abs=1e-6)
            assert jet.deriv(0, 0, 0, 1) == pytest.approx(0.0, abs=1e-8)

    def test_gaussian_jet_closed_form_offzero(self):
        # for w gaussian, C(t) = e^(-q), q = |t|^2/2, so
        # d/dti C = -t_i C and d2/dti dtj C = (t_i t_j - delta_ij) C
        t = (0.7, -0.4)
        jet = covariance_jet(GAUSS, 2, t)
        c = math.exp(-(t[0] ** 2 + t[1] ** 2) / 2.0)
        assert jet.deriv(0) == pytest.approx(-t[0] * c, rel=1e-8)
        assert jet.deriv(0, 1) == pytest.approx(t[0] * t[1] * c, rel=1e-8)
        assert jet.deriv(0, 0) == pytest.approx((t[0] ** 2 - 1.0) * c, rel=1e-8)

    def test_radial_jet_vectorized(self):
        rho = np.array([0.0, 0.5, 1.3])
        g = radial_jet(GAUSS, 2, rho)
        closed = [(-1.0) ** k * np.exp(-rho * rho / 2.0) for k in range(3)]
        for k in range(3):
            np.testing.assert_allclose(g[k], closed[k], rtol=1e-8)

    def test_psi_envelope_decays(self):
        vals = [psi_envelope(GAUSS, 2, (r, 0.0)) for r in (1.0, 2.0, 4.0)]
        assert vals[0] > vals[1] > vals[2] > 0.0


class TestDeterminantZoo:
    def test_rm_determinant_closed_form(self):
        # R_m(s,d,h) has diag (i,i)->3h, offdiag (ii,jj)->h, extra block 2h,
        # bordered by s and d rows; closed form (2h)^(m-1)((m+2)hs - m d^2)
        rng = np.random.default_rng(1)
        for m in range(2, 9):
            s, d, h = rng.uniform(0.5, 2.0, size=3)
            top = np.concatenate([[s], np.full(m, -d)])
            block = np.full((m, m), h) + 2.0 * h * np.eye(m)
            dense = np.block(
                [[top[None, :1], top[None, 1:]], [top[1:, None], block]]
            )
            closed = (2.0 * h) ** (m - 1) * ((m + 2) * h * s - m * d**2)
            assert closed == pytest.approx(np.linalg.det(dense), rel=1e-10)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_gaussian_nondegeneracy_ratio(self, m):
        mom = spectral_moments(GAUSS, m)
        nd = nondegeneracy_ratio(mom)
        # hs/d^2 = 1 for the gaussian density, strictly above the
        # Cauchy-Schwarz degeneracy threshold m/(m+2)
        assert nd["ratio"] == pytest.approx(1.0, rel=1e-8)
        assert nd["ratio"] > m / (m + 2.0)
        assert nd["nondegenerate"]

    def test_near_degenerate_density_approaches_threshold(self):
        # a single spectral shell gives equality in Cauchy-Schwarz; a
        # narrow bump around r = 1 should sit just above m/(m+2)
        r = np.linspace(0.0, 3.0, 3001)
        w = SpectralDensity(
            family="user-table",
            table=(tuple(r), tuple(np.exp(-((r - 1.0) ** 2) / 2e-2))),
        )
        nd = nondegeneracy_ratio(spectral_moments(w, 2))
        threshold = 2.0 / 4.0
        assert threshold < nd["ratio"] < threshold * 1.05
