import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from critfield.field import (
    GridSpec,
    NyquistError,
    dump_realization,
    evaluate_offgrid,
    jet_labels,
    jet_statistics,
    load_realization,
    synthesize,
)
from critfield.spectrum import SpectralDensity, spectral_moments

GAUSS = SpectralDensity(family="gaussian", params=(1.0,))
SPEC2 = GridSpec(m=2, half_width=4.0, points_per_unit=8)


@pytest.fixture(scope="module")
def realization():
    return synthesize(GAUSS, SPEC2, seed=123)


class TestGridSpec:
    def test_period_and_spacing(self):
        assert SPEC2.period == 16.0
        assert SPEC2.spacing == 0.125
        assert SPEC2.n_per_side == 128

    def test_padding_guard(self):
        with pytest.raises(ValueError):
            GridSpec(m=2, half_width=4.0, points_per_unit=8, padding_factor=1.0)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            GridSpec(m=4, half_width=4.0, points_per_unit=8)


class TestSynthesis:
    def test_deterministic(self, realization):
        again = synthesize(GAUSS, SPEC2, seed=123)
        np.testing.assert_array_equal(realization.jet, again.jet)

    def test_seeds_differ(self, realization):
        other = synthesize(GAUSS, SPEC2, seed=124)
        assert not np.array_equal(realization.grid[0], other.grid[0])

    def test_nyquist_guard(self):
        coarse = GridSpec(m=2, half_width=4.0, points_per_unit=1)
        with pytest.raises(NyquistError):
            synthesize(GAUSS, coarse, seed=0)

    def test_jet_variances_match_moments(self):
        # pooled sample moments across realizations vs s_m, d_m, h_m targets
        mom = spectral_moments(GAUSS, 2)
        fields = [synthesize(GAUSS, SPEC2, seed=s) for s in range(8)]
        stats = jet_statistics(fields)
        targets = {
            "X.X": mom.s,
            "g0.g0": mom.d,
            "g0.g1": 0.0,
            # hessian moments: E[h_ii^2] = 3h, E[h_ii h_jj] = E[h_ij^2] = h
            "h00.h00": 3.0 * mom.h,
            "h00.h11": mom.h,
            "h01.h01": mom.h,
        }
        for label, want in targets.items():
            est, se = stats[label]
            assert est == pytest.approx(want, abs=4 * se), label

    def test_gradient_consistent_with_values(self, realization):
        # spectral gradient vs centered finite difference of the values
        h = realization.spec.spacing
        values, grad0 = realization.grid[0], realization.grid[1]
        fd = (np.roll(values, -1, axis=0) - np.roll(values, 1, axis=0)) / (2.0 * h)
        err = np.max(np.abs(fd - grad0))
        scale = np.max(np.abs(grad0))
        assert err < 0.02 * scale  # second-order FD truncation, not roundoff

    def test_m3_synthesis(self):
        spec = GridSpec(m=3, half_width=2.0, points_per_unit=6)
        fr = synthesize(GAUSS, spec, seed=5)
        assert fr.grid.shape == (10, 48, 48, 48)
        assert jet_labels(3)[4:] == ["h00", "h01", "h02", "h11", "h12", "h22"]


class TestOffgrid:
    def test_matches_grid_nodes(self, realization):
        idx = (10, 17)
        t = realization.origin() + realization.spec.spacing * np.array(idx)
        res = evaluate_offgrid(realization, t)
        grid = dict(zip(jet_labels(2), realization.grid))
        assert res["value"] == pytest.approx(float(grid["X"][idx]), rel=1e-9)
        assert res["gradient"][1] == pytest.approx(
            float(grid["g1"][idx]), rel=1e-9
        )
        assert res["hessian"][(0, 1)] == pytest.approx(
            float(grid["h01"][idx]), rel=1e-9
        )
        assert res["hessian"][(1, 0)] == res["hessian"][(0, 1)]

    def test_outside_domain_rejected(self, realization):
        with pytest.raises(ValueError):
            evaluate_offgrid(realization, (100.0, 0.0))


class TestRoundTrip:
    def test_dump_load_identical(self, realization, tmp_path):
        path = tmp_path / "r.bin"
        dump_realization(realization, path)
        back = load_realization(path)
        assert back.seed == realization.seed
        assert back.spec == realization.spec
        np.testing.assert_array_equal(back.grid, realization.grid)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAFIELD" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_realization(path)

    @settings(max_examples=12, deadline=None)
    @given(
        m=st.sampled_from([2, 3]),
        half_width=st.sampled_from([1.0, 1.5, 2.0]),
        ppu=st.integers(min_value=3, max_value=6),
        seed=st.integers(min_value=0, max_value=2**63 - 1),
    )
    def test_dump_load_property(self, tmp_path_factory, m, half_width, ppu, seed):
        spec = GridSpec(m=m, half_width=half_width, points_per_unit=ppu)
        fr = synthesize(GAUSS, spec, seed=seed)
        path = tmp_path_factory.mktemp("dump") / "r.bin"
        dump_realization(fr, path)
        back = load_realization(path)
        assert (back.spec, back.seed) == (fr.spec, fr.seed)
        assert back.spectral_cutoff == fr.spectral_cutoff
        np.testing.assert_array_equal(back.grid, fr.grid)
        for got, want in zip(back.coeffs, fr.coeffs):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _legacy_grid(w, spec, seed):
    """Grid values of every jet component by the meshgrid formula
    real(ifftn(C * mult)) * n^m, one numpy transform per component."""
    m, n = spec.m, spec.n_per_side
    freqs = 2.0 * np.pi * np.fft.fftfreq(n, d=spec.spacing)
    lam = np.meshgrid(*([freqs] * m), indexing="ij")
    rad = np.sqrt(sum(x**2 for x in lam))
    dlam = 2.0 * np.pi / spec.period
    amp = np.sqrt(2.0 * (2.0 * np.pi) ** (-m / 2.0) * w(rad) * dlam**m)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(rad.shape) + 1j * rng.standard_normal(rad.shape)
    coeff = amp * z / np.sqrt(2.0)
    mults = [1.0] + [1j * lam[j] for j in range(m)]
    mults += [-lam[i] * lam[j] for i in range(m) for j in range(i, m)]
    return [np.real(np.fft.ifftn(coeff * mult)) * float(n**m) for mult in mults]


@pytest.mark.parametrize(
    "spec",
    [
        GridSpec(m=2, half_width=4.0, points_per_unit=8),
        GridSpec(m=3, half_width=2.0, points_per_unit=6),
    ],
    ids=["m2", "m3"],
)
class TestFoldedPrefilter:
    def test_coefficients_match_spline_filter(self, spec):
        fr = synthesize(GAUSS, spec, seed=31)
        for label, grid, coeffs in zip(jet_labels(spec.m), fr.grid, fr.coeffs):
            ref = ndimage.spline_filter(grid, order=5, mode="grid-wrap")
            err = np.max(np.abs(coeffs - ref)) / np.max(np.abs(ref))
            assert err <= 1e-12, label

    def test_grid_values_match_legacy_formula(self, spec):
        fr = synthesize(GAUSS, spec, seed=31)
        legacy = _legacy_grid(GAUSS, spec, seed=31)
        for label, grid, ref in zip(jet_labels(spec.m), fr.grid, legacy):
            err = np.max(np.abs(grid - ref)) / np.max(np.abs(ref))
            assert err <= 1e-12, label
