import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from critfield.critpoints import _STENCIL, _in_window
from critfield.field import (
    _BAND_TOL,
    _COVARIANCE_TOL,
    GridSpec,
    NyquistError,
    dump_realization,
    jet_labels,
    jet_statistics,
    load_realization,
    spectral_band,
    spectral_cutoff,
    synthesize,
    torus,
    wrap_guard,
)
from critfield.spectrum import SpectralDensity, covariance_jet, psi_envelope, spectral_moments

GAUSS = SpectralDensity(family="gaussian", params=(1.0,))
BUMP = SpectralDensity(family="compact-bump", params=(1.0, 4.0))
SPEC2 = GridSpec(m=2, half_width=4.0, points_per_unit=8, guard=8.0)


@pytest.fixture(scope="module")
def realization():
    return synthesize(GAUSS, SPEC2, seed=123)


class TestGridSpec:
    def test_period_and_spacing(self):
        assert SPEC2.period == 16.0
        assert SPEC2.spacing == 0.125
        assert SPEC2.n_per_side == 128

    def test_negative_guard_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(m=2, half_width=4.0, points_per_unit=8, guard=-1.0)

    def test_counting_window(self):
        # |x_i| <= N + 4 h: 2 (N ppu + 4) + 1 nodes per side
        assert (SPEC2.window_radius, SPEC2.window) == (36, 73)
        spec = GridSpec(m=3, half_width=5.0, points_per_unit=8, guard=7.375)
        assert (spec.n_per_side, spec.window) == (140, 89)
        assert spec.window_bytes == 10 * 89**3 * 16
        assert GridSpec(m=3, half_width=3.0, points_per_unit=8, guard=7.375).window == 57
        # half-widths off the lattice keep the whole cells inside
        assert GridSpec(m=2, half_width=1.5, points_per_unit=3, guard=3.0).window == 17

    def test_guard_must_hold_the_window(self):
        # 16 nodes per side cannot hold the 17-node window of N = 4 at 1 point
        # per unit; the derived guard always covers it
        with pytest.raises(ValueError, match="cannot hold the 17-node counting window"):
            GridSpec(m=2, half_width=4.0, points_per_unit=1, guard=8.0)
        assert GridSpec(m=2, half_width=4.0, points_per_unit=1, guard=9.0).window == 17

    def test_dimension_guard(self):
        for m in (1, 4):
            with pytest.raises(ValueError, match="only m = 2 and m = 3"):
                GridSpec(m=m, half_width=4.0, points_per_unit=8, guard=8.0)

    def test_side_is_even_and_fast(self):
        # 2N + guard = 17.375 units = 139 cells -> 140 = 2^2 5 7
        spec = GridSpec(m=2, half_width=5.0, points_per_unit=8, guard=7.375)
        assert (spec.n_per_side, spec.period) == (140, 17.5)
        # 135 cells is 5-smooth but odd, so the side moves on to 140
        assert GridSpec(m=2, half_width=5.0, points_per_unit=1, guard=125.0).n_per_side == 140

    def test_budget_checked_at_construction(self):
        # ten complex components of 500^3 nodes: 18.6 GiB of jet
        with pytest.raises(ValueError, match=r"500\^3 = 125,000,000 points needs a 18.6 GiB"):
            GridSpec(m=3, half_width=7.0, points_per_unit=24, guard=6.8125)

    def test_budget_counts_the_whole_jet(self):
        # the unit Gaussian at m = 3, N = 7, 16 points per unit: 336^3 nodes
        # (37.9e6) passed a per-array node budget, but the ten jet components
        # hold 5.65 GiB; the largest grids in use still fit
        with pytest.raises(ValueError, match=r"336\^3 .* 5.65 GiB jet, over the budget of 2"):
            GridSpec(m=3, half_width=7.0, points_per_unit=16, guard=6.875)
        crosscheck = GridSpec(m=2, half_width=5.0, points_per_unit=64, guard=6.453125)
        assert crosscheck.n_per_side == 1056
        assert GridSpec(m=3, half_width=5.0, points_per_unit=8, guard=7.375).n_per_side == 140


def _psi_ratio(w, m, t):
    return psi_envelope(w, m, (t,) + (0.0,) * (m - 1)) / psi_envelope(w, m, (0.0,) * m)


def _torus_covariance(w, spec, d):
    """Covariance of the sampled field at lag d (m = 2): the lattice sum
    (2 pi)^(-1) sum_lam w(|lam|) dlam^2 cos(lam . d) over the synthesized
    frequencies."""
    lam = 2.0 * np.pi * np.fft.fftfreq(spec.n_per_side, d=spec.spacing)
    l0, l1 = np.meshgrid(lam, lam, indexing="ij")
    dlam = 2.0 * np.pi / spec.period
    terms = w(np.hypot(l0, l1)) * np.cos(l0 * d[0] + l1 * d[1])
    return float(terms.sum()) * dlam**2 / (2.0 * np.pi)


class TestWrapGuard:
    @pytest.mark.parametrize("w", [GAUSS, BUMP], ids=["gaussian", "bump-1-4"])
    def test_meets_tolerance_and_is_tight(self, w):
        ppu = 8
        h = 1.0 / ppu
        guard, ratio = wrap_guard(w, 2, ppu)
        tail = guard - 8 * h  # one candidate cell plus the stencil, each side
        assert _psi_ratio(w, 2, tail) == pytest.approx(ratio, rel=1e-12)
        assert ratio <= _COVARIANCE_TOL < _psi_ratio(w, 2, tail - h)

    def test_gaussian_guard(self):
        # psi(t) / psi(0) = (t^4 - 6 t^2 + 3) exp(-t^2 / 2) / 3 drops below
        # 1e-6 between t = 404/64 and 405/64, plus 8 cells of reach
        assert wrap_guard(GAUSS, 2, 8)[0] == 7.375
        assert wrap_guard(GAUSS, 3, 8)[0] == 7.375
        guard = wrap_guard(GAUSS, 2, 64)[0]
        assert guard == (405 + 8) / 64
        spec = GridSpec(m=2, half_width=5.0, points_per_unit=64, guard=guard)
        assert spec.n_per_side == 1056  # 1052 cells -> 2^5 3 11

    @pytest.mark.parametrize("w", [GAUSS, BUMP], ids=["gaussian", "bump-1-4"])
    def test_torus_covariance_within_tolerance(self, w):
        # the sampled covariance at lag (2N, 0) is the periodized kernel; the
        # derived guard keeps its wrapped images below tol * psi(0)
        n_half, ppu = 5.0, 8
        spec = GridSpec(m=2, half_width=n_half, points_per_unit=ppu,
                        guard=wrap_guard(w, 2, ppu)[0])
        d = (2.0 * n_half, 0.0)
        exact = covariance_jet(w, 2, d).deriv()
        budget = _COVARIANCE_TOL * psi_envelope(w, 2, (0.0, 0.0))
        assert abs(_torus_covariance(w, spec, d) - exact) <= budget

    def test_factor_two_torus_wraps_the_bump(self):
        # the former fixed torus, period 2 * 2N, puts the first image of the
        # compact-bump (1, 4) kernel at distance 2N = 10: far above tolerance
        spec = GridSpec(m=2, half_width=5.0, points_per_unit=8, guard=10.0)
        assert spec.period == 20.0
        d = (10.0, 0.0)
        err = abs(_torus_covariance(BUMP, spec, d) - covariance_jet(BUMP, 2, d).deriv())
        assert err > 100 * _COVARIANCE_TOL * psi_envelope(BUMP, 2, (0.0, 0.0))

    def test_slow_decay_rejected_within_the_budget(self):
        # the indicator (p = 0) decays like |t|^-2 at m = 3; the largest m = 3
        # torus whose jet fits 2 GiB has 237 cells, period 29.625 at 8 points
        # per unit
        indicator = SpectralDensity(family="compact-bump", params=(1.0, 0.0))
        with pytest.raises(ValueError, match="decays too slowly.* at g = 29.625,"):
            wrap_guard(indicator, 3, 8)


class TestTorus:
    def test_built_from_the_guard_the_cutoff_and_the_band(self):
        # the unit Gaussian at m = 2, N = 5, 8 points per unit: guard 7.375,
        # a 140^2 torus
        grid = torus(GAUSS, 2, 5.0, 8)
        guard, ratio = wrap_guard(GAUSS, 2, 8)
        assert grid.spec == GridSpec(m=2, half_width=5.0, points_per_unit=8, guard=guard)
        assert (grid.wrap_ratio, grid.cutoff) == (ratio, spectral_cutoff(GAUSS, 2))
        np.testing.assert_array_equal(grid.band, spectral_band(GAUSS, grid.spec))
        assert grid.record() == {"guard": 7.375, "tolerance": _COVARIANCE_TOL,
                                 "wrap_ratio": ratio, "n_per_side": {"5.0": 140}}


class TestSynthesis:
    def test_deterministic(self, realization):
        again = synthesize(GAUSS, SPEC2, seed=123)
        np.testing.assert_array_equal(realization.jet, again.jet)

    def test_seeds_differ(self, realization):
        other = synthesize(GAUSS, SPEC2, seed=124)
        assert not np.array_equal(realization.grid[0], other.grid[0])

    def test_nyquist_guard(self):
        coarse = GridSpec(m=2, half_width=4.0, points_per_unit=1, guard=9.0)
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
        # spectral gradient vs centered finite difference of the values, at
        # every window node with both neighbours in the window
        h = realization.spec.spacing
        values, grad0 = realization.grid[0], realization.grid[1]
        fd = (values[2:] - values[:-2]) / (2.0 * h)
        err = np.max(np.abs(fd - grad0[1:-1]))
        scale = np.max(np.abs(grad0))
        assert err < 0.02 * scale  # second-order FD truncation, not roundoff

    def test_jet_owns_the_window(self, realization):
        # the stored jet is the counting window alone: no view keeps a
        # torus-sized buffer alive
        spec = realization.spec
        assert realization.jet.base is None
        assert realization.jet.shape == (6, 73, 73)
        assert realization.jet.nbytes == 6 * spec.window**2 * 16 == spec.window_bytes
        np.testing.assert_array_equal(realization.origin(), [-4.5, -4.5])

    def test_m3_synthesis(self):
        spec = GridSpec(m=3, half_width=2.0, points_per_unit=6, guard=4.0)
        fr = synthesize(GAUSS, spec, seed=5)
        assert spec.n_per_side == 48
        assert fr.grid.shape == (10, 33, 33, 33)  # window radius 2 * 6 + 4
        assert fr.jet.base is None and fr.jet.nbytes == 10 * 33**3 * 16
        assert jet_labels(3)[4:] == ["h00", "h01", "h02", "h11", "h12", "h22"]

    @pytest.mark.parametrize("m, ppu, sigma, half_width", [
        (2, 8, 1.0, 5.0), (2, 64, 1.0, 2.0), (3, 8, 1.0, 3.0), (3, 64, 4.0, 0.5),
    ])
    def test_1_jet_is_the_first_planes_of_the_2_jet(self, m, ppu, sigma, half_width):
        # the 1-jet runs only the transforms of X and grad X, with the same
        # inputs, so its planes are the 2-jet's bit for bit; at m = 3 and
        # ppu 64 a spectrum four times as wide keeps the guard, and the
        # torus, small
        w = SpectralDensity(family="gaussian", params=(sigma,))
        grid = torus(w, m, half_width, ppu)
        one = synthesize(w, grid.spec, 3, grid.cutoff, grid.band, order=1)
        two = synthesize(w, grid.spec, 3, grid.cutoff, grid.band)
        assert one.jet.shape == (1 + m,) + two.jet.shape[1:]
        assert np.array_equal(one.jet, two.jet[:1 + m])
        assert (one.order, two.order) == (1, 2)
        assert jet_labels(m, 1) == jet_labels(m)[:1 + m]

    def test_jet_order_refused(self):
        with pytest.raises(ValueError, match="jet order 3"):
            synthesize(GAUSS, SPEC2, seed=1, order=3)


# a non-monotone table: two bumps, the outer one taller than the inner dip
TABLE = SpectralDensity(
    family="user-table",
    table=((0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0), (1.0, 0.3, 0.05, 0.6, 0.2, 0.05, 0.02)),
)


class TestBand:
    """The frequencies that synthesis leaves out carry, squared and times the
    largest derivative factor (1 + |lam|^2)^2, at most _BAND_TOL of the
    largest such product on the lattice."""

    @pytest.mark.parametrize(
        "w, m, ppu",
        [(GAUSS, 2, 8), (GAUSS, 3, 8), (GAUSS, 2, 64), (BUMP, 2, 8), (TABLE, 2, 8), (TABLE, 3, 6)],
        ids=["gaussian-m2", "gaussian-m3", "gaussian-ppu64", "bump-1-4", "table-m2", "table-m3"],
    )
    def test_left_out_frequencies_are_below_rounding(self, w, m, ppu):
        spec = GridSpec(m=m, half_width=2.0, points_per_unit=ppu, guard=6.0)
        n = spec.n_per_side
        band = spectral_band(w, spec)
        k = len(band) // 2
        assert len(band) < n  # the band prunes
        np.testing.assert_array_equal(band, np.r_[0:k + 1, n - k:n])
        idx = np.fft.fftfreq(n, d=1.0 / n)  # signed axis indices
        freqs = 2.0 * np.pi * np.fft.fftfreq(n, d=spec.spacing)
        lam = np.meshgrid(*([freqs] * m), indexing="ij")
        rad = np.sqrt(sum(x**2 for x in lam))
        f = w(rad) * (1.0 + rad**2) ** 2
        out = functools.reduce(np.logical_or, np.meshgrid(*([np.abs(idx) > k] * m), indexing="ij"))
        assert out.any()
        assert f[out].max() <= _BAND_TOL * f.max()

    @pytest.mark.parametrize("w", [BUMP, TABLE], ids=["bump-1-4", "table"])
    def test_compact_band_is_the_support(self, w):
        spec = GridSpec(m=2, half_width=2.0, points_per_unit=8, guard=6.0)
        dlam = 2.0 * np.pi / spec.period
        assert len(spectral_band(w, spec)) // 2 == math.floor(w.support_radius() / dlam)

    def test_band_reaching_nyquist_is_the_whole_axis(self):
        # at 3 points per unit the Gaussian's products stay above the bound
        # out to the Nyquist radius 3 pi
        spec = GridSpec(m=2, half_width=2.0, points_per_unit=3, guard=6.0)
        np.testing.assert_array_equal(spectral_band(GAUSS, spec), np.arange(spec.n_per_side))

    def test_field_depends_on_period_and_band_only(self):
        # a seed draws its normals on the band block, so two grids of period
        # 16 with one band sample one trigonometric polynomial: ppu 8's
        # nodes are every fourth node of ppu 32's.  With the window radii 44
        # and 164, coarse node i is fine node 4 i - 12
        coarse, fine = (GridSpec(m=2, half_width=5.0, points_per_unit=ppu, guard=6.0)
                        for ppu in (8, 32))
        assert coarse.period == fine.period == 16.0
        band = spectral_band(GAUSS, coarse)
        assert len(band) < coarse.n_per_side  # the band does not reach ppu 8's Nyquist
        np.testing.assert_array_equal(spectral_band(GAUSS, fine) % coarse.n_per_side, band)
        a = synthesize(GAUSS, coarse, seed=77).grid[(slice(None),) + (slice(3, 86),) * 2]
        b = synthesize(GAUSS, fine, seed=77).grid[(slice(None),) + (slice(0, 329, 4),) * 2]
        scale = np.max(np.abs(b), axis=(1, 2), keepdims=True)
        assert np.all(np.abs(a - b) <= 1e-12 * scale)


def _spline_values(field_r, coords, mode="nearest") -> np.ndarray:
    """scipy's quintic-spline values of every jet component at the index
    coordinates (m, k), from the stored coefficients."""
    return np.stack([
        ndimage.map_coordinates(c, coords, order=5, prefilter=False, mode=mode)
        for c in field_r.coeffs
    ])


class TestOffgrid:
    def test_matches_grid_nodes(self, realization):
        # the stored coefficients interpolate the stored grid values, every
        # jet component, the Hessian upper triangle included
        idx = (10, 17)
        vals = _spline_values(realization, np.array(idx, dtype=float)[:, None])[:, 0]
        np.testing.assert_allclose(vals, realization.grid[(slice(None),) + idx], rtol=1e-9)

    def test_stencil_must_stay_in_the_window(self, realization):
        # the window of N = 4 reaches 4 + 4 h; the quintic stencil of a point
        # reads 2 nodes below and 3 above its cell, so the readable points
        # are -4 - 2 h <= t < 4 + 2 h
        h, w = realization.spec.spacing, realization.spec.window
        inside = np.array([(-4.0 - 2.0 * h, 0.0), (4.0 + 1.99 * h, 0.0)])
        outside = np.array([(4.0 + 2.0 * h, 0.0), (0.0, -4.0 - 2.01 * h)])
        assert _in_window(np.floor((inside - realization.origin()) / h), _STENCIL, w).all()
        assert not _in_window(np.floor((outside - realization.origin()) / h), _STENCIL, w).any()
        # a readable stencil reads no node past the window, so no boundary
        # mode ever applies to it
        coords = (inside - realization.origin()).T / h
        vals = _spline_values(realization, coords)
        for mode in ("mirror", "wrap", "constant"):
            other = _spline_values(realization, coords, mode)
            np.testing.assert_allclose(vals, other, rtol=1e-12, atol=0.0)


class TestRoundTrip:
    def test_dump_load_identical(self, realization, tmp_path):
        path = tmp_path / "r.bin"
        dump_realization(realization, path)
        back = load_realization(path)
        assert back.seed == realization.seed
        assert back.spec == realization.spec
        np.testing.assert_array_equal(back.jet, realization.jet)
        assert back.jet.base is None
        # header, then the complex window jet
        assert path.stat().st_size == 6 + 40 + realization.jet.nbytes

    def test_only_the_2_jet_is_dumped(self, tmp_path):
        # the header holds no component count: a 1-jet would load as a
        # truncated 2-jet, so it is refused before the file is opened
        one = synthesize(GAUSS, SPEC2, seed=123, order=1)
        with pytest.raises(ValueError, match="2-jet of 6 components"):
            dump_realization(one, tmp_path / "one.bin")
        assert not (tmp_path / "one.bin").exists()

    def test_cfld2_rejected_by_name(self, tmp_path):
        # CFLD2 stored torus grid values without coefficients
        path = tmp_path / "old.bin"
        path.write_bytes(b"CFLD2\x00" + b"\x00" * 64)
        with pytest.raises(ValueError, match="not a critfield CFLD3 .*CFLD2"):
            load_realization(path)

    def test_truncated_dump_rejected(self, realization, tmp_path):
        path = tmp_path / "r.bin"
        dump_realization(realization, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_realization(path)

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
        guard=st.sampled_from([3.0, 4.0, 5.5]),
        seed=st.integers(min_value=0, max_value=2**63 - 1),
    )
    def test_dump_load_property(self, tmp_path_factory, m, half_width, ppu, guard, seed):
        spec = GridSpec(m=m, half_width=half_width, points_per_unit=ppu, guard=guard)
        fr = synthesize(GAUSS, spec, seed=seed)
        path = tmp_path_factory.mktemp("dump") / "r.bin"
        dump_realization(fr, path)
        back = load_realization(path)
        assert (back.spec, back.seed) == (fr.spec, fr.seed)
        assert back.spectral_cutoff == fr.spectral_cutoff
        np.testing.assert_array_equal(back.jet, fr.jet)


def _legacy_grid(w, spec, seed):
    """Grid values of every jet component on the whole torus by the meshgrid
    formula real(ifftn(C * mult)) * n^m, one numpy transform per component.
    The normals are drawn on the band block, real parts then imaginary
    parts, and the torus holds zeros outside it."""
    m, n = spec.m, spec.n_per_side
    freqs = 2.0 * np.pi * np.fft.fftfreq(n, d=spec.spacing)
    lam = np.meshgrid(*([freqs] * m), indexing="ij")
    rad = np.sqrt(sum(x**2 for x in lam))
    dlam = 2.0 * np.pi / spec.period
    amp = np.sqrt(2.0 * (2.0 * np.pi) ** (-m / 2.0) * w(rad) * dlam**m)
    band = spectral_band(w, spec)
    rng = np.random.default_rng(seed)
    z = np.zeros(rad.shape, dtype=complex)
    block = (len(band),) * m
    z[np.ix_(*[band] * m)] = rng.standard_normal(block) + 1j * rng.standard_normal(block)
    coeff = amp * z / np.sqrt(2.0)
    mults = [1.0] + [1j * lam[j] for j in range(m)]
    mults += [-lam[i] * lam[j] for i in range(m) for j in range(i, m)]
    return [np.real(np.fft.ifftn(coeff * mult)) * float(n**m) for mult in mults]


@pytest.mark.parametrize(
    "w, spec",
    [
        (GAUSS, GridSpec(m=2, half_width=4.0, points_per_unit=8, guard=8.0)),
        (GAUSS, GridSpec(m=3, half_width=2.0, points_per_unit=6, guard=4.0)),
        (GAUSS, GridSpec(m=2, half_width=5.0, points_per_unit=8, guard=7.375)),  # 140 = 2^2 5 7
        # the band is the bump's support: 17 of 448 frequencies per axis
        (BUMP, GridSpec(m=2, half_width=1.0, points_per_unit=8, guard=53.75)),
        # crosscheck's resolution: 39 of 550 frequencies per axis
        (GAUSS, GridSpec(m=2, half_width=1.0, points_per_unit=64, guard=6.453125)),
    ],
    ids=["m2", "m3", "m2-fast", "m2-bump", "m2-ppu64"],
)
class TestFoldedPrefilter:
    # the pruned transform of the band returns the legacy torus-wide jet of
    # every frequency, with the same normals on the band and zeros outside
    # it, cropped to the counting window

    @staticmethod
    def _window(spec, torus):
        n, r = spec.n_per_side, spec.window_radius
        return torus[(slice(n // 2 - r, n // 2 + r + 1),) * spec.m]

    def test_coefficients_match_spline_filter(self, w, spec):
        fr = synthesize(w, spec, seed=31)
        legacy = _legacy_grid(w, spec, seed=31)
        for label, coeffs, torus in zip(jet_labels(spec.m), fr.coeffs, legacy):
            ref = self._window(spec, ndimage.spline_filter(torus, order=5, mode="grid-wrap"))
            err = np.max(np.abs(coeffs - ref)) / np.max(np.abs(ref))
            assert err <= 1e-12, label

    def test_grid_values_match_legacy_formula(self, w, spec):
        fr = synthesize(w, spec, seed=31)
        legacy = _legacy_grid(w, spec, seed=31)
        for label, grid, torus in zip(jet_labels(spec.m), fr.grid, legacy):
            ref = self._window(spec, torus)
            err = np.max(np.abs(grid - ref)) / np.max(np.abs(ref))
            assert err <= 1e-12, label
