import csv

import numpy as np
import pytest

from critfield.critpoints import (
    CriticalPointSet,
    count_kacrice_smoothed,
    count_newton,
    expected_count,
    write_csv,
)
from critfield.field import FieldRealization, GridSpec, synthesize
from critfield.spectrum import SpectralDensity, spectral_moments

SPEC = GridSpec(m=2, half_width=3.2, points_per_unit=10)
# wave number commensurate with the torus: period 12.8 holds two full waves
K = np.pi / 3.2


def _analytic_field(kind: str) -> FieldRealization:
    """Hand-built realizations with known critical sets.

    "coscos": X = cos(k x) cos(k y), lattice of extrema and saddles.
    "ramp":   X = x, gradient never vanishes.
    "flat":   X = 0 identically.
    """
    n = SPEC.n_per_side
    c = -SPEC.period / 2.0 + SPEC.spacing * np.arange(n)
    x, y = np.meshgrid(c, c, indexing="ij")
    if kind == "coscos":
        grid = [
            np.cos(K * x) * np.cos(K * y),
            -K * np.sin(K * x) * np.cos(K * y),
            -K * np.cos(K * x) * np.sin(K * y),
            -K**2 * np.cos(K * x) * np.cos(K * y),
            K**2 * np.sin(K * x) * np.sin(K * y),
            -K**2 * np.cos(K * x) * np.cos(K * y),
        ]
    elif kind == "ramp":
        grid = [x, np.ones_like(x)] + [np.zeros_like(x)] * 4
    else:
        grid = [np.zeros_like(x)] * 6
    # jet order: X, X_x, X_y, X_xx, X_xy, X_yy
    return FieldRealization.from_grid(
        SPEC, np.stack(grid), seed=0, spectral_cutoff=K * np.sqrt(2.0)
    )


class TestNewtonAnalytic:
    # in [-2, 2)^2 the cosine lattice has the maximum at the origin and
    # the four saddles at (+-1.6, +-1.6); the neighboring extrema sit at
    # |coordinate| = 3.2 and stay outside
    BOX = ((-2.0, -2.0), (2.0, 2.0))

    def test_count_and_signatures(self):
        cps = count_newton(_analytic_field("coscos"), self.BOX)
        assert cps.newton_count == 5
        assert cps.failed_cells == 0
        assert cps.degenerate_flags == []
        assert cps.signature_counts() == {2: 1, 1: 4}

    def test_locations(self):
        cps = count_newton(_analytic_field("coscos"), self.BOX)
        locs = sorted(p.location for p in cps.points)
        expected = sorted(
            [(-1.6, -1.6), (-1.6, 1.6), (0.0, 0.0), (1.6, -1.6), (1.6, 1.6)]
        )
        for got, want in zip(locs, expected):
            np.testing.assert_allclose(got, want, atol=1e-7)
        for p in cps.points:
            assert p.gradient_norm < 1e-8

    def test_saddle_determinants(self):
        cps = count_newton(_analytic_field("coscos"), self.BOX)
        for p in cps.points:
            if p.hessian_signature == 1:
                assert p.det_hessian == pytest.approx(-(K**4), rel=1e-4)
            else:
                assert p.det_hessian == pytest.approx(K**4, rel=1e-4)

    def test_quadrant_additivity(self):
        # half-open boxes partition the plane, so counts add exactly
        fr = _analytic_field("coscos")
        # the split lines avoid the critical points themselves: a root that
        # lands exactly on a cut is assigned by floating-point roundoff
        total = count_newton(fr, self.BOX).newton_count
        parts = 0
        for sx in (-1, 1):
            for sy in (-1, 1):
                lo = (min(0.4, 2.0 * sx), min(0.4, 2.0 * sy))
                hi = (max(0.4, 2.0 * sx), max(0.4, 2.0 * sy))
                parts += count_newton(fr, (lo, hi)).newton_count
        assert parts == total

    def test_translated_box(self):
        # shifting the box by one lattice period preserves the count
        fr = _analytic_field("coscos")
        box = ((-2.0 + 3.2, -2.0), (2.0 + 3.2, 2.0))
        cps = count_newton(fr, box)
        assert cps.newton_count == 5
        assert cps.signature_counts() == {2: 1, 1: 4} or cps.signature_counts() == {0: 1, 1: 4}

    def test_ramp_has_no_critical_points(self):
        cps = count_newton(_analytic_field("ramp"), self.BOX)
        assert cps.newton_count == 0
        assert cps.failed_cells == 0

    def test_flat_field_rejected(self):
        with pytest.raises(ValueError):
            count_newton(_analytic_field("flat"), self.BOX)

    def test_bad_box_rejected(self):
        with pytest.raises(ValueError):
            count_newton(_analytic_field("coscos"), ((0.0, 0.0), (0.0, 1.0)))


class TestKacriceAnalytic:
    BOX = ((-2.0, -2.0), (2.0, 2.0))

    def test_matches_newton_count(self):
        # the cosine lattice puts every critical point exactly on a grid
        # node, the worst case for the sharp-indicator quadrature, so the
        # sub-node resolution has to be generous here
        fr = _analytic_field("coscos")
        est = count_kacrice_smoothed(fr, self.BOX, eps=0.05, refine=48)
        assert est == pytest.approx(5.0, rel=0.02)
        coarse = count_kacrice_smoothed(fr, self.BOX, eps=0.05)
        assert coarse == pytest.approx(5.0, rel=0.10)

    def test_eps_below_gradient_floor_gives_zero(self):
        # the ramp gradient has modulus 1 everywhere, far above eps
        fr = _analytic_field("ramp")
        assert count_kacrice_smoothed(fr, self.BOX, eps=0.3) == 0.0

    def test_invalid_args(self):
        fr = _analytic_field("coscos")
        with pytest.raises(ValueError):
            count_kacrice_smoothed(fr, self.BOX, eps=-0.1)
        with pytest.raises(ValueError):
            count_kacrice_smoothed(fr, self.BOX, eps=0.05, refine=0)

    def test_tiny_eps_warns(self):
        fr = _analytic_field("coscos")
        with pytest.warns(UserWarning):
            count_kacrice_smoothed(fr, self.BOX, eps=1e-5)


class TestSynthesizedField:
    def test_estimators_agree(self):
        w = SpectralDensity(family="gaussian", params=(1.0,))
        spec = GridSpec(m=2, half_width=4.0, points_per_unit=16)
        fr = synthesize(w, spec, seed=42)
        box = ((-3.0, -3.0), (3.0, 3.0))
        cps = count_newton(fr, box)
        assert cps.failed_cells == 0
        assert cps.newton_count > 0
        # finite-eps bias shrinks along the ladder
        errs = [
            abs(count_kacrice_smoothed(fr, box, eps=e, refine=r) - cps.newton_count)
            for e, r in [(0.2, 12), (0.1, 12), (0.025, 24)]
        ]
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 0.03 * cps.newton_count

    def test_morse_alternation(self):
        # every interior signature class should appear in a decent window
        w = SpectralDensity(family="gaussian", params=(1.0,))
        spec = GridSpec(m=2, half_width=5.0, points_per_unit=12)
        fr = synthesize(w, spec, seed=7)
        cps = count_newton(fr, ((-4.0, -4.0), (4.0, 4.0)))
        sigs = cps.signature_counts()
        assert set(sigs) == {0, 1, 2}
        # saddles outnumber either extremum type on average
        assert sigs[1] >= max(sigs[0], sigs[2])


class TestExpectedCount:
    def test_gaussian_density_formula(self):
        w = SpectralDensity(family="gaussian", params=(1.0,))
        mom = spectral_moments(w, 2)
        val = expected_count(mom, 2, box_volume=36.0, e_absdet_s1=2.0)
        assert val == pytest.approx(36.0 * 2.0 / (2.0 * np.pi), rel=1e-9)


class TestCsv:
    def test_roundtrip_rows(self, tmp_path):
        cps = count_newton(_analytic_field("coscos"), ((-2.0, -2.0), (2.0, 2.0)))
        path = tmp_path / "pts.csv"
        write_csv(cps, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x0", "x1", "residual", "signature", "det_hessian"]
        assert len(rows) == 1 + cps.newton_count
        sigs = sorted(int(r[3]) for r in rows[1:])
        assert sigs == [1, 1, 1, 1, 2]
