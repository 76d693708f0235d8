import csv
import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage, special
from scipy.spatial import cKDTree

from critfield import critpoints
from critfield.critpoints import (
    _STENCIL,
    _TAPS,
    CriticalPointSet,
    _candidate_cells,
    _flat_stencil,
    _in_window,
    _lattice,
    _node_major,
    _quintic_gather,
    _quintic_weights,
    count_kacrice_smoothed,
    count_newton,
    expected_count,
    write_csv,
)
from critfield.field import (
    FieldRealization,
    GridSpec,
    jet_labels,
    synthesize,
    wrap_guard,
)
from critfield.randmat import _adjugate, hessian_stack
from critfield.spectrum import SpectralDensity

SPEC = GridSpec(m=2, half_width=3.2, points_per_unit=10, guard=6.4)
# a cube of half-width 6.4 holds boxes shifted by one lattice period
WIDE = GridSpec(m=2, half_width=6.4, points_per_unit=10, guard=6.4)
GAUSS = SpectralDensity(family="gaussian", params=(1.0,))
# wave number commensurate with the tori: periods 12.8 and 19.2 hold two and
# three full waves
K = np.pi / 3.2


def _map_coordinates(field: FieldRealization, pts: np.ndarray, comps=slice(None)) -> np.ndarray:
    """scipy's quintic-spline values (c, k) of the jet components ``comps``
    at the readable points (k, m): the oracle that critfield's own kernels
    are checked against."""
    coords = (pts - field.origin()).T / field.spec.spacing
    return np.stack([
        ndimage.map_coordinates(c, coords, order=5, prefilter=False, mode="nearest")
        for c in field.coeffs[comps]
    ])


def _analytic_field(kind: str, spec: GridSpec = SPEC) -> FieldRealization:
    """Hand-built realizations with known critical sets.

    "coscos": X = cos(k x) cos(k y), lattice of extrema and saddles.
    "ramp":   X = x, gradient never vanishes.
    "cubed":  X = sin^3(k x) + cos(k y), a double zero of X_x on x = 0.
    "stripes": X = cos(k x), lines of critical points; det hess X = 0.
    "flat":   X = 0 identically.

    The jet is sampled on the whole torus, prefiltered periodically, and
    cropped to the counting window, as ``synthesize`` stores it.
    """
    n = spec.n_per_side
    c = -spec.period / 2.0 + spec.spacing * np.arange(n)
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
    elif kind == "cubed":
        s, c = np.sin(K * x), np.cos(K * x)
        grid = [
            s**3 + np.cos(K * y),
            3 * K * s**2 * c,
            -K * np.sin(K * y),
            3 * K**2 * (2 * s * c**2 - s**3),
            np.zeros_like(x),
            -K**2 * np.cos(K * y),
        ]
    elif kind == "stripes":
        zero = np.zeros_like(x)
        grid = [np.cos(K * x), -K * np.sin(K * x), zero, -K**2 * np.cos(K * x), zero, zero]
    elif kind == "ramp":
        grid = [x, np.ones_like(x)] + [np.zeros_like(x)] * 4
    else:
        grid = [np.zeros_like(x)] * 6
    # jet order: X, X_x, X_y, X_xx, X_xy, X_yy
    jet = np.stack([g + 1j * ndimage.spline_filter(g, order=5, mode="grid-wrap") for g in grid])
    keep = slice(n // 2 - spec.window_radius, n // 2 + spec.window_radius + 1)
    return FieldRealization(spec, jet[:, keep, keep].copy(), seed=0, spectral_cutoff=K * np.sqrt(2.0))


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
        locs = sorted(map(tuple, cps.locations))
        expected = sorted(
            [(-1.6, -1.6), (-1.6, 1.6), (0.0, 0.0), (1.6, -1.6), (1.6, 1.6)]
        )
        np.testing.assert_allclose(locs, expected, atol=1e-7)
        assert np.all(cps.residuals < 1e-8)

    def test_saddle_determinants(self):
        cps = count_newton(_analytic_field("coscos"), self.BOX)
        want = np.where(cps.signatures == 1, -(K**4), K**4)
        np.testing.assert_allclose(cps.det_hessian, want, rtol=1e-4)

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
        fr = _analytic_field("coscos", WIDE)
        box = ((-2.0 + 3.2, -2.0), (2.0 + 3.2, 2.0))
        cps = count_newton(fr, box)
        assert cps.newton_count == 5
        assert cps.signature_counts() == {2: 1, 1: 4} or cps.signature_counts() == {0: 1, 1: 4}

    def test_ramp_has_no_critical_points(self):
        cps = count_newton(_analytic_field("ramp"), self.BOX)
        assert isinstance(cps, CriticalPointSet)
        assert cps.newton_count == 0
        assert cps.failed_cells == 0
        # no candidate cell at all: the arrays come back empty, not missing
        assert cps.locations.shape == (0, 2)
        assert cps.det_hessian.shape == (0,)
        assert cps.signature_counts() == {}

    def test_flat_field_rejected(self):
        with pytest.raises(ValueError):
            count_newton(_analytic_field("flat"), self.BOX)

    def test_bad_box_rejected(self):
        with pytest.raises(ValueError):
            count_newton(_analytic_field("coscos"), ((0.0, 0.0), (0.0, 1.0)))

    @pytest.mark.parametrize(
        "box", [((-3.3, -2.0), (2.0, 2.0)), ((-2.0, -2.0), (2.0, 3.21))], ids=["lo", "hi"]
    )
    def test_box_beyond_the_cube_rejected(self, box):
        # the jet covers the cube [-3.2, 3.2]^2 and the counting reach only
        fr = _analytic_field("coscos")
        with pytest.raises(ValueError, match="leaves the cube"):
            count_newton(fr, box)
        with pytest.raises(ValueError, match="leaves the cube"):
            count_kacrice_smoothed(fr, box, eps=0.05)
        count_newton(fr, ((-3.2, -3.2), (3.2, 3.2)))  # the cube itself is fine


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


def _finite_eps_factor(eps, m: int) -> np.ndarray:
    """E K_eps / E Z for a field of unit gradient variance.

    By Kac-Rice with grad X(x) independent of hess X(x), E K_eps = vol
    E|det hess X| E[(2 eps)^(-m) 1{|grad X|_inf <= eps}], which is E Z times
    the mean of the N(0, 1)^m density over [-eps, eps]^m divided by its
    value at 0: (sqrt(pi / 2) erf(eps / sqrt 2) / eps)^m.
    """
    eps = np.asarray(eps, dtype=float)
    return (math.sqrt(math.pi / 2.0) * special.erf(eps / math.sqrt(2.0)) / eps) ** m


class TestSynthesizedField:
    def test_estimators_agree(self):
        # one field's K_eps - Z has sd 1.21, 0.89 and 0.44 along the ladder
        # (400 fields, seeds 0-399): 3% of Z ~ 13 even at the finest eps, so
        # single-field bounds hold by luck.  Over F = 40 fields, the mean of
        # K_eps - f(eps) Z lies within 4 of its standard errors (the sd over
        # the fields / sqrt F) of 0, and the mean |K_eps - Z| shrinks along
        # the ladder.  On the ten blocks of 40 among seeds 0-399 the largest
        # |mean| is 1.8 standard errors and every block shrinks
        m, ladder = 2, [(0.2, 12), (0.1, 12), (0.025, 24)]
        spec = GridSpec(m=m, half_width=4.0, points_per_unit=16, guard=8.0)
        box = ((-3.0, -3.0), (3.0, 3.0))
        z, k = [], []
        for seed in range(40):
            fr = synthesize(GAUSS, spec, seed)
            cps = count_newton(fr, box)
            assert cps.failed_cells == 0
            z.append(cps.newton_count)
            k.append([count_kacrice_smoothed(fr, box, eps=e, refine=r) for e, r in ladder])
        z, k = np.array(z, dtype=float)[:, None], np.array(k)
        assert z.min() > 0
        diff = k - _finite_eps_factor([e for e, _ in ladder], m) * z
        se = diff.std(axis=0, ddof=1) / math.sqrt(len(z))
        assert np.all(np.abs(diff.mean(axis=0)) <= 4.0 * se)
        spread = np.abs(k - z).mean(axis=0)
        assert spread[2] < spread[1] < spread[0]

    def test_morse_alternation(self):
        # every interior signature class should appear in a decent window
        w = SpectralDensity(family="gaussian", params=(1.0,))
        spec = GridSpec(m=2, half_width=5.0, points_per_unit=12, guard=10.0)
        fr = synthesize(w, spec, seed=7)
        cps = count_newton(fr, ((-4.0, -4.0), (4.0, 4.0)))
        sigs = cps.signature_counts()
        assert set(sigs) == {0, 1, 2}
        # saddles outnumber either extremum type on average
        assert sigs[1] >= max(sigs[0], sigs[2])

    def test_saddles_balance_extrema(self):
        # at m = 2 stationarity gives Cov(h00, h11) = Var(h01), so E det hess
        # X = 0 and, by Kac-Rice, E[#saddles] = E[#extrema] in any box; the
        # mean difference over 16 fields is 0 within 4.5 standard errors
        spec = GridSpec(m=2, half_width=5.0, points_per_unit=8,
                        guard=wrap_guard(GAUSS, 2, 8)[0])
        box = ((-5.0, -5.0), (5.0, 5.0))
        diffs = []
        for seed in range(16):
            sigs = count_newton(synthesize(GAUSS, spec, seed), box).signatures
            assert sigs.size > 0
            diffs.append(np.sum(sigs == 1) - np.sum(sigs != 1))
        mean, se = np.mean(diffs), np.std(diffs, ddof=1) / np.sqrt(len(diffs))
        assert abs(mean) <= 4.5 * se if se > 0 else mean == 0

    def test_alternating_index_sum_m3(self):
        # at m = 3, X -> -X maps index k to 3 - k, so (-1)^index flips sign
        # and E sum (-1)^signature = 0 exactly; the mean over 8 fields is 0
        # within 4.5 standard errors.  Retiring iterates must not drop the
        # points of one signature
        spec = GridSpec(m=3, half_width=3.0, points_per_unit=8,
                        guard=wrap_guard(GAUSS, 3, 8)[0])
        box = ((-3.0,) * 3, (3.0,) * 3)
        sums = []
        for seed in range(8):
            sigs = count_newton(synthesize(GAUSS, spec, seed), box).signatures
            assert sigs.size > 0
            sums.append(np.sum((-1) ** sigs))
        mean, se = np.mean(sums), np.std(sums, ddof=1) / np.sqrt(len(sums))
        assert abs(mean) <= 4.5 * se if se > 0 else mean == 0


def _corner_candidates(field: FieldRealization, lo, hi) -> np.ndarray:
    """Candidate cell centers from the min and max over each cell's 2^m
    corners, one corner slice at a time."""
    m, h, origin = field.spec.m, field.spec.spacing, field.origin()
    i_lo = np.floor((lo - origin) / h).astype(int) - 1
    i_hi = np.ceil((hi - origin) / h).astype(int) + 1
    g = field.grid[(slice(1, 1 + m),) + tuple(slice(a, b + 1) for a, b in zip(i_lo, i_hi))]
    corners = [
        g[(slice(None),) + tuple(slice(o, g.shape[1 + k] - 1 + o) for k, o in enumerate(off))]
        for off in itertools.product((0, 1), repeat=m)
    ]
    lo_c, hi_c = np.minimum.reduce(corners), np.maximum.reduce(corners)
    idx = np.argwhere(np.all((lo_c <= 0.0) & (hi_c >= 0.0), axis=0))
    return origin + (idx + i_lo + 0.5) * h


def _newton_reference(field: FieldRealization, box):
    """(locations, signatures, failed_cells) of the Newton count without
    retirement: every iterate that neither converges nor escapes runs to the
    40-iteration cap, and the failure test reads |grad| at its final point."""
    m, h = field.spec.m, field.spec.spacing
    lo, hi = np.asarray(box[0], dtype=float), np.asarray(box[1], dtype=float)
    gscale = np.sqrt(np.mean(field.grid[1] ** 2))
    cur = _corner_candidates(field, lo, hi)
    active = np.arange(len(cur))
    converged = np.zeros(len(cur), dtype=bool)
    escaped = np.zeros(len(cur), dtype=bool)
    for _ in range(40):
        if active.size == 0:
            break
        vals = _map_coordinates(field, cur[active], slice(1, None))
        ok = np.max(np.abs(vals[:m]), axis=0) <= 1e-10 * gscale
        converged[active[ok]] = True
        active, vals = active[~ok], vals[:, ~ok]
        step = np.linalg.solve(hessian_stack(vals[m:], m), vals[:m].T[..., None])[..., 0]
        norms = np.linalg.norm(step, axis=1, keepdims=True)
        cur[active] -= np.where(norms > 2 * h, step * (2 * h / norms), step)
        out = ~_in_window(np.floor((cur[active] - field.origin()) / h), _STENCIL, field.spec.window)
        escaped[active[out]] = True
        active = active[~out]
    stalled = ~converged & ~escaped
    g_final = _map_coordinates(field, cur[stalled], slice(1, 1 + m))
    failed = int(np.sum(np.max(np.abs(g_final), axis=0) <= 1e-6 * gscale))
    idx = np.flatnonzero(converged)
    idx = idx[np.all((cur[idx] >= lo) & (cur[idx] < hi), axis=1)]
    idx = idx[np.lexsort(cur[idx].T[::-1])]
    keep = np.ones(len(idx), dtype=bool)
    for i, j in sorted(cKDTree(cur[idx]).query_pairs(0.5 * h)):
        if keep[i]:
            keep[j] = False
    idx = idx[keep]
    hess = hessian_stack(_map_coordinates(field, cur[idx], slice(1 + m, None)), m)
    return cur[idx], np.sum(np.linalg.eigvalsh(hess) < 0.0, axis=1), failed


def _assert_matches_reference(cps: CriticalPointSet, ref) -> None:
    locations, signatures, failed = ref
    assert cps.newton_count == len(signatures)
    order, ref_order = np.lexsort(cps.locations.T[::-1]), np.lexsort(locations.T[::-1])
    np.testing.assert_array_equal(cps.signatures[order], signatures[ref_order])
    np.testing.assert_allclose(cps.locations[order], locations[ref_order], rtol=0, atol=1e-9)
    assert cps.failed_cells <= failed


# the grids of the hand-made sign fields, 73 and 25 nodes per side
SIGN_SPECS = {2: SPEC, 3: GridSpec(m=3, half_width=2.0, points_per_unit=4, guard=3.0)}


def _sign_field(grad: np.ndarray) -> FieldRealization:
    """A realization whose gradient grid values are ``grad`` (m, w, ..., w);
    every other grid value and every spline coefficient is 0."""
    m = len(grad)
    spec = SIGN_SPECS[m]
    assert grad.shape == (m,) + (spec.window,) * m
    jet = np.zeros((len(jet_labels(m)),) + grad.shape[1:], dtype=complex)
    jet[1:1 + m] = grad
    return FieldRealization(spec, jet, seed=0, spectral_cutoff=1.0)


class TestCandidateCells:
    """A gradient component exactly 0 at a corner counts as both signs, as
    lo <= 0 <= hi over the corners does."""

    @pytest.mark.parametrize("m", [2, 3])
    def test_zero_corner_counts_as_both_signs(self, m):
        # the gradient is 1 but at one node, where every component is 0: the
        # 2^m cells around that node are the candidates.  At a second node
        # only the first component is 0, and the others stay positive
        w = SIGN_SPECS[m].window
        grad = np.ones((m,) + (w,) * m)
        node = np.full(m, w // 2)
        grad[(slice(None),) + tuple(node)] = 0.0
        grad[(0,) + tuple(node - 5)] = 0.0
        fr = _sign_field(grad)
        n_half = fr.spec.half_width
        lo, hi = np.full(m, -n_half), np.full(m, n_half)
        got = _candidate_cells(fr, lo, hi)
        h = fr.spec.spacing
        corners = np.array(list(itertools.product((-0.5, 0.5), repeat=m)))
        np.testing.assert_allclose(got, fr.origin() + (node + corners) * h, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(got, _corner_candidates(fr, lo, hi))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_corner_reference_with_zeros(self, m, seed):
        # components drawn from -1, 0 and 1: a third of the corners are 0
        w = SIGN_SPECS[m].window
        grad = np.random.default_rng(seed).integers(-1, 2, size=(m,) + (w,) * m).astype(float)
        fr = _sign_field(grad)
        lo, hi = np.full(m, -fr.spec.half_width), np.full(m, fr.spec.half_width)
        got = _candidate_cells(fr, lo, hi)
        assert len(got) > 0
        np.testing.assert_array_equal(got, _corner_candidates(fr, lo, hi))


class TestQuinticGather:
    """Newton's node-major kernel against scipy's map_coordinates."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(m=st.sampled_from([2, 3]), data=st.data())
    def test_matches_map_coordinates(self, m, data):
        # readable index coordinates, in [2, w - 3): anywhere, exactly on a
        # node, and one ulp below a node, where the fractional part is 1 - ulp
        fr = _small_field(m)
        w = fr.spec.window
        coord = st.one_of(
            st.floats(2.0, w - 3.0, exclude_max=True),
            st.integers(2, w - 4).map(float),
            st.integers(3, w - 3).map(lambda b: float(np.nextafter(b, 0.0))),
        )
        x = np.array(data.draw(st.lists(st.lists(coord, min_size=m, max_size=m),
                                        min_size=1, max_size=8)))
        stencil = _flat_stencil(w, m)
        got = _quintic_gather(fr.coeffs, x, stencil, _node_major(fr.coeffs))
        # the planes read in place give the table's values, bit for bit
        np.testing.assert_array_equal(_quintic_gather(fr.coeffs, x, stencil), got)
        want = np.stack([
            ndimage.map_coordinates(c, x.T, order=5, prefilter=False, mode="nearest")
            for c in fr.coeffs
        ])
        scale = np.max(np.abs(fr.coeffs.reshape(len(fr.coeffs), -1)), axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)

    @pytest.mark.parametrize("m", [2, 3])
    def test_point_values_do_not_depend_on_the_call(self, m):
        # more points than one chunk holds: each point's values are those of
        # a call that reads it alone, from the table or in place, bit for bit
        fr = _small_field(m)
        w, coeffs = fr.spec.window, fr.coeffs[1:]
        stencil, table = _flat_stencil(w, m), _node_major(coeffs)
        k = 2 * critpoints._LATTICE_CHUNK // len(_STENCIL) ** m + 3
        x = np.random.default_rng(m).uniform(2.0, w - 3.0, size=(k, m))
        got = _quintic_gather(coeffs, x, stencil, table)
        for i in (0, 1, k // 2, k - 1):
            for source in (table, None):
                one = _quintic_gather(coeffs, x[i:i + 1], stencil, source)
                np.testing.assert_array_equal(got[:, i:i + 1], one)

    @pytest.mark.parametrize("m", [2, 3])
    def test_stencil_must_stay_in_the_window(self, m):
        # readable points have index coordinates in [2, w - 3) on every axis:
        # below 2 a flat index would wrap to the end of the table, from
        # w - 3 on the stencil would read the next row.  Newton's escape
        # test and the kernel's refusal agree on both edges
        fr = _small_field(m)
        w, coeffs = fr.spec.window, fr.coeffs[1:]
        stencil = _flat_stencil(w, m)
        for axis in range(m):
            for coord, readable in [
                (2.0, True), (float(np.nextafter(2.0, 0.0)), False),
                (float(np.nextafter(w - 3.0, 0.0)), True), (w - 3.0, False),
            ]:
                x = np.full((3, m), w / 2.0)
                x[1, axis] = coord
                assert _in_window(np.floor(x), _STENCIL, w).tolist() == [True, readable, True]
                if readable:
                    _quintic_gather(coeffs, x, stencil)
                else:
                    with pytest.raises(ValueError, match="leaves the window"):
                        _quintic_gather(coeffs, x, stencil)

    def test_node_table_built_once_per_count(self, monkeypatch):
        # one node-major copy per count_newton call, read by every iteration,
        # when the candidates' stencils reach a tenth of the window (about
        # 0.4 of it here)
        built, read = [], []
        node_major, gather = critpoints._node_major, critpoints._quintic_gather

        def spy_table(coeffs):
            built.append(coeffs.shape)
            return node_major(coeffs)

        def spy_gather(coeffs, x, stencil, table=None):
            read.append(id(table))
            return gather(coeffs, x, stencil, table)

        monkeypatch.setattr(critpoints, "_node_major", spy_table)
        monkeypatch.setattr(critpoints, "_quintic_gather", spy_gather)
        fr = _small_field(3)
        box = ((-2.0,) * 3, (2.0,) * 3)
        assert count_newton(fr, box).newton_count > 0
        assert built == [(9,) + (fr.spec.window,) * 3]
        assert len(read) > 1 and len(set(read)) == 1
        count_newton(fr, box)
        assert len(built) == 2

    @pytest.mark.parametrize("m, half_width, ppu", [(2, 5.0, 64), (2, 5.0, 8), (3, 2.0, 8)])
    def test_table_only_where_it_pays(self, monkeypatch, m, half_width, ppu):
        # the candidates' stencils reach 0.008 of the window at ppu 64 and
        # about 0.4 at ppu 8: the first reads the planes in place, the others
        # build the table, and forcing the other source counts the same
        # points bit for bit
        spec = GridSpec(m=m, half_width=half_width, points_per_unit=ppu,
                        guard=wrap_guard(GAUSS, m, ppu)[0])
        fr = synthesize(GAUSS, spec, 3)
        box = ((-half_width,) * m, (half_width,) * m)
        built, node_major = [], critpoints._node_major

        def spy(coeffs):
            built.append(coeffs.shape)
            return node_major(coeffs)

        monkeypatch.setattr(critpoints, "_node_major", spy)
        cps = count_newton(fr, box)
        assert len(built) == (ppu != 64)
        monkeypatch.setattr(critpoints, "_TABLE_SHARE", 1e9 if ppu == 64 else 0.0)
        other = count_newton(fr, box)
        assert len(built) == 1
        assert cps.newton_count > 0
        for field in ("locations", "residuals", "signatures", "det_hessian"):
            np.testing.assert_array_equal(getattr(cps, field), getattr(other, field))
        assert (cps.failed_cells, cps.degenerate_flags) == (other.failed_cells,
                                                            other.degenerate_flags)


class TestNewtonRetirement:
    """Retired iterates leave the count as iterating every one to the cap does."""

    @pytest.mark.parametrize(
        "m, half_width, seed",
        [(2, 10.0, 0), (2, 10.0, 1), (2, 10.0, 39), (2, 20.0, 48), (3, 3.0, 0), (3, 3.0, 30)],
    )
    def test_matches_uncapped_reference(self, m, half_width, seed):
        # seeds 39 (m = 2) and 30 (m = 3): one iterate wanders to iteration 37
        # and then converges on a root another cell finds; the reference
        # counts it as a failed cell, retirement does not.  (2, 20.0, 48): a
        # stall of 2 evaluations instead of 3 loses a root
        spec = GridSpec(m=m, half_width=half_width, points_per_unit=8,
                        guard=wrap_guard(GAUSS, m, 8)[0])
        fr = synthesize(GAUSS, spec, seed)
        box = ((-half_width,) * m, (half_width,) * m)
        lo, hi = np.array(box)
        # the per-axis sign masks give the cells of the corner min and max
        np.testing.assert_array_equal(_candidate_cells(fr, lo, hi), _corner_candidates(fr, lo, hi))
        cps = count_newton(fr, box)
        assert cps.newton_count > 0
        _assert_matches_reference(cps, _newton_reference(fr, box))

    def test_creeping_iterate_is_not_retired(self):
        # X_x = 3 k sin^2(k x) cos(k x) has a double zero on x = 0, where
        # Newton halves the distance per step: |grad| keeps improving, slowly,
        # so the iterates run until they converge on the degenerate root
        fr = _analytic_field("cubed")
        box = ((-2.0, -2.0), (2.0, 2.0))
        cps = count_newton(fr, box)
        ref = _newton_reference(fr, box)
        _assert_matches_reference(cps, ref)
        assert cps.failed_cells == ref[2] == 0
        # (0, 0) and (+-1.6, 0); at the first, det hess X vanishes and the
        # iterate stops a few 1e-6 short of it
        assert cps.newton_count == 3
        origin = np.argmin(np.max(np.abs(cps.locations), axis=1))
        assert np.max(np.abs(cps.locations[origin])) < 1e-4
        others = np.delete(np.abs(cps.det_hessian), origin)
        assert abs(cps.det_hessian[origin]) < 1e-4 * others.min()


class TestAdjugate:
    """The closed-form adjugate and determinant of Hessian rows in jet order."""

    ENTRY = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(m=st.sampled_from([2, 3]), data=st.data())
    def test_adjugate_inverts_and_det_matches_lapack(self, m, data):
        k = data.draw(st.integers(1, 6))
        size = k * m * (m + 1) // 2
        rows = np.array(data.draw(st.lists(self.ENTRY, min_size=size, max_size=size)))
        rows = rows.reshape(-1, k)
        adj, det = _adjugate(rows, m)
        hess = hessian_stack(rows, m)
        # relative to the scale of an m-fold product of entries
        scale = np.max(np.abs(rows), axis=0) ** m
        error = np.einsum("ijk,kjl->kil", adj, hess) - det[:, None, None] * np.eye(m)
        assert np.all(np.abs(error) <= 1e-12 * scale[:, None, None])
        assert np.all(np.abs(det - np.linalg.det(hess)) <= 1e-12 * scale)

    @pytest.mark.parametrize(
        "m, rows",
        [(2, [1, 2, 4]), (2, [0, 0, 0]), (3, [1, 2, 3, 4, 6, 9]), (3, [1, 1, 0, 1, 0, 5])],
    )
    def test_rank_deficient_rows_have_zero_det(self, m, rows):
        rows = np.array(rows, dtype=float)[:, None]
        adj, det = _adjugate(rows, m)
        assert det[0] == 0.0
        np.testing.assert_array_equal(
            np.asarray(adj)[..., 0] @ hessian_stack(rows, m)[0], np.zeros((m, m))
        )

    def test_singular_hessian_gives_zero_step(self, monkeypatch):
        # det hess X = 0 at every point of the stripes: each iterate is read
        # at its cell centre, takes no step and retires once _STALL further
        # evaluations bring no improvement, with no warning on the way
        seen, gather = [], critpoints._quintic_gather

        def spy(coeffs, x, *args):
            seen.append(x.copy())
            return gather(coeffs, x, *args)

        monkeypatch.setattr(critpoints, "_quintic_gather", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cps = count_newton(_analytic_field("stripes"), ((-2.0, -2.0), (2.0, 2.0)))
        assert len(seen) == 1 + critpoints._STALL
        assert len(seen[0]) > 0
        for pts in seen[1:]:
            np.testing.assert_array_equal(pts, seen[0])
        assert cps.newton_count == 0
        assert cps.failed_cells == 0


@functools.cache
def _gaussian_field(seed: int, half_width: float = 5.0) -> FieldRealization:
    spec = GridSpec(m=2, half_width=half_width, points_per_unit=16, guard=10.0)
    return synthesize(GAUSS, spec, seed)


class TestCountingInvariants:
    BOX = ((-4.0, -4.0), (4.0, 4.0))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 3),
        xcuts=st.lists(st.floats(-3.9, 3.9), max_size=3, unique=True),
        ycuts=st.lists(st.floats(-3.9, 3.9), max_size=3, unique=True),
    )
    def test_random_split_adds_up(self, seed, xcuts, ycuts):
        # half-open boxes: the k x l cells of a random partition (k, l <= 4)
        # count each critical point of the whole box exactly once
        fr = _gaussian_field(seed)
        total = count_newton(fr, self.BOX).newton_count
        xs = [-4.0, *sorted(xcuts), 4.0]
        ys = [-4.0, *sorted(ycuts), 4.0]
        parts = sum(
            count_newton(fr, ((x0, y0), (x1, y1))).newton_count
            for x0, x1 in zip(xs, xs[1:])
            for y0, y1 in zip(ys, ys[1:])
        )
        assert parts == total

    @pytest.mark.parametrize("shift", [(3, -5), (-17, 8), (40, 1)])
    def test_translation_covariance(self, shift):
        # rolling the jet by whole cells moves every critical point by the
        # same offset, so the shifted box sees the same set; the cube of
        # half-width 7 holds every shifted box
        fr = _gaussian_field(0, 7.0)
        moved = FieldRealization(
            fr.spec, np.roll(fr.jet, shift, axis=(1, 2)), fr.seed, fr.spectral_cutoff
        )
        d = np.array(shift) * fr.spec.spacing
        lo, hi = np.array(self.BOX)
        cps = count_newton(fr, self.BOX)
        got = count_newton(moved, (tuple(lo + d), tuple(hi + d)))
        assert cps.newton_count > 0
        assert got.newton_count == cps.newton_count
        assert got.signature_counts() == cps.signature_counts()
        np.testing.assert_allclose(
            np.sort(got.locations - d, axis=0), np.sort(cps.locations, axis=0), atol=1e-9
        )

    @pytest.mark.parametrize("offset", [0.0, -0.02], ids=["lattice", "off-lattice"])
    def test_smoothed_split_adds_up(self, offset):
        # every cell that meets a box is read, so the halves of a box split
        # at x = cut add up to the whole box's count.  The cut runs through
        # the eps-neighbourhood of the root nearest x = 0, on the lattice
        # plane just above it or 0.02 below that plane, where the half-cell
        # strips along the cut hold 2.6% and 1.0% of the whole count
        fr = _gaussian_field(0)
        roots = count_newton(fr, self.BOX).locations
        x0 = roots[np.argmin(np.abs(roots[:, 0])), 0]
        cut = math.ceil(x0 * fr.spec.points_per_unit) * fr.spec.spacing + offset
        ladder = (0.1, 0.05)
        (lo_x, lo_y), (hi_x, hi_y) = self.BOX
        whole = count_kacrice_smoothed(fr, self.BOX, ladder)
        left = count_kacrice_smoothed(fr, ((lo_x, lo_y), (cut, hi_y)), ladder)
        right = count_kacrice_smoothed(fr, ((cut, lo_y), (hi_x, hi_y)), ladder)
        np.testing.assert_allclose(np.add(left, right), whole, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", [11, 12])
    def test_eps_ladder_matches_scalar_calls(self, seed):
        fr = synthesize(GAUSS, GridSpec(m=2, half_width=3.0, points_per_unit=32, guard=6.0), seed)
        box = ((-2.5, -2.5), (2.5, 2.5))
        ladder = (0.05, 0.1, 0.025)  # counts come back in the order given
        got = count_kacrice_smoothed(fr, box, ladder)
        want = [count_kacrice_smoothed(fr, box, eps) for eps in ladder]
        assert isinstance(want[0], float)
        assert len(got) == len(ladder) and min(want) > 0
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def _global_slack_nodes(field: FieldRealization, box, eps: float):
    """The nodes the window-wide slack supersamples: per axis, the window
    indices of the nodes whose cells [x - h/2, x + h/2) meet [lo, hi), and
    the mask of those whose grid |grad|_inf is within eps + 1.5 sqrt(m) h
    max|h_ij|, the maximum over the whole window."""
    m, h = field.spec.m, field.spec.spacing
    lo, hi = np.asarray(box[0], dtype=float), np.asarray(box[1], dtype=float)
    coords = field.origin()[0] + h * np.arange(field.spec.window)
    window = [
        np.flatnonzero((coords > lo[k] - 0.5 * h) & (coords < hi[k] + 0.5 * h)) for k in range(m)
    ]
    gmax = np.max(np.abs(field.grid[(slice(1, 1 + m),) + np.ix_(*window)]), axis=0)
    upper = field.grid[1 + m:]
    slack = 1.5 * math.sqrt(m) * max(float(upper.max()), -float(upper.min())) * h
    return window, gmax <= eps + slack


def _smoothed_reference(field: FieldRealization, box, eps: float, refine: int) -> float:
    """The smoothed count with every sub-node read through scipy's spline,
    one point at a time: the pointwise form of count_kacrice_smoothed, with
    the window-wide slack."""
    m, h = field.spec.m, field.spec.spacing
    lo, hi = np.asarray(box[0], dtype=float), np.asarray(box[1], dtype=float)
    window, mask = _global_slack_nodes(field, box, eps)
    node_idx = np.argwhere(mask)
    base = np.stack([field.origin()[k] + h * window[k][node_idx[:, k]] for k in range(m)], axis=1)
    offsets = (np.arange(refine) + 0.5) / refine - 0.5
    sub = np.stack([g.ravel() for g in np.meshgrid(*([offsets] * m), indexing="ij")], axis=1)
    pts = (base[:, None, :] + h * sub[None, :, :]).reshape(-1, m)
    pts = pts[np.all((pts >= lo) & (pts < hi), axis=1)]
    gsup = np.max(np.abs(_map_coordinates(field, pts, slice(1, 1 + m))), axis=0)
    fire = gsup <= eps
    hess = hessian_stack(_map_coordinates(field, pts[fire], slice(1 + m, None)), m)
    return float(np.sum(np.abs(np.linalg.det(hess))) * (h / refine) ** m / (2.0 * eps) ** m)


@functools.cache
def _small_field(m: int) -> FieldRealization:
    spec = GridSpec(m=m, half_width=2.0, points_per_unit=8, guard=3.0)
    return synthesize(GAUSS, spec, seed=5 + m)


class TestLatticeStencils:
    """The smoothed counter's fixed stencils against scipy's pointwise spline."""

    @pytest.mark.parametrize("refine", [1, 2, 5, 6, 48])
    @pytest.mark.parametrize("m", [2, 3])
    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_lattice_matches_interpolate(self, m, refine, data):
        # odd refine puts one offset at exactly 0, even refine straddles it;
        # nodes anywhere their 7-tap stencils stay in the window
        fr = _small_field(m)
        w = fr.spec.window
        node = st.lists(st.integers(3, w - 4), min_size=m, max_size=m)
        k = 1 if refine**m > 10_000 else 4
        nodes = np.array(data.draw(st.lists(node, min_size=k, max_size=k)))
        offsets = (np.arange(refine) + 0.5) / refine - 0.5
        got = _lattice(fr.coeffs[1:], nodes, _quintic_weights(offsets, _TAPS))
        sub = np.stack([g.ravel() for g in np.meshgrid(*([offsets] * m), indexing="ij")], axis=1)
        pts = (fr.origin() + fr.spec.spacing * (nodes[:, None, :] + sub[None])).reshape(-1, m)
        assert got.shape == (len(fr.jet) - 1, len(pts))
        # at most 5000 sub-nodes, evenly spread, go through map_coordinates
        pick = np.unique(np.linspace(0, len(pts) - 1, 5000).astype(int))
        want = _map_coordinates(fr, pts[pick], slice(1, None))
        scale = np.max(np.abs(want), axis=1, keepdims=True)
        assert np.all(np.abs(got[:, pick] - want) <= 1e-13 * scale)

    @pytest.mark.parametrize("m", [2, 3])
    def test_stencil_must_stay_in_the_window(self, m):
        # the 7-tap neighbourhoods of the nodes 3 .. w - 4 lie in the window;
        # a node at 2 would wrap to the end of a plane, one at w - 3 would
        # read the next row
        fr = _small_field(m)
        w = fr.spec.window
        weights = _quintic_weights(np.array([-0.25, 0.25]), _TAPS)
        for axis in range(m):
            for node, readable in [(3, True), (2, False), (w - 4, True), (w - 3, False)]:
                nodes = np.full((3, m), w // 2)
                nodes[1, axis] = node
                assert _in_window(nodes, _TAPS, w).tolist() == [True, readable, True]
                if readable:
                    _lattice(fr.coeffs[1:], nodes, weights)
                else:
                    with pytest.raises(ValueError, match="leaves the window"):
                        _lattice(fr.coeffs[1:], nodes, weights)

    @pytest.mark.parametrize("refine", [1, 2, 5, 6, 48])
    @pytest.mark.parametrize("m", [2, 3])
    def test_count_matches_pointwise_reference(self, m, refine):
        # boxes whose edges cut through cells, around a critical point so
        # that sub-nodes fire; fewer cells per box as refine grows
        fr = _small_field(m)
        roots = count_newton(fr, ((-2.0,) * m, (2.0,) * m)).locations
        root = roots[np.argmin(np.max(np.abs(roots), axis=1))]  # the most central
        rng = np.random.default_rng(10 * m + refine)
        half = fr.spec.spacing * max(0.6, 6.0 / refine) * rng.uniform(0.8, 1.2, size=(2, m))
        box = (tuple(np.maximum(root - half[0], -2.0)), tuple(np.minimum(root + half[1], 2.0)))
        with warnings.catch_warnings():
            # at refine 1 the resolvability floor (0.11-0.14 over these
            # windows) is within a factor 2 of eps, and a small box's own
            # h00 may lift it past eps: that warning alone is allowed
            warnings.filterwarnings("ignore", r"eps = .* resolvability", UserWarning)
            got = count_kacrice_smoothed(fr, box, 0.2, refine=refine)
            want = _smoothed_reference(fr, box, 0.2, refine)
        assert want > 0
        assert got == pytest.approx(want, rel=1e-13, abs=0)


class TestLocalSlack:
    """Each node's slack comes from the Hessian around it, not the window's
    largest: fewer nodes are supersampled and the count is the same."""

    @pytest.mark.parametrize(
        "m, half_width, ppu, refine", [(2, 5.0, 64, 6), (3, 1.0, 16, 3)], ids=["m2", "m3"]
    )
    def test_matches_global_slack_reference(self, monkeypatch, m, half_width, ppu, refine):
        spec = GridSpec(m=m, half_width=half_width, points_per_unit=ppu,
                        guard=wrap_guard(GAUSS, m, ppu)[0])
        fr = synthesize(GAUSS, spec, seed=3)
        box, eps = ((-half_width,) * m, (half_width,) * m), 0.1
        read, lattice = [], critpoints._lattice

        def spy(coeffs, nodes, weights):
            if len(coeffs) == m:  # the gradient pass reads every supersampled node
                read.append(len(nodes))
            return lattice(coeffs, nodes, weights)

        monkeypatch.setattr(critpoints, "_lattice", spy)
        got = count_kacrice_smoothed(fr, box, eps, refine=refine)
        want = _smoothed_reference(fr, box, eps, refine)
        assert want > 0
        assert got == pytest.approx(want, rel=1e-13, abs=0)
        assert 0 < sum(read) < _global_slack_nodes(fr, box, eps)[1].sum()


class TestSmoothedAtDimThree:
    def test_agrees_with_newton(self):
        # m = 3, N = 2 at 16 points per unit on the derived torus, about 18
        # critical points a field.  At the finest eps of the crosscheck
        # ladder one field's K_eps - Z has sd 0.99, 6% of Z (192 fields,
        # seeds 0-191), so a single-field bound holds by luck.  Over F = 8
        # fields the mean of K_eps - f(eps) Z lies within 4 of its standard
        # errors (the sd over the fields / sqrt F) of 0: a two-sided 0.5%
        # tail for Student's t with 7 degrees of freedom.  On the 47 blocks
        # of 8 among seeds 0-191, at both alignments, the largest |mean| is
        # 3.2 standard errors
        m, n_half, ppu, ladder = 3, 2.0, 16, (0.1, 0.05, 0.025)
        spec = GridSpec(m=m, half_width=n_half, points_per_unit=ppu,
                        guard=wrap_guard(GAUSS, m, ppu)[0])
        box = ((-n_half,) * m, (n_half,) * m)
        diff = []
        for seed in range(8):
            fr = synthesize(GAUSS, spec, seed)
            cps = count_newton(fr, box)
            assert cps.failed_cells == 0 and cps.newton_count > 0
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # eps stays above the resolvability scale
                smoothed = count_kacrice_smoothed(fr, box, ladder)
            diff.append(smoothed[-1] - _finite_eps_factor(ladder[-1], m) * cps.newton_count)
        se = np.std(diff, ddof=1) / math.sqrt(len(diff))
        assert abs(np.mean(diff)) <= 4.0 * se


class TestExpectedCount:
    def test_gaussian_density_formula(self):
        w = SpectralDensity(family="gaussian", params=(1.0,))
        val = expected_count(w, 2, box_volume=36.0, e_absdet_s1=2.0)
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

    def test_empty_set_writes_header(self, tmp_path):
        # the coordinate columns come from the locations' shape, (0, m)
        cps = CriticalPointSet(
            locations=np.empty((0, 3)), residuals=np.empty(0),
            signatures=np.empty(0, dtype=int), det_hessian=np.empty(0),
            failed_cells=0, degenerate_flags=[],
        )
        path = tmp_path / "pts.csv"
        write_csv(cps, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["x0", "x1", "x2", "residual", "signature", "det_hessian"]]
