"""Critical-point counting: Newton localization and the smoothed counter.

Two independent estimators of the number of gradient zeros in a box: seeded
Newton iteration from sign-variation cells (integer count with Hessian
signatures) and the smoothed density (2 eps)^(-m) 1{|grad X|_inf <= eps}
|det hess X| integrated over the box, which stabilizes near the Newton count
as eps decreases.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .field import FieldRealization
from .randmat import _adjugate, expect_absdet_S, hessian_stack
from .spectrum import SpectralDensity, spectral_moments

__all__ = [
    "CriticalPointSet",
    "count_newton",
    "count_kacrice_smoothed",
    "expected_count",
    "write_csv",
]

_MAX_ITER = 40
# evaluations in a row without a new best |grad|_inf that retire an iterate
_STALL = 3

# The smoothed counter's stencil taps around a node along one axis, and the
# sub-nodes or gathered coefficients per component that it and the Newton
# kernel hold at once: 1 MB arrays stay in cache, and the arrays do not grow
# with the box.
_TAPS = np.arange(-3, 4)
_LATTICE_CHUNK = 2**17
# The Newton kernel's taps around floor(x) along one axis: x in [2, w - 3).
_STENCIL = np.arange(-2, 4)
# Newton copies the window's coefficients into a node-major table (one pass
# over w^m nodes) only when the candidates' stencils, 6^m nodes each, add up
# to at least 1 / _TABLE_SHARE of the window; fewer stencils read the
# coefficient planes in place.  The two break even near a tenth at m = 2
# and 3 (one CPU): below it the copy costs more than it saves, and above
# it the strided reads cost more, up to twice the time at m = 3.
_TABLE_SHARE = 10


def _in_window(nodes: np.ndarray, taps: np.ndarray, w: int) -> np.ndarray:
    """Mask of the integer nodes (k, m) whose stencil, nodes + taps along
    every axis, lies in a window of w nodes per side."""
    return np.all((nodes >= -taps[0]) & (nodes < w - taps[-1]), axis=1)


@dataclass(frozen=True)
class CriticalPointSet:
    """Critical points in a half-open box, one array row per point."""

    locations: np.ndarray  # (k, m)
    residuals: np.ndarray  # (k,) |grad X| at each point
    signatures: np.ndarray  # (k,) number of negative Hessian eigenvalues
    det_hessian: np.ndarray  # (k,)
    failed_cells: int
    degenerate_flags: list[int]  # indices of points with |det| below tolerance

    @property
    def newton_count(self) -> int:
        return len(self.signatures)

    def signature_counts(self) -> dict[int, int]:
        sigs, counts = np.unique(self.signatures, return_counts=True)
        return dict(zip(sigs.tolist(), counts.tolist()))


def _box_arrays(box, spec):
    m, n_half = spec.m, spec.half_width
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    if lo.shape != (m,) or hi.shape != (m,) or np.any(hi <= lo):
        raise ValueError("box must be ((lo_1..lo_m), (hi_1..hi_m)) with hi > lo")
    if np.any(lo < -n_half) or np.any(hi > n_half):
        raise ValueError(
            f"box {box} leaves the cube [-{n_half:g}, {n_half:g}]^{m} of the realization"
        )
    return lo, hi


def _grad_scale(field: FieldRealization) -> float:
    return float(np.sqrt(np.mean(field.grid[1] ** 2)))


def _hess_scale(field: FieldRealization) -> float:
    # jet component 1 + m is the Hessian entry (0, 0)
    return float(np.sqrt(np.mean(field.grid[1 + field.spec.m] ** 2) / 3.0))


def _candidate_cells(field: FieldRealization, lo, hi):
    """Centers of grid cells (inside the box +/- one cell) where every
    gradient component changes sign among the 2^m cell corners.  A box in
    the cube keeps these cells, and their spline stencils, in the window."""
    m = field.spec.m
    h = field.spec.spacing
    origin = field.origin()
    i_lo = np.floor((lo - origin) / h).astype(int) - 1
    i_hi = np.ceil((hi - origin) / h).astype(int) + 1
    window = tuple(slice(i_lo[k], i_hi[k] + 1) for k in range(m))

    # whether some corner of every cell is <= 0 and some corner >= 0, one
    # axis at a time: each pass ORs the neighbouring slices along one axis.
    # A corner at exactly 0 counts as both signs
    g = field.grid[(slice(1, 1 + m),) + window]
    neg, pos = g <= 0.0, g >= 0.0
    for k in range(1, 1 + m):
        first = (slice(None),) * k + (slice(None, -1),)
        second = (slice(None),) * k + (slice(1, None),)
        neg = neg[first] | neg[second]
        pos = pos[first] | pos[second]
    mask = np.all(neg & pos, axis=0)
    idx = np.argwhere(mask)
    centers = origin + (idx + i_lo + 0.5) * h
    return centers


def count_newton(field: FieldRealization, box) -> CriticalPointSet:
    """Newton count of critical points in the half-open box [lo, hi)^m.

    Newton iterations on grad X start from every sign-variation cell; the
    jet is the quintic-spline interpolant of the spectrally exact derivative
    arrays (``_quintic_gather``), read through a node-major copy of their
    coefficients made once per call when the candidates' stencils reach a
    tenth of the window, and in place otherwise.  A step is adj(H) g /
    det(H) in closed form, and zero where det H = 0 exactly.  Converged roots are
    deduplicated and classified by Hessian signature.  An iterate stops when
    it converges, when its spline stencil leaves the counting window
    (escaped), when its |grad|_inf has not improved on its best for 3
    evaluations in a row (retired), or at the 40-iteration cap; an iterate
    that keeps improving, however slowly, runs to the cap.  ``failed_cells`` counts the iterates that stopped short of
    convergence within 1e-6 gscale of zero, making the count a certified
    lower bound in that (rare) case.  The box must lie in the realization's
    cube [-N, N]^m.
    """
    m, w = field.spec.m, field.spec.window
    lo, hi = _box_arrays(box, field.spec)
    h = field.spec.spacing
    gscale = _grad_scale(field)
    if gscale == 0.0:
        raise ValueError("degenerate (identically flat) gradient field")
    tol = 1e-10 * gscale

    cur = _candidate_cells(field, lo, hi)
    origin = field.origin()
    n_candidates = cur.shape[0]
    coeffs = field.coeffs[1:]  # the spline coefficients of jet components 1 and up
    stencil = _flat_stencil(w, m)
    reach = n_candidates * len(stencil[1]) * _TABLE_SHARE >= w**m
    table = _node_major(coeffs) if reach else None
    active = np.arange(n_candidates)
    converged = np.zeros(n_candidates, dtype=bool)
    escaped = np.zeros(n_candidates, dtype=bool)
    # gradient and Hessian upper triangle (jet components 1 and up) at the
    # iterate where each candidate converged
    at_root = np.empty((field.jet.shape[0] - 1, n_candidates))
    # |grad|_inf: the best so far, the evaluations since it, the latest
    best = np.full(n_candidates, np.inf)
    stale = np.zeros(n_candidates, dtype=int)
    last = np.full(n_candidates, np.inf)
    max_step = 2.0 * h
    x = (cur - origin) / h  # index coordinates of the active iterates
    for _ in range(_MAX_ITER):
        if active.size == 0:
            break
        vals = _quintic_gather(coeffs, x, stencil, table)
        gsup = np.max(np.abs(vals[:m]), axis=0)
        ok = gsup <= tol
        converged[active[ok]] = True
        at_root[:, active[ok]] = vals[:, ok]
        last[active] = gsup
        stale[active] = np.where(gsup < best[active], 0, stale[active] + 1)
        best[active] = np.minimum(best[active], gsup)
        going = ~ok & (stale[active] < _STALL)
        active, vals = active[going], vals[:, going]
        # a singular Hessian gives a zero step: the iterate stalls and retires
        adj, det = _adjugate(vals[m:], m)
        step = np.einsum("ijk,jk->ik", adj, vals[:m])
        step = np.divide(step, det, out=np.zeros_like(step), where=det != 0.0).T
        norms = np.sqrt(np.add.reduce(step * step, axis=1, keepdims=True))
        step = step * (max_step / np.maximum(norms, max_step))  # at most max_step long
        cur[active] = cur[active] - step
        x = (cur[active] - origin) / h
        inside = _in_window(np.floor(x), _STENCIL, w)  # else the iterate escaped
        escaped[active[~inside]] = True
        active, x = active[inside], x[inside]

    # Retired iterates and those still active at the cap split two ways.
    # Sign-variation cells are a superset heuristic: the component zero sets
    # can pass through a cell without intersecting, in which case |grad|
    # stagnates at a strictly positive value (or cycles above it) and there
    # is no root to find.  Only iterates whose last evaluated |grad|_inf lies
    # *near* zero (small but uncertified) count as failures.
    stalled = ~converged & ~escaped
    failed = int(np.sum(last[stalled] <= 1e-6 * gscale))

    idx = np.flatnonzero(converged)
    idx = idx[np.all((cur[idx] >= lo) & (cur[idx] < hi), axis=1)]
    # deterministic dedup within half a cell: lexicographic order, greedy
    # keep; with the pairs (i < j) sorted, keep[i] is final before any (i, .)
    idx = idx[np.lexsort(cur[idx].T[::-1])]
    keep = np.ones(len(idx), dtype=bool)
    for i, j in sorted(cKDTree(cur[idx]).query_pairs(0.5 * h)):
        if keep[i]:
            keep[j] = False
    idx = idx[keep]

    g, upper = at_root[:m, idx], at_root[m:, idx]
    dets = _adjugate(upper, m)[1]
    deg_tol = 1e-8 * _hess_scale(field) ** m
    return CriticalPointSet(
        locations=cur[idx],
        residuals=np.sqrt(np.vecdot(g, g, axis=0)),  # rounds as norm() of one point
        signatures=np.sum(np.linalg.eigvalsh(hessian_stack(upper, m)) < 0.0, axis=1),
        det_hessian=dets,
        failed_cells=failed,
        degenerate_flags=np.flatnonzero(np.abs(dets) <= deg_tol).tolist(),
    )


def _quintic_weights(offsets: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """(t, r) quintic B-spline weights beta5(o - t) of the integer taps t at
    the offsets o (r,).

    The smoothed counter reads the taps -3 .. 3 at offsets in (-1/2, 1/2),
    which hold the spline's stencil in both floor cases, o < 0 and o >= 0;
    a tap outside one offset's stencil gets weight zero.  The Newton kernel
    reads the taps -2 .. 3 at fractional parts in [0, 1).  Uses beta5(x) =
    sum_k (-1)^k C(6, k) (3 - k - |x|)_+^5 / 120 over k = 0, 1, 2 (Unser,
    Aldroubi & Eden, IEEE TSP 1993).
    """
    x = np.abs(offsets[None, :] - taps[:, None])
    return sum(
        (-1) ** k * math.comb(6, k) * np.clip(3.0 - k - x, 0.0, None) ** 5 for k in range(3)
    ) / 120.0


def _node_major(coeffs: np.ndarray) -> np.ndarray:
    """The coefficient arrays ``coeffs`` (c, w, ..., w) as one contiguous
    (w^m, c) table: row i holds the c values of window node i, C order."""
    return np.ascontiguousarray(coeffs.reshape(len(coeffs), -1).T)


def _flat_stencil(w: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat-index strides (m,) of a C-order window of w nodes per side,
    and the flat offsets (6^m,) of the Newton stencil's taps, "ij" order."""
    strides = w ** np.arange(m - 1, -1, -1)
    return strides, sum(np.ix_(*(_STENCIL * s for s in strides))).ravel()


def _quintic_gather(coeffs: np.ndarray, x: np.ndarray, stencil, table=None) -> np.ndarray:
    """Quintic-spline values (c, k) of the coefficient arrays ``coeffs`` (c,
    w, ..., w) at the index coordinates x (k, m) of their window.

    The spline at x reads the 6^m nodes floor(x) + _STENCIL, at the flat
    offsets of ``stencil`` = ``_flat_stencil(w, m)``.  Per chunk of points
    their values are gathered as one (points, 6^m, c) array: rows of the
    node-major ``table`` of coeffs when it is given, else each plane of
    coeffs read in place through a flat view (``np.take`` would copy a
    strided plane of the complex jet).  That array is contracted with the
    outer product of the per-axis weights as one (1, 6^m) by (6^m, c)
    product per point, so a point's values depend neither on the other
    points of the call nor on the source.  Raises ValueError if a stencil
    leaves the window, where a flat index would wrap or read the next row
    without notice.
    """
    k, m = x.shape
    base = np.floor(x)
    if not _in_window(base, _STENCIL, coeffs.shape[-1]).all():
        raise ValueError("a quintic stencil leaves the window")
    frac = x - base
    strides, taps = stencil
    flat = base.astype(np.intp) @ strides
    planes = coeffs.reshape(len(coeffs), -1)  # views of the planes of a jet
    out = np.empty((len(coeffs), k))
    step = _LATTICE_CHUNK // len(taps)
    for start in range(0, k, step):
        part = slice(start, start + step)
        n = len(flat[part])
        # every axis's weights from one call: (6, n, m)
        axes = _quintic_weights(frac[part].ravel(), _STENCIL).reshape(-1, n, m)
        weights = np.ones((n, 1))
        for a in range(m):  # (n, 6^a) -> (n, 6^(a+1)), in the taps' order
            weights = (weights[:, :, None] * axes[:, None, :, a].T).reshape(n, -1)
        idx = flat[part, None] + taps
        if table is None:
            rows = np.stack([plane[idx] for plane in planes], axis=-1)
        else:
            rows = np.take(table, idx, axis=0)
        out[:, part] = (weights[:, None, :] @ rows)[:, 0].T
    return out


def _lattice(coeffs: np.ndarray, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Quintic-spline values of each coefficient array of ``coeffs`` (c, w,
    ..., w) at the sub-nodes node + offset of the index points ``nodes`` (k,
    m), with the offsets of ``weights`` (7, r) along every axis.

    Each node's 7^m neighbourhood of coefficients, gathered by flat index as
    7^(m-1) rows along the last axis, is contracted axis by axis with the one
    weight matrix.  Returns (c, k r^m): each node's r^m sub-nodes together,
    in meshgrid "ij" order.  Raises ValueError as ``_quintic_gather`` does.
    """
    m, r, t, w = nodes.shape[1], weights.shape[1], len(_TAPS), coeffs.shape[-1]
    if not _in_window(nodes, _TAPS, w).all():
        raise ValueError("a lattice stencil leaves the window")
    # flat indices (t^(m-1), k, t): leading taps, node, last-axis taps
    strides = w ** np.arange(m - 1, -1, -1)
    flat = sum(np.ix_(*(_TAPS * s for s in strides))).reshape(-1, 1, t) + (nodes @ strides)[:, None]
    out = np.empty((len(coeffs), len(nodes)) + (r,) * m)
    for c, coeff in enumerate(coeffs):
        # one 2-D product, whatever k: a batch of (1, t) rows would go to
        # another BLAS kernel, and each node's values would then depend on
        # how many nodes share its call
        v = coeff.reshape(-1)[flat].reshape(-1, t) @ weights
        for a in reversed(range(m - 1)):  # (t^a, t, ...) -> (t^a, r, ...)
            v = np.matmul(weights.T, v.reshape(t**a, t, -1))
        out[c] = np.moveaxis(v.reshape((r,) * (m - 1) + (-1, r)), -2, 0)
    return out.reshape(len(coeffs), -1)


def _eps_ladder(eps) -> np.ndarray:
    """eps as an array of smoothing widths, all of them positive."""
    ladder = np.atleast_1d(np.asarray(eps, dtype=float))
    if ladder.size == 0 or np.any(ladder <= 0):
        raise ValueError("eps must be positive")
    return ladder


def count_kacrice_smoothed(field: FieldRealization, box, eps, refine: int = 6):
    """Smoothed count: quadrature of (2 eps)^(-m) 1{|grad|_inf <= eps}
    |det hess| over the half-open box.

    The indicator region is a union of small neighborhoods of the critical
    points, so plain grid sums carry O(h / eps) error from the sharp
    boundary.  Grid nodes near the region are therefore supersampled
    ``refine`` times per axis through the quintic-spline jet, over each
    node's whole cell, and the sub-nodes in the box are summed; the rest of
    the grid contributes exactly zero.  A node is near when its grid
    |grad|_inf is within eps plus a slack of one cell of gradient variation,
    1.5 sqrt(m) h times the largest |h_ij| over the 3^m nodes around it, so
    the nodes supersampled follow the local Hessian, not the window's.
    Every cell that meets the box is read, so the count is additive over a
    split of the box.
    The sub-nodes sit at the same offsets around every node, so the spline
    is evaluated as fixed stencils: the gradient at every sub-node of the
    supersampled nodes, the Hessian only around nodes with a sub-node in
    the region.

    ``eps`` is one value, which returns a float, or a ladder of values,
    which returns one count per value in the order given.  A ladder is one
    pass: the sub-nodes of the largest eps are read once, and each eps
    thresholds the stored gradient sup-norms.  The box must lie in the
    realization's cube [-N, N]^m.

    An eps below the gradient swing across one sub-node, the Hessian scale
    times h / refine, warns that cells may be missed; the Hessian scale is
    read from h00 on the box's nodes and the ring around them.
    """
    m = field.spec.m
    lo, hi = _box_arrays(box, field.spec)
    h = field.spec.spacing
    ladder = _eps_ladder(eps)
    if refine < 1:
        raise ValueError("refine must be >= 1")
    origin = field.origin()
    coords = origin[0] + h * np.arange(field.spec.window)  # same on every axis
    # the window nodes whose cells [x - h/2, x + h/2) meet [lo, hi) on each
    # axis, lo - h/2 < x < hi + h/2; the sub-nodes outside the box are
    # trimmed below
    first = np.searchsorted(coords, lo - 0.5 * h, side="right")
    stop = np.searchsorted(coords, hi + 0.5 * h)
    sl = tuple(slice(a, b) for a, b in zip(first, stop))

    gmax = np.max(np.abs(field.grid[(slice(1, 1 + m),) + sl]), axis=0)
    # the gradient can swing by about max|hess| * h * sqrt(m) within a cell:
    # the largest |h_ij| at each node, one component at a time, then over
    # the 3^m nodes around it (the window holds a ring of nodes around sl)
    ring = tuple(slice(a - 1, b + 1) for a, b in zip(first, stop))
    hmax = np.abs(field.grid[(1 + m,) + ring])
    # rms(h00) / sqrt(3) is the Hessian scale: var h00 = 3 var h01 (isotropy)
    resolvable = math.sqrt(np.mean(hmax**2) / 3.0) * h / refine
    if ladder.min() < resolvable:
        warnings.warn(
            f"eps = {ladder.min():.3g} is below the refined-grid resolvability "
            f"scale ~{resolvable:.3g}; the smoothed count may miss cells",
            stacklevel=2,
        )
    for comp in field.grid[2 + m:]:
        np.maximum(hmax, np.abs(comp[ring]), out=hmax)
    for a in range(m):  # each node and its two neighbours along axis a
        lead, inner = (slice(None),) * a, hmax.shape[a] - 2
        below, at, above = (lead + (slice(k, k + inner),) for k in range(3))
        hmax = np.maximum(np.maximum(hmax[below], hmax[at]), hmax[above])
    slack = 1.5 * math.sqrt(m) * h * hmax
    mask = gmax <= ladder.max() + slack

    # jet indices of the supersampled nodes; the box lies in the cube, so
    # every stencil tap of their sub-nodes lies in the window
    nodes = np.argwhere(mask) + first
    base = origin + h * nodes
    gmax, slack = gmax[mask], slack[mask]
    # refine^m sub-nodes per grid cell (midpoint rule anchored at the node)
    offsets = (np.arange(refine) + 0.5) / refine - 0.5
    weights = _quintic_weights(offsets, _TAPS)
    # per chunk of nodes, the sub-nodes in the region of the largest eps:
    # their gradient sup-norms, their nodes and |det hess|
    gsups, owners, absdets = [], [], []
    step = max(1, _LATTICE_CHUNK // max(refine, len(_TAPS)) ** m)
    # at least one pass, so that a box without supersampled nodes counts 0
    for start in range(0, max(len(nodes), 1), step):
        part = slice(start, start + step)
        # a sub-node lies in the box when its coordinate does on every axis:
        # (nodes, refine) per axis, broadcast to the sub-nodes' "ij" order
        inside = True
        for k in range(m):
            x = base[part, k, None] + h * offsets
            shape = (-1,) + (1,) * k + (refine,) + (1,) * (m - 1 - k)
            inside = inside & ((x >= lo[k]) & (x < hi[k])).reshape(shape)
        inside = inside.reshape(-1)
        grad = _lattice(field.coeffs[1:1 + m], nodes[part], weights)
        gsup = np.maximum.reduce(np.abs(grad, out=grad), axis=0)
        fire = inside & (gsup <= ladder.max())
        by_node = fire.reshape(-1, refine**m)
        lit = by_node.any(axis=1)  # nodes with a sub-node in the region
        tri = _lattice(field.coeffs[1 + m:], nodes[part][lit], weights)
        gsups.append(gsup[fire])
        owners.append(start + np.nonzero(by_node)[0])
        absdets.append(np.abs(_adjugate(tri[:, by_node[lit].ravel()], m)[1]))
    gsup, owner, absdet = map(np.concatenate, (gsups, owners, absdets))
    node_gmax, node_slack = gmax[owner], slack[owner]
    weight = (h / refine) ** m
    counts = []
    for e in ladder:
        on = (node_gmax <= e + node_slack) & (gsup <= e)
        counts.append(float(np.sum(absdet[on]) * weight / (2.0 * e) ** m))
    return counts[0] if np.ndim(eps) == 0 else counts


def _check_anchor(e_absdet_s1: float | None) -> None:
    """Raise ValueError unless an E|det A| anchor is None, or positive and
    finite (NaN fails both tests)."""
    if e_absdet_s1 is not None and not 0 < e_absdet_s1 < math.inf:
        raise ValueError(f"e_absdet_s1 = {e_absdet_s1:g}: E|det A| must be finite and > 0")


def expected_count(
    w: SpectralDensity, m: int, box_volume: float, e_absdet_s1: float | None = None
) -> float:
    """Theoretical expected count: (h_m / (2 pi d_m))^(m/2) E|det A| * vol,
    with A drawn from the unit-variance symmetric-matrix ensemble; E|det A|
    is e_absdet_s1 when given, else the exact expect_absdet_S(m, 1)."""
    _check_anchor(e_absdet_s1)
    moments = spectral_moments(w, m)
    if e_absdet_s1 is None:
        e_absdet_s1 = expect_absdet_S(m, 1.0)
    c = (moments.h / (2.0 * np.pi * moments.d)) ** (m / 2.0) * e_absdet_s1
    return c * box_volume


def write_csv(cps: CriticalPointSet, path) -> None:
    """One row per critical point: coordinates, residual, signature, det."""
    m = cps.locations.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(m)] + ["residual", "signature", "det_hessian"])
        for loc, res, sig, det in zip(
            cps.locations.tolist(), cps.residuals.tolist(),
            cps.signatures.tolist(), cps.det_hessian.tolist(),
        ):
            writer.writerow(loc + [res, sig, det])
