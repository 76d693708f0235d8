"""Critical-point counting: Newton localization and the smoothed counter.

Two independent estimators of the number of gradient zeros in a box: seeded
Newton iteration from sign-variation cells (integer count with Hessian
signatures) and the smoothed density (2 eps)^(-m) 1{|grad X|_inf <= eps}
|det hess X| integrated over the box, which stabilizes near the Newton count
as eps decreases.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .field import FieldRealization, hessian_stack, interpolate
from .spectrum import SpectralMoments

__all__ = [
    "CriticalPoint",
    "CriticalPointSet",
    "count_newton",
    "count_kacrice_smoothed",
    "expected_count",
    "write_csv",
]


@dataclass(frozen=True)
class CriticalPoint:
    location: tuple[float, ...]
    gradient_norm: float
    hessian_signature: int  # number of negative eigenvalues
    det_hessian: float


@dataclass(frozen=True)
class CriticalPointSet:
    points: list[CriticalPoint]
    box: tuple[tuple[float, ...], tuple[float, ...]]  # (lo, hi), half-open
    newton_count: int
    kacrice_smoothed_count: float | None
    epsilon_used: float | None
    failed_cells: int
    degenerate_flags: list[int]  # indices of points with |det| below tolerance

    def signature_counts(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for p in self.points:
            out[p.hessian_signature] = out.get(p.hessian_signature, 0) + 1
        return out


def _box_arrays(box, m):
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    if lo.shape != (m,) or hi.shape != (m,) or np.any(hi <= lo):
        raise ValueError("box must be ((lo_1..lo_m), (hi_1..hi_m)) with hi > lo")
    return lo, hi


def _grad_scale(field: FieldRealization) -> float:
    return float(np.sqrt(np.mean(field.grid[1] ** 2)))


def _hess_scale(field: FieldRealization) -> float:
    # jet component 1 + m is the Hessian entry (0, 0)
    return float(np.sqrt(np.mean(field.grid[1 + field.spec.m] ** 2) / 3.0))


def _candidate_cells(field: FieldRealization, lo, hi, margin_cells: int = 1):
    """Centers of grid cells (inside the box +/- margin) where every gradient
    component changes sign among the 2^m cell corners."""
    m = field.spec.m
    h = field.spec.spacing
    origin = field.origin()
    i_lo = np.floor((lo - origin) / h).astype(int) - margin_cells
    i_hi = np.ceil((hi - origin) / h).astype(int) + margin_cells
    n = field.spec.n_per_side
    i_lo = np.clip(i_lo, 0, n - 2)
    i_hi = np.clip(i_hi, 1, n - 1)
    window = tuple(slice(i_lo[k], i_hi[k] + 1) for k in range(m))

    # one contiguous copy of the window: the 2^m corner slices each read it
    g = np.ascontiguousarray(field.grid[(slice(1, 1 + m),) + window])
    lo_c = hi_c = None
    for off in itertools.product((0, 1), repeat=m):
        sl = tuple(slice(o, g.shape[1 + k] - 1 + o) for k, o in enumerate(off))
        v = g[(slice(None),) + sl]
        lo_c = v if lo_c is None else np.minimum(lo_c, v)
        hi_c = v if hi_c is None else np.maximum(hi_c, v)
    mask = np.all((lo_c <= 0.0) & (hi_c >= 0.0), axis=0)
    idx = np.argwhere(mask)
    centers = origin + (idx + i_lo + 0.5) * h
    return centers


def _interp_gradient(field: FieldRealization, pts: np.ndarray) -> np.ndarray:
    m = field.spec.m
    return interpolate(field, pts, slice(1, 1 + m)).T


def _interp_hessian(field: FieldRealization, pts: np.ndarray) -> np.ndarray:
    m = field.spec.m
    return hessian_stack(interpolate(field, pts, slice(1 + m, None)), m)


def count_newton(
    field: FieldRealization,
    box,
    max_iter: int = 40,
    dedup_radius: float | None = None,
) -> CriticalPointSet:
    """Newton count of critical points in the half-open box [lo, hi)^m.

    Newton iterations on grad X start from every sign-variation cell; the
    jet is the quintic-spline interpolant of the spectrally exact derivative
    arrays.  Converged roots are deduplicated and classified by Hessian
    signature; cells whose iterations fail are reported, making the count a
    certified lower bound in that (rare) case.
    """
    m = field.spec.m
    lo, hi = _box_arrays(box, m)
    h = field.spec.spacing
    if dedup_radius is None:
        dedup_radius = 0.5 * h
    gscale = _grad_scale(field)
    tol = 1e-10 * max(gscale, 1e-300)
    if gscale == 0.0:
        raise ValueError("degenerate (identically flat) gradient field")

    pts = _candidate_cells(field, lo, hi)
    n_candidates = pts.shape[0]
    if n_candidates == 0:
        return CriticalPointSet(
            points=[], box=(tuple(lo), tuple(hi)), newton_count=0,
            kacrice_smoothed_count=None, epsilon_used=None,
            failed_cells=0, degenerate_flags=[],
        )

    active = np.arange(n_candidates)
    converged = np.zeros(n_candidates, dtype=bool)
    escaped = np.zeros(n_candidates, dtype=bool)
    roots = pts.copy()
    max_step = 2.0 * h
    domain_half = field.spec.period / 2.0 - 2.0 * h
    cur = pts.copy()
    for _ in range(max_iter):
        if active.size == 0:
            break
        g = _interp_gradient(field, cur[active])
        hess = _interp_hessian(field, cur[active])
        ok = np.max(np.abs(g), axis=1) <= tol
        if np.any(ok):
            done = active[ok]
            converged[done] = True
            roots[done] = cur[done]
            active = active[~ok]
            g, hess = g[~ok], hess[~ok]
            if active.size == 0:
                break
        try:
            step = np.linalg.solve(hess, g[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = np.stack(
                [np.linalg.lstsq(hess[k], g[k], rcond=None)[0] for k in range(len(g))]
            )
        norms = np.linalg.norm(step, axis=1, keepdims=True)
        step = np.where(norms > max_step, step * (max_step / norms), step)
        cur[active] = cur[active] - step
        out = np.max(np.abs(cur[active]), axis=1) > domain_half
        if np.any(out):
            escaped[active[out]] = True
            active = active[~out]

    # Candidates still active at max_iter split two ways.  Sign-variation
    # cells are a superset heuristic: the component zero sets can pass
    # through a cell without intersecting, in which case |grad| stagnates
    # at a strictly positive value and there is no root to find.  Only
    # iterates that stalled *near* a root (small but uncertified gradient)
    # count as failures.
    stalled = ~converged & ~escaped
    if np.any(stalled):
        g_final = _interp_gradient(field, cur[stalled])
        near_root = np.max(np.abs(g_final), axis=1) <= 1e-6 * gscale
        failed = int(np.sum(near_root))
    else:
        failed = 0
    found = roots[converged]
    inside = np.all((found >= lo) & (found < hi), axis=1)
    found = found[inside]

    # deterministic dedup: lexicographic order, greedy keep
    if found.shape[0] > 0:
        order = np.lexsort(found.T[::-1])
        found = found[order]
        tree = cKDTree(found)
        keep = np.ones(found.shape[0], dtype=bool)
        for i in range(found.shape[0]):
            if not keep[i]:
                continue
            for j in tree.query_ball_point(found[i], dedup_radius):
                if j > i:
                    keep[j] = False
        found = found[keep]

    points: list[CriticalPoint] = []
    degenerate: list[int] = []
    if found.shape[0] > 0:
        g = _interp_gradient(field, found)
        hess = _interp_hessian(field, found)
        dets = np.linalg.det(hess)
        eigs = np.linalg.eigvalsh(hess)
        hscale = _hess_scale(field)
        deg_tol = 1e-8 * hscale**m
        for k in range(found.shape[0]):
            points.append(
                CriticalPoint(
                    location=tuple(found[k]),
                    gradient_norm=float(np.linalg.norm(g[k])),
                    hessian_signature=int(np.sum(eigs[k] < 0.0)),
                    det_hessian=float(dets[k]),
                )
            )
            if abs(dets[k]) <= deg_tol:
                degenerate.append(k)

    return CriticalPointSet(
        points=points,
        box=(tuple(lo), tuple(hi)),
        newton_count=len(points),
        kacrice_smoothed_count=None,
        epsilon_used=None,
        failed_cells=max(failed, 0),
        degenerate_flags=degenerate,
    )


def _abs_det_stack(hess: np.ndarray) -> np.ndarray:
    """|det| of a (k, m, m) stack with the explicit 2x2 / 3x3 formulas."""
    m = hess.shape[-1]
    if m == 2:
        det = hess[:, 0, 0] * hess[:, 1, 1] - hess[:, 0, 1] ** 2
    else:
        a, b, c = hess[:, 0, 0], hess[:, 0, 1], hess[:, 0, 2]
        d, e, f = hess[:, 1, 1], hess[:, 1, 2], hess[:, 2, 2]
        det = a * (d * f - e**2) - b * (b * f - c * e) + c * (b * e - c * d)
    return np.abs(det)


def count_kacrice_smoothed(
    field: FieldRealization, box, eps: float, refine: int = 6
) -> float:
    """Smoothed count: quadrature of (2 eps)^(-m) 1{|grad|_inf <= eps}
    |det hess| over the half-open box.

    The indicator region is a union of small neighborhoods of the critical
    points, so plain grid sums carry O(h / eps) error from the sharp
    boundary.  Grid nodes near the region (slack = one cell of gradient
    variation) are therefore supersampled ``refine`` times per axis through
    the quintic-spline jet; the rest of the grid contributes exactly zero.
    """
    m = field.spec.m
    lo, hi = _box_arrays(box, m)
    h = field.spec.spacing
    if eps <= 0:
        raise ValueError("eps must be positive")
    if refine < 1:
        raise ValueError("refine must be >= 1")
    if eps < _hess_scale(field) * h / refine:
        import warnings

        warnings.warn(
            f"eps = {eps:.3g} is below the refined-grid resolvability scale "
            f"~{_hess_scale(field) * h / refine:.3g}; the smoothed count may "
            "miss cells",
            stacklevel=2,
        )
    origin = field.origin()
    coords = origin[0] + h * np.arange(field.spec.n_per_side)  # same on every axis
    window = [np.flatnonzero((coords >= lo[k]) & (coords < hi[k])) for k in range(m)]
    sl = np.ix_(*window)

    gmax = np.max(np.abs(field.grid[(slice(1, 1 + m),) + sl]), axis=0)
    # gradient can swing by about max|hess| * h * sqrt(m) within one cell
    upper = field.grid[1 + m:]
    hmax = max(float(upper.max()), -float(upper.min()))
    slack = 1.5 * math.sqrt(m) * hmax * h
    mask = gmax <= eps + slack
    if not np.any(mask):
        return 0.0

    node_idx = np.argwhere(mask)  # indices into the window
    base = np.stack(
        [origin[k] + h * window[k][node_idx[:, k]] for k in range(m)], axis=1
    )
    # refine^m sub-nodes per grid cell (midpoint rule anchored at the node)
    offsets = (np.arange(refine) + 0.5) / refine - 0.5
    sub = np.stack(
        [g.ravel() for g in np.meshgrid(*([offsets] * m), indexing="ij")], axis=1
    )
    pts = (base[:, None, :] + h * sub[None, :, :]).reshape(-1, m)
    inside = np.all((pts >= lo) & (pts < hi), axis=1)
    pts = pts[inside]
    if pts.shape[0] == 0:
        return 0.0
    g = _interp_gradient(field, pts)
    fire = np.max(np.abs(g), axis=1) <= eps
    if not np.any(fire):
        return 0.0
    hess = _interp_hessian(field, pts[fire])
    weight = (h / refine) ** m
    val = np.sum(_abs_det_stack(hess)) * weight / (2.0 * eps) ** m
    return float(val)


def expected_count(
    moments: SpectralMoments, m: int, box_volume: float, e_absdet_s1: float
) -> float:
    """Theoretical expected count: (h_m / (2 pi d_m))^(m/2) E|det A| * vol,
    with A drawn from the unit-variance symmetric-matrix ensemble."""
    c = (moments.h / (2.0 * np.pi * moments.d)) ** (m / 2.0) * e_absdet_s1
    return c * box_volume


def write_csv(cps: CriticalPointSet, path) -> None:
    """One row per critical point: coordinates, residual, signature, det."""
    m = len(cps.box[0])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(m)] + ["residual", "signature", "det_hessian"])
        for p in cps.points:
            writer.writerow(
                list(p.location) + [p.gradient_norm, p.hessian_signature, p.det_hessian]
            )
