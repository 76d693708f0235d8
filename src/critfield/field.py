"""Seeded spectral synthesis of stationary isotropic Gaussian fields.

A realization carries the jet (value, gradient and, in the 2-jet, the
Hessian upper triangle) on the counting window of a periodic grid as one
stacked array.  Derivative
fields are produced in the spectral domain (multiplication by i*lam_j and
-lam_j*lam_k of the same random coefficients), never by differencing the
sampled values, so the jet is consistent to machine precision with one
trigonometric polynomial.  The quintic B-spline prefilter is a real, even
Fourier multiplier, so each component's transform yields its grid values in
the real part and its periodic spline coefficients in the imaginary part:
there is no separate prefilter pass.

The torus is wider than the cube [-N, N]^m by a wrap guard, but only the
window |x_i| <= N + _REACH_CELLS h is ever read.  Every component's
multiplier is a product of per-axis factors 1, i lam_a or -lam_a^2, so the
inverse transform runs one axis at a time, keeps only the window's rows
after each axis, and branches only where the components' factors differ:
the guard is never materialized.  That prunes the transforms' outputs; their
inputs are pruned to the density's band, the block of axis frequencies
|lam_j| <= Lambda outside which every amplitude times its largest
derivative factor is below rounding (``spectral_band``).  The normals are
drawn and the spectrum is built on that block alone, and each axis
transforms only the lines the band leaves nonzero (FFT pruning, Markel
1971).  So a seed's field depends on the torus period and the band alone:
two grids of one period whose bands agree sample one trigonometric
polynomial, and agree at their shared nodes.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.fft as sfft

from .spectrum import SpectralDensity, moment_Ik, psi_envelope

__all__ = [
    "GridSpec",
    "FieldRealization",
    "NyquistError",
    "wrap_guard",
    "spectral_cutoff",
    "spectral_band",
    "Torus",
    "torus",
    "synthesize",
    "jet_labels",
    "jet_statistics",
    "dump_realization",
    "load_realization",
]

# Memory budget of synthesis, counted as a jet of 1 + m + m(m+1)/2 complex
# arrays on the whole torus, n^m nodes.  That is a bound, not a buffer: each
# transform buffer spans n nodes along one axis and the band or the window
# (<= n) along the others, and the stored jet covers only the window.
_MAX_JET_BYTES = 2 * 2**30


def _jet_bytes(m: int, n: int) -> int:
    """Bytes of a complex jet of n^m nodes."""
    return n**m * (1 + m + m * (m + 1) // 2) * np.dtype(complex).itemsize


# One budget for the two truncations of the sampled covariance: the spectral
# mass beyond the cutoff radius and the wrapped tail psi(guard) / psi(0).
_COVARIANCE_TOL = 1e-6

# Share of the largest squared amplitude times derivative factor below which
# a lattice frequency is left out of synthesis: its term is below rounding
# in every jet component.
_BAND_TOL = 1e-40
# Squared frequency radii that spectral_band evaluates at once.
_BAND_CHUNK = 2**16

# Cells the counting path reads beyond the box on each side: one candidate
# cell plus the quintic spline stencil.
_REACH_CELLS = 4


class NyquistError(ValueError):
    """Grid too coarse (or too small) for the requested spectral content."""


@dataclass(frozen=True)
class GridSpec:
    """Periodic sampling grid for the cube [-N, N]^m plus a wrap guard.

    The torus has n_per_side nodes per axis at spacing 1 / points_per_unit,
    where n_per_side is the smallest even FFT-friendly count whose period
    covers 2 N + guard; the cube is central.  The sampled covariance is the
    periodized one, sum_k C(t + k period), so a guard with psi(guard) small
    keeps the wrapped images out of the cube: ``wrap_guard`` derives it from
    the density.  A realization stores only the counting window, the
    ``window`` nodes per side with |x_i| <= N + _REACH_CELLS h.  Grids whose
    torus-sized jet would exceed _MAX_JET_BYTES, or whose torus is too small
    to hold the window, are rejected here, before anything is allocated.
    """

    m: int
    half_width: float
    points_per_unit: int
    guard: float

    def __post_init__(self):
        if self.m not in (2, 3):
            raise ValueError("only m = 2 and m = 3 grids are supported")
        if self.half_width <= 0 or self.points_per_unit < 1:
            raise ValueError("invalid grid extent or resolution")
        if not self.guard >= 0:
            raise ValueError("the wrap guard must be >= 0")
        n = self.n_per_side
        if (need := _jet_bytes(self.m, n)) > _MAX_JET_BYTES:
            raise ValueError(
                f"grid of {n}^{self.m} = {n**self.m:,} points needs a "
                f"{need / 2**30:.3g} GiB jet, over the budget of "
                f"{_MAX_JET_BYTES / 2**30:g} GiB; lower points_per_unit or the half-width"
            )
        if self.window > n:
            raise ValueError(
                f"a torus of {n} nodes per side cannot hold the {self.window}-node "
                f"counting window; the guard of {self.guard:g} must cover "
                f"{_REACH_CELLS} cells of counting reach on each side"
            )

    @property
    def window_radius(self) -> int:
        """Cells from the centre node to the edge of the counting window."""
        return math.floor(self.half_width * self.points_per_unit + 1e-9) + _REACH_CELLS

    @property
    def window(self) -> int:
        """Nodes per side of the counting window, |x_i| <= N + _REACH_CELLS h."""
        return 2 * self.window_radius + 1

    @property
    def window_bytes(self) -> int:
        """Bytes of a realization's stored jet on the counting window."""
        return _jet_bytes(self.m, self.window)

    @functools.cached_property
    def n_per_side(self) -> int:
        # a whole number of cells, up to the rounding of the product
        need = math.ceil((2.0 * self.half_width + self.guard) * self.points_per_unit - 1e-9)
        n = sfft.next_fast_len(need)
        while n % 2:  # keep it even
            n = sfft.next_fast_len(n + 1)
        return n

    @property
    def period(self) -> float:
        return self.n_per_side / self.points_per_unit

    @property
    def spacing(self) -> float:
        return 1.0 / self.points_per_unit

    @property
    def nyquist_radius(self) -> float:
        return np.pi * self.points_per_unit

    def check_resolution(self, cutoff: float) -> None:
        """Raise NyquistError if the grid does not resolve spectral radius cutoff."""
        if cutoff > self.nyquist_radius:
            raise NyquistError(
                f"spectral mass extends to radius {cutoff:.3g} but the grid only "
                f"resolves {self.nyquist_radius:.3g}; raise points_per_unit"
            )


def wrap_guard(w: SpectralDensity, m: int, points_per_unit: int) -> tuple[float, float]:
    """Torus length beyond the box that keeps the wrap error within tolerance.

    Takes the smallest whole number of cells g with
    psi(g e_1) <= _COVARIANCE_TOL psi(0), found by doubling and then
    bisection (psi is treated as decreasing), and adds the counting path's
    reach of _REACH_CELLS cells on each side.  Returns (guard, achieved
    psi(g e_1) / psi(0)).  The search stops at the largest period the grid
    budget allows at this m and resolution; raises ValueError if the
    tolerance is not met inside it.
    """
    if m not in (2, 3) or points_per_unit < 1:
        raise ValueError("the wrap guard needs m in (2, 3) and points_per_unit >= 1")
    h = 1.0 / points_per_unit
    axis = np.eye(m)[0]
    psi0 = psi_envelope(w, m, np.zeros(m))
    if not psi0 > 0:
        raise ValueError(f"covariance envelope psi(0) = {psi0:g}: no spectral mass")

    def ratio(cells: int) -> float:
        return float(psi_envelope(w, m, cells * h * axis) / psi0)

    top = int((_MAX_JET_BYTES / _jet_bytes(m, 1)) ** (1.0 / m) + 1e-9)  # in cells
    lo, hi = 0, 1  # ratio(lo) is above the tolerance (psi(0) / psi(0) = 1)
    while (r := ratio(hi)) > _COVARIANCE_TOL:
        if hi == top:
            raise ValueError(
                f"covariance decays too slowly for the grid budget: "
                f"psi(g)/psi(0) = {r:.3g} > {_COVARIANCE_TOL:g} at g = {hi * h:g}, "
                f"the largest period the {_MAX_JET_BYTES / 2**30:g} GiB jet budget "
                f"allows at m = {m} and {points_per_unit} points per unit"
            )
        lo, hi = hi, min(2 * hi, top)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (r_mid := ratio(mid)) <= _COVARIANCE_TOL:
            hi, r = mid, r_mid
        else:
            lo = mid
    return (hi + 2 * _REACH_CELLS) * h, r


@dataclass(frozen=True)
class FieldRealization:
    """One seeded sample of the jet (X, grad X) or (X, grad X, hess X) on a
    GridSpec.

    ``jet`` is one complex array of shape (c, w, ..., w), w =
    ``spec.window``, holding the components on the counting window in the
    order of ``jet_labels(m, order)``: the value and the m gradient
    components (c = 1 + m, the 1-jet), then in the 2-jet the Hessian upper
    triangle row by row (c = 1 + m + m(m+1)/2).  Its real part holds the
    grid values of each component, its imaginary part their quintic
    B-spline coefficients (those of the periodic spline on the whole
    torus).
    """

    spec: GridSpec
    jet: np.ndarray
    seed: int
    spectral_cutoff: float

    @property
    def grid(self) -> np.ndarray:
        """Grid values of every jet component (a view of ``jet.real``)."""
        return self.jet.real

    @property
    def coeffs(self) -> np.ndarray:
        """Quintic B-spline coefficients of every component (``jet.imag``)."""
        return self.jet.imag

    @property
    def order(self) -> int:
        """The jet's derivative order: 1 for (X, grad X), 2 with hess X."""
        return 1 if len(self.jet) == 1 + self.spec.m else 2

    def origin(self) -> np.ndarray:
        """Coordinates of jet node (0, ..., 0), the first window node."""
        return np.full(self.spec.m, -self.spec.window_radius * self.spec.spacing)


def jet_labels(m: int, order: int = 2) -> list[str]:
    """Component names in jet order: X, g0 .. g{m-1}, then at order 2
    h{i}{j} for i <= j."""
    upper = zip(*np.triu_indices(m)) if order == 2 else ()
    return ["X"] + [f"g{i}" for i in range(m)] + [f"h{i}{j}" for i, j in upper]


def _along(v: np.ndarray, axis: int, m: int) -> np.ndarray:
    """1-D array v shaped to broadcast along one axis of an m-D grid."""
    return v.reshape([-1 if k == axis else 1 for k in range(m)])


def _spline_multiplier(n: int, band: np.ndarray, m: int) -> np.ndarray:
    """Fourier multiplier of the periodic quintic B-spline prefilter on n^m,
    at the axis frequency indices ``band`` along every axis.

    Per axis it is 120 / (66 + 52 cos w + 2 cos 2w), the inverse transfer
    function of the sampled quintic B-spline (Unser, Aldroubi & Eden, IEEE
    TSP 1993); it matches ndimage.spline_filter(order=5, mode="grid-wrap").
    The multiplier is real and even in the frequency.
    """
    om = 2.0 * np.pi * np.fft.fftfreq(n)[band]
    p = 120.0 / (66.0 + 52.0 * np.cos(om) + 2.0 * np.cos(2.0 * om))
    return functools.reduce(np.multiply, [_along(p, a, m) for a in range(m)])


def spectral_band(w: SpectralDensity, spec: GridSpec) -> np.ndarray:
    """Axis frequency indices that synthesis keeps, in transform order:
    0 .. K, then -K .. -1 (mod n), or the whole axis.

    Squared, a lattice frequency's amplitude times its largest derivative
    factor 1 + r^2 is w(r) (1 + r^2)^2 up to a constant, at r = dlam sqrt(q)
    with q the sum of its squared axis indices.  With q* the last q <=
    m (n/2)^2 at which that product exceeds _BAND_TOL of its largest value
    on the axis, K = isqrt(q*): a frequency outside the block has some
    |k_j| > K, so q >= (K + 1)^2 > q* and its product is below the bound.
    A compact density's band is its support.  It depends on the density
    and the grid alone, so ``torus`` computes it once per run.  The q are
    scanned down from the top in chunks of _BAND_CHUNK, so a fine grid's
    scan holds one chunk, not all m (n/2)^2 + 1 of them.
    """
    m, n = spec.m, spec.n_per_side
    dlam = 2.0 * np.pi / spec.period

    def product(q):
        r = dlam * np.sqrt(q)
        return w(r) * (1.0 + r**2) ** 2

    bound = _BAND_TOL * product(np.arange(n // 2 + 1) ** 2).max()
    q_star = 0
    for stop in range(m * (n // 2) ** 2 + 1, 0, -_BAND_CHUNK):
        start = max(stop - _BAND_CHUNK, 0)
        above = np.flatnonzero(product(np.arange(start, stop)) > bound)
        if len(above):
            q_star = start + int(above[-1])
            break
    k = math.isqrt(q_star)
    if 2 * k + 1 >= n:
        return np.arange(n)
    return np.r_[0:k + 1, n - k:n]


def spectral_cutoff(w: SpectralDensity, m: int) -> float:
    """Radius containing all but _COVARIANCE_TOL of the spectral mass of s_m.

    It depends on the density and m alone, so ``torus`` computes it once per
    run.
    """
    total = moment_Ik(w, m - 1)
    rmax = w.support_radius()
    grid = np.linspace(0.0, rmax, 4097)
    dens = w(grid) * grid ** (m - 1)
    cum = np.cumsum(dens) * (grid[1] - grid[0])
    idx = np.searchsorted(cum, (1.0 - _COVARIANCE_TOL) * total)
    return float(grid[min(idx, len(grid) - 1)])


class Torus(NamedTuple):
    """The torus of one run, built once by ``torus``: the grid, the psi
    ratio its wrap guard achieves, the synthesis cutoff and the band."""

    spec: GridSpec
    wrap_ratio: float
    cutoff: float
    band: np.ndarray

    def record(self) -> dict:
        """JSON-ready account of the torus: the guard, the tolerance, the
        achieved psi ratio and the nodes per side at the half-width."""
        spec = self.spec
        return {"guard": spec.guard, "tolerance": _COVARIANCE_TOL, "wrap_ratio": self.wrap_ratio,
                "n_per_side": {str(spec.half_width): spec.n_per_side}}


def torus(w: SpectralDensity, m: int, half_width: float, points_per_unit: int) -> Torus:
    """The torus on which every field of a run is synthesized: the grid of
    the cube [-half_width, half_width]^m with ``wrap_guard``'s guard, checked
    to resolve ``spectral_cutoff``, and its ``spectral_band``."""
    guard, wrap_ratio = wrap_guard(w, m, points_per_unit)
    spec = GridSpec(m=m, half_width=half_width, points_per_unit=points_per_unit, guard=guard)
    cutoff = spectral_cutoff(w, m)
    spec.check_resolution(cutoff)
    return Torus(spec, wrap_ratio, cutoff, spectral_band(w, spec))


def _transform_window(part, comps, axis: int, factor: dict, n: int, jet: np.ndarray) -> None:
    """Finish the inverse transforms of the jet components ``comps`` from
    ``part`` and write each one's counting window into ``jet``.

    ``part`` holds the band block along ``axis`` and the axes after it, in
    transform order (0 .. K, then -K .. -1), and is transformed along the
    axes before it and cropped to the window there; each of its lines along
    ``axis`` is spread over the n-point axis with zeros between the two
    runs, so only the band's lines are ever transformed.  A component with
    derivative orders k_a has the multiplier prod_a (i lam_a)^k_a, with
    ``factor[k]`` the per-axis factor of order k > 0 on the band, and
    ``comps`` agree in their orders along the axes before ``axis``.  The
    components that also agree along ``axis`` share one transform along it,
    so only the window's rows go on to the next axis (FFT pruning).
    """
    m, b, w = part.ndim, part.shape[axis], jet.shape[-1]
    lead = (slice(None),) * axis
    keep = lead + (slice(n // 2 - w // 2, n // 2 + w // 2 + 1),)
    # the band's two runs, as (block rows, axis rows); the whole axis is a
    # band with an empty gap
    h = b // 2 + 1
    runs = [(slice(0, h), slice(0, h)), (slice(h, b), slice(n - b + h, n))]
    # the orders read off the labels: "h01" -> (1, 1, 0), "X" -> (0, 0, 0)
    orders = [tuple(label[1:].count(str(a)) for a in range(m)) for label in jet_labels(m)]
    groups = {}
    for c in comps:
        groups.setdefault(orders[c][axis], []).append(c)
    for k, group in groups.items():
        x = np.empty(part.shape[:axis] + (n,) + part.shape[axis + 1:], dtype=complex)
        x[lead + (slice(h, n - b + h),)] = 0.0
        for rows, to in runs:
            if k == 0:
                x[lead + (to,)] = part[lead + (rows,)]
            else:
                np.multiply(part[lead + (rows,)], _along(factor[k][rows], axis, m),
                            out=x[lead + (to,)])
        # norm="forward" leaves the inverse unscaled: a plain Fourier sum
        x = sfft.ifft(x, axis=axis, norm="forward", overwrite_x=True)[keep]
        if axis == m - 1:
            jet[group[0]] = x
        else:
            _transform_window(x, group, axis + 1, factor, n, jet)
        del x  # free this buffer before the next group allocates its own


def synthesize(
    w: SpectralDensity,
    spec: GridSpec,
    seed: int,
    cutoff: float | None = None,
    band: np.ndarray | None = None,
    order: int = 2,
) -> FieldRealization:
    """Sample the centered stationary field with spectral density w, as its
    jet of derivative ``order`` 1 (X, grad X) or 2 (with hess X).

    Hermitian-free variant of spectral synthesis: draw one complex standard
    normal per lattice frequency, scale by sqrt(2 (2 pi)^(-m/2) w(|lam|)
    dlam^m), and keep the real part of the inverse transform.  The law of the
    result matches the target covariance on the torus exactly.  Each
    component's complex transform returns the grid values and, in the
    otherwise unused imaginary part, the quintic spline coefficients; only
    the counting window of the torus is transformed out and stored.  The
    1-jet runs only the transforms its 1 + m components need, and its planes
    are those of the 2-jet's first 1 + m components, bit for bit.

    The normals are drawn, the spectrum built and transformed only on the
    band block ``(len(band),) * m``: the frequencies left out carry
    amplitudes below rounding.  The real parts are drawn first, then the
    imaginary parts, each in transform order, so a seed's field depends on
    the period and the band, not on the points per unit.  ``cutoff`` is
    ``spectral_cutoff(w, spec.m)`` and ``band`` is ``spectral_band(w,
    spec)``, each computed here when None; raises NyquistError when the grid
    does not resolve the cutoff.
    """
    m, n = spec.m, spec.n_per_side
    if order not in (1, 2):
        raise ValueError(f"jet order {order!r}: synthesis makes the 1-jet or the 2-jet")
    if cutoff is None:
        cutoff = spectral_cutoff(w, m)
    spec.check_resolution(cutoff)
    if band is None:
        band = spectral_band(w, spec)
    freqs = (2.0 * np.pi * np.fft.fftfreq(n, d=spec.spacing))[band]
    lam = [_along(freqs, a, m) for a in range(m)]
    rad = np.sqrt(sum(x**2 for x in lam))
    dlam = 2.0 * np.pi / spec.period
    amp = np.sqrt(2.0 * (2.0 * np.pi) ** (-m / 2.0) * w(rad) * dlam**m)
    del rad

    rng = np.random.default_rng(seed)
    re = rng.standard_normal(amp.shape)
    im = rng.standard_normal(amp.shape)
    coeff = amp * (re + 1j * im) / np.sqrt(2.0)
    del amp, re, im

    # real(ifftn(C)) = ifftn(C_h) for the Hermitian part C_h(k) = (C(k) +
    # conj C(-k)) / 2; the block is symmetric, so C(-k) is in it.  The spline
    # multiplier P is real and even, so ifftn(C_h (1 + iP)) is the field plus
    # i times its spline coefficients.
    herm = np.roll(np.flip(coeff), 1, axis=tuple(range(m)))  # C(-k)
    np.conjugate(herm, out=herm)
    herm += coeff
    herm *= 0.5
    del coeff
    folded = herm * _spline_multiplier(n, band, m)
    folded *= 1j
    folded += herm
    del herm

    # Odd derivatives of the real Nyquist cosine vanish at the grid nodes, so
    # an odd factor is zero there; that keeps every multiplier Hermitian.
    odd = np.where(band == n // 2, 0.0, freqs)
    factor = {1: 1j * odd, 2: -freqs**2}
    jet = np.empty((len(jet_labels(m, order)),) + (spec.window,) * m, dtype=complex)
    _transform_window(folded, range(len(jet)), 0, factor, n, jet)
    return FieldRealization(spec=spec, jet=jet, seed=seed, spectral_cutoff=cutoff)


def jet_statistics(fields: list[FieldRealization]) -> dict:
    """Pooled empirical second moments of (X, grad X, hess X).

    Read at every fourth window node along each axis.  Returns a dict keyed
    by moment label with (estimate, stderr) pairs; the standard error is
    over the per-realization means, which respects the strong spatial
    correlation within one realization.  One realization gives the
    estimates with a stderr of None.
    """
    if not fields:
        raise ValueError("need at least 1 realization")
    m = fields[0].spec.m
    names = jet_labels(m)
    k = len(names)
    # every product of two components but the odd gradient-Hessian ones
    pairs = [(a, b) for a in range(k) for b in range(a, k) if not 0 < a <= m < b]

    sl = (slice(None),) + (slice(None, None, 4),) * m
    # per realization, the mean of every product of two components
    samples = [f.grid[sl].reshape(k, -1) for f in fields]
    per_real = np.array([s @ s.T / s.shape[1] for s in samples])
    est = per_real.mean(axis=0)
    se = per_real.std(axis=0, ddof=1) / np.sqrt(len(fields)) if len(fields) > 1 else None
    return {
        f"{names[a]}.{names[b]}": (est[a, b], None if se is None else se[a, b])
        for a, b in pairs
    }


# --- binary reproducibility dump -----------------------------------------

# CFLD1 stored a padding factor in the slot that now holds the guard; CFLD2
# stored the grid values on the whole torus.
_MAGIC = b"CFLD3\x00"
_HEADER = "<iqdidd"  # m, seed, half-width, points per unit, guard, cutoff


def dump_realization(field_r: FieldRealization, path) -> None:
    """Little-endian binary dump: header (spec, seed, spectral cutoff), then
    the complex128 jet on the counting window, grid values and spline
    coefficients of every component in jet order.  Only a 2-jet is dumped:
    the header holds no component count, so ``load_realization`` reads
    every dump as a 2-jet; any other jet raises ValueError."""
    spec = field_r.spec
    if field_r.jet.shape != (len(jet_labels(spec.m)),) + (spec.window,) * spec.m:
        raise ValueError(
            f"a CFLD3 dump holds the 2-jet of {len(jet_labels(spec.m))} components; "
            f"this jet has shape {field_r.jet.shape}"
        )
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(
            struct.pack(
                _HEADER,
                spec.m,
                field_r.seed,
                spec.half_width,
                spec.points_per_unit,
                spec.guard,
                field_r.spectral_cutoff,
            )
        )
        fh.write(np.ascontiguousarray(field_r.jet, dtype="<c16").tobytes())


def load_realization(path) -> FieldRealization:
    """Inverse of dump_realization, bit for bit; the header rebuilds the
    same GridSpec."""
    with open(path, "rb") as fh:
        if (magic := fh.read(len(_MAGIC))) != _MAGIC:
            raise ValueError(f"not a critfield CFLD3 realization dump (magic {magic!r})")
        m, seed, half_width, ppu, guard, cutoff = struct.unpack(
            _HEADER, fh.read(struct.calcsize(_HEADER))
        )
        spec = GridSpec(m=m, half_width=half_width, points_per_unit=ppu, guard=guard)
        shape = (len(jet_labels(m)),) + (spec.window,) * m
        jet = np.empty(shape, dtype="<c16")
        if fh.readinto(jet) != jet.nbytes:
            raise ValueError("truncated realization dump")
    return FieldRealization(spec, jet, seed, cutoff)
