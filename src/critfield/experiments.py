"""End-to-end Monte Carlo experiments on the critical-point count.

A run synthesizes R independent field realizations on the largest cube
[-N, N]^m of the sweep, counts their critical points once, reads the count
Z_N of every smaller cube off the same point set, and checks the three
limit statements: the mean E[Z_N] = C_m(w) (2N)^m, the variance plateau
V_N = var(Z_N)/(2N)^m, and asymptotic normality of the rescaled fluctuation

    zeta_N = (2N)^(-m/2) (Z_N - E[Z_N]).

Records are persisted as JSON plus companion CSVs so every statistic can be
recomputed from the stored raw counts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
from scipy import stats

from .config import BudgetError
from .critpoints import _eps_ladder, count_kacrice_smoothed, count_newton, expected_count
from .field import (
    GridSpec,
    spectral_band,
    spectral_cutoff,
    synthesize,
    torus_record,
    wrap_guard,
)
from .spectrum import SpectralDensity

__all__ = [
    "ExperimentConfig",
    "ExperimentRecord",
    "run_clt",
    "variance_scaling",
    "normality_test",
    "estimator_crosscheck",
    "save_record",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs for one CLT sweep; hashable to a hex digest for provenance."""

    density: SpectralDensity
    m: int
    n_list: tuple[float, ...]
    realizations: int
    points_per_unit: int = 8
    master_seed: int = 0
    eps_list: tuple[float, ...] = (0.2, 0.1, 0.05, 0.025, 0.0125)
    e_absdet_s1: float | None = None

    def __post_init__(self):
        if list(self.n_list) != sorted(self.n_list) or len(self.n_list) == 0:
            raise ValueError("n_list must be nonempty and increasing")
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        _eps_ladder(self.eps_list)

    def digest(self) -> str:
        """Hex digest of the inputs.  The density enters as density_family,
        density_params and density_table, never by its spline."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        w = doc.pop("density")
        doc.update(density_family=w.family, density_params=w.params, density_table=w.table)
        blob = json.dumps(doc, sort_keys=True, default=list)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class ExperimentRecord:
    """Raw counts of one sweep.  E[Z_N] = c_m (2N)^m and the centred zeta_N
    are derived from ``counts`` where they are used, never stored."""

    config_digest: str
    m: int
    n_list: tuple[float, ...]
    counts: np.ndarray  # (level, replicate): row i is Z_{N_i}, failures excluded
    failures: int  # failed replicates, each left out of every level
    c_m: float
    wall_time: float
    flags: list[str] = field(default_factory=list)
    torus: dict = field(default_factory=dict)  # field.torus_record of the run


def _count_one(w, spec, seed, cutoff, band, n_list):
    """Z_N at every N of n_list from one field on spec: one Newton count on
    the cube of spec's half-width, whose half-open sub-cubes [-N, N)^m are
    nested, so each Z_N is the number of its points inside [-N, N)^m."""
    fr = synthesize(w, spec, seed=seed, cutoff=cutoff, band=band)
    n_max, m = spec.half_width, spec.m
    cps = count_newton(fr, ((-n_max,) * m, (n_max,) * m))
    if cps.failed_cells > 0.05 * max(cps.newton_count, 1):
        raise RuntimeError(f"{cps.failed_cells} unresolved cells")
    x = cps.locations
    return [int(np.all((x >= -n) & (x < n), axis=1).sum()) for n in n_list]


def _check_wall_clock(t0: float, wall_clock: float | None, done: int, total: int) -> None:
    """Raise BudgetError once ``wall_clock`` seconds have passed since t0."""
    if wall_clock is not None and time.perf_counter() - t0 > wall_clock:
        raise BudgetError(
            f"wall-clock budget {wall_clock:g}s spent after {done} of {total} realizations"
        )


def run_clt(
    config: ExperimentConfig,
    wrap: tuple[float, float] | None = None,
    wall_clock: float | None = None,
) -> ExperimentRecord:
    """Synthesize and count; deterministic given the master seed.

    Each replicate is one field on the grid of the largest N, counted once;
    Z_N at every level is read off its point set, so the levels are paired.
    Replicate j draws from SeedSequence((master, len(n_list) - 1)).spawn(R)[j],
    so every level's counts depend on the largest N and on len(n_list).  A
    replicate that fails is dropped from every level and counted once in
    failures; the sweep aborts if more than 5% of the replicates fail.
    c_m is ``expected_count``'s at unit volume.  ``wrap`` is ``wrap_guard``'s
    (guard, psi ratio) for the config's density and resolution, derived here
    when None.  The grid is checked against the budget before the first
    realization.  With ``wall_clock`` set, no realization starts once that
    many seconds have passed since the call began: BudgetError is raised.
    """
    t0 = time.perf_counter()
    w = config.density
    m, n_list, r = config.m, config.n_list, config.realizations
    guard, wrap_ratio = wrap or wrap_guard(w, m, config.points_per_unit)
    cutoff = spectral_cutoff(w, m)
    spec = GridSpec(
        m=m, half_width=n_list[-1], points_per_unit=config.points_per_unit, guard=guard
    )
    band = spectral_band(w, spec)
    c_m = expected_count(w, m, 1.0, config.e_absdet_s1)

    flags = [] if r >= 30 else ["insufficient: R < 30"]
    streams = np.random.SeedSequence((config.master_seed, len(n_list) - 1)).spawn(r)
    rows = []
    for j, ss in enumerate(streams):
        _check_wall_clock(t0, wall_clock, j, r)
        seed = int(ss.generate_state(1)[0])
        try:
            rows.append(_count_one(w, spec, seed, cutoff, band, n_list))
        except (RuntimeError, FloatingPointError) as exc:
            flags.append(f"replicate {j} (seed {seed}) failed ({exc})")
    n_fail = r - len(rows)
    if n_fail > 0.05 * r:
        raise RuntimeError(f"{n_fail}/{r} replicates failed")
    return ExperimentRecord(
        config_digest=config.digest(),
        m=m,
        n_list=n_list,
        counts=np.array(rows, dtype=float).T.copy(),  # level-major
        failures=n_fail,
        c_m=c_m,
        wall_time=time.perf_counter() - t0,
        flags=flags,
        torus=torus_record(spec, wrap_ratio),
    )


def variance_scaling(record: ExperimentRecord) -> dict:
    """V_N = var(Z_N) / (2N)^m with bootstrap CIs and a plateau diagnostic.

    The levels share their replicates, so one set of 2000 resamples of the
    replicates (seed 1) serves every level; the plateau ratio of the last
    two levels gets its 95% interval, "plateau_ci", from the same resamples.
    """
    rng = np.random.default_rng(1)
    r = record.counts.shape[1]
    idx = rng.integers(0, r, size=(2000, r)) if r >= 2 else None
    table, boots = {}, {}
    for n, z in zip(record.n_list, record.counts):
        if idx is None:
            table[n] = {"V_N": float("nan"), "ci": (float("nan"), float("nan"))}
            continue
        scale = (2.0 * n) ** record.m
        boots[n] = z[idx].var(axis=1, ddof=1) / scale
        lo, hi = np.percentile(boots[n], [2.5, 97.5])
        table[n] = {
            "V_N": float(z.var(ddof=1) / scale),
            "ci": (float(lo), float(hi)),
            "bootstrap_se": float(boots[n].std(ddof=1)),
        }
    if len(boots) >= 2:
        top, below = record.n_list[-1], record.n_list[-2]
        # a level whose counts never vary gives an infinite or nan ratio; a
        # resample that varies at neither level has none and is left out
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.float64(table[top]["V_N"]) / table[below]["V_N"]
            lo, hi = np.nanpercentile(boots[top] / boots[below], [2.5, 97.5])
        table["plateau_ratio"] = float(ratio)
        table["plateau_ci"] = (float(lo), float(hi))
    return table


def normality_test(zeta: np.ndarray, variance: float) -> dict:
    """One-sample Kolmogorov-Smirnov test of zeta against N(0, variance).

    scipy uses the exact KS null distribution for n <= 1000 in 'exact' mode.
    """
    zeta = np.asarray(zeta, dtype=float)
    if len(zeta) < 100:
        warnings.warn("fewer than 100 samples; KS p-value is unreliable", stacklevel=2)
    if variance <= 0:
        raise ValueError("variance must be positive")
    method = "exact" if len(zeta) <= 1000 else "asymp"
    res = stats.kstest(
        zeta, stats.norm(scale=math.sqrt(variance)).cdf, method=method
    )
    return {"statistic": float(res.statistic), "p_value": float(res.pvalue), "n": len(zeta)}


def estimator_crosscheck(
    config: ExperimentConfig,
    wrap: tuple[float, float] | None = None,
    wall_clock: float | None = None,
) -> dict:
    """Per-realization Newton vs smoothed counting-measure agreement.

    Runs at the smallest N in the config with the configured eps ladder,
    one smoothed pass per field; reports relative disagreement quantiles per
    eps and the torus under "torus".  Each row carries the field's seed, its
    Newton count and unresolved Newton cells, and one smoothed count per
    eps.  ``wrap`` and ``wall_clock`` are as in ``run_clt``.
    """
    t0 = time.perf_counter()
    w = config.density
    m = config.m
    n_half = config.n_list[0]
    guard, wrap_ratio = wrap or wrap_guard(w, m, config.points_per_unit)
    cutoff = spectral_cutoff(w, m)
    spec = GridSpec(
        m=m, half_width=n_half, points_per_unit=config.points_per_unit, guard=guard
    )
    band = spectral_band(w, spec)
    box = ((-n_half,) * m, (n_half,) * m)
    rows = []
    streams = np.random.SeedSequence((config.master_seed, 0x9C)).spawn(
        config.realizations
    )
    for j, ss in enumerate(streams):
        _check_wall_clock(t0, wall_clock, j, config.realizations)
        seed = int(ss.generate_state(1)[0])
        fr = synthesize(w, spec, seed=seed, cutoff=cutoff, band=band)
        cps = count_newton(fr, box)
        row = {"seed": seed, "newton": cps.newton_count, "failed_cells": cps.failed_cells}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            smoothed = count_kacrice_smoothed(fr, box, config.eps_list)
        row.update(
            (f"kacrice_eps={eps}", k) for eps, k in zip(config.eps_list, smoothed)
        )
        rows.append(row)
    out = {"rows": rows, "torus": torus_record(spec, wrap_ratio)}
    for eps in config.eps_list:
        rel = np.array(
            [
                abs(r[f"kacrice_eps={eps}"] - r["newton"]) / max(r["newton"], 1)
                for r in rows
            ]
        )
        out[f"median_rel_eps={eps}"] = float(np.median(rel))
    return out


# --- persistence ------------------------------------------------------------


def save_record(record: ExperimentRecord, out_dir, vtab: dict) -> Path:
    """JSON summary plus per-N CSVs of raw and centred counts, with the
    record's ``variance_scaling`` table ``vtab``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    m, keys = record.m, [str(n) for n in record.n_list]
    expected = [record.c_m * (2.0 * n) ** m for n in record.n_list]
    summary = {
        key: {
            "R": len(z),
            "mean": float(z.mean()),
            "expected": ez,
            "var": float(z.var(ddof=1)) if len(z) > 1 else float("nan"),
            "failures": record.failures,
        }
        for key, z, ez in zip(keys, record.counts, expected)
    }
    doc = {
        "config_digest": record.config_digest,
        "m": m,
        "n_list": list(record.n_list),
        "c_m": record.c_m,
        "expected_mean": dict(zip(keys, expected)),
        "failures": dict.fromkeys(keys, record.failures),
        "summary": summary,
        "wall_time": record.wall_time,
        "flags": record.flags,
        "torus": record.torus,
    }
    (out / "record.json").write_text(json.dumps(doc, indent=2))
    for n, z, ez in zip(record.n_list, record.counts, expected):
        scale = (2.0 * n) ** (m / 2.0)
        with open(out / f"samples_N{n:g}.csv", "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["Z", "zeta_theoretical", "zeta_pooled"])
            for zj, zt, zp in zip(z, (z - ez) / scale, (z - z.mean()) / scale):
                wr.writerow([f"{zj:.1f}", f"{zt:.10g}", f"{zp:.10g}"])
    with open(out / "variance.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["N", "V_N", "ci_lo", "ci_hi"])
        for n in record.n_list:
            row = vtab[n]
            wr.writerow([n, row["V_N"], row["ci"][0], row["ci"][1]])
    return out / "record.json"
