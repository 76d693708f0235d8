"""End-to-end Monte Carlo experiments on the critical-point count.

A run synthesizes R independent field realizations on the largest cube
[-N, N]^m of the sweep, counts their critical points once, reads the count
Z_N of every smaller cube off the same point set, and checks the three
limit statements: the mean E[Z_N] = C_m(w) (2N)^m, the variance plateau
V_N = var(Z_N)/(2N)^m, and asymptotic normality of the rescaled fluctuation

    zeta_N = (2N)^(-m/2) (Z_N - E[Z_N]).

The replicates of a sweep run on one worker process per CPU of the
process's affinity set (as many as the replicates and the jet budget allow),
each worker pinned to its own CPU; with one CPU the sweep runs in-process.
Every replicate's seed is spawned from the master seed, so the counts do not
depend on the number of workers.

Records are persisted as JSON plus companion CSVs so every statistic can be
recomputed from the stored raw counts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
import warnings
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np
from scipy import stats

from .config import BudgetError
from .critpoints import (
    _check_anchor, _eps_ladder, count_kacrice_smoothed, count_newton, expected_count,
)
from .field import _MAX_JET_BYTES, GridSpec, Torus, _jet_bytes, synthesize, torus
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
        if not self.n_list or list(self.n_list) != sorted(set(self.n_list)) or self.n_list[0] <= 0:
            raise ValueError("n_list must be nonempty and increasing, with every N > 0")
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        _eps_ladder(self.eps_list)
        _check_anchor(self.e_absdet_s1)

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
    torus: dict = field(default_factory=dict)  # Torus.record() of the run's torus


def _worker_cpus(spec: GridSpec, r: int) -> list[int]:
    """The CPUs a sweep of ``r`` fields on ``spec`` runs on, one worker
    each: the first W of the process's affinity set, W = min(CPUs, R, torus
    jets the jet budget holds).  One CPU means the sweep runs in-process."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[: min(len(cpus), r, _MAX_JET_BYTES // _jet_bytes(spec.m, spec.n_per_side))]


_replicate = None  # a pool worker's replicate function, set by _start_worker


def _start_worker(cpus, replicate) -> None:
    """Pool initializer: pin the worker to the next CPU of the queue
    ``cpus`` and keep the sweep's replicate function."""
    global _replicate
    os.sched_setaffinity(0, {cpus.get()})
    _replicate = replicate


def _run_replicate(j: int):
    return _replicate(j)


def _sweep(config: ExperimentConfig, grid: Torus, key: int, wall_clock, per_field):
    """The one replicate loop: replicate j synthesizes one field on ``grid``
    from SeedSequence((master, key)).spawn(R)[j] and hands it to
    ``per_field(j, field, box)``, box being the cube of the grid's
    half-width.  ``per_field`` is a module-level function, or a partial of
    one, and returns all its caller keeps: under a pool it runs in a
    worker.  The seeds are drawn once, before any field; ``wall_clock`` is
    as in ``run_clt``.

    The replicates run on ``_worker_cpus``: with one CPU in-process, else on
    a pool of forked workers, one pinned to each CPU.  Every replicate
    checks the wall clock before it synthesizes (the monotonic clock is
    shared by all processes).  The first replicate, in order, to raise ends
    the sweep with its error; a worker that dies ends it with
    BrokenProcessPool.  No worker outlives the call.  Returns the per-field
    results in replicate order and the seconds spent.
    """
    t0 = time.perf_counter()
    w, spec, r = config.density, grid.spec, config.realizations
    box = ((-spec.half_width,) * spec.m, (spec.half_width,) * spec.m)
    seeds = [
        int(ss.generate_state(1)[0])
        for ss in np.random.SeedSequence((config.master_seed, key)).spawn(r)
    ]

    def replicate(j):
        if wall_clock is not None and time.perf_counter() - t0 > wall_clock:
            raise BudgetError(
                f"wall-clock budget {wall_clock:g}s spent after {j} of {r} realizations"
            )
        fr = synthesize(w, spec, seed=seeds[j], cutoff=grid.cutoff, band=grid.band)
        return per_field(j, fr, box)

    cpus = _worker_cpus(spec, r)
    if len(cpus) == 1:
        out = [replicate(j) for j in range(r)]
    else:
        # imported here, so a run that makes no pool does not load them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork: the workers inherit the loaded modules and the band, where
        # spawn would re-import numpy, scipy and critfield in each (about
        # 1 s a worker); critfield runs no thread of its own at this point
        ctx = multiprocessing.get_context("fork")
        queue = ctx.SimpleQueue()
        for cpu in cpus:
            queue.put(cpu)
        pool = ProcessPoolExecutor(
            len(cpus), mp_context=ctx, initializer=_start_worker, initargs=(queue, replicate)
        )
        try:
            out = list(pool.map(_run_replicate, range(r)))
        finally:
            pool.shutdown(cancel_futures=True)
            queue.close()
    return out, time.perf_counter() - t0


def _nested_counts(n_list, j: int, fr, box) -> tuple[list[int] | None, str | None]:
    """``run_clt``'s per-field work: (Z_N at every N of ``n_list``, None),
    or (None, flag) for a replicate that fails."""
    # the half-open sub-cubes [-N, N)^m are nested: Z_N counts the points
    # of the largest cube's count inside [-N, N)^m
    try:
        cps = count_newton(fr, box)
        if cps.failed_cells > 0.05 * max(cps.newton_count, 1):
            raise RuntimeError(f"{cps.failed_cells} unresolved cells")
    except (RuntimeError, FloatingPointError) as exc:
        return None, f"replicate {j} (seed {fr.seed}) failed ({exc})"
    x = cps.locations
    return [int(np.all((x >= -n) & (x < n), axis=1).sum()) for n in n_list], None


def run_clt(
    config: ExperimentConfig, grid: Torus | None = None, wall_clock: float | None = None
) -> ExperimentRecord:
    """Synthesize and count; deterministic given the master seed.

    Each replicate is one field on the grid of the largest N, counted once;
    Z_N at every level is read off its point set, so the levels are paired.
    Replicate j draws from SeedSequence((master, len(n_list) - 1)).spawn(R)[j],
    so every level's counts depend on the largest N and on len(n_list).  A
    replicate that fails is dropped from every level, counted once in
    failures and named with its seed in a flag; the sweep aborts if more
    than 5% of the replicates fail.
    c_m is ``expected_count``'s at unit volume.  ``grid`` is ``field.torus``
    of the config's density and resolution at the largest N, built here
    when None; building it checks the grid against the budget before the
    first realization.  With ``wall_clock`` set, no realization starts once
    that many seconds have passed since the replicate loop began:
    BudgetError is raised.
    """
    n_list, r = config.n_list, config.realizations
    if grid is None:
        grid = torus(config.density, config.m, n_list[-1], config.points_per_unit)
    results, wall_time = _sweep(
        config, grid, len(n_list) - 1, wall_clock, partial(_nested_counts, n_list)
    )
    flags = [] if r >= 30 else ["insufficient: R < 30"]
    flags += [flag for _, flag in results if flag is not None]
    rows = [z for z, _ in results if z is not None]
    n_fail = r - len(rows)
    if n_fail > 0.05 * r:
        raise RuntimeError(f"{n_fail}/{r} replicates failed")
    return ExperimentRecord(
        config_digest=config.digest(),
        m=config.m,
        n_list=n_list,
        counts=np.array(rows, dtype=float).T.copy(),  # level-major
        failures=n_fail,
        c_m=expected_count(config.density, config.m, 1.0, config.e_absdet_s1),
        wall_time=wall_time,
        flags=flags,
        torus=grid.record(),
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


def _compare_estimators(eps_list, j: int, fr, box) -> dict:
    """``estimator_crosscheck``'s per-field work: the field's row."""
    cps = count_newton(fr, box)
    row = {"seed": fr.seed, "newton": cps.newton_count, "failed_cells": cps.failed_cells}
    with warnings.catch_warnings():
        # a finest eps below the resolvability scale is the ladder's
        # design; any other warning goes through
        warnings.filterwarnings("ignore", r"eps = .* resolvability", UserWarning)
        smoothed = count_kacrice_smoothed(fr, box, eps_list)
    row.update((f"kacrice_eps={eps}", k) for eps, k in zip(eps_list, smoothed))
    return row


def estimator_crosscheck(
    config: ExperimentConfig, grid: Torus | None = None, wall_clock: float | None = None
) -> dict:
    """Per-realization Newton vs smoothed counting-measure agreement.

    Runs at the smallest N in the config with the configured eps ladder,
    one smoothed pass per field; reports relative disagreement quantiles per
    eps and the torus under "torus".  Each row carries the field's seed, its
    Newton count and unresolved Newton cells, and one smoothed count per
    eps; every field keeps its row.  Replicate j draws from
    SeedSequence((master, 0x9C)).spawn(R)[j].  ``grid`` is as in
    ``run_clt`` but at the smallest N, and ``wall_clock`` as there.
    """
    if grid is None:
        grid = torus(config.density, config.m, config.n_list[0], config.points_per_unit)
    compare = partial(_compare_estimators, config.eps_list)
    rows, _ = _sweep(config, grid, 0x9C, wall_clock, compare)
    out = {"rows": rows, "torus": grid.record()}
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
