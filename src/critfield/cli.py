"""Batch front door: subcommand dispatch, persistence, plot-data emission.

``dispatch`` builds the plan of a run (density, torus, experiment config,
ensemble or dimension), with the checks of the objects and functions the
run uses (the grid's resolution among them), and checks
it against the budget before anything is written.  ``--dry-run`` prints the
plan; a run stamps its provenance, torus included, then runs the plan.
Runners read no config.

Exit codes: 0 success, 2 configuration error, 3 budget exceeded,
4 numerical failure or a sweep worker process that died.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import sys
import time
from concurrent.futures import BrokenExecutor
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

from . import __version__
from . import chaos as chaos_mod
from . import critpoints, experiments, field, randmat, spectrum
from .config import BudgetError, ConfigError, number, numbers, parse_config, whole

__all__ = ["main", "dispatch", "emit_plot_data"]

EXIT_OK, EXIT_CONFIG, EXIT_BUDGET, EXIT_NUMERICAL = 0, 2, 3, 4

_OUT_ENV = "CRITFIELD_OUT"


class _Plan(NamedTuple):
    """What one run executes, built from its config before anything is
    written.  Fields a subcommand does not use are None."""

    subcommand: str
    seed: int
    wall_clock: float | None
    m: int
    density: spectrum.SpectralDensity | None = None  # all but randmat
    torus: field.Torus | None = None  # field, count, clt, crosscheck
    e_absdet_s1: float | None = None  # E|det| anchor of count and clt
    experiment: experiments.ExperimentConfig | None = None  # clt, crosscheck
    ensemble: randmat.EnsembleParams | None = None  # randmat, chaos
    samples: int | None = None  # randmat's Monte Carlo draws


def _require(block: dict, name: str, keys) -> None:
    missing = [key for key in keys if key not in block]
    if missing:
        raise ConfigError(f"{name} block needs {' and '.join(missing)}")


def _density(block: dict) -> spectrum.SpectralDensity:
    """The density of the block: gaussian, sigma 1, unless it says otherwise."""
    family = block.get("family", "gaussian")
    table = None
    if "table" in block:
        rows = np.asarray(block["table"], dtype=float)
        if rows.ndim != 2 or rows.shape[1] != 2:
            raise ConfigError("density table must be a list of [r, w(r)] rows")
        table = tuple(rows[:, 0].tolist()), tuple(rows[:, 1].tolist())
    params = numbers(block, "params", [1.0] if family == "gaussian" else [])
    return spectrum.SpectralDensity(family=family, params=params, table=table)


def _plan(cfg: dict) -> _Plan:
    """The one builder of every block a subcommand reads, and of the default
    of each key, from ``parse_config``'s mapping; the plan is then checked
    against the budget.  The grid is that of the largest half-width the
    subcommand runs (crosscheck runs only the smallest)."""
    sub, exp, ens, budget = cfg["subcommand"], cfg["experiment"], cfg["ensemble"], cfg["budget"]
    wall_clock = budget.get("wall_clock")
    plan = {"subcommand": sub, "seed": cfg["seed"],
            "wall_clock": None if wall_clock is None else number(budget, "wall_clock")}
    if sub != "randmat":
        plan["density"] = w = _density(cfg["density"])
    if sub in ("randmat", "chaos"):
        _require(ens, "ensemble", ("m", "v"))
        m, v = whole(ens, "m"), number(ens, "v")
        # chaos works over S(m; v, v) and draws nothing: u and samples are ignored
        u = number(ens, "u", v) if sub == "randmat" else v
        plan["ensemble"] = randmat.EnsembleParams(m=m, u=u, v=v)
        if sub == "randmat":
            plan["samples"] = whole(ens, "samples", 500_000)
            randmat._check_samples(plan["samples"])
    else:
        m = whole(exp, "m", 2)
    if sub in ("spectrum", "chaos"):
        spectrum._check_dimension(m)
    if sub in ("field", "count", "clt", "crosscheck"):
        if sub in ("clt", "crosscheck"):
            _require(exp, "experiment", ("n_list", "realizations"))
        n_list = numbers(exp, "n_list", [5.0])
        ppu = whole(exp, "points_per_unit", 8)
        e_absdet = exp.get("e_absdet_s1")
        plan["e_absdet_s1"] = e_absdet = None if e_absdet is None else number(exp, "e_absdet_s1")
        critpoints._check_anchor(e_absdet)
        if sub in ("clt", "crosscheck"):
            eps = {}  # the default ladder is ExperimentConfig's
            if "eps_list" in exp:
                eps["eps_list"] = numbers(exp, "eps_list")
            plan["experiment"] = experiments.ExperimentConfig(
                density=w, m=m, n_list=n_list, realizations=whole(exp, "realizations"),
                points_per_unit=ppu, master_seed=cfg["seed"], e_absdet_s1=e_absdet, **eps,
            )
        half_width = (min if sub == "crosscheck" else max)(n_list)
        plan["torus"] = field.torus(w, m, half_width, ppu)
        need = plan["torus"].spec.n_per_side**m
        if "grid_points" in budget and need > number(budget, "grid_points"):
            raise BudgetError(f"grid needs {need} points > budget {budget['grid_points']}")
    samples = plan.get("samples")
    if samples is not None and samples > number(budget, "samples", samples):
        raise BudgetError(f"MC asks {samples} samples > budget {budget['samples']}")
    return _Plan(m=m, **plan)


def _prepare_out(cfg: dict, args) -> Path:
    # --out reaches here as parse_config's override of the "out" key
    out = cfg.get("out") or os.environ.get(_OUT_ENV)
    if out is None:
        raise ConfigError("no output directory: set 'out', --out, or $" + _OUT_ENV)
    out = Path(out)
    if any(p.exists() and not p.is_dir() for p in (out, *out.parents)):
        raise ConfigError(f"output path {out} is, or lies under, a file")
    if out.exists() and any(out.iterdir()) and not args.force:
        raise ConfigError(f"output dir {out} is not empty (use --force to overwrite)")
    if out.exists() and args.force:
        shutil.rmtree(out)
    out.mkdir(parents=True)
    return out


def _stamp(plan: _Plan, out: Path, config_path) -> None:
    # the Monte Carlo numbers rest on numpy's normal and gamma streams and LAPACK
    stamp = {"version": __version__, "python": platform.python_version(),
             "numpy": np.__version__, "scipy": scipy.__version__,
             "seed": plan.seed, "subcommand": plan.subcommand}
    if plan.torus is not None:
        stamp["torus"] = plan.torus.record()
    if plan.experiment is not None:
        # the sweep's workers and the CPU each is pinned to; none at W = 1,
        # where the sweep runs in-process
        cpus = experiments._worker_cpus(plan.torus.spec, plan.experiment.realizations)
        stamp["workers"] = len(cpus)
        stamp["worker_cpus"] = cpus if len(cpus) > 1 else []
    (out / "provenance.json").write_text(json.dumps(stamp, indent=2))
    shutil.copyfile(config_path, out / "config.yaml")


def _write_summary(out: Path, lines: list[str]) -> None:
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)


def _run_spectrum(plan: _Plan, out: Path) -> None:
    m = plan.m
    mom = spectrum.spectral_moments(plan.density, m)
    nd = spectrum.nondegeneracy_ratio(mom)
    i_table = {str(k): v for k, v in mom.i_table.items()}
    doc = {"m": m, "s": mom.s, "d": mom.d, "h": mom.h, "i_table": i_table, **nd}
    (out / "spectrum.json").write_text(json.dumps(doc, indent=2))
    _write_summary(
        out,
        [
            f"s_{m} = {mom.s:.10g}, d_{m} = {mom.d:.10g}, h_{m} = {mom.h:.10g}",
            f"nondegeneracy ratio = {nd['ratio']:.6g} (nondegenerate: {nd['nondegenerate']})",
        ],
    )


def _run_field(plan: _Plan, out: Path) -> None:
    spec, cut, band = plan.torus.spec, plan.torus.cutoff, plan.torus.band
    fr = field.synthesize(plan.density, spec, seed=plan.seed, cutoff=cut, band=band)
    field.dump_realization(fr, out / "realization.bin")
    stats = field.jet_statistics([fr])
    (out / "jet_statistics.json").write_text(
        json.dumps(stats, indent=2, default=float)
    )
    _write_summary(
        out,
        [
            f"synthesized m={spec.m} jet {fr.grid.shape}, seed={plan.seed}",
            f"spectral cutoff radius = {fr.spectral_cutoff:.6g}",
            f"var(X) sample = {float(np.var(fr.grid[0])):.6g}",
        ],
    )


def _run_count(plan: _Plan, out: Path) -> None:
    spec, cut, band = plan.torus.spec, plan.torus.cutoff, plan.torus.band
    n_half = spec.half_width
    # Newton reads the 1-jet alone
    fr = field.synthesize(plan.density, spec, seed=plan.seed, cutoff=cut, band=band, order=1)
    box = ((-n_half,) * spec.m, (n_half,) * spec.m)
    cps = critpoints.count_newton(fr, box)
    critpoints.write_csv(cps, out / "critical_points.csv")
    expected = critpoints.expected_count(
        plan.density, spec.m, (2.0 * n_half) ** spec.m, plan.e_absdet_s1
    )
    _write_summary(
        out,
        [
            f"Newton count = {cps.newton_count} in [-{n_half}, {n_half})^{spec.m}",
            f"signature counts = {cps.signature_counts()}",
            f"failed cells = {cps.failed_cells}, degenerate = {len(cps.degenerate_flags)}",
            f"expected E[Z] = {expected:.6g}",
        ],
    )


def _run_randmat(plan: _Plan, out: Path) -> None:
    params, n = plan.ensemble, plan.samples
    m, u, v = params.m, params.u, params.v
    names = ("absdet", "p_absdet", "q_absdet")
    results = randmat.expect_functional_mc(params, names, n, seed=plan.seed)
    rng = np.random.default_rng(plan.seed + 1)
    eigs = np.linalg.eigvalsh(randmat.sample_matrices(params, 400, rng)).ravel()
    np.savetxt(out / "eigenvalues.csv", eigs, header="eigenvalue", comments="")
    doc = {"m": m, "u": u, "v": v, "samples": n, "results": results}
    (out / "randmat.json").write_text(json.dumps(doc, indent=2))
    lines = [
        f"S(m={m}; u={u}, v={v}), {n} samples:",
        *(
            f"  E[{k}] = {r['mean']:.8g} +- {r['stderr']:.3g}"
            for k, r in results.items()
        ),
    ]
    if u == v:
        lines.append(f"  quadrature E[absdet] = {randmat.expect_absdet_S(m, v):.8g}")
    _write_summary(out, lines)


def _run_chaos(plan: _Plan, out: Path) -> None:
    m, v = plan.ensemble.m, plan.ensemble.v
    geo = chaos_mod.chaos2_coefficients(m, v)
    v2 = chaos_mod.v2_infinity(plan.density, m, geo)
    with open(out / "chaos_report.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["m", "v", "f0", "x", "y", "z", "V2_inf"])
        wr.writerow([m, v, geo.f0, geo.x, geo.y, geo.z, v2])
    _write_summary(
        out,
        [
            f"m={m}, v={v}: f0 = {geo.f0:.8g}",
            f"x = {geo.x:.8g}, y = {geo.y:.8g}, z = {geo.z:.8g}",
            f"V_2,inf = {v2:.8g} (positive: {v2 > 0})",
        ],
    )


def _run_clt(plan: _Plan, out: Path) -> None:
    record = experiments.run_clt(plan.experiment, plan.torus, wall_clock=plan.wall_clock)
    vtab = experiments.variance_scaling(record)
    experiments.save_record(record, out, vtab)
    m, n_max = record.m, record.n_list[-1]
    lines = [f"C_{m}(w) = {record.c_m:.8g}"]
    for n, z in zip(record.n_list, record.counts):
        lines.append(
            f"N={n:g}: mean Z/(2N)^m = {z.mean() / (2 * n) ** m:.6g} "
            f"(expected {record.c_m:.6g}), V_N = {vtab[n]['V_N']:.6g}, R={len(z)}"
        )
    if record.counts.shape[1] >= 100:
        scale = (2.0 * n_max) ** (m / 2.0)
        zeta = (record.counts[-1] - record.c_m * (2.0 * n_max) ** m) / scale
        ks = experiments.normality_test(zeta, float(np.var(zeta, ddof=1)))
        lines.append(f"KS at N={n_max:g}: stat={ks['statistic']:.4f}, p={ks['p_value']:.4g}")
    if "plateau_ratio" in vtab:
        lo, hi = vtab["plateau_ci"]
        lines.append(
            f"variance plateau ratio = {vtab['plateau_ratio']:.4f} "
            f"(paired bootstrap 95% CI [{lo:.4f}, {hi:.4f}])"
        )
    for flag in record.flags:
        lines.append(f"flag: {flag}")
    _write_summary(out, lines)


def _run_crosscheck(plan: _Plan, out: Path) -> None:
    table = experiments.estimator_crosscheck(
        plan.experiment, plan.torus, wall_clock=plan.wall_clock
    )
    (out / "crosscheck.json").write_text(json.dumps(table, indent=2, default=float))
    lines = [
        f"{k} = {v:.4g}" for k, v in table.items() if k.startswith("median_rel")
    ]
    failed = sum(row["failed_cells"] for row in table["rows"])
    lines.append(f"newton failed cells = {failed} over {len(table['rows'])} fields")
    _write_summary(out, lines)


_RUNNERS = {
    "spectrum": _run_spectrum,
    "field": _run_field,
    "count": _run_count,
    "randmat": _run_randmat,
    "chaos": _run_chaos,
    "clt": _run_clt,
    "crosscheck": _run_crosscheck,
}


def _plan_lines(plan: _Plan) -> list[str]:
    lines = [f"subcommand: {plan.subcommand}", f"seed: {plan.seed}"]
    lines += [f"{k}: {v}" for k, v in (("density", plan.density), ("ensemble", plan.ensemble))
              if v is not None]
    if plan.torus is None and plan.ensemble is None:
        lines.append(f"dimension: m = {plan.m}")
    if plan.torus is not None:
        spec = plan.torus.spec
        lines.append(
            f"grid: {spec.n_per_side}^{spec.m} points "
            f"({spec.n_per_side**spec.m:,} total per realization)"
        )
        lines.append(
            f"stored window: {spec.window}^{spec.m} nodes, "
            f"{spec.window_bytes:,} bytes of jet ({spec.window_bytes / 2**20:.1f} MiB)"
        )
        torus = plan.torus.record()
        lines.append(
            f"wrap guard: {torus['guard']:g} beyond the box, psi ratio "
            f"{torus['wrap_ratio']:.3g} (tolerance {torus['tolerance']:g})"
        )
    if plan.subcommand == "clt":
        lines.append(
            f"replicates: {plan.experiment.realizations}, each one field at "
            f"N = {spec.half_width:g} counted at every N"
        )
    elif plan.subcommand == "crosscheck":
        lines.append(f"fields: {plan.experiment.realizations} at N = {spec.half_width:g}")
    if plan.samples is not None:
        lines.append(f"MC samples: {plan.samples:,}")
    return lines


def dispatch(cfg: dict, args, config_path) -> int:
    """Run ``parse_config``'s mapping ``cfg`` with the CLI's ``args``
    (``dry_run``, ``force``); ``config_path`` is copied into the output.

    The whole plan is built, and checked against the budget, before any
    output is written, so a run fails exactly where its dry run does.
    """
    try:
        plan = _plan(cfg)
    except TypeError as exc:  # a list where a number belongs, or the reverse
        raise ConfigError(f"malformed config value: {exc}") from exc
    if args.dry_run:
        for line in _plan_lines(plan):
            print(line)
        return EXIT_OK
    out = _prepare_out(cfg, args)
    _stamp(plan, out, config_path)
    t0 = time.perf_counter()
    _RUNNERS[plan.subcommand](plan, out)
    # clt and crosscheck also stop between realizations once it is spent
    if plan.wall_clock is not None and time.perf_counter() - t0 > plan.wall_clock:
        raise BudgetError(f"run exceeded wall-clock budget {plan.wall_clock}s")
    return EXIT_OK


# --- plot data ---------------------------------------------------------------

PLOT_KINDS = ("zeta-hist", "variance-plateau", "semicircle", "rho-identity")


def emit_plot_data(record_dir, kind: str, out_path=None) -> Path:
    """Plot-ready CSV (x, y, overlay columns) from a finished run directory."""
    record_dir = Path(record_dir)
    if kind not in PLOT_KINDS:
        raise ValueError(f"unknown plot kind {kind!r}; choose from {PLOT_KINDS}")
    out_path = Path(out_path) if out_path else record_dir / f"plot_{kind}.csv"

    def read(name):  # the path of a file the kind reads; a missing one is a ConfigError
        if not (record_dir / name).is_file():
            raise ConfigError(f"{record_dir} has no {name}")
        return record_dir / name

    if kind == "zeta-hist":
        doc = json.loads(read("record.json").read_text())
        n_max = doc["n_list"][-1]
        rows = np.genfromtxt(read(f"samples_N{n_max:g}.csv"), delimiter=",", names=True)
        zeta = np.atleast_1d(rows["zeta_theoretical"])
        counts, edges = np.histogram(zeta, bins="auto", density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        sd = zeta.std(ddof=1)
        overlay = np.exp(-(centers**2) / (2 * sd**2)) / (sd * np.sqrt(2 * np.pi))
        _write_plot(out_path, ["zeta", "density", "normal_overlay"],
                    zip(centers, counts, overlay))
    elif kind == "variance-plateau":
        rows = np.genfromtxt(read("variance.csv"), delimiter=",", names=True)
        rows = np.atleast_1d(rows)
        _write_plot(out_path, ["N", "V_N", "ci_lo", "ci_hi"],
                    zip(rows["N"], rows["V_N"], rows["ci_lo"], rows["ci_hi"]))
    elif kind == "semicircle":
        doc = json.loads(read("randmat.json").read_text())
        eigs = np.loadtxt(read("eigenvalues.csv"), skiprows=1)
        # bulk scaling: entries at variance v give a spectrum of width ~ sqrt(m)
        scaled = eigs / np.sqrt(doc["m"])
        counts, edges = np.histogram(scaled, bins=60, density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        overlay = randmat.semicircle_density(doc["v"], centers)
        _write_plot(out_path, ["lam", "histogram_density", "semicircle"],
                    zip(centers, counts, overlay))
    else:  # rho-identity
        doc = json.loads(read("randmat.json").read_text())
        m, v = doc["m"], doc["v"]
        lam = np.linspace(-2.5 * np.sqrt(v * (m + 1)), 2.5 * np.sqrt(v * (m + 1)), 41)
        rho = randmat.rho_one_point(m + 1, v, lam)
        pred = randmat.fyodorov_absdet(m, v, lam)
        _write_plot(out_path, ["lam", "rho_m_plus_1", "E_absdet_shifted"],
                    zip(lam, rho, pred))
    return out_path


def _write_plot(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow([f"{float(x):.10g}" for x in row])


# --- entry point -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="critfield",
        description="Critical-point statistics of stationary Gaussian fields",
    )
    p.add_argument("--config", required=False, help="YAML run configuration")
    p.add_argument("--seed", type=int, default=None, help="master seed override")
    p.add_argument("--out", default=None, help="output directory override")
    p.add_argument("--force", action="store_true", help="overwrite existing output")
    p.add_argument("--dry-run", action="store_true", help="print the plan, write nothing")
    p.add_argument(
        "--plot-data",
        nargs=2,
        metavar=("RUN_DIR", "KIND"),
        default=None,
        help=f"emit plot CSV from a finished run; kinds: {', '.join(PLOT_KINDS)}",
    )
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.plot_data is not None:
            path = emit_plot_data(args.plot_data[0], args.plot_data[1], args.out)
            print(f"wrote {path}")
            return EXIT_OK
        if args.config is None:
            raise ConfigError("--config is required (or use --plot-data)")
        cfg = parse_config(args.config, overrides={"seed": args.seed, "out": args.out})
        return dispatch(cfg, args, args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except BrokenExecutor as exc:  # before RuntimeError, its base
        print(f"a worker process died: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (
        spectrum.DivergentIntegralError,
        field.NyquistError,
        FloatingPointError,
        np.linalg.LinAlgError,
        RuntimeError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
