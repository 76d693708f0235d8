"""Batch front door: subcommand dispatch, persistence, plot-data emission.

Exit codes: 0 success, 2 configuration error, 3 budget exceeded,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from . import chaos as chaos_mod
from . import critpoints, experiments, field, randmat, spectrum
from .config import BudgetError, ConfigError, RunConfig, parse_config

__all__ = ["main", "dispatch", "emit_plot_data"]

EXIT_OK, EXIT_CONFIG, EXIT_BUDGET, EXIT_NUMERICAL = 0, 2, 3, 4

_OUT_ENV = "CRITFIELD_OUT"


# default ensemble.samples of the subcommands that draw matrices
_MC_SAMPLES = {"randmat": 500_000}


def _mc_samples(cfg: RunConfig) -> int:
    return int(cfg.ensemble.get("samples", _MC_SAMPLES.get(cfg.subcommand, 0)))


# subcommands that synthesize fields on the torus of their experiment block
_GRID_SUBCOMMANDS = ("field", "count", "clt", "crosscheck")

# subcommands that run an experiments.ExperimentConfig built from that block
_EXPERIMENT_SUBCOMMANDS = ("clt", "crosscheck")

# density params when the block gives none
_DEFAULT_PARAMS = {"gaussian": (1.0,)}


def _density(cfg: RunConfig) -> spectrum.SpectralDensity:
    """The one density builder of every subcommand."""
    block = cfg.density
    family = block.get("family", "gaussian")
    table = None
    if "table" in block:
        r, v = zip(*block["table"])
        table = tuple(r), tuple(v)
    params = tuple(block.get("params", _DEFAULT_PARAMS.get(family, ())))
    return spectrum.SpectralDensity(family=family, params=params, table=table)


def _grid_spec(cfg: RunConfig) -> tuple[field.GridSpec, float]:
    """Grid of the largest half-width the subcommand runs (crosscheck runs
    only the smallest), with the wrap guard the density needs, and the
    achieved psi ratio; raises ValueError beyond the grid budget."""
    exp = cfg.experiment
    m = int(exp.get("m", 2))
    ppu = int(exp.get("points_per_unit", 8))
    n_list = exp.get("n_list", [5.0])
    guard, wrap_ratio = field.wrap_guard(_density(cfg), m, ppu)
    spec = field.GridSpec(
        m=m,
        half_width=float((min if cfg.subcommand == "crosscheck" else max)(n_list)),
        points_per_unit=ppu,
        guard=guard,
    )
    return spec, wrap_ratio


def _check_budget(cfg: RunConfig, spec: field.GridSpec | None) -> None:
    budget = cfg.budget
    if "grid_points" in budget and spec is not None:
        need = spec.n_per_side**spec.m
        if need > budget["grid_points"]:
            raise BudgetError(f"grid needs {need} points > budget {budget['grid_points']}")
    if "samples" in budget and cfg.subcommand in _MC_SAMPLES:
        asked = _mc_samples(cfg)
        if asked > budget["samples"]:
            raise BudgetError(f"MC asks {asked} samples > budget {budget['samples']}")


def _prepare_out(cfg: RunConfig, args) -> Path:
    out = args.out or cfg.out or os.environ.get(_OUT_ENV)
    if out is None:
        raise ConfigError("no output directory: set 'out', --out, or $" + _OUT_ENV)
    out = Path(out)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise ConfigError(f"output dir {out} is not empty (use --force to overwrite)")
    if out.exists() and args.force:
        shutil.rmtree(out)
    out.mkdir(parents=True)
    return out


def _stamp(cfg: RunConfig, out: Path, config_path) -> None:
    try:
        version = metadata.version("critfield")
    except metadata.PackageNotFoundError:
        version = "unknown"
    stamp = {"version": version, "seed": cfg.seed, "subcommand": cfg.subcommand}
    (out / "provenance.json").write_text(json.dumps(stamp, indent=2))
    shutil.copyfile(config_path, out / "config.yaml")


def _write_summary(out: Path, lines: list[str]) -> None:
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)


def _run_spectrum(cfg: RunConfig, out: Path, grid) -> None:
    w = _density(cfg)
    m = int(cfg.experiment.get("m", 2)) if cfg.experiment else 2
    mom = spectrum.spectral_moments(w, m)
    nd = spectrum.nondegeneracy_ratio(mom)
    doc = {
        "m": m,
        "s": mom.s,
        "d": mom.d,
        "h": mom.h,
        "i_table": {str(k): v for k, v in mom.i_table.items()},
        **nd,
    }
    (out / "spectrum.json").write_text(json.dumps(doc, indent=2))
    _write_summary(
        out,
        [
            f"s_{m} = {mom.s:.10g}, d_{m} = {mom.d:.10g}, h_{m} = {mom.h:.10g}",
            f"nondegeneracy ratio = {nd['ratio']:.6g} (nondegenerate: {nd['nondegenerate']})",
        ],
    )


def _run_field(cfg: RunConfig, out: Path, grid) -> dict:
    w = _density(cfg)
    spec, wrap_ratio = grid
    fr = field.synthesize(w, spec, seed=cfg.seed)
    field.dump_realization(fr, out / "realization.bin")
    stats = field.jet_statistics([fr])
    (out / "jet_statistics.json").write_text(
        json.dumps({k: v for k, v in stats.items()}, indent=2, default=float)
    )
    _write_summary(
        out,
        [
            f"synthesized m={spec.m} jet {fr.grid.shape}, seed={cfg.seed}",
            f"spectral cutoff radius = {fr.spectral_cutoff:.6g}",
            f"var(X) sample = {float(np.var(fr.grid[0])):.6g}",
        ],
    )
    return field.torus_record([spec], wrap_ratio)


def _run_count(cfg: RunConfig, out: Path, grid) -> dict:
    w = _density(cfg)
    spec, wrap_ratio = grid
    n_half = spec.half_width
    fr = field.synthesize(w, spec, seed=cfg.seed)
    box = ((-n_half,) * spec.m, (n_half,) * spec.m)
    cps = critpoints.count_newton(fr, box)
    critpoints.write_csv(cps, out / "critical_points.csv")
    mom = spectrum.spectral_moments(w, spec.m)
    e_absdet = cfg.experiment.get("e_absdet_s1")
    if e_absdet is None:
        e_absdet = randmat.expect_absdet_S(spec.m, 1.0)
    expected = critpoints.expected_count(
        mom, spec.m, (2.0 * n_half) ** spec.m, float(e_absdet)
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
    return field.torus_record([spec], wrap_ratio)


def _run_randmat(cfg: RunConfig, out: Path, grid) -> None:
    ens = cfg.ensemble
    m, u, v = int(ens["m"]), float(ens.get("u", ens["v"])), float(ens["v"])
    n = _mc_samples(cfg)
    params = randmat.EnsembleParams(m=m, u=u, v=v)
    results = {
        name: randmat.expect_functional_mc(params, name, n, seed=cfg.seed)
        for name in ("absdet", "p_absdet", "q_absdet")
    }
    rng = np.random.default_rng(cfg.seed + 1)
    eigs = np.linalg.eigvalsh(randmat.sample_matrices(params, 400, rng)).ravel()
    np.savetxt(out / "eigenvalues.csv", eigs, header="eigenvalue", comments="")
    doc = {
        "m": m,
        "u": u,
        "v": v,
        "samples": n,
        "results": results,
    }
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


def _run_chaos(cfg: RunConfig, out: Path, grid) -> None:
    ens = cfg.ensemble
    m, v = int(ens["m"]), float(ens["v"])
    geo = chaos_mod.chaos2_coefficients(m, v)
    w = _density(cfg)
    v2 = chaos_mod.v2_infinity(w, m, geo)
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


def _experiment_config(cfg: RunConfig) -> experiments.ExperimentConfig:
    exp = cfg.experiment
    missing = [key for key in ("n_list", "realizations") if key not in exp]
    if missing:
        raise ConfigError(f"experiment block needs {' and '.join(missing)}")
    w = _density(cfg)
    kwargs = dict(
        density_family=w.family,
        density_params=w.params,
        density_table=w.table,
        m=int(exp.get("m", 2)),
        n_list=tuple(float(x) for x in exp["n_list"]),
        realizations=int(exp["realizations"]),
        points_per_unit=int(exp.get("points_per_unit", 8)),
        master_seed=cfg.seed,
    )
    if "eps_list" in exp:
        kwargs["eps_list"] = tuple(float(x) for x in exp["eps_list"])
    if exp.get("e_absdet_s1") is not None:
        kwargs["e_absdet_s1"] = float(exp["e_absdet_s1"])
    return experiments.ExperimentConfig(**kwargs)


def _run_clt(cfg: RunConfig, out: Path, grid) -> dict:
    econf = _experiment_config(cfg)
    spec, wrap_ratio = grid
    record = experiments.run_clt(
        econf, wrap=(spec.guard, wrap_ratio), wall_clock=cfg.budget.get("wall_clock")
    )
    experiments.save_record(record, out)
    vtab = experiments.variance_scaling(record)
    n_max = record.n_list[-1]
    lines = [f"C_{record.m}(w) = {record.c_m:.8g}"]
    for n in record.n_list:
        s = record.summary()[n]
        lines.append(
            f"N={n:g}: mean Z/(2N)^m = {s['mean'] / (2 * n) ** record.m:.6g} "
            f"(expected {record.c_m:.6g}), V_N = {vtab[n]['V_N']:.6g}, R={s['R']}"
        )
    if len(record.z_samples[n_max]) >= 100:
        zeta = record.zeta_theoretical[n_max]
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
    return record.torus


def _run_crosscheck(cfg: RunConfig, out: Path, grid) -> dict:
    econf = _experiment_config(cfg)
    spec, wrap_ratio = grid
    table = experiments.estimator_crosscheck(
        econf, wrap=(spec.guard, wrap_ratio), wall_clock=cfg.budget.get("wall_clock")
    )
    (out / "crosscheck.json").write_text(json.dumps(table, indent=2, default=float))
    lines = [
        f"{k} = {v:.4g}" for k, v in table.items() if k.startswith("median_rel")
    ]
    failed = sum(row["failed_cells"] for row in table["rows"])
    lines.append(f"newton failed cells = {failed} over {len(table['rows'])} fields")
    _write_summary(out, lines)
    return table["torus"]


_RUNNERS = {
    "spectrum": _run_spectrum,
    "field": _run_field,
    "count": _run_count,
    "randmat": _run_randmat,
    "chaos": _run_chaos,
    "clt": _run_clt,
    "crosscheck": _run_crosscheck,
}


def _dry_run_plan(cfg: RunConfig, grid, econf) -> list[str]:
    lines = [f"subcommand: {cfg.subcommand}", f"seed: {cfg.seed}"]
    if grid is not None:
        spec, wrap_ratio = grid
        lines.append(
            f"grid: {spec.n_per_side}^{spec.m} points "
            f"({spec.n_per_side**spec.m:,} total per realization)"
        )
        lines.append(
            f"stored window: {spec.window}^{spec.m} nodes, "
            f"{spec.window_bytes:,} bytes of jet ({spec.window_bytes / 2**20:.1f} MiB)"
        )
        torus = field.torus_record([spec], wrap_ratio)
        lines.append(
            f"wrap guard: {torus['guard']:g} beyond the box, psi ratio "
            f"{torus['wrap_ratio']:.3g} (tolerance {torus['tolerance']:g})"
        )
        if cfg.subcommand == "clt":
            lines.append(
                f"replicates: {econf.realizations}, each one field at "
                f"N = {spec.half_width:g} counted at every N"
            )
        elif cfg.subcommand == "crosscheck":
            lines.append(f"fields: {econf.realizations} at N = {spec.half_width:g}")
    if cfg.subcommand in _MC_SAMPLES:
        lines.append(f"MC samples: {_mc_samples(cfg):,}")
    return lines


def dispatch(cfg: RunConfig, args, config_path) -> int:
    # the torus is sized (and checked against the grid budget) before any
    # output is written, so a run fails exactly where its dry run does
    grid = _grid_spec(cfg) if cfg.subcommand in _GRID_SUBCOMMANDS else None
    _check_budget(cfg, None if grid is None else grid[0])
    # the experiment block is built here too, so a dry run refuses what the
    # run would
    econf = _experiment_config(cfg) if cfg.subcommand in _EXPERIMENT_SUBCOMMANDS else None
    if args.dry_run:
        for line in _dry_run_plan(cfg, grid, econf):
            print(line)
        return EXIT_OK
    out = _prepare_out(cfg, args)
    _stamp(cfg, out, config_path)
    t0 = time.perf_counter()
    wall_budget = cfg.budget.get("wall_clock")
    torus = _RUNNERS[cfg.subcommand](cfg, out, grid)
    if torus is not None:
        stamp = json.loads((out / "provenance.json").read_text())
        stamp["torus"] = torus
        (out / "provenance.json").write_text(json.dumps(stamp, indent=2))
    # clt and crosscheck also stop between realizations once it is spent
    if wall_budget is not None and time.perf_counter() - t0 > wall_budget:
        raise BudgetError(f"run exceeded wall-clock budget {wall_budget}s")
    return EXIT_OK


# --- plot data ---------------------------------------------------------------

PLOT_KINDS = ("zeta-hist", "variance-plateau", "semicircle", "rho-identity")


def emit_plot_data(record_dir, kind: str, out_path=None) -> Path:
    """Plot-ready CSV (x, y, overlay columns) from a finished run directory."""
    record_dir = Path(record_dir)
    if kind not in PLOT_KINDS:
        raise ValueError(f"unknown plot kind {kind!r}; choose from {PLOT_KINDS}")
    out_path = Path(out_path) if out_path else record_dir / f"plot_{kind}.csv"

    if kind == "zeta-hist":
        doc = json.loads((record_dir / "record.json").read_text())
        n_max = doc["n_list"][-1]
        rows = np.genfromtxt(
            record_dir / f"samples_N{n_max:g}.csv", delimiter=",", names=True
        )
        zeta = np.atleast_1d(rows["zeta_theoretical"])
        counts, edges = np.histogram(zeta, bins="auto", density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        sd = zeta.std(ddof=1)
        overlay = np.exp(-(centers**2) / (2 * sd**2)) / (sd * np.sqrt(2 * np.pi))
        _write_plot(out_path, ["zeta", "density", "normal_overlay"],
                    zip(centers, counts, overlay))
    elif kind == "variance-plateau":
        rows = np.genfromtxt(record_dir / "variance.csv", delimiter=",", names=True)
        rows = np.atleast_1d(rows)
        _write_plot(out_path, ["N", "V_N", "ci_lo", "ci_hi"],
                    zip(rows["N"], rows["V_N"], rows["ci_lo"], rows["ci_hi"]))
    elif kind == "semicircle":
        doc = json.loads((record_dir / "randmat.json").read_text())
        eigs = np.loadtxt(record_dir / "eigenvalues.csv", skiprows=1)
        # bulk scaling: entries at variance v give a spectrum of width ~ sqrt(m)
        scaled = eigs / np.sqrt(doc["m"])
        counts, edges = np.histogram(scaled, bins=60, density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        overlay = randmat.semicircle_density(doc["v"], centers)
        _write_plot(out_path, ["lam", "histogram_density", "semicircle"],
                    zip(centers, counts, overlay))
    else:  # rho-identity
        doc = json.loads((record_dir / "randmat.json").read_text())
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
