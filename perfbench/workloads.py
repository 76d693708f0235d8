"""The four benchmark workloads: the configs each round feeds the critfield
CLI, and the checks its outputs must pass.

Every config is derived from the workload seed alone.  The checks compare
with references computed apart from critfield (references.json, closed
forms, spectral moments of the densities in closed form) and with
properties the method must have.  They never compare with stored output of
an earlier critfield version, and never use an error bar critfield reports.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from scipy import stats

REFERENCES = Path(__file__).with_name("references.json")

# Two-sided false-alarm rate of every statistical check.  A check that fails
# on a correct program now and then would make the failed share differ from
# one set of runs to the next, so each check is sized to fail about once in
# 10^5 seeds.
ALPHA = 1e-5

# Criterion 12's bound on the Newton-vs-smoothed disagreement.
CROSSCHECK_BOUND = 0.02

GAUSSIAN = ("gaussian", (1.0,))
BUMP = ("compact-bump", (1.0, 4.0))


def load_references(path: Path = REFERENCES) -> dict:
    return json.loads(Path(path).read_text())


# --- spectral moments in closed form ----------------------------------------


def radial_moment(family: str, params, k: int) -> float:
    """I_k = integral_0^inf w(r) r^k dr for the two built-in families."""
    if family == "gaussian":
        (sigma,) = params
        return sigma ** (k + 1) * 2.0 ** ((k - 1) / 2.0) * math.gamma((k + 1) / 2.0)
    if family == "compact-bump":
        radius, power = params
        a, b = (k + 1) / 2.0, power + 1.0
        return radius ** (k + 1) * 0.5 * math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    raise ValueError(f"no closed form for {family!r}")


def moments_dh(family: str, params, m: int) -> tuple[float, float]:
    """(d_m, h_m): the gradient and Hessian variance parameters of w."""
    base = 2.0 / (2.0 ** (m / 2.0) * math.gamma(m / 2.0))
    d = base * radial_moment(family, params, m + 1) / m
    h = base * radial_moment(family, params, m + 3) / (m * (m + 2))
    return d, h


def absdet_reference(refs: dict, m: int, functional: str = "absdet") -> dict:
    """Mean, per-draw sd and stderr of a |det| functional over S(m; 1, 1)."""
    return refs[f"S({m};1,1)"][functional]


def kac_rice_constant(refs: dict, family: str, params, m: int) -> tuple[float, float]:
    """C_m = (h_m / (2 pi d_m))^(m/2) E|det A| and its standard error."""
    d, h = moments_dh(family, params, m)
    scale = (h / (2.0 * math.pi * d)) ** (m / 2.0)
    ref = absdet_reference(refs, m)
    return scale * ref["mean"], scale * ref["stderr"]


# --- checks -----------------------------------------------------------------


@dataclass
class Verdict:
    ok: bool = True
    notes: list[str] = field(default_factory=list)

    def require(self, ok: bool, note: str) -> None:
        self.notes.append(("ok: " if ok else "FAIL: ") + note)
        self.ok = self.ok and bool(ok)


def check_kac_rice_mean(
    counts: dict[float, list[float]], m: int, c_ref: float, c_ref_se: float,
    verdict: Verdict,
) -> None:
    """Mean count per unit volume at each level against C_m.

    var(Z_N) grows like the volume (2N)^m, so V = var(Z_N) / (2N)^m is pooled
    over the levels with sum(R - 1) degrees of freedom; the tolerance at a
    level is the Student-t quantile at ALPHA times sqrt(V / (R (2N)^m)),
    widened by the reference's own standard error.
    """
    ss, dof = 0.0, 0
    for n, z in counts.items():
        mean = sum(z) / len(z)
        ss += sum((x - mean) ** 2 for x in z) / (2.0 * n) ** m
        dof += len(z) - 1
    if dof < 1:
        verdict.require(False, "Kac-Rice mean: fewer than two replicates")
        return
    v_pooled = ss / dof
    t = stats.t.ppf(1.0 - ALPHA / 2.0, dof)
    for n, z in counts.items():
        vol = (2.0 * n) ** m
        mean = sum(z) / len(z) / vol
        se = math.sqrt(v_pooled / (len(z) * vol) + c_ref_se**2)
        verdict.require(
            abs(mean - c_ref) <= t * se,
            f"N={n:g}: mean Z/(2N)^{m} = {mean:.5f} vs C_{m} = {c_ref:.5f} "
            f"(tol {t * se:.5f}, R={len(z)}, dof {dof})",
        )


def check_mc_mean(
    label: str, value: float, draws: int, scale: float, ref: dict, verdict: Verdict
) -> None:
    """An MC average of `draws` independent matrices against scale * ref.

    The tolerance comes from the reference's per-draw sd, never from the
    stderr critfield reports.
    """
    z = stats.norm.isf(ALPHA / 2.0)
    se = scale * math.sqrt(ref["sd"] ** 2 / draws + ref["stderr"] ** 2)
    target = scale * ref["mean"]
    verdict.require(
        abs(value - target) <= z * se,
        f"{label} = {value:.6g} vs {target:.6g} (tol {z * se:.3g}, {draws} draws)",
    )


def check_quadrature(value: float, ref: dict, verdict: Verdict) -> None:
    """The deterministic quadrature E|det| against the MC reference, within
    the reference's error at the ALPHA quantile."""
    z = stats.norm.isf(ALPHA / 2.0)
    verdict.require(
        abs(value - ref["mean"]) <= z * ref["stderr"],
        f"quadrature E|det| = {value:.8g} vs reference {ref['mean']:.6f} "
        f"+- {ref['stderr']:.2g} (tol {z * ref['stderr']:.3g})",
    )


def check_crosscheck(rows: list[dict], eps: float, verdict: Verdict) -> float:
    """Smoothed vs Newton counts at the smallest eps, pooled over the fields.

    Returns the per-field median relative disagreement for the record; the
    gate is on the pooled disagreement |sum K - sum Z| / sum Z, which is far
    steadier on a handful of fields (see the README).
    """
    key = f"kacrice_eps={eps}"
    newton = sum(r["newton"] for r in rows)
    smoothed = sum(r[key] for r in rows)
    rel = sorted(abs(r[key] - r["newton"]) / max(r["newton"], 1) for r in rows)
    k = len(rel)
    median = 0.5 * (rel[(k - 1) // 2] + rel[k // 2])
    pooled = abs(smoothed - newton) / max(newton, 1)
    verdict.require(
        pooled <= CROSSCHECK_BOUND,
        f"eps={eps}: pooled |K - Z| / Z = {pooled:.4f} <= {CROSSCHECK_BOUND} "
        f"over {k} fields (per-field median {median:.4f})",
    )
    return median


# --- workloads --------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a round."""

    name: str
    config: dict


def _op_seed(seed: int, k: int) -> int:
    return 1000 * int(seed) + k


def _density_block(density) -> dict:
    family, params = density
    return {"family": family, "params": list(params)}


class Workload:
    name: str
    levels: tuple[float, ...] = ()

    def ops(self, seed: int) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, out: Path, refs: dict) -> tuple[Verdict, int, str]:
        """(verdict, realizations completed, fingerprint of the outputs) of an
        operation whose CLI call exited 0."""
        raise NotImplementedError


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


class CltWorkload(Workload):
    def __init__(self, name: str, m: int, levels, realizations: int):
        self.name, self.m, self.levels, self.realizations = name, m, tuple(levels), realizations

    def ops(self, seed):
        return [Op("clt", {
            "subcommand": "clt",
            "seed": _op_seed(seed, 0),
            "density": _density_block(GAUSSIAN),
            "experiment": {
                "m": self.m,
                "n_list": list(self.levels),
                "realizations": self.realizations,
                "points_per_unit": 8,
            },
        })]

    def check(self, op, out, refs):
        verdict = Verdict()
        record = json.loads((out / "record.json").read_text())
        failures = sum(record["failures"].values())
        verdict.require(failures == 0, f"record.json reports {failures} failures")
        counts = {}
        for n in self.levels:
            with open(out / f"samples_N{n:g}.csv", newline="") as fh:
                counts[n] = [float(row["Z"]) for row in csv.DictReader(fh)]
            verdict.require(
                len(counts[n]) == self.realizations,
                f"N={n:g}: {len(counts[n])} of {self.realizations} replicate rows",
            )
        c_ref, c_se = kac_rice_constant(refs, *GAUSSIAN, self.m)
        check_kac_rice_mean(counts, self.m, c_ref, c_se, verdict)
        done = sum(len(z) for z in counts.values())
        return verdict, done, _digest({str(n): z for n, z in counts.items()})


class CrosscheckWorkload(Workload):
    name = "crosscheck-m2"
    levels = (5.0,)
    eps = (0.1, 0.05, 0.025)

    def __init__(self, realizations: int):
        self.realizations = realizations

    def ops(self, seed):
        return [Op("crosscheck", {
            "subcommand": "crosscheck",
            "seed": _op_seed(seed, 0),
            "density": _density_block(GAUSSIAN),
            "experiment": {
                "m": 2,
                "n_list": list(self.levels),
                "realizations": self.realizations,
                "points_per_unit": 64,
                "eps_list": list(self.eps),
            },
        })]

    def check(self, op, out, refs):
        verdict = Verdict()
        rows = json.loads((out / "crosscheck.json").read_text())["rows"]
        verdict.require(
            len(rows) == self.realizations,
            f"{len(rows)} of {self.realizations} fields",
        )
        check_crosscheck(rows, min(self.eps), verdict)
        return verdict, len(rows), _digest(rows)


class TheoryFloorWorkload(Workload):
    """chaos at m = 2, 3 for two densities (criterion 9's inputs), then
    randmat over S(3; 1, 1) with the quadrature E|det|."""

    name = "theory-floor"
    chaos_samples = 2_000_000
    randmat_samples = 500_000

    def ops(self, seed):
        ops = []
        for density in (GAUSSIAN, BUMP):
            for m in (2, 3):
                _, h = moments_dh(*density, m)
                ops.append(Op(f"chaos-{density[0]}-m{m}", {
                    "subcommand": "chaos",
                    "seed": _op_seed(seed, len(ops)),
                    "density": _density_block(density),
                    "ensemble": {"m": m, "v": h, "samples": self.chaos_samples},
                }))
        ops.append(Op("randmat-m3", {
            "subcommand": "randmat",
            "seed": _op_seed(seed, len(ops)),
            "ensemble": {"m": 3, "u": 1.0, "v": 1.0, "samples": self.randmat_samples},
        }))
        return ops

    # chaos2_coefficients splits its budget evenly over its three MC
    # averages, max(budget // 3, 10_000) samples each, and expect_functional_mc
    # averages each draw with its negative, so n samples are n // 2
    # independent draws.  The chaos report does not give the count, so this
    # mirrors critfield.chaos.chaos2_coefficients and must follow a change
    # there; randmat.json reports it as `n`.
    @staticmethod
    def _chaos_draws(budget: int) -> int:
        return max(budget // 3, 10_000) // 2

    def check(self, op, out, refs):
        verdict = Verdict()
        if op.config["subcommand"] == "chaos":
            return self._check_chaos(op, out, refs, verdict)
        return self._check_randmat(op, out, refs, verdict)

    def _check_chaos(self, op, out, refs, verdict):
        ens = op.config["ensemble"]
        m, v = ens["m"], ens["v"]
        with open(out / "chaos_report.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        v2 = float(row["V2_inf"])
        verdict.require(v2 > 0.0, f"V_2,inf = {v2:.6g} > 0")
        draws = self._chaos_draws(ens["samples"])
        check_mc_mean(
            f"f0 over S({m}; {v:.4g}, {v:.4g})", float(row["f0"]), draws,
            v ** (m / 2.0), absdet_reference(refs, m), verdict,
        )
        fingerprint = _digest({k: row[k] for k in ("f0", "x", "y", "z", "V2_inf")})
        return verdict, 3 * draws, fingerprint

    def _check_randmat(self, op, out, refs, verdict):
        ens = op.config["ensemble"]
        m = ens["m"]
        results = json.loads((out / "randmat.json").read_text())["results"]
        for name in ("absdet", "p_absdet", "q_absdet"):
            check_mc_mean(
                f"E[{name}] over S({m}; 1, 1)", results[name]["mean"], results[name]["n"],
                1.0, absdet_reference(refs, m, name), verdict,
            )
        summary = (out / "summary.txt").read_text()
        found = re.search(r"quadrature E\[absdet\] = (\S+)", summary)
        verdict.require(found is not None, "summary reports the quadrature E|det|")
        if found:
            check_quadrature(float(found.group(1)), absdet_reference(refs, m), verdict)
        means = {k: r["mean"] for k, r in results.items()}
        draws = sum(r["n"] for r in results.values())
        return verdict, draws, _digest([means, found and found.group(1)])


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        CltWorkload("clt-m2", m=2, levels=(5.0, 10.0, 20.0), realizations=10),
        CltWorkload("clt-m3", m=3, levels=(3.0, 5.0), realizations=4),
        CrosscheckWorkload(realizations=10),
        TheoryFloorWorkload(),
    )
}
