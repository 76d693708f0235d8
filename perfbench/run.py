"""critfield benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload clt-m2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  A run repeats whole rounds of the
workload, each round in a fresh worker process (worker.py) with BLAS and
OpenMP capped at one thread, until --seconds have passed.  Every round feeds
the same configs to critfield's CLI and checks its outputs; an operation
(one CLI invocation) fails when it exits non-zero, fails a check, or gives
other outputs than in the first round in which it passed.  A round whose
worker dies (a crash, a kill, the time-out) counts all its operations as
failed, and the run goes on.

With --trace 0 the last line of output holds the end-to-end metrics; with
--trace 1 untraced and traced rounds alternate, the per-layer metrics come
from the traced ones, and the spans go to perfbench/runs/<workload>/trace.json.
See README.md for what each metric measures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
sys.path.insert(0, str(HERE))

from spans import self_times  # noqa: E402
from workloads import REFERENCES, WORKLOADS  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = 1  # the hot paths (pocketfft, batched small LAPACK) use one thread
MIN_SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150
LEVELS = 3  # per-level metrics L0 (smallest N) .. L2

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "realizations_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    pass


def worker(workload: str, seed: int, round_dir: Path, *, trace=False, setup_only=False):
    env = dict(os.environ, **{var: str(THREADS) for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--round-dir", str(round_dir)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads((round_dir / "result.json").read_text())


def failed_round(name: str, seed: int, elapsed: float, error: str) -> dict:
    """A round whose worker died (a crash, a kill for memory, the timeout):
    every operation of the round is attempted and failed, and the round's
    wall time is how long the worker ran."""
    ops = WORKLOADS[name].ops(seed)
    return {"failed": True, "ops": [
        {"name": op.name, "exit": None, "ok": False, "fingerprint": "",
         "notes": [], "error": error, "wall_s": elapsed / len(ops), "realizations": 0}
        for op in ops
    ], "spans": []}


def run_rounds(name: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Whole rounds until `seconds` have passed; with trace, untraced and
    traced rounds alternate and the run ends after a traced one."""
    base = RUNS / name
    shutil.rmtree(base, ignore_errors=True)
    rounds = []
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        t = time.perf_counter()
        try:
            res = worker(name, seed, base / f"round{len(rounds)}", trace=traced)
        except (BenchmarkError, subprocess.TimeoutExpired) as exc:
            res = failed_round(name, seed, time.perf_counter() - t, str(exc)[-4000:])
        res["traced"] = traced
        rounds.append(res)
        if time.perf_counter() - start >= seconds and not (trace and not traced):
            return rounds


def tally(rounds: list[dict]) -> tuple[int, int, bool, list[str]]:
    """attempted, failed, correct, and notes of the first failure."""
    attempted = failed = 0
    correct, notes = True, []
    # Each operation's outputs are compared with those of the first round in
    # which it exited 0 and passed its checks.
    first: dict[int, str] = {}
    for r, res in enumerate(rounds):
        for k, op in enumerate(res["ops"]):
            attempted += 1
            passed = op["exit"] == 0 and op["ok"]
            if passed:
                first.setdefault(k, op["fingerprint"])
            same = op["fingerprint"] == first.get(k, op["fingerprint"])
            if passed and same:
                continue
            failed += 1
            if op["exit"] == 0:  # the program ran but its outputs are wrong
                correct = False
            if not notes:
                notes = [f"round {r}, {op['name']}: exit {op['exit']}"
                         + ("" if same else ", outputs differ from an earlier round")]
                notes += op["notes"] + ([op["error"]] if "error" in op else [])
    return attempted, failed, correct, notes


def round_wall(res: dict) -> float:
    return sum(op["wall_s"] for op in res["ops"])


def end_to_end(name: str, seed: int, rounds: list[dict]) -> dict:
    """Medians over the rounds whose worker completed; if none did, the wall
    time is that of the failed rounds and the memory that of the largest
    worker this process has waited for."""
    whole = [res for res in rounds if not res.get("failed")] or rounds
    setups = [res["setup_s"] for res in whole if "setup_s" in res]
    probe_dir = RUNS / name / "setup"
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(worker(name, seed, probe_dir / str(len(setups)),
                             setup_only=True)["setup_s"])
    done = [res for res in whole if sum(op["realizations"] for op in res["ops"])]
    rss = [res["rss_mb"] for res in whole if "rss_mb" in res] or [
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(round_wall(res) for res in whole),
        "realizations_per_s": statistics.median(
            sum(op["realizations"] for op in res["ops"]) / round_wall(res) for res in done
        ) if done else 0.0,
        "peak_rss_mb": statistics.median(rss),
    }
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


# --- per-layer metrics --------------------------------------------------------


def _level_names():
    per_level = [
        ("field.synthesize.p50_ms", "ms"),
        ("field.synthesize.grid_points", "count"),
        ("field.realization_bytes", "B"),
        ("field.prefilter.p50_ms", "ms"),
        ("critpoints.count_newton.p50_ms", "ms"),
        ("critpoints.count_newton.points", "count"),
        ("critpoints.count_newton.failed_cells", "count"),
        ("critpoints.count_newton.degenerate", "count"),
        ("experiments.realization.p50_ms", "ms"),
    ]
    return [(f"{n}.L{k}", u) for n, u in per_level for k in range(LEVELS)]


PER_LAYER_UNITS = dict(
    _level_names()
    + [
        ("critpoints.count_kacrice_smoothed.p50_ms", "ms"),
        ("randmat.expect_functional_mc.s", "s"),
        ("randmat.expect_functional_mc.samples_per_s", "1/s"),
        ("randmat.expect_absdet_S.s", "s"),
        ("chaos.chaos2_coefficients.s", "s"),
        ("chaos.v2_infinity.s", "s"),
        ("spectrum.spectral_moments.s", "s"),
        ("experiments.variance_scaling.s", "s"),
        ("experiments.normality_test.s", "s"),
        ("experiments.save_record.s", "s"),
        ("cli.main.self_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


def _summary(samples: list[float]) -> dict:
    """Median, and once there are 40 samples the highest percentile that has
    at least ten samples beyond it."""
    out = {"n": len(samples), "p50": statistics.median(samples) if samples else 0.0}
    if len(samples) >= 40:
        q = math.floor(100.0 * (1.0 - 10.0 / len(samples)))
        out[f"p{q}"] = statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
    return out


def per_layer(name: str, rounds: list[dict]) -> tuple[dict, dict]:
    """(metrics, distributions) from the traced rounds' spans."""
    whole = [res for res in rounds if not res.get("failed")]
    traced = [res for res in whole if res["traced"]]
    untraced = [res for res in whole if not res["traced"]]
    levels = {float(n): k for k, n in enumerate(WORKLOADS[name].levels)}

    def spans(span_name, level=None):
        for res in traced:
            for s in res["spans"]:
                if s["name"] == span_name and (level is None or levels.get(s["level"]) == level):
                    yield res, s

    def round_median(span_name, value, level=None):
        per_round = {id(res): 0.0 for res in traced}
        for res, s in spans(span_name, level):
            per_round[id(res)] += value(s)
        return statistics.median(per_round.values()) if per_round else 0.0

    def dur(s):
        return s["end"] - s["start"]

    dist = {}
    metrics = {}
    for k in range(LEVELS):
        cold = [dur(s) for _, s in spans("critpoints.count_newton", k)]
        warm = [dur(s) for _, s in spans("critpoints.count_newton.warm", k)]
        samples = {
            "field.synthesize.p50_ms": [1e3 * dur(s) for _, s in spans("field.synthesize", k)],
            "field.prefilter.p50_ms": [1e3 * (c - w) for c, w in zip(cold, warm)],
            "critpoints.count_newton.p50_ms": [1e3 * w for w in warm],
            "experiments.realization.p50_ms": [
                1e3 * s["realization_s"] for _, s in spans("critpoints.count_newton", k)
                if "realization_s" in s
            ],
        }
        for metric, xs in samples.items():
            dist[f"{metric}.L{k}"] = _summary(xs)
            metrics[f"{metric}.L{k}"] = dist[f"{metric}.L{k}"]["p50"]
        grid = [s["grid_points"] for _, s in spans("field.synthesize", k)]
        metrics[f"field.synthesize.grid_points.L{k}"] = grid[0] if grid else 0
        held = [s["bytes"] for _, s in spans("critpoints.count_newton", k)]
        metrics[f"field.realization_bytes.L{k}"] = statistics.median(held) if held else 0
        for attr in ("points", "failed_cells", "degenerate"):
            metrics[f"critpoints.count_newton.{attr}.L{k}"] = round_median(
                "critpoints.count_newton", lambda s: s[attr], k)

    smoothed = [1e3 * dur(s) for _, s in spans("critpoints.count_kacrice_smoothed")]
    dist["critpoints.count_kacrice_smoothed.p50_ms"] = _summary(smoothed)
    metrics["critpoints.count_kacrice_smoothed.p50_ms"] = dist[
        "critpoints.count_kacrice_smoothed.p50_ms"]["p50"]
    for span_name in ("randmat.expect_functional_mc", "randmat.expect_absdet_S",
                      "chaos.chaos2_coefficients", "chaos.v2_infinity",
                      "spectrum.spectral_moments", "experiments.variance_scaling",
                      "experiments.normality_test", "experiments.save_record"):
        metrics[f"{span_name}.s"] = round_median(span_name, dur)
    mc = [s for _, s in spans("randmat.expect_functional_mc")]
    mc_time = sum(dur(s) for s in mc)
    metrics["randmat.expect_functional_mc.samples_per_s"] = (
        sum(s["samples"] for s in mc) / mc_time if mc_time else 0.0
    )
    main_self = []
    for res in traced:
        selfs = self_times(res["spans"])
        main_self.append(sum(t for s, t in zip(res["spans"], selfs) if s["name"] == "cli.main"))
    metrics["cli.main.self_s"] = statistics.median(main_self) if main_self else 0.0
    # The warm count_newton probes are extra work of the traced run, not a
    # cost of tracing, so their time is taken out of the traced rounds.
    metrics["trace.overhead_s"] = (
        statistics.median(
            round_wall(res) - sum(dur(s) for s in res["spans"]
                                  if s["name"] == "critpoints.count_newton.warm")
            for res in traced)
        - statistics.median(round_wall(res) for res in untraced)
    ) if traced and untraced else 0.0
    assert set(metrics) == set(PER_LAYER_UNITS)
    return {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}, dist


def write_trace(name: str, seed: int, rounds: list[dict], metrics: dict, dist: dict) -> Path:
    spans = [dict(s, round=r) for r, res in enumerate(rounds) for s in res["spans"]]
    path = RUNS / name / "trace.json"
    path.write_text(json.dumps({
        "workload": name,
        "seed": seed,
        "rounds": len(rounds),
        "per_layer": metrics,
        "distributions": dist,
        "spans": spans,
    }, indent=1))
    return path


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    rounds = run_rounds(name, seed, seconds, trace)
    attempted, failed, correct, notes = tally(rounds)
    if notes:
        print("\n".join(f"  {line}" for line in notes), file=sys.stderr)
    for op in rounds[0]["ops"]:
        print("\n".join(f"  {op['name']}: {line}" for line in op["notes"]))
    if trace:
        metrics, dist = per_layer(name, rounds)
        print(f"  spans: {write_trace(name, seed, rounds, metrics, dist)}")
    else:
        metrics = end_to_end(name, seed, rounds)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="critfield benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "critfield" / "__init__.py").is_file():
        print(f"critfield sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not REFERENCES.is_file():
        print(f"missing {REFERENCES}; run perfbench/references.py", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        print(f"{name}:")
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (BenchmarkError, subprocess.TimeoutExpired) as exc:
            # only a set-up-only worker gets here: critfield does not start
            print(f"benchmark failed on {name}: {exc}", file=sys.stderr)
            status = 1
            continue
        print(json.dumps(result), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
