"""Tests of the benchmark's own checks: each accepts the right reference and
rejects a wrong one.  Small configurations, a few seconds each.

    python3 -m pytest -q perfbench/test_checks.py
"""

import contextlib
import csv
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import critfield.cli as cli  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from critfield.spectrum import SpectralDensity, spectral_moments  # noqa: E402

REFS = wl.load_references()


def run_cli(tmp_path: Path, config: dict) -> Path:
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--config", str(path), "--out", str(out), "--force"]) == 0
    return out


def clt_counts(out: Path, levels) -> dict:
    return {
        n: [float(line.split(",")[0]) for line in
            (out / f"samples_N{n:g}.csv").read_text().splitlines()[1:]]
        for n in levels
    }


@pytest.mark.parametrize("density", [wl.GAUSSIAN, wl.BUMP])
@pytest.mark.parametrize("m", [2, 3])
def test_closed_form_moments_match_quadrature(density, m):
    mom = spectral_moments(SpectralDensity(family=density[0], params=density[1]), m)
    d, h = wl.moments_dh(*density, m)
    assert d == pytest.approx(mom.d, rel=1e-9)
    assert h == pytest.approx(mom.h, rel=1e-9)


def test_reference_sampler_reproduces_m2_closed_forms():
    closed, mc = REFS["S(2;1,1)"]["absdet"], REFS["S(2;1,1)"]["mc_check"]["absdet"]
    assert closed["mean"] == pytest.approx(4.0 / math.sqrt(3.0))
    assert abs(mc["mean"] - closed["mean"]) <= 4.42 * mc["stderr"]
    assert mc["sd"] == pytest.approx(closed["sd"], rel=2e-3)


def test_kac_rice_mean_rejects_scaled_constant(tmp_path):
    levels = (10.0,)
    out = run_cli(tmp_path, {
        "subcommand": "clt", "seed": 3,
        "density": {"family": "gaussian", "params": [1.0]},
        "experiment": {"m": 2, "n_list": list(levels), "realizations": 100,
                       "points_per_unit": 8, "e_absdet_s1": 2.3},
    })
    counts = clt_counts(out, levels)
    c2, se = wl.kac_rice_constant(REFS, *wl.GAUSSIAN, 2)
    assert c2 == pytest.approx(4.0 / math.sqrt(3.0) / (2.0 * math.pi))
    for scale, expect in ((1.0, True), (1.05, False), (1 / 1.05, False)):
        verdict = wl.Verdict()
        wl.check_kac_rice_mean(counts, 2, scale * c2, se, verdict)
        assert verdict.ok is expect, verdict.notes


def test_mc_mean_rejects_scaled_reference(tmp_path):
    out = run_cli(tmp_path, {
        "subcommand": "chaos", "seed": 5,
        "density": {"family": "gaussian", "params": [1.0]},
        "ensemble": {"m": 2, "v": 1.0, "samples": 2_000_000},
    })
    with open(out / "chaos_report.csv", newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    f0 = float(row["f0"])
    ref = wl.absdet_reference(REFS, 2)
    draws = wl.TheoryFloorWorkload._chaos_draws(2_000_000)
    for scale, expect in ((1.0, True), (1.05, False), (1 / 1.05, False)):
        verdict = wl.Verdict()
        wl.check_mc_mean("f0", f0, draws, scale, ref, verdict)
        assert verdict.ok is expect, verdict.notes


def test_quadrature_check():
    from critfield.randmat import expect_absdet_S

    ref = wl.absdet_reference(REFS, 3)
    value = expect_absdet_S(3, 1.0)
    for shift, expect in ((0.0, True), (0.005, False), (-0.005, False)):
        verdict = wl.Verdict()
        wl.check_quadrature(value + shift, ref, verdict)
        assert verdict.ok is expect, verdict.notes


def test_crosscheck_rejects_shifted_smoothed_count(tmp_path):
    out = run_cli(tmp_path, {
        "subcommand": "crosscheck", "seed": 7,
        "density": {"family": "gaussian", "params": [1.0]},
        "experiment": {"m": 2, "n_list": [5.0], "realizations": 4,
                       "points_per_unit": 64, "eps_list": [0.025]},
    })
    rows = json.loads((out / "crosscheck.json").read_text())["rows"]
    key = "kacrice_eps=0.025"
    for shift, expect in ((0.0, True), (1.0, False), (-1.0, False)):
        shifted = [dict(r, **{key: r[key] + shift}) for r in rows]
        verdict = wl.Verdict()
        wl.check_crosscheck(shifted, 0.025, verdict)
        assert verdict.ok is expect, verdict.notes


def _round(fingerprint, ok=True, exit=0):
    op = {"name": "op", "exit": exit, "ok": ok, "fingerprint": fingerprint,
          "notes": [], "wall_s": 1.0, "realizations": 1}
    return {"ops": [op]}


def test_tally_counts_failures_and_changed_outputs():
    assert run.tally([_round("a"), _round("a")])[:3] == (2, 0, True)
    assert run.tally([_round("a"), _round("b")])[:3] == (2, 1, False)
    assert run.tally([_round("a"), _round("a", ok=False)])[:3] == (2, 1, False)
    assert run.tally([_round("a"), _round("", exit=4)])[:3] == (2, 1, True)


def test_tally_compares_with_the_first_round_that_passed():
    assert run.tally([_round("", exit=4), _round("a"), _round("a")])[:3] == (3, 1, True)
    assert run.tally([_round("x", ok=False), _round("a"), _round("a")])[:3] == (3, 1, False)
    assert run.tally([_round("", exit=None), _round("a"), _round("b")])[:3] == (3, 2, False)


def test_a_dead_worker_fails_its_round_and_the_run_goes_on(tmp_path, monkeypatch):
    def worker(name, seed, round_dir, *, trace=False, setup_only=False):
        if setup_only:
            return {"setup_s": 0.5}
        raise run.BenchmarkError("worker exited -9")

    monkeypatch.setattr(run, "worker", worker)
    monkeypatch.setattr(run, "RUNS", tmp_path)
    result = run.run_workload("theory-floor", 1, 0.0, trace=False)
    ops = len(wl.WORKLOADS["theory-floor"].ops(1))
    assert (result["attempted"], result["failed"], result["correct"]) == (ops, ops, True)
    assert result["metrics"]["wall_s"]["value"] > 0.0
    assert result["metrics"]["setup_s"]["value"] == 0.5


def test_benchmark_json_names_the_metrics_run_prints():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "clt-m2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
