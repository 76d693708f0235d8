import collections
import contextlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from critfield.cli import (
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    PLOT_KINDS,
    emit_plot_data,
    main,
)
from critfield.config import ConfigError, parse_config
from critfield import cli, experiments, field, spectrum
from critfield.field import load_realization


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BASE_CLT = """
subcommand: clt
seed: 42
density:
  family: gaussian
  params: [1.0]
experiment:
  m: 2
  n_list: [3.0]
  realizations: 4
  points_per_unit: 8
  e_absdet_s1: 2.3094
"""

SPECTRUM = "subcommand: spectrum\nseed: 1\ndensity:\n  family: gaussian\n  params: [1.0]\n"

CHAOS = (
    "subcommand: chaos\nseed: 1\n"
    "density:\n  family: gaussian\n  params: [1.0]\n"
    "ensemble:\n  m: 2\n  v: 1.0\n"
)

BASE_RANDMAT = """
subcommand: randmat
seed: 3
ensemble:
  m: 2
  u: 1.0
  v: 1.0
  samples: 50000
"""


class TestParseConfig:
    def test_valid(self, tmp_path):
        cfg = parse_config(_write(tmp_path, "a.yaml", BASE_CLT))
        assert cfg["subcommand"] == "clt"
        assert cfg["seed"] == 42
        assert cfg["experiment"]["realizations"] == 4

    def test_missing_seed(self, tmp_path):
        text = BASE_CLT.replace("seed: 42\n", "")
        with pytest.raises(ConfigError, match="seed"):
            parse_config(_write(tmp_path, "a.yaml", text))

    def test_typo_gets_suggestion(self, tmp_path):
        text = BASE_CLT.replace("realizations:", "realisations:")
        with pytest.raises(ConfigError, match="did you mean 'realizations'"):
            parse_config(_write(tmp_path, "a.yaml", text))

    def test_problems_are_aggregated(self, tmp_path):
        text = BASE_CLT.replace("seed: 42", "sede: 42").replace(
            "subcommand: clt", "subcommand: cltt"
        )
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, "a.yaml", text))
        msg = str(err.value)
        assert "sede" in msg and "cltt" in msg and "seed" in msg

    def test_missing_required_block(self, tmp_path):
        text = "subcommand: randmat\nseed: 1\n"
        with pytest.raises(ConfigError, match="requires block"):
            parse_config(_write(tmp_path, "a.yaml", text))

    def test_overrides_win(self, tmp_path):
        cfg = parse_config(
            _write(tmp_path, "a.yaml", BASE_CLT), overrides={"seed": 7, "out": None}
        )
        assert cfg["seed"] == 7

    def test_mc_budget_key_rejected(self, tmp_path, capsys):
        text = BASE_CLT + "  mc_budget: 100000\n"
        cfg = _write(tmp_path, "a.yaml", text)
        assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "unknown key 'mc_budget'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.yaml")


class TestMainExitCodes:
    def test_spectrum_success(self, tmp_path):
        cfg = _write(tmp_path, "s.yaml", SPECTRUM)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "spectrum.json").read_text())
        assert doc["s"] == pytest.approx(1.0, rel=1e-9)
        assert (out / "provenance.json").exists()
        assert (out / "summary.txt").exists()

    def test_refuses_nonempty_out(self, tmp_path):
        cfg = _write(tmp_path, "s.yaml", SPECTRUM)
        out = tmp_path / "out"
        out.mkdir()
        (out / "junk.txt").write_text("x")
        assert main(["--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert (out / "junk.txt").exists()
        assert main(["--config", cfg, "--out", str(out), "--force"]) == EXIT_OK
        assert not (out / "junk.txt").exists()

    @pytest.mark.parametrize("force", [[], ["--force"]], ids=["no-force", "force"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_that_is_a_file_is_a_config_error(self, tmp_path, capsys, force, under):
        # neither --out afile nor --out afile/sub can be made a directory;
        # the file is left as it was
        cfg = _write(tmp_path, "s.yaml", SPECTRUM)
        afile = tmp_path / "afile"
        afile.write_text("keep")
        out = afile / "sub" if under else afile
        assert main(["--config", cfg, "--out", str(out), *force]) == EXIT_CONFIG
        (err,) = capsys.readouterr().err.splitlines()
        assert err == f"config error: output path {out} is, or lies under, a file"
        assert afile.read_text() == "keep"

    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.yaml", BASE_CLT)
        out = tmp_path / "out"
        code = main(["--config", cfg, "--out", str(out), "--dry-run"])
        assert code == EXIT_OK
        assert not out.exists()
        printed = capsys.readouterr().out
        assert "grid: 108^2" in printed and "seed: 42" in printed
        assert "wrap guard: 7.375 beyond the box" in printed
        assert "(tolerance 1e-06)" in printed
        assert "stored window: 57^2 nodes, 311,904 bytes of jet" in printed

    def test_dry_run_plans_the_stored_window(self, tmp_path, capsys):
        # m = 3 at N = 5: the transforms run on the 140^3 torus, but only the
        # 89^3 counting window of the ten components is kept
        text = BASE_CLT.replace("m: 2", "m: 3").replace("n_list: [3.0]", "n_list: [3.0, 5.0]")
        cfg = _write(tmp_path, "m3.yaml", text)
        assert main(["--config", cfg, "--dry-run"]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "grid: 140^3 points (2,744,000 total per realization)" in printed
        assert "stored window: 89^3 nodes, 112,795,040 bytes of jet (107.6 MiB)" in printed

    def test_padding_factor_rejected(self, tmp_path, capsys):
        # the torus is sized from the density; the fixed factor is gone
        cfg = _write(tmp_path, "p.yaml", BASE_CLT + "  padding_factor: 2.0\n")
        assert main(["--config", cfg, "--dry-run"]) == EXIT_CONFIG
        assert "unknown key 'padding_factor'" in capsys.readouterr().err

    @pytest.mark.parametrize("dry_run", [True, False], ids=["dry-run", "run"])
    def test_oversized_grid_is_a_config_error(self, tmp_path, capsys, dry_run):
        # m = 3, N = 7 at 24 points per unit needs 500^3 nodes; nothing is
        # allocated or written
        text = (
            BASE_CLT.replace("m: 2", "m: 3")
            .replace("n_list: [3.0]", "n_list: [7.0]")
            .replace("points_per_unit: 8", "points_per_unit: 24")
        )
        cfg = _write(tmp_path, "g.yaml", text)
        out = tmp_path / "o"
        argv = ["--config", cfg, "--out", str(out)] + (["--dry-run"] if dry_run else [])
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "500^3 = 125,000,000 points needs a 18.6 GiB jet, over the budget of 2 GiB" in err
        assert not out.exists()

    @pytest.mark.parametrize("dry_run", [True, False], ids=["dry-run", "run"])
    def test_jet_bytes_over_budget_is_a_config_error(self, tmp_path, capsys, dry_run):
        # m = 3, N = 7 at 16 points per unit is a 336^3 grid: inside the old
        # per-array node budget, but its ten-component jet needs 5.65 GiB
        text = (
            BASE_CLT.replace("m: 2", "m: 3")
            .replace("n_list: [3.0]", "n_list: [7.0]")
            .replace("points_per_unit: 8", "points_per_unit: 16")
        )
        cfg = _write(tmp_path, "g.yaml", text)
        out = tmp_path / "o"
        argv = ["--config", cfg, "--out", str(out)] + (["--dry-run"] if dry_run else [])
        assert main(argv) == EXIT_CONFIG
        assert "336^3 = 37,933,056 points needs a 5.65 GiB jet" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dry_run", [True, False], ids=["dry-run", "run"])
    def test_jet_budget_is_the_only_limit_on_n(self, tmp_path, capsys, dry_run):
        # m = 2, N = 25 is a 462^2 torus, far inside the jet budget
        text = (BASE_CLT.replace("n_list: [3.0]", "n_list: [25.0]")
                .replace("realizations: 4", "realizations: 1"))
        cfg = _write(tmp_path, "n.yaml", text)
        out = tmp_path / "o"
        argv = ["--config", cfg, "--out", str(out)] + (["--dry-run"] if dry_run else [])
        assert main(argv) == EXIT_OK
        if dry_run:
            assert "grid: 462^2" in capsys.readouterr().out
        else:
            assert json.loads((out / "record.json").read_text())["summary"]["25.0"]["R"] == 1

    @pytest.mark.parametrize("dry_run", [True, False], ids=["dry-run", "run"])
    def test_crosscheck_sizes_the_grid_it_runs(self, tmp_path, capsys, dry_run):
        # crosscheck synthesizes only the smallest half-width: N = 2 is a
        # 96^2 torus, inside the budget, where N = 10 would need 220^2
        text = (BASE_CLT.replace("subcommand: clt", "subcommand: crosscheck")
                .replace("n_list: [3.0]", "n_list: [2.0, 10.0]")
                + "budget:\n  grid_points: 20000\n")
        cfg = _write(tmp_path, "x.yaml", text)
        out = tmp_path / "o"
        argv = ["--config", cfg, "--out", str(out)] + (["--dry-run"] if dry_run else [])
        assert main(argv) == EXIT_OK
        if dry_run:
            assert "grid: 96^2" in capsys.readouterr().out
        else:
            torus = json.loads((out / "provenance.json").read_text())["torus"]
            assert torus["n_per_side"] == {"2.0": 96}

    @pytest.mark.parametrize("subcommand", ["clt", "crosscheck"])
    @pytest.mark.parametrize("dry_run", [True, False], ids=["dry-run", "run"])
    def test_experiment_block_checked_before_output(self, tmp_path, capsys, subcommand,
                                                    dry_run):
        # the dry run refuses the block the run refuses, and neither writes;
        # a repeated level is refused like a decreasing one
        for n_list in ("[5.0, 3.0]", "[2.0, 2.0]"):
            text = (BASE_CLT.replace("subcommand: clt", f"subcommand: {subcommand}")
                    .replace("n_list: [3.0]", f"n_list: {n_list}")
                    .replace("realizations: 4", "realizations: 0"))
            cfg = _write(tmp_path, "e.yaml", text)
            out = tmp_path / "o"
            argv = ["--config", cfg, "--out", str(out)] + (["--dry-run"] if dry_run else [])
            assert main(argv) == EXIT_CONFIG
            assert "n_list must be nonempty and increasing" in capsys.readouterr().err
            assert not out.exists()

    def test_clt_ks_line(self, tmp_path, capsys):
        # R >= 100 adds the KS test of zeta at the largest N, against
        # N(0, sample variance), to the summary
        text = (BASE_CLT.replace("n_list: [3.0]", "n_list: [2.0]")
                .replace("realizations: 4", "realizations: 100"))
        cfg = _write(tmp_path, "k.yaml", text)
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out)]) == EXIT_OK
        c_m = json.loads((out / "record.json").read_text())["c_m"]
        z = np.genfromtxt(out / "samples_N2.csv", delimiter=",", names=True)["Z"]
        zeta = (z - c_m * 4.0**2) / 4.0
        ks = experiments.normality_test(zeta, float(np.var(zeta, ddof=1)))
        line = f"KS at N=2: stat={ks['statistic']:.4f}, p={ks['p_value']:.4g}"
        assert line in capsys.readouterr().out.splitlines()
        assert line in (out / "summary.txt").read_text().splitlines()

    def test_clt_plan_and_summary_count_replicates(self, tmp_path, capsys):
        text = BASE_CLT.replace("n_list: [3.0]", "n_list: [2.0, 3.0]")
        cfg = _write(tmp_path, "r.yaml", text)
        assert main(["--config", cfg, "--dry-run"]) == EXIT_OK
        assert "replicates: 4, each one field at N = 3 counted at every N" in (
            capsys.readouterr().out
        )
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out)]) == EXIT_OK
        summary = (out / "summary.txt").read_text()
        assert "variance plateau ratio = " in summary
        assert "(paired bootstrap 95% CI [" in summary
        torus = json.loads((out / "record.json").read_text())["torus"]
        assert torus["n_per_side"] == {"3.0": 108}

    def test_config_error_exit(self, tmp_path):
        cfg = _write(tmp_path, "bad.yaml", "subcommand: nope\nseed: 1\n")
        assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_budget_exceeded_exit(self, tmp_path):
        text = BASE_CLT + "budget:\n  grid_points: 100\n"
        cfg = _write(tmp_path, "b.yaml", text)
        assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_BUDGET

    @pytest.mark.parametrize("subcommand", ["clt", "crosscheck"])
    def test_wall_clock_stops_the_run(self, tmp_path, capsys, subcommand):
        # a spent budget stops the run before its next realization, so no
        # record is written; the check used to run only after the outputs
        text = (BASE_CLT.replace("subcommand: clt", f"subcommand: {subcommand}")
                .replace("realizations: 4", "realizations: 200")
                + "budget:\n  wall_clock: 0\n")
        cfg = _write(tmp_path, "w.yaml", text)
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out)]) == EXIT_BUDGET
        assert "spent after 0 of 200 realizations" in capsys.readouterr().err
        assert not (out / "record.json").exists()
        assert not (out / "crosscheck.json").exists()
        # the provenance, torus included, is written before the run starts
        torus = json.loads((out / "provenance.json").read_text())["torus"]
        assert torus["n_per_side"] == {"3.0": 108}

    def test_wall_clock_checked_after_the_run(self, tmp_path, capsys):
        # every subcommand but clt and crosscheck checks its budget once,
        # after its outputs are written
        cfg = _write(tmp_path, "w.yaml", BASE_RANDMAT + "budget:\n  wall_clock: 0\n")
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out)]) == EXIT_BUDGET
        err = capsys.readouterr().err
        assert "run exceeded wall-clock budget 0" in err
        assert (out / "randmat.json").exists() and (out / "summary.txt").exists()

    def test_dead_worker_exits_4(self, tmp_path, capsys, monkeypatch, two_cpus):
        # a worker that dies ends the run with its own message; the pool
        # notices the death, so the run does not hang
        parent = os.getpid()

        def die(fr, box):
            assert os.getpid() != parent
            os._exit(1)

        monkeypatch.setattr(experiments, "count_newton", die)
        cfg = _write(tmp_path, "d.yaml", BASE_CLT)
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith("a worker process died: ")
        assert not (out / "record.json").exists()

    @pytest.mark.parametrize("subcommand", ["clt", "crosscheck"])
    def test_provenance_names_the_workers(self, tmp_path, pinned, subcommand):
        # one worker or two: only the provenance's worker keys and the
        # record's wall time differ
        text = BASE_CLT.replace("subcommand: clt", f"subcommand: {subcommand}")
        cfg = _write(tmp_path, "p.yaml", text)
        outputs = []
        for n in (1, 2):
            out = tmp_path / f"o{n}"
            with pinned(n) as cpus:
                assert main(["--config", cfg, "--out", str(out)]) == EXIT_OK
            files = {path.name: path.read_text() for path in out.iterdir()}
            stamp = json.loads(files.pop("provenance.json"))
            assert (stamp.pop("workers"), stamp.pop("worker_cpus")) == (
                n, cpus if n > 1 else [])
            if "record.json" in files:
                record = json.loads(files.pop("record.json"))
                record.pop("wall_time")
                files["record.json"] = record
            outputs.append((stamp, files))
        assert outputs[0] == outputs[1]

    def test_nyquist_exit(self, tmp_path, capsys):
        # one point per unit cannot resolve the unit Gaussian spectrum: the
        # check fails before the first realization is counted
        text = BASE_CLT.replace("points_per_unit: 8", "points_per_unit: 1")
        cfg = _write(tmp_path, "q.yaml", text)
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure: spectral mass extends to radius" in err
        assert "raise points_per_unit" in err
        assert not (out / "record.json").exists()

    @pytest.mark.parametrize("subcommand", ["field", "count", "clt", "crosscheck"])
    @pytest.mark.parametrize("dry_run", [True, False], ids=["dry-run", "run"])
    def test_unresolved_grid_refused_before_output(self, tmp_path, capsys, subcommand,
                                                   dry_run):
        # the plan runs synthesize's resolution check: one point per unit
        # resolves radius pi, below the unit Gaussian's cutoff of 5.33
        text = (BASE_CLT.replace("subcommand: clt", f"subcommand: {subcommand}")
                .replace("points_per_unit: 8", "points_per_unit: 1"))
        cfg = _write(tmp_path, "q.yaml", text)
        out = tmp_path / "o"
        argv = ["--config", cfg, "--out", str(out)] + (["--dry-run"] if dry_run else [])
        assert main(argv) == EXIT_NUMERICAL
        (err,) = capsys.readouterr().err.splitlines()
        assert err == ("numerical failure: spectral mass extends to radius 5.33 but the "
                       "grid only resolves 3.14; raise points_per_unit")
        assert not out.exists()

    def test_crosscheck_summary_totals_failed_cells(self, tmp_path):
        text = (BASE_CLT.replace("subcommand: clt", "subcommand: crosscheck")
                .replace("realizations: 4", "realizations: 2")
                .replace("points_per_unit: 8", "points_per_unit: 16"))
        cfg = _write(tmp_path, "x.yaml", text)
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = json.loads((out / "crosscheck.json").read_text())["rows"]
        total = sum(row["failed_cells"] for row in rows)
        lines = (out / "summary.txt").read_text().splitlines()
        assert f"newton failed cells = {total} over 2 fields" in lines

    def test_budget_counts_default_samples(self, tmp_path, capsys):
        # no ensemble.samples: randmat draws its default 500 000 matrices
        text = BASE_RANDMAT.replace("  samples: 50000\n", "") + "budget:\n  samples: 1000\n"
        cfg = _write(tmp_path, "r.yaml", text)
        assert main(["--config", cfg, "--dry-run"]) == EXIT_BUDGET
        assert "500000 samples > budget 1000" in capsys.readouterr().err

    def test_randmat_draws_each_batch_once(self, tmp_path, monkeypatch):
        # 500 000 samples are 250 000 draws: two batches shared by the three
        # functionals, then the 400 matrices of eigenvalues.csv
        sizes = []
        sample = cli.randmat.sample_matrices

        def spy(params, n, rng):
            sizes.append(n)
            return sample(params, n, rng)

        monkeypatch.setattr(cli.randmat, "sample_matrices", spy)
        text = BASE_RANDMAT.replace("samples: 50000", "samples: 500000")
        cfg = _write(tmp_path, "r.yaml", text)
        assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
        assert sizes == [200_000, 50_000, 400]

    def test_chaos_dry_run_plans_no_monte_carlo(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.yaml", CHAOS)
        assert main(["--config", cfg, "--dry-run"]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "subcommand: chaos" in printed
        assert "MC" not in printed

    def test_chaos_draws_nothing(self, tmp_path):
        # the floor is exact: ensemble.samples is still accepted, a sample
        # budget does not apply, and the seed does not change the report
        text = CHAOS + "  samples: 2000000\nbudget:\n  samples: 1000\n"
        cfg = _write(tmp_path, "c.yaml", text)
        reports = []
        for seed in (1, 2):
            out = tmp_path / f"o{seed}"
            argv = ["--config", cfg, "--out", str(out), "--seed", str(seed)]
            assert main(argv) == EXIT_OK
            reports.append((out / "chaos_report.csv").read_bytes())
        assert reports[0] == reports[1]
        header = reports[0].decode().splitlines()[0]
        assert header == "m,v,f0,x,y,z,V2_inf"

    def test_clt_runs_user_table_density(self, tmp_path, monkeypatch):
        # the table reaches the experiment config, as it reaches `count`; the
        # plan builds the density, its guard and the experiment once, so one
        # run fits the spline once, runs the psi search (about 1 s for this
        # table) once, bootstraps once and stamps once
        calls = collections.Counter()

        def spy(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        guard = spy("wrap_guard", field.wrap_guard)
        monkeypatch.setattr(cli.field, "wrap_guard", guard)
        monkeypatch.setattr(experiments, "wrap_guard", guard)
        monkeypatch.setattr(spectrum.interpolate, "CubicSpline",
                            spy("spline", spectrum.interpolate.CubicSpline))
        monkeypatch.setattr(experiments, "variance_scaling",
                            spy("variance_scaling", experiments.variance_scaling))
        write_text = Path.write_text

        def write(path, *args, **kwargs):
            calls[path.name] += 1
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", write)
        text = (
            "subcommand: clt\nseed: 5\n"
            "density:\n  family: user-table\n"
            "  table: [[0.0, 1.0], [1.0, 0.6], [2.0, 0.14], [3.0, 0.01], [4.0, 0.0]]\n"
            "experiment:\n  m: 2\n  n_list: [2.0]\n  realizations: 2\n"
        )
        cfg = _write(tmp_path, "t.yaml", text)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "record.json").read_text())
        assert doc["summary"]["2.0"]["R"] == 2
        once = ("spline", "wrap_guard", "variance_scaling", "provenance.json")
        assert {name: calls[name] for name in once} == dict.fromkeys(once, 1)

    def test_numerical_failure_exit(self, tmp_path):
        # a flat user table has no spectral decay: moment quadrature diverges
        text = (
            "subcommand: spectrum\nseed: 1\n"
            "density:\n  family: user-table\n"
            "  table: [[0.0, 1.0], [50.0, 1.0], [100.0, 1.0]]\n"
        )
        cfg = _write(tmp_path, "n.yaml", text)
        assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL

    def test_seed_override(self, tmp_path):
        cfg = _write(tmp_path, "c.yaml", BASE_CLT)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--seed", "7"]) == EXIT_OK
        stamp = json.loads((out / "provenance.json").read_text())
        assert stamp["seed"] == 7

    def test_no_config_given(self):
        assert main([]) == EXIT_CONFIG

    def test_threads_flag_rejected(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.yaml", BASE_CLT)
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "2", "--config", cfg, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_count_prints_exact_expectation(self, tmp_path):
        # without e_absdet_s1 the anchor is E|det A| = 4 / sqrt(3) over S(2; 1, 1)
        text = BASE_CLT.replace("subcommand: clt", "subcommand: count").replace(
            "  e_absdet_s1: 2.3094\n", ""
        )
        cfg = _write(tmp_path, "k.yaml", text)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "summary.txt").read_text().splitlines()
        (line,) = [ln for ln in lines if ln.startswith("expected E[Z] = ")]
        # unit gaussian spectrum: h = d = 1, so E[Z] = 36 * 4 / sqrt(3) / (2 pi)
        want = 36.0 * 4.0 / math.sqrt(3.0) / (2.0 * math.pi)
        assert float(line.split("= ")[1]) == pytest.approx(want, rel=1e-5)
        assert (out / "critical_points.csv").exists()

    def test_count_defaults_gaussian_params(self, tmp_path):
        # the same density block as `clt` accepts: sigma defaults to 1
        text = BASE_CLT.replace("subcommand: clt", "subcommand: count").replace(
            "  params: [1.0]\n", ""
        )
        cfg = _write(tmp_path, "k.yaml", text)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == EXIT_OK
        stamp = json.loads((out / "provenance.json").read_text())
        assert stamp["torus"]["n_per_side"] == {"3.0": 108}

    def test_field_single_realization(self, tmp_path):
        text = BASE_CLT.replace("subcommand: clt", "subcommand: field")
        cfg = _write(tmp_path, "f.yaml", text)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == EXIT_OK
        stats = json.loads((out / "jet_statistics.json").read_text())
        est, stderr = stats["X.X"]
        # X.X is the mean of X^2 over the K = 15^2 window nodes that
        # jet_statistics reads, every fourth along each axis: spacing 1/2 on
        # [-3.5, 3.5]^2.  The field has C(t) = exp(-|t|^2 / 2), so E X.X = 1
        # and Var X.X = 2 sum_ij C(x_i - x_j)^2 / K^2 (sd 0.31, about 21
        # independent values).  That weighted sum of chi^2_1 variables is
        # close to chi^2_nu / nu with nu = 2 / Var, and the bounds are its
        # 1e-5 and 1 - 1e-5 quantiles, [0.17, 2.90].  Over seeds 0-999 the
        # one-field estimate has sd 0.31 and lies in [0.35, 2.49]
        x = np.arange(-3.5, 3.75, 0.5)
        nodes = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
        lag2 = np.sum((nodes[:, None] - nodes[None]) ** 2, axis=-1)
        nu = 1.0 / np.mean(np.exp(-lag2))
        assert chi2.ppf(1e-5, nu) / nu <= est <= chi2.ppf(1.0 - 1e-5, nu) / nu
        assert stderr is None
        assert set(stats) >= {"g0.g1", "h00.h11", "X.h01"}
        back = load_realization(out / "realization.bin")
        assert back.seed == 42
        # the torus is (2 * 3.0 + guard 7.375) * 8 = 107 cells, rounded up to
        # 108 = 2^2 3^3; the dump holds the counting window |x_i| <= 3 + 4 / 8,
        # 2 * (24 + 4) + 1 = 57 nodes per side
        assert back.spec.n_per_side == 108
        assert back.grid.shape == (6, 57, 57)


@pytest.fixture(scope="module")
def clt_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("clt")
    cfg = _write(tmp, "c.yaml", BASE_CLT)
    out = tmp / "out"
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def randmat_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("rm")
    cfg = _write(tmp, "r.yaml", BASE_RANDMAT)
    out = tmp / "out"
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_OK
    return out


class TestEndToEnd:
    def test_clt_outputs(self, clt_dir):
        doc = json.loads((clt_dir / "record.json").read_text())
        assert doc["n_list"] == [3.0]
        torus = doc["torus"]
        assert torus["guard"] == 7.375 and torus["n_per_side"] == {"3.0": 108}
        assert torus["wrap_ratio"] <= torus["tolerance"] == 1e-6
        stamp = json.loads((clt_dir / "provenance.json").read_text())
        assert stamp["torus"] == torus
        assert (clt_dir / "samples_N3.csv").exists()
        assert (clt_dir / "variance.csv").exists()

    def test_randmat_outputs(self, randmat_dir):
        doc = json.loads((randmat_dir / "randmat.json").read_text())
        assert doc["results"]["absdet"]["mean"] == pytest.approx(2.309, rel=0.05)
        assert (randmat_dir / "eigenvalues.csv").exists()

    def test_plot_kinds(self, clt_dir, randmat_dir):
        sources = {
            "zeta-hist": clt_dir,
            "variance-plateau": clt_dir,
            "semicircle": randmat_dir,
            "rho-identity": randmat_dir,
        }
        assert set(sources) == set(PLOT_KINDS)
        for kind, src in sources.items():
            path = emit_plot_data(src, kind)
            header = path.read_text().splitlines()[0]
            assert "," in header

    def test_unknown_plot_kind(self, clt_dir):
        with pytest.raises(ValueError, match="unknown plot kind"):
            emit_plot_data(clt_dir, "scatter")
        assert main(["--plot-data", str(clt_dir), "scatter"]) == EXIT_CONFIG

    def test_plot_data_cli(self, clt_dir, tmp_path):
        dest = tmp_path / "plot.csv"
        code = main(["--plot-data", str(clt_dir), "variance-plateau", "--out", str(dest)])
        assert code == EXIT_OK
        assert dest.exists()


# first choices are the valid ones, so the search covers the guard search,
# budget rejections and plans as well as malformed blocks
_DENSITY_BLOCKS = st.one_of(
    st.fixed_dictionaries(
        {"family": st.just("gaussian")},
        optional={"params": st.one_of(
            st.lists(st.floats(0.25, 4.0), min_size=1, max_size=1),
            st.lists(st.floats(-1.0, 4.0), max_size=2),
        )},
    ),
    st.fixed_dictionaries({
        "family": st.just("compact-bump"),
        "params": st.one_of(
            st.tuples(st.sampled_from([1.0, 0.5]), st.sampled_from([4.0, 2.0, 0.0])).map(list),
            st.lists(st.sampled_from([-1.0, 0.0, 1.0]), max_size=3),
        ),
    }),
)

_EXPERIMENT_BLOCKS = st.fixed_dictionaries(
    {
        "m": st.sampled_from([2, 3, 1, 4]),
        "n_list": st.lists(
            st.sampled_from([3.0, 5.0, 7.0, 20.0, 0.5, 60.0, -1.0]), min_size=1, max_size=3
        ),
    },
    optional={
        "points_per_unit": st.sampled_from([8, 16, 32, 0]),
        "realizations": st.integers(0, 40),
    },
)


class TestConfigFuzz:
    @settings(
        max_examples=30, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        subcommand=st.sampled_from(["field", "count", "clt", "crosscheck"]),
        density=_DENSITY_BLOCKS,
        experiment=_EXPERIMENT_BLOCKS,
        grid_budget=st.one_of(st.none(), st.integers(1, 10**7)),
    )
    def test_dry_run_ends_in_a_message(
        self, tmp_path_factory, subcommand, density, experiment, grid_budget
    ):
        # every block ends in a plan, a config error or a budget error with
        # one line on stderr, never in a traceback
        doc = {"subcommand": subcommand, "seed": 1, "density": density,
               "experiment": experiment}
        if grid_budget is not None:
            doc["budget"] = {"grid_points": grid_budget}
        path = tmp_path_factory.mktemp("fuzz") / "c.yaml"
        path.write_text(yaml.safe_dump(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["--config", str(path), "--dry-run"])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_BUDGET)
        lines = err.getvalue().splitlines()
        assert len(lines) == (0 if code == EXIT_OK else 1), lines


# configs whose dry run once planned what the run then refused, or that
# ended in a traceback (a missing ensemble key was an uncaught KeyError, a
# table given as one list of numbers or a text budget an uncaught TypeError);
# every one is a config error, in both, before any output
_REFUSED = {
    "randmat-no-v": {"subcommand": "randmat", "ensemble": {"m": 3}},
    "chaos-no-m": {"subcommand": "chaos", "density": {"family": "gaussian"},
                   "ensemble": {"v": 1.0}},
    "randmat-v-negative": {"subcommand": "randmat", "ensemble": {"m": 2, "v": -1.0}},
    "randmat-10-samples": {"subcommand": "randmat",
                           "ensemble": {"m": 2, "v": 1.0, "samples": 10}},
    "chaos-m1": {"subcommand": "chaos", "density": {"family": "gaussian"},
                 "ensemble": {"m": 1, "v": 1.0}},
    "spectrum-m1": {"subcommand": "spectrum", "density": {"family": "gaussian"},
                    "experiment": {"m": 1}},
    "clt-table-not-rows": {"subcommand": "clt",
                       "density": {"family": "user-table", "table": [1, 2]},
                       "experiment": {"n_list": [3.0], "realizations": 2}},
    "count-table-not-rows": {"subcommand": "count",
                         "density": {"family": "user-table", "table": [1, 2]},
                         "experiment": {"n_list": [3.0]}},
    "crosscheck-eps-zero": {"subcommand": "crosscheck", "density": {"family": "gaussian"},
                            "experiment": {"n_list": [3.0], "realizations": 2,
                                           "eps_list": [0.1, 0.0]}},
    "randmat-text-sample-budget": {"subcommand": "randmat", "ensemble": {"m": 2, "v": 1.0},
                                   "budget": {"samples": "many"}},
    "clt-text-wall-clock": {"subcommand": "clt", "density": {"family": "gaussian"},
                            "experiment": {"n_list": [3.0], "realizations": 2},
                            "budget": {"wall_clock": "soon"}},
    "clt-null-grid-budget": {"subcommand": "clt", "density": {"family": "gaussian"},
                             "experiment": {"n_list": [3.0], "realizations": 2},
                             "budget": {"grid_points": None}},
}


def _dry_run_then_run(path, doc):
    """Exit code and stderr lines of the dry run, then of the run, of one
    config; the output directory must not exist after the dry run."""
    (path / "c.yaml").write_text(yaml.safe_dump({"seed": 1, **doc}))
    out = path / "o"
    results = []
    for dry in (["--dry-run"], []):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["--config", str(path / "c.yaml"), "--out", str(out)] + dry)
        results.append((code, err.getvalue().splitlines()))
        if dry:
            assert not out.exists()
    return results, out


def _check_dry_run_matches_run(path, doc):
    (dry, dry_err), (run, run_err) = _dry_run_then_run(path, doc)[0]
    assert dry in (EXIT_OK, EXIT_CONFIG, EXIT_BUDGET)
    assert len(dry_err) == (0 if dry == EXIT_OK else 1), dry_err
    # a run may still fail where only computing shows it (exit 4)
    assert run == dry or (dry == EXIT_OK and run == EXIT_NUMERICAL), (dry, run, run_err)
    if run != EXIT_OK:
        assert len(run_err) == 1, run_err
    return dry


@pytest.mark.parametrize("name", sorted(_REFUSED))
def test_dry_run_refuses_what_the_run_refuses(tmp_path, name):
    assert _check_dry_run_matches_run(tmp_path, _REFUSED[name]) == EXIT_CONFIG
    assert not (tmp_path / "o").exists()


_TABLES = st.sampled_from([
    [[0.0, 1.0], [1.0, 0.6], [2.0, 0.14], [3.0, 0.01], [4.0, 0.0]],
    [1, 2],
    [[0.0, 1.0], [1.0]],
    [[0.0, 1.0], [1.0, 0.5, 0.2]],
    [[0.0, 1.0, 2.0], [1.0, 0.5, 0.0]],
    [[1.0, 1.0], [0.0, 0.5]],
    [[0.0, -1.0], [1.0, 0.0]],
    [[0.0, "a"], [1.0, 0.0]],
    [[0.0, 1.0]],
    [],
    {"r": 1.0},
    "abc",
])

# None leaves the key out
_ENSEMBLE_BLOCKS = st.builds(
    lambda **block: {k: v for k, v in block.items() if v is not None},
    m=st.sampled_from([2, 3, None, 1, 0]),
    u=st.sampled_from([None, 1.0, 0.0, -1.0]),
    v=st.sampled_from([1.0, 0.5, None, 0.0, -1.0]),
    samples=st.sampled_from([20_000, 10_000, None, 9_999, 10]),
).filter(bool)  # an empty block fails parsing, with a line per problem


class TestDryRunMatchesRun:
    @settings(
        max_examples=60, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        subcommand=st.sampled_from(["spectrum", "randmat", "chaos"]),
        density=st.one_of(
            st.just({"family": "gaussian"}),
            _DENSITY_BLOCKS,
            st.fixed_dictionaries({"family": st.just("user-table"), "table": _TABLES}),
        ),
        ensemble=_ENSEMBLE_BLOCKS,
        m=st.sampled_from([None, 2, 3, 1, 0]),
        sample_budget=st.sampled_from([None, 10**6, 1000]),
    )
    def test_dry_run_and_run_agree(
        self, tmp_path_factory, subcommand, density, ensemble, m, sample_budget
    ):
        # the dry run ends in a plan, a config error or a budget error with one
        # line on stderr; the run ends in the same code, or in a numerical
        # failure, and writes nothing when the config is refused
        doc = {"subcommand": subcommand, "density": density}
        if subcommand != "spectrum":
            doc["ensemble"] = ensemble
        if m is not None:
            doc["experiment"] = {"m": m}
        if sample_budget is not None:
            doc["budget"] = {"samples": sample_budget}
        path = tmp_path_factory.mktemp("agree")
        if _check_dry_run_matches_run(path, doc) != EXIT_OK:
            assert not (path / "o").exists()
