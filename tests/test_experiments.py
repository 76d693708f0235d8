import itertools
import json
import math
import types
from dataclasses import replace

import numpy as np
import pytest

from critfield import experiments, field
from critfield.config import BudgetError
from critfield.critpoints import count_newton, expected_count
from critfield.experiments import (
    ExperimentConfig,
    ExperimentRecord,
    estimator_crosscheck,
    normality_test,
    run_clt,
    save_record,
    variance_scaling,
)
from critfield.randmat import expect_absdet_S
from critfield.spectrum import SpectralDensity

# pins the Kac-Rice anchor instead of the exact default expect_absdet_S(2, 1)
E_ABSDET = 2.3094

SMALL = ExperimentConfig(
    density=SpectralDensity(family="gaussian", params=(1.0,)),
    m=2,
    n_list=(3.0, 4.0),
    realizations=8,
    points_per_unit=8,
    master_seed=42,
    e_absdet_s1=E_ABSDET,
)


@pytest.fixture(scope="module")
def small_record():
    return run_clt(SMALL)


class TestConfig:
    def test_digest_stable_and_sensitive(self):
        assert SMALL.digest() == replace(SMALL).digest()
        other = replace(SMALL, master_seed=43)
        assert other.digest() != SMALL.digest()

    def test_n_list_validation(self):
        with pytest.raises(ValueError):
            replace(SMALL, n_list=(4.0, 3.0))
        with pytest.raises(ValueError):
            replace(SMALL, n_list=())

    def test_realizations_validation(self):
        with pytest.raises(ValueError):
            replace(SMALL, realizations=0)


class TestRunClt:
    def test_counts_near_expectation(self, small_record):
        assert small_record.failures == 0
        assert small_record.counts.shape == (len(SMALL.n_list), SMALL.realizations)
        for n, z in zip(SMALL.n_list, small_record.counts):
            ez = small_record.c_m * (2.0 * n) ** SMALL.m
            # mean count within 5 standard errors of the Kac-Rice prediction
            se = z.std(ddof=1) / np.sqrt(len(z))
            assert abs(z.mean() - ez) < 5 * se

    def test_small_r_is_flagged(self, small_record):
        assert "insufficient: R < 30" in small_record.flags
        big_enough = run_clt(replace(SMALL, n_list=(3.0,), realizations=30))
        assert "insufficient: R < 30" not in big_enough.flags

    def test_deterministic(self, small_record):
        again = run_clt(SMALL)
        np.testing.assert_array_equal(again.counts, small_record.counts)
        assert again.config_digest == small_record.config_digest

    def test_seed_changes_counts(self, small_record):
        other = run_clt(replace(SMALL, master_seed=7))
        assert not np.array_equal(other.counts, small_record.counts)

    def test_exact_anchor_by_default(self, tmp_path):
        cfg = replace(SMALL, n_list=(3.0,), realizations=2, e_absdet_s1=None)
        record = run_clt(cfg)
        assert record.c_m == expected_count(cfg.density, 2, 1.0, expect_absdet_S(2, 1.0))
        # h = d = 1 for the unit gaussian, up to the moment quadrature
        assert record.c_m == pytest.approx(4.0 / math.sqrt(3.0) / (2.0 * math.pi), rel=1e-9)
        doc = json.loads(save_record(record, tmp_path, variance_scaling(record)).read_text())
        assert doc["expected_mean"]["3.0"] == record.c_m * 36.0

    def test_centering_conventions(self, small_record, tmp_path):
        # the samples CSVs hold zeta_N = (2N)^(-m/2) (Z_N - E[Z_N]) centred on
        # c_m (2N)^m and on the level's mean, each written to 10 digits
        save_record(small_record, tmp_path, variance_scaling(small_record))
        for n, z in zip(SMALL.n_list, small_record.counts):
            scale = (2.0 * n) ** (SMALL.m / 2.0)
            zeta_theoretical = (z - small_record.c_m * (2.0 * n) ** SMALL.m) / scale
            zeta_pooled = (z - z.mean()) / scale
            rows = (tmp_path / f"samples_N{n:g}.csv").read_text().splitlines()
            assert rows[1:] == [
                f"{zj:.1f},{zt:.10g},{zp:.10g}"
                for zj, zt, zp in zip(z, zeta_theoretical, zeta_pooled)
            ]
            assert abs(zeta_pooled.mean()) < 1e-12
            # the two centerings differ by a constant offset only
            assert np.ptp(zeta_theoretical - zeta_pooled) < 1e-10


    def test_spectral_cutoff_once_per_run(self, monkeypatch):
        calls, derive = [], field.spectral_cutoff

        def spy(*args):
            calls.append(args)
            return derive(*args)

        monkeypatch.setattr(experiments, "spectral_cutoff", spy)
        monkeypatch.setattr(field, "spectral_cutoff", spy)
        small = replace(SMALL, realizations=3)
        run_clt(small)
        assert len(calls) == 1

    def test_band_once_per_sweep(self, monkeypatch):
        calls, derive = [], field.spectral_band

        def spy(*args):
            calls.append(args)
            return derive(*args)

        monkeypatch.setattr(experiments, "spectral_band", spy)
        monkeypatch.setattr(field, "spectral_band", spy)
        small = replace(SMALL, realizations=3)
        run_clt(small)
        estimator_crosscheck(replace(small, eps_list=(0.1,)))
        assert len(calls) == 2

    def test_oversized_grid_refused_before_any_realization(self, monkeypatch):
        # the jet-bytes budget is the only limit on N.  At m = 3 and 16
        # points per unit N = 3 fits (216^3), but N = 7 needs a 336^3 torus,
        # so the sweep is refused before N = 3 makes a field
        made = []
        monkeypatch.setattr(experiments, "synthesize", lambda *args, **kw: made.append(args))
        cfg = replace(SMALL, m=3, n_list=(3.0, 7.0), points_per_unit=16)
        with pytest.raises(ValueError, match="336\\^3 .* over the budget of 2 GiB"):
            run_clt(cfg)
        assert made == []

    @pytest.mark.parametrize("m", [1, 4])
    def test_unsupported_dimension_refused_before_any_realization(self, monkeypatch, m):
        made = []
        monkeypatch.setattr(experiments, "synthesize", lambda *args, **kw: made.append(args))
        cfg = replace(SMALL, m=m)
        for run in (run_clt, estimator_crosscheck):
            with pytest.raises(ValueError, match="m in \\(2, 3\\)"):
                run(cfg)
            with pytest.raises(ValueError, match="only m = 2 and m = 3"):
                run(cfg, wrap=(8.0, 1e-7))
        assert made == []

    def test_wall_clock_stops_between_realizations(self, monkeypatch):
        # each clock reading is one second after the last: the start, then
        # one reading before each realization
        clock = itertools.count()
        monkeypatch.setattr(experiments, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))
        done = []
        monkeypatch.setattr(experiments, "_count_one", lambda *args: done.append(args) or [10, 12])
        with pytest.raises(BudgetError, match="after 3 of 8 realizations"):
            run_clt(SMALL, wall_clock=3.5)
        assert len(done) == 3

    def test_failed_replicate_dropped_from_every_level(self, monkeypatch):
        # a stub count per replicate: level k reads seed % 100 + 1000 k, so
        # paired rows differ by exactly 1000
        seeds = []

        def flaky(w, spec, seed, cutoff, band, n_list):
            seeds.append(seed)
            if len(seeds) == 2:
                raise RuntimeError("7 unresolved cells")
            return [seed % 100 + 1000 * k for k in range(len(n_list))]

        monkeypatch.setattr(experiments, "_count_one", flaky)
        # one failed replicate of three is over the 5% abort rule
        with pytest.raises(RuntimeError, match="1/3 replicates failed"):
            run_clt(replace(SMALL, realizations=3))
        # one of thirty is not: it is dropped from both levels at once
        seeds.clear()
        record = run_clt(replace(SMALL, realizations=30))
        kept = [s % 100 for i, s in enumerate(seeds) if i != 1]
        for k, z in enumerate(record.counts):
            np.testing.assert_array_equal(z, np.array(kept) + 1000 * k)
        assert record.failures == 1
        assert record.flags == [f"replicate 1 (seed {seeds[1]}) failed (7 unresolved cells)"]


class TestNestedLevels:
    """Each replicate is one field at the largest N; every Z_N is read off
    its point set."""

    @pytest.mark.parametrize(
        "m, n_list, seed",
        [(2, (5.0, 10.0, 20.0), 0), (2, (5.0, 10.0, 20.0), 1), (3, (3.0, 5.0), 0)],
    )
    def test_sub_box_equals_direct_count(self, m, n_list, seed):
        w = SMALL.density
        guard, _ = field.wrap_guard(w, m, 8)
        spec = field.GridSpec(m=m, half_width=n_list[-1], points_per_unit=8, guard=guard)
        fr = field.synthesize(w, spec, seed)
        top = count_newton(fr, ((-n_list[-1],) * m, (n_list[-1],) * m))
        nested = experiments._count_one(
            w, spec, seed, field.spectral_cutoff(w, m), field.spectral_band(w, spec), n_list
        )
        for n, z in zip(n_list, nested):
            direct = count_newton(fr, ((-n,) * m, (n,) * m))
            inside = np.all((top.locations >= -n) & (top.locations < n), axis=1)
            assert z == direct.newton_count == inside.sum()
            np.testing.assert_allclose(top.locations[inside], direct.locations, atol=1e-9)

    def test_counts_never_decrease_with_n(self):
        cfg = replace(SMALL, n_list=(1.0, 2.0, 3.5, 4.0))
        record = run_clt(cfg)
        counts = record.counts
        assert np.all(np.diff(counts, axis=0) >= 0)
        assert np.all(counts[-1] > counts[0])

    def test_top_level_is_the_seeded_field(self, small_record):
        top = SMALL.n_list[-1]
        streams = np.random.SeedSequence((SMALL.master_seed, len(SMALL.n_list) - 1)).spawn(
            SMALL.realizations
        )
        spec = field.GridSpec(m=2, half_width=top, points_per_unit=8,
                              guard=small_record.torus["guard"])
        for j, ss in enumerate(streams):
            fr = field.synthesize(SMALL.density, spec, int(ss.generate_state(1)[0]))
            direct = count_newton(fr, ((-top, -top), (top, top))).newton_count
            assert small_record.counts[-1][j] == direct

    def test_one_field_per_replicate(self, monkeypatch):
        made, synth = [], experiments.synthesize

        def spy(w, spec, **kw):
            made.append(spec.half_width)
            return synth(w, spec, **kw)

        monkeypatch.setattr(experiments, "synthesize", spy)
        cfg = replace(SMALL, n_list=(2.0, 3.0, 4.0), realizations=3)
        run_clt(cfg)
        assert made == [4.0] * 3


class TestVarianceScaling:
    def test_table_structure(self, small_record):
        table = variance_scaling(small_record)
        for n in SMALL.n_list:
            row = table[n]
            assert row["ci"][0] <= row["V_N"] <= row["ci"][1]
            assert row["V_N"] > 0
        lo, hi = table["plateau_ci"]
        assert lo <= table["plateau_ratio"] <= hi

    def test_levels_share_their_resamples(self):
        # the lower level is twice the upper: V_4 / V_3 = 4 (3/4)^2 on every
        # paired resample, so the ratio's interval collapses onto the ratio
        z = np.random.default_rng(0).integers(20, 40, size=50).astype(float)
        rec = _constant_record(r=50)
        rec.n_list, rec.counts = (3.0, 4.0), np.array([z, 2.0 * z])
        table = variance_scaling(rec)
        assert table["plateau_ratio"] == pytest.approx(4.0 * (3.0 / 4.0) ** 2, rel=1e-12)
        assert table["plateau_ci"] == pytest.approx((table["plateau_ratio"],) * 2, rel=1e-12)

    def test_degenerate_sample(self):
        rec = _constant_record()
        table = variance_scaling(rec)
        assert table[2.0]["V_N"] == 0.0
        # a box too small to hold a point in any replicate: the ratio over
        # a constant level is infinite, not a ZeroDivisionError
        rec.n_list, rec.counts = (0.25, 2.0), np.array([np.zeros(16), np.arange(16.0)])
        table = variance_scaling(rec)
        assert table["plateau_ratio"] == math.inf

    def test_single_sample_gives_nan(self):
        rec = _constant_record(r=1)
        table = variance_scaling(rec)
        assert np.isnan(table[2.0]["V_N"])


def _constant_record(r: int = 16) -> ExperimentRecord:
    return ExperimentRecord(
        config_digest="0" * 16,
        m=2,
        n_list=(2.0,),
        counts=np.full((1, r), 21.0),
        failures=0,
        c_m=21.0 / 16.0,
        wall_time=0.0,
    )


class TestNormality:
    def test_calibration_on_normal_sample(self):
        rng = np.random.default_rng(0)
        zeta = rng.normal(scale=np.sqrt(2.0), size=500)
        res = normality_test(zeta, variance=2.0)
        assert res["p_value"] > 0.01
        assert res["n"] == 500

    def test_power_against_uniform(self):
        rng = np.random.default_rng(1)
        zeta = rng.uniform(-1.0, 1.0, size=500)
        res = normality_test(zeta, variance=1.0)
        assert res["p_value"] < 1e-4

    def test_wrong_variance_detected(self):
        rng = np.random.default_rng(2)
        zeta = rng.normal(scale=3.0, size=500)
        res = normality_test(zeta, variance=1.0)
        assert res["p_value"] < 1e-6

    def test_small_sample_warns(self):
        rng = np.random.default_rng(3)
        with pytest.warns(UserWarning):
            normality_test(rng.normal(size=50), variance=1.0)

    def test_bad_variance_rejected(self):
        with pytest.raises(ValueError):
            normality_test(np.zeros(200), variance=0.0)


class TestCrosscheck:
    def test_agreement_at_small_box(self):
        cfg = replace(SMALL, n_list=(3.0,), realizations=3, points_per_unit=16,
                      eps_list=(0.1, 0.05))
        out = estimator_crosscheck(cfg)
        assert len(out["rows"]) == 3
        for row in out["rows"]:
            assert row["newton"] > 0
        assert out["median_rel_eps=0.05"] < 0.2

    def test_rows_carry_newton_failed_cells(self):
        cfg = replace(SMALL, n_list=(3.0,), realizations=2, points_per_unit=16,
                      eps_list=(0.1,))
        out = estimator_crosscheck(cfg)
        guard = out["torus"]["guard"]
        spec = field.GridSpec(m=2, half_width=3.0, points_per_unit=16, guard=guard)
        for row in out["rows"]:
            assert set(row) == {"seed", "newton", "failed_cells", "kacrice_eps=0.1"}
            cps = count_newton(field.synthesize(cfg.density, spec, row["seed"]),
                               ((-3.0, -3.0), (3.0, 3.0)))
            assert (row["newton"], row["failed_cells"]) == (cps.newton_count, cps.failed_cells)
            assert isinstance(row["failed_cells"], int)

    def test_wall_clock_stops_before_the_next_field(self, monkeypatch):
        made = []
        monkeypatch.setattr(experiments, "synthesize", lambda *args, **kw: made.append(args))
        cfg = replace(SMALL, n_list=(3.0,))
        with pytest.raises(BudgetError, match="after 0 of 8 realizations"):
            estimator_crosscheck(cfg, wall_clock=0.0)
        assert made == []

    def test_large_box_rejected(self, monkeypatch):
        # m = 3, N = 7 at 24 points per unit is a 500^3 torus: refused by the
        # jet-bytes budget alone, before the first field
        made = []
        monkeypatch.setattr(experiments, "synthesize", lambda *args, **kw: made.append(args))
        cfg = replace(SMALL, m=3, n_list=(7.0,), points_per_unit=24)
        with pytest.raises(ValueError, match="500\\^3 .* over the budget of 2 GiB"):
            estimator_crosscheck(cfg)
        assert made == []


class TestPersistence:
    def test_roundtrip(self, small_record, tmp_path):
        path = save_record(small_record, tmp_path / "run", variance_scaling(small_record))
        doc = json.loads(path.read_text())
        assert doc["config_digest"] == small_record.config_digest
        assert doc["m"] == 2
        assert doc["n_list"] == [3.0, 4.0]
        for n in SMALL.n_list:
            assert doc["failures"][str(n)] == 0
            csv_path = tmp_path / "run" / f"samples_N{n:g}.csv"
            assert csv_path.exists()
            lines = csv_path.read_text().strip().splitlines()
            assert len(lines) == 1 + SMALL.realizations
        assert (tmp_path / "run" / "variance.csv").exists()
