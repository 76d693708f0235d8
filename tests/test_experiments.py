import itertools
import json
import math
import os
import re
import time
import types
import warnings
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

from critfield import critpoints, experiments, field
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


def _stub_points(inner: int):
    """A Newton count for SMALL's cube [-4, 4)^2: ``inner`` points at the
    origin and 1000 at (3.5, 0), so Z_3 = inner and Z_4 = inner + 1000."""
    x = np.array([[0.0, 0.0]] * inner + [[3.5, 0.0]] * 1000)
    return types.SimpleNamespace(locations=x, newton_count=len(x), failed_cells=0)


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

        monkeypatch.setattr(field, "spectral_cutoff", spy)
        small = replace(SMALL, realizations=3)
        run_clt(small)
        assert len(calls) == 1

    def test_band_once_per_sweep(self, monkeypatch):
        calls, derive = [], field.spectral_band

        def spy(*args):
            calls.append(args)
            return derive(*args)

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
        assert made == []

    def test_wall_clock_stops_between_realizations(self, monkeypatch, one_cpu):
        # each clock reading is one second after the last: the start, then
        # one reading before each realization
        clock = itertools.count()
        monkeypatch.setattr(experiments, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))
        done = []
        monkeypatch.setattr(experiments, "synthesize", lambda *args, **kw: done.append(args))
        monkeypatch.setattr(experiments, "count_newton", lambda fr, box: _stub_points(0))
        with pytest.raises(BudgetError, match="after 3 of 8 realizations"):
            run_clt(SMALL, wall_clock=3.5)
        assert len(done) == 3

    def test_failed_replicate_dropped_from_every_level(self, monkeypatch, one_cpu):
        # a stub count per replicate: level k reads seed % 100 + 1000 k, so
        # paired rows differ by exactly 1000
        seeds = []

        def flaky(fr, box):
            seeds.append(fr.seed)
            if len(seeds) == 2:  # 7 unresolved cells and no point: over the 5% rule
                return types.SimpleNamespace(
                    locations=np.empty((0, 2)), newton_count=0, failed_cells=7
                )
            return _stub_points(fr.seed % 100)

        monkeypatch.setattr(
            experiments, "synthesize", lambda w, spec, seed, **kw: types.SimpleNamespace(seed=seed)
        )
        monkeypatch.setattr(experiments, "count_newton", flaky)
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
    def test_sub_box_equals_direct_count(self, monkeypatch, m, n_list, seed):
        # run_clt's one field per replicate, counted on the largest cube;
        # each Z_N must equal a direct count of that field on [-N, N)^m
        made, synth = [], experiments.synthesize

        def spy(*args, **kw):
            made.append(synth(*args, **kw))
            return made[-1]

        monkeypatch.setattr(experiments, "synthesize", spy)
        record = run_clt(replace(SMALL, m=m, n_list=n_list, realizations=1, master_seed=seed))
        (fr,) = made
        top = count_newton(fr, ((-n_list[-1],) * m, (n_list[-1],) * m))
        for n, z in zip(n_list, record.counts[:, 0]):
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

    def test_one_field_per_replicate(self, monkeypatch, one_cpu):
        made, synth = [], experiments.synthesize

        def spy(w, spec, **kw):
            made.append((spec.half_width, kw["order"]))
            return synth(w, spec, **kw)

        monkeypatch.setattr(experiments, "synthesize", spy)
        cfg = replace(SMALL, n_list=(2.0, 3.0, 4.0), realizations=3)
        run_clt(cfg)
        # each field is the 1-jet, all that Newton reads
        assert made == [(4.0, 1)] * 3


def _seeds(cfg: ExperimentConfig, key: int) -> list[int]:
    """The replicate seeds of a sweep of ``cfg`` under stream ``key``."""
    streams = np.random.SeedSequence((cfg.master_seed, key)).spawn(cfg.realizations)
    return [int(ss.generate_state(1)[0]) for ss in streams]


def _stub_fields(monkeypatch):
    monkeypatch.setattr(
        experiments, "synthesize", lambda w, spec, seed, **kw: types.SimpleNamespace(seed=seed)
    )


class TestWorkers:
    """A sweep's replicates run on one pinned worker per CPU of the affinity
    set; the results do not depend on how many there are."""

    def test_run_clt_same_with_one_and_two_workers(self, pinned):
        cfg = replace(SMALL, realizations=6, master_seed=5)
        with pinned(1):
            one = run_clt(cfg)
        with pinned(2):
            two = run_clt(cfg)
        np.testing.assert_array_equal(one.counts, two.counts)
        assert (one.failures, one.flags, one.c_m) == (two.failures, two.flags, two.c_m)
        # the largest worker's peak, read once the pool is shut down; none
        # in-process
        assert one.peak_rss_mb["largest_worker"] is None
        assert two.peak_rss_mb["largest_worker"] > 0
        assert one.peak_rss_mb["process"] > 0 and two.peak_rss_mb["process"] > 0

    def test_crosscheck_same_with_one_and_two_workers(self, pinned):
        cfg = replace(SMALL, n_list=(3.0,), realizations=3, points_per_unit=16,
                      eps_list=(0.1, 0.05))
        with pinned(1):
            one = estimator_crosscheck(cfg)
        with pinned(2):
            two = estimator_crosscheck(cfg)
        assert one["rows"] == two["rows"]

    def test_each_worker_pinned_to_its_own_cpu(self, monkeypatch, two_cpus):
        _stub_fields(monkeypatch)

        def where(j, fr, box):
            time.sleep(0.1)  # long enough that both workers take replicates
            return os.getpid(), frozenset(os.sched_getaffinity(0))

        grid = field.torus(SMALL.density, SMALL.m, 3.0, SMALL.points_per_unit)
        out, _, rss = experiments._sweep(replace(SMALL, realizations=6), grid, 0, None, where, 1)
        pinned = dict(out)
        assert os.getpid() not in pinned
        assert len(pinned) == 2
        assert all(len(cpus) == 1 for cpus in pinned.values())
        assert sorted(min(cpus) for cpus in pinned.values()) == two_cpus
        assert rss["largest_worker"] > 0

    def test_large_torus_runs_one_worker(self, two_cpus):
        # a jet over half the budget leaves room for one field at a time
        small = field.GridSpec(m=2, half_width=3.0, points_per_unit=8, guard=7.375)
        large = field.GridSpec(m=2, half_width=25.0, points_per_unit=64, guard=8.0)
        assert 2 * field._jet_bytes(2, large.n_per_side) > field._MAX_JET_BYTES
        assert experiments._worker_cpus(small, 10) == two_cpus
        assert experiments._worker_cpus(small, 1) == two_cpus[:1]
        assert experiments._worker_cpus(large, 10) == two_cpus[:1]

    def test_failed_replicate_flag_comes_back_from_its_worker(self, monkeypatch, two_cpus):
        # as test_failed_replicate_dropped_from_every_level, with the stub
        # failing by seed since its calls are made in the workers
        cfg = replace(SMALL, realizations=30)
        seeds = _seeds(cfg, 1)

        def flaky(fr, box):
            if fr.seed == seeds[1]:
                return types.SimpleNamespace(
                    locations=np.empty((0, 2)), newton_count=0, failed_cells=7
                )
            return _stub_points(fr.seed % 100)

        _stub_fields(monkeypatch)
        monkeypatch.setattr(experiments, "count_newton", flaky)
        with pytest.raises(RuntimeError, match="1/3 replicates failed"):
            run_clt(replace(cfg, realizations=3))
        record = run_clt(cfg)
        kept = [s % 100 for i, s in enumerate(seeds) if i != 1]
        for k, z in enumerate(record.counts):
            np.testing.assert_array_equal(z, np.array(kept) + 1000 * k)
        assert record.failures == 1
        assert record.flags == [f"replicate 1 (seed {seeds[1]}) failed (7 unresolved cells)"]

    def test_wall_clock_stops_each_worker_before_its_next_field(
        self, monkeypatch, tmp_path, two_cpus
    ):
        # every field takes 1 s against a 0.5 s budget: the workers start
        # replicates 0 and 1 and refuse the rest; the file holds one line per
        # field started, in whichever worker
        started = tmp_path / "started"

        def slow(w, spec, seed, **kw):
            with open(started, "a") as fh:
                fh.write(f"{seed}\n")
            time.sleep(1.0)
            return types.SimpleNamespace(seed=seed)

        monkeypatch.setattr(experiments, "synthesize", slow)
        monkeypatch.setattr(experiments, "count_newton", lambda fr, box: _stub_points(0))
        with pytest.raises(BudgetError, match="after [12] of 8 realizations") as err:
            run_clt(SMALL, wall_clock=0.5)
        j = int(re.search(r"after (\d) of", str(err.value)).group(1))
        assert sorted(started.read_text().split()) == sorted(map(str, _seeds(SMALL, 1)[:j]))

    def test_dead_worker_ends_the_sweep(self, monkeypatch, two_cpus):
        seeds, parent = _seeds(SMALL, 1), os.getpid()

        def die(fr, box):
            assert os.getpid() != parent
            if fr.seed == seeds[1]:
                os._exit(1)
            return _stub_points(0)

        _stub_fields(monkeypatch)
        monkeypatch.setattr(experiments, "count_newton", die)
        with pytest.raises(BrokenProcessPool):
            run_clt(SMALL)


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

    def test_hessian_scale_once_per_field(self, monkeypatch, one_cpu):
        # Newton's degeneracy tolerance reads it; the smoothed counter takes
        # its resolvability floor from the h00 it slices anyway
        seeds, hess_scale = [], critpoints._hess_scale

        def spy(fr):
            seeds.append(fr.seed)
            return hess_scale(fr)

        monkeypatch.setattr(critpoints, "_hess_scale", spy)
        cfg = replace(SMALL, n_list=(3.0,), realizations=2, eps_list=(0.1,))
        out = estimator_crosscheck(cfg)
        assert seeds == [row["seed"] for row in out["rows"]]

    @staticmethod
    def _warning_fields(monkeypatch, warning):
        """Stub fields and Newton counts, and a smoothed count that warns."""
        monkeypatch.setattr(experiments, "synthesize",
                            lambda w, spec, seed, **kw: types.SimpleNamespace(seed=seed))
        monkeypatch.setattr(experiments, "count_newton", lambda fr, box: _stub_points(0))

        def smoothed(fr, box, eps):
            warnings.warn(warning, stacklevel=2)
            return [1000.0] * len(eps)

        monkeypatch.setattr(experiments, "count_kacrice_smoothed", smoothed)
        return replace(SMALL, n_list=(3.0,), realizations=2)

    def test_numerical_warning_of_smoothed_count_propagates(self, monkeypatch, one_cpu):
        cfg = self._warning_fields(
            monkeypatch, RuntimeWarning("overflow encountered in multiply"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="overflow"):
                estimator_crosscheck(cfg)

    def test_resolvability_warning_stays_silent(self, monkeypatch, one_cpu):
        cfg = self._warning_fields(monkeypatch, UserWarning(
            "eps = 0.0125 is below the refined-grid resolvability scale ~0.0201; "
            "the smoothed count may miss cells"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = estimator_crosscheck(cfg)
        assert [row["kacrice_eps=0.0125"] for row in out["rows"]] == [1000.0, 1000.0]

    def test_wall_clock_stops_before_the_next_field(self, monkeypatch, one_cpu):
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
        assert doc["peak_rss_mb"] == small_record.peak_rss_mb
        assert set(doc["peak_rss_mb"]) == {"process", "largest_worker"}
        assert doc["n_list"] == [3.0, 4.0]
        for n in SMALL.n_list:
            assert doc["failures"][str(n)] == 0
            csv_path = tmp_path / "run" / f"samples_N{n:g}.csv"
            assert csv_path.exists()
            lines = csv_path.read_text().strip().splitlines()
            assert len(lines) == 1 + SMALL.realizations
        assert (tmp_path / "run" / "variance.csv").exists()
