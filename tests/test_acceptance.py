"""End-to-end acceptance checks for the whole package.

Thirteen numbered criteria, each printing one PASS/FAIL line (collected in
the terminal summary by conftest).  They range from exact-formula checks
(runtime well under a second) to full counting experiments shared through
session-scoped fixtures; the complete file runs in a few minutes.

Two criteria gate on corrected values and keep the printed ones on record:

  * criterion 2 takes its trace-moment targets from invariant_means and
    invariant_gram; the printed E[(tr A)^2 tr A^2] = 110 for the 2 x 2
    symmetric ensemble with u = v = 1 is wrong (Wick expansion gives 128),
    and the criterion asserts that Monte Carlo rejects it;
  * criterion 6 gates the exact large-m |det|-weighted averages (from the
    GOE one-point density) on asymptotic_targets_semicircle and reports
    their ratios to the printed constants (asymptotic_targets) alongside.
"""

import hashlib
import itertools
import math
import time

import numpy as np
import pytest

from critfield.chaos import (
    chaos2_coefficients,
    diagram_pair_moments,
    g_inner_products,
    invariant_gram,
    invariant_means,
    v2_infinity,
)
from critfield.experiments import (
    ExperimentConfig,
    estimator_crosscheck,
    normality_test,
    run_clt,
    variance_scaling,
)
from critfield.randmat import (
    EnsembleParams,
    asymptotic_targets,
    asymptotic_targets_semicircle,
    expect_absdet_S,
    expect_functional_mc,
    fyodorov_absdet,
    sample_matrices,
    semicircle_density,
)
from critfield.spectrum import (
    SpectralDensity,
    covariance_jet,
    nondegeneracy_ratio,
    spectral_moments,
)

# determinant average over the unit-variance symmetric ensemble in dim 2,
# frozen from a 1e7-sample antithetic Monte Carlo run (seed 20260826); the
# anchor of the clt_record sweep shared by criteria 9, 10 and 11
E_ABSDET_S21 = 2.30936836

GAUSS = SpectralDensity(family="gaussian", params=(1.0,))


@pytest.fixture(scope="session")
def clt_record():
    """One counting sweep shared by criteria 9, 10 and 11.

    m = 2, gaussian density, 500 replicates, each one field at N = 20 counted
    at N in {5, 10, 20}, mean formula anchored to the frozen determinant
    oracle.
    """
    config = ExperimentConfig(
        density=GAUSS,
        m=2,
        n_list=(5.0, 10.0, 20.0),
        realizations=500,
        points_per_unit=8,
        master_seed=20260826,
        e_absdet_s1=E_ABSDET_S21,
    )
    return run_clt(config)


def test_criterion_01_spectral_moments(criterion_report):
    worst = 0.0
    for m in (2, 3):
        mom = spectral_moments(GAUSS, m)
        # squared-exponential covariance: s = d = h = 1 exactly
        worst = max(worst, abs(mom.s - 1), abs(mom.d - 1), abs(mom.h - 1))
        jet = covariance_jet(GAUSS, m, np.zeros(m)).derivatives
        for alpha, val in jet.items():
            order = sum(alpha)
            if order % 2 == 1:
                expect = 0.0
            elif order == 0:
                expect = mom.s
            elif order == 2:
                expect = -mom.d if max(alpha) == 2 else 0.0
            else:  # order 4
                if max(alpha) == 4:
                    expect = 3.0 * mom.h
                elif sorted(a for a in alpha if a)[-2:] == [2, 2]:
                    expect = mom.h
                else:
                    expect = 0.0
            worst = max(worst, abs(val - expect))
    ok = worst <= 1e-6
    criterion_report(1, ok, f"gaussian moments and t=0 jet, worst dev {worst:.2e}")
    assert ok


def test_criterion_02_wick_closed_forms(criterion_report):
    params = EnsembleParams(m=2, u=1.0, v=1.0)
    # raw moment = Gram entry + product of means.  By hand for E[pq], with
    # T = a11 + a22: E[T^2 a11^2] = E[T^2] E[a11^2] + 2 cov(T, a11)^2
    # = 8 * 3 + 2 * 4^2 = 56 and E[T^2 a12^2] = 8, so E[pq] = 2*56 + 2*8 = 128
    ep, eq = invariant_means(2, 1.0)
    gram = invariant_gram(2, 1.0)
    targets = {
        "p": ep,
        "p2": gram[0, 0] + ep * ep,
        "pq": gram[0, 1] + ep * eq,
        "q2": gram[1, 1] + eq * eq,
    }
    printed_pq = 110.0  # printed reference value for E[pq]
    est = expect_functional_mc(params, tuple(targets), 1_000_000, seed=2)
    z = {f: abs(est[f]["mean"] - t) / est[f]["stderr"] for f, t in targets.items()}
    z_printed = abs(est["pq"]["mean"] - printed_pq) / est["pq"]["stderr"]
    ok = max(z.values()) <= 3.0 and z_printed > 10.0
    detail = ", ".join(
        f"{f}: target {t:g}, MC {est[f]['mean']:.2f} ({z[f]:.1f} sigma)"
        for f, t in targets.items()
    ) + f"; printed pq {printed_pq:g} rejected at {z_printed:.1f} sigma"
    criterion_report(2, ok, detail)
    assert ok, detail


def test_criterion_03_nondegeneracy_determinant(criterion_report):
    s, d, h = 1.3, 0.7, 0.9
    worst = 0.0
    for m in range(2, 9):
        # covariance of (X, d^2_11 X, ..., d^2_mm X) at a point
        r = np.full((m + 1, m + 1), h)
        r[0, 0] = s
        r[0, 1:] = r[1:, 0] = -d
        r[np.arange(1, m + 1), np.arange(1, m + 1)] = 3.0 * h
        closed = (2.0 * h) ** (m - 1) * ((m + 2) * h * s - m * d**2)
        worst = max(worst, abs(np.linalg.det(r) - closed) / abs(closed))
    gauss_ok = True
    for m in (2, 3):
        info = nondegeneracy_ratio(spectral_moments(GAUSS, m))
        gauss_ok &= info["nondegenerate"]
        gauss_ok &= abs(info["ratio"] - 1.0) <= 1e-6
        gauss_ok &= abs(info["ratio"] - m / (m + 2)) > 0.1
    ok = worst <= 1e-10 and gauss_ok
    criterion_report(
        3, ok, f"closed-form det vs dense, m = 2..8, worst rel {worst:.2e}"
    )
    assert ok


def test_criterion_04_fyodorov_identity(criterion_report):
    worst_z = 0.0
    rng = np.random.default_rng(4)
    for m, v in itertools.product((2, 3), (0.5, 1.0)):
        g = rng.standard_normal((1_000_000, m, m))
        b = (g + np.swapaxes(g, 1, 2)) * math.sqrt(v / 2.0)
        for lam in (0.0, 0.5, 1.0, 2.0):
            vals = np.abs(np.linalg.det(lam * np.eye(m) + b))
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            z = abs(fyodorov_absdet(m, v, lam) - vals.mean()) / se
            worst_z = max(worst_z, z)
    ok = worst_z <= 3.0
    criterion_report(
        4, ok, f"|det(lam + B)| formula vs MC, 16 cases, worst {worst_z:.1f} sigma"
    )
    assert ok


def test_criterion_05_semicircle(criterion_report):
    n, v = 200, 1.0 / 200.0  # bulk variance n v = 1, edge at +-2
    rng = np.random.default_rng(5)
    eigs = np.concatenate(
        [
            np.linalg.eigvalsh(a)
            for a in sample_matrices(EnsembleParams(m=n, u=0.0, v=v), 300, rng)
        ]
    )
    edges = np.linspace(-1.6, 1.6, 33)
    hist, _ = np.histogram(eigs, bins=edges, density=True)
    # histogram is conditioned on the bulk window; undo that normalization
    hist = hist * np.mean((eigs >= -1.6) & (eigs < 1.6))
    centers = 0.5 * (edges[:-1] + edges[1:])
    sup = float(np.max(np.abs(hist - semicircle_density(n * v, centers))))
    ok = sup <= 0.05
    criterion_report(5, ok, f"n = 200 bulk histogram, sup deviation {sup:.4f}")
    assert ok


def test_criterion_06_appendix_asymptotics(criterion_report):
    ratios, printed = {}, {}
    for m in (6, 20):
        # exact E[f], E[p f], E[q f] over S(m; 1/2, 1/2)
        geo = chaos2_coefficients(m, 0.5)
        ep, eq = invariant_means(m, 0.5)
        exact = {"E_f": geo.f0, "E_pf": geo.rhs[0] + ep * geo.f0,
                 "E_qf": geo.rhs[1] + eq * geo.f0}
        targets = asymptotic_targets_semicircle(m)
        printed_targets = asymptotic_targets(m)
        ratios[m] = [exact[key] / targets[key] for key in exact]
        printed[m] = [exact[key] / printed_targets[key] for key in exact]
    band = {m: max(r) - min(r) for m, r in ratios.items()}
    in_band = all(0.8 <= r <= 1.2 for r in ratios[20])
    ok = in_band and band[20] < band[6]
    detail = (
        "exact/prediction at m = 20: "
        + ", ".join(f"{r:.3f}" for r in ratios[20])
        + f"; band m20 {band[20]:.3f} vs m6 {band[6]:.3f}"
        + "; exact/printed at m = 20: "
        + ", ".join(f"{r:.3f}" for r in printed[20])
    )
    criterion_report(6, ok, detail)
    assert ok, detail


def test_criterion_07_diagram_identities(criterion_report):
    rng = np.random.default_rng(7)
    worst_z = 0.0
    for _ in range(5):
        g = rng.standard_normal((4, 4))
        cov = g @ g.T + 0.5 * np.eye(4)
        scale = np.sqrt(np.diag(cov))
        c = cov / np.outer(scale, scale)
        x = rng.multivariate_normal(np.zeros(4), c, size=400_000)
        h1 = x
        h2 = x**2 - 1.0
        products = {
            "H1H1": h1[:, 0] * h1[:, 1],
            "H2H2": h2[:, 0] * h2[:, 1],
            "H2H1H1": h2[:, 0] * h1[:, 1] * h1[:, 2],
            "H1H1H1H1": h1[:, 0] * h1[:, 1] * h1[:, 2] * h1[:, 3],
        }
        for pattern, vals in products.items():
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            z = abs(vals.mean() - diagram_pair_moments(c, pattern)) / se
            worst_z = max(worst_z, z)
    ok = worst_z <= 3.0
    criterion_report(
        7, ok, f"4 Hermite patterns x 5 random correlations, worst {worst_z:.1f} sigma"
    )
    assert ok


def _time_domain_pair_integrals(w: SpectralDensity, m: int) -> np.ndarray:
    """4 x 4 matrix of integral E[F_i(0) F_j(t)] dt for the second-chaos
    component processes, by Gauss-Legendre quadrature of the lag-t Hermite
    diagram formulas built from the covariance jet."""
    mom = spectral_moments(w, m)
    d, h = mom.d, mom.h
    pairs = [(j, k) for j in range(m) for k in range(j + 1, m)]

    def unit(i):
        a = [0] * m
        a[i] = 1
        return tuple(a)

    def key(*idx):
        a = [0] * m
        for i in idx:
            a[i] += 1
        return tuple(a)

    def pair_expectations(t):
        jet = covariance_jet(w, m, t).derivatives
        # cross-lag correlations of the normalized gradient and Hessian
        # entries; odd derivative orders of C pick up one sign flip
        c_uu = np.array(
            [[-jet[key(i, j)] / d for j in range(m)] for i in range(m)]
        )
        c_ud = np.array(
            [[-jet[key(i, j, j)] / math.sqrt(3.0 * d * h) for j in range(m)]
             for i in range(m)]
        )
        c_uo = np.array(
            [[-jet[key(i, j, k)] / math.sqrt(d * h) for (j, k) in pairs]
             for i in range(m)]
        )
        c_dd = np.array(
            [[jet[key(i, i, j, j)] / (3.0 * h) for j in range(m)]
             for i in range(m)]
        )
        c_do = np.array(
            [[jet[key(i, i, j, k)] / (math.sqrt(3.0) * h) for (j, k) in pairs]
             for i in range(m)]
        )
        c_oo = np.array(
            [[jet[key(i, j, k, el)] / h for (k, el) in pairs]
             for (i, j) in pairs]
        )
        out = np.empty((4, 4))
        out[0, 0] = 2.0 * np.sum(c_uu**2)
        out[0, 1] = out[1, 0] = 2.0 * np.sum(c_ud**2)
        out[0, 2] = out[2, 0] = 2.0 * np.sum(c_uo**2)
        out[1, 1] = 2.0 * np.sum(c_dd**2)
        out[1, 2] = out[2, 1] = 2.0 * np.sum(c_do**2)
        out[2, 2] = 2.0 * np.sum(c_oo**2)
        f03 = f13 = f23 = f33 = 0.0
        for (j, k) in pairs:
            f03 += 2.0 * np.sum(c_ud[:, j] * c_ud[:, k])
            f13 += 2.0 * np.sum(c_dd[:, j] * c_dd[:, k])
        c_od = np.array(
            [[jet[key(i, j, k, k)] / (math.sqrt(3.0) * h) for k in range(m)]
             for (i, j) in pairs]
        )
        for a in range(len(pairs)):
            for (k, el) in pairs:
                f23 += 2.0 * c_od[a, k] * c_od[a, el]
        for (i, j) in pairs:
            for (k, el) in pairs:
                f33 += c_dd[i, k] * c_dd[j, el] + c_dd[i, el] * c_dd[j, k]
        out[0, 3] = out[3, 0] = f03
        out[1, 3] = out[3, 1] = f13
        out[2, 3] = out[3, 2] = f23
        out[3, 3] = f33
        return out

    half = 6.0  # integrands decay like exp(-|t|^2) for the gaussian density
    nodes, weights = np.polynomial.legendre.leggauss(60)
    x = half * nodes
    wx = half * weights
    total = np.zeros((4, 4))
    for a, ta in enumerate(x):
        for b, tb in enumerate(x):
            total += wx[a] * wx[b] * pair_expectations(np.array([ta, tb]))
    return total


def test_criterion_08_parseval_bridge(criterion_report):
    time_domain = _time_domain_pair_integrals(GAUSS, 2)
    freq_domain = g_inner_products(GAUSS, 2)
    rel = float(np.max(np.abs(time_domain - freq_domain) / np.abs(freq_domain)))
    ok = rel <= 1e-3
    criterion_report(
        8, ok, f"time vs frequency domain, all 16 pairs, worst rel {rel:.2e}"
    )
    assert ok


def test_criterion_09_second_chaos_floor(criterion_report, clt_record):
    v2 = {}
    for family, params in (("gaussian", (1.0,)), ("compact-bump", (1.0, 4.0))):
        w = SpectralDensity(family=family, params=params)
        for m in (2, 3):
            mom = spectral_moments(w, m)
            geo = chaos2_coefficients(m, mom.h)
            v2[(family, m)] = v2_infinity(w, m, geo)
    positive = all(val > 0.0 for val in v2.values())
    table = variance_scaling(clt_record)
    n_top = clt_record.n_list[-1]
    vn = table[n_top]["V_N"]
    floor = v2[("gaussian", 2)] - 3.0 * table[n_top]["bootstrap_se"]
    ok = positive and vn >= floor
    criterion_report(
        9,
        ok,
        f"V2inf > 0 for all built-ins; V_{n_top:g} = {vn:.4f} vs floor {floor:.4f}",
    )
    assert ok


def test_criterion_10_mean_formula(criterion_report, clt_record):
    z = clt_record.counts[clt_record.n_list.index(10.0)][:200]
    density = (2.0 * 10.0) ** 2
    mean = z.mean() / density
    stderr = z.std(ddof=1) / (math.sqrt(len(z)) * density)
    c2 = expect_absdet_S(2, 1.0) / (2.0 * math.pi)  # exact: 4 / sqrt(3) / (2 pi)
    z_score = abs(mean - c2) / stderr
    ok = z_score <= 3.0
    criterion_report(
        10, ok, f"mean(Z)/(2N)^2 = {mean:.5f} vs C_2 = {c2:.5f} ({z_score:.1f} sigma)"
    )
    assert ok


def test_criterion_11_variance_plateau_and_normality(criterion_report, clt_record):
    table = variance_scaling(clt_record)
    ratio = table["plateau_ratio"]
    z = clt_record.counts[clt_record.n_list.index(20.0)]
    zeta = (z - z.mean()) / (2.0 * 20.0) ** (2 / 2.0)
    ks = normality_test(zeta, table[20.0]["V_N"])
    ok = 0.8 <= ratio <= 1.25 and ks["p_value"] > 0.01
    lo, hi = table["plateau_ci"]
    criterion_report(
        11,
        ok,
        f"V_20/V_10 = {ratio:.3f} (paired 95% CI [{lo:.3f}, {hi:.3f}]), "
        f"KS p = {ks['p_value']:.3f} (R = {ks['n']})",
    )
    assert ok


def test_criterion_12_estimator_agreement(criterion_report):
    config = ExperimentConfig(
        density=GAUSS,
        m=2,
        n_list=(5.0,),
        realizations=50,
        points_per_unit=64,
        master_seed=20260826,
        eps_list=(0.1, 0.05, 0.025),
    )
    out = estimator_crosscheck(config)
    median = out["median_rel_eps=0.025"]
    ok = median <= 0.02
    criterion_report(
        12, ok, f"smoothed vs Newton over 50 fields, median rel {median:.4f}"
    )
    assert ok


def test_criterion_13_determinism(criterion_report):
    config = ExperimentConfig(
        density=GAUSS,
        m=2,
        n_list=(3.0,),
        realizations=6,
        points_per_unit=8,
        master_seed=13,
    )

    def run_hash():
        record = run_clt(config)
        blob = record.config_digest.encode()
        for n, z in zip(record.n_list, record.counts):
            blob += z.tobytes()
            blob += ((z - record.c_m * (2.0 * n) ** 2) / (2.0 * n) ** (2 / 2.0)).tobytes()
        return hashlib.sha256(blob).hexdigest()

    first, second = run_hash(), run_hash()
    ok = first == second
    criterion_report(13, ok, f"repeated run hash {first[:12]}... identical: {ok}")
    assert ok
