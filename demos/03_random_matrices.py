"""Invariant symmetric ensembles: exact formulas against Monte Carlo.

Shows the determinant identity that converts absolute-determinant averages
into one-point eigenvalue densities, the exact finite-n density against the
semicircle and a sampled histogram, and the determinant average over the
shifted GOE family.
"""

import math

import numpy as np

from critfield.randmat import (
    EnsembleParams,
    expect_absdet_S,
    expect_functional_mc,
    fyodorov_absdet,
    rho_one_point,
    sample_matrices,
    semicircle_density,
)


def main():
    print("=== absolute determinant of lam + GOE(v), formula vs MC ===")
    rng = np.random.default_rng(0)
    for m, v, lam in ((2, 0.5, 0.0), (2, 1.0, 1.0), (3, 0.5, 0.5)):
        g = rng.standard_normal((200_000, m, m))
        b = (g + np.swapaxes(g, 1, 2)) * math.sqrt(v / 2.0)
        mc = np.abs(np.linalg.det(lam * np.eye(m) + b)).mean()
        exact = fyodorov_absdet(m, v, lam)
        print(f"  m={m} v={v} lam={lam}:  exact {exact:.5f}   MC {mc:.5f}")

    print("\n=== E|det A| over the shifted ensemble S(m; 1, 1) ===")
    for m in (2, 3, 6):
        exact = expect_absdet_S(m, 1.0)
        params = EnsembleParams(m=m, u=1.0, v=1.0)
        mc = expect_functional_mc(params, ("absdet",), 200_000)["absdet"]
        print(f"  m={m}: exact {exact:.6f}   MC {mc['mean']:.6f} +- {mc['stderr']:.6f}")
    print(f"  (m = 2 in closed form: 4/sqrt(3) = {4.0 / math.sqrt(3.0):.6f})")

    print("\n=== exact one-point density vs sampled spectra and semicircle ===")
    n, v = 150, 1.0 / 150.0  # bulk variance n v = 1, edge at +-2
    eigs = np.linalg.eigvalsh(
        sample_matrices(EnsembleParams(m=n, u=0.0, v=v), 150, np.random.default_rng(1))
    ).ravel()
    edges = np.linspace(-2.2, 2.2, 12)
    hist, _ = np.histogram(eigs, bins=edges)
    sampled = hist / (len(eigs) * np.diff(edges))
    # bin averages of the densities, by the midpoint rule on 40 sub-intervals
    sub = edges[:-1, None] + (np.arange(40) + 0.5) / 40.0 * np.diff(edges)[:, None]
    exact = rho_one_point(n, v, sub).mean(axis=1)
    circle = semicircle_density(n * v, sub).mean(axis=1)
    print("  bin averages over [lo, hi):")
    for lo, hi, s, e, c in zip(edges[:-1], edges[1:], sampled, exact, circle):
        print(f"  [{lo:5.2f}, {hi:5.2f}):  sampled {s:.4f}   exact {e:.4f}   "
              f"semicircle {c:.4f}")


if __name__ == "__main__":
    main()
