"""Synthesize one field realization and count its critical points two ways.

Draws a stationary isotropic Gaussian field on a periodic grid, runs the
Newton polisher on every sign-change cell, then sweeps the smoothed
counting-measure estimator down an eps ladder to show the two estimators
converging on the same answer.
"""

import numpy as np

from critfield.critpoints import (
    count_kacrice_smoothed,
    count_newton,
    expected_count,
)
from critfield.field import synthesize, torus
from critfield.spectrum import SpectralDensity

E_ABSDET = 2.30936836  # E|det A| for the unit 2 x 2 symmetric ensemble


def main():
    w = SpectralDensity(family="gaussian", params=(1.0,))
    # the grid of [-5, 5]^2 with a margin where the covariance has decayed,
    # and the cutoff and band of the density on it
    grid = torus(w, 2, 5.0, 16)
    fr = synthesize(w, grid.spec, seed=7, cutoff=grid.cutoff, band=grid.band)
    box = ((-5.0, -5.0), (5.0, 5.0))

    cps = count_newton(fr, box)
    print(f"Newton count: {cps.newton_count}  (stalled cells: {cps.failed_cells})")
    sig = cps.signature_counts()
    print(f"Morse signature (negative eigenvalues -> count): {dict(sorted(sig.items()))}")

    ez = expected_count(w, 2, 10.0**2, E_ABSDET)
    print(f"Kac-Rice expectation for this box: {ez:.2f}")

    print("\nsmoothed estimator, eps ladder (refine grows as eps shrinks):")
    for eps, refine in ((0.2, 8), (0.1, 12), (0.05, 16), (0.025, 24)):
        val = count_kacrice_smoothed(fr, box, eps, refine=refine)
        rel = abs(val - cps.newton_count) / cps.newton_count
        print(f"  eps={eps:<6g} refine={refine:<3d} count={val:8.3f}  rel dev {rel:.3%}")


if __name__ == "__main__":
    main()
