"""Second-chaos geometry of the absolute determinant.

Projects |det A| onto the invariant degree-two polynomials (centered trace
squares), with coefficients exact from the GOE one-point density, then
assembles the limiting second-chaos variance contribution V_2_inf for the
built-in densities: the quantity that keeps the counting CLT nondegenerate.
"""

from critfield.chaos import chaos2_coefficients, invariant_gram, v2_infinity
from critfield.spectrum import SpectralDensity, spectral_moments


def main():
    print("=== centered Gram of (pbar, qbar), closed form ===")
    for m, v in ((2, 1.0), (3, 1.0), (5, 0.5)):
        g = invariant_gram(m, v)
        print(f"  m={m} v={v}: [[{g[0,0]:.1f}, {g[0,1]:.1f}], [{g[1,0]:.1f}, {g[1,1]:.1f}]]")

    print("\n=== exact projection coefficients of |det A| ===")
    for m in (2, 3):
        geo = chaos2_coefficients(m, 1.0)
        print(f"  m={m}: f0={geo.f0:.6f}  x={geo.x:+.7f}  y={geo.y:+.7f}  z={geo.z:+.6f}")

    print("\n=== limiting second-chaos variance V_2_inf ===")
    for family, params in (("gaussian", (1.0,)), ("compact-bump", (1.0, 4.0))):
        w = SpectralDensity(family=family, params=params)
        for m in (2, 3):
            mom = spectral_moments(w, m)
            geo = chaos2_coefficients(m, mom.h)
            print(f"  {family} m={m}:  V_2_inf = {v2_infinity(w, m, geo):.5f}")


if __name__ == "__main__":
    main()
