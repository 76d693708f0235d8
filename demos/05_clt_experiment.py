"""A small end-to-end counting experiment.

Counts critical points over replicated field realizations at growing window
sizes, checks the mean against the Kac-Rice formula, watches the normalized
variance plateau, and runs the normality test on the centered counts.

At demo scale (R = 60) everything is noisy; the acceptance suite runs the
same pipeline at R = 500.
"""

from critfield.experiments import (
    ExperimentConfig,
    normality_test,
    run_clt,
    variance_scaling,
)
from critfield.spectrum import SpectralDensity


def main():
    config = ExperimentConfig(
        density=SpectralDensity(family="gaussian", params=(1.0,)),
        m=2,
        n_list=(3.0, 6.0, 12.0),
        realizations=60,
        points_per_unit=8,
        master_seed=1,
        e_absdet_s1=2.30936836,
    )
    record = run_clt(config)
    print(f"config digest {record.config_digest}, wall time {record.wall_time:.1f}s")
    print(f"{'N':>4} {'mean':>9} {'expected':>9} {'V_N':>8}  bootstrap 95% CI")
    table = variance_scaling(record)
    # record.counts is level by replicate: row i holds Z_N at N = n_list[i]
    for n, z in zip(record.n_list, record.counts):
        v = table[n]
        print(
            f"{n:4g} {z.mean():9.2f} {record.c_m * (2 * n) ** record.m:9.2f} "
            f"{v['V_N']:8.4f}  [{v['ci'][0]:.4f}, {v['ci'][1]:.4f}]"
        )
    print(f"plateau ratio V_12/V_6 = {table['plateau_ratio']:.3f}")

    # zeta_N = (2N)^(-m/2) (Z_N - E[Z_N]), centred on the sample mean
    n_top, z = record.n_list[-1], record.counts[-1]
    ks = normality_test((z - z.mean()) / (2 * n_top) ** (record.m / 2), table[n_top]["V_N"])
    print(f"KS normality at N={n_top:g}: statistic {ks['statistic']:.4f}, "
          f"p = {ks['p_value']:.3f}")


if __name__ == "__main__":
    main()
