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
    for n, row in record.summary().items():
        v = table[n]
        print(
            f"{n:4g} {row['mean']:9.2f} {row['expected']:9.2f} "
            f"{v['V_N']:8.4f}  [{v['ci'][0]:.4f}, {v['ci'][1]:.4f}]"
        )
    print(f"plateau ratio V_12/V_6 = {table['plateau_ratio']:.3f}")

    n_top = record.n_list[-1]
    ks = normality_test(record.zeta_pooled[n_top], table[n_top]["V_N"])
    print(f"KS normality at N={n_top:g}: statistic {ks['statistic']:.4f}, "
          f"p = {ks['p_value']:.3f}")


if __name__ == "__main__":
    main()
