"""Critical-point statistics of stationary Gaussian random fields.

Spectral densities and covariance jets, FFT field synthesis, critical-point
counting, Gaussian symmetric-matrix ensembles, the Hermite second-chaos
variance bound, and end-to-end CLT experiments.
"""

from .spectrum import (
    CovarianceJet,
    DivergentIntegralError,
    SpectralDensity,
    SpectralMoments,
    covariance_jet,
    nondegeneracy_ratio,
    spectral_moments,
)
from .field import FieldRealization, GridSpec, NyquistError, synthesize
from .critpoints import (
    CriticalPointSet,
    count_kacrice_smoothed,
    count_newton,
    expected_count,
)
from .randmat import (
    EnsembleParams,
    expect_absdet_S,
    expect_functional_mc,
    fyodorov_absdet,
    rho_one_point,
    sample_matrices,
    semicircle_density,
)
from .chaos import (
    Chaos2Geometry,
    chaos2_coefficients,
    diagram_pair_moments,
    invariant_gram,
    v2_infinity,
)
from .experiments import (
    ExperimentConfig,
    ExperimentRecord,
    estimator_crosscheck,
    normality_test,
    run_clt,
    variance_scaling,
)

__version__ = "0.1.0"
