"""Null recurrent diffusion family: simulation, drift estimation, limit laws.

The model is dX_t = (t1*f1 + sum t2_nu*f_{2,nu})(X_t) dt + sigma dW_t with
f1(x) = x/(1+x^2) and t1 inside (-sigma^2/2, sigma^2/2), observed on a long
time interval.  The package simulates paths, accumulates the sufficient
statistics of the drift likelihood, computes exact estimators and their
asymptotic constants, samples the Mittag-Leffler mixed-normal limit laws,
and runs the Monte Carlo experiments that confront one with the other.
"""

from .basis import DriftBasis, make_basis
from .errors import (
    DegenerateSampleError,
    DegenerateWindowError,
    NullrecError,
    ParameterDomainError,
    QuadratureError,
    SimulationDivergedError,
)
from .estimators import (
    EstimateResult,
    log_likelihood_ratio,
    mle,
    naive_estimator,
    one_step,
    restricted_mle,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    hill_estimator,
    ks_statistic,
    run_experiment,
)
from .limits import (
    LimitLawSpec,
    inv_sqrt_spd,
    sample_limit_error,
    sample_mittag_leffler,
    sample_stable,
)
from .model import (
    AsymptoticConstants,
    ModelSpec,
    ParamVector,
    antiderivative_F,
    asymptotic_constants,
    classify_recurrence,
    eval_drift,
    information_scale_matrix,
    invariant_density,
    mu_moment_matrix,
    norming,
    scale_function,
    scale_inverse,
)
from .simulate import (
    DiffusionPath,
    SufficientStats,
    accumulate_stats,
    run_ensemble,
    score_at,
    simulate_path,
)

__version__ = "0.1.0"
