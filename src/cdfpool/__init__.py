"""Combining predictive distributions via linear and nonlinear pools."""

from .calibration import (
    NEUTRAL_PIT_VARIANCE,
    CalibrationReport,
    DispersionReport,
    PitSample,
    calibration_report,
    dispersion_report,
    ks_uniformity,
    marginal_calibration_gap,
    pit_histogram,
    pit_sample,
    randomized_pit,
    reliability_bins,
    var_z_sigma,
)
from .distributions import (
    BetaTransformed,
    FiniteDiscrete,
    Gaussian,
    Mixture,
    PredictiveDist,
    SpreadAdjusted,
    TwoPointBernoulli,
    validate_cdf,
)
from .errors import (
    CdfPoolError,
    DegenerateDesign,
    DensityUnavailable,
    DomainViolation,
    EmptyInput,
    InvalidConfig,
    LengthMismatch,
    MedianUndefined,
    MomentUnavailable,
    SchemaError,
    TooFewSamples,
    WeightConstraintViolation,
)
from .fitting import (
    ComponentRegression,
    EvalReport,
    FitResult,
    ForecastBatch,
    ForecastCase,
    beta_log_moments,
    blp_objective_and_derivatives,
    evaluate,
    fit_blp,
    fit_gaussian_component,
    fit_glp,
    fit_slp,
    fit_tlp,
    gaussian_cases_from_regressions,
    log_score,
)
from .pools import (
    BlpSpec,
    GlpSpec,
    LinkFunction,
    PoolSpec,
    SlpSpec,
    TlpSpec,
    coherent_probit_pool,
    pool,
    slp_limit_variance,
    spec_from_params,
    spec_params,
)
from .sim import (
    DgpConfig,
    SimResult,
    check_binary_calibration_equivalence,
    check_linear_pool_overdispersion,
    check_quartet_classification,
    simulate,
    ternary_exact_pit_law,
)
from .study import reproduce_sim_study

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
