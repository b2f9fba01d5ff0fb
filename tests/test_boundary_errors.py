"""Bad input fails at the boundary: each check raises its own error type and message."""

import os

import numpy as np
import pytest

from cdfpool import (
    BlpSpec,
    DensityUnavailable,
    DgpConfig,
    DomainViolation,
    EmptyInput,
    FiniteDiscrete,
    ForecastBatch,
    ForecastCase,
    Gaussian,
    GlpSpec,
    InvalidConfig,
    LengthMismatch,
    LinkFunction,
    Mixture,
    PitSample,
    SchemaError,
    TlpSpec,
    TooFewSamples,
    TwoPointBernoulli,
    WeightConstraintViolation,
    calibration_report,
    check_binary_calibration_equivalence,
    evaluate,
    fit_gaussian_component,
    fit_glp,
    fit_tlp,
    gaussian_cases_from_regressions,
    log_score,
    pit_sample,
    pool,
    slp_limit_variance,
    var_z_sigma,
)
from cdfpool.calibration import ks_statistic
from cdfpool.fitting import ComponentRegression
from cdfpool.io import atomic_write_text, write_dataset_csv
from cdfpool.pools import _PoolSpec
from cdfpool.sim import BINARY_PROBIT

_G = Gaussian(0.0, 1.0)
_CASE = ForecastCase((_G,), 0.0)
_REG = ComponentRegression(a=0.0, b=1.0, sigma=1.0)
_BLP = BlpSpec((0.5, 0.5), 1.0, 0.25)

# (call, error type, message): every call is rejected before any work is done
_REJECTED = {
    "pit-sample-lengths": (lambda: PitSample([0.5, 0.5], [0.5]), LengthMismatch,
                           "z and v must have equal length"),
    "var-z-sigma-zero": (lambda: var_z_sigma(0.0), ValueError, "strictly positive"),
    "ks-empty": (lambda: ks_statistic([]), EmptyInput, "empty sample"),
    "report-no-observations": (lambda: calibration_report(_G, [], 0), EmptyInput,
                               "no observations"),
    "discrete-lengths": (lambda: FiniteDiscrete((0.0, 1.0), (1.0,)), ValueError,
                         "atoms and masses must be nonempty and equally long"),
    "mixture-lengths": (lambda: Mixture((_G, _G), (1.0,)), ValueError,
                        "components and weights must be nonempty and equally long"),
    "mixture-negative-weight": (lambda: Mixture((_G, _G), (-0.5, 1.5)), ValueError,
                                "weights must be nonnegative"),
    "case-no-components": (lambda: ForecastCase((), 0.0), ValueError,
                           "a case needs at least one component forecast"),
    "batch-2d-outcomes": (lambda: ForecastBatch(np.zeros((2, 1)), (_G,)), LengthMismatch,
                          "the outcomes must be one-dimensional"),
    "batch-no-columns": (lambda: ForecastBatch([0.0, 1.0], ()), ValueError,
                         "a case needs at least one component forecast"),
    "from-cases-mixed-k": (lambda: ForecastBatch.from_cases([_CASE, ForecastCase((_G, _G), 0.0)]),
                           LengthMismatch, "all cases must have the same number of components"),
    "fit-empty": (lambda: fit_tlp([]), TooFewSamples, "empty training set"),
    "fit-atoms": (lambda: fit_tlp([ForecastCase((TwoPointBernoulli(0.3),), float(j % 2))
                                   for j in range(10)]),
                  DensityUnavailable, "fitting requires absolutely continuous components"),
    "regression-lengths": (lambda: fit_gaussian_component([0.0, 1.0, 2.0], [0.0, 1.0]),
                           LengthMismatch, "x and y must have equal length"),
    "regression-two-points": (lambda: fit_gaussian_component([0.0, 1.0], [0.0, 1.0]),
                              TooFewSamples, "need at least three points"),
    "cases-from-regressions-shape": (
        lambda: gaussian_cases_from_regressions(np.zeros((3, 2)), np.zeros(3), [_REG]),
        LengthMismatch, r"x_matrix must be \(n cases\) x \(k members\)"),
    "evaluate-empty": (lambda: evaluate(TlpSpec((1.0,)), []), TooFewSamples,
                       "empty evaluation set"),
    "glp-density-atom": (
        lambda: pool(GlpSpec((0.5, 0.5), LinkFunction.LOG), (_G, TwoPointBernoulli(0.3))
                     ).density(0.0),
        DensityUnavailable, "a pool component carries point masses"),
    "pool-base-spec": (lambda: pool(_PoolSpec((1.0,)), (_G,)), TypeError,
                       "unknown pool spec _PoolSpec"),
    "pool-non-spec": (lambda: pool("tlp", (_G,)), TypeError, "unknown pool spec str"),
    "slp-limit-discrete-f0": (lambda: slp_limit_variance(TwoPointBernoulli(0.3), (_G, _G),
                                                         (0.5, 0.5)),
                              DensityUnavailable, "the observation law must be continuous"),
    "slp-limit-weight-count": (lambda: slp_limit_variance(_G, (_G, _G), (1.0,)),
                               WeightConstraintViolation, "one weight per component is required"),
    "probit-dgp-sigma": (lambda: DgpConfig(BINARY_PROBIT, 10, 0, sigma1=0.0), InvalidConfig,
                         "sigma1 and sigma2 must be positive"),
    "dgp-negative-seed": (lambda: DgpConfig("regression", 5, -1), InvalidConfig,
                          "^seed must be a nonnegative integer, not -1$"),
    "dgp-float-seed": (lambda: DgpConfig("regression", 5, 1.5), InvalidConfig,
                       "^seed must be a nonnegative integer, not 1.5$"),
    "pit-sample-negative-seed": (lambda: pit_sample(_G, [0.0], -1), InvalidConfig,
                                 "^seed must be a nonnegative integer, not -1$"),
    "log-score-nan": (lambda: log_score(_G, np.array([0.0, np.nan, np.inf])), DomainViolation,
                      "^outcome 1 is not finite$"),
    "glp-spec-string-link": (lambda: GlpSpec((0.5, 0.5), "probit"), TypeError,
                             "^a link must be a LinkFunction, not str$"),
    "fit-glp-string-link": (lambda: fit_glp([_CASE, _CASE], "probit"), TypeError,
                            "^a link must be a LinkFunction, not str$"),
    "binary-equivalence-small-n": (lambda: check_binary_calibration_equivalence(9_999, 0),
                                   InvalidConfig, r"need n >= 10\^4"),
    # betaincinv rounds these levels to a base level of exactly 1
    "blp-quantile-past-the-base": (lambda: pool(_BLP, (_G, _G)).quantile(0.99995),
                                   DomainViolation, "^BetaTransformed quantile level 0.99995 "
                                                    "rounds to a base level of 0 or 1$"),
    "blp-sample-past-the-base": (
        lambda: pool(_BLP, (_G, _G)).sample(np.random.default_rng(0), 100_000),
        DomainViolation, r"^BetaTransformed quantile level 0\.9999\d* rounds to a base level"),
}


@pytest.mark.parametrize("call, error, message", _REJECTED.values(), ids=_REJECTED.keys())
def test_bad_input_is_rejected(call, error, message):
    with pytest.raises(error, match=message) as info:
        call()
    assert type(info.value) is error


@pytest.mark.parametrize("cases, message", [
    ([], "refusing to write an empty dataset"),
    ([_CASE, ForecastCase((_G, _G), 1.0)], "all cases must have the same number of components"),
], ids=["empty", "ragged"])
def test_a_dataset_that_cannot_be_written_leaves_no_file(tmp_path, cases, message):
    with pytest.raises(SchemaError, match=message):
        write_dataset_csv(str(tmp_path / "data.csv"), cases)
    assert not os.listdir(tmp_path)


def test_atomic_write_onto_a_directory_removes_its_temp_file(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(OSError):
        atomic_write_text(str(target), "text\n")
    assert os.listdir(tmp_path) == ["taken"]
    assert target.is_dir() and not os.listdir(target)
