import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import ndtr
from scipy.stats import ks_2samp

from cdfpool import (
    DgpConfig,
    Gaussian,
    InvalidConfig,
    Mixture,
    TwoPointBernoulli,
    check_binary_calibration_equivalence,
    check_linear_pool_overdispersion,
    check_quartet_classification,
    dispersion_report,
    ks_uniformity,
    pit_sample,
    simulate,
    ternary_exact_pit_law,
)
from cdfpool.calibration import NEUTRAL_PIT_VARIANCE, PitSample
from cdfpool.sim import (
    BINARY_PROBIT,
    FSIGMA,
    FORECASTER_QUARTET,
    REGRESSION,
    TERNARY,
    TERNARY_SCENARIOS,
)


class TestConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidConfig):
            DgpConfig(kind="nope", n=10, seed=0)

    def test_positive_n(self):
        with pytest.raises(InvalidConfig):
            DgpConfig(kind=REGRESSION, n=0, seed=0)

    def test_positive_sigma(self):
        with pytest.raises(InvalidConfig):
            DgpConfig(kind=FSIGMA, n=10, seed=0, sigma=0.0)


class TestRegression:
    def test_component_variances_follow_coefficients(self):
        res = simulate(DgpConfig(kind=REGRESSION, n=5, seed=1, a1=1.0, a2=1.0, a3=1.1))
        comps = res.cases[0].components
        expected = (1.0 + 1.0**2 + 1.1**2, 1.0 + 1.0**2 + 1.1**2, 1.0 + 1.0**2 + 1.0**2)
        for c, var in zip(comps, expected):
            assert c.variance() == pytest.approx(var, rel=1e-12)

    def test_components_are_probabilistically_calibrated(self):
        n = 100_000
        res = simulate(DgpConfig(kind=REGRESSION, n=n, seed=2))
        y = res.cases.y
        for i in range(3):
            mu = res.cases.components[i].mu[:, 0]
            sd = res.cases[0].components[i].sigma
            z = ndtr((y - mu) / sd)
            _, pval = ks_uniformity(z)
            assert pval > 0.01

    def test_observation_uses_all_covariates(self):
        res = simulate(DgpConfig(kind=REGRESSION, n=100, seed=3))
        lat = res.latents
        y = np.array([c.y for c in res.cases])
        rebuilt = lat["x0"] + 1.0 * lat["x1"] + 1.0 * lat["x2"] + 1.1 * lat["x3"] + lat["eps"]
        assert_allclose(y, rebuilt, rtol=0, atol=0)


class TestFsigma:
    def test_ideal_forecast_neutrally_dispersed(self):
        n = 100_000
        res = simulate(DgpConfig(kind=FSIGMA, n=n, seed=4, sigma=1.0))
        y = res.cases.y
        z = ndtr((y - res.latents["x"]) / 1.0)
        rep = dispersion_report(PitSample(z=z, v=np.full(n, 0.5)))
        assert abs(rep.pit_variance - NEUTRAL_PIT_VARIANCE) <= rep.ci_halfwidth

    def test_components_kind(self):
        res = simulate(DgpConfig(kind=FSIGMA, n=3, seed=5, sigma=0.7))
        assert all(isinstance(c.components[0], Gaussian) for c in res.cases)
        assert res.cases[0].components[0].sigma == 0.7


class TestBinaryProbit:
    def test_component_kinds_and_latents(self):
        res = simulate(DgpConfig(kind=BINARY_PROBIT, n=50, seed=6))
        assert all(isinstance(c.components[0], TwoPointBernoulli) for c in res.cases)
        assert set(res.latents) >= {"omega1", "omega2", "p1", "p2"}
        ys = {c.y for c in res.cases}
        assert ys <= {0.0, 1.0}


class TestQuartetSim:
    def test_component_structure(self):
        res = simulate(DgpConfig(kind=FORECASTER_QUARTET, n=5, seed=7))
        comps = res.cases[0].components
        assert isinstance(comps[0], Gaussian)
        assert isinstance(comps[1], Gaussian) and comps[1].mu == 0.0
        assert isinstance(comps[2], Mixture)
        assert isinstance(comps[3], Gaussian)
        assert comps[3].mu == -comps[0].mu


class TestTernary:
    def test_exact_pit_law_is_uniform(self):
        law = ternary_exact_pit_law()
        assert law.breakpoints == (0.0, 0.5, 0.75, 1.0)
        assert law.scenario_densities[0] == (1.5, 0.5, 0.5)
        assert law.scenario_densities[1] == (0.5, 1.5, 1.5)
        assert all(d == 1.0 for d in law.average_density)

    def test_forecast_misstates_conditional_law_in_each_scenario(self):
        for s in TERNARY_SCENARIOS:
            assert s.forecast_masses != s.outcome_probs

    def test_sampled_randomized_pit_is_uniform(self):
        n = 100_000
        res = simulate(DgpConfig(kind=TERNARY, n=n, seed=8))
        scen = res.latents["scenario"].astype(int)
        y = res.cases.y
        masses = np.array([s.forecast_masses for s in TERNARY_SCENARIOS])
        cums = np.concatenate([np.zeros((2, 1)), np.cumsum(masses, axis=1)], axis=1)
        idx = y.astype(int)
        rng = np.random.Generator(np.random.Philox(9))
        v = (rng.integers(0, 1 << 53, size=n) + 0.5) / float(1 << 53)
        left = cums[scen, idx]
        z = left + v * masses[scen, idx]
        _, pval = ks_uniformity(z)
        assert pval > 0.01

    def test_pit_sample_agrees_with_direct_formula(self):
        n = 2000
        res = simulate(DgpConfig(kind=TERNARY, n=n, seed=10))
        y = np.array([c.y for c in res.cases])
        s = pit_sample([c.components[0] for c in res.cases], y, rng_seed=11)
        scen = res.latents["scenario"].astype(int)
        masses = np.array([sc.forecast_masses for sc in TERNARY_SCENARIOS])
        cums = np.concatenate([np.zeros((2, 1)), np.cumsum(masses, axis=1)], axis=1)
        idx = y.astype(int)
        direct = cums[scen, idx] + s.v * masses[scen, idx]
        assert_allclose(s.z, direct, rtol=0, atol=1e-15)


class TestDeterminism:
    def test_same_seed_identical(self):
        a = simulate(DgpConfig(kind=REGRESSION, n=200, seed=42))
        b = simulate(DgpConfig(kind=REGRESSION, n=200, seed=42))
        assert_allclose([c.y for c in a.cases], [c.y for c in b.cases], rtol=0, atol=0)
        for key in a.latents:
            assert_allclose(a.latents[key], b.latents[key], rtol=0, atol=0)

    def test_different_seed_independent(self):
        n = 20_000
        a = simulate(DgpConfig(kind=FSIGMA, n=n, seed=1))
        b = simulate(DgpConfig(kind=FSIGMA, n=n, seed=2))
        ya = np.array([c.y for c in a.cases])
        yb = np.array([c.y for c in b.cases])
        za = ndtr((ya - a.latents["x"]))
        zb = ndtr((yb - b.latents["x"]))
        assert not np.allclose(ya, yb)
        assert ks_2samp(za, zb).pvalue > 0.01


class TestOverdispersionCheck:
    def test_equal_weight_pool_detectably_overdispersed(self):
        rep = check_linear_pool_overdispersion(100_000, seed=11)
        assert rep.passed
        assert rep.ci_hi < NEUTRAL_PIT_VARIANCE
        assert rep.pit_variance == pytest.approx(0.066, abs=0.01)
        for comp_var in rep.component_pit_variances:
            assert comp_var == pytest.approx(NEUTRAL_PIT_VARIANCE, abs=0.005)

    def test_degenerate_single_component_weight_is_neutral(self):
        rep = check_linear_pool_overdispersion(100_000, seed=12, weights=(1.0, 0.0, 0.0))
        assert not rep.passed
        assert rep.ci_lo <= NEUTRAL_PIT_VARIANCE <= rep.ci_hi

    def test_overdispersed_components_stay_overdispersed_for_all_weights(self):
        # observation standard normal; forecasters too wide (variance i+1)
        rng = np.random.default_rng(13)
        n = 100_000
        y = rng.standard_normal(n)
        k = 3
        z = np.stack([ndtr(y / np.sqrt(i + 2.0)) for i in range(k)], axis=1)
        weight_rng = np.random.default_rng(14)
        for _ in range(100):
            w = weight_rng.dirichlet(np.ones(k))
            assert np.var(z @ w, ddof=1) < NEUTRAL_PIT_VARIANCE

    def test_minimum_sample_size(self):
        with pytest.raises(InvalidConfig):
            check_linear_pool_overdispersion(100, seed=1)


class TestBinaryEquivalenceCheck:
    def test_unit_sigmas(self):
        rep = check_binary_calibration_equivalence(100_000, seed=3)
        assert rep.passed
        assert rep.ks_pvalue_calibrated > 0.01
        assert rep.reliability_dev_calibrated <= 3.0
        assert rep.ks_pvalue_miscalibrated < 0.01
        assert rep.reliability_dev_miscalibrated > 3.0
        assert rep.pooled_log_score > rep.linear_log_score

    def test_asymmetric_sigmas(self):
        rep = check_binary_calibration_equivalence(100_000, seed=4, sigma1=0.6,
                                                   sigma2=1.4)
        assert rep.passed


class TestQuartetCheck:
    def test_classification_matrix(self):
        rep = check_quartet_classification(100_000, seed=5)
        assert rep.matches_expected
        by_name = {r.name: r for r in rep.rows}
        assert by_name["perfect"].ks_pass and by_name["perfect"].marginal_pass
        assert by_name["climatological"].ks_pass and by_name["climatological"].marginal_pass
        assert by_name["unfocused"].ks_pass and not by_name["unfocused"].marginal_pass
        assert not by_name["sign_reversed"].ks_pass and by_name["sign_reversed"].marginal_pass
