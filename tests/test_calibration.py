import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import cdfpool.calibration
from cdfpool import (
    BetaTransformed,
    DomainViolation,
    EmptyInput,
    FiniteDiscrete,
    Gaussian,
    GlpSpec,
    InvalidConfig,
    LengthMismatch,
    LinkFunction,
    Mixture,
    PitSample,
    PredictiveDist,
    SlpSpec,
    SpreadAdjusted,
    TlpSpec,
    TooFewSamples,
    TwoPointBernoulli,
    dispersion_report,
    ks_uniformity,
    marginal_calibration_gap,
    pit_histogram,
    pit_sample,
    pool,
    randomized_pit,
    reliability_bins,
    var_z_sigma,
)
from cdfpool.distributions import _build, stack
from cdfpool.calibration import (
    NEUTRAL_PIT_VARIANCE,
    NEUTRALLY_DISPERSED,
    OVERDISPERSED,
    UNDERDISPERSED,
)


class TestRandomizedPit:
    def test_continuous_point_ignores_v(self):
        assert randomized_pit(Gaussian(0, 1), 0.0, 0.77) == 0.5

    def test_atom_interpolates(self):
        assert randomized_pit(TwoPointBernoulli(0.3), 0.0, 0.5) == pytest.approx(0.15)
        assert randomized_pit(TwoPointBernoulli(0.3), 1.0, 0.5) == pytest.approx(0.65)

    def test_v_domain(self):
        with pytest.raises(ValueError):
            randomized_pit(Gaussian(0, 1), 0.0, 0.0)

    @pytest.mark.parametrize("y", [np.nan, np.inf, -np.inf])
    def test_non_finite_observation_is_a_domain_violation(self, y):
        with pytest.raises(DomainViolation, match="not finite"):
            randomized_pit(Gaussian(0, 1), y, 0.5)

    def test_a_cdf_rounding_past_one_is_clipped(self):
        # the spec accepts weights summing to 1 within 1e-12, so the CDF tops out at 1 + 1e-13
        d = pool(TlpSpec((0.5, 0.5 + 1e-13)), (Gaussian(0, 1), Gaussian(1, 1)))
        assert d.cdf(100.0) > 1.0
        assert randomized_pit(d, 100.0, 0.5) == 1.0


class TestPitSample:
    def test_ideal_forecast_is_neutrally_dispersed(self):
        rng = np.random.default_rng(1)
        n = 1000
        x = rng.standard_normal(n)
        y = x + rng.standard_normal(n)
        forecasts = [Gaussian(x[j], 1.0) for j in range(n)]
        s = pit_sample(forecasts, y, rng_seed=7)
        var = np.var(s.z, ddof=1)
        # MC standard error of the variance estimate for a uniform sample
        se = np.sqrt((1 / 80 - (1 / 12) ** 2) / n)
        assert abs(var - NEUTRAL_PIT_VARIANCE) < 3 * se

    def test_nan_pit_value_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            PitSample(z=[np.nan, 0.5, 0.2], v=[0.5, 0.5, 0.5])

    def test_tight_wrong_forecasts_pin_pit_to_ends(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal(50)
        forecasts = [Gaussian(5.0 * (-1) ** j, 1e-4) for j in range(50)]
        s = pit_sample(forecasts, y, rng_seed=3)
        assert np.all((s.z < 1e-6) | (s.z > 1 - 1e-6))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pit_sample([Gaussian(0, 1)], [0.0, 1.0], rng_seed=0)

    def test_empty_forecast_list_is_a_length_mismatch(self):
        with pytest.raises(LengthMismatch, match="0 forecasts paired with 2 observations"):
            pit_sample([], [0.0, 1.0], rng_seed=0)

    def test_non_finite_observation_rejected(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal(50)
        y[17] = np.nan
        forecasts = [pool(TlpSpec((0.5, 0.5)), (Gaussian(0, 1), Gaussian(1, 2)))] * 50
        with pytest.raises(DomainViolation, match="observation 17"):
            pit_sample(forecasts, y, rng_seed=0)

    def test_a_cdf_rounding_past_one_is_clipped(self):
        d = pool(TlpSpec((0.5, 0.5 + 1e-13)), (Gaussian(0, 1), Gaussian(1, 1)))
        s = pit_sample([d] * 2, [100.0, 3.0], 0)
        assert s.z[0] == 1.0
        assert s.z[1] == randomized_pit(d, 3.0, s.v[1]) < 1.0

    def test_non_finite_pit_names_the_case(self):
        forecasts = Gaussian._stacked(np.array([[0.0], [1.0], [np.nan]]), np.ones((3, 1)))
        with pytest.raises(DomainViolation, match="PIT of case 2 is not finite"):
            pit_sample(forecasts, [0.0, 0.1, 0.2], rng_seed=0)

    def test_deterministic_given_seed(self):
        forecasts = [Gaussian(0, 1)] * 10
        y = np.linspace(-1, 1, 10)
        a = pit_sample(forecasts, y, rng_seed=5)
        b = pit_sample(forecasts, y, rng_seed=5)
        assert_allclose(a.z, b.z, rtol=0, atol=0)
        assert_allclose(a.v, b.v, rtol=0, atol=0)

    def test_fast_path_matches_general_loop(self):
        d = Mixture((Gaussian(0, 1), TwoPointBernoulli(0.4)), (0.6, 0.4))
        y = np.array([-0.5, 0.0, 0.3, 1.0, 2.0])
        same = pit_sample([d] * 5, y, rng_seed=11)
        mixed = pit_sample([d, d, d, d, Mixture((Gaussian(0, 1), TwoPointBernoulli(0.4)), (0.6, 0.4))],
                           y, rng_seed=11)
        assert_allclose(same.z, mixed.z, rtol=0, atol=1e-15)


@st.composite
def _ideal_forecaster(draw, n=2000):
    """n forecasts of one kind, each the law its outcome is drawn from (Czado, Gneiting
    & Held, 2009): the drawn structure fixes the kind, the rest comes from a drawn seed."""
    kind = draw(st.sampled_from(["gaussian", "finite-discrete", "bernoulli"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "gaussian":
        scale = draw(st.floats(0.0, 5.0))
        forecasts = [Gaussian(m, s) for m, s in
                     zip(rng.normal(scale=scale, size=n), rng.uniform(0.1, 3.0, n))]
    elif kind == "finite-discrete":
        k = draw(st.integers(1, 5))
        empty = draw(st.lists(st.booleans(), min_size=k, max_size=k))  # atoms of mass 0
        masses = rng.dirichlet(np.ones(k), size=n) * ~np.array(empty)
        masses[masses.sum(axis=1) == 0.0, -1] = 1.0
        atoms = np.cumsum(rng.integers(1, 4, size=(n, k)), axis=1) - draw(st.integers(0, 6))
        forecasts = [FiniteDiscrete(tuple(a), tuple(m / m.sum())) for a, m in zip(atoms, masses)]
    else:
        lo = draw(st.floats(0.0, 1.0))
        hi = draw(st.floats(lo, 1.0))
        forecasts = [TwoPointBernoulli(p) for p in rng.uniform(lo, hi, n)]
    return forecasts, np.array([f.sample(rng, 1)[0] for f in forecasts])


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_ideal_forecaster(), st.integers(0, 2**32 - 1))
def test_the_ideal_forecasters_randomized_pit_is_uniform(ideal, seed):
    forecasts, obs = ideal
    assert ks_uniformity(pit_sample(forecasts, obs, seed).z)[1] > 1e-6


class TestKsUniformity:
    @pytest.mark.parametrize(
        "dist",
        [
            Gaussian(0.3, 1.4),
            Mixture((Gaussian(-1, 1), Gaussian(1.5, 0.7)), (0.4, 0.6)),
            BetaTransformed(Gaussian(0, 1), 1.6, 1.2),
        ],
    )
    def test_continuous_pit_uniform(self, dist):
        rng = np.random.default_rng(13)
        n = 100_000
        y = dist.sample(rng, n)
        s = pit_sample([dist] * n, y, rng_seed=17)
        _, pval = ks_uniformity(s.z)
        assert pval > 0.01

    @pytest.mark.parametrize(
        "dist",
        [
            TwoPointBernoulli(0.3),
            FiniteDiscrete((0.0, 1.0, 2.0), (0.5, 0.25, 0.25)),
            Mixture((Gaussian(0, 1), TwoPointBernoulli(0.5)), (0.5, 0.5)),
        ],
    )
    def test_randomized_pit_uniform_with_atoms(self, dist):
        rng = np.random.default_rng(29)
        n = 100_000
        y = dist.sample(rng, n)
        s = pit_sample([dist] * n, y, rng_seed=31)
        _, pval = ks_uniformity(s.z)
        assert pval > 0.01

    @pytest.mark.parametrize("z, bad", [
        (np.r_[np.linspace(0.1, 0.9, 199), np.nan], 199),
        (np.r_[0.5, np.nan, np.linspace(0.1, 0.9, 138)], 1),
        ([0.2, 1.7, 0.5], 1),
        ([-0.1, 0.5], 0),
    ], ids=["nan-asymptotic", "nan-exact", "above-one", "below-zero"])
    def test_values_outside_the_unit_interval_are_rejected(self, z, bad):
        with pytest.raises(DomainViolation, match=f"^PIT value {bad} lies outside"):
            ks_uniformity(z)

    def test_exact_statistic_small_sample(self):
        z = np.array([0.1, 0.2, 0.7])
        # order statistics: D+ = max(i/n - z_i), D- = max(z_i - (i-1)/n)
        stat, _ = ks_uniformity(z)
        assert stat == pytest.approx(max(1 / 3 - 0.1, 2 / 3 - 0.2, 1.0 - 0.7,
                                         0.1, 0.2 - 1 / 3, 0.7 - 2 / 3))


class TestDispersionReport:
    def test_alternating_extremes_are_underdispersed(self):
        z = np.tile([0.0, 1.0], 500)
        rep = dispersion_report(PitSample(z=z, v=np.full(z.size, 0.5)))
        assert rep.pit_variance > 0.24
        assert rep.classification == UNDERDISPERSED

    def test_degenerate_center_is_overdispersed(self):
        z = np.full(100, 0.5)
        rep = dispersion_report(PitSample(z=z, v=np.full(z.size, 0.5)))
        assert rep.pit_variance == 0.0
        assert rep.classification == OVERDISPERSED

    def test_uniform_sample_is_neutral(self):
        rng = np.random.default_rng(4)
        z = rng.random(100_000)
        rep = dispersion_report(PitSample(z=z, v=np.full(z.size, 0.5)))
        assert rep.classification == NEUTRALLY_DISPERSED
        assert abs(rep.pit_variance - NEUTRAL_PIT_VARIANCE) <= rep.ci_halfwidth

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            dispersion_report(PitSample(z=np.array([0.5]), v=np.array([0.5])))


class TestVarZSigma:
    def test_neutral_at_sigma_one(self):
        assert abs(var_z_sigma(1.0) - 1.0 / 12.0) < 1e-9

    def test_degenerate_limit(self):
        assert var_z_sigma(1e-6) == pytest.approx(0.25, abs=1e-4)

    def test_matches_monte_carlo(self):
        # brute-force oracle: Z = Phi(eps / sigma) for Y - X = eps ~ N(0,1)
        from scipy.special import ndtr

        rng = np.random.default_rng(8)
        eps = rng.standard_normal(2_000_000)
        for sigma in (0.75, 1.25):
            z = ndtr(eps / sigma)
            var_mc = float(np.var(z, ddof=1))
            m4 = float(np.mean((z - z.mean()) ** 4))
            se = np.sqrt((m4 - var_mc**2) / z.size)
            assert abs(var_z_sigma(sigma) - var_mc) < 3 * se

    def test_strictly_decreasing_in_sigma(self):
        grid = np.linspace(0.25, 4.0, 16)
        vals = [var_z_sigma(s) for s in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestMarginalGap:
    def test_zero_for_matching_empirical_forecast(self):
        obs = np.array([0.0, 1.0, 2.0, 3.0])
        emp = FiniteDiscrete((0.0, 1.0, 2.0, 3.0), (0.25, 0.25, 0.25, 0.25))
        gap = marginal_calibration_gap([emp] * 4, obs, grid=obs)
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(10)
        n = 200
        mu = rng.standard_normal(n)
        y = mu + rng.standard_normal(n)
        forecasts = [Gaussian(m, 1.0) for m in mu]
        grid = np.linspace(-4, 4, 101)
        gap1 = marginal_calibration_gap(forecasts, y, grid)
        perm = rng.permutation(n)
        gap2 = marginal_calibration_gap([forecasts[i] for i in perm], y[perm], grid)
        assert gap1 == pytest.approx(gap2, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            marginal_calibration_gap([], [], grid=[0.0])

    def test_empty_forecast_list_is_a_length_mismatch(self):
        # an empty list is not a forecast shared by every observation
        with pytest.raises(LengthMismatch, match="0 forecasts paired with 2 observations"):
            marginal_calibration_gap([], [1.0, 2.0], np.linspace(0.0, 3.0, 7))

    def test_non_finite_observation_rejected(self):
        y = np.linspace(-1.0, 1.0, 20)
        y[7] = np.nan
        with pytest.raises(DomainViolation, match="observation 7"):
            marginal_calibration_gap([Gaussian(0, 1)] * 20, y, grid=np.linspace(-2, 2, 5))

    def test_non_finite_grid_point_rejected(self):
        grid = np.array([-1.0, 0.0, np.inf, 1.0])
        with pytest.raises(DomainViolation, match="grid point 2"):
            marginal_calibration_gap([Gaussian(0, 1)] * 3, [0.0, 1.0, 2.0], grid)

    def test_non_finite_average_cdf_rejected(self):
        forecasts = Gaussian._stacked(np.array([[0.0], [np.nan], [1.0]]), np.ones((3, 1)))
        with pytest.raises(DomainViolation, match="average forecast CDF at grid point 0"):
            marginal_calibration_gap(forecasts, [0.0, 1.0, 2.0], [-1.0, 0.0, 1.0])

    def test_non_finite_average_cdf_names_the_least_evaluated_grid_index(self):
        forecasts = Gaussian._stacked(np.array([[0.0], [np.nan]]), np.ones((2, 1)))
        # sorted, the grid is -1, 0, 0.5, 2; the first level evaluates its two ends,
        # grid points 1 and 2
        with pytest.raises(DomainViolation, match="average forecast CDF at grid point 1 "):
            marginal_calibration_gap(forecasts, [0.0, 1.0], [0.5, -1.0, 2.0, 0.0])

    def test_a_falling_average_cdf_is_rejected(self):
        class Falling(PredictiveDist):
            def cdf(self, y):
                return Gaussian(0.0, 1.0).cdf(-np.asarray(y, dtype=float))

        # the skipped stretches hold the sup only if every forecast CDF is nondecreasing
        with pytest.raises(DomainViolation, match="falls by .* from grid point 0 to grid "
                                                  "point 12: forecast CDFs must be nondecreasing"):
            marginal_calibration_gap([Falling()] * 5, np.zeros(5), np.linspace(-2.0, 2.0, 30))

    _FD = FiniteDiscrete((0.0, 1.0), (0.3, 0.7))
    _G = Gaussian(0.0, 1.0)

    @pytest.mark.parametrize("d, steps", [
        (_FD, True),
        (TwoPointBernoulli(0.4), True),
        (_G, False),
        (Mixture((_FD, TwoPointBernoulli(0.4)), (0.5, 0.5)), True),
        (Mixture((_FD, _G), (0.5, 0.5)), False),
        (BetaTransformed(_FD, 1.2, 0.8), True),
        (BetaTransformed(_G, 1.2, 0.8), False),
        (pool(GlpSpec((0.5, 0.5), LinkFunction.LOG), (_FD, TwoPointBernoulli(0.2))), True),
        (pool(GlpSpec((0.5, 0.5), LinkFunction.LOG), (_FD, _G)), False),
        (SpreadAdjusted(_FD, 2.0, 0.5), False),
        # rows of different atom counts: a row-by-row column of step functions is one
        (stack([_FD, FiniteDiscrete((0.0, 1.0, 2.0), (0.2, 0.3, 0.5))]), True),
    ], ids=["discrete", "bernoulli", "gaussian", "atomic-mixture", "mixed-mixture",
            "atomic-blp", "gaussian-blp", "atomic-glp", "mixed-glp", "spread", "row-stack"])
    def test_step_function_kinds(self, d, steps):
        # the gap evaluates a step-function forecast once per stretch between atoms
        assert d._step_cdf is steps

    def test_a_step_forecast_keeps_both_checks(self):
        nan_mass = _build(FiniteDiscrete, {"atoms": (0.0, 1.0), "masses": (np.nan, 0.5)})
        with pytest.raises(DomainViolation, match="CDF at grid point 2 is not finite"):
            marginal_calibration_gap(nan_mass, [0.0, 1.0], [-1.0, 2.0, 0.5, 0.7])
        falling = _build(FiniteDiscrete, {"atoms": (0.0, 1.0, 2.0), "masses": (0.7, -0.4, 0.7)})
        # sorted, the grid is -1, 0.5, 0.7, 1.2, 1.5, 2.5, with average CDF 0, .7, .7, .3, .3, 1
        with pytest.raises(DomainViolation, match="falls by 0.4 from grid point 5 to grid "
                                                  "point 2: forecast CDFs must be nondecreasing"):
            marginal_calibration_gap(falling, [0.0, 1.0], [2.5, 1.5, 1.2, 0.5, -1.0, 0.7])

    def test_a_rounding_dip_is_not_a_fall(self):
        class Dipping(PredictiveDist):
            def cdf(self, y):  # flat at 1/2, and 1e-14 lower from 0.5 on
                return np.where(np.asarray(y, dtype=float) < 0.5, 0.5, 0.5 - 1e-14)

        gap = marginal_calibration_gap([Dipping()] * 2, [0.0, 1.0], [0.4, 0.5])
        assert gap == abs((0.5 - 1e-14) - 0.5)  # within the slack: the gap at 0.5


class TestReliabilityBins:
    def test_constant_probability_fair_coin(self):
        rng = np.random.default_rng(21)
        n = 100_000
        p = np.full(n, 0.5)
        y = (rng.random(n) < 0.5).astype(float)  # success outcome coded 0
        y = 1.0 - y
        rows = reliability_bins(p, y, bins=10)
        occupied = [r for r in rows if r[2] > 0]
        assert len(occupied) == 1
        center, freq, count, mean = occupied[0]
        assert (count, mean) == (n, 0.5)
        assert abs(freq - 0.5) < 3 * np.sqrt(0.25 / n)

    def test_squared_probability_is_miscalibrated(self):
        from cdfpool.sim import _draw_binary

        rng = np.random.Generator(np.random.Philox(40))
        y, p1, _, _ = _draw_binary(rng, 100_000, 1.0, 1.0)
        rows = reliability_bins(p1 * p1, y, bins=10)
        devs = []
        idx = np.clip((p1 * p1 * 10).astype(int), 0, 9)
        for b, (center, freq, count, pbar) in enumerate(rows):
            if count < 100:
                continue
            assert pbar == pytest.approx(np.mean((p1 * p1)[idx == b]), rel=1e-12)
            sigma = np.sqrt(pbar * (1 - pbar) / count)
            devs.append(abs(freq - pbar) / sigma)
        assert max(devs) > 3.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            reliability_bins([0.5], [0.0, 1.0], bins=5)

    def test_probabilities_outside_the_unit_interval_are_rejected(self):
        with pytest.raises(DomainViolation, match="^probability 1 lies outside"):
            reliability_bins([0.2, np.nan, 1.5, -0.3], [0, 1, 0, 1], bins=2)
        with pytest.raises(DomainViolation, match="^probability 2 lies outside"):
            reliability_bins([0.2, 0.4, 1.5, -0.3], [0, 1, 0, 1], bins=2)

    def test_outcomes_other_than_zero_and_one_are_rejected(self):
        with pytest.raises(DomainViolation, match="^outcome 1 is neither 0 nor 1"):
            reliability_bins([0.2, 0.4], [0.0, 0.5], bins=2)

    @pytest.mark.parametrize("bins", [0, -1, 2.5])
    def test_bins_must_be_a_positive_integer(self, bins):
        with pytest.raises(InvalidConfig, match="bins must be at least 1"):
            reliability_bins([0.1, 0.7], [0.0, 1.0], bins=bins)


class TestHistogram:
    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(3)
        z = rng.random(500)
        counts = pit_histogram(z, bins=10)
        assert counts.sum() == 500
        assert counts.size == 10

    @pytest.mark.parametrize("bins", [0, -1, 2.5])
    def test_bins_must_be_a_positive_integer(self, bins):
        with pytest.raises(InvalidConfig, match="bins must be at least 1"):
            pit_histogram([0.2, 0.6], bins=bins)

    def test_values_outside_the_unit_interval_are_rejected(self):
        # these were once dropped from the counts without a word
        with pytest.raises(DomainViolation, match="^PIT value 1 lies outside"):
            pit_histogram([0.2, np.nan, 1.5, -1.0], bins=2)
        assert pit_histogram([0.0, 0.5, 1.0], bins=2).tolist() == [1, 2]


class TestCalibrationReport:
    def test_bundles_all_diagnostics(self):
        from cdfpool import calibration_report

        rng = np.random.default_rng(33)
        n = 400
        mu = rng.standard_normal(n)
        y = mu + rng.standard_normal(n)
        forecasts = [Gaussian(m, 1.0) for m in mu]
        rep = calibration_report(forecasts, y, rng_seed=12, bins=8)
        assert 0.0 <= rep.ks_statistic <= 1.0
        assert rep.histogram.sum() == n
        assert rep.histogram.size == 8
        assert rep.marginal_gap >= 0.0
        assert rep.ks_pvalue == ks_uniformity(rep.pit.z)[1]
        np.testing.assert_array_equal(rep.pit.z, pit_sample(forecasts, y, 12).z)

    def test_bins_are_checked_before_any_work(self):
        from cdfpool import calibration_report

        # no observations would raise EmptyInput, once the work began
        with pytest.raises(InvalidConfig, match="bins must be at least 1"):
            calibration_report([], [], rng_seed=0, bins=0)

    def test_empty_forecast_list_is_a_length_mismatch(self):
        from cdfpool import calibration_report

        with pytest.raises(LengthMismatch, match="0 forecasts paired with 3 observations"):
            calibration_report([], [0.0, 1.0, 2.0], rng_seed=0)

    def test_fields(self):
        from dataclasses import fields

        from cdfpool import CalibrationReport

        assert [f.name for f in fields(CalibrationReport)] == [
            "ks_statistic", "ks_pvalue", "marginal_gap", "histogram", "pit"]

    def test_single_case_reports(self):
        from cdfpool import calibration_report

        rep = calibration_report([Gaussian(0.0, 1.0)], [0.3], rng_seed=1)
        assert len(rep.pit) == 1

    def test_stacks_a_list_once_and_a_stacked_forecast_never(self, monkeypatch):
        from cdfpool import calibration_report

        rng = np.random.default_rng(34)
        forecasts = [Gaussian(m, 1.0) for m in rng.standard_normal(50)]
        y = rng.standard_normal(50)
        stacked = stack(forecasts)
        calls = []
        monkeypatch.setattr(cdfpool.calibration, "stack",
                            lambda dists: calls.append(1) or stack(dists))
        from_list = calibration_report(forecasts, y, rng_seed=2)
        assert len(calls) == 1
        from_stacked = calibration_report(stacked, y, rng_seed=2)
        assert len(calls) == 1
        assert from_list.marginal_gap == from_stacked.marginal_gap
        np.testing.assert_array_equal(from_list.pit.z, from_stacked.pit.z)


_G = (Gaussian(0.0, 1.0), Gaussian(1.0, 2.0))
_EVERY_KIND = {
    "gaussian": _G[0],
    "finite-discrete": FiniteDiscrete((0.0, 1.0, 2.0), (0.2, 0.3, 0.5)),
    "bernoulli": TwoPointBernoulli(0.3),
    "mixture": Mixture(_G, (0.5, 0.5)),
    "spread-adjusted": SpreadAdjusted(_G[1], 1.5, 1.0),
    "beta-transformed": BetaTransformed(_G[0], 2.0, 0.5),
    "glp": pool(GlpSpec((0.4, 0.6), LinkFunction.PROBIT), _G),
    "slp": pool(SlpSpec((0.4, 0.6), 0.8), _G),
    "stacked": stack([_G[0], _G[1]]),
    "row-by-row": stack([_G[0], Mixture(_G, (0.5, 0.5))]),
}


class TestQuantileDomain:
    @pytest.mark.parametrize("kind", list(_EVERY_KIND))
    @pytest.mark.parametrize("p", [np.nan, 0.0, 1.0, [[0.5, np.nan]], [[0.5, 1.0]]],
                             ids=["nan", "zero", "one", "array-nan", "array-one"])
    def test_every_kind_rejects_levels_outside_open_interval(self, kind, p):
        d = _EVERY_KIND[kind]
        if np.ndim(p) == 0 and d._rows():
            p = [[p]]  # a stacked forecast takes (1, m) levels
        with pytest.raises(ValueError, match="strictly inside"):
            d.quantile(p)

    @pytest.mark.parametrize("kind", list(_EVERY_KIND))
    def test_every_kind_accepts_levels_inside(self, kind):
        d = _EVERY_KIND[kind]
        levels = np.array([[0.25, 0.75]])
        q = np.asarray(d.quantile(levels if d._rows() else levels[0]))
        assert np.all(np.isfinite(q))
        if not d._rows():
            assert np.isfinite(d.quantile(0.5))

    def test_levels_outside_open_interval_rejected(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                Gaussian(0, 1).quantile(p)
            with pytest.raises(ValueError):
                Mixture((Gaussian(0, 1), Gaussian(1, 1)), (0.5, 0.5)).quantile(p)
