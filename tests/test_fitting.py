import warnings
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import betaln

from cdfpool import (
    BlpSpec,
    DegenerateDesign,
    DgpConfig,
    DomainViolation,
    ForecastBatch,
    ForecastCase,
    Gaussian,
    GlpSpec,
    InvalidConfig,
    LengthMismatch,
    LinkFunction,
    MedianUndefined,
    Mixture,
    TlpSpec,
    TooFewSamples,
    WeightConstraintViolation,
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
    pool,
    simulate,
)
from cdfpool.fitting import (
    FLAG_CLAMPED_CASES,
    FLAG_FLAT_DIRECTION,
    FLAG_NO_CONVERGENCE,
    FLAG_SINGULAR_HESSIAN,
    _ascent_direction,
    _Weights,
)
from cdfpool.io import write_params

from conftest import StackedLogistic, family_derivs, make_gaussian_cases

_NEWTON_FITS = [fit_slp] + [
    lambda data, link=link: fit_glp(data, link)
    for link in (LinkFunction.LOG, LinkFunction.RECIPROCAL, LinkFunction.PROBIT)
]
# each method's fit and the cases it needs beyond k: one more with shape parameters
_CASES_BEYOND_K = {"tlp": (fit_tlp, 1), "slp": (fit_slp, 2), "blp": (fit_blp, 2)} | {
    f"glp-{link.value}": (partial(fit_glp, link=link), 1)
    for link in (LinkFunction.LOG, LinkFunction.RECIPROCAL, LinkFunction.PROBIT)
}


class TestLogScore:
    def test_standard_normal_center(self):
        assert log_score(Gaussian(0, 1), 0.0) == pytest.approx(-0.918939, abs=1e-6)

    def test_two_sigma_penalty(self):
        assert log_score(Gaussian(0, 1), 2.0) == pytest.approx(-2.918939, abs=1e-6)

    def test_pooling_identical_components_keeps_score(self):
        g = Gaussian(0.4, 1.3)
        tlp = pool(TlpSpec((0.5, 0.5)), (g, g))
        for y in (-1.0, 0.4, 2.2):
            assert log_score(tlp, y) == pytest.approx(log_score(g, y), rel=1e-12)


class TestBetaLogMoments:
    def test_uniform_closed_forms(self):
        e_log, e_log1m, v_log, v_log1m, cov = beta_log_moments(1.0, 1.0)
        assert e_log == pytest.approx(-1.0, rel=1e-12)
        assert e_log1m == pytest.approx(-1.0, rel=1e-12)
        assert v_log == pytest.approx(1.0, rel=1e-12)
        assert v_log1m == pytest.approx(1.0, rel=1e-12)

    def test_digamma_matches_quadrature(self):
        a, b = 1.5, 2.5
        pdf = lambda t: np.exp((a - 1) * np.log(t) + (b - 1) * np.log1p(-t) - betaln(a, b))
        oracle = quad(lambda t: np.log(t) * pdf(t), 0.0, 1.0, epsabs=1e-13)[0]
        assert abs(beta_log_moments(a, b)[0] - oracle) < 1e-10

    def test_variance_matches_quadrature(self):
        a, b = 1.5, 2.5
        pdf = lambda t: np.exp((a - 1) * np.log(t) + (b - 1) * np.log1p(-t) - betaln(a, b))
        m = quad(lambda t: np.log(t) * pdf(t), 0.0, 1.0, epsabs=1e-13)[0]
        oracle = quad(lambda t: (np.log(t) - m) ** 2 * pdf(t), 0.0, 1.0, epsabs=1e-13)[0]
        assert abs(beta_log_moments(a, b)[2] - oracle) < 1e-9


def _family_derivs(family, cases):
    """(derivs, draw): one family's log-score sum with its analytic gradient
    and Hessian at a parameter point, and a sampler of interior points.

    BLP points are (w_head, alpha, beta), through the public objective; the
    other families' points are the theta of their fits (``family_derivs``):
    the free weights, then log c for the SLP.
    """
    k = len(cases[0].components)

    def w_head(rng):
        return rng.dirichlet(np.ones(k))[: k - 1] * 0.8 + 0.05 / k

    if family == "blp":
        def derivs(p):
            w = np.concatenate([p[: k - 1], [1.0 - p[: k - 1].sum()]])
            return blp_objective_and_derivatives(w, p[k - 1], p[k], cases)

        return derivs, lambda rng: np.concatenate([w_head(rng), rng.uniform(0.6, 2.2, 2)])
    weights = _Weights(k, simplex=family not in ("glp-log", "glp-probit"))
    derivs = partial(family_derivs(family, cases), weights)
    if family == "slp":
        return derivs, lambda rng: np.append(w_head(rng), rng.uniform(np.log(0.6), np.log(1.6)))
    return derivs, w_head if weights.simplex else (lambda rng: rng.uniform(0.2, 0.8, k))


def _finite_difference_check(cases, params_rng, n_points, grad_tol, hess_tol, family="blp"):
    """Central-difference oracle for the analytic gradient and Hessian."""
    derivs, draw = _family_derivs(family, cases)
    step = 1e-6
    worst_g, worst_h = 0.0, 0.0
    for _ in range(n_points):
        point = draw(params_rng)
        n = point.size
        _, g, H = derivs(point)
        g_fd = np.empty(n)
        H_fd = np.empty((n, n))
        for i in range(n):
            e = np.zeros(n)
            e[i] = step
            up, down = derivs(point + e), derivs(point - e)
            g_fd[i] = (up[0] - down[0]) / (2 * step)
            H_fd[:, i] = (up[1] - down[1]) / (2 * step)
        scale_g = np.maximum(np.abs(g_fd), 1.0)
        scale_h = np.maximum(np.abs(H_fd), 1.0)
        worst_g = max(worst_g, float(np.max(np.abs(g - g_fd) / scale_g)))
        worst_h = max(worst_h, float(np.max(np.abs(H - H_fd) / scale_h)))
    assert worst_g < grad_tol, f"gradient mismatch {worst_g}"
    assert worst_h < hess_tol, f"Hessian mismatch {worst_h}"
    return worst_g, worst_h


class TestScoringDerivatives:
    def test_gradient_and_hessian_match_finite_differences(self, gaussian_cases):
        _finite_difference_check(
            gaussian_cases, np.random.default_rng(123), n_points=25,
            grad_tol=1e-6, hess_tol=1e-4,
        )

    @pytest.mark.parametrize("family", ["tlp", "slp", "glp-log", "glp-reciprocal", "glp-probit"])
    def test_tlp_slp_and_glp_derivatives_match_finite_differences(self, gaussian_cases, family):
        _finite_difference_check(
            gaussian_cases, np.random.default_rng(124), n_points=10,
            grad_tol=1e-6, hess_tol=1e-4, family=family,
        )


class TestFitBlp:
    def test_identity_transform_optimal_for_ideal_forecast(self):
        rng = np.random.default_rng(50)
        n = 100_000
        x = rng.standard_normal(n)
        y = x + rng.standard_normal(n)
        # one batch for the fit and all 37 objective calls, stacked once
        cases = ForecastBatch.from_cases([ForecastCase((Gaussian(x[j], 1.0),), y[j])
                                          for j in range(n)])
        res = fit_blp(cases)
        assert res.converged
        se_a = res.std_errors["alpha"]
        se_b = res.std_errors["beta"]
        assert abs(res.spec.alpha - 1.0) < 3 * se_a
        assert abs(res.spec.beta - 1.0) < 3 * se_b
        # grid-search oracle: the fitted point beats a coarse (alpha, beta) grid
        best_grid = -np.inf
        for a in np.linspace(0.6, 1.6, 6):
            for b in np.linspace(0.6, 1.6, 6):
                ell = blp_objective_and_derivatives((1.0,), a, b, cases)[0]
                best_grid = max(best_grid, ell)
        fitted_ell = blp_objective_and_derivatives((1.0,), res.spec.alpha,
                                                   res.spec.beta, cases)[0]
        assert fitted_ell >= best_grid - 1e-6

    def test_noise_component_gets_tiny_weight(self):
        rng = np.random.default_rng(51)
        n = 10_000
        x = rng.standard_normal(n)
        y = x + rng.standard_normal(n)
        junk = rng.standard_normal(n) * 3.0
        cases = [
            ForecastCase((Gaussian(x[j], 1.0), Gaussian(junk[j], 3.0)), y[j])
            for j in range(n)
        ]
        res = fit_blp(cases)
        assert res.spec.w[0] > 0.9
        # grid-search oracle over the weight at the fitted (alpha, beta)
        a_hat, b_hat = res.spec.alpha, res.spec.beta
        ell_hat = blp_objective_and_derivatives(res.spec.w, a_hat, b_hat, cases)[0]
        for w1 in np.linspace(0.05, 0.95, 19):
            ell = blp_objective_and_derivatives((w1, 1.0 - w1), a_hat, b_hat, cases)[0]
            assert ell <= ell_hat + 1e-6

    def test_monotone_trace(self, gaussian_cases):
        res = fit_blp(gaussian_cases)
        assert res.converged
        trace = np.asarray(res.trace)
        assert np.all(np.diff(trace) >= -1e-12)

    @pytest.mark.parametrize("w, alpha, beta", [
        ((np.nan, 0.5), 1.0, 1.0), ((0.5, 0.5), np.inf, 1.0), ((0.5, 0.5), 1.0, np.nan),
        ((0.7, 0.7), 1.0, 1.0), ((-0.5, 1.5), 1.0, 1.0), ((0.5, 0.5), 0.0, 1.0),
    ], ids=["nan-weight", "inf-alpha", "nan-beta", "off-simplex", "negative", "zero-alpha"])
    def test_objective_checks_parameters_as_the_spec(self, w, alpha, beta):
        cases = make_gaussian_cases(np.random.default_rng(3), J=20, k=2)
        with pytest.raises(WeightConstraintViolation):
            blp_objective_and_derivatives(w, alpha, beta, cases)

    def test_objective_needs_one_weight_per_component(self):
        cases = make_gaussian_cases(np.random.default_rng(3), J=20, k=2)
        with pytest.raises(LengthMismatch):
            blp_objective_and_derivatives((0.2, 0.3, 0.5), 1.0, 1.0, cases)

    def test_needs_enough_cases(self):
        cases = make_gaussian_cases(np.random.default_rng(1), J=4, k=3)
        with pytest.raises(TooFewSamples):
            fit_blp(cases)

    def test_converged_when_line_search_stalls_at_optimum(self):
        # at this seed the last line search fails with a Newton decrement of
        # about 1e-16 per case: the estimate is optimal and must say so
        cases = simulate(DgpConfig(kind="regression", n=5000, seed=2)).cases
        res = fit_blp(cases)
        assert res.converged
        assert FLAG_NO_CONVERGENCE not in res.flags

    def test_constant_pit_design_stops_and_says_not_converged(self, tmp_path):
        # the first component's PIT is Phi(-0.2) in every case, so the log score
        # grows without bound as alpha and beta do: the engine must stop, flag
        # it, and raise no floating-point warning on the way
        y0 = np.random.default_rng(4).normal(size=30)
        cases = [ForecastCase((Gaussian(m + 0.3, 1.0),
                               Mixture((Gaussian(0.0, 1.0), Gaussian(m, 2.0)), (0.4, 0.6))),
                              m + 0.1) for m in y0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit_blp(cases)
        assert not res.converged
        assert FLAG_NO_CONVERGENCE in res.flags
        write_params(str(tmp_path / "params.txt"), res)
        assert "converged false\n" in (tmp_path / "params.txt").read_text()

    def test_study_scale_weights_match_reference(self, study_report):
        w = study_report.fits["blp"].spec.w
        for got, (ref, se) in zip(w, ((0.256, 0.057), (0.293, 0.057), (0.451, 0.054))):
            assert abs(got - ref) <= 3 * se


class TestFitTlp:
    def test_identity_link_glp_is_the_linear_pool(self, gaussian_cases):
        tlp = fit_tlp(gaussian_cases)
        res = fit_glp(gaussian_cases, LinkFunction.IDENTITY)
        assert isinstance(res.spec, GlpSpec) and res.spec.link is LinkFunction.IDENTITY
        assert res.spec.w == tlp.spec.w
        assert res.mean_log_score_train == tlp.mean_log_score_train

    def test_identical_components_split_evenly_and_flag_flatness(self):
        rng = np.random.default_rng(60)
        g = Gaussian(0.0, 1.0)
        cases = [ForecastCase((g, g), rng.standard_normal()) for _ in range(200)]
        res = fit_tlp(cases)
        assert res.spec.w == pytest.approx((0.5, 0.5), abs=1e-12)
        assert FLAG_FLAT_DIRECTION in res.flags

    def test_unsupported_component_driven_to_zero(self):
        rng = np.random.default_rng(61)
        y = rng.uniform(10.0, 11.0, size=300)
        near = [Gaussian(m, 0.5) for m in y + rng.normal(scale=0.2, size=300)]
        far = Gaussian(-50.0, 0.5)
        cases = [ForecastCase((near[j], far), y[j]) for j in range(300)]
        res = fit_tlp(cases)
        assert res.spec.w[1] < 1e-12
        assert res.boundary_active == (False, True)

    def test_single_component_weight_is_one(self):
        rng = np.random.default_rng(62)
        cases = [ForecastCase((Gaussian(0, 1),), rng.standard_normal()) for _ in range(50)]
        res = fit_tlp(cases)
        assert res.spec.w == (1.0,)

    def test_monotone_trace(self, gaussian_cases):
        res = fit_tlp(gaussian_cases)
        assert np.all(np.diff(np.asarray(res.trace)) >= -1e-12)
        assert res.converged


class TestFitSlp:
    def test_recovers_known_spread(self):
        rng = np.random.default_rng(70)
        n = 10_000
        w_true = np.array([0.35, 0.65])
        c_true = 0.8
        cases = []
        for j in range(n):
            comps = (Gaussian(rng.normal(), 1.0 + rng.random()),
                     Gaussian(rng.normal(), 0.5 + rng.random()))
            pick = rng.choice(2, p=w_true)
            base = comps[pick]
            y = base.mu + c_true * base.sigma * rng.standard_normal()
            cases.append(ForecastCase(comps, y))
        res = fit_slp(cases)
        assert abs(res.spec.c - c_true) < 0.05
        assert abs(res.spec.w[0] - w_true[0]) < 0.05

    def test_medians_come_before_the_case_count(self):
        # a non-Gaussian design takes each row's median when it is built
        flat = Mixture((Gaussian(-50.0, 1.0), Gaussian(50.0, 1.0)), (0.5, 0.5))
        cases = [ForecastCase((flat, Gaussian(0.0, 1.0)), 0.3)] * 2
        with pytest.raises(MedianUndefined):
            fit_slp(cases)
        with pytest.raises(TooFewSamples):
            fit_slp([ForecastCase((Mixture((Gaussian(0.0, 1.0),) * 2, (0.5, 0.5)),
                                   Gaussian(0.0, 1.0)), 0.3)] * 2)

    def test_neutrally_dispersed_components_shrink_spread(self, study_report):
        assert study_report.fits["slp"].spec.c < 1.0

    def test_study_scale_weights_match_reference(self, study_report):
        w = study_report.fits["slp"].spec.w
        for got, (ref, se) in zip(w, ((0.257, 0.060), (0.283, 0.061), (0.460, 0.059))):
            assert abs(got - ref) <= 3 * se

    def test_permutation_equivariance(self, gaussian_cases):
        """SLP and the three open-interval GLP fits permute with the components."""
        flipped = [
            ForecastCase(tuple(reversed(c.components)), c.y) for c in gaussian_cases
        ]
        for fit in _NEWTON_FITS:
            a = fit(gaussian_cases)
            b = fit(flipped)
            assert_allclose(a.spec.w, tuple(reversed(b.spec.w)), atol=1e-9)
            assert getattr(a.spec, "c", 1.0) == pytest.approx(getattr(b.spec, "c", 1.0),
                                                              abs=1e-9)
            assert a.mean_log_score_train == pytest.approx(b.mean_log_score_train, abs=1e-9)

    def test_monotone_trace_and_standard_errors(self, gaussian_cases):
        for fit in _NEWTON_FITS:
            res = fit(gaussian_cases)
            assert res.converged
            assert np.all(np.diff(np.asarray(res.trace)) >= -1e-12)
            assert res.std_errors is not None
            assert {f"w_{i}" for i in (1, 2, 3)} <= set(res.std_errors)

    def test_small_interior_weight_needs_no_barrier_restart(self, gaussian_cases):
        # the reciprocal link's w_3 = 5.6e-6 is a stationary point, not a
        # boundary the first Newton stage ran into
        res = fit_glp(gaussian_cases, LinkFunction.RECIPROCAL)
        assert 0.0 < res.spec.w[2] < 1e-4
        assert res.iterations < 40

    @pytest.mark.parametrize("fit", [fit_slp, fit_blp,
                                     lambda data: fit_glp(data, LinkFunction.RECIPROCAL)],
                             ids=["slp", "blp", "glp-reciprocal"])
    def test_unsupported_component_ends_on_the_boundary(self, fit):
        rng = np.random.default_rng(1)
        mu = rng.normal(size=300)
        y = mu + rng.normal(size=300)
        cases = [ForecastCase((Gaussian(m, 1.0), Gaussian(yj - 3.0, 0.5)), yj)
                 for m, yj in zip(mu, y)]
        res = fit(cases)
        assert res.converged
        assert res.spec.w[1] < 1e-8
        assert res.boundary_active == (False, True)

    def test_non_gaussian_components_match_gaussian_closed_form(self, gaussian_cases):
        # a one-component mixture has the Gaussian's density but takes the
        # central-difference path
        wrapped = [
            ForecastCase(tuple(Mixture((c,), (1.0,)) for c in case.components), case.y)
            for case in gaussian_cases
        ]
        a = fit_slp(gaussian_cases)
        b = fit_slp(wrapped)
        assert b.converged
        assert_allclose(b.spec.w, a.spec.w, atol=1e-6)
        assert b.spec.c == pytest.approx(a.spec.c, abs=1e-6)
        assert b.mean_log_score_train == pytest.approx(a.mean_log_score_train, abs=1e-9)
        for key, se in a.std_errors.items():
            assert b.std_errors[key] == pytest.approx(se, rel=1e-4)


# Estimates of the derivative-free fits (Nelder-Mead, then a finite-difference
# Newton polish) that the exact-derivative Newton engine replaced.
_STUDY_SLP = ((0.3394495743040901, 0.26559071320530453, 0.3949597124906054),
              0.8163274291423338)
_REGRESSION_5000 = {
    11: {
        "slp": ((0.32753760621343647, 0.2597882209065264, 0.41267417288003716),
                0.7972499191448514),
        "log": (0.3063878583146785, 0.23825309675535375, 0.4640719812494208),
        "reciprocal": (0.26718348093238486, 0.17249628314481075, 0.5603202359228044),
        "probit": (0.36222964715723677, 0.303844485304921, 0.4655601095554168),
    },
    12: {
        "slp": ((0.2978684392734752, 0.3049229458294383, 0.3972086148970865),
                0.7993269805120564),
        "log": (0.28309160534543965, 0.2819486606641921, 0.42085829995171037),
        "reciprocal": (0.2530779715136927, 0.2698171912417844, 0.477104837244523),
        "probit": (0.33460168844588806, 0.34992113417394605, 0.4464331512736488),
    },
}


class TestDerivativeFreeReference:
    def test_study_slp(self, study_report):
        fit = study_report.fits["slp"]
        assert_allclose(fit.spec.w, _STUDY_SLP[0], rtol=0, atol=1e-6)
        assert fit.spec.c == pytest.approx(_STUDY_SLP[1], abs=1e-6)

    @pytest.mark.parametrize("seed", sorted(_REGRESSION_5000))
    def test_regression_sets(self, seed):
        ref = _REGRESSION_5000[seed]
        cases = simulate(DgpConfig(kind="regression", n=5000, seed=seed)).cases
        slp = fit_slp(cases)
        assert_allclose(slp.spec.w, ref["slp"][0], rtol=0, atol=1e-6)
        assert slp.spec.c == pytest.approx(ref["slp"][1], abs=1e-6)
        for link in ("log", "reciprocal", "probit"):
            res = fit_glp(cases, LinkFunction(link))
            assert res.converged
            assert_allclose(res.spec.w, ref[link], rtol=0, atol=1e-6)


class TestNonFiniteInput:
    @pytest.mark.parametrize("fit", [fit_tlp, fit_blp, *_NEWTON_FITS],
                             ids=["tlp", "blp", "slp", "glp-log", "glp-reciprocal",
                                  "glp-probit"])
    def test_rejected_before_fitting(self, gaussian_cases, fit):
        bad_y = list(gaussian_cases)
        bad_y[7] = ForecastCase(bad_y[7].components, np.inf)
        with pytest.raises(DomainViolation, match="case 7"):
            fit(bad_y)
        bad_mu = list(gaussian_cases)
        bad_mu[3] = ForecastCase((StackedLogistic(np.nan, 1.0),) + bad_mu[3].components[1:],
                                 bad_mu[3].y)
        with pytest.raises(DomainViolation, match="case 3"):
            fit(bad_mu)


class TestEquivariance:
    def test_blp_permutation(self, gaussian_cases):
        flipped = [
            ForecastCase(tuple(reversed(c.components)), c.y) for c in gaussian_cases
        ]
        a = fit_blp(gaussian_cases)
        b = fit_blp(flipped)
        assert_allclose(a.spec.w, tuple(reversed(b.spec.w)), atol=1e-9)
        assert a.spec.alpha == pytest.approx(b.spec.alpha, abs=1e-9)
        assert a.spec.beta == pytest.approx(b.spec.beta, abs=1e-9)
        assert a.mean_log_score_train == pytest.approx(b.mean_log_score_train, abs=1e-9)

    def test_standard_errors_invariant_to_case_order(self, gaussian_cases):
        rng = np.random.default_rng(80)
        perm = rng.permutation(len(gaussian_cases))
        shuffled = [gaussian_cases[i] for i in perm]
        a = fit_blp(gaussian_cases)
        b = fit_blp(shuffled)
        for key in a.std_errors:
            assert a.std_errors[key] == pytest.approx(b.std_errors[key], abs=1e-10)


class TestNestingDominance:
    def test_nonlinear_fits_dominate_linear_on_training(self, study_report):
        tlp = study_report.fits["tlp"].mean_log_score_train
        assert study_report.fits["blp"].mean_log_score_train >= tlp - 1e-9
        assert study_report.fits["slp"].mean_log_score_train >= tlp - 1e-9


class TestGaussianComponentRegression:
    def test_exact_line(self):
        reg = fit_gaussian_component([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
        assert reg.a == pytest.approx(1.0, abs=1e-12)
        assert reg.b == pytest.approx(2.0, abs=1e-12)
        assert reg.sigma == pytest.approx(0.0, abs=1e-12)

    def test_consistency_on_noisy_line(self):
        rng = np.random.default_rng(90)
        n = 100_000
        x = rng.standard_normal(n)
        y = x + rng.standard_normal(n)
        reg = fit_gaussian_component(x, y)
        sxx = np.sum((x - x.mean()) ** 2)
        se_b = 1.0 / np.sqrt(sxx)
        se_a = np.sqrt(1.0 / n + x.mean() ** 2 / sxx)
        assert abs(reg.a - 0.0) < 3 * se_a
        assert abs(reg.b - 1.0) < 3 * se_b
        assert abs(reg.sigma - 1.0) < 3 / np.sqrt(2 * n)

    def test_parameter_recovery(self):
        rng = np.random.default_rng(91)
        n = 10_000
        a, b, sigma = 2.0, 0.5, 3.0
        x = rng.uniform(-5, 5, n)
        y = a + b * x + sigma * rng.standard_normal(n)
        reg = fit_gaussian_component(x, y)
        sxx = np.sum((x - x.mean()) ** 2)
        assert abs(reg.b - b) < 3 * sigma / np.sqrt(sxx)
        assert abs(reg.a - a) < 3 * sigma * np.sqrt(1.0 / n + x.mean() ** 2 / sxx)
        assert abs(reg.sigma - sigma) < 3 * sigma / np.sqrt(2 * n)

    def test_constant_covariate_rejected(self):
        with pytest.raises(DegenerateDesign):
            fit_gaussian_component([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])

    def test_non_finite_point_rejected_by_index(self):
        with pytest.raises(DomainViolation, match="point 2"):
            fit_gaussian_component([1.0, 2.0, np.nan, 4.0], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(DomainViolation, match="point 1"):
            fit_gaussian_component([1.0, 2.0, 3.0, 4.0], [1.0, np.inf, 3.0, np.nan])

    def test_cases_builder(self):
        regs = [fit_gaussian_component([0.0, 1.0, 2.0, 3.0], [0.1, 1.2, 1.9, 3.1])]
        cases = gaussian_cases_from_regressions([[0.5], [1.5]], [0.4, 1.6], regs)
        assert len(cases) == 2
        assert isinstance(cases[0].components[0], Gaussian)


class TestEnsemblePostprocessingPipeline:
    def test_point_forecasts_to_fitted_pool_via_csv(self, tmp_path):
        """Raw ensemble point forecasts become Gaussian components, then a pool.

        Shaped like an operational postprocessing chain: per-member linear
        bias correction on a training window, CSV hand-off, then weight
        estimation on the corrected densities.
        """
        from cdfpool.io import read_dataset_csv, write_dataset_csv

        rng = np.random.default_rng(2024)
        n, k = 600, 3
        truth = rng.normal(size=n) * 2.0 + 10.0
        bias = np.array([1.0, -0.5, 2.0])
        slope = np.array([1.0, 1.1, 0.9])
        noise = np.array([1.5, 2.0, 1.0])
        x = (truth[:, None] - bias) / slope + noise * rng.standard_normal((n, k))

        regs = [fit_gaussian_component(x[:300, i], truth[:300]) for i in range(k)]
        cases = gaussian_cases_from_regressions(x[300:], truth[300:], regs)
        path = str(tmp_path / "ensemble.csv")
        write_dataset_csv(path, cases)
        back = read_dataset_csv(path)
        res = fit_tlp(back)
        assert res.converged
        # the least noisy member should carry the largest weight
        assert int(np.argmax(res.spec.w)) == 2


class TestEvaluate:
    def test_degenerate_pool_equals_single_component(self, gaussian_cases):
        sub = gaussian_cases[:80]
        solo = evaluate(TlpSpec((1.0, 0.0, 0.0)), sub, rng_seed=5)
        # same component scored directly
        single_cases = [ForecastCase((c.components[0],), c.y) for c in sub]
        direct = evaluate(TlpSpec((1.0,)), single_cases, rng_seed=5)
        assert solo.mean_log_score == pytest.approx(direct.mean_log_score, rel=1e-12)
        assert solo.pit_variance == pytest.approx(direct.pit_variance, rel=1e-12)
        assert solo.rmv == pytest.approx(direct.rmv, rel=1e-12)

    def test_non_finite_outcome_rejected(self, gaussian_cases):
        cases = list(gaussian_cases[:50])
        cases[17] = ForecastCase(cases[17].components, np.nan)
        with pytest.raises(DomainViolation, match="case 17"):
            evaluate(TlpSpec((0.2, 0.3, 0.5)), cases)

    def test_histogram_counts_sum(self, gaussian_cases):
        rep = evaluate(BlpSpec((0.4, 0.3, 0.3), 1.2, 1.1), gaussian_cases[:60],
                       rng_seed=9, bins=10)
        assert rep.histogram.sum() == 60

    def test_bins_are_checked_before_any_work(self):
        # an empty set would raise TooFewSamples, once the work began
        with pytest.raises(InvalidConfig, match="bins must be at least 1"):
            evaluate(TlpSpec((1.0,)), ForecastBatch(np.empty(0), (Gaussian(0.0, 1.0),)), bins=0)


class TestClampedOutliers:
    """An outcome at 1e3 puts every component CDF of its case at the clamp."""

    @staticmethod
    def _cases(outliers):
        cases = make_gaussian_cases(np.random.default_rng(5), J=200)
        for j in range(outliers):
            cases[j] = ForecastCase(cases[j].components, 1e3)
        return cases

    @pytest.mark.parametrize("link", [LinkFunction.LOG, LinkFunction.RECIPROCAL],
                             ids=lambda link: link.value)
    def test_glp_converges_and_flags_one_outlier(self, link):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = fit_glp(self._cases(1), link)
        assert res.converged
        assert FLAG_CLAMPED_CASES in res.flags
        assert res.std_errors is not None

    def test_a_probit_fit_over_gaussians_never_clamps(self):
        # a Gaussian's probit term is z itself: the outliers score the density floor,
        # and neither one nor 5% of them sets the flag or rejects the data
        for outliers in (1, 10):
            res = fit_glp(self._cases(outliers), LinkFunction.PROBIT)
            assert res.converged
            assert FLAG_CLAMPED_CASES not in res.flags

    def test_blp_flags_one_outlier(self):
        res = fit_blp(self._cases(1))
        assert res.converged
        assert FLAG_CLAMPED_CASES in res.flags
        assert res.std_errors is not None

    def test_no_flag_without_clamped_cases(self, gaussian_cases):
        for res in (fit_blp(gaussian_cases), fit_glp(gaussian_cases, LinkFunction.LOG)):
            assert FLAG_CLAMPED_CASES not in res.flags

    @pytest.mark.parametrize("outliers", [0, 1])
    @pytest.mark.parametrize("fit", [fit_tlp, fit_blp, *_NEWTON_FITS],
                             ids=["tlp", "blp", "slp", "glp-log", "glp-reciprocal",
                                  "glp-probit"])
    def test_evaluate_reproduces_the_train_score(self, gaussian_cases, fit, outliers):
        # the fits score their design as evaluate scores the pooled density,
        # floor included: the outlier's pooled density is 0, since every
        # component is clamped there
        cases = self._cases(1) if outliers else gaussian_cases
        res = fit(cases)
        want = evaluate(res.spec, cases).mean_log_score
        assert res.mean_log_score_train == pytest.approx(want, rel=1e-12)

    @pytest.mark.xfail(strict=True, reason="the BLP design clamps each component CDF to "
                       "[1e-12, 1 - 1e-12], while BetaTransformed.density clips the "
                       "mixture CDF to [1e-300, 1 - 1e-16]")
    def test_evaluate_reproduces_the_blp_train_score_at_the_upper_clamp(self):
        # at y = 12 case 0's components sit at z = 7.9, 11.2 and 9.4: every CDF is
        # at the upper clamp, but every density is above the floor
        cases = self._cases(0)
        cases[0] = ForecastCase(cases[0].components, 12.0)
        res = fit_blp(cases)
        want = evaluate(res.spec, cases).mean_log_score
        assert res.mean_log_score_train == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("fit", [fit_tlp, fit_blp, *_NEWTON_FITS],
                             ids=["tlp", "blp", "slp", "glp-log", "glp-reciprocal",
                                  "glp-probit"])
    def test_an_outlier_at_the_density_floor_leaves_the_fit(self, fit):
        # it scores the floor at every parameter, so it adds nothing to the derivatives
        cases = self._cases(1)
        res, rest = fit(cases), fit(cases[1:])
        assert_allclose(res.spec.w, rest.spec.w, rtol=0, atol=1e-7)
        for name in res.spec.shape_params:
            assert getattr(res.spec, name) == pytest.approx(getattr(rest.spec, name), rel=1e-7)

    def test_blp_objective_floors_the_whole_log_density(self):
        # at y = -6.4 both CDFs lie above the clamp and the mixture density is
        # about 3e-10, but (alpha - 1) log F puts the case's log density near -950
        cases = [ForecastCase((Gaussian(m, 1.0), Gaussian(m + 0.5, 1.0)), m + 0.2)
                 for m in np.linspace(-1.0, 1.0, 9)]
        cases.append(ForecastCase((Gaussian(0.0, 1.0), Gaussian(0.5, 1.0)), -6.4))
        spec = BlpSpec((0.5, 0.5), 40.0, 1.0)
        ell = blp_objective_and_derivatives(spec.w, spec.alpha, spec.beta, cases)[0]
        want = evaluate(spec, cases).mean_log_score
        assert ell / len(cases) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("link", [None, LinkFunction.LOG, LinkFunction.RECIPROCAL],
                             ids=["blp", "glp-log", "glp-reciprocal"])
    def test_five_percent_of_outliers_rejected(self, link):
        cases = self._cases(10)
        with pytest.raises(DomainViolation, match="5.0% of cases"):
            fit_blp(cases) if link is None else fit_glp(cases, link)


class TestObservability:
    def test_slp_on_a_fit_workload_set_needs_few_evaluations(self):
        # fit set 1 of the benchmark at seed 100, where the gradient never
        # reaches 1e-8: the last step must stop at the rounding floor
        cases = simulate(DgpConfig(kind="regression", n=5000, seed=104829)).cases
        res = fit_slp(cases)
        assert res.converged
        assert res.evaluations <= 12
        assert res.grad_norm < 1e-6 * len(cases)

    @pytest.mark.parametrize("fit", [fit_tlp, fit_blp, *_NEWTON_FITS],
                             ids=["tlp", "blp", "slp", "glp-log", "glp-reciprocal",
                                  "glp-probit"])
    def test_every_fit_reports_evaluations_and_gradient_norm(self, gaussian_cases, fit):
        res = fit(gaussian_cases)
        assert res.converged
        assert res.evaluations >= res.iterations + 1
        assert 0.0 <= res.grad_norm < 1e-6 * len(gaussian_cases)

    @pytest.mark.parametrize("method", list(_CASES_BEYOND_K))
    def test_every_fit_needs_its_case_count(self, method):
        fit, beyond = _CASES_BEYOND_K[method]
        need = 3 + beyond
        cases = make_gaussian_cases(np.random.default_rng(2), J=need, k=3)
        with pytest.raises(TooFewSamples,
                           match=f"^need at least {need} cases to fit k=3 components$"):
            fit(cases[:-1])
        assert fit(cases).spec.k == 3

    def test_tlp_takes_newton_steps(self, study_report):
        res = study_report.fits["tlp"]
        assert res.converged
        assert res.iterations <= 10


class TestActiveSet:
    def test_pin_that_would_lower_the_objective_is_refused(self):
        # the third component sits about 3.5 of its sds above the outcome's,
        # so the reciprocal link weighs it on the scale of its tiny CDF
        # values, and moving its small weight to 0 costs log score
        rng = np.random.default_rng(2)
        cases = []
        for _ in range(100):
            mu = rng.normal(scale=0.8, size=2)
            sd = 0.8 + rng.random(size=2)
            pick = rng.integers(2)
            y = mu[pick] + sd[pick] * rng.standard_normal()
            far = mu[pick] + 7.0 + 0.5 * rng.standard_normal()
            cases.append(ForecastCase((Gaussian(mu[0], sd[0]), Gaussian(mu[1], sd[1]),
                                       Gaussian(far, 2.0)), y))
        res = fit_glp(cases, LinkFunction.RECIPROCAL)
        assert res.converged
        assert np.all(np.diff(np.asarray(res.trace)) >= -1e-12)
        assert 0.0 < res.spec.w[2] < 1e-6

    def test_pinned_weight_whose_gradient_turns_inward_is_released(self):
        # the third component sits 7.5 below the outcome's component: BLP's
        # first stage runs w_3 into the boundary, but once w_1, w_2, alpha
        # and beta have settled, w_3 belongs inside
        rng = np.random.default_rng(5)
        cases = []
        for _ in range(74):
            mu = rng.normal(scale=0.8, size=3)
            sd = 0.8 + rng.random(size=3)
            pick = rng.integers(2)
            y = mu[pick] + sd[pick] * rng.standard_normal()
            mu[2], sd[2] = mu[pick] - 7.47, 2.0
            cases.append(ForecastCase(tuple(map(Gaussian, mu, sd)), y))
        res = fit_blp(cases)
        assert res.converged
        assert res.spec.w[2] > 1e-4


class TestAscentDirection:
    def test_a_hessian_past_the_ridge_ladder_falls_back_to_the_scaled_gradient(self):
        # eigenvalues -1 -+ 1e25: the ridge stops at 1e17, short of making -H positive definite
        flags = set()
        g = np.array([1.0, 1.0])
        d = _ascent_direction(g, np.array([[-1.0, 1e25], [1e25, -1.0]]), flags)
        np.testing.assert_array_equal(d, g / 1.0)  # the scale is max(|diag H|, 1)
        assert flags == {FLAG_SINGULAR_HESSIAN}
