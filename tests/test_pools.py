import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import betainc, ndtr, ndtri

from cdfpool import (
    BetaTransformed,
    BlpSpec,
    DomainViolation,
    FiniteDiscrete,
    Gaussian,
    GlpSpec,
    LinkFunction,
    MedianUndefined,
    Mixture,
    SlpSpec,
    SpreadAdjusted,
    TlpSpec,
    TwoPointBernoulli,
    WeightConstraintViolation,
    coherent_probit_pool,
    pit_sample,
    pool,
    randomized_pit,
    slp_limit_variance,
    spec_from_params,
    spec_params,
    validate_cdf,
)
from cdfpool.distributions import stack
from cdfpool.pools import CDF_CLAMP, GlpDistribution

COMPS = (Gaussian(-0.3, 1.2), Gaussian(0.7, 0.8), Gaussian(2.0, 1.5))
W = (0.2, 0.5, 0.3)
GRID = np.linspace(-8.0, 10.0, 1000)


class TestNesting:
    def test_slp_with_unit_spread_is_linear_pool(self):
        tlp = pool(TlpSpec(W), COMPS)
        slp = pool(SlpSpec(W, c=1.0), COMPS)
        assert np.max(np.abs(tlp.cdf(GRID) - slp.cdf(GRID))) < 1e-12

    def test_blp_with_identity_beta_is_linear_pool(self):
        tlp = pool(TlpSpec(W), COMPS)
        blp = pool(BlpSpec(W, alpha=1.0, beta=1.0), COMPS)
        assert np.max(np.abs(tlp.cdf(GRID) - blp.cdf(GRID))) < 1e-12

    def test_glp_identity_link_is_linear_pool(self):
        tlp = pool(TlpSpec(W), COMPS)
        glp = pool(GlpSpec(W, LinkFunction.IDENTITY), COMPS)
        assert np.max(np.abs(tlp.cdf(GRID) - glp.cdf(GRID))) < 1e-12

    def test_single_component_slp_rescales_gaussian(self):
        g = Gaussian(1.3, 2.0)
        slp = pool(SlpSpec((1.0,), c=0.7), (g,))
        target = Gaussian(1.3, 0.7 * 2.0)
        assert np.max(np.abs(slp.cdf(GRID) - target.cdf(GRID))) < 1e-12


class TestGlpArithmetic:
    def test_log_link_geometric_mean(self):
        # two flat-CDF surrogates evaluated where F1=0.2, F2=0.8
        s = 0.5 * np.log(0.2) + 0.5 * np.log(0.8)
        assert np.exp(s) == pytest.approx(0.4, rel=1e-12)
        d = pool(GlpSpec((0.5, 0.5), LinkFunction.LOG), (Gaussian(0, 1), Gaussian(0, 1)))
        y = Gaussian(0, 1).quantile(0.2)
        # identical components: pooled CDF equals the component CDF
        assert d.cdf(y) == pytest.approx(0.2, rel=1e-9)

    def test_reciprocal_link_harmonic_mean(self):
        s = 0.5 / 0.2 + 0.5 / 0.8
        assert 1.0 / s == pytest.approx(0.32, rel=1e-12)

    def test_unnormalized_weights_allowed_for_log_and_probit(self):
        spec = GlpSpec((1.3, 1.7), LinkFunction.PROBIT)
        d = pool(spec, (Gaussian(0, 1), Gaussian(0.2, 1.1)))
        validate_cdf(d)
        with pytest.raises(WeightConstraintViolation):
            GlpSpec((1.3, 1.7), LinkFunction.RECIPROCAL)

    def test_glp_density_matches_numeric_derivative(self):
        for link in (LinkFunction.LOG, LinkFunction.RECIPROCAL, LinkFunction.PROBIT):
            w = (0.5, 0.5) if link.requires_simplex else (0.9, 1.2)
            d = pool(GlpSpec(w, link), (Gaussian(-0.5, 1.0), Gaussian(0.8, 1.4)))
            ys = np.linspace(-2.5, 3.0, 25)
            h = 1e-6
            fd = (np.asarray(d.cdf(ys + h)) - np.asarray(d.cdf(ys - h))) / (2 * h)
            assert_allclose(np.asarray(d.density(ys)), fd, rtol=1e-5, atol=1e-10)

    def test_bernoulli_components(self):
        d = pool(GlpSpec((0.5, 0.5), LinkFunction.LOG),
                 (TwoPointBernoulli(0.2), TwoPointBernoulli(0.8)))
        assert d.cdf(0.0) == pytest.approx(0.4, rel=1e-12)
        assert d.cdf(-0.5) == 0.0
        assert d.cdf(1.0) == 1.0

    @pytest.mark.parametrize("link", [LinkFunction.LOG, LinkFunction.RECIPROCAL,
                                      LinkFunction.PROBIT], ids=lambda link: link.value)
    def test_disjoint_discrete_components_span_the_union_of_supports(self, link):
        # the pool's CDF is strictly inside (0, 1) between the two atom sets, so its
        # quantiles lie anywhere from the lowest atom to the highest
        comps = (FiniteDiscrete((0.0, 1.0), (0.5, 0.5)), FiniteDiscrete((5.0, 6.0), (0.5, 0.5)))
        d = pool(GlpSpec((0.5, 0.5), link), comps)
        assert d.support() == (0.0, 6.0)
        assert 0.0 < d.cdf(4.0) < 1.0
        for p in (1e-7, 0.5, 0.999):
            q = d.quantile(p)
            assert 0.0 <= q <= 6.0
            assert d.cdf(q) >= p
        validate_cdf(d)


def _clamp_then_link(spec, comps, y, left):
    """The GLP CDF by clamping every component CDF, then applying the link to the stack."""
    link = spec.link
    F = np.stack(np.broadcast_arrays(*(np.asarray(c.cdf_left(y) if left else c.cdf(y))
                                       for c in comps)))
    s = sum(w * v for w, v in zip(spec.w, link.apply(np.clip(F, CDF_CLAMP, 1.0 - CDF_CLAMP))))
    out = np.clip(link.invert(s), 0.0, 1.0)
    return np.where(np.all(F <= CDF_CLAMP, axis=0), 0.0,
                    np.where(np.all(F >= 1.0 - CDF_CLAMP, axis=0), 1.0, out))


_AROUND = np.concatenate([np.linspace(-12.0, 12.0, 97), [-np.inf, 0.0, 1.0, np.inf]])


class TestGlpLinkTerms:
    """A Gaussian's probit term is its z; every other term is h of the clamped CDF."""

    def test_opposed_gaussians_pool_to_ndtr_of_the_weighted_z(self):
        d = pool(GlpSpec((0.5, 0.5), LinkFunction.PROBIT), (Gaussian(-6.5, 1.0), Gaussian(6.5, 1.0)))
        ys = np.linspace(-0.5, 0.5, 101)
        # both CDFs lie far in a tail, where ndtri(ndtr(z)) loses about 1e-6
        np.testing.assert_array_equal(d.cdf(ys), ndtr(0.5 * (ys + 6.5) + 0.5 * (ys - 6.5)))
        np.testing.assert_array_equal(d.cdf_left(ys), d.cdf(ys))

    @pytest.mark.parametrize("w", [(0.3, 0.4), (1.3, 1.7)])
    def test_saturated_points_are_exactly_zero_and_one(self, w):
        d = pool(GlpSpec(w, LinkFunction.PROBIT), (Gaussian(0.0, 1.0), Gaussian(1.0, 2.0)))
        for method in (d.cdf, d.cdf_left):
            assert method(np.array([-np.inf, -100.0, 100.0, np.inf])).tolist() == [0, 0, 1, 1]

    def test_a_narrow_and_a_wide_gaussian_pool_to_the_papers_gaussian(self):
        # 1/s = 0.5 / 0.1 + 0.5 / 10: the pool is N(0, 1 / 5.05^2), with no clamp in its tails
        comps = (Gaussian(0.0, 0.1), Gaussian(0.0, 10.0))
        d = pool(GlpSpec((0.5, 0.5), LinkFunction.PROBIT), comps)
        assert d.cdf(-1.0) == pytest.approx(ndtr(-5.05), rel=1e-12)
        assert d.variance() == pytest.approx(1.0 / 5.05 ** 2, rel=1e-10)

    def test_only_members_that_clamp_put_kinks_in_the_pool(self):
        comps = (Gaussian(0.0, 1.0), Gaussian(1.0, 2.0))
        bounds = np.array([[CDF_CLAMP, 1.0 - CDF_CLAMP]])
        crossings = np.hstack([c.quantile(bounds) for c in comps])
        # a Gaussian's probit term never clamps, so the probit pool is one smooth panel
        for members in (comps, [stack([c, c]) for c in comps]):
            assert pool(GlpSpec((0.5, 0.5), LinkFunction.PROBIT), members)._kinks().size == 0
            kinks = pool(GlpSpec((0.5, 0.5), LinkFunction.LOG), members)._kinks()
            np.testing.assert_array_equal(np.sort(kinks, axis=1),
                                          np.sort(np.broadcast_to(crossings, kinks.shape), axis=1))
        # a row stack says so row by row: its Gaussian row's crossings are -inf, empty panels
        one_part = Mixture((Gaussian(0.0, 1.0),), (1.0,))
        mixed = stack([Gaussian(0.0, 1.0), one_part])
        assert mixed._clamps(LinkFunction.PROBIT).tolist() == [[False], [True]]
        kinks = pool(GlpSpec((0.5, 0.5), LinkFunction.PROBIT), (mixed, stack(comps[1:] * 2)))._kinks()
        np.testing.assert_array_equal(kinks, [[-np.inf, -np.inf], one_part.quantile(bounds)[0]])

    @pytest.mark.parametrize("link", list(LinkFunction), ids=lambda link: link.value)
    def test_a_zero_weight_adds_nothing_at_infinity(self, link):
        # 0 times an infinite term would be NaN
        spec, comps = GlpSpec((1.0, 0.0), link), (Gaussian(0.0, 1.0), Gaussian(1.0, 2.0))
        ends = np.array([-np.inf, np.inf])
        stacked = pool(spec, [stack([c, c]) for c in comps])
        for d, y, want in ((pool(spec, comps), ends, [0.0, 1.0]),
                           (stacked, ends[None, :], [[0.0, 1.0]] * 2)):
            for method in (d.cdf, d.cdf_left):
                assert np.asarray(method(y)).tolist() == want
            assert not np.any(d.density(y))

    def test_rows_of_a_pool_over_gaussian_and_other_kinds_equal_their_cases(self):
        rng = np.random.default_rng(17)
        mu = rng.normal(size=30)
        cases = [(Gaussian(m, 1.1) if j % 3 else Mixture((Gaussian(m, 1.0), Gaussian(m + 1.0, 0.5)),
                                                         (0.5, 0.5)),
                  Gaussian(-m, 0.7), TwoPointBernoulli(0.3))
                 for j, m in enumerate(mu)]
        ys = rng.normal(scale=4.0, size=(30, 9))
        ys[:, :4] = [-np.inf, 0.0, 1.0, np.inf]
        spec = GlpSpec((0.5, 0.8, 0.4), LinkFunction.PROBIT)
        columns = pool(spec, [stack(col) for col in zip(*cases)])
        for d in (columns, stack([pool(spec, c) for c in cases])):
            for method in ("cdf", "cdf_left"):
                np.testing.assert_array_equal(
                    getattr(d, method)(ys),
                    [getattr(pool(spec, c), method)(y) for c, y in zip(cases, ys)])

    @pytest.mark.parametrize("spec, comps", [
        (GlpSpec(W, LinkFunction.LOG), COMPS),
        (GlpSpec((0.7, 1.6, 0.4), LinkFunction.LOG), COMPS),
        (GlpSpec(W, LinkFunction.RECIPROCAL), COMPS),
        (GlpSpec((0.7, 1.6, 0.4), LinkFunction.PROBIT),
         (Mixture(COMPS[:2], (0.4, 0.6)), SpreadAdjusted(COMPS[2], 0.6, 2.0),
          FiniteDiscrete((-1.0, 0.0, 1.0), (0.2, 0.5, 0.3)))),
        (GlpSpec((0.5, 0.5), LinkFunction.LOG), (TwoPointBernoulli(0.2), COMPS[0])),
    ], ids=["log", "log-unnormalized", "reciprocal", "probit-other-kinds", "log-atoms"])
    def test_other_terms_are_the_clamped_cdf_under_the_link(self, spec, comps):
        d = pool(spec, comps)
        stacked = stack([d, pool(spec, comps)])
        y2 = np.stack([_AROUND, -_AROUND])
        for left, method in ((False, "cdf"), (True, "cdf_left")):
            np.testing.assert_array_equal(getattr(d, method)(_AROUND),
                                          _clamp_then_link(spec, comps, _AROUND, left))
            np.testing.assert_array_equal(getattr(stacked, method)(y2),
                                          [_clamp_then_link(spec, comps, y, left) for y in y2])


SPECS = [TlpSpec(W), SlpSpec(W, c=0.7), BlpSpec(W, alpha=1.5, beta=1.4)] + [
    GlpSpec(W, link) for link in LinkFunction]
SPEC_IDS = ["tlp", "slp", "blp"] + [f"glp-{link.value}" for link in LinkFunction]


def _checked_pool(spec, comps):
    """The pool of ``comps`` built by the constructors, which check their parameters."""
    if isinstance(spec, SlpSpec):
        return Mixture(tuple(SpreadAdjusted(c, spec.c, c.median()) for c in comps), spec.w)
    if isinstance(spec, BlpSpec):
        return BetaTransformed(Mixture(comps, spec.w), spec.alpha, spec.beta)
    if isinstance(spec, GlpSpec) and spec.link is not LinkFunction.IDENTITY:
        return GlpDistribution(comps, spec.w, spec.link)
    return Mixture(comps, spec.w)


class TestPoolValidity:
    @pytest.mark.parametrize(
        "spec",
        [
            TlpSpec(W),
            SlpSpec(W, c=0.7),
            BlpSpec(W, alpha=1.5, beta=1.4),
            GlpSpec(W, LinkFunction.LOG),
            GlpSpec(W, LinkFunction.PROBIT),
            GlpSpec(W, LinkFunction.RECIPROCAL),
        ],
    )
    def test_pooled_cdf_contract(self, spec):
        validate_cdf(pool(spec, COMPS), grid=GRID)

    def test_anonymity_of_equal_weights(self):
        w = (1 / 3, 1 / 3, 1 / 3)
        for spec_cls in (lambda ww: TlpSpec(ww), lambda ww: SlpSpec(ww, 0.8),
                         lambda ww: BlpSpec(ww, 1.3, 1.1),
                         lambda ww: GlpSpec(ww, LinkFunction.PROBIT)):
            base = pool(spec_cls(w), COMPS)
            perm = pool(spec_cls(w), (COMPS[2], COMPS[0], COMPS[1]))
            assert np.max(np.abs(base.cdf(GRID) - perm.cdf(GRID))) < 1e-12

    def test_component_count_must_match(self):
        with pytest.raises(WeightConstraintViolation):
            pool(TlpSpec((0.5, 0.5)), COMPS)

    @pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
    def test_every_family_checks_the_component_count(self, spec):
        with pytest.raises(WeightConstraintViolation, match="3 weights but 2 components"):
            pool(spec, COMPS[:2])

    @pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
    def test_pool_equals_the_checked_constructors(self, spec):
        comps = COMPS[:2] + (TwoPointBernoulli(0.3),)
        want = _checked_pool(spec, comps)
        got = pool(spec, comps)
        assert type(got) is type(want)
        assert got == want

    def test_slp_needs_unique_medians(self):
        flat = FiniteDiscrete((0.0, 1.0), (0.5, 0.5))
        with pytest.raises(MedianUndefined):
            pool(SlpSpec((0.5, 0.5), c=0.9), (flat, Gaussian(0, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("build", [
        lambda x: TlpSpec((x, 1.0)),
        lambda x: SlpSpec((0.5, 0.5), x),
        lambda x: BlpSpec((0.5, 0.5), x, 1.0),
        lambda x: BlpSpec((0.5, 0.5), 1.0, x),
        lambda x: GlpSpec((x, 1.0), LinkFunction.PROBIT),
        lambda x: GlpSpec((x, 1.0), LinkFunction.LOG),
        lambda x: GlpSpec((x, 0.5), LinkFunction.RECIPROCAL),
    ], ids=["tlp-w", "slp-c", "blp-alpha", "blp-beta", "glp-probit-w", "glp-log-w",
            "glp-reciprocal-w"])
    def test_specs_reject_non_finite_parameters(self, build, bad):
        with pytest.raises(WeightConstraintViolation):
            build(bad)

    @pytest.mark.parametrize("comps, w", [
        (COMPS[:2], (np.nan, 0.5)), (COMPS[:2], (-3.0, 0.5)), (COMPS, (0.5, 0.5)),
    ], ids=["nan", "negative", "one-weight-short"])
    def test_glp_distribution_checks_its_weights(self, comps, w):
        with pytest.raises(WeightConstraintViolation):
            GlpDistribution(comps, w, LinkFunction.LOG)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_mixture_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError):
            Mixture(COMPS[:2], (bad, 1.0))


class TestPitFactorization:
    def test_blp_pit_is_beta_of_tlp_pit(self):
        from scipy.special import betainc

        rng = np.random.default_rng(14)
        alpha, beta = 1.7, 0.9
        tlp = pool(TlpSpec(W), COMPS)
        blp = pool(BlpSpec(W, alpha, beta), COMPS)
        for y in rng.normal(scale=2.0, size=50):
            v = rng.uniform(0.01, 0.99)
            lhs = randomized_pit(blp, y, v)
            rhs = betainc(alpha, beta, randomized_pit(tlp, y, v))
            assert lhs == rhs  # same arithmetic path, exact equality

    def test_tlp_density_is_weighted_sum(self):
        tlp = pool(TlpSpec(W), COMPS)
        ys = np.linspace(-5, 7, 100)
        manual = sum(w * np.asarray(c.density(ys)) for w, c in zip(W, COMPS))
        assert_allclose(np.asarray(tlp.density(ys)), manual, rtol=1e-13)


class TestDispersionOrdering:
    def test_linear_pool_pit_variance_bounded_by_components(self):
        rng = np.random.default_rng(77)
        for trial in range(50):
            k = int(rng.integers(2, 5))
            n = 60
            ys = rng.normal(scale=1.5, size=n)
            forecasts = [
                [Gaussian(rng.normal(), 0.5 + rng.random()) for _ in range(k)]
                for _ in range(n)
            ]
            w = rng.dirichlet(np.ones(k))
            pools = [pool(TlpSpec(tuple(w)), f) for f in forecasts]
            seed = int(rng.integers(1 << 30))
            z_pool = pit_sample(pools, ys, seed).z
            z_comp = np.stack(
                [pit_sample([f[i] for f in forecasts], ys, seed).z for i in range(k)]
            )
            var_pool = np.var(z_pool, ddof=1)
            var_comp = np.var(z_comp, axis=1, ddof=1)
            assert var_pool <= np.max(var_comp)


class TestCoherentProbitPool:
    def test_even_odds_stay_even(self):
        assert coherent_probit_pool(0.5, 0.5, 1.3, 0.6) == pytest.approx(0.5, abs=1e-15)

    def test_unit_noise_example(self):
        p = ndtr(1.0 / np.sqrt(2.0))
        assert coherent_probit_pool(p, p, 1.0, 1.0) == pytest.approx(ndtr(2.0), rel=1e-12)

    def test_domain_violation(self):
        with pytest.raises(DomainViolation):
            coherent_probit_pool(0.0, 0.5, 1.0, 1.0)

    def test_a_scalar_and_an_array_broadcast(self):
        p2 = np.array([0.2, 0.5, 0.9])
        got = coherent_probit_pool(0.3, p2, 1.0, 1.0)
        assert got.shape == (3,)
        np.testing.assert_array_equal(got, [coherent_probit_pool(0.3, p, 1.0, 1.0) for p in p2])

    @pytest.mark.parametrize("args", [
        (np.nan, 0.5, 1.0, 1.0), (0.5, np.array([0.3, np.nan]), 1.0, 1.0),
        (0.5, 0.5, np.inf, 1.0), (0.5, 0.5, 1.0, np.nan),
    ], ids=["nan-p1", "nan-in-p2", "inf-sigma1", "nan-sigma2"])
    def test_non_finite_input_is_a_domain_violation(self, args):
        with pytest.raises(DomainViolation):
            coherent_probit_pool(*args)

    def test_matches_conditional_frequency_by_monte_carlo(self):
        from cdfpool.sim import _draw_binary

        rng = np.random.Generator(np.random.Philox(55))
        n = 1_000_000
        y, p1, p2, _ = _draw_binary(rng, n, 1.0, 1.0)
        pc = coherent_probit_pool(p1, p2, 1.0, 1.0)
        bins = 20
        idx = np.clip((pc * bins).astype(int), 0, bins - 1)
        counts = np.bincount(idx, minlength=bins).astype(float)
        hits = np.bincount(idx, weights=(y == 0.0), minlength=bins)
        psum = np.bincount(idx, weights=pc, minlength=bins)
        for b in range(bins):
            if counts[b] < 200:
                continue
            pbar = psum[b] / counts[b]
            sigma = np.sqrt(pbar * (1 - pbar) / counts[b])
            assert abs(hits[b] / counts[b] - pbar) <= 3 * sigma


class TestSlpLimitVariance:
    def test_single_component_at_observation_median(self):
        f0 = Gaussian(0, 1)
        assert slp_limit_variance(f0, [Gaussian(0, 5)], [1.0]) == pytest.approx(0.25)

    def test_equal_medians_collapse_to_two_atoms(self):
        f0 = Gaussian(0, 1)
        val = slp_limit_variance(f0, [Gaussian(1, 2), Gaussian(1, 3)], [0.4, 0.6])
        p = ndtr(1.0)
        assert val == pytest.approx(p * (1 - p), rel=1e-12)

    def test_monte_carlo_small_spread_limit(self):
        from cdfpool import SlpSpec, pool

        f0 = Gaussian(0, 1)
        m = ndtri(0.75)
        comps = (Gaussian(-m, 1.0), Gaussian(m, 1.0))
        w = (0.5, 0.5)
        bound = slp_limit_variance(f0, comps, w)
        rng = np.random.default_rng(42)
        y = rng.standard_normal(1_000_000)
        z = np.asarray(pool(SlpSpec(w, c=1e-3), comps).cdf(y))
        var = np.var(z, ddof=1)
        m4 = np.mean((z - z.mean()) ** 4)
        se = np.sqrt(max(m4 - var**2, 0.0) / z.size)
        assert abs(var - bound) < 3 * se


_POSITIVE = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def _specs(draw):
    raw = draw(st.lists(_POSITIVE, min_size=1, max_size=5))
    simplex = tuple(x / sum(raw) for x in raw)
    family = draw(st.sampled_from(["tlp", "slp", "blp", *LinkFunction]))
    if family == "tlp":
        return TlpSpec(simplex)
    if family == "slp":
        return SlpSpec(simplex, c=draw(_POSITIVE))
    if family == "blp":
        return BlpSpec(simplex, alpha=draw(_POSITIVE), beta=draw(_POSITIVE))
    return GlpSpec(simplex if family.requires_simplex else tuple(raw), link=family)


class TestSpecParams:
    def test_named_parameters_in_file_order(self):
        assert list(spec_params(BlpSpec(W, alpha=1.5, beta=0.5)).items()) == [
            ("w_1", 0.2), ("w_2", 0.5), ("w_3", 0.3), ("alpha", 1.5), ("beta", 0.5)]
        assert list(spec_params(SlpSpec((1.0,), c=0.8))) == ["w_1", "c"]
        assert list(spec_params(GlpSpec(W, LinkFunction.LOG))) == ["w_1", "w_2", "w_3"]

    def test_method_names(self):
        assert [s.method for s in (TlpSpec(W), SlpSpec(W, 1.0), BlpSpec(W, 1.0, 1.0))] == [
            "tlp", "slp", "blp"]
        assert GlpSpec(W, LinkFunction.RECIPROCAL).method == "glp-reciprocal"

    @given(_specs())
    def test_round_trip(self, spec):
        assert spec_from_params(spec.method, spec_params(spec)) == spec


# ---------------------------------------------------------------------------
# the one weight rule, the link table and the pooled CDF contract

_SPECIAL = [0.0, 0.25, 0.5, 0.75, 1.0, 1.3, -0.1, 1e-300, 0.5 + 1e-13, math.nan, math.inf, -math.inf]
_ANY_FLOAT = st.one_of(st.sampled_from(_SPECIAL), st.floats())
_SHAPE = st.one_of(st.floats(0.01, 100.0), _ANY_FLOAT)  # valid about half the time


@st.composite
def _raw_weights(draw):
    """Weight lists of length 0 to 4: any floats, or nonnegative floats divided by their
    sum (when it is positive) and then moved off 1 by at most 1e-11."""
    if draw(st.booleans()):
        return draw(st.lists(_ANY_FLOAT, max_size=4))
    w = draw(st.lists(st.floats(0.0, 100.0), max_size=4))
    if sum(w) > 0.0:
        w = [x / sum(w) for x in w]
        w[0] += draw(st.sampled_from([0.0, 0.0, 5e-13, -5e-13, 2e-12, -2e-12, 1e-11]))
    return w


# family name -> (build from weights and two shape values, shapes used, simplex weights)
_RULES = {
    "tlp": (lambda w, a, b: TlpSpec(w), 0, True),
    "slp": (lambda w, a, b: SlpSpec(w, a), 1, True),
    "blp": (lambda w, a, b: BlpSpec(w, a, b), 2, True),
    **{f"glp-{link.value}": (lambda w, a, b, link=link: GlpSpec(w, link), 0,
                             link not in (LinkFunction.LOG, LinkFunction.PROBIT))
       for link in LinkFunction},
}


def _documented_rule(w, shapes, simplex) -> bool:
    """Nonempty, nonnegative weights summing to 1 within 1e-12 (or to a positive finite
    sum off the simplex), and positive finite shape parameters."""
    if not w or not all(x >= 0.0 for x in w):
        return False
    total = sum(w)
    summed = abs(total - 1.0) <= 1e-12 if simplex else 0.0 < total < math.inf
    return summed and all(0.0 < x < math.inf for x in shapes)


class TestSpecRule:
    @settings(max_examples=400)
    @given(_raw_weights(), _SHAPE, _SHAPE)
    def test_each_family_accepts_exactly_the_documented_rule(self, w, a, b):
        for family, (build, n_shapes, simplex) in _RULES.items():
            if not _documented_rule(w, (a, b)[:n_shapes], simplex):
                with pytest.raises(WeightConstraintViolation):
                    build(w, a, b)
                continue
            spec = build(w, a, b)
            assert (spec.w, spec.k, spec.method) == (tuple(map(float, w)), len(w), family)
            assert spec_from_params(family, spec_params(spec)) == spec

    def test_slp_limit_variance_takes_the_simplex_rule(self):
        with pytest.raises(WeightConstraintViolation):
            slp_limit_variance(Gaussian(0, 1), COMPS[:2], (0.9, 1.2))


_LEVELS = st.floats(min_value=CDF_CLAMP, max_value=1.0 - 1e-6)


def _phi(link, s):
    """phi(s) = -log|h'(h^{-1}(s))|."""
    return -np.log(np.abs(link.deriv(link.invert(s))))


class TestLinkTable:
    """Each link's h, h^{-1}, h' and phi derivatives agree with each other on the clamp range.

    Levels stop at 1 - 1e-6: above it the probit's h^{-1} is an upper-tail ``ndtr``
    whose rounding the second difference of phi magnifies past any useful tolerance.
    """

    @given(st.sampled_from(list(LinkFunction)), _LEVELS)
    def test_invert_undoes_apply(self, link, u):
        assert link.invert(link.apply(np.array([u])))[0] == pytest.approx(u, rel=1e-11)

    @given(st.sampled_from(list(LinkFunction)), _LEVELS)
    def test_deriv_is_the_slope_of_apply(self, link, u):
        step = 1e-4 * min(u, 1.0 - u)
        up, down = np.array([u + step]), np.array([u - step])
        h_up, h_down = link.apply(up)[0], link.apply(down)[0]
        slope = (h_up - h_down) / (up[0] - down[0])
        exact = link.deriv(np.array([u]))[0]
        rounding = 8 * np.finfo(float).eps * max(abs(h_up), abs(h_down)) / (up[0] - down[0])
        assert abs(slope - exact) <= 1e-6 * abs(exact) + rounding

    @given(st.sampled_from(list(LinkFunction)), _LEVELS)
    def test_phi_is_the_log_slope_of_the_inverse(self, link, u):
        s = link.apply(np.array([u]))
        assert link.phi(s)[0] == pytest.approx(_phi(link, s)[0], rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("link", list(LinkFunction), ids=lambda link: link.value)
    def test_a_link_is_one_object(self, link):
        assert pickle.loads(pickle.dumps(link)) is link
        assert copy.deepcopy(link) is link
        assert LinkFunction(link.value) is link

    @pytest.mark.parametrize("link", list(LinkFunction), ids=lambda link: link.value)
    def test_a_glp_spec_pickles_with_its_link(self, link):
        spec = GlpSpec((0.5, 0.5), link)
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec
        assert back.link is link

    @given(st.sampled_from(list(LinkFunction)), _LEVELS)
    def test_phi_derivs_are_the_slopes_of_phi(self, link, u):
        s = link.apply(np.array([u]))
        d = 1e-3 * (1.0 + abs(s[0]))
        lo, mid, hi = _phi(link, s - d)[0], _phi(link, s)[0], _phi(link, s + d)[0]
        phi1, phi2 = (x[0] for x in link.phi_derivs(s))
        assert (hi - lo) / (2 * d) == pytest.approx(phi1, rel=1e-5, abs=1e-6)
        assert (hi - 2 * mid + lo) / (d * d) == pytest.approx(phi2, rel=1e-4, abs=1e-4)


@st.composite
def _random_pools(draw):
    """A pool of one to four Gaussians; log and probit weights need not sum to 1."""
    k = draw(st.integers(1, 4))
    comps = [Gaussian(draw(st.floats(-5.0, 5.0)), draw(st.floats(0.1, 5.0))) for _ in range(k)]
    raw = [draw(st.one_of(st.just(0.0), st.floats(0.05, 3.0))) for _ in range(k)]
    assume(sum(raw) > 0.0)
    simplex = tuple(x / sum(raw) for x in raw)
    family = draw(st.sampled_from(["tlp", "slp", "blp", *LinkFunction]))
    shape = st.floats(0.1, 10.0)
    if family == "tlp":
        spec = TlpSpec(simplex)
    elif family == "slp":
        spec = SlpSpec(simplex, draw(shape))
    elif family == "blp":
        spec = BlpSpec(simplex, draw(shape), draw(shape))
    else:
        spec = GlpSpec(simplex if family.requires_simplex else tuple(raw), family)
    return pool(spec, comps)


@settings(max_examples=200, deadline=None)
@given(_random_pools())
def test_every_random_pool_is_a_cdf(d):
    validate_cdf(d)


_SHORT = (0.6609559208389623, 0.3390440791610376)  # sum(w) == 1 - 2**-53


def test_blp_with_small_beta_over_weights_summing_below_one_reaches_one():
    d = pool(BlpSpec(_SHORT, 1.0, 0.25), (Gaussian(0.0, 1.0), Gaussian(0.0, 1.0)))
    validate_cdf(d)
    assert d.cdf(1e8) == 1.0
    p = np.array([0.01, 0.5, 0.99])
    assert_allclose(d.cdf(d.quantile(p)), p, atol=1e-9)
    stacked = stack([d, pool(BlpSpec((0.5, 0.5), 1.0, 0.25), (Gaussian(0.0, 1.0),) * 2)])
    assert np.all(stacked.cdf(np.array([[1e8]])) == 1.0)


def test_blp_over_weights_summing_to_one_is_the_beta_transform_of_the_mixture():
    ys = np.random.default_rng(14).normal(scale=3.0, size=200)
    d = pool(BlpSpec(W, 1.7, 0.3), COMPS)
    assert sum(W) == 1.0
    assert np.array_equal(d.cdf(ys), betainc(1.7, 0.3, np.clip(Mixture(COMPS, W).cdf(ys), 0, 1)))
