import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import ndtr, ndtri

from cdfpool import (
    BlpSpec,
    DomainViolation,
    FiniteDiscrete,
    Gaussian,
    GlpSpec,
    LinkFunction,
    MedianUndefined,
    Mixture,
    SlpSpec,
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
