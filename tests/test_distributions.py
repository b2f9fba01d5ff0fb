import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import betaln, log_ndtr, ndtr, ndtri

from cdfpool import (
    BetaTransformed,
    BlpSpec,
    CdfPoolError,
    DensityUnavailable,
    DgpConfig,
    DomainViolation,
    FiniteDiscrete,
    Gaussian,
    GlpSpec,
    LinkFunction,
    MedianUndefined,
    Mixture,
    MomentUnavailable,
    PredictiveDist,
    SpreadAdjusted,
    TlpSpec,
    TwoPointBernoulli,
    evaluate,
    pool,
    simulate,
    validate_cdf,
)
from cdfpool.distributions import _gauss_kronrod, _kronrod_sums, stack
from cdfpool.pools import CDF_CLAMP

STANDARD_MIX = Mixture((Gaussian(-1.0, 1.0), Gaussian(1.0, 1.0)), (0.5, 0.5))


class TestCdf:
    def test_gaussian_symmetry(self):
        assert Gaussian(0.0, 1.0).cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_bernoulli_atom_at_success(self):
        assert TwoPointBernoulli(0.3).cdf(0.0) == 0.3

    def test_symmetric_mixture(self):
        assert STANDARD_MIX.cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_vectorized_matches_scalar(self):
        d = Mixture((Gaussian(0.0, 1.0), TwoPointBernoulli(0.4)), (0.7, 0.3))
        ys = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
        assert_allclose(d.cdf(ys), [d.cdf(float(y)) for y in ys], rtol=0, atol=0)


class TestCdfLeft:
    def test_bernoulli_left_limits(self):
        b = TwoPointBernoulli(0.3)
        assert b.cdf_left(0.0) == 0.0
        assert b.cdf_left(1.0) == 0.3

    def test_continuous_has_no_jump(self):
        assert Gaussian(0.0, 1.0).cdf_left(0.0) == 0.5

    def test_left_plus_mass_is_cdf_exactly(self):
        d = FiniteDiscrete((-1.0, 0.5, 2.0), (0.2, 0.45, 0.35))
        for y in (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0):
            assert d.cdf_left(y) + d.point_mass(y) == d.cdf(y)


class TestDensity:
    def test_standard_normal_at_zero(self):
        assert Gaussian(0.0, 1.0).density(0.0) == pytest.approx(0.3989423, abs=1e-7)

    def test_identity_beta_transform_keeps_density(self):
        base = Gaussian(0.3, 1.7)
        t = BetaTransformed(base, 1.0, 1.0)
        ys = np.linspace(-4.0, 5.0, 50)
        assert_allclose(t.density(ys), base.density(ys), rtol=1e-12)

    def test_beta_2_1_of_uniform_like_base(self):
        # base with uniform CDF on (0,1): beta(2,1) density is 2u at u
        t = BetaTransformed(_UniformOnUnit(), 2.0, 1.0)
        assert t.density(0.5) == pytest.approx(1.0, rel=1e-12)

    def test_atomic_kinds_refuse(self):
        with pytest.raises(DensityUnavailable):
            TwoPointBernoulli(0.5).density(0.0)
        with pytest.raises(DensityUnavailable):
            Mixture((Gaussian(0, 1), TwoPointBernoulli(0.5)), (0.5, 0.5)).density(0.0)


class _UniformOnUnit(Gaussian):
    """Standard uniform via the predictive-distribution interface."""

    def __init__(self):
        super().__init__(0.0, 1.0)

    def cdf(self, y):
        return np.clip(np.asarray(y, dtype=float), 0.0, 1.0) if np.ndim(y) else float(
            min(max(y, 0.0), 1.0)
        )

    def cdf_left(self, y):
        return self.cdf(y)

    def density(self, y):
        y_arr = np.asarray(y, dtype=float)
        out = ((y_arr >= 0.0) & (y_arr <= 1.0)).astype(float)
        return out if np.ndim(y) else float(out)

    def quantile(self, p):
        return np.asarray(p, dtype=float) if np.ndim(p) else float(p)

    def support(self):
        return (0.0, 1.0)


class TestQuantile:
    def test_gaussian_median_is_mean(self):
        assert Gaussian(2.0, 3.0).quantile(0.5) == pytest.approx(2.0, abs=1e-12)

    def test_discrete_generalized_inverse(self):
        d = FiniteDiscrete((0.0, 1.0, 2.0), (0.5, 0.25, 0.25))
        assert d.quantile(0.6) == 1.0
        assert d.quantile(0.5) == 0.0
        assert d.quantile(0.76) == 2.0

    def test_beta_transform_inverts_square(self):
        t = BetaTransformed(_UniformOnUnit(), 2.0, 1.0)
        assert t.quantile(0.25) == pytest.approx(0.5, abs=1e-9)

    def test_round_trip_on_grid(self):
        for d in (Gaussian(1.0, 2.0), STANDARD_MIX,
                  BetaTransformed(STANDARD_MIX, 1.5, 2.0)):
            ps = np.linspace(0.001, 0.999, 41)
            qs = np.asarray(d.quantile(ps))
            assert np.max(np.abs(np.asarray(d.cdf(qs)) - ps)) < 1e-9

    def test_a_level_out_of_reach_fails_loudly(self):
        # the CDF tops out at 1 - 5e-13; bisection once returned 3.2e60 here
        short = Mixture((Gaussian(0, 1), Gaussian(1, 1)), (0.5, 0.5 - 5e-13))
        with pytest.raises(DomainViolation, match="^Mixture CDF does not reach quantile level "
                                                  "0.9999999999999$"):
            short.quantile(1 - 1e-13)
        assert np.isfinite(short.quantile(1 - 1e-12))
        floored = _UserKind(lambda y: 1e-9 + (1.0 - 1e-9) * ndtr(y))
        with pytest.raises(DomainViolation, match="^_UserKind CDF does not fall below "
                                                  "quantile level 1e-10$"):
            floored.quantile(1e-10)


class TestMoments:
    def test_gaussian_variance(self):
        assert Gaussian(5.0, 2.0).variance() == 4.0

    def test_mixture_within_plus_between(self):
        assert STANDARD_MIX.variance() == pytest.approx(2.0, rel=1e-12)

    def test_spread_adjust_scales_variance(self):
        d = SpreadAdjusted(Gaussian(0.0, 2.0), c=0.5, center=0.0)
        assert d.variance() == pytest.approx(1.0, rel=1e-12)

    def test_beta_transform_of_mixture_that_passes_one(self):
        # these weights sum to 1 + 2e-16, so the mixture's CDF passes 1 by rounding
        w = (0.20689609319226915, 0.7048003422567792, 0.08830356455095174)
        d = BetaTransformed(Mixture((Gaussian(0.0, 1.0),) * 3, w), 2.7, 1.4)
        assert d.cdf(50.0) == 1.0
        assert d.variance() > 0.0

    def test_beta_transform_variance_by_quadrature(self):
        d = BetaTransformed(Gaussian(0.0, 1.0), 2.0, 2.0)
        # independent oracle: direct quadrature of y^2 against the density
        m = quad(lambda t: t * d.density(t), -10, 10, epsabs=1e-12)[0]
        v = quad(lambda t: (t - m) ** 2 * d.density(t), -10, 10, epsabs=1e-12)[0]
        assert d.variance() == pytest.approx(v, rel=1e-8)


def _quad_moments(integrand_m, integrand_v, lo, hi, points):
    # breakpoints closer than 1e-6 leave quad a sliver it handles badly
    points = sorted({round(p, 6) for p in points})
    kw = dict(epsabs=1e-12, epsrel=1e-11, limit=1000, points=points)
    m = quad(integrand_m, lo, hi, **kw)[0]
    return m, quad(lambda t: integrand_v(t, m), lo, hi, **kw)[0]


def _density_oracle(d, comps):
    """Mean and variance by quad against the density, over 12 sd past every component.

    quad is told where each component is 0, 6 and 8 sd from its mean: with the
    bulk alone as breakpoints, some far tails leave it short of its tolerance.
    """
    lo = min(c.mu - 12.0 * c.sigma for c in comps)
    hi = max(c.mu + 12.0 * c.sigma for c in comps)
    points = [c.mu + s * c.sigma for c in comps for s in (-8.0, -6.0, 0.0, 6.0, 8.0)]
    return _quad_moments(lambda t: t * d.density(t), lambda t, m: (t - m) ** 2 * d.density(t),
                         lo, hi, points)


def _cdf_oracle(d, comps):
    """Mean and variance by quad of the CDF integrated by parts.

    A GLP's density is the CDF's derivative between the components' clamp
    crossings, and the CDF jumps by about CDF_CLAMP at the outermost two; the
    CDF defines the pool.  quad is told where the crossings are.
    """
    lo = min(c.mu - 12.0 * c.sigma for c in comps)
    hi = max(c.mu + 12.0 * c.sigma for c in comps)
    z = ndtri(CDF_CLAMP)
    kinks = [c.mu + s * z * c.sigma for c in comps for s in (-1.0, 1.0)]
    i1, i2 = _quad_moments(lambda t: 1.0 - d.cdf(t),
                           lambda t, _: 2.0 * (t - lo) * (1.0 - d.cdf(t)),
                           lo, hi, kinks + [c.mu for c in comps])
    return lo + i1, i2 - i1 * i1


# Two to four Gaussian components as (mu, sigma, unnormalised weight), which
# covers the regression study's forecasts.  With sigma drawn from 0.1-10,
# some log and reciprocal pools raise MomentUnavailable.
_components = st.lists(
    st.tuples(st.floats(-3.0, 3.0), st.floats(0.8, 2.0), st.floats(0.05, 1.0)),
    min_size=2, max_size=4,
)
# the BLP's components may be a hundred times wider than each other
_blp_components = st.lists(
    st.tuples(st.floats(-3.0, 3.0), st.floats(0.1, 10.0), st.floats(0.05, 1.0)),
    min_size=2, max_size=4,
)


def _gaussians(raw):
    w = np.array([x for _, _, x in raw])
    return tuple(Gaussian(mu, sd) for mu, sd, _ in raw), tuple(w / w.sum())


def _assert_moments_close(d, oracle):
    m, v = d.mean(), d.variance()
    m_ref, v_ref = oracle
    assert v == pytest.approx(v_ref, rel=1e-8)
    assert abs(m - m_ref) <= 1e-8 * np.sqrt(v_ref)


class TestGridMoments:
    """BLP and GLP moments come from a Gauss–Kronrod pair on the CDF; quad is the oracle."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_blp_components, st.floats(0.7, 5.0), st.floats(0.7, 5.0))
    # weights summing to 1 - 1e-16: the mixture tops out short of 1, and the pool still reaches 1
    @example([(0.0, 1.0, 1.0), (0.0, 1.0, 0.8), (0.0, 1.0, 0.9435691943904444)], 2.0, 0.703125)
    def test_blp_matches_quad(self, raw, alpha, beta):
        comps, w = _gaussians(raw)
        d = pool(BlpSpec(w, alpha, beta), comps)
        _assert_moments_close(d, _density_oracle(d, comps))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_components, st.sampled_from([LinkFunction.LOG, LinkFunction.PROBIT,
                                         LinkFunction.RECIPROCAL]))
    # the clamp switches on inside the bulk, putting kinks in the CDF
    @example([(0.24, 0.95, 0.09), (-2.79, 1.71, 0.9), (-2.13, 1.77, 0.09)], LinkFunction.LOG)
    @example([(0.39, 1.49, 0.9), (-1.21, 0.81, 0.26)], LinkFunction.PROBIT)
    def test_glp_matches_quad(self, raw, link):
        comps, w = _gaussians(raw)
        d = pool(GlpSpec(w, link), comps)
        _assert_moments_close(d, _cdf_oracle(d, comps))

    @pytest.mark.parametrize("alpha, beta", [(0.3, 0.3), (5.0, 0.2), (0.05, 0.05)])
    def test_heavy_tailed_beta_transform(self, alpha, beta):
        # the base CDF rounds to 1 while B(u) is still short of 1 by up to
        # 1e-1, so the moments are either right or typed as unavailable
        mu, sd = 3.0, 0.01
        d = BetaTransformed(Gaussian(mu, sd), alpha, beta)
        try:
            m, v = d.mean(), d.variance()
        except MomentUnavailable:
            return

        def density(z):  # of the standardised variable, exact in both tails
            return np.exp((alpha - 1.0) * log_ndtr(z) + (beta - 1.0) * log_ndtr(-z)
                          - betaln(alpha, beta) - 0.5 * z * z) / np.sqrt(2.0 * np.pi)

        m_z, v_z = _quad_moments(lambda z: z * density(z), lambda z, m: (z - m) ** 2 * density(z),
                                 -40.0, 40.0, [-10.0, -5.0, 0.0, 5.0, 10.0])
        assert v == pytest.approx(sd * sd * v_z, rel=1e-8)
        assert m == pytest.approx(mu + sd * m_z, abs=1e-8 * sd)

    def test_atoms_have_no_grid_moments(self):
        d = BetaTransformed(TwoPointBernoulli(0.3), 2.0, 2.0)
        with pytest.raises(MomentUnavailable):
            d.variance()

    def test_blp_of_a_wide_and_a_narrow_component(self):
        # alpha = beta = 1 is the linear pool, whose variance is 0.5 * 3^2 + 0.5 * 0.125^2
        d = pool(BlpSpec((0.5, 0.5), 1.0, 1.0), (Gaussian(0.0, 3.0), Gaussian(0.0, 0.125)))
        assert pool(TlpSpec((0.5, 0.5)), d.base.components).variance() == 4.5078125
        assert d.variance() == pytest.approx(4.5078125, rel=1e-8)


def _spec(family, w):
    return BlpSpec(w, 1.7, 0.8) if family == "blp" else GlpSpec(w, family)


class TestRuleCoverage:
    """Brackets far from 0 or wide, and CDF jumps at panel edges."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(_components, st.floats(-1e4, 1e4),
           st.sampled_from(["blp", LinkFunction.LOG, LinkFunction.PROBIT, LinkFunction.RECIPROCAL]))
    def test_a_shift_moves_the_mean_only(self, raw, s, family):
        comps, w = _gaussians(raw)
        d = pool(_spec(family, w), comps)
        shifted = pool(_spec(family, w), tuple(Gaussian(c.mu + s, c.sigma) for c in comps))
        assert abs(shifted.mean() - d.mean() - s) <= 1e-8
        assert abs(shifted.variance() - d.variance()) <= 1e-8

    @pytest.mark.parametrize("spec", [
        BlpSpec((0.5, 0.5), 1.3, 0.7), BlpSpec((0.3, 0.7), 0.8, 2.0),
        GlpSpec((0.5, 0.5), LinkFunction.LOG), GlpSpec((0.4, 0.6), LinkFunction.PROBIT),
    ], ids=["blp", "blp-skewed", "glp-log", "glp-probit"])
    def test_wide_bracket_matches_quad(self, spec):
        comps = (Gaussian(-45.0, 1.0), Gaussian(45.0, 1.0))
        d = pool(spec, comps)
        lo, hi = d._tail_bracket(0)
        assert hi[0, 0] - lo[0, 0] > 100.0
        oracle = _density_oracle if isinstance(spec, BlpSpec) else _cdf_oracle
        _assert_moments_close(d, oracle(d, comps))

    # case 34 of simulate(regression, 300, seed=31)
    _CASE = (Gaussian(-0.064, 1.79), Gaussian(-0.394, 1.79), Gaussian(-1.233, 1.73))

    def test_log_pool_with_weights_below_one_matches_quad(self):
        # the CDF jumps by about CDF_CLAMP^sum(w) where the lowest component crosses the clamp
        d = pool(GlpSpec((0.111, 0.220, 0.113), LinkFunction.LOG), self._CASE)
        edge = min(c.quantile(CDF_CLAMP) for c in self._CASE)
        assert d.cdf(edge) - d.cdf(edge - 1e-9) > 1e-6
        _assert_moments_close(d, _cdf_oracle(d, self._CASE))

    def test_pool_nested_in_a_pool_matches_quad(self):
        # the outer CDF has kinks where the inner pool's own components cross the clamp
        inner_comps = (Gaussian(0.0, 0.5), Gaussian(1.0, 3.0))
        inner = pool(GlpSpec((0.5, 0.5), LinkFunction.LOG), inner_comps)
        comps = (inner, Gaussian(0.5, 2.0))
        d = pool(GlpSpec((0.5, 0.5), LinkFunction.PROBIT), comps)
        kinks = [c.quantile(p) for c in inner_comps + comps for p in (CDF_CLAMP, 1.0 - CDF_CLAMP)]
        lo, hi = -40.0, 40.0
        i1, i2 = _quad_moments(lambda t: 1.0 - d.cdf(t),
                               lambda t, _: 2.0 * (t - lo) * (1.0 - d.cdf(t)), lo, hi, kinks)
        _assert_moments_close(d, (lo + i1, i2 - i1 * i1))

    @pytest.mark.parametrize("w", [(0.111, 0.220, 0.113), (0.2, 0.1, 0.15)])
    def test_evaluate_log_pool_with_weights_below_one(self, w):
        batch = simulate(DgpConfig(kind="regression", n=300, seed=31)).cases
        spec = GlpSpec(w, LinkFunction.LOG)
        assert np.isfinite(evaluate(spec, batch).rmv)
        stacked = pool(spec, batch.components)
        m, v = stacked.mean()[:, 0], stacked.variance()[:, 0]
        for i in (0, 34, 99, 150, 299):
            row = stacked._take(i)
            m_ref, v_ref = _cdf_oracle(row, row.components)
            assert v[i] == pytest.approx(v_ref, rel=1e-8)
            assert abs(m[i] - m_ref) <= 1e-8 * np.sqrt(v_ref)


class _CdfBracket(BetaTransformed):
    """A beta transform whose bracket probes its CDF, as a kind without a cheaper scale does."""

    _bracket_scale = PredictiveDist._bracket_scale


def _bracket_or_error(d):
    try:
        return d._tail_bracket(0)
    except MomentUnavailable as e:
        return str(e).split(" ", 1)[1]  # after the kind's name


# mu out to +-300 puts some tail points past the first probes' 2^7
_wide_component = st.tuples(st.floats(-300.0, 300.0), st.floats(0.01, 10.0), st.floats(0.05, 1.0))
_shapes = st.floats(0.05, 5.0)
# rows of one component count k, each with its own alpha and beta
_blp_rows = st.integers(2, 4).flatmap(lambda k: st.lists(
    st.tuples(st.lists(_wide_component, min_size=k, max_size=k), _shapes, _shapes),
    min_size=1, max_size=6))


class TestBracketScale:
    """A beta transform brackets its base CDF; the bracket is the one its CDF gives."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(_wide_component, min_size=2, max_size=4), _shapes, _shapes)
    @example([(3.0, 0.01, 1.0), (3.0, 0.01, 1.0)], 0.3, 0.3)
    @example([(3.0, 0.01, 1.0), (3.0, 0.01, 1.0)], 5.0, 0.2)
    @example([(3.0, 0.01, 1.0), (3.0, 0.01, 1.0)], 0.05, 0.05)
    # the mixture tops out short of 1
    @example([(0.0, 1.0, 1.0), (0.0, 1.0, 0.8), (0.0, 1.0, 0.9435691943904444)], 2.0, 0.703125)
    # the CDF rises only from about 1/2 to 1/2 over +-2^63
    @example([(0.0, 1e30, 1.0), (0.0, 1e30, 1.0)], 1.2, 0.9)
    def test_per_case(self, raw, alpha, beta):
        comps, w = _gaussians(raw)
        d = pool(BlpSpec(w, alpha, beta), comps)
        want = _bracket_or_error(_CdfBracket(d.base, alpha, beta))
        np.testing.assert_array_equal(_bracket_or_error(d), want)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(_blp_rows)
    def test_stacked(self, drawn):
        rows = []
        for raw, alpha, beta in drawn:
            comps, w = _gaussians(raw)
            rows.append(pool(BlpSpec(w, alpha, beta), comps))
        # the first row's shapes for every row (floats), then each row's own ((n, 1) columns)
        for d in (BetaTransformed(stack([r.base for r in rows]), rows[0].alpha, rows[0].beta),
                  stack(rows)):
            want = _bracket_or_error(_CdfBracket._stacked(d.base, d.alpha, d.beta))
            np.testing.assert_array_equal(_bracket_or_error(d), want)


class TestTailPoints:
    """Closed tail points are past the tail levels on the kind's bracket scale."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.lists(_wide_component, min_size=2, max_size=4), _shapes, _shapes,
           st.floats(0.2, 5.0), st.sampled_from(["gaussian", "mixture", "spread", "beta"]))
    # the CDF rises only from about 1/2 to 1/2 over +-2^63
    @example([(0.0, 1e30, 1.0), (0.0, 1e30, 1.0)], 1.2, 0.9, 1.0, "beta")
    def test_the_scale_is_past_the_levels(self, raw, alpha, beta, c, kind):
        comps, w = _gaussians(raw)
        mixture = Mixture(comps, w)
        d = {"gaussian": comps[0], "mixture": mixture,
             "spread": SpreadAdjusted(mixture, c, comps[0].mu),
             "beta": BetaTransformed(mixture, alpha, beta)}[kind]
        # a row on its own, and stacked above its mirror image
        mirror = _mirror(d)
        for e in (d, stack([d, mirror])):
            s, (_, low, high, _) = e._bracket_scale()
            lo, hi = e._tail_points(low, high)
            assert (np.asarray(s(lo)) <= low).all() and (np.asarray(s(hi)) >= high).all()
        # closed points past +-2^63 leave the row to the probes, which find no bracket
        ends = np.abs(np.hstack([lo, hi]))
        if np.isfinite(ends).all() and not (ends <= 2.0 ** 63).all():
            with pytest.raises(MomentUnavailable, match=r"^BetaTransformed row 0: CDF rises only"):
                d.variance()


def _mirror(d):
    """d reflected about 0, of the same kind and shape."""
    if isinstance(d, Gaussian):
        return Gaussian(-d.mu, d.sigma)
    if isinstance(d, Mixture):
        return Mixture(tuple(map(_mirror, d.components)), d.weights)
    if isinstance(d, SpreadAdjusted):
        return SpreadAdjusted(_mirror(d.base), d.c, -d.center)
    return BetaTransformed(_mirror(d.base), d.beta, d.alpha)


class TestGaussKronrodPair:
    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_the_pair_on_the_unit_interval(self, n):
        x, wk, wg = _gauss_kronrod(n)
        d = np.arange(3 * n + 2)
        moments = 1.0 / (d + 1.0)  # of x^d on [0, 1]
        assert_allclose([np.sum(wk * x ** k) for k in d], moments, rtol=1e-13)
        assert_allclose([np.sum(wg * x ** k) for k in d[:2 * n]], moments[:2 * n], rtol=1e-13)
        # the Gauss nodes are the Kronrod nodes at odd places, so they are the same floats,
        # and they are Legendre's
        gauss = np.flatnonzero(wg)
        assert gauss.tolist() == list(range(1, 2 * n, 2))
        assert_allclose(x[gauss], (1.0 + np.polynomial.legendre.leggauss(n)[0]) / 2.0,
                        rtol=0, atol=1e-15)
        assert (wk > 0.0).all() and (wg[gauss] > 0.0).all()
        assert _gauss_kronrod(n) is _gauss_kronrod(n)

    def test_padded_rows_equal_unpadded_ones(self):
        rng = np.random.default_rng(7)
        rows = [pool(BlpSpec((0.4, 0.6), 1.3, 0.8), (Gaussian(m, 1.0), Gaussian(-m, 2.0)))
                for m in rng.normal(size=4)]
        d = stack(rows)
        lo = rng.normal(size=(4, 1)) - 8.0
        # rows of 3, 1, 2 and 1 panels with pairs of several sizes
        row = np.array([0, 0, 0, 1, 2, 2, 3])
        n = np.array([4, 32, 8, 16, 32, 4, 8])
        a = lo[row, 0] + np.array([0.0, 1.0, 9.0, 0.0, 0.0, 10.0, 2.0])
        b = a + rng.uniform(0.5, 8.0, size=row.size)
        sums = _kronrod_sums(d, lo, row, a, b, n)
        for i, case in enumerate(rows):
            own = row == i
            np.testing.assert_array_equal(
                _kronrod_sums(case, lo[i:i + 1], np.zeros(own.sum(), dtype=int), a[own], b[own],
                              n[own]), sums[..., own])


class TestInvariants:
    def test_densities_integrate_to_one(self):
        dists = (
            Gaussian(0.7, 1.3),
            STANDARD_MIX,
            BetaTransformed(Gaussian(0.0, 1.0), 1.5, 2.5),
            SpreadAdjusted(STANDARD_MIX, c=0.6, center=0.0),
        )
        for d in dists:
            lo, hi = d.quantile(1e-9), d.quantile(1.0 - 1e-9)
            total = quad(d.density, lo, hi, limit=200, epsabs=1e-10)[0]
            assert abs(total - 1.0) < 1e-6

    @pytest.mark.parametrize("link", [LinkFunction.LOG, LinkFunction.RECIPROCAL,
                                      LinkFunction.PROBIT], ids=lambda link: link.value)
    def test_glp_densities_integrate_to_one(self, link):
        # the density is the CDF's derivative between the clamp crossings, where
        # the panels end; the CDF jumps by about CDF_CLAMP at the outermost two
        d = pool(GlpSpec((1 / 3, 1 / 3, 1 / 3), link),
                 (Gaussian(0.0, 0.3), Gaussian(1.0, 1.0), Gaussian(-1.0, 3.0)))
        edges = np.sort(d._kinks().ravel())
        total = sum(quad(d.density, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
                    for lo, hi in zip(edges[:-1], edges[1:]))
        assert abs(total - 1.0) <= 1e-10

    @pytest.mark.parametrize("link", [LinkFunction.LOG, LinkFunction.PROBIT],
                             ids=lambda link: link.value)
    def test_glp_density_is_the_cdf_slope_when_weights_pass_one(self, link):
        # with weights summing to 2 the link sum leaves the link's image of the
        # clamp; each panel's integral is still the CDF's rise over it, up to
        # the clamp's jump of about sum(w) * CDF_CLAMP in the outermost panels
        d = pool(GlpSpec((1.5, 0.5), link), (Gaussian(0.0, 1.0), Gaussian(0.5, 1.5)))
        edges = np.sort(d._kinks().ravel())
        for lo, hi in zip(edges[:-1], edges[1:]):
            total = quad(d.density, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
            assert abs(total - (d.cdf(hi) - d.cdf(lo))) <= 3e-12

    def test_numeric_cdf_derivative_matches_density(self):
        rng = np.random.default_rng(5)
        dists = (
            Gaussian(0.2, 0.9),
            STANDARD_MIX,
            BetaTransformed(Gaussian(0.0, 1.0), 1.8, 1.2),
        )
        for d in dists:
            ys = np.asarray(d.quantile(rng.uniform(0.02, 0.98, size=100)))
            h = 1e-6
            fd = (np.asarray(d.cdf(ys + h)) - np.asarray(d.cdf(ys - h))) / (2 * h)
            assert_allclose(fd, np.asarray(d.density(ys)), rtol=1e-5)

    def test_validate_cdf_accepts_all_kinds(self):
        for d in (
            Gaussian(0, 1),
            TwoPointBernoulli(0.3),
            FiniteDiscrete((0.0, 2.0), (0.4, 0.6)),
            STANDARD_MIX,
            Mixture((Gaussian(0, 1), TwoPointBernoulli(0.4)), (0.6, 0.4)),
            BetaTransformed(Gaussian(0, 1), 0.8, 2.0),
        ):
            validate_cdf(d)


class TestConstruction:
    def test_mass_sum_enforced(self):
        with pytest.raises(ValueError):
            FiniteDiscrete((0.0, 1.0), (0.5, 0.6))

    @pytest.mark.parametrize("atoms, masses", [
        ((0.0, 1.0), (np.nan, np.nan)),
        ((0.0, 1.0), (np.nan, 1.0)),
        ((0.0, 1.0), (0.5, np.inf)),
        ((0.0, np.nan), (0.5, 0.5)),
        ((np.nan,), (1.0,)),
        ((0.0, np.inf), (0.5, 0.5)),
        ((-np.inf, 0.0), (0.5, 0.5)),
    ], ids=["nan-masses", "nan-mass", "inf-mass", "nan-atom", "lone-nan-atom", "inf-atom",
            "minus-inf-atom"])
    def test_non_finite_atoms_and_masses_rejected(self, atoms, masses):
        with pytest.raises(ValueError):
            FiniteDiscrete(atoms, masses)

    def test_weight_simplex_enforced(self):
        with pytest.raises(ValueError):
            Mixture((Gaussian(0, 1), Gaussian(1, 1)), (0.7, 0.4))

    def test_positive_sigma(self):
        with pytest.raises(ValueError):
            Gaussian(0.0, 0.0)

    @pytest.mark.parametrize("build", [
        lambda bad: Gaussian(bad, 1.0),
        lambda bad: Gaussian(0.0, bad),
        lambda bad: SpreadAdjusted(Gaussian(0.0, 1.0), bad, 0.0),
        lambda bad: SpreadAdjusted(Gaussian(0.0, 1.0), 1.2, bad),
        lambda bad: BetaTransformed(Gaussian(0.0, 1.0), bad, 0.8),
        lambda bad: BetaTransformed(Gaussian(0.0, 1.0), 1.2, bad),
    ], ids=["gaussian-mu", "gaussian-sigma", "spread-c", "spread-center", "beta-alpha",
            "beta-beta"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_parameters_rejected(self, build, bad):
        # each would give a forecast whose CDF is NaN or constant
        with pytest.raises(ValueError, match="finite"):
            build(bad)

    def test_a_stacked_spread_center_is_checked_where_its_rows_are_cut(self):
        base = Gaussian._stacked(np.array([[0.0], [1.0]]), np.ones((2, 1)))
        d = SpreadAdjusted(base, 1.2, np.array([[0.0], [np.nan]]))
        assert d._take(0).center == 0.0
        with pytest.raises(ValueError, match="center must be finite"):
            d._take(1)

    def test_success_probability_in_unit_interval(self):
        with pytest.raises(ValueError, match="success probability"):
            TwoPointBernoulli(1.5)

    def test_median_undefined_on_flat_cdf(self):
        with pytest.raises(MedianUndefined):
            FiniteDiscrete((0.0, 1.0), (0.5, 0.5)).median()

    def test_median_undefined_on_flat_beta_transform(self):
        # B(F) is exactly 1/2 on [0, 1), as F is
        with pytest.raises(MedianUndefined):
            BetaTransformed(FiniteDiscrete((0.0, 1.0), (0.5, 0.5)), 2.0, 2.0).median()

    def test_unique_discrete_median_is_the_atom(self):
        assert FiniteDiscrete((0.0, 1.0, 2.5), (0.3, 0.4, 0.3)).median() == 1.0
        rows = [FiniteDiscrete((j, j + 0.1, j + 7.0), (0.2, 0.6, 0.2)) for j in (-3.0, 0.3, 9.0)]
        np.testing.assert_array_equal(stack(rows).median(), [[-2.9], [0.4], [9.1]])

    def test_median_of_shifted_mixture(self):
        d = Mixture((Gaussian(1.0, 1.0), Gaussian(3.0, 2.0)), (0.5, 0.5))
        m = d.median()
        assert d.cdf(m) == pytest.approx(0.5, abs=1e-9)


# a mixed forecast: half its mass on an atom at 0.3, half normal
_HALF_ATOM = Mixture((FiniteDiscrete((0.3,), (1.0,)), Gaussian(0.0, 1.0)), (0.5, 0.5))


def _masses(k):
    return st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k).map(
        lambda raw: tuple(np.array(raw) / sum(raw)))


@st.composite
def _finite_discrete(draw):
    """One to four atoms on a quarter grid."""
    atoms = sorted(draw(st.lists(st.integers(-8, 8), min_size=1, max_size=4, unique=True)))
    return FiniteDiscrete(tuple(np.array(atoms) / 4.0), draw(_masses(len(atoms))))


_atomic_leaf = st.one_of(st.builds(TwoPointBernoulli, st.floats(0.05, 0.95)), _finite_discrete())
_leaf = st.one_of(st.builds(Gaussian, st.floats(-2.0, 2.0), st.floats(0.3, 2.0)), _atomic_leaf)


@st.composite
def _with_atoms(draw):
    """A mixture or a generalized pool of two or three leaves, one of them atomic, or a beta
    transform of one of these or of an atomic leaf."""
    k = draw(st.integers(2, 3))
    parts = [draw(_atomic_leaf)] + [draw(_leaf) for _ in range(k - 1)]
    w = draw(_masses(k))
    link = draw(st.sampled_from(list(LinkFunction)))
    d = Mixture(tuple(parts), w) if link is LinkFunction.IDENTITY else pool(GlpSpec(w, link), parts)
    kind = draw(st.sampled_from(["combined", "beta-of-combined", "beta-of-leaf"]))
    if kind == "combined":
        return d
    alpha, beta = draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 3.0))
    return BetaTransformed(d if kind == "beta-of-combined" else parts[0], alpha, beta)


class TestQuantileAtAtoms:
    def test_a_level_in_a_mixtures_jump_is_the_atom(self):
        assert _HALF_ATOM.quantile(0.4) == 0.3

    def test_a_level_in_a_log_pools_jump_is_the_atom(self):
        d = pool(GlpSpec((0.5, 0.5), LinkFunction.LOG),
                 (FiniteDiscrete((0.3, 1.7), (0.5, 0.5)), FiniteDiscrete((0.3, 2.1), (0.4, 0.6))))
        assert d.quantile(0.2) == 0.3

    # spread adjustments are left out: their pushed atoms break the CDF contract (see
    # TestValidateCdf)
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_with_atoms())
    def test_every_level_inside_a_jump_is_its_atom(self, d):
        atoms = d.atom_locations()
        lo, hi = np.asarray(d.cdf_left(atoms)), np.asarray(d.cdf(atoms))
        # a beta transform inverts in closed form, through betaincinv, whose last-bit
        # rounding can step over a jump of next to no mass (1e-47 on a reciprocal pool)
        kept = hi - lo > 1e-12 if isinstance(d, BetaTransformed) else True
        for t in (1e-3, 0.5, 1.0 - 1e-3):
            p = lo + t * (hi - lo)
            inside = (lo < p) & (p < hi) & kept
            np.testing.assert_array_equal(d.quantile(p[inside]), atoms[inside])


class TestSampling:
    def test_draws_land_on_an_atom_with_its_mass(self):
        d = BetaTransformed(_HALF_ATOM, 2.0, 2.0)
        share = np.mean(d.sample(np.random.default_rng(4), 2000) == 0.3)
        mass = d.point_mass(0.3)
        assert abs(share - mass) <= 4.0 * np.sqrt(mass * (1.0 - mass) / 2000)

    def test_sample_matches_cdf(self):
        rng = np.random.default_rng(99)
        d = BetaTransformed(STANDARD_MIX, 1.4, 1.1)
        xs = d.sample(rng, 20000)
        grid = np.linspace(-4, 4, 9)
        emp = np.searchsorted(np.sort(xs), grid, side="right") / xs.size
        assert np.max(np.abs(emp - np.asarray(d.cdf(grid)))) < 0.02

    def test_spread_adjusted_sample_matches_cdf(self):
        rng = np.random.default_rng(98)
        d = SpreadAdjusted(STANDARD_MIX, c=0.6, center=0.5)
        xs = d.sample(rng, 20000)
        grid = np.linspace(-4, 4, 9)
        emp = np.searchsorted(np.sort(xs), grid, side="right") / xs.size
        assert np.max(np.abs(emp - np.asarray(d.cdf(grid)))) < 0.02


class _UserKind(PredictiveDist):
    """A user kind given by its CDF, with an optional left limit and atoms.

    Its parameters are public attributes, which ``_take`` carries over.
    """

    def __init__(self, cdf, cdf_left=None, atoms=()):
        self.f, self.f_left, self.atoms = cdf, cdf_left or cdf, np.array(atoms, dtype=float)

    def cdf(self, y):
        return self.f(np.asarray(y, dtype=float))

    def cdf_left(self, y):
        return self.f_left(np.asarray(y, dtype=float))

    @property
    def has_density(self):
        return not self.atoms.size

    def atom_locations(self):
        return self.atoms


class TestValidateCdf:
    @pytest.mark.parametrize("d, message", [
        (_UserKind(lambda y: ndtr(y) - 0.2 * ((y > 0.0) & (y < 1.0))), "nondecreasing"),
        (_UserKind(lambda y: 1.01 * ndtr(y)), "leaves"),
        (_UserKind(ndtr, lambda y: np.minimum(ndtr(y) + 1e-3, 1.0)), "cdf_left exceeds"),
        (_UserKind(lambda y: 0.5 + 0.5 * ndtr(y)), "vanish"),
        (_UserKind(lambda y: 0.5 * ndtr(y)), "reach 1"),
        # the jump sits just right of the atom: the CDF is left-continuous there
        (_UserKind(lambda y: 0.5 * ndtr(y) + 0.5 * (y > 0.0), atoms=(0.0,)), "right-continuous"),
    ], ids=["decreasing", "above-one", "left-limit-above", "no-lower-limit", "no-upper-limit",
            "left-continuous-atom"])
    def test_each_broken_contract_is_named(self, d, message):
        with pytest.raises(CdfPoolError, match=message):
            validate_cdf(d)

    @pytest.mark.xfail(strict=True, raises=CdfPoolError, reason=(
        "the pushed atom 1 + 0.65 * 2 pulls back one float below the base atom 3, so the CDF "
        "stops short of 1 there; nudging each pushed atom upward until its pullback reaches "
        "the base atom is no mend, since for some spreads no float pulls back exactly onto "
        "the atom and cdf_left then already holds the atom's mass"))
    def test_a_spread_adjustment_of_atoms_keeps_the_cdf_contract(self):
        validate_cdf(SpreadAdjusted(FiniteDiscrete((0, 1, 3), (0.3, 0.4, 0.3)), 0.65, 1.0))

    def test_a_stack_is_checked_row_by_row(self):
        validate_cdf(stack([Gaussian(0.0, 1.0), Gaussian(1.0, 2.0)]))
        fd = FiniteDiscrete((0, 1, 3), (0.3, 0.4, 0.3))
        validate_cdf(SpreadAdjusted(fd, 1.0, 1.0))
        with pytest.raises(CdfPoolError, match="^row 1: cdf does not reach 1 above the support$"):
            validate_cdf(stack([SpreadAdjusted(fd, 1.0, 1.0), SpreadAdjusted(fd, 0.65, 1.0)]))


class _PrivateKind(PredictiveDist):
    """A user kind that keeps its CDF in a private attribute."""

    def __init__(self, cdf):
        self._cdf = cdf

    def cdf(self, y):
        return self._cdf(np.asarray(y, dtype=float))

    @property
    def has_density(self):
        return True


class TestUserKindMoments:
    def test_quadrature_moments_of_a_user_kind(self):
        d = _UserKind(lambda y: ndtr((y - 1.0) / 2.0))
        assert abs(d.mean() - 1.0) <= 1e-8
        assert d.variance() == pytest.approx(4.0, rel=1e-8)

    def test_quadrature_moments_of_a_kind_with_private_state(self):
        # a per-case object has no rows to cut: its chunks are the object itself
        d = _PrivateKind(lambda y: ndtr((y - 1.0) / 2.0))
        assert d._take(slice(0, 64)) is d
        assert d._take(np.arange(1)) is d
        assert abs(d.mean() - 1.0) <= 1e-8
        assert d.variance() == pytest.approx(4.0, rel=1e-8)

    def test_a_cdf_short_of_its_limits_has_no_moments(self):
        # the CDF must be exactly 0 at -2^63 and 1 at +2^63
        with pytest.raises(MomentUnavailable, match="^_UserKind row 0: CDF rises only"):
            _UserKind(lambda y: (1.0 - 1e-9) * ndtr(y)).variance()
        with pytest.raises(MomentUnavailable, match="^_UserKind row 0: CDF rises only"):
            _UserKind(lambda y: 1e-9 + (1.0 - 1e-9) * ndtr(y)).mean()
