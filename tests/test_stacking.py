"""Stacked forecasts: the list-level diagnostics against their per-case definitions."""

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.special import expit

import cdfpool.calibration
import cdfpool.fitting
from cdfpool import (
    BetaTransformed,
    BlpSpec,
    FiniteDiscrete,
    ForecastCase,
    Gaussian,
    GlpSpec,
    LinkFunction,
    MedianUndefined,
    Mixture,
    PredictiveDist,
    SlpSpec,
    SpreadAdjusted,
    TlpSpec,
    TwoPointBernoulli,
    evaluate,
    log_score,
    marginal_calibration_gap,
    pit_sample,
    pool,
    randomized_pit,
)
from cdfpool.distributions import stack


class Logistic(PredictiveDist):
    """A user-defined kind with no stacked form: it takes the row-by-row fallback."""

    def __init__(self, loc, scale):
        self.loc = loc
        self.scale = scale

    def cdf(self, y):
        return expit((np.asarray(y, dtype=float) - self.loc) / self.scale)

    @property
    def has_density(self):
        return True

    def density(self, y):
        u = self.cdf(y)
        return u * (1.0 - u) / self.scale


# outcomes and atoms on a quarter grid, so outcomes often sit on an atom
_quarter = st.integers(-12, 12).map(lambda i: i / 4.0)
_loc = st.floats(-2.0, 2.0)
_scale = st.floats(0.3, 2.0)

_continuous = st.one_of(
    st.builds(Gaussian, _loc, _scale),
    st.builds(Logistic, _loc, _scale),
    st.builds(lambda m, s, m2, w: Mixture((Gaussian(m, s), Gaussian(m2, 1.0)), (w, 1.0 - w)),
              _loc, _scale, _loc, st.floats(0.1, 0.9)),
)


@st.composite
def _finite_discrete(draw):
    atoms = sorted(draw(st.lists(_quarter, min_size=1, max_size=4, unique=True)))
    raw = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=len(atoms),
                                 max_size=len(atoms))))
    return FiniteDiscrete(tuple(atoms), tuple(raw / raw.sum()))


_atomic = st.one_of(st.builds(TwoPointBernoulli, st.floats(0.05, 0.95)), _finite_discrete())
_any_leaf = st.one_of(_continuous, _atomic)


def _weights(k):
    return st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k).map(
        lambda raw: tuple(np.array(raw) / sum(raw)))


def _spec(k):
    return st.one_of(
        _weights(k).map(TlpSpec),
        st.builds(SlpSpec, _weights(k), st.floats(0.5, 2.0)),
        st.builds(BlpSpec, _weights(k), st.floats(0.5, 3.0), st.floats(0.5, 3.0)),
        st.builds(GlpSpec, _weights(k), st.sampled_from(list(LinkFunction))),
    )


@st.composite
def _forecast(draw, leaf):
    """A leaf forecast, a pool of two or three leaves, or a mixture of pools."""
    shape = draw(st.sampled_from(["leaf", "pool", "nested"]))
    if shape == "leaf":
        return draw(leaf)
    if shape == "pool":
        k = draw(st.integers(2, 3))
        try:
            return pool(draw(_spec(k)), [draw(leaf) for _ in range(k)])
        except MedianUndefined:  # a spread-adjusted pool needs component medians
            reject()
    inner = Mixture((draw(leaf), draw(leaf)), draw(_weights(2)))
    return Mixture((inner, draw(leaf)), draw(_weights(2)))


def _mixed_list(leaf, max_size=30):
    return st.lists(_forecast(leaf), min_size=1, max_size=max_size)


def _case_gap(forecasts, obs, grid):
    acc = np.zeros(grid.size)
    for f in forecasts:
        acc += np.asarray(f.cdf(grid), dtype=float)
    ecdf = np.searchsorted(np.sort(obs), grid, side="right") / obs.size
    return float(np.max(np.abs(acc / len(forecasts) - ecdf)))


class TestStack:
    def test_groups_by_shape_and_keeps_every_index(self):
        g = [Gaussian(0.0, 1.0), Gaussian(1.0, 2.0)]
        forecasts = [g[0], TwoPointBernoulli(0.3), pool(TlpSpec((0.5, 0.5)), g), g[1],
                     FiniteDiscrete((0.0, 1.0, 2.0), (0.2, 0.3, 0.5)), Logistic(0.0, 1.0),
                     pool(TlpSpec((0.4, 0.6)), g)]
        groups = stack(forecasts)
        assert [list(idx) for idx, _ in groups] == [[0, 3], [1], [2, 6], [4], [5]]
        gauss = groups[0][1]
        assert isinstance(gauss, Gaussian)
        assert gauss.mu.shape == (2, 1)

    def test_pool_kinds_keep_their_class(self):
        g = [Gaussian(0.0, 1.0), Gaussian(1.0, 2.0)]
        ((_, slp),) = stack([pool(SlpSpec((0.5, 0.5), 1.3), g)] * 3)
        ((_, blp),) = stack([pool(BlpSpec((0.5, 0.5), 1.2, 0.8), g)] * 3)
        assert isinstance(slp, Mixture)
        assert isinstance(slp.components[0], SpreadAdjusted)
        assert slp.components[0].c.shape == (3, 1)
        assert isinstance(blp, BetaTransformed)


class TestStackedEquivalence:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data(), _mixed_list(_any_leaf), st.integers(0, 2**32 - 1))
    def test_pit_sample_equals_randomized_pit_case_by_case(self, data, forecasts, seed):
        obs = np.array(data.draw(st.lists(_quarter | _loc, min_size=len(forecasts),
                                          max_size=len(forecasts))))
        s = pit_sample(forecasts, obs, seed)
        want = np.array([float(randomized_pit(f, y, v)) for f, y, v in zip(forecasts, obs, s.v)])
        np.testing.assert_array_equal(s.z, want)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data(), _mixed_list(_any_leaf))
    def test_marginal_gap_equals_per_case_sum(self, data, forecasts):
        obs = np.array(data.draw(st.lists(_quarter, min_size=len(forecasts),
                                          max_size=len(forecasts))))
        grid = np.linspace(-3.5, 3.5, 29)
        want = _case_gap(forecasts, obs, grid)
        assert marginal_calibration_gap(forecasts, obs, grid) == pytest.approx(want, abs=1e-12)

    def test_marginal_gap_across_chunks(self):
        rng = np.random.default_rng(5)
        g = [Gaussian(0.0, 1.0), Gaussian(1.0, 2.0)]
        kinds = [lambda m: Gaussian(m, 1.0), lambda m: Logistic(m, 0.7),
                 lambda m: pool(GlpSpec((0.3, 0.7), LinkFunction.PROBIT), g),
                 lambda m: FiniteDiscrete((m, m + 1.0), (0.4, 0.6))]
        forecasts = [kinds[i](m) for i, m in zip(rng.integers(0, 4, 700), rng.normal(size=700))]
        obs = rng.normal(size=700)
        grid = np.linspace(-4.0, 4.0, 201)
        want = _case_gap(forecasts, obs, grid)
        assert marginal_calibration_gap(forecasts, obs, grid) == pytest.approx(want, abs=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data(), st.integers(2, 3))
    def test_evaluate_mean_log_score_equals_per_case(self, data, k):
        spec = data.draw(_spec(k))
        n = data.draw(st.integers(2, 12))
        cases = [ForecastCase([data.draw(_continuous) for _ in range(k)], data.draw(_loc))
                 for _ in range(n)]
        report = evaluate(spec, cases, rng_seed=1)
        want = np.mean([log_score(pool(spec, c.components), c.y) for c in cases])
        assert report.mean_log_score == pytest.approx(want, abs=1e-12)


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestNoPerCaseLoops:
    """Each group of stacked forecasts costs a fixed number of vectorised calls."""

    J, K = 1000, 3

    def _tlp_forecasts(self):
        rng = np.random.default_rng(8)
        mu = rng.normal(size=(self.J, self.K))
        spec = TlpSpec((0.2, 0.3, 0.5))
        forecasts = [pool(spec, [Gaussian(m, 1.0) for m in row]) for row in mu]
        return forecasts, rng.normal(size=self.J)

    def test_pit_sample(self, monkeypatch):
        forecasts, obs = self._tlp_forecasts()
        pit_calls = _counting(monkeypatch, cdfpool.calibration, "randomized_pit")
        # Gaussian inherits cdf_left, which calls cdf: this counts both
        cdf_calls = _counting(monkeypatch, Gaussian, "cdf")
        pit_sample(forecasts, obs, 0)
        assert len(pit_calls) == 0
        assert len(cdf_calls) <= 2 * self.K

    def test_marginal_gap(self, monkeypatch):
        forecasts, obs = self._tlp_forecasts()
        cdf_calls = _counting(monkeypatch, Gaussian, "cdf")
        marginal_calibration_gap(forecasts, obs, np.linspace(-3.0, 3.0, 201))
        assert len(cdf_calls) <= self.K * -(-self.J // 256)


class TestEvaluateStacksOnce:
    def test_log_scores_and_pit_share_one_stack(self, monkeypatch):
        rng = np.random.default_rng(9)
        cases = [ForecastCase(tuple(Gaussian(m, 1.0) for m in row), y)
                 for row, y in zip(rng.normal(size=(300, 3)), rng.normal(size=300))]
        in_fitting = _counting(monkeypatch, cdfpool.fitting, "stack")
        in_calibration = _counting(monkeypatch, cdfpool.calibration, "stack")
        evaluate(TlpSpec((0.2, 0.3, 0.5)), cases, rng_seed=4)
        assert len(in_fitting) + len(in_calibration) == 1
