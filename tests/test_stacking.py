"""Stacked forecasts: the list-level diagnostics against their per-case definitions."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.special import expit

import cdfpool.calibration
import cdfpool.cli
import cdfpool.distributions
import cdfpool.fitting
from cdfpool import (
    BetaTransformed,
    BlpSpec,
    DensityUnavailable,
    DgpConfig,
    DomainViolation,
    FiniteDiscrete,
    ForecastBatch,
    ForecastCase,
    Gaussian,
    GlpSpec,
    LengthMismatch,
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
    simulate,
)
from cdfpool.distributions import _stack_column, stack


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

    @pytest.mark.parametrize("nested", [False, True], ids=["own-column", "mixture-component"])
    def test_kind_without_stacked_form_is_checked_row_by_row(self, nested):
        def forecast(loc):
            d = Logistic(loc, 0.7)
            return Mixture((d, Gaussian(0.0, 1.0)), (0.5, 0.5)) if nested else d

        cases = [ForecastCase((forecast(0.1 * j), Gaussian(0.0, 2.0)), 0.0) for j in range(6)]
        assert len(ForecastBatch.from_cases(cases)) == 6
        cases[4] = ForecastCase((forecast(np.inf), Gaussian(0.0, 2.0)), 0.0)
        with pytest.raises(DomainViolation, match="case 4 has a non-finite"):
            ForecastBatch.from_cases(cases)


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
        in_distributions = _counting(monkeypatch, cdfpool.distributions, "stack")
        in_calibration = _counting(monkeypatch, cdfpool.calibration, "stack")
        evaluate(TlpSpec((0.2, 0.3, 0.5)), cases, rng_seed=4)
        # the batch's columns are pooled as they are, so nothing is stacked
        assert len(in_distributions) + len(in_calibration) <= 1

    def test_evaluate_pools_the_batch_once_and_builds_no_case(self, monkeypatch):
        batch = simulate(DgpConfig(kind="regression", n=1000, seed=12)).cases
        pools = _counting(monkeypatch, cdfpool.fitting, "pool")
        built = _counting(monkeypatch, cdfpool.fitting, "ForecastCase")
        evaluate(SlpSpec((0.2, 0.3, 0.5), 0.8), batch, rng_seed=4)
        assert (len(pools), len(built)) == (1, 0)
        assert all(case is None for case in batch._cases)

    def test_cli_diagnose_pools_once_and_builds_no_case(self, monkeypatch, tmp_path):
        data, params = str(tmp_path / "data.csv"), str(tmp_path / "params.txt")
        assert cdfpool.cli.main(["simulate", "--dgp", "regression", "--n", "1000", "--seed", "13",
                         "--out", data]) == 0
        assert cdfpool.cli.main(["fit", "--method", "blp", "--input", data, "--out", params]) == 0
        pools = _counting(monkeypatch, cdfpool.cli, "pool")
        built = _counting(monkeypatch, cdfpool.fitting, "ForecastCase")
        assert cdfpool.cli.main(["diagnose", "--params", params, "--input", data,
                         "--out", str(tmp_path / "diag.txt")]) == 0
        assert (len(pools), len(built)) == (1, 0)


# ---------------------------------------------------------------------------
# one stacked forecast per data set: pooling the batch's columns against
# pooling its cases one by one

_FAMILIES = [lambda w: TlpSpec(w), lambda w: SlpSpec(w, 0.7), lambda w: BlpSpec(w, 1.4, 0.8)] + [
    partial(GlpSpec, link=link) for link in LinkFunction]


@st.composite
def _batch(draw, min_rows, max_rows):
    """A batch of k Gaussian columns, or of two-Gaussian mixture columns, and its outcomes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k = draw(st.integers(min_rows, max_rows)), draw(st.integers(1, 3))

    def gaussians():
        return Gaussian._stacked(rng.normal(size=(n, 1)), 0.5 + rng.random((n, 1)))

    def column(kind):
        if kind == "gaussian":
            return gaussians()
        w = rng.uniform(0.1, 0.9, size=(n, 1))
        return Mixture._stacked((gaussians(), gaussians()), (w, 1.0 - w))

    kinds = draw(st.lists(st.sampled_from(["gaussian", "mixture"]), min_size=k, max_size=k))
    return ForecastBatch(rng.normal(scale=1.2, size=n), [column(c) for c in kinds])


def _family(draw, k):
    raw = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k)))
    return draw(st.sampled_from(_FAMILIES))(tuple(raw / raw.sum()))


class TestPooledColumns:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data(), _batch(1, 40), st.integers(0, 2**32 - 1))
    def test_pit_sample_is_bit_identical(self, data, batch, seed):
        spec = _family(data.draw, len(batch.components))
        per_case = [pool(spec, case.components) for case in batch]
        stacked = pit_sample(pool(spec, batch.components), batch.y, seed)
        np.testing.assert_array_equal(stacked.z, pit_sample(per_case, batch.y, seed).z)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(st.data(), _batch(257, 700))
    def test_marginal_gap_over_several_chunks_is_equal(self, data, batch):
        spec = _family(data.draw, len(batch.components))
        per_case = [pool(spec, case.components) for case in batch]
        grid = np.linspace(-3.0, 3.0, 41)
        assert (marginal_calibration_gap(pool(spec, batch.components), batch.y, grid)
                == marginal_calibration_gap(per_case, batch.y, grid))

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.data(), _batch(2, 12))
    def test_evaluate_rmv_matches_per_case_variances(self, data, batch):
        spec = _family(data.draw, len(batch.components))
        want = np.sqrt(np.mean([pool(spec, case.components).variance() for case in batch]))
        assert evaluate(spec, batch).rmv == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_stacked_moments_are_the_rows_moments(self):
        g = [Gaussian(0.0, 1.0), Gaussian(1.0, 2.0)]
        kinds = [
            [FiniteDiscrete((0.0, 1.0, 3.0), m) for m in ((0.2, 0.2, 0.6), (0.6, 0.3, 0.1))],
            [pool(SlpSpec((0.3, 0.7), c), g) for c in (0.8, 1.3)],
            [pool(BlpSpec((0.3, 0.7), a, 1.2), g) for a in (0.8, 1.3)],
            [pool(GlpSpec(w, LinkFunction.LOG), g) for w in ((0.3, 0.7), (1.2, 0.4))],
            [g[0], Mixture(tuple(g), (0.5, 0.5)), Logistic(0.5, 1.0)],
        ]
        for rows in kinds:
            stacked = _stack_column(rows)
            for method in ("mean", "variance"):
                column = getattr(stacked, method)()
                assert column.shape == (len(rows), 1)
                np.testing.assert_array_equal(column[:, 0], [getattr(r, method)() for r in rows])

    def test_row_count_must_match_the_observations(self):
        batch = simulate(DgpConfig(kind="regression", n=30, seed=14)).cases
        d = pool(TlpSpec((0.2, 0.3, 0.5)), batch.components)
        with pytest.raises(LengthMismatch, match="29 observations"):
            pit_sample(d, batch.y[:-1], 0)
        with pytest.raises(LengthMismatch, match="30 forecasts paired with 29"):
            marginal_calibration_gap(d, batch.y[:-1], np.linspace(-2.0, 2.0, 5))
        with pytest.raises(LengthMismatch):
            pit_sample(d._take(slice(0, 10)), batch.y, 0)


class TestAtomsInStackedColumns:
    """Stacked forecasts with atoms have per-row supports."""

    def _cases(self):
        atoms = FiniteDiscrete((0.0, 1.0), (0.5, 0.5))
        rows = [Mixture((atoms, Gaussian(m, s)), (w, 1.0 - w))
                for m, s, w in ((0.3, 1.0, 0.4), (1.5, 0.5, 0.2), (-0.5, 2.0, 0.6))]
        return [ForecastCase((r, Gaussian(0.0, 1.0)), y) for r, y in zip(rows, (0.2, 1.0, -1.0))]

    def test_stacked_median_is_each_rows_median(self):
        cases = self._cases()
        column = ForecastBatch.from_cases(cases).components[0]
        want = [case.components[0].median() for case in cases]
        np.testing.assert_array_equal(column.median()[:, 0], want)
        assert want[0] == pytest.approx(0.3, abs=1e-8)  # 0.2 + 0.6 Phi(0) = 1/2

    def test_pooled_columns_with_atoms_equal_the_per_case_pools(self):
        cases = self._cases()
        spec = SlpSpec((0.5, 0.5), 1.2)
        d = pool(spec, ForecastBatch.from_cases(cases).components)
        y = np.array([case.y for case in cases])[:, None]
        np.testing.assert_array_equal(d.cdf(y)[:, 0],
                                      [pool(spec, case.components).cdf(case.y) for case in cases])

    def test_evaluate_still_needs_densities(self):
        with pytest.raises(DensityUnavailable):
            evaluate(SlpSpec((0.5, 0.5), 1.2), self._cases())
