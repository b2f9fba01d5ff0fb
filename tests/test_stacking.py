"""Stacked forecasts: the list-level diagnostics against their per-case definitions."""

import multiprocessing
import sys
import threading
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, reject, settings
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
    MomentUnavailable,
    PredictiveDist,
    SchemaError,
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
from cdfpool.calibration import _GAP_CHUNK, _GAP_STRIDES
from cdfpool.distributions import _MOMENT_CHUNK, _each_chunk, _RowStack, stack
from cdfpool.io import write_dataset_csv


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
    def test_one_shape_stacks_to_columns_mixed_shapes_to_rows(self):
        g = [Gaussian(0.0, 1.0), Gaussian(1.0, 2.0)]
        gauss = stack(g)
        assert isinstance(gauss, Gaussian)
        assert gauss.mu.shape == (2, 1)
        forecasts = [g[0], TwoPointBernoulli(0.3), pool(TlpSpec((0.5, 0.5)), g), g[1],
                     FiniteDiscrete((0.0, 1.0, 2.0), (0.2, 0.3, 0.5)), Logistic(0.0, 1.0),
                     pool(TlpSpec((0.4, 0.6)), g)]
        mixed = stack(forecasts)
        assert isinstance(mixed, _RowStack)
        assert mixed._rows() == len(forecasts)
        assert all(mixed._take(i) is f for i, f in enumerate(forecasts))

    def test_pool_kinds_keep_their_class(self):
        g = [Gaussian(0.0, 1.0), Gaussian(1.0, 2.0)]
        slp = stack([pool(SlpSpec((0.5, 0.5), 1.3), g)] * 3)
        blp = stack([pool(BlpSpec((0.5, 0.5), 1.2, 0.8), g)] * 3)
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


_G = (Gaussian(0.0, 1.0), Gaussian(1.0, 2.0), Gaussian(-0.5, 0.7))
_HALVES = (0.5, 0.5)

# lists whose rows differ in shape at one place only, so they are evaluated row by row
_RAGGED = {
    "atom-count": [FiniteDiscrete((0.0, 1.0), (0.4, 0.6)),
                   FiniteDiscrete((0.0, 1.0, 2.0), (0.2, 0.3, 0.5))],
    "link": [pool(GlpSpec(_HALVES, LinkFunction.LOG), _G[:2]),
             pool(GlpSpec(_HALVES, LinkFunction.PROBIT), _G[:2])],
    "component-count": [pool(TlpSpec(_HALVES), _G[:2]), pool(TlpSpec((0.2, 0.3, 0.5)), _G)],
    "component-kind": [pool(BlpSpec(_HALVES, 1.2, 0.8), _G[:2]),
                       pool(BlpSpec(_HALVES, 1.2, 0.8), (_G[0], TwoPointBernoulli(0.3)))],
    "bernoulli-and-two-atoms": [TwoPointBernoulli(0.3), FiniteDiscrete((0.0, 1.0), (0.3, 0.7))],
    "one-logistic": [Gaussian(0.0, 1.0), Logistic(0.0, 1.0), Gaussian(1.0, 1.0)],
    "one-nested-logistic": [pool(TlpSpec(_HALVES), (Logistic(0.1 * j, 1.0) if j == 1 else _G[0],
                                                   _G[1])) for j in range(3)],
}


class TestShapeRule:
    @pytest.mark.parametrize("rows", _RAGGED.values(), ids=_RAGGED.keys())
    def test_rows_of_different_shapes_are_kept_as_they_are(self, rows):
        stacked = stack(rows)
        assert isinstance(stacked, _RowStack)
        assert stacked._rows() == len(rows)
        assert all(stacked._take(i) is row for i, row in enumerate(rows))

    def test_a_kind_without_stacked_form_in_every_row_is_a_row_by_row_column(self):
        rows = [pool(SlpSpec(_HALVES, 1.3), (Logistic(0.1 * j, 1.0), _G[j])) for j in range(3)]
        stacked = stack(rows)
        assert type(stacked) is Mixture
        logistic, gaussian = (c.base for c in stacked.components)
        assert isinstance(logistic, _RowStack)
        assert all(logistic._take(j) is row.components[0].base for j, row in enumerate(rows))
        assert type(gaussian) is Gaussian
        assert gaussian.mu.shape == (3, 1)

    def test_a_shared_link_is_the_same_object(self):
        rows = [pool(GlpSpec(w, LinkFunction.RECIPROCAL), _G[:2]) for w in (_HALVES, (0.3, 0.7))]
        assert stack(rows).link is LinkFunction.RECIPROCAL


# pools of continuous, atomic and mixed members, per case and as three stacked rows
_MEMBERS = {
    "gaussians": lambda j: _G[:2],
    "atoms": lambda j: (FiniteDiscrete((j, j + 1.0, j + 2.0), (0.2, 0.4, 0.4)),
                        TwoPointBernoulli(0.3)),
    "mixed": lambda j: (Gaussian(j, 1.0), TwoPointBernoulli(0.3)),
}
_POOL_SPECS = {"tlp": TlpSpec(_HALVES), "slp": SlpSpec(_HALVES, 1.3),
               "blp": BlpSpec(_HALVES, 1.2, 0.8), "glp-log": GlpSpec(_HALVES, LinkFunction.LOG)}


def _combined() -> dict:
    """Every ragged row stack, and each family's pool of each member set."""
    out = {f"row-stack-{name}": stack(rows) for name, rows in _RAGGED.items()}
    for family, spec in _POOL_SPECS.items():
        for members, make in _MEMBERS.items():
            out[f"{family}-{members}-per-case"] = pool(spec, make(0.5))
            columns = zip(*(make(j) for j in range(3)))  # each member's three rows
            out[f"{family}-{members}-stacked"] = pool(spec, tuple(map(stack, columns)))
    return out


_COMBINED = _combined()


class TestPartsRule:
    @pytest.mark.parametrize("d", _COMBINED.values(), ids=_COMBINED.keys())
    def test_density_atoms_and_steps_follow_from_the_parts(self, d):
        parts = d._parts()
        assert parts
        assert d.has_density == all(p.has_density for p in parts)
        assert d._step_cdf == all(p._step_cdf for p in parts)
        want = np.unique(np.concatenate([np.ravel(p.atom_locations()) for p in parts]))
        np.testing.assert_array_equal(np.unique(np.ravel(d.atom_locations())), want)

    def test_a_row_stack_reports_its_rows_atoms(self):
        d = stack(_RAGGED["atom-count"])
        np.testing.assert_array_equal(d.atom_locations(), [0.0, 1.0, 2.0])
        assert d._step_cdf and not d.has_density


# the ragged lists' rows one by one, and their row stacks grouped by row count
_RAGGED_ROWS = [row for rows in _RAGGED.values() for row in rows]
_RAGGED_STACKS = {n: [stack(rows) for rows in _RAGGED.values() if len(rows) == n] for n in (2, 3)}


@st.composite
def _pool_of_ragged(draw):
    """A pool of any family over one to three ragged rows, or over row stacks of one length."""
    k = draw(st.integers(1, 3))
    members = _RAGGED_ROWS if draw(st.booleans()) else _RAGGED_STACKS[draw(st.sampled_from([2, 3]))]
    try:
        return pool(draw(_spec(k)), [draw(st.sampled_from(members)) for _ in range(k)])
    except MedianUndefined:  # a spread-adjusted pool needs component medians
        reject()


class TestSupportRule:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.one_of(st.sampled_from(list(_RAGGED_STACKS[2] + _RAGGED_STACKS[3])),
                     _pool_of_ragged()))
    def test_support_is_the_union_of_the_parts_and_bounds_the_cdf(self, d):
        los, his = zip(*(p.support() for p in d._parts()))
        lo, hi = d.support()
        np.testing.assert_array_equal(lo, np.min(np.broadcast_arrays(*los), axis=0))
        np.testing.assert_array_equal(hi, np.max(np.broadcast_arrays(*his), axis=0))
        # a bound is a float, or an (n, 1) column of the rows' bounds
        lo, hi = np.atleast_2d(lo), np.atleast_2d(hi)
        below, top = np.asarray(d.cdf(lo - 1.0)), np.asarray(d.cdf(hi))
        assert np.all(below[np.broadcast_to(np.isfinite(lo), below.shape)] == 0.0)
        # a mixture tops out at its weights' sum, which the spec holds to 1 within 1e-12
        assert np.all(np.abs(top[np.broadcast_to(np.isfinite(hi), top.shape)] - 1.0) <= 1e-12)


# ---------------------------------------------------------------------------
# the stacking rule: lists of one shape, each row with its own parameters


def _leaf_recipe(draw, kinds=("gaussian", "logistic", "bernoulli", "discrete")):
    """A leaf kind, fixed for the list; each call of the recipe draws its parameters."""
    kind = draw(st.sampled_from(kinds))
    if kind == "gaussian":
        return lambda d: Gaussian(d(_loc), d(_scale))
    if kind == "mixture":
        return lambda d: Mixture((Gaussian(d(_loc), d(_scale)), Gaussian(d(_loc), 1.0)),
                                 d(_weights(2)))
    if kind == "logistic":
        return lambda d: Logistic(d(_loc), d(_scale))
    if kind == "bernoulli":
        return lambda d: TwoPointBernoulli(d(st.floats(0.05, 0.95)))
    m = draw(st.integers(1, 4))

    def discrete(d):
        atoms = sorted(d(st.lists(_quarter, min_size=m, max_size=m, unique=True)))
        raw = np.array(d(st.lists(st.floats(0.1, 1.0), min_size=m, max_size=m)))
        return FiniteDiscrete(tuple(atoms), tuple(raw / raw.sum()))
    return discrete


def _pool_recipe(draw):
    """A pool of two or three leaves: family, link and leaf kinds fixed, parameters per row."""
    k = draw(st.integers(2, 3))
    leaves = [_leaf_recipe(draw) for _ in range(k)]
    family = draw(st.sampled_from(["tlp", "slp", "blp", "glp"]))
    link = draw(st.sampled_from(list(LinkFunction)))
    spec = {"tlp": _weights(k).map(TlpSpec),
            "slp": st.builds(SlpSpec, _weights(k), st.floats(0.5, 2.0)),
            "blp": st.builds(BlpSpec, _weights(k), st.floats(0.5, 3.0), st.floats(0.5, 3.0)),
            "glp": _weights(k).map(lambda w: GlpSpec(w, link))}[family]
    return lambda d: pool(d(spec), [leaf(d) for leaf in leaves])


@st.composite
def _one_shape(draw):
    """One to nine forecasts of one shape: a leaf kind, or a pool of any family."""
    recipe = _leaf_recipe(draw) if draw(st.booleans()) else _pool_recipe(draw)
    try:
        return [recipe(draw) for _ in range(draw(st.integers(1, 9)))]
    except MedianUndefined:  # a spread-adjusted pool needs component medians
        reject()


class TestStackingRule:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_one_shape())
    def test_rows_come_back_equal(self, rows):
        stacked = stack(rows)
        assert stacked._rows() == len(rows)
        for i, row in enumerate(rows):
            back = stacked._take(i)
            assert back == row
            assert type(back) is type(row)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_one_shape())
    def test_each_row_evaluates_bit_for_bit_as_its_case(self, rows):
        stacked = stack(rows)
        grid = np.linspace(-3.5, 3.5, 29)
        for method in ("cdf", "cdf_left"):
            values = getattr(stacked, method)(grid[None, :])
            for i, row in enumerate(rows):
                np.testing.assert_array_equal(values[i], getattr(row, method)(grid))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.data(), _one_shape())
    def test_take_evaluates_as_the_stack_of_the_slice(self, data, rows):
        start = data.draw(st.integers(0, len(rows) - 1))
        stop = data.draw(st.integers(start + 1, len(rows)))
        taken = stack(rows)._take(slice(start, stop))
        direct = stack(rows[start:stop])
        grid = np.linspace(-3.5, 3.5, 29)[None, :]
        assert taken._rows() == direct._rows() == stop - start
        for method in ("cdf", "cdf_left"):
            np.testing.assert_array_equal(getattr(taken, method)(grid),
                                          getattr(direct, method)(grid))


_ANY_ROWS = st.one_of(st.sampled_from(list(_RAGGED.values())), _one_shape())


class TestOneSamplingRule:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_ANY_ROWS, st.integers(0, 2**32 - 1), st.integers(0, 6))
    def test_each_row_draws_bit_for_bit_as_its_case(self, rows, seed, n):
        draws = stack(rows).sample(np.random.Generator(np.random.Philox(seed)), n)
        assert draws.shape == (len(rows), n)
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(
                draws[i], row.sample(np.random.Generator(np.random.Philox(seed)), n), strict=True)


class TestScalarPoint:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_ANY_ROWS, _quarter, st.floats(0.01, 0.99))
    def test_a_stack_gives_the_column_of_its_rows_values(self, rows, y, p):
        stacked = stack(rows)
        methods = ("cdf", "cdf_left", "point_mass") + (("density",) if stacked.has_density else ())
        for method, at in [(m, y) for m in methods] + [("quantile", p)]:
            got = getattr(stacked, method)(at)
            assert got.shape == (len(rows), 1)
            np.testing.assert_array_equal(got[:, 0], [getattr(row, method)(at) for row in rows])


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


def _counting(monkeypatch, owner, name, when=lambda *args: True):
    """Patch ``owner.name`` to count the calls whose arguments ``when`` accepts."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        if when(*args):
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
        cells = []
        cdf_calls = _counting(monkeypatch, Gaussian, "cdf",
                              lambda d, y: cells.append(d._rows() * np.shape(y)[-1]) or True)
        marginal_calibration_gap(forecasts, obs, np.linspace(-3.0, 3.0, 201))
        # one call per component and chunk of each level, every chunk at least _GAP_CHUNK rows
        assert len(cdf_calls) <= self.K * len(_GAP_STRIDES) * -(-self.J // _GAP_CHUNK)
        assert sum(cells) < self.K * self.J * 201  # the levels skip grid points


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


class TestWriteBuildsNoCase:
    J = 50

    @pytest.mark.parametrize("column", [
        lambda n: TwoPointBernoulli._stacked(np.full((n, 1), 0.3)),
        lambda n: stack([Gaussian(0.0, 1.0)] * (n - 1) + [TwoPointBernoulli(0.4)]),
    ], ids=["stacked", "mixed"])
    def test_the_non_gaussian_kind_is_named_from_the_columns(self, monkeypatch, tmp_path,
                                                               column):
        gaussians = Gaussian._stacked(np.zeros((self.J, 1)), np.ones((self.J, 1)))
        batch = ForecastBatch(np.zeros(self.J), (gaussians, column(self.J)))
        built = _counting(monkeypatch, cdfpool.fitting, "ForecastCase")
        with pytest.raises(SchemaError, match="got TwoPointBernoulli"):
            write_dataset_csv(str(tmp_path / "x.csv"), batch)
        assert len(built) == 0


# ---------------------------------------------------------------------------
# one stacked forecast per data set: pooling the batch's columns against
# pooling its cases one by one

_FAMILIES = [lambda w: TlpSpec(w), lambda w: SlpSpec(w, 0.7), lambda w: BlpSpec(w, 1.4, 0.8)] + [
    partial(GlpSpec, link=link) for link in LinkFunction]
_FAMILY_IDS = ["tlp", "slp", "blp"] + [f"glp-{link.value}" for link in LinkFunction]


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
    @pytest.mark.parametrize("kind", ["regression", "forecaster_quartet", "binary_probit",
                                      "ternary"])
    @pytest.mark.parametrize("make", _FAMILIES, ids=_FAMILY_IDS)
    def test_stacked_per_case_pools_are_the_pooled_columns(self, make, kind):
        batch = simulate(DgpConfig(kind=kind, n=40, seed=15)).cases
        k = len(batch.components)
        spec = make((1.0 / k,) * k)
        if isinstance(spec, SlpSpec) and kind == "ternary":
            # every ternary forecast puts mass 1/2 on its first atom: no median to spread about
            for components in (batch.components, next(iter(batch)).components):
                with pytest.raises(MedianUndefined):
                    pool(spec, components)
            return
        per_case = stack([pool(spec, case.components) for case in batch])
        columns = pool(spec, batch.components)
        assert type(per_case) is type(columns)
        assert per_case._rows() == columns._rows() == len(batch)
        grid = np.linspace(-4.0, 4.0, 33)[None, :]  # holds the atoms 0, 1 and 2
        continuous = kind in ("regression", "forecaster_quartet")
        for method in ("cdf", "cdf_left") + (("density",) if continuous else ()):
            np.testing.assert_array_equal(getattr(per_case, method)(grid),
                                          getattr(columns, method)(grid))

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
            stacked = stack(rows)
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

    def test_an_empty_stack_has_no_marginal_gap(self):
        with pytest.raises(LengthMismatch, match="^0 forecasts paired with 2 observations$"):
            marginal_calibration_gap(stack([]), [1.0, 2.0], np.linspace(0.0, 3.0, 7))

    def test_a_zero_row_stack_has_no_pit(self):
        empty = Gaussian._stacked(np.empty((0, 1)), np.empty((0, 1)))
        with pytest.raises(LengthMismatch, match="^0 forecasts paired with 2 observations$"):
            pit_sample(empty, [1.0, 2.0], 0)
        with pytest.raises(LengthMismatch, match="one row per outcome"):
            ForecastBatch([1.0, 2.0], (empty,))

    @pytest.mark.parametrize("spec", [BlpSpec((0.5, 0.5), 1.2, 0.8),
                                      GlpSpec((0.5, 0.5), LinkFunction.PROBIT)],
                             ids=["blp", "glp-probit"])
    def test_a_zero_row_pool_has_empty_moments(self, spec):
        empty = Gaussian._stacked(np.empty((0, 1)), np.empty((0, 1)))
        d = pool(spec, [empty, empty])
        assert (d.mean().shape, d.variance().shape) == ((0, 1), (0, 1))


@st.composite
def _atom_rows(draw):
    """One to six forecasts of one stacked shape: success probabilities, or k atoms each."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return [TwoPointBernoulli(draw(st.floats(0.0, 1.0))) for _ in range(n)]
    k = draw(st.integers(1, 4))
    rows = []
    for _ in range(n):
        atoms = sorted(draw(st.lists(_quarter, min_size=k, max_size=k, unique=True)))
        raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))
        assume(raw.sum() > 0.0)
        rows.append(FiniteDiscrete(tuple(atoms), tuple(raw / raw.sum())))
    return rows


# eighths: the atoms on the quarter grid, the points halfway between them, and both infinities
_at_and_between_atoms = st.one_of(st.integers(-26, 26).map(lambda i: i / 8.0),
                                  st.sampled_from([-np.inf, np.inf]))


def _count_then_lookup(d, y, below):
    """The cumulative mass at the count of the atoms below y."""
    return d._lookup(d._cum, below(d._atoms, np.asarray(y)[..., None]).sum(axis=-1))


class TestAtomsInStackedColumns:
    @settings(max_examples=150, deadline=None)
    @given(_atom_rows(), st.data())
    def test_cdf_is_the_cumulative_mass_at_the_count_of_atoms_below(self, rows, data):
        m = data.draw(st.integers(1, 8))
        ys = np.array(data.draw(st.lists(st.lists(_at_and_between_atoms, min_size=m, max_size=m),
                                         min_size=len(rows), max_size=len(rows))))
        stacked = stack(rows)
        assert type(stacked) is type(rows[0])
        for method, below in (("cdf", np.less_equal), ("cdf_left", np.less)):
            for d, y in [(stacked, ys), (stacked, ys[:1])] + list(zip(rows, ys)):
                np.testing.assert_array_equal(getattr(d, method)(y), _count_then_lookup(d, y, below))
            d, y = rows[0], ys[0, 0]
            assert getattr(d, method)(y) == _count_then_lookup(d, y, below)
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


class TestOneRowStacks:
    """A per-case forecast gives floats; a stack of one row gives (1, 1) columns of them."""

    G = (Gaussian(0.0, 1.0), Gaussian(1.0, 2.0))

    @pytest.mark.parametrize("forecast", [
        Gaussian(0.3, 1.2),
        FiniteDiscrete((0.0, 1.0, 3.0), (0.2, 0.2, 0.6)),
        TwoPointBernoulli(0.7),
        Mixture(G, (0.3, 0.7)),
        pool(SlpSpec((0.3, 0.7), 0.8), G),
        pool(BlpSpec((0.3, 0.7), 1.3, 1.2), G),
        pool(GlpSpec((0.3, 0.7), LinkFunction.LOG), G),
        pool(GlpSpec((0.3, 0.7), LinkFunction.PROBIT), G),
        Logistic(0.5, 1.0),
    ], ids=["gaussian", "finite-discrete", "bernoulli", "tlp", "slp", "blp", "glp-log",
            "glp-probit", "row-by-row"])
    def test_median_mean_and_variance(self, forecast):
        one_row = stack([forecast])
        assert one_row._rows() == 1
        for method in ("median", "mean", "variance"):
            value, column = getattr(forecast, method)(), getattr(one_row, method)()
            assert type(value) is float
            assert column.shape == (1, 1)
            assert column[0, 0] == value


def _blp_rows(n, rng):
    g = [Gaussian(m, s) for m, s in zip(rng.normal(size=n), 0.5 + rng.random(n))]
    h = [Gaussian(m, s) for m, s in zip(rng.normal(size=n), 0.5 + rng.random(n))]
    return [pool(BlpSpec((w, 1.0 - w), a, b), pair) for w, a, b, pair in
            zip(rng.uniform(0.1, 0.9, n), rng.uniform(0.5, 3.0, n), rng.uniform(0.5, 3.0, n),
                zip(g, h))]


class TestStackedGridMoments:
    """BLP and GLP moments of stacked rows come from one path over row chunks."""

    @pytest.mark.parametrize("family", ["blp", "glp-log"])
    def test_rows_beyond_one_chunk_equal_their_cases(self, family):
        rng = np.random.default_rng(31)
        n = 300
        if family == "blp":
            rows = _blp_rows(n, rng)
            # narrow and far from 0: their brackets take more narrowing rounds than the others
            narrow = BlpSpec((0.5, 0.5), 1.2, 0.9)
            rows[::7] = [pool(narrow, [Gaussian(m, 0.02), Gaussian(m, 0.05)])
                         for m in rng.uniform(20.0, 60.0, len(rows[::7]))]
        else:
            batch = simulate(DgpConfig(kind="regression", n=n, seed=31)).cases
            raw = rng.uniform(0.1, 1.0, size=(n, 3))
            rows = [pool(GlpSpec(tuple(w / w.sum()), LinkFunction.LOG), case.components)
                    for w, case in zip(raw, batch)]
        assert n > 2 * _MOMENT_CHUNK
        stacked = stack(rows)
        for method in ("mean", "variance"):
            np.testing.assert_array_equal(getattr(stacked, method)()[:, 0],
                                          [getattr(r, method)() for r in rows])

    def test_pool_over_a_row_by_row_column_equals_its_cases(self):
        rng = np.random.default_rng(35)
        first = [Logistic(m, 0.8) if j % 3 else Gaussian(m, 1.1)
                 for j, m in enumerate(rng.normal(size=150))]
        cases = [ForecastCase((f, Gaussian(0.0, 2.0)), y)
                 for f, y in zip(first, rng.normal(size=150))]
        batch = ForecastBatch.from_cases(cases)
        assert isinstance(batch.components[0], _RowStack)
        for spec in (BlpSpec((0.4, 0.6), 1.3, 0.9), GlpSpec((0.4, 0.6), LinkFunction.PROBIT)):
            np.testing.assert_array_equal(pool(spec, batch.components).variance()[:, 0],
                                          [pool(spec, c.components).variance() for c in cases])

    def test_no_row_objects_and_cdf_calls_per_chunk(self, monkeypatch):
        stacked = stack(_blp_rows(1000, np.random.default_rng(32)))
        # an int row builds the per-case object; slices of chunks do not count
        rows = _counting(monkeypatch, PredictiveDist, "_take",
                         lambda self, rows: isinstance(rows, int))
        cdf_calls = _counting(monkeypatch, BetaTransformed, "cdf")
        stacked.variance()
        chunks = -(-1000 // _MOMENT_CHUNK)
        # per chunk: the rule's nodes on closed brackets, and probes for any row without them
        assert (len(rows), len(cdf_calls) <= 4 * chunks) == (0, True)

    def test_cdf_points_per_row(self, monkeypatch):
        stacked = stack(_blp_rows(1000, np.random.default_rng(32)))
        points, original = [], BetaTransformed.cdf

        def counted(self, y):
            out = original(self, y)
            points.append(np.size(out))
            return out

        monkeypatch.setattr(BetaTransformed, "cdf", counted)
        stacked.variance()
        # a 65-node rule on closed brackets, whose check reads the base CDF alone
        assert sum(points) <= 300 * 1000

    @pytest.mark.parametrize("spec", [BlpSpec((0.3, 0.7), 1.4, 0.8),
                                      GlpSpec((0.3, 0.7), LinkFunction.LOG)], ids=["blp", "glp-log"])
    def test_rows_with_far_tails_equal_their_cases(self, spec, monkeypatch):
        rng = np.random.default_rng(36)
        rows = [pool(spec, [Gaussian(m, 1.0), Gaussian(m + 0.5, 1.3)]) for m in rng.normal(size=150)]
        # tail points past 2^7: these rows, in every chunk, probe the whole bracket ladder
        for i, (m, sd) in zip((5, 40, 70, 71, 140), ((1000.0, 1.0), (-1000.0, 1.0), (5000.0, 40.0),
                                                     (-1000.0, 1.0), (-200.0, 2.0))):
            rows[i] = pool(spec, [Gaussian(m, sd), Gaussian(m + 0.5, sd)])
        want = [[getattr(r, method)() for r in rows] for method in ("mean", "variance")]
        stacked = stack(rows)
        cdf_calls = _counting(monkeypatch, type(stacked), "cdf")
        np.testing.assert_array_equal(stacked.mean()[:, 0], want[0])
        # per chunk: two ladder calls, up to three narrowing rounds and one rule; far rows
        # narrowed from +-2^63 instead take a dozen rounds
        assert len(cdf_calls) <= 6 * 3
        np.testing.assert_array_equal(stacked.variance()[:, 0], want[1])

    def test_a_bad_row_is_named(self):
        rows = _blp_rows(200, np.random.default_rng(33))
        # heavy-tailed on a narrow base: the grid never settles
        rows[150] = pool(BlpSpec((0.5, 0.5), 0.3, 0.3), [Gaussian(3.0, 0.01)] * 2)
        with pytest.raises(MomentUnavailable, match="^BetaTransformed row 150: "):
            stack(rows).variance()
        with pytest.raises(MomentUnavailable, match="^BetaTransformed row 0: "):
            rows[150].variance()


@st.composite
def _linear_pool_rows(draw):
    """One to six TLP or SLP pools of one shape over Gaussian, discrete or mixture members."""
    k = draw(st.integers(2, 3))
    members = [_leaf_recipe(draw, ("gaussian", "discrete", "mixture")) for _ in range(k)]
    spec = draw(st.sampled_from([_weights(k).map(TlpSpec),
                                 st.builds(SlpSpec, _weights(k), st.floats(0.5, 2.0))]))
    n = draw(st.integers(1, 6))
    try:
        return [pool(draw(spec), [m(draw) for m in members]) for _ in range(n)]
    except MedianUndefined:  # a spread-adjusted pool needs component medians
        reject()


class TestOneMomentsHook:
    """``mean`` and ``variance`` read one ``_moments`` pair, and a mixture each part's once."""

    def test_a_mixture_of_pools_integrates_each_pool_once(self, monkeypatch):
        batch = ForecastBatch.from_cases(
            simulate(DgpConfig(kind="regression", n=40, seed=3)).cases)
        parts = (pool(BlpSpec((0.2, 0.3, 0.5), 1.3, 0.8), batch.components),
                 pool(GlpSpec((0.2, 0.3, 0.5), LinkFunction.LOG), batch.components))
        (m1, m2), (v1, v2) = ([getattr(p, method)() for p in parts]
                              for method in ("mean", "variance"))
        d = Mixture(parts, (0.5, 0.5))
        quadratures = _counting(monkeypatch, PredictiveDist, "_moments")
        v = d.variance()
        assert len(quadratures) == 2
        m = 0.5 * m1 + 0.5 * m2
        np.testing.assert_array_equal(d.mean(), m, strict=True)
        np.testing.assert_array_equal(v, 0.5 * (v1 + (m1 - m) ** 2) + 0.5 * (v2 + (m2 - m) ** 2),
                                      strict=True)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.one_of(st.sampled_from(list(_RAGGED.values())), _linear_pool_rows()))
    def test_a_stacks_moments_are_its_rows_moments(self, rows):
        try:
            want = [[getattr(r, method)() for r in rows] for method in ("mean", "variance")]
        except MomentUnavailable:  # a beta transform of atoms: the stack has none either
            with pytest.raises(MomentUnavailable):
                stack(rows).variance()
            return
        stacked = stack(rows)
        for method, values in zip(("mean", "variance"), want):
            got = getattr(stacked, method)()
            assert got.shape == (len(rows), 1)
            np.testing.assert_array_equal(got[:, 0], values)

    def test_an_empty_stack_gives_empty_columns(self):
        d = stack([])
        assert (d.mean().shape, d.variance().shape, d.median().shape) == ((0, 1),) * 3


class TestSharedColumn:
    """A per-case forecast as a batch column is the forecast of every case."""

    def _batches(self, n=300, seed=34):
        batch = simulate(DgpConfig(kind="regression", n=n, seed=seed)).cases
        shared = Gaussian(0.2, 1.5)
        repeated = Gaussian._stacked(np.full((n, 1), 0.2), np.full((n, 1), 1.5))
        return (ForecastBatch(batch.y, batch.components[:2] + (shared,)),
                ForecastBatch(batch.y, batch.components[:2] + (repeated,)))

    def test_diagnostics_equal_the_repeated_forecast(self):
        shared, repeated = self._batches()
        y, grid = shared.y, np.linspace(-4.0, 4.0, 201)
        pairs = [(shared.components[2], repeated.components[2])] + [
            (pool(spec, shared.components), pool(spec, repeated.components))
            for spec in (TlpSpec((0.2, 0.3, 0.5)), GlpSpec((0.2, 0.3, 0.5), LinkFunction.PROBIT))]
        for a, b in pairs:
            np.testing.assert_array_equal(pit_sample(a, y, 7).z, pit_sample(b, y, 7).z)
            assert (marginal_calibration_gap(a, y, grid)
                    == pytest.approx(marginal_calibration_gap(b, y, grid), abs=1e-12))
            want = b.density(grid[None, :])  # a shared forecast alone gives one row
            np.testing.assert_array_equal(np.broadcast_to(a.density(grid[None, :]), want.shape),
                                          want)

    @pytest.mark.parametrize("make", _FAMILIES, ids=_FAMILY_IDS)
    def test_evaluate_equals_the_repeated_forecast(self, make):
        shared, repeated = self._batches(n=150)
        spec = make((0.2, 0.3, 0.5))
        a, b = evaluate(spec, shared, rng_seed=3), evaluate(spec, repeated, rng_seed=3)
        assert a.mean_log_score == b.mean_log_score
        assert a.pit_variance == b.pit_variance
        assert a.rmv == b.rmv


@pytest.fixture(params=[0, 3], ids=["no-workers", "three-workers"])
def workers(request, monkeypatch):
    """The chunk runner with the given number of helper threads, whatever the core count."""
    monkeypatch.setattr(cdfpool.distributions, "_cores", lambda: request.param + 1)
    return request.param


def _serial_gap(d, obs, grid):
    """The marginal gap at every grid point, as one loop that adds the block sums in order."""
    acc = np.zeros(grid.size)
    for start in range(0, d._rows(), _GAP_CHUNK):
        acc += d._take(slice(start, start + _GAP_CHUNK)).cdf(grid[None, :]).sum(axis=0)
    ecdf = np.searchsorted(np.sort(obs), grid, side="right") / obs.size
    return float(np.max(np.abs(acc / d._rows() - ecdf)))


class TestChunksOnEveryCore:
    """Row chunks run on helper threads, and every result is that of the serial loop."""

    J = 5 * _GAP_CHUNK + 17
    # step-function forecasts: the gap evaluates the average CDF once per stretch between atoms
    STEP_KINDS = ("row-atoms", "row-ragged", "atom-tlp", "atom-blp", "atom-glp-log")

    def _forecasts(self, kind):
        batch = simulate(DgpConfig(kind="regression", n=self.J, seed=41)).cases
        rng = np.random.default_rng(41)
        w = (0.2, 0.3, 0.5)
        if kind == "atoms":
            p = rng.uniform(0.05, 0.95, self.J)
            return stack([TwoPointBernoulli(x) for x in p]), (rng.random(self.J) > p) * 1.0
        if kind == "row-by-row":
            rows = [Logistic(m, 0.8) if j % 3 else Gaussian(m, 1.1)
                    for j, m in enumerate(rng.normal(size=self.J))]
            return stack(rows), batch.y
        if kind in self.STEP_KINDS:
            # three atoms per row on a quarter grid in [-2.75, 3], outcomes among them
            atoms = (rng.integers(-12, 4, (self.J, 1))
                     + np.cumsum(rng.integers(1, 4, (self.J, 3)), axis=1)) / 4.0
            masses = rng.dirichlet(np.ones(3), self.J)
            rows = [FiniteDiscrete(tuple(a), tuple(m)) for a, m in zip(atoms, masses)]
            row_atoms = stack(rows)
            obs = atoms[np.arange(self.J), rng.integers(0, 3, self.J)]
            if kind == "row-atoms":
                return row_atoms, obs
            if kind == "row-ragged":
                # every third row keeps its first two atoms: a row-by-row column
                rows[::3] = [FiniteDiscrete(r.atoms[:2], (r.masses[0], 1.0 - r.masses[0]))
                             for r in rows[::3]]
                return stack(rows), obs
            # members with different atom counts: three per row and the two at 0 and 1
            members = (row_atoms, stack([TwoPointBernoulli(x) for x in rng.uniform(0.1, 0.9, self.J)]))
            spec = {"atom-tlp": TlpSpec((0.4, 0.6)), "atom-blp": BlpSpec((0.4, 0.6), 1.4, 0.8),
                    "atom-glp-log": GlpSpec((0.4, 0.6), LinkFunction.LOG)}[kind]
            return pool(spec, members), obs
        spec = {"tlp": TlpSpec(w), "blp": BlpSpec(w, 1.4, 0.8),
                "glp-log": GlpSpec(w, LinkFunction.LOG),
                "glp-probit": GlpSpec(w, LinkFunction.PROBIT),
                "glp-reciprocal": GlpSpec(w, LinkFunction.RECIPROCAL)}[kind]
        return pool(spec, batch.components), batch.y

    @pytest.mark.parametrize("kind", ["tlp", "blp", "glp-probit", "atoms", "row-by-row"])
    def test_gap_equals_the_serial_loop(self, kind, workers):
        d, obs = self._forecasts(kind)
        assert d._rows() == self.J
        grid = np.linspace(-4.0, 4.0, 201)
        assert marginal_calibration_gap(d, obs, grid) == _serial_gap(d, obs, grid)

    @settings(max_examples=120, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_gap_is_the_max_over_every_grid_point(self, workers, data):
        """The levels skip only grid points where the sup cannot lie, a step-function
        forecast's stretches between atoms share one value, and every point evaluated is
        summed as in the serial loop, so the gap is the loop's max, bit for bit."""
        kind = data.draw(st.sampled_from(["tlp", "blp", "glp-log", "glp-probit",
                                          "glp-reciprocal", "atoms", "row-by-row",
                                          *self.STEP_KINDS]))
        n = data.draw(st.sampled_from([1, 2, _GAP_CHUNK + 1, self.J]))
        d, obs = self._forecasts(kind)
        d, obs = d._take(slice(0, n)), obs[:n]
        size = data.draw(st.sampled_from([1, 2, 12, 13, 201]))
        # unsorted, and with ties: points on a coarse grid repeat, outcomes among them; the
        # quarter grid holds every atom and points below the first one
        point = st.one_of(st.integers(-16, 16).map(lambda i: i / 4.0), st.sampled_from(obs),
                          st.floats(-4.0, 4.0))
        grid = np.array(data.draw(st.lists(point, min_size=size, max_size=size)))
        assert marginal_calibration_gap(d, obs, grid) == _serial_gap(d, obs, grid)

    @pytest.mark.parametrize("kind", ["atoms", *STEP_KINDS])
    def test_a_step_forecast_is_evaluated_once_per_stretch(self, kind, monkeypatch):
        d, obs = self._forecasts(kind)
        assert d._step_cdf
        columns = []
        average_cdf = cdfpool.calibration._average_cdf
        monkeypatch.setattr(cdfpool.calibration, "_average_cdf",
                            lambda d, x, size: columns.append(x) or average_cdf(d, x, size))
        # three points from each quarter on [-4, 4], shuffled; every atom is on a quarter
        grid = (np.arange(-16, 17) / 4.0 + np.array([[0.0], [0.1], [0.2]])).ravel()
        grid = np.random.default_rng(5).permutation(grid)
        assert marginal_calibration_gap(d, obs, grid) == _serial_gap(d, obs, grid)
        # one pass, at the lowest point and at each atom, where the stretches start
        assert len(columns) == 1
        atoms = np.unique(np.ravel(d.atom_locations()))
        assert columns[0].tolist() == [-4.0, *atoms.tolist()]

    @pytest.mark.parametrize("kind", ["tlp", "blp", "atoms", "row-by-row"])
    def test_a_level_of_one_column_sums_as_the_full_grid(self, kind, workers):
        d, obs = self._forecasts(kind)
        for mid in np.linspace(-1.0, 1.0, 9):
            # the ends hold no sup, so the last level is the middle point alone
            grid = np.array([-4.0, mid, 4.0])
            assert marginal_calibration_gap(d, obs, grid) == _serial_gap(d, obs, grid)

    @pytest.mark.parametrize("kind", ["blp", "glp-probit"])
    def test_moments_equal_their_cases(self, kind, workers):
        d, _ = self._forecasts(kind)
        d = d._take(slice(0, 4 * _MOMENT_CHUNK + 9))
        rows = [d._take(i) for i in range(d._rows())]
        for method in ("mean", "variance"):
            np.testing.assert_array_equal(getattr(d, method)()[:, 0],
                                          [getattr(r, method)() for r in rows])

    def test_first_failing_chunk_is_named(self, workers):
        rng = np.random.default_rng(42)
        rows = _blp_rows(6 * _MOMENT_CHUNK, rng)
        # the third chunk's bad row fails slowly (its grid never settles), the fifth
        # chunk's at once (its CDF rises only to about 1/2 over +-2^63)
        rows[150] = pool(BlpSpec((0.5, 0.5), 0.3, 0.3), [Gaussian(3.0, 0.01)] * 2)
        rows[300] = pool(BlpSpec((0.5, 0.5), 1.2, 0.9), [Gaussian(0.0, 1e30)] * 2)
        assert (150 // _MOMENT_CHUNK, 300 // _MOMENT_CHUNK) == (2, 4)
        with pytest.raises(MomentUnavailable, match="^BetaTransformed row 150: moments did not"):
            stack(rows).variance()
        good = _blp_rows(2 * _MOMENT_CHUNK + 5, rng)
        np.testing.assert_array_equal(stack(good).variance()[:, 0], [r.variance() for r in good])

    def test_chunks_see_the_callers_errstate(self, workers):
        ran_elsewhere, seen = threading.Event(), []

        def chunk(start):
            seen.append((threading.get_ident(), np.geterr()))
            if start:
                ran_elsewhere.set()
            elif workers:  # hold the first chunk until another thread has run one
                assert ran_elsewhere.wait(timeout=30.0)

        with np.errstate(over="ignore", divide="raise", under="warn", invalid="print"):
            want = np.geterr()
            _each_chunk(chunk, 1000, 64)
        assert len(seen) == 16
        assert all(state == want for _, state in seen)
        assert (len({thread for thread, _ in seen}) > 1) == (workers > 0)
        assert np.geterr() != want

    def test_every_chunk_runs_once_under_fast_switching(self, monkeypatch):
        monkeypatch.setattr(cdfpool.distributions, "_cores", lambda: 4)  # four threads take chunks
        ran = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = _each_chunk(lambda start: ran.append(start) or start, 20000, 1)
        finally:
            sys.setswitchinterval(interval)
        assert out == list(range(20000))
        assert sorted(ran) == out

    def test_a_forked_child_runs_chunks_as_the_parent(self):
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            pytest.skip("fork is unavailable on this platform")
        d = stack(_blp_rows(3 * _MOMENT_CHUNK + 5, np.random.default_rng(43)))
        want = d.variance()  # the parent runs its own chunks before the fork
        receive, send = context.Pipe(duplex=False)

        def child():
            cdfpool.distributions._cores = lambda: 4  # three helpers, whatever the core count
            send.send(d.variance())

        process = context.Process(target=child)
        process.start()
        try:
            assert receive.poll(60.0), "the child sent no variance within 60 s"
            got = receive.recv()
        finally:
            process.join(60.0)
            if process.is_alive():
                process.kill()
        assert process.exitcode == 0
        np.testing.assert_array_equal(got, want)

    def test_results_come_in_chunk_order(self, workers):
        assert _each_chunk(lambda start: start, 1000, 64) == list(range(0, 1000, 64))
        assert _each_chunk(lambda start: start, None, 64) == [0]  # a per-case object is one chunk
