"""ForecastBatch: stacked columns against the per-case objects they replace."""

from functools import partial

import numpy as np
import pytest

import cdfpool
import cdfpool.fitting
from cdfpool import (
    DgpConfig,
    DomainViolation,
    FiniteDiscrete,
    ForecastBatch,
    ForecastCase,
    Gaussian,
    LengthMismatch,
    LinkFunction,
    MedianUndefined,
    Mixture,
    SchemaError,
    SpreadAdjusted,
    TwoPointBernoulli,
    fit_blp,
    fit_glp,
    fit_slp,
    fit_tlp,
    ks_uniformity,
    simulate,
)
from cdfpool.distributions import _RowStack, stack
from cdfpool.fitting import _build_design, _newton_result, _slp_derivs, _Weights
from cdfpool.io import read_dataset_csv, write_dataset_csv
from cdfpool.pools import BlpSpec, GlpSpec, SlpSpec, TlpSpec, pool
from cdfpool.sim import (
    TERNARY_OUTCOMES,
    TERNARY_SCENARIOS,
    _draw_binary,
    _draw_quartet,
    _draw_regression,
    _draw_ternary,
    _rng,
)
from conftest import StackedLogistic

KINDS = ("regression", "fsigma", "binary_probit", "forecaster_quartet", "ternary")


def per_case_simulation(cfg):
    """The cases of ``simulate``, built one ``ForecastCase`` at a time from the same draws."""
    rng, n = _rng(cfg.seed), cfg.n
    if cfg.kind == "regression":
        y, means, sds, _ = _draw_regression(rng, n, cfg.a1, cfg.a2, cfg.a3)
        return [ForecastCase(tuple(Gaussian(means[j, i], sds[i]) for i in range(3)), y[j])
                for j in range(n)]
    if cfg.kind == "fsigma":
        x = rng.standard_normal(n)
        y = x + rng.standard_normal(n)
        return [ForecastCase((Gaussian(x[j], cfg.sigma),), y[j]) for j in range(n)]
    if cfg.kind == "binary_probit":
        y, p1, p2, _ = _draw_binary(rng, n, cfg.sigma1, cfg.sigma2)
        return [ForecastCase((TwoPointBernoulli(p1[j]), TwoPointBernoulli(p2[j])), y[j])
                for j in range(n)]
    if cfg.kind == "forecaster_quartet":
        y, mu, tau, _ = _draw_quartet(rng, n)
        return [
            ForecastCase((Gaussian(mu[j], 1.0), Gaussian(0.0, np.sqrt(2.0)),
                          Mixture((Gaussian(mu[j], 1.0), Gaussian(mu[j] + tau[j], 1.0)),
                                  (0.5, 0.5)),
                          Gaussian(-mu[j], 1.0)), y[j])
            for j in range(n)
        ]
    y, scenario, _ = _draw_ternary(rng, n)
    return [ForecastCase((FiniteDiscrete(TERNARY_OUTCOMES,
                                         TERNARY_SCENARIOS[scenario[j]].forecast_masses),), y[j])
            for j in range(n)]


def per_case_slp(cases):
    """The SLP fit of ``cases`` with medians and spread-adjusted densities taken case by case."""
    medians = np.array([[c.median() for c in case.components] for case in cases])
    steps = np.exp(np.array([-1e-4, 0.0, 1e-4]))

    def densities(c):
        cs = c * steps
        vals = np.empty((3,) + medians.shape)
        for j, case in enumerate(cases):
            for i, comp in enumerate(case.components):
                m = medians[j, i]
                vals[:, j, i] = np.asarray(comp.density(m + (case.y - m) / cs)) / cs
        lo, d, hi = vals
        return d, (hi - lo) / 2e-4, (hi - 2.0 * d + lo) / 1e-8

    weights = _Weights(medians.shape[1], simplex=True)
    return _newton_result(SlpSpec, partial(_slp_derivs, densities), weights, len(cases),
                          np.append(weights.start(), 0.0))


def assert_same_slp_fit(got, want):
    np.testing.assert_allclose(got.spec.w, want.spec.w, rtol=0, atol=1e-12)
    assert got.spec.c == pytest.approx(want.spec.c, rel=1e-12)
    assert got.mean_log_score_train == pytest.approx(want.mean_log_score_train, rel=1e-12)
    assert got.iterations == want.iterations and got.converged == want.converged


def _fit_all(cases):
    fits = [fit_tlp(cases), fit_slp(cases), fit_blp(cases)]
    return fits + [fit_glp(cases, LinkFunction(link)) for link in ("log", "reciprocal", "probit")]


class TestSequence:
    def test_cases_equal_the_per_case_recipe(self):
        for kind in KINDS:
            cfg = DgpConfig(kind=kind, n=60, seed=17)
            batch = simulate(cfg).cases
            want = per_case_simulation(cfg)
            got = list(batch)
            assert got == want, kind
            for a, b in zip(got, want):
                assert [type(c) for c in a.components] == [type(c) for c in b.components]

    def test_read_only_sequence_built_once(self):
        batch = simulate(DgpConfig(kind="regression", n=5, seed=1)).cases
        assert len(batch) == 5 and batch[-1] is batch[4]
        assert batch[1:3] == (batch[1], batch[2])
        assert list(batch)[0] is batch[0]
        with pytest.raises(IndexError):
            batch[5]
        with pytest.raises(ValueError):
            batch.y[0] = 0.0

    def test_draws_behind_the_columns_are_read_only(self):
        for kind, name in [("regression", "x1"), ("fsigma", "x"), ("binary_probit", "p1"),
                           ("forecaster_quartet", "mu"), ("ternary", "scenario")]:
            latents = simulate(DgpConfig(kind=kind, n=4, seed=2)).latents
            with pytest.raises(ValueError):
                latents[name][0] = 0.5

    def test_from_cases_keeps_the_cases(self, gaussian_cases):
        batch = ForecastBatch.from_cases(gaussian_cases)
        assert ForecastBatch.from_cases(batch) is batch
        assert all(a is b for a, b in zip(batch, gaussian_cases))
        assert batch.components[0].mu.shape == (len(gaussian_cases), 1)

    def test_from_cases_rejects_a_non_finite_outcome(self, gaussian_cases):
        cases = list(gaussian_cases)
        cases[17] = ForecastCase(cases[17].components, np.nan)
        with pytest.raises(DomainViolation, match="case 17"):
            ForecastBatch.from_cases(cases)

    @pytest.mark.parametrize("bad", ["y", "mu", "sd"])
    def test_arrays_reject_a_non_finite_value(self, bad):
        y, mu, sd = np.zeros(6), np.zeros((6, 1)), np.ones((6, 1))
        {"y": y, "mu": mu, "sd": sd}[bad][4] = np.inf
        column = stack([Gaussian(0.0, 1.0)] * 6)
        object.__setattr__(column, "mu", mu)
        object.__setattr__(column, "sigma", sd)
        with pytest.raises(DomainViolation, match="case 4 has a non-finite"):
            ForecastBatch(y, [column])

    @pytest.mark.parametrize("rows", [
        [Gaussian(0.0, 1.0)] * 4,
        [Gaussian(0.0, 1.0), Mixture((Gaussian(0.0, 1.0), Gaussian(1.0, 1.0)), (0.5, 0.5))] * 2,
    ], ids=["stacked", "row-by-row"])
    def test_a_column_of_the_wrong_length_is_rejected(self, rows):
        column = ForecastBatch.from_cases([ForecastCase((d,), 0.0) for d in rows]).components[0]
        for n in (3, 5):
            with pytest.raises(LengthMismatch):
                ForecastBatch(np.zeros(n), [column])

    def test_rows_of_mixed_kinds_stay_per_case(self):
        cases = [ForecastCase((Gaussian(0.0, 1.0),), 0.3),
                 ForecastCase((Mixture((Gaussian(0.0, 1.0), Gaussian(1.0, 1.0)), (0.5, 0.5)),),
                              0.1)]
        batch = ForecastBatch.from_cases(cases)
        F = batch.components[0].cdf(batch.y[:, None])[:, 0]
        np.testing.assert_array_equal(F, [c.components[0].cdf(c.y) for c in cases])


def _cases_with_a_nested_nan(mixed: bool):
    """50 cases of a mixture and a Gaussian column; case 23's mixture holds a logistic
    forecast located at nan (``StackedLogistic``, a user kind that stacks to columns).

    With ``mixed`` every even case's first forecast is a plain Gaussian, so
    the first column is evaluated row by row.
    """
    rng = np.random.default_rng(5)
    cases = []
    for j in range(50):
        inner = StackedLogistic(np.nan if j == 23 else rng.normal(), 1.0)
        first = Mixture((inner, Gaussian(rng.normal(), 1.5)), (0.4, 0.6))
        if mixed and j % 2 == 0:
            first = Gaussian(rng.normal(), 1.2)
        cases.append(ForecastCase((first, Gaussian(rng.normal(), 0.9)), rng.normal()))
    return cases


class TestNestedNonFiniteParameters:
    @pytest.mark.parametrize("mixed", [False, True], ids=["stacked", "row-by-row"])
    @pytest.mark.parametrize("run", [
        fit_tlp, fit_slp, fit_blp,
        partial(fit_glp, link=LinkFunction.LOG),
        partial(fit_glp, link=LinkFunction.RECIPROCAL),
        partial(fit_glp, link=LinkFunction.PROBIT),
        partial(cdfpool.evaluate, TlpSpec((0.5, 0.5))),
    ], ids=["tlp", "slp", "blp", "glp-log", "glp-reciprocal", "glp-probit", "evaluate"])
    def test_fits_and_evaluate_name_the_case(self, run, mixed):
        with pytest.raises(DomainViolation, match="case 23 has a non-finite"):
            run(_cases_with_a_nested_nan(mixed))

    @pytest.mark.parametrize("mixed", [False, True], ids=["stacked", "row-by-row"])
    def test_finite_cases_still_build(self, mixed):
        cases = _cases_with_a_nested_nan(mixed)
        del cases[23]
        batch = ForecastBatch.from_cases(cases)
        assert len(batch) == 49
        assert isinstance(batch.components[0], _RowStack) == mixed


class TestFitsOnBatches:
    def test_six_fits_equal_on_batch_and_list(self):
        batch = simulate(DgpConfig(kind="regression", n=400, seed=3)).cases
        assert _fit_all(batch) == _fit_all(list(batch))

    def test_slp_on_mixture_columns_matches_per_case_path(self):
        batch = simulate(DgpConfig(kind="forecaster_quartet", n=300, seed=4)).cases
        assert_same_slp_fit(fit_slp(batch), per_case_slp(list(batch)))

    def test_slp_on_blp_pooled_cases_matches_per_case_path(self):
        spec = BlpSpec((0.4, 0.6), 1.3, 0.8)
        cases = []
        for case in simulate(DgpConfig(kind="regression", n=120, seed=8)).cases:
            blp = pool(spec, case.components[:2])
            adjusted = SpreadAdjusted(blp, 1.2, blp.median())
            cases.append(ForecastCase((blp, adjusted, case.components[2]), case.y))
        assert_same_slp_fit(fit_slp(cases), per_case_slp(cases))

    def test_slp_on_a_mixed_kind_column_matches_per_case_path(self):
        cases = []
        for j, case in enumerate(simulate(DgpConfig(kind="regression", n=120, seed=9)).cases):
            g0, g1, _ = case.components
            first = g0 if j % 2 else Mixture((g0, g1), (0.3, 0.7))
            cases.append(ForecastCase((first, g1), case.y))
        column = ForecastBatch.from_cases(cases).components[0]
        np.testing.assert_array_equal(column.median()[1::2, 0], [c.components[0].mu
                                                                 for c in cases[1::2]])
        assert_same_slp_fit(fit_slp(cases), per_case_slp(cases))

    def test_stacked_median_is_the_column_of_case_medians(self):
        batch = simulate(DgpConfig(kind="forecaster_quartet", n=50, seed=5)).cases
        column = batch.components[2].median()
        assert column.shape == (50, 1)
        np.testing.assert_array_equal(column[:, 0], [case.components[2].median()
                                                     for case in batch])


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestColumnCalls:
    """A design costs one call per component column for each array that its family reads."""

    def test_gaussian_columns(self, monkeypatch):
        batch = simulate(DgpConfig(kind="regression", n=1000, seed=6)).cases
        cdf = _counting(monkeypatch, Gaussian, "cdf")
        density = _counting(monkeypatch, Gaussian, "density")
        _build_design(batch, "blp")
        assert (len(cdf), len(density)) == (3, 3)

    def test_mixture_column(self, monkeypatch):
        batch = simulate(DgpConfig(kind="forecaster_quartet", n=1000, seed=6)).cases
        cdf = _counting(monkeypatch, Mixture, "cdf")
        density = _counting(monkeypatch, Mixture, "density")
        _build_design(batch, "blp")
        assert (len(cdf), len(density)) == (1, 1)

    @pytest.mark.parametrize("family, calls", [
        ("tlp", (0, 3)), ("slp", (0, 0)), ("blp", (3, 3)),
        ("log", (3, 3)), ("reciprocal", (3, 3)), ("probit", (0, 0)),
    ])
    def test_each_fit_evaluates_only_what_its_family_reads(self, monkeypatch, family, calls):
        # TLP reads f, SLP mu and sigma, BLP F and f, the log and reciprocal links
        # h(F) and h'(F) f, and the probit link over Gaussians z and 1/sigma
        batch = simulate(DgpConfig(kind="regression", n=300, seed=6)).cases
        cdf = _counting(monkeypatch, Gaussian, "cdf")
        density = _counting(monkeypatch, Gaussian, "density")
        fits = {"tlp": fit_tlp, "slp": fit_slp, "blp": fit_blp}
        res = fits[family](batch) if family in fits else fit_glp(batch, LinkFunction(family))
        assert res.converged
        assert (len(cdf), len(density)) == calls

    def test_fits_leave_the_cases_unbuilt(self, monkeypatch):
        batch = simulate(DgpConfig(kind="regression", n=300, seed=7)).cases
        built = _counting(monkeypatch, cdfpool.fitting, "ForecastCase")
        _fit_all(batch)
        assert not built
        assert all(case is None for case in batch._cases)


class TestDatasetCsv:
    HEADER = "y,mu_1,sd_1,mu_2,sd_2"

    def _read(self, tmp_path, bad_row):
        path = tmp_path / "data.csv"
        rows = ["0.1,0.0,1.0,0.5,2.0"] * 4
        rows[1] = bad_row  # file row 3
        path.write_text("\n".join([self.HEADER] + rows) + "\n")
        with pytest.raises(SchemaError) as err:
            read_dataset_csv(str(path))
        return str(err.value)

    @pytest.mark.parametrize("bad_row, names", [
        ("0.1,0.0,1.0,0.5", ["row 3", "4 fields"]),
        ("0.1,0.0,1.0,abc,2.0", ["row 3", "mu_2", "non-numeric"]),
        ("0.1,0.0,inf,0.5,2.0", ["row 3", "sd_1", "finite"]),
        ("nan,0.0,1.0,0.5,2.0", ["row 3", "y", "finite"]),
        ("0.1,0.0,1.0,0.5,0.0", ["row 3", "sd_2", "positive"]),
        ("0.1,0.0,-1.0,0.5,2.0", ["row 3", "sd_1", "positive"]),
    ])
    def test_errors_name_row_and_column(self, tmp_path, bad_row, names):
        message = self._read(tmp_path, bad_row)
        assert all(name in message for name in names), message

    def test_columns_are_views_of_one_array(self, tmp_path):
        path = str(tmp_path / "data.csv")
        write_dataset_csv(path, simulate(DgpConfig(kind="regression", n=20, seed=8)).cases)
        batch = read_dataset_csv(path)
        base = batch.y.base
        while base.base is not None:
            base = base.base
        assert all(np.shares_memory(c.mu, base) and np.shares_memory(c.sigma, base)
                   for c in batch.components)

    def test_write_rejects_non_gaussian_rows(self, tmp_path):
        g = Gaussian(0.0, 1.0)
        cases = [ForecastCase((g,), 0.0), ForecastCase((TwoPointBernoulli(0.4),), 1.0)]
        with pytest.raises(SchemaError, match="got TwoPointBernoulli"):
            write_dataset_csv(str(tmp_path / "x.csv"), cases)


class TestExactKs:
    def test_five_point_example(self):
        from scipy.stats import kstest

        z = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        stat, p = ks_uniformity(z)
        want = kstest(z, "uniform", method="exact").pvalue
        assert stat == pytest.approx(0.5)
        assert p == pytest.approx(want, rel=1e-12)
        assert round(p, 3) == 0.112

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 64, 139, 140])
    def test_against_scipy(self, n):
        from scipy.stats import kstwo

        rng = np.random.default_rng(n)
        for z in [rng.random(n), rng.random(n) ** 2, rng.random(n) * 0.5]:
            stat, p = ks_uniformity(z)
            assert p == pytest.approx(float(kstwo.sf(stat, n)), rel=1e-9, abs=1e-13)

    def test_asymptotic_above_140(self):
        from scipy.special import kolmogorov

        z = np.random.default_rng(3).random(141)
        stat, p = ks_uniformity(z)
        assert p == float(kolmogorov(np.sqrt(141) * stat))


def test_stacked_median_and_quantile_of_every_kind():
    g = [Gaussian(0.0, 1.0), Gaussian(1.0, 2.0), Gaussian(-0.5, 0.7)]
    blp = [pool(BlpSpec((0.3, 0.7), a, 1.2), g[:2]) for a in (0.8, 1.3, 2.0)]
    kinds = [
        g,
        [TwoPointBernoulli(p) for p in (0.25, 0.7, 0.9)],
        [FiniteDiscrete((0.0, 1.0, 2.0), m) for m in ((0.2, 0.2, 0.6), (0.6, 0.3, 0.1),
                                                      (0.1, 0.5, 0.4))],
        [pool(TlpSpec(w), g[:2]) for w in ((0.3, 0.7), (0.6, 0.4), (0.5, 0.5))],
        [pool(SlpSpec((0.3, 0.7), c), g[:2]) for c in (0.8, 1.3, 2.0)],
        blp,
        [SpreadAdjusted(b, 1.4, b.median()) for b in blp],
        [pool(GlpSpec(w, LinkFunction.PROBIT), g[:2]) for w in ((0.3, 0.7), (1.2, 0.4),
                                                                 (0.5, 0.5))],
        [g[0], Mixture(tuple(g[:2]), (0.5, 0.5)), blp[0]],
    ]
    levels = np.array([[0.1, 0.5, 0.95]])
    for rows in kinds:
        stacked = stack(rows)
        np.testing.assert_array_equal(np.reshape(stacked.median(), -1),
                                      [r.median() for r in rows])
        np.testing.assert_array_equal(stacked.quantile(levels),
                                      [r.quantile(levels[0]) for r in rows])


def test_stacked_discrete_median_flat_at_one_half():
    rows = [FiniteDiscrete((0.0, 1.0), (0.3, 0.7)), FiniteDiscrete((0.0, 1.0), (0.5, 0.5))]
    with pytest.raises(MedianUndefined):
        stack(rows).median()


def test_rows_of_every_stacked_kind_round_trip():
    g = [Gaussian(0.0, 1.0), Gaussian(1.0, 2.0)]
    kinds = [
        [TwoPointBernoulli(0.25), TwoPointBernoulli(0.5)],
        [FiniteDiscrete((0.0, 1.0, 2.0), (0.2, 0.3, 0.5)), FiniteDiscrete((1.0, 2.0, 4.0),
                                                                         (0.5, 0.5, 0.0))],
        [pool(spec, g) for spec in (TlpSpec((0.3, 0.7)), TlpSpec((0.6, 0.4)))],
        [pool(SlpSpec((0.3, 0.7), c), g) for c in (0.8, 1.3)],
        [pool(BlpSpec((0.3, 0.7), a, 1.2), g) for a in (0.8, 1.3)],
        [pool(GlpSpec(w, LinkFunction.PROBIT), g) for w in ((0.3, 0.7), (1.2, 0.4))],
        [g[0], Mixture(tuple(g), (0.5, 0.5))],
    ]
    for rows in kinds:
        stacked = stack(rows)
        assert [stacked._take(i) for i in range(2)] == rows
        assert all(type(a) is type(b) for a, b in zip(map(stacked._take, range(2)), rows))
