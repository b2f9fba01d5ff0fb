"""Seeded generators for the joint law of forecasts and observations.

Each generator emits forecast cases together with the latent variables that
produced them, so tests can condition on information sets directly.  The
cases are a ``ForecastBatch`` whose component columns are views of the
drawn arrays.  The ``check_*`` functions run the statistical diagnostics
that the generators are designed to exhibit: they simulate a batch and pass
its stacked columns, or pools of them, to the library's ``pit_sample`` and
``marginal_calibration_gap``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _special
from .calibration import (
    NEUTRAL_PIT_VARIANCE,
    _check_seed,
    dispersion_report,
    ks_uniformity,
    marginal_calibration_gap,
    pit_sample,
    reliability_bins,
)
from .distributions import FiniteDiscrete, Gaussian, Mixture, TwoPointBernoulli
from .errors import InvalidConfig
from .fitting import ForecastBatch
from .pools import TlpSpec, coherent_probit_pool, pool

REGRESSION = "regression"
FSIGMA = "fsigma"
BINARY_PROBIT = "binary_probit"
FORECASTER_QUARTET = "forecaster_quartet"
TERNARY = "ternary"

_KINDS = (REGRESSION, FSIGMA, BINARY_PROBIT, FORECASTER_QUARTET, TERNARY)

# The checkers draw their PIT uniforms from Philox(seed + 2**32): no 32-bit data seed uses it.
_PIT_KEY_OFFSET = 2**32
_RELIABILITY_BINS = 10  # equal-width probability bins of the binary reliability check


@dataclass(frozen=True)
class DgpConfig:
    """Configuration for one data-generating process.

    ``a1, a2, a3`` drive the regression process, ``sigma`` the single
    Gaussian forecaster, and ``sigma1, sigma2`` the binary-event signal
    scales; fields irrelevant to ``kind`` are ignored.
    """

    kind: str
    n: int
    seed: int
    a1: float = 1.0
    a2: float = 1.0
    a3: float = 1.1
    sigma: float = 1.0
    sigma1: float = 1.0
    sigma2: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidConfig(f"unknown dgp kind {self.kind!r}; choose from {_KINDS}")
        if self.n < 1:
            raise InvalidConfig("n must be at least 1")
        _check_seed(self.seed)
        if self.kind == FSIGMA and not self.sigma > 0.0:
            raise InvalidConfig("sigma must be positive")
        if self.kind == BINARY_PROBIT and not (self.sigma1 > 0.0 and self.sigma2 > 0.0):
            raise InvalidConfig("sigma1 and sigma2 must be positive")


@dataclass(frozen=True)
class SimResult:
    cases: ForecastBatch
    latents: dict[str, np.ndarray]


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


# ---------------------------------------------------------------------------
# raw latent draws


def _draw_regression(rng, n, a1, a2, a3):
    x = {f"x{i}": rng.standard_normal(n) for i in range(4)}
    eps = rng.standard_normal(n)
    y = x["x0"] + a1 * x["x1"] + a2 * x["x2"] + a3 * x["x3"] + eps
    means = np.column_stack([
        x["x0"] + a1 * x["x1"],
        x["x0"] + a2 * x["x2"],
        x["x0"] + a3 * x["x3"],
    ])
    sds = np.sqrt(np.array([
        1.0 + a2 * a2 + a3 * a3,
        1.0 + a1 * a1 + a3 * a3,
        1.0 + a1 * a1 + a2 * a2,
    ]))
    latents = dict(x, eps=eps)
    return y, means, sds, latents


def _draw_binary(rng, n, sigma1, sigma2):
    omega1 = sigma1 * rng.standard_normal(n)
    omega2 = sigma2 * rng.standard_normal(n)
    prob0 = _special.ndtr(omega1 + omega2)
    y = np.where(rng.random(n) < prob0, 0.0, 1.0)
    p1 = _special.ndtr(omega1 / np.sqrt(1.0 + sigma2 ** 2))
    p2 = _special.ndtr(omega2 / np.sqrt(1.0 + sigma1 ** 2))
    latents = {"omega1": omega1, "omega2": omega2, "p1": p1, "p2": p2,
               "prob0": prob0}
    return y, p1, p2, latents


def _draw_quartet(rng, n):
    mu = rng.standard_normal(n)
    y = mu + rng.standard_normal(n)
    tau = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return y, mu, tau, {"mu": mu, "tau": tau}


# ---------------------------------------------------------------------------
# ternary fixture: a probabilistically calibrated forecast that misstates
# the conditional outcome law in both of its scenarios


@dataclass(frozen=True)
class TernaryScenario:
    prob: float
    forecast_masses: tuple[float, float, float]
    outcome_probs: tuple[float, float, float]


TERNARY_OUTCOMES = (0.0, 1.0, 2.0)
TERNARY_SCENARIOS = (
    TernaryScenario(prob=0.5, forecast_masses=(0.5, 0.5, 0.0),
                    outcome_probs=(0.75, 0.25, 0.0)),
    TernaryScenario(prob=0.5, forecast_masses=(0.5, 0.25, 0.25),
                    outcome_probs=(0.25, 0.375, 0.375)),
)


@dataclass(frozen=True)
class TernaryPitLaw:
    """Exact piecewise-constant PIT densities for the ternary fixture."""

    breakpoints: tuple[float, ...]
    scenario_densities: tuple[tuple[float, ...], ...]
    average_density: tuple[float, ...]


def ternary_exact_pit_law() -> TernaryPitLaw:
    """Enumerate the randomized-PIT density exactly (no sampling).

    Within a scenario, an outcome carrying forecast mass q on the segment
    between consecutive CDF values contributes a uniform slab of height
    r / q there, where r is the true conditional outcome probability.  All
    quantities involved are dyadic, so float arithmetic is exact.
    """
    breaks = {0.0, 1.0}
    for s in TERNARY_SCENARIOS:
        breaks.update(np.cumsum(s.forecast_masses).tolist())
    bp = tuple(sorted(breaks))
    scen_dens = []
    for s in TERNARY_SCENARIOS:
        cum = np.concatenate([[0.0], np.cumsum(s.forecast_masses)])
        dens = []
        for lo, hi in zip(bp[:-1], bp[1:]):
            midpoint = 0.5 * (lo + hi)
            level = 0.0
            for m, q in enumerate(s.forecast_masses):
                if q > 0.0 and cum[m] < midpoint < cum[m + 1]:
                    level = s.outcome_probs[m] / q
            dens.append(level)
        scen_dens.append(tuple(dens))
    avg = tuple(
        sum(s.prob * d[i] for s, d in zip(TERNARY_SCENARIOS, scen_dens))
        for i in range(len(bp) - 1)
    )
    return TernaryPitLaw(breakpoints=bp, scenario_densities=tuple(scen_dens),
                         average_density=avg)


def _draw_ternary(rng, n):
    scenario = rng.integers(0, len(TERNARY_SCENARIOS), size=n)
    probs = np.array([s.outcome_probs for s in TERNARY_SCENARIOS])
    cums = np.cumsum(probs, axis=1)
    u = rng.random(n)
    idx = (u[:, None] > cums[scenario]).sum(axis=1)
    y = np.asarray(TERNARY_OUTCOMES)[idx]
    return y, scenario, {"scenario": scenario.astype(float)}


# ---------------------------------------------------------------------------
# public simulation entry point


def _col(x, n: int) -> np.ndarray:
    """A length-n draw, or a constant repeated n times, as an (n, 1) column view."""
    return np.broadcast_to(np.reshape(x, (-1, 1)), (n, 1))


def _gaussians(n: int, mu, sd) -> Gaussian:
    """Stacked Gaussian forecasts N(mu_j, sd_j^2), j < n."""
    return Gaussian._stacked(_col(mu, n), _col(sd, n))


def simulate(config: DgpConfig) -> SimResult:
    """Draw a dataset of forecast cases plus per-case latent records."""
    rng = _rng(config.seed)
    n = config.n
    if config.kind == REGRESSION:
        y, means, sds, latents = _draw_regression(rng, n, config.a1, config.a2, config.a3)
        components = tuple(_gaussians(n, means[:, i], sds[i]) for i in range(3))
    elif config.kind == FSIGMA:
        x = rng.standard_normal(n)
        eps = rng.standard_normal(n)
        y = x + eps
        latents = {"x": x, "eps": eps}
        components = (_gaussians(n, x, config.sigma),)
    elif config.kind == BINARY_PROBIT:
        y, p1, p2, latents = _draw_binary(rng, n, config.sigma1, config.sigma2)
        components = (TwoPointBernoulli._stacked(_col(p1, n)),
                      TwoPointBernoulli._stacked(_col(p2, n)))
    elif config.kind == FORECASTER_QUARTET:
        y, mu, tau, latents = _draw_quartet(rng, n)
        unfocused = Mixture._stacked((_gaussians(n, mu, 1.0), _gaussians(n, mu + tau, 1.0)),
                                     (_col(0.5, n), _col(0.5, n)))
        components = (_gaussians(n, mu, 1.0), Gaussian(0.0, np.sqrt(2.0)), unfocused,
                      _gaussians(n, -mu, 1.0))
    else:
        y, scenario, latents = _draw_ternary(rng, n)
        masses = np.array([s.forecast_masses for s in TERNARY_SCENARIOS])[scenario]
        components = (FiniteDiscrete._stacked(tuple(_col(a, n) for a in TERNARY_OUTCOMES),
                                              tuple(m[:, None] for m in masses.T)),)
    for draw in latents.values():  # the columns view these arrays
        draw.flags.writeable = False
    return SimResult(cases=ForecastBatch(y, components), latents=latents)


# ---------------------------------------------------------------------------
# statistical checkers


def marginal_gap_threshold(n: int) -> float:
    """Conservative distribution-free band for the marginal calibration gap, at level 0.01."""
    return 3.0 * np.sqrt(np.log(2.0 / 0.01) / (2.0 * n))


@dataclass(frozen=True)
class OverdispersionReport:
    pit_variance: float
    ci_lo: float
    ci_hi: float
    n: int
    passed: bool
    component_pit_variances: tuple[float, ...]


def check_linear_pool_overdispersion(n: int, seed: int, weights=None) -> OverdispersionReport:
    """PIT variance of an equal-weight linear pool of ideal regression forecasts.

    Passes when the 95% interval for the pooled PIT variance lies entirely
    below the neutral value 1/12, i.e. the pool is detectably overdispersed.
    """
    if n < 10_000:
        raise InvalidConfig("need n >= 10^4 for a reliable interval")
    batch = simulate(DgpConfig(REGRESSION, n, seed)).cases
    k = len(batch.components)
    w = (1.0 / k,) * k if weights is None else weights
    rep = dispersion_report(pit_sample(pool(TlpSpec(w), batch.components), batch.y,
                                       seed + _PIT_KEY_OFFSET))
    comp_vars = tuple(float(np.var(pit_sample(c, batch.y, seed + _PIT_KEY_OFFSET).z, ddof=1))
                      for c in batch.components)
    return OverdispersionReport(
        pit_variance=rep.pit_variance,
        ci_lo=rep.pit_variance - rep.ci_halfwidth,
        ci_hi=rep.pit_variance + rep.ci_halfwidth,
        n=n,
        passed=rep.pit_variance + rep.ci_halfwidth < NEUTRAL_PIT_VARIANCE,
        component_pit_variances=comp_vars,
    )


def _reliability_max_sigma_dev(p, y):
    """Largest |frequency - mean forecast| over the reliability bins, in binomial sigma units."""
    worst = 0.0
    for _, freq, count, pbar in reliability_bins(p, y, _RELIABILITY_BINS):
        if count:
            sigma = np.sqrt(max(pbar * (1.0 - pbar), 1e-12) / count)
            worst = max(worst, abs(freq - pbar) / sigma)
    return worst


@dataclass(frozen=True)
class BinaryEquivalenceReport:
    ks_pvalue_calibrated: float
    reliability_dev_calibrated: float
    ks_pvalue_miscalibrated: float
    reliability_dev_miscalibrated: float
    ks_pvalue_pooled: float
    reliability_dev_pooled: float
    pooled_log_score: float
    linear_log_score: float
    passed: bool


def check_binary_calibration_equivalence(n: int, seed: int, sigma1: float = 1.0,
                                         sigma2: float = 1.0) -> BinaryEquivalenceReport:
    """Probabilistic and conditional calibration agree for binary outcomes.

    The calibrated forecast must pass both the randomized-PIT uniformity
    test (level 0.01) and the reliability check (3 binomial sigma per bin);
    a deliberately miscalibrated transform (squaring) must fail both.  The
    probit-combined forecast must also pass both and beat the equal-weight
    linear average of probabilities on the Bernoulli log score.
    """
    if n < 10_000:
        raise InvalidConfig("need n >= 10^4")
    sim = simulate(DgpConfig(BINARY_PROBIT, n, seed, sigma1=sigma1, sigma2=sigma2))
    y, p1, p2 = sim.cases.y, sim.latents["p1"], sim.latents["p2"]

    def ks_p(p):
        forecasts = TwoPointBernoulli._stacked(p[:, None])
        return ks_uniformity(pit_sample(forecasts, y, seed + _PIT_KEY_OFFSET).z)[1]

    def bern_score(p):
        pr = np.where(y == 0.0, p, 1.0 - p)
        return float(np.log(np.maximum(pr, 1e-300)).mean())

    p_pool = coherent_probit_pool(p1, p2, sigma1, sigma2)
    (ks_cal, rel_cal), (ks_mis, rel_mis), (ks_pool, rel_pool) = (
        (ks_p(p), _reliability_max_sigma_dev(p, y)) for p in (p1, p1 * p1, p_pool))
    score_pool = bern_score(p_pool)
    score_lin = bern_score(0.5 * (p1 + p2))
    passed = (
        ks_cal > 0.01 and rel_cal <= 3.0
        and ks_mis < 0.01 and rel_mis > 3.0
        and ks_pool > 0.01 and rel_pool <= 3.0
        and score_pool > score_lin
    )
    return BinaryEquivalenceReport(
        ks_pvalue_calibrated=ks_cal,
        reliability_dev_calibrated=rel_cal,
        ks_pvalue_miscalibrated=ks_mis,
        reliability_dev_miscalibrated=rel_mis,
        ks_pvalue_pooled=ks_pool,
        reliability_dev_pooled=rel_pool,
        pooled_log_score=score_pool,
        linear_log_score=score_lin,
        passed=passed,
    )


@dataclass(frozen=True)
class QuartetRow:
    name: str
    ks_pvalue: float
    marginal_gap: float
    ks_pass: bool
    marginal_pass: bool


@dataclass(frozen=True)
class QuartetReport:
    rows: tuple[QuartetRow, ...]
    matches_expected: bool


def check_quartet_classification(n: int, seed: int) -> QuartetReport:
    """Reproduce the two-by-two calibration pattern of the four forecasters.

    Expected: the perfect and climatological forecasters pass both the PIT
    uniformity test and the marginal-gap band; the unfocused forecaster
    passes only the PIT test; the sign-reversed forecaster passes only the
    marginal-gap band.
    """
    batch = simulate(DgpConfig(FORECASTER_QUARTET, n, seed)).cases
    y = batch.y
    grid = np.linspace(float(y.min()), float(y.max()), 201)
    threshold = marginal_gap_threshold(n)
    # (PIT test, gap band) verdicts, in the order of the batch's columns
    expected = {"perfect": (True, True), "climatological": (True, True),
                "unfocused": (True, False), "sign_reversed": (False, True)}
    rows = []
    for name, forecasts in zip(expected, batch.components):
        _, pval = ks_uniformity(pit_sample(forecasts, y, seed + _PIT_KEY_OFFSET).z)
        gap = marginal_calibration_gap(forecasts, y, grid)
        rows.append(QuartetRow(name, pval, gap, ks_pass=pval > 0.01,
                               marginal_pass=gap < threshold))
    ok = all((r.ks_pass, r.marginal_pass) == expected[r.name] for r in rows)
    return QuartetReport(rows=tuple(rows), matches_expected=ok)
