"""Randomized probability integral transform and calibration diagnostics.

The PIT of a forecast F at an observation y is F(y-) + V (F(y) - F(y-))
with V an auxiliary uniform, which reduces to F(y) at continuity points.
Uniform PIT samples indicate probabilistic calibration; their variance
measures dispersion, with 1/12 the neutral value.  Note the orientation:
PIT variance *above* 1/12 means the forecasts are underdispersed, variance
below 1/12 means overdispersed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _special
from .distributions import PredictiveDist, _as_array, _each_chunk, stack, uniform_open
from .errors import DomainViolation, EmptyInput, InvalidConfig, LengthMismatch, TooFewSamples

NEUTRAL_PIT_VARIANCE = 1.0 / 12.0

# ks_uniformity's p-value is exact up to this sample size (the exact regime of
# Simard & L'Ecuyer 2011) and the asymptotic Kolmogorov tail above it.
KS_EXACT_MAX_N = 140

# The marginal gap sums the stacked CDF rows in blocks of this many: a block's rows
# in order, the block sums in block order.  A level that evaluates m of the grid's
# G points does so _GAP_CHUNK * (G // m) rows at a time, one chunk per core, so
# each CDF temporary stays within _GAP_CHUNK * G values (near 0.2 MB at G = 201).
_GAP_CHUNK = 128
# The gap's levels on the sorted grid: every 12th point and the last, then every
# 3rd and at last every point, each inside the stretches where the sup can still
# lie, which holds only for nondecreasing forecast CDFs.  Each level is one pass
# over the rows, so a row-by-row forecast pays one Python call per row and level.
_GAP_STRIDES = (12, 3, 1)
# A stretch is skipped once its bound falls below the best gap by more than this,
# far above the ulp-level non-monotonicity of ndtr, betainc, exp and log; the
# evaluated average CDF may fall along the sorted grid by at most this much.
_GAP_SLACK = 1e-12

UNDERDISPERSED = "underdispersed"
NEUTRALLY_DISPERSED = "neutrally_dispersed"
OVERDISPERSED = "overdispersed"


@dataclass(frozen=True)
class PitSample:
    """PIT values together with the auxiliary uniforms that produced them."""

    z: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        v = np.asarray(self.v, dtype=float)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "v", v)
        if z.shape != v.shape:
            raise LengthMismatch("z and v must have equal length")
        if not np.all((z >= 0.0) & (z <= 1.0)):  # written so that NaN fails too
            raise ValueError("PIT values must lie in [0, 1]")

    def __len__(self) -> int:
        return self.z.size


@dataclass(frozen=True)
class DispersionReport:
    pit_variance: float
    classification: str
    n: int
    ci_halfwidth: float


@dataclass(frozen=True)
class CalibrationReport:
    ks_statistic: float
    ks_pvalue: float
    marginal_gap: float
    histogram: np.ndarray
    pit: PitSample


def randomized_pit(d: PredictiveDist, y: float, v: float) -> float:
    """PIT value F(y-) + v (F(y) - F(y-)); equals F(y) where F is continuous.  y must be finite."""
    if not 0.0 < v < 1.0:
        raise ValueError("auxiliary uniform v must lie strictly inside (0, 1)")
    if not np.isfinite(y):
        raise DomainViolation(f"observation {y} is not finite")
    left = d.cdf_left(y)
    return left + v * (d.cdf(y) - left)


def _check_finite(x: np.ndarray, what: str) -> None:
    finite = np.isfinite(x)
    if not np.all(finite):
        raise DomainViolation(f"{what} {int(np.argmin(finite))} is not finite")


def _paired(forecasts, obs: np.ndarray) -> PredictiveDist:
    """The forecasts as one stacked forecast, one row per observation, every observation finite.

    A list, which must hold one forecast per observation, is stacked by ``stack``; a
    forecast is used as it is, a per-case one for every row.
    """
    d = forecasts if isinstance(forecasts, PredictiveDist) else stack(forecasts)
    n = d._rows()
    if n is not None and n != obs.size:
        raise LengthMismatch(f"{n} forecasts paired with {obs.size} observations")
    _check_finite(obs, "observation")
    return d


def pit_sample(forecasts, obs, rng_seed: int) -> PitSample:
    """The randomized PIT of each forecast at its observation, with seeded uniforms.

    ``forecasts`` is a list of per-case forecasts or one stacked forecast
    whose rows are the cases, such as ``pool(spec, batch.components)``.
    Case j gets the j-th auxiliary uniform.  The stacked forecast costs one
    ``cdf_left`` and one ``cdf`` call; the values equal ``randomized_pit``
    case by case.  Raises DomainViolation naming the first case whose PIT is
    not finite.
    """
    obs = _as_array(obs)
    d = _paired(forecasts, obs)
    rng = np.random.Generator(np.random.Philox(rng_seed))
    v = uniform_open(rng, obs.size)
    y = obs[:, None]
    left = _as_array(d.cdf_left(y))[:, 0]
    z = left + v * (_as_array(d.cdf(y))[:, 0] - left)
    _check_finite(z, "the PIT of case")
    return PitSample(z=z, v=v)


def dispersion_report(s: PitSample) -> DispersionReport:
    """Classify dispersion from the unbiased PIT sample variance.

    Neutral dispersion is declared when 1/12 falls inside a 95%
    normal-approximation interval for the variance estimate; otherwise the
    sign of the deviation decides (above 1/12: underdispersed).
    """
    n = len(s)
    if n < 2:
        raise TooFewSamples("need at least two PIT values")
    z = s.z
    var = float(np.var(z, ddof=1))
    m4 = float(np.mean((z - z.mean()) ** 4))
    se2 = max(m4 - var * var * (n - 3) / (n - 1), 0.0) / n
    half = 1.96 * np.sqrt(se2)
    if abs(var - NEUTRAL_PIT_VARIANCE) <= half:
        label = NEUTRALLY_DISPERSED
    elif var > NEUTRAL_PIT_VARIANCE:
        label = UNDERDISPERSED
    else:
        label = OVERDISPERSED
    return DispersionReport(pit_variance=var, classification=label, n=n,
                            ci_halfwidth=float(half))


def var_z_sigma(sigma: float) -> float:
    """PIT variance of the forecast N(X, sigma^2) for Y = X + noise.

    Both X and the noise are standard normal, so the PIT is Phi(noise /
    sigma) and its variance is the closed form arcsin(1 / (1 + sigma^2)) /
    (2 pi), from the orthant probability of two correlated normals; it is
    1/12 at sigma = 1.
    """
    if not sigma > 0.0:
        raise ValueError("sigma must be strictly positive")
    return float(np.arcsin(1.0 / (1.0 + sigma * sigma)) / (2.0 * np.pi))


def _average_cdf(d: PredictiveDist, x: np.ndarray, grid_size: int) -> np.ndarray:
    """The mean over the rows of ``d`` of the CDF at the points ``x``, some of a grid's.

    Each _GAP_CHUNK-row block's rows are added in order and the block sums
    in block order, so a point's sum depends neither on the chunk width nor on
    the core count, nor, given two or more points, on the others: numpy sums
    the blocks of a lone point pairwise.
    """
    rows = _GAP_CHUNK * max(grid_size // x.size, 1)

    def block_sums(start):
        F = _as_array(d._take(slice(start, start + rows)).cdf(x[None, :]))
        return [F[i:i + _GAP_CHUNK].sum(axis=0) for i in range(0, F.shape[0], _GAP_CHUNK)]

    acc = np.zeros(x.size)
    for sums in _each_chunk(block_sums, d._rows(), rows):
        for s in sums:
            acc += s
    return acc / (d._rows() or 1)


def marginal_calibration_gap(forecasts, obs, grid) -> float:
    """Sup over the grid of |average forecast CDF - empirical CDF of obs|.

    ``forecasts`` is a list of per-case forecasts or one stacked forecast whose rows
    are the cases (see ``pit_sample``), a shared forecast being one row.  The average
    CDF A is evaluated level by level on the sorted grid (_GAP_STRIDES), each level
    only inside the stretches where the sup can still lie: A and the ECDF E are
    nondecreasing, so between evaluated points a < b, |A - E| is at most
    max(A(b) - E(a+1), E(b-1) - A(a)), and a stretch whose bound falls below the best
    value so far by more than _GAP_SLACK is skipped.  The result is the max over every
    grid point.  Each column is summed as ``_average_cdf`` sums it, so the gap does
    not depend on the core count.  Raises DomainViolation where the evaluated A is
    not finite, naming the smallest grid index among those points, or where it falls
    along the sorted grid by more than _GAP_SLACK: the pruning needs nondecreasing
    forecast CDFs.
    """
    obs = _as_array(obs)
    grid = _as_array(grid)
    if obs.size == 0 or grid.size == 0:
        raise EmptyInput("forecasts, observations, and grid must be nonempty")
    d = _paired(forecasts, obs)
    _check_finite(grid, "grid point")
    order = np.argsort(grid, kind="stable")
    x = grid[order]
    ecdf = np.searchsorted(np.sort(obs), x, side="right") / obs.size
    avg = np.zeros(x.size)
    done = np.zeros(x.size, dtype=bool)

    def level(cols: np.ndarray) -> float:
        """Evaluate A at the sorted points ``cols``; the best |A - E| so far."""
        if cols.size == 1 < x.size:  # sum a lone point as the whole grid's points are summed
            cols = np.array([cols[0] - 1, cols[0]])
        avg[cols] = _average_cdf(d, x[cols], x.size)
        bad = order[cols[~np.isfinite(avg[cols])]]
        if bad.size:
            raise DomainViolation(f"the average forecast CDF at grid point {bad.min()} "
                                  "is not finite")
        done[cols] = True
        at = np.flatnonzero(done)
        fall = np.flatnonzero(np.diff(avg[at]) < -_GAP_SLACK)
        if fall.size:
            i, j = at[fall[0]], at[fall[0] + 1]
            raise DomainViolation(
                f"the average forecast CDF falls by {avg[i] - avg[j]:.3g} from grid point "
                f"{order[i]} to grid point {order[j]}: forecast CDFs must be nondecreasing")
        return float(np.max(np.abs(avg[at] - ecdf[at])))

    best = level(np.union1d(np.arange(0, x.size, _GAP_STRIDES[0]), x.size - 1))
    for stride in _GAP_STRIDES[1:]:
        at = np.flatnonzero(done)
        a, b = at[:-1], at[1:]
        bound = np.maximum(avg[b] - ecdf[a + 1], ecdf[b - 1] - avg[a])
        open_ = (b - a > 1) & (bound >= best - _GAP_SLACK)
        cols = [c for lo, hi in zip(a[open_], b[open_]) for c in range(lo + stride, hi, stride)]
        if cols:
            best = level(np.array(cols))
    return best


def _check_bins(bins) -> None:
    """Raise InvalidConfig unless ``bins`` is an integer of at least 1."""
    if not (isinstance(bins, (int, np.integer)) and bins >= 1):
        raise InvalidConfig("bins must be at least 1")


def reliability_bins(p, y01, bins: int = 10):
    """Conditional success frequencies against binned forecast probabilities.

    Success is coded as outcome 0.  Returns one (bin_center, freq, count,
    mean_forecast) row per equal-width bin on [0, 1], mean_forecast being the
    bin's average probability; freq and mean_forecast are nan for empty bins.
    """
    _check_bins(bins)
    p = _as_array(p)
    y01 = _as_array(y01)
    if p.shape != y01.shape:
        raise LengthMismatch("probabilities and outcomes must have equal length")
    idx = np.clip((p * bins).astype(int), 0, bins - 1)
    counts = np.bincount(idx, minlength=bins).astype(float)
    hits = np.bincount(idx, weights=(y01 == 0.0).astype(float), minlength=bins)
    p_sum = np.bincount(idx, weights=p, minlength=bins)
    with np.errstate(invalid="ignore", divide="ignore"):
        freq = np.where(counts > 0, hits / counts, np.nan)
        mean = np.where(counts > 0, p_sum / counts, np.nan)
    centers = (np.arange(bins) + 0.5) / bins
    return [(float(c), float(f), int(n), float(m))
            for c, f, n, m in zip(centers, freq, counts, mean)]


def pit_histogram(z, bins: int = 10) -> np.ndarray:
    """Counts of PIT values in equal-width bins on [0, 1]."""
    _check_bins(bins)
    counts, _ = np.histogram(_as_array(z), bins=bins, range=(0.0, 1.0))
    return counts


def ks_statistic(z) -> float:
    """Exact Kolmogorov-Smirnov distance of a sample to the uniform law."""
    z = np.sort(_as_array(z))
    n = z.size
    if n == 0:
        raise EmptyInput("empty sample")
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - z)
    d_minus = np.max(z - (i - 1) / n)
    return float(max(d_plus, d_minus))


def _ks_exact_cdf(n: int, d: float) -> float:
    """P(D_n < d) for the KS distance of n uniforms, by the matrix method of
    Marsaglia, Tsang & Wang (2003, JSS 8(18)).

    With k = floor(n d) + 1 and h = k - n d, the probability is
    n!/n^n times entry (k, k) of H^n for a (2k - 1)-square matrix H.  Its
    entries lie in [0, 1] and each row sums to at most e, so for n <= 140
    the power neither overflows nor cancels.
    """
    k = int(n * d) + 1
    m = 2 * k - 1
    h = k - n * d
    i = np.arange(m)
    lag = i[:, None] - i[None, :] + 1
    H = (lag >= 0).astype(float)
    powers = h ** (i + 1.0)
    H[:, 0] -= powers
    H[-1, :] -= powers[::-1]
    if 2.0 * h > 1.0:
        H[-1, 0] += (2.0 * h - 1.0) ** m
    H *= np.exp(-_special.gammaln(np.maximum(lag, 0) + 1.0))
    entry = np.linalg.matrix_power(H, n)[k - 1, k - 1]
    return float(entry * np.prod(np.arange(1, n + 1) / n))


def ks_uniformity(z) -> tuple[float, float]:
    """KS statistic and p-value for uniformity on [0, 1].

    The p-value is exact (``_ks_exact_cdf``) for samples of up to
    KS_EXACT_MAX_N values and the asymptotic Kolmogorov tail for larger ones.
    """
    z = _as_array(z)
    stat = ks_statistic(z)
    if z.size > KS_EXACT_MAX_N:
        return stat, float(_special.kolmogorov(np.sqrt(z.size) * stat))
    if z.size * stat * stat >= 18.0:  # p <= 2 exp(-2 n d^2) < 5e-16, below rounding of 1 - P
        return stat, 0.0
    return stat, min(max(1.0 - _ks_exact_cdf(z.size, stat), 0.0), 1.0)


def calibration_report(forecasts, obs, rng_seed: int, grid=None, bins: int = 10
                       ) -> CalibrationReport:
    """Bundle the KS test, marginal gap, PIT histogram, and the PIT sample for a dataset.

    The default grid is 201 points spanning the observations; pass
    ``dispersion_report(report.pit)`` for the PIT variance.  A list of
    forecasts is stacked once, for both the PIT and the marginal gap.
    """
    _check_bins(bins)
    obs = _as_array(obs)
    if grid is None:
        if obs.size == 0:
            raise EmptyInput("no observations")
        grid = np.linspace(float(obs.min()), float(obs.max()), 201)
    forecasts = _paired(forecasts, obs)
    s = pit_sample(forecasts, obs, rng_seed)
    stat, pval = ks_uniformity(s.z)
    gap = marginal_calibration_gap(forecasts, obs, grid)
    return CalibrationReport(ks_statistic=stat, ks_pvalue=pval, marginal_gap=gap,
                             histogram=pit_histogram(s.z, bins), pit=s)
