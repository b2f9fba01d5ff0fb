"""Combination formulas for predictive CDFs.

Four aggregation families are provided, all operating on the CDF scale:

* traditional linear pool: the weighted mixture sum w_i F_i(y);
* spread-adjusted linear pool: mixture of components re-scaled about their
  medians by a common factor c;
* beta-transformed linear pool: a beta CDF composed with the mixture;
* generalized linear pool: link-transformed averaging
  h^{-1}(sum w_i h(F_i(y))).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import reduce
from typing import ClassVar

import numpy as np
from scipy.special import ndtr, ndtri

from .distributions import (
    BetaTransformed,
    Mixture,
    PredictiveDist,
    SpreadAdjusted,
    _as_array,
    _at,
    _build,
    _column,
    _match,
    _stack_components,
)
from .errors import DensityUnavailable, DomainViolation, WeightConstraintViolation

GLP_CLAMP = 1e-12  # CDF values fed to open-interval links are clamped to [eps, 1-eps]


class LinkFunction(enum.Enum):
    """Strictly monotone links for the generalized linear pool.

    IDENTITY is defined on the closed unit interval and needs simplex
    weights, as does RECIPROCAL; LOG and PROBIT only need a positive weight
    sum.  The three non-identity links are defined on the open interval
    only, which is where the clamp policy applies.
    """

    IDENTITY = "identity"
    RECIPROCAL = "reciprocal"
    LOG = "log"
    PROBIT = "probit"

    @property
    def requires_simplex(self) -> bool:
        return self in (LinkFunction.IDENTITY, LinkFunction.RECIPROCAL)

    def apply(self, u: np.ndarray) -> np.ndarray:
        if self is LinkFunction.IDENTITY:
            return u
        if self is LinkFunction.RECIPROCAL:
            return 1.0 / u
        if self is LinkFunction.LOG:
            return np.log(u)
        return ndtri(u)

    def invert(self, s: np.ndarray) -> np.ndarray:
        if self is LinkFunction.IDENTITY:
            return s
        if self is LinkFunction.RECIPROCAL:
            return 1.0 / s
        if self is LinkFunction.LOG:
            return np.exp(s)
        return ndtr(s)

    def deriv(self, u: np.ndarray) -> np.ndarray:
        if self is LinkFunction.IDENTITY:
            return np.ones_like(u)
        if self is LinkFunction.RECIPROCAL:
            return -1.0 / (u * u)
        if self is LinkFunction.LOG:
            return 1.0 / u
        z = ndtri(u)
        return np.sqrt(2.0 * np.pi) * np.exp(0.5 * z * z)

    def phi_derivs(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """First two derivatives of phi(s) = -log|h'(h^{-1}(s))|.

        phi is the link's term in the generalized pool's log density,
        log(sum_i w_i h'(F_i) f_i) + phi(sum_i w_i h(F_i)).  It is s for
        the log link, 2 log(1/s) for the reciprocal link and -s^2/2 plus a
        constant for the probit link.
        """
        if self is LinkFunction.IDENTITY:
            return np.zeros_like(s), np.zeros_like(s)
        if self is LinkFunction.RECIPROCAL:
            return -2.0 / s, 2.0 / (s * s)
        if self is LinkFunction.LOG:
            return np.ones_like(s), np.zeros_like(s)
        return -s, -np.ones_like(s)


def _check_simplex(w) -> tuple[float, ...]:
    w = tuple(float(x) for x in w)
    if not w:
        raise WeightConstraintViolation("at least one weight is required")
    if any(x < 0.0 for x in w):
        raise WeightConstraintViolation("weights must be nonnegative")
    if not abs(sum(w) - 1.0) <= 1e-12:  # written so that NaN and inf fail too
        raise WeightConstraintViolation("weights must sum to 1 within 1e-12")
    return w


@dataclass(frozen=True)
class TlpSpec:
    """Traditional linear pool with simplex weights."""

    method: ClassVar[str] = "tlp"
    shape_params: ClassVar[tuple[str, ...]] = ()

    w: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "w", _check_simplex(self.w))

    @property
    def k(self) -> int:
        return len(self.w)


@dataclass(frozen=True)
class SlpSpec:
    """Spread-adjusted linear pool: simplex weights and a common spread c > 0."""

    method: ClassVar[str] = "slp"
    shape_params: ClassVar[tuple[str, ...]] = ("c",)

    w: tuple[float, ...]
    c: float

    def __post_init__(self):
        object.__setattr__(self, "w", _check_simplex(self.w))
        if not 0.0 < self.c < math.inf:
            raise WeightConstraintViolation("spread parameter c must be positive and finite")

    @property
    def k(self) -> int:
        return len(self.w)


@dataclass(frozen=True)
class BlpSpec:
    """Beta-transformed linear pool: simplex weights plus alpha, beta > 0."""

    method: ClassVar[str] = "blp"
    shape_params: ClassVar[tuple[str, ...]] = ("alpha", "beta")

    w: tuple[float, ...]
    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "w", _check_simplex(self.w))
        if not (0.0 < self.alpha < math.inf and 0.0 < self.beta < math.inf):
            raise WeightConstraintViolation("alpha and beta must be positive and finite")

    @property
    def k(self) -> int:
        return len(self.w)


@dataclass(frozen=True)
class GlpSpec:
    """Generalized linear pool; the weight rule depends on the link."""

    shape_params: ClassVar[tuple[str, ...]] = ()

    w: tuple[float, ...]
    link: LinkFunction

    def __post_init__(self):
        w = tuple(float(x) for x in self.w)
        object.__setattr__(self, "w", w)
        if not w:
            raise WeightConstraintViolation("at least one weight is required")
        if any(x < 0.0 for x in w):
            raise WeightConstraintViolation("weights must be nonnegative")
        if self.link.requires_simplex:
            if not abs(sum(w) - 1.0) <= 1e-12:
                raise WeightConstraintViolation(
                    f"{self.link.value} link requires weights summing to 1"
                )
        elif not 0.0 < sum(w) < math.inf:
            raise WeightConstraintViolation("weights must have a positive finite sum")

    @property
    def method(self) -> str:
        return f"glp-{self.link.value}"

    @property
    def k(self) -> int:
        return len(self.w)


PoolSpec = TlpSpec | SlpSpec | BlpSpec | GlpSpec

_LINEAR_FAMILIES = {cls.method: cls for cls in (TlpSpec, SlpSpec, BlpSpec)}


def spec_params(spec: PoolSpec) -> dict[str, float]:
    """The spec's named parameters in file order: w_1..w_k, then the shape parameters."""
    params = {f"w_{i}": w for i, w in enumerate(spec.w, start=1)}
    params.update((name, getattr(spec, name)) for name in spec.shape_params)
    return params


def spec_from_params(method: str, params) -> PoolSpec:
    """Inverse of ``spec_params`` for the family named by ``method``.

    ``params`` maps names to numbers or numeric strings; keys other than
    w_1..w_k and the family's shape parameters are ignored.  Raises KeyError
    for a missing parameter and ValueError for an unknown method or link.
    """
    k = sum(name.startswith("w_") for name in params)
    w = tuple(float(params[f"w_{i}"]) for i in range(1, k + 1))
    if method.startswith("glp-"):
        return GlpSpec(w=w, link=LinkFunction(method.removeprefix("glp-")))
    if method not in _LINEAR_FAMILIES:
        raise ValueError(f"unknown method {method!r}")
    cls = _LINEAR_FAMILIES[method]
    return cls(w, *(float(params[name]) for name in cls.shape_params))


@dataclass(frozen=True)
class GlpDistribution(PredictiveDist):
    """Link-averaged pool h^{-1}(sum w_i h(F_i(y))) for an open-interval link.

    Component CDF values are clamped to [GLP_CLAMP, 1 - GLP_CLAMP] before the
    link is applied.  Wherever every component has numerically saturated at 0
    (or 1), the pooled CDF is set to exactly 0 (or 1); the same applies
    outside the components' common support.
    """

    components: tuple[PredictiveDist, ...]
    w: tuple[float, ...]
    link: LinkFunction

    def _link_sum(self, vals) -> np.ndarray:
        """sum_i w_i vals_i; each w_i is a float, or a column for stacked rows."""
        return sum(w * v for w, v in zip(self.w, vals))

    def _combine(self, vals: list[np.ndarray]) -> np.ndarray:
        stacked = np.stack(vals)
        all_low = np.all(stacked <= GLP_CLAMP, axis=0)
        all_high = np.all(stacked >= 1.0 - GLP_CLAMP, axis=0)
        clamped = np.clip(stacked, GLP_CLAMP, 1.0 - GLP_CLAMP)
        s = self._link_sum(self.link.apply(clamped))
        out = np.clip(self.link.invert(s), 0.0, 1.0)
        return np.where(all_low, 0.0, np.where(all_high, 1.0, out))

    def cdf(self, y):
        vals = [_as_array(c.cdf(y)) for c in self.components]
        return _match(y, self._combine(vals))

    def cdf_left(self, y):
        vals = [_as_array(c.cdf_left(y)) for c in self.components]
        return _match(y, self._combine(vals))

    @property
    def has_density(self) -> bool:
        return all(c.has_density for c in self.components)

    def density(self, y):
        if not self.has_density:
            raise DensityUnavailable("a pool component carries point masses")
        y_arr = _as_array(y)
        F = np.stack([np.clip(_as_array(c.cdf(y_arr)), GLP_CLAMP, 1.0 - GLP_CLAMP)
                      for c in self.components])
        f = np.stack([_as_array(c.density(y_arr)) for c in self.components])
        s = self._link_sum(self.link.apply(F))
        g = np.clip(self.link.invert(s), GLP_CLAMP, 1.0 - GLP_CLAMP)
        num = self._link_sum(self.link.deriv(F) * f)
        return _match(y, np.maximum(num / self.link.deriv(g), 0.0))

    def support(self):
        los, his = zip(*(c.support() for c in self.components))
        return (reduce(np.maximum, los), reduce(np.minimum, his))

    def atom_locations(self):
        locs = np.concatenate([c.atom_locations() for c in self.components])
        return np.unique(locs)

    def _kinks(self):
        # the clamp switches on where a component CDF crosses either bound
        bounds = np.array([GLP_CLAMP, 1.0 - GLP_CLAMP])
        return np.concatenate([_as_array(c.quantile(bounds)) for c in self.components])

    def _stack_key(self):
        return (GlpDistribution, self.link, tuple(c._stack_key() for c in self.components))

    @classmethod
    def _stack(cls, rows):
        return _build(cls, components=_stack_components(rows),
                      w=tuple(_column(col) for col in zip(*(r.w for r in rows))),
                      link=rows[0].link)

    def _row(self, i):
        return GlpDistribution(tuple(c._row(i) for c in self.components),
                               tuple(_at(w, i) for w in self.w), self.link)


def pool(spec: PoolSpec, components) -> PredictiveDist:
    """Combine component distributions according to the pool specification."""
    components = tuple(components)
    if len(components) != spec.k:
        raise WeightConstraintViolation(
            f"spec has {spec.k} weights but {len(components)} components were given"
        )
    if isinstance(spec, TlpSpec):
        return Mixture(components, spec.w)
    if isinstance(spec, SlpSpec):
        adjusted = tuple(SpreadAdjusted(c, spec.c, c.median()) for c in components)
        return Mixture(adjusted, spec.w)
    if isinstance(spec, BlpSpec):
        return BetaTransformed(Mixture(components, spec.w), spec.alpha, spec.beta)
    if isinstance(spec, GlpSpec):
        if spec.link is LinkFunction.IDENTITY:
            return Mixture(components, spec.w)
        return GlpDistribution(components=components, w=spec.w, link=spec.link)
    raise TypeError(f"unknown pool spec {type(spec).__name__}")


def coherent_probit_pool(p1, p2, sigma1: float, sigma2: float):
    """Probit-link combination of two conditionally normal success forecasts.

    For signals with noise scales sigma1 and sigma2, the combined success
    probability is Phi(sqrt(1 + sigma2^2) invPhi(p1) + sqrt(1 + sigma1^2)
    invPhi(p2)); both effective weights exceed one.
    """
    if not (sigma1 > 0.0 and sigma2 > 0.0):
        raise DomainViolation("noise scales must be strictly positive")
    p1_arr = _as_array(p1)
    p2_arr = _as_array(p2)
    if np.any((p1_arr <= 0.0) | (p1_arr >= 1.0) | (p2_arr <= 0.0) | (p2_arr >= 1.0)):
        raise DomainViolation("probabilities must lie strictly inside (0, 1)")
    out = ndtr(np.sqrt(1.0 + sigma2 ** 2) * ndtri(p1_arr)
               + np.sqrt(1.0 + sigma1 ** 2) * ndtri(p2_arr))
    return _match(p1, out)


def slp_limit_variance(f0: PredictiveDist, components, w) -> float:
    """Supremum of the spread-adjusted pool's PIT variance over all spreads.

    As the spread parameter shrinks to zero the PIT concentrates on the
    cumulative weights, placed with probabilities given by f0 increments
    between consecutive sorted component medians; this returns the variance
    of that limiting discrete law.
    """
    if not f0.has_density:
        raise DensityUnavailable("the observation law must be continuous")
    w = _check_simplex(w)
    medians = np.array([c.median() for c in components])
    if medians.size != len(w):
        raise WeightConstraintViolation("one weight per component is required")
    order = np.argsort(medians, kind="stable")
    m_sorted = medians[order]
    w_sorted = np.asarray(w)[order]
    v = np.concatenate([[0.0], np.cumsum(w_sorted)])
    v[-1] = 1.0
    F0 = _as_array(f0.cdf(m_sorted))
    p = np.concatenate([[F0[0]], np.diff(F0), [1.0 - F0[-1]]])
    center = float(np.dot(p, v))
    return float(np.dot(p, (v - center) ** 2))
