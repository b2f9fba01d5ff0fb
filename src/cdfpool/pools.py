"""Combination formulas for predictive CDFs.

Four aggregation families are provided, all operating on the CDF scale:

* traditional linear pool: the weighted mixture sum w_i F_i(y);
* spread-adjusted linear pool: mixture of components re-scaled about their
  medians by a common factor c;
* beta-transformed linear pool: a beta CDF composed with the mixture;
* generalized linear pool: link-transformed averaging
  h^{-1}(sum w_i h(F_i(y))).

The four specs share one weight rule (``_PoolSpec``): weights are nonempty
and nonnegative, and sum to 1 within 1e-12, except for the log and probit
links, which only need a positive finite sum; every shape parameter is
positive and finite.  Each link's h, h^{-1}, h' and the derivatives of its
log-density term are one row of ``_LINK_FORMS``.  Component CDF values are
clamped to [CDF_CLAMP, 1 - CDF_CLAMP], in the pooled GLP and in the fits'
designs alike.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import reduce
from typing import ClassVar, NamedTuple

import numpy as np
from scipy.special import ndtr, ndtri

from .distributions import (
    BetaTransformed,
    Mixture,
    PredictiveDist,
    SpreadAdjusted,
    _as_array,
    _build,
    _match,
)
from .errors import DensityUnavailable, DomainViolation, WeightConstraintViolation

CDF_CLAMP = 1e-12  # CDF values fed to open-interval links are clamped to [eps, 1-eps]


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
        return _LINK_FORMS[self].h(u)

    def invert(self, s: np.ndarray) -> np.ndarray:
        return _LINK_FORMS[self].h_inv(s)

    def deriv(self, u: np.ndarray) -> np.ndarray:
        return _LINK_FORMS[self].dh(u)

    def phi_derivs(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """First two derivatives of phi(s) = -log|h'(h^{-1}(s))|.

        phi is the link's term in the generalized pool's log density,
        log(sum_i w_i h'(F_i) f_i) + phi(sum_i w_i h(F_i)).  It is s for
        the log link, 2 log(1/s) for the reciprocal link and -s^2/2 plus a
        constant for the probit link.
        """
        return _LINK_FORMS[self].dphi(s)


class _LinkForms(NamedTuple):
    h: Callable
    h_inv: Callable
    dh: Callable  # h'(u)
    dphi: Callable  # s -> (phi'(s), phi''(s))


def _probit_deriv(u):
    z = ndtri(u)
    return np.sqrt(2.0 * np.pi) * np.exp(0.5 * z * z)


_LINK_FORMS = {
    LinkFunction.IDENTITY: _LinkForms(lambda u: u, lambda s: s, np.ones_like,
                                      lambda s: (np.zeros_like(s), np.zeros_like(s))),
    LinkFunction.RECIPROCAL: _LinkForms(lambda u: 1.0 / u, lambda s: 1.0 / s,
                                        lambda u: -1.0 / (u * u),
                                        lambda s: (-2.0 / s, 2.0 / (s * s))),
    LinkFunction.LOG: _LinkForms(np.log, np.exp, lambda u: 1.0 / u,
                                 lambda s: (np.ones_like(s), np.zeros_like(s))),
    LinkFunction.PROBIT: _LinkForms(ndtri, ndtr, _probit_deriv,
                                    lambda s: (-s, -np.ones_like(s))),
}


def _check_weights(w, simplex: bool) -> tuple[float, ...]:
    """``w`` as floats: nonempty, nonnegative, on the simplex or with a positive finite sum."""
    w = tuple(float(x) for x in w)
    if not w:
        raise WeightConstraintViolation("at least one weight is required")
    if any(x < 0.0 for x in w):
        raise WeightConstraintViolation("weights must be nonnegative")
    # each test is written so that NaN and inf fail it
    if simplex and not abs(sum(w) - 1.0) <= 1e-12:
        raise WeightConstraintViolation("weights must sum to 1 within 1e-12")
    if not simplex and not 0.0 < sum(w) < math.inf:
        raise WeightConstraintViolation("weights must have a positive finite sum")
    return w


@dataclass(frozen=True)
class _PoolSpec:
    """Weights ``w`` checked by ``_check_weights`` and positive, finite shape parameters."""

    shape_params: ClassVar[tuple[str, ...]] = ()
    _simplex: ClassVar[bool] = True

    w: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "w", _check_weights(self.w, self._simplex))
        for name in self.shape_params:
            if not 0.0 < getattr(self, name) < math.inf:
                raise WeightConstraintViolation(f"{name} must be positive and finite")

    @property
    def k(self) -> int:
        return len(self.w)


@dataclass(frozen=True)
class TlpSpec(_PoolSpec):
    """Traditional linear pool with simplex weights."""

    method: ClassVar[str] = "tlp"


@dataclass(frozen=True)
class SlpSpec(_PoolSpec):
    """Spread-adjusted linear pool: simplex weights and a common spread c > 0."""

    method: ClassVar[str] = "slp"
    shape_params: ClassVar[tuple[str, ...]] = ("c",)

    c: float


@dataclass(frozen=True)
class BlpSpec(_PoolSpec):
    """Beta-transformed linear pool: simplex weights plus alpha, beta > 0."""

    method: ClassVar[str] = "blp"
    shape_params: ClassVar[tuple[str, ...]] = ("alpha", "beta")

    alpha: float
    beta: float


@dataclass(frozen=True)
class GlpSpec(_PoolSpec):
    """Generalized linear pool; the weight rule depends on the link."""

    link: LinkFunction

    @property
    def _simplex(self) -> bool:
        return self.link.requires_simplex

    @property
    def method(self) -> str:
        return f"glp-{self.link.value}"


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

    Component CDF values are clamped to [CDF_CLAMP, 1 - CDF_CLAMP] before the
    link is applied.  Wherever every component has numerically saturated at 0
    (or 1), the pooled CDF is set to exactly 0 (or 1); the same applies
    outside the components' common support.
    """

    _stacks = True
    components: tuple[PredictiveDist, ...]
    w: tuple[float, ...]
    link: LinkFunction

    def _link_sum(self, vals) -> np.ndarray:
        """sum_i w_i vals_i; each w_i is a float, or a column for stacked rows."""
        return sum(w * v for w, v in zip(self.w, vals))

    def _combine(self, vals: list[np.ndarray]) -> np.ndarray:
        stacked = np.stack(np.broadcast_arrays(*vals))  # a shared component has one row
        all_low = np.all(stacked <= CDF_CLAMP, axis=0)
        all_high = np.all(stacked >= 1.0 - CDF_CLAMP, axis=0)
        clamped = np.clip(stacked, CDF_CLAMP, 1.0 - CDF_CLAMP)
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
        F = np.clip(np.stack(np.broadcast_arrays(*(c.cdf(y_arr) for c in self.components))),
                    CDF_CLAMP, 1.0 - CDF_CLAMP)
        f = np.stack(np.broadcast_arrays(*(c.density(y_arr) for c in self.components)))
        s = self._link_sum(self.link.apply(F))
        g = np.clip(self.link.invert(s), CDF_CLAMP, 1.0 - CDF_CLAMP)
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
        bounds = np.array([[CDF_CLAMP, 1.0 - CDF_CLAMP]])
        return np.hstack(np.broadcast_arrays(*(c.quantile(bounds) for c in self.components)))


def pool(spec: PoolSpec, components) -> PredictiveDist:
    """Combine component distributions according to the pool specification.

    The spec's checks stand for those of the pooled objects' constructors, which are skipped.
    """
    components = tuple(components)
    if len(components) != spec.k:
        raise WeightConstraintViolation(
            f"spec has {spec.k} weights but {len(components)} components were given"
        )
    if isinstance(spec, SlpSpec):
        components = tuple([_build(SpreadAdjusted, {"base": c, "c": spec.c, "center": c.median()})
                            for c in components])
    elif isinstance(spec, GlpSpec) and spec.link is not LinkFunction.IDENTITY:
        return _build(GlpDistribution, {"components": components, "w": spec.w, "link": spec.link})
    elif not isinstance(spec, (TlpSpec, BlpSpec, GlpSpec)):
        raise TypeError(f"unknown pool spec {type(spec).__name__}")
    mixture = _build(Mixture, {"components": components, "weights": spec.w})
    if isinstance(spec, BlpSpec):
        return _build(BetaTransformed, {"base": mixture, "alpha": spec.alpha, "beta": spec.beta})
    return mixture


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
    w = _check_weights(w, simplex=True)
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
