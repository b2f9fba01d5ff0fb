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
positive and finite.  Each link's h, h^{-1}, h', its log-density term phi
and phi's two derivatives are one row of ``_LINK_FORMS``.  Component CDF
values are clamped to [CDF_CLAMP, 1 - CDF_CLAMP], in the pooled GLP and in
the fits' designs alike.  The pooled GLP sums each component's term h(F) and
its y-derivative from ``PredictiveDist._link_cdf`` in component order: the
CDF is h^{-1} of the first sum, the density exp(phi(s)) times the absolute
second sum, with s the first sum clipped to the link's image of the clamp.
A clamped component's term is flat, so it adds no density.  Under the
probit link a Gaussian's term is z = (y - mu) / sigma clipped to
[ndtri(CDF_CLAMP), ndtri(1 - CDF_CLAMP)], the same clamp without the round
trip ndtri(ndtr(z)), and its y-derivative is 1/sigma inside the clip.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partialmethod, reduce
from typing import ClassVar, NamedTuple

import numpy as np
from scipy.special import ndtr, ndtri

from .distributions import (
    CDF_CLAMP,
    BetaTransformed,
    Mixture,
    PredictiveDist,
    SpreadAdjusted,
    _as_array,
    _build,
    _match,
)
from .errors import DensityUnavailable, DomainViolation, WeightConstraintViolation


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

    @property
    def bounds(self) -> tuple[float, float]:
        """h's image of [CDF_CLAMP, 1 - CDF_CLAMP], lower end first."""
        return _LINK_BOUNDS[self]

    def clip(self, s: np.ndarray) -> np.ndarray:
        """s clipped to ``bounds``, where the pooled CDF is not clamped."""
        return np.clip(s, *_LINK_BOUNDS[self])

    def phi(self, s: np.ndarray) -> np.ndarray:
        """phi(s) = -log|h'(h^{-1}(s))|, the log-slope of h^{-1} at s.

        phi is the link's term in the generalized pool's log density,
        log|sum_i w_i dh(F_i)/dy| + phi(sum_i w_i h(F_i)).  It is s for the
        log link, 2 log(1/s) for the reciprocal link and -(s^2 + log 2 pi)/2
        for the probit link.
        """
        return _LINK_FORMS[self].phi(s)

    def phi_derivs(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """First two derivatives of ``phi``."""
        return _LINK_FORMS[self].dphi(s)


class _LinkForms(NamedTuple):
    h: Callable
    h_inv: Callable
    dh: Callable  # h'(u)
    phi: Callable  # -log|h'(h^{-1}(s))|
    dphi: Callable  # s -> (phi'(s), phi''(s))


def _probit_deriv(u):
    z = ndtri(u)
    return np.sqrt(2.0 * np.pi) * np.exp(0.5 * z * z)


_LINK_FORMS = {
    LinkFunction.IDENTITY: _LinkForms(lambda u: u, lambda s: s, np.ones_like, np.zeros_like,
                                      lambda s: (np.zeros_like(s), np.zeros_like(s))),
    LinkFunction.RECIPROCAL: _LinkForms(lambda u: 1.0 / u, lambda s: 1.0 / s,
                                        lambda u: -1.0 / (u * u), lambda s: -2.0 * np.log(s),
                                        lambda s: (-2.0 / s, 2.0 / (s * s))),
    LinkFunction.LOG: _LinkForms(np.log, np.exp, lambda u: 1.0 / u, lambda s: s,
                                 lambda s: (np.ones_like(s), np.zeros_like(s))),
    LinkFunction.PROBIT: _LinkForms(ndtri, ndtr, _probit_deriv,
                                    lambda s: -0.5 * (s * s + math.log(2.0 * math.pi)),
                                    lambda s: (-s, -np.ones_like(s))),
}
# each link's image of [CDF_CLAMP, 1 - CDF_CLAMP], lower bound first
_LINK_BOUNDS = {link: tuple(np.sort(forms.h(np.array([CDF_CLAMP, 1.0 - CDF_CLAMP]))).tolist())
                for link, forms in _LINK_FORMS.items()}


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
    link is applied; each component gives its term h(F_i), the term's
    y-derivative and clamp masks through ``_link_cdf``.  Wherever every
    component has numerically saturated at 0 (or 1), the pooled CDF is set
    to exactly 0 (or 1); the same applies outside the components' common
    support.  The density is exp(phi(s)) |sum_i w_i dh(F_i)/dy|, with s the
    CDF's link sum clipped by ``LinkFunction.clip``: between the clamp
    crossings (``_kinks``), and wherever the clip is not active, it is the
    derivative of the CDF.
    """

    _stacks = True
    components: tuple[PredictiveDist, ...]
    w: tuple[float, ...]
    link: LinkFunction

    def _link_sum(self, vals) -> np.ndarray:
        """sum_i w_i vals_i; each w_i is a float, or a column for stacked rows."""
        return sum(w * v for w, v in zip(self.w, vals))

    def _cdf(self, y, left: bool):
        # each component's clamped h(F) and clamp masks, in component order
        h, _, low, high = zip(*(c._link_cdf(self.link, y, left) for c in self.components))
        out = np.clip(self.link.invert(self._link_sum(h)), 0.0, 1.0)
        out = np.where(reduce(np.logical_and, high), 1.0, out)
        return _match(y, np.where(reduce(np.logical_and, low), 0.0, out))

    cdf = partialmethod(_cdf, left=False)
    cdf_left = partialmethod(_cdf, left=True)

    has_density = Mixture.has_density
    atom_locations = Mixture.atom_locations

    def density(self, y):
        if not self.has_density:
            raise DensityUnavailable("a pool component carries point masses")
        h, dh, _, _ = zip(*(c._link_cdf(self.link, y, slope=True) for c in self.components))
        s = self.link.clip(self._link_sum(h))
        return _match(y, np.exp(self.link.phi(s)) * np.abs(self._link_sum(dh)))

    def support(self):
        los, his = zip(*(c.support() for c in self.components))
        return (reduce(np.maximum, los), reduce(np.minimum, his))

    def _kinks(self):
        # the clamp switches on where a component CDF crosses either bound
        bounds = np.array([[CDF_CLAMP, 1.0 - CDF_CLAMP]])
        return np.hstack(np.broadcast_arrays(*(c.quantile(bounds) for c in self.components)))


def pool(spec: PoolSpec, components) -> PredictiveDist:
    """Combine component distributions according to the pool specification.

    Only the mixture skips its constructor's weight check (``_build``): the
    spec has already run it.
    """
    components = tuple(components)
    if len(components) != spec.k:
        raise WeightConstraintViolation(
            f"spec has {spec.k} weights but {len(components)} components were given"
        )
    if isinstance(spec, SlpSpec):
        components = tuple([SpreadAdjusted(c, spec.c, c.median()) for c in components])
    elif isinstance(spec, GlpSpec) and spec.link is not LinkFunction.IDENTITY:
        return GlpDistribution(components, spec.w, spec.link)
    elif not isinstance(spec, (TlpSpec, BlpSpec, GlpSpec)):
        raise TypeError(f"unknown pool spec {type(spec).__name__}")
    mixture = _build(Mixture, {"components": components, "weights": spec.w})
    if isinstance(spec, BlpSpec):
        return BetaTransformed(mixture, spec.alpha, spec.beta)
    return mixture


def coherent_probit_pool(p1, p2, sigma1: float, sigma2: float):
    """Probit-link combination of two conditionally normal success forecasts.

    For signals with noise scales sigma1 and sigma2, the combined success
    probability is Phi(sqrt(1 + sigma2^2) invPhi(p1) + sqrt(1 + sigma1^2)
    invPhi(p2)); both effective weights exceed one.
    """
    # each test is written so that NaN and inf fail it
    if not (0.0 < sigma1 < math.inf and 0.0 < sigma2 < math.inf):
        raise DomainViolation("noise scales must be positive and finite")
    p1_arr = _as_array(p1)
    p2_arr = _as_array(p2)
    if not np.all((p1_arr > 0.0) & (p1_arr < 1.0) & (p2_arr > 0.0) & (p2_arr < 1.0)):
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
