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
positive and finite.  Each link is one row of its forms: h, h^{-1}, h', its
log-density term phi and phi's two derivatives.  The pooled GLP sums each
component's term h(F) and its y-derivative from ``PredictiveDist._link_cdf``
in component order: the CDF is h^{-1} of the first sum s, the density
exp(phi(s)) times the absolute second sum.  That hook is the one place that
clamps, F to [CDF_CLAMP, 1 - CDF_CLAMP], and only where a link diverges, in
the pooled GLP and the fits' designs alike; a clamped term is flat, so it adds
no density.  A Gaussian's probit term is z = (y - mu) / sigma itself, so
``_clamps`` marks it as one that never clamps, and the pool's ``_kinks``
leave it out.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import partialmethod, reduce
from typing import ClassVar

import numpy as np

from . import _special
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
    sum.  The three non-identity links diverge at 0 or 1, where
    ``PredictiveDist._link_cdf`` clamps unless a term is finite in closed form.

    Each member is one row: its value, ``requires_simplex``, h (``apply``), h^{-1}
    (``invert``), h' (``deriv``), ``phi`` and phi's first two derivatives
    (``phi_derivs``).  phi(s) = -log|h'(h^{-1}(s))| is the log-slope of h^{-1} at s,
    the link's term in the generalized pool's log density, log|sum_i w_i dh(F_i)/dy|
    + phi(sum_i w_i h(F_i)).  It is s for the log link, 2 log(1/s) for the
    reciprocal link and -(s^2 + log 2 pi)/2 for the probit link.
    """

    IDENTITY = ("identity", True, lambda u: u, lambda s: s, np.ones_like, np.zeros_like,
                lambda s: (np.zeros_like(s), np.zeros_like(s)))
    RECIPROCAL = ("reciprocal", True, lambda u: 1.0 / u, lambda s: 1.0 / s,
                  lambda u: -1.0 / (u * u), lambda s: -2.0 * np.log(s),
                  lambda s: (-2.0 / s, 2.0 / (s * s)))
    LOG = ("log", False, np.log, np.exp, lambda u: 1.0 / u, lambda s: s,
           lambda s: (np.ones_like(s), np.zeros_like(s)))
    PROBIT = ("probit", False, lambda u: _special.ndtri(u), lambda s: _special.ndtr(s),
              lambda u: math.sqrt(2.0 * math.pi) * np.exp(0.5 * np.square(_special.ndtri(u))),
              lambda s: -0.5 * (s * s + math.log(2.0 * math.pi)), lambda s: (-s, -np.ones_like(s)))

    def __new__(cls, value, requires_simplex, apply, invert, deriv, phi, phi_derivs):
        link = object.__new__(cls)
        link._value_ = value
        link.requires_simplex = requires_simplex
        link.apply, link.invert, link.deriv = apply, invert, deriv
        link.phi, link.phi_derivs = phi, phi_derivs
        return link


def _check_link(link) -> LinkFunction:
    """``link`` itself; TypeError unless it is a ``LinkFunction`` (a name is not looked up)."""
    if not isinstance(link, LinkFunction):
        raise TypeError(f"a link must be a LinkFunction, not {type(link).__name__}")
    return link


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
        return _check_link(self.link).requires_simplex

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

    Each component gives its term h(F_i), the term's y-derivative and clamp
    masks through ``_link_cdf``.  Wherever every component is at the lower
    (or upper) clamp, the pooled CDF is set to exactly 0 (or 1): below every
    component's support and above it, so the pool's support is the union of
    theirs.  The density is exp(phi(s)) |sum_i w_i dh(F_i)/dy| at the CDF's
    link sum s = sum_i w_i h(F_i): between the clamp crossings (``_kinks``)
    it is the derivative of the CDF, whatever the weights.  Weights that the
    link's ``GlpSpec`` would reject, or a weight count other than the component
    count, raise WeightConstraintViolation, and a non-link TypeError, as there.
    """

    _stacks = True
    components: tuple[PredictiveDist, ...]
    w: tuple[float, ...]
    link: LinkFunction

    def __post_init__(self):
        w = _check_weights(self.w, _check_link(self.link).requires_simplex)
        if len(w) != len(self.components):
            raise WeightConstraintViolation(
                f"{len(w)} weights were given for {len(self.components)} components"
            )
        object.__setattr__(self, "w", w)

    def _link_sum(self, vals) -> np.ndarray:
        """sum_i w_i vals_i; each w_i is a float, or a column for stacked rows."""
        return sum(w * v for w, v in zip(self.w, vals))

    def _cdf(self, y, left: bool):
        # each component's h(F) and clamp masks, in component order
        h, _, low, high = zip(*(c._link_cdf(self.link, y, left) for c in self.components))
        out = np.clip(self.link.invert(self._link_sum(h)), 0.0, 1.0)
        out = np.where(reduce(np.logical_and, high), 1.0, out)
        return _match(np.where(reduce(np.logical_and, low), 0.0, out))

    cdf = partialmethod(_cdf, left=False)
    cdf_left = partialmethod(_cdf, left=True)

    def _parts(self):
        return self.components

    def density(self, y):
        if not self.has_density:
            raise DensityUnavailable("a pool component carries point masses")
        h, dh, _, _ = zip(*(c._link_cdf(self.link, y, slope=True) for c in self.components))
        s = self._link_sum(h)
        return _match(np.exp(self.link.phi(s)) * np.abs(self._link_sum(dh)))

    def _kinks(self):
        # a clamp may switch on where a clamping component's CDF crosses either bound (-inf,
        # an empty panel, in a row that does not clamp) and at a nested pool's own kinks
        bounds = np.array([[CDF_CLAMP, 1.0 - CDF_CLAMP]])
        kinks = [c._kinks() for c in self.components]
        kinks += [np.where(clamps, c.quantile(bounds), -np.inf) for c in self.components
                  if np.any(clamps := c._clamps(self.link))]
        rows = max(len(k) for k in kinks)
        return np.hstack([np.broadcast_to(k, (rows, k.shape[1])) for k in kinks])


def pool(spec: PoolSpec, components) -> PredictiveDist:
    """Combine component distributions according to the pool specification.

    The mixture and the generalized pool skip their constructors' weight
    checks (``_build``): the spec has already run them.
    """
    if not isinstance(spec, PoolSpec):
        raise TypeError(f"unknown pool spec {type(spec).__name__}")
    components = tuple(components)
    if len(components) != spec.k:
        raise WeightConstraintViolation(
            f"spec has {spec.k} weights but {len(components)} components were given"
        )
    if isinstance(spec, SlpSpec):
        components = tuple([SpreadAdjusted(c, spec.c, c.median()) for c in components])
    elif isinstance(spec, GlpSpec) and spec.link is not LinkFunction.IDENTITY:
        return _build(GlpDistribution, {"components": components, "w": spec.w,
                                         "link": spec.link})
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
    out = _special.ndtr(np.sqrt(1.0 + sigma2 ** 2) * _special.ndtri(p1_arr)
                        + np.sqrt(1.0 + sigma1 ** 2) * _special.ndtri(p2_arr))
    return _match(out)


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
