"""Maximum log-score estimation of pool parameters.

Training and evaluation data are a ``ForecastBatch``: the J outcomes and k
stacked component forecasts with (J, 1) parameter columns.  A fit builds
the (J, k) arrays that its family reads at the outcomes, one call per
component column for each (``_build_design``); a plain list of
``ForecastCase`` is stacked into a batch first.

All four pools are fitted by one Newton engine, the method of scoring with
the exact gradient and Hessian of the log-score sum.  Weights sit at the
head of the parameter vector, on the simplex with one weight eliminated or,
for generalized links that only need a positive weight sum, on the positive
orthant; the spread and beta parameters are optimized in log space.
Weights that run into the boundary are pinned at zero (an active set), and
a Newton stage ends when its next step's predicted gain is below the
rounding of the objective.  One result step gives every fit its standard
errors (by the delta method for the log-space parameters) and flags.  Each
fit only builds its design and hands its family's derivatives to the engine
(``_newton_result``), which checks the case count and the clamp marks and
starts from equal weights with every shape parameter 1.  The TLP, BLP and
GLP share one log density, log|a w| + phi(b w), so one objective
(``_pool_derivs``) and one floor: a case whose log density is at most
log 1e-300 scores that floor and adds nothing to the derivatives.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import _special
from .calibration import _check_bins, _check_finite, pit_histogram, pit_sample
from .distributions import (
    Gaussian,
    PredictiveDist,
    _as_array,
    _finite_rows,
    _match,
    _row_count,
    stack,
)
from .errors import (
    DegenerateDesign,
    DensityUnavailable,
    DomainViolation,
    LengthMismatch,
    TooFewSamples,
)
from .pools import BlpSpec, GlpSpec, LinkFunction, PoolSpec, SlpSpec, TlpSpec, _check_link, pool

DENSITY_FLOOR = 1e-300
_LOG_DENSITY_FLOOR = float(np.log(DENSITY_FLOOR))
BOUNDARY_WEIGHT = 1e-8  # a weight below this is boundary-active, and held or pinned there
PIN_WEIGHT = 1e-4  # after a stage, pin a weight below this whose gradient points out by more
ROUNDING_ULPS = 8  # a gain below this many ulps of the log-score sum cannot show
GAIN_TOL = 1e-10  # per case: a change of the log-score sum below this is rounding noise

FLAG_NO_CONVERGENCE = "no_convergence"
FLAG_SINGULAR_HESSIAN = "singular_hessian"
FLAG_FLAT_DIRECTION = "flat_direction"
FLAG_CLAMPED_CASES = "clamped_cases"


@dataclass(frozen=True)
class ForecastCase:
    """One training or evaluation case: k component forecasts and the outcome."""

    components: tuple[PredictiveDist, ...]
    y: float

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "y", float(self.y))
        if not self.components:
            raise ValueError("a case needs at least one component forecast")


class ForecastBatch(Sequence):
    """J cases held as columns: outcomes ``y`` (J,) and k stacked ``components``.

    Component i is one object of a ``distributions`` class whose parameters
    are (J, 1) columns, row j holding case j's forecast (the form ``stack``
    builds), so one ``cdf`` or ``density`` call at a (J, m) array evaluates
    it for every case.  A batch is a read-only sequence of ``ForecastCase``;
    case j is built from the columns when it is first indexed or iterated,
    and kept.  Raises LengthMismatch for a column whose row count is not J,
    and DomainViolation naming the first case with a non-finite outcome or
    component parameter, nested ones included.
    """

    def __init__(self, y, components, _cases=None):
        y = np.asarray(y, dtype=float).view()
        y.flags.writeable = False
        components = tuple(components)
        if y.ndim != 1:
            raise LengthMismatch("the outcomes must be one-dimensional")
        if y.size and not components:
            raise ValueError("a case needs at least one component forecast")
        if any(_row_count(c) not in (None, y.size) for c in components):
            raise LengthMismatch("each component column needs one row per outcome")
        finite = np.isfinite(y) & _finite_rows(components, y.size)
        if not np.all(finite):
            raise DomainViolation(
                f"case {int(np.argmin(finite))} has a non-finite outcome or component "
                "parameter"
            )
        self._y, self._components = y, components
        self._cases = [None] * y.size if _cases is None else list(_cases)
        self._all_built = _cases is not None

    @classmethod
    def from_cases(cls, cases) -> ForecastBatch:
        """The batch of a sequence of ``ForecastCase``; a batch is returned as it is.

        Each component column is stacked by ``distributions.stack``; a column
        whose forecasts differ in shape is evaluated row by row.
        """
        if isinstance(cases, ForecastBatch):
            return cases
        cases = tuple(cases)
        k = len(cases[0].components) if cases else 0
        if any(len(case.components) != k for case in cases):
            raise LengthMismatch("all cases must have the same number of components")
        columns = [stack(col) for col in zip(*(case.components for case in cases))]
        return cls([case.y for case in cases], columns, cases)

    @property
    def y(self) -> np.ndarray:
        return self._y

    @property
    def components(self) -> tuple[PredictiveDist, ...]:
        return self._components

    def __len__(self) -> int:
        return self._y.size

    def _case(self, j: int) -> ForecastCase:
        if self._cases[j] is None:
            self._cases[j] = ForecastCase(tuple([c._take(j) for c in self._components]),
                                          self._y[j])
        return self._cases[j]

    def __getitem__(self, index):
        j = range(len(self))[index]
        return tuple(map(self._case, j)) if isinstance(j, range) else self._case(j)

    def __iter__(self):
        if not self._all_built:
            self._cases = list(map(self._case, range(len(self))))
            self._all_built = True
        return iter(self._cases)

    def __repr__(self) -> str:
        return f"ForecastBatch(J={len(self)}, k={len(self._components)})"


@dataclass(frozen=True)
class FitResult:
    """Outcome of a pool fit.

    ``trace`` holds the objective (sum of log scores) at the start and at
    every accepted iterate; it is non-decreasing up to rounding noise of
    1e-10 per case at the last step of a stage or where a weight is pinned.
    ``std_errors`` come from the inverse Hessian at the optimum in the
    fitted coordinates, by the delta method for the eliminated simplex
    weight and c, alpha, beta; None (flag ``flat_direction``) when it is
    singular.  ``boundary_active`` marks weights below 1e-8.  ``iterations``
    counts Newton steps, ``evaluations`` calls of the objective and its
    derivatives, and ``grad_norm`` is the final max |gradient| over the free
    coordinates.  Flag ``clamped_cases``: up to 1% of the cases have a
    component CDF value at the clamp (more raise ``DomainViolation``).
    """

    spec: PoolSpec
    std_errors: dict[str, float] | None
    mean_log_score_train: float
    iterations: int
    converged: bool
    boundary_active: tuple[bool, ...]
    trace: tuple[float, ...] = ()
    flags: tuple[str, ...] = ()
    evaluations: int = 0
    grad_norm: float = 0.0


@dataclass(frozen=True)
class ComponentRegression:
    """Per-member linear bias correction with ML residual scale."""

    a: float
    b: float
    sigma: float


@dataclass(frozen=True)
class EvalReport:
    mean_log_score: float
    pit_variance: float
    rmv: float
    histogram: np.ndarray


# ---------------------------------------------------------------------------
# design matrices


@dataclass
class _Design:
    """A batch's component terms at its outcomes, only those its family reads: a and b of
    the TLP, BLP and GLP log density log|a w| + phi(b w), or the SLP's spread."""

    y: np.ndarray                    # (J,)
    k: int
    a: np.ndarray | None = None      # (J, k) densities f (TLP, BLP) or h'(F) f (GLP)
    b: np.ndarray | None = None      # (J, k) clamped CDF values F (BLP) or h(F) (GLP)
    spread: Callable | None = None   # c -> (J, k) adjusted densities, log-c derivatives: SLP
    clamped: np.ndarray | None = None  # (J,) a component CDF at the clamp: BLP, GLP

    @property
    def J(self) -> int:
        return self.y.size


def _build_design(data, method: str) -> _Design:
    """The design of a batch (or a list of cases) at its outcomes, for the family ``method``.

    Only what the family reads is evaluated, with one call per component
    column for each array: TLP a = the densities f; BLP a = f and b = the
    CDF values F, clamped to [CDF_CLAMP, 1 - CDF_CLAMP]; SLP the
    spread-adjusted densities as a function of c, in closed form when every
    column is Gaussian and by central differences about each row's median
    otherwise; a generalized pool ``glp-<link>`` b = the terms h(F) and a =
    their y-derivatives from ``PredictiveDist._link_cdf``, which for probit
    over Gaussians are z and 1/sigma.  The BLP's clamped F comes from the same hook
    under the identity link, and both mark the cases where it clamped a component CDF.
    """
    batch = ForecastBatch.from_cases(data)
    if not len(batch):
        raise TooFewSamples("empty training set")
    comps = batch.components
    if not all(c.has_density for c in comps):
        raise DensityUnavailable("fitting requires absolutely continuous components")
    y = batch.y[:, None]
    design = _Design(batch.y, len(comps))
    if method.startswith("glp-"):
        link = LinkFunction(method.removeprefix("glp-"))
        b, a, low, high = zip(*(c._link_cdf(link, y, slope=True) for c in comps))
        design.b, design.a = np.hstack(b), np.hstack(a)
        design.clamped = np.any(np.hstack(low + high), axis=1)
    elif method == "slp":
        if all(type(c) is Gaussian for c in comps):
            design.spread = _gaussian_spread_densities(np.hstack([c.mu for c in comps]),
                                                       np.hstack([c.sigma for c in comps]),
                                                       batch.y)
        else:
            design.spread = _spread_densities(comps, batch.y)
    else:
        if method == "blp":
            F, _, low, high = zip(*(c._link_cdf(LinkFunction.IDENTITY, y) for c in comps))
            design.b, design.clamped = np.hstack(F), np.any(np.hstack(low + high), axis=1)
        design.a = np.hstack([c.density(y) for c in comps])
    return design


def _check_clamp_fraction(design: _Design) -> tuple[str, ...]:
    """Flag ``clamped_cases`` if a case has a component CDF at the clamp; raise above 1%."""
    frac = float(np.mean(design.clamped))
    if frac > 0.01:
        raise DomainViolation(
            f"{100 * frac:.1f}% of cases have component CDF values pinned at the "
            "clamp boundary; the data are incompatible with the model"
        )
    return (FLAG_CLAMPED_CASES,) if frac > 0.0 else ()


# ---------------------------------------------------------------------------
# scores and beta moments


def log_score(d: PredictiveDist, y):
    """Log predictive density at the outcome, floored at 1e-300.

    A float for a scalar outcome; for a stacked ``d`` and an (n, 1) column of
    outcomes, the (n, 1) scores of its rows.  A non-finite outcome raises DomainViolation.
    """
    _check_finite(_as_array(y), "outcome")
    return _match(np.log(np.maximum(_as_array(d.density(y)), DENSITY_FLOOR)))


def beta_log_moments(alpha: float, beta: float):
    """Moments of (log U, log(1-U)) for a beta variable U.

    Returns (E log U, E log(1-U), var log U, var log(1-U),
    cov(log U, log(1-U))), all via digamma/trigamma identities.
    """
    x = np.array([alpha, beta, alpha + beta])
    psi, tri = _special.psi(x), _special.polygamma(1, x)  # one call each
    return (float(psi[0] - psi[2]), float(psi[1] - psi[2]), float(tri[0] - tri[2]),
            float(tri[1] - tri[2]), float(-tri[2]))


# ---------------------------------------------------------------------------
# Newton engine shared by all four fits


@dataclass(frozen=True)
class _Weights:
    """Layout of the k pool weights at the head of a parameter vector theta.

    ``free`` lists the weights not pinned at 0 (default: all).  Theta holds
    them, but on the simplex the last is 1 - sum of the rest; then come the
    pool's other parameters.  A *point* is (w_1..w_k, other parameters).
    """

    k: int
    simplex: bool
    free: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.free is None:
            object.__setattr__(self, "free", tuple(range(self.k)))

    @property
    def head(self) -> list[int]:
        """The weights held in theta."""
        return list(self.free[:-1] if self.simplex else self.free)

    @property
    def n(self) -> int:
        return len(self.head)

    def full(self, theta) -> np.ndarray:
        w = np.zeros(self.k)
        w[self.head] = theta[: self.n]
        if self.simplex:
            w[self.free[-1]] = 1.0 - float(np.sum(theta[: self.n]))
        return w

    def point(self, theta) -> np.ndarray:
        return np.concatenate([self.full(theta), theta[self.n:]])

    def coords(self, point) -> np.ndarray:
        return np.concatenate([point[self.head], point[self.k:]])

    def columns(self, X):
        """Per-weight derivatives X (last axis: the k weights) in theta's weights.

        Simplex differences are taken before any sum over cases, so that a
        term common to all weights (a clamped outlier's) cannot swamp the rest.
        """
        if self.simplex:
            return X[..., self.head] - X[..., self.free[-1:]]
        return X[..., self.head]

    def moves(self, theta, d):
        """The free weights (on the simplex the eliminated one last) and their change along d."""
        d_w = d[: self.n]
        if self.simplex:
            d_w = np.append(d_w, -float(np.sum(d_w)))
        return self.full(theta)[list(self.free)], d_w


def _ascent_direction(g, H, flags):
    """Solve a modified Newton system; fall back to the gradient if singular.

    The ridge starts at 1e-12 of the largest curvature: flatter directions are noise.
    """
    n = g.size
    neg_h = -H
    scale = max(float(np.max(np.abs(np.diag(neg_h)))), 1.0)
    ridge = 1e-12 * scale
    for _ in range(30):
        try:
            L = np.linalg.cholesky(neg_h + ridge * np.eye(n))
            d = np.linalg.solve(L.T, np.linalg.solve(L, g))
            if np.all(np.isfinite(d)):
                return d
        except np.linalg.LinAlgError:
            pass
        ridge *= 10.0
    flags.add(FLAG_SINGULAR_HESSIAN)
    return g / scale


def _feasible_direction(g, H, weights, theta, flags):
    """The Newton direction with each weight at the boundary that it pushes out held.

    Such a weight (below BOUNDARY_WEIGHT, at most 1e-13 after the full step)
    gets a zero entry; None if it is the eliminated simplex weight.
    """
    keep = np.ones(g.size, dtype=bool)
    d = _ascent_direction(g, H, flags)
    while True:
        w, d_w = weights.moves(theta, d)
        out = (w < BOUNDARY_WEIGHT) & (w + d_w <= 1e-13)
        if np.any(out[weights.n:]):
            return None
        out = out[: weights.n] & keep[: weights.n]
        if not np.any(out):
            return d
        keep[: weights.n] &= ~out
        d = np.zeros_like(g)
        if np.any(keep):
            d[keep] = _ascent_direction(g[keep], H[np.ix_(keep, keep)], flags)


def _newton_stage(objective, weights, J, theta, start, flags, trace):
    """Backtracking Newton ascent over the free coordinates of ``weights``.

    ``objective(theta)`` gives the log-score sum with its gradient and
    Hessian, ``start`` its value at ``theta``.  Returns (theta, objective
    there, steps, evaluations, converged); ``trace`` gets the objective at
    the start and after every step.
    """
    (ell, g, H), steps, evals = start, 0, 0
    trace.append(ell)
    while steps < 500:
        if np.max(np.abs(g), initial=0.0) < 1e-8:
            return theta, (ell, g, H), steps, evals, True
        d = _feasible_direction(g, H, weights, theta, flags)
        if d is None:
            break
        w, d_w = weights.moves(theta, d)
        shrink = d_w < 0.0
        t_max = np.min((w[shrink] - 1e-13) / -d_w[shrink], initial=np.inf)
        slope, floor = float(g @ d), ROUNDING_ULPS * np.spacing(abs(ell))
        t = min(1.0, 0.999 * t_max) if 0.5 * slope >= floor else 0.0
        while t * slope >= floor:  # below the rounding floor no gain can show
            cand = objective(theta + t * d)
            evals += 1
            if np.isfinite(cand[0]) and cand[0] > ell:
                break
            t *= 0.5
        else:
            if 0.5 * slope >= GAIN_TOL * J:
                break
            # what is left is within the noise of ell: take the full step if
            # it is feasible and lowers ell by no more than that, and stop
            if t_max >= 1.0 and np.any(d):
                cand = objective(theta + d)
                evals += 1
                if cand[0] >= ell - GAIN_TOL * J:
                    theta, (ell, g, H) = theta + d, cand
                    steps += 1
                    trace.append(ell)
            return theta, (ell, g, H), steps, evals, True
        theta, (ell, g, H) = theta + t * d, cand
        steps += 1
        trace.append(ell)
    return theta, (ell, g, H), steps, evals, False


def _simplex_se_from_hessian(neg_hess, weights, other_names):
    """SEs of the weights, then ``other_names``, from an information matrix.

    An eliminated simplex weight w_k gets its error by the delta method.
    """
    try:
        cov = np.linalg.inv(neg_hess)
    except np.linalg.LinAlgError:
        return None
    diag = np.diag(cov)
    if np.any(diag < 0.0) or not np.all(np.isfinite(diag)):
        return None
    names = [f"w_{i + 1}" for i in range(weights.n)] + list(other_names)
    se = {name: float(np.sqrt(var)) for name, var in zip(names, diag)}
    if weights.simplex:
        head = cov[: weights.n, : weights.n]
        se[f"w_{weights.k}"] = float(np.sqrt(max(np.sum(head), 0.0)))
    return se


def _newton_result(family, derivs, design, simplex=True, **fixed) -> FitResult:
    """Fit ``family`` to ``design`` by Newton stages over an active set of weights pinned at 0.

    ``derivs(layout, theta)`` gives the log-score sum with its gradient and
    Hessian in the theta of a ``_Weights`` layout: the weights (on the
    simplex if ``simplex``), then the log of each shape parameter.  The fit
    needs k + 1 cases, k + 2 with shape parameters (else TooFewSamples), and
    starts from equal weights with every shape parameter 1.  A design with
    clamp marks is checked by ``_check_clamp_fraction``, which may raise or
    flag it.  After a stage, a weight below PIN_WEIGHT whose
    gradient (relative to the largest weight's on the simplex) is below
    -PIN_WEIGHT, or below BOUNDARY_WEIGHT and not above 0, is pinned, its
    mass going to the largest weight; a pinned weight whose gradient turns
    inward is released.  No pin may lower the objective by more than noise;
    a stage that stopped short is retried with the largest weight eliminated.
    ``fixed`` holds unfitted spec fields.
    """
    J, k = design.J, design.k
    need = k + 1 + bool(family.shape_params)
    if J < need:
        raise TooFewSamples(f"need at least {need} cases to fit k={k} components")
    flags, trace = set(() if design.clamped is None else _check_clamp_fraction(design)), []
    layout = weights = _Weights(k, simplex)
    theta = np.append(np.full(weights.n, 1.0 / k), np.zeros(len(family.shape_params)))
    current = derivs(layout, theta)
    steps, evals = 0, 1
    for rounds_left in reversed(range(2 * weights.k)):
        theta, last, s, e, converged = _newton_stage(
            partial(derivs, layout), layout, J, theta, current, flags, trace)
        steps, evals = steps + s, evals + e
        point = layout.point(theta)
        base = last if layout == weights else derivs(weights, weights.coords(point))
        evals += layout != weights
        w, g = point[: weights.k], base[1][: weights.n]
        top = int(np.argmax(w))
        if weights.simplex:  # gradients relative to the largest weight's
            g = np.append(g, 0.0)
            g -= g[top]
        pinned = [i for i in range(weights.k) if i not in layout.free]
        pin = [i for i in range(weights.k) if i != top and (
            (w[i] < PIN_WEIGHT and g[i] < -PIN_WEIGHT)
            or ((w[i] < BOUNDARY_WEIGHT or i in pinned) and g[i] <= 0.0))]
        moved = point.copy()
        if pin != pinned:
            if weights.simplex:
                moved[top] += moved[pin].sum()
            moved[pin] = 0.0
            evals += 1
            if derivs(weights, weights.coords(moved))[0] < last[0] - GAIN_TOL * J:
                pin, moved = pinned, point  # pinning would lower ell
        free = [i for i in range(weights.k) if i not in pin and i != top] + [top]
        new = replace(weights, free=tuple(free if weights.simplex else sorted(free)))
        if (pin == pinned and (converged or new == layout)) or not rounds_left:
            converged = converged and pin == pinned
            break
        layout, theta = new, new.coords(moved)
        current = derivs(layout, theta)
        evals += 1
    if not converged:
        flags.add(FLAG_NO_CONVERGENCE)
    w = point[: weights.k]
    shape = [float(np.exp(x)) for x in point[weights.k:]]
    se = _simplex_se_from_hessian(-base[2], weights, family.shape_params)
    if se is None:
        flags.add(FLAG_FLAT_DIRECTION)
    else:
        for name, value in zip(family.shape_params, shape):
            se[name] *= value  # d exp(x) / dx; exact at a stationary point
    return FitResult(
        spec=family(tuple(float(x) for x in w), *shape, **fixed),
        std_errors=se,
        mean_log_score_train=last[0] / J,
        iterations=steps,
        converged=converged,
        boundary_active=tuple(bool(x < BOUNDARY_WEIGHT) for x in w),
        trace=tuple(trace),
        flags=tuple(sorted(flags)),
        evaluations=evals,
        grad_norm=float(np.max(np.abs(last[1]), initial=0.0)),
    )


# ---------------------------------------------------------------------------
# TLP, BLP and GLP: the log density log|a w| + phi(b w)


def _pool_derivs(design, phi, weights, theta):
    """ell, gradient, Hessian of sum_j log|a_j w| + phi(b_j w) in theta = (w_head, log p).

    ``phi`` is None for the TLP, else ``phi(s, p)`` at the (J,) sums s = b w
    and the shape parameters p returns (v, c, v1, v2, shape): phi = v + c
    with c the same in every case, v1 and v2 its s-derivatives, and
    ``shape`` None or (T, dT, c_p, c_pp): phi's p-gradient is T + c_p with T
    (m, J), dT is T's s-derivative and c_pp is phi's p-Hessian.  A case whose
    log density is at most log 1e-300 scores that floor, as ``evaluate``
    scores it, and adds nothing to the derivatives.
    """
    n, J = weights.n, design.J
    w = weights.full(theta)
    num = design.a @ w
    # a TLP's a = f and feasible w are never negative: it skips |a w| and the sign back
    size = np.maximum(num if phi is None else np.abs(num), DENSITY_FLOOR)
    log_dens = np.log(size)
    c = 0.0
    if phi is not None:
        p = np.exp(theta[n:])
        v, c, v1, v2, shape = phi(design.b @ w, p)
        log_dens += v
    floor = _LOG_DENSITY_FLOOR - c
    live, n_live = slice(None), J
    if log_dens.min() <= floor:  # False with a NaN, which stays for the line search to reject
        live = log_dens > floor
        n_live = int(np.count_nonzero(live))
    ell = float(log_dens[live].sum() + n_live * c + (J - n_live) * _LOG_DENSITY_FLOOR)
    # 1 / (a w), finite at a floored a w
    inv = 1.0 / (size[live] if phi is None else np.copysign(size[live], num[live]))
    A = weights.columns(design.a[live] * inv[:, None])
    grad = A.sum(axis=0)
    H = -(A.T @ A)
    if phi is None:
        return ell, grad, H
    B = weights.columns(design.b[live])
    grad = grad + B.T @ v1[live]
    H = H + B.T @ (v2[live][:, None] * B)
    if shape is None:
        return ell, grad, H
    T, dT, c_p, c_pp = shape
    g_p = T[:, live].sum(axis=1) + n_live * c_p
    # chain rule for x = log p, each factor of p applied after its term
    H_wx = (B.T @ dT[:, live].T) * p
    H_xx = n_live * c_pp * p * p[:, None] + np.diag(p * g_p)
    full = np.empty((n + p.size,) * 2)
    full[:n, :n], full[:n, n:], full[n:, :n], full[n:, n:] = H, H_wx, H_wx.T, H_xx
    return ell, np.append(grad, p * g_p), full


def _beta_phi(s, p):
    """The BLP's phi(s) = (alpha - 1) log s + (beta - 1) log(1 - s) - log B(alpha, beta).

    With p = (alpha, beta) and T = (log s, log(1 - s)), phi = (p - 1) T - log B,
    so its p-gradient is T less the beta log-means and its p-Hessian minus
    their covariance (``beta_log_moments``).
    """
    eta = p - 1.0
    T = np.stack((np.log(s), np.log1p(-s)))
    dT = 1.0 / np.stack((s, s - 1.0))
    e_log, e_log1m, v_log, v_log1m, cov = beta_log_moments(*p)
    log_b = _special.gammaln(p).sum() - _special.gammaln(p.sum())
    shape = (T, dT, -np.array([e_log, e_log1m]), -np.array([[v_log, cov], [cov, v_log1m]]))
    return eta @ T, -log_b, eta @ dT, -eta @ (dT * dT), shape


def _link_phi(link, s, p):
    """A generalized pool's phi(s) from its link's row; it has no shape parameters."""
    return (link.phi(s), 0.0, *link.phi_derivs(s), None)


def blp_objective_and_derivatives(w, alpha: float, beta: float, data):
    """Sum of beta-pool log scores with its exact gradient and Hessian.

    ``w`` is the full simplex vector; derivatives are taken with respect to
    (w_1, ..., w_{k-1}, alpha, beta) with w_k eliminated as 1 - sum of the
    rest.  Beta log-moment terms use digamma/trigamma, making the Hessian
    exact rather than an expectation approximation.  ``BlpSpec`` checks the
    parameters (WeightConstraintViolation, NaN and inf included); a weight
    count other than the design's raises LengthMismatch.
    """
    design = _build_design(data, "blp")
    spec = BlpSpec(tuple(w), alpha, beta)
    if spec.k != design.k:
        raise LengthMismatch("one weight per component is required")
    _check_clamp_fraction(design)
    weights = _Weights(design.k, simplex=True)
    p = np.array([spec.alpha, spec.beta])
    n = weights.n
    ell, g, H = _pool_derivs(design, _beta_phi, weights, np.append(spec.w[:n], np.log(p)))
    # undo the chain rule for (log alpha, log beta)
    H[n:, n:] -= np.diag(g[n:])
    g[n:] /= p
    H[:, n:] /= p
    H[n:, :] /= p[:, None]
    return ell, g, H


def fit_tlp(data) -> FitResult:
    """Fit linear-pool weights by Newton's method on the log score, from equal weights."""
    design = _build_design(data, "tlp")
    return _newton_result(TlpSpec, partial(_pool_derivs, design, None), design)


def fit_blp(data) -> FitResult:
    """Fit the beta-transformed pool by Newton's method on the log score.

    Starts from the nested linear pool (equal weights, alpha = beta = 1).  A
    weight that runs into the simplex boundary is pinned at zero
    (``_newton_result``).
    """
    design = _build_design(data, "blp")
    return _newton_result(BlpSpec, partial(_pool_derivs, design, _beta_phi), design)


def fit_glp(data, link: LinkFunction) -> FitResult:
    """Fit generalized-pool weights by maximizing the mean log score.

    Newton's method with exact derivatives from equal weights 1/k.  Simplex-constrained
    links eliminate the last weight; links that only need a positive weight sum fit all
    k weights on the positive orthant.  A link that is not a ``LinkFunction`` raises TypeError.
    """
    if link is LinkFunction.IDENTITY:
        res = fit_tlp(data)
        return replace(res, spec=GlpSpec(w=res.spec.w, link=link))
    design = _build_design(data, f"glp-{_check_link(link).value}")
    derivs = partial(_pool_derivs, design, partial(_link_phi, link))
    return _newton_result(GlpSpec, derivs, design, link.requires_simplex, link=link)


# ---------------------------------------------------------------------------
# spread-adjusted pool


SPREAD_FD_STEP = 1e-4  # log-c step of the central difference for non-Gaussian components


def _gaussian_spread_densities(mu, sd, y):
    """c -> (d, dd/dlog c, d2d/dlog c2) of (J, k) spread-adjusted Gaussians.

    Spread-adjusting a Gaussian about its median rescales sigma by c, so
    with z = (y - mu) / (c sd) the derivatives are d (z^2 - 1) and
    d ((z^2 - 1)^2 - 2 z^2).
    """

    def densities(c):
        z = (y[:, None] - mu) / (c * sd)
        z2 = z * z
        d = np.exp(-0.5 * z2) / (c * sd * np.sqrt(2.0 * np.pi))
        return d, d * (z2 - 1.0), d * ((z2 - 1.0) ** 2 - 2.0 * z2)

    return densities


def _spread_densities(components, y):
    """Like ``_gaussian_spread_densities`` for any continuous component columns.

    The adjusted density f(m + (y - m) / c) / c about each row's median m
    is evaluated at c and at c times exp(+-SPREAD_FD_STEP); its log-c
    derivatives are the central differences of the three (J, k) arrays.
    """
    medians = [c.median() for c in components]
    h = SPREAD_FD_STEP
    steps = np.exp(np.array([-h, 0.0, h]))
    y = y[:, None]

    def densities(c):
        cs = c * steps
        vals = np.stack([_as_array(comp.density(m + (y - m) / cs)) / cs
                         for comp, m in zip(components, medians)], axis=-1)
        lo, d, hi = vals.transpose(1, 0, 2)
        return d, (hi - lo) / (2.0 * h), (hi - 2.0 * d + lo) / (h * h)

    return densities


def _slp_derivs(densities, weights, theta):
    """ell, gradient, Hessian of the SLP log score in theta = (w_head, log c)."""
    n = weights.n
    w = weights.full(theta)
    d, d1, d2 = densities(float(np.exp(theta[-1])))
    D = np.maximum(d @ w, DENSITY_FLOOR)
    P = d / D[:, None]
    P1 = d1 / D[:, None]
    e1 = P1 @ w
    Pw = weights.columns(P)
    g = np.append(Pw.sum(axis=0), e1.sum())
    H = np.empty((n + 1, n + 1))
    H[:n, :n] = -(Pw.T @ Pw)
    H[:n, n] = H[n, :n] = weights.columns(P1 - P * e1[:, None]).sum(axis=0)
    H[n, n] = float(np.sum((d2 @ w) / D - e1 * e1))
    return float(np.log(D).sum()), g, H


def fit_slp(data) -> FitResult:
    """Fit the spread-adjusted pool over (weights, common spread c).

    Newton's method in (w_1..w_{k-1}, log c) from equal weights and c = 1,
    with exact derivatives for Gaussian components and central differences
    in log c for other continuous components.  Standard errors are reported
    in (w, c).
    """
    design = _build_design(data, "slp")
    return _newton_result(SlpSpec, partial(_slp_derivs, design.spread), design)


# ---------------------------------------------------------------------------
# per-member Gaussian regression preprocessing


def fit_gaussian_component(x, y) -> ComponentRegression:
    """Linear bias correction y ~ a + b x with ML (1/n) residual scale; x and y must be finite."""
    x = _as_array(x)
    y = _as_array(y)
    if x.shape != y.shape:
        raise LengthMismatch("x and y must have equal length")
    finite = np.isfinite(x) & np.isfinite(y)
    if not np.all(finite):
        raise DomainViolation(f"point {int(np.argmin(finite))} is not finite")
    n = x.size
    if n < 3:
        raise TooFewSamples("need at least three points")
    sxx = float(np.sum((x - x.mean()) ** 2))
    if sxx <= 0.0:
        raise DegenerateDesign("covariate is constant")
    b = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    a = float(y.mean() - b * x.mean())
    resid = y - (a + b * x)
    sigma = float(np.sqrt(np.mean(resid**2)))
    return ComponentRegression(a=a, b=b, sigma=sigma)


def gaussian_cases_from_regressions(x_matrix, y, regressions) -> ForecastBatch:
    """Turn raw point forecasts into Gaussian forecast cases via bias correction."""
    x_matrix = np.atleast_2d(_as_array(x_matrix))
    y = _as_array(y)
    if x_matrix.shape[0] != y.size or x_matrix.shape[1] != len(regressions):
        raise LengthMismatch("x_matrix must be (n cases) x (k members)")
    comps = tuple(
        Gaussian._stacked((r.a + r.b * x_matrix[:, i])[:, None],
                          np.full((y.size, 1), max(r.sigma, 1e-12)))
        for i, r in enumerate(regressions)
    )
    return ForecastBatch(y, comps)


# ---------------------------------------------------------------------------
# evaluation


def evaluate(spec: PoolSpec, data, rng_seed: int = 0, bins: int = 10) -> EvalReport:
    """Score a pool spec on a dataset: mean log score, PIT variance, RMV.

    The batch's columns are pooled once, into one stacked forecast whose rows are the cases.
    """
    _check_bins(bins)
    batch = ForecastBatch.from_cases(data)
    if not len(batch):
        raise TooFewSamples("empty evaluation set")
    d = pool(spec, batch.components)
    scores = log_score(d, batch.y[:, None])[:, 0]
    s = pit_sample(d, batch.y, rng_seed)
    variances = np.ravel(d.variance())
    return EvalReport(
        mean_log_score=float(scores.mean()),
        pit_variance=float(np.var(s.z, ddof=1)),
        rmv=float(np.sqrt(variances.mean())),
        histogram=pit_histogram(s.z, bins),
    )
