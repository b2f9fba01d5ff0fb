"""Maximum log-score estimation of pool parameters.

The beta-transformed, spread-adjusted and generalized pools are fitted by
one Newton engine, the method of scoring with the exact analytic gradient
and Hessian of the log-score sum.  Weights sit at the head of the parameter
vector, on the simplex with the last one eliminated or, for generalized
links that only need a positive weight sum, on the positive orthant.  The
beta parameters and the common spread are optimized in log space, and a
weight that runs into the boundary triggers a restart under a logarithmic
barrier.  One result step serves all three fits: standard errors from the
Hessian in these coordinates, the log-space parameters converted by the
delta method, and the boundary flags.  The plain linear pool uses
multiplicative (EM) weight updates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln, ndtr, polygamma, psi

from .calibration import pit_sample
from .distributions import Gaussian, PredictiveDist, _as_array, _match, stack
from .errors import (
    DegenerateDesign,
    DensityUnavailable,
    DomainViolation,
    LengthMismatch,
    TooFewSamples,
)
from .pools import BlpSpec, GlpSpec, LinkFunction, PoolSpec, SlpSpec, TlpSpec, pool

CDF_CLAMP = 1e-12
DENSITY_FLOOR = 1e-300
BOUNDARY_WEIGHT = 1e-8  # a fitted weight below this is reported as boundary-active

FLAG_NO_CONVERGENCE = "no_convergence"
FLAG_SINGULAR_HESSIAN = "singular_hessian"
FLAG_FLAT_DIRECTION = "flat_direction"


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


@dataclass(frozen=True)
class FitResult:
    """Outcome of a pool fit.

    ``trace`` holds the objective (sum of log scores) at accepted iterates;
    it is nondecreasing unless a weight ran into the boundary away from a
    stationary point: the barrier stages that follow maximize a penalized
    objective, so their raw trace may dip.  ``std_errors`` come from the
    inverse Hessian at the optimum in the fitted coordinates; the
    eliminated simplex weight and the log-space parameters (c, alpha, beta)
    get theirs by the delta method.  They are None when the Hessian is
    singular.  ``boundary_active`` marks weights below 1e-8.
    ``iterations`` counts accepted Newton steps over all barrier stages, or
    EM updates for the linear pool.
    """

    spec: PoolSpec
    std_errors: dict[str, float] | None
    mean_log_score_train: float
    iterations: int
    converged: bool
    boundary_active: tuple[bool, ...]
    trace: tuple[float, ...] = ()
    flags: tuple[str, ...] = ()


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
    F: np.ndarray          # (J, k) clamped component CDF values at the outcome
    f: np.ndarray          # (J, k) component densities at the outcome
    y: np.ndarray          # (J,)
    gaussian: tuple[np.ndarray, np.ndarray] | None  # (mu, sd) when all Gaussian

    @property
    def J(self) -> int:
        return self.F.shape[0]

    @property
    def k(self) -> int:
        return self.F.shape[1]


def _case_arrays(data):
    """The outcomes (J,) and, if every component is Gaussian, their (mu, sd) as (J, k).

    Raises DomainViolation naming the first case with a non-finite outcome
    or Gaussian parameter.
    """
    y = np.array([case.y for case in data])
    finite = np.isfinite(y)
    gaussian = None
    if all(type(c) is Gaussian for case in data for c in case.components):
        mu = np.array([[c.mu for c in case.components] for case in data])
        sd = np.array([[c.sigma for c in case.components] for case in data])
        finite &= np.all(np.isfinite(mu) & np.isfinite(sd), axis=1)
        gaussian = (mu, sd)
    if not np.all(finite):
        raise DomainViolation(
            f"case {int(np.argmin(finite))} has a non-finite outcome or component "
            "parameter"
        )
    return y, gaussian


def _build_design(data) -> _Design:
    data = list(data)
    if not data:
        raise TooFewSamples("empty training set")
    k = len(data[0].components)
    if any(len(case.components) != k for case in data):
        raise LengthMismatch("all cases must have the same number of components")
    y, gaussian = _case_arrays(data)
    if gaussian is not None:
        mu, sd = gaussian
        z = (y[:, None] - mu) / sd
        F = ndtr(z)
        f = np.exp(-0.5 * z * z) / (sd * np.sqrt(2.0 * np.pi))
    else:
        if not all(c.has_density for case in data for c in case.components):
            raise DensityUnavailable("fitting requires absolutely continuous components")
        F = np.empty((len(data), k))
        f = np.empty((len(data), k))
        for j, case in enumerate(data):
            for i, c in enumerate(case.components):
                F[j, i] = c.cdf(case.y)
                f[j, i] = c.density(case.y)
    F = np.clip(F, CDF_CLAMP, 1.0 - CDF_CLAMP)
    return _Design(F=F, f=f, y=y, gaussian=gaussian)


def _check_clamp_fraction(design: _Design) -> None:
    at_edge = (design.F <= CDF_CLAMP) | (design.F >= 1.0 - CDF_CLAMP)
    frac = float(np.mean(np.any(at_edge, axis=1)))
    if frac > 0.01:
        raise DomainViolation(
            f"{100 * frac:.1f}% of cases have component CDF values pinned at the "
            "clamp boundary; the data are incompatible with the model"
        )


# ---------------------------------------------------------------------------
# scores and beta moments


def log_score(d: PredictiveDist, y):
    """Log predictive density at the outcome, floored at 1e-300.

    A float for a scalar outcome; for a stacked ``d`` and an (n, 1) column of
    outcomes, the (n, 1) scores of its rows.
    """
    return _match(y, np.log(np.maximum(_as_array(d.density(y)), DENSITY_FLOOR)))


def beta_log_moments(alpha: float, beta: float):
    """Moments of (log U, log(1-U)) for a beta variable U.

    Returns (E log U, E log(1-U), var log U, var log(1-U),
    cov(log U, log(1-U))), all via digamma/trigamma identities.
    """
    ab = alpha + beta
    e_log = psi(alpha) - psi(ab)
    e_log1m = psi(beta) - psi(ab)
    v_log = polygamma(1, alpha) - polygamma(1, ab)
    v_log1m = polygamma(1, beta) - polygamma(1, ab)
    cov = -polygamma(1, ab)
    return float(e_log), float(e_log1m), float(v_log), float(v_log1m), float(cov)


def _blp_core(design: _Design, w_head: np.ndarray, alpha: float, beta: float):
    """Objective, gradient, and Hessian in (w_1..w_{k-1}, alpha, beta)."""
    J, k = design.J, design.k
    w = np.concatenate([w_head, [1.0 - float(np.sum(w_head))]])
    SF = design.F @ w
    Sf = np.maximum(design.f @ w, DENSITY_FLOOR)
    logSF = np.log(SF)
    log1mSF = np.log1p(-SF)
    e_log, e_log1m, v_log, v_log1m, cov = beta_log_moments(alpha, beta)

    ell = (
        (alpha - 1.0) * logSF.sum()
        + (beta - 1.0) * log1mSF.sum()
        + np.log(Sf).sum()
        - J * (gammaln(alpha) + gammaln(beta) - gammaln(alpha + beta))
    )

    dF = design.F[:, : k - 1] - design.F[:, k - 1 :]
    df = design.f[:, : k - 1] - design.f[:, k - 1 :]
    A = dF / SF[:, None]
    B = dF / (1.0 - SF)[:, None]
    C = df / Sf[:, None]

    grad = np.empty(k + 1)
    grad[: k - 1] = ((alpha - 1.0) * A - (beta - 1.0) * B + C).sum(axis=0)
    grad[k - 1] = logSF.sum() - J * e_log
    grad[k] = log1mSF.sum() - J * e_log1m

    hess = np.empty((k + 1, k + 1))
    hess[: k - 1, : k - 1] = -(C.T @ C) - (alpha - 1.0) * (A.T @ A) - (beta - 1.0) * (B.T @ B)
    hess[: k - 1, k - 1] = hess[k - 1, : k - 1] = A.sum(axis=0)
    hess[: k - 1, k] = hess[k, : k - 1] = -B.sum(axis=0)
    hess[k - 1, k - 1] = -J * v_log
    hess[k, k] = -J * v_log1m
    hess[k - 1, k] = hess[k, k - 1] = -J * cov
    return float(ell), grad, hess


def blp_objective_and_derivatives(w, alpha: float, beta: float, data):
    """Sum of beta-pool log scores with its exact gradient and Hessian.

    ``w`` is the full simplex vector; derivatives are taken with respect to
    (w_1, ..., w_{k-1}, alpha, beta) with w_k eliminated as 1 - sum of the
    rest.  Beta log-moment terms use digamma/trigamma, making the Hessian
    exact rather than an expectation approximation.
    """
    w = np.asarray(w, dtype=float)
    design = _build_design(data)
    if w.size != design.k:
        raise LengthMismatch("one weight per component is required")
    if np.any(w < 0.0) or abs(float(w.sum()) - 1.0) > 1e-12:
        raise DomainViolation("weights must lie on the unit simplex")
    if not (alpha > 0.0 and beta > 0.0):
        raise DomainViolation("alpha and beta must be strictly positive")
    _check_clamp_fraction(design)
    return _blp_core(design, w[:-1], alpha, beta)


# ---------------------------------------------------------------------------
# Newton engine shared by the BLP, SLP and GLP fits


@dataclass(frozen=True)
class _Weights:
    """Layout of the k pool weights at the head of a parameter vector theta.

    On the simplex theta holds w_1..w_{k-1} and w_k = 1 - sum of the rest;
    on the positive orthant theta holds all k weights.  Entries of theta
    after the weights are the pool's other parameters.
    """

    k: int
    simplex: bool

    @property
    def n(self) -> int:
        return self.k - 1 if self.simplex else self.k

    def start(self) -> np.ndarray:
        return np.full(self.n, 1.0 / self.k)

    def full(self, theta) -> np.ndarray:
        head = np.asarray(theta[: self.n], dtype=float)
        if self.simplex:
            return np.append(head, 1.0 - float(np.sum(head)))
        return head

    def reduce(self, g, H):
        """Map a gradient and Hessian in all k weights (then the rest) to theta."""
        if not self.simplex:
            return g, H
        T = np.delete(np.eye(g.size), self.k - 1, axis=1)
        T[self.k - 1, : self.k - 1] = -1.0
        return T.T @ g, T.T @ H @ T

    def barrier(self, theta, mu):
        """The log barrier mu * sum(log w) with its gradient and Hessian in theta."""
        w = self.full(theta)
        pad = np.zeros(theta.size - self.n)
        g, H = self.reduce(np.concatenate([mu / w, pad]),
                           np.diag(np.concatenate([-mu / w**2, pad])))
        return mu * float(np.sum(np.log(w))), g, H

    def max_step(self, theta, d, eta=1e-13) -> float:
        """Largest step keeping every weight (including an eliminated one) > eta."""
        w = self.full(theta)
        d_w = d[: self.n]
        if self.simplex:
            d_w = np.append(d_w, -float(np.sum(d_w)))
        shrinking = d_w < 0.0
        if not np.any(shrinking):
            return np.inf
        return float(np.min((w[shrinking] - eta) / -d_w[shrinking]))


def _ascent_direction(g, H, flags):
    """Solve a modified Newton system; fall back to the gradient if singular."""
    n = g.size
    neg_h = -H
    ridge = 0.0
    scale = max(float(np.max(np.abs(np.diag(neg_h)))), 1.0)
    for _ in range(30):
        try:
            L = np.linalg.cholesky(neg_h + ridge * np.eye(n))
            d = np.linalg.solve(L.T, np.linalg.solve(L, g))
            if np.all(np.isfinite(d)):
                return d
        except np.linalg.LinAlgError:
            pass
        ridge = max(10.0 * ridge, 1e-10 * scale)
    flags.add(FLAG_SINGULAR_HESSIAN)
    return g / scale


def _newton_stage(derivs, weights, J, theta0, barrier_mu, max_iter, flags, trace):
    """Backtracking Newton ascent; returns (theta, iterations, converged).

    ``derivs(theta)`` gives the log-score sum with its gradient and Hessian;
    a barrier stage maximizes it plus ``weights.barrier``, but the trace
    always records the log-score sum itself.
    """

    def objective(th):
        raw, g, H = derivs(th)
        if barrier_mu is None:
            return raw, raw, g, H
        pen, g_pen, H_pen = weights.barrier(th, barrier_mu)
        return raw, raw + pen, g + g_pen, H + H_pen

    theta = theta0.copy()
    raw, ell, g, H = objective(theta)
    trace.append(raw)
    it = 0
    converged = False
    while it < max_iter:
        if np.max(np.abs(g)) < 1e-8:
            converged = True
            break
        d = _ascent_direction(g, H, flags)
        t = min(1.0, 0.999 * weights.max_step(theta, d))
        if t <= 0.0 or not np.isfinite(t):
            break
        accepted = False
        for _ in range(60):
            cand = theta + t * d
            raw_new, ell_new, g_new, H_new = objective(cand)
            if np.isfinite(ell_new) and ell_new > ell:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            # no ascent left in floating point: converged if the Newton
            # decrement per case is as small as an accepted step's gain
            converged = 0.5 * float(g @ d) / J < 1e-10
            break
        it += 1
        delta = ell_new - ell
        theta, raw, ell, g, H = cand, raw_new, ell_new, g_new, H_new
        trace.append(raw)
        if delta / J < 1e-10:
            converged = True
            break
    return theta, it, converged


def _newton_fit(derivs, weights, J, theta0):
    """Newton ascent with a barrier restart; (theta, iterations, converged, flags, trace).

    If a weight runs into the boundary (it ends below 1e-4 where the
    gradient is still above 1e-4, so the stage stopped short of a
    stationary point), the fit restarts from ``theta0`` under a logarithmic
    barrier whose weight is halved from 1e-2 down to 1e-8.
    """
    flags: set[str] = set()
    trace: list[float] = []
    theta, iters, converged = _newton_stage(derivs, weights, J, theta0, None, 500, flags, trace)
    if (float(np.min(weights.full(theta))) < 1e-4
            and float(np.max(np.abs(derivs(theta)[1]))) > 1e-4):
        theta = theta0.copy()
        mu = 1e-2
        while mu >= 1e-8:
            theta, it, converged = _newton_stage(derivs, weights, J, theta, mu, 200,
                                                 flags, trace)
            iters += it
            mu *= 0.5
    if not converged:
        flags.add(FLAG_NO_CONVERGENCE)
    return theta, iters, converged, flags, trace


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
    if weights.simplex and weights.k >= 2:
        head = cov[: weights.n, : weights.n]
        se[f"w_{weights.k}"] = float(np.sqrt(max(np.sum(head), 0.0)))
    return se


def _newton_result(family, derivs, weights, J, theta0, **fixed) -> FitResult:
    """Run ``_newton_fit`` and report it as a fit of ``family``.

    theta holds the weights, then the log of each of the family's shape
    parameters; their SEs come from the theta Hessian by the delta method.
    ``fixed`` holds spec fields that are not fitted (the GLP link).
    """
    theta, iters, converged, flags, trace = _newton_fit(derivs, weights, J, theta0)
    w = weights.full(theta)
    shape = [float(np.exp(x)) for x in theta[weights.n:]]
    ell, _, hess = derivs(theta)
    se = _simplex_se_from_hessian(-hess, weights, family.shape_params)
    if se is None:
        flags.add(FLAG_SINGULAR_HESSIAN)
    else:
        for name, value in zip(family.shape_params, shape):
            se[name] *= value  # d exp(x) / dx; exact at a stationary point
    return FitResult(
        spec=family(tuple(float(x) for x in w), *shape, **fixed),
        std_errors=se,
        mean_log_score_train=ell / J,
        iterations=iters,
        converged=converged,
        boundary_active=tuple(bool(x < BOUNDARY_WEIGHT) for x in w),
        trace=tuple(trace),
        flags=tuple(sorted(flags)),
    )


# ---------------------------------------------------------------------------
# beta-transformed pool


def _blp_theta_derivs(design, theta):
    """ell, gradient, Hessian in theta = (w_head, log alpha, log beta)."""
    k = design.k
    w_head = theta[: k - 1]
    alpha = np.exp(theta[k - 1])
    beta = np.exp(theta[k])
    ell, g, H = _blp_core(design, w_head, alpha, beta)

    # chain rule for the log-parameterization of (alpha, beta)
    ga, gb = g[k - 1], g[k]
    g[k - 1] = alpha * ga
    g[k] = beta * gb
    H[: k - 1, k - 1] *= alpha
    H[k - 1, : k - 1] *= alpha
    H[: k - 1, k] *= beta
    H[k, : k - 1] *= beta
    haa, hbb, hab = H[k - 1, k - 1], H[k, k], H[k - 1, k]
    H[k - 1, k - 1] = alpha * alpha * haa + alpha * ga
    H[k, k] = beta * beta * hbb + beta * gb
    H[k - 1, k] = H[k, k - 1] = alpha * beta * hab
    return ell, g, H


def fit_blp(data, init: BlpSpec | None = None) -> FitResult:
    """Fit the beta-transformed pool by Newton's method on the log score.

    Starts from the nested linear pool (equal weights, alpha = beta = 1)
    unless ``init`` says otherwise.  If a weight runs into the simplex
    boundary, the fit restarts under a logarithmic barrier (``_newton_fit``).
    """
    design = _build_design(data)
    k = design.k
    if design.J < k + 2:
        raise TooFewSamples(f"need at least {k + 2} cases to fit k={k} components")
    _check_clamp_fraction(design)

    weights = _Weights(k, simplex=True)
    if init is not None:
        theta0 = np.concatenate([
            np.asarray(init.w[:-1], dtype=float),
            [np.log(init.alpha), np.log(init.beta)],
        ])
    else:
        theta0 = np.concatenate([weights.start(), [0.0, 0.0]])

    return _newton_result(BlpSpec, lambda th: _blp_theta_derivs(design, th), weights,
                          design.J, theta0)


# ---------------------------------------------------------------------------
# traditional linear pool: EM on the mixture weights


def fit_tlp(data) -> FitResult:
    """Fit linear-pool weights by multiplicative (EM) updates.

    The objective (sum of log mixture densities over cases) is concave in
    the weights, and each responsibility-average update cannot decrease it.
    """
    design = _build_design(data)
    J, k = design.J, design.k
    if J < k + 1:
        raise TooFewSamples(f"need at least {k + 1} cases to fit k={k} components")
    f = design.f
    w = np.full(k, 1.0 / k)

    def ell_of(weights):
        return float(np.log(np.maximum(f @ weights, DENSITY_FLOOR)).sum())

    trace = [ell_of(w)]
    converged = False
    it = 0
    for it in range(1, 200_000 + 1):
        Sf = np.maximum(f @ w, DENSITY_FLOOR)
        w_new = (f * w / Sf[:, None]).mean(axis=0)
        s = w_new.sum()
        if s <= 0.0 or not np.isfinite(s):
            break
        w_new /= s
        ell_new = ell_of(w_new)
        w = w_new
        trace.append(ell_new)
        if abs(trace[-1] - trace[-2]) < 1e-10:
            converged = True
            break

    flags: set[str] = set()
    if not converged:
        flags.add(FLAG_NO_CONVERGENCE)

    se = None
    if k == 1:
        se = {"w_1": 0.0}
    else:
        Sf = np.maximum(f @ w, DENSITY_FLOOR)
        C = (f[:, : k - 1] - f[:, k - 1 :]) / Sf[:, None]
        info = C.T @ C
        cond = np.linalg.cond(info) if np.all(np.isfinite(info)) else np.inf
        if cond > 1e12:
            flags.add(FLAG_FLAT_DIRECTION)
        else:
            se = _simplex_se_from_hessian(info, _Weights(k, simplex=True), [])
            if se is None:
                flags.add(FLAG_FLAT_DIRECTION)

    spec = TlpSpec(w=tuple(float(x) for x in w))
    return FitResult(
        spec=spec,
        std_errors=se,
        mean_log_score_train=trace[-1] / J,
        iterations=it,
        converged=converged,
        boundary_active=tuple(bool(x < BOUNDARY_WEIGHT) for x in w),
        trace=tuple(trace),
        flags=tuple(sorted(flags)),
    )


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


def _spread_densities(data, y):
    """Like ``_gaussian_spread_densities`` for any continuous components.

    The adjusted density f(m + (y - m) / c) / c is evaluated at c and at c
    times exp(+-SPREAD_FD_STEP); its log-c derivatives are the central
    differences of the three (J, k) arrays.
    """
    comps = [case.components for case in data]
    medians = np.array([[c.median() for c in row] for row in comps])
    h = SPREAD_FD_STEP
    steps = np.exp(np.array([-h, 0.0, h]))

    def densities(c):
        cs = c * steps
        vals = np.empty((3,) + medians.shape)
        for j, row in enumerate(comps):
            for i, comp in enumerate(row):
                m = medians[j, i]
                vals[:, j, i] = np.asarray(comp.density(m + (y[j] - m) / cs)) / cs
        lo, d, hi = vals
        return d, (hi - lo) / (2.0 * h), (hi - 2.0 * d + lo) / (h * h)

    return densities


def _slp_derivs(densities, weights, theta):
    """ell, gradient, Hessian of the SLP log score in theta = (w_head, log c)."""
    k = weights.k
    w = weights.full(theta)
    d, d1, d2 = densities(float(np.exp(theta[-1])))
    D = np.maximum(d @ w, DENSITY_FLOOR)
    P = d / D[:, None]
    P1 = d1 / D[:, None]
    e1 = P1 @ w
    g = np.append(P.sum(axis=0), e1.sum())
    H = np.empty((k + 1, k + 1))
    H[:k, :k] = -(P.T @ P)
    H[:k, k] = H[k, :k] = (P1 - P * e1[:, None]).sum(axis=0)
    H[k, k] = float(np.sum((d2 @ w) / D - e1 * e1))
    g, H = weights.reduce(g, H)
    return float(np.log(D).sum()), g, H


def fit_slp(data) -> FitResult:
    """Fit the spread-adjusted pool over (weights, common spread c).

    Newton's method in (w_1..w_{k-1}, log c) from equal weights and c = 1,
    with exact derivatives for Gaussian components and central differences
    in log c for other continuous components.  Standard errors are reported
    in (w, c).
    """
    data = list(data)
    design = _build_design(data)
    k = design.k
    if design.J < k + 2:
        raise TooFewSamples(f"need at least {k + 2} cases to fit k={k} components")
    if design.gaussian is not None:
        densities = _gaussian_spread_densities(*design.gaussian, design.y)
    else:
        densities = _spread_densities(data, design.y)
    weights = _Weights(k, simplex=True)
    return _newton_result(SlpSpec, lambda th: _slp_derivs(densities, weights, th), weights,
                          design.J, np.append(weights.start(), 0.0))


# ---------------------------------------------------------------------------
# generalized linear pool (open-interval links)


def _glp_derivs(b, a, link, weights, theta):
    """ell, gradient, Hessian of the GLP log score in its weights.

    ``b = h(F)`` and ``a = h'(F) f`` are (J, k).  With s = b w and the
    pooled CDF g = h^{-1}(s), clamped to the open interval, the log density
    is log(a w) + phi(s) for phi(s) = -log|h'(h^{-1}(s))|, and phi is flat
    where the clamp is active.
    """
    w = weights.full(theta)
    s = b @ w
    unclamped = link.invert(s)
    g = np.clip(unclamped, CDF_CLAMP, 1.0 - CDF_CLAMP)
    num = a @ w
    dens = np.maximum(num / link.deriv(g), DENSITY_FLOOR)
    phi1, phi2 = link.phi_derivs(s)
    free = g == unclamped
    phi1 = np.where(free, phi1, 0.0)
    phi2 = np.where(free, phi2, 0.0)
    A = a / num[:, None]
    grad = A.sum(axis=0) + b.T @ phi1
    H = -(A.T @ A) + b.T @ (phi2[:, None] * b)
    grad, H = weights.reduce(grad, H)
    return float(np.log(dens).sum()), grad, H


def fit_glp(data, link: LinkFunction) -> FitResult:
    """Fit generalized-pool weights by maximizing the mean log score.

    Newton's method with exact derivatives from equal weights 1/k.
    Simplex-constrained links eliminate the last weight; links that only
    need a positive weight sum fit all k weights on the positive orthant.
    """
    if link is LinkFunction.IDENTITY:
        res = fit_tlp(data)
        return replace(res, spec=GlpSpec(w=res.spec.w, link=link))
    design = _build_design(data)
    k = design.k
    if design.J < k + 1:
        raise TooFewSamples(f"need at least {k + 1} cases to fit k={k} components")
    b = link.apply(design.F)
    a = link.deriv(design.F) * design.f
    weights = _Weights(k, simplex=link.requires_simplex)
    return _newton_result(GlpSpec, lambda th: _glp_derivs(b, a, link, weights, th), weights,
                          design.J, weights.start(), link=link)


# ---------------------------------------------------------------------------
# per-member Gaussian regression preprocessing


def fit_gaussian_component(x, y) -> ComponentRegression:
    """Linear bias correction y ~ a + b x with ML (1/n) residual scale."""
    x = _as_array(x)
    y = _as_array(y)
    if x.shape != y.shape:
        raise LengthMismatch("x and y must have equal length")
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


def gaussian_cases_from_regressions(x_matrix, y, regressions) -> list[ForecastCase]:
    """Turn raw point forecasts into Gaussian forecast cases via bias correction."""
    x_matrix = np.atleast_2d(_as_array(x_matrix))
    y = _as_array(y)
    if x_matrix.shape[0] != y.size or x_matrix.shape[1] != len(regressions):
        raise LengthMismatch("x_matrix must be (n cases) x (k members)")
    cases = []
    for j in range(y.size):
        comps = tuple(
            Gaussian(mu=r.a + r.b * x_matrix[j, i], sigma=max(r.sigma, 1e-12))
            for i, r in enumerate(regressions)
        )
        cases.append(ForecastCase(components=comps, y=float(y[j])))
    return cases


# ---------------------------------------------------------------------------
# evaluation


def evaluate(spec: PoolSpec, data, rng_seed: int = 0, bins: int = 10) -> EvalReport:
    """Score a pool spec on a dataset: mean log score, PIT variance, RMV."""
    data = list(data)
    if not data:
        raise TooFewSamples("empty evaluation set")
    dists = [pool(spec, case.components) for case in data]
    ys, _ = _case_arrays(data)
    scores = np.empty(ys.size)
    for idx, d in stack(dists):
        scores[idx] = log_score(d, ys[idx][:, None])[:, 0]
    s = pit_sample(dists, ys, rng_seed)
    variances = np.array([d.variance() for d in dists])
    counts, _ = np.histogram(s.z, bins=bins, range=(0.0, 1.0))
    return EvalReport(
        mean_log_score=float(scores.mean()),
        pit_variance=float(np.var(s.z, ddof=1)),
        rmv=float(np.sqrt(variances.mean())),
        histogram=counts,
    )
