"""Maximum log-score estimation of pool parameters.

The beta-transformed pool is fitted by a method-of-scoring Newton iteration
with the exact analytic gradient and Hessian of the log-score sum; weights
live on the simplex with the last one eliminated, and the transformation
parameters are optimized in log space.  The plain linear pool uses
multiplicative (EM) weight updates, and the spread-adjusted and generalized
pools use derivative-free simplex search on unconstrained coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import gammaln, ndtr, polygamma, psi

from .calibration import pit_sample
from .distributions import Gaussian, PredictiveDist, _as_array
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
    it is nondecreasing for interior fits.  Barrier stages used for
    boundary-active weights maximize a penalized objective, so their raw
    trace may dip.  ``std_errors`` come from the inverse Hessian at the
    optimum, with the eliminated weight's error obtained by the delta
    method; they are None when the Hessian is singular.
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


def _build_design(data) -> _Design:
    data = list(data)
    if not data:
        raise TooFewSamples("empty training set")
    k = len(data[0].components)
    if any(len(case.components) != k for case in data):
        raise LengthMismatch("all cases must have the same number of components")
    y = np.array([case.y for case in data])
    all_gaussian = all(
        type(c) is Gaussian for case in data for c in case.components
    )
    if all_gaussian:
        mu = np.array([[c.mu for c in case.components] for case in data])
        sd = np.array([[c.sigma for c in case.components] for case in data])
        z = (y[:, None] - mu) / sd
        F = ndtr(z)
        f = np.exp(-0.5 * z * z) / (sd * np.sqrt(2.0 * np.pi))
        gaussian = (mu, sd)
    else:
        if not all(c.has_density for case in data for c in case.components):
            raise DensityUnavailable("fitting requires absolutely continuous components")
        F = np.empty((len(data), k))
        f = np.empty((len(data), k))
        for j, case in enumerate(data):
            for i, c in enumerate(case.components):
                F[j, i] = c.cdf(case.y)
                f[j, i] = c.density(case.y)
        gaussian = None
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


def log_score(d: PredictiveDist, y: float) -> float:
    """Log predictive density at the outcome, floored at 1e-300."""
    val = float(d.density(y))
    return float(np.log(max(val, DENSITY_FLOOR)))


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
# beta-transformed pool: method of scoring


def _blp_theta_derivs(design, theta, barrier_mu):
    """ell, gradient, Hessian in theta = (w_head, log alpha, log beta)."""
    k = design.k
    w_head = theta[: k - 1]
    alpha = np.exp(theta[k - 1])
    beta = np.exp(theta[k])
    ell, g, H = _blp_core(design, w_head, alpha, beta)

    # chain rule for the log-parameterization of (alpha, beta)
    ga, gb = g[k - 1], g[k]
    g = g.copy()
    H = H.copy()
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

    if barrier_mu is not None:
        w_k = 1.0 - float(np.sum(w_head))
        ell += barrier_mu * (np.sum(np.log(w_head)) + np.log(w_k))
        g[: k - 1] += barrier_mu * (1.0 / w_head - 1.0 / w_k)
        H[: k - 1, : k - 1] -= barrier_mu * (np.diag(1.0 / w_head**2) + 1.0 / w_k**2)
    return ell, g, H


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


def _max_feasible_step(w_head, d_w, eta=1e-13):
    """Largest step keeping every weight (including the eliminated one) > eta."""
    t = np.inf
    for wi, di in zip(w_head, d_w):
        if di < 0.0:
            t = min(t, (wi - eta) / (-di))
    w_k = 1.0 - float(np.sum(w_head))
    d_k = -float(np.sum(d_w))
    if d_k < 0.0:
        t = min(t, (w_k - eta) / (-d_k))
    return t


def _newton_stage(design, theta0, barrier_mu, max_iter, flags, trace):
    """Backtracking Newton ascent; returns (theta, iterations, converged)."""
    k = design.k

    def raw_ell(th):
        return float(
            _blp_core(design, th[: k - 1], np.exp(th[k - 1]), np.exp(th[k]))[0]
        )

    theta = theta0.copy()
    ell, g, H = _blp_theta_derivs(design, theta, barrier_mu)
    trace.append(ell if barrier_mu is None else raw_ell(theta))
    it = 0
    converged = False
    while it < max_iter:
        if np.max(np.abs(g)) < 1e-8:
            converged = True
            break
        d = _ascent_direction(g, H, flags)
        t = min(1.0, 0.999 * _max_feasible_step(theta[: k - 1], d[: k - 1]))
        if t <= 0.0 or not np.isfinite(t):
            break
        accepted = False
        for _ in range(60):
            cand = theta + t * d
            ell_new, g_new, H_new = _blp_theta_derivs(design, cand, barrier_mu)
            if np.isfinite(ell_new) and ell_new > ell:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            # no ascent left in floating point: converged if the Newton
            # decrement per case is as small as an accepted step's gain
            converged = 0.5 * float(g @ d) / design.J < 1e-10
            break
        it += 1
        delta = ell_new - ell
        theta, ell, g, H = cand, ell_new, g_new, H_new
        trace.append(ell if barrier_mu is None else raw_ell(theta))
        if delta / design.J < 1e-10:
            converged = True
            break
    return theta, it, converged


def _simplex_se_from_hessian(neg_hess, names, k_weights):
    """Parameter SEs from an information matrix; delta method for w_k."""
    try:
        cov = np.linalg.inv(neg_hess)
    except np.linalg.LinAlgError:
        return None
    diag = np.diag(cov)
    if np.any(diag < 0.0) or not np.all(np.isfinite(diag)):
        return None
    se = {}
    for name, var in zip(names, diag):
        se[name] = float(np.sqrt(var))
    if k_weights >= 2:
        head = cov[: k_weights - 1, : k_weights - 1]
        se[f"w_{k_weights}"] = float(np.sqrt(max(np.sum(head), 0.0)))
    return se


def fit_blp(data, init: BlpSpec | None = None) -> FitResult:
    """Fit the beta-transformed pool by Newton's method on the log score.

    Starts from the nested linear pool (equal weights, alpha = beta = 1)
    unless ``init`` says otherwise.  If a weight runs into the simplex
    boundary, the fit restarts under a logarithmic barrier whose weight is
    halved from 1e-2 down to 1e-8, and the affected weights are flagged.
    """
    design = _build_design(data)
    k = design.k
    if design.J < k + 2:
        raise TooFewSamples(f"need at least {k + 2} cases to fit k={k} components")
    _check_clamp_fraction(design)

    if init is not None:
        theta0 = np.concatenate([
            np.asarray(init.w[:-1], dtype=float),
            [np.log(init.alpha), np.log(init.beta)],
        ])
    else:
        theta0 = np.concatenate([np.full(k - 1, 1.0 / k), [0.0, 0.0]])

    flags: set[str] = set()
    trace: list[float] = []
    theta, iters, converged = _newton_stage(design, theta0, None, 500, flags, trace)

    def weights_of(th):
        head = th[: k - 1]
        return np.concatenate([head, [1.0 - float(np.sum(head))]])

    if k >= 2 and float(np.min(weights_of(theta))) < 1e-4:
        theta = theta0.copy()
        mu = 1e-2
        total = iters
        while mu >= 1e-8:
            theta, it, converged = _newton_stage(design, theta, mu, 200, flags, trace)
            total += it
            mu *= 0.5
        iters = total

    if not converged:
        flags.add(FLAG_NO_CONVERGENCE)

    w = weights_of(theta)
    alpha = float(np.exp(theta[k - 1]))
    beta = float(np.exp(theta[k]))
    boundary = tuple(bool(x < 1e-5) for x in w)
    ell, _, hess = _blp_core(design, theta[: k - 1], alpha, beta)
    names = [f"w_{i + 1}" for i in range(k - 1)] + ["alpha", "beta"]
    se = _simplex_se_from_hessian(-hess, names, k)
    if se is None:
        flags.add(FLAG_SINGULAR_HESSIAN)
    spec = BlpSpec(w=tuple(float(x) for x in w), alpha=alpha, beta=beta)
    return FitResult(
        spec=spec,
        std_errors=se,
        mean_log_score_train=ell / design.J,
        iterations=iters,
        converged=converged,
        boundary_active=boundary,
        trace=tuple(trace),
        flags=tuple(sorted(flags)),
    )


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
            names = [f"w_{i + 1}" for i in range(k - 1)]
            se = _simplex_se_from_hessian(info, names, k)
            if se is None:
                flags.add(FLAG_FLAT_DIRECTION)

    spec = TlpSpec(w=tuple(float(x) for x in w))
    return FitResult(
        spec=spec,
        std_errors=se,
        mean_log_score_train=trace[-1] / J,
        iterations=it,
        converged=converged,
        boundary_active=tuple(bool(x < 1e-8) for x in w),
        trace=tuple(trace),
        flags=tuple(sorted(flags)),
    )


# ---------------------------------------------------------------------------
# spread-adjusted pool: derivative-free search on transformed coordinates


def _alr_inverse(t: np.ndarray) -> np.ndarray:
    """Additive log-ratio inverse onto the open simplex (last entry reference)."""
    z = np.concatenate([t, [0.0]])
    z -= z.max()
    e = np.exp(z)
    return e / e.sum()


def _slp_loglik_factory(data, design):
    """Vectorized SLP objective: (w, c) -> sum of log pooled densities."""
    if design.gaussian is not None:
        mu, sd = design.gaussian
        y = design.y

        def ell(w, c):
            # spread-adjusting a Gaussian about its median rescales sigma
            z = (y[:, None] - mu) / (c * sd)
            dens = np.exp(-0.5 * z * z) / (c * sd * np.sqrt(2.0 * np.pi))
            return float(np.log(np.maximum(dens @ w, DENSITY_FLOOR)).sum())

        return ell

    medians = np.array([[c.median() for c in case.components] for case in data])
    comps = [case.components for case in data]
    y = design.y

    def ell(w, c):
        total = 0.0
        for j, case_comps in enumerate(comps):
            acc = 0.0
            for i, comp in enumerate(case_comps):
                m = medians[j, i]
                acc += w[i] * comp.density(m + (y[j] - m) / c) / c
            total += np.log(max(acc, DENSITY_FLOOR))
        return float(total)

    return ell


def _fd_gradient_hessian(fun, x, h):
    n = x.size
    f0 = fun(x)
    g = np.empty(n)
    H = np.empty((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h[i]
        fp, fm = fun(x + e), fun(x - e)
        g[i] = (fp - fm) / (2.0 * h[i])
        H[i, i] = (fp - 2.0 * f0 + fm) / h[i] ** 2
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros(n)
            e[i], e[j] = h[i], h[j]
            fpp = fun(x + e)
            e[j] = -h[j]
            fpm = fun(x + e)
            e[i], e[j] = -h[i], h[j]
            fmp = fun(x + e)
            e[j] = -h[j]
            fmm = fun(x + e)
            H[i, j] = H[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h[i] * h[j])
    return g, H


def _fd_polish(fun, x0, max_iter=15):
    """Newton root-find on the finite-difference gradient near an optimum.

    Nelder-Mead leaves the iterate within its simplex tolerance of the
    maximizer; driving the central-difference gradient to zero pins the
    solution to a reproducible point well inside that tolerance.  Reverts
    to the starting point if the objective did not improve.
    """
    x = x0.copy()
    f0 = fun(x0)
    h = 1e-6 * np.maximum(np.abs(x0), 1.0)
    for _ in range(max_iter):
        g, H = _fd_gradient_hessian(fun, x, h)
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        norm = float(np.max(np.abs(step)))
        if norm > 0.5:
            step *= 0.5 / norm
        x = x + step
        if norm < 1e-12:
            break
    fx = fun(x)
    if not np.isfinite(fx) or fx < f0:
        return x0, f0
    return x, fx


def fit_slp(data) -> FitResult:
    """Fit the spread-adjusted pool over (weights, common spread c).

    Nelder-Mead on additive log-ratio weights and log c, multi-started from
    c in {0.5, 1.0, 1.5} with equal weights, then polished by a
    finite-difference Newton step to pin the optimum.
    """
    design = _build_design(data)
    k = design.k
    if design.J < k + 2:
        raise TooFewSamples(f"need at least {k + 2} cases to fit k={k} components")
    ell = _slp_loglik_factory(list(data), design)

    def objective(x):
        w = _alr_inverse(x[: k - 1])
        return -ell(w, float(np.exp(x[k - 1])))

    best = None
    total_evals = 0
    trace: list[float] = []
    for c0 in (0.5, 1.0, 1.5):
        x0 = np.concatenate([np.zeros(k - 1), [np.log(c0)]])
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"fatol": 1e-9, "xatol": 1e-6, "maxiter": 20000, "maxfev": 20000},
        )
        total_evals += res.nfev
        if best is None or res.fun < best.fun:
            best = res

    x, fx = _fd_polish(lambda t: -objective(t), best.x)
    w = _alr_inverse(x[: k - 1])
    c = float(np.exp(x[k - 1]))
    trace.extend([-best.fun, fx] if fx >= -best.fun else [-best.fun])

    # numerical information matrix in the original (w_head, c) coordinates
    def ell_orig(params):
        w_head = params[: k - 1]
        w_full = np.concatenate([w_head, [1.0 - float(np.sum(w_head))]])
        return ell(w_full, params[k - 1])

    params = np.concatenate([w[: k - 1], [c]])
    flags: set[str] = set()
    se = _numeric_se(ell_orig, params,
                     names=[f"w_{i + 1}" for i in range(k - 1)] + ["c"],
                     k_weights=k)
    if se is None:
        flags.add(FLAG_SINGULAR_HESSIAN)
    if not best.success:
        flags.add(FLAG_NO_CONVERGENCE)

    spec = SlpSpec(w=tuple(float(x_) for x_ in w), c=c)
    return FitResult(
        spec=spec,
        std_errors=se,
        mean_log_score_train=fx / design.J,
        iterations=total_evals,
        converged=bool(best.success),
        boundary_active=tuple(bool(x_ < 1e-8) for x_ in w),
        trace=tuple(trace),
        flags=tuple(sorted(flags)),
    )


def _numeric_se(fun, x, names, k_weights):
    """SEs from a central finite-difference Hessian of a log likelihood."""
    n = x.size
    h = 1e-5 * np.maximum(np.abs(x), 0.1)
    f0 = fun(x)
    H = np.empty((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h[i]
        H[i, i] = (fun(x + e) - 2.0 * f0 + fun(x - e)) / h[i] ** 2
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros(n)
            e[i], e[j] = h[i], h[j]
            fpp = fun(x + e)
            e[j] = -h[j]
            fpm = fun(x + e)
            e[i], e[j] = -h[i], h[j]
            fmp = fun(x + e)
            e[j] = -h[j]
            fmm = fun(x + e)
            H[i, j] = H[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h[i] * h[j])
    if not np.all(np.isfinite(H)):
        return None
    return _simplex_se_from_hessian(-H, names, k_weights)


# ---------------------------------------------------------------------------
# generalized linear pool (open-interval links) by derivative-free search


def fit_glp(data, link: LinkFunction) -> FitResult:
    """Fit generalized-pool weights by maximizing the mean log score.

    Simplex-constrained links use additive log-ratio coordinates; links that
    only need a positive weight sum are fitted in log-weight coordinates.
    """
    if link is LinkFunction.IDENTITY:
        res = fit_tlp(data)
        spec = GlpSpec(w=res.spec.w, link=link)
        return FitResult(
            spec=spec,
            std_errors=res.std_errors,
            mean_log_score_train=res.mean_log_score_train,
            iterations=res.iterations,
            converged=res.converged,
            boundary_active=res.boundary_active,
            trace=res.trace,
            flags=res.flags,
        )
    design = _build_design(data)
    k = design.k
    if design.J < k + 1:
        raise TooFewSamples(f"need at least {k + 1} cases to fit k={k} components")
    F, f = design.F, design.f

    def ell(w):
        s = np.tensordot(w, link.apply(F.T), axes=1)
        g = np.clip(link.invert(s), CDF_CLAMP, 1.0 - CDF_CLAMP)
        num = np.tensordot(w, link.deriv(F.T) * f.T, axes=1)
        dens = np.maximum(num / link.deriv(g), DENSITY_FLOOR)
        return float(np.log(dens).sum())

    simplex = link.requires_simplex

    def unpack(x):
        return _alr_inverse(x) if simplex else np.exp(x)

    x0 = np.zeros(k - 1 if simplex else k)
    res = minimize(lambda x: -ell(unpack(x)), x0, method="Nelder-Mead",
                   options={"fatol": 1e-9, "xatol": 1e-6,
                            "maxiter": 20000, "maxfev": 20000})
    x, fx = _fd_polish(lambda t: ell(unpack(t)), res.x)
    w = unpack(x)
    flags: set[str] = set()
    if not res.success:
        flags.add(FLAG_NO_CONVERGENCE)
    spec = GlpSpec(w=tuple(float(v) for v in w), link=link)
    return FitResult(
        spec=spec,
        std_errors=None,
        mean_log_score_train=fx / design.J,
        iterations=res.nfev,
        converged=bool(res.success),
        boundary_active=tuple(bool(v < 1e-8) for v in w),
        trace=(float(-res.fun), float(fx)) if fx >= -res.fun else (float(-res.fun),),
        flags=tuple(sorted(flags)),
    )


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
    ys = np.array([case.y for case in data])
    scores = np.array([log_score(d, y) for d, y in zip(dists, ys)])
    s = pit_sample(dists, ys, rng_seed)
    variances = np.array([d.variance() for d in dists])
    counts, _ = np.histogram(s.z, bins=bins, range=(0.0, 1.0))
    return EvalReport(
        mean_log_score=float(scores.mean()),
        pit_variance=float(np.var(s.z, ddof=1)),
        rmv=float(np.sqrt(variances.mean())),
        histogram=counts,
    )
