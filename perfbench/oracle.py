"""Independent recomputation of the library's outputs with numpy and scipy.

Pools are rebuilt here from their definitions: Gaussian mixtures in closed
form, the beta transform through ``scipy.special.betainc``, the generalized
pool through its link with the documented clamp of component CDF values to
[1e-12, 1 - 1e-12], and the BLP variance by Simpson's rule on a per-case
grid.  Work is done in chunks of cases so that the checks do not raise the
process's peak memory above what the library itself uses.
"""

from __future__ import annotations

import re

import numpy as np
from scipy import special, stats

CHUNK = 250
GRID_CHUNK = 20  # cases per block of the (cases, grid points, components) arrays
GLP_CLAMP = 1e-12
GRID_POINTS = 2001  # odd, for Simpson's rule
GRID_HALFWIDTH_SD = 12.0


# ---------------------------------------------------------------------------
# inputs: forecast cases flattened to arrays


class Gaussians:
    """Cases whose pooled forecast is a mixture of Gaussians before any transform.

    ``w`` (J, m) are the mixture weights, ``mu`` and ``sd`` (J, m) the
    component parameters and ``y`` (J,) the outcomes.
    """

    def __init__(self, y, w, mu, sd):
        self.y = np.asarray(y, dtype=float)
        self.w = np.asarray(w, dtype=float)
        self.mu = np.asarray(mu, dtype=float)
        self.sd = np.asarray(sd, dtype=float)

    def __len__(self):
        return self.y.size

    def rows(self, sl):
        return Gaussians(self.y[sl], self.w[sl], self.mu[sl], self.sd[sl])


class Atoms:
    """Cases whose pooled forecast is purely atomic: ``atoms`` and ``masses`` (J, a)."""

    def __init__(self, y, atoms, masses):
        self.y = np.asarray(y, dtype=float)
        self.atoms = np.asarray(atoms, dtype=float)
        self.masses = np.asarray(masses, dtype=float)


def _flatten(dist, weight):
    """(weight, kind, a, b) leaves of a forecast built from public attributes."""
    kind = type(dist).__name__
    if kind == "Gaussian":
        return [(weight, "gauss", dist.mu, dist.sigma)]
    if kind == "Mixture":
        out = []
        for w, c in zip(dist.weights, dist.components):
            out += _flatten(c, weight * w)
        return out
    if hasattr(dist, "atoms") and hasattr(dist, "masses"):
        return [(weight * m, "atom", a, 0.0) for a, m in zip(dist.atoms, dist.masses)]
    raise TypeError(f"no closed form for {kind}")


def linear_pool_inputs(cases, w):
    """Flatten a linear pool with weights ``w`` over each case's components."""
    leaves = [
        [leaf for wi, c in zip(w, case.components) for leaf in _flatten(c, wi)]
        for case in cases
    ]
    y = np.array([case.y for case in cases])
    kinds = {leaf[1] for row in leaves for leaf in row}
    if kinds == {"gauss"}:
        arr = np.array([[leaf[0], leaf[2], leaf[3]] for row in leaves for leaf in row])
        arr = arr.reshape(len(cases), -1, 3)
        return Gaussians(y, arr[:, :, 0], arr[:, :, 1], arr[:, :, 2])
    if kinds == {"atom"}:
        atoms = np.unique([leaf[2] for row in leaves for leaf in row])
        masses = np.zeros((len(cases), atoms.size))
        for j, row in enumerate(leaves):
            for m, _, a, _ in row:
                masses[j, np.searchsorted(atoms, a)] += m
        return Atoms(y, np.broadcast_to(atoms, masses.shape), masses)
    raise TypeError(f"mixed forecast kinds {sorted(kinds)}")


def components(cases):
    """(y, mu, sd) arrays of cases whose components are all Gaussian."""
    y = np.array([case.y for case in cases])
    mu = np.array([[c.mu for c in case.components] for case in cases])
    sd = np.array([[c.sigma for c in case.components] for case in cases])
    return y, mu, sd


def read_dataset(path):
    """(y, mu, sd) from a y,mu_1,sd_1,... CSV file, parsed without the library."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    k = (len(header) - 1) // 2
    expected = ["y"] + [f"{p}_{i}" for i in range(1, k + 1) for p in ("mu", "sd")]
    if header != expected:
        raise ValueError(f"{path}: unexpected header {header}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, comments="#", ndmin=2)
    return data[:, 0], data[:, 1::2], data[:, 2::2]


_FLOAT = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)")


def read_keyvals(path) -> dict[str, str]:
    """``key value`` lines of a params or report file."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.strip().split(None, 1)
            if len(parts) == 2 and not parts[0].startswith("#"):
                out[parts[0]] = parts[1]
    return out


def number(text: str) -> float:
    """The first float in ``text`` (tolerates wrappers such as ``np.float64(...)``)."""
    match = _FLOAT.search(text)
    if match is None:
        raise ValueError(f"no number in {text!r}")
    return float(match.group(0))


# ---------------------------------------------------------------------------
# pools


class Pool:
    """A pool family with its parameters, independent of the library's spec types."""

    def __init__(self, method: str, w, c=1.0, alpha=1.0, beta=1.0):
        self.method = method
        self.w = np.asarray(w, dtype=float)
        self.c = float(c)
        self.alpha = float(alpha)
        self.beta = float(beta)

    @classmethod
    def from_spec(cls, method: str, spec):
        return cls(method, spec.w, getattr(spec, "c", 1.0),
                   getattr(spec, "alpha", 1.0), getattr(spec, "beta", 1.0))

    @classmethod
    def from_params(cls, kv: dict[str, str]):
        k = int(kv["k"])
        w = [float(kv[f"w_{i}"]) for i in range(1, k + 1)]
        return cls(kv["method"], w, float(kv.get("c", 1.0)),
                   float(kv.get("alpha", 1.0)), float(kv.get("beta", 1.0)))

    def gaussians(self, y, mu, sd) -> Gaussians:
        """The linear part of the pool as a Gaussian mixture over the components."""
        w = np.broadcast_to(self.w, mu.shape)
        scale = self.c if self.method == "slp" else 1.0  # Gaussian median is mu
        return Gaussians(y, w, mu, scale * sd)


def _mixture_at(g: Gaussians, t):
    """Mixture CDF and density at points ``t`` of shape (J,) or (J, m)."""
    extra = (None,) * (np.ndim(t) - 1)
    idx = (slice(None),) + extra + (slice(None),)
    z = (np.asarray(t)[..., None] - g.mu[idx]) / g.sd[idx]
    F = special.ndtr(z)
    f = np.exp(-0.5 * z * z) / (g.sd[idx] * np.sqrt(2.0 * np.pi))
    return F, f, g.w[idx]


_LINKS = {
    "log": (np.log, lambda u: 1.0 / u, np.exp),
    "reciprocal": (lambda u: 1.0 / u, lambda u: -1.0 / (u * u), lambda s: 1.0 / s),
    "probit": (special.ndtri,
               lambda u: np.sqrt(2.0 * np.pi) * np.exp(0.5 * special.ndtri(u) ** 2),
               special.ndtr),
}


def pooled(pool: Pool, g: Gaussians, t):
    """Pooled (CDF, log density) at points ``t`` for the cases in ``g``."""
    F, f, w = _mixture_at(g, t)
    if pool.method in ("tlp", "slp"):
        return (F * w).sum(-1), np.log((f * w).sum(-1))
    if pool.method == "blp":
        G = (F * w).sum(-1)
        Gc = np.clip(G, 1e-300, 1.0 - 1e-16)
        logb = stats.beta.logpdf(Gc, pool.alpha, pool.beta)
        return special.betainc(pool.alpha, pool.beta, G), logb + np.log((f * w).sum(-1))
    link = pool.method.removeprefix("glp-")
    h, dh, hinv = _LINKS[link]
    Fc = np.clip(F, GLP_CLAMP, 1.0 - GLP_CLAMP)
    G = np.clip(hinv((h(Fc) * w).sum(-1)), 0.0, 1.0)
    G = np.where(np.all(F <= GLP_CLAMP, -1), 0.0, np.where(np.all(F >= 1.0 - GLP_CLAMP, -1), 1.0, G))
    Gc = np.clip(G, GLP_CLAMP, 1.0 - GLP_CLAMP)
    dens = (dh(Fc) * f * w).sum(-1) / dh(Gc)
    with np.errstate(divide="ignore"):
        return G, np.log(np.maximum(dens, 0.0))


def _chunks(n, size=CHUNK):
    for start in range(0, n, size):
        yield slice(start, min(start + size, n))


def mean_log_score(pool: Pool, g: Gaussians) -> float:
    total = 0.0
    for sl in _chunks(len(g)):
        part = g.rows(sl)
        total += float(pooled(pool, part, part.y)[1].sum())
    return total / len(g)


def _with_params(pool: Pool, theta) -> Pool:
    """``pool`` at free parameters (w_1..w_{k-1}, then log c or log alpha, log beta)."""
    k = pool.w.size
    w = np.append(theta[: k - 1], 1.0 - np.sum(theta[: k - 1]))
    rest = np.exp(theta[k - 1:])
    if pool.method == "slp":
        return Pool("slp", w, c=rest[0])
    if pool.method == "blp":
        return Pool("blp", w, alpha=rest[0], beta=rest[1])
    return Pool(pool.method, w)


def score_gradient(pool: Pool, y, mu, sd, h=1e-5):
    """Central-difference gradient of the mean log score in the free parameters.

    ``y``, ``mu`` and ``sd`` are the outcomes and component parameters.
    None if a weight lies within ``10 h`` of the simplex boundary, where the
    maximum need not be stationary.
    """
    if pool.w.size < 2 or np.min(pool.w) < 10.0 * h:
        return None
    extra = {"slp": [pool.c], "blp": [pool.alpha, pool.beta]}.get(pool.method, [])
    theta = np.concatenate([pool.w[:-1], np.log(extra)])
    grad = np.empty(theta.size)
    for i in range(theta.size):
        step = np.zeros(theta.size)
        step[i] = h
        up, down = (_with_params(pool, theta + sign * step) for sign in (1.0, -1.0))
        grad[i] = (mean_log_score(up, up.gaussians(y, mu, sd))
                   - mean_log_score(down, down.gaussians(y, mu, sd))) / (2.0 * h)
    return grad


def pit(pool: Pool, g: Gaussians) -> np.ndarray:
    """PIT values of a continuous pool: the pooled CDF at the outcome."""
    return np.concatenate([pooled(pool, g.rows(sl), g.y[sl])[0] for sl in _chunks(len(g))])


def atom_pit(a: Atoms, v) -> np.ndarray:
    """Randomized PIT F(y-) + v (F(y) - F(y-)) with the auxiliary uniforms ``v``."""
    y = a.y[:, None]
    left = (a.masses * (a.atoms < y)).sum(-1)
    right = (a.masses * (a.atoms <= y)).sum(-1)
    return left + np.asarray(v) * (right - left)


def rmv(pool: Pool, g: Gaussians) -> float:
    """Root mean variance of the pooled forecasts."""
    if pool.method in ("tlp", "slp"):
        m = (g.w * g.mu).sum(-1)
        var = (g.w * (g.sd ** 2 + g.mu ** 2)).sum(-1) - m * m
        return float(np.sqrt(var.mean()))
    if pool.method != "blp":
        raise ValueError(f"no RMV oracle for {pool.method}")
    weights = np.ones(GRID_POINTS)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    var_sum = 0.0
    for sl in _chunks(len(g), GRID_CHUNK):
        part = g.rows(sl)
        lo = (part.mu - GRID_HALFWIDTH_SD * part.sd).min(-1)
        hi = (part.mu + GRID_HALFWIDTH_SD * part.sd).max(-1)
        t = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, GRID_POINTS)
        step = ((hi - lo) / (GRID_POINTS - 1))[:, None] / 3.0
        dens = np.exp(pooled(pool, part, t)[1])
        mass = (step * weights * dens).sum(-1)
        mean = (step * weights * dens * t).sum(-1) / mass
        var_sum += float(((step * weights * dens * (t - mean[:, None]) ** 2).sum(-1) / mass).sum())
    return float(np.sqrt(var_sum / len(g)))


def mean_cdf_gap(cdf_rows, y, grid) -> float:
    """Sup over ``grid`` of |average forecast CDF - empirical CDF of y|."""
    acc = np.zeros(grid.size)
    for sl in _chunks(y.size):
        acc += cdf_rows(sl).sum(0)
    ecdf = np.searchsorted(np.sort(y), grid, side="right") / y.size
    return float(np.max(np.abs(acc / y.size - ecdf)))


def marginal_gap(pool: Pool, g: Gaussians) -> float:
    grid = np.linspace(g.y.min(), g.y.max(), 201)
    rows = lambda sl: pooled(pool, g.rows(sl), np.broadcast_to(grid, (sl.stop - sl.start, grid.size)))[0]
    return mean_cdf_gap(rows, g.y, grid)


def atom_marginal_gap(a: Atoms) -> float:
    grid = np.linspace(a.y.min(), a.y.max(), 201)
    rows = lambda sl: (a.masses[sl, None, :] * (a.atoms[sl, None, :] <= grid[None, :, None])).sum(-1)
    return mean_cdf_gap(rows, a.y, grid)


def ks_statistic(z) -> float:
    return float(stats.kstest(np.asarray(z), "uniform").statistic)


def histogram(z, bins=10) -> list[int]:
    return np.histogram(np.asarray(z), bins=bins, range=(0.0, 1.0))[0].tolist()


def close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return bool(np.isfinite(a) and np.isfinite(b) and abs(a - b) <= atol + rtol * abs(b))
