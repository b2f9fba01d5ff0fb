"""Predictive distributions as right-continuous CDFs: continuous, discrete, and mixed.

Every distribution is immutable after construction and exposes the same
evaluation surface (``cdf``, ``cdf_left``, ``density``, ``quantile``,
``mean``, ``variance``, ``sample``), so pooling and diagnostic code can stay
agnostic of the concrete kind.  All evaluators accept scalars or numpy
arrays and return a matching shape.

``stack`` turns a list of per-case forecasts into a few objects of the same
classes whose float parameters are (n, 1) columns, one row per case.  Their
``cdf``, ``cdf_left`` and ``density`` take an (n, m) or (1, m) array of
points and return (n, m): row i is case i's forecast at row i of the points;
``quantile`` takes levels in the same shapes; ``mean``, ``variance`` and
``median`` return the (n, 1) column of the rows' values; ``_row(i)`` builds
row i as a per-case object again and ``_take(rows)`` the stacked object of a
slice of the rows.  ``Gaussian._stacked`` and its siblings build a stacked
object straight from columns that are already checked.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np
from scipy.special import betainc, betaincinv, betaln, ndtr, ndtri

from .errors import CdfPoolError, DensityUnavailable, MedianUndefined, MomentUnavailable

_QUANTILE_ATOL = 1e-10  # absolute tolerance in y for bisection inverses

# Moments without a closed form integrate the CDF on a fixed Simpson grid.
_TAIL_MASS = 1e-11  # probability left outside the integration bracket on each side
_LIMIT_GAP = 1e-6  # shortfall of the CDF's far limits from 0 and 1 put down to rounding
_BRACKET_LADDER = 2.0 ** np.arange(64)  # outward probes at -2^i and +2^i
_BRACKET_POINTS = 65  # coarse grid that narrows the bracket onto the bulk
_BRACKET_ROUNDS = 80  # each round at least halves the bracket
_GRID_POINTS = 401  # odd, for Simpson's rule
_GRID_DOUBLINGS = 3  # refinements tried before the moments are declared unavailable
_GRID_RTOL = 1e-8  # agreement demanded between the full- and half-grid Simpson sums


def _as_array(y) -> np.ndarray:
    return np.asarray(y, dtype=float)


def _match(y_in, out: np.ndarray):
    """Return a float for scalar input, an ndarray otherwise."""
    if isinstance(y_in, numbers.Number) or np.ndim(y_in) == 0:
        return float(out)
    return out


def _unit(u) -> np.ndarray:
    """Probabilities clipped to [0, 1]: a mixture's CDF can pass 1 by rounding,
    and betainc returns nan there."""
    return np.clip(_as_array(u), 0.0, 1.0)


def _beta_pdf(u, alpha: float, beta: float) -> np.ndarray:
    u = np.clip(_as_array(u), 1e-300, 1.0 - 1e-16)
    with np.errstate(over="ignore"):
        return np.exp(
            (alpha - 1.0) * np.log(u) + (beta - 1.0) * np.log1p(-u) - betaln(alpha, beta)
        )


class PredictiveDist:
    """Base class: a probability measure on the real line via its CDF."""

    # -- evaluation surface -------------------------------------------------

    def cdf(self, y):
        raise NotImplementedError

    def cdf_left(self, y):
        """Left limit of the CDF; equals ``cdf`` wherever there is no atom."""
        return self.cdf(y)

    def point_mass(self, y):
        return _match(y, _as_array(self.cdf(y)) - _as_array(self.cdf_left(y)))

    @property
    def has_density(self) -> bool:
        return False

    def density(self, y):
        raise DensityUnavailable(f"{type(self).__name__} has no Lebesgue density")

    def support(self) -> tuple[float, float]:
        return (-np.inf, np.inf)

    def atom_locations(self) -> np.ndarray:
        """Locations of jump discontinuities (empty for continuous kinds)."""
        return np.empty(0)

    def quantile(self, p):
        """Generalized inverse inf{y : cdf(y) >= p} for p in (0, 1)."""
        p_arr = _as_array(p)
        if np.any((p_arr <= 0.0) | (p_arr >= 1.0)):
            raise ValueError("quantile level must lie strictly inside (0, 1)")
        q = self._quantile_bisect(np.atleast_1d(p_arr))
        return _match(p, q if np.ndim(p_arr) else q.reshape(()))

    def median(self):
        """The unique median, or MedianUndefined if the CDF is flat at 1/2.

        A stacked object with n > 1 rows returns the (n, 1) column of its
        rows' medians.
        """
        levels = np.array([[0.5 - 1e-9, 0.5 + 1e-9, 0.25, 0.75]])
        lo, hi, q1, q3 = _as_array(self.quantile(levels)).T  # one row per stacked row
        scale = np.maximum(q3 - q1, 1e-12)
        if np.any(hi - lo > 1e-3 * scale + 10.0 * _QUANTILE_ATOL):
            raise MedianUndefined("CDF is flat at probability 1/2; no unique median")
        mid = 0.5 * (lo + hi)
        return mid[:, None] if mid.size > 1 else float(mid[0])

    def mean(self):
        """The mean; a stacked object returns the (n, 1) column of its rows' means."""
        return self._each_row("mean") if self._rows() else self._quadrature_moments()[0]

    def variance(self):
        """The variance; a stacked object returns the (n, 1) column of its rows' variances."""
        return self._each_row("variance") if self._rows() else self._quadrature_moments()[1]

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        u = (rng.integers(0, 1 << 53, size=n) + 0.5) / float(1 << 53)
        return np.atleast_1d(_as_array(self.quantile(u)))

    # -- stacking (see ``stack``) -------------------------------------------

    def _stack_key(self) -> tuple:
        """Forecasts with equal keys stack into one object.

        The key's first entry is the class whose ``_stack`` builds that
        object; the rest fixes the shape (component kinds and counts, atom
        count, link).  A kind without a stacked form keeps this default and
        is evaluated row by row.  A subclass that changes how a concrete
        kind evaluates must override it.
        """
        return (_RowStack,)

    @classmethod
    def _stack(cls, rows) -> PredictiveDist:
        return _RowStack(tuple(rows))

    def _row(self, i: int) -> PredictiveDist:
        """Row i of a stacked object, as the per-case object that it stacks."""
        raise TypeError(f"{type(self).__name__} is not a stacked object")

    def _rows(self) -> int:
        """The number of stacked rows; 0 for a per-case object."""
        return _row_count(tuple(vars(self).values()))

    def _take(self, rows: slice) -> PredictiveDist:
        """The stacked object of the given rows: each (n, .) array and sub-forecast is sliced."""
        return _build(type(self), **{name: _take_rows(v, rows) for name, v in vars(self).items()})

    def _each_row(self, method: str) -> np.ndarray:
        """The (n, 1) column of ``method()`` on each row, built by ``_row``."""
        return np.array([[getattr(self._row(i), method)()] for i in range(self._rows())])

    # -- generic numerics ---------------------------------------------------

    def _quantile_bisect(self, p: np.ndarray) -> np.ndarray:
        """Quantiles by bisection; a stacked object spreads (1, m) levels over its rows."""
        lo_s, hi_s = self.support()  # floats, or (n, 1) columns of the rows' bounds
        lo = np.where(np.isfinite(lo_s), lo_s - 1.0, -1.0)
        lo = np.broadcast_to(lo, np.broadcast_shapes(lo.shape, p.shape))
        cdf_lo = _as_array(self.cdf(lo))
        shape = np.broadcast_shapes(cdf_lo.shape, p.shape)
        p = np.broadcast_to(p, shape)
        lo = np.broadcast_to(lo, shape).copy()
        hi = np.broadcast_to(np.where(np.isfinite(hi_s), hi_s, 1.0), shape).copy()
        # expand until cdf(lo) < p <= cdf(hi)
        for _ in range(200):
            bad = cdf_lo >= p
            if not bad.any():
                break
            lo[bad] = 2.0 * lo[bad] - 1.0
            cdf_lo = _as_array(self.cdf(lo))
        for _ in range(200):
            bad = _as_array(self.cdf(hi)) < p
            if not bad.any():
                break
            hi[bad] = 2.0 * hi[bad] + 1.0
        # each level stops on its own, so it gets the value it gets alone
        while True:
            mid = 0.5 * (lo + hi)
            done = (hi - lo <= _QUANTILE_ATOL) | (mid <= lo) | (mid >= hi)
            if np.all(done):
                break
            ge = _as_array(self.cdf(mid)) >= p
            hi = np.where(ge & ~done, mid, hi)
            lo = np.where(~ge & ~done, mid, lo)
        return hi

    def _tail_bracket(self) -> tuple[float, float, float, float]:
        """The bulk [lo, hi] and the CDF's limits g0, g1 at -2^63 and +2^63.

        Rounding can leave a CDF short of 0 or 1 in the far tails (a mixture
        whose weights sum to 1 - 1e-16 under a beta transform), so the tails
        are measured from those limits: cdf(lo) <= g0 + _TAIL_MASS and
        cdf(hi) >= g1 - _TAIL_MASS.  The bracket first doubles outward
        from [-1, 1] in one vectorised call, then shrinks to the coarse-grid
        cells that still hold the two tail points, until the bulk spans at
        least half the bracket.
        """
        n = _BRACKET_LADDER.size
        c = _as_array(self.cdf(np.concatenate([-_BRACKET_LADDER, _BRACKET_LADDER])))
        g0, g1 = float(c[n - 1]), float(c[-1])
        if not g1 - g0 >= 1.0 - _LIMIT_GAP:
            raise MomentUnavailable(
                f"{type(self).__name__} CDF rises only from {g0:g} to {g1:g} "
                f"over +-{_BRACKET_LADDER[-1]:g}"
            )
        lo = -_BRACKET_LADDER[np.argmax(c[:n] <= g0 + _TAIL_MASS)]
        hi = _BRACKET_LADDER[np.argmax(c[n:] >= g1 - _TAIL_MASS)]
        for _ in range(_BRACKET_ROUNDS):
            t = np.linspace(lo, hi, _BRACKET_POINTS)
            c = _as_array(self.cdf(t))
            # c[0] <= g0 + _TAIL_MASS and c[-1] >= g1 - _TAIL_MASS, so i < j
            i = int(np.argmax(c > g0 + _TAIL_MASS)) - 1
            j = int(np.argmax(c >= g1 - _TAIL_MASS))
            lo, hi = t[i], t[j]
            if 2 * (j - i) > _BRACKET_POINTS - 1:
                break
        return float(lo), float(hi), g0, g1

    def _kinks(self) -> np.ndarray:
        """Points where the CDF may lose smoothness; Simpson panels end there."""
        return np.empty(0)

    def _quadrature_moments(self) -> tuple[float, float]:
        """Mean and variance from the CDF G alone, integrated by parts.

        On [lo, hi] from ``_tail_bracket``, E[Y] = lo + int (1 - G) and
        E[(Y - lo)^2] = 2 int (t - lo)(1 - G), with G rescaled to run from
        0 to 1 between the CDF's far limits, by Simpson's rule on panels
        split at ``_kinks``.  The same CDF values on every other node give
        a second estimate; the grid doubles until the two agree to
        _GRID_RTOL, and MomentUnavailable is raised if they never do.
        """
        if not self.has_density:
            raise MomentUnavailable(
                f"{type(self).__name__} has atoms; quadrature moments undefined"
            )
        lo, hi, g0, g1 = self._tail_bracket()
        kinks = self._kinks()
        edges = np.unique(np.concatenate([[lo, hi], kinks[(kinks > lo) & (kinks < hi)]]))
        n = _GRID_POINTS
        for _ in range(_GRID_DOUBLINGS + 1):
            t, w_full, w_half = _simpson_rule(edges, n)
            tail = (g1 - _as_array(self.cdf(t))) / (g1 - g0)
            rows = np.stack([tail, 2.0 * (t - lo) * tail])
            full, half = rows @ w_full, rows @ w_half
            m, v = lo + full[0], full[1] - full[0] ** 2
            m_half, v_half = lo + half[0], half[1] - half[0] ** 2
            if v > 0.0 and (abs(m - m_half) <= _GRID_RTOL * np.sqrt(v)
                            and abs(v - v_half) <= _GRID_RTOL * v):
                return float(m), float(v)
            n = 2 * n - 1
        raise MomentUnavailable(
            f"{type(self).__name__} moments did not settle on a "
            f"{(n + 1) // 2}-point Simpson grid over [{lo:g}, {hi:g}]"
        )


def _simpson_weights(n: int) -> np.ndarray:
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w


def _simpson_rule(edges: np.ndarray, n: int):
    """About n nodes on [edges[0], edges[-1]] with full- and half-grid Simpson weights.

    Each panel between consecutive edges gets 4q + 1 equally spaced nodes,
    with q in proportion to its length, so that the nodes and every other
    node are both odd Simpson grids on every panel.
    """
    spans = np.diff(edges)
    quarters = np.maximum(1, np.round((n - 1) / 4 * spans / spans.sum())).astype(int)
    nodes, full, half = [], [], []
    for a, span, q in zip(edges, spans, quarters):
        h = span / (4 * q)
        w_half = np.zeros(4 * q + 1)
        w_half[::2] = 2.0 * _simpson_weights(2 * q + 1)
        nodes.append(a + h * np.arange(4 * q + 1))
        full.append(_simpson_weights(4 * q + 1) * (h / 3.0))
        half.append(w_half * (h / 3.0))
    return np.concatenate(nodes), np.concatenate(full), np.concatenate(half)


def stack(dists) -> list[tuple[np.ndarray, PredictiveDist]]:
    """Group forecasts of the same shape; one stacked object per group.

    Returns (indices, stacked) pairs in order of first appearance: row r of
    ``stacked`` is the forecast ``dists[indices[r]]``.  The rows are not
    validated again, since each was validated when it was built.
    """
    groups: dict[tuple, list[int]] = {}
    for i, d in enumerate(dists):
        groups.setdefault(d._stack_key(), []).append(i)
    return [(np.array(idx), _stack_rows([dists[i] for i in idx])) for idx in groups.values()]


def _stack_rows(rows) -> PredictiveDist:
    """One stacked object for forecasts that share a stack key."""
    return rows[0]._stack_key()[0]._stack(rows)


def _stack_column(rows) -> PredictiveDist:
    """One stacked object for any forecasts; rows of mixed shapes are evaluated one by one."""
    if len({d._stack_key() for d in rows}) == 1:
        return _stack_rows(rows)
    return _RowStack(tuple(rows))


def _stack_components(rows) -> tuple[PredictiveDist, ...]:
    """The i-th components of all rows, stacked, for each i."""
    return tuple(_stack_rows(col) for col in zip(*(r.components for r in rows)))


def _row_count(x) -> int:
    """Rows of the stacked parameters in x (a distribution, tuple or array); 0 if none.

    Parameters are the instance attributes; only stacked ones are 2-D arrays.
    """
    if isinstance(x, PredictiveDist):
        return x._rows()
    if isinstance(x, tuple):
        return max(map(_row_count, x), default=0)
    return np.shape(x)[0] if np.ndim(x) == 2 else 0


def _take_rows(x, rows: slice):
    """x with its stacked parameters cut to the given rows."""
    if isinstance(x, PredictiveDist):
        return x._take(rows)
    if isinstance(x, tuple):
        return tuple(_take_rows(v, rows) for v in x)
    return x[rows] if np.ndim(x) == 2 else x


def _finite_rows(x, n: int) -> np.ndarray:
    """Which of n rows have only finite float parameters in x (a distribution, tuple or value).

    Parameters are the instance attributes, nested distributions included;
    a 2-D array holds one row per case, any other number is shared by every
    row.  The rows of a ``_RowStack`` are checked one by one.
    """
    if isinstance(x, _RowStack):
        return np.array([_finite_rows(d, 1)[0] for d in x.rows], dtype=bool)
    if isinstance(x, PredictiveDist):
        x = tuple(vars(x).values())
    if isinstance(x, tuple):
        return reduce(np.logical_and, (_finite_rows(v, n) for v in x), np.ones(n, dtype=bool))
    if np.ndim(x) == 2:
        return np.broadcast_to(np.all(np.isfinite(x), axis=1), (n,))
    if isinstance(x, (numbers.Real, np.ndarray)):
        return np.full(n, bool(np.all(np.isfinite(x))))
    return np.ones(n, dtype=bool)


def _column(values) -> np.ndarray:
    return np.array(values, dtype=float)[:, None]


def _at(x, i: int) -> float:
    """Row i of a stacked parameter: an (n, 1) column, or a float shared by every row."""
    return float(x[i, 0]) if np.ndim(x) else float(x)


def _build(cls, **fields):
    """An instance with the given fields, bypassing the per-row checks."""
    out = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(out, name, value)
    return out


@dataclass(frozen=True)
class _RowStack(PredictiveDist):
    """Forecasts of kinds without a stacked form, evaluated one row at a time."""

    rows: tuple[PredictiveDist, ...]

    def _each(self, method: str, y) -> np.ndarray:
        y = _as_array(y)
        y = np.broadcast_to(y, (len(self.rows), y.shape[-1]))
        return np.stack([_as_array(getattr(d, method)(yi)) for d, yi in zip(self.rows, y)])

    def cdf(self, y):
        return self._each("cdf", y)

    def cdf_left(self, y):
        return self._each("cdf_left", y)

    @property
    def has_density(self) -> bool:
        return all(d.has_density for d in self.rows)

    def density(self, y):
        return self._each("density", y)

    def quantile(self, p):
        return self._each("quantile", p)

    def median(self):
        return self._each_row("median")

    def _rows(self):
        return len(self.rows)

    def _take(self, rows):
        return _RowStack(self.rows[rows])

    def _row(self, i):
        return self.rows[i]


@dataclass(frozen=True)
class Gaussian(PredictiveDist):
    """Normal distribution with mean ``mu`` and standard deviation ``sigma``."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError("sigma must be strictly positive")

    def cdf(self, y):
        return _match(y, ndtr((_as_array(y) - self.mu) / self.sigma))

    @property
    def has_density(self) -> bool:
        return True

    def density(self, y):
        z = (_as_array(y) - self.mu) / self.sigma
        return _match(y, np.exp(-0.5 * z * z) / (self.sigma * np.sqrt(2.0 * np.pi)))

    def quantile(self, p):
        p_arr = _as_array(p)
        if np.any((p_arr <= 0.0) | (p_arr >= 1.0)):
            raise ValueError("quantile level must lie strictly inside (0, 1)")
        return _match(p, self.mu + self.sigma * ndtri(p_arr))

    def median(self):
        return self.mu

    def mean(self):
        return self.mu

    def variance(self):
        return self.sigma * self.sigma

    def sample(self, rng, n):
        return rng.normal(self.mu, self.sigma, size=n)

    def _stack_key(self):
        return (Gaussian,)

    @classmethod
    def _stack(cls, rows):
        return cls._stacked(_column([r.mu for r in rows]), _column([r.sigma for r in rows]))

    @classmethod
    def _stacked(cls, mu, sigma) -> Gaussian:
        """Stacked forecasts N(mu_j, sigma_j^2) from (n, 1) columns, unchecked."""
        return _build(cls, mu=mu, sigma=sigma)

    def _row(self, i):
        return Gaussian(_at(self.mu, i), _at(self.sigma, i))


@dataclass(frozen=True)
class FiniteDiscrete(PredictiveDist):
    """Purely atomic distribution on finitely many ascending support points."""

    atoms: tuple[float, ...]
    masses: tuple[float, ...]

    def __post_init__(self):
        atoms = tuple(float(a) for a in self.atoms)
        masses = tuple(float(m) for m in self.masses)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "masses", masses)
        if len(atoms) != len(masses) or not atoms:
            raise ValueError("atoms and masses must be nonempty and equally long")
        if any(a2 <= a1 for a1, a2 in zip(atoms, atoms[1:])):
            raise ValueError("atoms must be strictly ascending")
        if any(m < 0.0 for m in masses):
            raise ValueError("masses must be nonnegative")
        if abs(sum(masses) - 1.0) > 1e-12:
            raise ValueError("masses must sum to 1 within 1e-12")

    @cached_property
    def _cum(self) -> np.ndarray:
        masses = np.asarray(self.masses)
        c = np.concatenate([np.zeros(masses.shape[:-1] + (1,)), np.cumsum(masses, axis=-1)],
                           axis=-1)
        c[..., -1] = 1.0
        return c

    @cached_property
    def _atoms_arr(self) -> np.ndarray:
        return np.asarray(self.atoms)

    def _cum_at(self, y, side: str) -> np.ndarray:
        """Mass of the atoms <= y (side "right") or < y (side "left")."""
        y = _as_array(y)
        if self._atoms_arr.ndim == 1:
            return self._cum[np.searchsorted(self._atoms_arr, y, side=side)]
        # stacked rows: count each row's atoms below its points
        below = np.less_equal if side == "right" else np.less
        count = below(self._atoms_arr[:, None, :], y[..., None]).sum(axis=-1)
        return np.take_along_axis(self._cum, count, axis=1)

    def cdf(self, y):
        return _match(y, self._cum_at(y, "right"))

    def cdf_left(self, y):
        return _match(y, self._cum_at(y, "left"))

    def support(self):
        if self._atoms_arr.ndim == 1:
            return (self.atoms[0], self.atoms[-1])
        return (self._atoms_arr[:, :1], self._atoms_arr[:, -1:])

    def atom_locations(self):
        return self._atoms_arr.copy()

    def _first_at_or_above(self, p: np.ndarray) -> np.ndarray:
        """Index of the first atom whose cumulative mass reaches p (row by row when stacked)."""
        cum = self._cum[..., 1:]
        if cum.ndim == 1:
            return np.searchsorted(cum, p, side="left")
        return (cum[:, None, :] < p[..., None]).sum(axis=-1)

    def quantile(self, p):
        p_arr = _as_array(p)
        if np.any((p_arr <= 0.0) | (p_arr >= 1.0)):
            raise ValueError("quantile level must lie strictly inside (0, 1)")
        idx = self._first_at_or_above(p_arr)
        if self._atoms_arr.ndim == 1:
            return _match(p, self._atoms_arr[idx])
        return np.take_along_axis(self._atoms_arr, idx, axis=1)

    def median(self):
        i = self._first_at_or_above(np.full(self._atoms_arr.shape[:-1] + (1,), 0.5))
        cum = np.take_along_axis(self._cum[..., 1:], i, axis=-1)
        if np.any((cum == 0.5) & (i + 1 < self._atoms_arr.shape[-1])):
            raise MedianUndefined("CDF equals 1/2 on a whole interval")
        m = np.take_along_axis(self._atoms_arr, i, axis=-1)
        return m if m.ndim > 1 else float(m[0])

    def mean(self):
        if self._atoms_arr.ndim > 1:
            return super().mean()
        return float(np.dot(self.masses, self.atoms))

    def variance(self):
        if self._atoms_arr.ndim > 1:
            return super().variance()
        m = self.mean()
        return float(np.dot(self.masses, (self._atoms_arr - m) ** 2))

    def sample(self, rng, n):
        return rng.choice(self._atoms_arr, size=n, p=self.masses)

    def _stack_key(self):
        return (FiniteDiscrete, len(self.atoms))

    @classmethod
    def _stack(cls, rows):
        return cls._stacked(np.array([r.atoms for r in rows]), np.array([r.masses for r in rows]))

    @classmethod
    def _stacked(cls, atoms, masses) -> FiniteDiscrete:
        """Stacked forecasts from (n, m) arrays of atoms and masses, unchecked."""
        return _build(cls, atoms=atoms, masses=masses)

    def _row(self, i):
        return FiniteDiscrete(self.atoms[i], self.masses[i])


class TwoPointBernoulli(FiniteDiscrete):
    """Binary-outcome forecast with success coded as outcome 0.

    The CDF jumps by the success probability ``p`` at 0 and reaches 1 at the
    non-success outcome 1.
    """

    def __init__(self, p: float):
        p = float(p)
        if not 0.0 <= p <= 1.0:
            raise ValueError("success probability must lie in [0, 1]")
        object.__setattr__(self, "p", p)
        super().__init__(atoms=(0.0, 1.0), masses=(p, 1.0 - p))

    def __repr__(self):
        return f"TwoPointBernoulli(p={self.p})"

    def _stack_key(self):
        return (TwoPointBernoulli,)

    @classmethod
    def _stack(cls, rows):
        return cls._stacked(_column([r.p for r in rows]))

    @classmethod
    def _stacked(cls, p) -> TwoPointBernoulli:
        """Stacked forecasts with success probabilities ``p``, an (n, 1) column."""
        return _build(cls, p=p, atoms=np.broadcast_to([0.0, 1.0], (p.shape[0], 2)),
                      masses=np.hstack([p, 1.0 - p]))

    def _row(self, i):
        return TwoPointBernoulli(_at(self.p, i))


@dataclass(frozen=True)
class Mixture(PredictiveDist):
    """Convex combination of component distributions."""

    components: tuple[PredictiveDist, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        w = tuple(float(x) for x in self.weights)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", w)
        if len(comps) != len(w) or not comps:
            raise ValueError("components and weights must be nonempty and equally long")
        if any(x < 0.0 for x in w):
            raise ValueError("weights must be nonnegative")
        if not abs(sum(w) - 1.0) <= 1e-12:  # written so that NaN and inf fail too
            raise ValueError("weights must sum to 1 within 1e-12")

    def cdf(self, y):
        acc = sum(w * _as_array(c.cdf(y)) for w, c in zip(self.weights, self.components))
        return _match(y, acc)

    def cdf_left(self, y):
        acc = sum(w * _as_array(c.cdf_left(y)) for w, c in zip(self.weights, self.components))
        return _match(y, acc)

    @property
    def has_density(self) -> bool:
        return all(c.has_density for c in self.components)

    def density(self, y):
        if not self.has_density:
            raise DensityUnavailable("a mixture component carries point masses")
        acc = sum(w * _as_array(c.density(y)) for w, c in zip(self.weights, self.components))
        return _match(y, acc)

    def support(self):
        los, his = zip(*(c.support() for c in self.components))
        return (reduce(np.minimum, los), reduce(np.maximum, his))

    def atom_locations(self):
        locs = np.concatenate([c.atom_locations() for c in self.components])
        return np.unique(locs)

    def mean(self):
        return sum(w * c.mean() for w, c in zip(self.weights, self.components))

    def variance(self):
        m = self.mean()
        return sum(w * (c.variance() + (c.mean() - m) ** 2)
                   for w, c in zip(self.weights, self.components))

    def sample(self, rng, n):
        idx = rng.choice(len(self.components), size=n, p=self.weights)
        out = np.empty(n)
        for i, c in enumerate(self.components):
            mask = idx == i
            cnt = int(mask.sum())
            if cnt:
                out[mask] = c.sample(rng, cnt)
        return out

    def _stack_key(self):
        return (Mixture, tuple(c._stack_key() for c in self.components))

    @classmethod
    def _stack(cls, rows):
        return cls._stacked(_stack_components(rows),
                            tuple(_column(col) for col in zip(*(r.weights for r in rows))))

    @classmethod
    def _stacked(cls, components, weights) -> Mixture:
        """Stacked mixtures of stacked components with (n, 1) weight columns, unchecked."""
        return _build(cls, components=components, weights=weights)

    def _row(self, i):
        return Mixture(tuple(c._row(i) for c in self.components),
                       tuple(_at(w, i) for w in self.weights))


@dataclass(frozen=True)
class SpreadAdjusted(PredictiveDist):
    """A base distribution re-scaled about ``center`` by a spread factor c.

    The CDF is G(y) = F(center + (y - center) / c), so every quantile's
    distance from the center is scaled by c and the moments have closed forms.
    """

    base: PredictiveDist
    c: float
    center: float

    def __post_init__(self):
        if not self.c > 0.0:
            raise ValueError("spread adjustment parameter c must be strictly positive")

    def _pullback(self, y) -> np.ndarray:
        return self.center + (_as_array(y) - self.center) / self.c

    def _pushforward(self, x):
        return self.center + self.c * (x - self.center)

    def cdf(self, y):
        return _match(y, _as_array(self.base.cdf(self._pullback(y))))

    def cdf_left(self, y):
        return _match(y, _as_array(self.base.cdf_left(self._pullback(y))))

    @property
    def has_density(self) -> bool:
        return self.base.has_density

    def density(self, y):
        return _match(y, _as_array(self.base.density(self._pullback(y))) / self.c)

    def support(self):
        return tuple(self._pushforward(x) for x in self.base.support())  # keeps +-inf

    def atom_locations(self):
        return self._pushforward(self.base.atom_locations())

    def quantile(self, p):
        p_arr = _as_array(p)
        if np.any((p_arr <= 0.0) | (p_arr >= 1.0)):
            raise ValueError("quantile level must lie strictly inside (0, 1)")
        return _match(p, self._pushforward(_as_array(self.base.quantile(p_arr))))

    def median(self):
        return self._pushforward(self.base.median())

    def mean(self):
        return self._pushforward(self.base.mean())

    def variance(self):
        return self.c * self.c * self.base.variance()

    def sample(self, rng, n):
        return self._pushforward(self.base.sample(rng, n))

    def _stack_key(self):
        return (SpreadAdjusted, self.base._stack_key())

    @classmethod
    def _stack(cls, rows):
        return _build(cls, base=_stack_rows([r.base for r in rows]),
                      c=_column([r.c for r in rows]), center=_column([r.center for r in rows]))

    def _row(self, i):
        return SpreadAdjusted(self.base._row(i), _at(self.c, i), _at(self.center, i))


@dataclass(frozen=True)
class BetaTransformed(PredictiveDist):
    """A base distribution recalibrated on the probability scale: B_(alpha,beta)(F(y)).

    Moments and samples come from the inherited CDF-based numerics.
    """

    base: PredictiveDist
    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise ValueError("alpha and beta must be strictly positive")

    def cdf(self, y):
        return _match(y, betainc(self.alpha, self.beta, _unit(self.base.cdf(y))))

    def cdf_left(self, y):
        return _match(y, betainc(self.alpha, self.beta, _unit(self.base.cdf_left(y))))

    @property
    def has_density(self) -> bool:
        return self.base.has_density

    def density(self, y):
        g = _as_array(self.base.density(y))
        u = _as_array(self.base.cdf(y))
        with np.errstate(invalid="ignore", over="ignore"):
            out = np.where(g > 0.0, _beta_pdf(u, self.alpha, self.beta) * g, 0.0)
        return _match(y, out)

    def support(self):
        return self.base.support()

    def atom_locations(self):
        return self.base.atom_locations()

    def quantile(self, p):
        p_arr = _as_array(p)
        if np.any((p_arr <= 0.0) | (p_arr >= 1.0)):
            raise ValueError("quantile level must lie strictly inside (0, 1)")
        return _match(p, _as_array(self.base.quantile(betaincinv(self.alpha, self.beta, p_arr))))

    def median(self):
        level = betaincinv(self.alpha, self.beta, 0.5)  # an (n, 1) column when stacked
        if np.ndim(level):
            return _as_array(self.base.quantile(level))
        return float(self.base.quantile(float(level)))

    def _stack_key(self):
        return (BetaTransformed, self.base._stack_key())

    @classmethod
    def _stack(cls, rows):
        return _build(cls, base=_stack_rows([r.base for r in rows]),
                      alpha=_column([r.alpha for r in rows]), beta=_column([r.beta for r in rows]))

    def _row(self, i):
        return BetaTransformed(self.base._row(i), _at(self.alpha, i), _at(self.beta, i))


def validate_cdf(d: PredictiveDist, grid=None) -> None:
    """Check the CDF contract on a grid plus atom locations.

    Verifies monotonicity, range [0, 1], tail limits, right continuity at
    atoms, and ``cdf_left <= cdf``.  Raises CdfPoolError on violation.
    """
    if grid is None:
        grid = np.linspace(-20.0, 20.0, 401)
    pts = np.sort(np.unique(np.concatenate([_as_array(grid), d.atom_locations()])))
    c = _as_array(d.cdf(pts))
    if np.any(np.diff(c) < -1e-12):
        raise CdfPoolError("cdf is not nondecreasing on the test grid")
    if np.any(c < -1e-12) or np.any(c > 1.0 + 1e-12):
        raise CdfPoolError("cdf leaves [0, 1]")
    c_left = _as_array(d.cdf_left(pts))
    if np.any(c_left - c > 1e-12):
        raise CdfPoolError("cdf_left exceeds cdf")
    lo, hi = d.support()
    probe_lo = lo - 1.0 if np.isfinite(lo) else min(pts[0], -1e8)
    probe_hi = hi if np.isfinite(hi) else max(pts[-1], 1e8)
    tail_tol = 1e-9 if np.isfinite(lo) else 1e-6
    if float(d.cdf(probe_lo)) > tail_tol:
        raise CdfPoolError("cdf does not vanish below the support")
    if float(d.cdf(probe_hi)) < 1.0 - 1e-6:
        raise CdfPoolError("cdf does not reach 1 above the support")
    atoms = d.atom_locations()
    if atoms.size:
        scale = max(1.0, float(np.max(np.abs(atoms))))
        step = 1e-9 * scale
        right = _as_array(d.cdf(atoms + step))
        at = _as_array(d.cdf(atoms))
        if np.any(np.abs(right - at) > 1e-6):
            raise CdfPoolError("cdf is not right-continuous at an atom")
