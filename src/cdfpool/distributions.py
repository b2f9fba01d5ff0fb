"""Predictive distributions as right-continuous CDFs: continuous, discrete, and mixed.

Every distribution is immutable after construction and exposes the same
evaluation surface (``cdf``, ``cdf_left``, ``density``, ``quantile``,
``mean``, ``variance``, ``sample``), so pooling and diagnostic code can stay
agnostic of the concrete kind.  All evaluators accept scalars or numpy
arrays and return a matching shape.

``stack`` turns a list of per-case forecasts into one object whose row i is
forecast i.  A kind's parameters are its public instance attributes, stacked
by one rule that checks the rows' shapes in the same pass: forecasts stack
if all are of one kind, a float becomes an (n, 1) column, tuples of one
length are stacked element by element, a nested forecast recursively, and
any other value (a link) must be the same object in every row.  A kind opts
in to columns with the class marker ``_stacks = True``; forecasts of another
kind are a ``_RowStack`` column, evaluated row by row, and so is the whole
list at the first mismatch at any depth.  The stacked ``cdf``, ``cdf_left``
and ``density`` take an (n, m) or (1, m) array of points and return (n, m),
row i being case i's forecast at row i of the points; ``quantile`` takes
levels in the same shapes; ``mean``, ``variance`` and ``median`` return
(n, 1) columns.  A per-case object runs the same code as a 1-row stack.
``_take(rows)`` cuts the rows, ``_take(i)`` rebuilds case i, checked as at
construction, and ``Gaussian._stacked(mu, sigma)`` and its siblings build
a stacked object from checked, stacked parameters in declaration order.

Kinds without closed-form moments (the beta-transformed and generalized
pools) integrate their CDF by parts with Fejér's second rule on panels
between the CDF's kinks, _MOMENT_CHUNK rows at a time
(``_quadrature_moments``).  Such row chunks run on one thread per core
(``_each_chunk``); each chunk's result depends on its rows alone, so the
results do not depend on the core count.
"""

from __future__ import annotations

import contextvars
import dataclasses
import math
import numbers
import os
import threading
from dataclasses import dataclass
from functools import cache, cached_property, partialmethod, reduce
from operator import attrgetter, is_

import numpy as np

from . import _special
from .errors import CdfPoolError, DensityUnavailable, MedianUndefined, MomentUnavailable

_QUANTILE_ATOL = 1e-10  # absolute tolerance in y for bisection inverses
CDF_CLAMP = 1e-12  # CDF values fed to open-interval links are clamped to [eps, 1-eps]

# Moments without a closed form integrate the CDF by Fejér's second rule on each panel.
_TAIL_MASS = 1e-11  # probability left outside the integration bracket on each side
_BRACKET_LADDER = 2.0 ** np.arange(64)  # outward probes at -2^i and +2^i
_NEAR_PROBES = 8  # the first call probes 2^0..2^7; rows with tails further out take the rest
_BRACKET_POINTS = 65  # coarse grid that narrows the bracket onto the bulk
_BRACKET_ROUNDS = 80  # each round at least halves the bracket
_GRID_POINTS = 128  # a row's starting intervals, shared by its panels in proportion to length
_GRID_DOUBLINGS = 3  # doublings of every panel's intervals before the moments are unavailable
_GRID_RTOL = 1e-8  # agreement demanded between the full and the half rule
_MOMENT_CHUNK = 64  # stacked rows integrated at a time: keeps each (rows, nodes) temporary small


def _cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _each_chunk(fn, n_rows: int | None, size: int) -> list:
    """``[fn(start) for start in range(0, n_rows or 1, size)]``, on every core.

    ``n_rows`` is ``_rows()``: None, a per-case object, is one chunk.  The
    calling thread and one helper thread per further core take chunk starts
    from one shared queue, in order; the helpers live for this call only.
    A helper runs in a copy of the caller's context, so the caller's
    ``np.errstate`` holds there too.  Once a chunk raises, no further chunk
    starts: the runner waits for the chunks under way and raises the error
    of the first failing chunk, as the serial loop would.
    """
    starts = range(0, n_rows or 1, size)
    out, errors = [None] * len(starts), {}
    todo, lock = list(reversed(range(len(starts)))), threading.Lock()  # popped in chunk order

    def drain():
        while True:
            with lock:
                if not todo:
                    return
                i = todo.pop()
            try:
                out[i] = fn(starts[i])
            except BaseException as e:
                with lock:
                    errors[i] = e
                    todo.clear()

    helpers = [threading.Thread(target=contextvars.copy_context().run, args=(drain,),
                                name="cdfpool-chunk")
               for _ in range(min(_cores() - 1, len(starts) - 1))]
    for helper in helpers:
        helper.start()
    try:
        drain()
    finally:
        with lock:
            todo.clear()
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return out


def _as_array(y) -> np.ndarray:
    return np.asarray(y, dtype=float)


def _match(y_in, out: np.ndarray):
    """Return a float for scalar input, an ndarray otherwise."""
    if isinstance(y_in, numbers.Number) or np.ndim(y_in) == 0:
        return float(out)
    return out


def uniform_open(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform draws guaranteed to lie strictly inside (0, 1)."""
    return (rng.integers(0, 1 << 53, size=n) + 0.5) / float(1 << 53)


def _beta_pdf(u, alpha: float, beta: float) -> np.ndarray:
    u = np.clip(_as_array(u), 1e-300, 1.0 - 1e-16)
    with np.errstate(over="ignore"):
        return np.exp(
            (alpha - 1.0) * np.log(u) + (beta - 1.0) * np.log1p(-u) - _special.betaln(alpha, beta)
        )


class PredictiveDist:
    """Base class: a probability measure on the real line via its CDF.

    ``_stacks`` marks a kind whose evaluators take (n, 1) parameter columns (see
    ``stack``); a subclass whose evaluators need per-case parameters sets it to False.
    """

    _stacks = False

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
        """Generalized inverse inf{y : cdf(y) >= p} for p in (0, 1); a NaN level is rejected."""
        p_arr = _as_array(p)
        if not np.all((p_arr > 0.0) & (p_arr < 1.0)):
            raise ValueError("quantile level must lie strictly inside (0, 1)")
        return _match(p, self._quantile(p_arr))

    def median(self):
        """The unique median, or MedianUndefined if the CDF is flat at 1/2.

        A stacked object returns the (n, 1) column of its rows' medians.
        """
        levels = np.array([[0.5 - 1e-9, 0.5 + 1e-9, 0.25, 0.75]])
        lo, hi, q1, q3 = _as_array(self.quantile(levels)).T  # one row per stacked row
        scale = np.maximum(q3 - q1, 1e-12)
        if np.any(hi - lo > 1e-3 * scale + 10.0 * _QUANTILE_ATOL):
            raise MedianUndefined("CDF is flat at probability 1/2; no unique median")
        mid = 0.5 * (lo + hi)
        return mid[:, None] if self._rows() is not None else float(mid[0])

    def mean(self):
        """The mean; a stacked object returns the (n, 1) column of its rows' means."""
        return self._quadrature_moments()[0]

    def variance(self):
        """The variance; a stacked object returns the (n, 1) column of its rows' variances."""
        return self._quadrature_moments()[1]

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.atleast_1d(_as_array(self.quantile(uniform_open(rng, n))))

    def _link_cdf(self, link, y, left: bool = False, slope: bool = False):
        """The generalized pool's term for this component at y, its y-derivative and the
        clamp masks.

        F is the CDF at y, or its left limit if ``left``.  Returns (h, dh, low,
        high): h(F) for the link h (a ``pools.LinkFunction``), with F clamped to
        [CDF_CLAMP, 1 - CDF_CLAMP]; with ``slope``, dh = d h(F) / dy, which is
        h'(F) f inside the clamp and 0 where it is active (None without
        ``slope``); and the masks where F <= CDF_CLAMP and where
        F >= 1 - CDF_CLAMP.  A kind with these in closed form overrides this.
        """
        F = _as_array(self.cdf_left(y) if left else self.cdf(y))
        low, high = F <= CDF_CLAMP, F >= 1.0 - CDF_CLAMP
        F = np.clip(F, CDF_CLAMP, 1.0 - CDF_CLAMP)
        dh = None
        if slope:
            dh = np.where(low | high, 0.0, link.deriv(F) * _as_array(self.density(y)))
        return link.apply(F), dh, low, high

    # -- stacking (see ``stack``) -------------------------------------------

    def _params(self) -> dict:
        """The parameters: the public instance attributes, in the order they were set."""
        return {name: v for name, v in vars(self).items() if name[0] != "_"}

    @classmethod
    def _stacked(cls, *params) -> PredictiveDist:
        """A stacked object from stacked, checked parameters in declaration order."""
        names = (f.name for f in dataclasses.fields(cls))
        return _build(cls, dict(zip(names, params, strict=True)))

    def __post_init__(self):
        """Checks of a per-case object's parameters, which ``_take(i)`` reruns; none by default."""

    def _rows(self) -> int | None:
        """The number of stacked rows; None for a per-case object."""
        return _row_count(tuple(self._params().values()))

    def _take(self, rows) -> PredictiveDist:
        """The given rows (a slice or index array): each (n, .) array and sub-forecast is cut.

        An int row gives the per-case object that the row stacks, checked
        again by ``__post_init__``.  A per-case object has no rows to cut, so
        a slice or index array gives the object itself, private attributes
        and all.  This runs once per case, so ``_params`` is inlined.
        """
        one = isinstance(rows, int)
        out = object.__new__(type(self))
        uncut = not one
        for name, v in vars(self).items():
            if name[0] != "_":
                part = _take_rows(v, rows, one)
                uncut = uncut and part is v
                object.__setattr__(out, name, part)
        if uncut:
            return self
        if one:
            out.__post_init__()
        return out

    # -- generic numerics ---------------------------------------------------

    def _quantile(self, p: np.ndarray) -> np.ndarray:
        """Quantiles at checked levels by bisection; a stacked object spreads (1, m) levels
        over its rows.  A kind with an inverse in closed form overrides this."""
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

    def _tail_bracket(self, first: int):
        """The bulk [lo, hi]: (n, 1) columns with cdf(lo) and 1 - cdf(hi) <= _TAIL_MASS.

        The kinds reach their limits exactly (``BetaTransformed._top``, the
        generalized pool's clamp masks): a row whose CDF is not exactly 0 at
        -2^63 and 1 at +2^63 raises MomentUnavailable.  The bracket first
        doubles outward from [-1, 1]: one call probes +-2^0..2^7 and the
        limits, and only the rows whose tail points lie further out probe the
        whole ladder to +-2^63.  It then shrinks to the coarse-grid cells that
        still hold the two tail points, until the bulk spans at least half
        the bracket; a settled row keeps its bracket.  Row i is row ``first + i``.
        """
        n, k = _BRACKET_LADDER.size, _NEAR_PROBES
        near = np.append(_BRACKET_LADDER[:k], _BRACKET_LADDER[-1])  # 2^0..2^7, then 2^63
        c = _as_array(self.cdf(np.concatenate([-near, near])[None, :]))
        g0, g1 = c[:, k], c[:, -1]
        short = ~((g0 == 0.0) & (g1 == 1.0))
        if short.any():
            i = int(np.argmax(short))
            raise MomentUnavailable(
                f"{type(self).__name__} row {first + i}: CDF rises only from {g0[i]:g} "
                f"to {g1[i]:g} over +-{_BRACKET_LADDER[-1]:g}"
            )
        lo = np.argmax(c[:, :k + 1] <= _TAIL_MASS, axis=1)
        hi = np.argmax(c[:, k + 1:] >= 1.0 - _TAIL_MASS, axis=1)
        far = np.flatnonzero((lo == k) | (hi == k))  # a tail point beyond 2^(k - 1)
        if far.size:
            c = _as_array(self._take(far).cdf(
                np.concatenate([-_BRACKET_LADDER, _BRACKET_LADDER])[None, :]))
            lo[far] = np.argmax(c[:, :n] <= _TAIL_MASS, axis=1)
            hi[far] = np.argmax(c[:, n:] >= 1.0 - _TAIL_MASS, axis=1)
        lo, hi = -_BRACKET_LADDER[lo], _BRACKET_LADDER[hi]
        rows, active = np.arange(lo.size), np.ones(lo.size, dtype=bool)
        for _ in range(_BRACKET_ROUNDS):
            t = np.linspace(lo, hi, _BRACKET_POINTS, axis=1)
            c = _as_array(self.cdf(t))
            # c[:, 0] <= _TAIL_MASS and c[:, -1] >= 1 - _TAIL_MASS, so i < j
            i = np.argmax(c > _TAIL_MASS, axis=1) - 1
            j = np.argmax(c >= 1.0 - _TAIL_MASS, axis=1)
            lo, hi = np.where(active, t[rows, i], lo), np.where(active, t[rows, j], hi)
            active &= 2 * (j - i) <= _BRACKET_POINTS - 1
            if not active.any():
                break
        return lo[:, None], hi[:, None]

    def _kinks(self) -> np.ndarray:
        """Points where the CDF may lose smoothness, a row per stacked row; panels end there."""
        return np.empty((1, 0))

    def _quadrature_moments(self):
        """Mean and variance from the CDF G alone, integrated by parts.

        On [lo, hi] from ``_tail_bracket``, E[Y] = lo + int (1 - G) and
        E[(Y - lo)^2] = 2 int (t - lo)(1 - G), by Fejér's second rule on each
        panel between ``_kinks``.  The rule's nodes lie inside the panel, so a
        jump of G at a kink is never sampled, and the rule with half the
        intervals uses every other node: the same CDF values give a second
        estimate.  A row's panels share _GRID_POINTS intervals by length;
        while its two estimates disagree by more than _GRID_RTOL, every panel
        of the row doubles its intervals, and MomentUnavailable naming the row
        is raised if they never agree.  Rows are integrated _MOMENT_CHUNK at
        a time, each on its own nodes and summed in node order, so a row's
        moments do not depend on the rows beside it; the chunks run on every
        core (``_each_chunk``).  Returns (n, 1) columns;
        a per-case object is the 1-row case (row 0 in errors) and gets floats.
        """
        if not self.has_density:
            raise MomentUnavailable(
                f"{type(self).__name__} has atoms; quadrature moments undefined"
            )

        def moments(first):
            chunk = self._take(slice(first, first + _MOMENT_CHUNK))
            lo, hi = chunk._tail_bracket(first)
            edges = np.sort(np.hstack([lo, np.clip(chunk._kinks(), lo, hi), hi]), axis=1)
            spans = np.diff(edges, axis=1)
            share = np.round(_GRID_POINTS / 2 * spans / (hi - lo))
            # an even count of at least 4 intervals, so the half rule has a node; none if empty
            size = np.where(spans > 0.0, 2 * np.maximum(share, 2), 0).astype(int)
            out = np.empty((2, lo.size, 1))
            todo = np.arange(lo.size)
            for _ in range(_GRID_DOUBLINGS + 1):
                t, w = _fejer_rule(edges[todo], spans[todo], size[todo])
                tail = 1.0 - _as_array(chunk._take(todo).cdf(t))
                parts = np.stack([tail, 2.0 * (t - lo[todo]) * tail])
                s = np.cumsum(parts * w[:, None], axis=-1)[..., -1:]  # (rule, part, row, 1)
                m, v = lo[todo] + s[:, 0], s[:, 1] - s[:, 0] ** 2  # full rule, then half rule
                ok = ((v[0] > 0.0) & (np.abs(m[0] - m[1]) <= _GRID_RTOL * np.sqrt(np.abs(v[0])))
                      & (np.abs(v[0] - v[1]) <= _GRID_RTOL * v[0]))[:, 0]
                out[:, todo[ok]] = m[0, ok], v[0, ok]
                todo = todo[~ok]
                if not todo.size:
                    return out
                size[todo] *= 2
            i = todo[0]
            raise MomentUnavailable(
                f"{type(self).__name__} row {first + i}: moments did not settle on "
                f"{np.maximum(size[i] - 1, 0).sum()} Fejér nodes over "
                f"[{lo[i, 0]:g}, {hi[i, 0]:g}]"
            )

        rows = self._rows()
        if rows == 0:
            return np.empty((0, 1)), np.empty((0, 1))
        out = np.concatenate(_each_chunk(moments, rows, _MOMENT_CHUNK), axis=1)
        return (out[0], out[1]) if rows is not None else (float(out[0, 0, 0]), float(out[1, 0, 0]))


@cache
def _fejer(n: int) -> np.ndarray:
    """Fejér's second rule with n intervals on [0, 1] (n even), as rows: its n - 1 nodes
    (1 - cos(pi j / n)) / 2, j = 1..n-1, their weights, and the weights of the rule
    with n / 2 intervals, whose nodes are those of even j (0 at odd j)."""
    theta = np.pi * np.arange(1, n) / n
    k = np.arange(1, n, 2)
    terms = np.sin(np.outer(theta, k)) / k
    full = np.sin(theta) * terms.sum(axis=1) * 2.0 / n
    half = np.sin(theta) * terms[:, :n // 4].sum(axis=1) * 4.0 / n
    half[::2] = 0.0  # odd j
    return np.stack([np.sin(theta / 2.0) ** 2, full, half])


def _fejer_rule(edges: np.ndarray, spans: np.ndarray, size: np.ndarray):
    """Nodes t and their full- and half-rule weights w[0], w[1], a row per row of edges.

    Panel p of row r, from edges[r, p] over spans[r, p], gets Fejér's second rule
    with size[r, p] intervals (even; 0 for no nodes).  Rows are padded to the
    longest by nodes at their last edge with zero weights.
    """
    count = np.maximum(size - 1, 0).ravel()
    # every node, row by row and panel by panel: its panel and its index j in that panel
    panel = np.repeat(np.arange(count.size), count)
    j = np.arange(panel.size) - (np.cumsum(count) - count)[panel]
    sizes, which = np.unique(size, return_inverse=True)
    tables = [_fejer(int(n)) for n in sizes]
    start = np.cumsum([0] + [table.shape[1] for table in tables])[:-1]
    x, w0, w1 = np.hstack(tables)[:, start[which.ravel()][panel] + j]
    length = count.reshape(size.shape).sum(axis=1)
    nodes = np.arange(length.max()) < length[:, None]  # a row's nodes, then its padding
    t = np.repeat(edges[:, -1:], length.max(), axis=1)
    w = np.zeros((2,) + t.shape)
    h = spans.ravel()[panel]
    t[nodes] = edges[:, :-1].ravel()[panel] + h * x
    w[0][nodes], w[1][nodes] = h * w0, h * w1
    return t, w


def stack(dists) -> PredictiveDist:
    """One stacked object whose row i is the forecast ``dists[i]``.

    Forecasts of one shape are stacked parameter by parameter in one pass
    (``_stack_param``); at the first mismatch in shape the list gives a
    ``_RowStack``, evaluated row by row.  The rows are not validated again,
    since each was validated when it was built.
    """
    dists = tuple(dists)
    try:
        return _stack_param(dists) if dists else _RowStack(())
    except _Ragged:
        return _RowStack(dists)


class _Ragged(Exception):
    """Rows whose parameters differ in shape: ``stack`` evaluates them row by row."""


def _stack_param(values):
    """One parameter of every row, stacked; raises _Ragged where the rows differ in shape.

    Forecasts of one kind are stacked parameter by parameter, or give a
    ``_RowStack`` if the kind has no stacked form; a float becomes an (n, 1)
    column; tuples of one length are stacked element by element; any other
    value, such as a link, must be the same object in every row.
    """
    first = values[0]
    if isinstance(first, PredictiveDist):
        if len(set(map(type, values))) != 1:
            raise _Ragged
        if not first._stacks:
            return _RowStack(tuple(values))
        return _build(type(first), {name: _stack_param(list(map(attrgetter(name), values)))
                                    for name in first._params()})
    if isinstance(first, tuple):
        if len(set(map(len, values))) != 1:
            raise _Ragged
        # one list per element: zip(*values) would make an iterator per row
        return tuple(_stack_param([v[j] for v in values]) for j in range(len(first)))
    if isinstance(first, (numbers.Real, np.ndarray)):
        return np.array(values, dtype=float)[:, None]
    if len(set(map(id, values))) != 1:
        raise _Ragged
    return first


def _row_count(x) -> int | None:
    """Rows of the stacked parameters in x (a distribution, tuple or array); None if none.

    Parameters are the public instance attributes; only stacked ones are 2-D arrays.
    """
    if isinstance(x, PredictiveDist):
        return x._rows()
    if isinstance(x, tuple):
        return max((n for n in map(_row_count, x) if n is not None), default=None)
    return np.shape(x)[0] if np.ndim(x) == 2 else None


def _take_rows(x, rows, one: bool):
    """x with its stacked parameters cut to the given rows, or as floats at the one int row.

    x itself where it holds no stacked parameter.
    """
    if isinstance(x, np.ndarray) and x.ndim == 2:
        return x.item(rows, 0) if one else x[rows]
    if isinstance(x, PredictiveDist):
        return x._take(rows)
    if isinstance(x, tuple):
        parts = tuple([_take_rows(v, rows, one) for v in x])
        return x if all(map(is_, parts, x)) else parts
    return x


def _finite_rows(x, n: int) -> np.ndarray:
    """Which of n rows have only finite float parameters in x (a distribution, tuple or value).

    Parameters are the public instance attributes, nested distributions included;
    a 2-D array holds one row per case, any other number is shared by every
    row.  The rows of a ``_RowStack`` are checked one by one.
    """
    if isinstance(x, _RowStack):
        return np.array([_finite_rows(d, 1)[0] for d in x.rows], dtype=bool)
    if isinstance(x, PredictiveDist):
        x = tuple(x._params().values())
    if isinstance(x, tuple):
        return reduce(np.logical_and, (_finite_rows(v, n) for v in x), np.ones(n, dtype=bool))
    if np.ndim(x) == 2:
        return np.broadcast_to(np.all(np.isfinite(x), axis=1), (n,))
    if isinstance(x, (numbers.Real, np.ndarray)):
        return np.full(n, bool(np.all(np.isfinite(x))))
    return np.ones(n, dtype=bool)


def _build(cls, fields: dict):
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
        return np.array([_as_array(getattr(d, method)(yi)) for d, yi in zip(self.rows, y)]
                        ).reshape(y.shape)

    def cdf(self, y):
        return self._each("cdf", y)

    def cdf_left(self, y):
        return self._each("cdf_left", y)

    def _link_cdf(self, link, y, left=False, slope=False):
        y = _as_array(y)
        y = np.broadcast_to(y, (len(self.rows), y.shape[-1]))
        parts = [d._link_cdf(link, yi, left, slope) for d, yi in zip(self.rows, y)]
        return tuple(np.array([p[i] for p in parts]).reshape(y.shape) if slope or i != 1 else None
                     for i in range(4))

    @property
    def has_density(self) -> bool:
        return all(d.has_density for d in self.rows)

    def density(self, y):
        return self._each("density", y)

    def _quantile(self, p):
        return self._each("quantile", p)

    def _each_row(self, method: str) -> np.ndarray:
        """The (n, 1) column of ``method()`` on each row."""
        return np.array([[getattr(d, method)()] for d in self.rows])

    median = partialmethod(_each_row, "median")
    mean = partialmethod(_each_row, "mean")
    variance = partialmethod(_each_row, "variance")

    def _rows(self):
        return len(self.rows)

    def _take(self, rows):
        if isinstance(rows, int):
            return self.rows[rows]
        return _RowStack(tuple(self.rows[i] for i in np.arange(len(self.rows))[rows]))


@dataclass(frozen=True)
class Gaussian(PredictiveDist):
    """Normal distribution with mean ``mu`` and standard deviation ``sigma``."""

    _stacks = True
    mu: float
    sigma: float

    def __post_init__(self):
        # each test is written so that NaN fails it
        if not -math.inf < self.mu < math.inf:
            raise ValueError("mu must be finite")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError("sigma must be strictly positive and finite")

    def cdf(self, y):
        return _match(y, _special.ndtr((_as_array(y) - self.mu) / self.sigma))

    @property
    def has_density(self) -> bool:
        return True

    def density(self, y):
        z = (_as_array(y) - self.mu) / self.sigma
        return _match(y, np.exp(-0.5 * z * z) / (self.sigma * np.sqrt(2.0 * np.pi)))

    def _link_cdf(self, link, y, left=False, slope=False):
        if link.value != "probit":
            return super()._link_cdf(link, y, left, slope)
        # ndtri(ndtr(z)) is z, clamping ndtr(z) clips z to ndtri of the two CDF bounds,
        # and dz/dy is 1/sigma inside the clip
        z = (_as_array(y) - self.mu) / self.sigma
        lo, hi = link.bounds
        low, high = z <= lo, z >= hi
        dh = np.where(low | high, 0.0, 1.0 / self.sigma) if slope else None
        return np.clip(z, lo, hi), dh, low, high

    def _quantile(self, p):
        return self.mu + self.sigma * _special.ndtri(p)

    def median(self):
        return self.mu

    def mean(self):
        return self.mu

    def variance(self):
        return self.sigma * self.sigma

    def sample(self, rng, n):
        return rng.normal(self.mu, self.sigma, size=n)


@dataclass(frozen=True)
class FiniteDiscrete(PredictiveDist):
    """Purely atomic distribution on finitely many ascending support points.

    Stacked, ``atoms`` and ``masses`` are tuples of (n, 1) columns.
    """

    _stacks = True
    atoms: tuple[float, ...]
    masses: tuple[float, ...]

    def __post_init__(self):
        atoms = tuple(float(a) for a in self.atoms)
        masses = tuple(float(m) for m in self.masses)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "masses", masses)
        if len(atoms) != len(masses) or not atoms:
            raise ValueError("atoms and masses must be nonempty and equally long")
        if not all(a < b for a, b in zip((-np.inf,) + atoms, atoms + (np.inf,))):
            raise ValueError("atoms must be finite and strictly ascending")
        if not all(m >= 0.0 for m in masses):  # each check is written so that NaN fails it
            raise ValueError("masses must be nonnegative")
        if not abs(sum(masses) - 1.0) <= 1e-12:
            raise ValueError("masses must sum to 1 within 1e-12")

    @cached_property
    def _atoms(self) -> np.ndarray:
        return np.stack(self.atoms, axis=-1)  # (k,), or (n, 1, k) when stacked

    @cached_property
    def _cum(self) -> np.ndarray:
        c = np.cumsum(np.stack((np.zeros_like(self.masses[0]),) + self.masses, axis=-1), axis=-1)
        c[..., -1] = 1.0
        return c

    @staticmethod
    def _lookup(table: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Entry ``index`` of ``table`` along its last axis, row by row when stacked."""
        table = np.broadcast_to(table, index.shape + table.shape[-1:])
        return np.take_along_axis(table, index[..., None], axis=-1)[..., 0]

    def _cum_at(self, y, below) -> np.ndarray:
        """Mass of the atoms <= y (``below`` is np.less_equal) or < y (np.less).

        One pass per atom, in ascending order: where atom a is below y, the mass
        so far becomes the cumulative mass through a, so the last atom below y
        sets it.  The arrays stay the shape of y, with no axis over the atoms.
        """
        y = _as_array(y)
        acc = 0.0
        for a, atom in enumerate(self.atoms):
            acc = np.where(below(atom, y), self._cum[..., a + 1], acc)
        return acc

    def cdf(self, y):
        return _match(y, self._cum_at(y, np.less_equal))

    def cdf_left(self, y):
        return _match(y, self._cum_at(y, np.less))

    def support(self):
        return (self.atoms[0], self.atoms[-1])

    def atom_locations(self):
        return np.hstack(self.atoms)

    def _quantile(self, p):
        # the first atom whose cumulative mass reaches p
        return self._lookup(self._atoms, (self._cum[..., 1:] < p[..., None]).sum(axis=-1))

    def median(self):
        i = (self._cum[..., 1:] < 0.5).sum(axis=-1)  # 0-d, or an (n, 1) column when stacked
        if np.any((self._lookup(self._cum[..., 1:], i) == 0.5) & (i + 1 < len(self.atoms))):
            raise MedianUndefined("CDF equals 1/2 on a whole interval")
        m = self._lookup(self._atoms, i)
        return m if self._rows() is not None else float(m)

    def _total(self, x):
        """The sum over atoms of mass times x, in atom order: an (n, 1) column when stacked."""
        s = np.cumsum(np.stack(self.masses, axis=-1) * x, axis=-1)[..., -1]
        return s if self._rows() is not None else float(s)

    def mean(self):
        return self._total(self._atoms)

    def variance(self):
        return self._total((self._atoms - np.expand_dims(self.mean(), -1)) ** 2)

    def sample(self, rng, n):
        return rng.choice(self._atoms, size=n, p=self.masses)


class TwoPointBernoulli(FiniteDiscrete):
    """Binary-outcome forecast with success coded as outcome 0.

    The CDF jumps by the success probability ``p`` at 0 and reaches 1 at the
    non-success outcome 1.
    """

    def __init__(self, p: float):
        object.__setattr__(self, "p", float(p))
        super().__init__(atoms=(0.0, 1.0), masses=(self.p, 1.0 - self.p))

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("success probability must lie in [0, 1]")
        super().__post_init__()

    def __repr__(self):
        return f"TwoPointBernoulli(p={self.p})"

    @classmethod
    def _stacked(cls, p) -> TwoPointBernoulli:
        """Stacked forecasts with success probabilities ``p``, an (n, 1) column."""
        return _build(cls, {"p": p, "atoms": (np.zeros_like(p), np.ones_like(p)),
                            "masses": (p, 1.0 - p)})


@dataclass(frozen=True)
class Mixture(PredictiveDist):
    """Convex combination of component distributions."""

    _stacks = True
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


@dataclass(frozen=True)
class SpreadAdjusted(PredictiveDist):
    """A base distribution re-scaled about ``center`` by a spread factor c.

    The CDF is G(y) = F(center + (y - center) / c), so every quantile's
    distance from the center is scaled by c and the moments have closed forms.
    """

    _stacks = True
    base: PredictiveDist
    c: float
    center: float

    def __post_init__(self):
        # each test is written so that NaN fails it; a stacked center, the (n, 1) column
        # of a stacked base's medians, is checked row by row where ``_take(i)`` cuts it
        if not 0.0 < self.c < math.inf:
            raise ValueError("spread adjustment parameter c must be strictly positive and finite")
        if not (isinstance(self.center, np.ndarray) or -math.inf < self.center < math.inf):
            raise ValueError("center must be finite")

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

    def _quantile(self, p):
        return self._pushforward(_as_array(self.base.quantile(p)))

    def median(self):
        return self._pushforward(self.base.median())

    def mean(self):
        return self._pushforward(self.base.mean())

    def variance(self):
        return self.c * self.c * self.base.variance()

    def sample(self, rng, n):
        return self._pushforward(self.base.sample(rng, n))


@dataclass(frozen=True)
class BetaTransformed(PredictiveDist):
    """A base distribution recalibrated on the probability scale: B_(alpha,beta)(F(y)).

    F is the base CDF divided by its value at +inf where rounding leaves that
    below 1 (``_top``), so the transform reaches exactly 1.  Moments and
    samples come from the inherited CDF-based numerics.
    """

    _stacks = True
    base: PredictiveDist
    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 < self.alpha < math.inf and 0.0 < self.beta < math.inf):  # NaN fails too
            raise ValueError("alpha and beta must be strictly positive and finite")

    @cached_property
    def _top(self):
        """min(1, base CDF at +inf), per row when stacked.  A mixture whose weights sum
        to 1 - 2^-53 tops out there, and B would raise the shortfall to the power beta;
        where the base reaches 1, dividing by 1.0 leaves every value as it is."""
        top = np.minimum(_as_array(self.base.cdf(np.full((1, 1), np.inf))), 1.0)
        return top if self._rows() is not None else float(top[0, 0])

    def _u(self, base_cdf) -> np.ndarray:
        # clipped to [0, 1]: a mixture's CDF can pass 1 by rounding, and betainc returns nan there
        return np.clip(_as_array(base_cdf) / self._top, 0.0, 1.0)

    def cdf(self, y):
        return _match(y, _special.betainc(self.alpha, self.beta, self._u(self.base.cdf(y))))

    def cdf_left(self, y):
        return _match(y, _special.betainc(self.alpha, self.beta, self._u(self.base.cdf_left(y))))

    @property
    def has_density(self) -> bool:
        return self.base.has_density

    def density(self, y):
        g = _as_array(self.base.density(y)) / self._top
        u = _as_array(self.base.cdf(y)) / self._top
        with np.errstate(invalid="ignore", over="ignore"):
            out = np.where(g > 0.0, _beta_pdf(u, self.alpha, self.beta) * g, 0.0)
        return _match(y, out)

    def support(self):
        return self.base.support()

    def atom_locations(self):
        return self.base.atom_locations()

    def _quantile(self, p):
        u = _special.betaincinv(self.alpha, self.beta, p)
        return _as_array(self.base.quantile(u * self._top))

    def median(self):
        # per row when stacked
        return self.base.quantile(_special.betaincinv(self.alpha, self.beta, 0.5) * self._top)


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
