"""Predictive distributions as right-continuous CDFs: continuous, discrete, and mixed.

Every distribution is immutable after construction and exposes the same
evaluation surface (``cdf``, ``cdf_left``, ``density``, ``quantile``,
``mean``, ``variance``, ``sample``), so pooling and diagnostic code can stay
agnostic of the concrete kind.  All evaluators accept scalars or numpy
arrays and return a matching shape.  ``quantile`` is the generalized inverse,
so a level inside an atom's jump gives the atom itself, and every kind's
``sample`` is the ``quantile`` of open uniforms, exact at atoms too.

A combined forecast names the forecasts it is built from (``_parts``), and
they alone decide its kind of law: it has a density if every part has one,
its atoms are the sorted union of its parts' atoms, its CDF is a step
function if every part's is, and its support is the union of its parts'
supports, from the lowest lower bound to the highest upper bound.  A leaf
has no parts and states its own; its support is the real line unless it
says otherwise.  Every kind without a closed-form median takes the one
generic ``median``: the midpoint of the quantiles at 1/2 -+ 1e-9, or
MedianUndefined where the CDF is flat at 1/2 between them.

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
row i being case i's forecast at row i of the points, or the (n, 1) column
at a scalar point; ``quantile`` takes levels in the same shapes; ``mean``,
``variance`` and ``median`` return (n, 1) columns; ``sample(rng, m)`` gives
(n, m), row i as case i draws from the same generator.  A per-case object
runs the same code as a 1-row stack.
``_take(rows)`` cuts the rows, ``_take(i)`` rebuilds case i, checked as at
construction, and ``Gaussian._stacked(mu, sigma)`` and its siblings build
a stacked object from checked, stacked parameters in declaration order.

``mean`` and ``variance`` read one hook, ``_moments()``, which returns the
pair.  A kind with closed forms (and a user kind that knows its moments)
overrides it; a mixture, a spread adjustment and a row-by-row stack read
each part's pair once.  By default, as for the beta-transformed and
generalized pools, it integrates the CDF by parts with a Gauss–Kronrod pair
on panels between the CDF's kinks, _MOMENT_CHUNK rows at a time in turn, each
round's panels as dense node blocks, over a bracket that one rule reads on
the CDF for the whole column (``_tail_points``): a kind's closed tail points
where it has them, else the generic bisection quantile, stopped early.  The
marginal gap's row chunks run on one thread per core (``_each_chunk``); each
chunk's result depends on its rows alone, so no result depends on the core
count.
"""

from __future__ import annotations

import contextvars
import dataclasses
import math
import numbers
import os
import threading
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, partialmethod, reduce
from operator import attrgetter, is_

import numpy as np

from . import _special
from .errors import (
    CdfPoolError,
    DensityUnavailable,
    DomainViolation,
    MedianUndefined,
    MomentUnavailable,
)

_QUANTILE_ATOL = 1e-10  # absolute tolerance in y for bisection inverses
CDF_CLAMP = 1e-12  # CDF values fed to open-interval links are clamped to [eps, 1-eps]

# Moments without a closed form integrate the CDF by a Gauss–Kronrod pair on each panel.
_TAIL_MASS = 1e-11  # probability left outside the integration bracket on each side
_TAIL_SHARE = 0.125  # a bisected tail point is within this share of its bracket's width
_REACH = 2.0 ** 63  # a CDF integrated by parts is exactly 0 at -_REACH and 1 at +_REACH
_PAIR = 32  # Gauss nodes on a whole bracket; a shorter panel gets a power of 2 in proportion, >= 4
_BISECTIONS = 8  # halvings per row before its moments are unavailable; one panel: <= 1105 nodes
_GRID_RTOL = 1e-8  # agreement demanded between the Kronrod and the Gauss rule
_LOST_RTOL = 1e-4  # most that mass lost to rounding, moved a bracket width, may move a variance
_MOMENT_CHUNK = 512  # stacked rows integrated at a time: the fastest measured, 1 MB of node sums
_ONE_BITS = int(np.float64(1.0).view(np.int64))  # the floats in [0, 1] are the bit patterns 0..this


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


def _match(out: np.ndarray):
    """A float for a 0-d result (a per-case object at a scalar point), the array otherwise."""
    return float(out) if np.ndim(out) == 0 else out


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
        return _match(_as_array(self.cdf(y)) - _as_array(self.cdf_left(y)))

    def _parts(self) -> tuple[PredictiveDist, ...]:
        """The forecasts this kind is built from, () for a leaf: a combined forecast has a
        density, or a step-function CDF, if every part does, and its parts' atoms and the
        union of their supports."""
        return ()

    @property
    def has_density(self) -> bool:
        parts = self._parts()
        return bool(parts) and all(p.has_density for p in parts)

    def density(self, y):
        raise DensityUnavailable(f"{type(self).__name__} has no Lebesgue density")

    def support(self) -> tuple[float, float]:
        """(lowest, highest) bound of the parts' supports; the real line for a leaf."""
        parts = self._parts()
        if not parts:
            return (-np.inf, np.inf)
        los, his = zip(*(p.support() for p in parts))
        return (reduce(np.minimum, los), reduce(np.maximum, his))

    def atom_locations(self) -> np.ndarray:
        """Locations of jump discontinuities (empty for continuous kinds)."""
        # stacked parts may hold different numbers of atoms per row
        locs = [np.ravel(p.atom_locations()) for p in self._parts()]
        return np.unique(np.concatenate([np.empty(0), *locs]))

    @property
    def _step_cdf(self) -> bool:
        """Whether the CDF is constant from each of atom_locations() up to the next, so
        its value at y depends only on which atoms lie at or below y."""
        parts = self._parts()
        return bool(parts) and all(p._step_cdf for p in parts)

    def quantile(self, p):
        """Generalized inverse inf{y : cdf(y) >= p} for p in (0, 1); a NaN level is rejected."""
        p_arr = _as_array(p)
        if not np.all((p_arr > 0.0) & (p_arr < 1.0)):
            raise ValueError("quantile level must lie strictly inside (0, 1)")
        return _match(self._quantile(p_arr))

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
        return self._moments()[0]

    def variance(self):
        """The variance; a stacked object returns the (n, 1) column of its rows' variances."""
        return self._moments()[1]

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``quantile`` of n open uniforms: n draws, or (rows, n) when stacked."""
        return self.quantile(uniform_open(rng, n))

    def _link_cdf(self, link, y, left: bool = False, slope: bool = False):
        """The generalized pool's term for this component at y, its y-derivative and the
        clamp masks.

        F is the CDF at y, or its left limit if ``left``.  Returns (h, dh, low,
        high): h(F) for the link h (a ``pools.LinkFunction``), with F clamped to
        [CDF_CLAMP, 1 - CDF_CLAMP]; with ``slope``, dh = d h(F) / dy, which is h'(F) f
        inside the clamp and 0 where it is active (None without ``slope``); and the
        masks where F <= CDF_CLAMP and where F >= 1 - CDF_CLAMP.  A kind with a finite
        closed-form term (a Gaussian's probit z) overrides this and marks nothing.
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
        """Quantiles at checked levels by ``_bisect``; a stacked object spreads (1, m) levels
        over its rows.  A kind with an inverse in closed form overrides this."""
        lo, hi = self._bisect(p)
        # an atom a in the last bracket (lo, hi] with cdf_left(a) < p <= cdf(a) is the quantile
        # exactly: the atoms above lo are tried in turn up to the first whose CDF reaches p
        atoms = np.append(np.unique(self.atom_locations()), np.inf)  # sorted and flat, then a stop
        i = np.searchsorted(atoms, lo, side="right")
        while (tried := atoms[i] <= hi).any():
            a = np.where(tried, atoms[i], hi)
            reached = tried & (_as_array(self.cdf(a)) >= p)
            hi = np.where(reached & (_as_array(self.cdf_left(a)) < p), a, hi)
            i = np.where(tried & ~reached, i + 1, -1)
        return hi

    def _bisect(self, p: np.ndarray, tol=lambda lo, hi: _QUANTILE_ATOL):
        """(lo, hi) with cdf(lo) < p <= cdf(hi): from the support, doubled outward, then
        each level halved on its own until hi - lo <= tol(lo, hi) or rounding stops it, so
        it gets the value it gets alone.  A level that the CDF does not cross within 200
        doublings raises DomainViolation: a mixture whose weights sum to 1 - 5e-13 never
        reaches 1 - 1e-13."""
        lo_s, hi_s = self.support()  # floats, or (n, 1) columns of the rows' bounds
        rows, shape = self._rows(), p.shape
        p = np.broadcast_to(p, np.broadcast_shapes(shape, (1,) if rows is None else (rows, 1)))
        lo = np.broadcast_to(np.where(np.isfinite(lo_s), lo_s - 1.0, -1.0), p.shape).copy()
        hi = np.broadcast_to(np.where(np.isfinite(hi_s), hi_s, 1.0), p.shape).copy()
        # expand until cdf(lo) < p <= cdf(hi), both ends in one call
        for tries in range(201):
            c = _as_array(self.cdf(np.concatenate([lo, hi], axis=-1)))
            low, high = c[..., :p.shape[-1]] >= p, c[..., p.shape[-1]:] < p
            if not (low.any() or high.any()):
                break
            if tries == 200:
                bad, verb = (low, "fall below") if low.any() else (high, "reach")
                raise DomainViolation(f"{type(self).__name__} CDF does not {verb} "
                                      f"quantile level {float(p[bad][0])!r}")
            lo[low], hi[high] = 2.0 * lo[low] - 1.0, 2.0 * hi[high] + 1.0
        while True:
            mid = 0.5 * (lo + hi)
            done = (hi - lo <= tol(lo, hi)) | (mid <= lo) | (mid >= hi)
            if np.all(done):
                return (lo, hi) if rows is not None else (lo.reshape(shape), hi.reshape(shape))
            ge = _as_array(self.cdf(mid)) >= p
            hi = np.where(ge & ~done, mid, hi)
            lo = np.where(~ge & ~done, mid, lo)

    def _tail_points(self):
        """(n, 1) columns lo, hi and lost: cdf(lo) <= _TAIL_MASS, cdf(hi) >= 1 - _TAIL_MASS.

        Read on the CDF itself.  A row's finite ``_closed_points`` are stepped
        out as far as rounding needs (from the spacing there, doubling), and
        lost, the mass its CDF gains or sheds over the last steps, is what
        it jumps by where a part rounds to its limit.  Any other row takes
        the outer bounds of ``_bisect`` at the two levels, each stopped
        within _TAIL_SHARE of the row's bracket, and lost 0.  A row whose CDF
        is not exactly 0 at -_REACH and 1 at +_REACH gets NaN points.
        """
        levels = np.array([[_TAIL_MASS, 1.0 - _TAIL_MASS]])
        ends = np.atleast_2d(self.cdf(np.array([[-_REACH, _REACH]])))
        reached = (ends == [0.0, 1.0]).all(axis=1)
        y = np.zeros(ends.shape) + self._closed_points(levels)
        closed = np.isfinite(y).all(axis=1)
        y[~reached], rows = np.nan, np.flatnonzero(reached & closed)
        if (open_rows := np.flatnonzero(reached & ~closed)).size:
            lo, hi = self._take(open_rows)._bisect(
                levels, lambda lo, hi: _TAIL_SHARE * (hi[:, 1:] - lo[:, :1]))
            y[open_rows] = np.column_stack([lo[:, 0], hi[:, 1]])
        step, g = np.spacing(np.abs(y)) * [-1.0, 1.0], np.zeros_like(y) + levels
        before = g.copy()
        while rows.size:
            g[rows] = np.atleast_2d(self._take(rows).cdf(y[rows]))
            short = (g[rows] - levels) * [1.0, -1.0] > 0.0
            rows, short = rows[short.any(axis=1)], short[short.any(axis=1)]
            before[rows] = np.where(short, g[rows], before[rows])
            y[rows] += np.where(short, step[rows], 0.0)
            step[rows] *= 2.0
        return y[:, :1], y[:, 1:], np.sum(np.abs(g - before), axis=1, keepdims=True)

    def _closed_points(self, levels):
        """Points at which the CDF is at most levels[..., 0] and at least levels[..., 1], or
        within rounding of that (``_tail_points`` steps them out on the CDF); NaN for none."""
        return np.full(np.shape(levels), np.nan)

    def _clamps(self, link):
        """Whether ``_link_cdf`` clamps F under the link, so a generalized pool's CDF may
        kink where F crosses CDF_CLAMP or 1 - CDF_CLAMP: a bool, or an (n, 1) column of
        the rows'.  A kind whose term is finite in closed form says no where it is."""
        return True

    def _kinks(self) -> np.ndarray:
        """Points where the CDF may lose smoothness, a row per stacked row; panels end there."""
        return np.empty((1, 0))

    def _moments(self):
        """(mean, variance), the one hook of ``mean`` and ``variance``; a kind with closed
        forms overrides it, and one whose moments follow from its parts' reads each once.

        By default both come from the CDF G alone, integrated by parts on
        [lo, hi] from ``_tail_points``, found once for all rows: E[Y] = lo +
        int (1 - G) and E[(Y - lo)^2] = 2 int (t - lo)(1 - G), by a
        Gauss-Kronrod pair on each panel between ``_kinks`` (_PAIR Gauss nodes
        on a whole bracket, fewer on a part).  Its nodes lie inside the panel,
        so a jump of G at a kink is never sampled, and the Gauss nodes are
        Kronrod nodes: one set of CDF values gives two estimates.  While they
        differ by more than _GRID_RTOL, a row halves the panel where they differ
        most and evaluates the halves alone.  Rows go _MOMENT_CHUNK at a time,
        in turn; a round evaluates a chunk's panels by ``_kronrod_sums``, as a
        dense block of nodes per pair size, and sums each row panel by panel,
        so a row's moments depend on neither its neighbours nor the chunk size.
        The lowest failing row raises MomentUnavailable: its CDF is not 0 and 1
        at -+_REACH, it has not settled after _BISECTIONS halvings, or the mass
        its CDF loses to rounding at the ends, times (hi - lo)^2, exceeds
        _LOST_RTOL times its variance.  Returns (n, 1) columns; a per-case
        object is the 1-row case (row 0 in errors) and gets floats.
        """
        if not self.has_density:
            raise MomentUnavailable(
                f"{type(self).__name__} has atoms; quadrature moments undefined"
            )

        def moments(first):
            size = min(stop - first, _MOMENT_CHUNK)
            chunk = self._take(slice(first, first + size))
            lo, hi, lost = (t[first:first + size] for t in tails)
            edges = np.sort(np.hstack([lo, np.clip(chunk._kinks(), lo, hi), hi]), axis=1)
            # a row's panels, empty ones too, then a place for each halving's second half
            a, b = (np.hstack([e, np.zeros((size, _BISECTIONS))])
                    for e in (edges[:, :-1], edges[:, 1:]))
            n = (2 ** np.ceil(np.log2(np.clip(_PAIR * (b - a) / (hi - lo), 4, _PAIR)))).astype(int)
            r, c = np.nonzero(b > a)  # row r's panel c: to evaluate
            sums, out = np.zeros((2, 2) + a.shape), np.full((2, size, 1), np.nan)
            todo = np.arange(size)
            for halvings in range(_BISECTIONS + 1):
                sums[:, :, r, c] = _kronrod_sums(chunk, lo, r, a[r, c], b[r, c], n[r, c])
                s = np.cumsum(sums, axis=-1)[..., -1:]  # (rule, part, row, 1), panel by panel
                m, v = lo + s[:, 0], s[:, 1] - s[:, 0] ** 2  # Kronrod, then Gauss
                ok = ((v[0] > 0.0) & (np.abs(m[0] - m[1]) <= _GRID_RTOL * np.sqrt(np.abs(v[0])))
                      & (np.abs(v[0] - v[1]) <= _GRID_RTOL * v[0]))[todo, 0]
                out[:, todo[ok]] = m[0, todo[ok]], v[0, todo[ok]]
                todo = todo[~ok]
                if not todo.size or halvings == _BISECTIONS:  # more would only isolate a jump of G
                    break
                # halve each row's panel whose rules differ most, as ``ok`` weighs them
                d = sums[0] - sums[1]
                j = np.argmax((np.abs(d[0]) * np.sqrt(np.abs(v[0]))
                               + np.abs(d[1] - 2.0 * s[0, 0] * d[0]))[todo], axis=1)
                k = np.full(j.size, edges.shape[1] - 1 + halvings)  # the second halves' place
                b[todo, k], n[todo, k] = b[todo, j], n[todo, j]
                a[todo, k] = b[todo, j] = 0.5 * (a[todo, j] + b[todo, j])
                r, c = np.repeat(todo, 2), np.column_stack([j, k]).ravel()
            if (off := np.isnan(out[1]) | (lost * (hi - lo) ** 2 > _LOST_RTOL * out[1])).any():
                i = int(np.argmax(off[:, 0]))
                raise MomentUnavailable(f"{type(self).__name__} row {first + i}: " + (
                    f"moments did not settle on {np.sum(b[i] > a[i])} panels"
                    if np.isnan(out[1, i, 0]) else f"the CDF loses mass {lost[i, 0]:g} to "
                    f"rounding at the ends, too much for variance {out[1, i, 0]:g}")
                    + f" over [{lo[i, 0]:g}, {hi[i, 0]:g}]")
            return out

        rows, tails = self._rows(), self._tail_points()
        # the rows up to the first without a bracket: the lowest failing row is named
        stop = int(np.argmax(bad)) if (bad := np.isnan(tails[0][:, 0])).any() else bad.size
        out = np.hstack([np.empty((2, 0, 1)), *map(moments, range(0, stop, _MOMENT_CHUNK))])
        if stop < bad.size:
            g = np.ravel(self._take(slice(stop, stop + 1)).cdf(np.array([[-_REACH, _REACH]])))
            raise MomentUnavailable(f"{type(self).__name__} row {stop}: CDF rises only "
                                    f"from {g[0]:g} to {g[1]:g} over +-{_REACH:g}")
        return (out[0], out[1]) if rows is not None else (float(out[0, 0, 0]), float(out[1, 0, 0]))


@lru_cache(maxsize=256)
def _beta_levels_at(alpha: float, beta: float, low: float, high: float) -> tuple[float, float]:
    """The base levels where a beta transform's CDF B = betainc(alpha, beta, .) crosses
    the CDF levels low and high: the largest u in (0, 1) with B(u) <= low and the
    smallest with B(u) >= high.  Bisection over the bit patterns of the floats in [0, 1],
    which are in the floats' order, so each is exact wherever B is nondecreasing in
    floating point (``betaincinv`` misses the tail levels by up to 1e8 floats).  Where
    only 0 or 1 reaches a level, the nearest float inside keeps the base's closed point
    finite; B's jump from there to 0 or 1, where the base rounds to its limit, is mass
    the transform's CDF loses (``_tail_points``)."""
    # B(u) < x exactly where B(u) <= the float below x
    top = np.array([low, np.nextafter(high, 0.0)])
    lo, hi = np.zeros(2, dtype=np.int64), np.full(2, _ONE_BITS)  # B(lo) <= top < B(hi)
    while np.any(hi - lo > 1):
        mid = (lo + hi) // 2
        below = _special.betainc(alpha, beta, mid.view(np.float64)) <= top
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return tuple(np.clip([lo[0], hi[1]], 1, _ONE_BITS - 1).view(np.float64).tolist())


@cache
def _gauss_kronrod(n: int) -> np.ndarray:
    """Rows x, wk, wg: the 2n + 1 Kronrod nodes on [0, 1], their weights, and the n-point
    Gauss weights (0 off the Gauss nodes, the odd places), by Laurie's Jacobi matrix (Math.
    Comp. 66, 1997) for the Legendre weight, whose symmetry puts 1/2 on every diagonal."""
    b, k = np.zeros(2 * n + 2), np.arange(1, (3 * n + 3) // 2)
    b[1], b[k + 1] = 1.0, k * k / (16.0 * k * k - 4.0)
    s, t = np.zeros((2, n // 2 + 3))
    t[2] = b[n + 2]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        s[k + 2] = np.cumsum(b[k + n + 2] * s[k + 1] - b[m - k + 1] * s[k + 2])
        s, t = t, s
    s[2:n // 2 + 3] = s[1:n // 2 + 2]
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        j = n + 1 - m + k
        s[j] = np.cumsum(b[m - k + 1] * s[j + 1] - b[k + n + 2] * s[j])
        if m % 2:
            b[(m + 1) // 2 + n + 2] = s[j[-1]] / s[j[-1] + 1]
        s, t = t, s
    x, v = np.linalg.eigh(np.diag(np.sqrt(b[2:]), -1))
    g = np.linalg.eigh(np.diag(np.sqrt(b[2:n + 1]), -1))[1][0] ** 2
    return np.stack([0.5 + x, v[0] ** 2, np.insert(g, np.arange(n + 1), 0.0)])


def _kronrod_sums(d, lo, row, a, b, n) -> np.ndarray:
    """(rule, part, panel) sums of 1 - G and 2 (t - lo)(1 - G), Kronrod's and Gauss's, by
    ``_gauss_kronrod(n[p])`` on panel p, [a[p], b[p]] of d's row row[p] (ascending).  The
    panels of a pair size are one dense (panels, 2n + 1) node block, one cdf call on their
    rows, and a panel sums its nodes as ``np.add.reduceat`` does: the first, then the rest."""
    out = np.empty((2, 2, n.size))
    for k in np.unique(n).tolist():
        p = np.flatnonzero(n == k)
        rule, rows, h = _gauss_kronrod(k), row[p], (b - a)[p, None]
        t = a[p, None] + h * rule[0]
        whole = rows.size == lo.shape[0] and (rows == np.arange(rows.size)).all()
        tail = 1.0 - _as_array((d if whole else d._take(rows)).cdf(t))
        f = np.stack([tail, 2.0 * (t - lo[rows]) * tail])
        f *= h  # in place: one more temporary of this size costs more than the product
        out[:, :, p] = np.add.reduceat(f * rule[1:, None, None], [0], axis=-1)[..., 0]
    return out


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
        """Row i's ``method`` at row i of y, an (n, m) or (1, m) array or a scalar."""
        y = np.atleast_2d(_as_array(y))  # a scalar point is one column
        y = np.broadcast_to(y, (len(self.rows), y.shape[-1]))
        return np.array([_as_array(getattr(d, method)(yi)) for d, yi in zip(self.rows, y)]
                        ).reshape(y.shape)

    cdf = partialmethod(_each, "cdf")
    cdf_left = partialmethod(_each, "cdf_left")
    density = partialmethod(_each, "density")
    _quantile = partialmethod(_each, "quantile")

    def _link_cdf(self, link, y, left=False, slope=False):
        y = np.atleast_2d(_as_array(y))
        y = np.broadcast_to(y, (len(self.rows), y.shape[-1]))
        parts = [d._link_cdf(link, yi, left, slope) for d, yi in zip(self.rows, y)]
        return tuple(np.array([p[i] for p in parts]).reshape(y.shape) if slope or i != 1 else None
                     for i in range(4))

    def _parts(self):
        return self.rows

    _closed_points = partialmethod(_each, "_closed_points")

    def _clamps(self, link):
        return np.array([d._clamps(link) for d in self.rows], dtype=bool).reshape(-1, 1)

    def median(self):
        return np.array([d.median() for d in self.rows]).reshape(-1, 1)

    def _moments(self):
        mv = np.array([d._moments() for d in self.rows]).reshape(-1, 2)  # (0, 2) for no rows
        return mv[:, :1], mv[:, 1:]

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
        return _match(_special.ndtr((_as_array(y) - self.mu) / self.sigma))

    has_density = True

    def density(self, y):
        z = (_as_array(y) - self.mu) / self.sigma
        return _match(np.exp(-0.5 * z * z) / (self.sigma * np.sqrt(2.0 * np.pi)))

    def _clamps(self, link):
        return link.value != "probit"

    def _link_cdf(self, link, y, left=False, slope=False):
        if self._clamps(link):
            return super()._link_cdf(link, y, left, slope)
        # ndtri(ndtr(z)) is z, finite at every finite y, so nothing clamps and dz/dy is
        # 1/sigma; z is held at +-1e100 at y = +-inf, where a zero weight must add 0
        z = np.clip((_as_array(y) - self.mu) / self.sigma, -1e100, 1e100)
        never = np.zeros(z.shape, dtype=bool)
        return z, np.broadcast_to(1.0 / self.sigma, z.shape) if slope else None, never, never

    def _quantile(self, p):
        return self.mu + self.sigma * _special.ndtri(p)

    _closed_points = _quantile

    def median(self):
        return self.mu

    def _moments(self):
        return self.mu, self.sigma * self.sigma


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

    def _cdf(self, y, below):
        """Mass of the atoms <= y (``below`` is np.less_equal) or < y (np.less).

        One pass per atom, in ascending order: where atom a is below y, the mass
        so far becomes the cumulative mass through a, so the last atom below y
        sets it.  The arrays stay the shape of y, with no axis over the atoms.
        """
        y = _as_array(y)
        acc = 0.0
        for a, atom in enumerate(self.atoms):
            acc = np.where(below(atom, y), self._cum[..., a + 1], acc)
        return _match(acc)

    cdf = partialmethod(_cdf, below=np.less_equal)
    cdf_left = partialmethod(_cdf, below=np.less)

    def support(self):
        return (self.atoms[0], self.atoms[-1])

    def atom_locations(self):
        return np.hstack(self.atoms)

    _step_cdf = True

    def _quantile(self, p):
        # the first atom whose cumulative mass reaches p
        return self._lookup(self._atoms, (self._cum[..., 1:] < p[..., None]).sum(axis=-1))

    def _total(self, x):
        """The sum over atoms of mass times x, in atom order: an (n, 1) column when stacked."""
        s = np.cumsum(np.stack(self.masses, axis=-1) * x, axis=-1)[..., -1]
        return s if self._rows() is not None else float(s)

    def _moments(self):
        m = self._total(self._atoms)
        return m, self._total((self._atoms - np.expand_dims(m, -1)) ** 2)


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

    def _sum(self, method: str, y):
        """sum_i w_i times component i's ``method`` at y."""
        return _match(sum(w * _as_array(getattr(c, method)(y))
                          for w, c in zip(self.weights, self.components)))

    cdf = partialmethod(_sum, "cdf")
    cdf_left = partialmethod(_sum, "cdf_left")

    def _parts(self):
        return self.components

    def density(self, y):
        if not self.has_density:
            raise DensityUnavailable("a mixture component carries point masses")
        return self._sum("density", y)

    def _closed_points(self, levels):
        # F = sum w_i F_i is at most p where every weighted part is at most p / sum w_i
        part = levels / sum(self.weights)
        ends = np.broadcast_arrays(*[np.where(w > 0.0, c._closed_points(part), [np.inf, -np.inf])
                                     for w, c in zip(self.weights, self.components)])
        return np.stack([np.min(ends, axis=0)[..., 0], np.max(ends, axis=0)[..., 1]], axis=-1)

    def _moments(self):
        # the law of total variance, from one (mean, variance) pair per component
        mv = [c._moments() for c in self.components]
        m = sum(w * mi for w, (mi, _) in zip(self.weights, mv))
        return m, sum(w * (vi + (mi - m) ** 2) for w, (mi, vi) in zip(self.weights, mv))


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

    def _pulled(self, method: str, y):
        """The base's ``method`` at the pullback of y."""
        return _match(_as_array(getattr(self.base, method)(self._pullback(y))))

    cdf = partialmethod(_pulled, "cdf")
    cdf_left = partialmethod(_pulled, "cdf_left")

    def _parts(self):
        return (self.base,)

    def density(self, y):
        return _match(self._pulled("density", y) / self.c)

    def support(self):
        return tuple(self._pushforward(x) for x in self.base.support())  # keeps +-inf

    def atom_locations(self):
        return self._pushforward(self.base.atom_locations())

    # not a step function between its atoms: the pullback of a point near a pushed-forward
    # atom can land on the other side of the base's atom by rounding
    _step_cdf = False

    def _quantile(self, p):
        return self._pushforward(_as_array(self.base.quantile(p)))

    def median(self):
        return self._pushforward(self.base.median())

    def _closed_points(self, levels):
        return self._pushforward(self.base._closed_points(levels))

    def _moments(self):
        m, v = self.base._moments()
        return self._pushforward(m), self.c * self.c * v


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
        top = np.minimum(_as_array(self.base.cdf(np.inf)), 1.0)  # a stacked base's is a column
        return top if top.ndim else float(top)

    def _u(self, base_cdf) -> np.ndarray:
        # clipped to [0, 1]: a mixture's CDF can pass 1 by rounding, and betainc returns nan there
        return np.clip(_as_array(base_cdf) / self._top, 0.0, 1.0)

    def _cdf(self, method: str, y):
        """B applied to the base's ``method`` at y: the CDF or its left limit."""
        u = self._u(getattr(self.base, method)(y))
        return _match(_special.betainc(self.alpha, self.beta, u))

    cdf = partialmethod(_cdf, "cdf")
    cdf_left = partialmethod(_cdf, "cdf_left")

    def _closed_points(self, levels):
        # B is nondecreasing, so the base ratio crosses each level where B's exact inverse is
        u = np.vectorize(_beta_levels_at, otypes=[float, float])(
            self.alpha, self.beta, levels[..., :1], levels[..., 1:])
        return self.base._closed_points(np.concatenate(u, axis=-1) * self._top)

    def _parts(self):
        return (self.base,)

    def density(self, y):
        g = _as_array(self.base.density(y)) / self._top
        u = _as_array(self.base.cdf(y)) / self._top
        with np.errstate(invalid="ignore", over="ignore"):
            out = np.where(g > 0.0, _beta_pdf(u, self.alpha, self.beta) * g, 0.0)
        return _match(out)

    def _quantile(self, p):
        u = _special.betaincinv(self.alpha, self.beta, p)
        if not np.all((u > 0.0) & (u < 1.0)):
            bad = np.broadcast_to(p, np.shape(u))[~((u > 0.0) & (u < 1.0))]
            raise DomainViolation(f"{type(self).__name__} quantile level {float(bad[0])!r} "
                                  "rounds to a base level of 0 or 1")
        return _as_array(self.base.quantile(u * self._top))


def validate_cdf(d: PredictiveDist, grid=None) -> None:
    """Check the CDF contract on a grid plus atom locations.

    Verifies monotonicity, range [0, 1], tail limits, right continuity at
    atoms, and ``cdf_left <= cdf``.  Raises CdfPoolError on violation.  A
    stacked object is checked case by case, and an error names its row.
    """
    if d._rows() is not None:
        for i in range(d._rows()):
            try:
                validate_cdf(d._take(i), grid)
            except CdfPoolError as e:
                raise type(e)(f"row {i}: {e}") from e
        return
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
