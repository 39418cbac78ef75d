"""Young functions and their multiplicative calculus.

A Young function here is a non-decreasing, left-continuous map
``phi: [0, inf) -> [0, inf]`` with ``phi(0) = 0`` that is neither
identically zero nor identically infinite.  Two derived quantities are
cached on every descriptor:

* ``a_phi``: the largest argument where the function still vanishes,
* ``b_phi``: the supremum of the finite domain.

The calculus consists of the infimal product splitting

    (phi1 (+) phi2)(u) = inf over u = v * w of phi1(v) + phi2(w)

and its partial inverse

    (phi (-) phi1)(u) = sup over v of phi(u * v) - phi1(v),

A (+) of two power atoms is a power atom by the Hoelder rule

    c1 u^p (+) c2 u^q = K u^r,  1/r = 1/p + 1/q,
    K = (p + q) (c1/q)^(q/(p+q)) (c2/p)^(p/(p+q)),

the Young-function side of L^p . L^q = L^r (kept where r >= 1), and a
(-) of two power atoms with q > p is one by the multiplier rule

    c u^p (-) c1 u^q = K u^r,  1/r = 1/p - 1/q,
    K = c (1 - p/q) (p c / (q c1))^(p/(q-p)),

the Young-function side of M(L^q, L^p) = L^r (r >= p >= 1 always); both
are ``_as_power``, kept where K is finite and positive.  For q < p the
(-) is infinite at every u > 0, which is no Young function, so ``Ominus``
rejects that pair; for q = p it is a step, left to the scan.  Every other
(+) and (-) is evaluated for every cell of an argument array at once: one
512-point log-grid scan per cell, symmetric for (+), widened past a
window end where the values still fall there, then rescans of the
bracket around each cell's best point on a grid of the same size until
it is 1e-10 narrow in log (about four rescans).  Cells go in blocks of
bounded size.  Convexity is not guaranteed for these two node kinds, so
sampled convexity checks exempt them.

Inverses are right-continuous: ``inverse(phi, v) = inf { u : phi(u) > v }``,
computed in closed form for power atoms (a (+) or (-) of two powers
among them) and otherwise by ``_threshold``, the one bracket search,
which the Luxemburg gauges of :mod:`bfslab.spaces` share.  It runs many
rows in lockstep and narrows each bracket by safeguarded secant steps of
the Illinois kind on (log t, log residual), falling back to the
geometric midpoint; it returns the bracket's upper end.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Power",
    "ShiftedPower",
    "Capped",
    "YoungSum",
    "YoungMax",
    "Oplus",
    "Ominus",
    "YoungFunction",
    "oplus",
    "ominus",
    "inverse",
    "inverse_batch",
    "RelationCertificate",
    "check_relation",
    "check_condition_power_bound",
    "is_midpoint_convex_sampled",
    "young_to_json",
    "young_from_json",
]

_OPLUS_GRID = 512
_UNIT = np.linspace(0.0, 1.0, _OPLUS_GRID)
_SCAN_POINTS = 1 << 13  # grid points per block of ⊕/⊖ cells (16 cells): bounds the memory of one call
_SPLIT_RTOL = 1e-10
_INV_RTOL = 1e-12
_RELATION_CAP = 1e8
_UNBOUNDED = 1e30
_TINY = 5e-324  # the smallest positive float: where a downward bracket search stops
_V_RANGE = (1e-300, 1e300)  # how far a scan window may widen


class _YoungBase:
    """Shared evaluation helpers for all Young descriptors."""

    @property
    def a_phi(self) -> float:
        raise NotImplementedError

    @property
    def b_phi(self) -> float:
        raise NotImplementedError

    def __call__(self, u):
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        if np.any(u_arr < 0):
            raise ValueError("Young functions take nonnegative arguments")
        out = self._eval(u_arr)
        return out if np.ndim(u) else float(out[0])

    def _eval(self, u: np.ndarray) -> np.ndarray:
        """Values at a float array of any shape, unchecked (``__call__`` checks)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Power(_YoungBase):
    """``c * u**p`` with ``p >= 1``; the convex power atom."""

    c: float = 1.0
    p: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError("c must be positive and finite")
        if not (math.isfinite(self.p) and self.p >= 1):
            raise ValueError("p must be >= 1")

    @property
    def a_phi(self) -> float:
        return 0.0

    @property
    def b_phi(self) -> float:
        return math.inf

    def _eval(self, u):
        return self.c * u**self.p

    def inverse_exact(self, v: float) -> float:
        if v == math.inf:
            return math.inf
        return (v / self.c) ** (1.0 / self.p)


@dataclass(frozen=True)
class ShiftedPower(_YoungBase):
    """``c * max(0, u - a)**p``: vanishes on ``[0, a]``."""

    a: float
    c: float = 1.0
    p: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a >= 0):
            raise ValueError("a must be nonnegative and finite")
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError("c must be positive and finite")
        if not (math.isfinite(self.p) and self.p >= 1):
            raise ValueError("p must be >= 1")

    @property
    def a_phi(self) -> float:
        return self.a

    @property
    def b_phi(self) -> float:
        return math.inf

    def _eval(self, u):
        return self.c * np.maximum(0.0, u - self.a) ** self.p

    def inverse_exact(self, v: float) -> float:
        if v == math.inf:
            return math.inf
        return self.a + (v / self.c) ** (1.0 / self.p)


@dataclass(frozen=True)
class Capped(_YoungBase):
    """``inner(u)`` for ``u <= b`` and infinity beyond.

    Left-continuity at the cap holds because the inner function is
    continuous there; ``phi(b_phi)`` stays finite.
    """

    inner: "YoungFunction"
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.b) and self.b > 0):
            raise ValueError("the domain cap b must be positive and finite")

    @property
    def a_phi(self) -> float:
        return min(self.inner.a_phi, self.b)

    @property
    def b_phi(self) -> float:
        return min(self.b, self.inner.b_phi)

    def _eval(self, u):
        return np.where(u > self.b, math.inf, self.inner._eval(u))


@dataclass(frozen=True)
class YoungSum(_YoungBase):
    """Pointwise sum of Young functions."""

    terms: tuple

    def __post_init__(self):
        if len(self.terms) < 2:
            raise ValueError("need at least two terms")

    @property
    def a_phi(self) -> float:
        return min(t.a_phi for t in self.terms)

    @property
    def b_phi(self) -> float:
        return min(t.b_phi for t in self.terms)

    def _eval(self, u):
        out = np.zeros_like(u)
        for t in self.terms:
            out = out + t._eval(u)
        return out


@dataclass(frozen=True)
class YoungMax(_YoungBase):
    """Pointwise maximum of Young functions."""

    terms: tuple

    def __post_init__(self):
        if len(self.terms) < 2:
            raise ValueError("need at least two terms")

    @property
    def a_phi(self) -> float:
        return min(t.a_phi for t in self.terms)

    @property
    def b_phi(self) -> float:
        return min(t.b_phi for t in self.terms)

    def _eval(self, u):
        out = self.terms[0]._eval(u)
        for t in self.terms[1:]:
            out = np.maximum(out, t._eval(u))
        return out


def _structure_key(phi: "YoungFunction") -> str:
    """Deterministic structural key used to canonicalise commutative
    nodes (so swapped operands evaluate through the same code path)."""
    return json.dumps(young_to_json(phi), sort_keys=True)


def _at(fn, v: float) -> float:
    """``fn`` at the one point ``v``, for an array function ``fn``."""
    return float(fn(np.array([v]))[0])


def _log_grid(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Row i: ``_OPLUS_GRID`` points evenly spaced in log over [lo[i], hi[i]],
    with both ends exact."""
    la = np.log(lo)[:, None]
    grid = np.exp(la + (np.log(hi)[:, None] - la) * _UNIT)
    grid[:, 0], grid[:, -1] = lo, hi
    return grid


def _log_scan(obj, u: np.ndarray, lo: np.ndarray, hi: np.ndarray, floor=None, ceil=None):
    """``obj(v, u)`` on the log grid of each cell's window [lo, hi] (one
    window may serve every cell): the values, each cell's argmin k, the
    bracket of k's neighbours, and the grid (broadcast to the values).

    Given the domain [floor, ceil] of v (arrays or floats), a cell whose
    values fall strictly to a window end inside the domain and ``_V_RANGE``
    is scanned again on its window doubled in log width past that end,
    until its argmin is interior or at a bound.  Other cells are scanned
    once.
    """
    grid = _log_grid(lo, hi)
    vals = obj(grid, u[:, None])
    grid = np.broadcast_to(grid, vals.shape)
    k = vals.argmin(-1)
    while floor is not None and ((k == 0) | (k == _OPLUS_GRID - 1)).any():
        lo_lim = np.broadcast_to(np.maximum(floor, _V_RANGE[0]), u.shape)
        hi_lim = np.broadcast_to(np.minimum(ceil, _V_RANGE[1]), u.shape)
        down = (k == 0) & (vals[:, 0] < vals[:, 1]) & (grid[:, 0] > lo_lim)
        up = (k == _OPLUS_GRID - 1) & (vals[:, -1] < vals[:, -2]) & (grid[:, -1] < hi_lim)
        rows = np.flatnonzero(down | up)
        if not rows.size:
            break
        a, b = grid[rows, 0], grid[rows, -1]
        span = np.maximum(b / a, 2.0)
        a = np.where(down[rows], np.maximum(a / span, lo_lim[rows]), a)
        b = np.where(up[rows], np.minimum(b * span, hi_lim[rows]), b)
        if not grid.flags.writeable:
            grid = grid.copy()
        grid[rows] = _log_grid(a, b)
        vals[rows] = obj(grid[rows], u[rows, None])
        k[rows] = vals[rows].argmin(-1)
    r = np.arange(k.size)
    return vals, k, grid[r, np.maximum(k - 1, 0)], grid[r, np.minimum(k + 1, _OPLUS_GRID - 1)], grid


def _rescan(obj, u: np.ndarray, best: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``best`` lowered to the least value of ``obj`` found by rescanning
    each cell's bracket [lo, hi] on the same grid size, around the new
    argmin each time, until the bracket is ``_SPLIT_RTOL`` narrow in log.

    Each rescan narrows a bracket by a factor of at least 255, so about
    four follow the first scan; the loop ends because that tolerance is
    far above the float spacing.
    """
    best = best.copy()
    rows = np.arange(best.size)
    while rows.size:
        la, lb = np.log(lo), np.log(hi)
        wide = lb - la > _SPLIT_RTOL * np.maximum(1.0, np.maximum(np.abs(la), np.abs(lb)))
        rows, lo, hi = rows[wide], lo[wide], hi[wide]
        if rows.size:
            vals, k, lo, hi, _ = _log_scan(obj, u[rows], lo, hi)
            best[rows] = np.minimum(best[rows], vals[np.arange(rows.size), k])
    return best


def _hoelder(p: float, q: float) -> float:
    """``r`` with ``1/r = 1/p + 1/q``, taking ``1/inf = 0``: the exponent
    of ``L^p . L^q`` and of ``u^p (+) u^q``."""
    inv = 1.0 / p + 1.0 / q
    return math.inf if inv == 0.0 else 1.0 / inv


def _as_power(phi: "YoungFunction") -> "Power | None":
    """``phi`` as one power atom, or None.

    A ``ShiftedPower`` with shift 0 is the atom ``c u^p``.  A (+) of two
    nodes that are power atoms (after this same collapse) is ``K u^r`` by
    the Hoelder rule in the module docstring, where r >= 1; a (-) of two
    such nodes with q > p is ``K u^r`` by the multiplier rule.  Either
    counts when K is finite and positive.  A (+) pair is
    read from ``Oplus._children``, so swapped operands give the same atom
    bit for bit.
    """
    if isinstance(phi, Power):
        return phi
    if isinstance(phi, ShiftedPower) and phi.a == 0.0:
        return Power(phi.c, phi.p)
    if not isinstance(phi, (Oplus, Ominus)):
        return None
    f, g = (_as_power(c) for c in (phi._children if isinstance(phi, Oplus) else (phi.phi, phi.phi1)))
    if f is None or g is None:
        return None
    p, q = f.p, g.p
    try:
        if isinstance(phi, Oplus):
            r, s = _hoelder(p, q), p + q
            K = s * (f.c / q) ** (q / s) * (g.c / p) ** (p / s)
        elif q > p:
            # (p/q)^e through log1p: its error stays at the rounding level
            # however close q is to p, where e = p/(q-p) grows without bound
            e = p / (q - p)
            r = q * e
            K = f.c * ((q - p) / q) * (f.c / g.c) ** e * math.exp(-e * math.log1p((q - p) / p))
        else:
            return None
    except OverflowError:  # K past the float range
        return None
    return Power(K, r) if 1.0 <= r < math.inf and 0.0 < K < math.inf else None


class _Splitting(_YoungBase):
    """⊕ and ⊖ nodes: one grid search per cell, all cells of a block at once.

    ``_cells`` maps a flat block of arguments to values; ``_eval`` feeds
    it blocks of at most ``_SCAN_POINTS / _OPLUS_GRID`` cells, so memory
    stays bounded however large the argument array is.  A cell's value
    depends on that cell alone.
    """

    def _eval(self, u):
        flat = u.ravel()
        out = np.empty(flat.size)
        step = _SCAN_POINTS // _OPLUS_GRID
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for s in range(0, flat.size, step):
                out[s : s + step] = self._cells(flat[s : s + step])
        return out.reshape(u.shape)

    def _cells(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Oplus(_Splitting):
    """Infimal product splitting of two Young functions.

    Two power atoms (or nodes that collapse to them) give a power atom by
    the Hoelder rule, ``c1 u^p (+) c2 u^q = K u^r`` with 1/r = 1/p + 1/q,
    where r >= 1 (``_as_power``).  Any other pair minimises
    ``phi1(v) + phi2(u / v)`` over a log grid that is symmetric under
    ``v -> u / v``, followed by rescans around the best point.  Both read
    the operands in ``_children`` order, so the operation is exactly
    commutative.  Not convex in general; exempt from convexity checks.
    """

    phi1: "YoungFunction"
    phi2: "YoungFunction"

    @cached_property
    def _children(self) -> tuple:
        a, b = self.phi1, self.phi2
        if _structure_key(a) > _structure_key(b):
            a, b = b, a
        return a, b

    @property
    def a_phi(self) -> float:
        return self.phi1.a_phi * self.phi2.a_phi

    @property
    def b_phi(self) -> float:
        b1, b2 = self.phi1.b_phi, self.phi2.b_phi
        if math.isinf(b1) or math.isinf(b2):
            return math.inf
        return b1 * b2

    def eval_scalar(self, u: float) -> float:
        return _at(self._eval, u)

    def _cells(self, u):
        power = _as_power(self)
        if power is not None:
            return power._eval(u)
        f, g = self._children
        zero = (u == 0.0) | (u <= self.a_phi)
        out = np.where(zero, 0.0, np.where(u > self.b_phi, math.inf, u))  # NaN stays NaN
        live = np.flatnonzero(~zero & (u <= self.b_phi))
        if not live.size:
            return out
        u = u[live]
        b1, b2 = f.b_phi, g.b_phi
        scale = np.sqrt(u)  # u > 0 here, so lo > 0 below
        lo = np.maximum(scale * 1e-9, u / b2)
        hi = scale * 1e9 if math.isinf(b1) else np.full(u.size, b1)
        flip = hi <= lo
        lo, hi = np.where(flip, hi * 0.5, lo), np.where(flip, lo * 2.0, hi)
        # Symmetrise the window under v -> u / v so swapped operands
        # scan the identical candidate set.
        lo, hi = np.minimum(lo, u / hi), np.maximum(hi, u / lo)

        def obj(v, u):
            w = u / v
            return np.where((v <= b1) & (w <= b2), f._eval(v) + g._eval(w), math.inf)

        vals, k, blo, bhi, _ = _log_scan(obj, u, lo, hi, u / b2, b1)
        best = vals[np.arange(u.size), k]
        # Boundary candidates where one factor sits exactly at its
        # vanishing threshold.
        cands = [np.full(u.size, f.a_phi)] if f.a_phi else []
        if g.a_phi > 0:
            cands.append(u / g.a_phi)
        for v in cands:
            inside = (lo <= v) & (v <= hi)
            best = np.where(inside, np.minimum(best, obj(v[:, None], u[:, None])[:, 0]), best)
        fin = np.flatnonzero(np.isfinite(best))
        best[fin] = _rescan(obj, u[fin], best[fin], blo[fin], bhi[fin])
        out[live] = best
        return out


@dataclass(frozen=True)
class Ominus(_Splitting):
    """Partial inverse of the infimal splitting:
    ``sup over v of phi(u * v) - phi1(v)`` (v with ``phi1(v)`` finite).

    A supremum of convex functions of u, hence convex.  Two power atoms
    ``c u^p`` and ``c1 u^q`` (or nodes that collapse to them) with q > p
    give a power atom by the multiplier rule, ``K u^r`` with
    1/r = 1/p - 1/q (``_as_power``); with q < p the supremum is infinite
    at every u > 0, and construction raises ``ValueError``.  Any other
    pair, q = p among them, scans a log grid of v.  Where b(phi) is
    finite, the value is finite exactly up to b_phi = b(phi) / b(phi1)
    (construction rejects b(phi1) = inf: +inf at every u > 0).  Else it
    may be infinite from some threshold on, which the scan detects by
    explosive growth at the window edge.  ``a_phi``, and ``b_phi`` there,
    come from ``_threshold`` on [1e-8, 1e8].
    """

    phi: "YoungFunction"
    phi1: "YoungFunction"

    def __post_init__(self):
        f, g = _as_power(self.phi), _as_power(self.phi1)
        why = None
        if f is not None and g is not None and f.p > g.p:
            why = f"the power {f.p:g} exceeds {g.p:g}"
        elif math.isfinite(self.phi.b_phi) and math.isinf(self.phi1.b_phi):
            why = "the first has a bounded domain, the second does not"
        if why:
            raise ValueError(f"{self.phi!r} (-) {self.phi1!r} is infinite at every u > 0: {why}")

    @cached_property
    def _ab(self) -> tuple[float, float]:
        if _as_power(self) is not None:
            return 0.0, math.inf
        bp = self.phi.b_phi
        b = bp / self.phi1.b_phi if math.isfinite(bp) else None
        # the least u in [1e-8, 1e8] where the value is > 0 and, unless b
        # is known, where it is infinite; 1e8 and inf where it never is
        tests = [(lambda x: x > 0.0, 1e8)] + ([(np.isinf, math.inf)] if b is None else [])
        ends = self._eval(np.array([1e-8, 1e8]))
        out = [0.0 if test(ends[0]) else None if test(ends[1]) else never for test, never in tests]
        rows = [i for i, x in enumerate(out) if x is None]

        def probe(idx, t):
            return [tests[rows[i]][0](x) for i, x in zip(idx, self._eval(t))], [math.nan] * len(idx)

        for i, x in zip(rows, _threshold(probe, [1e8] * len(rows), _INV_RTOL, [1e-8] * len(rows))):
            out[i] = float(x)
        return (out[0], out[1]) if b is None else (min(out[0], b), b)

    @property
    def a_phi(self) -> float:
        return self._ab[0]

    @property
    def b_phi(self) -> float:
        return self._ab[1]

    def eval_scalar(self, u: float) -> float:
        return _at(self._eval, u)

    def _cells(self, u):
        power = _as_power(self)
        if power is not None:
            return power._eval(u)
        phi, phi1 = self.phi, self.phi1
        b1, bp = phi1.b_phi, phi.b_phi
        # b_phi by its rule (the property also searches a_phi, through these cells)
        b = bp / b1 if math.isfinite(bp) else math.inf
        out = np.where(u == 0.0, 0.0, np.where(u > b, math.inf, u))  # NaN stays NaN
        live = np.flatnonzero((u != 0.0) & (u <= b))
        if not live.size:
            return out
        u = u[live]
        lo, hi = 1e-8, min(b1, 1e8)
        if hi <= lo:
            hi = lo * 10.0

        def obj(v, u):
            # the supremum as a minimum: phi1(v) - phi(u*v), where phi1 is finite
            g1 = phi1._eval(v)
            return np.where(np.isfinite(g1), g1 - phi._eval(u * v), math.inf)

        # one first window for every cell: phi1 is evaluated on a single grid row
        neg, k, blo, bhi, grid = _log_scan(obj, u, np.array([lo]), np.array([hi]), 0.0, b1)
        r = np.arange(u.size)
        low = neg[r, k]
        unbounded = low == -math.inf
        if math.isinf(b1):
            # Unbounded growth: a strict fall over the last two steps to the
            # row's last finite value (at the end of the widest window, or
            # where phi1 or phi overflows).
            last = _OPLUS_GRID - 1 - np.isfinite(neg[:, ::-1]).argmax(-1)
            edge = (k == last) & (k >= 2) & (neg[r, k - 2] > neg[r, k - 1]) & (neg[r, k - 1] > low)
            big = (-low > _UNBOUNDED) | (-low > 1e3 * np.maximum(np.abs(neg[:, _OPLUS_GRID // 2]), 1e-300))
            unbounded |= edge & big
        fin = np.flatnonzero(~unbounded & np.isfinite(low))
        low[fin] = _rescan(obj, u[fin], low[fin], blo[fin], bhi[fin])
        # each other sampled local minimum may hide a deeper valley (a
        # positive region narrower than a grid step) between its neighbours
        dip = np.zeros(neg.shape, dtype=bool)
        dip[:, 1:-1] = (neg[:, 1:-1] < neg[:, :-2]) & (neg[:, 1:-1] <= neg[:, 2:])
        dip[r, k] = False
        cell, j = np.nonzero(dip[fin])
        if cell.size:
            cell = fin[cell]
            np.minimum.at(low, cell, _rescan(obj, u[cell], low[cell], grid[cell, j - 1], grid[cell, j + 1]))
        out[live] = np.where(unbounded, math.inf, np.where(low < 0.0, -low, 0.0))
        return out


YoungFunction = _YoungBase


def oplus(phi1: YoungFunction, phi2: YoungFunction) -> Oplus:
    """Infimal product splitting node."""
    return Oplus(phi1, phi2)


def ominus(phi: YoungFunction, phi1: YoungFunction) -> Ominus:
    """Residual splitting node (the calculus partial inverse)."""
    return Ominus(phi, phi1)


def _log(x: float) -> float:
    """``log x`` for a level ``x >= 0``, with ``-inf`` at 0."""
    return math.log(x) if x > 0.0 else -math.inf


def _stale_factor(r: float, r_prev: float) -> float:
    """The Anderson-Bjorck factor for the residual at a bracket end that
    a secant step left in place twice: 1 - r / r_prev, or 1/2 (Illinois)
    when that is not in (0, 1)."""
    m = 1.0 - r / r_prev if r_prev else 0.5
    return m if 0.0 < m < 1.0 else 0.5


class _Bracket:
    """One row of ``_threshold``: its bracket, the residuals at its ends,
    and the point ``t`` it asks about next."""

    __slots__ = ("lo", "hi", "r_lo", "r_hi", "stage", "step", "side", "widths", "t")

    def __init__(self, hi: float, floor: float | None):
        self.lo, self.hi = floor, hi
        self.r_lo = self.r_hi = math.nan
        self.stage, self.t = ("up", hi) if floor is None else ("floor", floor)
        self.step = 2.0  # bracketing factor, squared after every move
        self.side = None
        self.widths = (math.inf,) * 3

    def update(self, above: bool, r: float, rtol: float) -> float | None:
        """Take the verdict at ``t``: the row's result once it is settled,
        else None with the next ``t`` set."""
        t = self.t
        if self.stage == "floor":
            if above:  # the floor is the result if the predicate fails just below it
                self.hi, self.r_hi, self.stage = t, r, "down"
                self.t = t * (1.0 - 0.5 * rtol)
            else:
                self.lo, self.r_lo, self.stage, self.t = t, r, "up", self.hi
            return None
        if self.stage != "search":
            if not above and self.stage == "up":
                if t * 2.0 == math.inf:
                    return math.inf
                self.t = self.hi = self._move(t, r, self.lo, self.r_lo, rtol, up=True)
                self.lo, self.r_lo = t, r
                return None
            if above and (self.stage == "down" or self.lo is None):
                if t <= _TINY:
                    return t
                self.t = self._move(t, r, self.hi if self.stage == "down" else None, self.r_hi, rtol, up=False)
                self.hi, self.r_hi, self.stage = t, r, "down"
                return None
            self.stage = "search"
        if above:
            if self.side == "hi":  # the stale end's residual shrinks (Anderson-Bjorck)
                self.r_lo *= _stale_factor(r, self.r_hi)
            self.hi, self.r_hi, self.side = t, r, "hi"
        else:
            if self.side == "lo":
                self.r_hi *= _stale_factor(r, self.r_lo)
            self.lo, self.r_lo, self.side = t, r, "lo"
        return self._next(rtol)

    def _move(self, t: float, r: float, t0, r0: float, rtol: float, up: bool) -> float:
        """The next bracketing point beyond ``t``: the zero of the secant
        through (t0, r0) and (t, r), extrapolated 10 % further, where it
        lies beyond ``t`` within the square of the current factor; else
        ``t`` moved by that factor."""
        far = t * self.step if up else t / self.step
        if up and far == math.inf:
            far = t * 2.0
        # a stop at 1e-300 first keeps the path of every search that ends above it
        far = max(far, 1e-300 if t > 1e-300 else _TINY)
        self.step *= self.step
        if t0 is not None and r != r0 and math.isfinite(r) and math.isfinite(r0):
            x = math.log(t)
            d = 1.1 * r * (x - math.log(t0)) / (r - r0)  # the distance ahead, in log
            d = -d if up else d
            y = x + max(d, rtol) if up else x - max(d, rtol)
            if 0.0 < d < 2.0 * abs(math.log(far) - x) and -690.0 < y < 709.0:
                return math.exp(y)
        return far

    def _next(self, rtol: float) -> float | None:
        lo, hi = self.lo, self.hi
        if hi - lo <= max(rtol * hi, _TINY):
            return hi
        la, lb = math.log(lo), math.log(hi)
        w = lb - la
        x = 0.5 * (la + lb)
        rl, rh = self.r_lo, self.r_hi
        # secant unless the last three steps failed to halve the bracket,
        # a residual is infinite or NaN, or the ends do not straddle; a 0
        # at one end puts the secant point on that end, and the clamp
        # below then tests just inside it
        if w <= 0.5 * self.widths[0] and rl * rh <= 0.0 and rl != rh and math.isfinite(rl * rh):
            s = lb - rh * w / (rh - rl)
            if la <= s <= lb:
                # a little toward the stale end, so an accurate step lands
                # there and the next one closes the bracket
                x = s - 0.4 * rtol if self.side == "hi" else s + 0.4 * rtol if self.side == "lo" else s
        self.widths = self.widths[1:] + (w,)
        # at least rtol/2 inside each end: a step that lands on the
        # threshold is followed by one that closes the bracket
        d = max(0.5 * rtol * lo, _TINY)
        self.t = min(max(math.exp(x), lo + d), hi - d)
        return None


def _threshold(probe, hi, rtol: float, floor=None) -> np.ndarray:
    """Per row, the least ``t > 0`` where the row's predicate holds, for
    predicates that are false below some point and true above it.

    ``probe(rows, t)`` evaluates rows ``rows`` at their points ``t`` (two
    arrays) at once and returns, per row, the verdict and a residual:
    ``log`` of the level the predicate compares, minus ``log`` of its
    threshold level.  Rows advance in lockstep, one ``probe`` call per
    step, and each row's arithmetic is its own, so a row's result does
    not depend on the other rows.

    ``hi`` and ``floor`` hold a start per row.  A row with a floor (a
    guess below ``hi`` where the predicate should fail just below) tries
    it first: the floor is the result if the predicate holds there and
    fails just below; else the search goes on from there.  From ``hi`` the
    bracket grows up until the predicate holds (infinity if doubling
    would overflow first) and, without a point where it fails, down until
    it fails: each move goes to the zero of the secant through the last
    two points, when that lies ahead, else by a factor 2, 4, 16, ....
    Then each step narrows the bracket by a safeguarded secant step on
    (log t, residual), of the Illinois kind: an end that two steps in a
    row left in place has its residual scaled down (by the
    Anderson-Bjorck factor, or by 1/2), and the point is nudged 0.4 rtol
    toward that end.  The step is the geometric midpoint instead when a
    residual is infinite or NaN, the ends do not straddle 0, the secant
    point leaves the bracket, or the last three steps did not halve it.
    A row ends once its bracket is ``rtol`` narrow, with the bracket's
    upper end, where the predicate holds.
    """
    rows = [_Bracket(float(h), None if floor is None else float(floor[i])) for i, h in enumerate(hi)]
    out = np.empty(len(rows))
    live = list(range(len(rows)))
    while live:
        above, resid = probe(np.array(live), np.array([rows[i].t for i in live]))
        nxt = []
        for i, a, r in zip(live, above, resid):
            res = rows[i].update(a, r, rtol)
            if res is None:
                nxt.append(i)
            else:
                out[i] = res
        live = nxt
    return out


def _inverse(phi: YoungFunction, v: np.ndarray) -> np.ndarray:
    """``inf { u : phi(u) > v }`` for every target of the flat array ``v``."""
    phi = _as_power(phi) or phi
    if isinstance(phi, (Power, ShiftedPower)):
        return np.array([phi.inverse_exact(x) for x in v.tolist()])
    if isinstance(phi, Capped):
        return np.minimum(_inverse(phi.inner, v), phi.b_phi)
    a, b = phi.a_phi, phi.b_phi
    out = np.where(v == math.inf, b, math.nan)
    if a > 0.0:
        out[v == 0.0] = a
    if math.isfinite(b):
        out[np.isnan(out) & (_at(phi._eval, b) <= v)] = b
    rows = np.flatnonzero(np.isnan(out) & ~np.isnan(v))
    if rows.size:
        vr = v[rows]

        def probe(idx, u):
            ph = phi._eval(u).tolist()
            vs = vr[idx].tolist()
            return [p > t for p, t in zip(ph, vs)], [_log(p) - _log(t) for p, t in zip(ph, vs)]

        hi = b if math.isfinite(b) else max(2.0 * a, 1.0)
        out[rows] = _threshold(probe, [hi] * rows.size, _INV_RTOL, [a] * rows.size if a > 0.0 else None)
    return out


def inverse(phi: YoungFunction, v: float) -> float:
    """Right-continuous inverse ``inf { u >= 0 : phi(u) > v }``.

    Saturates at ``b_phi`` when the target exceeds the essential range;
    ``inverse(phi, 0)`` is ``a_phi``.  Closed form for power atoms,
    otherwise ``_threshold`` to relative tolerance 1e-12.
    """
    if v < 0:
        raise ValueError("inverse takes nonnegative targets")
    return float(_inverse(phi, np.array([float(v)]))[0])


def inverse_batch(phi: YoungFunction, targets: np.ndarray) -> np.ndarray:
    """Inverse at every target, as a flat array; the numeric searches of
    all targets run in lockstep and each equals ``inverse`` bit for bit."""
    return _inverse(phi, np.asarray(targets, dtype=float).ravel())


@dataclass(frozen=True)
class RelationCertificate:
    """Outcome of a multiplicative inverse comparison.

    ``relation`` is one of ``prec``/``succ``/``equiv`` crossed with the
    regime ``all``/``large``/``small``.  ``holds`` carries the measured
    constants; a refuted certificate carries the witness argument where
    the required constant exploded past the search cap.
    """

    relation: str
    regime: str
    holds: bool
    C: float | None = None
    D: float | None = None
    u0: float | None = None
    witness_u: float | None = None
    sensitive: bool = False

    def verdict(self) -> str:
        return "holds" if self.holds else "refuted"


def check_relation(
    phi1: YoungFunction,
    phi2: YoungFunction,
    phi: YoungFunction,
    relation: str = "equiv",
    regime: str = "all",
    u_lo: float = 1e-6,
    u_hi: float = 1e6,
    samples: int = 2048,
    cap: float = _RELATION_CAP,
) -> RelationCertificate:
    """Compare ``inverse(phi1) * inverse(phi2)`` against ``inverse(phi)``.

    * ``prec``: a constant C > 0 exists with
      ``C * inv1 * inv2 <= inv`` on the regime,
    * ``succ``: a constant D exists with ``inv <= D * inv1 * inv2``,
    * ``equiv``: both.

    Regimes ``large`` / ``small`` search the smallest (resp. largest)
    threshold ``u0`` on the sample grid for which the constants stay
    under the cap, and flag sensitivity when the constant moves by more
    than 2x as the threshold shifts a decade.
    """
    if relation not in ("prec", "succ", "equiv"):
        raise ValueError("relation must be prec, succ or equiv")
    if regime not in ("all", "large", "small"):
        raise ValueError("regime must be all, large or small")
    grid = np.geomspace(u_lo, u_hi, samples)
    inv1 = inverse_batch(phi1, grid)
    inv2 = inverse_batch(phi2, grid)
    inv = inverse_batch(phi, grid)
    prod = inv1 * inv2
    ok = (prod > 0) & np.isfinite(prod) & (inv > 0) & np.isfinite(inv)
    if not ok.any():
        return RelationCertificate(relation, regime, False, witness_u=float(grid[0]))
    # needed_D bounds inv / prod from above; needed_invC bounds prod / inv.
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio_D = np.where(ok, inv / prod, -math.inf)
        ratio_C = np.where(ok, prod / inv, -math.inf)

    def regional(vals: np.ndarray) -> tuple[float, float | None, float | None, bool]:
        """Max over the regime; returns (constant, u0, witness, sensitive)."""
        if regime == "all":
            k = int(np.argmax(vals))
            return float(vals[k]), None, float(grid[k]), False
        if regime == "large":
            suffix = np.maximum.accumulate(vals[::-1])[::-1]
            feasible = np.nonzero(suffix <= cap)[0]
            if feasible.size == 0:
                k = int(np.argmax(vals))
                return float(vals[k]), None, float(grid[k]), False
            j = int(feasible[0])
            const = float(suffix[j])
            j10 = min(j + max(1, samples // 12), samples - 1)
            sens = suffix[j10] > 0 and const > 2.0 * float(suffix[j10])
            return const, float(grid[j]), None, bool(sens)
        prefix = np.maximum.accumulate(vals)
        feasible = np.nonzero(prefix <= cap)[0]
        if feasible.size == 0:
            k = int(np.argmax(vals))
            return float(vals[k]), None, float(grid[k]), False
        j = int(feasible[-1])
        const = float(prefix[j])
        j10 = max(j - max(1, samples // 12), 0)
        sens = prefix[j10] > 0 and const > 2.0 * float(prefix[j10])
        return const, float(grid[j]), None, bool(sens)

    C = D = None
    u0 = witness = None
    sens = False
    holds = True
    if relation in ("prec", "equiv"):
        invC, u0c, wit, s = regional(ratio_C)
        if invC > cap or not math.isfinite(invC):
            holds = False
            witness = wit if wit is not None else u0c
        else:
            C = 1.0 / invC
        u0 = u0c if u0c is not None else u0
        sens = sens or s
    if relation in ("succ", "equiv") and holds:
        Dv, u0d, wit, s = regional(ratio_D)
        if Dv > cap or not math.isfinite(Dv):
            holds = False
            witness = wit if wit is not None else u0d
        else:
            D = Dv
        if u0d is not None:
            u0 = u0d if u0 is None else (max(u0, u0d) if regime == "large" else min(u0, u0d))
        sens = sens or s
    return RelationCertificate(relation, regime, holds, C=C, D=D, u0=u0, witness_u=witness, sensitive=sens)


def check_condition_power_bound(
    phi: YoungFunction,
    s_samples: int = 96,
    t_samples: int = 48,
    cap: float = _RELATION_CAP,
) -> tuple[bool, float, float]:
    """Search for ``(C, alpha)`` with ``phi(s*t) <= C * t**alpha * phi(s)``
    for all s > 0 and 0 < t < 1.

    Returns ``(holds, C, alpha)`` with alpha maximal then C minimal on
    the sampled (s, t) ranges.  Degenerate descriptors that jump from 0
    straight to infinity admit no certifiable sample pair and are
    reported as refuted.  Convex descriptors always certify alpha >= 1
    with C close to 1; infimal-splitting nodes certify alpha about 1/2.
    """
    b = phi.b_phi
    s_hi = min(b, 1e6) if math.isfinite(b) else 1e6
    s_grid = np.geomspace(1e-6, s_hi, s_samples)
    s_vals = phi._eval(np.minimum(s_grid, b))
    good = np.isfinite(s_vals) & (s_vals > 0)
    s_grid, s_vals = s_grid[good], s_vals[good]
    if s_grid.size == 0:
        return (False, math.inf, 0.0)
    t_grid = np.geomspace(1e-6, 0.5, t_samples)
    st = np.outer(s_grid, t_grid)
    st_vals = phi._eval(st)
    ratio = st_vals / s_vals[:, None]
    pos = ratio > 0
    if not pos.any():
        # The function vanishes on all sampled contractions: any alpha
        # works; report the convex default.
        return (True, 1.0, 1.0)
    with np.errstate(divide="ignore"):
        alpha_candidates = np.where(pos, np.log(ratio) / np.log(t_grid)[None, :], math.inf)
    alpha = float(np.min(alpha_candidates[pos]))
    if alpha <= 0.0:
        return (False, math.inf, alpha)
    tpow = t_grid[None, :] ** alpha
    C = float(np.max(np.where(pos, ratio / tpow, 0.0)))
    if not math.isfinite(C) or C > cap:
        return (False, C, alpha)
    return (True, C, alpha)


def is_midpoint_convex_sampled(
    phi: YoungFunction, pairs: int = 256, seed: int = 0, rtol: float = 1e-9
) -> bool:
    """Sampled midpoint convexity on the finite domain; infimal and
    residual splitting nodes are exempt by construction elsewhere."""
    rng = np.random.default_rng(seed)
    b = phi.b_phi
    hi = min(b, 1e6) if math.isfinite(b) else 1e6
    u = np.exp(rng.uniform(math.log(1e-6), math.log(hi), size=(pairs, 2)))
    mid = 0.5 * (u[:, 0] + u[:, 1])
    f = phi._eval(u[:, 0])
    g = phi._eval(u[:, 1])
    h = phi._eval(mid)
    fin = np.isfinite(f) & np.isfinite(g)
    lhs = h[fin]
    rhs = 0.5 * (f[fin] + g[fin])
    return bool(np.all(lhs <= rhs * (1 + rtol) + 1e-300))


def young_to_json(phi: YoungFunction) -> dict:
    if isinstance(phi, Power):
        return {"kind": "power", "c": phi.c, "p": phi.p}
    if isinstance(phi, ShiftedPower):
        return {"kind": "shifted_power", "a": phi.a, "c": phi.c, "p": phi.p}
    if isinstance(phi, Capped):
        return {"kind": "capped", "inner": young_to_json(phi.inner), "b": phi.b}
    if isinstance(phi, YoungSum):
        return {"kind": "sum", "terms": [young_to_json(t) for t in phi.terms]}
    if isinstance(phi, YoungMax):
        return {"kind": "max", "terms": [young_to_json(t) for t in phi.terms]}
    if isinstance(phi, Oplus):
        return {"kind": "oplus", "phi1": young_to_json(phi.phi1), "phi2": young_to_json(phi.phi2)}
    if isinstance(phi, Ominus):
        return {"kind": "ominus", "phi": young_to_json(phi.phi), "phi1": young_to_json(phi.phi1)}
    raise TypeError(f"not a Young descriptor: {phi!r}")


def young_from_json(data: dict) -> YoungFunction:
    kind = data["kind"]
    if kind == "power":
        return Power(float(data["c"]), float(data["p"]))
    if kind == "shifted_power":
        return ShiftedPower(float(data["a"]), float(data["c"]), float(data["p"]))
    if kind == "capped":
        return Capped(young_from_json(data["inner"]), float(data["b"]))
    if kind == "sum":
        return YoungSum(tuple(young_from_json(t) for t in data["terms"]))
    if kind == "max":
        return YoungMax(tuple(young_from_json(t) for t in data["terms"]))
    if kind == "oplus":
        return Oplus(young_from_json(data["phi1"]), young_from_json(data["phi2"]))
    if kind == "ominus":
        return Ominus(young_from_json(data["phi"]), young_from_json(data["phi1"]))
    raise ValueError(f"unknown Young descriptor kind {kind!r}")
