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

both evaluated on a symmetric 512-point log grid with golden-section
refinement (relative tolerance 1e-10).  Convexity is not guaranteed for
these two node kinds, so sampled convexity checks exempt them.

Inverses are right-continuous: ``inverse(phi, v) = inf { u : phi(u) > v }``,
computed in closed form for power atoms and otherwise by ``_threshold``,
the one bracket-and-bisect search, which the Luxemburg gauges of
:mod:`bfslab.spaces` share.
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
_GOLDEN_RTOL = 1e-10
_INV_RTOL = 1e-12
_RELATION_CAP = 1e8
_UNBOUNDED = 1e30


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


def _golden_min(f, lo: float, hi: float, rtol: float = _GOLDEN_RTOL) -> float:
    """Golden-section minimum of a unimodal array function on [lo, hi]
    in the log domain; returns the best value found."""
    if not (lo > 0 and hi > lo):
        return _at(f, max(lo, hi))
    a, b = math.log(lo), math.log(hi)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = _at(f, math.exp(c)), _at(f, math.exp(d))
    best = min(fc, fd)
    for _ in range(200):
        if b - a <= rtol * max(1.0, abs(a), abs(b)):
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _at(f, math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _at(f, math.exp(d))
        best = min(best, fc, fd)
    return best


def _log_scan(obj, lo: float, hi: float):
    """``obj`` on the 512-point log grid over [lo, hi]: the values, their
    argmin k, and the bracket of k's neighbours for ``_golden_min``."""
    grid = np.geomspace(lo, hi, _OPLUS_GRID)
    vals = obj(grid)
    k = int(np.argmin(vals))
    return vals, k, (grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)])


class _Splitting(_YoungBase):
    """⊕ and ⊖ nodes: each argument is its own grid search, ``eval_scalar``."""

    def _eval(self, u):
        return np.array([self.eval_scalar(x) for x in u.ravel().tolist()]).reshape(u.shape)


@dataclass(frozen=True)
class Oplus(_Splitting):
    """Infimal product splitting of two Young functions.

    Evaluation minimises ``phi1(v) + phi2(u / v)`` over a log grid that
    is symmetric under ``v -> u / v`` (so the operation is exactly
    commutative), followed by golden-section refinement.  Not convex in
    general; exempt from convexity checks.
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
        f, g = self._children
        if u == 0.0 or u <= self.a_phi:
            return 0.0
        if u > self.b_phi:
            return math.inf
        b1, b2 = f.b_phi, g.b_phi
        scale = math.sqrt(u)  # u > 0 here, so lo > 0 below
        lo = max(scale * 1e-9, u / b2 if not math.isinf(b2) else 0.0)
        hi = scale * 1e9 if math.isinf(b1) else b1
        if hi <= lo:
            lo, hi = hi * 0.5, lo * 2.0
        # Symmetrise the window under v -> u / v so swapped operands
        # scan the identical candidate set.
        lo, hi = min(lo, u / hi), max(hi, u / lo)

        def obj(v):
            w = u / v
            return np.where((v <= b1) & (w <= b2), f._eval(v) + g._eval(w), math.inf)

        with np.errstate(over="ignore", invalid="ignore"):
            tot, k, bracket = _log_scan(obj, lo, hi)
            best = float(tot[k])
            # Boundary candidates where one factor sits exactly at its
            # vanishing threshold.
            for v_cand in (f.a_phi, (u / g.a_phi) if g.a_phi > 0 else 0.0):
                if v_cand and lo <= v_cand <= hi:
                    best = min(best, _at(obj, v_cand))
            if math.isfinite(best):
                best = min(best, _golden_min(obj, *bracket))
        return best


@dataclass(frozen=True)
class Ominus(_Splitting):
    """Partial inverse of the infimal splitting:
    ``sup over v of phi(u * v) - phi1(v)`` (v with ``phi1(v)`` finite).

    A supremum of convex functions of u, hence convex; it may be
    infinite from some threshold on, which the grid scan detects by
    explosive growth at the window edge.
    """

    phi: "YoungFunction"
    phi1: "YoungFunction"

    @cached_property
    def _ab(self) -> tuple[float, float]:
        # Derived numerically: largest u with value 0, largest with
        # finite value, scanned on a log grid.
        us = np.geomspace(1e-8, 1e8, 129)
        vals = self._eval(us)
        zero = us[vals <= 0.0]
        fin = us[np.isfinite(vals)]
        a = float(zero[-1]) if zero.size else 0.0
        b = float(fin[-1]) if fin.size and fin[-1] < us[-1] else math.inf
        if fin.size == 0:
            b = 0.0
        return a, b

    @property
    def a_phi(self) -> float:
        return self._ab[0]

    @property
    def b_phi(self) -> float:
        return self._ab[1]

    def eval_scalar(self, u: float) -> float:
        if u == 0.0:
            return 0.0
        phi, phi1 = self.phi, self.phi1
        b1, bp = phi1.b_phi, phi.b_phi
        if not math.isinf(bp):
            # Some admissible v pushes u*v past the finite domain of phi.
            limit = bp / u
            if b1 > limit:
                probe = min(b1, limit * (1 + 1e-9))
                if probe > limit and _at(phi1._eval, min(probe, b1)) < math.inf:
                    return math.inf
        lo, hi = 1e-8, min(b1, 1e8)
        if hi <= lo:
            hi = lo * 10.0

        def obj(v):
            # the supremum as a minimum: phi1(v) - phi(u*v), where phi1 is finite
            g1 = phi1._eval(v)
            return np.where(np.isfinite(g1), g1 - phi._eval(u * v), math.inf)

        with np.errstate(over="ignore", invalid="ignore"):
            neg, k, bracket = _log_scan(obj, lo, hi)
            low = float(neg[k])
            if low == -math.inf:
                return math.inf
            # Unbounded growth at the top edge of the window.
            if k >= neg.size - 2 and math.isinf(b1) and np.all(np.diff(neg[-3:]) < 0):
                if -low > _UNBOUNDED or -low > 1e3 * max(abs(float(neg[neg.size // 2])), 1e-300):
                    return math.inf
            low = min(low, _golden_min(obj, *bracket))
        return max(0.0, -low)


YoungFunction = _YoungBase


def oplus(phi1: YoungFunction, phi2: YoungFunction) -> Oplus:
    """Infimal product splitting node."""
    return Oplus(phi1, phi2)


def ominus(phi: YoungFunction, phi1: YoungFunction) -> Ominus:
    """Residual splitting node (the calculus partial inverse)."""
    return Ominus(phi, phi1)


def _threshold(above, hi: float, rtol: float, lo: float | None = None) -> float:
    """Least ``t > 0`` with ``above(t)``, for a predicate that is false
    below some point and true above it.

    Doubles ``hi`` until ``above(hi)`` holds (infinity if doubling would
    overflow first).  Without ``lo`` the lower end is found by halving
    down from ``hi``; a given ``lo`` must have ``above(lo)`` false.  Then
    bisects at the geometric midpoint until the bracket is ``rtol``
    narrow and returns its upper end, where ``above`` holds.
    """
    while not above(hi):
        if hi * 2.0 == math.inf:
            return math.inf
        hi *= 2.0
    if lo is None:
        lo = hi / 2.0
        while above(lo):
            hi = lo
            lo /= 2.0
            if lo < 1e-300:
                return hi
    for _ in range(200):
        if hi - lo <= rtol * hi:
            break
        prod = lo * hi  # overflows once the bracket is above ~1e154
        mid = math.sqrt(prod) if prod < math.inf else math.sqrt(lo) * math.sqrt(hi)
        if above(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _inverse(phi: YoungFunction, v: float, floor: float = 0.0) -> float:
    """``inf { u : phi(u) > v }``; ``floor`` is a guess at a lower bound
    (the previous result of an ascending batch), used once checked."""
    if isinstance(phi, (Power, ShiftedPower)):
        return phi.inverse_exact(v)
    if isinstance(phi, Capped):
        return min(_inverse(phi.inner, v, floor), phi.b_phi)
    a, b = phi.a_phi, phi.b_phi
    if v == math.inf:
        return b
    if v == 0.0 and a > 0.0:
        return a

    def above(u: float) -> bool:
        return _at(phi._eval, u) > v

    if math.isfinite(b) and not above(b):
        return b
    lo = a if a > 0.0 else None
    if floor > a and not above(floor):
        lo = floor
    hi = b if math.isfinite(b) else max(2.0 * (lo or 0.0), 1.0)
    return _threshold(above, hi, _INV_RTOL, lo)


def inverse(phi: YoungFunction, v: float) -> float:
    """Right-continuous inverse ``inf { u >= 0 : phi(u) > v }``.

    Saturates at ``b_phi`` when the target exceeds the essential range;
    ``inverse(phi, 0)`` is ``a_phi``.  Closed form for power atoms,
    geometric bisection to relative tolerance 1e-12 otherwise.
    """
    if v < 0:
        raise ValueError("inverse takes nonnegative targets")
    return _inverse(phi, float(v))


def inverse_batch(phi: YoungFunction, targets: np.ndarray) -> np.ndarray:
    """Inverse over an ascending target array, warm-starting each
    bisection at the previous result (the inverse is non-decreasing)."""
    out = np.empty(np.size(targets))
    floor = 0.0
    for i, v in enumerate(np.asarray(targets, dtype=float)):
        out[i] = floor = _inverse(phi, float(v), floor)
    return out


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
