"""Scalar weight profiles on (0, infinity).

Weights are small immutable descriptor trees built from power and
power-log atoms.  They serve three roles:

* integration weights for step functions (``grid.integrate_against``),
* quasi-concave profiles parameterising Lorentz / Marcinkiewicz style
  norms (``spaces``),
* inputs for dilation and Simonenko index estimation (``operators``).

Power atoms, and trees of them, integrate exactly through their
antiderivative; everything else falls back to a fixed-order
Gauss-Legendre rule per cell, so the result is deterministic and
grid-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

__all__ = [
    "PowerWeight",
    "PowerLogWeight",
    "WeightProduct",
    "WeightRatio",
    "Weight",
    "weight_to_json",
    "weight_from_json",
    "is_quasiconcave_sampled",
]

_QUAD_ORDER = 32


@lru_cache(maxsize=None)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


class _WeightBase:
    """Shared behaviour: generic quadrature, sup sampling, calculus."""

    def __call__(self, t):
        raise NotImplementedError

    def derivative(self, t):
        raise NotImplementedError

    def cell_integral_pow(self, a: float, b: float, p: float) -> float:
        """Integral of ``w(t)**p`` over the cell ``(a, b)``.

        Power atoms override this with the exact antiderivative, which a
        tree of them (``simplify_power``) takes as well; the generic path
        uses Gauss-Legendre quadrature of fixed order.  Raises
        :class:`NonIntegrableWeight` when the integrand is not integrable
        on the cell.
        """
        pw = simplify_power(self)
        if pw is not None:
            return pw.cell_integral_pow(a, b, p)
        if b <= a:
            return 0.0
        if a == 0.0:
            # Generic weights must stay bounded towards 0 to be
            # integrated by quadrature; power atoms handle their own
            # singular-but-integrable exponents exactly.
            probe = self(np.array([b * 1e-12, b * 1e-6, b]))
            if not np.all(np.isfinite(np.asarray(probe, dtype=float) ** max(p, 1.0))):
                raise NonIntegrableWeight(
                    f"weight {self!r} is singular on the cell (0, {b}); "
                    "no closed-form antiderivative available"
                )
        nodes, wts = _leggauss(_QUAD_ORDER)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        vals = np.asarray(self(mid + half * nodes), dtype=float) ** p
        return float(half * np.dot(wts, vals))

    def cell_sup(self, a, b):
        """Supremum of the weight over ``[a, b]``: exact for a tree of powers
        (``simplify_power``), else sampled at the endpoints (a only where
        a > 0), eight interior points and the potential kink at t = 1.
        ``a`` and ``b`` are floats, or arrays of cell ends, one sup each."""
        pw = simplify_power(self)
        if pw is not None:
            return pw.cell_sup(a, b)
        a, b = np.asarray(a, dtype=float)[..., None], np.asarray(b, dtype=float)[..., None]
        kink = np.where((a < 1.0) & (1.0 < b), 1.0, b)
        t = np.concatenate((np.where(a > 0, a, b), b, a + (b - a) * np.arange(1.0, 9.0) / 9.0, kink), -1)
        sup = np.asarray(self(t), dtype=float).max(-1)
        return sup if sup.ndim else float(sup)


class NonIntegrableWeight(ValueError):
    """Raised when a weight cannot be integrated on a requested cell."""


@dataclass(frozen=True)
class PowerWeight(_WeightBase):
    """``coef * t**alpha``; the workhorse weight, integrated exactly."""

    alpha: float
    coef: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if not (math.isfinite(self.coef) and self.coef > 0):
            raise ValueError("coef must be positive and finite")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.alpha == 0.0:
            out = np.full_like(t, self.coef)
        else:
            with np.errstate(divide="ignore"):
                out = self.coef * t**self.alpha
        return out if out.ndim else float(out)

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        if self.alpha == 0.0:
            out = np.zeros_like(t)
        else:
            with np.errstate(divide="ignore"):
                out = self.coef * self.alpha * t ** (self.alpha - 1.0)
        return out if out.ndim else float(out)

    def cell_integral_pow(self, a: float, b: float, p: float) -> float:
        if b <= a:
            return 0.0
        q = self.alpha * p
        c = self.coef**p
        if a == 0.0 and q <= -1.0:
            raise NonIntegrableWeight(
                f"t**{q} is not integrable on a cell touching 0"
            )
        if q == -1.0:
            return c * math.log(b / a)
        ap = 0.0 if a == 0.0 else a ** (q + 1.0)
        return c * (b ** (q + 1.0) - ap) / (q + 1.0)

    def cell_sup(self, a, b):
        # monotone: the sup is at an end, where t = 0 gives the limit (0, coef or +inf); for
        # alpha >= 0 the float ops of __call__ without its wrappers (b**0 is 1)
        out = self(a) if self.alpha < 0 else self.coef * np.asarray(b, dtype=float) ** self.alpha
        return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class PowerLogWeight(_WeightBase):
    """``coef * t**alpha * (1 + |log t|)**beta``.

    Not monotone in general: there is a kink at t = 1, and each of the
    two branches has at most one stationary point, so ``cell_sup`` is
    exact over those candidates.
    """

    alpha: float
    beta: float
    coef: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")
        if not (math.isfinite(self.coef) and self.coef > 0):
            raise ValueError("coef must be positive and finite")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            logt = np.log(t)
            out = self.coef * t**self.alpha * (1.0 + np.abs(logt)) ** self.beta
        return out if out.ndim else float(out)

    def cell_integral_pow(self, a: float, b: float, p: float) -> float:
        """Integral of ``w(t)**p`` over ``(a, b)`` by quadrature.  On a
        cell touching 0, t^(alpha p) (1 + |log t|)^(beta p) is integrable
        iff alpha p > -1, or alpha p = -1 and beta p < -1: otherwise this
        raises :class:`NonIntegrableWeight`, which the generic probe misses
        where the weight stays finite at its sample points."""
        q = self.alpha * p
        if a == 0.0 < b and not (q > -1.0 or (q == -1.0 and self.beta * p < -1.0)):
            raise NonIntegrableWeight(f"t**{q} (1 + |log t|)**{self.beta * p} is not integrable on a cell touching 0")
        return super().cell_integral_pow(a, b, p)

    def cell_sup(self, a, b):
        """Supremum of the weight over ``[a, b]`` (floats, or arrays of cell
        ends): the largest of its values at b, at a (its limit 0, coef or
        +inf when a = 0), and at t = 1, e^(1 - beta/alpha) and
        e^(-beta/alpha - 1) where they lie in the cell.  The last two are
        the stationary points of the branches below and above 1."""
        # a trailing axis: a float cell takes the array float ops too (a
        # scalar ** -1.0 rounds otherwise than an array's)
        a, b = np.asarray(a, dtype=float)[..., None], np.asarray(b, dtype=float)[..., None]
        al, be = self.alpha, self.beta
        with np.errstate(over="ignore"):
            ts = np.exp([0.0] if al == 0 else [0.0, 1.0 - be / al, -be / al - 1.0])
        inside = (a <= ts) & (ts <= b) & (ts > 0)
        sup = self(np.concatenate((b, np.where(a > 0, a, b), np.where(inside, ts, b)), -1)).max(-1)
        lim0 = math.inf if al < 0 or (al == 0 and be > 0) else (self.coef if al == be == 0 else 0.0)
        sup = np.where(a[..., 0] > 0, sup, np.maximum(sup, lim0))
        return sup if sup.ndim else float(sup)

    def derivative(self, t):
        # d/dt [t^a (1 + |log t|)^b]; |log t| contributes -1/t below 1
        # and +1/t above, so the two branches differ by the sign of b/L.
        t = np.asarray(t, dtype=float)
        logt = np.log(t)
        L = 1.0 + np.abs(logt)
        sign = np.where(t >= 1.0, 1.0, -1.0)
        out = self.coef * t ** (self.alpha - 1.0) * L ** (self.beta - 1.0) * (
            self.alpha * L + sign * self.beta
        )
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class WeightProduct(_WeightBase):
    """Pointwise product of two weights."""

    left: "Weight"
    right: "Weight"

    def __call__(self, t):
        return np.asarray(self.left(t)) * np.asarray(self.right(t))

    def derivative(self, t):
        return np.asarray(self.left.derivative(t)) * np.asarray(self.right(t)) + np.asarray(
            self.left(t)
        ) * np.asarray(self.right.derivative(t))


@dataclass(frozen=True)
class WeightRatio(_WeightBase):
    """Pointwise ratio ``num / den`` of two weights."""

    num: "Weight"
    den: "Weight"

    def __call__(self, t):
        return np.asarray(self.num(t)) / np.asarray(self.den(t))

    def derivative(self, t):
        n, d = np.asarray(self.num(t)), np.asarray(self.den(t))
        return (np.asarray(self.num.derivative(t)) * d - n * np.asarray(self.den.derivative(t))) / d**2


Weight = Union[PowerWeight, PowerLogWeight, WeightProduct, WeightRatio]


def simplify_power(w: Weight) -> PowerWeight | None:
    """Collapse a weight tree to a single power atom when possible."""
    if isinstance(w, PowerWeight):
        return w
    if isinstance(w, WeightProduct):
        l, r = simplify_power(w.left), simplify_power(w.right)
        if l is not None and r is not None:
            return PowerWeight(l.alpha + r.alpha, l.coef * r.coef)
    if isinstance(w, WeightRatio):
        n, d = simplify_power(w.num), simplify_power(w.den)
        if n is not None and d is not None:
            return PowerWeight(n.alpha - d.alpha, n.coef / d.coef)
    return None


def is_quasiconcave_sampled(
    w: Weight, t_min: float = 2.0**-20, t_max: float = 2.0**20, samples: int = 512
) -> bool:
    """Sampled check that ``w`` is non-decreasing with ``w(t)/t``
    non-increasing on a truncated log grid."""
    t = np.geomspace(t_min, t_max, samples)
    v = np.asarray(w(t), dtype=float)
    if not np.all(np.isfinite(v)) or np.any(v <= 0):
        return False
    tol = 1e-12
    nondecr = np.all(np.diff(v) >= -tol * np.maximum(v[:-1], v[1:]))
    ratio = v / t
    nonincr = np.all(np.diff(ratio) <= tol * np.maximum(ratio[:-1], ratio[1:]))
    return bool(nondecr and nonincr)


def weight_to_json(w: Weight) -> dict:
    if isinstance(w, PowerWeight):
        return {"kind": "power", "alpha": w.alpha, "coef": w.coef}
    if isinstance(w, PowerLogWeight):
        return {"kind": "power_log", "alpha": w.alpha, "beta": w.beta, "coef": w.coef}
    if isinstance(w, WeightProduct):
        return {"kind": "product", "left": weight_to_json(w.left), "right": weight_to_json(w.right)}
    if isinstance(w, WeightRatio):
        return {"kind": "ratio", "num": weight_to_json(w.num), "den": weight_to_json(w.den)}
    raise TypeError(f"not a weight: {w!r}")


def weight_from_json(data: dict) -> Weight:
    kind = data["kind"]
    if kind == "power":
        return PowerWeight(float(data["alpha"]), float(data.get("coef", 1.0)))
    if kind == "power_log":
        return PowerLogWeight(
            float(data["alpha"]), float(data["beta"]), float(data.get("coef", 1.0))
        )
    if kind == "product":
        return WeightProduct(weight_from_json(data["left"]), weight_from_json(data["right"]))
    if kind == "ratio":
        return WeightRatio(weight_from_json(data["num"]), weight_from_json(data["den"]))
    raise ValueError(f"unknown weight kind {kind!r}")
