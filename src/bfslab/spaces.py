"""Space descriptors and the norm engine over step functions.

A space descriptor is a small immutable tree naming a way to turn a
step function into a number.  Primitive descriptors (weighted Lebesgue,
Lorentz, Marcinkiewicz, weighted sup) are evaluated here by compiled
kernels, while composite descriptors (``Product``, ``Multiplier``,
``Calderon``, ``Dual``) describe variational problems and delegate to
:mod:`bfslab.product`.  A Lorentz or Marcinkiewicz kernel reads the
decreasing profile of x; its weight enters only through a per-cell
table over the profile's breakpoints, picked at compile time: a closed
form for a pure power (exact), else quadrature (an estimate) or cell
suprema (exact for a tree of powers or a ``PowerLogWeight``).

Conventions baked into the evaluators:

* ``Lp(p, w)`` is the norm of ``x*w`` in ``L^p``.
* ``LorentzLambda(phi)`` integrates the decreasing rearrangement
  against ``d(phi)`` and charges a ``phi(0+) * max(x)`` atom when the
  weight does not vanish at 0.
* ``LorentzLambdaP(phi, p)`` uses the ``dt/t`` convention, so the
  classical second-index family is ``LorentzLambdaP(t^(1/p), q)``;
  for a weight that is not a power, ``phi^p / t`` is integrated on
  each cell by the fixed-order rule of ``cell_integral_pow``.
* Marcinkiewicz norms take the sup of ``phi * x**`` (or ``phi * x*``
  for the starred variant) over the grid.  M*_phi takes
  ``phi.cell_sup`` of each cell of the profile, for every weight.  M_phi
  takes each cell's right end for a power ``phi``, where the sup on a
  cell is attained, and samples ten points a cell otherwise.

Each norm has one kernel.  ``canonical`` rewrites a descriptor onto
the kernel's form through these identities, all exact on step
functions, so every layer that dispatches on the canonical form
(convexification rules, the dual and multiplier tables, structured
seeds, index tables, compiled kernels) sees the rewritten space:

* ``Symmetrization(Lp(p, c*t^a), "star")`` is
  ``LorentzLambdaP(c*t^(a + 1/p), p)``.
* ``LorentzLambdaP(c*t^a, 1)`` with ``a > 0`` is
  ``LorentzLambda((c/a)*t^a)``, since ``d(t^a) = a t^a dt/t``.
* For a pure power ``w``, the star of ``LInftyWeighted(w)`` or of
  ``Lp(inf, w)`` is ``MarcinkiewiczStar(w)`` and its doublestar is
  ``Marcinkiewicz(w)``.
* The p-convexification of ``MarcinkiewiczStar(w)`` or of
  ``LInftyWeighted(w)`` is the same space over ``w^(1/p)``, for a pure
  power or a ``PowerLogWeight`` ``w``.
* The products of canonical factors (``_product_rule``, with
  ``1/r = 1/p + 1/q`` and ``1/inf = 0``): ``L^inf ⊙ F = F`` for the
  unweighted ``L^inf``; ``Lp(p, u) ⊙ Lp(q, v) = Lp(r, u*v)`` for pure
  powers, the r-concavification of ``Lp(1, (u*v)^r)`` when r < 1; and
  ``B^(p) ⊙ B^(q) = B^(r)`` for one primitive base B.
* ``Calderon(E, F, theta)`` is the product of ``E^(1/theta)`` and
  ``F^(1/(1-theta))``, so it collapses by the same rule.

``Lp(inf, w)`` itself stays an ``Lp``, whose kernel is that of
``LInftyWeighted(w)``: the product rule for ``Lp`` pairs keeps matching
it.  For ``w = c*t^a`` with ``a < 0``, both Marcinkiewicz norms are
infinite for every nonzero x, since ``w`` blows up at 0.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .grid import (
    COUNTING,
    MeasureSpace,
    StepFunction,
    _refine,
    double_star,
    half_line,
    rearrange,
    unit_interval,
)
from .weights import (
    _QUAD_ORDER,
    NonIntegrableWeight,
    PowerLogWeight,
    PowerWeight,
    Weight,
    WeightProduct,
    _leggauss,
    is_quasiconcave_sampled,
    simplify_power,
    weight_from_json,
    weight_to_json,
)
from .young import Power, ShiftedPower, YoungFunction, _as_power, _hoelder, _log, _threshold, young_from_json, young_to_json

__all__ = [
    "Lp",
    "LorentzLambda",
    "LorentzLambdaP",
    "Marcinkiewicz",
    "MarcinkiewiczStar",
    "LInftyWeighted",
    "OrliczCL",
    "Calderon",
    "Product",
    "Multiplier",
    "Dual",
    "Convexification",
    "Symmetrization",
    "SpaceDescriptor",
    "NormResult",
    "norm",
    "norm_evaluator",
    "fundamental",
    "modular",
    "luxemburg_norm",
    "dual_descriptor",
    "symmetrization_norm",
    "canonical",
    "is_primitive",
    "is_symmetric",
    "lorentz_pq",
    "lorentz_p1_exact",
    "weak_lp",
    "space_to_json",
    "space_from_json",
]

_LUX_RTOL = 1e-10


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lp:
    """``L^p`` against an optional weight: the norm of ``x*w`` in L^p."""

    p: float
    weight: Optional[Weight] = None

    def __post_init__(self):
        p = float(self.p)
        if not (p >= 1.0):
            raise ValueError("Lp requires p >= 1")
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class LorentzLambda:
    """Lorentz space: integral of the rearrangement against d(phi)."""

    phi: Weight


@dataclass(frozen=True)
class LorentzLambdaP:
    """Second-index Lorentz space, ``(∫ (phi(t) x*(t))^p dt/t)^(1/p)``."""

    phi: Weight
    p: float

    def __post_init__(self):
        p = float(self.p)
        if not (p > 0.0 and math.isfinite(p)):
            raise ValueError("LorentzLambdaP requires 0 < p < inf")
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class Marcinkiewicz:
    """``sup phi(t) x**(t)`` -- the maximal-average Marcinkiewicz norm."""

    phi: Weight


@dataclass(frozen=True)
class MarcinkiewiczStar:
    """``sup phi(t) x*(t)`` -- the rearrangement variant (no averaging)."""

    phi: Weight


@dataclass(frozen=True)
class LInftyWeighted:
    """``sup phi(t) |x(t)|`` on the function's own grid (not symmetric)."""

    phi: Weight


@dataclass(frozen=True)
class OrliczCL:
    """Orlicz-type space over a base: Luxemburg gauge of the modular."""

    base: "SpaceDescriptor"
    phi: YoungFunction


@dataclass(frozen=True)
class Calderon:
    """Intermediate space ``E^theta F^(1-theta)`` (theta on the first factor)."""

    E: "SpaceDescriptor"
    F: "SpaceDescriptor"
    theta: float

    def __post_init__(self):
        th = float(self.theta)
        if not (0.0 < th < 1.0):
            raise ValueError("Calderon requires 0 < theta < 1")
        object.__setattr__(self, "theta", th)


@dataclass(frozen=True)
class Product:
    """Pointwise-product space: infimum of ``|x|_E |y|_F`` over z = xy."""

    E: "SpaceDescriptor"
    F: "SpaceDescriptor"


@dataclass(frozen=True)
class Multiplier:
    """Pointwise multipliers from E into F with the operator norm."""

    E: "SpaceDescriptor"
    F: "SpaceDescriptor"


@dataclass(frozen=True)
class Dual:
    """Koethe dual: sup of ``∫ x y`` over the unit ball of the base."""

    E: "SpaceDescriptor"


@dataclass(frozen=True)
class Convexification:
    """``|x| = | |x|^p |_base^(1/p)``; p < 1 concavifies."""

    base: "SpaceDescriptor"
    p: float

    def __post_init__(self):
        p = float(self.p)
        if not (p > 0.0 and math.isfinite(p)):
            raise ValueError("Convexification requires 0 < p < inf")
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class Symmetrization:
    """Norm of ``x*`` (star) or of ``x**`` (doublestar) in the base space."""

    base: "SpaceDescriptor"
    mode: str = "star"

    def __post_init__(self):
        if self.mode not in ("star", "doublestar"):
            raise ValueError("mode must be 'star' or 'doublestar'")


SpaceDescriptor = Union[
    Lp,
    LorentzLambda,
    LorentzLambdaP,
    Marcinkiewicz,
    MarcinkiewiczStar,
    LInftyWeighted,
    OrliczCL,
    Calderon,
    Product,
    Multiplier,
    Dual,
    Convexification,
    Symmetrization,
]


@dataclass(frozen=True)
class NormResult:
    """A computed norm plus how much to trust it.

    ``kind`` is ``exact`` (closed form / exact piecewise integration),
    ``upper_bound`` (variational value certified by the attached
    witness), or ``estimate`` (sampled suprema, quadrature or
    iterative gauges).
    """

    value: float
    kind: str = "exact"
    witness: Optional[object] = None
    notes: tuple = ()


# ---------------------------------------------------------------------------
# structural predicates and canonical rewrites
# ---------------------------------------------------------------------------

_VARIATIONAL = (Calderon, Product, Multiplier, Dual)


def is_primitive(space: SpaceDescriptor) -> bool:
    """True when the norm is computable without variational search."""
    if isinstance(space, (OrliczCL, Convexification, Symmetrization)):
        return is_primitive(space.base)
    if isinstance(space, Dual):
        dd = dual_descriptor(space.E)
        return dd is not None and is_primitive(dd)
    return not isinstance(space, _VARIATIONAL)


def is_symmetric(space: SpaceDescriptor) -> bool:
    """True when the norm depends on x only through its rearrangement."""
    if isinstance(space, Lp):
        w = simplify_power(space.weight) if space.weight is not None else None
        return space.weight is None or (w is not None and w.alpha == 0.0)
    if isinstance(space, (LorentzLambda, LorentzLambdaP, Marcinkiewicz, MarcinkiewiczStar)):
        return True
    if isinstance(space, LInftyWeighted):
        w = simplify_power(space.phi)
        return w is not None and w.alpha == 0.0
    if isinstance(space, (OrliczCL, Convexification)):
        return is_symmetric(space.base)
    if isinstance(space, Symmetrization):
        return True
    if isinstance(space, (Product, Multiplier, Calderon)):
        return is_symmetric(space.E) and is_symmetric(space.F)
    if isinstance(space, Dual):
        return is_symmetric(space.E)
    return False


def _weight_pow(w: Optional[Weight], r: float) -> Optional[Weight]:
    """w**r for pure powers; None when not representable exactly."""
    if w is None:
        return PowerWeight(0.0, 1.0)
    pw = simplify_power(w)
    if pw is None:
        return None
    return PowerWeight(pw.alpha * r, pw.coef**r)


def _weight_root(w: Weight, p: float) -> Optional[Weight]:
    """w**(1/p) for pure powers (``_weight_pow``) and for a ``PowerLogWeight``
    c t^a (1 + |log t|)^b, whose root is c^(1/p) t^(a/p) (1 + |log t|)^(b/p);
    None otherwise.  ``_weight_pow`` itself stays power-only: its callers
    rebuild a ``PowerWeight`` from its alpha and coef."""
    if isinstance(w, PowerLogWeight):
        return PowerLogWeight(w.alpha / p, w.beta / p, w.coef ** (1.0 / p))
    return _weight_pow(w, 1.0 / p)


def _weight_or_none(w: Optional[Weight]) -> Optional[Weight]:
    if w is not None and isinstance(w, PowerWeight) and w.alpha == 0.0 and w.coef == 1.0:
        return None
    return w


def _is_plain_sup(space: SpaceDescriptor) -> bool:
    return isinstance(space, Lp) and math.isinf(space.p) and space.weight is None


def _product_rule(E: SpaceDescriptor, F: SpaceDescriptor) -> Optional[tuple]:
    """``(E ⊙ F, s)`` for canonical factors with an exact product identity, or None.

    ``s`` is the exponent share of the split behind the identity, x = z^s
    on supp z: 0 for ``L^inf ⊙ F``, 1 for ``E ⊙ L^inf`` and ``r / p_E``
    otherwise, with ``p_E`` from the decomposition the identity uses.  A
    weighted Lebesgue pair has no such share: ``s`` is None.
    """
    if _is_plain_sup(E):
        return F, 0.0
    if _is_plain_sup(F):
        return E, 1.0
    if isinstance(E, Lp) and isinstance(F, Lp):
        u, v = _weight_pow(E.weight, 1.0), _weight_pow(F.weight, 1.0)
        if u is not None and v is not None:
            # L^p(u) ⊙ L^q(v) = L^r(uv); below r = 1 as the r-concavification of L^1((uv)^r)
            r, w = _hoelder(E.p, F.p), PowerWeight(u.alpha + v.alpha, u.coef * v.coef)
            s = r / E.p if E.weight is None and F.weight is None else None
            if r >= 1.0:
                return Lp(r, _weight_or_none(w)), s
            return Convexification(Lp(1.0, _weight_or_none(_weight_pow(w, r))), r), s
    # B^(p) as (B, p); a space that is not a convexification is its own base, p = 1
    (baseE, pE), (baseF, pF) = ((S.base, S.p) if isinstance(S, Convexification) else (S, 1.0) for S in (E, F))
    if baseE == baseF and is_primitive(baseE):
        r = _hoelder(pE, pF)
        return canonical(Convexification(baseE, r)), r / pE
    return None


def canonical(space: SpaceDescriptor) -> SpaceDescriptor:
    """Collapse rewrites that hold with equal norms (exactly).

    Pure-power weight arithmetic only; anything that cannot be rewritten
    with exact constants is returned structurally intact (children still
    canonicalized).
    """
    if isinstance(space, Convexification):
        base = canonical(space.base)
        p = space.p
        if p == 1.0:
            return base
        if isinstance(base, Convexification):
            return canonical(Convexification(base.base, base.p * p))
        if isinstance(base, Lp):
            new_p = base.p * p
            w = _weight_pow(base.weight, 1.0 / p)
            if w is not None and new_p >= 1.0:
                return Lp(new_p, _weight_or_none(w))
        if isinstance(base, (MarcinkiewiczStar, LInftyWeighted)):
            # sup (w x)^p is (sup w^(1/p) x)^p
            w = _weight_root(base.phi, p)
            if w is not None:
                return type(base)(w)
        if isinstance(base, LorentzLambdaP):
            w = _weight_pow(base.phi, 1.0 / p)
            if w is not None:
                return canonical(LorentzLambdaP(w, base.p * p))
        return Convexification(base, p)
    if isinstance(space, OrliczCL):
        base = canonical(space.base)
        phi = _as_power(space.phi) or space.phi
        if isinstance(phi, Power):
            if phi.c == 1.0 and phi.p == 1.0:
                return base
            if isinstance(base, Lp):
                # gauge of c*(x/lam)^p in L^q(w): lam = c^(1/p) |x^p|_q^(1/p)
                new_p = base.p * phi.p
                w = _weight_pow(base.weight, 1.0 / phi.p)
                if w is not None and new_p >= 1.0:
                    w = PowerWeight(w.alpha, w.coef * phi.c ** (1.0 / phi.p))
                    return Lp(new_p, _weight_or_none(w))
        return OrliczCL(base, phi)
    if isinstance(space, Symmetrization):
        base, star = canonical(space.base), space.mode == "star"
        if star and is_symmetric(base):
            return base
        if isinstance(base, (Lp, LInftyWeighted)):
            p, w = (base.p, base.weight) if isinstance(base, Lp) else (math.inf, base.phi)
            w = _weight_pow(w, 1.0)  # the weight as a pure power, or None
            if w is not None and math.isinf(p):
                return MarcinkiewiczStar(w) if star else Marcinkiewicz(w)
            if w is not None and star:
                return canonical(LorentzLambdaP(PowerWeight(w.alpha + 1.0 / p, w.coef), p))
        return Symmetrization(base, space.mode)
    if isinstance(space, Calderon):
        # E^theta F^(1-theta) is the product of E^(1/theta) and F^(1/(1-theta))
        E, F, th = canonical(space.E), canonical(space.F), space.theta
        hit = _product_rule(canonical(Convexification(E, 1.0 / th)), canonical(Convexification(F, 1.0 / (1.0 - th))))
        return Calderon(E, F, th) if hit is None else hit[0]
    if isinstance(space, Dual):
        dd = dual_descriptor(canonical(space.E))
        if dd is not None:
            return canonical(dd)
        return Dual(canonical(space.E))
    if isinstance(space, Product):
        E, F = canonical(space.E), canonical(space.F)
        hit = _product_rule(E, F)
        return Product(E, F) if hit is None else hit[0]
    if isinstance(space, Multiplier):
        return Multiplier(canonical(space.E), canonical(space.F))
    if isinstance(space, LorentzLambdaP) and space.p == 1.0:
        pw = simplify_power(space.phi)
        if pw is not None and pw.alpha > 0.0:
            # ∫ c t^a x* dt/t = ∫ x* d((c/a) t^a)
            return LorentzLambda(PowerWeight(pw.alpha, pw.coef / pw.alpha))
    return space


# ---------------------------------------------------------------------------
# duality table
# ---------------------------------------------------------------------------


def _conjugate(p: float) -> float:
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def dual_descriptor(space: SpaceDescriptor) -> Optional[SpaceDescriptor]:
    """Symbolic Koethe dual, or None when no table entry applies.  The table
    reads the canonical form; a ``Dual`` stays as it is, since ``canonical``
    of a ``Dual`` consults this table."""
    space = space if isinstance(space, Dual) else canonical(space)
    if isinstance(space, (Lp, LInftyWeighted)):
        p, w = (space.p, space.weight) if isinstance(space, Lp) else (math.inf, space.phi)
        w = _weight_pow(w, -1.0)
        if w is None:
            return None
        return Lp(_conjugate(p), _weight_or_none(w))
    if isinstance(space, LorentzLambda):
        pw = simplify_power(space.phi)
        if pw is not None:
            return Marcinkiewicz(PowerWeight(1.0 - pw.alpha, 1.0 / pw.coef))
        return None
    if isinstance(space, Marcinkiewicz):
        pw = simplify_power(space.phi)
        if pw is not None:
            return LorentzLambda(PowerWeight(1.0 - pw.alpha, 1.0 / pw.coef))
        return None
    if isinstance(space, Convexification) and space.p >= 1.0:
        inner = dual_descriptor(space.base)
        if inner is not None and space.p > 1.0:
            return Product(Convexification(inner, space.p), Lp(_conjugate(space.p)))
        if inner is not None:
            return inner
    return None


# ---------------------------------------------------------------------------
# compiled evaluators
# ---------------------------------------------------------------------------


@dataclass(eq=False, slots=True)
class _CompiledNorm:
    """A norm kernel ``fn`` (contract in ``norm_evaluator``): its kind, notes, batching and inputs.
    Only the doublestar of L^p and the fallback of ``product._norm_fn`` run row by row."""

    fn: Callable[[np.ndarray], float]
    kind: str
    notes: tuple = ()
    # fn runs a (k, n) batch row by row, k calls of the one-row kernel
    rowwise: bool = False
    # fn (and grad) also take the (v, w, bp, order) tuple of _decreasing_profile in place of the values
    profile: bool = False
    # exact subgradient: grad(x) is (fn(x), the subgradient at x in x's shape and cell order)
    grad: Optional[Callable] = None


# least recently used entries go first once the cache holds this many
_COMPILE_CACHE_CAP = 1024
_COMPILE_CACHE: OrderedDict = OrderedDict()


# Kernels take one row (n,) or a batch (k, n).  A batch must give each
# row's one-row value bit for bit: kernels that sum over a row first make
# their input C-contiguous (numpy groups a row sum differently on other
# layouts), and rows whose live cells differ go one at a time.  Profile
# kernels call the ufuncs behind .sum, .cumsum, .max and np.sort: the
# same float operations, without wrappers that cost more at n = 16.


def _each_row(kernel: Callable, v: np.ndarray) -> np.ndarray:
    """One call of ``kernel`` per row of ``v`` (or per profile row): the norms as an array."""
    return np.array([kernel(row) for row in v], dtype=float)


def _rowwise(kernel: Callable[[np.ndarray], float], kind: str, notes: tuple = ()) -> _CompiledNorm:
    """A one-row kernel with the batched ``(k, n)`` contract: k rows cost k calls."""

    def batched(v):
        return kernel(v) if v.ndim == 1 else _each_row(kernel, v)

    return _CompiledNorm(batched, kind, notes, rowwise=True)


def _out(s):
    """A 0-d result as a float; a batch of row results as it is."""
    return s if s.ndim else float(s)


def _root(s, p: float):
    """``s ** (1/p)`` per row, as a scalar power (the vectorized power
    differs from it in the last bit for some inputs); ``s`` itself when
    p == 1, since ``x ** 1.0 == x``."""
    if p == 1.0:
        return _out(s)
    if s.ndim:
        return np.array([x ** (1.0 / p) for x in s])
    return float(s ** (1.0 / p))


def _fill(v: np.ndarray, value: float):
    """``value`` for one row, or for every row of a batch."""
    return value if v.ndim == 1 else np.full(v.shape[0], value)


def _decreasing_profile(values: np.ndarray, widths: np.ndarray):
    """Per row, C-contiguous: the cell values and widths in a stable
    decreasing order of the values, the breakpoints they induce, and the
    order itself (the cell at each sorted position)."""
    values = np.ascontiguousarray(values)
    order = (-values).argsort(kind="stable")
    w = widths[order]
    flat = order + np.arange(0, values.size, values.shape[-1])[:, None] if values.ndim > 1 else order
    v = values.take(flat)
    bp = np.zeros(v.shape[:-1] + (v.shape[-1] + 1,))
    np.add.accumulate(w, -1, out=bp[..., 1:])
    return v, w, bp, order


def _profile(v, widths: np.ndarray):
    """What a profile kernel reads: ``v`` itself when it is already a
    ``(v, w, bp)`` profile, else the decreasing profile of the values."""
    return v if type(v) is tuple else _decreasing_profile(v, widths)


# Subgradients.  A kernel's ``grad`` returns its ``fn`` value bit for bit
# and a subgradient built from it by elementwise steps, so a batch gives
# each row's one-row gradient bit for bit too.  Norms enter as a column
# array (``_col``): one row and a batch then take the same numpy power.


def _col(nrm):
    """Row norms as a column array that broadcasts against the rows."""
    return np.asarray(nrm, dtype=float)[..., None]


def _unsort(gs: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Per-row values given in a profile's order, back in cell order."""
    g = np.empty_like(gs)
    if gs.ndim == 1:
        g[order] = gs
    else:
        g[np.arange(len(gs))[:, None], order] = gs
    return g


def _profile_grad(valgrad: Callable, widths: np.ndarray) -> Callable:
    """``grad`` of a profile kernel from ``valgrad(profile)``: the kernel's
    value and a subgradient in the profile's order, which goes back
    through the sort."""

    def grad(x):
        prof = _profile(x, widths)
        nrm, gs = valgrad(prof)
        return nrm, _unsort(gs, prof[3])

    return grad


def _lp_slope(v: np.ndarray, cw, p: float, nrm: np.ndarray) -> np.ndarray:
    """The gradient of ``(sum cw v^p)^(1/p)`` at v >= 0 with norm ``nrm``:
    ``cw v^(p-1) / nrm^(p-1)``.  0 on dead cells unless p == 1 (the
    one-sided slope), and on rows whose norm is 0 or infinite."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = cw * (v ** (p - 1.0) if p != 1.0 else 1.0) / nrm ** (p - 1.0)
    return np.where(np.isfinite(g) & ((v > 0) | (p == 1.0)) & (nrm > 0) & np.isfinite(nrm), g, 0.0)


def _at_max(cand: np.ndarray, c) -> np.ndarray:
    """``c_j e_j`` per row, j the first cell where ``cand = c v`` is
    largest: a subgradient of ``max_j c_j v_j`` for c >= 0."""
    rows = np.arange(cand.size // cand.shape[-1])
    j = cand.reshape(len(rows), -1).argmax(-1)
    g = np.zeros((len(rows), cand.shape[-1]))
    g[rows, j] = np.broadcast_to(c, cand.shape).reshape(len(rows), -1)[rows, j]
    return np.where(np.isfinite(g), g, 0.0).reshape(cand.shape)


def _singular_at_zero(v: np.ndarray) -> float:
    """Sup of ``t^alpha * x*`` (or ``x**``) with alpha < 0: infinite unless x = 0."""
    return _out(np.where((v > 0).any(-1), math.inf, 0.0))


def _cell_masses(space: Lp, mspace: MeasureSpace) -> np.ndarray:
    """What a Lebesgue kernel weighs ``v^p`` by in each cell: the widths,
    or the integral of ``w^p`` over the cell (+inf where it is not
    finite); for p = inf, the cell sups of w (1 unweighted)."""
    w, bp = space.weight, mspace.breakpoints
    if math.isinf(space.p):
        return (w or PowerWeight(0.0)).cell_sup(bp[:-1], bp[1:])
    if w is None:
        return mspace.widths
    out = []
    for a, b in zip(bp[:-1], bp[1:]):
        try:
            out.append(w.cell_integral_pow(a, b, space.p))
        except NonIntegrableWeight:
            out.append(math.inf)
    return np.asarray(out)


def _trunc_notes(mspace: MeasureSpace) -> tuple:
    tr = mspace.truncation()
    if tr is None:
        return ()
    return (f"half-line truncated to [{tr[0]:g}, {tr[1]:g}]",)


def _compile(space: SpaceDescriptor, mspace: MeasureSpace) -> Optional[_CompiledNorm]:
    widths = mspace.widths
    bp0 = mspace.breakpoints
    tn = _trunc_notes(mspace)

    if isinstance(space, Lp):
        p, w = space.p, space.weight
        if math.isinf(p):
            if w is None:

                def _sup(v):
                    return _out(v.max(-1, initial=0.0))

                return _CompiledNorm(_sup, "exact", tn, grad=lambda v: (_sup(v), _at_max(v, 1.0)))
            return _compile(LInftyWeighted(w), mspace)
        if w is None:

            def _lp_plain(v, p=p, wd=widths):
                terms = np.sort(np.ascontiguousarray(v) ** p * wd)
                return _root(terms.sum(-1), p)

            def _lp_plain_grad(v, p=p, wd=widths):
                nrm = _lp_plain(v)
                return nrm, _lp_slope(v, wd, p, _col(nrm))

            return _CompiledNorm(_lp_plain, "exact", tn, grad=_lp_plain_grad)
        cell_w, exact = _cell_masses(space, mspace), simplify_power(w) is not None

        def _lp_weighted(v, p=p, cw=cell_w):
            # a batch is summed over the live cells of its first row, so
            # rows with other live cells go one by one
            v = np.ascontiguousarray(v)
            live = v > 0
            if v.ndim > 1:
                if (live != live[0]).any():
                    return _each_row(_lp_weighted, v)
                live = live[0]
            idx = live.nonzero()[0]
            if not idx.size:
                return _fill(v, 0.0)
            cwl = cw[idx]
            if np.isinf(cwl).any():
                return _fill(v, math.inf)
            terms = np.sort(v.take(idx, -1) ** p * cwl)
            return _root(terms.sum(-1), p)

        def _lp_weighted_grad(v, p=p, cw=cell_w):
            nrm = _lp_weighted(v)
            return nrm, _lp_slope(v, cw, p, _col(nrm))

        notes = tn if exact else tn + ("fixed-order quadrature for the weight",)
        return _CompiledNorm(_lp_weighted, "exact" if exact else "estimate", notes, grad=_lp_weighted_grad)

    if isinstance(space, (LorentzLambda, LorentzLambdaP, Marcinkiewicz, MarcinkiewiczStar, LInftyWeighted)):
        phi, pw = space.phi, simplify_power(space.phi)
        # M*_phi and the weighted sup are exact where phi.cell_sup is: a power tree, or a PowerLogWeight
        sup_kind = ("exact", tn) if pw is not None or isinstance(phi, PowerLogWeight) else ("estimate", tn + ("cell suprema sampled",))
        if pw is not None and pw.alpha < 0.0 and isinstance(space, (LorentzLambda, Marcinkiewicz, MarcinkiewiczStar)):
            return _CompiledNorm(_singular_at_zero, "exact", tn + ("weight singular at 0",))

    if isinstance(space, LorentzLambda):

        def increments(bp, phi=phi, power=isinstance(phi, PowerWeight)):
            # a power weight inline: the float ops of PowerWeight.__call__
            ph = phi.coef * bp**phi.alpha if power else np.asarray(phi(bp), dtype=float)
            ph[..., 0] = 0.0
            return ph[..., 1:] - ph[..., :-1]

        def _lam(v, wd=widths):
            v, _, bp, _ = _profile(v, wd)
            return _out(np.add.reduce(v * increments(bp), -1))

        def _lam_valgrad(prof):
            inc = increments(prof[2])
            return _out(np.add.reduce(prof[0] * inc, -1)), inc

        grad = _profile_grad(_lam_valgrad, widths)
        if pw is not None and pw.alpha > 1.0:
            notes = tn + ("weight not concave: not a norm",)
        elif pw is None and not is_quasiconcave_sampled(phi):
            notes = tn + ("weight fails the sampled quasi-concavity check: not a lattice norm",)
        else:
            return _CompiledNorm(_lam, "exact", tn, profile=True, grad=grad)
        return _CompiledNorm(_lam, "estimate", notes, profile=True, grad=grad)

    if isinstance(space, LorentzLambdaP):
        p = space.p
        if pw is not None:
            # (cp * ∫ x*(t)^p t^q dt)^(1/p), exact on step functions; t^q is not integrable at 0 for q <= -1
            q, cp = pw.alpha * p - 1.0, pw.coef**p
            singular, kind, notes = q <= -1.0, "exact", tn

            def masses(bp, q=q):
                prim = bp ** (q + 1.0) / (q + 1.0)
                return prim[..., 1:] - prim[..., :-1]

        else:
            # phi^p / t = (phi * t^(-1/p))^p by the fixed-order rule of cell_integral_pow
            cp, kind = 1.0, "estimate"
            notes = tn + ("fixed-order quadrature for the weight; dt/t absorbed",)
            nodes, gl_w = _leggauss(_QUAD_ORDER)
            if isinstance(phi, PowerLogWeight):
                # t^a (1 + |log t|)^b: phi^p / t ~ t^(ap - 1) |log t|^(bp) is integrable at 0 iff
                # ap > 0, or ap = 0 and bp < -1; otherwise every nonzero x has norm +inf, exactly
                ap, lp = phi.alpha * p, phi.beta * p
                singular, probe = not (ap > 0.0 or (ap == 0.0 and lp < -1.0)), None
                if singular:
                    kind, notes = "exact", tn + ("phi^p/t not integrable at 0",)
            else:
                # any other weight: +inf on a first cell where phi^p / t is not finite near 0, a
                # probe that misses a singularity too mild to overflow there
                singular, probe = False, np.array([1e-12, 1e-6, 1.0])

            def masses(bp, phi=WeightProduct(phi, PowerWeight(-1.0 / p)), p=p, probe=probe):
                a, b = bp[..., :-1, None], bp[..., 1:, None]
                half = 0.5 * (b - a)
                with np.errstate(over="ignore", invalid="ignore"):
                    m = half[..., 0] * (np.asarray(phi(0.5 * (a + b) + half * nodes), dtype=float) ** p * gl_w).sum(-1)
                m = np.where(half[..., 0] > 0, m, 0.0)  # a cell that rounds to no width has no mass
                if probe is not None:
                    with np.errstate(over="ignore", invalid="ignore"):
                        near0 = np.asarray(phi(bp[..., 1:2] * probe), dtype=float) ** max(p, 1.0)
                    m[..., 0] = np.where(np.isfinite(near0).all(-1), m[..., 0], math.inf)
                return m

        def _lam_p(x, wd=widths, p=p):
            v, w, bp, order = _profile(x, wd)
            live = np.add.reduce(v > 0, -1)
            if live.ndim:
                if (live != live[0]).any():
                    return _each_row(_lam_p, zip(v, w, bp, order))
                live = live[0]
            if live == 0:
                return _fill(v, 0.0)
            if singular:
                return _fill(v, math.inf)
            terms = v[..., :live] ** p * masses(bp[..., : live + 1])
            terms.sort(-1)
            return _root(cp * np.add.reduce(terms, -1), p)

        def _lam_p_valgrad(prof, p=p):
            v, _, bp, _ = prof
            nrm = _lam_p(prof)
            if singular:
                return nrm, np.zeros(v.shape)
            return nrm, _lp_slope(v, cp * masses(bp), p, _col(nrm))

        return _CompiledNorm(_lam_p, kind, notes, profile=True, grad=_profile_grad(_lam_p_valgrad, widths))

    if isinstance(space, Marcinkiewicz):
        if pw is not None:
            lim0 = pw.coef if pw.alpha == 0.0 else 0.0

            def averages(v, w, bp, coef=pw.coef, alpha=pw.alpha):
                # phi x** at each cell's right end
                t = bp[..., 1:]
                return coef * t**alpha * (np.add.accumulate(v * w, -1) / t)

        else:
            lim0 = 0.0

            def averages(v, w, bp, phi=phi, frac=np.linspace(0.0, 1.0, 10)):
                # phi x** at ten points of each cell, its ends included; x** = x* = v at t = 0
                a = bp[..., :-1]
                ts = a[..., None] + (bp[..., 1:] - a)[..., None] * frac
                cum = np.zeros(bp.shape)
                np.add.accumulate(v * w, -1, out=cum[..., 1:])
                num = (cum[..., :-1] - v * a)[..., None] + v[..., None] * ts
                with np.errstate(divide="ignore", invalid="ignore"):
                    xdd = np.where(ts > 0, num / np.where(ts > 0, ts, 1.0), v[..., None])
                    g = np.asarray(phi(ts), dtype=float) * xdd
                return np.where(np.isnan(g), 0.0, g).reshape(v.shape[:-1] + (-1,))

        def peak(v, cand, lim0=lim0):
            best = np.maximum.reduce(cand, -1, initial=0.0)
            return np.maximum(best, lim0 * v[..., 0]) if lim0 else best

        def _marc(v, wd=widths):
            v, w, bp, _ = _profile(v, wd)
            return _out(peak(v, averages(v, w, bp)))

        if pw is None:
            return _CompiledNorm(_marc, "estimate", tn + ("cell suprema sampled",), profile=True)

        def _marc_valgrad(prof, coef=pw.coef, alpha=pw.alpha, lim0=lim0):
            # the active prefix: the cells up to the t where phi(t) x**(t) peaks
            v, w, bp, _ = prof
            t, cand = bp[..., 1:], averages(v, w, bp)
            best = peak(v, cand)
            j = cand.argmax(-1)[..., None]
            tj = t[j] if t.ndim == 1 else t[np.arange(len(t))[:, None], j]
            g = np.where(np.arange(v.shape[-1]) <= j, coef * tj ** (alpha - 1.0) * w, 0.0)
            if lim0:
                g = np.where((lim0 * v[..., 0] >= cand.max(-1))[..., None], lim0 * (np.arange(v.shape[-1]) == 0), g)
            return _out(best), g

        return _CompiledNorm(_marc, "exact", tn, profile=True, grad=_profile_grad(_marc_valgrad, widths))

    if isinstance(space, MarcinkiewiczStar):

        def levels(v, bp, phi=phi):
            # phi's sup over each profile cell; dead cells count as 0, below every live v * sup, as in _wsup
            return np.where(v > 0, phi.cell_sup(bp[..., :-1], bp[..., 1:]), 0.0)

        def _mstar(v, wd=widths):
            v, _, bp, _ = _profile(v, wd)
            return _out(np.maximum.reduce(v * levels(v, bp), -1, initial=0.0))

        def _mstar_valgrad(prof):
            c = levels(prof[0], prof[2])
            cand = prof[0] * c
            return _out(np.maximum.reduce(cand, -1, initial=0.0)), _at_max(cand, c)  # the arg-max cell

        return _CompiledNorm(_mstar, *sup_kind, profile=True, grad=_profile_grad(_mstar_valgrad, widths))

    if isinstance(space, LInftyWeighted):
        sups = phi.cell_sup(bp0[:-1], bp0[1:])

        def _wsup(v, s=sups):
            # dead cells count as 0, below every live v * s; masking s
            # keeps an infinite sup on a dead cell out of the product
            return _out((v * np.where(v > 0, s, 0.0)).max(-1, initial=0.0))

        def _wsup_grad(v, s=sups):
            live_s = np.where(v > 0, s, 0.0)
            return _wsup(v), _at_max(v * live_s, live_s)

        return _CompiledNorm(_wsup, *sup_kind, grad=_wsup_grad)

    if isinstance(space, OrliczCL):
        basec = norm_evaluator(space.base, mspace)
        if basec is None:
            return None
        phi = space.phi
        closed = isinstance(phi, ShiftedPower) and phi.p in (1.0, 2.0) and space.base == Lp(1.0)

        def _lux(v, base_fn=basec.fn, phi=phi, wd=widths if closed else None):
            return _luxemburg_value(base_fn, phi, v, wd)

        note = "shifted-power gauge in closed form" if closed else f"luxemburg gauge, secant bracket search, rtol {_LUX_RTOL:g}"
        if not closed:
            return _CompiledNorm(_lux, "estimate", basec.notes + (note,), basec.rowwise)

        def _lux_grad(v, wd=widths, a=phi.a, c=phi.c, p=phi.p):
            # implicit differentiation of sum wd phi(v / lam) = 1 in v and lam
            v = np.ascontiguousarray(v)  # a row sum groups by layout
            nrm = _lux(v)
            with np.errstate(divide="ignore", invalid="ignore"):
                u = v / _col(nrm)
                t = np.maximum(u - a, 0.0)
                dphi = c * p * (t if p == 2.0 else t > 0)  # phi'(u) for p in {1, 2}
                g = wd * dphi / (wd * dphi * u).sum(-1, keepdims=True)
            return nrm, np.where(np.isfinite(g), g, 0.0)

        return _CompiledNorm(_lux, "exact", basec.notes + (note,), grad=_lux_grad)

    if isinstance(space, Convexification):
        basec = norm_evaluator(space.base, mspace)
        if basec is None:
            return None
        p = space.p

        def _conv(v, base_fn=basec.fn, p=p):
            s = base_fn(np.ascontiguousarray(v) ** p)
            # one row's norm goes to _root as a numpy scalar: a 0-d array would take the vectorized power
            return _root(s if v.ndim > 1 else np.float64(s), p)

        def _conv_grad(v, base_grad=basec.grad, p=p):
            # the chain rule through v -> v^p and s -> s^(1/p)
            v = np.ascontiguousarray(v)
            s, gb = base_grad(v**p)
            nrm = _root(s if v.ndim > 1 else np.float64(s), p)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                g = gb * (v ** (p - 1.0) if p != 1.0 else 1.0) * (_col(nrm) / _col(s))
            return nrm, np.where(np.isfinite(g) & ((v > 0) | (p == 1.0)), g, 0.0)

        grad = _conv_grad if basec.grad is not None else None
        return _CompiledNorm(_conv, basec.kind, basec.notes, basec.rowwise, grad=grad)

    # canonical leaves one symmetrization with a kernel: the doublestar of L^p(c*t^a), p finite
    if isinstance(space, Symmetrization) and space.mode == "doublestar" and isinstance(space.base, Lp):
        pw = _weight_pow(space.base.weight, 1.0)
        if pw is None:
            return None
        p = space.base.p
        q, cp, alpha = pw.alpha * p, pw.coef**p, pw.alpha
        nodes, gl_w = _leggauss(16)

        def _dstar_lp(v, wd=widths, p=p, q=q, cp=cp, alpha=alpha, nodes=nodes, gl_w=gl_w):
            v, w_, bp, _ = _decreasing_profile(v, wd)
            if v[0] <= 0:
                return 0.0
            cum = np.concatenate(([0.0], np.cumsum(v * w_)))
            a, b = bp[:-1], bp[1:]
            B = cum[:-1] - v * a
            # first cell: x** = v[0], integrand is a pure power
            if q <= -1.0:
                return math.inf
            total = cp * v[0] ** p * b[0] ** (q + 1.0) / (q + 1.0)
            if a.size > 1:
                mid = 0.5 * (a[1:, None] + b[1:, None])
                half = 0.5 * (b[1:, None] - a[1:, None])
                ts = mid + half * nodes[None, :]
                xdd = (B[1:, None] + v[1:, None] * ts) / ts
                integ = (xdd * ts**alpha) ** p
                total += cp * float(np.sum(gl_w[None, :] * half * integ))
            return float(total ** (1.0 / p))

        return _rowwise(_dstar_lp, "estimate", tn + ("x** integrated by per-cell quadrature",))

    return None


def _luxemburg_value(base_fn: Callable, phi: YoungFunction, v: np.ndarray, widths=None):
    """Per row, the least ``lam`` with ``|phi(row / lam)|_base <= 1``, from
    above, so the modular at it is <= 1.  Given the grid's ``widths`` (phi
    a ``ShiftedPower`` with p in {1, 2}, the base unweighted L^1), in closed
    form (``_shifted_power_rows``).  Else to relative width ``_LUX_RTOL``,
    all rows searching in lockstep: one step is one ``phi`` call and one
    ``base_fn`` call over every row still searching."""
    V = np.atleast_2d(v)
    if (V < 0).any():
        raise ValueError("Young functions take nonnegative arguments")
    top = V.max(-1)
    pos = (V > 0).any(-1)
    out = np.where(pos, math.inf, 0.0)
    rows = np.flatnonzero(pos & np.isfinite(top))
    if rows.size and widths is not None:
        out[rows] = _shifted_power_rows(base_fn, phi, widths, V[rows], top[rows])
    elif rows.size:
        Vr = V[rows]

        def probe(idx, lam):
            ph = phi._eval(Vr[idx] / lam[:, None])
            fin = np.isfinite(ph).all(-1)
            mod = np.full(idx.size, math.inf)
            if fin.any():
                live = ph[fin]  # one row goes to the kernel as a row: its faster path
                mod[fin] = base_fn(live) if len(live) > 1 else base_fn(live[0])
            mod = mod.tolist()
            return [m <= 1.0 for m in mod], [_log(m) for m in mod]

        top = top[rows]
        # phi is infinite past b_phi, so no lam below top / b_phi fits,
        # and where the top cell hits the cap the gauge is that floor
        floor = top / phi.b_phi if math.isfinite(phi.b_phi) else None
        # a probe far above the gauge may overflow phi: a verdict, not an error
        with np.errstate(over="ignore"):
            out[rows] = _threshold(probe, top if floor is None else np.maximum(top, 2.0 * floor), _LUX_RTOL, floor)
    return _out(out if v.ndim > 1 else out[0])


def _shifted_power_rows(base_fn: Callable, phi: ShiftedPower, widths: np.ndarray, Vr: np.ndarray, top: np.ndarray):
    """The gauge of ``c*(u - a)_+^p`` over L^1 (p in {1, 2}) of rows with
    top cells ``top > 0``.  With mu = 1/lam and a row sorted down (x*,
    widths w alike), the top-j piece ``c * sum_{i<=j} w_i (x*_i mu - a)^p``
    is at most the modular where mu >= a/x*_j, with equality at the j
    active at the gauge: so mu = min_j max(mu_j, a/x*_j), mu_j the piece's
    (larger) root.  A Newton step on the modular polishes it, to within 4
    ulps of the result on every optimizer row measured.  The modular through ``base_fn`` is
    monotone in lam (each rounding is), and the result is the least float
    where it is <= 1: each step probes nine points a row, lam and 4 ulps
    either side, then growing strides past the one known end of the
    bracket or tenths inside it, until the ends are adjacent.  A root that
    is not finite and positive goes to the search."""
    a, c, p, K = phi.a, phi.c, phi.p, np.arange(1.0, 10.0)
    order = (-Vr).argsort(-1)
    x, w = Vr[np.arange(len(Vr))[:, None], order] / top[:, None], widths[order]  # rows scaled to top 1
    wx = w * x
    s0, s1, s2 = w.cumsum(-1), wx.cumsum(-1), (wx * x).cumsum(-1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if p == 1.0:
            mu = (1.0 / c + a * s0) / s1
        else:
            mu = (a * s1 + np.sqrt(np.maximum(s2 / c - a * a * (s0 * s2 - s1 * s1), 0.0))) / s2
        mu = np.where(x > 0, np.maximum(mu, a / x), math.inf).min(-1)
        t = np.maximum(x * mu[:, None] - a, 0.0)
        g = t if p == 2.0 else (t > 0)  # t^(p-1) on the live cells
        slope = p * c * (wx * g).sum(-1)
        lam = top / np.where(slope > 0, mu - (c * (w * t * g).sum(-1) - 1.0) / slope, mu)
    good = np.isfinite(lam) & (lam > 0)
    lo, hi, step = np.zeros_like(lam), np.full_like(lam, math.inf), np.spacing(lam)[:, None]
    T = lam[:, None] + step * (K - 5.0)
    idx = np.flatnonzero(good)
    while idx.size:
        Ti = T[idx]
        ok = base_fn(phi._eval((Vr[idx, None, :] / Ti[..., None]).reshape(-1, Vr.shape[1]))).reshape(Ti.shape) <= 1.0
        hi[idx] = np.minimum(hi[idx], np.where(ok, Ti, math.inf).min(-1))
        lo[idx] = np.maximum(lo[idx], np.where(ok, 0.0, Ti).max(-1))
        idx = idx[~(hi[idx] - lo[idx] <= np.spacing(hi[idx]))]
        if idx.size:
            l, h, s = lo[idx, None], hi[idx, None], step[idx]
            T[idx] = np.where(h == math.inf, l + s * K, np.where(l == 0.0, np.maximum(h - s * K, 0.5 * h), l + (h - l) * K / 10.0))
            step[idx] *= 8.0
    if not good.all():
        hi[~good] = _luxemburg_value(base_fn, phi, Vr[~good])
    return hi


def norm_evaluator(space: SpaceDescriptor, mspace: MeasureSpace) -> Optional[_CompiledNorm]:
    """Compiled fast-path norm for ``space`` on ``mspace``, or None.

    The returned object's ``fn`` maps a per-cell value array of shape
    ``(n,)`` straight to the norm value as a float, and a ``(k, n)``
    array of k >= 1 rows to an array of their k norms.  Batching never moves
    a bit: ``fn(V)[i] == fn(V[i])`` exactly, for any memory layout of V.
    Callers in the variational engine hold on to ``fn`` across thousands
    of evaluations, and batch them unless ``rowwise`` says ``fn`` runs a
    batch one row at a time.  Where ``profile`` is set (every Lorentz and
    Marcinkiewicz kernel, for every weight), ``fn`` also takes the
    ``_decreasing_profile`` of the values (or rows of one of a larger
    stack), bit for bit alike.
    """
    key = (space, mspace)
    hit = _COMPILE_CACHE.get(key)
    if hit is not None:
        _COMPILE_CACHE.move_to_end(key)
        return hit
    compiled = _compile(canonical(space), mspace)
    if compiled is not None:
        _COMPILE_CACHE[key] = compiled
        if len(_COMPILE_CACHE) > _COMPILE_CACHE_CAP:
            _COMPILE_CACHE.popitem(last=False)
    return compiled


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def norm(space: SpaceDescriptor, x: StepFunction) -> NormResult:
    """Norm of ``x`` in the described space.

    Primitive descriptors are evaluated in closed form; variational ones
    (Product, Multiplier, Calderon, table-less Dual) are delegated to
    the product engine and come back as certified bounds.  A
    symmetrization without a compiled kernel is the base norm of the
    rearrangement, or of a step bounding x** from above.
    """
    sp = canonical(space)
    compiled = norm_evaluator(sp, x.space)
    if compiled is not None:
        return NormResult(compiled.fn(x.values), compiled.kind, None, compiled.notes)
    if isinstance(sp, Convexification):
        inner = norm(sp.base, x.with_values(x.values**sp.p))
        return NormResult(inner.value ** (1.0 / sp.p), inner.kind, inner.witness, inner.notes)
    if isinstance(sp, Symmetrization):
        if sp.mode == "star":
            return norm(sp.base, rearrange(x))
        res = norm(sp.base, _doublestar_step(x))
        kind = "estimate" if res.kind == "exact" else res.kind
        return NormResult(res.value, kind, res.witness, res.notes + ("x** sampled at cell left endpoints (pointwise upper step)",))
    if isinstance(sp, OrliczCL):
        raise ValueError("luxemburg_norm needs a primitive base space")
    from . import product as _product

    return _product.variational_norm(sp, x)


def symmetrization_norm(space: SpaceDescriptor, mode: str, x: StepFunction) -> NormResult:
    """Norm of x* (mode 'star') or of x** (mode 'doublestar') in ``space``:
    ``norm(Symmetrization(space, mode), x)``."""
    return norm(Symmetrization(space, mode), x)


def _doublestar_step(x: StepFunction) -> StepFunction:
    """Step over-approximation of x** on the sorted grid with each cell
    cut in 8.

    A counting grid is not refined: each cell is an atom, so the step is
    ``[x*(1), x**(1), ..., x**(n-1)]`` on the sorted grid itself.
    """
    xs = rearrange(x)
    space = xs.space if xs.space.kind == COUNTING else _refine(xs.space, 8)
    lefts = space.breakpoints[:-1]
    vals = np.empty(lefts.size)
    if lefts[0] == 0.0:
        vals[0] = float(xs.values[0])
        vals[1:] = np.asarray(double_star(xs, lefts[1:]), dtype=float)
    else:
        vals[:] = np.asarray(double_star(xs, lefts), dtype=float)
    return StepFunction(space, vals)


def fundamental(space: SpaceDescriptor, t: float, mspace: Optional[MeasureSpace] = None) -> NormResult:
    """Norm of the indicator of (0, t], on a grid containing t exactly.

    When ``mspace`` is supplied, t is snapped to the nearest breakpoint
    and the snap is recorded in the notes.
    """
    t = float(t)
    if not (t > 0 and math.isfinite(t)):
        raise ValueError("fundamental requires 0 < t < inf")
    if mspace is None:
        mspace = unit_interval(include=(t,)) if t <= 1.0 else half_line(include=(t,))
    bp = mspace.breakpoints
    j = int(np.argmin(np.abs(bp - t)))
    if j == 0:
        j = 1
    t_snap = float(bp[j])
    values = (bp[1:] <= t_snap * (1.0 + 1e-12)).astype(float)
    res = norm(space, StepFunction(mspace, values))
    notes = res.notes
    if t_snap != t:
        notes = notes + (f"t snapped from {t!r} to breakpoint {t_snap!r}",)
    return NormResult(res.value, res.kind, res.witness, notes)


def modular(base: SpaceDescriptor, phi: YoungFunction, x: StepFunction) -> float:
    """``| phi(|x|) |_base``; +inf as soon as phi blows up on a live cell."""
    ph = np.asarray(phi(x.values), dtype=float)
    if np.any(~np.isfinite(ph)):
        return math.inf
    return norm(base, x.with_values(ph)).value


def luxemburg_norm(base: SpaceDescriptor, phi: YoungFunction, x: StepFunction) -> NormResult:
    """Gauge ``inf{lam : modular(x/lam) <= 1}``: ``norm(OrliczCL(base, phi), x)``.

    The compiled gauge returns the upper end of a bracket of relative
    width 1e-10 (the least such float, for a shifted power over L^1), so
    the modular at the result is guaranteed <= 1.  An infinite gauge
    carries a note that x is outside the space.
    """
    res = norm(OrliczCL(base, phi), x)
    if math.isinf(res.value):
        return NormResult(res.value, res.kind, res.witness, res.notes + ("modular stays above 1: x is outside the space",))
    return res


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def lorentz_pq(p: float, q: float) -> SpaceDescriptor:
    """Classical two-index Lorentz space; q = inf gives the weak-type sup."""
    if not (p >= 1.0):
        raise ValueError("need p >= 1")
    if math.isinf(q):
        return MarcinkiewiczStar(PowerWeight(1.0 / p))
    return LorentzLambdaP(PowerWeight(1.0 / p), q)


def lorentz_p1_exact(p: float) -> SpaceDescriptor:
    """First-index Lorentz space scaled so the indicator of (0,t] has norm t^(1/p)."""
    return LorentzLambdaP(PowerWeight(1.0 / p, 1.0 / p), 1.0)


def weak_lp(p: float) -> SpaceDescriptor:
    """Weak-L^p in its maximal-function (normable) form: sup t^(1/p) x**."""
    return Marcinkiewicz(PowerWeight(1.0 / p))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _p_to_json(p: float):
    return "inf" if math.isinf(p) else p


def _p_from_json(p) -> float:
    return math.inf if p == "inf" else float(p)


def space_to_json(space: SpaceDescriptor) -> dict:
    if isinstance(space, Lp):
        return {
            "kind": "lp",
            "p": _p_to_json(space.p),
            "weight": None if space.weight is None else weight_to_json(space.weight),
        }
    if isinstance(space, LorentzLambda):
        return {"kind": "lorentz_lambda", "phi": weight_to_json(space.phi)}
    if isinstance(space, LorentzLambdaP):
        return {"kind": "lorentz_lambda_p", "phi": weight_to_json(space.phi), "p": space.p}
    if isinstance(space, Marcinkiewicz):
        return {"kind": "marcinkiewicz", "phi": weight_to_json(space.phi)}
    if isinstance(space, MarcinkiewiczStar):
        return {"kind": "marcinkiewicz_star", "phi": weight_to_json(space.phi)}
    if isinstance(space, LInftyWeighted):
        return {"kind": "linfty_weighted", "phi": weight_to_json(space.phi)}
    if isinstance(space, OrliczCL):
        return {"kind": "orlicz", "base": space_to_json(space.base), "phi": young_to_json(space.phi)}
    if isinstance(space, Calderon):
        return {
            "kind": "calderon",
            "E": space_to_json(space.E),
            "F": space_to_json(space.F),
            "theta": space.theta,
        }
    if isinstance(space, Product):
        return {"kind": "product", "E": space_to_json(space.E), "F": space_to_json(space.F)}
    if isinstance(space, Multiplier):
        return {"kind": "multiplier", "E": space_to_json(space.E), "F": space_to_json(space.F)}
    if isinstance(space, Dual):
        return {"kind": "dual", "E": space_to_json(space.E)}
    if isinstance(space, Convexification):
        return {"kind": "convexification", "base": space_to_json(space.base), "p": space.p}
    if isinstance(space, Symmetrization):
        return {"kind": "symmetrization", "base": space_to_json(space.base), "mode": space.mode}
    raise TypeError(f"not a space descriptor: {space!r}")


def space_from_json(data: dict) -> SpaceDescriptor:
    kind = data["kind"]
    if kind == "lp":
        w = data.get("weight")
        return Lp(_p_from_json(data["p"]), None if w is None else weight_from_json(w))
    if kind == "lorentz_lambda":
        return LorentzLambda(weight_from_json(data["phi"]))
    if kind == "lorentz_lambda_p":
        return LorentzLambdaP(weight_from_json(data["phi"]), float(data["p"]))
    if kind == "marcinkiewicz":
        return Marcinkiewicz(weight_from_json(data["phi"]))
    if kind == "marcinkiewicz_star":
        return MarcinkiewiczStar(weight_from_json(data["phi"]))
    if kind == "linfty_weighted":
        return LInftyWeighted(weight_from_json(data["phi"]))
    if kind == "orlicz":
        return OrliczCL(space_from_json(data["base"]), young_from_json(data["phi"]))
    if kind == "calderon":
        return Calderon(space_from_json(data["E"]), space_from_json(data["F"]), float(data["theta"]))
    if kind == "product":
        return Product(space_from_json(data["E"]), space_from_json(data["F"]))
    if kind == "multiplier":
        return Multiplier(space_from_json(data["E"]), space_from_json(data["F"]))
    if kind == "dual":
        return Dual(space_from_json(data["E"]))
    if kind == "convexification":
        return Convexification(space_from_json(data["base"]), float(data["p"]))
    if kind == "symmetrization":
        return Symmetrization(space_from_json(data["base"]), data["mode"])
    raise ValueError(f"unknown space kind {kind!r}")
