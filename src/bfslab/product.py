"""Variational norms built from factorizations.

The product norm ``inf { |x|_E |y|_F : z = x y }`` has a closed form
where ``canonical`` rewrites ``Product(E, F)`` by an exact identity
(``spaces._product_rule``): the value is the norm of the rewritten
space, and the witness splits z by the exponent share the rule reports.
Elsewhere lockstep multi-start coordinate descent over ``x = exp(u)`` on
the support of z computes it: the seeded starts are the rows of one
matrix, and their golden-section line searches share batched kernel
calls.  Each call looks ahead: a call evaluates
every point that the next few golden steps could probe, and each start
then walks its own tree of brackets with its real comparisons, so the
results are those of one step per call, bit for bit, from a fraction of
the calls.  Every numeric result is a certified upper bound: the
witness pair is returned and its norms are recomputed through the
public norm evaluators, so the reported value can never undercut its
own certificate.

Multiplier and dual norms run the same machinery in the opposite
direction (ratio ascent over a test family), so those values are lower
bounds.  The two directions are kept apart deliberately; no function
here reports a point estimate as if it were exact unless a closed form
fired.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .grid import COUNTING, MeasureSpace, StepFunction, step_from_json, step_to_json
from .spaces import (
    Calderon,
    Convexification,
    Dual,
    Lp,
    LorentzLambda,
    LorentzLambdaP,
    Marcinkiewicz,
    MarcinkiewiczStar,
    Multiplier,
    NormResult,
    Product,
    SpaceDescriptor,
    _is_plain_sup,
    _product_rule,
    _rowwise,
    canonical,
    dual_descriptor,
    is_primitive,
    is_symmetric,
    luxemburg_norm,
    norm,
    norm_evaluator,
)
from .weights import NonIntegrableWeight, PowerWeight, simplify_power
from .young import YoungFunction, check_relation, inverse, inverse_batch

__all__ = [
    "FactorizationWitness",
    "product_norm",
    "equalize_norms",
    "calderon_norm",
    "multiplier_norm",
    "dual_norm_numeric",
    "lozanovskii_factorize",
    "orlicz_factor_witness",
    "variational_norm",
    "witness_to_json",
    "witness_from_json",
    "DEFAULT_OPTS",
]

# Documented optimizer defaults; callers override per key.
DEFAULT_OPTS = {
    "max_sweeps": 5000,  # sweep budget for the leading starts
    "quick_sweeps": 40,  # budget for non-leading starts
    "golden_iters": 14,  # golden-section steps per coordinate search
    "target": None,  # early exit once the objective is at or below
}

_FULL_STARTS = 3  # leading starts that get the full budget
_SWEEP_RTOL = 1e-10  # stop once a sweep improves J by less than this
_SPAN = 1.5  # coordinate search half-width in log units
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_CALL_ROWS = 32  # fixed cost of one objective call, in rows (measured at n = 16)
_RATIO_CAP = 1e8
# objectives may overflow, divide by 0 or multiply 0 by inf; the
# engine maps every such value to +inf or 0 as the scalar code did
_QUIET = {"divide": "ignore", "invalid": "ignore", "over": "ignore"}


@dataclass(frozen=True)
class FactorizationWitness:
    """A factorization z = x*y certifying an upper bound |x|_E |y|_F."""

    x: StepFunction
    y: StepFunction
    norm_x: float
    norm_y: float
    product: float
    method: str
    equalized: bool = False
    notes: tuple = ()

    def __post_init__(self):
        if self.method not in ("closed_form", "optimizer", "constructive"):
            raise ValueError(f"unknown witness method {self.method!r}")
        expected = self.norm_x * self.norm_y
        if math.isfinite(expected) and abs(self.product - expected) > 1e-9 * max(1.0, expected):
            raise ValueError("witness product must equal norm_x * norm_y")


def witness_to_json(w: FactorizationWitness) -> dict:
    return {
        "x": step_to_json(w.x),
        "y": step_to_json(w.y),
        "norm_x": w.norm_x,
        "norm_y": w.norm_y,
        "product": w.product,
        "method": w.method,
        "equalized": w.equalized,
        "notes": list(w.notes),
    }


def witness_from_json(data: dict) -> FactorizationWitness:
    return FactorizationWitness(
        x=step_from_json(data["x"]),
        y=step_from_json(data["y"]),
        norm_x=float(data["norm_x"]),
        norm_y=float(data["norm_y"]),
        product=float(data["product"]),
        method=data["method"],
        equalized=bool(data.get("equalized", False)),
        notes=tuple(data.get("notes", ())),
    )


def _zero_witness(z: StepFunction, method: str = "closed_form") -> FactorizationWitness:
    zero = z.with_values(np.zeros_like(z.values))
    return FactorizationWitness(zero, zero, 0.0, 0.0, 0.0, method)


def _norm_fn(space: SpaceDescriptor, mspace: MeasureSpace) -> Callable[[np.ndarray], float]:
    sp = canonical(space)
    compiled = norm_evaluator(sp, mspace)
    if compiled is not None:
        return compiled.fn

    def fn(values: np.ndarray) -> float:
        return norm(sp, StepFunction(mspace, values)).value

    return _rowwise(fn)


def _merge_opts(opts: Optional[dict]) -> dict:
    merged = dict(DEFAULT_OPTS)
    if opts:
        unknown = set(opts) - set(DEFAULT_OPTS)
        if unknown:
            raise ValueError(f"unknown optimizer options: {sorted(unknown)}")
        for key, val in opts.items():
            if key == "target":
                if val is None:
                    continue
                if isinstance(val, bool) or not isinstance(val, numbers.Real) or math.isnan(val):
                    raise ValueError(f"optimizer option 'target' must be None or a real number, got {val!r}")
            elif isinstance(val, bool) or not isinstance(val, numbers.Integral) or val < 0:
                raise ValueError(f"optimizer option {key!r} must be an integer >= 0, got {val!r}")
        merged.update(opts)
    return merged


# ---------------------------------------------------------------------------
# coordinate descent core
# ---------------------------------------------------------------------------


def _call_rows(*fns) -> int:
    """Fixed cost of one objective call over the kernels ``fns``, in rows.

    A kernel that runs row by row (``spaces._rowwise``) has no per-call
    cost to share: a batch of k rows costs k calls.  An objective over
    one gets 0, so its searches take one golden step per call.
    """
    return 0 if any(getattr(fn, "rowwise", False) for fn in fns) else _CALL_ROWS


@functools.lru_cache(maxsize=1024)
def _lookahead(k: int, steps: int, first: bool, call_rows: int) -> int:
    """Golden steps one J call takes for k rows with ``steps`` left.

    A call of depth d probes 2^d - 1 points per row, or 2^d on a
    search's first call, whose depth counts the (c, d) pair as a step.
    The depth minimises the cost per step, (call_rows + k * points) / d.
    """
    pad = 0 if first else 1

    def per_step(d):
        return (call_rows + k * (2**d - pad)) / d

    depth = 1
    while depth < steps + first and per_step(depth + 1) < per_step(depth):
        depth += 1
    return depth


def _golden_rows(J, P: np.ndarray, i: int, iters: int, call_rows: int = _CALL_ROWS):
    """Golden-section search of every row of P along coordinate i.

    Where a golden step probes depends only on its bracket and on whether
    fc < fd, not on the value the probe returns.  So each J call looks d
    steps ahead: it evaluates every point those steps could probe, a
    binary tree of brackets per row (2^d - 1 points, or 2^d on the first
    call: c, d and both branches of each later step), and each row then
    walks its tree with its real comparisons.  Probes, values and picks
    are those of one step per call, bit for bit; _lookahead picks d
    from k and from ``call_rows``, the fixed cost of a J call in rows.

    The brackets are kept in Python floats, the one-row arithmetic
    exactly, as four lists A, B, C, D over the nodes of a tree level.  A
    level holds blocks of k rows: growing one level puts the children
    that keep [a, d] (fc < fd) first, then those that keep [c, b], so
    the node a row reaches by comparisons b_1, b_2, ... (1 = keep
    [c, b]) sits in block sum(b_l * 2^(l-1)).  The batch holds the probe
    blocks level after level; column i of P is overwritten.  Returns
    (argmin, min) lists, one entry per row.
    """
    k = P.shape[0]
    center = P[:, i].tolist()
    A = [t - _SPAN for t in center]
    B = [t + _SPAN for t in center]
    C = [b - _GOLDEN * (b - a) for a, b in zip(A, B)]
    D = [a + _GOLDEN * (b - a) for a, b in zip(A, B)]
    fc, fd, left = [None] * k, [None] * k, [False] * k
    first, done = True, 0
    while first or done < iters:
        depth = _lookahead(k, iters - done, first, call_rows)
        if first:
            # blocks 0 and 1 are c and d; the tree's root is the bracket itself
            probes, off = C + D, 0
        else:
            # this call's first comparison is known: the root is its step
            probes, off = [], 1
            for r, lt in enumerate(left):
                if lt:
                    B[r], D[r] = D[r], C[r]
                    C[r] = B[r] - _GOLDEN * (B[r] - A[r])
                    probes.append(C[r])
                else:
                    A[r], C[r] = C[r], D[r]
                    D[r] = A[r] + _GOLDEN * (B[r] - A[r])
                    probes.append(D[r])
        for _ in range(depth - 1):
            cl = [d - _GOLDEN * (d - a) for a, d in zip(A, D)]
            dr = [c + _GOLDEN * (b - c) for b, c in zip(B, C)]
            probes += cl + dr
            A, B, C, D = A + C, D + B, cl + D, C + dr
        if len(probes) == k:
            Q = P
        else:
            Q = np.empty((len(probes), P.shape[1]))
            Q.reshape(-1, k, P.shape[1])[:] = P  # one copy of P per block
        Q[:, i] = probes
        f = J(Q).tolist()
        at = []
        for r in range(k):
            if first:
                vc, vd = f[r], f[k + r]
            else:
                vc, vd = (f[r], fc[r]) if left[r] else (fd[r], f[r])
            block = 0
            for lev in range(1, depth):
                keep_cb = not vc < vd
                block += keep_cb << (lev - 1)
                v = f[((1 << lev) - off + block) * k + r]
                vc, vd = (vd, v) if keep_cb else (v, vc)
            at.append(block * k + r)
            fc[r], fd[r], left[r] = vc, vd, vc < vd
        if depth > 1:
            A, B, C, D = ([X[j] for j in at] for X in (A, B, C, D))
        done += depth - first
        first = False
    return [c if lt else d for c, d, lt in zip(C, D, left)], [
        vc if lt else vd for vc, vd, lt in zip(fc, fd, left)
    ]


def _lockstep_descent(
    J, U: np.ndarray, f0: np.ndarray, budgets: np.ndarray, iters: int, target, call_rows: int = _CALL_ROWS
):
    """Cyclic coordinate descent with golden line searches, every start at once.

    Row r of U is a start, with f0[r] = J(U[r]); J maps a (k, m) matrix
    to its k objective values.  A sweep runs a golden-section search
    along each coordinate in turn, for all live rows together.  Row r
    stops after budgets[r] sweeps, or converged once a sweep ends at or
    below ``target`` or improves J by at most _SWEEP_RTOL.  ``call_rows``
    is the fixed cost of one J call in rows (see _call_rows).  Returns
    (U, best J per row, converged per row).

    Rows are independent, so the schedule changes no result.  _select
    takes the rows in rank order and stops at the first one at or below
    ``target``, so the rows after it are dropped as soon as it gets
    there; the rows before it run on.
    """
    U = np.array(U, dtype=float, order="C")
    best = np.array(f0, dtype=float)
    sweeps = np.zeros(len(U), dtype=int)
    converged = np.zeros(len(U), dtype=bool)
    live = budgets > 0

    def drop_after_target():
        if target is not None:
            hit = np.flatnonzero(best <= target)
            if hit.size:
                live[hit[0] + 1 :] = False

    drop_after_target()
    while live.any():
        prev = best.copy()
        for i in range(U.shape[1]):
            rows = np.flatnonzero(live)
            t, f = map(np.array, _golden_rows(J, U[rows], i, iters, call_rows))
            better = f < best[rows]
            U[rows[better], i] = t[better]
            best[rows[better]] = f[better]
            drop_after_target()
        rows = np.flatnonzero(live)
        sweeps[rows] += 1
        p, b = prev[rows], best[rows]
        done = p - b <= _SWEEP_RTOL * np.maximum(np.abs(p), 1e-300)
        if target is not None:
            done |= b <= target
        converged[rows] = done
        live[rows] = ~done & (sweeps[rows] < budgets[rows])
    return U, best, converged


def _select(vals: np.ndarray, converged: np.ndarray, target):
    """Rank-order pick of the best start: (row, converged flag).

    The first strict improvement wins, and the scan stops at the first
    row at or below ``target``, which then counts as converged.
    """
    best_r, best_val, any_converged = None, math.inf, False
    for r, val in enumerate(vals.tolist()):
        if val < best_val:
            best_r, best_val = r, val
            any_converged = bool(converged[r])
        if target is not None and best_val <= target:
            return best_r, True
    return best_r, any_converged


def _monotone_embed(v: np.ndarray) -> np.ndarray:
    """Map free parameters (head, nonneg decrements) to a non-increasing u, per row."""
    dec = np.maximum(v, 0.0)
    dec[..., 0] = 0.0
    return v[..., :1] - dec.cumsum(-1)


def _monotone_params(u: np.ndarray) -> np.ndarray:
    """Free parameters (head, decrements) of u; inverts _monotone_embed on non-increasing u."""
    v = np.empty_like(u)
    v[0] = u[0]
    v[1:] = np.maximum(u[:-1] - u[1:], 0.0)
    return v


def _seed_vectors(E, F, z_supp, widths_supp, t_right_supp) -> list:
    """Log-domain starting points for x on supp z."""
    logz = np.log(z_supp)
    seeds = [theta * logz for theta in (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875)]
    seeds.append(np.zeros_like(logz))
    for side, sp in (("E", canonical(E)), ("F", canonical(F))):
        extra = _structured_seed(sp, z_supp, widths_supp, t_right_supp)
        if extra is None:
            continue
        seeds.append(extra if side == "E" else logz - extra)
    return seeds


def _structured_seed(sp, z_supp, widths_supp, t_right_supp):
    """Shape-aware seed for spaces with a known extremal profile."""
    if isinstance(sp, MarcinkiewiczStar):
        order = np.argsort(-z_supp, kind="stable")
        cum = np.cumsum(widths_supp[order])
        xv = np.empty_like(z_supp)
        xv[order] = 1.0 / np.maximum(np.asarray(sp.phi(cum), dtype=float), 1e-300)
        return np.log(xv)
    if isinstance(sp, (LorentzLambda, LorentzLambdaP)):
        pw = simplify_power(sp.phi)
        if pw is not None and 0.0 < pw.alpha < 1.0:
            return np.log(z_supp) + (1.0 - pw.alpha) * np.log(t_right_supp)
    return None


def _split(u: np.ndarray, supp: np.ndarray, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factors x = e^u and y = z / x on supp z, zero elsewhere; one pair per row of u."""
    eu = np.exp(np.clip(u, -60.0, 60.0))
    if zs.size == supp.size:
        return eu, zs / eu
    shape = u.shape[:-1] + supp.shape
    xv = np.zeros(shape)
    yv = np.zeros(shape)
    xv[..., supp] = eu
    yv[..., supp] = zs / eu
    return xv, yv


def _optimize_product(E, F, z: StepFunction, o: dict):
    mspace = z.space
    supp = z.values > 0.0
    zs = z.values[supp]
    fe = _norm_fn(E, mspace)
    ff = _norm_fn(F, mspace)

    def J(U: np.ndarray) -> np.ndarray:
        xv, yv = _split(U, supp, zs)
        val = fe(xv) * ff(yv)
        return np.where(np.isfinite(val), val, math.inf)

    seeds = np.array(_seed_vectors(E, F, zs, mspace.widths[supp], mspace.breakpoints[1:][supp]))
    with np.errstate(**_QUIET):
        f0 = J(seeds)
        rank = np.argsort(f0, kind="stable")
        budgets = np.full(rank.size, min(o["quick_sweeps"], o["max_sweeps"]))
        budgets[:_FULL_STARTS] = o["max_sweeps"]
        U, vals, conv = _lockstep_descent(
            J, seeds[rank], f0[rank], budgets, o["golden_iters"], o["target"], _call_rows(fe, ff)
        )
    best_r, any_converged = _select(vals, conv, o["target"])
    xv, yv = _split(U[best_r], supp, zs)
    return StepFunction(mspace, xv), StepFunction(mspace, yv), any_converged


# ---------------------------------------------------------------------------
# closed-form table
# ---------------------------------------------------------------------------


def _balanced_factor(E: Lp, F: Lp, z: StepFunction) -> Optional[np.ndarray]:
    """The x that balances the two weighted cell masses of a Lebesgue pair:
    optimal among cell-constant factors.  None when no such x exists: an
    infinite exponent, or a cell mass that is not finite and positive."""
    if not (math.isfinite(E.p) and math.isfinite(F.p)):
        return None
    a, b = z.space.breakpoints[:-1], z.space.breakpoints[1:]
    w1 = E.weight if E.weight is not None else PowerWeight(0.0, 1.0)
    w2 = F.weight if F.weight is not None else PowerWeight(0.0, 1.0)
    try:
        W1 = np.array([w1.cell_integral_pow(ai, bi, E.p) for ai, bi in zip(a, b)])
        W2 = np.array([w2.cell_integral_pow(ai, bi, F.p) for ai, bi in zip(a, b)])
    except (NonIntegrableWeight, ArithmeticError):
        return None
    if not (np.all(np.isfinite(W1)) and np.all(np.isfinite(W2)) and np.all(W1 > 0) and np.all(W2 > 0)):
        return None
    return (z.values**F.p * W2 / W1) ** (1.0 / (E.p + F.p))


def _closed_mstar_pair(E: MarcinkiewiczStar, F: MarcinkiewiczStar, z: StepFunction):
    pwE = simplify_power(E.phi)
    pwF = simplify_power(F.phi)
    if pwE is None or pwF is None or pwE.alpha < 0 or pwF.alpha < 0:
        return None
    order = np.argsort(-z.values, kind="stable")
    cum = np.cumsum(z.space.widths[order])
    phiE = np.asarray(E.phi(cum), dtype=float)
    phiF = np.asarray(F.phi(cum), dtype=float)
    z_sorted = z.values[order]
    big = float(np.max(z_sorted * phiE * phiF))
    if big == 0.0:
        return NormResult(0.0, "exact", _zero_witness(z)), _zero_witness(z)
    c = math.sqrt(big)
    xv = np.zeros_like(z.values)
    yv = np.zeros_like(z.values)
    pos = z_sorted > 0
    xv[order[pos]] = c / phiE[pos]
    yv[order[pos]] = z_sorted[pos] * phiE[pos] / c
    x = z.with_values(xv)
    y = z.with_values(yv)
    notes = ("upper bound within factor 2 of the product norm",)
    wit = _witness_from_pair(E, F, x, y, "constructive", notes)
    return NormResult(wit.product, "upper_bound", wit, notes), wit


def _safe_quotient(z: StepFunction, x: StepFunction) -> StepFunction:
    with np.errstate(divide="ignore", invalid="ignore"):
        yv = np.where(z.values > 0, z.values / np.where(x.values > 0, x.values, 1.0), 0.0)
    return z.with_values(yv)


def _witness_from_pair(E, F, x, y, method, notes=()) -> FactorizationWitness:
    nx = norm(E, x).value
    ny = norm(F, y).value
    return FactorizationWitness(x, y, nx, ny, nx * ny, method, notes=notes)


def _closed_form(E, F, z: StepFunction):
    """The rewrite ``canonical(Product(E, F))`` as a value, with the witness
    x = z^s on supp z for the share s the rule reports.  A weighted Lebesgue
    pair (no share) balances its cell masses instead; without such a balance
    only equal factors (split evenly) have a closed form.  Sup-Marcinkiewicz
    pairs get a constructive bound."""
    rule = _product_rule(E, F)
    if rule is not None:
        target, s = rule
        notes = ()
        if s is not None:
            xv = z.values**s
        else:
            xv, notes = _balanced_factor(E, F, z), ("witness is optimal among cell-constant factors",)
            if xv is None and E == F:
                xv, notes = z.values**0.5, ()
        if xv is not None:
            res = norm(target, z)
            x = z.with_values(np.where(z.values > 0, xv, 0.0))
            wit = _witness_from_pair(E, F, x, _safe_quotient(z, x), "closed_form", notes)
            return NormResult(res.value, res.kind, wit, res.notes + notes), wit
    if isinstance(E, MarcinkiewiczStar) and isinstance(F, MarcinkiewiczStar):
        return _closed_mstar_pair(E, F, z)
    return None


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def product_norm(
    E: SpaceDescriptor,
    F: SpaceDescriptor,
    z: StepFunction,
    opts: Optional[dict] = None,
) -> tuple[NormResult, FactorizationWitness]:
    """Certified upper bound on inf |x|_E |y|_F over factorizations z = xy."""
    o = _merge_opts(opts)
    if float(np.max(z.values, initial=0.0)) == 0.0:
        wit = _zero_witness(z)
        return NormResult(0.0, "exact", wit), wit
    Ec, Fc = canonical(E), canonical(F)
    hit = _closed_form(Ec, Fc, z)
    if hit is not None:
        res, wit = hit
        wit = equalize_norms(wit, Ec, Fc)
        return replace(res, witness=wit), wit
    x, y, converged = _optimize_product(Ec, Fc, z, o)
    wit = _witness_from_pair(Ec, Fc, x, y, "optimizer")
    wit = equalize_norms(wit, Ec, Fc)
    kind = "upper_bound" if converged else "estimate"
    notes = ("certified by explicit factorization",)
    if not converged:
        notes = notes + ("optimizer stopped before the improvement tolerance",)
    return NormResult(wit.product, kind, wit, notes), wit


def equalize_norms(w: FactorizationWitness, E, F) -> FactorizationWitness:
    """Rescale (x, y) -> (x/s, y*s) so both factors carry equal norm."""
    if w.norm_x <= 0.0 or w.norm_y <= 0.0 or not math.isfinite(w.norm_x * w.norm_y):
        return w
    s = math.sqrt(w.norm_x / w.norm_y)
    if abs(s - 1.0) <= 1e-15:
        return replace(w, equalized=True)
    common = math.sqrt(w.norm_x * w.norm_y)
    return FactorizationWitness(
        w.x.with_values(w.x.values / s),
        w.y.with_values(w.y.values * s),
        common,
        common,
        common * common,
        w.method,
        equalized=True,
        notes=w.notes,
    )


def calderon_norm(
    E: SpaceDescriptor,
    F: SpaceDescriptor,
    theta: float,
    z: StepFunction,
    opts: Optional[dict] = None,
) -> NormResult:
    """Norm in the intermediate space E^theta F^(1-theta).

    Computed through the equivalent product form: z factors as uv with
    u in the 1/theta-convexification of E and v in the 1/(1-theta)
    convexification of F, and the infima coincide exactly.
    """
    if not (0.0 < theta < 1.0):
        raise ValueError("theta must lie strictly between 0 and 1")
    if E == F:
        res = norm(E, z)
        return replace(res, notes=res.notes + ("equal factors: intermediate space is E itself",))
    collapsed = canonical(Calderon(E, F, theta))
    if not isinstance(collapsed, Calderon):
        res = norm(collapsed, z)
        return replace(res, notes=res.notes + ("interpolation closed form: a product identity",))
    res, wit = product_norm(
        Convexification(E, 1.0 / theta), Convexification(F, 1.0 / (1.0 - theta)), z, opts
    )
    return replace(res, notes=res.notes + ("computed via the convexified product form",))


# ---------------------------------------------------------------------------
# ratio ascent (multipliers, duals)
# ---------------------------------------------------------------------------


def _default_test_family(mspace: MeasureSpace, m_vals: np.ndarray) -> list:
    n = mspace.n_cells
    out = []
    for frac in (0.05, 0.15, 0.3, 0.5, 0.75, 1.0):
        k = max(1, int(round(n * frac)))
        ind = np.zeros(n)
        ind[:k] = 1.0
        out.append(ind)
    bp = mspace.breakpoints
    mids = np.sqrt(np.maximum(bp[:-1], bp[1] * 1e-6) * bp[1:])
    for gamma in (0.1, 0.25, 0.5, 0.75, 0.9, 1.1):
        out.append(mids**-gamma)
    pos = m_vals > 0
    if pos.any():
        for k in (1.0 / 3.0, 0.5, 1.0, 2.0, 3.0):
            prof = np.where(pos, m_vals**k, 0.0)
            out.append(prof)
    if mspace.kind == COUNTING:
        # on sequences a unit vector at the largest multiplier cell
        # attains sup |m y|_F / |y|_E for l^p into l^q, q >= p
        out.append(np.eye(1, n, int(np.argmax(m_vals)))[0])
    return out


def _ratio_ascent(
    num_fn: Callable[[np.ndarray], np.ndarray],
    den_fn: Callable[[np.ndarray], np.ndarray],
    mspace: MeasureSpace,
    family: Sequence[np.ndarray],
    o: dict,
    monotone: bool,
    ascent: bool = True,
):
    """Maximize num(y)/den(y); returns (best ratio, best y, capped flag).

    ``num_fn`` and ``den_fn`` map a (k, n) array to k values.  The best
    member of ``family`` seeds a coordinate ascent unless ``ascent`` is
    False, in which case the family maximum is returned.
    """

    def ratio_one(n: float, d: float) -> float:
        if not (d > 0.0 and math.isfinite(d)):
            return 0.0
        r = n / d
        return r if math.isfinite(r) else math.inf

    def ratio(vals: np.ndarray) -> np.ndarray:
        return np.array(list(map(ratio_one, num_fn(vals).tolist(), den_fn(vals).tolist())))

    best_vals, best = None, 0.0
    if len(family):
        fam = np.array(family, dtype=float)
        with np.errstate(**_QUIET):
            ratios = ratio(fam).tolist()
        for vals, r in zip(fam, ratios):
            if r > best:
                best, best_vals = r, vals
    if best_vals is None:
        return 0.0, None, False
    if best >= _RATIO_CAP:
        return math.inf, best_vals, True
    if not ascent:
        return best, best_vals, False

    pos = np.flatnonzero(best_vals > 0)
    if not pos.size:
        return best, best_vals, False
    u0 = np.log(best_vals[pos])

    def J(params: np.ndarray) -> np.ndarray:
        u = _monotone_embed(params) if monotone else params
        vals = np.zeros((len(u), mspace.n_cells))
        vals[:, pos] = np.exp(np.clip(u, -60.0, 60.0))
        return -ratio(vals)

    p0 = (_monotone_params(u0) if monotone else u0)[None]
    budget = np.array([min(o["max_sweeps"], 200)])
    with np.errstate(**_QUIET):
        # no target: the ascent maximizes the ratio as far as it goes
        call_rows = _call_rows(num_fn, den_fn)
        P, neg, _ = _lockstep_descent(J, p0, J(p0), budget, o["golden_iters"], None, call_rows)
    if -neg[0] > best:
        best = -float(neg[0])
        u_final = _monotone_embed(P[0]) if monotone else P[0]
        best_vals = np.zeros(mspace.n_cells)
        best_vals[pos] = np.exp(np.clip(u_final, -60.0, 60.0))
    if best >= _RATIO_CAP:
        return math.inf, best_vals, True
    return best, best_vals, False


def _power_exponent(space) -> Optional[float]:
    pw = simplify_power(space.phi) if hasattr(space, "phi") else None
    return pw.alpha if pw is not None else None


def _zero_or_inf(m: StepFunction, note: str) -> NormResult:
    """The multiplier norm of a space that admits no nonzero multipliers."""
    if float(np.max(m.values, initial=0.0)) == 0.0:
        return NormResult(0.0, "exact", None, ())
    return NormResult(math.inf, "exact", None, (note,))


def _multiplier_table(E, F, m: StepFunction) -> Optional[NormResult]:
    if _is_plain_sup(E):
        res = norm(F, m)
        return replace(res, notes=res.notes + ("multipliers from L^inf form the target space",))
    if isinstance(F, Lp) and F.p == 1.0 and F.weight is None:
        d = dual_descriptor(E)
        if d is not None:
            res = norm(d, m)
            return replace(res, notes=res.notes + ("multipliers into L^1 form the dual space",))
    if isinstance(E, Lp) and isinstance(F, Lp) and E.weight is None and F.weight is None:
        if math.isinf(E.p) or math.isinf(F.p):
            return None
        if F.p < E.p:
            s = 1.0 / (1.0 / F.p - 1.0 / E.p)
            res = norm(Lp(s), m)
            return replace(res, notes=res.notes + ("Lebesgue multiplier exponent rule",))
        if F.p == E.p or m.space.kind == COUNTING:
            # on sequences l^p lies in l^q for q > p, so the multipliers are l^inf as well
            note = "equal exponents" if F.p == E.p else "l^p lies in l^q on sequences"
            res = norm(Lp(math.inf), m)
            return replace(res, notes=res.notes + (f"{note}: bounded multipliers",))
        return _zero_or_inf(m, "no nonzero multipliers when the target exponent is larger")
    return None


def _multiplier_identification(E, F, m: StepFunction) -> Optional[NormResult]:
    """Power-weight Lorentz/Marcinkiewicz identifications (approximate)."""
    aE = _power_exponent(E) if isinstance(E, (LorentzLambda, Marcinkiewicz)) else None
    aF = _power_exponent(F) if isinstance(F, (LorentzLambda, Marcinkiewicz)) else None
    if aE is None or aF is None:
        return None
    coefE = simplify_power(E.phi).coef
    coefF = simplify_power(F.phi).coef
    diff = aF - aE
    ratio_w = PowerWeight(diff, coefF / coefE)
    if isinstance(E, LorentzLambda) and isinstance(F, LorentzLambda):
        if diff < 0:
            return _zero_or_inf(m, "weight ratio unbounded near zero")
        val = norm(MarcinkiewiczStar(ratio_w), m)
        lo_const = aE if aE > 0 else None
        notes = ("identified with the sup-form Marcinkiewicz space of the weight ratio",)
        if lo_const:
            notes = notes + (f"two-sided constants (1, {1.0 / lo_const:g})",)
        return NormResult(val.value, "estimate", None, notes)
    if isinstance(E, Marcinkiewicz) and isinstance(F, LorentzLambda):
        if diff <= 0:
            return _zero_or_inf(m, "weight ratio not increasing")
        val = norm(LorentzLambda(ratio_w), m)
        notes = (
            "identified with the Lorentz space of the weight ratio",
            f"two-sided constants (1, {1.0 / diff:g})",
        )
        return NormResult(val.value, "estimate", None, notes)
    if isinstance(E, Marcinkiewicz) and isinstance(F, Marcinkiewicz):
        if diff < 0:
            return _zero_or_inf(m, "weight ratio unbounded near zero")
        val = norm(MarcinkiewiczStar(ratio_w), m)
        return NormResult(
            val.value,
            "estimate",
            None,
            ("identified with the sup-form Marcinkiewicz space of the weight ratio",),
        )
    return None


def multiplier_norm(
    E: SpaceDescriptor,
    F: SpaceDescriptor,
    m: StepFunction,
    opts: Optional[dict] = None,
    witnesses: Optional[Sequence[StepFunction]] = None,
    ascent: bool = True,
    use_table: bool = True,
) -> NormResult:
    """sup |m*y|_F / |y|_E: table identity when known, else ratio ascent.

    The numeric path reports a lower bound (kind "estimate"); pass
    ``witnesses`` to fix the test family, and ``use_table=False`` to
    force the numeric path (useful when comparing two multiplier norms
    by the same method).
    """
    o = _merge_opts(opts)
    if witnesses is not None and any(w.space != m.space for w in witnesses):
        raise ValueError("witnesses must live on the grid of the multiplier")
    Ec, Fc = canonical(E), canonical(F)
    if use_table:
        hit = _multiplier_table(Ec, Fc, m)
        if hit is None:
            hit = _multiplier_identification(Ec, Fc, m)
        if hit is not None:
            return hit
    mspace = m.space
    fe = _norm_fn(Ec, mspace)
    ff = _norm_fn(Fc, mspace)
    mv = m.values

    def num_fn(vals: np.ndarray) -> np.ndarray:
        return ff(mv * vals)

    num_fn.rowwise = getattr(ff, "rowwise", False)

    if witnesses is not None:
        family = [w.values for w in witnesses]
    else:
        family = _default_test_family(mspace, mv)
    monotone = is_symmetric(Ec) and is_symmetric(Fc)
    best, _, capped = _ratio_ascent(num_fn, fe, mspace, family, o, monotone, ascent)
    if capped:
        return NormResult(
            math.inf, "estimate", None, ("ratio exceeded the cap: not a multiplier",)
        )
    note = "lower bound from ratio ascent" if ascent else "lower bound over the supplied family"
    return NormResult(best, "estimate", None, (note,))


def dual_norm_numeric(
    E: SpaceDescriptor,
    y: StepFunction,
    opts: Optional[dict] = None,
) -> NormResult:
    """sup ∫ x y over the unit ball of E, with a table cross-check."""
    o = _merge_opts(opts)
    Ec = canonical(E)
    if not is_primitive(Ec):
        raise ValueError("dual_norm_numeric needs a primitive base space")
    mspace = y.space
    fe = _norm_fn(Ec, mspace)
    yw = y.values * mspace.widths

    def pairing(vals: np.ndarray) -> np.ndarray:
        return (vals * yw).sum(-1)

    family = _default_test_family(mspace, y.values)
    dec = bool(np.all(np.diff(y.values) <= 1e-15))
    monotone = is_symmetric(Ec) and dec
    lower, _, capped = _ratio_ascent(pairing, fe, mspace, family, o, monotone)
    if capped:
        return NormResult(math.inf, "estimate", None, ("pairing exceeded the cap",))
    d = dual_descriptor(Ec)
    if d is not None:
        res = norm(d, y)
        gap = abs(res.value - lower) / max(res.value, 1e-300)
        return replace(
            res,
            notes=res.notes
            + (f"numeric ascent lower bound {lower:.12g} (gap {gap:.2e})",),
        )
    return NormResult(lower, "estimate", None, ("lower bound from ratio ascent",))


def lozanovskii_factorize(
    E: SpaceDescriptor,
    z: StepFunction,
    eps: float = 0.05,
    opts: Optional[dict] = None,
) -> FactorizationWitness:
    """Split z = xy with |x|_E |y|_{E'} within (1+eps) of the L1 mass."""
    if not (eps > 0.0):
        raise ValueError("eps must be positive")
    l1 = norm(Lp(1.0), z).value
    if l1 == 0.0:
        return _zero_witness(z)
    if not math.isfinite(l1):
        raise ValueError("z must be integrable on the grid")
    Ec = canonical(E)
    F = dual_descriptor(Ec)
    exact_dual = F is not None
    if F is None:
        F = Dual(Ec)
    o = dict(opts or {})
    o.setdefault("target", (1.0 + 0.9 * eps) * l1)
    _, wit = product_norm(Ec, F, z, o)
    if exact_dual and wit.product < l1 - 1e-9 * max(1.0, l1):
        raise RuntimeError(
            "factorization product undercuts the integral: norm evaluation is inconsistent"
        )
    notes = wit.notes
    if wit.product > (1.0 + eps) * l1:
        notes = notes + ("not_within_epsilon",)
    if not exact_dual:
        notes = notes + ("dual norm is a numeric lower bound; floor not certified",)
    return replace(wit, notes=notes)


def orlicz_factor_witness(
    base: SpaceDescriptor,
    phi1: YoungFunction,
    phi2: YoungFunction,
    phi: YoungFunction,
    z: StepFunction,
    D: Optional[float] = None,
) -> FactorizationWitness:
    """Constructive splitting z = z1 z2 with both factors in sqrt(D |z|) balls.

    Requires phi^{-1} <= D^{1/2}-compatible splitting: the inverse of
    phi dominated by the product of the inverses (checked when D is not
    supplied).  The factor formulas push each modular below 1, so the
    Luxemburg norms obey |z_i| <= sqrt(D |z|_phi); both bounds are
    re-evaluated and enforced before returning.
    """
    if D is None:
        cert = check_relation(phi1, phi2, phi, relation="succ", regime="all")
        if not cert.holds:
            raise ValueError("splitting relation refuted: no constant D available")
        D = cert.D
    if float(np.max(z.values, initial=0.0)) == 0.0:
        return _zero_witness(z, method="constructive")
    big = luxemburg_norm(base, phi, z)
    N = big.value
    if not (N > 0.0 and math.isfinite(N)):
        raise ValueError("z is outside the Orlicz space of phi")
    g = np.zeros_like(z.values)
    pos = z.values > 0
    g[pos] = phi._eval(z.values[pos] / N)
    inv1 = inverse_batch(phi1, g)
    inv2 = inverse_batch(phi2, g)
    z1 = np.zeros_like(z.values)
    z2 = np.zeros_like(z.values)
    live = pos & (g > 0)
    z1[live] = np.sqrt(z.values[live] * inv1[live] / inv2[live])
    z2[live] = np.sqrt(z.values[live] * inv2[live] / inv1[live])
    flat = pos & (g == 0.0)
    if flat.any():
        a1 = inverse(phi1, 0.0)
        a2 = inverse(phi2, 0.0)
        if a1 <= 0.0 or a2 <= 0.0:
            raise ValueError("zero modular cells need positive jump points a_phi")
        z1[flat] = np.sqrt(z.values[flat] * a1 / a2)
        z2[flat] = np.sqrt(z.values[flat] * a2 / a1)
    x = z.with_values(z1)
    y = z.with_values(z2)
    n1 = luxemburg_norm(base, phi1, x).value
    n2 = luxemburg_norm(base, phi2, y).value
    bound = math.sqrt(D * N)
    slack = 1e-8 + 1e-6 * bound
    if n1 > bound + slack or n2 > bound + slack:
        raise RuntimeError(
            f"constructive bound violated: norms ({n1:.12g}, {n2:.12g}) exceed {bound:.12g}"
        )
    return FactorizationWitness(
        x,
        y,
        n1,
        n2,
        n1 * n2,
        "constructive",
        notes=(f"each factor bounded by sqrt(D*|z|) = {bound:.12g}",),
    )


def variational_norm(space: SpaceDescriptor, x: StepFunction) -> NormResult:
    """Dispatch for descriptor kinds whose norm is an optimization."""
    if isinstance(space, Product):
        res, _ = product_norm(space.E, space.F, x)
        return res
    if isinstance(space, Calderon):
        return calderon_norm(space.E, space.F, space.theta, x)
    if isinstance(space, Multiplier):
        return multiplier_norm(space.E, space.F, x)
    if isinstance(space, Dual):
        return dual_norm_numeric(space.E, x)
    raise TypeError(f"no variational norm for descriptor {type(space).__name__}")
