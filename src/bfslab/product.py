"""Variational norms built from factorizations.

The product norm ``inf { |x|_E |y|_F : z = x y }`` has a closed form
where ``canonical`` rewrites ``Product(E, F)`` by an exact identity
(``spaces._product_rule``): the value is the norm of the rewritten
space, and the witness splits z by the exponent share the rule reports.
A sup-type factor (a weighted sup w, or M*_w for any w, or the
p-convexification of either, the same space over w^(1/p)) has a largest
y of norm 1 in each cell order, 1/L, L w's cell sups (for M*, their
running max along the order: w(T) for w = c t^a, a >= 0, T the measure
up to each cell): the split is z = (z L) (1/L) in the cell order a
descent over adjacent swaps reaches from z's decreasing order.  That
split is least only where its partner is a lattice norm; where the
partner is a Lorentz space whose weight (phi^p for Lambda_{phi,p}) fails
quasi-concavity (``_CompiledNorm.lattice``), the optimizer also runs and
the lower bound wins, an ``estimate`` with that kernel's note.
The gauge of c (t - a)_+^r over L^1(u) against L^q(w), q finite, needs
no optimizer either: min |z/x|_q over the modular ball is convex and
splits by cell, so its Lagrange conditions give x cell by cell, up to
one multiplier (``_modular_factor``).  Lambda_psi against Lambda_phi or
M_phi over powers takes the pooled split (``_pooled_factor``): in z's
decreasing order y = z / x is constant on atoms, runs of cells pooled
wherever y would rise, and the atoms share x's mass to minimize
|y|_Lambda_psi under the caps of the other factor's unit ball.  By
Cauchy-Schwarz and Hölder, any alpha, beta >= 0 bound the product norm
from below by (sum sqrt(z alpha beta))^2 / (|alpha/w|_E' |beta/w|_F'),
w the cell widths; the split is kept only where all four kernels are
exact and its value is within 1e-9 of that bound at its multipliers.
Elsewhere BFGS computes it, on J(u) = log |e^u|_E + log |z e^-u|_F over
u = log x on the support of z: convex where both factors are Banach
lattice norms, since then |sqrt(x y)| <= sqrt(|x| |y|) (M*_phi is only
a lattice quasi-norm, and not log-convex, but its pairs take the sup
split, which needs only monotonicity), and smooth except where the
sorted profiles tie or a supremum changes hands, the case that BFGS
with a weak Wolfe line search handles (Lewis & Overton, Math. Program.
141, 2013).  A run has converged once BFGS stops at a smooth minimum:
its gradient at most ``_SMOOTH_GRAD`` and its last m steps (m = |supp
z|) gaining at most ``_SWEEP_RTOL``.  Where BFGS stops anywhere else,
crawling along a kink, say, cyclic coordinate descent with golden line
searches takes over from its end point, and hands back to BFGS while it
still moves; the run has then converged once a coordinate sweep gains
at most ``_SWEEP_RTOL``.  One run starts from the best seed, scored in
one batched objective call.  The gradient comes from the kernels' exact
subgradients (``_CompiledNorm.grad``), or from forward differences for
a kernel without one.  A numeric result is an upper bound certified by
its witness pair, whose norms are recomputed through the public norm
evaluators, unless a factor norm is only an estimate or the optimizer
stopped on its budget: then so is the product, with the notes that say
why.

Multiplier and dual norms run the same engine in the other direction:
ratio ascent minimizes J(u) = log |e^u|_E - log |m e^u|_F over u = log y,
by the same BFGS and coordinate polish, with the same log slopes (a dual
norm is the multiplier norm into L^1).  Its runs start from the best
members of a test family, and its values are lower bounds.  In both
directions a golden search looks ahead over every point its next
``_LOOKAHEAD`` steps could probe, one step where a kernel runs row by
row (``_CompiledNorm.rowwise``).  No function here reports a point
estimate as if it were exact unless a closed form fired.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .grid import COUNTING, MeasureSpace, StepFunction, step_from_json, step_to_json
from .spaces import (
    Calderon,
    Convexification,
    Dual,
    LInftyWeighted,
    Lp,
    LorentzLambda,
    LorentzLambdaP,
    Marcinkiewicz,
    MarcinkiewiczStar,
    Multiplier,
    NormResult,
    OrliczCL,
    Product,
    SpaceDescriptor,
    _CompiledNorm,
    _cell_masses,
    _is_plain_sup,
    _product_rule,
    _rowwise,
    canonical,
    dual_descriptor,
    is_primitive,
    luxemburg_norm,
    norm,
    norm_evaluator,
)
from .weights import PowerWeight, simplify_power
from .young import Power, ShiftedPower, YoungFunction, check_relation, inverse, inverse_batch

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
    "max_sweeps": 5000,  # sweeps per run (ratio ascent: at most 200): a coordinate sweep, or one BFGS step per coordinate
    "quick_sweeps": 40,  # read by no engine; perfbench's FAST_OPTS and tests/test_engine.py's oracle pass it
    "golden_iters": 14,  # golden-section steps per coordinate search
    "target": None,  # products: early exit once |x|_E |y|_F is at or below
}

_SWEEP_RTOL = 1e-10  # coordinate descent has converged once a sweep improves J by at most this
_BFGS_RTOL = 1e-6  # a BFGS run ends once its last m steps (a sweep's worth) lower log J by at most this
_SMOOTH_GRAD = 1e-3  # ... unless its gradient is at most this: near a smooth minimum it runs on to _SWEEP_RTOL
_WOLFE = (1e-4, 0.9)  # sufficient-decrease and curvature constants of the weak Wolfe line search
_LINE_STEPS = 40  # trial steps of one line search, doublings and bisections together
_STEP_FTOL = 1e-14  # a BFGS run also ends at a step that lowers log J by at most this
_FD_STEP = 1e-7  # forward-difference step in log x, for a kernel without a subgradient
_SPAN = 1.5  # coordinate search half-width in log units
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_LOOKAHEAD = 4  # golden steps per objective call: 15 probes a call, 16 on a search's first
_RATIO_CAP = 1e8
_RATIO_STARTS = 2  # ratio ascent runs from this many best family members: the log ratio is not concave
_KKT_STEPS = 100  # Newton steps of one modular-split solve, per cell and for the Lagrange multiplier
_PAIR_DESCENT_CELLS = 64  # two sup factors: a descent pass scores n^2 cells, 60 ms at n = 1024
_UNCERTIFIED = "a factor norm is an estimate, so the factorization certifies no bound"
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


def _norm_fn(space: SpaceDescriptor, mspace: MeasureSpace) -> _CompiledNorm:
    sp = canonical(space)
    compiled = norm_evaluator(sp, mspace)
    if compiled is not None:
        return compiled

    def fn(values: np.ndarray) -> float:
        return norm(sp, StepFunction(mspace, values)).value

    return _rowwise(fn, "estimate")


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


def _lookahead(*kernels: _CompiledNorm) -> int:
    """Golden steps one objective call over ``kernels`` looks ahead.

    A row-by-row kernel (``rowwise``) costs one call per row of a batch,
    so looking ahead would only add rows: an objective over one takes
    one golden step per call.  Else ``_LOOKAHEAD``.
    """
    return 1 if any(k.rowwise for k in kernels) else _LOOKAHEAD


def _golden(J, u: np.ndarray, i: int, iters: int, lookahead: int):
    """Golden-section search of J from the point u along coordinate i.

    Where a golden step probes depends only on its bracket and on whether
    fc < fd, not on the value the probe returns.  So each J call looks d
    steps ahead: it evaluates every point those steps could probe, a
    binary tree of brackets (2^d - 1 points, or 2^d on the first call:
    c, d and both branches of each later step), and the search then walks
    the tree with its real comparisons.  Probes, values and picks are
    those of one step per call, bit for bit.  d is ``lookahead``, or the
    steps left if fewer; the first call counts the (c, d) pair as a step.

    The brackets are kept in Python floats, the one-step arithmetic
    exactly, as four lists A, B, C, D over the nodes of a tree level.
    Growing one level puts the children that keep [a, d] (fc < fd)
    first, then those that keep [c, b], so the node the comparisons
    b_1, b_2, ... (1 = keep [c, b]) reach is node sum(b_l * 2^(l-1)) of
    its level.  Returns (argmin, min).
    """
    a, b = float(u[i]) - _SPAN, float(u[i]) + _SPAN
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc = fd = left = None
    first, done = True, 0
    while first or done < iters:
        depth = min(lookahead, iters - done + first)
        if first:
            # c and d are probes 0 and 1; the tree's root is the bracket itself
            probes, off = [c, d], 0
        elif left:
            # this call's first comparison is known: the root is its step
            b, d = d, c
            c = b - _GOLDEN * (b - a)
            probes, off = [c], 1
        else:
            a, c = c, d
            d = a + _GOLDEN * (b - a)
            probes, off = [d], 1
        A, B, C, D = [a], [b], [c], [d]
        for _ in range(depth - 1):
            cl = [d - _GOLDEN * (d - a) for a, d in zip(A, D)]
            dr = [c + _GOLDEN * (b - c) for b, c in zip(B, C)]
            probes += cl + dr
            A, B, C, D = A + C, D + B, cl + D, C + dr
        Q = np.tile(u, (len(probes), 1))
        Q[:, i] = probes
        f = J(Q).tolist()
        if first:
            vc, vd = f[0], f[1]
        else:
            vc, vd = (f[0], fc) if left else (fd, f[0])
        node = 0
        for lev in range(1, depth):
            keep_cb = not vc < vd
            node += keep_cb << (lev - 1)
            v = f[(1 << lev) - off + node]
            vc, vd = (vd, v) if keep_cb else (v, vc)
        a, b, c, d = A[node], B[node], C[node], D[node]
        fc, fd, left = vc, vd, vc < vd
        done += depth - first
        first = False
    return (c, fc) if left else (d, fd)


def _coordinate_descent(J, u: np.ndarray, f: float, budget: int, iters: int, lookahead: int = _LOOKAHEAD):
    """Cyclic coordinate descent with golden line searches from u, f = J(u).

    J maps a (k, m) matrix to its k objective values: a golden search
    batches its probes into rows, ``lookahead`` steps a call (see
    _lookahead).  A sweep runs a golden-section search along each
    coordinate in turn.  Stops after ``budget`` sweeps, or converged once
    a sweep improves J by at most _SWEEP_RTOL.  Returns (u, J(u), sweeps
    run, converged).
    """
    u = np.array(u, dtype=float)
    for sweep in range(budget):
        prev = f
        for i in range(u.size):
            t, ft = _golden(J, u, i, iters, lookahead)
            if ft < f:
                u[i], f = t, ft
        if prev - f <= _SWEEP_RTOL * max(abs(prev), 1e-300):
            return u, f, sweep + 1, True
    return u, f, budget, False


def _seed_vectors(E, F, z_supp, t_right_supp) -> list:
    """Log-domain starting points for x on supp z: multiples of log z, and
    the extremal profile of a Lorentz factor with weight t^a, 0 < a < 1."""
    logz = np.log(z_supp)
    seeds = [theta * logz for theta in (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875)]
    seeds.append(np.zeros_like(logz))
    for side, sp in (("E", canonical(E)), ("F", canonical(F))):
        pw = simplify_power(sp.phi) if isinstance(sp, (LorentzLambda, LorentzLambdaP)) else None
        if pw is not None and 0.0 < pw.alpha < 1.0:
            extra = logz + (1.0 - pw.alpha) * np.log(t_right_supp)
            seeds.append(extra if side == "E" else logz - extra)
    return seeds


def _split(u: np.ndarray, supp: np.ndarray, zs: np.ndarray, times: bool = False) -> np.ndarray:
    """x = e^u and y = z / x (z x if ``times``) on ``supp``, zero
    elsewhere, as one C-contiguous stack [x, y]; one pair per row of u."""
    # np.clip's float ops, without its Python wrapper
    eu = np.exp(np.minimum(np.maximum(u, -60.0), 60.0))
    xy = np.zeros((2,) + u.shape[:-1] + supp.shape)
    xy[0][..., supp] = eu
    xy[1][..., supp] = (np.multiply if times else np.divide)(zs, eu)
    return xy


def _log_slopes(kernel: _CompiledNorm, x: np.ndarray, supp: np.ndarray):
    """(N(x), d log N / d log x on supp) at one point x; supp masks the
    cells of supp z.  Exact through ``kernel.grad``.  Else forward
    differences, from one call of the m + 1 rows x and x e^(h e_i), i
    over those m cells."""
    if kernel.grad is not None:
        nrm, g = kernel.grad(x)
        return nrm, x[supp] * g[supp] / nrm
    idx = np.arange(x.size)[supp]
    X = np.repeat(x[None], idx.size + 1, axis=0)
    X[np.arange(1, idx.size + 1), idx] *= math.exp(_FD_STEP)
    f = np.log(kernel.fn(X))
    return math.exp(f[0]), (f[1:] - f[0]) / _FD_STEP


def _line_search(fg, u: np.ndarray, f: float, g: np.ndarray, d: np.ndarray):
    """A step t along the descent direction d from u (value f, gradient g)
    meeting the weak Wolfe conditions, found by doubling and bisection
    (Lewis & Overton, Math. Program. 141, 2013): (t, f, g) there.  Past
    ``_LINE_STEPS`` trials, the last step with sufficient decrease, or
    None if there was none."""
    c1, c2 = _WOLFE
    gd = float(g @ d)
    lo, hi, t, best = 0.0, math.inf, 1.0, None
    for _ in range(_LINE_STEPS):
        ft, gt = fg(u + t * d)
        if not ft <= f + c1 * t * gd:  # NaN and +inf fail here
            hi = t
        elif gt @ d < c2 * gd:
            lo, best = t, (t, ft, gt)
        else:
            return t, ft, gt
        t = 2.0 * lo if hi == math.inf else 0.5 * (lo + hi)
    return best


def _bfgs(fg, u: np.ndarray, f: float, g: np.ndarray, steps: int, floor: float):
    """BFGS from u (value f, gradient g) with weak Wolfe line searches, for
    nonsmooth as well as smooth f (Lewis & Overton).  The inverse Hessian
    starts from the identity, takes the scale s.y / y.y at its first
    update, skips pairs with s.y <= 0, and goes back to the identity
    wherever its direction is not a descent direction.  Runs at most
    ``steps`` steps, and stops once f <= ``floor``, once the last u.size
    steps lowered f by at most ``_BFGS_RTOL`` (a sweep's worth), or at a
    step that lowers f by at most ``_STEP_FTOL``.  Where the gradient is
    at most ``_SMOOTH_GRAD`` (max norm) f is smooth near a minimum, not
    at a kink whose subgradients stay large, and the last u.size steps
    must gain at most ``_SWEEP_RTOL`` instead: a smooth minimum, the
    evidence a converged coordinate sweep gives.  Returns (u, f, g, steps
    taken, smooth): smooth is whether it stopped there (or at the floor)
    with a gradient at most ``_SMOOTH_GRAD``."""
    H, past = None, []
    for k in range(steps):
        past.append(f)
        smooth = np.abs(g).max() <= _SMOOTH_GRAD
        if f <= floor or (k >= u.size and past[k - u.size] - f <= (_SWEEP_RTOL if smooth else _BFGS_RTOL)):
            return u, f, g, k, smooth
        d = -g if H is None else -(H @ g)
        if not g @ d < 0.0:
            H, d = None, -g
        step = _line_search(fg, u, f, g, d) if g @ d < 0.0 else None
        if step is None or not f - step[1] > _STEP_FTOL:
            return u, f, g, k, False
        t, f1, g1 = step
        s, y = t * d, g1 - g
        sy = float(s @ y)
        if sy > 0.0:
            if H is None:
                H = np.eye(u.size) * (sy / float(y @ y))
            Hy = H @ y
            H += (((sy + y @ Hy) / sy) * np.outer(s, s) - np.outer(Hy, s) - np.outer(s, Hy)) / sy
        u, f, g = u + s, f1, g1
    return u, f, g, steps, False


def _objective(E, F, z: StepFunction, supp: Optional[np.ndarray] = None, quotient: bool = False):
    """The objective over u = log x on ``supp`` (supp z by default): (J,
    fg, lookahead).  For a product y = z / x and J = |x|_E |y|_F; for a
    ``quotient`` (ratio ascent, z the multiplier) y = z x and J = |x|_E /
    |y|_F.  J maps a (k, m) batch of u rows to J per row (+inf for a
    NaN); fg maps one u to (log J, its gradient), which is se - sf either
    way, se and sf the log slopes of the two norms; lookahead is the
    golden steps one J call takes (see _lookahead).  Each call hands each
    kernel its own half of the [x, y] stack, once."""
    mspace = z.space
    supp = z.values > 0.0 if supp is None else supp
    zs = z.values[supp]
    combine = np.divide if quotient else np.multiply
    ke, kf = _norm_fn(E, mspace), _norm_fn(F, mspace)
    fe, ff = ke.fn, kf.fn

    def J(U: np.ndarray) -> np.ndarray:
        xy = _split(U, supp, zs, quotient)
        val = combine(fe(xy[0]), ff(xy[1]))
        # norms are >= 0, so the one value that is not a number or +inf is NaN (0 * inf, 0 / 0, inf / inf): it becomes +inf
        return np.fmin(val, math.inf)

    def fg(u: np.ndarray):
        xy = _split(u, supp, zs, quotient)
        (ne, se), (nf, sf) = _log_slopes(ke, xy[0], supp), _log_slopes(kf, xy[1], supp)
        val = combine(ne, nf)  # >= 0, or NaN
        return (math.log(val) if val > 0.0 else (-math.inf if val == 0.0 else math.nan)), se - sf

    return J, fg, _lookahead(ke, kf)


def _descend(J, fg, u: np.ndarray, sweeps: int, floor: float, iters: int, lookahead: int):
    """BFGS and coordinate descent in turn from u: (u, log J(u), converged).

    BFGS runs on fg until its last m = u.size steps lower log J by at most
    ``_BFGS_RTOL`` (see _bfgs).  Where its gradient is at most
    ``_SMOOTH_GRAD`` and those m steps gained at most ``_SWEEP_RTOL``, it
    stopped at a smooth minimum and has converged.  Else coordinate
    descent on J sweeps from its end point: at a kink where BFGS crawls, a
    golden search along one coordinate still moves.  A descent that moved
    u hands it back to BFGS, with a fresh inverse Hessian.  Converged once
    a descent's first sweep improves J by at most ``_SWEEP_RTOL``, or once
    log J <= floor.  The budget is ``sweeps``: one per coordinate sweep,
    or per m BFGS steps."""
    f, g = fg(u)
    while f > floor and math.isfinite(f) and sweeps > 0:
        u, f, g, k, smooth = _bfgs(fg, u, f, g, sweeps * u.size, floor)
        sweeps -= -(-k // u.size)
        if smooth:
            return u, f, True
        if f <= floor or sweeps <= 0:
            break
        u, val, n, converged = _coordinate_descent(J, u, J(u[None])[0], sweeps, iters, lookahead)
        sweeps -= n
        f = math.log(val) if val > 0.0 else -math.inf
        if (converged and n == 1) or f <= floor:
            return u, f, True
        f, g = fg(u)
    return u, f, f <= floor


def _optimize_product(E, F, z: StepFunction, o: dict):
    """``_descend`` over u = log x on the m cells of supp z, with y = z / x,
    on J(u) = log |x|_E + log |y|_F: (x, y, converged).  One run, from the
    best ``_seed_vectors`` row, scored in one batched call; it gets
    ``max_sweeps`` sweeps and stops once at or below ``target``.  J is
    convex where both factors are Banach lattice norms (M*_phi, a
    quasi-norm that is not log-convex, takes the sup split); elsewhere
    (Lambda over a weight that fails quasi-concavity, say) the run may
    end at a local minimum, and the factor's ``estimate`` kernel makes
    the product an ``estimate`` too."""
    mspace = z.space
    supp = z.values > 0.0
    zs = z.values[supp]
    J, fg, lookahead = _objective(E, F, z)
    target = o["target"]
    floor = math.log(target) if target is not None and target > 0 else -math.inf
    seeds = np.array(_seed_vectors(E, F, zs, mspace.breakpoints[1:][supp]))
    with np.errstate(**_QUIET):
        u, _, converged = _descend(J, fg, seeds[np.argmin(J(seeds))], o["max_sweeps"], floor, o["golden_iters"], lookahead)
    xv, yv = _split(u, supp, zs)
    return StepFunction(mspace, xv), StepFunction(mspace, yv), converged


# ---------------------------------------------------------------------------
# closed-form table
# ---------------------------------------------------------------------------


def _balanced_factor(E: Lp, F: Lp, z: StepFunction) -> Optional[np.ndarray]:
    """The x that balances the two weighted cell masses of a Lebesgue pair,
    or with the sup side's factor at 1/cell_sup of its weight: optimal
    among cell-constant factors.  None when a cell mass or sup is not
    finite and positive."""
    try:
        W1, W2 = _cell_masses(E, z.space), _cell_masses(F, z.space)
    except ArithmeticError:
        return None
    if not (np.all(np.isfinite(W1)) and np.all(np.isfinite(W2)) and np.all(W1 > 0) and np.all(W2 > 0)):
        return None
    if math.isinf(E.p) or math.isinf(F.p):
        return 1.0 / W1 if math.isinf(E.p) else z.values * W2
    return (z.values**F.p * W2 / W1) ** (1.0 / (E.p + F.p))


def _safe_quotient(z: StepFunction, x: StepFunction) -> StepFunction:
    with np.errstate(divide="ignore", invalid="ignore"):
        yv = np.where(z.values > 0, z.values / np.where(x.values > 0, x.values, 1.0), 0.0)
    return z.with_values(yv)


def _bound(E, F, method, x, y, converged=True, notes=()):
    """z = xy as a product value: both norms recomputed through ``norm``,
    the witness equalized, its product an ``upper_bound`` if converged with
    both factor norms ``exact`` or ``upper_bound``, else an ``estimate``,
    with the notes of each factor norm that is an ``estimate``."""
    rx, ry = norm(E, x), norm(F, y)
    wit = FactorizationWitness(x, y, rx.value, ry.value, rx.value * ry.value, method, notes=notes)
    wit, certified = equalize_norms(wit, E, F), {rx.kind, ry.kind} <= {"exact", "upper_bound"}
    if math.isinf(wit.product):
        notes = ("every factorization tried has an infinite norm",)
    else:
        notes = (notes or ("certified by explicit factorization",)) if certified else notes + (_UNCERTIFIED,)
        notes += () if converged else ("optimizer stopped before the improvement tolerance",)
    notes = tuple(dict.fromkeys(notes + sum((r.notes for r in (rx, ry) if r.kind == "estimate"), ())))
    return NormResult(wit.product, "upper_bound" if converged and certified else "estimate", wit, notes), wit


def _sup_kind(S):
    """(w, ordered, p) for the sup-type factors, with a largest y of norm 1
    per cell order: a sup weighted by w (ordered False) and M*_w, any w
    (True), with p = 1, and the p-convexification of either, the same sup
    over w^(1/p).  Else None."""
    S, p = (S.base, S.p) if isinstance(S, Convexification) else (S, 1.0)
    w = S.phi if isinstance(S, (LInftyWeighted, MarcinkiewiczStar)) else S.weight if isinstance(S, Lp) and math.isinf(S.p) else None
    return None if w is None else (w, isinstance(S, MarcinkiewiczStar), p)


def _sup_levels(kind, fn, z: StepFunction, descend: bool):
    """(|z l|_P, l) for a sup-type factor of ``_sup_kind`` ``kind``, fn the
    kernel of its partner P (``_norm_fn``): y = 1/l is its largest y of
    norm 1 in y's cell order, so x = z l is the least x there where P is
    a lattice norm.  l is w's cell sups, raised to 1/p (t ->
    t^(1/p) is increasing, so it commutes with a sup and a running max),
    for M*_w their running max in a cell order (c T^a for w = c t^a, a >=
    0, T the cumulative widths): z's decreasing one (the comonotone split),
    then, if ``descend``, a local minimum over adjacent swaps.  A pass
    scores every swap in one call of P's kernel and takes all disjoint
    improving ones where that beats the best alone."""
    (w, ordered, p), v, pos, bp = kind, z.values, z.values > 0, z.space.breakpoints

    def cell_sups(a, b):  # ** 1.0 is no free copy: M* ⊙ M* at unit_interval(32) ran 5 % slower with it (2-core VM)
        sups = w.cell_sup(a, b)
        return sups if p == 1.0 else sups ** (1.0 / p)

    if not ordered:
        lv = np.where(pos, cell_sups(bp[:-1], bp[1:]), 0.0)
        return fn(v * lv), lv

    def score(O):  # (|z l|_P, l) per row, l for the cell orders in the rows of O
        T = np.cumsum(z.space.widths[O], axis=1)  # cell ends, contiguous: a strided power costs more
        sups = cell_sups(np.concatenate((np.zeros((len(O), 1)), T[:, :-1]), axis=1), T)
        L = np.zeros((len(O), v.size))
        L[np.arange(len(O))[:, None], O] = np.maximum.accumulate(sups, axis=1)
        return fn(v * L), L

    order = np.flatnonzero(pos)[np.argsort(-v[pos], kind="stable")][None]
    (cur,), L = score(order)
    r = np.arange(order.size - 1)
    while descend and r.size:
        O = np.repeat(order, r.size, axis=0)
        O[r, r], O[r, r + 1] = order[0, 1:], order[0, :-1]
        f, LO = score(O)
        better, free, take = np.flatnonzero(f < cur), np.ones(r.size + 2, bool), []
        for i in better[np.argsort(f[better], kind="stable")].tolist():
            if free[i] and free[i + 1]:
                free[i] = free[i + 1] = False
                take.append(i)
        if not take:
            break
        t, both = np.array(take), order.copy()
        both[0, t], both[0, t + 1] = order[0, t + 1], order[0, t]
        (f_both,), Lb = score(both) if t.size > 1 else ((math.inf,), None)
        order, cur, L = (both, f_both, Lb) if f_both < f[t[0]] else (O[t[:1]], f[t[0]], LO[t[:1]])
    return cur, L[0]


def _closed_form(E, F, z: StepFunction):
    """The rewrite ``canonical(Product(E, F))`` as a value, with the witness
    x = z^s on supp z for the share s the rule reports.  A weighted Lebesgue
    pair (no share) balances its cell masses instead; without such a balance
    only equal factors (split evenly) have a closed form."""
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
            wit = _bound(E, F, "closed_form", x, _safe_quotient(z, x), notes=notes)[1]
            return NormResult(res.value, res.kind, wit, res.notes + notes), wit


def _sup_split(E, F, z: StepFunction, o: dict):
    """E ⊙ F with a sup-type factor (M*_w for any w, or a convexification of
    one): the ``_bound`` of its ``_sup_levels`` split, with two the lower of
    both (which descend on at most ``_PAIR_DESCENT_CELLS`` cells).  Where
    the partner's kernel is no lattice norm (a Lorentz weight that fails
    quasi-concavity; its kernel, and so the product, is an ``estimate``)
    the split need not be least: the optimizer also runs, and the lower
    bound wins.  None where no levels are finite and positive on supp z."""
    pos, kinds = z.values > 0, (_sup_kind(E), _sup_kind(F))
    descend = None in kinds or np.count_nonzero(pos) <= _PAIR_DESCENT_CELLS
    partners = [(k, _norm_fn(P, z.space), i) for i, (k, P) in enumerate(zip(kinds, (F, E))) if k is not None]
    hits = [_sup_levels(k, kp.fn, z, descend) + (i, kp) for k, kp, i in partners]
    hits = [h for h in hits if np.all(np.isfinite(h[1][pos]) & (h[1][pos] > 0))]
    if not hits:
        return None
    _, lv, i, kp = min(hits, key=lambda h: h[0])
    sup, partner = z.with_values(np.divide(1.0, lv, out=np.zeros_like(lv), where=pos)), z.with_values(z.values * lv)
    split = _bound(E, F, "constructive", *((sup, partner) if i == 0 else (partner, sup)))
    if kp.lattice:
        return split
    run = _bound(E, F, "optimizer", *_optimize_product(E, F, z, o))
    return run if run[0].value < split[0].value else split


def _modular_factor(O: OrliczCL, L: Lp, z: StepFunction) -> Optional[np.ndarray]:
    """The x of least |z/x|_L on the modular ball of O, the gauge of c (t -
    a)_+^r over L^1(u), L = L^q(w): a convex problem split by cell.  A cell
    solves x^(q+1) (x - a)^(r-1) = R/nu, R = q m^F z^q / (c r m^E) (m^E, m^F
    the cell masses of u and w^q), by Newton from right of the root in y =
    log(x - a), on the convex, increasing g(y) = (q + r) y + (q + 1) log(1
    + a e^-y); closed for r = 1 or a = 0.  Newton on s = -log nu, bisecting
    where it leaves its bracket, zeroes the log modular.  None where a mass
    on supp z is not finite and positive, or where the solve fails."""
    phi, q, pos = O.phi, L.p, z.values > 0
    m = np.array([_cell_masses(O.base, z.space), _cell_masses(L, z.space)])[:, pos]
    if not np.all(np.isfinite(m) & (m > 0)):
        return None
    a, c, r = getattr(phi, "a", 0.0), phi.c, phi.p
    la, lm = (math.log(a) if a > 0 else -math.inf), np.log(c * m[0])
    lr = math.log(q / (c * r)) + np.log(m[1] / m[0]) + q * np.log(z.values[pos])  # log R

    def slope(y):  # g'(y) = (q + 1) (x - a)/x + r - 1
        return (q + 1.0) / (1.0 + np.exp(la - y)) + r - 1.0

    def level(s, y):  # y per cell at s (Newton from y), dy/ds = 1/g'(y), the log modular and its slope in s
        t = lr + s
        if r == 1.0 or a == 0.0:  # x = max(a, e^(t/(q+r))): a cell at a carries no modular
            y = t / (q + r)
            y = np.where(y > la, y + np.log(-np.expm1(la - y)), -math.inf)
        else:
            y = np.minimum(t / (q + r), (t - (q + 1.0) * la) / (r - 1.0)) if y is None else y  # g is above both asymptotes
            for _ in range(_KKT_STEPS):
                step = ((q + r) * y + (q + 1.0) * np.logaddexp(0.0, la - y) - t) / slope(y)
                y = y - step
                if np.abs(step).max() <= 1e-15 * max(1.0, np.abs(y).max()):
                    break
        dy, ly = 1.0 / slope(y), lm + r * y  # dy is +inf on a cell at a
        top, live = ly.max(), ly > -math.inf
        if not math.isfinite(top):
            return y, dy, top, 0.0
        e = np.exp(ly - top)
        return y, dy, top + math.log(e.sum()), r * float(e[live] @ dy[live]) / float(e.sum())

    ly = lm + r * lr / (q + r)  # from the root for a = 0, where the log modular is linear in s
    s, y, lo, hi, width = -(q + r) / r * (ly.max() + math.log(np.exp(ly - ly.max()).sum())), None, -math.inf, math.inf, 1.0
    with np.errstate(**_QUIET):
        for _ in range(_KKT_STEPS):
            y, dy, h, dh = level(s, y)
            if abs(h) <= 1e-15:
                break
            lo, hi = (s, hi) if h < 0 else (lo, s)
            nxt = s - h / dh if math.isfinite(h) and dh > 0 else math.nan
            if not lo < nxt < hi:  # bisect, or widen where no modular (each r = 1 cell at a) or an overflow bounds it
                nxt, width = (0.5 * (lo + hi), width) if math.isfinite(lo + hi) else (s + math.copysign(width, -h), 2.0 * width)
            if nxt in (s, lo, hi):  # no float left between the ends
                break
            y, s = y + (nxt - s) * dy, nxt  # y is concave in s: its tangent starts right of the root
        else:
            h = math.nan
        x = np.zeros_like(z.values)
        x[pos] = a + np.exp(y - h / r)  # modular 1, off the optimum only to second order in h
        mod = float(m[0] @ phi._eval(x[pos]))  # not 1 where x - a is below the resolution of x's floats
    return x if abs(h) <= 1e-8 and abs(mod - 1.0) <= 1e-9 and np.all(np.isfinite(z.values[pos] / x[pos])) else None


def _modular_split(E, F, z: StepFunction):
    """E ⊙ F for a gauge of c (t - a)_+^r over L^1(u) and L^q(w), q finite,
    in either order: the ``_bound`` of ``_modular_factor``'s split."""
    for i, (O, L) in enumerate(((E, F), (F, E))):
        gauge = isinstance(O, OrliczCL) and isinstance(O.phi, (ShiftedPower, Power)) and isinstance(O.base, Lp) and O.base.p == 1.0
        x = _modular_factor(O, L, z) if gauge and isinstance(L, Lp) and math.isfinite(L.p) else None
        if x is not None:
            pair = (z.with_values(x), _safe_quotient(z, z.with_values(x)))
            return _bound(E, F, "constructive", *(pair if i == 0 else pair[::-1]))


def _minorant_slopes(Q: np.ndarray, G: np.ndarray) -> np.ndarray:
    """The slope of the greatest convex minorant of (0, 0) and the points
    (Q_k, G_k) with G_k finite, on the interval that ends at each Q_k (Q
    increasing): the lower hull's segment slopes, so that equal slopes
    stay equal where differences of the minorant's values would round."""
    px, py = [0.0], [0.0]
    for q, g in zip(Q.tolist(), G.tolist()):
        if g == math.inf:
            continue
        while len(px) > 1 and (py[-1] - py[-2]) * (q - px[-2]) >= (g - py[-2]) * (px[-1] - px[-2]):
            px.pop(), py.pop()
        px.append(q), py.append(g)
    px, py = np.array(px), np.array(py)
    return ((py[1:] - py[:-1]) / (px[1:] - px[:-1]))[np.searchsorted(px, Q) - 1]


@functools.lru_cache(maxsize=256)
def _dual_kernels(C, L, mspace: MeasureSpace):
    """The kernels of C's and L's ``dual_descriptor`` duals on ``mspace``,
    where those and C's and L's are all ``exact``; else None.  Cached: the
    four lookups cost about a tenth of a pooled split at n = 16."""
    duals = (dual_descriptor(C), dual_descriptor(L))
    kernels = [_norm_fn(S, mspace) for S in (C, L) + duals] if None not in duals else ()
    return tuple(kernels[2:]) if kernels and all(k.kind == "exact" for k in kernels) else None


def _pooled_factor(C, L, z: StepFunction):
    """(x, lower) for C ⊙ L, L = Lambda_psi and C = Lambda_phi or M_phi, where
    the kernels of C, L and their ``dual_descriptor`` duals are all ``exact``;
    else None.  In z's decreasing order on supp z (T the cumulative widths,
    b psi's increments), a decreasing x with |x|_C <= 1 is a mass s = mu x
    whose running sums S are capped: mu is phi's increments and S <= 1 at
    the end for Lambda_phi; mu is the widths and S_k <= T_k / phi(T_k) for
    M_phi.  On an atom, a run of cells where y = z / x is constant, x = z
    dS / W and y contributes B W / dS to |y|_L (W = sum z mu and B = sum b
    over the atom, dS its mass).  That is least under the caps at the atom
    ends for dS = k sqrt(B W), k the slope over the atom of the greatest
    convex minorant of (0, 0) and the points (Q, cap) at the atom ends, Q =
    cumsum sqrt(B W) (one slope for Lambda_phi).  Adjacent atoms pool
    wherever y rises, until it does not; a cell whose mu or b is 0 (it is
    narrower than an ulp of T) starts no atom.  ``lower`` is the Hölder
    bound (sum sqrt(z alpha beta))^2 / (|alpha/w|_C' |beta/w|_L') at alpha =
    mu / k^2 per atom and beta = alpha x / y: a bound for any alpha, beta >=
    0, and one that meets |x|_C |y|_L where the split is optimal."""
    if not (isinstance(L, LorentzLambda) and isinstance(C, (LorentzLambda, Marcinkiewicz))):
        return None
    ms, duals = z.space, _dual_kernels(C, L, z.space)
    if duals is None:
        return None
    pos = z.values > 0
    m = np.count_nonzero(pos)
    idx = np.argsort(-z.values, kind="stable")[:m]  # supp z in decreasing order
    zs, w = z.values[idx], ms.widths[idx]
    T = np.cumsum(w)

    def increments(phi):  # phi(0) counts as 0, as in the Lambda kernel
        ph = np.asarray(phi(T), dtype=float)
        return ph - np.concatenate(([0.0], ph[:-1]))

    with np.errstate(**_QUIET):
        b = increments(L.phi)
        if isinstance(C, LorentzLambda):
            mu, G = increments(C.phi), np.concatenate((np.full(m - 1, math.inf), [1.0]))
        else:
            mu, G = w, T / np.asarray(C.phi(T), dtype=float)
        live = (mu > 0) & (b > 0)
        if not ((np.isfinite(mu) & (mu >= 0) & np.isfinite(b) & (b >= 0)).all() and live[0] and (G > 0).all()):
            return None
        W, edges = zs * mu, np.flatnonzero(np.concatenate((live, [True])))  # atom i is cells edges[i] to edges[i + 1] - 1
        while True:
            Wa, Ba = np.add.reduceat(W, edges[:-1]), np.add.reduceat(b, edges[:-1])
            r = np.sqrt(Ba * Wa)
            k = _minorant_slopes(np.cumsum(r), G[edges[1:] - 1])
            dS = k * r
            y = Wa / dS
            keep = np.concatenate(([True], ~(y[1:] > y[:-1]), [True]))
            if keep.all():
                break
            edges = edges[keep]
        runs = edges[1:] - edges[:-1]
        x, alpha = np.zeros_like(z.values), np.zeros_like(z.values)
        x[idx], alpha[idx] = zs * np.repeat(dS / Wa, runs), mu * np.repeat(k**-2.0, runs)
        beta = np.divide(alpha * x * x, z.values, out=np.zeros_like(x), where=pos)  # alpha x / y
        lower = float(np.sqrt(z.values * alpha * beta).sum()) ** 2 / (duals[0].fn(alpha / ms.widths) * duals[1].fn(beta / ms.widths))
        fine = (np.isfinite(x[idx]) & (x[idx] > 0)).all()
    return (x, lower) if fine and 0.0 < lower < math.inf else None


def _pooled_split(E, F, z: StepFunction):
    """E ⊙ F for Lambda_psi and Lambda_phi or M_phi, in either order: the
    ``_bound`` of ``_pooled_factor``'s split (Lambda ⊙ Lambda tries both
    roles), kept only where it is within 1e-9 of its lower bound: a role
    within 1e-12 at once, else the least value among the roles within 1e-9,
    as a role whose x rises in z's decreasing order can land in between."""
    best = None
    for i, (C, L) in enumerate(((E, F), (F, E))):
        hit = _pooled_factor(C, L, z)
        if hit is not None:
            x = z.with_values(hit[0])
            pair = (x, _safe_quotient(z, x))
            notes = ("certified by explicit factorization", f"Hölder dual lower bound {hit[1]:.12g}")
            res = _bound(E, F, "constructive", *(pair if i == 0 else pair[::-1]), notes=notes)
            if res[0].value <= hit[1] * (1.0 + 1e-12):
                return res
            if res[0].value <= hit[1] * (1.0 + 1e-9) and (best is None or res[0].value < best[0].value):
                best = res
    return best


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def product_norm(
    E: SpaceDescriptor,
    F: SpaceDescriptor,
    z: StepFunction,
    opts: Optional[dict] = None,
) -> tuple[NormResult, FactorizationWitness]:
    """Upper bound on inf |x|_E |y|_F over factorizations z = xy, with its witness."""
    o = _merge_opts(opts)
    if float(np.max(z.values, initial=0.0)) == 0.0:
        wit = _zero_witness(z)
        return NormResult(0.0, "exact", wit), wit
    Ec, Fc = canonical(E), canonical(F)
    hit = _closed_form(Ec, Fc, z) or _sup_split(Ec, Fc, z, o) or _modular_split(Ec, Fc, z) or _pooled_split(Ec, Fc, z)
    return hit if hit is not None else _bound(Ec, Fc, "optimizer", *_optimize_product(Ec, Fc, z, o))


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
# ratio ascent (multipliers, duals): the product engine on J = |y|_E / |m y|_F
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
    if n > 1:  # every other member lives on the first cell, where a space may be +inf on every function
        out.append(np.r_[0.0, np.ones(n - 1)])
    return out


def _ratio_ascent(E, F, m: StepFunction, family: Sequence[np.ndarray], o: dict, ascent: bool = True) -> float:
    """sup |m y|_F / |y|_E over ``family`` and, unless ``ascent`` is False,
    the ascent from it: a lower bound, or +inf at or above ``_RATIO_CAP``.

    The family is scored in one call of each kernel; a member's ratio is 0
    where |y|_E is not finite and positive.  The ascent is the product
    engine run the other way: ``_descend`` (BFGS, and the coordinate
    polish wherever BFGS ends off a smooth maximum) minimizes J(u) =
    |e^u|_E / |m e^u|_F over u = log y on a member's support, with the
    floor -log ``_RATIO_CAP``.  The log ratio is not concave, so a run may
    end at a local maximum that another start passes: runs start from the
    ``_RATIO_STARTS`` best members, and the largest ratio wins.
    """
    mspace, mv = m.space, m.values
    ke, kf = _norm_fn(E, mspace), _norm_fn(F, mspace)

    def ratios(Y: np.ndarray) -> np.ndarray:
        num, den = kf.fn(mv * Y), ke.fn(Y)
        r = np.where((den > 0.0) & (den < math.inf), num / den, 0.0)
        return np.where(np.isnan(r), math.inf, r)

    if not len(family):
        return 0.0
    Y = np.array(family, dtype=float)
    sweeps, floor = min(o["max_sweeps"], 200), -math.log(_RATIO_CAP)
    with np.errstate(**_QUIET):
        r = ratios(Y)
        best = float(r.max())
        for i in np.argsort(-r, kind="stable")[:_RATIO_STARTS] if ascent else []:
            if not r[i] > 0.0:  # J is +inf there: no run can start
                continue
            supp = Y[i] > 0.0
            J, fg, lookahead = _objective(E, F, m, supp, quotient=True)
            u = _descend(J, fg, np.log(Y[i][supp]), sweeps, floor, o["golden_iters"], lookahead)[0]
            best = max(best, float(ratios(_split(u, supp, mv[supp], True)[0])))
    return math.inf if best >= _RATIO_CAP else best


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
    """Power-weight Lorentz/Marcinkiewicz identifications (approximate):
    Lambda into Lambda and M into M as M* of the weight ratio, M into
    Lambda as Lambda of it."""
    pe, pf = (simplify_power(S.phi) if isinstance(S, (LorentzLambda, Marcinkiewicz)) else None for S in (E, F))
    if pe is None or pf is None or (type(E) is not type(F) and isinstance(E, LorentzLambda)):
        return None
    diff = pf.alpha - pe.alpha
    ratio_w = PowerWeight(diff, pf.coef / pe.coef)
    if type(E) is not type(F):
        if diff <= 0:
            return _zero_or_inf(m, "weight ratio not increasing")
        target, notes = LorentzLambda(ratio_w), ("identified with the Lorentz space of the weight ratio", f"two-sided constants (1, {1.0 / diff:g})")
    else:
        if diff < 0:
            return _zero_or_inf(m, "weight ratio unbounded near zero")
        target, notes = MarcinkiewiczStar(ratio_w), ("identified with the sup-form Marcinkiewicz space of the weight ratio",)
        if isinstance(E, LorentzLambda) and pe.alpha > 0:
            notes += (f"two-sided constants (1, {1.0 / pe.alpha:g})",)
    return NormResult(norm(target, m).value, "estimate", None, notes)


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
    family = _default_test_family(m.space, m.values) if witnesses is None else [w.values for w in witnesses]
    best = _ratio_ascent(Ec, Fc, m, family, o, ascent)
    if math.isinf(best):
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
    # values are >= 0, so the pairing <x, y> is |x y|_{L^1}: the multiplier ascent into L^1
    lower = _ratio_ascent(Ec, Lp(1.0), y, _default_test_family(y.space, y.values), o)
    if math.isinf(lower):
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
