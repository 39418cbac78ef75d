"""Averaging operators and growth indices.

The averaging operator ``H`` and its companion ``H*`` map step
functions to piecewise-smooth functions with closed-form pieces, so the
composition identity ``HH* = H + H*`` can be checked to float noise
rather than quadrature error.  Operator norms are reported as honest
(lower, upper) pairs: lower bounds from explicit test functions, upper
bounds from closed forms where a change of variables gives one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import (
    COUNTING,
    MeasureSpace,
    StepFunction,
    _dilated_grid,
    _refine,
    half_line,
)
from .spaces import (
    Convexification,
    Lp,
    LorentzLambda,
    LorentzLambdaP,
    Marcinkiewicz,
    MarcinkiewiczStar,
    SpaceDescriptor,
    canonical,
    is_symmetric,
    norm,
)
from .weights import Weight, simplify_power

__all__ = [
    "PiecewiseSmoothFn",
    "IndexReport",
    "OperatorNormBound",
    "hardy",
    "hardy_dual",
    "hardy_identity_residual",
    "operator_norm",
    "dilation_indices",
    "simonenko_indices",
    "boyd_indices",
]

_AFFINE_OVER_T = "affine_over_t"
_AFFINE_LOG = "affine_log"


@dataclass(frozen=True)
class PiecewiseSmoothFn:
    """Per-cell closed-form pieces on a shared grid.

    ``affine_over_t`` cells evaluate ``A/t + B`` (averages of steps);
    ``affine_log`` cells evaluate ``A + B*log t`` (tail integrals of
    steps against ds/s).
    """

    breakpoints: np.ndarray
    A: np.ndarray
    B: np.ndarray
    form: str

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t)
        idx = np.clip(np.searchsorted(self.breakpoints, tt, side="right") - 1, 0, self.A.size - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.form == _AFFINE_OVER_T:
                out = np.where(tt > 0, self.A[idx] / np.where(tt > 0, tt, 1.0), 0.0) + self.B[idx]
            else:
                out = self.A[idx] + self.B[idx] * np.where(tt > 0, np.log(np.where(tt > 0, tt, 1.0)), -np.inf)
                out = np.where((tt == 0) & (self.B[idx] == 0), self.A[idx], out)
        return float(out[0]) if scalar else out

    def integral_from_zero(self, t):
        """Exact antiderivative evaluated at t (vectorized)."""
        bp = self.breakpoints
        cell_int = self._cell_integrals()
        cum = np.concatenate(([0.0], np.cumsum(cell_int)))
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t)
        idx = np.clip(np.searchsorted(bp, tt, side="right") - 1, 0, self.A.size - 1)
        out = cum[idx] + self._piece_integral(bp[idx], tt, idx)
        return float(out[0]) if scalar else out

    def _cell_integrals(self) -> np.ndarray:
        a, b = self.breakpoints[:-1], self.breakpoints[1:]
        return self._piece_integral(a, b, np.arange(self.A.size))

    def _piece_integral(self, a, b, idx) -> np.ndarray:
        A, B = self.A[idx], self.B[idx]
        if self.form == _AFFINE_OVER_T:
            with np.errstate(divide="ignore", invalid="ignore"):
                la = np.where(a > 0, np.log(np.where(a > 0, a, 1.0)), 0.0)
                lb = np.where(b > 0, np.log(np.where(b > 0, b, 1.0)), 0.0)
                log_part = np.where(A == 0.0, 0.0, A * (lb - la))
                log_part = np.where((a == 0) & (A != 0.0), np.inf, log_part)
            return log_part + B * (b - a)
        fa = np.where(a > 0, a * np.log(np.where(a > 0, a, 1.0)) - a, 0.0)
        fb = np.where(b > 0, b * np.log(np.where(b > 0, b, 1.0)) - b, 0.0)
        return A * (b - a) + B * (fb - fa)

    def continuity_residual(self) -> float:
        """Largest jump across interior breakpoints, relative to scale."""
        interior = self.breakpoints[1:-1]
        if interior.size == 0:
            return 0.0
        left_idx = np.arange(interior.size)
        right_idx = left_idx + 1
        vals_l = self._eval_at(interior, left_idx)
        vals_r = self._eval_at(interior, right_idx)
        finite = np.isfinite(vals_l) & np.isfinite(vals_r)
        if not finite.any():
            return 0.0
        scale = max(1.0, float(np.max(np.abs(vals_l[finite]))))
        return float(np.max(np.abs(vals_l[finite] - vals_r[finite]))) / scale

    def _eval_at(self, t, idx):
        if self.form == _AFFINE_OVER_T:
            return self.A[idx] / t + self.B[idx]
        return self.A[idx] + self.B[idx] * np.log(t)


@dataclass(frozen=True)
class IndexReport:
    """A (lower, upper) index pair with provenance."""

    lower: float
    upper: float
    kind: str
    method: str
    truncation: tuple

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise ValueError("lower index exceeds upper index")

    def to_json(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "kind": self.kind,
            "method": self.method,
            "truncation": list(self.truncation),
        }


@dataclass(frozen=True)
class OperatorNormBound:
    """Two-sided bound on an operator norm; never a point estimate."""

    lower: float
    upper: float
    op: str
    witness: str
    notes: tuple = ()

    def to_json(self) -> dict:
        return {
            "lower": self.lower,
            "upper": None if math.isinf(self.upper) else self.upper,
            "op": self.op,
            "witness": self.witness,
            "notes": list(self.notes),
        }


def _no_counting(x: StepFunction, what: str) -> None:
    if x.space.kind == COUNTING:
        raise ValueError(f"{what} is defined on interval grids, not counting measure")


def hardy(x: StepFunction) -> PiecewiseSmoothFn:
    """Running average ``(1/t) ∫_0^t x``, exact per cell."""
    _no_counting(x, "hardy")
    bp = x.space.breakpoints
    v = x.values
    cum = np.concatenate(([0.0], np.cumsum(v * x.space.widths)))
    A = cum[:-1] - v * bp[:-1]
    return PiecewiseSmoothFn(bp, A, v.copy(), _AFFINE_OVER_T)


def hardy_dual(x: StepFunction) -> PiecewiseSmoothFn:
    """Tail integral ``∫_t^l x(s)/s ds`` with l the grid length."""
    _no_counting(x, "hardy_dual")
    bp = x.space.breakpoints
    v = x.values
    with np.errstate(divide="ignore"):
        # per-cell mass of v_i * log(b/a); the first cell may touch 0
        ratios = np.log(bp[1:] / np.where(bp[:-1] > 0, bp[:-1], 1.0))
    cell = v * ratios
    cell[0] = v[0] * math.inf if (v[0] > 0 and bp[0] == 0.0) else cell[0]
    tail = np.concatenate((np.cumsum(cell[::-1])[::-1], [0.0]))
    A = tail[1:] + v * np.log(bp[1:])
    return PiecewiseSmoothFn(bp, A, -v, _AFFINE_LOG)


def hardy_identity_residual(x: StepFunction, samples: int = 5) -> float:
    """Max deviation of the average-of-tail from (average + tail).

    All three quantities have closed forms, so the residual measures
    float noise only.
    """
    h = hardy(x)
    hs = hardy_dual(x)
    bp = x.space.breakpoints
    a, b = bp[:-1], bp[1:]
    # ``samples`` geometric points inside each cell; the first cell, which touches 0, from b/1024
    inner = np.geomspace(np.where(a > 0, a, b / 1024.0), b, samples + 2, axis=-1)[:, 1:-1]
    ts = np.unique(np.concatenate((b, inner.ravel())))
    ts = ts[ts > 0]
    lhs = hs.integral_from_zero(ts) / ts
    rhs = h(ts) + hs(ts)
    finite = np.isfinite(rhs)
    if not finite.any():
        return 0.0
    scale = max(1.0, float(np.max(np.abs(rhs[finite]))))
    return float(np.max(np.abs(lhs[finite] - rhs[finite]))) / scale


# ---------------------------------------------------------------------------
# operator norms
# ---------------------------------------------------------------------------


def _step_below(fn: PiecewiseSmoothFn, mspace: MeasureSpace) -> StepFunction:
    """Step under-approximation of a non-increasing smooth function."""
    vals = np.asarray(fn(mspace.breakpoints[1:]), dtype=float)
    vals = np.where(np.isfinite(vals), np.maximum(vals, 0.0), 0.0)
    return StepFunction(mspace, vals)


def _witness_family(mspace: MeasureSpace, space_p_hint: float) -> list:
    bp = mspace.breakpoints
    n = mspace.n_cells
    mids = np.sqrt(np.maximum(bp[:-1], bp[1] * 1e-6) * bp[1:])
    out = []
    for frac in (0.1, 0.35, 0.65, 0.9):
        k = max(1, int(n * frac))
        ind = np.zeros(n)
        ind[:k] = 1.0
        out.append(("indicator", StepFunction(mspace, ind)))
    for k in (1.0, 2.0):
        out.append(("geometric", StepFunction(mspace, 2.0 ** (-k * np.arange(n)))))
    if math.isfinite(space_p_hint) and space_p_hint > 1.0:
        for k in range(1, 9):
            gamma = (1.0 - 2.0**-k) / space_p_hint
            out.append((f"power_{gamma:.4g}", StepFunction(mspace, mids**-gamma)))
    return out


def _p_hint(space: SpaceDescriptor) -> float:
    sp = canonical(space)
    if isinstance(sp, Lp):
        return sp.p
    if isinstance(sp, (LorentzLambdaP, Marcinkiewicz, MarcinkiewiczStar, LorentzLambda)):
        pw = simplify_power(sp.phi)
        if pw is not None and pw.alpha > 0:
            return 1.0 / pw.alpha
    return math.inf


def _dilation_upper(space: SpaceDescriptor, s: float) -> Optional[float]:
    sp = canonical(space)
    if isinstance(sp, Lp) and sp.weight is None:
        return s ** (1.0 / sp.p)
    if isinstance(sp, (LorentzLambda, LorentzLambdaP, Marcinkiewicz, MarcinkiewiczStar)):
        pw = simplify_power(sp.phi)
        if pw is not None:
            return s**pw.alpha
    if isinstance(sp, Convexification):
        inner = _dilation_upper(sp.base, s)
        if inner is not None:
            return inner ** (1.0 / sp.p)
    if is_symmetric(sp):
        return max(1.0, s)
    return None


def operator_norm(
    op: str,
    space: SpaceDescriptor,
    s: float = 2.0,
    mspace: Optional[MeasureSpace] = None,
) -> OperatorNormBound:
    """Two-sided bound for H, H* or the dilation D_s on a space.

    The lower bound maximizes ``|op x| / |x|`` over indicators,
    geometric steps and truncated power profiles (the classical
    near-extremal family); ``|op x|`` for the averaging operators is
    itself under-approximated by right-endpoint sampling, so the lower
    bound is sound.

    Each call builds one grid for all witnesses: the dilated grid for
    D_s, which also rejects an ``s`` that is not positive and finite
    before any norm is taken, or the 5-fold refinement that H and H*
    are sampled on.
    """
    if op not in ("H", "H*", "D_s"):
        raise ValueError("op must be one of 'H', 'H*', 'D_s'")
    if mspace is None:
        mspace = half_line(96)
    if op == "D_s":
        dspace, src = _dilated_grid(mspace, s)
    else:
        fine = _refine(mspace, 4)
    notes = ()
    tr = mspace.truncation()
    if tr is not None:
        notes = (f"half-line truncated to [{tr[0]:g}, {tr[1]:g}]",)
    best = 0.0
    best_name = "none"
    for name, x in _witness_family(mspace, _p_hint(space)):
        nx = norm(space, x).value
        if not (nx > 0 and math.isfinite(nx)):
            continue
        if op == "D_s":
            ny = norm(space, StepFunction(dspace, x(src))).value
        else:
            fn = hardy(x) if op == "H" else hardy_dual(x)
            ny = norm(space, _step_below(fn, fine)).value
        ratio = ny / nx
        if ratio > best:
            best, best_name = ratio, name
    if op == "D_s":
        upper = _dilation_upper(space, s)
    elif op == "H":
        sp = canonical(space)
        if isinstance(sp, Lp) and sp.weight is None and sp.p > 1:
            upper = 1.0 if math.isinf(sp.p) else sp.p / (sp.p - 1.0)
        else:
            upper = None
    else:
        sp = canonical(space)
        upper = sp.p if isinstance(sp, Lp) and sp.weight is None and math.isfinite(sp.p) else None
    if upper is None:
        upper = math.inf
        notes = notes + ("no closed-form upper bound for this space",)
    label = op if op != "D_s" else f"D_{s:g}"
    return OperatorNormBound(best, float(upper), label, best_name, notes)


# ---------------------------------------------------------------------------
# indices
# ---------------------------------------------------------------------------


def dilation_indices(
    phi: Weight,
    t_min: float = 2.0**-20,
    t_max: float = 2.0**20,
    s_samples: int = 257,
) -> IndexReport:
    """Lower/upper dilation exponents of phi on the truncated line.

    The defining limits are estimated at the extreme dilation factors
    the truncation allows; for pure powers the estimate is the exponent
    itself, exactly.
    """
    pw = simplify_power(phi)
    if pw is not None:
        return IndexReport(pw.alpha, pw.alpha, "dilation", "closed_form", (t_min, t_max))

    def m_phi(t: float) -> float:
        lo = max(t_min, t_min / t)
        hi = min(t_max, t_max / t)
        if not (lo < hi):
            raise ValueError("dilation factor outside the truncated range")
        s = np.geomspace(lo, hi, s_samples)
        ratios = np.asarray(phi(s * t), dtype=float) / np.asarray(phi(s), dtype=float)
        if not np.all(np.isfinite(ratios)):
            raise ValueError("weight vanishes or blows up on the grid")
        return float(np.max(ratios))

    t_lo = (t_min / t_max) ** 0.75
    t_hi = (t_max / t_min) ** 0.75
    p = math.log(m_phi(t_lo)) / math.log(t_lo)
    q = math.log(m_phi(t_hi)) / math.log(t_hi)
    return IndexReport(min(p, q), max(p, q), "dilation", "grid_estimate", (t_min, t_max))


def simonenko_indices(
    phi: Weight,
    t_min: float = 2.0**-20,
    t_max: float = 2.0**20,
    samples: int = 513,
) -> IndexReport:
    """inf/sup of ``t phi'(t)/phi(t)`` over the truncated grid."""
    pw = simplify_power(phi)
    if pw is not None:
        return IndexReport(pw.alpha, pw.alpha, "simonenko", "closed_form", (t_min, t_max))
    t = np.geomspace(t_min, t_max, samples)
    vals = np.asarray(phi(t), dtype=float)
    if np.any(vals <= 0) or not np.all(np.isfinite(vals)):
        raise ValueError("weight must be positive and finite on the grid")
    try:
        dv = np.asarray(phi.derivative(t), dtype=float)
    except NotImplementedError:
        h = t * 1e-5
        dv = (np.asarray(phi(t + h), dtype=float) - np.asarray(phi(t - h), dtype=float)) / (2 * h)
    r = t * dv / vals
    return IndexReport(float(np.min(r)), float(np.max(r)), "simonenko", "grid_estimate", (t_min, t_max))


def boyd_indices(space: SpaceDescriptor, mspace: Optional[MeasureSpace] = None) -> IndexReport:
    """Growth exponents of ``s -> |D_s|``; table entries are closed form."""
    sp = canonical(space)
    tr = (2.0**-20, 2.0**20)
    if isinstance(sp, Lp) and sp.weight is None:
        a = 1.0 / sp.p
        return IndexReport(a, a, "boyd", "closed_form", tr)
    if isinstance(sp, (LorentzLambda, LorentzLambdaP, Marcinkiewicz, MarcinkiewiczStar)):
        pw = simplify_power(sp.phi)
        if pw is not None:
            return IndexReport(pw.alpha, pw.alpha, "boyd", "closed_form", tr)
    if isinstance(sp, Convexification):
        inner = boyd_indices(sp.base, mspace)
        return IndexReport(
            inner.lower / sp.p, inner.upper / sp.p, "boyd", inner.method, inner.truncation
        )
    if mspace is None:
        mspace = half_line(96)
    trunc = mspace.truncation() or (0.0, mspace.length)
    s_small, s_big = 2.0**-8, 2.0**8
    lo_norm = operator_norm("D_s", sp, s=s_small, mspace=mspace).lower
    hi_norm = operator_norm("D_s", sp, s=s_big, mspace=mspace).lower
    alpha = math.log(lo_norm) / math.log(s_small) if lo_norm > 0 else 0.0
    beta = math.log(hi_norm) / math.log(s_big) if hi_norm > 0 else 0.0
    return IndexReport(min(alpha, beta), max(alpha, beta), "boyd", "grid_estimate", trunc)
