"""Model measure spaces and exact step-function arithmetic.

Everything downstream (norms, Hardy operators, product optimizers)
works on nonnegative step functions over one of three model spaces:

* ``unit_interval``: (0, 1) with Lebesgue measure, geometric grid
  refinement towards 0,
* ``half_line``: (0, t_max) with Lebesgue measure, represented on a
  geometric grid whose resolution floor near 0 is ``t_min`` (the pair
  ``(t_min, t_max)`` is carried as truncation metadata in reports),
* ``counting``: sequences of length n, i.e. cells of width one.

Breakpoints always start at 0 so that decreasing rearrangements are
genuinely non-increasing from the origin, running integrals start at 0,
and the identity ``x** = H(x*)`` holds exactly.  Step functions are
closed under rearrangement and dilation; no interpolation is ever used.

Cell widths are stored explicitly: rearrangement permutes the exact
width multiset, and ``distribution`` / ``integrate`` sum their terms in
a canonical order, so equimeasurable functions produce bit-identical
measures and integrals.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .weights import Weight

__all__ = [
    "MeasureSpace",
    "StepFunction",
    "unit_interval",
    "half_line",
    "counting",
    "default_grid_cells",
    "distribution",
    "rearrange",
    "double_star",
    "dilate",
    "integrate",
    "integrate_against",
    "common_refinement",
    "step_to_json",
    "step_from_json",
]

UNIT_INTERVAL = "unit_interval"
HALF_LINE = "half_line"
COUNTING = "counting"

_ENV_GRID = "BFSLAB_GRID_N"


def default_grid_cells() -> int:
    """Default grid size, overridable through the ``BFSLAB_GRID_N``
    environment variable."""
    raw = os.environ.get(_ENV_GRID, "")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    return n if n >= 4 else 64


class MeasureSpace:
    """An interval (or finite sequence) carved into cells.

    Parameters
    ----------
    kind:
        One of ``unit_interval``, ``half_line``, ``counting``.
    breakpoints:
        Strictly increasing, starting at 0.  Cell i is
        ``[breakpoints[i], breakpoints[i+1])``.
    t_min, t_max:
        Truncation metadata for ``half_line`` spaces: the resolution
        floor near 0 and the right endpoint.  Reports that depend on
        behaviour at the extremes carry these bounds.
    widths:
        Optional exact cell widths.  When omitted they are the
        breakpoint differences; rearrangement passes the permuted
        original widths here so the width multiset survives verbatim.

    Instances are immutable; operations return new spaces.
    """

    __slots__ = ("kind", "breakpoints", "t_min", "t_max", "widths", "_hash")

    def __init__(
        self,
        kind: str,
        breakpoints,
        t_min: float | None = None,
        t_max: float | None = None,
        widths=None,
    ):
        if kind not in (UNIT_INTERVAL, HALF_LINE, COUNTING):
            raise ValueError(f"unknown measure space kind {kind!r}")
        bp = np.ascontiguousarray(breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("need at least two breakpoints")
        if bp[0] != 0.0:
            raise ValueError("breakpoints must start at 0")
        if not np.all(np.isfinite(bp)):
            raise ValueError("breakpoints must be finite")
        if not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if kind == UNIT_INTERVAL and bp[-1] != 1.0:
            raise ValueError("unit_interval grids must end at 1")
        if kind == COUNTING and not np.array_equal(bp, np.arange(bp.size, dtype=float)):
            raise ValueError("counting grids are 0, 1, ..., n")
        if kind == HALF_LINE:
            if t_min is None:
                t_min = float(bp[1])
            if t_max is None:
                t_max = float(bp[-1])
            if not (0 < t_min < t_max):
                raise ValueError("half_line requires 0 < t_min < t_max")
        if widths is None:
            w = np.diff(bp)
        else:
            w = np.ascontiguousarray(widths, dtype=float)
            if w.shape != (bp.size - 1,):
                raise ValueError("widths must have one entry per cell")
            if np.any(w <= 0):
                raise ValueError("widths must be positive")
            if np.max(np.abs(w - np.diff(bp))) > 1e-9 * bp[-1]:
                raise ValueError("widths inconsistent with breakpoints")
        bp.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "t_min", t_min)
        object.__setattr__(self, "t_max", t_max)
        object.__setattr__(self, "widths", w)
        # computed once: compile-cache lookups hash every grid they touch
        object.__setattr__(self, "_hash", hash((kind, bp.tobytes())))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("MeasureSpace is immutable")

    @property
    def n_cells(self) -> int:
        return self.breakpoints.size - 1

    @property
    def length(self) -> float:
        """Total measure of the space."""
        return float(self.breakpoints[-1])

    def truncation(self) -> tuple[float, float] | None:
        if self.kind == HALF_LINE:
            return (self.t_min, self.t_max)
        return None

    def same_interval(self, other: "MeasureSpace") -> bool:
        return self.kind == other.kind and self.length == other.length

    def with_breakpoints(self, bp, widths=None) -> "MeasureSpace":
        return MeasureSpace(self.kind, bp, self.t_min, self.t_max, widths)

    def __eq__(self, other):
        return (
            isinstance(other, MeasureSpace)
            and self.kind == other.kind
            and np.array_equal(self.breakpoints, other.breakpoints)
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"MeasureSpace({self.kind!r}, {self.n_cells} cells on (0, {self.length:g}))"


def unit_interval(n_cells: int | None = None, include: tuple[float, ...] = ()) -> MeasureSpace:
    """Geometrically refined grid on (0, 1).

    Half of the cells sit below ``2**-10`` and the refinement floor
    deepens with ``n_cells``, so finer grids genuinely see more of the
    behaviour near 0 instead of just slicing the same cells thinner.
    Extra breakpoints from ``include`` are merged in exactly.
    """
    n = default_grid_cells() if n_cells is None else int(n_cells)
    if n < 4:
        raise ValueError("need at least 4 cells")
    half = n // 2
    knee = 2.0**-10
    floor = knee * 2.0 ** (-float(half))
    if floor < np.finfo(float).tiny:
        raise ValueError(f"unit_interval grids have at most 2025 cells (got {n}): the floor 2^(-10 - n // 2) underflows")
    lower = np.geomspace(floor, knee, half + 1)
    upper = np.geomspace(knee, 1.0, n - half)[1:]
    bp = np.concatenate(([0.0], lower, upper))
    bp[-1] = 1.0
    if include:
        extra = [float(t) for t in include if 0.0 < float(t) < 1.0]
        if extra:
            bp = np.union1d(bp, extra)
    return MeasureSpace(UNIT_INTERVAL, bp)


def half_line(
    n_cells: int | None = None,
    t_min: float = 2.0**-20,
    t_max: float = 2.0**20,
    include: tuple[float, ...] = (),
) -> MeasureSpace:
    """Geometric grid on (0, t_max) with resolution floor ``t_min``."""
    n = default_grid_cells() if n_cells is None else int(n_cells)
    if n < 4:
        raise ValueError("need at least 4 cells")
    if not (0 < t_min < t_max):
        raise ValueError("require 0 < t_min < t_max")
    bp = np.concatenate(([0.0], np.geomspace(t_min, t_max, n)))
    bp[-1] = t_max
    if include:
        extra = [float(t) for t in include if 0.0 < float(t) < t_max]
        if extra:
            bp = np.union1d(bp, extra)
    return MeasureSpace(HALF_LINE, bp, t_min=t_min, t_max=t_max)


def counting(n: int) -> MeasureSpace:
    """Sequence space of length n: cells (i, i+1) of width one."""
    if n < 1:
        raise ValueError("need at least one element")
    return MeasureSpace(COUNTING, np.arange(n + 1, dtype=float))


class StepFunction:
    """Nonnegative step function: one finite value per cell."""

    __slots__ = ("space", "values")

    def __init__(self, space: MeasureSpace, values):
        vals = np.ascontiguousarray(values, dtype=float)
        if vals.shape != (space.n_cells,):
            raise ValueError(f"expected {space.n_cells} cell values, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("cell values must be finite")
        if np.any(vals < 0):
            raise ValueError("cell values must be nonnegative")
        vals.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("StepFunction is immutable")

    def with_values(self, values) -> "StepFunction":
        return StepFunction(self.space, values)

    def max(self) -> float:
        return float(np.max(self.values)) if self.values.size else 0.0

    def __call__(self, t):
        """Pointwise evaluation; cells are left-closed, 0 outside (0, L)."""
        t = np.asarray(t, dtype=float)
        bp = self.space.breakpoints
        idx = np.searchsorted(bp, t, side="right") - 1
        inside = (idx >= 0) & (t < bp[-1]) & (t > 0)
        out = np.where(inside, self.values[np.clip(idx, 0, self.space.n_cells - 1)], 0.0)
        return out if out.ndim else float(out)

    def __repr__(self):
        return f"StepFunction({self.space!r}, max={self.max():g})"


def _canonical_sum(terms: np.ndarray) -> float:
    """Sum in sorted order so that equal multisets of terms, however
    ordered, produce bit-identical totals."""
    if terms.size == 0:
        return 0.0
    return float(np.sum(np.sort(terms)))


def distribution(x: StepFunction, lam: float) -> float:
    """Measure of ``{ x > lam }``; exact and rearrangement-invariant."""
    if lam < 0:
        raise ValueError("threshold must be nonnegative")
    return _canonical_sum(x.space.widths[x.values > lam])


def rearrange(x: StepFunction) -> StepFunction:
    """Decreasing rearrangement, laid from 0 on a permuted grid.

    The (value, width) multiset is carried over verbatim, so the result
    is equimeasurable with the input exactly.  Cells whose width
    underflows the running breakpoint sum (possible only on grids
    spanning hundreds of orders of magnitude) are merged away, and so
    are trailing cells once the rounded running sum reaches the right
    endpoint early: the grid always ends exactly at the space's length.
    """
    order = np.argsort(-x.values, kind="stable")
    vals = x.values[order]
    widths = x.space.widths[order]
    bp = np.minimum(np.concatenate(([0.0], np.cumsum(widths))), x.space.length)
    bp[-1] = x.space.length
    good = np.diff(bp) > 0
    if not good.all():
        vals, widths = vals[good], widths[good]
        bp = np.concatenate(([0.0], bp[1:][good]))
        widths = np.diff(bp)
    space = x.space.with_breakpoints(bp, widths)
    return StepFunction(space, vals)


def _refine(mspace: MeasureSpace, interior: int) -> MeasureSpace:
    """Split every cell into ``interior + 1`` pieces: linearly for the
    first cell, which touches 0, and geometrically for every other cell,
    all of them in one array call of ``np.geomspace``."""
    bp = mspace.breakpoints
    k = interior + 2
    first = np.linspace(bp[0], bp[1], k)[:-1]
    rest = np.geomspace(bp[1:-1], bp[2:], k, axis=-1)[:, :-1]
    return mspace.with_breakpoints(np.unique(np.concatenate((first, rest.ravel(), bp[-1:]))))


def _cum_integral(x: StepFunction) -> np.ndarray:
    """Running integral of x at each breakpoint (length n_cells + 1)."""
    return np.concatenate(([0.0], np.cumsum(x.values * x.space.widths)))


def double_star(x: StepFunction, t) -> np.ndarray | float:
    """Hardy average of the decreasing rearrangement:
    ``(1/t) * integral of x* over (0, t)``, exact per cell."""
    xs = rearrange(x)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr <= 0) or np.any(t_arr > xs.space.length * (1 + 1e-12)):
        raise ValueError("t must lie inside the space's interval")
    t_arr = np.minimum(t_arr, xs.space.length)
    bp = xs.space.breakpoints
    cum = _cum_integral(xs)
    idx = np.clip(np.searchsorted(bp, t_arr, side="right") - 1, 0, xs.space.n_cells - 1)
    partial = cum[idx] + xs.values[idx] * (t_arr - bp[idx])
    out = partial / t_arr
    return out if np.ndim(t) else float(out[0])


def _dilated_grid(mspace: MeasureSpace, s: float) -> tuple[MeasureSpace, np.ndarray]:
    """The grid of ``D_s`` on ``mspace``, and the point ``t/s`` whose value
    each of its cells takes.

    The grid depends only on ``(mspace, s)``, so a caller that dilates
    many functions by one factor builds it once.  Validates ``s``.
    """
    if not (math.isfinite(s) and s > 0):
        raise ValueError("dilation factor must be positive and finite")
    right = mspace.length
    scaled = mspace.breakpoints * s
    scaled = scaled[scaled <= right]
    bp = np.union1d(np.union1d(scaled, mspace.breakpoints), [0.0, right])
    mids = 0.5 * (bp[:-1] + bp[1:])
    return mspace.with_breakpoints(bp), mids / s


def dilate(x: StepFunction, s: float) -> StepFunction:
    """Dilation ``(D_s x)(t) = x(t/s)`` for ``t/s`` inside the interval.

    The result lives on the union of the scaled and original
    breakpoints (exact; no interpolation), built by ``_dilated_grid``,
    which also rejects an ``s`` that is not positive and finite.  Mass
    dilated past the right endpoint is truncated away, both on the unit
    interval and on truncated half-line grids.
    """
    space, src = _dilated_grid(x.space, s)
    return StepFunction(space, x(src))


def integrate(x: StepFunction) -> float:
    """Exact integral; terms summed in canonical order so rearranging
    the input leaves the value bit-identical."""
    return _canonical_sum(x.values * x.space.widths)


def integrate_against(x: StepFunction, weight: Weight | None, p: float = 1.0) -> float:
    """Integral of ``(x * weight)**p`` over the space.

    Power weights use the closed-form antiderivative per cell (exact,
    including integrable singularities at 0); other weights use a fixed
    Gauss-Legendre rule per cell.  A non-integrable weight on a cell
    with nonzero value raises :class:`NonIntegrableWeight`.
    """
    if weight is None:
        return _canonical_sum(x.values**p * x.space.widths)
    bp = x.space.breakpoints
    vals = x.values
    live = np.nonzero(vals > 0)[0]
    terms = np.zeros(live.size)
    for j, i in enumerate(live):
        terms[j] = vals[i] ** p * weight.cell_integral_pow(bp[i], bp[i + 1], p)
    return _canonical_sum(terms)


def common_refinement(x: StepFunction, y: StepFunction) -> tuple[StepFunction, StepFunction]:
    """Re-express both functions on the union grid (exact refinement)."""
    if not x.space.same_interval(y.space):
        raise ValueError("step functions live on different intervals")
    if x.space == y.space:
        return x, y
    bp = np.union1d(x.space.breakpoints, y.space.breakpoints)
    space = x.space.with_breakpoints(bp)
    ix = np.clip(np.searchsorted(x.space.breakpoints, bp[:-1], side="right") - 1, 0, x.space.n_cells - 1)
    iy = np.clip(np.searchsorted(y.space.breakpoints, bp[:-1], side="right") - 1, 0, y.space.n_cells - 1)
    return StepFunction(space, x.values[ix]), StepFunction(space, y.values[iy])


def step_to_json(x: StepFunction) -> dict:
    """Serialize with ``repr`` floats so the round trip is exact."""
    space: dict = {"kind": x.space.kind, "breakpoints": [repr(float(b)) for b in x.space.breakpoints]}
    if x.space.kind == HALF_LINE:
        space["t_min"] = repr(float(x.space.t_min))
        space["t_max"] = repr(float(x.space.t_max))
    if x.space.kind == COUNTING:
        space["n"] = x.space.n_cells
    return {"space": space, "values": [repr(float(v)) for v in x.values]}


def step_from_json(data: dict) -> StepFunction:
    sp = data["space"]
    kind = sp["kind"]
    bp = [float(b) for b in sp["breakpoints"]]
    if kind == HALF_LINE:
        space = MeasureSpace(kind, bp, t_min=float(sp["t_min"]), t_max=float(sp["t_max"]))
    else:
        space = MeasureSpace(kind, bp)
    return StepFunction(space, [float(v) for v in data["values"]])
