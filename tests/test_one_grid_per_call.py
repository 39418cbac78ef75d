"""One-shot operator calls build each grid once, with every value unchanged.

``grid._refine`` and the sample points of ``hardy_identity_residual`` are
built by one array call of ``np.geomspace``, and ``operator_norm`` builds
the dilated grid (D_s) or the refined grid (H, H*) once for all of its
witnesses.  The per-cell loops and the per-witness ``dilate`` calls they
replaced are kept here as oracles, and the new paths must match them bit
for bit.
"""

import math

import numpy as np
import pytest

from bfslab import (
    LorentzLambda,
    LorentzLambdaP,
    Lp,
    Marcinkiewicz,
    MarcinkiewiczStar,
    PowerWeight,
    StepFunction,
    dilate,
    half_line,
    hardy,
    hardy_dual,
    hardy_identity_residual,
    norm,
    operator_norm,
    rearrange,
    unit_interval,
)
from bfslab.grid import _dilated_grid, _refine
from bfslab.operators import _dilation_upper, _p_hint, _step_below, _witness_family
from bfslab.spaces import _doublestar_step, canonical


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


# ---------------------------------------------------------------------------
# the oracles: the per-cell and per-witness code the array paths replaced


def _refine_loop(mspace, interior):
    bp = mspace.breakpoints
    pieces = []
    for a, b in zip(bp[:-1], bp[1:]):
        if a > 0:
            pieces.append(np.geomspace(a, b, interior + 2)[:-1])
        else:
            pieces.append(np.linspace(a, b, interior + 2)[:-1])
    return mspace.with_breakpoints(np.unique(np.concatenate(pieces + [bp[-1:]])))


def _hardy_residual_loop(x, samples=5):
    h, hs = hardy(x), hardy_dual(x)
    bp = x.space.breakpoints
    pts = [bp[1:]]
    for a, b in zip(bp[:-1], bp[1:]):
        lo = a if a > 0 else b / 1024.0
        pts.append(np.geomspace(lo, b, samples + 2)[1:-1])
    ts = np.unique(np.concatenate(pts))
    ts = ts[ts > 0]
    lhs = hs.integral_from_zero(ts) / ts
    rhs = h(ts) + hs(ts)
    finite = np.isfinite(rhs)
    if not finite.any():
        return 0.0
    scale = max(1.0, float(np.max(np.abs(rhs[finite]))))
    return float(np.max(np.abs(lhs[finite] - rhs[finite]))) / scale


def _operator_norm_loop(op, space, s, mspace):
    """The witness loop of ``operator_norm``, one ``dilate`` per witness and
    the refined grid from the per-cell loop; returns (lower, upper, witness)."""
    best, best_name = 0.0, "none"
    fine = _refine_loop(mspace, 4)
    for name, x in _witness_family(mspace, _p_hint(space)):
        nx = norm(space, x).value
        if not (nx > 0 and math.isfinite(nx)):
            continue
        if op == "D_s":
            ny = norm(space, dilate(x, s)).value
        else:
            fn = hardy(x) if op == "H" else hardy_dual(x)
            ny = norm(space, _step_below(fn, fine)).value
        if ny / nx > best:
            best, best_name = ny / nx, name
    if op == "D_s":
        upper = _dilation_upper(space, s)
    else:
        sp = canonical(space)
        plain = isinstance(sp, Lp) and sp.weight is None
        if op == "H":
            upper = (1.0 if math.isinf(sp.p) else sp.p / (sp.p - 1.0)) if plain and sp.p > 1 else None
        else:
            upper = sp.p if plain and math.isfinite(sp.p) else None
    return best, math.inf if upper is None else float(upper), best_name


GRIDS = {
    "unit16": lambda: unit_interval(16),
    "unit33": lambda: unit_interval(32, include=(0.3,)),
    "unit64": lambda: unit_interval(64, include=(0.05, 0.7)),
    "half32": lambda: half_line(32),
    "half33": lambda: half_line(32, include=(3.0,)),
    "half96": lambda: half_line(96),
    "half_narrow": lambda: half_line(7, t_min=0.5, t_max=10.0),
    "half200": lambda: half_line(200, include=(0.1, 7.5)),
}


# ---------------------------------------------------------------------------
# _refine and the doublestar step


@pytest.mark.parametrize("interior", [4, 8])
@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_refine_matches_the_per_cell_loop(grid, interior):
    ms = GRIDS[grid]()
    got, want = _refine(ms, interior), _refine_loop(ms, interior)
    assert got.kind == want.kind and (got.t_min, got.t_max) == (want.t_min, want.t_max)
    assert np.array_equal(_bits(got.breakpoints), _bits(want.breakpoints))
    assert np.array_equal(_bits(got.widths), _bits(want.widths))
    assert got.n_cells == ms.n_cells * (interior + 1)


def test_refine_of_a_one_cell_grid_is_linear():
    ms = half_line(4, t_min=1.0, t_max=2.0).with_breakpoints([0.0, 2.0])
    got = _refine(ms, 4)
    assert np.array_equal(_bits(got.breakpoints), _bits(_refine_loop(ms, 4).breakpoints))
    assert np.array_equal(got.breakpoints, np.linspace(0.0, 2.0, 6))


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_refine_of_rearranged_grids_matches_the_loop(grid):
    # the grids _doublestar_step refines: sorted cell widths laid from 0
    ms = GRIDS[grid]()
    rng = np.random.default_rng(ms.n_cells)
    for _ in range(3):
        x = StepFunction(ms, rng.uniform(0.0, 3.0, ms.n_cells) * (rng.uniform(size=ms.n_cells) < 0.8))
        xs = rearrange(x)
        want = _refine_loop(xs.space, 8)
        assert np.array_equal(_bits(_refine(xs.space, 8).breakpoints), _bits(want.breakpoints))
        assert np.array_equal(_bits(_doublestar_step(x).space.breakpoints), _bits(want.breakpoints))


# ---------------------------------------------------------------------------
# hardy_identity_residual


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_hardy_residual_matches_the_per_cell_sampler(grid):
    ms = GRIDS[grid]()
    rng = np.random.default_rng(7)
    for samples in (5, 1, 3, 0):
        x = StepFunction(ms, rng.uniform(0.0, 2.0, ms.n_cells))
        assert _bits(hardy_identity_residual(x, samples)) == _bits(_hardy_residual_loop(x, samples))


# ---------------------------------------------------------------------------
# operator_norm


SPACES = [
    Lp(2.0),
    Lp(1.5),
    Lp(3.0, PowerWeight(0.2)),
    LorentzLambda(PowerWeight(0.5)),
    LorentzLambdaP(PowerWeight(0.5), 2.0),
    Marcinkiewicz(PowerWeight(0.4)),
    MarcinkiewiczStar(PowerWeight(0.3)),
]


@pytest.mark.parametrize("grid", ["unit33", "half33", "half_narrow", "half96"])
@pytest.mark.parametrize("space", SPACES, ids=repr)
def test_operator_norm_matches_the_per_witness_loop(space, grid):
    ms = GRIDS[grid]()
    for op, s in (("H", 2.0), ("H*", 2.0), ("D_s", 2.0), ("D_s", 0.5), ("D_s", 1.0 / 3.0), ("D_s", 256.0)):
        got = operator_norm(op, space, s=s, mspace=ms)
        lower, upper, witness = _operator_norm_loop(op, space, s, ms)
        assert (_bits(got.lower), _bits(got.upper), got.witness) == (_bits(lower), _bits(upper), witness), (op, s)


def test_operator_norm_on_the_default_grid_matches_the_loop():
    for op in ("H", "H*", "D_s"):
        got = operator_norm(op, Lp(2.0))
        lower, upper, witness = _operator_norm_loop(op, Lp(2.0), 2.0, half_line(96))
        assert (_bits(got.lower), _bits(got.upper), got.witness) == (_bits(lower), _bits(upper), witness)


@pytest.mark.parametrize("grid", ["unit33", "half33", "half_narrow"])
def test_dilate_and_operator_norm_share_the_dilated_grid(grid):
    ms = GRIDS[grid]()
    x = StepFunction(ms, np.random.default_rng(2).uniform(0.0, 1.0, ms.n_cells))
    for s in (0.3, 2.0, 5.0):
        space, src = _dilated_grid(ms, s)
        y = dilate(x, s)
        assert y.space == space and np.array_equal(_bits(y.values), _bits(x(src)))


@pytest.mark.parametrize("space", [MarcinkiewiczStar(PowerWeight(-0.5)), Lp(2.0)], ids=repr)
@pytest.mark.parametrize("s", [-1.0, 0.0, math.nan, math.inf, -math.inf])
def test_operator_norm_rejects_a_bad_dilation_factor_at_entry(space, s):
    # every witness of M*_{t^-0.5} has norm +inf, so no dilate call was left
    # to reject s: it raised TypeError (s = -1), ZeroDivisionError (s = 0) or
    # returned upper = nan (s = nan)
    with pytest.raises(ValueError, match="dilation factor"):
        operator_norm("D_s", space, s=s, mspace=half_line(32))
    with pytest.raises(ValueError, match="dilation factor"):
        dilate(StepFunction(half_line(32), np.ones(32)), s)


def test_averaging_operators_ignore_the_dilation_factor():
    for op in ("H", "H*"):
        assert operator_norm(op, Lp(2.0), s=-1.0, mspace=half_line(32)) == operator_norm(op, Lp(2.0), mspace=half_line(32))
