"""The closed-form gauge of a shifted power over L^1.

``OrliczCL(Lp(1), ShiftedPower(a, c, p))`` with p in {1, 2} is evaluated
from sorted prefix sums instead of the Luxemburg bracket search.  These
property tests pin that its value is the gauge: the public modular is
<= 1 there and > 1 just below it, the modular through the base kernel
is > 1 one float below it, and the value sits at or below the search's
bracket end, within 1e-10 of it.  A zero shift is a power atom, so its
space compiles to a Lebesgue kernel instead, within 1e-15 of the closed
form.  The kernel batches its rows (it is not ``rowwise``), so the
optimizer's golden searches look ahead ``_LOOKAHEAD`` steps per call
over it; how far they look changes no product or multiplier bit.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bfslab.product as product
from bfslab import (
    LInftyWeighted,
    LorentzLambda,
    Lp,
    Marcinkiewicz,
    OrliczCL,
    Power,
    PowerWeight,
    ShiftedPower,
    StepFunction,
    counting,
    half_line,
    modular,
    multiplier_norm,
    norm_evaluator,
    unit_interval,
)
from bfslab.spaces import _luxemburg_value, canonical

GRIDS = [("counting", n) for n in (1, 3, 16, 1024)] + [(kind, n) for kind in ("unit", "half") for n in (4, 16, 257, 1024)]
SHAPES = ("random", "zeros", "ties", "constant", "one_cell", "under_shift", "spread")
PHIS = st.builds(
    ShiftedPower,
    st.sampled_from([0.0, 0.2, 0.4, 1.0, 3.0]),
    st.sampled_from([0.4, 1.0, 2.5]),
    st.sampled_from([1.0, 2.0]),
)


@functools.lru_cache(maxsize=None)
def _grid(kind, n):
    return {"counting": counting, "unit": unit_interval, "half": half_line}[kind](n)


def _row(rng, n, shape, a):
    """A nonzero nonnegative row of the given shape."""
    x = rng.uniform(0.01, 3.0, n)
    if shape == "zeros":
        x[rng.uniform(size=n) < 0.6] = 0.0
        x[rng.integers(n)] = 1.5
    elif shape == "ties":
        x = np.round(x)
        x[0] = 2.0
    elif shape == "constant":
        x[:] = x[0]
    elif shape == "one_cell":
        x[:] = 0.0
        x[rng.integers(n)] = rng.uniform(0.1, 3.0)
    elif shape == "under_shift" and a > 0.0:
        x *= 0.99 * a / x.max()  # every cell below the shift: the gauge is below 1
    elif shape == "spread":
        x = 10.0 ** rng.uniform(-6.0, 3.0, n)
    return x


@settings(max_examples=150, deadline=None)
@given(grid=st.sampled_from(GRIDS), phi=PHIS, shape=st.sampled_from(SHAPES), seed=st.integers(0, 2**32 - 1))
def test_closed_form_is_the_luxemburg_gauge(grid, phi, shape, seed):
    ms = _grid(*grid)
    x = StepFunction(ms, _row(np.random.default_rng(seed), ms.n_cells, shape, phi.a))
    value = _luxemburg_value(norm_evaluator(Lp(1.0), ms).fn, phi, x.values, ms.widths)
    compiled = norm_evaluator(OrliczCL(Lp(1.0), phi), ms)
    if phi.a > 0.0:
        assert compiled.fn(x.values) == value
    else:  # a zero shift is a power atom: the space is a Lebesgue space, whose kernel rounds differently
        assert compiled.fn(x.values) == pytest.approx(value, rel=1e-15)
    assert 0.0 < value < math.inf
    assert modular(Lp(1.0), phi, x.with_values(x.values / value)) <= 1.0
    assert modular(Lp(1.0), phi, x.with_values(x.values / (value * (1.0 - 1e-12)))) > 1.0
    # the least float: one below it, the modular through the base kernel is above 1
    assert norm_evaluator(Lp(1.0), ms).fn(phi(x.values / np.nextafter(value, 0.0))) > 1.0
    searched = _luxemburg_value(norm_evaluator(Lp(1.0), ms).fn, phi, x.values)
    assert value <= searched
    assert searched - value <= 1e-10 * searched


def test_closed_form_kind_notes_and_edge_rows():
    ms = half_line(16)
    base = norm_evaluator(Lp(1.0), ms)
    compiled = norm_evaluator(OrliczCL(Lp(1.0), ShiftedPower(0.4, 1.0, 2.0)), ms)
    assert compiled.kind == "exact"
    assert compiled.notes == base.notes + ("shifted-power gauge in closed form",)
    V = np.zeros((3, 16))
    V[1, 3] = math.inf
    V[2, :4] = 1.0
    got = compiled.fn(V)
    assert got[0] == 0.0 and got[1] == math.inf and 0.0 < got[2] < math.inf
    # 1/c overflows, so the closed-form root is not finite: the row goes to the search
    phi = ShiftedPower(0.4, 1e-310, 1.0)
    got = norm_evaluator(OrliczCL(Lp(1.0), phi), ms).fn(V[2])
    assert got == _luxemburg_value(base.fn, phi, V[2]) > 0.0


@pytest.mark.parametrize(
    "space",
    [
        OrliczCL(Lp(1.0), ShiftedPower(0.4, 1.0, 3.0)),
        OrliczCL(Lp(2.0), ShiftedPower(0.4, 1.0, 2.0)),
        OrliczCL(Lp(1.0, PowerWeight(0.3)), ShiftedPower(0.4, 1.0, 2.0)),
    ],
    ids=["cubic", "l2_base", "weighted_base"],
)
def test_other_shifted_power_gauges_keep_the_search(space):
    compiled = norm_evaluator(space, unit_interval(8))
    assert compiled.kind == "estimate"
    assert any("secant bracket search" in n for n in compiled.notes)


def _run(case):
    """One optimizer run that reaches coordinate descent: (value hex, kind,
    notes, witness value hexes or None)."""
    rng = np.random.default_rng(7)
    square = OrliczCL(Lp(1.0), Power(1.0, 2.0))
    opts = {"max_sweeps": 300, "golden_iters": 10}
    if case == "marc_lambda":
        ms = half_line(16)
        z = np.sort(rng.uniform(0.5, 1.5, 16) * np.maximum(ms.breakpoints[1:], 0.5) ** -0.3)[::-1]
        res, wit = product.product_norm(Marcinkiewicz(PowerWeight(0.3)), LorentzLambda(PowerWeight(0.4)), StepFunction(ms, z))
    elif case == "orlicz_pair":
        # product_norm's optimizer branch: product_norm itself solves this pair's Lagrange conditions
        z = StepFunction(unit_interval(8), np.sort(np.random.default_rng(1).uniform(0.2, 3.0, 8))[::-1])
        E, F = OrliczCL(Lp(1.0), ShiftedPower(0.4, 1.0, 2.0)), canonical(square)
        assert product.product_norm(E, square, z)[1].method == "constructive"
        res, wit = product._bound(E, F, "optimizer", *product._optimize_product(E, F, z, product._merge_opts(opts)))
    else:  # theorem 6's shifted gauge into a weighted sup: the ratio ascent ends at a kink, and polishes
        ms = unit_interval(8)
        m = StepFunction(ms, rng.uniform(0.2, 2.0, ms.n_cells))
        E = OrliczCL(Lp(1.0), ShiftedPower(1.0, 0.4, 2.0))
        res, wit = multiplier_norm(E, LInftyWeighted(PowerWeight(0.5)), m, opts=dict(opts, max_sweeps=4), use_table=False), None
    witness = None if wit is None else [v.hex() for f in (wit.x, wit.y) for v in f.values.tolist()]
    return res.value.hex(), res.kind, res.notes, witness


@pytest.mark.parametrize("case", ["marc_lambda", "orlicz_pair", "theorem6_wsup_multiplier"])
def test_the_look_ahead_depth_moves_no_bit(monkeypatch, case):
    # a golden search probes the same points however far it looks ahead,
    # so one step per call and _LOOKAHEAD steps per call agree to the bit
    descent, depths = product._coordinate_descent, []
    monkeypatch.setattr(product, "_coordinate_descent", lambda *a: depths.append(a[-1]) or descent(*a))
    runs = []
    for depth in (1, 4):
        monkeypatch.setattr(product, "_LOOKAHEAD", depth)
        runs.append(_run(case))
    assert set(depths) == {1, 4}
    assert runs[0] == runs[1]
