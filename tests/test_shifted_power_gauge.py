"""The closed gauge pass over L^1 for Young functions built from power atoms.

``OrliczCL(Lp(1), phi)``, for phi built by ``YoungSum``, ``YoungMax`` and
``Capped`` from ``Power`` atoms and ``ShiftedPower`` atoms with p in
{1, 2}, is evaluated from the moments of the row between the kinks of
phi instead of the Luxemburg bracket search, and every row is then
certified to the least float.  These property tests pin that its value
is the gauge: the modular through the base kernel is <= 1 there and > 1
one float below it, the public modular agrees, batches give each row's
value bit for bit, and the value sits at or below the search's bracket
end, within 1e-10 of it.  A zero shift is a power atom, so its space
compiles to a Lebesgue kernel instead, within 1e-15 of the closed pass.
The shifted-power kernel batches its rows (it is not ``rowwise``), so
the optimizer's golden searches look ahead ``_LOOKAHEAD`` steps per call
over it; how far they look changes no product or multiplier bit.
"""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bfslab.product as product
from bfslab import (
    Capped,
    LInftyWeighted,
    LorentzLambda,
    Lp,
    Marcinkiewicz,
    OrliczCL,
    Power,
    PowerWeight,
    ShiftedPower,
    StepFunction,
    YoungMax,
    YoungSum,
    counting,
    half_line,
    modular,
    multiplier_norm,
    norm_evaluator,
    oplus,
    unit_interval,
)
from bfslab.spaces import _least_float, _luxemburg_value, canonical
from bfslab.young import _power_pieces

GRIDS = [("counting", n) for n in (1, 3, 16, 1024)] + [(kind, n) for kind in ("unit", "half") for n in (4, 16, 257, 1024)]
SHAPES = ("random", "zeros", "ties", "constant", "one_cell", "under_shift", "spread", "one_peak")
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
    elif shape == "one_peak":
        x *= 1e-3  # one cell far above the rest: a cap binds there
        x[rng.integers(n)] = 3.0
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
    assert compiled.notes == base.notes + ("power-piece gauge in closed form",)
    V = np.zeros((3, 16))
    V[1, 3] = math.inf
    V[2, :4] = 1.0
    got = compiled.fn(V)
    assert got[0] == 0.0 and got[1] == math.inf and 0.0 < got[2] < math.inf
    # 1/c overflows, so the closed-form root is not finite: the row goes to
    # the search, and its bracket end is certified down to the least float
    phi = ShiftedPower(0.4, 1e-310, 1.0)
    got = norm_evaluator(OrliczCL(Lp(1.0), phi), ms).fn(V[2])
    _least_float_checks(base.fn, phi, V[2], got)
    assert got <= _luxemburg_value(base.fn, phi, V[2]) <= got * (1.0 + 1e-10)


@pytest.mark.parametrize(
    "space",
    [
        OrliczCL(Lp(1.0), ShiftedPower(0.4, 1.0, 3.0)),
        OrliczCL(Lp(2.0), ShiftedPower(0.4, 1.0, 2.0)),
        OrliczCL(Lp(1.0, PowerWeight(0.3)), ShiftedPower(0.4, 1.0, 2.0)),
        OrliczCL(Lp(1.0), oplus(ShiftedPower(0.3, 1.0, 2.0), Power(1.0, 2.0))),
    ],
    ids=["cubic", "l2_base", "weighted_base", "numeric_oplus"],
)
def test_other_shifted_power_gauges_keep_the_search(space):
    compiled = norm_evaluator(space, unit_interval(8))
    assert compiled.kind == "estimate"
    assert any("secant bracket search" in n for n in compiled.notes)


ATOMS = st.one_of(
    st.builds(Power, st.sampled_from([0.4, 1.0, 2.5]), st.floats(1.0, 4.0)),
    st.builds(ShiftedPower, st.sampled_from([0.2, 0.4, 1.0, 3.0]), st.sampled_from([0.4, 1.0, 2.5]), st.sampled_from([1.0, 2.0])),
)
NODES = st.one_of(
    ATOMS,
    st.lists(ATOMS, min_size=2, max_size=3).map(lambda ts: YoungSum(tuple(ts))),
    st.lists(ATOMS, min_size=2, max_size=3).map(lambda ts: YoungMax(tuple(ts))),
)
# every phi the closed pass covers, one nesting level deep
COVERED = st.one_of(NODES, st.builds(Capped, NODES, st.sampled_from([0.5, 2.0, 50.0])))


def _least_float_checks(base, phi, x, value):
    """The value is the least float where the base kernel's modular is <= 1."""
    assert 0.0 < value < math.inf
    with np.errstate(over="ignore"):  # phi may overflow below the gauge
        assert base(phi._eval(x / value)) <= 1.0
        assert not base(phi._eval(x / np.nextafter(value, 0.0))) <= 1.0


@settings(max_examples=200, deadline=None)
@given(grid=st.sampled_from(GRIDS), phi=COVERED, shape=st.sampled_from(SHAPES), seed=st.integers(0, 2**32 - 1))
def test_closed_pass_is_the_least_float_at_or_below_the_search(grid, phi, shape, seed):
    ms = _grid(*grid)
    base = norm_evaluator(Lp(1.0), ms).fn
    x = _row(np.random.default_rng(seed), ms.n_cells, shape, phi.a_phi)
    value = _luxemburg_value(base, phi, x, ms.widths)
    _least_float_checks(base, phi, x, value)
    searched = _luxemburg_value(base, phi, x)
    assert value <= searched
    assert searched - value <= 1e-10 * searched
    if isinstance(canonical(OrliczCL(Lp(1.0), phi)), OrliczCL):  # a power atom alone is a Lebesgue space
        compiled = norm_evaluator(OrliczCL(Lp(1.0), phi), ms)
        assert compiled.kind == "exact"
        assert compiled.fn(x) == value


@settings(max_examples=60, deadline=None)
@given(grid=st.sampled_from(GRIDS), phi=COVERED, seed=st.integers(0, 2**32 - 1))
def test_closed_pass_batches_match_row_calls_bit_for_bit(grid, phi, seed):
    ms = _grid(*grid)
    base = norm_evaluator(Lp(1.0), ms).fn
    rng = np.random.default_rng(seed)
    V = np.array([_row(rng, ms.n_cells, shape, phi.a_phi) for shape in SHAPES] + [np.zeros(ms.n_cells)])
    V[1, 0] = math.inf
    for W in (V, np.asfortranarray(V[::-1])):
        got = _luxemburg_value(base, phi, W, ms.widths)
        rows = [_luxemburg_value(base, phi, row, ms.widths) for row in W]
        assert np.array_equal(got.view(np.int64), np.array(rows).view(np.int64)), (got, rows)
    assert got[0] == 0.0 and got[-2] == math.inf


def test_a_binding_cap_sets_the_gauge():
    # one cell at 3 among cells at 1e-3: the inner gauge is below 3 / 0.5,
    # so the cap alone sets the gauge, within a float of top / b
    ms = unit_interval(8)
    base = norm_evaluator(Lp(1.0), ms).fn
    x = np.full(8, 1e-3)
    x[2] = 3.0
    for phi in (Capped(Power(1.0, 2.0), 0.5), Capped(YoungMax((ShiftedPower(0.2, 1.0, 2.0), Power(0.4, 3.0))), 0.5)):
        value = norm_evaluator(OrliczCL(Lp(1.0), phi), ms).fn(x)
        _least_float_checks(base, phi, x, value)
        assert _luxemburg_value(base, phi.inner, x, ms.widths) < np.nextafter(6.0, 0.0) <= value <= np.nextafter(6.0, math.inf)


@pytest.mark.parametrize(
    "phi",
    [
        YoungSum((ShiftedPower(1e10, 1.0, 1.0), ShiftedPower(2e10, 3.0, 2.0))),
        YoungMax((ShiftedPower(1e10, 1.0, 2.0), Power(1e-30, 1.5))),
        Capped(ShiftedPower(1e10, 1.0, 1.0), 1e12),
    ],
    ids=["sum", "max", "capped"],
)
def test_closed_pass_edge_rows(phi):
    ms = half_line(16)
    base = norm_evaluator(Lp(1.0), ms).fn
    V = np.zeros((3, 16))
    V[1, 3] = math.inf
    V[2] = np.random.default_rng(3).uniform(0.0, 3.0, 16) * 1e-300  # a subnormal gauge
    got = _luxemburg_value(base, phi, V, ms.widths)
    assert got[0] == 0.0 and got[1] == math.inf
    assert got[2] < 1e-308
    _least_float_checks(base, phi, V[2], got[2])
    assert got[2] <= _luxemburg_value(base, phi, V[2]) <= got[2] * (1.0 + 1e-10)


def test_gauges_next_to_the_largest_float():
    # the ulp probe's first window ends at +inf: the bit patterns past it
    # are NaNs, which would read as failing probes above the passing ones
    big = np.finfo(float).max
    base = norm_evaluator(Lp(1.0), counting(1)).fn
    x = (np.array([[big]]).view(np.int64) - 5).view(np.float64)  # its own gauge under u
    for start in (big, np.nextafter(big, 0.0)):
        assert _least_float(base, Power(1.0, 1.0), x, np.array([start]))[0] == x[0, 0]
    # through the closed pass: a gauge within 2^-40 of the largest float
    ms = counting(4)
    base = norm_evaluator(Lp(1.0), ms).fn
    x = np.full(4, 0.5 * big * (1.0 - 2.0**-40))
    for phi in (Power(1.0, 2.0), YoungSum((Power(1.0, 2.0), Power(1e-300, 3.0))), Capped(Power(1.0, 2.0), 2.0)):
        value = _luxemburg_value(base, phi, x, ms.widths)
        _least_float_checks(base, phi, x, value)
        assert big * (1.0 - 2.0**-39) < value < big


def test_a_crossing_past_the_float_range_is_no_kink():
    # u^3.557 and 0.4 u^3.558 cross near u = 1e460, where no float gets:
    # the kinks are where u^3.228 crosses each of them, at 1 and near 16.1
    phi = Capped(YoungMax((Power(1.0, 3.557053574822861), Power(0.4, 3.5579172811549915), Power(1.0, 3.2282939918604656))), 2.0)
    kinks = _power_pieces(phi).kinks
    assert kinks.size == 2 and abs(kinks[0] - 1.0) < 1e-15 and 16.0 < kinks[1] < 16.2
    ms = unit_interval(4)
    x = _row(np.random.default_rng(1572125779), 4, "one_peak", phi.a_phi)
    base = norm_evaluator(Lp(1.0), ms).fn
    _least_float_checks(base, phi, x, _luxemburg_value(base, phi, x, ms.widths))


def test_a_root_that_is_not_finite_goes_to_the_search():
    # 1/c overflows, so the piece's root is not finite: the row goes to the
    # search, and its bracket end is certified down to the least float
    ms = half_line(16)
    base = norm_evaluator(Lp(1.0), ms).fn
    x = np.zeros(16)
    x[:4] = 1.0
    for phi in (YoungSum((ShiftedPower(0.4, 1e-310, 1.0), Power(1e-310, 2.0))), YoungMax((Power(1e-310, 1.0), Power(1e-310, 3.0)))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _luxemburg_value(base, phi, x, ms.widths)
        _least_float_checks(base, phi, x, got)
        assert got <= _luxemburg_value(base, phi, x) <= got * (1.0 + 1e-10)


def _run(case):
    """One optimizer run that reaches coordinate descent: (value hex, kind,
    notes, witness value hexes or None)."""
    rng = np.random.default_rng(7)
    square = OrliczCL(Lp(1.0), Power(1.0, 2.0))
    opts = {"max_sweeps": 300, "golden_iters": 10}
    if case == "marc_lambda":
        ms = half_line(16)
        z = StepFunction(ms, np.sort(rng.uniform(0.5, 1.5, 16) * np.maximum(ms.breakpoints[1:], 0.5) ** -0.3)[::-1])
        # product_norm's optimizer branch: product_norm itself takes the pooled split on this pair
        E, F = Marcinkiewicz(PowerWeight(0.3)), LorentzLambda(PowerWeight(0.4))
        assert product.product_norm(E, F, z)[1].method == "constructive"
        res, wit = product._bound(E, F, "optimizer", *product._optimize_product(E, F, z, product._merge_opts(None)))
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
