import json

import numpy as np
import pytest

from bfslab.grid import (
    StepFunction,
    common_refinement,
    counting,
    default_grid_cells,
    dilate,
    distribution,
    double_star,
    half_line,
    integrate,
    integrate_against,
    rearrange,
    step_from_json,
    step_to_json,
    unit_interval,
)
from bfslab.spaces import Lp, Symmetrization, norm
from bfslab.weights import PowerLogWeight, PowerWeight


def test_unit_interval_shape():
    ms = unit_interval(64)
    assert ms.n_cells == 64
    assert ms.breakpoints[0] == 0.0
    assert ms.breakpoints[-1] == 1.0
    assert np.all(np.diff(ms.breakpoints) > 0)


def test_unit_interval_refines_toward_zero():
    # finer grids must actually reach further down, not just re-slice
    floor_64 = unit_interval(64).breakpoints[1]
    floor_256 = unit_interval(256).breakpoints[1]
    assert floor_256 < floor_64 / 8


def test_include_breakpoint_is_exact():
    tau = 0.3127
    ms = unit_interval(32, include=(tau,))
    assert tau in ms.breakpoints


def test_half_line_truncation():
    ms = half_line(48)
    assert ms.truncation() == (2.0**-20, 2.0**20)
    assert ms.breakpoints[-1] == 2.0**20


def test_counting_widths_are_one():
    ms = counting(9)
    assert np.all(ms.widths == 1.0)
    assert ms.length == 9.0


def test_default_grid_cells_env(monkeypatch):
    monkeypatch.setenv("BFSLAB_GRID_N", "96")
    assert default_grid_cells() == 96
    monkeypatch.setenv("BFSLAB_GRID_N", "bogus")
    assert default_grid_cells() == 64
    monkeypatch.delenv("BFSLAB_GRID_N")
    assert default_grid_cells() == 64


def test_step_rejects_bad_values():
    ms = counting(4)
    with pytest.raises(ValueError):
        StepFunction(ms, [1.0, -2.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        StepFunction(ms, [1.0, np.nan, 0.0, 1.0])
    with pytest.raises(ValueError):
        StepFunction(ms, [1.0, 2.0])


def test_step_call_left_closed_cells():
    ms = counting(3)
    x = StepFunction(ms, [3.0, 2.0, 1.0])
    assert x(0.5) == 3.0
    assert x(1.0) == 2.0  # cells are [a, b)
    assert x(1.5) == 2.0
    assert x(2.999) == 1.0
    assert x(3.0) == 0.0  # zero outside (0, L)
    assert x(99.0) == 0.0


def test_rearrange_is_equimeasurable():
    rng = np.random.default_rng(11)
    for kind in (unit_interval(32), half_line(32), counting(32)):
        for _ in range(20):
            x = StepFunction(kind, rng.uniform(0.0, 5.0, kind.n_cells))
            xs = rearrange(x)
            assert np.all(np.diff(xs.values) <= 1e-15)
            for lam in rng.uniform(0.0, 5.0, 8):
                assert distribution(x, lam) == pytest.approx(distribution(xs, lam), abs=1e-12)


def test_rearrange_counting_is_sorting():
    ms = counting(6)
    x = StepFunction(ms, [1.0, 5.0, 2.0, 0.0, 4.0, 3.0])
    xs = rearrange(x)
    assert np.array_equal(xs.values, [5.0, 4.0, 3.0, 2.0, 1.0, 0.0])


def test_double_star_dominates_rearrangement():
    rng = np.random.default_rng(5)
    ms = unit_interval(24)
    x = StepFunction(ms, rng.uniform(0.0, 2.0, ms.n_cells))
    xs = rearrange(x)
    ts = np.geomspace(1e-5, 0.99, 40)
    dd = double_star(x, ts)
    assert np.all(np.diff(dd) <= 1e-12)
    assert np.all(dd >= xs(ts) - 1e-12)


def test_double_star_of_indicator():
    # x = indicator of measure a: x**(t) = min(1, a/t)
    a = 0.125
    ms = unit_interval(32, include=(a,))
    x = StepFunction(ms, (ms.breakpoints[1:] <= a * (1 + 1e-12)).astype(float))
    for t in (a / 2, a, 2 * a, 0.9):
        assert double_star(x, t) == pytest.approx(min(1.0, a / t), rel=1e-12)


def test_dilate_scales_mass():
    rng = np.random.default_rng(3)
    ms = half_line(40)
    x = StepFunction(ms, rng.uniform(0.0, 1.0, ms.n_cells))
    for s in (0.25, 0.5, 2.0, 4.0):
        y = dilate(x, s)
        # mass scales by s, up to what leaves the truncated window
        assert integrate(y) <= s * integrate(x) * (1 + 1e-12)
        assert y.max() <= x.max() + 1e-15


def test_integrate_against_power_weight():
    ms = unit_interval(16, include=(0.5,))
    x = StepFunction(ms, (ms.breakpoints[1:] <= 0.5 * (1 + 1e-12)).astype(float))
    # ∫_0^{1/2} t^{-1/2} dt = 2 sqrt(1/2)
    got = integrate_against(x, PowerWeight(-0.5))
    assert got == pytest.approx(2.0 * np.sqrt(0.5), rel=1e-12)


def test_common_refinement_preserves_values():
    rng = np.random.default_rng(9)
    a = unit_interval(16)
    b = unit_interval(24, include=(0.3,))
    x = StepFunction(a, rng.uniform(0.0, 2.0, a.n_cells))
    y = StepFunction(b, rng.uniform(0.0, 2.0, b.n_cells))
    xr, yr = common_refinement(x, y)
    assert xr.space == yr.space
    for t in rng.uniform(1e-4, 1.0, 50):
        assert xr(t) == pytest.approx(x(t), rel=1e-14)
        assert yr(t) == pytest.approx(y(t), rel=1e-14)


def test_json_round_trip_is_exact():
    rng = np.random.default_rng(1)
    for ms in (unit_interval(20), half_line(20), counting(20)):
        x = StepFunction(ms, rng.uniform(0.0, 3.0, ms.n_cells))
        back = step_from_json(json.loads(json.dumps(step_to_json(x))))
        assert back.space == x.space
        assert np.array_equal(back.values, x.values)


@pytest.mark.parametrize("n", [128, 256, 512, 1024])
def test_rearrange_ends_at_the_length_on_fine_unit_grids(n):
    # the running width sum can round past 1 before the last cell
    ms = unit_interval(n)
    for seed in range(50):
        x = StepFunction(ms, np.random.default_rng(seed).uniform(0.1, 3.0, n))
        xs = rearrange(x)
        assert xs.space.breakpoints[-1] == ms.length
        assert np.all(np.diff(xs.values) <= 0)
        assert integrate(xs) == pytest.approx(integrate(x), rel=1e-12)


def test_rearrange_fallbacks_work_on_fine_unit_grids():
    ms = unit_interval(256)
    x = StepFunction(ms, np.random.default_rng(0).uniform(0.1, 3.0, 256))
    assert np.isfinite(double_star(x, 0.5))
    star = Symmetrization(Lp(np.inf, PowerLogWeight(0.5, 1)), "star")
    assert np.isfinite(norm(star, x).value)


def test_unit_interval_stops_where_its_floor_would_underflow():
    # the floor 2^(-10 - n // 2) is the least normal float at n = 2025
    ms = unit_interval(2025)
    assert ms.breakpoints[1] == np.finfo(float).tiny and np.all(ms.widths > 0)
    for n in (2026, 2130):
        with pytest.raises(ValueError, match="at most 2025 cells"):
            unit_interval(n)
