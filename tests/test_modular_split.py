"""The modular split of a shifted-power gauge against a Lebesgue space.

For E = the gauge of c (t - a)_+^r over L^1(u) and F = L^q(w), q finite,
the product norm is min |z/x|_q over the modular ball of E: a convex
problem that splits by cell, whose Lagrange conditions
``product._modular_factor`` solves.  Its value is never above the
optimizer's (relative 1e-12 where both factor norms are exact, the
gauge's search tolerance where one is an estimate), its factor has
modular 1, and a pair with a cell mass that is not finite stays on the
optimizer.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfslab import (
    Lp,
    OrliczCL,
    Power,
    PowerWeight,
    ShiftedPower,
    StepFunction,
    counting,
    half_line,
    modular,
    norm,
    product_norm,
    unit_interval,
)
from bfslab import product as P
from bfslab.spaces import _LUX_RTOL, canonical
from bfslab.weights import PowerLogWeight

_GRIDS = {"unit": lambda: unit_interval(10), "half": lambda: half_line(10), "counting": lambda: counting(8)}


def _draw(seed, grid):
    """A gauge over L^1, a Lebesgue partner and a z on ``grid``, some of
    whose cells are dead."""
    rng = np.random.default_rng(seed)
    ms = _GRIDS[grid]()
    r, q = float(rng.choice([1.0, 1.5, 2.0, 3.0])), float(rng.choice([1.5, 2.0, 3.0]))
    w = (None, PowerWeight(0.3), PowerWeight(-0.3))[rng.integers(3)]
    vals = np.sort(rng.uniform(0.05, 3.0, ms.n_cells))[::-1] * rng.uniform(0.5, 1.5, ms.n_cells)
    if rng.uniform() < 0.5:
        vals[rng.choice(ms.n_cells, size=2, replace=False)] = 0.0
    E = OrliczCL(Lp(1.0), ShiftedPower(rng.uniform(0.05, 1.0), rng.uniform(0.3, 3.0), r))
    return E, Lp(q, w), StepFunction(ms, vals)


def _optimizer(E, F, z):
    """``product_norm``'s optimizer branch.  Its budget is the verify
    suites' fast one but for 40 sweeps: where a gauge runs its search and
    takes forward differences, 300 sweeps took 11 s on a 10-cell
    half-line, and ended 4e-5 above the split."""
    Ec, Fc = canonical(E), canonical(F)
    o = P._merge_opts({"max_sweeps": 40, "golden_iters": 10})
    return P._bound(Ec, Fc, "optimizer", *P._optimize_product(Ec, Fc, z, o))[0]


def _rounding(E, x):
    """How far x's floats may take the modular of E (over unweighted L^1)
    from 1: each cell's slope times a few ulps of x."""
    phi = E.phi
    t = np.maximum(x.values - phi.a, 0.0)
    return float(np.sum(x.space.widths * phi.c * phi.p * t ** (phi.p - 1.0) * (t > 0) * 4.0 * np.spacing(x.values)))


@pytest.mark.parametrize("swap", [False, True], ids=["gauge_first", "lebesgue_first"])
@pytest.mark.parametrize("grid", sorted(_GRIDS))
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_the_split_is_never_above_the_optimizer(grid, swap, seed):
    E, F, z = _draw(seed, grid)
    A, B = (F, E) if swap else (E, F)
    res, wit = product_norm(A, B, z)
    assert wit.method == "constructive"
    assert res.kind == ("upper_bound" if E.phi.p in (1.0, 2.0) else "estimate")
    rtol = 1e-12 if res.kind == "upper_bound" else _LUX_RTOL
    opt = _optimizer(A, B, z)
    assert res.value <= opt.value * (1.0 + rtol), (res.value, opt.value)
    # the witness splits z and recomputes through norm
    supp = z.values > 0
    np.testing.assert_allclose(wit.x.values * wit.y.values, z.values, rtol=1e-12, atol=0.0)
    assert np.all(wit.x.values[~supp] == 0.0) and np.all(wit.y.values[~supp] == 0.0)
    assert math.isclose(norm(A, wit.x).value * norm(B, wit.y).value, res.value, rel_tol=1e-12)


@pytest.mark.parametrize("grid", sorted(_GRIDS))
@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0])
def test_the_factor_has_modular_one(grid, r):
    ms = _GRIDS[grid]()
    vals = np.sort(np.random.default_rng(3).uniform(0.05, 3.0, ms.n_cells))[::-1]
    vals[[1, 4]] = 0.0
    z = StepFunction(ms, vals)
    # a = 0.7 puts the small cells of z at a where r = 1
    E = OrliczCL(Lp(1.0), ShiftedPower(0.7, 0.8, r))
    x = P._modular_factor(E, Lp(2.0, PowerWeight(0.3)), z)
    assert np.all(x[vals > 0] >= 0.7)
    assert np.all(x[vals == 0] == 0.0)
    mod, rounding = modular(E.base, E.phi, z.with_values(x)), _rounding(E, z.with_values(x))
    assert abs(mod - 1.0) <= 1e-12 + rounding, (mod, rounding)


def test_a_gauge_over_a_non_power_weight_takes_the_a_zero_root():
    # the base weight is no power, so canonical keeps the gauge of c t^2 over L^1(u)
    E, F = OrliczCL(Lp(1.0, PowerLogWeight(0.2, 0.5)), Power(1.5, 2.0)), Lp(3.0)
    assert isinstance(canonical(E), OrliczCL)
    z = StepFunction(unit_interval(8), np.sort(np.random.default_rng(4).uniform(0.1, 2.0, 8))[::-1])
    res, wit = product_norm(E, F, z)
    assert (wit.method, res.kind) == ("constructive", "estimate")
    assert res.value <= _optimizer(E, F, z).value * (1.0 + _LUX_RTOL)


def test_a_partner_whose_mass_is_not_finite_falls_back_to_the_optimizer():
    # w^2 = t^-1.2 is not integrable on the cell at 0
    E, F = OrliczCL(Lp(1.0), ShiftedPower(0.4, 1.0, 2.0)), Lp(2.0, PowerWeight(-0.6))
    vals = np.linspace(2.0, 0.5, 8)
    z = StepFunction(unit_interval(8), vals)
    assert P._modular_factor(E, F, z) is None
    assert product_norm(E, F, z)[1].method == "optimizer"
    # only the masses on supp z count: with that cell dead the split applies
    dead = StepFunction(unit_interval(8), np.r_[0.0, vals[1:]])
    res, wit = product_norm(E, F, dead)
    assert (wit.method, res.kind) == ("constructive", "upper_bound")
    assert res.value <= _optimizer(E, F, dead).value * (1.0 + 1e-12)
