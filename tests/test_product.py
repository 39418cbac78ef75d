"""Tests for the factorization engine: product norms, witnesses,
multiplier norms, duality cross-checks and constructive splittings.

Closed-form table entries are checked against exponent arithmetic done
by hand; optimizer results are checked against the floors and targets
that their certificates guarantee.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfslab import (
    Calderon,
    Convexification,
    FactorizationWitness,
    LInftyWeighted,
    LorentzLambda,
    LorentzLambdaP,
    Lp,
    Marcinkiewicz,
    MarcinkiewiczStar,
    Multiplier,
    Power,
    PowerWeight,
    Product,
    StepFunction,
    calderon_norm,
    counting,
    dual_descriptor,
    dual_norm_numeric,
    equalize_norms,
    half_line,
    lozanovskii_factorize,
    multiplier_norm,
    norm,
    norm_evaluator,
    orlicz_factor_witness,
    product_norm,
    unit_interval,
    witness_from_json,
    witness_to_json,
)
from bfslab import product as P
from bfslab.weights import PowerLogWeight

_FAST = {"max_sweeps": 300, "quick_sweeps": 25, "golden_iters": 10}


def _random_step(rng, mspace, lo=0.1, hi=3.0):
    return StepFunction(mspace, rng.uniform(lo, hi, mspace.n_cells))


# ---------------------------------------------------------------------------
# closed-form product pairs


def test_lp_pair_is_exact_with_power_witness():
    rng = np.random.default_rng(41)
    ms = unit_interval(32)
    for _ in range(5):
        z = _random_step(rng, ms)
        res, wit = product_norm(Lp(3.0), Lp(6.0), z)
        want = norm(Lp(2.0), z).value
        assert res.kind == "exact"
        assert math.isclose(res.value, want, rel_tol=1e-12)
        assert wit.method == "closed_form"
        assert wit.equalized
        assert math.isclose(wit.norm_x, wit.norm_y, rel_tol=1e-12)
        assert math.isclose(wit.product, want, rel_tol=1e-10)
        assert np.allclose(wit.x.values * wit.y.values, z.values, rtol=1e-12)


def test_lp_pair_below_one_lands_in_the_concavified_space():
    rng = np.random.default_rng(42)
    ms = unit_interval(16)
    z = _random_step(rng, ms)
    res, wit = product_norm(Lp(1.0), Lp(1.0), z)
    want = float(np.sum(np.sqrt(z.values) * ms.widths)) ** 2
    assert math.isclose(res.value, want, rel_tol=1e-12)
    assert np.allclose(wit.x.values * wit.y.values, z.values, rtol=1e-12)


@pytest.mark.parametrize("grid", ["unit", "half"])
@pytest.mark.parametrize(
    "E, F",
    [(Lp(1.0, PowerWeight(0.5)), Lp(1.5, PowerWeight(0.2))), (Lp(1.0, PowerWeight(0.3, 2.0)), Lp(1.0, PowerWeight(-0.1)))],
    ids=["r0.6", "r0.5"],
)
def test_weighted_lp_pair_below_one_is_the_norm_of_zw(grid, E, F):
    # |z|_{E ⊙ F} = |z w|_r with w = w_E w_F: per cell ∫ (z_i c t^a)^r dt
    ms = unit_interval(16) if grid == "unit" else half_line(16)
    z = StepFunction(ms, np.random.default_rng(0).uniform(0.1, 2.0, 16))
    r = 1.0 / (1.0 / E.p + 1.0 / F.p)
    a = E.weight.alpha + F.weight.alpha
    c = E.weight.coef * F.weight.coef
    lo, hi = ms.breakpoints[:-1], ms.breakpoints[1:]
    cells = (z.values * c) ** r * (hi ** (a * r + 1.0) - lo ** (a * r + 1.0)) / (a * r + 1.0)
    want = float(np.sum(cells)) ** (1.0 / r)
    res, wit = product_norm(E, F, z)
    assert res.kind == "exact"
    assert math.isclose(res.value, want, rel_tol=1e-12)
    assert res.value <= wit.product


def test_weighted_lp_pair_with_cancelling_weights():
    rng = np.random.default_rng(43)
    ms = unit_interval(16)
    z = _random_step(rng, ms)
    E = Lp(2.0, PowerWeight(0.3))
    F = Lp(2.0, PowerWeight(-0.3))
    res, wit = product_norm(E, F, z)
    want = norm(Lp(1.0), z).value
    assert math.isclose(res.value, want, rel_tol=1e-12)
    # The step witness is optimal among cell-constant factors only, so
    # it may sit slightly above the continuum value.
    assert wit.product >= want * (1 - 1e-12)
    assert wit.product <= want * 1.05
    assert any("cell-constant" in n for n in wit.notes)
    assert np.allclose(wit.x.values * wit.y.values, z.values, rtol=1e-12)


def test_linfty_factor_is_neutral():
    rng = np.random.default_rng(44)
    z = _random_step(rng, counting(8))
    res, wit = product_norm(Lp(math.inf), Lp(2.0), z)
    assert math.isclose(res.value, norm(Lp(2.0), z).value, rel_tol=1e-12)
    assert np.allclose(wit.x.values * wit.y.values, z.values, rtol=1e-12)


@pytest.mark.parametrize(
    "E, F, sup_side",
    [
        (Lp(math.inf), Lp(2.0, PowerWeight(0.3)), "x"),
        (Lp(math.inf, PowerWeight(0.3)), Lp(math.inf), "y"),
        (Lp(math.inf), Lp(2.0, PowerWeight(-0.5)), "x"),
    ],
    ids=["sup-left", "sup-right", "sup-left-infinite"],
)
def test_plain_linfty_with_a_weighted_lebesgue_factor_is_closed(E, F, sup_side):
    # L^inf ⊙ F = F with the split x = 1 on supp z, y = z (and its mirror);
    # a weighted Lebesgue partner does not turn it into a cell-mass balance
    z = _random_step(np.random.default_rng(47), unit_interval(12))
    res, wit = product_norm(E, F, z)
    other = F if sup_side == "x" else E
    assert (res.value, res.kind, wit.method) == (norm(other, z).value, "exact", "closed_form")
    if math.isfinite(res.value):
        flat = getattr(wit, sup_side).values
        assert np.allclose(flat, flat[0], rtol=1e-12, atol=0.0)
        assert not any("cell-constant" in n for n in res.notes)


@pytest.mark.parametrize(
    "E, F",
    [
        (Lp(math.inf, PowerWeight(0.3)), Lp(2.0)),
        (Lp(2.0), Lp(math.inf, PowerWeight(0.3))),
        (Lp(math.inf, PowerWeight(0.3)), Lp(3.0, PowerWeight(0.2))),
    ],
    ids=["sup-left", "sup-right", "sup-left-weighted-partner"],
)
def test_weighted_linfty_pair_reports_the_rewrite(E, F):
    # L^inf(u) ⊙ L^q(v) = L^q(uv); the sup side's factor is 1/cell_sup(u)
    z = StepFunction(unit_interval(12), np.random.default_rng(4).uniform(0.2, 2.0, 12))
    res, wit = product_norm(E, F, z)
    assert (res.value, res.kind, wit.method) == (norm(Product(E, F), z).value, "exact", "closed_form")
    assert np.allclose(wit.x.values * wit.y.values, z.values, rtol=1e-12, atol=0.0)
    assert res.value <= wit.product * (1 + 1e-12)
    assert any("cell-constant" in n for n in res.notes)


def test_product_whose_every_start_is_infinite():
    # t^-1 is not integrable on the first cell, so every x has |x|_E = inf
    z = StepFunction(unit_interval(12), np.random.default_rng(4).uniform(0.2, 2.0, 12))
    res, wit = product_norm(Lp(2.0, PowerWeight(-0.5)), LorentzLambda(PowerWeight(0.5)), z, opts=_FAST)
    assert (res.value, res.kind, wit.method) == (math.inf, "estimate", "optimizer")
    assert res.notes == ("every factorization tried has an infinite norm",)
    assert np.allclose(wit.x.values * wit.y.values, z.values, rtol=1e-12, atol=0.0)


def test_common_base_convexifications_recombine():
    rng = np.random.default_rng(45)
    ms = unit_interval(16)
    z = _random_step(rng, ms)
    base = Marcinkiewicz(PowerWeight(0.3))
    res, wit = product_norm(Convexification(base, 3.0), Convexification(base, 1.5), z)
    want = norm(base, z).value  # 1/3 + 1/1.5 = 1
    assert math.isclose(res.value, want, rel_tol=1e-10)
    assert wit.method == "closed_form"
    assert np.allclose(wit.x.values * wit.y.values, z.values, rtol=1e-12)
    # Lp(1.5) ⊙ Lp(1.5)^(1/2) = Lp(1.5)^(1/3): x = z^((1/3) / 1), not z^((1/3) / 1.5)
    res, wit = product_norm(Lp(1.5), Convexification(Lp(1.5), 0.5), z)
    assert res.kind == "exact" and wit.method == "closed_form"
    scale = wit.x.values / z.values ** (1.0 / 3.0)  # equalize_norms rescales x
    assert np.allclose(scale, scale[0], rtol=1e-12, atol=0.0)
    # equal weighted factors with no cell-mass balance (t^-1 is not integrable
    # on the first cell) still split evenly
    E = Lp(2.0, PowerWeight(-0.5))
    res, wit = product_norm(E, E, z)
    assert (res.value, res.kind, wit.method) == (math.inf, "exact", "closed_form")
    assert np.allclose(wit.x.values, wit.y.values, rtol=1e-12, atol=0.0)
    # a non-power weight is a common base, not a Lebesgue pair: the even split, no balance
    E = Lp(2.0, PowerLogWeight(0.3, 1.0))
    res, wit = product_norm(E, E, z)
    assert wit.method == "closed_form"
    assert np.allclose(wit.x.values, wit.y.values, rtol=1e-12, atol=0.0)
    assert not any("cell-constant" in n for n in res.notes)


def test_supform_pair_constructive_band():
    rng = np.random.default_rng(46)
    ms = unit_interval(24)
    E = MarcinkiewiczStar(PowerWeight(0.5))
    F = MarcinkiewiczStar(PowerWeight(0.3))
    for _ in range(5):
        z = _random_step(rng, ms)
        res, wit = product_norm(E, F, z)
        order = np.argsort(-z.values, kind="stable")
        cum = np.cumsum(ms.widths[order])
        big = float(np.max(z.values[order] * cum**0.8))
        assert wit.method == "constructive"
        assert res.kind == "upper_bound"
        assert wit.product >= big * 0.5 - 1e-9
        assert wit.product <= big * (1 + 1e-9)
        assert np.allclose(wit.x.values * wit.y.values, z.values, rtol=1e-12)


# a partner of M*_psi takes the cell-order split z = (z psi(T)) (1/psi(T)),
# whose M* factor has norm 1, descending from the comonotone order of z
SPLIT_PARTNERS = {
    "L1": Lp(1.0),
    "L2": Lp(2.0),
    "lambda_0.5": LorentzLambda(PowerWeight(0.5)),
    "lambda_1": LorentzLambda(PowerWeight(1.0)),
    "lambda_0.5_1": LorentzLambdaP(PowerWeight(0.5), 1.0),
    "lambda_0.3_2": LorentzLambdaP(PowerWeight(0.3), 2.0),
    "marc_0.3": Marcinkiewicz(PowerWeight(0.3)),
}


def _split_input(grid):
    """counting(12) with random z and ~15 % zeros; decreasing z on the geometric grids."""
    rng = np.random.default_rng(5)
    vals = rng.uniform(0.1, 2.0, 12)
    if grid == "counting":
        vals[rng.uniform(size=12) < 0.15] = 0.0
        return StepFunction(counting(12), vals)
    return StepFunction(unit_interval(12) if grid == "unit" else half_line(12), np.sort(vals)[::-1])


def _running_sup(psi, T):
    """sup of psi over (0, T]: the running max of psi's cell sups up to T,
    psi(T) for psi = c t^a, a >= 0."""
    return psi.cell_sup(np.zeros_like(T), T)


def _split_value(S, M, z):
    """|z L|_S: the value of the comonotone split of z in S ⊙ M*_psi, L the
    running sup of psi at T, the measure up to each cell in a stable
    decreasing sort of z."""
    order = np.argsort(-z.values, kind="stable")
    L = np.empty(z.space.n_cells)
    L[order] = _running_sup(M.phi, np.cumsum(z.space.widths[order]))
    return norm(S, z.with_values(z.values * L)).value


def _best_cell_order(S, psi, z):
    """min over cell orders s of |z L^s|_S, L^s the running sup of psi at
    T^s: the product norm of z in S ⊙ M*_psi by brute force (for a fixed
    decreasing order of y the largest y is 1/L^s, and S is a lattice norm)."""
    perms = np.array(list(itertools.permutations(range(z.space.n_cells))))
    X = np.empty(perms.shape)
    np.put_along_axis(X, perms, z.values[perms] * _running_sup(psi, np.cumsum(z.space.widths[perms], axis=1)), axis=1)
    return float(norm_evaluator(S, z.space).fn(X).min())


@pytest.mark.parametrize("grid", ["counting", "unit", "half"])
@pytest.mark.parametrize("mstar_first", [False, True])
@pytest.mark.parametrize("partner", sorted(SPLIT_PARTNERS))
def test_optimizer_is_never_above_its_comonotone_seed(partner, mstar_first, grid):
    # the cell-order descent starts at the comonotone split and only goes down
    S, M = SPLIT_PARTNERS[partner], MarcinkiewiczStar(PowerWeight(0.3))
    E, F = (M, S) if mstar_first else (S, M)
    z = _split_input(grid)
    res, wit = product_norm(E, F, z)
    assert wit.method == "constructive" and res.kind == "upper_bound"
    assert np.allclose(wit.x.values * wit.y.values, z.values, rtol=1e-12, atol=0.0)
    assert res.value <= _split_value(S, M, z) * (1.0 + 1e-12)


@pytest.mark.parametrize("grid", [counting(6), unit_interval(6), half_line(6)])
@pytest.mark.parametrize("partner", sorted(SPLIT_PARTNERS))
def test_optimizer_attains_the_best_cell_order_where_its_seed_is_optimal(partner, grid):
    # the split is the product norm on equal-width cells (Lidskii), and for
    # Lp with alpha p <= 1 on decreasing z over widths that do not fall
    S, M = SPLIT_PARTNERS[partner], MarcinkiewiczStar(PowerWeight(0.5))
    z = StepFunction(grid, np.sort(np.random.default_rng(8).uniform(0.1, 2.0, 6))[::-1])
    best, value = _best_cell_order(S, M.phi, z), product_norm(S, M, z)[0].value
    assert best * (1.0 - 1e-12) <= value <= _split_value(S, M, z) * (1.0 + 1e-12)
    if np.all(grid.widths == grid.widths[0]) or isinstance(S, Lp):
        assert np.all(np.diff(grid.widths) >= 0.0)
        assert math.isclose(value, best, rel_tol=1e-12)


def test_comonotone_split_is_not_the_product_norm_on_geometric_cells():
    # Lambda_{t^0.3, 2} x M*_{t^0.5} on unit_interval(6) with z = 1: another
    # cell order beats the comonotone one by 0.47 %, and the descent reaches it
    S, M = LorentzLambdaP(PowerWeight(0.3), 2.0), MarcinkiewiczStar(PowerWeight(0.5))
    z = StepFunction(unit_interval(6), np.ones(6))
    best = _best_cell_order(S, M.phi, z)
    assert best < _split_value(S, M, z) * (1.0 - 4e-3)
    assert math.isclose(best, 1.273149, rel_tol=1e-6)
    assert math.isclose(product_norm(S, M, z)[0].value, best, rel_tol=1e-12)


def test_sup_marcinkiewicz_pair_runs_no_optimizer(monkeypatch):
    def no_optimizer(*args):
        raise AssertionError("a sup-type factor takes the cell-order split: the optimizer must not run")

    monkeypatch.setattr(P, "_optimize_product", no_optimizer)
    z = _split_input("counting")
    M = MarcinkiewiczStar(PowerWeight(0.3))
    pairs = [
        (M, MarcinkiewiczStar(PowerWeight(0.0))),
        (M, LorentzLambda(PowerWeight(0.5))),
        (M, Marcinkiewicz(PowerWeight(0.4))),
        (LInftyWeighted(PowerWeight(0.4)), Lp(2.0)),
        (Lp(math.inf, PowerWeight(0.4)), LorentzLambdaP(PowerWeight(0.5), 1.0)),
        (LInftyWeighted(PowerWeight(0.4)), M),
    ]
    for sup, partner in pairs:
        for E, F in ((sup, partner), (partner, sup)):
            res, wit = product_norm(E, F, z)
            assert (wit.method, res.kind) == ("constructive", "upper_bound"), (E, F)
            assert math.isclose(norm(E, wit.x).value, norm(F, wit.y).value, rel_tol=1e-12)
            assert np.allclose(wit.x.values * wit.y.values, z.values, rtol=1e-12, atol=0.0)


def test_a_weighted_sup_factor_takes_its_cell_sups():
    # y = 1 / cell_sup(w) is the largest y of norm 1, so |z cell_sup(w)|_F is
    # the product norm on the grid, below what the optimizer reaches
    z = _random_step(np.random.default_rng(9), unit_interval(12))
    W, F = LInftyWeighted(PowerWeight(0.4)), LorentzLambda(PowerWeight(0.5))
    sups = z.space.breakpoints[1:] ** 0.4
    res, wit = product_norm(F, W, z)
    assert math.isclose(res.value, norm(F, z.with_values(z.values * sups)).value, rel_tol=1e-12)
    assert res.value <= P._bound(F, W, "optimizer", *P._optimize_product(F, W, z, P._merge_opts(_FAST)))[0].value


def test_the_cell_order_descent_takes_disjoint_swaps_together(monkeypatch):
    # constant z on half_line(256): steepest descent by single swaps takes
    # thousands of passes; taking disjoint improving swaps at once, few
    n = 256
    ms = half_line(n)
    S, M = LorentzLambdaP(PowerWeight(0.3), 2.0), MarcinkiewiczStar(PowerWeight(0.9))
    z = StepFunction(ms, np.ones(n))
    compiled, calls = P._norm_fn(S, ms), []
    monkeypatch.setattr(compiled, "fn", lambda values, fn=compiled.fn: calls.append(len(values)) or fn(values))
    res, wit = product_norm(S, M, z)
    assert wit.method == "constructive" and res.kind == "upper_bound"
    assert 0 < len(calls) <= 4 * n
    assert res.value <= _split_value(S, M, z) * (1.0 + 1e-12)


_SMALL_GRIDS = {"counting": counting, "unit": unit_interval, "half": half_line}
# M* over weights that are not powers, nor monotone (0.5, 1 peaks at 1/e), and their partners
_GENERIC_PSIS = {"rising": PowerLogWeight(0.3, 0.5), "peak": PowerLogWeight(0.5, 1.0), "log_falling": PowerLogWeight(0.2, -0.5)}
_GENERIC_PARTNERS = {"lambda_0.5": LorentzLambda(PowerWeight(0.5)), "L2": Lp(2.0), "marc_0.4": Marcinkiewicz(PowerWeight(0.4))}


@settings(max_examples=60, deadline=None)
@given(
    grid=st.sampled_from(sorted(_SMALL_GRIDS)),
    n=st.integers(4, 7),
    partner=st.sampled_from(sorted(SPLIT_PARTNERS)),
    psi=st.sampled_from([PowerWeight(a) for a in (0.1, 0.3, 0.5, 0.7)] + sorted(_GENERIC_PSIS.values(), key=repr)),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_cell_order_split_is_a_local_minimum_between_brute_force_and_the_comonotone_split(
    grid, n, partner, psi, seed
):
    # adjacent swaps can stall above the best order (6 of 252 such cases by
    # up to 7.8e-5, where one cell's insertion reaches it): local only; for
    # any weight, the levels are the running sup of psi
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.1, 2.0, n)
    if seed % 3 == 1:
        vals = np.sort(vals)[::-1]
    elif seed % 3 == 2:
        vals[:] = 1.0
    z = StepFunction(_SMALL_GRIDS[grid](n), vals)
    S, M = SPLIT_PARTNERS[partner], MarcinkiewiczStar(psi)
    res, wit = product_norm(S, M, z)
    assert wit.method == "constructive"
    assert _best_cell_order(S, M.phi, z) * (1.0 - 1e-12) <= res.value <= _split_value(S, M, z) * (1.0 + 1e-12)


@pytest.mark.parametrize("grid", sorted(_SMALL_GRIDS))
@pytest.mark.parametrize("partner", sorted(_GENERIC_PARTNERS))
@pytest.mark.parametrize("psi", sorted(_GENERIC_PSIS))
def test_a_non_power_mstar_split_reaches_the_best_cell_order(psi, partner, grid):
    # y = 1/L^s, L^s the running sup of psi, is the largest y of norm 1 in
    # the cell order s, for any psi: on these 6-cell cases the descent ends
    # at the best of all 720 orders, and M* over PowerLogWeight is exact
    S, M = _GENERIC_PARTNERS[partner], MarcinkiewiczStar(_GENERIC_PSIS[psi])
    ms, k = _SMALL_GRIDS[grid](6), np.arange(6)
    for vals in (np.exp(-0.25 * k) * (1.0 + 0.5 * np.sin(k)), np.ones(6), np.random.default_rng(6).uniform(0.1, 2.0, 6)):
        z = StepFunction(ms, vals)
        res, wit = product_norm(S, M, z)
        assert (wit.method, res.kind) == ("constructive", "upper_bound")
        assert np.allclose(wit.x.values * wit.y.values, z.values, rtol=1e-12, atol=0.0)
        best = _best_cell_order(S, M.phi, z)
        assert best * (1.0 - 1e-12) <= res.value <= best * (1.0 + 1e-9), (res.value, best)


def test_optimizer_products_are_estimates_when_a_factor_norm_is():
    # the weights are not pure powers, so both factor kernels use quadrature
    z = StepFunction(unit_interval(12), np.random.default_rng(0).uniform(0.5, 2.0, 12))
    E, F = Lp(2.0, PowerLogWeight(0.5, 1.0)), LorentzLambda(PowerLogWeight(0.5, 1.0))
    res, wit = product_norm(E, F, z)
    assert wit.method == "optimizer" and norm(E, wit.x).kind == "estimate"
    assert res.kind == "estimate"
    assert any("factor norm is an estimate" in n for n in res.notes)
    assert not any(n.startswith("certified") for n in res.notes)


def test_power_scaling_identity_through_the_table():
    # Convexifying both factors by p turns the product norm of z into
    # the 1/p-th power of the product norm of z^p.
    rng = np.random.default_rng(47)
    ms = unit_interval(16)
    z = _random_step(rng, ms)
    lhs, _ = product_norm(Convexification(Lp(3.0), 2.0), Convexification(Lp(6.0), 2.0), z)
    rhs, _ = product_norm(Lp(3.0), Lp(6.0), z.with_values(z.values**2))
    assert math.isclose(lhs.value, rhs.value ** 0.5, rel_tol=1e-12)


def test_product_norm_of_zero_input():
    ms = unit_interval(8)
    z = StepFunction(ms, np.zeros(8))
    res, wit = product_norm(Lp(2.0), Lp(2.0), z)
    assert res.value == 0.0 and wit.product == 0.0


@pytest.mark.parametrize(
    "key", ["bogus", "starts", "full_starts", "sweep_rtol", "span", "decreasing_x", "table"]
)
def test_product_norm_rejects_unknown_options(key):
    ms = unit_interval(8)
    z = StepFunction(ms, np.ones(8))
    with pytest.raises(ValueError):
        product_norm(Lp(2.0), Lp(2.0), z, opts={key: 1})


@pytest.mark.parametrize(
    "key, val",
    [
        ("golden_iters", 2.5),
        ("golden_iters", -3),
        ("golden_iters", "10"),
        ("quick_sweeps", -5),
        ("max_sweeps", 2.5),
        ("max_sweeps", True),
        ("target", math.nan),
        ("target", "1.0"),
        ("target", False),
    ],
)
def test_product_norm_rejects_invalid_option_values(key, val):
    z = StepFunction(unit_interval(8), np.ones(8))
    with pytest.raises(ValueError, match=key):
        product_norm(LorentzLambda(PowerWeight(0.5)), MarcinkiewiczStar(PowerWeight(0.3)), z, opts={key: val})


def test_product_norm_accepts_boundary_option_values():
    z = StepFunction(unit_interval(8), np.linspace(2.0, 1.0, 8))
    opts = {"max_sweeps": np.int64(2), "quick_sweeps": 0, "golden_iters": 0, "target": -math.inf}
    E, F = LorentzLambda(PowerWeight(0.5)), Marcinkiewicz(PowerWeight(0.3))
    res, wit = product_norm(E, F, z, opts=opts)
    assert wit.method == "constructive" and math.isfinite(res.value)  # the pooled split
    # the optimizer branch takes them too
    res, wit = P._bound(E, F, "optimizer", *P._optimize_product(E, F, z, P._merge_opts(opts)))
    assert wit.method == "optimizer" and math.isfinite(res.value)


# ---------------------------------------------------------------------------
# optimizer path


def test_optimizer_respects_the_duality_floor():
    # For a space and its exact dual the product norm collapses to the
    # L^1 mass; the optimizer can only approach it from above.
    rng = np.random.default_rng(48)
    ms = counting(16)
    E = LorentzLambda(PowerWeight(0.6))
    F = Marcinkiewicz(PowerWeight(0.4))
    z = StepFunction(ms, np.sort(rng.uniform(0.1, 2.0, 16))[::-1].copy())
    l1 = norm(Lp(1.0), z).value
    # product_norm's optimizer branch: product_norm itself takes the pooled split on this pair
    assert product_norm(E, F, z, opts=dict(_FAST, target=l1 * 1.02))[1].method == "constructive"
    res, wit = P._bound(E, F, "optimizer", *P._optimize_product(E, F, z, P._merge_opts(dict(_FAST, target=l1 * 1.02))))
    assert res.kind in ("upper_bound", "estimate")
    assert wit.method == "optimizer"
    assert wit.product >= l1 * (1 - 1e-9)
    assert wit.product <= l1 * 1.1
    assert np.allclose(wit.x.values * wit.y.values, z.values, rtol=1e-9)
    # The reported value is exactly the witness product.
    assert math.isclose(res.value, wit.product, rel_tol=0.0, abs_tol=0.0)


# ---------------------------------------------------------------------------
# witnesses


def test_equalize_norms_balances_and_preserves():
    ms = unit_interval(8)
    x = StepFunction(ms, np.full(8, 2.0))
    y = StepFunction(ms, np.full(8, 0.5))
    wit = FactorizationWitness(x, y, 2.0, 0.5, 1.0, "optimizer")
    eq = equalize_norms(wit, Lp(1.0), Lp(1.0))
    assert eq.equalized
    assert math.isclose(eq.norm_x, eq.norm_y, rel_tol=1e-15)
    assert math.isclose(eq.norm_x, 1.0, rel_tol=1e-15)
    assert math.isclose(eq.product, wit.product, rel_tol=1e-15)
    assert np.allclose(eq.x.values * eq.y.values, x.values * y.values, rtol=1e-15)


def test_witness_validation():
    ms = unit_interval(4)
    ones = StepFunction(ms, np.ones(4))
    with pytest.raises(ValueError):
        FactorizationWitness(ones, ones, 1.0, 1.0, 1.0, "guess")
    with pytest.raises(ValueError):
        FactorizationWitness(ones, ones, 1.0, 1.0, 2.0, "optimizer")


def test_witness_json_round_trip():
    rng = np.random.default_rng(49)
    ms = unit_interval(16)
    z = _random_step(rng, ms)
    _, wit = product_norm(Lp(3.0), Lp(6.0), z)
    back = witness_from_json(witness_to_json(wit))
    assert np.array_equal(back.x.values, wit.x.values)
    assert np.array_equal(back.y.values, wit.y.values)
    assert back.norm_x == wit.norm_x
    assert back.norm_y == wit.norm_y
    assert back.product == wit.product
    assert back.method == wit.method
    assert back.equalized == wit.equalized
    assert back.notes == wit.notes


# ---------------------------------------------------------------------------
# multiplier norms


def test_multiplier_table_entries():
    rng = np.random.default_rng(50)
    ms = counting(8)
    m = _random_step(rng, ms)
    res = multiplier_norm(Lp(math.inf), Lp(2.0), m)
    assert math.isclose(res.value, norm(Lp(2.0), m).value, rel_tol=1e-12)
    res = multiplier_norm(Lp(3.0), Lp(1.0), m)
    assert math.isclose(res.value, norm(Lp(1.5), m).value, rel_tol=1e-12)
    res = multiplier_norm(Lp(6.0), Lp(1.5), m)
    assert math.isclose(res.value, norm(Lp(2.0), m).value, rel_tol=1e-12)
    res = multiplier_norm(Lp(2.0), Lp(2.0), m)
    assert math.isclose(res.value, float(np.max(m.values)), rel_tol=1e-12)
    res = multiplier_norm(Lp(1.5), Lp(3.0), _random_step(rng, unit_interval(8)))
    assert math.isinf(res.value)
    zero = StepFunction(unit_interval(8), np.zeros(8))
    assert multiplier_norm(Lp(1.5), Lp(3.0), zero).value == 0.0


def test_sequence_multipliers_into_a_larger_exponent_are_bounded():
    # l^p lies in l^q for q > p, so M(l^p, l^q) = l^inf; unit vectors attain max |m|
    m = StepFunction(counting(8), np.random.default_rng(1).uniform(0.2, 2.0, 8))
    res = multiplier_norm(Lp(2.0), Lp(4.0), m)
    assert (res.value, res.kind) == (float(np.max(m.values)), "exact")
    numeric = multiplier_norm(Lp(2.0), Lp(4.0), m, use_table=False, opts=_FAST)
    assert res.value * (1 - 1e-12) <= numeric.value <= res.value * (1 + 1e-12)
    zero = StepFunction(counting(8), np.zeros(8))
    assert multiplier_norm(Lp(2.0), Lp(4.0), zero).value == 0.0


def test_multiplier_numeric_path_matches_the_exponent_rule():
    rng = np.random.default_rng(51)
    ms = counting(8)
    m = _random_step(rng, ms)
    exact = multiplier_norm(Lp(6.0), Lp(1.5), m).value
    numeric = multiplier_norm(Lp(6.0), Lp(1.5), m, use_table=False, opts=_FAST)
    assert numeric.kind == "estimate"
    assert numeric.value <= exact * (1 + 1e-9)
    assert numeric.value >= exact * (1 - 1e-9)


def test_multiplier_witnesses_must_share_the_grid():
    m = StepFunction(counting(8), np.random.default_rng(2).uniform(0.2, 2.0, 8))
    for other in (unit_interval(8), counting(6)):
        with pytest.raises(ValueError, match="grid"):
            multiplier_norm(
                Lp(2.0), Lp(4.0), m, witnesses=[StepFunction(other, np.ones(other.n_cells))], ascent=False, use_table=False
            )


def test_multiplier_of_a_collapsed_product_uses_the_table():
    # Product(L^2, L^4) is L^(4/3), so M(L^(4/3), L^1) is its dual L^4
    m = _random_step(np.random.default_rng(54), counting(8))
    res = multiplier_norm(Product(Lp(2.0), Lp(4.0)), Lp(1.0), m)
    assert res.kind == "exact"
    assert math.isclose(res.value, norm(Lp(4.0), m).value, rel_tol=1e-12)


def test_multiplier_lorentz_identification():
    rng = np.random.default_rng(52)
    ms = unit_interval(16)
    m = _random_step(rng, ms)
    E = LorentzLambda(PowerWeight(0.3))
    F = LorentzLambda(PowerWeight(0.6))
    res = multiplier_norm(E, F, m)
    want = norm(MarcinkiewiczStar(PowerWeight(0.3)), m).value
    assert math.isclose(res.value, want, rel_tol=1e-12)
    assert any("two-sided" in n for n in res.notes)
    swapped = multiplier_norm(F, E, m)
    assert math.isinf(swapped.value)


def test_multiplier_norm_via_variational_dispatch():
    rng = np.random.default_rng(53)
    m = _random_step(rng, counting(8))
    res = norm(Multiplier(Lp(math.inf), Lp(2.0)), m)
    assert math.isclose(res.value, norm(Lp(2.0), m).value, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# numeric duality


def test_dual_norm_numeric_cross_checks_the_table():
    rng = np.random.default_rng(54)
    ms = unit_interval(16)
    y = _random_step(rng, ms)
    res = dual_norm_numeric(Lp(2.0), y, opts=_FAST)
    assert math.isclose(res.value, norm(Lp(2.0), y).value, rel_tol=1e-12)
    assert any("numeric ascent lower bound" in n for n in res.notes)


def test_dual_norm_numeric_sees_a_space_that_is_infinite_on_the_first_cell():
    # w^2 = t^-1.6 is not integrable on the first cell, so every function
    # alive there has norm +inf: the family's member off that cell starts the ascent
    y = StepFunction(unit_interval(8), np.random.default_rng(0).uniform(0.1, 2.0, 8))
    res = dual_norm_numeric(Lp(2.0, PowerWeight(-0.8)), y)
    lower = float(next(n for n in res.notes if n.startswith("numeric ascent lower bound")).split()[4])
    assert 0.0 < lower <= res.value * (1.0 + 1e-12)


def test_dual_norm_numeric_without_table_entry():
    # The ball of the weighted sup space is separable per cell, so the
    # discrete dual norm has the closed form sum of y_i w_i / sup_w(i).
    rng = np.random.default_rng(55)
    ms = unit_interval(12)
    y = _random_step(rng, ms)
    w = PowerLogWeight(0.3, 1.0)
    E = LInftyWeighted(w)
    res = dual_norm_numeric(E, y, opts=_FAST)
    sups = np.array([w.cell_sup(a, b) for a, b in zip(ms.breakpoints[:-1], ms.breakpoints[1:])])
    want = float(np.sum(y.values * ms.widths / sups))
    assert res.kind == "estimate"
    assert res.value <= want * (1 + 1e-9)
    assert res.value >= want * 0.98


def test_weighted_sup_dual_entry_matches_the_lp_spelling():
    w = PowerWeight(0.3)
    assert dual_descriptor(LInftyWeighted(w)) == dual_descriptor(Lp(math.inf, w)) == Lp(1.0, PowerWeight(-0.3))
    m = StepFunction(unit_interval(16), np.random.default_rng(1).uniform(0.1, 2.0, 16))
    sup = multiplier_norm(LInftyWeighted(w), Lp(1.0), m)
    assert (sup.value, sup.kind) == (multiplier_norm(Lp(math.inf, w), Lp(1.0), m).value, "exact")
    assert math.isclose(sup.value, norm(Lp(1.0, PowerWeight(-0.3)), m).value, rel_tol=1e-15)


def test_dual_norm_numeric_requires_primitive_space():
    ms = unit_interval(8)
    y = StepFunction(ms, np.ones(8))
    with pytest.raises(ValueError):
        dual_norm_numeric(Multiplier(Lp(2.0), Lp(2.0)), y)


# ---------------------------------------------------------------------------
# integral-mass factorization


def test_mass_factorization_on_lebesgue_spaces():
    rng = np.random.default_rng(56)
    ms = unit_interval(16)
    z = _random_step(rng, ms)
    wit = lozanovskii_factorize(Lp(1.5), z, eps=0.05)
    l1 = norm(Lp(1.0), z).value
    assert math.isclose(wit.product, l1, rel_tol=1e-12)
    assert "not_within_epsilon" not in wit.notes
    assert np.allclose(wit.x.values * wit.y.values, z.values, rtol=1e-12)


def test_weighted_sup_mass_factorization_reaches_the_step_floor():
    # The unit ball of L∞(t^0.3) on a step grid is a box: |x| = max x_i s_i
    # with s_i = b_i^0.3 the weight's sup over cell i, and the dual norm is
    # |y| = Σ y_i c_i with c_i = ∫_cell t^-0.3.  So the infimum over step
    # factorizations is Σ z_i s_i c_i, above the (1 + ε)·L¹ target: the
    # note not_within_epsilon is the honest answer, not an optimizer stall.
    ms = unit_interval(16)
    z = StepFunction(ms, np.random.default_rng(0).uniform(0.1, 2.0, 16))
    a, b = ms.breakpoints[:-1], ms.breakpoints[1:]
    exact = float(np.sum(z.values * b**0.3 * (b**0.7 - a**0.7) / 0.7))
    assert exact > 1.05 * norm(Lp(1.0), z).value
    wit = lozanovskii_factorize(LInftyWeighted(PowerWeight(0.3)), z, eps=0.05)
    assert exact * (1.0 - 1e-12) <= wit.product <= exact * (1.0 + 1e-3)
    assert "not_within_epsilon" in wit.notes


def test_mass_factorization_edge_cases():
    ms = unit_interval(8)
    zero = StepFunction(ms, np.zeros(8))
    wit = lozanovskii_factorize(Lp(2.0), zero)
    assert wit.product == 0.0
    with pytest.raises(ValueError):
        lozanovskii_factorize(Lp(2.0), zero, eps=0.0)


# ---------------------------------------------------------------------------
# constructive Orlicz splitting


def test_orlicz_splitting_power_branch():
    rng = np.random.default_rng(57)
    ms = unit_interval(16)
    z = _random_step(rng, ms)
    phi = Power(1.0, 2.0)
    phi14 = Power(1.0, 4.0)
    wit = orlicz_factor_witness(Lp(1.0), phi14, phi14, phi, z, D=1.0)
    assert wit.method == "constructive"
    assert np.allclose(wit.x.values * wit.y.values, z.values, rtol=1e-12)
    from bfslab import luxemburg_norm

    big = luxemburg_norm(Lp(1.0), phi, z).value
    bound = math.sqrt(big)
    assert wit.norm_x <= bound + 1e-8 + 1e-6 * bound
    assert wit.norm_y <= bound + 1e-8 + 1e-6 * bound


def test_orlicz_splitting_derives_the_constant_when_omitted():
    rng = np.random.default_rng(58)
    ms = unit_interval(12)
    z = _random_step(rng, ms)
    wit = orlicz_factor_witness(Lp(1.0), Power(1.0, 4.0), Power(1.0, 4.0), Power(1.0, 2.0), z)
    assert np.allclose(wit.x.values * wit.y.values, z.values, rtol=1e-12)
    assert any("sqrt(D*|z|)" in n for n in wit.notes)


def test_orlicz_splitting_refuses_an_unsplittable_triple():
    # A null zone on the combined function but not on the factors:
    # inverse(phi) tends to the jump point 1 while the product of the
    # factor inverses vanishes like v^2, so the required constant blows
    # up like 1/v^2 and the splitting certificate is refuted.
    from bfslab import ShiftedPower

    ms = unit_interval(8)
    z = StepFunction(ms, np.ones(8))
    with pytest.raises(ValueError):
        orlicz_factor_witness(
            Lp(1.0), Power(1.0, 1.0), Power(1.0, 1.0), ShiftedPower(1.0, 1.0, 1.0), z
        )


# ---------------------------------------------------------------------------
# intermediate spaces


def test_calderon_norm_closed_forms():
    rng = np.random.default_rng(59)
    ms = unit_interval(16)
    z = _random_step(rng, ms)
    same = calderon_norm(Lp(2.0), Lp(2.0), 0.7, z)
    assert math.isclose(same.value, norm(Lp(2.0), z).value, rel_tol=1e-12)
    assert any("equal factors" in n for n in same.notes)
    mixed = calderon_norm(Lp(1.0), Lp(3.0), 0.5, z)
    assert math.isclose(mixed.value, norm(Lp(1.5), z).value, rel_tol=1e-12)
    assert any("closed form" in n for n in mixed.notes)
    # L^inf^(1/2) Λ^(1/2) is the 2-convexification of Λ: a rewrite, not an optimization
    lam = LorentzLambda(PowerWeight(0.5))
    sup = calderon_norm(Lp(math.inf), lam, 0.5, z)
    assert sup.value == norm(Convexification(lam, 2.0), z).value
    assert any("closed form" in n for n in sup.notes)
    assert not any("weighted-Lebesgue" in n for n in mixed.notes + sup.notes)
    with pytest.raises(ValueError):
        calderon_norm(Lp(1.0), Lp(3.0), 1.0, z)


def test_calderon_norm_product_fallback():
    rng = np.random.default_rng(60)
    ms = unit_interval(12)
    z = _random_step(rng, ms)
    res = calderon_norm(LorentzLambda(PowerWeight(0.5)), Lp(2.0), 0.5, z, opts=_FAST)
    assert any("convexified product form" in n for n in res.notes)
    assert res.kind in ("upper_bound", "estimate")
    assert res.value > 0.0
