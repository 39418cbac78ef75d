"""Tests for space descriptors and their norm evaluators.

Oracles are independent closed forms: power integrals done by hand,
indicator norms of the classical scales, dense-sampling suprema, and
quadratic-formula gauges.
"""

import math
import warnings
from collections import OrderedDict

import numpy as np
import pytest

import bfslab.spaces as spaces
from bfslab import (
    Calderon,
    Capped,
    Convexification,
    Dual,
    LInftyWeighted,
    LorentzLambda,
    LorentzLambdaP,
    Lp,
    Marcinkiewicz,
    MarcinkiewiczStar,
    Multiplier,
    Oplus,
    OrliczCL,
    Power,
    PowerWeight,
    Product,
    StepFunction,
    ShiftedPower,
    Symmetrization,
    YoungMax,
    YoungSum,
    canonical,
    counting,
    double_star,
    dual_descriptor,
    fundamental,
    half_line,
    is_primitive,
    is_symmetric,
    lorentz_p1_exact,
    lorentz_pq,
    luxemburg_norm,
    modular,
    norm,
    norm_evaluator,
    product_norm,
    rearrange,
    space_from_json,
    space_to_json,
    symmetrization_norm,
    unit_interval,
    weak_lp,
)
from bfslab.weights import NonIntegrableWeight, PowerLogWeight, WeightProduct, WeightRatio, simplify_power


def _random_step(rng, mspace, lo=0.1, hi=3.0):
    return StepFunction(mspace, rng.uniform(lo, hi, mspace.n_cells))


def _indicator(mspace, tau):
    values = (mspace.breakpoints[1:] <= tau * (1 + 1e-12)).astype(float)
    return StepFunction(mspace, values)


# ---------------------------------------------------------------------------
# closed-form norms


def test_lp_norm_matches_cell_sum():
    rng = np.random.default_rng(11)
    ms = unit_interval(32)
    for p in (1.0, 1.7, 2.0, 4.0):
        for _ in range(5):
            x = _random_step(rng, ms)
            want = float(np.sum(x.values**p * ms.widths)) ** (1.0 / p)
            res = norm(Lp(p), x)
            assert res.kind == "exact"
            assert math.isclose(res.value, want, rel_tol=1e-12)


def test_lp_weighted_norm_power_integral():
    rng = np.random.default_rng(12)
    ms = unit_interval(24)
    coef, p = 2.0, 2.5
    x = _random_step(rng, ms)
    a, b = ms.breakpoints[:-1], ms.breakpoints[1:]
    # a tree of power atoms integrates as its one power, not by quadrature
    tree = WeightProduct(PowerWeight(-0.5, coef), WeightRatio(PowerWeight(0.25), PowerWeight(0.125)))
    for alpha, w in ((0.3, PowerWeight(0.3, coef)), (-0.375, tree)):
        q = alpha * p + 1.0
        cells = coef**p * (b**q - a**q) / q
        want = float(np.sum(x.values**p * cells)) ** (1.0 / p)
        res = norm(Lp(p, w), x)
        assert res.kind == "exact"
        assert math.isclose(res.value, want, rel_tol=1e-12)


def test_lp_infinity_is_sup():
    ms = counting(6)
    x = StepFunction(ms, np.array([0.5, 2.0, 1.0, 0.25, 1.5, 0.75]))
    res = norm(Lp(math.inf), x)
    assert res.kind == "exact"
    assert res.value == 2.0


def test_marcinkiewicz_norm_against_dense_sampling():
    rng = np.random.default_rng(13)
    ms = unit_interval(16)
    b_exp = 0.3
    space = Marcinkiewicz(PowerWeight(b_exp))
    for _ in range(5):
        x = _random_step(rng, ms)
        xs = rearrange(x)
        ts = np.geomspace(1e-6, float(xs.space.breakpoints[-1]), 20001)
        sampled = float(np.max(ts**b_exp * np.asarray(double_star(xs, ts))))
        res = norm(space, x)
        assert res.kind == "exact"
        assert res.value >= sampled - 1e-12
        assert math.isclose(res.value, sampled, rel_tol=1e-4)


def test_marcinkiewicz_star_norm_combinatorial_oracle():
    rng = np.random.default_rng(14)
    ms = unit_interval(20)
    b_exp = 0.45
    space = MarcinkiewiczStar(PowerWeight(b_exp))
    for _ in range(5):
        x = _random_step(rng, ms)
        order = np.argsort(-x.values, kind="stable")
        v = x.values[order]
        t = np.cumsum(ms.widths[order])
        want = float(np.max(v * t**b_exp))
        res = norm(space, x)
        assert res.kind == "exact"
        assert math.isclose(res.value, want, rel_tol=1e-12)


def test_lorentz_lambda_is_stieltjes_sum():
    ms = counting(4)
    x = StepFunction(ms, np.array([1.0, 3.0, 2.0, 0.5]))
    a = 0.6
    # x* = (3, 2, 1, 0.5) on unit cells; sum of v_i * (i^a - (i-1)^a).
    levels = np.array([3.0, 2.0, 1.0, 0.5])
    ks = np.arange(1, 5, dtype=float)
    want = float(np.sum(levels * (ks**a - (ks - 1.0) ** a)))
    res = norm(LorentzLambda(PowerWeight(a)), x)
    assert res.kind == "exact"
    assert math.isclose(res.value, want, rel_tol=1e-12)


@pytest.mark.parametrize("tau", [0.03125, 0.25, 0.5])
def test_indicator_norms_across_the_classical_scale(tau):
    cases = [
        (Lp(2.0), tau**0.5),
        (Lp(1.0), tau),
        (LorentzLambda(PowerWeight(0.6)), tau**0.6),
        (Marcinkiewicz(PowerWeight(0.3)), tau**0.3),
        (MarcinkiewiczStar(PowerWeight(0.3)), tau**0.3),
        (LInftyWeighted(PowerWeight(0.5)), tau**0.5),
        (lorentz_pq(2.0, 4.0), 0.5**0.25 * tau**0.5),
        (lorentz_p1_exact(2.0), tau**0.5),
        (weak_lp(2.0), tau**0.5),
    ]
    for space, want in cases:
        res = fundamental(space, tau)
        assert math.isclose(res.value, want, rel_tol=1e-10), space


def test_fundamental_snaps_to_breakpoints_on_a_supplied_grid():
    res = fundamental(Lp(2.0), 2.5, mspace=counting(4))
    assert math.isclose(res.value, math.sqrt(2.0), rel_tol=1e-12)
    assert any("snapped" in note for note in res.notes)
    with pytest.raises(ValueError):
        fundamental(Lp(2.0), 0.0)
    with pytest.raises(ValueError):
        fundamental(Lp(2.0), math.inf)


# ---------------------------------------------------------------------------
# lattice axioms, sampled


_BANACH_SPACES = [
    Lp(1.0),
    Lp(2.3),
    Lp(3.0, PowerWeight(0.25, 1.5)),
    LorentzLambda(PowerWeight(0.6)),
    Marcinkiewicz(PowerWeight(0.3)),
    weak_lp(2.0),
]


def test_homogeneity_and_triangle_inequality():
    rng = np.random.default_rng(15)
    ms = unit_interval(16)
    for space in _BANACH_SPACES:
        for _ in range(5):
            x = _random_step(rng, ms)
            y = _random_step(rng, ms)
            c = float(rng.uniform(0.2, 5.0))
            nx = norm(space, x).value
            ny = norm(space, y).value
            nc = norm(space, x.with_values(c * x.values)).value
            assert math.isclose(nc, c * nx, rel_tol=1e-12)
            nsum = norm(space, x.with_values(x.values + y.values)).value
            assert nsum <= (nx + ny) * (1 + 1e-12)


# lattice norms the engine's "J is convex" rests on, beyond the Banach list
_LOG_CONVEX_SPACES = _BANACH_SPACES + [
    LorentzLambdaP(PowerWeight(0.4), 2.0),
    LInftyWeighted(PowerWeight(0.4)),
    OrliczCL(Lp(1.0), ShiftedPower(0.3, 1.0, 2.0)),
    Convexification(LorentzLambda(PowerWeight(0.6)), 2.0),
]


def test_symmetric_norms_are_permutation_invariant():
    # invariance under permutations of the cells exactly where is_symmetric says so
    rng = np.random.default_rng(16)
    ms = counting(12)
    spaces = [
        Lp(2.0),
        lorentz_pq(2.0, 4.0),
        MarcinkiewiczStar(PowerWeight(0.3)),
        *_LOG_CONVEX_SPACES,
        Lp(2.0, PowerWeight(0.5)),
        OrliczCL(Lp(1.0, PowerWeight(0.3)), ShiftedPower(0.3, 1.0, 2.0)),
        Convexification(Lp(1.5, PowerWeight(0.3)), 2.0),
        Product(Lp(2.0, PowerWeight(0.3)), Lp(2.0)),
    ]
    assert sum(map(is_symmetric, spaces)) >= 10 and sum(not is_symmetric(s) for s in spaces) >= 5
    for space in spaces:
        x = _random_step(rng, ms)
        a = norm(space, x).value
        moved = 0.0
        for _ in range(3):
            shuffled = x.values.copy()
            rng.shuffle(shuffled)
            moved = max(moved, abs(norm(space, StepFunction(ms, shuffled)).value - a) / a)
        assert (moved <= 1e-12) == is_symmetric(space), (space, moved)


def test_lattice_monotonicity():
    rng = np.random.default_rng(17)
    ms = unit_interval(16)
    for space in _BANACH_SPACES:
        x = _random_step(rng, ms)
        smaller = x.with_values(x.values * rng.uniform(0.3, 1.0, ms.n_cells))
        assert norm(space, smaller).value <= norm(space, x).value * (1 + 1e-12)


@pytest.mark.parametrize("grid", ["unit16", "half16", "counting12"])
@pytest.mark.parametrize("space", _LOG_CONVEX_SPACES, ids=repr)
def test_lattice_norms_are_midpoint_log_convex(grid, space):
    # |sqrt(x y)|^2 <= |x| |y|: for a Banach lattice norm, sqrt(xy) <= (s x + y / s) / 2 for every s > 0
    rng = np.random.default_rng(18)
    ms = {"unit16": lambda: unit_interval(16), "half16": lambda: half_line(16), "counting12": lambda: counting(12)}[grid]()
    for _ in range(40):
        x, y = np.exp(rng.uniform(-3.0, 3.0, (2, ms.n_cells))) * (rng.uniform(size=(2, ms.n_cells)) > 0.2)
        mid = norm(space, StepFunction(ms, np.sqrt(x * y))).value
        assert mid**2 <= norm(space, StepFunction(ms, x)).value * norm(space, StepFunction(ms, y)).value * (1 + 1e-12)


# symmetric Banach lattice norms; M*_phi, a quasi-norm, is left out
_SUBMAJORIZATION_SPACES = [
    Lp(1.0),
    Lp(2.3),
    LorentzLambda(PowerWeight(0.6)),
    Marcinkiewicz(PowerWeight(0.3)),
    weak_lp(2.0),
    LorentzLambdaP(PowerWeight(0.4), 2.0),
    OrliczCL(Lp(1.0), ShiftedPower(0.3, 1.0, 2.0)),
]


def _weakly_submajorized(rng, x):
    """A y with y ≺_w x on equal cells: T-transforms of x, each averaging
    two cells (y ≺ x), then a cellwise factor in [0, 1], then a permutation."""
    y = x.copy()
    for _ in range(int(rng.integers(1, 2 * x.size + 1))):
        i, j = rng.choice(x.size, 2, replace=False)
        lam = rng.uniform()
        y[i], y[j] = lam * y[i] + (1.0 - lam) * y[j], lam * y[j] + (1.0 - lam) * y[i]
    return rng.permutation(y * np.minimum(rng.uniform(0.0, 2.0, x.size), 1.0))


@pytest.mark.parametrize("n", [5, 12, 33])
@pytest.mark.parametrize("space", _SUBMAJORIZATION_SPACES, ids=repr)
def test_symmetric_norms_are_monotone_under_weak_submajorization(n, space):
    # y ≺_w x gives |y| <= |x| for a symmetric Banach lattice norm on equal cells (Calderón–Ryff)
    rng = np.random.default_rng(19 + n)
    ms = counting(n)
    for _ in range(30):
        x = np.exp(rng.uniform(-3.0, 3.0, n)) * (rng.uniform(size=n) > 0.2)
        y = _weakly_submajorized(rng, x)
        top_y, top_x = (np.cumsum(np.sort(v)[::-1]) for v in (y, x))
        assert np.all(top_y <= top_x * (1 + 1e-12))  # the top-k sums: y ≺_w x indeed
        assert norm(space, StepFunction(ms, y)).value <= norm(space, StepFunction(ms, x)).value * (1 + 1e-12), (x, y)


def test_marcinkiewicz_star_is_not_midpoint_log_convex():
    # M*_phi is only a quasi-norm: its products take the sup split, which needs no convexity
    ms = counting(3)
    x, y = np.array([1.4, 1.7, 0.2]), np.array([1.1, 0.9, 0.7])
    space = MarcinkiewiczStar(PowerWeight(0.3))
    mid = norm(space, StepFunction(ms, np.sqrt(x * y))).value
    nx, ny = norm(space, StepFunction(ms, x)).value, norm(space, StepFunction(ms, y)).value
    assert math.isclose(mid**2, 2.3190463467609, rel_tol=1e-12) and math.isclose(nx * ny, 1.9098028738031, rel_tol=1e-12)
    assert mid**2 > nx * ny


# ---------------------------------------------------------------------------
# canonical rewrites


def test_canonical_convexification_of_lp():
    assert canonical(Convexification(Lp(2.0), 2.0)) == Lp(4.0)
    assert canonical(Convexification(Lp(2.0), 1.0)) == Lp(2.0)
    got = canonical(Convexification(Lp(2.0, PowerWeight(0.5, 2.0)), 2.0))
    assert isinstance(got, Lp) and got.p == 4.0
    assert math.isclose(got.weight.alpha, 0.25, rel_tol=1e-15)
    assert math.isclose(got.weight.coef, math.sqrt(2.0), rel_tol=1e-15)
    nested = canonical(Convexification(Convexification(Lp(1.0), 2.0), 1.5))
    assert nested == Lp(3.0)


def test_canonical_convexification_of_sup_scales():
    got = canonical(Convexification(MarcinkiewiczStar(PowerWeight(0.6)), 2.0))
    assert got == MarcinkiewiczStar(PowerWeight(0.3))
    got = canonical(Convexification(LorentzLambdaP(PowerWeight(0.5), 2.0), 2.0))
    assert got == LorentzLambdaP(PowerWeight(0.25), 4.0)


@pytest.mark.parametrize("sup", [MarcinkiewiczStar, LInftyWeighted])
def test_canonical_convexification_of_a_power_log_sup_takes_the_root_weight(sup):
    # sup (psi x)^p = (sup psi^(1/p) x)^p, and psi^(1/p) of c t^a (1 + |log t|)^b
    # is c^(1/p) t^(a/p) (1 + |log t|)^(b/p)
    psi, p = PowerLogWeight(0.3, 0.5, 4.0), 2.0
    got = canonical(Convexification(sup(psi), p))
    assert got == sup(PowerLogWeight(0.15, 0.25, 2.0))
    x = _random_step(np.random.default_rng(5), unit_interval(16))
    want = norm(sup(psi), x.with_values(x.values**p)).value ** (1.0 / p)
    assert math.isclose(norm(got, x).value, want, rel_tol=1e-12)
    # the power rule is untouched: it rebuilds a PowerWeight from alpha and coef alone
    assert spaces._weight_pow(psi, 0.5) is None


def test_canonical_orlicz_power_collapse():
    assert canonical(OrliczCL(Lp(1.0), Power(1.0, 1.0))) == Lp(1.0)
    got = canonical(OrliczCL(Lp(1.0), Power(3.0, 2.0)))
    assert isinstance(got, Lp) and got.p == 2.0
    assert math.isclose(got.weight.coef, math.sqrt(3.0), rel_tol=1e-15)
    # The rewrite preserves the norm: gauge of 3*(x/lam)^2 in L1.
    rng = np.random.default_rng(18)
    ms = unit_interval(16)
    x = _random_step(rng, ms)
    lam = math.sqrt(3.0) * norm(Lp(2.0), x).value
    assert math.isclose(norm(got, x).value, lam, rel_tol=1e-12)
    assert math.isclose(luxemburg_norm(Lp(1.0), Power(3.0, 2.0), x).value, lam, rel_tol=1e-10)


def test_canonical_calderon_of_lp_pair():
    assert canonical(Calderon(Lp(1.0), Lp(math.inf), 0.5)) == Lp(2.0)
    got = canonical(Calderon(Lp(2.0), Lp(4.0), 0.25))
    # 1/p = 0.25/2 + 0.75/4 = 0.3125
    assert isinstance(got, Lp)
    assert math.isclose(got.p, 3.2, rel_tol=1e-15)
    # 1/inf = 0 on both sides: no division by a zero exponent sum
    got = canonical(Calderon(Lp(math.inf, PowerWeight(0.3)), Lp(math.inf, PowerWeight(0.2)), 0.5))
    assert got == Lp(math.inf, PowerWeight(0.25))


PW = PowerWeight


@pytest.mark.parametrize(
    "space, want",
    [
        (Product(Lp(math.inf), LorentzLambda(PW(0.5))), LorentzLambda(PW(0.5))),
        (Product(Marcinkiewicz(PW(0.4)), Lp(math.inf)), Marcinkiewicz(PW(0.4))),
        (Product(Lp(2.0), Lp(4.0)), Lp(4.0 / 3.0)),
        (Product(Lp(2.0, PW(0.25)), Lp(4.0, PW(0.5, 2.0))), Lp(4.0 / 3.0, PW(0.75, 2.0))),
        (Product(Lp(2.0, PW(0.5)), Lp(2.0, PW(-0.5))), Lp(1.0)),
        # r = 3/4 < 1: the 3/4-concavification of L^1(w^(3/4))
        (Product(Lp(1.5, PW(0.5)), Lp(1.5)), Convexification(Lp(1.0, PW(0.375)), 0.75)),
        (Product(Lp(math.inf, PW(0.3)), Lp(math.inf, PW(0.2))), Lp(math.inf, PW(0.5))),
        (Product(Lp(math.inf, PW(0.3)), Lp(2.0)), Lp(2.0, PW(0.3))),
        (
            Product(LorentzLambda(PW(0.5)), Convexification(LorentzLambda(PW(0.5)), 2.0)),
            Convexification(LorentzLambda(PW(0.5)), 2.0 / 3.0),
        ),
        (Product(Lp(1.5), Convexification(Lp(1.5), 0.5)), Convexification(Lp(1.5), 1.0 / 3.0)),
        # no identity: the pair stays a product
        (Product(Lp(2.0, PW(-0.5)), LInftyWeighted(PW(0.4))), Product(Lp(2.0, PW(-0.5)), LInftyWeighted(PW(0.4)))),
        (Product(LorentzLambda(PW(0.5)), MarcinkiewiczStar(PW(0.3))), Product(LorentzLambda(PW(0.5)), MarcinkiewiczStar(PW(0.3)))),
        (Product(Lp(2.0, PowerLogWeight(0.3, 1.0)), Lp(2.0)), Product(Lp(2.0, PowerLogWeight(0.3, 1.0)), Lp(2.0))),
    ],
    ids=[
        "sup_left", "sup_right", "lp_plain", "lp_weighted", "lp_weights_cancel", "lp_below_one",
        "sup_pair_weighted", "sup_weighted_with_lp", "common_base", "common_base_lp",
        "weighted_lp_with_weighted_sup", "lorentz_with_mstar", "non_power_weight",
    ],
)
def test_canonical_product_identities(space, want):
    got = canonical(space)
    assert got == want
    assert canonical(got) == got


def test_canonical_calderon_collapses_through_the_product_rule():
    # L^inf^theta F^(1-theta) = F^(1/(1-theta)), and a common base meets itself
    lam = LorentzLambda(PW(0.5))
    assert canonical(Calderon(Lp(math.inf), lam, 0.5)) == Convexification(lam, 2.0)
    assert canonical(Calderon(Convexification(lam, 2.0), lam, 0.5)) == Convexification(lam, 4.0 / 3.0)
    # a weighted sup is not an L^inf: the pair stays on the variational path
    kept = Calderon(Lp(1.0, PW(-0.4)), LInftyWeighted(PW(0.4)), 0.5)
    assert canonical(kept) == kept


def test_every_layer_sees_the_collapsed_product():
    ms = counting(8)
    m = StepFunction(ms, np.random.default_rng(3).uniform(0.1, 2.0, 8))
    prod = Product(Lp(2.0), Lp(4.0))
    assert norm_evaluator(prod, ms) is not None
    assert norm(prod, m).value == norm(Lp(4.0 / 3.0), m).value
    assert norm(prod, m).kind == "exact"
    assert is_primitive(canonical(prod))
    dual = dual_descriptor(canonical(prod))
    assert isinstance(dual, Lp) and math.isclose(dual.p, 4.0, rel_tol=1e-15)
    # the Orlicz base check sees L^1
    got = luxemburg_norm(Product(Lp(2.0), Lp(2.0)), Power(1.0, 2.0), m).value
    assert got == luxemburg_norm(Lp(1.0), Power(1.0, 2.0), m).value


def test_canonical_symmetrization_collapse():
    assert canonical(Symmetrization(Lp(2.0), "star")) == Lp(2.0)
    # |x* t^0.5|_2 = (∫ (t^1 x*)^2 dt/t)^(1/2)
    got = canonical(Symmetrization(Lp(2.0, PowerWeight(0.5)), "star"))
    assert got == LorentzLambdaP(PowerWeight(1.0), 2.0)
    kept_ds = canonical(Symmetrization(Lp(2.0), "doublestar"))
    assert isinstance(kept_ds, Symmetrization)


def test_canonical_symmetrization_of_weighted_sup_and_lp():
    w = PowerWeight(0.4)
    for base in (LInftyWeighted(w), Lp(math.inf, w)):
        assert canonical(Symmetrization(base, "star")) == MarcinkiewiczStar(w)
        assert canonical(Symmetrization(base, "doublestar")) == Marcinkiewicz(w)
    got = canonical(Symmetrization(Lp(4.0, PowerWeight(-0.25, 3.0)), "star"))
    assert got == LorentzLambdaP(PowerWeight(0.0, 3.0), 4.0)
    # the rewrite feeds the convexification rules
    conv = Convexification(Symmetrization(LInftyWeighted(w), "star"), 2.0)
    assert canonical(conv) == MarcinkiewiczStar(PowerWeight(0.2))
    # a weight that is not a pure power keeps the structure
    log_w = PowerLogWeight(0.4, 1.0)
    assert canonical(Symmetrization(LInftyWeighted(log_w), "star")) == Symmetrization(LInftyWeighted(log_w), "star")


_P1_GRIDS = {"unit": lambda: unit_interval(16), "half": lambda: half_line(16), "counting": lambda: counting(16)}


@pytest.mark.parametrize("grid", sorted(_P1_GRIDS))
@pytest.mark.parametrize("a", [0.3, 0.5, 1.0])
def test_lambda_p1_of_a_power_is_the_lambda_norm(grid, a):
    # ∫ c t^a x* dt/t over the sorted profile: cell k carries (c/a)(T_k^a - T_(k-1)^a)
    ms, c = _P1_GRIDS[grid](), 1.7
    x = _random_step(np.random.default_rng(41), ms)
    order = np.argsort(-x.values, kind="stable")
    T = np.concatenate(([0.0], np.cumsum(ms.widths[order])))
    want = float(np.sum(x.values[order] * (c / a) * np.diff(T**a)))
    space = LorentzLambdaP(PowerWeight(a, c), 1.0)
    assert canonical(space) == LorentzLambda(PowerWeight(a, c / a))
    got = norm(space, x)
    assert got.kind == "exact"
    assert math.isclose(got.value, want, rel_tol=1e-13)


@pytest.mark.parametrize(
    "space",
    [
        LorentzLambdaP(PowerWeight(0.0, 2.0), 1.0),
        LorentzLambdaP(PowerWeight(-0.3), 1.0),
        LorentzLambdaP(PowerLogWeight(0.5, 1.0), 1.0),
        LorentzLambdaP(PowerWeight(0.5), 2.0),
        LorentzLambdaP(PowerWeight(0.5), 0.5),
    ],
    ids=["a0", "a_neg", "powlog", "p2", "p_half"],
)
def test_canonical_keeps_lambda_p_without_a_positive_power_and_p_1(space):
    assert canonical(space) == space


@pytest.mark.parametrize("n", [16, 64, 256])
def test_lambda_p_over_a_power_log_weight_sees_a_non_integrable_weight_at_zero(n):
    # phi^p / t ~ t^(ap - 1) |log t|^(bp) near 0: integrable iff ap > 0, or
    # ap = 0 and bp < -1.  The probe for an overflow at b*1e-12 missed these
    # and read 92.8, 2,586 and 1.56e9 for t^-0.2, and 57.7, 136 and 619 for
    # 1 + |log t|, on n = 16, 64 and 256
    ms = unit_interval(n)
    one = StepFunction(ms, np.ones(n))
    for phi in (PowerLogWeight(-0.2, 0.0), PowerLogWeight(0.0, 1.0), PowerLogWeight(0.0, -0.4), PowerWeight(-0.2)):
        res = norm(LorentzLambdaP(phi, 2.0), one)
        assert (res.value, res.kind) == (math.inf, "exact"), phi
        assert norm(LorentzLambdaP(phi, 2.0), StepFunction(ms, np.zeros(n))).value == 0.0
    # integrable: a finite quadrature estimate; for (1 + |log t|)^-0.6 the norm
    # of 1 is sqrt(5), as the integral of (1 + |log t|)^-1.2 dt/t over (0, 1) is 5
    for phi in (PowerLogWeight(0.0, -0.6), PowerLogWeight(0.3, 1.0)):
        res = norm(LorentzLambdaP(phi, 2.0), one)
        assert math.isfinite(res.value) and res.kind == "estimate", phi
    assert norm(LorentzLambdaP(PowerLogWeight(0.0, -0.6), 2.0), one).value < math.sqrt(1.0 / 0.2)


@pytest.mark.parametrize("n", [16, 64, 256])
def test_lp_over_a_power_log_weight_sees_a_non_integrable_weight_at_zero(n):
    # w^p ~ t^(ap) (1 + |log t|)^(bp) near 0: integrable iff ap > -1, or
    # ap = -1 and bp < -1.  The generic probe missed t^-0.6 at p = 2 and
    # read 17.2, 91.3 and 70,909 on n = 16, 64 and 256
    ms = unit_interval(n)
    one = StepFunction(ms, np.ones(n))
    for w in (PowerLogWeight(-0.6, 0.0), PowerLogWeight(-0.5, -0.4), PowerWeight(-0.6)):
        assert norm(Lp(2.0, w), one).value == math.inf, w
        assert norm(Lp(2.0, w), StepFunction(ms, np.zeros(n))).value == 0.0
    for w in (PowerLogWeight(-0.5, -1.0), PowerLogWeight(-0.4, 1.0)):
        assert math.isfinite(norm(Lp(2.0, w), one).value), w
    # away from 0 every cell takes the quadrature
    assert math.isfinite(PowerLogWeight(-0.6, 0.0).cell_integral_pow(0.5, 1.0, 2.0))
    with pytest.raises(NonIntegrableWeight):
        PowerLogWeight(-0.6, 0.0).cell_integral_pow(0.0, 1.0 / n, 2.0)


@pytest.mark.parametrize("grid", sorted(_P1_GRIDS))
@pytest.mark.parametrize("a, c", [(0.3, 1.0), (0.5, 2.5), (1.0, 0.7)])
def test_the_dual_of_lambda_p1_passes_hoelder(grid, a, c):
    ms = _P1_GRIDS[grid]()
    space = LorentzLambdaP(PowerWeight(a, c), 1.0)
    dual = dual_descriptor(space)
    assert dual == Marcinkiewicz(PowerWeight(1.0 - a, a / c))
    rng = np.random.default_rng(43)
    for _ in range(20):
        x, y = _random_step(rng, ms, 0.0, 3.0), _random_step(rng, ms, 0.0, 3.0)
        pairing = float(np.sum(x.values * y.values * ms.widths))
        nx, ny = norm(space, x), norm(dual, y)
        assert (nx.kind, ny.kind) == ("exact", "exact")
        assert pairing <= nx.value * ny.value * (1.0 + 1e-12)


@pytest.mark.parametrize(
    "space",
    [
        Symmetrization(Lp(1.0, PowerWeight(-0.4)), "star"),
        Symmetrization(Lp(1.0, PowerWeight(0.3, 2.0)), "star"),
        Convexification(LorentzLambdaP(PowerWeight(0.5), 1.0), 2.0),
        Convexification(LorentzLambdaP(PowerWeight(0.5), 2.0), 0.5),
        Dual(LorentzLambdaP(PowerWeight(0.5), 1.0)),
        Product(LorentzLambdaP(PowerWeight(0.5), 1.0), LorentzLambdaP(PowerWeight(0.3), 1.0)),
        Product(LorentzLambdaP(PowerWeight(0.5), 1.0), LorentzLambdaP(PowerWeight(0.5), 1.0)),
        Calderon(LorentzLambdaP(PowerWeight(0.5), 1.0), Lp(2.0), 0.5),
    ],
    ids=["star_lp1", "star_lp1_coef", "conv_lam1", "conv_lam2_to_1", "dual_lam1", "product_lam1", "product_equal_lam1", "calderon"],
)
def test_canonical_is_idempotent(space):
    once = canonical(space)
    assert canonical(once) == once


def test_canonical_dual_collapse():
    assert canonical(Dual(Lp(3.0))) == Lp(1.5)
    assert canonical(Dual(Dual(Lp(3.0)))) == Lp(3.0)


# ---------------------------------------------------------------------------
# duality


def test_dual_descriptor_table():
    assert dual_descriptor(Lp(3.0)) == Lp(1.5)
    assert dual_descriptor(Lp(1.0)) == Lp(math.inf)
    got = dual_descriptor(Lp(2.0, PowerWeight(0.3, 2.0)))
    assert isinstance(got, Lp) and got.p == 2.0
    assert math.isclose(got.weight.alpha, -0.3, rel_tol=1e-15)
    assert math.isclose(got.weight.coef, 0.5, rel_tol=1e-15)
    assert dual_descriptor(LorentzLambda(PowerWeight(0.6))) == Marcinkiewicz(PowerWeight(0.4))
    assert dual_descriptor(Marcinkiewicz(PowerWeight(0.4))) == LorentzLambda(PowerWeight(0.6))


def test_dual_descriptor_reads_the_canonical_form():
    # L^2 ⊙ L^4 = L^(4/3); (L^4)^(1/2) (L^8)^(1/2) is L^4 ⊙ L^8 = L^(8/3)
    assert dual_descriptor(Product(Lp(2.0), Lp(4.0))) == dual_descriptor(Lp(4.0 / 3.0))
    assert dual_descriptor(Calderon(Lp(2.0), Lp(4.0), 0.5)) == dual_descriptor(Lp(8.0 / 3.0))
    assert dual_descriptor(Dual(Lp(2.0))) is None
    assert dual_descriptor(Product(Lp(2.0), LorentzLambda(PowerWeight(0.5)))) is None


def test_dual_fundamental_functions_multiply_to_t():
    pairs = [
        Lp(3.0),
        LorentzLambda(PowerWeight(0.6)),
        Marcinkiewicz(PowerWeight(0.25)),
    ]
    for space in pairs:
        dual = dual_descriptor(space)
        assert dual is not None
        for tau in (0.0625, 0.25, 0.75):
            fe = fundamental(space, tau).value
            fd = fundamental(dual, tau).value
            assert math.isclose(fe * fd, tau, rel_tol=1e-9), (space, tau)


def test_dual_norm_goes_through_the_table():
    rng = np.random.default_rng(19)
    ms = unit_interval(16)
    x = _random_step(rng, ms)
    res = norm(Dual(Lp(2.0)), x)
    assert math.isclose(res.value, norm(Lp(2.0), x).value, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# gauges


def test_luxemburg_gauge_quadratic_oracle():
    rng = np.random.default_rng(20)
    ms = unit_interval(16)
    phi = YoungSum((Power(1.0, 1.0), Power(1.0, 2.0)))
    for _ in range(5):
        x = _random_step(rng, ms)
        n1 = norm(Lp(1.0), x).value
        n2 = norm(Lp(2.0), x).value
        lam = 0.5 * (n1 + math.sqrt(n1 * n1 + 4.0 * n2 * n2))
        res = luxemburg_norm(Lp(1.0), phi, x)
        assert res.kind == "estimate"
        assert math.isclose(res.value, lam, rel_tol=1e-8)
        # The bracket convention keeps the modular at the gauge <= 1.
        assert modular(Lp(1.0), phi, x.with_values(x.values / res.value)) <= 1.0 + 1e-9


def test_luxemburg_gauge_of_zero_and_of_unattainable():
    ms = unit_interval(8)
    zero = StepFunction(ms, np.zeros(8))
    assert luxemburg_norm(Lp(1.0), Power(1.0, 2.0), zero).value == 0.0
    capped = Capped(Power(1.0, 1.0), 0.5)
    x = StepFunction(ms, np.ones(8))
    assert modular(Lp(1.0), capped, x) == math.inf


def test_gauge_search_runs_down_to_the_smallest_float():
    # a subnormal gauge: the bracket search agrees with the closed form
    ms = half_line(16)
    fn = norm_evaluator(Lp(1.0), ms).fn
    phi = ShiftedPower(1e10, 1.0, 1.0)
    v = np.random.default_rng(3).uniform(0.0, 3.0, 16) * 1e-300
    closed = spaces._luxemburg_value(fn, phi, v, ms.widths)
    search = spaces._luxemburg_value(fn, phi, v)
    assert closed < 1e-308
    assert closed <= search <= closed * (1.0 + 1e-10)
    assert fn(phi._eval(v / search)) <= 1.0 < fn(phi._eval(v / (0.5 * search)))


def test_gauge_search_probes_raise_no_floating_point_warnings():
    # probes far above the gauge overflow phi: a verdict, not a warning
    x = StepFunction(half_line(16), np.random.default_rng(3).uniform(0.0, 3.0, 16) * 1e-100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = norm(OrliczCL(Lp(1.0), ShiftedPower(0.4, 1e-300, 3.0)), x)
    assert 0.0 < res.value < math.inf


def test_luxemburg_requires_primitive_base():
    ms = unit_interval(8)
    x = StepFunction(ms, np.ones(8))
    with pytest.raises(ValueError):
        luxemburg_norm(Product(Lp(2.0), LorentzLambda(PowerWeight(0.5))), Power(1.0, 2.0), x)


@pytest.mark.parametrize(
    "phi",
    [
        ShiftedPower(0.3, 1.0, 2.0),
        YoungSum((Power(1.0, 2.0), Power(0.5, 3.0))),
        YoungMax((Power(1.0, 2.0), Power(0.5, 3.0))),
        Capped(Power(1.0, 2.0), 200.0),
        Oplus(Power(1.0, 3.0), Power(1.0, 1.5)),
    ],
    ids=["shifted", "sum", "max", "capped", "oplus"],
)
def test_luxemburg_norm_is_the_norm_of_its_orlicz_descriptor(phi):
    x = _random_step(np.random.default_rng(22), unit_interval(8))
    assert luxemburg_norm(Lp(1.0), phi, x).value == norm(OrliczCL(Lp(1.0), phi), x).value


def test_luxemburg_gauge_rejects_a_negative_cell():
    gauge = norm_evaluator(OrliczCL(Lp(1.0), ShiftedPower(0.3, 1.0, 2.0)), unit_interval(4))
    # a row whose only nonzero cell is negative, alone and in a batch
    for v in ([1.0, -0.5, 2.0, 0.5], [-1.0, 0.0, 0.0, 0.0], [[1.0, 2.0, 0.0, 0.5], [-1.0, 0.0, 0.0, 0.0]]):
        with pytest.raises(ValueError, match="nonnegative"):
            gauge.fn(np.array(v))


def test_luxemburg_norm_notes_a_function_outside_the_space():
    # t^-1 is not integrable on the first cell, so every modular is infinite
    x = StepFunction(unit_interval(8), np.ones(8))
    res = luxemburg_norm(Lp(1.0, PowerWeight(-1.0)), YoungSum((Power(1.0, 1.0), Power(1.0, 2.0))), x)
    assert (res.value, res.kind) == (math.inf, "estimate")
    assert res.notes[-1] == "modular stays above 1: x is outside the space"


# ---------------------------------------------------------------------------
# symmetrization


def test_doublestar_norm_bounds_the_maximal_average():
    ms = unit_interval(32)
    tau = 0.25
    x = _indicator(ms, tau)
    want = tau + tau * math.log(1.0 / tau)  # integral of min(1, tau/t) on (0,1)
    res = norm(Symmetrization(Lp(1.0), "doublestar"), x)
    assert res.kind == "estimate"
    assert res.value >= want - 1e-12
    assert res.value <= want * 1.02
    assert any("x**" in note for note in res.notes)


def test_doublestar_fallback_on_a_counting_grid_example():
    # x* = [3, 2, 1, 0.5]; the upper step [x*(1), x**(1), x**(2), x**(3)]
    # is [3, 3, 2.5, 2], and Λ(t^0.5) sums it against sqrt(i) - sqrt(i-1)
    x = StepFunction(counting(4), [3.0, 1.0, 2.0, 0.5])
    res = norm(Symmetrization(LorentzLambda(PowerWeight(0.5)), "doublestar"), x)
    want = 3.0 + 3.0 * (math.sqrt(2) - 1) + 2.5 * (math.sqrt(3) - math.sqrt(2)) + 2.0 * (2 - math.sqrt(3))
    assert math.isclose(res.value, want, rel_tol=1e-14)
    assert res.value == 5.573132184970986
    assert res.kind == "estimate"


@pytest.mark.parametrize("n", [4, 7, 32, 129, 512, 1024])
def test_doublestar_fallback_on_counting_grids_matches_cesaro_means(n):
    rng = np.random.default_rng(n)
    x = StepFunction(counting(n), rng.uniform(0.0, 3.0, n))
    res = norm(Symmetrization(LorentzLambda(PowerWeight(0.5)), "doublestar"), x)
    xs = np.sort(x.values)[::-1]
    cesaro = np.cumsum(xs) / np.arange(1, n + 1)  # x**(j) on the atoms 1..n
    step = np.concatenate(([xs[0]], cesaro[:-1]))  # left endpoints 0, 1, ..., n-1
    want = float(np.sum(step * np.diff(np.sqrt(np.arange(n + 1.0)))))
    assert math.isclose(res.value, want, rel_tol=1e-12)
    assert res.kind == "estimate"


def test_star_symmetrization_matches_rearranged_norm():
    rng = np.random.default_rng(21)
    ms = unit_interval(16)
    x = _random_step(rng, ms)
    space = Lp(2.0, PowerWeight(0.5))
    got = norm(Symmetrization(space, "star"), x)
    want = norm(space, rearrange(x))
    assert math.isclose(got.value, want.value, rel_tol=1e-12)


def _grid16(name):
    return unit_interval(16) if name == "unit" else half_line(16)


@pytest.mark.parametrize("grid", ["unit", "half"])
@pytest.mark.parametrize(
    "p, alpha, coef", [(1.0, 0.5, 1.0), (2.0, 0.25, 1.5), (3.0, -0.2, 0.7), (1.0, -1.0, 1.0)]
)
def test_star_of_weighted_lp_is_lorentz_lambda_p(grid, p, alpha, coef):
    rng = np.random.default_rng(31)
    x = _random_step(rng, _grid16(grid))
    got = norm(Symmetrization(Lp(p, PowerWeight(alpha, coef)), "star"), x)
    want = norm(LorentzLambdaP(PowerWeight(alpha + 1.0 / p, coef), p), x)
    assert math.isclose(got.value, want.value, rel_tol=1e-13)
    assert (got.kind, got.notes) == (want.kind, want.notes)


@pytest.mark.parametrize("grid", ["unit", "half"])
@pytest.mark.parametrize(
    "w", [PowerWeight(0.5, 2.0), PowerWeight(-0.3), PowerLogWeight(0.5, 1.0)], ids=["pow", "neg", "powlog"]
)
def test_weighted_lp_infinity_is_linfty_weighted(grid, w):
    rng = np.random.default_rng(32)
    x = _random_step(rng, _grid16(grid))
    got = norm(Lp(math.inf, w), x)
    want = norm(LInftyWeighted(w), x)
    assert (got.value, got.kind, got.notes) == (want.value, want.kind, want.notes)
    if isinstance(w, PowerLogWeight):
        assert got.kind == "exact"  # PowerLogWeight.cell_sup is exact


@pytest.mark.parametrize(
    "tree",
    [
        WeightProduct(PowerWeight(-0.3), PowerWeight(0.1)),
        WeightRatio(PowerWeight(0.1), PowerWeight(0.4, 2.0)),
        WeightProduct(PowerWeight(0.2, 1.5), PowerWeight(0.3)),
    ],
    ids=["neg_product", "neg_ratio", "pos_product"],
)
def test_a_power_tree_takes_its_power_cell_sups(tree):
    # a tree that simplifies to one power takes that power's cell sups, bit
    # for bit: +inf on the first cell where the exponent is negative, where
    # sampling read finite sups and a finite norm tagged exact
    pw, ms = simplify_power(tree), unit_interval(16)
    bp, one = ms.breakpoints, StepFunction(ms, np.ones(16))
    assert np.array_equal(tree.cell_sup(bp[:-1], bp[1:]), pw.cell_sup(bp[:-1], bp[1:]))
    assert tree.cell_sup(0.0, 0.5) == pw.cell_sup(0.0, 0.5)
    assert np.array_equal(spaces._cell_masses(Lp(math.inf, tree), ms), spaces._cell_masses(Lp(math.inf, pw), ms))
    for S in (LInftyWeighted, lambda w: Lp(math.inf, w)):
        got, want = norm(S(tree), one), norm(S(pw), one)
        assert (got.value, got.kind) == (want.value, want.kind)
        assert got.kind == "exact" and (got.value == math.inf) == (pw.alpha < 0.0)
    z = _random_step(np.random.default_rng(34), ms)
    got, want = (product_norm(LorentzLambda(PowerWeight(0.5)), LInftyWeighted(w), z)[0] for w in (tree, pw))
    assert (got.value, got.kind) == (want.value, want.kind)


@pytest.mark.parametrize("grid", ["unit", "half"])
@pytest.mark.parametrize("beta", [0.4, 1.0, -0.5])
def test_star_of_weighted_sup_is_marcinkiewicz_star(grid, beta):
    rng = np.random.default_rng(33)
    x = _random_step(rng, _grid16(grid))
    w = PowerWeight(beta, 1.5)
    got = norm(Symmetrization(LInftyWeighted(w), "star"), x)
    want = norm(MarcinkiewiczStar(w), x)
    assert (got.value, got.kind, got.notes) == (want.value, want.kind, want.notes)


@pytest.mark.parametrize(
    "space",
    [
        Marcinkiewicz(PowerWeight(-0.5)),
        MarcinkiewiczStar(PowerWeight(-0.5)),
        Symmetrization(LInftyWeighted(PowerWeight(-0.5)), "doublestar"),
    ],
    ids=["marcinkiewicz", "marcinkiewicz_star", "doublestar"],
)
def test_negative_power_marcinkiewicz_is_infinite(space):
    # t^-0.5 * x**(t) -> inf as t -> 0 for any nonzero x
    ms = unit_interval(32)
    res = norm(space, StepFunction(ms, np.ones(32)))
    assert (res.value, res.kind) == (math.inf, "exact")
    assert "weight singular at 0" in res.notes
    assert norm(space, StepFunction(ms, np.zeros(32))).value == 0.0


def _halves(ms):
    first = (ms.breakpoints[1:] <= 0.5 + 1e-12).astype(float)
    return StepFunction(ms, first), StepFunction(ms, 1.0 - first)


def test_lorentz_lambda_with_a_convex_power_is_an_estimate():
    # t^2 is not concave: the indicator of (0, 1] outweighs its two halves
    ms = unit_interval(16)
    a, b = _halves(ms)
    E = LorentzLambda(PowerWeight(2.0))
    whole = norm(E, StepFunction(ms, a.values + b.values))
    assert whole.value > norm(E, a).value + norm(E, b).value
    assert whole.kind == "estimate"
    assert "weight not concave: not a norm" in whole.notes


def test_lorentz_lambda_p_whose_phi_p_is_not_quasi_concave_is_an_estimate():
    # (∫ x*^p t^(ap-1) dt)^(1/p): for ap > 1 the weight t^(ap-1) rises, and
    # x = (1, 1/2, 0, ...) and its swap y = (1/2, 1, 0, ...) sum to a flat
    # profile that outweighs them both
    ms = unit_interval(16)
    x, y = np.zeros(16), np.zeros(16)
    x[:2], y[:2] = (1.0, 0.5), (0.5, 1.0)
    E = LorentzLambdaP(PowerWeight(0.8), 2.0)
    whole = norm(E, StepFunction(ms, x + y))
    assert whole.value > norm(E, StepFunction(ms, x)).value + norm(E, StepFunction(ms, y)).value
    assert whole.kind == "estimate"
    assert "phi^p not quasi-concave: not a norm" in whole.notes
    assert norm(LorentzLambdaP(PowerWeight(0.5), 2.0), StepFunction(ms, x)).kind == "exact"
    assert not norm_evaluator(E, ms).lattice and norm_evaluator(LorentzLambdaP(PowerWeight(0.5), 2.0), ms).lattice


def test_negative_power_lorentz_lambda_is_infinite():
    ms = unit_interval(16)
    a, _ = _halves(ms)
    E = LorentzLambda(PowerWeight(-0.5))
    res = norm(E, a)
    assert (res.value, res.kind) == (math.inf, "exact")
    assert "weight singular at 0" in res.notes
    assert norm(E, StepFunction(ms, np.zeros(16))).value == 0.0


@pytest.mark.parametrize("grid", ["unit", "half", "counting"])
@pytest.mark.parametrize("mode", ["star", "doublestar"])
@pytest.mark.parametrize(
    "base",
    [Lp(2.0), Lp(2.0, PowerWeight(0.3)), LorentzLambda(PowerWeight(0.6)), LInftyWeighted(PowerWeight(0.4))],
    ids=["lp", "lp_weighted", "lorentz_lambda", "linfty_weighted"],
)
def test_symmetrization_norm_is_the_norm_of_its_descriptor(grid, mode, base):
    ms = counting(8) if grid == "counting" else _grid16(grid)
    x = _random_step(np.random.default_rng(34), ms)
    got = symmetrization_norm(base, mode, x)
    want = norm(Symmetrization(base, mode), x)
    assert (got.value, got.kind, got.notes) == (want.value, want.kind, want.notes)


# ---------------------------------------------------------------------------
# structure predicates and validation


def test_structure_predicates():
    assert is_primitive(Lp(2.0))
    assert is_primitive(Dual(Lp(2.0)))
    assert not is_primitive(Product(Lp(2.0), Lp(2.0)))
    assert not is_primitive(Multiplier(Lp(2.0), Lp(2.0)))
    assert is_primitive(Dual(LInftyWeighted(PowerWeight(0.3))))
    assert not is_primitive(Dual(LInftyWeighted(PowerLogWeight(0.3, 1.0))))
    assert is_primitive(OrliczCL(Lp(1.0), Power(1.0, 2.0)))

    assert is_symmetric(Lp(2.0))
    assert not is_symmetric(Lp(2.0, PowerWeight(0.5)))
    assert is_symmetric(Lp(2.0, PowerWeight(0.0, 3.0)))
    assert is_symmetric(Marcinkiewicz(PowerWeight(0.3)))
    assert not is_symmetric(LInftyWeighted(PowerWeight(0.5)))
    assert is_symmetric(Symmetrization(Lp(2.0, PowerWeight(0.5)), "star"))
    assert is_symmetric(Product(Lp(2.0), Lp(3.0)))
    assert not is_symmetric(Product(Lp(2.0, PowerWeight(1.0)), Lp(3.0)))


def test_descriptor_validation_errors():
    with pytest.raises(ValueError):
        Lp(0.5)
    with pytest.raises(ValueError):
        LorentzLambdaP(PowerWeight(0.5), 0.0)
    with pytest.raises(ValueError):
        Calderon(Lp(1.0), Lp(2.0), 1.0)
    with pytest.raises(ValueError):
        Convexification(Lp(1.0), 0.0)
    with pytest.raises(ValueError):
        Symmetrization(Lp(1.0), "sorted")


def test_norm_delegates_variational_descriptors():
    rng = np.random.default_rng(22)
    ms = unit_interval(16)
    z = _random_step(rng, ms)
    res = norm(Product(Lp(2.0), Lp(2.0)), z)
    assert math.isclose(res.value, norm(Lp(1.0), z).value, rel_tol=1e-10)


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize(
    "space",
    [
        Lp(2.0),
        Lp(math.inf),
        Lp(2.5, PowerWeight(0.3, 2.0)),
        LorentzLambda(PowerWeight(0.6)),
        LorentzLambdaP(PowerWeight(0.5), 4.0),
        Marcinkiewicz(PowerWeight(0.3)),
        MarcinkiewiczStar(PowerWeight(0.3)),
        LInftyWeighted(PowerWeight(0.5)),
        OrliczCL(Lp(1.0), Power(2.0, 2.0)),
        Calderon(Lp(1.0), Lp(3.0), 0.25),
        Product(Lp(2.0), Marcinkiewicz(PowerWeight(0.5))),
        Multiplier(Lp(2.0), Lp(4.0)),
        Dual(LorentzLambda(PowerWeight(0.6))),
        Convexification(Lp(2.0), 1.5),
        Symmetrization(Lp(2.0, PowerWeight(0.5)), "doublestar"),
    ],
)
def test_space_json_round_trip(space):
    assert space_from_json(space_to_json(space)) == space


def test_space_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        space_from_json({"kind": "banach"})
    with pytest.raises(TypeError):
        space_to_json(42)


def test_compile_cache_is_a_bounded_lru(monkeypatch):
    monkeypatch.setattr(spaces, "_COMPILE_CACHE", OrderedDict())
    hot_grid = unit_interval(8)
    hot = norm_evaluator(Lp(2.0), hot_grid)
    for n in range(1, 1101):
        norm_evaluator(Lp(2.0), counting(n))  # a new grid: a miss every time
        assert norm_evaluator(Lp(2.0), hot_grid) is hot
        assert len(spaces._COMPILE_CACHE) <= spaces._COMPILE_CACHE_CAP
    assert len(spaces._COMPILE_CACHE) == spaces._COMPILE_CACHE_CAP
