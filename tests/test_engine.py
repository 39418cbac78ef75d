"""The optimizer engines against serial oracles.

The product oracle is the multi-start coordinate descent that the BFGS
engine replaced, run one start at a time: each golden step makes one
objective call on one row, and the starts are taken in rank order.  The
engine takes other steps, so its witnesses differ; its value must be at
or below the oracle's (relative 1e-9), its witness must recompute
through ``norm``, and its kind must be no weaker.  The ratio ascent
oracle is the serial coordinate ascent that the engine also replaced
there, from the best family member alone, with the monotone
reparametrization it took for symmetric pairs: over the family alone
the engine's values, kinds and notes must be its oracle's to the last
bit, and the ascent's value at or above the oracle's (relative 1e-10).
"""

import dataclasses
import math

import numpy as np
import pytest

from bfslab import (
    Convexification,
    LInftyWeighted,
    LorentzLambda,
    LorentzLambdaP,
    Lp,
    Marcinkiewicz,
    MarcinkiewiczStar,
    OrliczCL,
    Power,
    PowerWeight,
    Product,
    ShiftedPower,
    StepFunction,
    Symmetrization,
    calderon_norm,
    counting,
    dual_norm_numeric,
    half_line,
    lozanovskii_factorize,
    multiplier_norm,
    norm,
    product_norm,
    unit_interval,
    weak_lp,
)
from bfslab import product as P
from bfslab import spaces as S
from bfslab.verify import run_suite
from bfslab.weights import PowerLogWeight, WeightProduct

_FAST = {"max_sweeps": 300, "quick_sweeps": 25, "golden_iters": 10}
_FULL_STARTS = 3  # the oracle's leading starts, which get the full budget

# ---------------------------------------------------------------------------
# the serial oracle: one start, one row, one objective call at a time


def _golden_coordinate(f1, center, span, iters):
    a, b = center - span, center + span
    c = b - P._GOLDEN * (b - a)
    d = a + P._GOLDEN * (b - a)
    fc, fd = f1(c), f1(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - P._GOLDEN * (b - a)
            fc = f1(c)
        else:
            a, c, fc = c, d, fd
            d = a + P._GOLDEN * (b - a)
            fd = f1(d)
    return (c, fc) if fc < fd else (d, fd)


def _descend(J, u0, o, budget):
    u = u0.copy()
    best = J(u)
    converged = False
    for _ in range(budget):
        prev = best
        for i in range(u.size):
            center = u[i]

            def slice_fn(t, _i=i):
                u[_i] = t
                val = J(u)
                u[_i] = center
                return val

            t_new, f_new = _golden_coordinate(slice_fn, center, P._SPAN, o["golden_iters"])
            if f_new < best:
                u[i] = t_new
                best = f_new
        if o["target"] is not None and best <= o["target"]:
            converged = True
            break
        if prev - best <= P._SWEEP_RTOL * max(abs(prev), 1e-300):
            converged = True
            break
    return u, best, converged


def _split(u, supp, zs):
    eu = np.exp(np.clip(u, -60.0, 60.0))
    xv = np.zeros(supp.size)
    yv = np.zeros(supp.size)
    xv[supp] = eu
    yv[supp] = zs / eu
    return xv, yv


def _optimize_product(E, F, z, o):
    mspace = z.space
    supp = z.values > 0.0
    zs = z.values[supp]
    fe = P._norm_fn(E, mspace).fn
    ff = P._norm_fn(F, mspace).fn

    def J(u):
        xv, yv = _split(u, supp, zs)
        val = fe(xv) * ff(yv)
        return val if math.isfinite(val) else math.inf

    seeds = P._seed_vectors(E, F, zs, mspace.breakpoints[1:][supp])
    scored = sorted(range(len(seeds)), key=lambda i: (J(seeds[i]), i))
    best_u, best_val, any_converged = None, math.inf, False
    for rank, idx in enumerate(scored):
        budget = o["max_sweeps"] if rank < _FULL_STARTS else min(o["quick_sweeps"], o["max_sweeps"])
        u, val, conv = _descend(J, seeds[idx], o, budget)
        if val < best_val:
            best_u, best_val = u, val
            any_converged = conv
        if o["target"] is not None and best_val <= o["target"]:
            any_converged = True
            break
    xv, yv = _split(best_u, supp, zs)
    return StepFunction(mspace, xv), StepFunction(mspace, yv), any_converged


def _monotone_embed(v):
    u = np.empty_like(v)
    u[0] = v[0]
    if v.size > 1:
        u[1:] = v[0] - np.cumsum(np.maximum(v[1:], 0.0))
    return u


def _ratio_ascent(E, F, m, family, o, ascent=True):
    # one point per call, from the best member alone; symmetric pairs
    # search only non-increasing y, through the monotone embedding
    mspace = m.space
    den_fn, num_fn = P._norm_fn(E, mspace).fn, P._norm_fn(F, mspace).fn
    monotone = S.is_symmetric(E) and S.is_symmetric(F)

    def ratio(vals):
        d = den_fn(vals)
        if not (d > 0.0 and math.isfinite(d)):
            return 0.0
        r = num_fn(m.values * vals) / d
        return r if math.isfinite(r) else math.inf

    best_vals, best = None, 0.0
    for vals in family:
        r = ratio(np.asarray(vals, dtype=float))
        if r > best:
            best, best_vals = r, np.asarray(vals, dtype=float)
    if best_vals is None:
        return 0.0
    if best >= P._RATIO_CAP:
        return math.inf
    if not ascent:
        return best
    o = dict(o, target=None)
    pos = best_vals > 0
    u0 = np.log(best_vals[pos])

    def J(params):
        u = _monotone_embed(params) if monotone else params
        vals = np.zeros(mspace.n_cells)
        vals[pos] = np.exp(np.clip(u, -60.0, 60.0))
        return -ratio(vals)

    if monotone:
        v = np.empty_like(u0)
        v[0] = u0[0]
        if u0.size > 1:
            v[1:] = np.maximum(u0[:-1] - u0[1:], 0.0)
        u0 = v
    _, neg, _ = _descend(J, u0, o, min(o["max_sweeps"], 200))
    best = max(best, -neg)
    return math.inf if best >= P._RATIO_CAP else best


# ---------------------------------------------------------------------------
# helpers


def _profile(mspace, seed, gamma=0.3):
    rng = np.random.default_rng(seed)
    n = mspace.n_cells
    vals = np.sort(rng.uniform(0.05, 2.0, n))[::-1] * np.arange(1, n + 1) ** -gamma
    return StepFunction(mspace, vals)


def _both(monkeypatch, name, oracle, call):
    """``call()`` with the engine, then with ``name`` swapped for the oracle."""
    got = call()
    with monkeypatch.context() as m:
        m.setattr(P, name, oracle)
        want = call()
    return got, want


def _optimizer_product(E, F, z, opts):
    """``product_norm``'s optimizer branch, run directly: ``product_norm``
    gives a pair with a sup-type factor the cell-order split instead, and
    Λ ⊙ Λ or M ⊙ Λ the pooled split."""
    Ec, Fc = S.canonical(E), S.canonical(F)
    return P._bound(Ec, Fc, "optimizer", *P._optimize_product(Ec, Fc, z, P._merge_opts(opts)))


_RANK = {"estimate": 0, "upper_bound": 1, "exact": 2}


def _certified_witness(E, F, z, value, wit):
    """The witness splits z and recomputes to ``value`` through ``norm``."""
    supp = z.values > 0
    np.testing.assert_allclose(wit.x.values * wit.y.values, z.values, rtol=1e-12, atol=0.0)
    assert np.all(wit.x.values[~supp] == 0.0) and np.all(wit.y.values[~supp] == 0.0)
    nx, ny = norm(E, wit.x), norm(F, wit.y)
    assert math.isclose(nx.value * ny.value, value, rel_tol=1e-12)


def _never_above_the_oracle(monkeypatch, E, F, z, call, methods=("optimizer",)):
    """``call()`` with the engine and with the serial oracle: the engine's
    value is at or below the oracle's, its witness certifies it, and its
    kind is no weaker.  Both witnesses come from one of ``methods``.
    Returns the engine's (result, witness)."""
    (res, wit), (res0, wit0) = _both(monkeypatch, "_optimize_product", _optimize_product, call)
    assert wit.method in methods and wit0.method in methods, (wit.method, wit0.method)
    assert res.value <= res0.value * (1.0 + 1e-9), (res.value, res0.value)
    _certified_witness(E, F, z, res.value, wit)
    assert _RANK[res.kind] >= _RANK[res0.kind], (res.kind, res0.kind)
    return res, wit


PW = PowerWeight
THEOREM_PAIRS = {
    "thm7_lambda_mstar": (LorentzLambda(PW(0.5)), MarcinkiewiczStar(PW(0.3))),
    "thm7_lambdap_mstar": (LorentzLambdaP(PW(0.5), 1.0), MarcinkiewiczStar(PW(0.3))),
    "thm10_marc_mstar": (Marcinkiewicz(PW(0.3)), MarcinkiewiczStar(PW(0.4))),
    "thm10_marc_lambda": (Marcinkiewicz(PW(0.3)), LorentzLambda(PW(0.4))),
    "ex3_weak_mstar": (weak_lp(4.0), MarcinkiewiczStar(PW(0.25))),
    "lemma4_calderon": (Convexification(Lp(1.0, PW(-0.4)), 2.0), Convexification(LInftyWeighted(PW(0.4)), 2.0)),
    "thm7_lambdap_lambdap": (LorentzLambdaP(PW(0.5), 1.0), LorentzLambdaP(PW(0.3), 1.0)),
    "orlicz_pair": (OrliczCL(Lp(1.0), ShiftedPower(0.4, 1.0, 2.0)), OrliczCL(Lp(1.0), Power(1.0, 2.0))),
    # a Λ over a non-power weight; and a Λ against a weighted sup, the one kernel of its pair that sorts nothing
    "generic_lambda_mstar": (LorentzLambda(PowerLogWeight(0.5, 1.0)), MarcinkiewiczStar(PW(0.3))),
    "mixed_lambda_wsup": (LorentzLambda(PW(0.5)), LInftyWeighted(PW(0.3))),
    # the cubic gauge has no subgradient: the engine takes forward differences of its kernel
    "fd_orlicz_cubic": (OrliczCL(Lp(1.0), ShiftedPower(0.3, 1.0, 3.0)), Lp(2.0)),
}
# the Orlicz pairs run where the gauges benchmark runs its pair: a gauge
# kernel costs ~9x a sorted-profile kernel per batch of 16 rows at n = 8
_PAIR_GRIDS = {"orlicz_pair": ("unit8",), "fd_orlicz_cubic": ("unit8",)}
# pairs with an M* or weighted-sup factor: product_norm takes the cell-order split, which the oracle checks directly
_SUP_PAIRS = {
    "thm7_lambda_mstar",
    "thm7_lambdap_mstar",
    "thm10_marc_mstar",
    "ex3_weak_mstar",
    "lemma4_calderon",
    "mixed_lambda_wsup",
}
# a shifted-power gauge over L^1 with a Lebesgue partner: product_norm solves its Lagrange conditions, so the oracle checks the optimizer directly
_MODULAR_PAIRS = {"orlicz_pair", "fd_orlicz_cubic"}
# Λ ⊙ Λ and M ⊙ Λ over powers: product_norm takes the pooled split its dual bound certifies, so the oracle checks the optimizer directly
_POOLED_PAIRS = {"thm10_marc_lambda", "thm7_lambdap_lambdap"}
# a sup pair whose partner is no lattice norm: product_norm runs the split and the optimizer, and keeps the lower
_SPLIT_OR_OPTIMIZER = {"generic_lambda_mstar"}
_GRIDS = {"unit16": lambda: unit_interval(16), "half16": lambda: half_line(16), "unit8": lambda: unit_interval(8)}


# ---------------------------------------------------------------------------
# product norms


def _pair_profile(pair, grid):
    ms = _GRIDS[grid]()
    return _profile(ms, seed=len(pair) + (7 if grid == "half16" else 0), gamma=0.3 if grid == "unit16" else 0.15)


def _no_optimizer(*args):
    raise AssertionError("the split runs no optimizer")


def _split_never_above_the_oracle(monkeypatch, E, F, z):
    """``product_norm``'s cell-order split, with the optimizer swapped for
    a stub that fails, against the serial oracle run directly: the
    split's value is at or below the oracle's, its witness certifies it,
    and its kind is no weaker."""
    with monkeypatch.context() as m:
        m.setattr(P, "_optimize_product", _no_optimizer)
        res, wit = product_norm(E, F, z, dict(_FAST))
    Ec, Fc = S.canonical(E), S.canonical(F)
    res0 = P._bound(Ec, Fc, "optimizer", *_optimize_product(Ec, Fc, z, P._merge_opts(dict(_FAST))))[0]
    assert wit.method == "constructive"
    assert res.value <= res0.value * (1.0 + 1e-9), (res.value, res0.value)
    _certified_witness(E, F, z, res.value, wit)
    assert _RANK[res.kind] >= _RANK[res0.kind], (res.kind, res0.kind)


@pytest.mark.parametrize(
    "pair, grid",
    [(pair, grid) for pair in sorted(THEOREM_PAIRS) for grid in _PAIR_GRIDS.get(pair, ("half16", "unit16"))],
)
def test_product_norm_is_never_above_the_serial_oracle(monkeypatch, pair, grid):
    E, F = THEOREM_PAIRS[pair]
    z = _pair_profile(pair, grid)
    if pair in _SUP_PAIRS:
        _split_never_above_the_oracle(monkeypatch, E, F, z)
        return
    constructive = pair in _MODULAR_PAIRS or pair in _POOLED_PAIRS
    run = _optimizer_product if constructive else product_norm
    methods = ("optimizer", "constructive") if pair in _SPLIT_OR_OPTIMIZER else ("optimizer",)
    _never_above_the_oracle(monkeypatch, E, F, z, lambda: run(E, F, z, dict(_FAST)), methods)
    if constructive:
        assert product_norm(E, F, z)[1].method == "constructive"


def _one_candidate(monkeypatch, E, F, z, note):
    """``product_norm`` of a sup pair whose partner is no lattice norm: the
    lower of the cell-order split and the optimizer's bound, an estimate
    with the partner kernel's note.  Returns the winning method."""
    res, wit = product_norm(E, F, z, dict(_FAST))
    optimized = _optimizer_product(E, F, z, dict(_FAST))[0]
    with monkeypatch.context() as m:
        m.setattr(P, "_norm_fn", lambda sp, ms, fn=P._norm_fn: dataclasses.replace(fn(sp, ms), lattice=True))
        m.setattr(P, "_optimize_product", _no_optimizer)
        split, split_wit = product_norm(E, F, z, dict(_FAST))
    assert split_wit.method == "constructive"
    assert res.value == min(split.value, optimized.value)
    assert res.kind == "estimate" and note in res.notes
    _certified_witness(E, F, z, res.value, wit)
    return wit.method


@pytest.mark.parametrize("grid", ["half16", "unit16"])
def test_a_split_whose_partner_is_no_lattice_norm_is_one_candidate(monkeypatch, grid):
    # Λ over a falling weight is no lattice norm, so the cell-order split
    # need not be least: on unit16 it lies 2 % above the optimizer's bound,
    # on half16 below it, and product_norm returns the lower of the two
    E, F = THEOREM_PAIRS["generic_lambda_mstar"]
    z = _pair_profile("generic_lambda_mstar", grid)
    method = _one_candidate(monkeypatch, E, F, z, "weight fails the sampled quasi-concavity check: not a lattice norm")
    assert method == ("optimizer" if grid == "unit16" else "constructive")


@pytest.mark.parametrize("grid", ["half16", "unit16"])
def test_a_lorentz_p_partner_whose_phi_p_is_not_quasi_concave_is_one_candidate(monkeypatch, grid):
    # Λ_{t^0.8, 2}: t^1.6 is not quasi-concave, so the kernel is no norm
    # and the optimizer runs beside the split (which wins on both grids)
    E, F = LorentzLambdaP(PW(0.8), 2.0), MarcinkiewiczStar(PW(0.3))
    z = _pair_profile("lambdap_mstar", grid)
    assert _one_candidate(monkeypatch, E, F, z, "phi^p not quasi-concave: not a norm") == "constructive"


def test_a_non_power_mstar_pair_is_never_above_the_serial_oracle(monkeypatch):
    # J over M* is not convex: one run from the best seed ended 2.1 % above
    # the oracle on this z; product_norm takes the cell-order split, which
    # runs no optimizer and lies below the oracle
    E, F = LorentzLambda(PW(0.5)), MarcinkiewiczStar(PowerLogWeight(0.3, 0.5))
    _split_never_above_the_oracle(monkeypatch, E, F, _profile(unit_interval(16), seed=0))


def test_the_calderon_space_of_a_non_power_mstar_takes_the_sup_split():
    # canonical rewrites the 2-convexification of M*_ψ as M*_{ψ^(1/2)} for
    # a PowerLogWeight ψ too, so the convexified pair is a sup pair
    E, F = LorentzLambda(PW(0.5)), MarcinkiewiczStar(PowerLogWeight(0.3, 0.5))
    z = StepFunction(unit_interval(16), np.exp(-0.25 * np.arange(16)) * (1 + 0.5 * np.sin(np.arange(16))))
    res = calderon_norm(E, F, 0.5, z, opts=dict(_FAST))
    assert res.witness.method == "constructive" and res.kind == "upper_bound"
    opt = _optimizer_product(Convexification(E, 2.0), Convexification(F, 2.0), z, dict(_FAST))[0]
    assert res.value <= opt.value * (1.0 + 1e-12), (res.value, opt.value)


_CONVEXIFIED_SUP_BASES = {
    "mstar": MarcinkiewiczStar,
    "weighted_sup": LInftyWeighted,
    "lp_inf": lambda w: Lp(math.inf, w),
}


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("base", sorted(_CONVEXIFIED_SUP_BASES))
def test_a_convexified_sup_over_any_weight_takes_the_sup_split(monkeypatch, base, n):
    # canonical keeps the 2-convexification of a sup over a weight that is
    # neither a power nor a PowerLogWeight; it is the sup over the root
    # weight, so the split takes it and runs no optimizer
    w = WeightProduct(PW(0.2), PowerLogWeight(0.1, 0.5))
    E, F = Convexification(_CONVEXIFIED_SUP_BASES[base](w), 2.0), LorentzLambda(PW(0.6))
    assert isinstance(S.canonical(E), Convexification)
    z = StepFunction(unit_interval(n), np.exp(-4.0 * np.arange(n) / n) * (1 + 0.5 * np.sin(np.arange(n))))
    _split_never_above_the_oracle(monkeypatch, E, F, z)


def _dead_cells_never_above_the_oracle(monkeypatch, E, F):
    ms = counting(12)
    vals = _profile(ms, seed=3).values.copy()
    vals[[2, 7, 11]] = 0.0
    z = StepFunction(ms, vals)
    _never_above_the_oracle(monkeypatch, E, F, z, lambda: _optimizer_product(E, F, z, dict(_FAST)))


def test_product_norm_with_dead_cells_is_never_above_the_serial_oracle(monkeypatch):
    _dead_cells_never_above_the_oracle(monkeypatch, Convexification(LorentzLambda(PW(0.5)), 2.0), MarcinkiewiczStar(PW(0.3)))


def test_a_profile_pair_with_dead_cells_is_never_above_the_serial_oracle(monkeypatch):
    # the shared sort of the x and y stack, with zeros off the support of z
    _dead_cells_never_above_the_oracle(monkeypatch, LorentzLambda(PW(0.5)), MarcinkiewiczStar(PW(0.3)))


def _m_lambda_methods(monkeypatch, suite):
    """Run ``suite`` and return (method, kind) of each of its M ⊙ Λ bounds."""
    seen, bound = [], P._bound

    def recorded(E, F, method, *args, **kw):
        res, wit = bound(E, F, method, *args, **kw)
        if isinstance(E, Marcinkiewicz) and isinstance(F, LorentzLambda):
            seen.append((method, res.kind))
        return res, wit

    with monkeypatch.context() as m:
        m.setattr(P, "_bound", recorded)
        assert run_suite(suite, seed=7).passed
    return seen


@pytest.mark.parametrize("suite", ["theorem10", "example3_4"])
def test_every_m_lambda_product_of_a_suite_converges(monkeypatch, suite):
    # M ⊙ Λ ends where M_φ's sup ties over several prefixes and BFGS
    # crawls: coordinate descent carries each run on to the tolerance;
    # without the pooled split, every such product runs the optimizer
    with monkeypatch.context() as m:
        m.setattr(P, "_pooled_split", lambda E, F, z: None)
        kinds = _m_lambda_methods(monkeypatch, suite)
    assert kinds and set(kinds) == {("optimizer", "upper_bound")}
    # product_norm itself takes the pooled split on every one
    assert set(_m_lambda_methods(monkeypatch, suite)) == {("constructive", "upper_bound")}


def _sweeps_of(monkeypatch, pair, grid):
    """``product_norm``'s optimizer branch on a ``THEOREM_PAIRS`` pair and
    its profile: (result, the number of ``_coordinate_descent`` calls it
    made)."""
    calls, descent = [], P._coordinate_descent
    monkeypatch.setattr(P, "_coordinate_descent", lambda *a, **kw: calls.append(1) or descent(*a, **kw))
    res, wit = _optimizer_product(*THEOREM_PAIRS[pair], _pair_profile(pair, grid), dict(_FAST))
    assert wit.method == "optimizer"
    return res, len(calls)


def test_bfgs_at_a_smooth_minimum_ends_the_run_without_a_sweep(monkeypatch):
    # the Orlicz pair's J is smooth: BFGS stops on its window with a small
    # gradient, the evidence a converged coordinate sweep would give
    res, sweeps = _sweeps_of(monkeypatch, "orlicz_pair", "unit8")
    assert (res.kind, sweeps) == ("upper_bound", 0)
    # product_norm itself solves the pair's Lagrange conditions
    assert product_norm(*THEOREM_PAIRS["orlicz_pair"], _pair_profile("orlicz_pair", "unit8"))[1].method == "constructive"


@pytest.mark.parametrize("grid", ["half16", "unit16"])
def test_bfgs_at_a_kink_still_hands_over_to_coordinate_descent(monkeypatch, grid):
    # M ⊙ Λ ends where M_φ's sup ties over several prefixes: BFGS stops with a large subgradient
    res, sweeps = _sweeps_of(monkeypatch, "thm10_marc_lambda", grid)
    assert res.kind == "upper_bound" and sweeps >= 1


def _objective_calls(monkeypatch, E, F, ms):
    """The product objective (J, fg) of (E, F) on ``ms``, and the list that
    records, in order, its kernel calls ((fn or grad, argument type)) and
    the sorts they make (("sort", row shape))."""
    events = []
    sort = S._decreasing_profile

    def counted_sort(values, widths):
        events.append(("sort", values.shape))
        return sort(values, widths)

    monkeypatch.setattr(S, "_decreasing_profile", counted_sort)
    for space in (E, F):
        compiled = P._norm_fn(space, ms)
        for name in ("fn", "grad"):
            inner = getattr(compiled, name)
            if inner is not None:
                monkeypatch.setattr(compiled, name, lambda v, f=inner, n=name: events.append((n, type(v))) or f(v))
    J, fg, _ = P._objective(S.canonical(E), S.canonical(F), _profile(ms, seed=1))
    return J, fg, events


def test_each_kernel_of_a_profile_pair_sorts_its_own_values(monkeypatch):
    # J calls each fn once and fg each grad once, on its half of the
    # [x, y] stack; each kernel sorts that half itself, and product.py sorts nothing
    ms = unit_interval(16)
    J, fg, events = _objective_calls(monkeypatch, *THEOREM_PAIRS["thm7_lambda_mstar"], ms)
    J(np.zeros((5, 16)))
    assert events == [("fn", np.ndarray), ("sort", (5, 16))] * 2
    del events[:]
    fg(np.zeros(16))
    assert events == [("grad", np.ndarray), ("sort", (16,))] * 2
    assert not hasattr(P, "_decreasing_profile")


def test_a_pair_with_a_values_kernel_hands_each_kernel_its_values(monkeypatch):
    # the Λ kernel sorts its own rows; the weighted sup needs no sort
    ms = unit_interval(16)
    J, fg, events = _objective_calls(monkeypatch, *THEOREM_PAIRS["mixed_lambda_wsup"], ms)
    J(np.zeros((5, 16)))
    assert events == [("fn", np.ndarray), ("sort", (5, 16)), ("fn", np.ndarray)]
    del events[:]
    fg(np.zeros(16))
    assert events == [("grad", np.ndarray), ("sort", (16,)), ("grad", np.ndarray)]


def test_a_kernel_without_a_subgradient_takes_one_call_of_forward_differences(monkeypatch):
    # the cubic gauge has no grad: its slopes come from one call of m + 1 rows
    ms = unit_interval(8)
    J, fg, events = _objective_calls(monkeypatch, *THEOREM_PAIRS["fd_orlicz_cubic"], ms)
    u = np.log(_profile(ms, seed=1).values) / 2.0
    f, g = fg(u)
    assert events == [("fn", np.ndarray), ("grad", np.ndarray)]
    # against central differences of log J
    h = 1e-5
    num = [(math.log(J((u + h * e)[None])[0]) - math.log(J((u - h * e)[None])[0])) / (2 * h) for e in np.eye(8)]
    np.testing.assert_allclose(g, num, rtol=0, atol=1e-6)
    assert math.isclose(f, math.log(J(u[None])[0]), rel_tol=1e-14)


def test_one_sweep_stays_an_estimate_and_is_never_above_the_oracle(monkeypatch):
    E, F = LorentzLambdaP(PW(0.5), 1.0), LorentzLambdaP(PW(0.3), 1.0)
    z = _profile(unit_interval(16), seed=11)
    opts = dict(_FAST, max_sweeps=1)
    res, _ = _never_above_the_oracle(monkeypatch, E, F, z, lambda: _optimizer_product(E, F, z, dict(opts)))
    assert res.kind == "estimate"
    assert "optimizer stopped before the improvement tolerance" in res.notes
    # product_norm takes the pooled split, which needs no sweep
    assert product_norm(E, F, z, opts=dict(opts))[1].method == "constructive"


@pytest.mark.parametrize("alpha", [0.3, 0.6])
def test_lozanovskii_target_exit_stays_within_epsilon(monkeypatch, alpha):
    # the run stops at the target, (1 + 0.9 eps) times the mass: it may
    # end above the oracle's value, never above (1 + eps) times the mass
    E, eps = LorentzLambda(PW(alpha)), 0.05
    z = _profile(unit_interval(16), seed=int(10 * alpha))
    l1 = float(np.sum(z.values * z.space.widths))
    for pooled in (False, True):
        with monkeypatch.context() as m:
            if not pooled:  # the optimizer branch, as product_norm ran it before the pooled split
                m.setattr(P, "_pooled_split", lambda E, F, z: None)
            wit = lozanovskii_factorize(E, z, eps, opts=dict(_FAST))
        assert wit.method == ("constructive" if pooled else "optimizer") and "not_within_epsilon" not in wit.notes
        assert l1 * (1.0 - 1e-9) <= wit.product <= (1.0 + eps) * l1
        _certified_witness(E, S.dual_descriptor(E), z, wit.product, wit)


def test_an_unreachable_target_runs_to_convergence(monkeypatch):
    # a target below the Hölder floor is never met: the engine runs until
    # a restart gains nothing, as without a target
    E, F = LorentzLambda(PW(0.6)), Marcinkiewicz(PW(0.4))
    z = _profile(counting(10), seed=5)
    opts = dict(_FAST, max_sweeps=20, quick_sweeps=3, target=1e-6)
    res, _ = _never_above_the_oracle(monkeypatch, E, F, z, lambda: _optimizer_product(E, F, z, dict(opts)))
    untargeted = _optimizer_product(E, F, z, dict(opts, target=None))[0]
    assert (res.value, res.kind) == (untargeted.value, untargeted.kind) and res.kind == "upper_bound"
    # product_norm takes the pooled split, which reads no target
    assert product_norm(E, F, z, opts=dict(opts))[1].method == "constructive"


# ---------------------------------------------------------------------------
# ratio ascent (k = 1)


def _ratios(monkeypatch, call):
    """``call()`` with the engine, then with the serial oracle: each run's
    result and the values its ``_ratio_ascent`` calls returned."""
    runs = []
    for ascent_fn in (P._ratio_ascent, _ratio_ascent):
        seen = []

        def recorded(*a, f=ascent_fn, seen=seen, **kw):
            seen.append(f(*a, **kw))
            return seen[-1]

        with monkeypatch.context() as m:
            m.setattr(P, "_ratio_ascent", recorded)
            runs.append((call(), seen))
    return runs


RATIO_CASES = [
    (Lp(6.0), Lp(1.5), "count8"),
    (LorentzLambda(PW(0.3)), LorentzLambda(PW(0.6)), "unit16"),
    # a kinked target: BFGS ends off a smooth maximum and the coordinate polish runs
    (Lp(2.0, PW(0.2)), LInftyWeighted(PW(0.5)), "unit16"),
]


@pytest.mark.parametrize("E, F, grid", RATIO_CASES)
def test_multiplier_over_the_family_matches_the_oracle(monkeypatch, E, F, grid):
    ms = counting(8) if grid == "count8" else unit_interval(16)
    m = StepFunction(ms, np.random.default_rng(ms.n_cells).uniform(0.1, 3.0, ms.n_cells))
    (got, _), (want, _) = _ratios(
        monkeypatch, lambda: multiplier_norm(E, F, m, opts=dict(_FAST), ascent=False, use_table=False)
    )
    assert (got.value.hex(), got.kind, got.notes) == (want.value.hex(), want.kind, want.notes)
    assert type(got.value) is float


@pytest.mark.parametrize("E, F, grid", RATIO_CASES)
def test_multiplier_ratio_ascent_is_never_below_the_oracle(monkeypatch, E, F, grid):
    ms = counting(8) if grid == "count8" else unit_interval(16)
    m = StepFunction(ms, np.random.default_rng(ms.n_cells).uniform(0.1, 3.0, ms.n_cells))
    (got, _), (want, _) = _ratios(
        monkeypatch, lambda: multiplier_norm(E, F, m, opts=dict(_FAST), use_table=False)
    )
    assert got.value >= want.value * (1.0 - 1e-10), (got.value, want.value)
    assert (got.kind, got.notes) == (want.kind, want.notes) == ("estimate", ("lower bound from ratio ascent",))
    assert type(got.value) is float


@pytest.mark.parametrize("E", [Lp(2.0), LInftyWeighted(PW(0.3)), LorentzLambda(PW(0.4))])
def test_dual_ratio_ascent_is_never_below_the_oracle(monkeypatch, E):
    # the dual is the multiplier ascent into L^1; the table value stands,
    # and the ascent's lower bound goes into the notes
    ms = unit_interval(12)
    y = _profile(ms, seed=4)
    (got, [lower]), (want, [lower0]) = _ratios(monkeypatch, lambda: dual_norm_numeric(E, y, opts=dict(_FAST)))
    assert (got.value, got.kind) == (want.value, want.kind)
    assert lower >= lower0 * (1.0 - 1e-10), (lower, lower0)
    assert lower <= got.value * (1.0 + 1e-9)
    assert f"numeric ascent lower bound {lower:.12g}" in got.notes[-1]


def test_a_ratio_ascent_from_a_kinked_stationary_member_still_sweeps():
    # from y = 1/m, m y ties on every cell, and the weighted sup's
    # subgradient there makes the log ratio look stationary (a gradient
    # that rounds off 0); yet y is no maximum: over one sup norm the sup of
    # |m y| / |y| is max m.  BFGS stops before its first step, and only the
    # coordinate sweep it hands over to climbs off the kink
    W = LInftyWeighted(PW(0.3))
    m = StepFunction(half_line(9), np.array([1.1, 1.1, 1.1, 0.85, 0.75, 0.75, 1.1, 1.1, 0.75]))
    assert P._ratio_ascent(W, W, m, [1.0 / m.values], P._merge_opts(None), ascent=False) < 0.76
    best = P._ratio_ascent(W, W, m, [1.0 / m.values], P._merge_opts(None))
    assert math.isclose(best, 1.1, rel_tol=1e-9), best


def test_ratio_ascent_passes_a_family_that_is_not_optimal():
    # m is not monotone, so no member of the family is extremal: the ascent
    # climbs 7 % above the family's best, to within the identification's
    # two-sided constants (1, 1/a) of the table value (1.1455), a = 0.5
    E, F = LorentzLambda(PW(0.5)), LorentzLambda(PW(0.7))
    m = StepFunction(unit_interval(16), np.random.default_rng(0).uniform(0.1, 2.0, 16))
    table = multiplier_norm(E, F, m)
    family = multiplier_norm(E, F, m, ascent=False, use_table=False).value
    ascent = multiplier_norm(E, F, m, use_table=False).value
    assert "two-sided constants (1, 2)" in table.notes
    assert ascent >= 1.01 * family
    assert table.value <= ascent <= 2.0 * table.value


@pytest.mark.parametrize("E, F", [(LorentzLambda(PW(0.5)), LorentzLambda(PW(0.7))), (Lp(2.0, PW(0.2)), LInftyWeighted(PW(0.5)))])
def test_the_ratio_objective_has_the_slopes_of_its_quotient(E, F):
    # J = |y|_E / |m y|_F over u = log y: fg's log J and gradient against
    # J itself and central differences, through one shared sort or two kernels
    ms = unit_interval(8)
    m = StepFunction(ms, np.random.default_rng(1).uniform(0.5, 2.0, 8))
    J, fg, _ = P._objective(E, F, m, np.ones(8, bool), quotient=True)
    u = np.random.default_rng(2).normal(size=8)
    f, g = fg(u)
    y = np.exp(u)
    assert math.isclose(f, math.log(norm(E, StepFunction(ms, y)).value / norm(F, StepFunction(ms, m.values * y)).value), rel_tol=1e-12)
    assert math.isclose(f, math.log(J(u[None])[0]), rel_tol=1e-14)
    h = 1e-6
    num = [(math.log(J((u + h * e)[None])[0]) - math.log(J((u - h * e)[None])[0])) / (2 * h) for e in np.eye(8)]
    np.testing.assert_allclose(g, num, rtol=0, atol=1e-6)


# ---------------------------------------------------------------------------
# engine pieces


def test_coordinate_descent_stops_on_its_tolerance_and_on_its_budget():
    def J(U):
        return np.sum((U - np.array([0.3, -0.2, 0.7])) ** 2, axis=-1) + np.sum(np.abs(U), axis=-1)

    u0 = np.random.default_rng(1).normal(size=3)
    f0 = J(u0[None])[0]
    u, f, n, conv = P._coordinate_descent(J, u0, f0, 50, 10)
    assert conv and n < 50 and f == J(u[None])[0] and f < f0
    assert P._coordinate_descent(J, u0, f0, 1, 10)[2:] == (1, False)


def _quadratic_with_kinks(u):
    # convex: a smooth bowl plus |u_0 - 1| and 2 |u_1 + 0.5|; minimum at (1, -0.5, 0.25, -1)
    a = np.array([1.0, -0.5, 0.25, -1.0])
    r = u - a
    f = 0.5 * float(r @ r) + abs(u[0] - 1.0) + 2.0 * abs(u[1] + 0.5)
    g = r + np.array([np.sign(u[0] - 1.0), 2.0 * np.sign(u[1] + 0.5), 0.0, 0.0])
    return f, g


def test_bfgs_finds_the_minimum_of_a_convex_function_with_kinks():
    u0 = np.array([3.0, 2.0, -1.0, 4.0])
    u, f, g, k, smooth = P._bfgs(_quadratic_with_kinks, u0, *_quadratic_with_kinks(u0), 500, -math.inf)
    np.testing.assert_allclose(u, [1.0, -0.5, 0.25, -1.0], atol=1e-6)
    # it stops once 4 steps gain at most _BFGS_RTOL, well before its budget,
    # at a kink: its subgradient stays large, so it is no smooth minimum
    assert k < 500 and f <= 1e-8 and not smooth


def test_bfgs_runs_on_to_the_sweep_tolerance_near_a_smooth_minimum(monkeypatch):
    # sum u^4 is smooth with a flat minimum: BFGS gains little per step,
    # and only the small gradient tells it from a kink
    def quartic(u):
        return float(np.sum(u**4)), 4.0 * u**3

    u0 = np.array([1.0, -2.0, 0.5, 1.5])
    _, f, _, _, smooth = P._bfgs(quartic, u0, *quartic(u0), 500, -math.inf)
    monkeypatch.setattr(P, "_SMOOTH_GRAD", 0.0)
    _, f_window, _, _, smooth_window = P._bfgs(quartic, u0, *quartic(u0), 500, -math.inf)
    assert f <= 1e-11 < 1e-8 <= f_window
    assert smooth and not smooth_window


def test_bfgs_stops_at_the_floor_and_on_its_budget():
    u0 = np.array([3.0, 2.0, -1.0, 4.0])
    f0 = _quadratic_with_kinks(u0)[0]
    _, f, _, k, _ = P._bfgs(_quadratic_with_kinks, u0, *_quadratic_with_kinks(u0), 500, 0.5 * f0)
    assert f <= 0.5 * f0 and k < 10
    _, _, _, k, smooth = P._bfgs(_quadratic_with_kinks, u0, *_quadratic_with_kinks(u0), 2, -math.inf)
    assert k == 2 and not smooth


def test_a_line_search_along_an_ascent_direction_finds_no_step():
    u0 = np.array([3.0, 2.0, -1.0, 4.0])
    f0, g0 = _quadratic_with_kinks(u0)
    assert P._line_search(_quadratic_with_kinks, u0, f0, g0, g0) is None
    t, f, _ = P._line_search(_quadratic_with_kinks, u0, f0, g0, -g0)
    assert t > 0 and f < f0


# ---------------------------------------------------------------------------
# the look-ahead line search against the serial one


def _bumps_with_a_wall(U):
    # +inf beyond a wall on coordinate 0, a bumpy bowl elsewhere
    return np.where(U[:, 0] > 0.4, np.inf, np.sin(3.0 * U).sum(-1) + (U**2).sum(-1))


LINE_OBJECTIVES = {
    "constant": lambda U: np.ones(len(U)),  # every comparison ties, fc == fd
    "inf_everywhere": lambda U: np.full(len(U), np.inf),
    "bumps_with_a_wall": _bumps_with_a_wall,
}


@pytest.mark.parametrize("lookahead", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("iters", [0, 1, 2, 3, 10, 14])
@pytest.mark.parametrize("i", [0, 2])
@pytest.mark.parametrize("objective", sorted(LINE_OBJECTIVES))
def test_golden_matches_the_serial_search(objective, i, iters, lookahead):
    # lookahead 3 and 5 leave a partial last call at most iteration counts;
    # along coordinate 2 the wall on coordinate 0 stays fixed
    J = LINE_OBJECTIVES[objective]
    starts = np.random.default_rng(10 * iters + lookahead).normal(size=(5, 3))
    starts[0, 0] = 0.4  # on the wall: along coordinate 0, half the bracket is +inf
    for u0 in starts:

        def f1(x, u0=u0):
            u = u0.copy()
            u[i] = x
            return float(J(u[None])[0])

        t, f = P._golden(J, u0.copy(), i, iters, lookahead)
        tc, fc = _golden_coordinate(f1, u0[i], P._SPAN, iters)
        assert (t.hex(), f.hex()) == (tc.hex(), fc.hex())


def _golden_call_sizes(lookahead):
    calls = []

    def J(U):
        calls.append(len(U))
        return _bumps_with_a_wall(U)

    P._golden(J, np.random.default_rng(3).normal(size=3), 1, 10, lookahead)
    return calls


def test_golden_looks_ahead_several_steps_per_call():
    # 16 probes for c, d and three steps, 15 for four steps, 7 for the last three
    assert _golden_call_sizes(P._LOOKAHEAD) == [16, 15, 7]


def test_row_by_row_kernels_keep_one_golden_step_per_call():
    # a batch of a row-by-row kernel costs one call per row, so looking
    # ahead would only add rows: such objectives step once per call
    ms = counting(8)
    assert P._lookahead(P._norm_fn(Lp(2.0), ms)) == P._LOOKAHEAD
    assert P._lookahead(P._norm_fn(Lp(2.0), ms), P._norm_fn(Product(Lp(2.0), LorentzLambda(PowerWeight(0.5))), ms)) == 1
    # a convexification runs its base's kernel, row by row when the base does
    assert P._lookahead(P._norm_fn(Convexification(Lp(1.0), 0.5), ms)) == P._LOOKAHEAD
    rowwise = P._norm_fn(Convexification(Symmetrization(Lp(2.0), "doublestar"), 2.0), ms)
    assert rowwise.rowwise and P._lookahead(rowwise) == 1
    assert _golden_call_sizes(P._lookahead(rowwise)) == [2] + [1] * 10


def test_an_orlicz_gauge_over_a_row_by_row_base_runs_row_by_row():
    gauge = OrliczCL(Symmetrization(Lp(2.0), "doublestar"), ShiftedPower(0.3, 1.0, 2.0))
    assert P._norm_fn(gauge, unit_interval(8)).rowwise


def test_a_convexified_gauge_batches_like_the_gauge():
    space = Convexification(OrliczCL(Lp(1.0), ShiftedPower(0.3, 1.0, 2.0)), 2.0)
    assert not P._norm_fn(space, unit_interval(8)).rowwise


def test_a_kernel_keeps_its_rowwise_flag_when_its_fn_is_wrapped(monkeypatch):
    # a tracer swaps each kernel's fn for a plain timing wrapper; the
    # look-ahead must still schedule the traced run as the untraced one
    ms = unit_interval(8)
    for space, rowwise in (
        (OrliczCL(Lp(1.0), ShiftedPower(0.3, 1.0, 2.0)), False),
        (OrliczCL(Symmetrization(Lp(2.0), "doublestar"), ShiftedPower(0.3, 1.0, 2.0)), True),
    ):
        compiled = P._norm_fn(space, ms)
        inner = compiled.fn
        monkeypatch.setattr(compiled, "fn", lambda values, inner=inner: inner(values))
        assert P._norm_fn(space, ms).fn is not inner
        assert P._norm_fn(space, ms).rowwise is rowwise
