"""The lockstep descent engine against a serial oracle.

The oracle is the one-start-at-a-time coordinate descent the engine
replaced: each start descends alone, each golden step makes one
objective call on one row, and the starts are taken in rank order.  The
engine runs all starts at once on (k, n) kernel batches; its witnesses,
values, kinds and notes must be the oracle's to the last bit.
"""

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
    counting,
    dual_norm_numeric,
    half_line,
    lozanovskii_factorize,
    multiplier_norm,
    product_norm,
    unit_interval,
    weak_lp,
)
from bfslab import product as P
from bfslab import spaces as S
from bfslab.weights import PowerLogWeight

_FAST = {"max_sweeps": 300, "quick_sweeps": 25, "golden_iters": 10}

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
        budget = o["max_sweeps"] if rank < P._FULL_STARTS else min(o["quick_sweeps"], o["max_sweeps"])
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


def _ratio_ascent(num_fn, den_fn, mspace, family, o, monotone, call_rows, ascent=True):
    # one point per call: the serial oracle has no look-ahead to schedule by call_rows
    def ratio(vals):
        d = den_fn(vals)
        if not (d > 0.0 and math.isfinite(d)):
            return 0.0
        r = num_fn(vals) / d
        return r if math.isfinite(r) else math.inf

    best_vals, best = None, 0.0
    for vals in family:
        r = ratio(np.asarray(vals, dtype=float))
        if r > best:
            best, best_vals = r, np.asarray(vals, dtype=float)
    if best_vals is None:
        return 0.0, None, False
    if best >= P._RATIO_CAP:
        return math.inf, best_vals, True
    if not ascent:
        return best, best_vals, False
    o = dict(o, target=None)
    pos = best_vals > 0
    if not pos.any():
        return best, best_vals, False
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
    u, neg, _ = _descend(J, u0, o, min(o["max_sweeps"], 200))
    if -neg > best:
        best = -neg
        u_final = _monotone_embed(u) if monotone else u
        best_vals = np.zeros(mspace.n_cells)
        best_vals[pos] = np.exp(np.clip(u_final, -60.0, 60.0))
    if best >= P._RATIO_CAP:
        return math.inf, best_vals, True
    return best, best_vals, False


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
    gives a pair with a sup-type factor the cell-order split instead."""
    Ec, Fc = S.canonical(E), S.canonical(F)
    return P._bound(Ec, Fc, "optimizer", *P._optimize_product(Ec, Fc, z, P._merge_opts(opts)))


def _same_witness(a, b):
    return (
        np.array_equal(a.x.values, b.x.values)
        and np.array_equal(a.y.values, b.y.values)
        and (a.norm_x, a.norm_y, a.product, a.method, a.equalized, a.notes)
        == (b.norm_x, b.norm_y, b.product, b.method, b.equalized, b.notes)
    )


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
    # a non-power Λ also reads the shared profile; a weighted sup does not, so its pair's J hands each kernel its values
    "generic_lambda_mstar": (LorentzLambda(PowerLogWeight(0.5, 1.0)), MarcinkiewiczStar(PW(0.3))),
    "mixed_lambda_wsup": (LorentzLambda(PW(0.5)), LInftyWeighted(PW(0.3))),
}
# the Orlicz pair runs where the gauges benchmark runs it: its gauge
# kernel costs ~9x a sorted-profile kernel per batch of 16 rows at n = 8
_PAIR_GRIDS = {"orlicz_pair": ("unit8",)}
# pairs with an M* or weighted-sup factor: the oracle checks the optimizer on them directly
_SUP_PAIRS = {
    "thm7_lambda_mstar",
    "thm7_lambdap_mstar",
    "thm10_marc_mstar",
    "ex3_weak_mstar",
    "generic_lambda_mstar",
    "lemma4_calderon",
    "mixed_lambda_wsup",
}
_GRIDS = {"unit16": lambda: unit_interval(16), "half16": lambda: half_line(16), "unit8": lambda: unit_interval(8)}


# ---------------------------------------------------------------------------
# product norms


@pytest.mark.parametrize(
    "pair, grid",
    [(pair, grid) for pair in sorted(THEOREM_PAIRS) for grid in _PAIR_GRIDS.get(pair, ("half16", "unit16"))],
)
def test_product_norm_matches_the_serial_oracle(monkeypatch, pair, grid):
    E, F = THEOREM_PAIRS[pair]
    ms = _GRIDS[grid]()
    z = _profile(ms, seed=len(pair) + (7 if grid == "half16" else 0), gamma=0.3 if grid == "unit16" else 0.15)
    run = _optimizer_product if pair in _SUP_PAIRS else product_norm
    (res, wit), (res0, wit0) = _both(monkeypatch, "_optimize_product", _optimize_product, lambda: run(E, F, z, dict(_FAST)))
    assert wit.method == "optimizer"
    assert _same_witness(wit, wit0)
    assert (res.value, res.kind, res.notes) == (res0.value, res0.kind, res0.notes)
    if pair in _SUP_PAIRS:
        assert product_norm(E, F, z)[1].method == "constructive"


def _dead_cells_match_the_oracle(monkeypatch, E, F):
    ms = counting(12)
    vals = _profile(ms, seed=3).values.copy()
    vals[[2, 7, 11]] = 0.0
    z = StepFunction(ms, vals)
    (res, wit), (res0, wit0) = _both(
        monkeypatch, "_optimize_product", _optimize_product, lambda: _optimizer_product(E, F, z, dict(_FAST))
    )
    assert _same_witness(wit, wit0)
    assert (res.value, res.kind) == (res0.value, res0.kind)


def test_product_norm_with_dead_cells_matches_the_serial_oracle(monkeypatch):
    _dead_cells_match_the_oracle(monkeypatch, Convexification(LorentzLambda(PW(0.5)), 2.0), MarcinkiewiczStar(PW(0.3)))


def test_a_profile_pair_with_dead_cells_matches_the_serial_oracle(monkeypatch):
    # the shared sort of the x and y stack, with zeros off the support of z
    _dead_cells_match_the_oracle(monkeypatch, LorentzLambda(PW(0.5)), MarcinkiewiczStar(PW(0.3)))


def _objective_calls(monkeypatch, E, F, ms):
    """The product objective J of (E, F) on ``ms``, and the lists that record
    its sorts (row shapes) and its kernel calls (argument types)."""
    sorts, calls, objectives = [], [], []
    sort, descent = S._decreasing_profile, P._lockstep_descent

    def counted_sort(values, widths):
        sorts.append(values.shape)
        return sort(values, widths)

    def grab(J, *args, **kwargs):
        objectives.append(J)
        return descent(J, *args, **kwargs)

    for module in (S, P):
        monkeypatch.setattr(module, "_decreasing_profile", counted_sort)
    monkeypatch.setattr(P, "_lockstep_descent", grab)
    for space in (E, F):
        compiled = P._norm_fn(space, ms)
        monkeypatch.setattr(compiled, "fn", lambda values, fn=compiled.fn: calls.append(type(values)) or fn(values))
    _optimizer_product(E, F, _profile(ms, seed=1), dict(_FAST, max_sweeps=1))
    del sorts[:], calls[:]
    return objectives[0], sorts, calls


def test_a_profile_pair_sorts_once_per_objective_call(monkeypatch):
    # both kernels take a profile: J sorts the x and y rows as one stack
    # and calls each fn once, on its half, where a tracer sees it
    ms = unit_interval(16)
    J, sorts, calls = _objective_calls(monkeypatch, *THEOREM_PAIRS["thm7_lambda_mstar"], ms)
    J(np.zeros((5, 16)))
    assert sorts == [(10, 16)] and calls == [tuple, tuple]


def test_a_pair_with_a_values_kernel_hands_each_kernel_its_values(monkeypatch):
    # the Λ kernel sorts its own rows; the weighted sup needs no sort
    ms = unit_interval(16)
    J, sorts, calls = _objective_calls(monkeypatch, *THEOREM_PAIRS["mixed_lambda_wsup"], ms)
    J(np.zeros((5, 16)))
    assert sorts == [(5, 16)] and calls == [np.ndarray, np.ndarray]


def test_one_sweep_stays_an_estimate_and_matches_the_oracle(monkeypatch):
    E, F = LorentzLambdaP(PW(0.5), 1.0), LorentzLambdaP(PW(0.3), 1.0)
    z = _profile(unit_interval(16), seed=11)
    opts = dict(_FAST, max_sweeps=1)
    (res, wit), (res0, wit0) = _both(
        monkeypatch, "_optimize_product", _optimize_product, lambda: product_norm(E, F, z, opts=dict(opts))
    )
    assert res.kind == res0.kind == "estimate"
    assert _same_witness(wit, wit0)


@pytest.mark.parametrize("alpha", [0.3, 0.6])
def test_lozanovskii_target_exit_matches_the_oracle(monkeypatch, alpha):
    E = LorentzLambda(PW(alpha))
    z = _profile(unit_interval(16), seed=int(10 * alpha))
    wit, wit0 = _both(
        monkeypatch,
        "_optimize_product",
        _optimize_product,
        lambda: lozanovskii_factorize(E, z, 0.05, opts=dict(_FAST)),
    )
    assert _same_witness(wit, wit0)
    assert "not_within_epsilon" not in wit.notes


def test_an_unreachable_target_runs_every_start_like_the_oracle(monkeypatch):
    # a target below the Hölder floor is never met: the rank-order stop
    # must then leave every start's result intact
    E, F = LorentzLambda(PW(0.6)), Marcinkiewicz(PW(0.4))
    z = _profile(counting(10), seed=5)
    opts = dict(_FAST, max_sweeps=20, quick_sweeps=3, target=1e-6)
    (res, wit), (res0, wit0) = _both(
        monkeypatch, "_optimize_product", _optimize_product, lambda: product_norm(E, F, z, opts=dict(opts))
    )
    assert _same_witness(wit, wit0)
    assert res.kind == res0.kind


# ---------------------------------------------------------------------------
# ratio ascent (k = 1)


@pytest.mark.parametrize(
    "E, F, grid",
    [
        (Lp(6.0), Lp(1.5), "count8"),
        (LorentzLambda(PW(0.3)), LorentzLambda(PW(0.6)), "unit16"),
        (Lp(2.0, PW(0.2)), LInftyWeighted(PW(0.5)), "unit16"),
    ],
)
def test_multiplier_ratio_ascent_matches_the_oracle(monkeypatch, E, F, grid):
    ms = counting(8) if grid == "count8" else unit_interval(16)
    m = StepFunction(ms, np.random.default_rng(ms.n_cells).uniform(0.1, 3.0, ms.n_cells))
    for ascent in (True, False):
        got, want = _both(
            monkeypatch,
            "_ratio_ascent",
            _ratio_ascent,
            lambda: multiplier_norm(E, F, m, opts=dict(_FAST), ascent=ascent, use_table=False),
        )
        assert (got.value, got.kind, got.notes) == (want.value, want.kind, want.notes)
        assert type(got.value) is float


@pytest.mark.parametrize("E", [Lp(2.0), LInftyWeighted(PW(0.3)), LorentzLambda(PW(0.4))])
def test_dual_ratio_ascent_matches_the_oracle(monkeypatch, E):
    ms = unit_interval(12)
    y = _profile(ms, seed=4)
    got, want = _both(monkeypatch, "_ratio_ascent", _ratio_ascent, lambda: dual_norm_numeric(E, y, opts=dict(_FAST)))
    assert (got.value, got.kind, got.notes) == (want.value, want.kind, want.notes)


# ---------------------------------------------------------------------------
# engine pieces


def test_monotone_params_invert_the_embedding():
    rng = np.random.default_rng(9)
    u = np.sort(rng.normal(size=9))[::-1].copy()
    np.testing.assert_allclose(P._monotone_embed(P._monotone_params(u)), u, rtol=0, atol=1e-12)
    v = P._monotone_params(u)
    assert v[0] == u[0] and np.all(v[1:] >= 0.0)
    # increases are clipped: the embedding of the params is non-increasing
    w = P._monotone_embed(P._monotone_params(rng.normal(size=9)))
    assert np.all(np.diff(w) <= 0.0)


def test_monotone_embedding_is_row_wise():
    V = np.random.default_rng(2).normal(size=(5, 7))
    U = P._monotone_embed(V)
    for i in range(5):
        assert np.array_equal(U[i], P._monotone_embed(V[i]))


def test_descend_batches_are_row_independent():
    # the rows of one lockstep run equal the rows run one at a time
    def J(U):
        return np.sum((U - np.array([0.3, -0.2, 0.7])) ** 2, axis=-1) + np.sum(np.abs(U), axis=-1)

    U0 = np.random.default_rng(1).normal(size=(4, 3))
    budgets = np.array([8, 8, 2, 2])
    U, best, conv = P._lockstep_descent(J, U0, J(U0), budgets, 10, None)
    for r in range(4):
        u, b, c = P._lockstep_descent(J, U0[r : r + 1], J(U0[r : r + 1]), budgets[r : r + 1], 10, None)
        assert np.array_equal(u[0], U[r]) and b[0] == best[r] and c[0] == conv[r]


def test_a_later_row_reaching_the_target_first_stops_only_the_rows_after_it():
    # two basins: around A the floor is 1 (above the target), around B it
    # is 0.  Row 2 starts next to B and meets the target in its first
    # sweep, while row 0 (in A) and row 1 (far out in B) still run; row 1
    # meets the target sweeps later, so the rank-order pick is row 1, and
    # rows 3 and 4 (also next to B) are never needed.
    A, B = np.array([5.0, 5.0]), np.array([-5.0, -5.0])

    def J(U):
        return np.minimum(((U - A) ** 2).sum(-1) + 1.0, ((U - B) ** 2).sum(-1))

    U0 = np.array([A + [3.0, -2.0], B + [4.0, 4.0], B + [0.3, -0.2], B + [0.5, 0.5], B + [-0.4, 0.1]])
    target, iters = 0.01, 10
    budgets = np.full(5, 30)

    _, first, _ = P._lockstep_descent(J, U0, J(U0), np.ones(5, dtype=int), iters, None)
    assert first[2] <= target < min(first[0], first[1])

    U, vals, conv = P._lockstep_descent(J, U0, J(U0), budgets, iters, target)
    picked, converged = P._select(vals, conv, target)

    o = {"golden_iters": iters, "target": target}
    want, best_val = None, math.inf
    for r in range(5):
        u, val, c = _descend(J, U0[r], o, int(budgets[r]))
        assert np.array_equal(U[r], u) and vals[r] == val and conv[r] == c
        if val < best_val:
            want, best_val = r, val
        if best_val <= target:
            break
    assert picked == want == 1 and converged


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


@pytest.mark.parametrize("iters", [0, 1, 2, 3, 10, 14])
@pytest.mark.parametrize("k", [1, 2, 7, 33])
@pytest.mark.parametrize("objective", sorted(LINE_OBJECTIVES))
def test_golden_rows_match_the_serial_search_row_by_row(objective, k, iters):
    J = LINE_OBJECTIVES[objective]
    P0 = np.random.default_rng(100 * k + iters).normal(size=(k, 3))
    t, f = P._golden_rows(J, P0.copy(), 0, iters)
    for r in range(k):

        def f1(x, r=r):
            u = P0[r].copy()
            u[0] = x
            return float(J(u[None])[0])

        tc, fc = _golden_coordinate(f1, P0[r, 0], P._SPAN, iters)
        assert (t[r].hex(), f[r].hex()) == (tc.hex(), fc.hex())


def test_golden_rows_look_ahead_several_steps_per_call():
    calls = []

    def J(U):
        calls.append(len(U))
        return _bumps_with_a_wall(U)

    P._golden_rows(J, np.random.default_rng(3).normal(size=(7, 3)), 1, 10)
    # one call per golden step would be 1 + 10
    assert len(calls) <= 5


def test_row_by_row_kernels_keep_one_golden_step_per_call():
    # a batch of a row-by-row kernel costs one call per row, so looking
    # ahead would only add rows: such objectives step once per call
    ms = counting(8)
    assert P._call_rows(P._norm_fn(Lp(2.0), ms)) == P._CALL_ROWS
    assert P._call_rows(P._norm_fn(Lp(2.0), ms), P._norm_fn(Product(Lp(2.0), LorentzLambda(PowerWeight(0.5))), ms)) == 0
    # a convexification runs its base's kernel, row by row when the base does
    assert P._call_rows(P._norm_fn(Convexification(Lp(1.0), 0.5), ms)) == P._CALL_ROWS
    assert P._call_rows(P._norm_fn(Convexification(Marcinkiewicz(PowerLogWeight(0.5, 1.0)), 2.0), ms)) == 0
    calls = []

    def J(U):
        calls.append(len(U))
        return _bumps_with_a_wall(U)

    P._golden_rows(J, np.zeros((3, 2)), 0, 10, call_rows=0)
    assert calls == [6] + [3] * 10


def test_an_orlicz_gauge_over_a_row_by_row_base_runs_row_by_row():
    gauge = OrliczCL(Marcinkiewicz(PowerLogWeight(0.5, 1.0)), ShiftedPower(0.3, 1.0, 2.0))
    assert P._call_rows(P._norm_fn(gauge, unit_interval(8))) == 0


def test_a_convexified_gauge_keeps_the_gauge_call_cost():
    space = Convexification(OrliczCL(Lp(1.0), ShiftedPower(0.3, 1.0, 2.0)), 2.0)
    assert P._call_rows(P._norm_fn(space, unit_interval(8))) == S._SHIFTED_GAUGE_CALL_ROWS


def test_a_kernel_keeps_its_call_cost_when_its_fn_is_wrapped(monkeypatch):
    # a tracer swaps each kernel's fn for a plain timing wrapper; the
    # look-ahead must still schedule the traced run as the untraced one
    ms = unit_interval(8)
    space = OrliczCL(Lp(1.0), ShiftedPower(0.3, 1.0, 2.0))
    compiled = P._norm_fn(space, ms)
    inner = compiled.fn
    monkeypatch.setattr(compiled, "fn", lambda values: inner(values))
    assert P._norm_fn(space, ms).fn is not inner
    assert P._call_rows(P._norm_fn(space, ms)) == S._SHIFTED_GAUGE_CALL_ROWS
