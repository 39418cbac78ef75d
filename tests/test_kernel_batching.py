"""Batched kernel calls give every row's one-row value, bit for bit.

Every compiled kernel maps a ``(k, n)`` array to its k row norms.  The
optimizers rely on ``fn(V)[i] == fn(V[i])`` exactly, so these tests
compare bit patterns, for every kernel family, on unit, half-line and
counting grids, with zero cells, all-zero rows, and Fortran-ordered or
sliced batches.  A kernel's exact subgradient (``grad``) is checked the
same way, against central differences, and, for Banach kernels, by the
subgradient inequality.  The Lorentz and Marcinkiewicz kernels over a
weight that is not a power are also checked against the row-by-row
closures they replaced, and the L^p and Lambda_{phi,p} kernels, which
sum a dead cell as a zero term, against sums over the live cells only.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfslab import (
    Capped,
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
    Symmetrization,
    YoungMax,
    YoungSum,
    counting,
    half_line,
    norm_evaluator,
    ominus,
    oplus,
    unit_interval,
)
from bfslab import spaces as S
from bfslab.weights import NonIntegrableWeight, PowerLogWeight, WeightProduct, WeightRatio

PW = PowerWeight
PLW = PowerLogWeight(0.5, 1.0)

FAMILIES = {
    "lp_sup": Lp(float("inf")),
    "lp_plain": Lp(2.5),
    "lp_one": Lp(1.0),
    "lp_weighted": Lp(2.0, PW(0.3)),
    # t^(-1.2) is not integrable on the first cell: its weight is infinite there
    "lp_weighted_inf_first_cell": Lp(1.5, PW(-0.8)),
    "lp_weighted_quadrature": Lp(1.0, PowerLogWeight(0.2, 1.0)),
    "lorentz_lambda": LorentzLambda(PW(0.6)),
    "lorentz_lambda_generic": LorentzLambda(PLW),
    "lorentz_lambda_p": LorentzLambdaP(PW(0.5), 2.0),
    "lorentz_lambda_p_below_one": LorentzLambdaP(PW(0.3), 0.5),
    "lorentz_lambda_p_quadrature": LorentzLambdaP(PowerLogWeight(0.5, 0.5), 2.0),
    # phi^2 / t overflows near 0: the first cell's mass is infinite
    "lorentz_lambda_p_quadrature_singular": LorentzLambdaP(PowerLogWeight(-13.0, 1.0), 2.0),
    "marcinkiewicz": Marcinkiewicz(PW(0.4)),
    "marcinkiewicz_constant": Marcinkiewicz(PW(0.0, 2.0)),
    "marcinkiewicz_singular": Marcinkiewicz(PW(-0.5)),
    "marcinkiewicz_generic": Marcinkiewicz(PLW),
    "marcinkiewicz_star": MarcinkiewiczStar(PW(0.4)),
    "marcinkiewicz_star_singular": MarcinkiewiczStar(PW(-0.2)),
    "marcinkiewicz_star_generic": MarcinkiewiczStar(PLW),
    "linfty_weighted": LInftyWeighted(PW(0.4)),
    "linfty_weighted_singular": LInftyWeighted(PW(-0.4)),
    "linfty_weighted_generic": LInftyWeighted(PLW),
    # the weight's limit at 0 is +inf: its sup over the first cell
    "linfty_weighted_generic_singular": LInftyWeighted(PowerLogWeight(-0.3, 1.0)),
    "orlicz": OrliczCL(Lp(1.0), ShiftedPower(0.3, 1.0, 2.0)),
    "orlicz_shifted_linear": OrliczCL(Lp(1.0), ShiftedPower(1.0, 1.0, 1.0)),
    # p = 3 has no closed form: the lockstep gauge search
    "orlicz_shifted_cubic": OrliczCL(Lp(1.0), ShiftedPower(0.3, 1.0, 3.0)),
    "convexification": Convexification(LorentzLambda(PW(0.5)), 2.0),
    "convexification_weighted_below_one": Convexification(Lp(1.5, PW(-0.8)), 0.5),
    # products that canonical rewrites: L^(4/3), and the 3/4-concavification of L^1(t^0.225)
    "product_lp_pair": Product(Lp(2.0), Lp(4.0)),
    "product_below_one": Product(Lp(1.5, PW(0.3)), Lp(1.5)),
    "star_weighted_lp": Symmetrization(Lp(2.0, PW(0.3)), "star"),
    "doublestar_weighted_lp": Symmetrization(Lp(2.0, PW(0.3)), "doublestar"),
    "star_weighted_sup": Symmetrization(LInftyWeighted(PW(0.5)), "star"),
    "doublestar_weighted_sup": Symmetrization(LInftyWeighted(PW(0.5)), "doublestar"),
}

GRIDS = [("counting", n) for n in (1, 2, 7, 16, 33, 256)] + [
    (kind, n) for kind in ("unit", "half") for n in (7, 16, 33, 256)
]


def _grid(kind, n):
    return {"counting": counting, "unit": unit_interval, "half": half_line}[kind](n)


def _batch(rng, n):
    """Rows with random values, zero cells, ties, one all-zero row."""
    V = rng.uniform(0.0, 3.0, (6, n))
    V[1, rng.uniform(size=n) < 0.4] = 0.0
    V[2] = 0.0
    V[3] = np.sort(V[3])[::-1]
    V[4] = V[4, 0]
    V[5, : max(1, n // 3)] = 0.0
    return V


def _layouts(V):
    shared = np.where(V[0] > 1.0, V[3], 0.0)  # one zero pattern for all rows
    return {
        "c": V,
        "fortran": np.asfortranarray(V),
        "row_slice": np.concatenate((V, V))[::2],
        "column_stride": np.repeat(V, 2, axis=1)[:, ::2],
        "one_row": V[:1],
        "all_live": V[[0, 3, 4]] + 0.01,
        "shared_zeros": shared * np.arange(1.0, 4.0)[:, None],
    }


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("kind, n", GRIDS, ids=[f"{k}{n}" for k, n in GRIDS])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_batched_kernels_match_row_calls_bit_for_bit(kind, n, seed):
    ms = _grid(kind, n)
    rng = np.random.default_rng(seed)
    V = _batch(rng, n)
    for name, space in FAMILIES.items():
        compiled = norm_evaluator(space, ms)
        assert compiled is not None, name
        for layout, W in _layouts(V).items():
            got = compiled.fn(W)
            assert isinstance(got, np.ndarray) and got.shape == (W.shape[0],), (name, layout)
            rows = [compiled.fn(W[i]) for i in range(W.shape[0])]
            assert all(type(r) is float for r in rows), (name, layout)
            assert np.array_equal(_bits(got), _bits(rows)), (name, layout, got, rows)


def test_collapsed_products_have_batched_kernels():
    ms = counting(8)
    for space in (FAMILIES["product_lp_pair"], FAMILIES["product_below_one"]):
        compiled = norm_evaluator(space, ms)
        assert compiled is not None and not compiled.rowwise, space


GAUGE_PHIS = {
    "shifted": ShiftedPower(0.3, 1.0, 2.0),
    "shifted_cubic": ShiftedPower(0.3, 1.0, 3.0),
    "sum": YoungSum((Power(1.0, 2.0), Power(0.5, 3.0))),
    "max": YoungMax((Power(1.0, 2.0), Power(0.5, 3.0))),
    # values reach 3, so the cap binds on some rows and not on others
    "capped": Capped(Power(1.0, 2.0), 2.0),
    "oplus": oplus(Power(1.0, 3.0), Power(1.0, 1.5)),
    # no Hoelder pair: the numeric scan under the gauge search
    "oplus_shifted": oplus(ShiftedPower(0.3, 1.0, 2.0), Power(1.0, 2.0)),
    "ominus": ominus(Power(1.0, 2.0), Power(1.0, 4.0)),
    # no power pair: the numeric (-) scan under the gauge search
    "ominus_shifted": ominus(ShiftedPower(0.3, 1.0, 2.0), Power(1.0, 4.0)),
}


@pytest.mark.parametrize("name", sorted(GAUGE_PHIS))
def test_lockstep_gauge_rows_match_row_calls_bit_for_bit(name):
    # the rows of a batch search their brackets in lockstep, next to
    # all-zero rows and rows with other live cells; each ends where its
    # one-row search ends
    fn = norm_evaluator(OrliczCL(Lp(1.0), GAUGE_PHIS[name]), unit_interval(8)).fn
    V = _batch(np.random.default_rng(11), 8)
    for W in (V, np.asfortranarray(V[::-1]), V[[2, 5, 2, 0]]):
        got = fn(W)
        rows = [fn(row) for row in W]
        assert np.array_equal(_bits(got), _bits(rows)), (name, got, rows)
    assert got[0] == got[2] == 0.0


PROFILE_GRIDS = {"unit16": lambda: unit_interval(16), "half16": lambda: half_line(16), "counting16": lambda: counting(16)}


def _stack(rng, k, n):
    """2k rows: random values, dead cells (so live counts differ), ties, an all-zero row."""
    V = rng.uniform(0.0, 3.0, (2 * k, n))
    V[rng.uniform(size=V.shape) < 0.25] = 0.0
    V[0] = np.round(V[0])  # ties among the live cells and at 0
    V[-1] = V[-1, 0]  # one value throughout
    if k > 1:
        V[1] = 0.0
    return V


_SORTING = (LorentzLambda, LorentzLambdaP, Marcinkiewicz, MarcinkiewiczStar)


@pytest.mark.parametrize("grid", sorted(PROFILE_GRIDS))
@pytest.mark.parametrize("k", [1, 3, 8])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_lorentz_and_marcinkiewicz_kernels_batch_and_grad_bit_for_bit(grid, k, seed):
    # a product objective hands each kernel its half of a stack of x and y
    # rows, and the kernel sorts it: each half must give fn(row) per row,
    # and grad the values of fn and its own rows' gradients, to the last bit
    ms = PROFILE_GRIDS[grid]()
    V = _stack(np.random.default_rng(seed), k, ms.n_cells)
    taken = set()
    for name, space in FAMILIES.items():
        if not isinstance(S.canonical(space), _SORTING):
            continue
        taken.add(name)
        compiled = norm_evaluator(space, ms)
        for half in (slice(None, k), slice(k, None)):
            got = compiled.fn(V[half])
            assert np.array_equal(_bits(got), _bits([compiled.fn(row) for row in V[half]])), (name, half)
            if compiled.grad is not None:
                nrm, g = compiled.grad(V[half])
                rows = [compiled.grad(row)[1] for row in V[half]]
                assert np.array_equal(_bits(nrm), _bits(got)), (name, half)
                assert np.array_equal(_bits(g), _bits(rows)), (name, half)
    # every Lorentz and Marcinkiewicz family, for every weight
    assert {
        "lorentz_lambda",
        "lorentz_lambda_generic",
        "lorentz_lambda_p",
        "lorentz_lambda_p_quadrature",
        "marcinkiewicz",
        "marcinkiewicz_generic",
        "marcinkiewicz_star",
        "marcinkiewicz_star_generic",
    } <= taken


@pytest.mark.parametrize("kind, n", [("counting", 7), ("unit", 16), ("half", 33)])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_every_kernel_is_lattice_monotone(kind, n, seed):
    # x <= y cell by cell gives |x| <= |y|: the sup-type product split
    # rests on it, taking the least x = z / y at the largest y of norm 1.
    # A kernel that is not monotone must not claim to be exact: over the
    # falling PowerLogWeight(0.5, 1), Lambda_phi is no lattice norm (4.5 %
    # on unit_interval(16)), and is an estimate.
    ms = _grid(kind, n)
    rng = np.random.default_rng(seed)
    X = _batch(rng, n)
    # raise a random share of the cells, from 0 as well, by up to 100 %, or by one ulp
    up = np.where(rng.uniform(size=X.shape) < 0.5, rng.uniform(0.0, 1.0, X.shape), 0.0)
    Y = np.maximum(X * (1.0 + up) + (X == 0) * up, X)
    Y[3] = np.nextafter(X[3], np.inf)
    for name, space in FAMILIES.items():
        compiled = norm_evaluator(space, ms)
        nx, ny = compiled.fn(X), compiled.fn(Y)
        assert np.all(nx <= ny * (1.0 + 1e-12)) or compiled.kind != "exact", (name, nx, ny)


@pytest.mark.parametrize("kind, n", [("counting", 7), ("unit", 16), ("half", 33)])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_c=st.floats(-6.0, 6.0))
def test_every_kernel_is_homogeneous(kind, n, seed, log_c):
    # |c x| = c |x|: the ratio ascent's J(u) = |e^u|_E / |m e^u|_F is then
    # constant along u + s, and a family member's scale does not matter
    ms = _grid(kind, n)
    X = _batch(np.random.default_rng(seed), n)
    c = math.exp(log_c)
    for name, space in FAMILIES.items():
        fn = norm_evaluator(space, ms).fn
        nx, ncx = fn(X), fn(c * X)
        finite = np.isfinite(nx)
        assert np.array_equal(finite, np.isfinite(ncx)), (name, nx, ncx)
        np.testing.assert_allclose(ncx[finite], c * nx[finite], rtol=1e-12, atol=0.0, err_msg=name)


@pytest.mark.parametrize("kind, n", [("counting", 7), ("unit", 16), ("half", 33)])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_sups_over_a_weight_with_an_interior_peak_are_lattice_monotone(kind, n, seed):
    # PowerLogWeight(0.5, 1) peaks at 1/e, inside a cell of unit_interval(16):
    # its exact cell sups keep M*_phi and the weighted sup monotone, estimates or not
    ms = _grid(kind, n)
    rng = np.random.default_rng(seed)
    X = _batch(rng, n)
    up = np.where(rng.uniform(size=X.shape) < 0.5, rng.uniform(0.0, 1.0, X.shape), 0.0)
    Y = np.maximum(X * (1.0 + up) + (X == 0) * up, X)
    for space in (MarcinkiewiczStar(PLW), LInftyWeighted(PLW)):
        fn = norm_evaluator(space, ms).fn
        nx, ny = fn(X), fn(Y)
        assert np.all(nx <= ny * (1.0 + 1e-12)), (space, nx, ny)


# The row-by-row kernels that the batched Lambda_{phi,p}, M_phi and M*_phi
# kernels replaced for weights that are not pure powers: the oracles.


def _lam_p_quad(v, wd, phi, p):
    v, _, bp, _ = S._decreasing_profile(v, wd)
    # t^a (1 + |log t|)^b: phi^p / t is integrable at 0 iff ap > 0, or ap = 0 and bp < -1
    if isinstance(phi, PowerLogWeight) and not (phi.alpha * p > 0 or (phi.alpha == 0 and phi.beta * p < -1)):
        return float("inf") if v[0] > 0 else 0.0
    phi = WeightProduct(phi, PW(-1.0 / p))
    total = 0.0
    for i in range(v.size):
        if v[i] <= 0:
            break
        try:
            cell = phi.cell_integral_pow(bp[i], bp[i + 1], p)
        except NonIntegrableWeight:
            return float("inf")
        total += v[i] ** p * cell
    return float(total ** (1.0 / p))


def _marc_generic(v, wd, phi):
    frac = np.linspace(0.0, 1.0, 10)
    v, w, bp, _ = S._decreasing_profile(v, wd)
    cum = np.concatenate(([0.0], np.cumsum(v * w)))
    a, b = bp[:-1], bp[1:]
    ts = a[:, None] + (b - a)[:, None] * frac[None, :]
    B = cum[:-1] - v * a
    num = B[:, None] + v[:, None] * ts
    with np.errstate(divide="ignore", invalid="ignore"):
        xdd = np.where(ts > 0, num / np.where(ts > 0, ts, 1.0), v[:, None])
        g = np.asarray(phi(ts), dtype=float) * xdd
    g = np.where(np.isnan(g), 0.0, g)
    return float(np.max(g, initial=0.0))


def _mstar_generic_grad(v, wd, phi):
    vs, _, bp, order = S._decreasing_profile(v, wd)
    c = np.array([phi.cell_sup(bp[i], bp[i + 1]) for i in range(np.count_nonzero(vs > 0))])
    g = np.zeros(v.shape)
    if c.size:
        g[: c.size] = S._at_max(vs[: c.size] * c, c)
    return float(np.max(vs[: c.size] * c, initial=0.0)), S._unsort(g, order)


GENERIC_WEIGHTS = {
    "falling": PLW,
    "rising": PowerLogWeight(0.3, 0.5),
    "singular": PowerLogWeight(-0.3, 1.0),
    "flat_log": PowerLogWeight(0.0, 1.0),
    "sampled": WeightProduct(PLW, PW(0.2)),
}
ORACLE_GRIDS = [("counting", 7), ("unit", 16), ("half", 16), ("unit", 33), ("unit", 256)]


@pytest.mark.parametrize("kind, n", ORACLE_GRIDS, ids=[f"{k}{n}" for k, n in ORACLE_GRIDS])
@pytest.mark.parametrize("weight", sorted(GENERIC_WEIGHTS))
def test_generic_kernels_match_their_row_by_row_oracles(kind, n, weight):
    # M_phi and M*_phi bit for bit, fed the same cell sups; Lambda_{phi,p}
    # to 1e-14, its quadrature summed in another order; dead cells, all-zero
    # rows and (for the singular weights) infinite first cells included
    ms, phi = _grid(kind, n), GENERIC_WEIGHTS[weight]
    rng = np.random.default_rng(n)
    V = np.concatenate((_batch(rng, n), _stack(rng, 3, n)))
    marc, mstar = norm_evaluator(Marcinkiewicz(phi), ms), norm_evaluator(MarcinkiewiczStar(phi), ms)
    for row in V:
        assert marc.fn(row) == _marc_generic(row, ms.widths, phi)
        nrm, g = mstar.grad(row)
        want, g_want = _mstar_generic_grad(row, ms.widths, phi)
        assert _bits(mstar.fn(row)) == _bits(nrm) == _bits(want)
        assert np.array_equal(_bits(g), _bits(g_want))
    for psi, p in ((phi, 2.0), (phi, 0.5), (PowerLogWeight(-13.0, 1.0), 2.0)):
        fn = norm_evaluator(LorentzLambdaP(psi, p), ms).fn
        for row in V:
            got, want = fn(row), _lam_p_quad(row, ms.widths, psi, p)
            assert got == want or abs(got - want) <= 1e-14 * want, (p, got, want)


# L^p and Lambda_{phi,p} summed over the live cells only: the references
# for the kernels' summation order, which adds the dead cells' zeros too.


def _lp_live_cells(v, space, ms):
    cw = S._cell_masses(space, ms)
    live = np.flatnonzero(v > 0)
    if not live.size:
        return 0.0
    if np.isinf(cw[live]).any():
        return math.inf
    return float(np.sort(v[live] ** space.p * cw[live]).sum() ** (1.0 / space.p))


def _lam_p_live_cells(v, space, ms):
    # a pure power c t^a: (c^p sum_i v_i^p ∫_cell t^q dt)^(1/p), q = ap - 1 > -1
    p, (a, c) = space.p, (space.phi.alpha, space.phi.coef)
    vs, _, bp, _ = S._decreasing_profile(v, ms.widths)
    live = np.count_nonzero(vs > 0)
    if not live:
        return 0.0
    prim = bp[: live + 1] ** (a * p) / (a * p)
    return float((c**p * np.sort(vs[:live] ** p * (prim[1:] - prim[:-1])).sum()) ** (1.0 / p))


LIVE_CELL_REFERENCES = {
    "lp_weighted": _lp_live_cells,
    "lp_weighted_inf_first_cell": _lp_live_cells,
    "lorentz_lambda_p": _lam_p_live_cells,
}


@pytest.mark.parametrize("kind, n", GRIDS, ids=[f"{k}{n}" for k, n in GRIDS])
def test_dead_cells_as_zero_terms_match_the_live_cells_sum(kind, n):
    # bit for bit on rows without a dead cell; within 4 n eps where the
    # zeros regroup the sum.  Lp(1.5, t^-0.8) weighs its first cell +inf:
    # a row live there is +inf, a row dead there finite
    ms, tol = _grid(kind, n), 4 * n * np.finfo(float).eps
    rng = np.random.default_rng(n)
    V = np.concatenate((_batch(rng, n), _stack(rng, 3, n)))
    for name, reference in LIVE_CELL_REFERENCES.items():
        space = FAMILIES[name]
        fn = norm_evaluator(space, ms).fn
        for row in V:
            got, want = fn(row), reference(row, space, ms)
            if (row > 0).all():
                assert _bits(got) == _bits(want), (name, got, want)
            else:
                assert got == want or abs(got - want) <= tol * want, (name, got, want)
            if name == "lp_weighted_inf_first_cell":
                assert math.isinf(got) == (row[0] > 0), (got, row[0])


@pytest.mark.parametrize("kind, n", ORACLE_GRIDS, ids=[f"{k}{n}" for k, n in ORACLE_GRIDS])
def test_cell_sups_of_arrays_match_per_cell_calls(kind, n):
    # the kernels take every cell's sup in one call; a PowerLogWeight's is
    # exact: never below a dense sampling of the cell, nor above its top
    bp = _grid(kind, n).breakpoints
    weights = [PW(a, c) for a in (-1.0, -0.3, 0.0, 0.5, 2.0) for c in (1.0, 2.5)]
    weights += [PowerLogWeight(a, b) for a in (-0.3, 0.0, 0.5, 1.0) for b in (-1.0, 0.0, 0.5, 1.0, 2.0)]
    for w in weights + [GENERIC_WEIGHTS["sampled"]]:
        sups = w.cell_sup(bp[:-1], bp[1:])
        each = [w.cell_sup(a, b) for a, b in zip(bp[:-1], bp[1:])]
        assert all(type(s) is float for s in each) and np.array_equal(_bits(sups), _bits(each)), w
        if isinstance(w, PowerLogWeight):
            for a, b, s in zip(bp[1:-1], bp[2:], sups[1:]):
                dense = np.max(w(np.geomspace(a, b, 4001)))
                assert dense <= s * (1.0 + 1e-12) and s <= dense * (1.0 + 1e-6), (w, a, b)


# weights whose cell_sup is exact: power atoms and trees of them, and PowerLogWeight
EXACT_SUP_WEIGHTS = {
    "power": PW(0.4, 1.5),
    "flat": PW(0.0, 2.0),
    "power_tree": WeightProduct(PW(0.6), WeightRatio(PW(0.2, 2.0), PW(0.5))),
    "peak": PLW,
    "rising": PowerLogWeight(0.3, 0.5),
    "singular": PowerLogWeight(-0.3, 1.0),
    "flat_log": PowerLogWeight(0.0, 1.0),
}


@pytest.mark.parametrize("kind, n", [("counting", 7), ("unit", 16), ("half", 16)])
@pytest.mark.parametrize("weight", sorted(EXACT_SUP_WEIGHTS))
def test_exact_cell_sups_make_the_sup_kernels_exact(kind, n, weight):
    # cell_sup tops 2 x 10^4 samples of each cell, by at most 1e-6; on a cell
    # touching 0 an infinite sup is a weight rising without bound towards 0.
    # Then M*_phi and the weighted sup give the exact norm of a step function
    ms, w = _grid(kind, n), EXACT_SUP_WEIGHTS[weight]
    bp = ms.breakpoints
    for a, b, s in zip(bp[:-1], bp[1:], w.cell_sup(bp[:-1], bp[1:])):
        lo = a if a > 0 else b * 1e-12
        dense = float(np.max(w(np.concatenate((np.linspace(lo, b, 10_000), np.geomspace(lo, b, 10_000))))))
        if math.isinf(s):
            assert a == 0.0 and w(b * 1e-12) > w(b * 1e-6) > w(b), (w, b)
        else:
            assert dense <= s * (1.0 + 1e-12) and s <= dense * (1.0 + 1e-6), (w, a, b, s, dense)
    for space in (MarcinkiewiczStar(w), LInftyWeighted(w), Lp(math.inf, w)):
        assert norm_evaluator(space, ms).kind == "exact", space
    sampled = GENERIC_WEIGHTS["sampled"]
    for space in (MarcinkiewiczStar(sampled), LInftyWeighted(sampled)):
        assert norm_evaluator(space, ms).kind == "estimate", space


def test_a_lorentz_weight_that_fails_quasi_concavity_is_an_estimate():
    ms = unit_interval(16)
    falling = norm_evaluator(LorentzLambda(PLW), ms)
    assert falling.kind == "estimate" and any("quasi-concavity" in note for note in falling.notes)
    assert not falling.lattice
    assert norm_evaluator(LorentzLambda(PowerLogWeight(0.5, -0.2)), ms).kind == "exact"
    # Λ_{φ,p} asks it of φ^p: an estimate either way (quadrature), a lattice norm only where φ^p passes
    falling_p = norm_evaluator(LorentzLambdaP(PLW, 2.0), ms)
    assert not falling_p.lattice and any("quasi-concavity" in note for note in falling_p.notes)
    assert norm_evaluator(LorentzLambdaP(PowerLogWeight(0.3, -0.2), 2.0), ms).lattice


# families whose kernel is a Banach lattice norm on every grid: the
# subgradient inequality holds for their grad
BANACH = {
    "lp_sup",
    "lp_plain",
    "lp_one",
    "lp_weighted",
    "lp_weighted_quadrature",
    "lorentz_lambda",
    "lorentz_lambda_p",
    "marcinkiewicz",
    "marcinkiewicz_constant",
    "linfty_weighted",
    "linfty_weighted_generic",
    "orlicz",
    "orlicz_shifted_linear",
    "convexification",
    "product_lp_pair",
    "doublestar_weighted_sup",
}
# every family the product traffic reaches has a subgradient
WITH_GRAD = BANACH | {
    "lorentz_lambda_generic",
    "lorentz_lambda_p_quadrature",
    "lorentz_lambda_p_below_one",
    "marcinkiewicz_star",
    "marcinkiewicz_star_generic",
    "star_weighted_lp",
}
GRAD_GRIDS = [("counting", 7), ("unit", 16), ("half", 16)]


def _untied_rows(rng, n, k=4):
    """Rows of distinct live values, well apart: no tie, so each kernel is smooth there."""
    return np.sort(rng.uniform(0.2, 3.0, (k, n)), axis=1)[:, ::-1] * rng.permutation(np.linspace(1.0, 1.5, n))


@pytest.mark.parametrize("kind, n", GRAD_GRIDS, ids=[f"{k}{n}" for k, n in GRAD_GRIDS])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_subgradients_match_central_differences_off_ties(kind, n, seed):
    ms = _grid(kind, n)
    X = _untied_rows(np.random.default_rng(seed), n)
    for name, space in FAMILIES.items():
        compiled = norm_evaluator(space, ms)
        assert (compiled.grad is not None) >= (name in WITH_GRAD), name
        if compiled.grad is None:
            continue
        for x in X:
            nrm, g = compiled.grad(x)
            assert nrm == compiled.fn(x), name
            if not (np.isfinite(nrm) and nrm > 0):
                continue
            h = 1e-6 * x
            num = np.array([(compiled.fn(x + h * e) - compiled.fn(x - h * e)) / (2 * hi) for e, hi in zip(np.eye(n), h)])
            assert np.max(np.abs(num - g)) <= 1e-6 * np.max(np.abs(num)), (name, g, num)


@pytest.mark.parametrize("kind, n", GRAD_GRIDS, ids=[f"{k}{n}" for k, n in GRAD_GRIDS])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_banach_subgradients_support_the_norm(kind, n, seed):
    # N(y) >= N(x) + <g, y - x> for a subgradient g of a convex N at x,
    # at ties and zero cells as well
    ms = _grid(kind, n)
    rng = np.random.default_rng(seed)
    X, Y = _batch(rng, n), _batch(rng, n)
    for name in sorted(BANACH):
        compiled = norm_evaluator(FAMILIES[name], ms)
        for x in X:
            nx, g = compiled.grad(x)
            ny = compiled.fn(Y)
            lin = nx + (Y - x) @ g
            assert np.all(ny >= lin - 1e-12 * np.maximum(np.abs(lin), nx)), (name, x, ny, lin)


@pytest.mark.parametrize("kind, n", [("counting", 7), ("unit", 16), ("half", 33)])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_batched_subgradients_match_row_calls_bit_for_bit(kind, n, seed):
    ms = _grid(kind, n)
    V = _batch(np.random.default_rng(seed), n)
    for name, space in FAMILIES.items():
        compiled = norm_evaluator(space, ms)
        if compiled.grad is None:
            continue
        for layout, W in _layouts(V).items():
            nrm, G = compiled.grad(W)
            assert np.array_equal(_bits(nrm), _bits(compiled.fn(W))), (name, layout)
            assert G.shape == W.shape, (name, layout)
            for i in range(W.shape[0]):
                nrm_i, g_i = compiled.grad(W[i])
                assert type(nrm_i) is float and nrm_i == compiled.fn(W[i]), (name, layout)
                assert np.array_equal(_bits(g_i), _bits(G[i])), (name, layout, i)
