"""Batched kernel calls give every row's one-row value, bit for bit.

Every compiled kernel maps a ``(k, n)`` array to its k row norms.  The
optimizers rely on ``fn(V)[i] == fn(V[i])`` exactly, so these tests
compare bit patterns, for every kernel family, on unit, half-line and
counting grids, with zero cells, all-zero rows, and Fortran-ordered or
sliced batches.  A kernel's exact subgradient (``grad``) is checked the
same way, against central differences, and, for Banach kernels, by the
subgradient inequality.
"""

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
from bfslab.weights import PowerLogWeight

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
    "marcinkiewicz": Marcinkiewicz(PW(0.4)),
    "marcinkiewicz_constant": Marcinkiewicz(PW(0.0, 2.0)),
    "marcinkiewicz_singular": Marcinkiewicz(PW(-0.5)),
    "marcinkiewicz_generic": Marcinkiewicz(PLW),
    "marcinkiewicz_star": MarcinkiewiczStar(PW(0.4)),
    "marcinkiewicz_star_singular": MarcinkiewiczStar(PW(-0.2)),
    "marcinkiewicz_star_generic": MarcinkiewiczStar(PLW),
    "linfty_weighted": LInftyWeighted(PW(0.4)),
    "linfty_weighted_singular": LInftyWeighted(PW(-0.4)),
    "linfty_weighted_generic": LInftyWeighted(PowerLogWeight(-0.3, 1.0)),
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


@pytest.mark.parametrize("grid", sorted(PROFILE_GRIDS))
@pytest.mark.parametrize("k", [1, 3, 8])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_profile_kernels_read_a_shared_profile_bit_for_bit(grid, k, seed):
    # a product objective sorts the rows of x and y as one stack and hands
    # each kernel its half of the profile: that must give fn(values) of
    # the half, and fn(row) per row, to the last bit
    ms = PROFILE_GRIDS[grid]()
    V = _stack(np.random.default_rng(seed), k, ms.n_cells)
    v, w, bp, order = S._decreasing_profile(V, ms.widths)
    taken = set()
    for name, space in FAMILIES.items():
        compiled = norm_evaluator(space, ms)
        if not compiled.profile:
            continue
        taken.add(name)
        for half in (slice(None, k), slice(k, None)):
            prof = (v[half], w[half], bp[half], order[half])
            got = compiled.fn(prof)
            if compiled.grad is not None:
                nrm, g = compiled.grad(prof)
                nrm_v, g_v = compiled.grad(V[half])
                assert np.array_equal(_bits(nrm), _bits(got)) and np.array_equal(_bits(nrm_v), _bits(got)), name
                assert np.array_equal(_bits(g), _bits(g_v)), (name, half)
            assert np.array_equal(_bits(got), _bits(compiled.fn(V[half]))), (name, half)
            assert np.array_equal(_bits(got), _bits([compiled.fn(row) for row in V[half]])), (name, half)
    # every power-weight Lorentz and Marcinkiewicz kernel takes a profile
    assert {"lorentz_lambda", "lorentz_lambda_p", "marcinkiewicz", "marcinkiewicz_star"} <= taken
    assert "lp_plain" not in taken and "orlicz" not in taken


@pytest.mark.parametrize("kind, n", [("counting", 7), ("unit", 16), ("half", 33)])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_every_kernel_is_lattice_monotone(kind, n, seed):
    # x <= y cell by cell gives |x| <= |y|: the sup-type product split
    # rests on it, taking the least x = z / y at the largest y of norm 1.
    # A kernel that is not monotone must not claim to be exact: over the
    # falling PowerLogWeight(0.5, 1), Lambda_phi is no lattice norm (4.5 %
    # on unit_interval(16)) and M*_phi's sampled cell sups undercount a
    # sup inside a cell (7.5e-4); both are estimates.
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


def test_a_lorentz_weight_that_fails_quasi_concavity_is_an_estimate():
    ms = unit_interval(16)
    falling = norm_evaluator(LorentzLambda(PLW), ms)
    assert falling.kind == "estimate" and any("quasi-concavity" in note for note in falling.notes)
    assert norm_evaluator(LorentzLambda(PowerLogWeight(0.5, -0.2)), ms).kind == "exact"


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
