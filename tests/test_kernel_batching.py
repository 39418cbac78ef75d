"""Batched kernel calls give every row's one-row value, bit for bit.

Every compiled kernel maps a ``(k, n)`` array to its k row norms.  The
product engine relies on ``fn(V)[i] == fn(V[i])`` exactly, so these
tests compare bit patterns, for every kernel family, on unit, half-line
and counting grids, with zero cells, all-zero rows, and Fortran-ordered
or sliced batches.
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
        assert compiled is not None and not getattr(compiled.fn, "rowwise", False), space


GAUGE_PHIS = {
    "shifted": ShiftedPower(0.3, 1.0, 2.0),
    "sum": YoungSum((Power(1.0, 2.0), Power(0.5, 3.0))),
    "max": YoungMax((Power(1.0, 2.0), Power(0.5, 3.0))),
    # values reach 3, so the cap binds on some rows and not on others
    "capped": Capped(Power(1.0, 2.0), 2.0),
    "oplus": oplus(Power(1.0, 3.0), Power(1.0, 1.5)),
    "ominus": ominus(Power(1.0, 2.0), Power(1.0, 4.0)),
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
