"""The pooled split of Λ ⊙ Λ and M ⊙ Λ, certified by a Hölder dual bound.

For L = Λ_ψ and C = Λ_φ or M_φ over powers, ``product._pooled_factor``
splits z so that y = z / x is constant on runs (atoms) of z's decreasing
order, and bounds the product norm from below by
(Σ √(z α β))² / (‖α/w‖_{C′} ‖β/w‖_{L′}) on the dual kernels.  Wherever
``product_norm`` takes the split, its value lies within 1e-9 of that
bound and never above the optimizer's (relative 1e-12), and its witness
splits z.  Lozanovskiĭ's L¹ = E ⊙ E′ comes out at the mass of z.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfslab import (
    LorentzLambda,
    LorentzLambdaP,
    Lp,
    Marcinkiewicz,
    PowerWeight,
    StepFunction,
    counting,
    half_line,
    lozanovskii_factorize,
    norm,
    product_norm,
    unit_interval,
)
from bfslab import product as P
from bfslab.spaces import canonical

_GRIDS = {"unit": unit_interval, "half": half_line, "counting": counting}
_PAIRS = {
    "lam_lam": lambda a, b, c, d: (LorentzLambda(PowerWeight(a, c)), LorentzLambda(PowerWeight(b, d))),
    "marc_lam": lambda a, b, c, d: (Marcinkiewicz(PowerWeight(a, c)), LorentzLambda(PowerWeight(b, d))),
    "lam_marc": lambda a, b, c, d: (LorentzLambda(PowerWeight(b, d)), Marcinkiewicz(PowerWeight(a, c))),
    # canonical rewrites Λ_{c t^a, 1} as Λ_{(c/a) t^a}
    "lamp_lamp": lambda a, b, c, d: (LorentzLambdaP(PowerWeight(a, c), 1.0), LorentzLambdaP(PowerWeight(b, d), 1.0)),
}


def _draw(seed, pair, grid):
    """A pair of ``_PAIRS`` and a z on a ``grid`` of 4 to 12 cells: in
    decreasing order or not, some of its cells dead."""
    rng = np.random.default_rng(seed)
    ms = _GRIDS[grid](int(rng.integers(4, 13)))
    E, F = _PAIRS[pair](*rng.uniform(0.05, 0.95, 2), *rng.uniform(0.5, 2.0, 2))
    vals = rng.uniform(0.05, 3.0, ms.n_cells)
    if rng.uniform() < 0.5:
        vals = np.sort(vals)[::-1].copy()
    if rng.uniform() < 0.5:
        vals[rng.choice(ms.n_cells, size=int(rng.integers(1, ms.n_cells // 2 + 1)), replace=False)] = 0.0
    return E, F, StepFunction(ms, vals)


def _optimizer(E, F, z):
    """``product_norm``'s optimizer branch, at the default budget."""
    Ec, Fc = canonical(E), canonical(F)
    return P._bound(Ec, Fc, "optimizer", *P._optimize_product(Ec, Fc, z, P._merge_opts(None)))[0]


def _pooled(E, F, z):
    """``product_norm(E, F, z)`` and the lower bound of the last split
    ``_pooled_factor`` returned (the one ``_pooled_split`` keeps), or None."""
    lowers, factor = [], P._pooled_factor

    def recorded(C, L, z):
        hit = factor(C, L, z)
        lowers.extend([] if hit is None else [hit[1]])
        return hit

    with pytest.MonkeyPatch.context() as m:
        m.setattr(P, "_pooled_factor", recorded)
        res, wit = product_norm(E, F, z)
    return res, wit, (lowers[-1] if lowers else None)


@pytest.mark.parametrize("grid", sorted(_GRIDS))
@pytest.mark.parametrize("pair", sorted(_PAIRS))
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_the_split_is_certified_and_never_above_the_optimizer(pair, grid, seed):
    E, F, z = _draw(seed, pair, grid)
    res, wit, lower = _pooled(E, F, z)
    if wit.method != "constructive":  # no split within 1e-9 of its bound: the optimizer ran
        assert wit.method == "optimizer"
        return
    assert res.kind == "upper_bound"
    # Hölder's bound holds for any alpha, beta >= 0: the value is at or above it, up to rounding
    assert lower <= res.value * (1.0 + 1e-12) and res.value <= lower * (1.0 + 1e-9), (lower, res.value)
    opt = _optimizer(E, F, z)
    assert res.value <= opt.value * (1.0 + 1e-12), (res.value, opt.value)
    supp = z.values > 0
    np.testing.assert_allclose(wit.x.values * wit.y.values, z.values, rtol=1e-12, atol=0.0)
    assert np.all(wit.x.values[~supp] == 0.0) and np.all(wit.y.values[~supp] == 0.0)
    assert math.isclose(norm(E, wit.x).value * norm(F, wit.y).value, res.value, rel_tol=1e-12)


@pytest.mark.parametrize("grid", sorted(_GRIDS))
@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
def test_lozanovskii_factorization_meets_the_mass(grid, alpha):
    # L^1 = E ⊙ E' with equal norms: the split reaches the mass of z
    ms = _GRIDS[grid](12)
    rng = np.random.default_rng(int(10 * alpha))
    z = StepFunction(ms, rng.uniform(0.1, 2.0, ms.n_cells))
    wit = lozanovskii_factorize(LorentzLambda(PowerWeight(alpha)), z)
    assert wit.method == "constructive"
    assert math.isclose(wit.product, norm(Lp(1.0), z).value, rel_tol=1e-12)


def test_a_one_ulp_move_of_z_moves_the_value_by_rounding_only():
    # Λ_{φ,1} ⊙ Λ_{ψ,1} at half_line(16): the optimizer's converged values
    # moved by up to 1.8e-6 under 1-ulp moves of z; the split sits at the
    # minimum its bound certifies, so they move by rounding only
    E, F, ms = LorentzLambdaP(PowerWeight(0.5), 1.0), LorentzLambdaP(PowerWeight(0.3), 1.0), half_line(16)
    t = np.maximum(ms.breakpoints[1:], ms.breakpoints[1] * 0.5)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        vals = t ** -rng.uniform(0.05, 0.25) * np.exp(-np.cumsum(rng.exponential(0.12, ms.n_cells)))
        res, wit = product_norm(E, F, StepFunction(ms, vals))
        assert wit.method == "constructive"
        for moved in (np.nextafter(vals, math.inf), np.nextafter(vals, 0.0), np.where(np.arange(16) == seed, np.nextafter(vals, math.inf), vals)):
            nudged = product_norm(E, F, StepFunction(ms, moved))[0].value
            assert abs(nudged - res.value) <= 1e-12 * res.value, (seed, nudged, res.value)


@pytest.mark.parametrize("pair", sorted(_PAIRS))
def test_cells_narrower_than_an_ulp_of_their_measure_join_an_atom(pair):
    # unit_interval(128) refines towards 0 down to widths of 5e-23: in an
    # unordered z such a cell may come after measure 0.5, where it adds no
    # increment to phi(T), and it pools with the atom before it
    ms = unit_interval(128)
    E, F = _PAIRS[pair](0.3, 0.6, 1.0, 1.5)
    z = StepFunction(ms, np.random.default_rng(1).uniform(0.05, 3.0, ms.n_cells))
    res, wit, lower = _pooled(E, F, z)
    assert wit.method == "constructive"
    assert lower <= res.value * (1.0 + 1e-12) and res.value <= lower * (1.0 + 1e-9), (lower, res.value)


def test_a_pair_without_exact_dual_kernels_stays_on_the_optimizer():
    # Λ over t^1.2 is no norm (its kernel is an estimate); the dual of M over
    # t^1.2, Λ over t^-0.2, is +inf on every nonzero function: no bound
    z = StepFunction(unit_interval(8), np.linspace(2.0, 0.5, 8))
    for E, F in ((LorentzLambda(PowerWeight(1.2)), LorentzLambda(PowerWeight(0.4))), (Marcinkiewicz(PowerWeight(1.2)), LorentzLambda(PowerWeight(0.4)))):
        assert P._pooled_factor(E, F, z) is None and P._pooled_factor(F, E, z) is None
