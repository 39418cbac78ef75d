"""Tests for the Young-function calculus: atoms, combinators, inverses,
the infimal/residual splitting nodes, and relation certificates.

Every expected value here is a hand-derived closed form or a brute-force
minimisation independent of the evaluator under test.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bfslab.spaces as spaces
import bfslab.young as young
from bfslab import (
    Capped,
    Lp,
    Ominus,
    Oplus,
    OrliczCL,
    Power,
    PowerWeight,
    ShiftedPower,
    StepFunction,
    YoungMax,
    YoungSum,
    canonical,
    check_condition_power_bound,
    check_relation,
    inverse,
    inverse_batch,
    is_midpoint_convex_sampled,
    luxemburg_norm,
    modular,
    norm,
    ominus,
    oplus,
    unit_interval,
    young_from_json,
    young_to_json,
)


# ---------------------------------------------------------------------------
# atoms


def test_power_eval_and_exact_inverse():
    phi = Power(2.0, 3.0)
    us = np.geomspace(1e-4, 1e4, 25)
    assert np.allclose(phi(us), 2.0 * us**3.0, rtol=1e-14)
    for v in (0.0, 1e-6, 1.0, 8.0, 1e9):
        u = inverse(phi, v)
        assert math.isclose(u, (v / 2.0) ** (1.0 / 3.0), rel_tol=1e-14, abs_tol=0.0)


def test_shifted_power_vanishes_up_to_the_shift():
    phi = ShiftedPower(2.0, 3.0, 2.0)
    assert phi(0.0) == 0.0
    assert phi(2.0) == 0.0
    assert math.isclose(phi(5.0), 3.0 * 9.0, rel_tol=1e-14)
    assert phi.a_phi == 2.0
    # inverse(phi, 0) lands on the edge of the null zone.
    assert inverse(phi, 0.0) == 2.0
    assert math.isclose(inverse(phi, 12.0), 4.0, rel_tol=1e-14)


def test_atom_validation_errors():
    with pytest.raises(ValueError):
        Power(1.0, 0.5)
    with pytest.raises(ValueError):
        Power(0.0, 2.0)
    with pytest.raises(ValueError):
        Power(-1.0, 2.0)
    with pytest.raises(ValueError):
        ShiftedPower(-0.1, 1.0, 2.0)
    with pytest.raises(ValueError):
        ShiftedPower(1.0, 1.0, 0.9)
    with pytest.raises(ValueError):
        Capped(Power(1.0, 2.0), 0.0)
    with pytest.raises(ValueError):
        YoungSum((Power(1.0, 2.0),))
    with pytest.raises(ValueError):
        YoungMax((Power(1.0, 2.0),))


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        Power(1.0, 2.0)(-1.0)


def test_capped_domain_and_inverse_saturation():
    phi = Capped(Power(1.0, 2.0), 3.0)
    assert math.isclose(phi(2.0), 4.0, rel_tol=1e-14)
    assert phi(4.0) == math.inf
    assert phi.b_phi == 3.0
    assert math.isclose(inverse(phi, 4.0), 2.0, rel_tol=1e-14)
    # Targets past phi(b) clamp to the cap instead of escaping it.
    assert inverse(phi, 100.0) == 3.0
    assert inverse(phi, math.inf) == 3.0


def test_sum_and_max_are_pointwise():
    f, g = Power(1.0, 1.0), Power(1.0, 3.0)
    s = YoungSum((f, g))
    m = YoungMax((f, g))
    us = np.geomspace(1e-3, 1e3, 31)
    assert np.allclose(s(us), us + us**3, rtol=1e-14)
    assert np.allclose(m(us), np.maximum(us, us**3), rtol=1e-14)


# ---------------------------------------------------------------------------
# inverses


def test_inverse_rejects_negative_targets():
    with pytest.raises(ValueError):
        inverse(Power(1.0, 2.0), -1.0)


def test_inverse_bisection_agrees_with_algebra():
    # u + u**2 = 2 at u = 1; no closed-form branch for sums.
    phi = YoungSum((Power(1.0, 1.0), Power(1.0, 2.0)))
    assert math.isclose(inverse(phi, 2.0), 1.0, rel_tol=1e-9)
    # Quadratic formula cross-check at a second target.
    v = 5.0
    root = 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * v))
    assert math.isclose(inverse(phi, v), root, rel_tol=1e-9)


def test_inverse_round_trip_on_strictly_increasing_parts():
    rng = np.random.default_rng(20240817)
    phi = YoungSum((Power(0.7, 1.5), Power(2.0, 4.0)))
    for _ in range(25):
        v = float(np.exp(rng.uniform(math.log(1e-5), math.log(1e5))))
        u = inverse(phi, v)
        assert math.isclose(float(phi(u)), v, rel_tol=1e-8)


def test_inverse_batch_matches_scalar_inverse():
    targets = np.geomspace(1e-4, 1e4, 40)
    for phi in (
        Power(1.0, 2.0),
        ShiftedPower(0.5, 2.0, 3.0),
        YoungSum((Power(1.0, 1.0), Power(1.0, 2.0))),
        Capped(Power(1.0, 2.0), 2.0),
    ):
        batch = inverse_batch(phi, targets)
        scalar = np.array([inverse(phi, float(v)) for v in targets])
        assert np.array_equal(batch, scalar)
        assert np.all(np.diff(batch) >= -1e-12 * np.abs(batch[1:]))


_NUMERIC_INVERSES = [
    YoungSum((Power(1.0, 1.0), Power(1.0, 1.0))),
    YoungSum((Power(0.7, 1.5), Power(2.0, 4.0))),
    YoungMax((Power(1.0, 2.0), Power(0.5, 3.0))),
    Capped(YoungSum((Power(1.0, 1.0), Power(1.0, 2.0))), 1e150),
]


@pytest.mark.parametrize("phi", _NUMERIC_INVERSES, ids=["sum_linear", "sum_powers", "max", "capped_sum"])
def test_numeric_inverses_bracket_the_answer(phi):
    targets = np.geomspace(1e-6, 1e200, 42)
    batches = (inverse_batch(phi, targets), inverse_batch(phi, targets[::-1])[::-1])
    for i, v in enumerate(targets):
        for u in (inverse(phi, float(v)), float(batches[0][i]), float(batches[1][i])):
            assert float(phi(u)) > v
            assert float(phi(u * (1.0 - 1e-11))) <= v


def test_inverse_of_a_huge_target():
    # 2u = 1e200 at 5e199, past 400 doublings from 1 (2^400 ~ 2.6e120)
    phi = YoungSum((Power(1.0, 1.0), Power(1.0, 1.0)))
    assert math.isclose(inverse(phi, 1e200), 5e199, rel_tol=1e-12)
    assert math.isclose(inverse_batch(phi, np.array([1.0, 1e200]))[1], 5e199, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# infimal splitting


def test_oplus_of_squares_is_twice_identity():
    # inf over v*w = u of v^2 + w^2 is attained at v = w = sqrt(u).
    phi = oplus(Power(1.0, 2.0), Power(1.0, 2.0))
    for u in np.geomspace(1e-3, 1e3, 13):
        assert math.isclose(phi(float(u)), 2.0 * u, rel_tol=1e-8)


def test_oplus_of_linears_is_twice_sqrt():
    phi = oplus(Power(1.0, 1.0), Power(1.0, 1.0))
    for u in np.geomspace(1e-3, 1e3, 13):
        assert math.isclose(phi(float(u)), 2.0 * math.sqrt(u), rel_tol=1e-8)


def test_oplus_mixed_powers_closed_form():
    # inf_v v^3 + (u/v)^{3/2} = K * u with K = c^3 + c^{-3/2}, c = 2**(-2/9):
    # stationarity gives v = c * u^{1/3}.
    phi = oplus(Power(1.0, 3.0), Power(1.0, 1.5))
    c = 0.5 ** (2.0 / 9.0)
    k = c**3 + c**-1.5
    for u in np.geomspace(1e-2, 1e2, 9):
        assert math.isclose(phi(float(u)), k * u, rel_tol=1e-8)


def test_oplus_is_exactly_commutative():
    a, b = Power(1.0, 3.0), Power(2.0, 1.5)
    left = Oplus(a, b)
    right = Oplus(b, a)
    for u in np.geomspace(1e-3, 1e3, 11):
        assert left(float(u)) == right(float(u))


def test_oplus_against_brute_force_grid():
    # Independent oracle: dense log-grid minimisation of the splitting
    # objective, no golden refinement, no shared code path.
    phi = oplus(Power(1.0, 2.0), Power(1.0, 4.0))
    vs = np.geomspace(1e-6, 1e6, 100_000)
    expected_const = 3.0 * 2.0 ** (-2.0 / 3.0)  # inf of v^2 + (u/v)^4 is K u^{4/3}
    for u in np.geomspace(1e-2, 1e2, 9):
        brute = float(np.min(vs**2 + (u / vs) ** 4))
        val = phi(float(u))
        assert math.isclose(val, brute, rel_tol=1e-6)
        assert math.isclose(val, expected_const * u ** (4.0 / 3.0), rel_tol=1e-7)


def test_oplus_respects_null_zone_and_cap():
    # Splitting a shifted atom with a capped one: the product of the
    # thresholds bounds the null zone, caps multiply.
    phi = Oplus(ShiftedPower(2.0, 1.0, 2.0), Capped(Power(1.0, 2.0), 5.0))
    assert phi.a_phi == 0.0  # capped factor vanishes only at 0
    assert phi.b_phi == math.inf
    capped_pair = Oplus(Capped(Power(1.0, 1.0), 3.0), Capped(Power(1.0, 2.0), 5.0))
    assert capped_pair.b_phi == 15.0
    assert capped_pair(16.0) == math.inf


# ---------------------------------------------------------------------------
# the Hoelder rule: a (+) of two powers is a power


def _hoelder_constant(c1, p, c2, q):
    # K of c1 u^p (+) c2 u^q = K u^r, from the stationary split at u = 1:
    # p c1 v^p = q c2 v^-q gives v^(p+q) = q c2 / (p c1)
    v = (q * c2 / (p * c1)) ** (1.0 / (p + q))
    return c1 * v**p + c2 * v**-q


def _scans(monkeypatch):
    calls = []
    scan = young._log_scan

    def counted(*args, **kwargs):
        calls.append(1)
        return scan(*args, **kwargs)

    monkeypatch.setattr(young, "_log_scan", counted)
    return calls


@settings(max_examples=60, deadline=None)
@given(
    lc1=st.floats(-3.0, 3.0),
    lc2=st.floats(-3.0, 3.0),
    p=st.floats(1.0, 8.0),
    q=st.floats(1.0, 8.0),
)
def test_oplus_of_two_powers_is_the_hoelder_power(lc1, lc2, p, q):
    c1, c2 = 10.0**lc1, 10.0**lc2
    r = p * q / (p + q)
    assume(r >= 1.0)
    a, b = Power(c1, p), Power(c2, q)
    us = np.geomspace(1e-3, 1e3, 7)
    got = Oplus(a, b)(us)
    want = _hoelder_constant(c1, p, c2, q) * us**r
    assert np.allclose(got, want, rtol=1e-12, atol=0.0), (got, want)
    vs = np.geomspace(1e-12, 1e12, 200_001)
    for u, val in zip(us, got):
        brute = float(np.min(c1 * vs**p + c2 * (u / vs) ** q))
        assert val <= brute * (1 + 1e-12), (u, val, brute)
    assert np.array_equal(got, Oplus(b, a)(us))


def test_nested_power_pairs_collapse_commutatively():
    a, b, c = Power(1.0, 3.0), Power(2.0, 4.0), Power(0.5, 6.0)
    left, right = Oplus(Oplus(a, b), c), Oplus(c, Oplus(b, a))
    us = np.geomspace(1e-6, 1e6, 25)
    assert np.array_equal(left(us), right(us))
    # 1/r = 1/3 + 1/4 + 1/6 and the constants compose pairwise
    inner = _hoelder_constant(1.0, 3.0, 2.0, 4.0)
    want = _hoelder_constant(inner, 12.0 / 7.0, 0.5, 6.0) * us ** (4.0 / 3.0)
    assert np.allclose(left(us), want, rtol=1e-12, atol=0.0)


def test_orlicz_space_of_a_power_pair_is_an_exact_lebesgue_space():
    phi = oplus(Power(1.0, 3.0), Power(1.0, 1.5))
    k = _hoelder_constant(1.0, 3.0, 1.0, 1.5)
    sp = canonical(OrliczCL(Lp(1.0), phi))
    assert sp.p == 1.0 and sp.weight.alpha == 0.0
    assert math.isclose(sp.weight.coef, k, rel_tol=1e-14)
    assert sp == Lp(1.0, PowerWeight(0.0, young._as_power(phi).c))
    x = StepFunction(unit_interval(8), np.linspace(3.0, 0.5, 8))
    res = norm(OrliczCL(Lp(1.0), phi), x)
    assert res.kind == "exact"
    assert math.isclose(res.value, k * norm(Lp(1.0), x).value, rel_tol=1e-14)


def test_inverse_of_a_power_pair_is_the_exact_power_inverse():
    phi = oplus(Power(2.0, 2.0), Power(0.5, 4.0))
    power = young._as_power(phi)
    assert power.p == 4.0 / 3.0
    targets = np.geomspace(1e-6, 1e6, 31)
    want = np.array([power.inverse_exact(t) for t in targets])
    assert np.array_equal(inverse_batch(phi, targets), want)
    assert inverse(phi, 3.0) == power.inverse_exact(3.0)


@pytest.mark.parametrize(
    "phi",
    [
        oplus(Power(1.0, 1.0), Power(1.0, 2.0)),  # r = 2/3 < 1
        oplus(ShiftedPower(0.3, 1.0, 2.0), Power(1.0, 2.0)),
        oplus(Capped(Power(1.0, 2.0), 4.0), Power(1.0, 2.0)),
    ],
    ids=["linear_square", "shifted", "capped"],
)
def test_other_pairs_still_run_the_scan(phi, monkeypatch):
    assert young._as_power(phi) is None
    calls = _scans(monkeypatch)
    phi(np.array([0.5, 2.0]))
    assert calls


def test_power_pairs_run_no_scan(monkeypatch):
    calls = _scans(monkeypatch)
    oplus(Power(1.0, 2.0), Power(1.0, 2.0))(np.geomspace(1e-3, 1e3, 40))
    Oplus(Oplus(Power(1.0, 4.0), Power(1.0, 4.0)), Power(1.0, 2.0))(np.array([1.0]))  # K u^2 (+) u^2
    assert not calls


# ---------------------------------------------------------------------------
# the multiplier rule: a (-) of two powers with q > p is a power


def _stationary_value(c, p, c1, q):
    # sup_v c v^p - c1 v^q at u = 1, from its stationary point
    # p c v^p = q c1 v^q, that is v^(q-p) = p c / (q c1); +inf where a
    # float power overflows, which the caller's range check discards
    try:
        v = (p * c / (q * c1)) ** (1.0 / (q - p))
        return c * v**p - c1 * v**q
    except OverflowError:
        return math.inf


def _brute_sup(c, p, c1, q):
    # a log grid over the whole float range, then a dense one around its best point
    with np.errstate(over="ignore", invalid="ignore"):
        vs = np.exp(np.linspace(-700.0, 700.0, 200_001))
        vals = c * vs**p - c1 * vs**q
        k = int(np.nanargmax(vals))
        fine = np.exp(np.linspace(math.log(vs[max(k - 2, 0)]), math.log(vs[min(k + 2, vs.size - 1)]), 1_800_001))
        return float(np.nanmax(c * fine**p - c1 * fine**q))


@settings(max_examples=60, deadline=None)
@given(
    lc=st.floats(-3.0, 3.0),
    lc1=st.floats(-3.0, 3.0),
    p=st.floats(1.0, 8.0),
    gap=st.floats(0.01, 7.0),
)
def test_ominus_of_two_powers_is_the_multiplier_power(lc, lc1, p, gap):
    # the reference's exponent 1/(q-p) multiplies each rounding of
    # p c / (q c1): a gap q - p >= 0.01 keeps that factor at most 100
    q = p + gap
    assume(q <= 8.0)
    c, c1 = 10.0**lc, 10.0**lc1
    phi = Ominus(Power(c, p), Power(c1, q))
    power = young._as_power(phi)
    want = _stationary_value(c, p, c1, q) if power is not None else math.inf
    assume(power is not None and 1e-300 < power.c < 1e300 and 1e-300 < want < 1e300)
    assert math.isclose(power.p, p * q / (q - p), rel_tol=1e-15)
    got = phi(1.0)
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (got, want)
    assert got >= _brute_sup(c, p, c1, q) * (1.0 - 1e-12)
    us = np.array([0.5, 2.0])
    with np.errstate(over="ignore"):  # r reaches 6,400
        assert np.array_equal(phi(us), power.c * us**power.p)


def test_ominus_of_a_larger_power_is_rejected():
    # sup_v (u v)^3 - v^2 is infinite for every u > 0: no Young function
    with pytest.raises(ValueError, match="infinite at every u > 0"):
        ominus(Power(1.0, 3.0), Power(1.0, 2.0))
    # the same through a collapsed (+): u^4 (+) u^4 is 2 u^2
    with pytest.raises(ValueError, match="infinite at every u > 0"):
        Ominus(Power(1.0, 3.0), Oplus(Power(1.0, 4.0), Power(1.0, 4.0)))
    # equal powers keep the step (test_ominus_of_equal_squares_is_a_step)
    assert young._as_power(ominus(Power(1.0, 2.0), Power(1.0, 2.0))) is None


def test_a_zero_shift_is_a_power_atom():
    # u^3 (-) u^2 spelled with a zero-shift ShiftedPower: the same function, so the same rejection
    assert young._as_power(ShiftedPower(0.0, 2.0, 3.0)) == Power(2.0, 3.0)
    with pytest.raises(ValueError, match="infinite at every u > 0"):
        ominus(ShiftedPower(0.0, 1.0, 3.0), Power(1.0, 2.0))
    # and its Orlicz space is the Lebesgue space of the power
    assert isinstance(canonical(OrliczCL(Lp(1.0), ShiftedPower(0.0, 2.0, 3.0))), Lp)


def test_ominus_a_phi_is_where_the_values_turn_positive():
    # (u v - 0.3)_+^2 - v^4 > 0 for some v exactly when v^2 - u v + 0.3 < 0
    # has a root, that is once u passes sqrt(1.2)
    phi = Ominus(ShiftedPower(0.3, 1.0, 2.0), Power(1.0, 4.0))
    a = phi.a_phi
    assert a == pytest.approx(math.sqrt(1.2), rel=1e-6)
    assert phi(a) > 0.0 and phi(a * (1.0 - 1e-10)) == 0.0
    assert inverse(phi, 0.0) == a
    # positive from the bottom of the window on: a_phi is 0, not a point where values underflow
    assert ominus(Power(1.0, 2.0), ShiftedPower(0.3, 1.0, 4.0)).a_phi == 0.0


def test_ominus_finds_a_positive_region_narrower_than_a_grid_step():
    # at u = 1.0955 the sup is positive only for v in (u ± sqrt(u^2 - 1.2)) / 2,
    # about 2 % wide where the first scan steps 7.5 %: a sampled local
    # minimum away from the argmin (which sits at the window's bottom end)
    phi = Ominus(ShiftedPower(0.3, 1.0, 2.0), Power(1.0, 4.0))
    u = 1.0955
    v = np.linspace(0.5, 0.6, 2_000_001)
    brute = float(np.max(np.maximum(u * v - 0.3, 0.0) ** 2 - v**4))
    assert brute > 1e-5
    assert phi(u) == pytest.approx(brute, abs=1e-9)


def test_ominus_b_phi_is_the_ratio_of_the_domain_ends():
    # u^2 capped at 3 (-) u^4 capped at 1.5: u v stays within 3 for every v <= 1.5 exactly when u <= 2
    phi = ominus(Capped(Power(1.0, 2.0), 3.0), Capped(Power(1.0, 4.0), 1.5))
    assert phi.b_phi == 2.0
    # sup over v <= 1.5 of 3.61 v^2 - v^4, at v^2 = 1.805
    assert math.isclose(phi(1.9), 1.805**2, rel_tol=1e-9)
    assert math.isfinite(phi(2.0)) and phi(np.nextafter(2.0, 3.0)) == math.inf
    assert inverse(phi, 1e6) == 2.0


def test_ominus_of_a_bounded_domain_by_an_unbounded_one_is_rejected():
    # v -> inf pushes u v past 3 for every u > 0
    with pytest.raises(ValueError, match="infinite at every u > 0"):
        Ominus(Capped(Power(1.0, 2.0), 3.0), Power(1.0, 4.0))


def test_collapsed_ominus_reports_the_atom_thresholds():
    phi = ominus(Power(1.0, 2.0), Power(1.0, 4.0))
    assert young._as_power(phi) == Power(0.25, 4.0)
    assert phi.a_phi == 0.0 and phi.b_phi == math.inf


def test_ominus_rule_stays_exact_for_nearly_equal_powers():
    # u^2 (-) u^(2 + 1e-9): K = (d/q) e^(-log1p(d/2) 2/d) with d = q - 2,
    # summed here as a series in d; the plain power (2/q)^(2/d) is 5e-10 off
    d = 2.0 + 1e-9 - 2.0
    q = 2.0 + d
    x = d / 2.0
    log1p = x - x * x / 2.0 + x**3 / 3.0
    want = (d / q) * math.exp(-log1p / x)
    assert math.isclose(young._as_power(ominus(Power(1.0, 2.0), Power(1.0, q))).c, want, rel_tol=1e-14)


def test_oplus_of_an_ominus_power_pair_collapses():
    # u^2 (-) u^4 = u^4/4, and u^4/4 (+) u^4 = K u^2 by the Hoelder rule
    phi = Oplus(ominus(Power(1.0, 2.0), Power(1.0, 4.0)), Power(1.0, 4.0))
    power = young._as_power(phi)
    assert power is not None and power.p == 2.0
    assert math.isclose(power.c, _hoelder_constant(0.25, 4.0, 1.0, 4.0), rel_tol=1e-14)
    us = np.geomspace(1e-3, 1e3, 13)
    assert np.array_equal(phi(us), power.c * us**2.0)


def test_orlicz_space_of_an_ominus_power_pair_is_an_exact_lebesgue_space():
    phi = ominus(Power(1.0, 2.0), Power(1.0, 4.0))
    sp = canonical(OrliczCL(Lp(1.0), phi))
    assert sp == Lp(4.0, PowerWeight(0.0, 0.25**0.25))
    x = StepFunction(unit_interval(8), np.linspace(3.0, 0.5, 8))
    res = luxemburg_norm(Lp(1.0), phi, x)
    assert res.kind == "exact"
    assert math.isclose(res.value, 0.25**0.25 * norm(Lp(4.0), x).value, rel_tol=1e-14)


def test_inverse_of_an_ominus_power_pair_is_the_exact_power_inverse():
    phi = ominus(Power(2.0, 1.5), Power(0.5, 3.0))
    power = young._as_power(phi)
    assert power.p == 3.0
    targets = np.geomspace(1e-6, 1e6, 31)
    want = np.array([power.inverse_exact(t) for t in targets])
    assert np.array_equal(inverse_batch(phi, targets), want)
    assert inverse(phi, 3.0) == power.inverse_exact(3.0)


def test_power_pairs_run_no_ominus_scan(monkeypatch):
    calls = _scans(monkeypatch)
    phi = ominus(Power(1.0, 2.0), Power(1.0, 4.0))
    phi(np.geomspace(1e-3, 1e3, 40))
    assert (phi.a_phi, phi.b_phi) == (0.0, math.inf)
    Ominus(Oplus(Power(1.0, 2.0), Power(1.0, 2.0)), Power(1.0, 3.0))(np.array([1.0]))  # 2u (-) u^3
    inverse_batch(phi, np.array([0.5, 2.0]))
    luxemburg_norm(Lp(1.0), phi, StepFunction(unit_interval(8), np.linspace(3.0, 0.5, 8)))
    assert not calls


# ---------------------------------------------------------------------------
# array evaluation


_NODES = {
    "power": Power(2.0, 3.0),
    "shifted": ShiftedPower(0.5, 1.5, 2.0),
    "capped": Capped(Power(1.0, 2.0), 3.0),
    "sum": YoungSum((Power(1.0, 1.0), ShiftedPower(1.0, 2.0, 2.0))),
    "max": YoungMax((Power(1.0, 2.0), Power(3.0, 1.0))),
    "oplus": Oplus(Power(1.0, 3.0), Power(1.0, 1.5)),
    "ominus": Ominus(Power(1.0, 1.0), Power(1.0, 2.0)),
    "nested_oplus": Oplus(Oplus(Power(1.0, 2.0), Power(1.0, 2.0)), Capped(Power(1.0, 2.0), 4.0)),
    # the inner pair is no Hoelder pair, so nesting runs the numeric scan twice
    "nested_oplus_shifted": Oplus(Oplus(ShiftedPower(0.3, 1.0, 2.0), Power(1.0, 2.0)), Capped(Power(1.0, 2.0), 4.0)),
    # no power pair: the numeric (-) scan, with a null zone up to about u = 1
    "ominus_shifted": Ominus(ShiftedPower(0.3, 1.0, 2.0), Power(1.0, 4.0)),
}


@pytest.mark.parametrize("name", sorted(_NODES))
def test_array_evaluation_is_the_scalar_evaluation(name):
    phi = _NODES[name]
    flat = np.geomspace(1e-2, 1e2, 6)
    for u in (flat, flat.reshape(2, 3)):
        got = phi(u)
        assert got.shape == u.shape
        want = np.array([phi(float(t)) for t in u.ravel()]).reshape(u.shape)
        assert np.array_equal(got, want)


# The scan-plus-golden evaluation of the splitting nodes, one argument at a
# time, kept here as the reference for the batched rescans.


def _at(fn, v):
    return float(fn(np.array([v]))[0])


def _golden_reference(f, lo, hi, rtol=1e-10):
    if not (lo > 0 and hi > lo):
        return _at(f, max(lo, hi))
    a, b = math.log(lo), math.log(hi)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = _at(f, math.exp(c)), _at(f, math.exp(d))
    best = min(fc, fd)
    for _ in range(200):
        if b - a <= rtol * max(1.0, abs(a), abs(b)):
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _at(f, math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _at(f, math.exp(d))
        best = min(best, fc, fd)
    return best


def _scan_reference(obj, lo, hi):
    grid = np.geomspace(lo, hi, 512)
    vals = obj(grid)
    k = int(np.argmin(vals))
    return vals, k, (grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)])


def _reference_eval(phi, u):
    if isinstance(phi, (Oplus, Ominus)):
        ref = _oplus_reference if isinstance(phi, Oplus) else _ominus_reference
        return np.array([ref(phi, float(x)) for x in u.ravel()]).reshape(u.shape)
    return phi._eval(u)


def _oplus_reference(phi, u):
    f, g = phi._children
    if u == 0.0 or u <= phi.a_phi:
        return 0.0
    if u > phi.b_phi:
        return math.inf
    b1, b2 = f.b_phi, g.b_phi
    scale = math.sqrt(u)
    lo = max(scale * 1e-9, u / b2 if not math.isinf(b2) else 0.0)
    hi = scale * 1e9 if math.isinf(b1) else b1
    if hi <= lo:
        lo, hi = hi * 0.5, lo * 2.0
    lo, hi = min(lo, u / hi), max(hi, u / lo)

    def obj(v):
        w = u / v
        return np.where((v <= b1) & (w <= b2), _reference_eval(f, v) + _reference_eval(g, w), math.inf)

    with np.errstate(over="ignore", invalid="ignore"):
        tot, k, bracket = _scan_reference(obj, lo, hi)
        best = float(tot[k])
        for v_cand in (f.a_phi, (u / g.a_phi) if g.a_phi > 0 else 0.0):
            if v_cand and lo <= v_cand <= hi:
                best = min(best, _at(obj, v_cand))
        if math.isfinite(best):
            best = min(best, _golden_reference(obj, *bracket))
    return best


def _ominus_reference(node, u):
    if u == 0.0:
        return 0.0
    phi, phi1 = node.phi, node.phi1
    b1, bp = phi1.b_phi, phi.b_phi
    if not math.isinf(bp):
        limit = bp / u
        if b1 > limit:
            probe = min(b1, limit * (1 + 1e-9))
            if probe > limit and _at(lambda v: _reference_eval(phi1, v), probe) < math.inf:
                return math.inf
    lo, hi = 1e-8, min(b1, 1e8)
    if hi <= lo:
        hi = lo * 10.0

    def obj(v):
        g1 = _reference_eval(phi1, v)
        return np.where(np.isfinite(g1), g1 - _reference_eval(phi, u * v), math.inf)

    with np.errstate(over="ignore", invalid="ignore"):
        neg, k, bracket = _scan_reference(obj, lo, hi)
        low = float(neg[k])
        if low == -math.inf:
            return math.inf
        if k >= neg.size - 2 and math.isinf(b1) and np.all(np.diff(neg[-3:]) < 0):
            if -low > 1e30 or -low > 1e3 * max(abs(float(neg[neg.size // 2])), 1e-300):
                return math.inf
        low = min(low, _golden_reference(obj, *bracket))
    return max(0.0, -low)


_SPLITTING_NODES = {
    "oplus": Oplus(Power(1.0, 3.0), Power(1.0, 1.5)),
    "ominus": Ominus(Power(1.0, 1.0), Power(1.0, 2.0)),
    "nested_oplus": Oplus(Oplus(Power(1.0, 2.0), Power(1.0, 2.0)), Capped(Power(1.0, 2.0), 4.0)),
    "nested_oplus_shifted": Oplus(Oplus(ShiftedPower(0.3, 1.0, 2.0), Power(1.0, 2.0)), Capped(Power(1.0, 2.0), 4.0)),
    "oplus_null_zone": Oplus(ShiftedPower(2.0, 1.0, 2.0), Capped(Power(1.0, 2.0), 5.0)),
    "ominus_square_quartic": Ominus(Power(1.0, 2.0), Power(1.0, 4.0)),
    # no power pair, positive at every u > 0: the numeric (-) scan
    "ominus_shifted": Ominus(Power(1.0, 2.0), ShiftedPower(0.3, 1.0, 4.0)),
}


@pytest.mark.parametrize("name", sorted(_SPLITTING_NODES))
def test_splitting_nodes_agree_with_the_scan_and_golden_reference(name):
    phi = _SPLITTING_NODES[name]
    us = np.geomspace(1e-2, 1e2, 3 if name.startswith("nested") else 9)
    got = phi(us)
    want = np.array([_reference_eval(phi, np.array([u]))[0] for u in us])
    assert np.all(want > 0)
    if isinstance(phi, Oplus):
        assert np.all(got <= want * (1 + 1e-10)), (got, want)
    else:
        assert np.all(np.abs(got - want) <= 1e-10 * want), (got, want)


def test_splitting_memory_stays_bounded_on_a_large_argument():
    # the scans go in blocks of cells, so a 96 x 48 argument (the
    # power-bound certificate's matrix) never holds all its grids at once
    phi = oplus(Power(1.0, 2.0), Power(1.0, 4.0))
    u = np.outer(np.geomspace(1e-6, 1e6, 96), np.geomspace(1e-6, 0.5, 48))
    tracemalloc.start()
    try:
        phi._eval(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def _decreasing_profile(ms, gamma, seed):
    """A power singularity times a random decay, of unit mass."""
    rng = np.random.default_rng(seed)
    t = np.maximum(ms.breakpoints[1:], ms.breakpoints[1] * 0.5)
    vals = t**-gamma * np.exp(-np.cumsum(rng.uniform(0.0, 0.3, ms.n_cells)))
    return StepFunction(ms, vals / float(np.sum(vals * ms.widths)))


# a power node's gauge is a closed form: canonical rewrites its Orlicz space to an Lp
@pytest.mark.parametrize("name", sorted(set(_NODES) - {"power"}))
def test_gauges_bracket_the_threshold_in_few_modular_evaluations(name, monkeypatch):
    phi = _NODES[name]
    steps = []
    search = spaces._threshold

    def counted(probe, *args):
        def counting_probe(rows, t):
            steps.append(rows.size)
            return probe(rows, t)

        return search(counting_probe, *args)

    monkeypatch.setattr(spaces, "_threshold", counted)
    ms = unit_interval(12)
    # a nested node costs about 2,500 inner cells per cell: one profile
    for i, gamma in enumerate((0.2,) if name.startswith("nested") else (0.05, 0.2, 0.35)):
        x = _decreasing_profile(ms, gamma, i)
        steps.clear()
        lam = luxemburg_norm(Lp(1.0), phi, x).value
        # one row: a step is one modular evaluation (bisection takes 35-37)
        assert len(steps) <= 12, (gamma, len(steps))
        assert modular(Lp(1.0), phi, x.with_values(x.values / lam)) <= 1.0
        assert modular(Lp(1.0), phi, x.with_values(x.values / (lam * (1.0 - 1e-9)))) > 1.0


# ---------------------------------------------------------------------------
# residual splitting


def test_ominus_of_equal_squares_is_a_step():
    phi = ominus(Power(1.0, 2.0), Power(1.0, 2.0))
    # sup_v (u^2 - 1) v^2: zero below u = 1, infinite above.
    assert phi(0.5) == 0.0
    assert phi(0.99) == 0.0
    assert phi(1.5) == math.inf
    assert phi(4.0) == math.inf
    assert 0.9 <= phi.a_phi <= 1.1


def test_ominus_beyond_the_first_window_is_finite():
    # sup_v u^2 v^2 - v^4 = u^4/4 at v = u/sqrt(2): outside [1e-8, 1e8]
    phi = ominus(Power(1.0, 2.0), Power(1.0, 4.0))
    for u in (1e9, 1e-9):
        assert math.isclose(phi(u), u**4 / 4.0, rel_tol=1e-9)
    # the window widens, but a sup that is infinite stays infinite
    step = ominus(Power(1.0, 2.0), Power(1.0, 2.0))
    assert np.array_equal(step(np.array([1e-9, 0.5, 1.0, 1.0 + 1e-7, 2.0, 1e6])), [0, 0, 0, np.inf, np.inf, np.inf])


def test_oplus_split_beyond_the_first_window():
    # c1 = 1e-40 puts the best split at v = 1e10, past sqrt(u) * 1e9
    phi = oplus(ShiftedPower(0.0, 1e-40, 2.0), Power(1.0, 2.0))
    assert math.isclose(phi(1.0), 2e-20, rel_tol=1e-9)
    # a zero shift collapses by the Hoelder rule; with a shift of 1 the
    # scan runs, and the first window would stop at 1e-22 + 1e-18
    phi = oplus(ShiftedPower(1.0, 1e-40, 2.0), Power(1.0, 2.0))
    assert young._as_power(phi) is None
    assert math.isclose(phi(1.0), 2e-20, rel_tol=1e-9)


def test_ominus_linear_minus_square_is_quarter_square():
    phi = ominus(Power(1.0, 1.0), Power(1.0, 2.0))
    # sup_v (u v - v^2) = u^2 / 4.
    for u in np.geomspace(1e-2, 1e2, 9):
        assert math.isclose(phi(float(u)), u * u / 4.0, rel_tol=1e-7)


def test_ominus_square_minus_quartic_is_quarter_quartic():
    phi = ominus(Power(1.0, 2.0), Power(1.0, 4.0))
    # sup_v (u^2 v^2 - v^4) attained at v^2 = u^2 / 2, value u^4 / 4.
    for u in np.geomspace(1e-2, 1e2, 9):
        assert math.isclose(phi(float(u)), u**4 / 4.0, rel_tol=1e-7)
    assert phi(0.0) == 0.0


def test_ominus_recovers_oplus_complement():
    # phi = phi1 oplus phi2 implies phi2 <= (phi ominus phi1) pointwise
    # wherever phi1 splits off; for the square/square pair the residual
    # of 2u against u^2 is sup_v (2uv^2... ) -- instead check the
    # quantitative direction on the mixed pair where both sides are
    # finite: residual of the infimal product never exceeds the
    # complementary factor.
    phi1 = Power(1.0, 2.0)
    phi2 = Power(1.0, 4.0)
    combined = oplus(phi1, phi2)
    residual = Ominus(combined, phi1)
    for u in np.geomspace(1e-1, 1e1, 5):
        assert residual(float(u)) <= float(phi2(u)) * (1 + 1e-6) + 1e-12


# ---------------------------------------------------------------------------
# relation certificates


def test_relation_power_identity_has_unit_constants():
    # inverse(u^4) * inverse(u^4) == inverse(u^2) exactly.
    cert = check_relation(Power(1.0, 4.0), Power(1.0, 4.0), Power(1.0, 2.0), relation="equiv")
    assert cert.holds
    assert cert.C is not None and math.isclose(cert.C, 1.0, rel_tol=1e-9)
    assert cert.D is not None and math.isclose(cert.D, 1.0, rel_tol=1e-9)
    assert cert.verdict() == "holds"


def test_relation_refuted_with_witness():
    # inv1 * inv2 = v while inv = v^{1/4}: the needed constant grows like
    # v^{3/4}, so under a sane cap the two-sided comparison is refuted
    # and the witness sits where the ratio exploded.
    cert = check_relation(
        Power(1.0, 2.0), Power(1.0, 2.0), Power(1.0, 4.0), relation="equiv", cap=100.0
    )
    assert not cert.holds
    assert cert.witness_u is not None
    assert cert.verdict() == "refuted"


def test_relation_regime_restriction_rescues_one_side():
    # v^{1/4} <= D * v holds for v bounded away from zero, so the upper
    # comparison is a large-argument fact even though it fails globally;
    # the moving constant should be flagged as threshold-sensitive.
    full = check_relation(
        Power(1.0, 2.0), Power(1.0, 2.0), Power(1.0, 4.0), relation="succ", cap=100.0
    )
    assert not full.holds
    large = check_relation(
        Power(1.0, 2.0),
        Power(1.0, 2.0),
        Power(1.0, 4.0),
        relation="succ",
        regime="large",
        cap=100.0,
    )
    assert large.holds
    assert large.u0 is not None
    assert large.D is not None and large.D <= 100.0
    assert large.sensitive
    small = check_relation(
        Power(1.0, 2.0),
        Power(1.0, 2.0),
        Power(1.0, 4.0),
        relation="prec",
        regime="small",
        cap=100.0,
    )
    assert small.holds
    assert small.u0 is not None
    # The genuine identity is regime-stable by contrast.
    stable = check_relation(
        Power(1.0, 4.0), Power(1.0, 4.0), Power(1.0, 2.0), relation="succ", regime="large"
    )
    assert stable.holds and not stable.sensitive


def test_relation_argument_validation():
    with pytest.raises(ValueError):
        check_relation(Power(1.0, 2.0), Power(1.0, 2.0), Power(1.0, 2.0), relation="weird")
    with pytest.raises(ValueError):
        check_relation(Power(1.0, 2.0), Power(1.0, 2.0), Power(1.0, 2.0), regime="medium")


def test_power_bound_certificate_for_power_atoms():
    for p in (1.0, 2.0, 3.5):
        holds, c, alpha = check_condition_power_bound(Power(1.0, p))
        assert holds
        assert math.isclose(alpha, p, rel_tol=1e-6)
        assert c <= 1.0 + 1e-9


def test_power_bound_certificate_sees_sublinear_splitting():
    # The infimal splitting of two linear atoms behaves like sqrt, so
    # the certified exponent drops to about 1/2.
    phi = oplus(Power(1.0, 1.0), Power(1.0, 1.0))
    holds, c, alpha = check_condition_power_bound(phi, s_samples=24, t_samples=12)
    assert holds
    assert 0.4 <= alpha <= 0.6
    assert c <= 2.0


def test_midpoint_convexity_samples():
    assert is_midpoint_convex_sampled(Power(1.0, 3.0))
    assert is_midpoint_convex_sampled(YoungSum((Power(1.0, 1.0), Power(2.0, 2.5))))
    assert is_midpoint_convex_sampled(ShiftedPower(1.0, 1.0, 2.0))


# ---------------------------------------------------------------------------
# serialisation


@pytest.mark.parametrize(
    "phi",
    [
        Power(2.0, 3.0),
        ShiftedPower(1.5, 0.5, 2.0),
        Capped(Power(1.0, 2.0), 4.0),
        YoungSum((Power(1.0, 1.0), Power(1.0, 2.0))),
        YoungMax((Power(1.0, 1.0), ShiftedPower(1.0, 1.0, 2.0))),
        Oplus(Power(1.0, 2.0), Power(1.0, 4.0)),
        Ominus(Power(1.0, 1.0), Power(1.0, 2.0)),
        Capped(YoungSum((Power(1.0, 1.0), Capped(Power(1.0, 2.0), 9.0))), 5.0),
    ],
)
def test_json_round_trip_is_structural(phi):
    data = young_to_json(phi)
    back = young_from_json(data)
    assert back == phi
    us = np.geomspace(1e-2, 1e1, 7)
    want = np.atleast_1d(np.asarray(phi(us), dtype=float))
    got = np.atleast_1d(np.asarray(back(us), dtype=float))
    assert np.array_equal(want, got)


def test_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        young_from_json({"kind": "mystery"})
    with pytest.raises(TypeError):
        young_to_json("not a descriptor")
