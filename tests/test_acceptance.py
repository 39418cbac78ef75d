"""Acceptance gate: end-to-end checks at desk scale.

Each test covers one acceptance criterion and prints a single
``ACCEPTANCE <tag>: PASS|FAIL`` line (visible with ``pytest -s``; the
verbose test names give the same one-line-per-criterion view).  Every
expected value is produced by an independent oracle: closed-form
integrals, explicit factor constructions, brute-force minimization, or
exact duality floors.
"""

import time

import numpy as np

from bfslab import (
    Lp,
    StepFunction,
    counting,
    fundamental,
    half_line,
    norm,
    unit_interval,
)
from bfslab.operators import hardy_identity_residual
from bfslab.product import (
    lozanovskii_factorize,
    multiplier_norm,
    orlicz_factor_witness,
    product_norm,
)
from bfslab.spaces import (
    LorentzLambda,
    Marcinkiewicz,
    MarcinkiewiczStar,
    OrliczCL,
    PowerWeight,
    Product,
    lorentz_pq,
    luxemburg_norm,
)
from bfslab.verify import report_to_json, run_all
from bfslab.young import Power, inverse, oplus

_FAST = {"max_sweeps": 300, "quick_sweeps": 25, "golden_iters": 10}


def _verdict(tag: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}{detail and ' ' + detail}")
    assert ok, f"{tag} failed: {detail}"


# 1 -------------------------------------------------------------------------


def test_criterion_01_exact_product_pair():
    start = time.time()
    worst_val = worst_wit = 0.0
    grids = [unit_interval(64), half_line(64)]
    for i in range(50):
        rng = np.random.default_rng(100 + i)
        ms = grids[i % 2]
        z = StepFunction(ms, rng.uniform(0.0, 2.0, ms.n_cells))
        res, wit = product_norm(Lp(3.0), Lp(6.0), z)
        oracle = norm(Lp(2.0), z).value
        worst_val = max(worst_val, abs(res.value - oracle) / oracle)
        nx = norm(Lp(3.0), z.with_values(z.values ** (2.0 / 3.0))).value
        ny = norm(Lp(6.0), z.with_values(z.values ** (1.0 / 3.0))).value
        worst_wit = max(worst_wit, abs(nx * ny - oracle) / oracle)
        assert wit.method == "closed_form"
    elapsed = time.time() - start
    ok = worst_val <= 1e-4 and worst_wit <= 1e-10 and elapsed <= 30.0
    _verdict(
        "01 exact_product_pair",
        ok,
        f"(rel err {worst_val:.2e}, witness err {worst_wit:.2e}, {elapsed:.1f}s)",
    )


# 2 -------------------------------------------------------------------------


def test_criterion_02_factoring_through_the_dual_recovers_the_mass():
    start = time.time()
    cases = [
        Lp(1.5),
        Lp(3.0),
        LorentzLambda(PowerWeight(0.6)),
        OrliczCL(Lp(1.0), Power(1.0, 2.0)),
    ]
    worst_hi = 1.0
    worst_gap = 0.0
    for j, space in enumerate(cases):
        ms = counting(16)
        for i in range(20):
            rng = np.random.default_rng(5000 + 100 * j + i)
            z = StepFunction(ms, rng.uniform(0.1, 2.0, ms.n_cells))
            wit = lozanovskii_factorize(space, z, eps=0.05)
            mass = norm(Lp(1.0), z).value
            worst_hi = max(worst_hi, wit.product / mass)
            worst_gap = max(worst_gap, mass - wit.product)
    elapsed = time.time() - start
    ok = worst_hi <= 1.05 and worst_gap <= 1e-9 and elapsed <= 120.0
    _verdict(
        "02 dual_factorization",
        ok,
        f"(worst ratio {worst_hi:.4f}, floor gap {worst_gap:.2e}, {elapsed:.1f}s)",
    )


# 3 -------------------------------------------------------------------------


def test_criterion_03_indicator_products_multiply_fundamentals():
    pairs = [
        (Lp(3.0), Lp(6.0)),
        (LorentzLambda(PowerWeight(0.6)), Marcinkiewicz(PowerWeight(0.3))),
    ]
    worst_lo, worst_hi = 1.0, 1.0
    for E, F in pairs:
        for k in range(8, 0, -1):
            tau = 2.0**-k
            ms = unit_interval(64, include=(tau,))
            ind = StepFunction(ms, (ms.breakpoints[1:] <= tau * (1 + 1e-12)).astype(float))
            fe = fundamental(E, tau, ms).value
            ff = fundamental(F, tau, ms).value
            res, _ = product_norm(E, F, ind, opts=dict(_FAST))
            ratio = res.value / (fe * ff)
            worst_lo = min(worst_lo, ratio)
            worst_hi = max(worst_hi, ratio)
    ok = worst_lo >= 1.0 - 1e-9 and worst_hi <= 1.02
    _verdict(
        "03 indicator_fundamentals", ok, f"(ratio range [{worst_lo:.6f}, {worst_hi:.6f}])"
    )


# 4 -------------------------------------------------------------------------


def test_criterion_04_sup_scale_product_within_a_factor_of_two():
    ms = unit_interval(32)
    phi, psi, both = PowerWeight(0.5), PowerWeight(0.3), PowerWeight(0.8)
    ok = True
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        z = StepFunction(ms, rng.uniform(0.05, 2.0, ms.n_cells))
        res, _ = product_norm(MarcinkiewiczStar(phi), MarcinkiewiczStar(psi), z)
        target = norm(MarcinkiewiczStar(both), z).value
        ok = ok and res.value <= target + 1e-6 and 2.0 * res.value >= target - 1e-6
        worst = max(worst, abs(res.value / target - 1.0))
    _verdict("04 sup_scale_sandwich", ok, f"(max |value/target - 1| {worst:.3f})")


# 5 -------------------------------------------------------------------------


def test_criterion_05_averaging_identity_residual():
    worst = 0.0
    for grid_idx, ms in enumerate((unit_interval(32), half_line(32))):
        for i in range(50):
            rng = np.random.default_rng(300 + 50 * grid_idx + i)
            x = StepFunction(ms, rng.uniform(0.0, 3.0, ms.n_cells))
            worst = max(worst, hardy_identity_residual(x))
    ok = worst <= 1e-8
    _verdict("05 averaging_identity", ok, f"(max residual {worst:.2e} over 100 steps)")


# 6 -------------------------------------------------------------------------


def test_criterion_06_young_sum_calculus():
    phi1 = phi2 = Power(1.0, 2.0)
    phi = oplus(phi1, phi2)
    golden_err = max(
        abs(phi(u) - 2.0 * u) / (2.0 * u) for u in np.logspace(-3, 3, 200)
    )
    vgrid = np.logspace(-6, 6, 100_000)
    brute_err = 0.0
    for u in np.logspace(-3, 3, 20):
        brute = float(np.min(vgrid**2 + (u / vgrid) ** 2))
        brute_err = max(brute_err, abs(phi(u) - brute) / brute)
    lo, hi = np.inf, 0.0
    for t in np.logspace(-6, 6, 2048):
        val = phi(inverse(phi1, t) * inverse(phi2, t))
        lo = min(lo, val / t)
        hi = max(hi, val / (2.0 * t))
    sandwich_ok = lo >= 1.0 - 1e-9 and hi <= 1.0 + 1e-9
    ok = golden_err <= 1e-8 and brute_err <= 1e-6 and sandwich_ok
    _verdict(
        "06 young_sum_calculus",
        ok,
        f"(golden {golden_err:.2e}, brute {brute_err:.2e}, sandwich [{lo:.3f}, {hi:.3f}])",
    )


# 7 -------------------------------------------------------------------------


def test_criterion_07_orlicz_split_witness():
    ms = unit_interval(32)
    phi, phi1, phi2 = Power(1.0, 2.0), Power(1.0, 4.0), Power(1.0, 4.0)
    ok = True
    worst_excess = -np.inf
    for i in range(20):
        rng = np.random.default_rng(2000 + i)
        z = StepFunction(ms, rng.uniform(0.0, 2.0, ms.n_cells))
        wit = orlicz_factor_witness(Lp(1.0), phi1, phi2, phi, z, D=1.0)
        cap = luxemburg_norm(Lp(1.0), phi, z).value ** 0.5 + 1e-8
        n1 = luxemburg_norm(Lp(1.0), phi1, wit.x).value
        n2 = luxemburg_norm(Lp(1.0), phi2, wit.y).value
        exact = np.allclose(
            wit.x.values * wit.y.values, np.abs(z.values), rtol=1e-10, atol=1e-300
        )
        ok = ok and n1 <= cap and n2 <= cap and exact
        worst_excess = max(worst_excess, n1 - cap, n2 - cap)
    _verdict("07 orlicz_split_witness", ok, f"(max bound excess {worst_excess:.2e})")


# 8 -------------------------------------------------------------------------


def test_criterion_08_multiplier_cancellation():
    ms = counting(8)
    E, F, G = Lp(2.0), Lp(4.0), Lp(3.0)
    lo, hi = np.inf, 0.0
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = StepFunction(ms, rng.uniform(0.2, 2.0, ms.n_cells))
        top = multiplier_norm(Product(E, F), Product(E, G), m, use_table=False).value
        bot = multiplier_norm(F, G, m, use_table=False).value
        ratio = top / bot
        lo, hi = min(lo, ratio), max(hi, ratio)
    ok = lo >= 0.8 and hi <= 1.25
    _verdict("08 multiplier_cancellation", ok, f"(ratio range [{lo:.4f}, {hi:.4f}])")


# 9 -------------------------------------------------------------------------


def test_criterion_09_product_mean_inequality():
    ms = unit_interval(16)
    worst = -np.inf
    for i in range(200):
        rng = np.random.default_rng(400 + i)
        mask = rng.uniform(size=ms.n_cells) < rng.uniform(0.3, 0.9)
        if mask.sum() < 2:
            mask[:2] = True
        a = rng.uniform(0.5, 2.0)
        xv = np.where(mask, rng.uniform(0.2, 3.0, size=ms.n_cells), 0.0)
        yv = np.where(mask, a / np.where(mask, xv, 1.0), 0.0)
        w = ms.widths
        mu = float(np.sum(w[mask]))
        lhs = mu * float(np.sum(xv * yv * w))
        rhs = float(np.sum(xv * w)) * float(np.sum(yv * w))
        worst = max(worst, (lhs - rhs) / max(1.0, abs(rhs)))
    ok = worst <= 1e-12
    _verdict("09 product_mean_inequality", ok, f"(max violation {worst:.2e})")


# 10 ------------------------------------------------------------------------


def test_criterion_10_slow_log_profile_separates_the_scales():
    ratios = []
    for n in (64, 128, 256, 512, 1024):
        ms = unit_interval(n)
        t = np.maximum(ms.breakpoints[1:], ms.breakpoints[1] * 0.5)
        z = StepFunction(ms, t**-0.5 / (1.0 + np.log(1.0 / t)))
        ratios.append(norm(lorentz_pq(2.0, 1.0), z).value / norm(Lp(2.0), z).value)
    monotone = all(b > a for a, b in zip(ratios, ratios[1:]))
    growth = ratios[-1] / ratios[0]
    ok = monotone and growth >= 1.5
    _verdict(
        "10 log_profile_separation",
        ok,
        f"(ratios {[round(r, 3) for r in ratios]}, growth {growth:.3f})",
    )


# 11 ------------------------------------------------------------------------


def test_criterion_11_determinism_and_runtime():
    def snapshot():
        start = time.time()
        reports = run_all(seed=7)
        elapsed = time.time() - start
        payload = [report_to_json(r) for r in reports]
        for entry in payload:
            entry.pop("timestamp", None)
        return payload, [r.passed for r in reports], elapsed

    first, passed1, t1 = snapshot()
    second, passed2, t2 = snapshot()
    ok = first == second and all(passed1) and all(passed2) and max(t1, t2) <= 600.0
    _verdict(
        "11 determinism_and_runtime",
        ok,
        f"(identical={first == second}, all suites pass={all(passed1)}, {t1:.0f}s/{t2:.0f}s)",
    )
