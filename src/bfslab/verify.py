"""Reproducible inequality suites over the norm and factorization engines.

Each suite draws seeded instances, evaluates both sides of a claimed
identity or embedding, and records the measured constants.  Equalities
that hold only up to equivalence are reported with their two-sided
constants and pass while those stay under a cap; exact claims pass at
tight tolerances.  Nothing is clamped: a failing instance stays failing
in the report.
"""

from __future__ import annotations

import csv
import datetime as _dt
import io
import json
import math
import zlib
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

import numpy as np

from .grid import StepFunction, counting, half_line, unit_interval
from .operators import hardy_identity_residual
from .product import (
    calderon_norm,
    lozanovskii_factorize,
    multiplier_norm,
    orlicz_factor_witness,
    product_norm,
)
from .spaces import (
    Calderon,
    LInftyWeighted,
    LorentzLambda,
    LorentzLambdaP,
    Lp,
    Marcinkiewicz,
    MarcinkiewiczStar,
    OrliczCL,
    Product,
    Symmetrization,
    fundamental,
    lorentz_p1_exact,
    lorentz_pq,
    luxemburg_norm,
    norm,
    weak_lp,
)
from .weights import PowerWeight
from .young import Power, ShiftedPower, inverse_batch, ominus, oplus

__all__ = [
    "SuiteConfig",
    "CheckReport",
    "run_suite",
    "run_all",
    "registered_suites",
    "report_to_json",
    "report_to_csv",
]

_EQUIV_CAP = 50.0  # cap for measured two-sided constants of "=" claims
_OPT_FAST = {"max_sweeps": 300, "golden_iters": 10}


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    seed: int = 7
    grid_n: Optional[int] = None
    instances: Optional[int] = None
    tolerances: Mapping[str, float] = field(default_factory=dict)

    def tol(self, key: str, default: float) -> float:
        return float(self.tolerances.get(key, default))

    def count(self, default: int) -> int:
        return int(self.instances) if self.instances is not None else default

    def n(self, default: int) -> int:
        return int(self.grid_n) if self.grid_n is not None else default


@dataclass
class CheckReport:
    suite: str
    config: dict
    instances: list
    timestamp: str

    @property
    def passed(self) -> bool:
        return all(inst["pass"] for inst in self.instances)

    @property
    def summary(self) -> dict:
        total = len(self.instances)
        ok = sum(1 for inst in self.instances if inst["pass"])
        return {"total": total, "passed": ok, "failed": total - ok}


def report_to_json(report: CheckReport) -> dict:
    return {
        "suite": report.suite,
        "config": report.config,
        "summary": report.summary,
        "instances": report.instances,
        "timestamp": report.timestamp,
    }


def report_to_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["suite", "index", "lhs", "rhs", "constant", "tolerance", "pass", "inputs"])
    for rep in reports:
        for i, inst in enumerate(rep.instances):
            writer.writerow(
                [
                    rep.suite,
                    i,
                    repr(inst["lhs"]),
                    repr(inst["rhs"]),
                    repr(inst["constant"]),
                    repr(inst["tolerance"]),
                    inst["pass"],
                    json.dumps(inst["inputs"], sort_keys=True),
                ]
            )
    return buf.getvalue()


def _rng(cfg: SuiteConfig, idx: int) -> np.random.Generator:
    return np.random.default_rng(
        [cfg.seed & 0x7FFFFFFF, zlib.crc32(cfg.suite.encode()), idx]
    )


def _case_key(name: str) -> int:
    # stable across processes, unlike hash() on strings
    return zlib.crc32(name.encode()) % 100_000


def _instance(inputs: dict, lhs: float, rhs: float, constant, tolerance, ok: bool) -> dict:
    return {
        "inputs": inputs,
        "lhs": float(lhs),
        "rhs": float(rhs),
        "constant": constant,
        "tolerance": tolerance,
        "pass": bool(ok),
    }


def _decreasing_profile(rng, mspace, gamma_range=(0.05, 0.6)) -> StepFunction:
    """Random non-increasing step: power tail times a random decay."""
    n = mspace.n_cells
    t = np.maximum(mspace.breakpoints[1:], mspace.breakpoints[1] * 0.5)
    gamma = rng.uniform(*gamma_range)
    decay = np.exp(-np.cumsum(rng.exponential(0.12, size=n)))
    vals = t**-gamma * decay
    total = float(np.sum(vals * mspace.widths))
    return StepFunction(mspace, vals / total)


def _positive_profile(rng, mspace, lo=0.05, hi=3.0) -> StepFunction:
    return StepFunction(mspace, rng.uniform(lo, hi, size=mspace.n_cells))


def _equivalence(cfg: SuiteConfig, inputs: dict, E, F, T, ms, key: int, count: int, gamma_range) -> dict:
    """Measured two-sided constants of the claim ``E ⊙ F = T`` up to equivalence.

    Profile i is drawn from seed ``key + i``.  The instance records
    ``lhs = max |z|_{E⊙F} / |z|_T`` and ``rhs`` the reverse maximum, and
    passes while both stay under the cap.  A profile whose target is not
    positive and finite, or whose product is not finite, counts as an
    unbounded ratio both ways.
    """
    cap = cfg.tol("cap", _EQUIV_CAP)
    ups, dns = [], []
    for i in range(count):
        z = _decreasing_profile(_rng(cfg, key + i), ms, gamma_range=gamma_range)
        res, _ = product_norm(E, F, z, opts=_OPT_FAST)
        t = norm(T, z).value
        if not (t > 0 and math.isfinite(t) and math.isfinite(res.value)):
            ups.append(math.inf)
            dns.append(math.inf)
            continue
        ups.append(res.value / t)
        dns.append(t / res.value)
    c_up, c_dn = max(ups, default=math.inf), max(dns, default=math.inf)
    return _instance(inputs, c_up, c_dn, [c_up, c_dn], cap, c_up <= cap and c_dn <= cap)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite_holder_rogers(cfg: SuiteConfig) -> list:
    out = []
    pairs = [(3.0, 6.0), (2.0, 2.0), (1.5, 3.0)]
    ms = unit_interval(cfg.n(32))
    tol = cfg.tol("rel", 1e-12)
    per_pair = cfg.count(10)
    for pi, (p, q) in enumerate(pairs):
        for i in range(per_pair):
            rng = _rng(cfg, pi * 1000 + i)
            x = _positive_profile(rng, ms)
            y = _positive_profile(rng, ms)
            xy = x.with_values(x.values * y.values)
            lhs = norm(Product(Lp(p), Lp(q)), xy).value  # canonical: L^r, 1/r = 1/p + 1/q
            rhs = norm(Lp(p), x).value * norm(Lp(q), y).value
            ok = lhs <= rhs * (1.0 + tol)
            out.append(_instance({"p": p, "q": q, "i": i}, lhs, rhs, 1.0, tol, ok))
    return out


def _suite_reverse_chebyshev(cfg: SuiteConfig) -> list:
    out = []
    ms = unit_interval(cfg.n(16))
    tol = cfg.tol("abs", 1e-12)
    for i in range(cfg.count(200)):
        rng = _rng(cfg, i)
        mask = rng.uniform(size=ms.n_cells) < rng.uniform(0.3, 0.9)
        if mask.sum() < 2:
            mask[:2] = True
        a = rng.uniform(0.5, 2.0)
        xv = np.where(mask, rng.uniform(0.2, 3.0, size=ms.n_cells), 0.0)
        yv = np.where(mask, a / np.where(mask, xv, 1.0), 0.0)
        w = ms.widths
        mu = float(np.sum(w[mask]))
        int_xy = float(np.sum(xv * yv * w))
        int_x = float(np.sum(xv * w))
        int_y = float(np.sum(yv * w))
        lhs = mu * int_xy
        rhs = int_x * int_y
        scale = max(1.0, abs(rhs))
        ok = lhs <= rhs + tol * scale
        out.append(_instance({"i": i, "cells": int(mask.sum()), "a": a}, lhs, rhs, 1.0, tol, ok))
    return out


def _suite_fundamental_product(cfg: SuiteConfig) -> list:
    """Indicator norms in a product space multiply the fundamental values.

    The equality needs both factors to carry their Banach norms, so the
    averaged (double-star) Marcinkiewicz norm is used there.  The plain
    sup-star quasi-norm genuinely loses the equality; those instances
    are kept with the two-sided band [b, 1] that the norm-equivalence
    constant 1/b of ``sup t^b x*`` implies.
    """
    out = []
    slack = cfg.tol("upper_slack", 0.02)
    b = 0.3
    pairs = [
        ("lebesgue", Lp(3.0), Lp(6.0), 1.0),
        ("lorentz_marcinkiewicz", LorentzLambda(PowerWeight(0.6)), Marcinkiewicz(PowerWeight(b)), 1.0),
        ("lorentz_supstar", LorentzLambda(PowerWeight(0.6)), MarcinkiewiczStar(PowerWeight(b)), b),
    ]
    for name, E, F, floor in pairs:
        for k in range(8, 0, -1):
            tau = 2.0**-k
            ms = unit_interval(cfg.n(64), include=(tau,))
            ind = StepFunction(ms, (ms.breakpoints[1:] <= tau * (1 + 1e-12)).astype(float))
            fe = fundamental(E, tau, ms).value
            ff = fundamental(F, tau, ms).value
            res, _ = product_norm(E, F, ind, opts=_OPT_FAST)
            lo, hi = floor * fe * ff, fe * ff * (1.0 + slack)
            ok = lo - 1e-9 * max(1.0, lo) <= res.value <= hi
            out.append(
                _instance(
                    {"pair": name, "t": tau, "floor": floor},
                    res.value,
                    fe * ff,
                    res.value / (fe * ff),
                    slack,
                    ok,
                )
            )
    return out


def _suite_product_lp(cfg: SuiteConfig) -> list:
    out = []
    ms = unit_interval(cfg.n(64))
    rel = cfg.tol("rel", 1e-4)
    wit_tol = cfg.tol("witness", 1e-10)
    for i in range(cfg.count(50)):
        rng = _rng(cfg, i)
        z = _positive_profile(rng, ms, lo=0.0, hi=2.0)
        res, wit = product_norm(Lp(3.0), Lp(6.0), z)
        oracle = norm(Lp(2.0), z).value
        ok_val = abs(res.value - oracle) <= rel * max(oracle, 1e-300)
        explicit = z.with_values(z.values ** (2.0 / 3.0))
        nx = norm(Lp(3.0), explicit).value
        ny = norm(Lp(6.0), z.with_values(z.values ** (1.0 / 3.0))).value
        ok_wit = abs(nx * ny - oracle) <= wit_tol * max(oracle, 1e-300)
        ok = ok_val and ok_wit and wit.method == "closed_form"
        out.append(_instance({"i": i}, res.value, oracle, nx * ny / max(oracle, 1e-300), rel, ok))
    return out


def _suite_theorem7(cfg: SuiteConfig) -> list:
    out = []
    phi = PowerWeight(0.5)
    psi = PowerWeight(0.3)
    both = PowerWeight(0.8)
    ms = unit_interval(cfg.n(32))
    tol_i = cfg.tol("part_i", 1e-6)
    # (i) sup-form product sandwiched by constants 1 and 2
    for i in range(cfg.count(20)):
        rng = _rng(cfg, i)
        z = _decreasing_profile(rng, ms, gamma_range=(0.05, 0.7))
        res, _ = product_norm(MarcinkiewiczStar(phi), MarcinkiewiczStar(psi), z)
        target = norm(MarcinkiewiczStar(both), z).value
        ok = res.value <= target + tol_i and 2.0 * res.value >= target - tol_i
        out.append(_instance({"part": "i", "i": i}, res.value, target, res.value / target, tol_i, ok))
    # (ii) Lorentz x sup-Marcinkiewicz vs the product-weight Lorentz space
    a_low, b_low = 0.5, 0.8
    c_fwd, c_rev = 4.0 + 4.0 / a_low, 2.0 / b_low
    slack = cfg.tol("part_ii_slack", 0.25)
    for i in range(6):
        rng = _rng(cfg, 10_000 + i)
        z = _decreasing_profile(rng, ms, gamma_range=(0.05, 0.55))
        res, _ = product_norm(LorentzLambda(phi), MarcinkiewiczStar(psi), z, opts=_OPT_FAST)
        target = norm(LorentzLambda(both), z).value
        ok = target <= c_fwd * res.value * (1 + slack) and res.value <= c_rev * target * (1 + slack)
        out.append(
            _instance(
                {"part": "ii", "i": i, "stated": [c_fwd, c_rev]},
                res.value,
                target,
                res.value / target,
                slack,
                ok,
            )
        )
    # (iii) equivalences for the integral-form scale: measured constants
    identities = [
        ("lambda1_lambda1", LorentzLambdaP(phi, 1.0), LorentzLambdaP(psi, 1.0), LorentzLambdaP(both, 0.5)),
        ("lambda1_mstar", LorentzLambdaP(phi, 1.0), MarcinkiewiczStar(psi), LorentzLambdaP(both, 1.0)),
        ("mstar_mstar", MarcinkiewiczStar(phi), MarcinkiewiczStar(psi), MarcinkiewiczStar(both)),
    ]
    for name, E, F, T in identities:
        key = 20_000 + _case_key(name) % 1000
        out.append(_equivalence(cfg, {"part": "iii", "identity": name}, E, F, T, ms, key, 4, (0.05, 0.55)))
    return out


def _suite_oplus_sandwich(cfg: SuiteConfig) -> list:
    """inverse(phi1) * inverse(phi2) lies between inverse(phi) at t and 2t.

    Checked in the forward direction (phi evaluated at the product of the
    factor inverses) so the composed infimum is exercised directly; the
    expensive inverse of the composition is never needed.
    """
    out = []
    rel = cfg.tol("rel", 1e-6)
    bump = 1e-9
    pairs = [
        ("squares", Power(1.0, 2.0), Power(1.0, 2.0)),
        ("linear_square", Power(1.0, 1.0), Power(1.0, 2.0)),
        ("mixed_powers", Power(1.0, 3.0), Power(1.0, 1.5)),
        ("shifted", ShiftedPower(1.0, 0.5, 2.0), Power(1.0, 2.0)),
    ]
    ts = np.geomspace(1e-6, 1e6, cfg.count(512))
    for name, p1, p2 in pairs:
        ph = oplus(p1, p2)
        mid = inverse_batch(p1, ts) * inverse_batch(p2, ts)
        live = (0.0 < mid) & (mid < math.inf)
        t, mid = ts[live], mid[live]
        terms = np.concatenate((
            # phi just above mid must already reach t ...
            (t - ph(mid * (1 + bump))) / t,
            # ... and just below mid must not exceed 2t
            (ph(mid * (1 - bump)) - 2.0 * t) / (2.0 * t),
        ))
        # the largest positive term, or 0; a NaN term counts as none
        worst = float(np.max(terms, where=terms > 0, initial=0.0))
        ok = worst <= rel
        out.append(_instance({"pair": name, "samples": len(ts)}, worst, 0.0, 1.0, rel, ok))
    return out


def _suite_theorem6(cfg: SuiteConfig) -> list:
    """Products of gauge spaces against the inf-convolution target.

    For two powers (``squares``, ``p3_p15``) the target's ⊕ is a power by
    the Hoelder rule, so its gauge is an exact Lebesgue norm; the
    ``shifted`` target runs through the numeric inf-convolution, so the
    composition machinery stays exercised.  The subtraction-built
    complement u^2 ⊖ u^4 is a power by the multiplier rule, so its gauge
    (``ominus_gauge``) is the exact Lebesgue norm of u^4/4 and its
    constant is 1; the factorization uses that closed form directly.
    """
    out = []
    ms = unit_interval(cfg.n(24))
    gammas = (0.05, 0.35)
    base = Lp(1.0)
    pair_cases = [
        ("squares", Power(1.0, 2.0), Power(1.0, 2.0)),
        ("p3_p15", Power(1.0, 3.0), Power(1.0, 1.5)),
        ("shifted", ShiftedPower(1.0, 0.4, 2.0), Power(1.0, 2.0)),
    ]
    for name, phi1, phi2 in pair_cases:
        E1, E2, T = OrliczCL(base, phi1), OrliczCL(base, phi2), OrliczCL(base, oplus(phi1, phi2))
        out.append(_equivalence(cfg, {"case": name}, E1, E2, T, ms, _case_key(name), 3, gammas))
    # complement by subtraction: phi2 = phi (-) phi1 with phi = u^2,
    # phi1 = u^4, whose exact complement is u^4/4
    phi, phi1 = Power(1.0, 2.0), Power(1.0, 4.0)
    phi2_numeric = ominus(phi, phi1)
    phi2_closed = Power(0.25, 4.0)
    gauge_tol = cfg.tol("gauge_rel", 0.02)
    for i in range(3):
        rng = _rng(cfg, _case_key("ominus_gauge") + i)
        z = _decreasing_profile(rng, ms, gamma_range=gammas)
        got = luxemburg_norm(base, phi2_numeric, z).value
        want = luxemburg_norm(base, phi2_closed, z).value
        ok = abs(got - want) <= gauge_tol * want
        out.append(_instance({"case": "ominus_gauge", "i": i}, got, want, got / want, gauge_tol, ok))
    E1, E2, T = OrliczCL(base, phi1), OrliczCL(base, phi2_closed), OrliczCL(base, phi)
    out.append(_equivalence(cfg, {"case": "ominus_product"}, E1, E2, T, ms, _case_key("ominus_product"), 3, gammas))
    return out


def _suite_theorem5_witness(cfg: SuiteConfig) -> list:
    out = []
    ms = unit_interval(cfg.n(32))
    tol_norm = cfg.tol("norm", 1e-8)
    tol_prod = cfg.tol("pointwise", 1e-10)
    base = Lp(1.0)
    # (branch, factor Young function, target, seed offset, count); the jump
    # branch's Young functions are flat near zero, which exercises a_phi > 0
    branches = [
        ("power", Power(1.0, 4.0), Power(1.0, 2.0), 0, cfg.count(20)),
        ("jump", ShiftedPower(1.0, 1.0, 2.0), ShiftedPower(1.0, 1.0, 1.0), 50_000, 3),
    ]
    for branch, phi_i, phi, key, count in branches:
        for i in range(count):
            rng = _rng(cfg, key + i)
            if branch == "power":
                z = _positive_profile(rng, ms, lo=0.0, hi=2.0)
            else:
                vals = rng.uniform(0.0, 3.0, size=ms.n_cells)
                vals[rng.uniform(size=ms.n_cells) < 0.4] *= 0.05  # push cells into the flat part
                z = StepFunction(ms, vals)
            w = orlicz_factor_witness(base, phi_i, phi_i, phi, z, D=1.0)
            bound = math.sqrt(luxemburg_norm(base, phi, z).value)
            ok_norms = w.norm_x <= bound + tol_norm and w.norm_y <= bound + tol_norm
            ok_split = np.allclose(w.x.values * w.y.values, z.values, rtol=tol_prod, atol=tol_prod)
            inputs = {"i": i, "branch": branch}
            out.append(_instance(inputs, max(w.norm_x, w.norm_y), bound, 1.0, tol_norm, ok_norms and ok_split))
    return out


def _suite_lozanovskii(cfg: SuiteConfig) -> list:
    out = []
    eps = cfg.tol("eps", 0.05)
    spaces = [
        ("L1.5", Lp(1.5), unit_interval(cfg.n(32))),
        ("L3", Lp(3.0), unit_interval(cfg.n(32))),
        ("Lambda_0.6", LorentzLambda(PowerWeight(0.6)), counting(cfg.n(32))),
        ("Orlicz_square", OrliczCL(Lp(1.0), Power(1.0, 2.0)), unit_interval(cfg.n(32))),
    ]
    per = cfg.count(20)
    for name, E, ms in spaces:
        for i in range(per):
            rng = _rng(cfg, _case_key(name) + i)
            if ms.kind == "counting":
                z = StepFunction(ms, np.sort(rng.uniform(0.05, 2.0, size=ms.n_cells))[::-1])
            else:
                z = _positive_profile(rng, ms, lo=0.01, hi=2.0)
            l1 = norm(Lp(1.0), z).value
            w = lozanovskii_factorize(E, z, eps, opts=_OPT_FAST)
            ok = w.product <= (1.0 + eps) * l1 and w.product >= l1 - 1e-9
            ok = ok and "not_within_epsilon" not in w.notes
            out.append(_instance({"space": name, "i": i}, w.product, l1, w.product / l1, eps, ok))
    return out


def _suite_cancellation(cfg: SuiteConfig) -> list:
    out = []
    ms = counting(cfg.n(8))
    lo, hi = cfg.tol("ratio_lo", 0.8), cfg.tol("ratio_hi", 1.25)
    E, F, G = Lp(2.0), Lp(4.0), Lp(3.0)
    for i in range(cfg.count(3)):
        rng = _rng(cfg, i)
        m = StepFunction(ms, rng.uniform(0.2, 2.0, size=ms.n_cells))
        witnesses = [
            StepFunction(ms, rng.uniform(0.1, 2.0, size=ms.n_cells)) for _ in range(10)
        ]
        num = multiplier_norm(
            Product(E, F), Product(E, G), m, witnesses=witnesses, ascent=False, use_table=False
        ).value
        den = multiplier_norm(F, G, m, witnesses=witnesses, ascent=False, use_table=False).value
        ratio = num / den
        ok = lo <= ratio <= hi
        out.append(_instance({"i": i, "form": "theorem4"}, num, den, ratio, [lo, hi], ok))
    # generalized form with an intermediate space on both slots
    rng = _rng(cfg, 999)
    m = StepFunction(ms, rng.uniform(0.2, 2.0, size=ms.n_cells))
    witnesses = [StepFunction(ms, rng.uniform(0.1, 2.0, size=ms.n_cells)) for _ in range(5)]
    theta = 0.5
    lhs = multiplier_norm(G, E, m, witnesses=witnesses, ascent=False, use_table=False).value
    calG = Calderon(G, F, 1.0 - theta)
    calE = Calderon(E, F, 1.0 - theta)
    m_pow = m.with_values(m.values ** (1.0 - theta))
    inner = multiplier_norm(
        calG, calE, m_pow, witnesses=witnesses, ascent=False, use_table=False
    ).value
    rhs = inner ** (1.0 / (1.0 - theta))
    ratio = lhs / rhs
    ok = 0.5 <= ratio <= 2.0  # engineering slack: two stacked optimizers
    out.append(_instance({"form": "convexified", "theta": theta}, lhs, rhs, ratio, [0.5, 2.0], ok))
    return out


def _suite_duality_product(cfg: SuiteConfig) -> list:
    out = []
    ms = counting(cfg.n(8))
    slack = cfg.tol("slack", 0.10)
    E, F = Lp(2.0), Lp(4.0)
    for i in range(cfg.count(5)):
        rng = _rng(cfg, i)
        m = StepFunction(ms, rng.uniform(0.1, 2.0, size=ms.n_cells))
        lhs = multiplier_norm(Product(E, F), Lp(1.0), m, use_table=False).value
        rhs = norm(Lp(4.0), m).value  # multiplier table: M(L4, L2-dual) is L4
        ratio = lhs / rhs
        ok = 1.0 - slack <= ratio <= 1.0 + 0.02
        out.append(_instance({"i": i}, lhs, rhs, ratio, slack, ok))
    return out


def _suite_theorem10(cfg: SuiteConfig) -> list:
    ms = half_line(cfg.n(24))
    a, b = 0.3, 0.7
    diff = b - a
    parts = [
        ("a", LorentzLambda(PowerWeight(a)), MarcinkiewiczStar(PowerWeight(diff)), LorentzLambda(PowerWeight(b))),
        ("b", Marcinkiewicz(PowerWeight(a)), MarcinkiewiczStar(PowerWeight(diff)), Marcinkiewicz(PowerWeight(b))),
        ("c", Marcinkiewicz(PowerWeight(a)), LorentzLambda(PowerWeight(diff)), LorentzLambda(PowerWeight(b))),
    ]
    return [
        _equivalence(cfg, {"part": name, "a": a, "b": b}, E, Fm, T, ms, _case_key(name), cfg.count(5), (0.05, 0.25))
        for name, E, Fm, T in parts
    ]


def _suite_example3_4(cfg: SuiteConfig) -> list:
    ms = half_line(cfg.n(24))
    p, q, r = 2.0, 4.0, 2.0
    s4 = p * q / (r * (q - p))
    cases = [
        (
            "ex3a_p1_scale",
            lorentz_p1_exact(q),
            MarcinkiewiczStar(PowerWeight(1 / p - 1 / q, q / p)),
            lorentz_p1_exact(p),
        ),
        (
            "ex3b_weak_scale",
            weak_lp(q),
            MarcinkiewiczStar(PowerWeight(1 / p - 1 / q)),
            weak_lp(p),
        ),
        (
            "ex3c_mixed",
            weak_lp(q),
            LorentzLambda(PowerWeight(1 / p - 1 / q, 1 / p)),
            lorentz_p1_exact(p),
        ),
        (
            "ex4_lpr",
            lorentz_pq(q, r),
            MarcinkiewiczStar(PowerWeight(1.0 / (s4 * r))),
            lorentz_pq(p, r),
        ),
    ]
    return [
        _equivalence(cfg, {"case": name}, E, Fm, T, ms, _case_key(name), cfg.count(4), (0.05, 0.2))
        for name, E, Fm, T in cases
    ]


def _suite_theorem11_instances(cfg: SuiteConfig) -> list:
    ms = half_line(cfg.n(24))
    p, r = 2.0, 3.0
    cases = [
        (
            "weak_r_times_weighted_lp",
            MarcinkiewiczStar(PowerWeight(1.0 / r)),
            Symmetrization(Lp(p, PowerWeight(-1.0 / r)), "star"),
            Lp(p),
        ),
        (
            "weak_s_times_lorentz_pr",
            MarcinkiewiczStar(PowerWeight(1.0 / r)),
            LorentzLambdaP(PowerWeight(1.0 / p - 1.0 / r), 2.0),
            lorentz_pq(p, 2.0),
        ),
    ]
    return [
        _equivalence(cfg, {"case": name}, E, Fm, T, ms, _case_key(name), cfg.count(4), (0.05, 0.2))
        for name, E, Fm, T in cases
    ]


def _suite_perfectness(cfg: SuiteConfig) -> list:
    out = []
    ms = counting(cfg.n(8))
    lo, hi = cfg.tol("ratio_lo", 0.8), cfg.tol("ratio_hi", 1.25)
    # M(M(E, F), F) against E for pairs where the exponent algebra closes
    cases = [("l2_l1.5", 2.0, 1.5), ("l4_l2", 4.0, 2.0)]
    for name, pe, pf in cases:
        s = 1.0 / (1.0 / pf - 1.0 / pe)
        inner = Lp(s)
        for i in range(cfg.count(4)):
            rng = _rng(cfg, _case_key(name) + i)
            m = StepFunction(ms, rng.uniform(0.1, 2.0, size=ms.n_cells))
            numeric = multiplier_norm(inner, Lp(pf), m, use_table=False).value
            exact = norm(Lp(pe), m).value
            ratio = numeric / exact
            ok = lo <= ratio <= hi
            out.append(_instance({"case": name, "i": i}, numeric, exact, ratio, [lo, hi], ok))
    return out


def _suite_hardy_identity(cfg: SuiteConfig) -> list:
    out = []
    tol = cfg.tol("residual", 1e-8)
    per = cfg.count(100)
    for kind, ms in (("unit", unit_interval(cfg.n(32))), ("halfline", half_line(cfg.n(32)))):
        worst = 0.0
        for i in range(per):
            rng = _rng(cfg, (0 if kind == "unit" else 10_000) + i)
            x = _positive_profile(rng, ms, lo=0.0, hi=2.0)
            worst = max(worst, hardy_identity_residual(x))
        ok = worst <= tol
        out.append(_instance({"grid": kind, "samples": per}, worst, 0.0, 1.0, tol, ok))
    return out


def _suite_lemma4_instances(cfg: SuiteConfig) -> list:
    out = []
    slack = cfg.tol("slack", 0.15)
    ms = half_line(cfg.n(20))
    theta = 0.5
    cases = [("c0.6_d0.4", 0.6, 0.4), ("c0.4_d0.7", 0.4, 0.7)]
    for name, c, d in cases:
        E = Lp(1.0, PowerWeight(c - 1.0))
        F = LInftyWeighted(PowerWeight(d))
        h_e, hs_e = 1.0 / (1.0 - c), 1.0 / c
        h_f, hs_f = 1.0 / (1.0 - d), 1.0 / d
        c1 = (2.0 * h_e) ** theta * (2.0 * h_f) ** (1.0 - theta)
        c2 = (h_e + hs_e) ** theta * (h_f + hs_f) ** (1.0 - theta)
        for i in range(cfg.count(3)):
            rng = _rng(cfg, _case_key(name) + i)
            z = _decreasing_profile(rng, ms, gamma_range=(0.05, min(c, d) * 0.5))
            plain = calderon_norm(E, F, theta, z, opts=_OPT_FAST).value
            starred = calderon_norm(
                Symmetrization(E, "star"), Symmetrization(F, "star"), theta, z, opts=_OPT_FAST
            ).value
            ok = plain <= c1 * starred * (1 + slack) and starred <= c2 * plain * (1 + slack)
            out.append(
                _instance(
                    {"case": name, "i": i, "C1": c1, "C2": c2},
                    plain,
                    starred,
                    plain / starred,
                    slack,
                    ok,
                )
            )
    return out


def _suite_negative_example2(cfg: SuiteConfig) -> list:
    out = []
    growth_needed = cfg.tol("growth", 1.5)
    p = 2.0
    sizes = [64, 128, 256, 512, 1024]
    ratios = []
    for n in sizes:
        ms = unit_interval(n)
        t = ms.breakpoints[1:]
        vals = t ** (-1.0 / p) / (1.0 + np.log(1.0 / t))
        z = StepFunction(ms, vals)
        num = norm(lorentz_p1_exact(p), z).value
        den = norm(Lp(p), z).value
        ratios.append(num / den)
    for i, n in enumerate(sizes):
        if i == 0:
            ok = True
            constant = 1.0
        else:
            constant = ratios[i] / ratios[i - 1]
            ok = ratios[i] > ratios[i - 1]
        if i == len(sizes) - 1:
            ok = ok and ratios[-1] / ratios[0] >= growth_needed
        out.append(
            _instance({"n": n, "ratio": ratios[i]}, ratios[i], ratios[0], constant, growth_needed, ok)
        )
    return out


SUITES: dict = {
    "holder_rogers": _suite_holder_rogers,
    "reverse_chebyshev": _suite_reverse_chebyshev,
    "fundamental_product": _suite_fundamental_product,
    "product_lp": _suite_product_lp,
    "theorem7": _suite_theorem7,
    "oplus_sandwich": _suite_oplus_sandwich,
    "theorem6": _suite_theorem6,
    "theorem5_witness": _suite_theorem5_witness,
    "lozanovskii": _suite_lozanovskii,
    "cancellation": _suite_cancellation,
    "duality_product": _suite_duality_product,
    "theorem10": _suite_theorem10,
    "example3_4": _suite_example3_4,
    "theorem11_instances": _suite_theorem11_instances,
    "perfectness": _suite_perfectness,
    "hardy_identity": _suite_hardy_identity,
    "lemma4_instances": _suite_lemma4_instances,
    "negative_example2": _suite_negative_example2,
}


def registered_suites() -> list:
    return sorted(SUITES)


def run_suite(name: str, config: Optional[SuiteConfig] = None, **kw) -> CheckReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; registered: {', '.join(registered_suites())}")
    cfg = config if config is not None else SuiteConfig(suite=name, **kw)
    if cfg.suite != name:
        cfg = replace(cfg, suite=name)
    instances = SUITES[name](cfg)
    if not instances:
        raise RuntimeError(f"suite {name!r} produced no instances; refusing a vacuous pass")
    return CheckReport(
        suite=name,
        config={
            "suite": cfg.suite,
            "seed": cfg.seed,
            "grid_n": cfg.grid_n,
            "instances": cfg.instances,
            "tolerances": dict(cfg.tolerances),
        },
        instances=instances,
        timestamp=_dt.datetime.now(_dt.timezone.utc).isoformat(),
    )


def run_all(seed: int = 7, names=None, **kw) -> list:
    reports = []
    for name in names if names is not None else registered_suites():
        reports.append(run_suite(name, seed=seed, **kw))
    return reports
