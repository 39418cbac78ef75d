"""The three workloads: seeded rounds of bfslab calls and their checks.

A workload is a fixed mix of op kinds.  One *round* holds every kind of
the mix the stated number of times; the seed draws the inputs of each
round (profiles, ``t`` values, dilation factors) and the order of its
ops, never the mix itself.  Round ``r`` of seed ``s`` is the same list
of calls in every run, however fast the machine is, which is what makes
the first-round figures (``bound_ratio_gmean``) and the fixed-round
traced counts repeat exactly.

Every op has a check that recomputes its output without the code path
that produced it: public ``norm`` on a returned witness, or a direct
numpy formula.  A check also returns a *bound ratio* (reported value
over an independent reference) for ops that return a bound.

All calls go through attributes of the ``bfslab`` package, looked up at
call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import bfslab as B

FAST_OPTS = {"max_sweeps": 300, "quick_sweeps": 25, "golden_iters": 10}
REL = 1e-9
PW = B.PowerWeight


@dataclass
class Op:
    """One public call, its check, and the kind it counts under in the mix."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], tuple[bool, Optional[float]]]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class Inputs:
    """The seeded draws of one round.

    Decreasing profiles are stratified across rounds: the i-th profile of
    round r puts its power exponent at the fraction ``(u_i + r * 0.618...)
    mod 1`` of its range, with u_i fixed by the seed, and takes its decay
    steps from a Latin-hypercube sample of an exponential law.  The
    optimizer's cost varies by 3x with the profile's shape, so over the
    few rounds of a run independent draws made the mix's cost depend on
    the seed's luck; stratified, every seed covers the range of shapes
    about evenly.  The seed still changes every profile.
    """

    def __init__(self, seed: int, r: int):
        self.rng = np.random.default_rng([seed, r])
        self.r = r
        self._offsets = np.random.default_rng([seed, 1 << 30])  # the same stream in every round

    def decreasing(self, ms, gamma_range):
        """Non-increasing step: power singularity times a decay, unit mass."""
        n = ms.n_cells
        lo, hi = gamma_range
        gamma = lo + (hi - lo) * ((self._offsets.uniform() + self.r * _GOLDEN) % 1.0)
        strata = (self.rng.permutation(n) + self.rng.uniform(size=n)) / n
        decay = np.exp(-np.cumsum(-0.12 * np.log1p(-strata)))
        t = np.maximum(ms.breakpoints[1:], ms.breakpoints[1] * 0.5)
        vals = t**-gamma * decay
        return B.StepFunction(ms, vals / float(np.sum(vals * ms.widths)))

    def positive(self, ms, lo=0.05, hi=3.0):
        return B.StepFunction(ms, self.rng.uniform(lo, hi, size=ms.n_cells))


# ---------------------------------------------------------------------------
# numpy oracles (no bfslab code involved)
# ---------------------------------------------------------------------------


def close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _sorted_profile(x):
    order = np.argsort(-x.values, kind="stable")
    return x.values[order], np.cumsum(x.space.widths[order])


def _power_cells(a, b, q):
    """Integral of t**q over each cell (a, b); q > -1."""
    return (b ** (q + 1.0) - a ** (q + 1.0)) / (q + 1.0)


def np_lp(x, p: float) -> float:
    return float(np.sum(x.values**p * x.space.widths) ** (1.0 / p))


def np_lp_weighted(x, p: float, alpha: float) -> float:
    bp = x.space.breakpoints
    return float(np.sum(x.values**p * _power_cells(bp[:-1], bp[1:], alpha * p)) ** (1.0 / p))


def np_lambda(x, alpha: float) -> float:
    v, cum = _sorted_profile(x)
    phi = cum**alpha
    return float(np.sum(v * np.diff(np.concatenate(([0.0], phi)))))


def np_lambda_p(x, alpha: float, p: float) -> float:
    """``(∫ (t^alpha x*)^p dt/t)^(1/p)``."""
    v, cum = _sorted_profile(x)
    edges = np.concatenate(([0.0], cum))
    return float(np.sum(v**p * _power_cells(edges[:-1], edges[1:], alpha * p - 1.0)) ** (1.0 / p))


def np_marc(x, alpha: float) -> float:
    v, cum = _sorted_profile(x)
    mass = np.cumsum(v * np.diff(np.concatenate(([0.0], cum))))
    return float(np.max(cum**alpha * mass / cum))


def np_mstar(x, alpha: float) -> float:
    v, cum = _sorted_profile(x)
    return float(np.max(v * cum**alpha))


def np_linfty_weighted(x, alpha: float) -> float:
    return float(np.max(x.values * x.space.breakpoints[1:] ** alpha))


def np_young(kind: str, u: np.ndarray, *par) -> np.ndarray:
    """The Young functions the gauge ops use, written out in numpy."""
    with np.errstate(over="ignore"):
        if kind == "shifted":
            a, c, p = par
            return c * np.maximum(0.0, u - a) ** p
        if kind == "sum":
            return u**2 + 0.5 * u**3
        if kind == "max":
            return np.maximum(u**2, 0.5 * u**3)
        if kind == "capped":
            (b,) = par
            return np.where(u > b, np.inf, u**2)
    raise ValueError(kind)


def np_modular_l1(x, lam: float, young) -> float:
    """``∫ phi(x / lam)`` for a numpy Young function ``young``."""
    return float(np.sum(young(x.values / lam) * x.space.widths))


def gauge_bracket_ok(x, lam: float, young) -> bool:
    """``lam`` is the Luxemburg gauge: modular ≤ 1 at lam, > 1 just below."""
    return np_modular_l1(x, lam, young) <= 1.0 + 1e-12 and np_modular_l1(x, lam * (1.0 - 1e-9), young) > 1.0


def np_gauge_l1(x, young) -> float:
    """Luxemburg gauge over L^1 by bisection on lam (independent of bfslab)."""
    lo, hi = 1e-300, max(float(np.max(x.values)), 1e-300)
    while np_modular_l1(x, hi, young) > 1.0:
        lo, hi = hi, hi * 2.0
    if lo == 1e-300:
        lo = hi / 2.0
        while np_modular_l1(x, lo, young) <= 1.0:
            hi, lo = lo, lo / 2.0
    for _ in range(200):
        if hi - lo <= 1e-13 * hi:
            break
        mid = 0.5 * (lo + hi)
        if np_modular_l1(x, mid, young) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def power_gauge_l1(x, c: float, r: float) -> float:
    """Closed-form gauge of ``c u^r`` over L^1: ``(c ∫ x^r)^(1/r)``."""
    return float((c * np.sum(x.values**r * x.space.widths)) ** (1.0 / r))


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------


def witness_ok(E, F, z, wit, value=None) -> bool:
    """Recompute both factor norms through public ``norm``; x*y = z on supp z."""
    if wit.x.space != z.space or wit.y.space != z.space:
        return False
    nx = B.norm(E, wit.x).value
    ny = B.norm(F, wit.y).value
    ok = close(nx, wit.norm_x) and close(ny, wit.norm_y)
    supp = z.values > 0
    prod = wit.x.values[supp] * wit.y.values[supp]
    ok = ok and bool(np.all(np.abs(prod - z.values[supp]) <= 1e-10 * z.values[supp]))
    if value is not None:
        ok = ok and close(value, nx * ny)
    return ok


def corrupt(out):
    """Scale the witness's y factor by 2 (self-test of the checks)."""

    def bad(w):
        return dataclasses.replace(w, y=w.y.with_values(2.0 * w.y.values))

    if isinstance(out, B.FactorizationWitness):
        return bad(out)
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], B.FactorizationWitness):
        res, wit = out
        wit = bad(wit)
        return dataclasses.replace(res, witness=wit), wit
    if isinstance(out, B.NormResult) and isinstance(out.witness, B.FactorizationWitness):
        return dataclasses.replace(out, witness=bad(out.witness))
    return out


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


class Products:
    """Optimizer-path products of the theorem pairs on 16-cell grids.

    Multi-start coordinate descent does nearly all the work, calling
    cached sorted-profile kernels at n = 16; ``young`` and grid
    construction sit idle.
    """

    name = "products"
    PAIRS = [
        # name, E, F, theorem's target space (bound reference)
        ("t7ii_lam_mstar", B.LorentzLambda(PW(0.5)), B.MarcinkiewiczStar(PW(0.3)), B.LorentzLambda(PW(0.8))),
        (
            "t7iii_lamp_lamp",
            B.LorentzLambdaP(PW(0.5), 1.0),
            B.LorentzLambdaP(PW(0.3), 1.0),
            B.LorentzLambdaP(PW(0.8), 0.5),
        ),
        (
            "t7iii_lamp_mstar",
            B.LorentzLambdaP(PW(0.5), 1.0),
            B.MarcinkiewiczStar(PW(0.3)),
            B.LorentzLambdaP(PW(0.8), 1.0),
        ),
        ("t10_marc_mstar", B.Marcinkiewicz(PW(0.3)), B.MarcinkiewiczStar(PW(0.4)), B.Marcinkiewicz(PW(0.7))),
        ("t10_marc_lam", B.Marcinkiewicz(PW(0.3)), B.LorentzLambda(PW(0.4)), B.LorentzLambda(PW(0.7))),
        ("ex3_weak_mstar", B.weak_lp(4.0), B.MarcinkiewiczStar(PW(0.25)), B.weak_lp(2.0)),
    ]
    CALDERON = [(0.6, 0.4), (0.4, 0.7)]
    RSS_ROUNDS = 1
    TINY_KINDS = {"t7ii_lam_mstar@unit16", "calderon_c0.6_d0.4", "lozanovskii_lambda0.6"}

    def __init__(self, tiny: bool = False):
        self.grids = {"unit16": B.unit_interval(16), "half16": B.half_line(16)}
        self.gammas = {"unit16": (0.05, 0.55), "half16": (0.05, 0.25)}

    def round(self, inp: Inputs) -> list:
        ops = []
        for gname, ms in self.grids.items():
            for name, E, F, T in self.PAIRS:
                z = inp.decreasing(ms, self.gammas[gname])
                ops.append(self._product(f"{name}@{gname}", E, F, T, z))
        h16 = self.grids["half16"]
        for c, d in self.CALDERON:
            z = inp.decreasing(h16, (0.05, min(c, d) * 0.5))
            ops.append(self._calderon(c, d, z))
        for _ in range(2):
            z = inp.decreasing(self.grids["unit16"], (0.05, 0.55))
            ops.append(self._lozanovskii(z))
        return ops

    @staticmethod
    def _product(kind, E, F, T, z):
        def call():
            return B.product_norm(E, F, z, opts=dict(FAST_OPTS))

        def check(out):
            res, wit = out
            ok = res.kind != "exact" and witness_ok(E, F, z, wit, res.value)
            return ok, res.value / B.norm(T, z).value

        return Op(kind, call, check)

    @staticmethod
    def _calderon(c, d, z):
        E, F, theta = B.Lp(1.0, PW(c - 1.0)), B.LInftyWeighted(PW(d)), 0.5

        def call():
            return B.calderon_norm(E, F, theta, z, opts=dict(FAST_OPTS))

        def check(res):
            Ec, Fc = B.Convexification(E, 1.0 / theta), B.Convexification(F, 1.0 / (1.0 - theta))
            ok = res.kind != "exact" and witness_ok(Ec, Fc, z, res.witness, res.value)
            # weighted Lebesgue interpolation: L^1(w0)^1/2 L^inf(w1)^1/2 = L^2((w0 w1)^1/2)
            return ok, res.value / np_lp_weighted(z, 2.0, 0.5 * (c - 1.0) + 0.5 * d)

        return Op(f"calderon_c{c}_d{d}", call, check)

    @staticmethod
    def _lozanovskii(z):
        E, eps = B.LorentzLambda(PW(0.6)), 0.05

        def call():
            return B.lozanovskii_factorize(E, z, eps, opts=dict(FAST_OPTS))

        def check(wit):
            l1 = float(np.sum(z.values * z.space.widths))
            F = B.dual_descriptor(E)
            ok = witness_ok(E, F, z, wit, wit.product)
            # Hölder: ∫ z ≤ |x|_E |y|_E'; the target exit stops within 1 + eps
            ok = ok and l1 * (1.0 - 1e-9) <= wit.product <= (1.0 + eps) * l1
            return ok, wit.product / l1

        return Op("lozanovskii_lambda0.6", call, check)


# ---------------------------------------------------------------------------
# gauges
# ---------------------------------------------------------------------------

# inf_v v^3 + (u/v)^(3/2) = K u with K = c^3 + c^(-3/2), c = 2^(-2/9)
_C_MIXED = 0.5 ** (2.0 / 9.0)
K_MIXED = _C_MIXED**3 + _C_MIXED**-1.5
# inf_v v^2 + (u/v)^4 = K u^(4/3) with K = 3 * 2^(-2/3)
K_SQ_QUARTIC = 3.0 * 2.0 ** (-2.0 / 3.0)


class Gauges:
    """Luxemburg gauges of numeric ⊕/⊖ Young nodes and the Orlicz pair.

    The Young calculus does most of the work (one ⊕ or ⊖ scalar
    evaluation is a 512-point scan plus a golden search), under the
    gauge bisection.  The Orlicz product pair runs the optimizer with a
    kernel about 40x costlier than the ones in ``products``.
    """

    name = "gauges"
    RSS_ROUNDS = 1
    TINY_KINDS = {"oplus_mixed@unit8", "atom_shifted@unit12", "witness_power", "inverse_batch_oplus"}

    def __init__(self, tiny: bool = False):
        self.grids = {f"unit{n}": B.unit_interval(n) for n in (8, 10, 12)}
        self.oplus_mixed = B.oplus(B.Power(1.0, 3.0), B.Power(1.0, 1.5))
        self.oplus_sq_quartic = B.oplus(B.Power(1.0, 2.0), B.Power(1.0, 4.0))
        self.ominus_sq_quartic = B.ominus(B.Power(1.0, 2.0), B.Power(1.0, 4.0))
        self.atoms = [
            ("atom_shifted", B.ShiftedPower(0.3, 1.0, 2.0), lambda u: np_young("shifted", u, 0.3, 1.0, 2.0)),
            ("sum", B.YoungSum((B.Power(1.0, 2.0), B.Power(0.5, 3.0))), lambda u: np_young("sum", u)),
            ("max", B.YoungMax((B.Power(1.0, 2.0), B.Power(0.5, 3.0))), lambda u: np_young("max", u)),
            ("capped", B.Capped(B.Power(1.0, 2.0), 200.0), lambda u: np_young("capped", u, 200.0)),
        ]
        self.pair_phi1 = B.ShiftedPower(0.4, 1.0, 2.0)
        self.pair_phi2 = B.Power(1.0, 2.0)
        self.pair_target = B.oplus(self.pair_phi1, self.pair_phi2)

    def round(self, inp: Inputs) -> list:
        ops = []
        for gname, ms in self.grids.items():
            for kind, phi, c, r, rel in (
                ("oplus_mixed", self.oplus_mixed, K_MIXED, 1.0, 1e-8),
                ("oplus_sq_quartic", self.oplus_sq_quartic, K_SQ_QUARTIC, 4.0 / 3.0, 1e-8),
                # theorem 6: the subtraction-built complement of u^4 in u^2 is u^4/4
                ("ominus_sq_quartic", self.ominus_sq_quartic, 0.25, 4.0, 0.02),
            ):
                z = inp.decreasing(ms, (0.05, 0.35))
                ops.append(self._gauge(f"{kind}@{gname}", phi, c, r, rel, z))
        ms12 = self.grids["unit12"]
        for kind, phi, young in self.atoms:
            z = inp.decreasing(ms12, (0.05, 0.35))
            ops.append(self._atom_gauge(f"{kind}@unit12", phi, young, z))
        targets = np.sort(inp.rng.uniform(0.1, 10.0, size=4))
        ops.append(self._inverse(targets))
        ops.append(self._witness_power(inp.positive(ms12, 0.0, 2.0)))
        vals = inp.rng.uniform(0.0, 3.0, size=ms12.n_cells)
        vals[inp.rng.uniform(size=ms12.n_cells) < 0.4] *= 0.05  # cells in the flat part
        ops.append(self._witness_jump(B.StepFunction(ms12, vals)))
        z = inp.decreasing(self.grids["unit8"], (0.05, 0.35))
        ops.append(self._orlicz_pair(z))
        return ops

    @staticmethod
    def _gauge(kind, phi, c, r, rel, z):
        base = B.Lp(1.0)

        def call():
            return B.luxemburg_norm(base, phi, z)

        def check(res):
            want = power_gauge_l1(z, c, r)
            return abs(res.value - want) <= rel * want, res.value / want

        return Op(kind, call, check)

    @staticmethod
    def _atom_gauge(kind, phi, young, z):
        def call():
            return B.luxemburg_norm(B.Lp(1.0), phi, z)

        def check(res):
            return gauge_bracket_ok(z, res.value, young), None

        return Op(kind, call, check)

    def _inverse(self, targets):
        phi = self.oplus_mixed

        def call():
            return B.inverse_batch(phi, targets)

        def check(out):
            # the node is K u, whose right-continuous inverse is v / K
            return bool(np.all(np.abs(out - targets / K_MIXED) <= 1e-8 * targets / K_MIXED)), None

        return Op("inverse_batch_oplus", call, check)

    @staticmethod
    def _witness_power(z):
        phi1 = phi2 = B.Power(1.0, 4.0)
        phi = B.Power(1.0, 2.0)

        def call():
            return B.orlicz_factor_witness(B.Lp(1.0), phi1, phi2, phi, z, D=1.0)

        def check(w):
            bound = math.sqrt(power_gauge_l1(z, 1.0, 2.0))
            n1, n2 = power_gauge_l1(w.x, 1.0, 4.0), power_gauge_l1(w.y, 1.0, 4.0)
            return _split_ok(z, w) and max(n1, n2) <= bound * (1.0 + 1e-8), max(n1, n2) / bound

        return Op("witness_power", call, check)

    @staticmethod
    def _witness_jump(z):
        phi1 = phi2 = B.ShiftedPower(1.0, 1.0, 2.0)
        phi = B.ShiftedPower(1.0, 1.0, 1.0)

        def call():
            return B.orlicz_factor_witness(B.Lp(1.0), phi1, phi2, phi, z, D=1.0)

        def check(w):
            bound = math.sqrt(np_gauge_l1(z, lambda u: np_young("shifted", u, 1.0, 1.0, 1.0)))
            factor = lambda u: np_young("shifted", u, 1.0, 1.0, 2.0)  # noqa: E731
            n1, n2 = np_gauge_l1(w.x, factor), np_gauge_l1(w.y, factor)
            return _split_ok(z, w) and max(n1, n2) <= bound * (1.0 + 1e-8), max(n1, n2) / bound

        return Op("witness_jump", call, check)

    def _orlicz_pair(self, z):
        E1 = B.OrliczCL(B.Lp(1.0), self.pair_phi1)
        E2 = B.OrliczCL(B.Lp(1.0), self.pair_phi2)
        target = self.pair_target

        def call():
            return B.product_norm(E1, E2, z, opts=dict(FAST_OPTS))

        def check(out):
            res, wit = out
            ok = res.kind != "exact" and witness_ok(E1, E2, z, wit, res.value)
            # theorem 6: the product is equivalent to the ⊕ gauge
            return ok, res.value / B.luxemburg_norm(B.Lp(1.0), target, z).value

        return Op("orlicz_pair@unit8", call, check)


def _split_ok(z, w) -> bool:
    return bool(np.allclose(w.x.values * w.y.values, z.values, rtol=1e-10, atol=1e-10))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def _dstar_ok(x, value: float) -> bool:
    # x** >= x* pointwise, and Hardy's inequality |x**|_2 <= 2 |x*|_2
    lp = np_lp(x, 2.0)
    return lp * (1.0 - 1e-9) <= value <= 2.0 * lp


_ORLICZ_YOUNG = (0.2, 1.0, 2.0)

# family -> (descriptor, numpy oracle returning (ok) for a value)
FAMILIES = {
    "lp": (B.Lp(2.5), lambda x, v: close(v, np_lp(x, 2.5))),
    "lp_weighted": (B.Lp(2.0, PW(-0.2)), lambda x, v: close(v, np_lp_weighted(x, 2.0, -0.2))),
    "lorentz_lambda": (B.LorentzLambda(PW(0.6)), lambda x, v: close(v, np_lambda(x, 0.6))),
    "lorentz_lambda_p": (B.LorentzLambdaP(PW(0.5), 2.0), lambda x, v: close(v, np_lambda_p(x, 0.5, 2.0))),
    "marcinkiewicz": (B.Marcinkiewicz(PW(0.4)), lambda x, v: close(v, np_marc(x, 0.4))),
    "marcinkiewicz_star": (B.MarcinkiewiczStar(PW(0.4)), lambda x, v: close(v, np_mstar(x, 0.4))),
    "linfty_weighted": (B.LInftyWeighted(PW(0.3)), lambda x, v: close(v, np_linfty_weighted(x, 0.3))),
    # x* of the weighted L^2 is the Lambda_2 norm with weight t^(0.2 + 1/2)
    "star": (B.Symmetrization(B.Lp(2.0, PW(0.2)), "star"), lambda x, v: close(v, np_lambda_p(x, 0.7, 2.0))),
    "dstar": (B.Symmetrization(B.Lp(2.0), "doublestar"), _dstar_ok),
    "orlicz": (
        B.OrliczCL(B.Lp(1.0), B.ShiftedPower(*_ORLICZ_YOUNG)),
        lambda x, v: gauge_bracket_ok(x, v, lambda u: np_young("shifted", u, *_ORLICZ_YOUNG)),
    ),
}


class Kernels:
    """Short one-shot calls: every primitive norm kernel at n = 32, 256, 1024.

    Uses ``spaces`` the other way round from ``products``: compile and
    large-n evaluation are the writes here, where ``products`` reads
    cached small-n kernels.  The 32-cell unit and half-line grids are
    drawn anew every round, as one-shot calls on new data would be, so
    their norms compile each time; the larger grids and the counting
    grids stay cached.  A further fixed share of ops builds a fresh grid
    of its own and so misses the compile cache.  The optimizer and
    ``young`` idle.
    """

    name = "kernels"
    SIZES = (32, 256, 1024)
    FRESH_PER_ROUND = 2
    TINY_KINDS = None  # tiny mode shrinks the grids instead
    # The compile cache is unbounded, so memory grows with every fresh grid:
    # peak RSS is read after a fixed number of rounds, not at the end of a
    # run whose round count depends on speed.
    RSS_ROUNDS = 50

    def __init__(self, tiny: bool = False):
        self.sizes = (32,) if tiny else self.SIZES
        self.cached = {}
        for n in self.sizes:
            if n != 32:
                self.cached[f"unit{n}"] = B.unit_interval(n)
                self.cached[f"half{n}"] = B.half_line(n)
            self.cached[f"count{n}"] = B.counting(n)

    @staticmethod
    def _fresh_grids(inp: Inputs) -> dict:
        unit = B.unit_interval(31, include=(float(inp.rng.uniform(0.05, 0.95)),))
        while unit.n_cells != 32:  # the drawn point hit a breakpoint
            unit = B.unit_interval(31, include=(float(inp.rng.uniform(0.05, 0.95)),))
        lo, hi = 2.0 ** inp.rng.uniform(-1.0, 1.0, size=2)
        return {"unit32": unit, "half32": B.half_line(32, t_min=2.0**-20 * lo, t_max=2.0**20 * hi)}

    def round(self, inp: Inputs) -> list:
        ops = []
        grids = dict(self.cached, **self._fresh_grids(inp))
        for gname, ms in grids.items():
            for fam, (space, oracle) in FAMILIES.items():
                x = inp.positive(ms)
                ops.append(self._norm(f"norm_{fam}@{gname}", space, oracle, x))
        for n in self.sizes:
            ops.append(self._closed_product(inp.positive(grids[f"unit{n}"], 0.0, 2.0), n))
            ops.append(self._constructive_product(inp.decreasing(grids[f"unit{n}"], (0.05, 0.7)), n))
            ops.append(self._multiplier(inp.positive(grids[f"count{n}"], 0.2, 2.0), n))
        for _ in range(self.FRESH_PER_ROUND):
            ops.append(self._fundamental(float(inp.rng.choice([1.5, 2.0, 3.0])), float(inp.rng.uniform(0.02, 0.98))))
            t = float(inp.rng.uniform(0.5, 64.0))
            ops.append(
                self._operator_norm(float(inp.rng.choice([1.5, 2.0, 3.0])), float(inp.rng.uniform(0.25, 0.75)), B.half_line(32, include=(t,)))
            )
            fresh_unit = B.unit_interval(32, include=(float(inp.rng.uniform(0.05, 0.95)),))
            ops.append(self._dilate(inp.positive(fresh_unit), float(inp.rng.uniform(0.3, 0.9))))
            fresh_half = B.half_line(32, include=(float(inp.rng.uniform(0.5, 64.0)),))
            ops.append(self._rearrange(inp.positive(fresh_half)))
            fresh_hardy = B.unit_interval(32, include=(float(inp.rng.uniform(0.05, 0.95)),))
            ops.append(self._hardy(inp.positive(fresh_hardy, 0.0, 2.0)))
        return ops

    @staticmethod
    def _norm(kind, space, oracle, x):
        def call():
            return B.norm(space, x)

        def check(res):
            return oracle(x, res.value), None

        return Op(kind, call, check)

    @staticmethod
    def _closed_product(z, n):
        E, F = B.Lp(3.0), B.Lp(6.0)

        def call():
            return B.product_norm(E, F, z)

        def check(out):
            res, wit = out
            want = np_lp(z, 2.0)
            ok = wit.method == "closed_form" and close(res.value, want)
            ok = ok and close(np_lp(wit.x, 3.0), wit.norm_x) and close(np_lp(wit.y, 6.0), wit.norm_y)
            ok = ok and _split_ok(z, wit) and close(res.value, wit.norm_x * wit.norm_y)
            return ok, res.value / want

        return Op(f"product_closed_lp3_lp6@unit{n}", call, check)

    @staticmethod
    def _constructive_product(z, n):
        E, F = B.MarcinkiewiczStar(PW(0.5)), B.MarcinkiewiczStar(PW(0.3))

        def call():
            return B.product_norm(E, F, z)

        def check(out):
            res, wit = out
            target = np_mstar(z, 0.8)
            ok = wit.method == "constructive" and res.kind == "upper_bound"
            ok = ok and close(np_mstar(wit.x, 0.5), wit.norm_x) and close(np_mstar(wit.y, 0.3), wit.norm_y)
            ok = ok and _split_ok(z, wit) and close(res.value, wit.norm_x * wit.norm_y)
            # theorem 7 (i): the sup-form product lies within [target / 2, target]
            ok = ok and 0.5 * target * (1.0 - REL) <= res.value <= target * (1.0 + REL)
            return ok, res.value / target

        return Op(f"product_constructive_mstar@unit{n}", call, check)

    @staticmethod
    def _multiplier(m, n):
        def call():
            return B.multiplier_norm(B.Lp(6.0), B.Lp(2.0), m)

        def check(res):
            # M(L^6, L^2) = L^3
            want = np_lp(m, 3.0)
            return res.kind == "exact" and close(res.value, want), res.value / want

        return Op(f"multiplier_table_lp6_lp2@count{n}", call, check)

    @staticmethod
    def _fundamental(p, t):
        def call():
            return B.fundamental(B.Lp(p), t)

        def check(res):
            # the default grid contains t as a breakpoint, so t_snap = t
            return close(res.value, t ** (1.0 / p), 1e-10), None

        return Op("fresh_fundamental", call, check)

    @staticmethod
    def _operator_norm(p, s, ms):
        def call():
            return B.operator_norm("D_s", B.Lp(p), s=s, mspace=ms)

        def check(res):
            # a compression by s < 1 scales every L^p norm by exactly s^(1/p)
            want = s ** (1.0 / p)
            return close(res.lower, want) and close(res.upper, want), None

        return Op("fresh_operator_norm_dilation", call, check)

    @staticmethod
    def _dilate(x, s):
        def call():
            return B.norm(B.Lp(2.0), B.dilate(x, s))

        def check(res):
            return close(res.value, math.sqrt(s) * np_lp(x, 2.0)), None

        return Op("fresh_dilate_norm", call, check)

    @staticmethod
    def _rearrange(x):
        def call():
            return B.norm(B.LorentzLambda(PW(0.6)), B.rearrange(x))

        def check(res):
            # a symmetric norm is unchanged by rearrangement
            return close(res.value, np_lambda(x, 0.6)), None

        return Op("fresh_rearrange_norm", call, check)

    @staticmethod
    def _hardy(x):
        def call():
            return B.hardy_identity_residual(x)

        def check(res):
            # HH* = H + H* holds exactly; the residual is float noise
            return res <= 1e-8, None

        return Op("fresh_hardy_identity", call, check)


WORKLOADS = {cls.name: cls for cls in (Products, Gauges, Kernels)}
