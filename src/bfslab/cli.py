"""Command-line front end.

Exit codes: 0 success, 1 failed suites or compute errors, 2 bad
arguments.  Values print with 12 significant digits.

Space specs are colon-separated: ``lp:2``, ``lp:1:-0.5`` (power-weight
exponent), ``lambda:0.6``, ``lambdap:0.5:2``, ``marc:0.3``,
``mstar:0.3``, ``linfw:0.4``, ``lorentz:2:1``, ``weak:2``,
``lorentz1:2``, ``orlicz:power,1,2``, and recursively ``dual:SPEC``,
``star:SPEC``, ``dstar:SPEC``, ``conv:P:SPEC``; ``@file.json`` loads a
serialized descriptor.  Young functions use commas: ``power,1,2`` is
``u^2``, ``shifted,1,0.5,2`` is ``max(0, u-0.5)^2`` scaled.  Step
functions load from ``@file.json`` or synthesize via ``indicator:TAU``
and ``powerfn:GAMMA`` on a ``--grid unit:N | half:N | count:N`` grid.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from .grid import (
    StepFunction,
    counting,
    default_grid_cells,
    half_line,
    step_from_json,
    unit_interval,
)
from .operators import boyd_indices, dilation_indices, operator_norm, simonenko_indices
from .product import (
    lozanovskii_factorize,
    multiplier_norm,
    product_norm,
    witness_to_json,
)
from .spaces import (
    Convexification,
    Dual,
    LInftyWeighted,
    LorentzLambda,
    LorentzLambdaP,
    Lp,
    Marcinkiewicz,
    MarcinkiewiczStar,
    OrliczCL,
    Symmetrization,
    lorentz_p1_exact,
    lorentz_pq,
    norm,
    space_from_json,
    weak_lp,
)
from .verify import (
    registered_suites,
    report_to_csv,
    report_to_json,
    run_suite,
)
from .weights import PowerWeight, weight_from_json
from .young import Power, ShiftedPower, check_relation, inverse, ominus, oplus, young_from_json

__all__ = ["main"]


class SpecError(ValueError):
    """Malformed command-line spec (maps to exit code 2)."""


def _fmt(v: float) -> str:
    return format(float(v), ".12g")


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse_young(spec: str):
    if spec.startswith("@"):
        return young_from_json(_load_json(spec[1:]))
    parts = spec.split(",")
    try:
        if parts[0] == "power":
            return Power(float(parts[1]), float(parts[2]))
        if parts[0] == "shifted":
            return ShiftedPower(float(parts[1]), float(parts[2]), float(parts[3]))
    except (IndexError, ValueError) as exc:
        raise SpecError(f"bad Young spec {spec!r}: {exc}") from exc
    raise SpecError(f"unknown Young spec {spec!r} (use power,C,P or shifted,A,C,P or @file)")


def _power_weight(parts: list) -> Optional[PowerWeight]:
    if not parts:
        return None
    alpha = float(parts[0])
    coef = float(parts[1]) if len(parts) > 1 else 1.0
    return PowerWeight(alpha, coef)


def _parse_space(spec: str):
    if spec.startswith("@"):
        return space_from_json(_load_json(spec[1:]))
    kind, _, rest = spec.partition(":")
    parts = rest.split(":") if rest else []
    try:
        if kind == "lp":
            p = float("inf") if parts[0] in ("inf", "infty") else float(parts[0])
            return Lp(p, _power_weight(parts[1:]))
        if kind == "linfw":
            return LInftyWeighted(_power_weight(parts) or PowerWeight(0.0))
        if kind == "lambda":
            return LorentzLambda(_power_weight(parts) or PowerWeight(1.0))
        if kind == "lambdap":
            w = PowerWeight(float(parts[0]))
            return LorentzLambdaP(w, float(parts[1]))
        if kind == "marc":
            return Marcinkiewicz(_power_weight(parts) or PowerWeight(1.0))
        if kind == "mstar":
            return MarcinkiewiczStar(_power_weight(parts) or PowerWeight(1.0))
        if kind == "lorentz":
            return lorentz_pq(float(parts[0]), float(parts[1]))
        if kind == "weak":
            return weak_lp(float(parts[0]))
        if kind == "lorentz1":
            return lorentz_p1_exact(float(parts[0]))
        if kind == "orlicz":
            return OrliczCL(Lp(1.0), _parse_young(rest))
        if kind == "dual":
            return Dual(_parse_space(rest))
        if kind == "star":
            return Symmetrization(_parse_space(rest), "star")
        if kind == "dstar":
            return Symmetrization(_parse_space(rest), "doublestar")
        if kind == "conv":
            p, _, inner = rest.partition(":")
            return Convexification(_parse_space(inner), float(p))
    except SpecError:
        raise
    except (IndexError, ValueError) as exc:
        raise SpecError(f"bad space spec {spec!r}: {exc}") from exc
    raise SpecError(f"unknown space spec {spec!r}")


def _parse_grid(spec: Optional[str]):
    if not spec:
        return unit_interval(default_grid_cells())
    kind, _, n = spec.partition(":")
    cells = int(n) if n else default_grid_cells()
    if kind == "unit":
        return unit_interval(cells)
    if kind == "half":
        return half_line(cells)
    if kind == "count":
        return counting(cells)
    raise SpecError(f"unknown grid spec {spec!r} (use unit:N, half:N, count:N)")


def _parse_step(spec: str, grid_spec: Optional[str]) -> StepFunction:
    if spec.startswith("@"):
        return step_from_json(_load_json(spec[1:]))
    kind, _, rest = spec.partition(":")
    ms = _parse_grid(grid_spec)
    if kind == "indicator":
        tau = float(rest)
        return StepFunction(ms, (ms.breakpoints[1:] <= tau * (1 + 1e-12)).astype(float))
    if kind == "powerfn":
        gamma = float(rest)
        t = np.maximum(ms.breakpoints[1:], ms.breakpoints[1] * 0.5)
        return StepFunction(ms, t**-gamma)
    raise SpecError(f"unknown input spec {spec!r} (use @file.json, indicator:TAU, powerfn:GAMMA)")


def _print_result(res, as_json: bool) -> None:
    if as_json:
        payload = {"value": res.value, "kind": res.kind, "notes": list(res.notes)}
        print(json.dumps(payload, sort_keys=True))
        return
    print(f"value = {_fmt(res.value)}")
    print(f"kind  = {res.kind}")
    for note in res.notes:
        print(f"note  : {note}")


def _write_witness(path: Optional[str], wit) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(witness_to_json(wit), fh, sort_keys=True, indent=1)


def _cmd_norm(args) -> int:
    space = _parse_space(args.space)
    x = _parse_step(args.input, args.grid)
    _print_result(norm(space, x), args.json)
    return 0


def _cmd_product(args) -> int:
    E = _parse_space(args.left)
    F = _parse_space(args.right)
    z = _parse_step(args.input, args.grid)
    res, wit = product_norm(E, F, z)
    _print_result(res, args.json)
    if not args.json:
        print(f"witness: method={wit.method} |x|={_fmt(wit.norm_x)} |y|={_fmt(wit.norm_y)}")
    _write_witness(args.witness, wit)
    return 0


def _cmd_factorize(args) -> int:
    E = _parse_space(args.space)
    z = _parse_step(args.input, args.grid)
    wit = lozanovskii_factorize(E, z, eps=args.eps)
    print(f"product = {_fmt(wit.product)}")
    print(f"|x|_E   = {_fmt(wit.norm_x)}")
    print(f"|y|_E'  = {_fmt(wit.norm_y)}")
    print(f"method  = {wit.method}")
    for note in wit.notes:
        print(f"note    : {note}")
    _write_witness(args.witness, wit)
    return 0 if "not_within_epsilon" not in wit.notes else 1


def _cmd_multiplier(args) -> int:
    E = _parse_space(args.source)
    F = _parse_space(args.target)
    m = _parse_step(args.input, args.grid)
    res = multiplier_norm(E, F, m, use_table=not args.no_table)
    _print_result(res, args.json)
    return 0


def _cmd_young(args) -> int:
    if args.op == "relation":
        cert = check_relation(
            _parse_young(args.phi1), _parse_young(args.phi2), _parse_young(args.phi), relation=args.relation
        )
        print(
            json.dumps(
                {
                    "relation": cert.relation,
                    "regime": cert.regime,
                    "holds": cert.holds,
                    "C": cert.C,
                    "D": cert.D,
                    "witness_u": cert.witness_u,
                },
                sort_keys=True,
            )
        )
        return 0 if cert.holds else 1
    if args.at is None:
        raise SpecError("--at is required for eval/inverse/oplus/ominus")
    u = float(args.at)
    if args.op == "eval":
        print(_fmt(_parse_young(args.phi)(u)))
    elif args.op == "inverse":
        print(_fmt(inverse(_parse_young(args.phi), u)))
    elif args.op == "oplus":
        print(_fmt(oplus(_parse_young(args.phi1), _parse_young(args.phi2))(u)))
    elif args.op == "ominus":
        print(_fmt(ominus(_parse_young(args.phi1), _parse_young(args.phi2))(u)))
    return 0


def _parse_weight(spec: str) -> PowerWeight:
    if spec.startswith("@"):
        return weight_from_json(_load_json(spec[1:]))
    try:
        parts = [float(v) for v in spec.split(",")]
        return PowerWeight(parts[0], parts[1] if len(parts) > 1 else 1.0)
    except (IndexError, ValueError) as exc:
        raise SpecError(f"bad weight spec {spec!r} (use ALPHA[,COEF] or @file)") from exc


def _cmd_indices(args) -> int:
    if args.phi:
        phi = _parse_weight(args.phi)
        for label, rep in (("dilation", dilation_indices(phi)), ("simonenko", simonenko_indices(phi))):
            print(
                f"{label}: lower={_fmt(rep.lower)} upper={_fmt(rep.upper)} "
                f"kind={rep.kind} method={rep.method}"
            )
        return 0
    if args.space:
        space = _parse_space(args.space)
        rep = boyd_indices(space)
        print(f"boyd: lower={_fmt(rep.lower)} upper={_fmt(rep.upper)} kind={rep.kind} method={rep.method}")
        for op in ("H", "H*"):
            bound = operator_norm(op, space)
            print(f"norm[{op}]: lower={_fmt(bound.lower)} upper={_fmt(bound.upper)}")
        return 0
    raise SpecError("indices needs --phi or --space")


def _cmd_verify(args) -> int:
    if args.list:
        for name in registered_suites():
            print(name)
        return 0
    names = registered_suites() if args.suite == "all" else [args.suite]
    kw = {}
    if args.grid_n is not None:
        kw["grid_n"] = args.grid_n
    if args.instances is not None:
        kw["instances"] = args.instances
    reports = []
    any_failed = False
    for name in names:
        rep = run_suite(name, seed=args.seed, **kw)
        reports.append(rep)
        s = rep.summary
        status = "PASS" if rep.passed else "FAIL"
        any_failed = any_failed or not rep.passed
        print(f"{name}: {status} ({s['passed']}/{s['total']} instances)")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump([report_to_json(r) for r in reports], fh, sort_keys=True, indent=1)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report_to_csv(reports))
    total = sum(r.summary["total"] for r in reports)
    ok = sum(r.summary["passed"] for r in reports)
    print(f"total: {ok}/{total} instances passed across {len(reports)} suites")
    return 1 if any_failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bfslab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--grid", default=None, help="grid for synthesized inputs (unit:N, half:N, count:N)")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("norm", help="norm of a step function in a space")
    p.add_argument("space")
    p.add_argument("input")
    add_common(p)
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("product", help="pointwise-product norm with witness")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("input")
    p.add_argument("--witness", default=None, help="write the factorization witness to this JSON file")
    add_common(p)
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("factorize", help="split z = xy through a space and its dual")
    p.add_argument("space")
    p.add_argument("input")
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--witness", default=None)
    add_common(p)
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("multiplier", help="lower bound on the multiplier norm")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("input")
    p.add_argument("--no-table", action="store_true", help="skip symbolic identifications")
    add_common(p)
    p.set_defaults(func=_cmd_multiplier)

    p = sub.add_parser("young", help="evaluate or compare Young functions")
    p.add_argument("op", choices=["eval", "inverse", "oplus", "ominus", "relation"])
    p.add_argument("--phi", default=None)
    p.add_argument("--phi1", default=None)
    p.add_argument("--phi2", default=None)
    p.add_argument("--at", default=None)
    p.add_argument("--relation", default="succ", choices=["succ", "prec"])
    p.set_defaults(func=_cmd_young)

    p = sub.add_parser("indices", help="dilation / derivative / operator-growth indices")
    p.add_argument("--phi", default=None, help="power weight ALPHA[,COEF]")
    p.add_argument("--space", default=None)
    p.set_defaults(func=_cmd_indices)

    p = sub.add_parser("verify", help="run the inequality suites")
    p.add_argument("--suite", default="all")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--grid-n", type=int, default=None)
    p.add_argument("--instances", type=int, default=None)
    p.add_argument("--report", default=None, help="write JSON reports here")
    p.add_argument("--csv", default=None, help="write a flat CSV here")
    p.add_argument("--list", action="store_true", help="list registered suites and exit")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # compute-time failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
