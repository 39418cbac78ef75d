"""One workload process: set up, run the closed loop, print one JSON line.

Started by ``run.py`` in a fresh interpreter for each measurement, so
compile caches, memory high-water marks and module state never carry
over between runs.  Prints ``READY`` once setup is done (interpreter
start, ``import bfslab.cli``, input generation); the parent times setup
up to that line.

Modes:

* ``setup``: stop after ``READY``.
* ``timed``: run rounds in a closed loop for ``--seconds`` (the first
  round always completes).
* ``fixed``: run exactly ``--rounds`` rounds, whatever the time; with
  ``--trace 1`` the layer functions are wrapped and the per-layer
  summary of the rounds after the first ``--warmup`` is added.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SLICE_S = 0.05  # ops run back to back for this long between two reference passes


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import bfslab.cli  # noqa: F401  -- the console script's import, part of setup

    import bfslab

    if Path(bfslab.__file__).resolve().parent != src / "bfslab":
        raise SystemExit(f"bfslab imported from {bfslab.__file__}, not from {src}")


def weighted_quantile(samples, q: float) -> float:
    """Quantile of (value, weight) pairs: the smallest value whose
    cumulative weight reaches q of the total."""
    samples = sorted(samples)
    total = sum(w for _, w in samples)
    acc = 0.0
    for value, weight in samples:
        acc += weight
        if acc >= q * total * (1.0 - 1e-12):
            return value
    return samples[-1][0]


def mix_metrics(records, mix: Counter, key: str) -> tuple[float, list]:
    """(ops per second, weighted latency samples) of the workload's fixed mix.

    Each op kind counts by its share of a round, whatever number of its
    ops the run completed: throughput is the mix's size over the mix's
    summed mean latencies, and the median weighs each sample by its
    kind's share divided by the kind's sample count.  A run that stops
    mid-round therefore reports the same mix as one that stops at a
    round boundary.
    """
    by_kind: dict = {}
    for rec in records:
        by_kind.setdefault(rec["kind"], []).append(rec[key])
    busy = sum(mix[k] * sum(v) / len(v) for k, v in by_kind.items())
    count = sum(mix[k] for k in by_kind)
    samples = [(x, mix[k] / len(v)) for k, v in by_kind.items() for x in v]
    return count / busy, samples


def run(args) -> dict:
    import calib
    import workloads

    wl = workloads.WORKLOADS[args.workload](tiny=bool(args.tiny))

    def make_round(r):
        inp = workloads.Inputs(args.seed, r)
        ops = wl.round(inp)
        if args.tiny and wl.TINY_KINDS:
            ops = [op for op in ops if op.kind in wl.TINY_KINDS]
        return [ops[i] for i in inp.rng.permutation(len(ops))]

    ops = make_round(0)
    mix = Counter(op.kind for op in ops)
    # timed runs always finish the rounds that bound_ratio_gmean and peak_rss_mb are read over
    min_rounds = max(1, wl.RSS_ROUNDS)
    peak_rss_mb = None
    print("READY", flush=True)
    if args.mode == "setup":
        return {}

    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()

    cal = calib.Calibrator()
    records = []
    errors: dict = {}
    start = time.perf_counter()

    def out_of_time():  # never before the first min_rounds rounds are done
        return args.mode == "timed" and r >= min_rounds and time.perf_counter() - start >= args.seconds

    cal.measure()
    r = 0
    while True:
        i = 0
        while i < len(ops) and not out_of_time():
            pending = []
            t_slice = time.perf_counter()
            while i < len(ops) and (not pending or time.perf_counter() - t_slice < SLICE_S):
                op = ops[i]
                i += 1
                if tracer and r >= args.warmup:
                    tracer.enabled = True
                t0 = time.perf_counter()
                try:
                    out, err = op.call(), None
                except Exception as exc:  # an op that raises counts as failed
                    out, err = None, exc
                t1 = time.perf_counter()
                if tracer:
                    tracer.enabled = False
                pending.append((op, out, err, t0, t1))
            cal.measure()
            for op, out, err, t0, t1 in pending:
                ok, ratio = False, None
                if err is None:
                    if args.corrupt_witness:
                        out = workloads.corrupt(out)
                    try:
                        ok, ratio = op.check(out)
                    except Exception as exc:  # a check that cannot run is a failed op
                        err = exc
                if err is not None:
                    errors.setdefault(op.kind, f"{type(err).__name__}: {err}")
                records.append({"round": r, "kind": op.kind, "raw": t1 - t0, "mid": 0.5 * (t0 + t1),
                                "ok": bool(ok), "ratio": ratio})
        r += 1
        if r == wl.RSS_ROUNDS:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if out_of_time() or (args.mode == "fixed" and r >= args.rounds):
            break
        ops = make_round(r)
    wall = time.perf_counter() - start
    for rec in records:
        rec["cal"] = rec["raw"] * cal.scale_at(rec["mid"])

    for kind, msg in sorted(errors.items()):
        print(f"failed op {kind}: {msg}", file=sys.stderr)
    if peak_rss_mb is None:  # a fixed run shorter than RSS_ROUNDS
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = len(records)
    failed = sum(1 for rec in records if not rec["ok"])
    ops_per_s, lat = mix_metrics(records, mix, "cal")
    raw_ops_per_s, raw_lat = mix_metrics(records, mix, "raw")
    ratios = [rec["ratio"] for rec in records if rec["round"] == 0 and rec["ratio"] is not None]
    ratios = [x for x in ratios if x > 0 and math.isfinite(x)]
    passes = sorted(cal.passes)
    out = {
        "attempted": attempted,
        "failed": failed,
        "rounds": r,
        "ops_per_s": ops_per_s,
        "latency_p50_ms": 1e3 * weighted_quantile(lat, 0.5),
        "bound_ratio_gmean": math.exp(sum(map(math.log, ratios)) / len(ratios)) if ratios else 1.0,
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": failed / attempted,
        "busy_cal_s": sum(rec["cal"] for rec in records if rec["round"] >= args.warmup),
        "raw": {
            "wall_s": wall,
            "busy_s": sum(rec["raw"] for rec in records),
            "ops_per_s": raw_ops_per_s,
            "latency_p50_ms": 1e3 * weighted_quantile(raw_lat, 0.5),
            "pass_ms": {"median": 1e3 * passes[len(passes) // 2], "min": 1e3 * passes[0], "max": 1e3 * passes[-1],
                        "count": len(passes)},
        },
    }
    out["latency_samples"] = attempted
    if attempted >= 100:  # at least ten samples beyond the 90th percentile
        out["latency_p90_ms"] = 1e3 * weighted_quantile(lat, 0.9)
    if tracer:
        out["layers"] = tracer.summary()
        if args.spans:
            tracer.write_spans(args.spans)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "fixed"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--warmup", type=int, default=0, help="leading rounds left out of the trace and of busy_cal_s")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-witness", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="file for the traced spans (JSON lines)")
    args = ap.parse_args(argv)
    _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    result = run(args)
    if result:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
