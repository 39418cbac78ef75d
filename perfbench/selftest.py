"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. Two tiny traced runs at one seed give identical count metrics and an
   identical ``bound_ratio_gmean``, on every workload.
2. A witness corrupted on purpose (its y factor scaled by 2) is counted
   as a failed op.

Exits 0 when both hold.  Takes well under a minute.
"""

from __future__ import annotations

import sys

from run import WorkerError, spawn

SEED = 11
COUNT_SUFFIXES = (".calls", ".evals", ".misses", ".targets")


def _is_count(name: str) -> bool:
    return (name.endswith(COUNT_SUFFIXES) or name.startswith("product.path.")
            or name == "product.kernel_evals_per_call")


def traced_counts_repeat() -> list:
    problems = []
    for workload in ("products", "gauges", "kernels"):
        before = len(problems)
        args = ["--workload", workload, "--seed", SEED, "--mode", "fixed", "--rounds", 1, "--tiny", 1, "--trace", 1]
        runs = [spawn(args)[1] for _ in range(2)]
        for res in runs:
            if res["failed"]:
                problems.append(f"{workload}: {res['failed']} ops failed in a tiny traced run")
        a, b = (dict((k, v) for k, v in r["layers"].items() if _is_count(k)) for r in runs)
        if not a:
            problems.append(f"{workload}: no count metrics")
        for key in sorted(a):
            if a[key] != b[key]:
                problems.append(f"{workload}: {key} differs between runs ({a[key]} vs {b[key]})")
        if runs[0]["bound_ratio_gmean"] != runs[1]["bound_ratio_gmean"]:
            problems.append(f"{workload}: bound_ratio_gmean differs between runs")
        if len(problems) == before:
            print(f"ok  {workload}: {len(a)} count metrics and bound_ratio_gmean repeat")
    return problems


def corrupted_witness_fails() -> list:
    args = ["--workload", "products", "--seed", SEED, "--mode", "fixed", "--rounds", 1, "--tiny", 1,
            "--corrupt-witness", 1]
    res = spawn(args)[1]
    if res["failed"] < 1:
        return [f"corrupted witnesses passed their checks ({res['attempted']} ops, 0 failed)"]
    print(f"ok  corrupted witness: {res['failed']} of {res['attempted']} ops counted as failed")
    return []


def main() -> int:
    try:
        problems = traced_counts_repeat() + corrupted_witness_fails()
    except WorkerError as exc:
        problems = [str(exc)]
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
