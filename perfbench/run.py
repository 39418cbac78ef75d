"""bfslab benchmark entry point.

    python3 perfbench/run.py --workload products --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout: imports the program from ``src/``
and exits 2, printing no result, when it is not there.  Each
measurement runs in a fresh worker process (``worker.py``) with one
BLAS/OpenMP thread, ``BFSLAB_GRID_N`` unset and a fixed
``PYTHONHASHSEED``.

``--trace 0`` measures the end-to-end metrics: six set-up-only
workers give ``setup_s`` (median), then one worker runs the closed loop
for ``--seconds``.  ``--trace 1`` runs the workload's fixed traced
round count twice, untraced and then traced, each in its own process,
and reports the per-layer metrics plus ``trace.overhead_frac``.

The last line of standard output is the result object; the lines before
it (starting with ``#``) carry the raw wall figures, the reference-pass
times, the ungated metrics and the machine, for information.  See
README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402

WORKLOADS = ("products", "gauges", "kernels")
SETUP_SPAWNS = 6  # set-up-only worker starts per run; setup_s is their median
# traced rounds after one untraced warm-up round, which fills the compile
# cache: the per-layer figures describe the steady state
TRACE_ROUNDS = {"products": 2, "gauges": 1, "kernels": 40}
WORKER_TIMEOUT_S = 170.0


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("BFSLAB_GRID_N", None)  # fundamental's default grid reads it
    env.pop("PYTHONPATH", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list) -> tuple[float, dict]:
    """Run one worker; (seconds until READY, parsed result or {})."""
    cmd = [sys.executable, str(HERE / "worker.py")] + [str(a) for a in args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = None
        last = ""
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise WorkerError(f"worker {' '.join(map(str, args))} exited with {code}")
    return ready, (json.loads(last) if last else {})


def timed_setup(args: list) -> tuple[float, float]:
    """Start a set-up-only worker between two reference passes: (calibrated, raw) seconds."""
    p0, _ = calib.pass_time()
    raw, _ = spawn(args)
    p1, _ = calib.pass_time()
    return raw * calib.scale(0.5 * (p0 + p1)), raw


def machine() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": numpy.__version__}


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    base = ["--workload", workload, "--seed", seed]
    spawn(base + ["--mode", "setup"])  # writes the bytecode caches; not measured
    setups, raw_setups = zip(*(timed_setup(base + ["--mode", "setup"]) for _ in range(SETUP_SPAWNS)))
    _, res = spawn(base + ["--mode", "timed", "--seconds", seconds])
    metrics = {k: res[k] for k in ("ops_per_s", "latency_p50_ms", "peak_rss_mb", "bound_ratio_gmean")}
    metrics["setup_s"] = statistics.median(setups)
    info = {
        "raw": dict(res["raw"], setup_s=statistics.median(raw_setups)),
        "ungated": {k: res[k] for k in ("failed_frac", "latency_p90_ms", "latency_samples", "rounds") if k in res},
    }
    return {"attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}, info


def trace(workload: str, seed: int, spans: Path) -> tuple[dict, dict]:
    base = ["--workload", workload, "--seed", seed]
    fixed = base + ["--mode", "fixed", "--rounds", 1 + TRACE_ROUNDS[workload], "--warmup", 1]
    spawn(base + ["--mode", "setup"])
    _, plain = spawn(fixed)
    spans.parent.mkdir(exist_ok=True)
    _, traced = spawn(fixed + ["--trace", 1, "--spans", spans])
    layers = dict(traced["layers"])
    layers["trace.overhead_frac"] = 1.0 - plain["busy_cal_s"] / traced["busy_cal_s"]
    info = {"raw": traced["raw"], "bound_ratio_gmean": traced["bound_ratio_gmean"], "spans": str(spans)}
    return {"attempted": traced["attempted"], "failed": traced["failed"], "metrics": layers}, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="bfslab benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bfslab" / "__init__.py").is_file():
        print(f"bfslab sources not found under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            spans = ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
            result, info = trace(args.workload, args.seed, spans)
        else:
            result, info = measure(args.workload, args.seed, args.seconds)
    except WorkerError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(result["metrics"]):
        print(f"metrics {sorted(set(units) ^ set(result['metrics']))} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    info["machine"] = machine()
    info["nominal_pass_ms"] = 1e3 * calib.NOMINAL_PASS_S
    print("# info " + json.dumps(info))
    metrics = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
