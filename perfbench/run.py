"""Benchmark of kernelbasis: one workload, one process, one JSON result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload features --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``: median over SETUP_SAMPLES fresh interpreters, started one at
  a time between the timed passes, of the CPU time to ``import kernelbasis``
  (numpy and scipy included) and make the first call of each of the
  workload's operations on small inputs.
* ``peak_mem_mb``: tracemalloc peak over one separate, untimed pass.
* ``throughput``: median over timed passes of the workload's items per CPU
  second: feature values (features), kernel pairs (grid) or training points
  (krr).

Times are CPU seconds of the measured process (see workloads.py); the run's
length (``--seconds``) is wall time.

``--trace 1`` alternates untraced and traced passes for the same time and
reports per-layer numbers: self time, calls and points of each module from
an outside-in trace (see tracer.py), the tracing overhead, and stage probes
timed with tracing off (see probes.py); probe outputs are checked too, but
apart from the workload's, so a failing probe is reported in the detail line
and does not make the run incorrect.

The last line of standard output is the result object; the line before it
holds the run record (machine, versions, seed) and every metric's median,
quartiles, sample count and tail percentile.  The BLAS thread count is
pinned to BLAS_THREADS before numpy loads, and all load comes from one
process at a time (a set-up sample runs while this process waits for it).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

# standard library only: numpy must load after the BLAS pin and, in a
# set-up sample, after its clock starts
import summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 60
MIN_PASSES = 3
# the name each workload's throughput goes by in the detail line
THROUGHPUT_NAMES = {
    "features": "feature_values_per_s",
    "grid": "kernel_pairs_per_s",
    "krr": "train_points_per_s",
}


def import_kernelbasis():
    """Import kernelbasis from this checkout's ``src/`` and nowhere else."""
    package = SRC / "kernelbasis"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no kernelbasis sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kernelbasis

    if Path(kernelbasis.__file__).resolve().parent != package:
        raise SystemExit(f"perfbench: imported kernelbasis from {kernelbasis.__file__}")
    return kernelbasis


def setup_child(workload: str, seed: int) -> None:
    """CPU time of a cold import plus the first call of each operation."""
    start = time.process_time()
    import_kernelbasis()
    import workloads

    workloads.WORKLOADS[workload][1](seed)
    print(time.process_time() - start)


def setup_sample(workload: str, seed: int) -> float:
    """One set-up time, from a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-child",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up sample failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_pass(workload, tally) -> dict:
    """Run every operation once; time the calls, then check each result.

    Returns the pass's total call time and items, also split by family.
    """
    from workloads import timed_call

    totals = {"time": 0.0, "items": 0, "by_family": {}}
    for op in workload.ops:
        elapsed, items = timed_call(op, tally)
        fam = totals["by_family"].setdefault(op.family, {"time": 0.0, "items": 0})
        for acc in (totals, fam):
            acc["time"] += elapsed
            acc["items"] += items
    return totals


def peak_memory_mb(workload, tally) -> float:
    """Traced-allocation peak of one untimed pass, in MB (1e6 bytes)."""
    tracemalloc.start()
    try:
        run_pass(workload, tally)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


def timed_passes(workload, seconds: float, tally, between=None) -> list[dict]:
    """Passes until ``seconds`` have elapsed (at least MIN_PASSES).

    ``between``, if given, runs after each pass and its time is not counted.
    """
    passes = []
    spent = 0.0
    while spent < seconds or len(passes) < MIN_PASSES:
        start = time.perf_counter()
        passes.append(run_pass(workload, tally))
        if between is not None:
            between()
        spent += time.perf_counter() - start
    return passes


def _rate(p: dict) -> float:
    return p["items"] / p["time"]


def end_to_end(args, workload, tally) -> tuple[dict, dict]:
    peak = peak_memory_mb(workload, tally)
    setup = []
    start = time.perf_counter()

    def spread_setup():
        # set-up samples are spread over the run, so that they meet the same
        # machine load as the timed passes
        if time.perf_counter() - start >= len(setup) * args.seconds / SETUP_SAMPLES:
            setup.append(setup_sample(args.workload, args.seed))

    passes = timed_passes(workload, args.seconds, tally, between=spread_setup)
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(args.workload, args.seed))
    rates = [_rate(p) for p in passes]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_mem_mb": (peak, "MB"),
        "throughput": (statistics.median(rates), "items/s"),
    }
    alias = THROUGHPUT_NAMES[args.workload]
    detail = {
        "setup_s": summary.describe(setup, "s"),
        "peak_mem_mb": {"value": peak, "unit": "MB", "n": 1},
        "throughput": summary.describe(rates, f"{workload.unit}/s", higher_is_better=True),
        "pass_s": summary.describe([p["time"] for p in passes], "s"),
    }
    detail[alias] = detail["throughput"]
    families = passes[0]["by_family"]
    if len(families) > 1:
        for fam in families:
            detail[f"{alias}.{fam}"] = summary.describe(
                [_rate(p["by_family"][fam]) for p in passes], f"{workload.unit}/s",
                higher_is_better=True)
    return metrics, detail


def per_layer(args, workload, tally) -> tuple[dict, dict]:
    import probes
    from tracer import MODULES, Tracer, summarise

    run_pass(workload, tally)  # untimed: lazy set-up and caches settle first
    traced, layers = [], []

    def traced_pass():
        with Tracer() as tr:
            traced.append(run_pass(workload, tally))
        layers.append(summarise(tr.spans, tr.legendre_rules))

    untraced = timed_passes(workload, args.seconds, tally, between=traced_pass)
    metrics = {}
    for key in layers[0]:
        values = [layer[key] for layer in layers]
        if key.endswith(".self_s"):
            metrics[key] = (statistics.median(values), "s")
        else:
            # counts are exact; their repeatability is recorded in the detail
            metrics[key] = (values[0], "ratio" if key.endswith("_ratio") else "count")
    untraced_s = statistics.median(p["time"] for p in untraced)
    traced_s = statistics.median(p["time"] for p in traced)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    probe_tally = summary.Tally()
    # no workload calls these layers, so their zeros give way to a trace
    # of the verification suites
    metrics.update(probes.harness_layers(args.seed, probe_tally))
    for key, value in probes.probe_times(args.seed, probe_tally).items():
        metrics[key] = (value, "s")
    detail = {
        "modules": list(MODULES),
        "traced_passes": len(traced),
        "untraced_pass_s": summary.describe([p["time"] for p in untraced], "s"),
        "traced_pass_s": summary.describe([p["time"] for p in traced], "s"),
        "probes_attempted": probe_tally.attempted,
        "probes_failed": probe_tally.failed,
        "probe_failures": probe_tally.reasons,
        "counts_repeat": all(
            layer[k] == layers[0][k] for layer in layers for k in layers[0]
            if not k.endswith(".self_s")
        ),
    }
    return metrics, detail


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_info() -> dict:
    info = {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0))}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            info[f"l{level}_cache"] = size
    return info


def run_record(args, kb) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **cpu_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "processes": 1,
        "kernelbasis": kb.__version__,
        "git_sha": git_sha(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(THROUGHPUT_NAMES))
    parser.add_argument("--seed", type=int, default=0x5EED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    for var in BLAS_THREAD_VARS:  # inherited by the set-up samples too
        os.environ[var] = str(BLAS_THREADS)
    if args.setup_child:
        setup_child(args.workload, args.seed)
        return 0

    kb = import_kernelbasis()
    import workloads

    tally = summary.Tally()
    workload = workloads.WORKLOADS[args.workload][0](args.seed)
    measure = per_layer if args.trace else end_to_end
    metrics, detail = measure(args, workload, tally)
    detail["ops_failed_frac"] = tally.failed_frac
    detail["failures"] = tally.reasons
    print(json.dumps({"record": run_record(args, kb), "detail": detail}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
