"""dslab benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the root of the repository::

    python3 bench/run.py --workload audit_small --seed 0 --seconds 30 --trace 0

Each workload runs in its own single-threaded worker process (``worker.py``)
with the BLAS/OpenMP thread counts pinned to 1.  ``--trace 0`` reports
``ops_per_ref_s``, ``latency_p50_ref_s``, ``setup_s`` (median over process
set-ups) and ``peak_rss_mb``, plus the same rates and latencies in wall
seconds, ``latency_p90`` (when at least 100 operations ran) and
``error_rate`` in the text report.  ``--trace 1`` reports the per-layer
counters and times of ``PER_LAYER`` and the tracing overhead.

Operation times are reported in *reference seconds*: wall seconds scaled by
the speed of the worker's speedometer kernel (``worker.Speedometer``),
measured between the same operations.  The host changes the speed it gives
the process by a quarter or more for minutes at a time; the kernel does not
use ``dslab`` and slows with it, so the scaled figures follow the program
and not the host.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when a
result was printed; 2 when the arguments or the checkout are unusable; 1 when
a worker failed.
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
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("audit_small", "audit_wide", "agnostic")
SETUP_PROBES = 8          # extra set-up-only processes; setup_s is a median of 9
# All processes of one run must end within --seconds plus this margin, which
# covers the set-ups, the pass that ends past --seconds and the output checks.
DEADLINE_MARGIN_S = 140

# The layer metrics of a traced run, as (name, unit) in PER_LAYER.
CALLS = ("hclass.restrict", "oig.max_density_subfamily", "oig.min_max_orientation",
         "oig.maximum_flow", "oig.build_oig", "algebra.rank_exact",
         "algebra.rank_mod_p", "algebra.rank_bareiss", "learn.oig_list_predict",
         "learn.min_max_orientation", "learn.PrefixVotePredictor.predict",
         "agnostic.CoverMember.predict", "agnostic.Menu.predict")
BUSY = ("hclass.restrict", "oig.max_density_subfamily", "oig.min_max_orientation",
        "oig.maximum_flow", "oig.csr_matrix", "oig.build_oig", "dims.ds_dimension",
        "dims.natarajan_dimension", "algebra.check_spanning", "algebra.monomial_set",
        "algebra.eval_matrix", "algebra.rank_mod_p", "learn.oig_list_predict",
        "learn.PrefixVotePredictor.predict", "learn.list_error",
        "agnostic.build_list_cover", "agnostic.mw_menu", "agnostic.inside_menu_erm")
SELF = ("oig.mu_with_witness", "oig.min_max_orientation", "algebra.audit_theorem",
        "agnostic.agnostic_pipeline")
# ratio -> (numerator counters, base counters); 0 when the base is 0
RATIOS = {
    "oig.flows_per_orientation": (("oig.maximum_flow",), ("oig.min_max_orientation",)),
    "algebra.rank_fallback_ratio": (("algebra.rank_bareiss",), ("algebra.rank_exact",)),
    "learn.orientations_per_predict": (("learn.min_max_orientation",),
                                       ("learn.oig_list_predict",
                                        "learn.PrefixVotePredictor.predict")),
}
PER_LAYER = ([(f"{n}.calls", "count") for n in CALLS]
             + [(f"{n}.busy_s", "s") for n in BUSY]
             + [(f"{n}.self_s", "s") for n in SELF]
             + [(n, "ratio") for n in RATIOS]
             + [("trace.ops_per_s_untraced", "1/s"), ("trace.ops_per_s_traced", "1/s"),
                ("trace.overhead", "ratio")])


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    return env


def spawn(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    """Run one worker to completion and return its result object."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError(f"{workload}: no time left for the {mode} worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise WorkerError(f"{workload}: {mode} worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerError(f"{workload}: {mode} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(versions: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), **versions, "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
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


def end_to_end(res: dict, setups: list[float]) -> tuple[dict, list[str]]:
    lat = res["latencies"]
    n = len(lat)
    speed = res["speed"]                  # reference seconds per wall second
    p50 = statistics.median(lat)
    metrics = {
        "ops_per_ref_s": (n / (res["elapsed_s"] * speed), "1/ref_s"),
        "latency_p50_ref_s": (p50 * speed, "ref_s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
    }
    notes = [f"ops             {n} operations in {res['passes']} passes, "
             f"{res['elapsed_s']:.3f} s timed: {n / res['elapsed_s']:.6g} ops per wall s",
             f"latency_p50     n={n}: {p50:.6g} wall s",
             (f"speed           {speed:.4f} ref s per wall s, from {res['kernel_runs']} "
              "kernel runs" if res["kernel_runs"] else
              "speed           1 ref s per wall s: this workload is not kernel-scaled"),
             f"setup_s         median of {len(setups)} process set-ups: "
             + ", ".join(f"{s:.3f}" for s in setups)]
    if n >= 100:
        p90 = statistics.quantiles(lat, n=10)[-1]
        notes.append(f"latency_p90     n={n}: {p90 * speed:.6g} ref s, {p90:.6g} wall s")
    else:
        notes.append(f"latency_p90     not reported: n={n} < 100")
    notes.append(f"error_rate      {res['failed'] / res['attempted']:.6g}  "
                 f"({res['failed']}/{res['attempted']})")
    return metrics, notes


def per_layer(res: dict) -> tuple[dict, list[str]]:
    calls, busy, self_time = res["calls"], res["busy"], res["self_time"]
    metrics = {}
    for name in CALLS:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in BUSY:
        metrics[f"{name}.busy_s"] = (busy.get(name, 0.0), "s")
    for name in SELF:
        metrics[f"{name}.self_s"] = (self_time.get(name, 0.0), "s")
    notes = []
    for name, (num, base) in RATIOS.items():
        n = sum(calls.get(c, 0) for c in num)
        b = sum(calls.get(c, 0) for c in base)
        metrics[name] = (n / b if b else 0.0, "ratio")
        notes.append(f"{name}: {n} / {b} ({' + '.join(base)} calls)")
    ops = res["ops"]
    untraced = ops / statistics.mean(res["untraced_s"])
    traced = ops / res["traced_s"]
    metrics["trace.ops_per_s_untraced"] = (untraced, "1/s")
    metrics["trace.ops_per_s_traced"] = (traced, "1/s")
    metrics["trace.overhead"] = (untraced / traced, "ratio")
    notes.append(f"counts and times are totals over {ops} operations; tracing overhead "
                 f"{untraced / traced:.3f}x: {traced:.4g} ops/s traced "
                 f"({res['traced_s']:.3f} s) against {untraced:.4g} ops/s untraced "
                 f"(mean of {' and '.join(f'{t:.3f} s' for t in res['untraced_s'])}, "
                 f"run before and after), same operations")
    return metrics, notes


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + seconds + DEADLINE_MARGIN_S
    if trace:
        res = spawn(workload, seed, seconds, "trace", deadline)
        metrics, notes = per_layer(res)
    else:
        setups = [spawn(workload, seed, seconds, "setup", deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        res = spawn(workload, seed, seconds, "measure", deadline)
        metrics, notes = end_to_end(res, setups + [res["setup_s"]])

    print(f"# dslab benchmark: workload={workload} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)}")
    print("# env " + json.dumps(environment(res["versions"]), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:>16.6g} {unit}")
    for line in notes:
        print("#   " + line)
    if res["first_failure"]:
        print("# first failure: " + res["first_failure"])
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "dslab" / "__init__.py").is_file():
        print(f"error: no dslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
