"""One workload in one process; started by ``run.py``, not by hand.

Modes:

- ``setup``: import, build the inputs and warm up, then report the time.
- ``measure``: set up, then time whole passes of the workload until the next
  pass would end past ``--seconds`` (at least one pass).  On the workloads
  that are ``kernel_scaled``, a ``Speedometer`` times a fixed kernel between
  operations.  Outputs are checked after each pass, outside the timed
  region.
- ``trace``: set up, then time the first ``trace_ops`` operations untraced,
  traced and untraced again.

The last line of standard output is one JSON object for ``run.py``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


# Share of the operations' time that the speedometer spends on its kernel.
KERNEL_SHARE = 0.05
# The kernel's median time at reference speed: about its median on a 2-core
# Xeon VM (1.3-1.9 ms by workload), so that a reference second is within a
# quarter of a wall second there.
KERNEL_REF_S = 0.0016


class Speedometer:
    """Times a fixed kernel that does not use ``dslab``, between operations.

    The host runs this process faster or slower for minutes at a time (the
    same operation took 1.0 s in one minute and 1.7 s in the next).  The
    kernel mixes the kinds of work of the small audits and of the pipeline,
    interpreter loops and numpy passes, and slows with them; so its median
    time, taken over the same minutes, is the speed the process was given.
    The median leaves out the slower first run after an operation, whose
    caches are cold.
    """

    def __init__(self):
        import numpy as np

        self.array = np.arange(1 << 19, dtype=np.int64)  # 4 MB, past L2
        self.times: list[float] = []
        self._owed = 0.0
        for _ in range(5):
            self.kernel()

    def kernel(self) -> int:
        table, acc = {}, 0
        for i in range(2000):
            key = (i * 2654435761) & 1023
            table[key] = table.get(key, 0) + i
            acc += i * i % 97
        return acc + len(table) + int((self.array & 0x5555).sum())

    def after(self, op_s: float) -> None:
        """Run the kernel for ``KERNEL_SHARE`` of an operation's time."""
        self._owed += KERNEL_SHARE * op_s
        while self._owed > 0:
            start = time.perf_counter()
            self.kernel()
            took = time.perf_counter() - start
            self.times.append(took)
            self._owed -= took

    def speed(self) -> float:
        """Reference seconds per wall second."""
        return KERNEL_REF_S / statistics.median(self.times)


def run_ops(wl, ops, checker, tracer=None, speedometer=None) -> tuple[list[float], float]:
    """Time each operation; check outputs after the timed loop."""
    latencies = []
    outputs = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(i)
        start = time.perf_counter()
        try:
            out, err = wl.run_op(op), None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, err = None, exc
        latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.end_op()
        if speedometer is not None:
            speedometer.after(latencies[-1])
        outputs.append((out, err))
    for i, (out, err) in enumerate(outputs):
        checker.record(i, out, err)
    return latencies, sum(latencies)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = ap.parse_args()

    import numpy
    import scipy

    import dslab  # noqa: F401
    from workloads import WORKLOADS, Checker

    wl = WORKLOADS[args.workload]
    ops = wl.make_pass(args.seed)
    wl.warmup()
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s,
              "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__}}

    if args.mode == "measure":
        checker = Checker(wl, args.seed, len(ops))
        speedometer = Speedometer() if wl.kernel_scaled else None
        latencies, elapsed, passes = [], 0.0, 0
        while True:
            lat, pass_s = run_ops(wl, ops, checker, speedometer=speedometer)
            latencies += lat
            elapsed += pass_s
            passes += 1
            if elapsed + pass_s > args.seconds:
                break
        result.update(latencies=latencies, elapsed_s=elapsed, passes=passes,
                      speed=speedometer.speed() if speedometer else 1.0,
                      kernel_runs=len(speedometer.times) if speedometer else 0)
    elif args.mode == "trace":
        from tracing import Tracer

        checker = Checker(wl, args.seed, len(ops))
        ops = ops[:wl.trace_ops]
        # Untraced before and after the traced run, so that neither side
        # alone pays for the first pass after set-up.
        _lat, before_s = run_ops(wl, ops, checker)
        with Tracer() as tracer:
            _lat, traced_s = run_ops(wl, ops, checker, tracer)
        _lat, after_s = run_ops(wl, ops, checker)
        result.update(ops=len(ops), untraced_s=[before_s, after_s], traced_s=traced_s,
                      calls=tracer.counts(), busy=tracer.busy, self_time=tracer.self_time)
    if args.mode != "setup":
        result.update(attempted=checker.attempted, failed=checker.failed,
                      first_failure=checker.first_failure)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


if __name__ == "__main__":
    main()
