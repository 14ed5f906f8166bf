"""Run the benchmark on several seeds and summarise each metric's spread.

    python3 bench/spread.py --workload agnostic --seeds 0-9 [--out F]

Each run is untraced and measures for ``run_seconds`` of BENCHMARK.json.
For every end-to-end metric it prints the median and the interquartile range as a
share of the median (``statistics.quantiles(values, n=4)``), which is the
figure the end-to-end bounds in BENCHMARK.json are set against.  ``--out``
writes the per-seed values and the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SECONDS = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med}
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else None}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--out")
    args = ap.parse_args()

    runs = []
    for seed in parse_seeds(args.seeds):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        result["wall_s"] = time.monotonic() - start
        runs.append(result)
        print(f"seed {seed}: {result['wall_s']:.1f} s, correct={result['correct']}, "
              f"failed={result['failed']}/{result['attempted']}", flush=True)

    summary = {}
    for name, meta in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        summary[name] = {"unit": meta["unit"], **summarise(values)}
        s = summary[name]
        share = s.get("iqr_share")
        print(f"{name:45s} median {s['median']:12.6g} {meta['unit']:6s} "
              f"IQR/median {'-' if share is None else f'{share:.4f}'}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": SECONDS, "runs": runs,
             "summary": summary}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
