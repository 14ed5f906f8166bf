"""Regenerate the committed output fingerprints of the default seed.

    python3 bench/make_reference.py [workload ...]

Run it only when a change is meant to alter outputs, and say so where the
change is described: the fingerprints are what every benchmark run on the
default seed is checked against.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import DEFAULT_SEED, WORKLOADS, reference_path  # noqa: E402


def main(names) -> int:
    for name in names or WORKLOADS:
        wl = WORKLOADS[name]
        lines = []
        for i, op in enumerate(wl.make_pass(DEFAULT_SEED)):
            out = wl.run_op(op)
            if not wl.sane(out):
                print(f"{name}: operation {i} fails its check; nothing written",
                      file=sys.stderr)
                return 1
            lines.append(wl.fingerprint(out))
        path = reference_path(name)
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        print(f"{name}: {len(lines)} fingerprints -> {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
