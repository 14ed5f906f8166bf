"""Command-line surface: reproducible runs with machine-readable outputs.

Exit codes: 0 for success / PASS verdicts, 2 when a mathematical verdict is
FAIL or a certificate fails its check (so CI can tell falsification apart
from crashes), 1 for usage errors and other failures.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

from . import algebra, dims, oig
from .agnostic import agnostic_pipeline
from .errors import BudgetError, CertificateError, RealizabilityError
from .hclass import gen_cube, gen_random, load_class, save_class
from .learn import SyntheticDistribution, loo_error, pac_experiment
from .oig import format_ratio

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VERDICT_FAIL = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; keep that for FAIL only
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _emit(payload: dict, args, out: str | None):
    """Write ``payload`` as JSON with the run configuration (every flag the
    subcommand took that is not None) embedded."""
    config = {"command": args.command,
              "args": {k: v for k, v in vars(args).items() if k != "command" and v is not None}}
    doc = {"config": config, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    doc.update(payload)
    text = json.dumps(doc, sort_keys=True, indent=2)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _csv_sink(out: str | None):
    """Context manager over the CSV output: the ``out`` file, closed on every
    path, or stdout, left open."""
    return open(out, "w", newline="") if out else contextlib.nullcontext(sys.stdout)


def _write_csv(sink, header: list, items, row_of) -> list:
    """Stream the header, then one CSV row per item, to the open ``sink``.
    Each row is flushed as it is written, so a partial output stays valid
    CSV.  Returns the items written."""
    writer = csv.writer(sink)
    writer.writerow(header)
    written = []
    for item in items:
        writer.writerow(row_of(item))
        sink.flush()
        written.append(item)
    return written


def _parse_kv(text: str, flag: str, keys: tuple[str, ...]) -> list[int]:
    """The integer values of ``keys``, in that order, in ``flag``'s text."""
    got = {key.strip(): val for key, _, val in (part.partition("=") for part in text.split(","))}
    missing = [key for key in keys if key not in got]
    if missing:
        raise ValueError(f"{flag} needs {', '.join(keys)}; missing {', '.join(missing)}")
    try:
        return [int(got[key]) for key in keys]
    except ValueError:
        raise ValueError(f"{flag}: {', '.join(keys)} must be integers, got {text!r}") from None


def _parse_ints(text, flag: str) -> list[int]:
    """``flag``'s integer, or its comma list of integers."""
    try:
        return [int(part) for part in str(text).split(",")]
    except ValueError:
        raise ValueError(f"{flag} takes an integer or a comma list of them, got {text!r}") from None


# Each handler takes the parsed args and the loaded class (None where the
# command table says main loads none) and returns (payload, ok).  A payload
# of None means the handler wrote its own output.

def _gen(args, _H):
    if args.cube:
        cls = gen_cube(*_parse_kv(args.cube, "--cube", ("k", "ell", "s", "m")))
    elif args.random:
        cls = gen_random(*_parse_kv(args.random, "--random", ("k", "n", "size")), args.seed)
    else:
        raise ValueError("need --cube or --random")
    if args.output:
        save_class(cls, args.output)
    # -o names the class file, so the report goes to stdout
    _emit({"k": cls.k, "n": cls.n, "size": len(cls), "written": args.output}, args, None)
    return None, True


def _dims(args, H):
    if args.validate_witness:
        w = dims.witness_from_json(Path(args.validate_witness).read_text())
        ok = dims.validate_witness(H, w)
        return {"witness_valid": ok, "kind": w.kind, "ell": w.ell}, ok
    d_ds, w_ds = dims.ds_dimension(H, args.ell)
    d_nat, w_nat = dims.natarajan_dimension(H, args.ell)
    payload = {"ell": args.ell, "d_ds": d_ds, "d_nat": d_nat,
               "ds_witness": json.loads(dims.witness_to_json(w_ds)) if w_ds else None,
               "natarajan_witness": json.loads(dims.witness_to_json(w_nat)) if w_nat else None}
    if H.k == 2:
        payload["vc"] = dims.vc_dimension(H)
    return payload, True


def _density(args, H):
    return {"ell": args.ell, "density": format_ratio(oig.density(H, args.ell))}, True


def _mu(args, H):
    n = args.n if args.n is not None else H.n
    return {"ell": args.ell, "n": n, "mu": format_ratio(oig.mu(H, n, args.ell))}, True


def _orient(args, H):
    sigma, t_star = oig.min_max_orientation(oig.build_oig(H), args.ell)
    return {"ell": args.ell, "t_star": t_star,
            "orientation": json.loads(oig.orientation_to_json(sigma))}, True


def _span(args, H):
    s = args.s if args.s is not None else dims.ds_dimension(H, args.ell)[0]
    try:
        ok, rank, size = algebra.check_spanning(H, args.ell, s, budget=args.budget_matrix)
    except BudgetError as exc:  # the matrix budget earns the hint; the walk limit does not
        raise BudgetError(f"{exc}\nhint: raise --budget-matrix or shrink the input") from None
    return {"ell": args.ell, "s": s, "spanning": ok, "rank": rank, "size": size}, ok


def _audit_one(job):
    path, ell, n, matrix_budget = job
    return algebra.audit_theorem(load_class(path), ell, n_samples=n, matrix_budget=matrix_budget)


def _audit(args, _H):
    if args.jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {args.jobs}")
    target = Path(args.klass)
    ells = _parse_ints(args.ell, "--ell")
    paths = sorted(target.glob("*.json")) if target.is_dir() else [target]
    if not paths:  # an empty batch would print no report yet read as a PASS
        raise ValueError(f"no *.json classes in {target}")
    jobs = [(str(p), ell, args.n, args.budget_matrix) for p in paths for ell in ells]
    workers = min(args.jobs, len(jobs))  # a pool forks all its workers at once
    with contextlib.ExitStack() as stack:
        # open the CSV output first, so a bad -o path fails before any audit runs
        sink = stack.enter_context(_csv_sink(args.output)) if args.format == "csv" else None
        run = map
        if workers > 1:
            run = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        results = run(_audit_one, jobs)
        if sink is not None:
            payload = None
            reports = _write_csv(sink, algebra.AuditReport.CSV_HEADER, results,
                                 algebra.AuditReport.csv_row)
        else:
            reports = list(results)
            payload = {"reports": [report.to_dict() for report in reports]}
    return payload, all(report.passed for report in reports)


def _loo(args, H):
    import numpy as np

    D = SyntheticDistribution.uniform_realizable(H, args.target)
    sample = D.draw(np.random.default_rng(args.seed), args.m)
    m_n, t_star = loo_error(H, sample, args.ell)
    d_ds, _w = dims.ds_dimension(H, args.ell)
    ok = m_n <= t_star <= d_ds
    return {"ell": args.ell, "m": args.m, "loo_error": m_n, "t_star": t_star,
            "d_ds": d_ds, "bound_holds": ok}, ok


def _pac(args, H):
    D = SyntheticDistribution.uniform_realizable(H, args.target)
    reports = [pac_experiment(H, D, args.ell, m, args.delta, args.trials, args.seed)
               for m in _parse_ints(args.m, "--m")]
    ok = all(rep.verdict == "PASS" for rep in reports)
    if args.format == "csv":
        with _csv_sink(args.output) as sink:
            _write_csv(sink, ["m", "quantile_err", "bound", "verdict"], reports,
                       lambda rep: [rep.params["m"], rep.results["quantile_err"],
                                    rep.results["bound"], rep.verdict])
        return None, ok
    return {"reports": [rep.to_dict() for rep in reports]}, ok


def _agnostic(args, H):
    if not 0 <= args.noise <= 1:  # refuses nan and inf too, which Fraction cannot hold
        raise ValueError(f"noise must lie in [0, 1], got {args.noise}")
    noise = Fraction(args.noise).limit_denominator(10**6)
    D = SyntheticDistribution.with_label_noise(H, args.target, noise)
    report = agnostic_pipeline(H, D, args.ell, args.n1, args.rounds, args.n3,
                               args.delta, args.seed)
    return {"report": report.to_dict()}, True


# Each flag's argparse spec, keyed by the name the command table uses.
FLAGS = {
    "class": (("--class",), dict(dest="klass", required=True,
                                 help="a class JSON file (audit: or a directory of them)")),
    "ell": (("--ell",), dict(type=int, default=1, help="list size")),
    "ells": (("--ell",), dict(type=str, default=1, help="list size or comma list")),
    "seed": (("--seed",), dict(type=int, help="falls back to env DSLAB_SEED, then 0")),
    "jobs": (("--jobs",), dict(type=int, default=1)),
    "budget_matrix": (("--budget-matrix",), dict(type=int,
                                                 default=algebra.DEFAULT_MATRIX_BUDGET)),
    "format": (("--format",), dict(choices=["json", "csv"], default="json")),
    "output": (("-o", "--output"), dict()),
    "cube": (("--cube",), dict(help="k=..,ell=..,s=..,m=..")),
    "random": (("--random",), dict(help="k=..,n=..,size=..")),
    "validate_witness": (("--validate-witness",), dict()),
    "n": (("--n",), dict(type=int)),
    "s": (("--s",), dict(type=int)),
    "m": (("--m",), dict(type=int, default=16)),
    "ms": (("--m",), dict(default="200", help="sample size or comma list")),
    "delta": (("--delta",), dict(type=float, default=0.1)),
    "trials": (("--trials",), dict(type=int, default=50)),
    "target": (("--target",), dict(type=int, default=0)),
    "n1": (("--n1",), dict(type=int, default=100)),
    "rounds": (("--rounds",), dict(type=int, default=100)),
    "n3": (("--n3",), dict(type=int, default=200)),
    "noise": (("--noise",), dict(type=float, default=0.0)),
}

# subcommand -> (help, handler, whether main loads --class for the handler,
# the flags the handler reads)
COMMANDS = {
    "gen": ("generate a class file", _gen, False, ("cube", "random", "seed", "output")),
    "dims": ("DS/Natarajan (and VC) dimensions", _dims, True,
             ("class", "ell", "validate_witness", "output")),
    "density": ("exact list density", _density, True, ("class", "ell", "output")),
    "mu": ("maximum density over restrictions", _mu, True, ("class", "ell", "n", "output")),
    "orient": ("min-max outdegree orientation", _orient, True, ("class", "ell", "output")),
    "span": ("monomial spanning check", _span, True,
             ("class", "ell", "s", "budget_matrix", "output")),
    "audit": ("full audit; accepts a file or directory", _audit, False,
              ("class", "ells", "n", "jobs", "budget_matrix", "format", "output")),
    "loo": ("leave-one-out error check", _loo, True,
            ("class", "ell", "seed", "m", "target", "output")),
    "pac": ("Monte-Carlo error-bound experiment", _pac, True,
            ("class", "ell", "seed", "ms", "delta", "trials", "target", "format", "output")),
    "agnostic": ("cover/menu/ERM pipeline run", _agnostic, True,
                 ("class", "ell", "seed", "n1", "rounds", "n3", "delta", "target", "noise",
                  "output")),
}


def _env_seed() -> int:
    text = os.environ.get("DSLAB_SEED") or "0"
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"DSLAB_SEED must be an integer, got {text!r}") from None


def build_parser() -> _Parser:
    p = _Parser(prog="dslab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, _handler, _loads_class, flags) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag in flags:
            names, spec = FLAGS[flag]
            sp.add_argument(*names, **spec)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    _help, handler, loads_class, flags = COMMANDS[args.command]
    try:
        if "seed" in flags and args.seed is None:  # resolve the env fallback into provenance
            args.seed = _env_seed()
        if "budget_matrix" in flags and args.budget_matrix < 0:
            raise ValueError(f"budget-matrix must be >= 0, got {args.budget_matrix}")
        H = load_class(args.klass) if loads_class else None
        payload, ok = handler(args, H)
        if payload is not None:
            _emit(payload, args, args.output)
    except CertificateError as exc:
        print(f"dslab {args.command}: certificate failed: {exc}", file=sys.stderr)
        return EXIT_VERDICT_FAIL
    except (BudgetError, RealizabilityError, ValueError, OSError, KeyError) as exc:
        print(f"dslab {args.command}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK if ok else EXIT_VERDICT_FAIL


if __name__ == "__main__":
    sys.exit(main())
