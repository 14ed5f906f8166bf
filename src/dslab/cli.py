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
from dataclasses import dataclass
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


@dataclass
class RunConfig:
    command: str
    args: dict

    def to_dict(self) -> dict:
        return {"command": self.command, "args": dict(sorted(self.args.items()))}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; keep that for FAIL only
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _default_seed(value):
    if value is not None:
        return int(value)
    env = os.environ.get("DSLAB_SEED")
    return int(env) if env else 0


def _emit(payload: dict, cfg: RunConfig, out: str | None):
    doc = {"config": cfg.to_dict(), "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
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


def _parse_kv(text: str) -> dict:
    out = {}
    for part in text.split(","):
        key, _, val = part.partition("=")
        if not val:
            raise ValueError(f"bad key=value item {part!r}")
        out[key.strip()] = int(val)
    return out


def _cmd_gen(args, cfg) -> int:
    if args.cube:
        kv = _parse_kv(args.cube)
        cls = gen_cube(kv["k"], kv["ell"], kv["s"], kv["m"])
    elif args.random:
        kv = _parse_kv(args.random)
        cls = gen_random(kv["k"], kv["n"], kv["size"], _default_seed(args.seed))
    else:
        print("gen: need --cube or --random", file=sys.stderr)
        return EXIT_ERROR
    if args.output:
        save_class(cls, args.output)
    _emit({"k": cls.k, "n": cls.n, "size": len(cls), "written": args.output}, cfg, None)
    return EXIT_OK


def _cmd_dims(args, cfg) -> int:
    H = load_class(args.klass)
    if args.validate_witness:
        w = dims.witness_from_json(Path(args.validate_witness).read_text())
        ok = dims.validate_witness(H, w)
        _emit({"witness_valid": ok, "kind": w.kind, "ell": w.ell}, cfg, args.output)
        return EXIT_OK if ok else EXIT_VERDICT_FAIL
    d_ds, w_ds = dims.ds_dimension(H, args.ell)
    d_nat, w_nat = dims.natarajan_dimension(H, args.ell)
    payload = {"ell": args.ell, "d_ds": d_ds, "d_nat": d_nat,
               "ds_witness": json.loads(dims.witness_to_json(w_ds)) if w_ds else None,
               "natarajan_witness": json.loads(dims.witness_to_json(w_nat)) if w_nat else None}
    if H.k == 2:
        payload["vc"] = dims.vc_dimension(H)
    _emit(payload, cfg, args.output)
    return EXIT_OK


def _cmd_density(args, cfg) -> int:
    H = load_class(args.klass)
    val = oig.density(H, args.ell)
    _emit({"ell": args.ell, "density": format_ratio(val)}, cfg, args.output)
    return EXIT_OK


def _cmd_mu(args, cfg) -> int:
    H = load_class(args.klass)
    n = args.n if args.n is not None else H.n
    val = oig.mu(H, n, args.ell)
    _emit({"ell": args.ell, "n": n, "mu": format_ratio(val)}, cfg, args.output)
    return EXIT_OK


def _cmd_orient(args, cfg) -> int:
    H = load_class(args.klass)
    G = oig.build_oig(H)
    sigma, t_star = oig.min_max_orientation(G, args.ell)
    _emit({"ell": args.ell, "t_star": t_star,
           "orientation": json.loads(oig.orientation_to_json(sigma))}, cfg, args.output)
    return EXIT_OK


def _cmd_span(args, cfg) -> int:
    H = load_class(args.klass)
    s = args.s if args.s is not None else dims.ds_dimension(H, args.ell)[0]
    ok, rank, size = algebra.check_spanning(H, args.ell, s, budget=args.budget_matrix)
    _emit({"ell": args.ell, "s": s, "spanning": ok, "rank": rank, "size": size},
          cfg, args.output)
    return EXIT_OK if ok else EXIT_VERDICT_FAIL


def _audit_one(path_ell):
    path, ell, n, matrix_budget = path_ell
    H = load_class(path)
    return path, algebra.audit_theorem(H, ell, n_samples=n, matrix_budget=matrix_budget)


def _cmd_audit(args, cfg) -> int:
    target = Path(args.klass)
    ells = [int(e) for e in str(args.ell).split(",")]
    paths = sorted(target.glob("*.json")) if target.is_dir() else [target]
    jobs = [(str(p), ell, args.n, args.budget_matrix) for p in paths for ell in ells]

    failed = False
    if args.format == "csv" or (target.is_dir() and args.format != "json"):
        with contextlib.ExitStack() as stack:
            sink = stack.enter_context(_csv_sink(args.output))
            writer = csv.writer(sink)
            writer.writerow(algebra.AuditReport.CSV_HEADER)
            if args.jobs <= 1:
                runner = map(_audit_one, jobs)
            else:
                pool = stack.enter_context(ProcessPoolExecutor(max_workers=args.jobs))
                runner = pool.map(_audit_one, jobs)
            for _path, report in runner:
                writer.writerow(report.csv_row())
                sink.flush()  # partial outputs stay valid CSV
                failed = failed or not report.passed
    else:
        reports = []
        for job in jobs:
            _path, report = _audit_one(job)
            reports.append(report.to_dict())
            failed = failed or not report.passed
        _emit({"reports": reports}, cfg, args.output)
    return EXIT_VERDICT_FAIL if failed else EXIT_OK


def _cmd_loo(args, cfg) -> int:
    import numpy as np

    H = load_class(args.klass)
    D = SyntheticDistribution.uniform_realizable(H, args.target)
    rng = np.random.default_rng(_default_seed(args.seed))
    sample = D.draw(rng, args.m)
    m_n, t_star = loo_error(H, sample, args.ell)
    d_ds, _w = dims.ds_dimension(H, args.ell)
    ok = m_n <= t_star <= d_ds
    _emit({"ell": args.ell, "m": args.m, "loo_error": m_n, "t_star": t_star,
           "d_ds": d_ds, "bound_holds": ok}, cfg, args.output)
    return EXIT_OK if ok else EXIT_VERDICT_FAIL


def _cmd_pac(args, cfg) -> int:
    H = load_class(args.klass)
    D = SyntheticDistribution.uniform_realizable(H, args.target)
    ms = [int(v) for v in str(args.m).split(",")]
    seed = _default_seed(args.seed)
    rows = []
    failed = False
    for m in ms:
        report = pac_experiment(H, D, args.ell, m, args.delta, args.trials, seed)
        rows.append(report)
        failed = failed or report.verdict != "PASS"
    if args.format == "csv":
        with _csv_sink(args.output) as sink:
            writer = csv.writer(sink)
            writer.writerow(["m", "quantile_err", "bound", "verdict"])
            for rep in rows:
                writer.writerow([rep.params["m"], rep.results["quantile_err"],
                                 rep.results["bound"], rep.verdict])
    else:
        _emit({"reports": [rep.to_dict() for rep in rows]}, cfg, args.output)
    return EXIT_VERDICT_FAIL if failed else EXIT_OK


def _cmd_agnostic(args, cfg) -> int:
    H = load_class(args.klass)
    noise = Fraction(args.noise).limit_denominator(10**6)
    D = SyntheticDistribution.with_label_noise(H, args.target, noise)
    report = agnostic_pipeline(H, D, args.ell, args.n1, args.rounds, args.n3,
                               args.delta, _default_seed(args.seed))
    _emit({"report": report.to_dict()}, cfg, args.output)
    return EXIT_OK


def build_parser() -> _Parser:
    p = _Parser(prog="dslab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, klass=True, ell_type=int):
        if klass:
            sp.add_argument("--class", dest="klass", required=True,
                            help="path to a class JSON file")
        sp.add_argument("--ell", type=ell_type, default=1,
                        help="list size (audit also takes a comma list)")
        sp.add_argument("--seed", type=int, default=None,
                        help="falls back to env DSLAB_SEED, then 0")
        sp.add_argument("--jobs", type=int, default=1)
        sp.add_argument("--budget-matrix", type=int, default=algebra.DEFAULT_MATRIX_BUDGET)
        sp.add_argument("--format", choices=["json", "csv"], default="json")
        sp.add_argument("-o", "--output", default=None)

    sp = sub.add_parser("gen", help="generate a class file")
    sp.add_argument("--cube", help="k=..,ell=..,s=..,m=..")
    sp.add_argument("--random", help="k=..,n=..,size=..")
    common(sp, klass=False)
    sp.set_defaults(fn=_cmd_gen)

    sp = sub.add_parser("dims", help="DS/Natarajan (and VC) dimensions")
    common(sp)
    sp.add_argument("--validate-witness", default=None)
    sp.set_defaults(fn=_cmd_dims)

    sp = sub.add_parser("density", help="exact list density")
    common(sp)
    sp.set_defaults(fn=_cmd_density)

    sp = sub.add_parser("mu", help="maximum density over restrictions")
    common(sp)
    sp.add_argument("--n", type=int, default=None)
    sp.set_defaults(fn=_cmd_mu)

    sp = sub.add_parser("orient", help="min-max outdegree orientation")
    common(sp)
    sp.set_defaults(fn=_cmd_orient)

    sp = sub.add_parser("span", help="monomial spanning check")
    common(sp)
    sp.add_argument("--s", type=int, default=None)
    sp.set_defaults(fn=_cmd_span)

    sp = sub.add_parser("audit", help="full audit; accepts a file or directory")
    common(sp, ell_type=str)
    sp.add_argument("--n", type=int, default=None)
    sp.set_defaults(fn=_cmd_audit)

    sp = sub.add_parser("loo", help="leave-one-out error check")
    common(sp)
    sp.add_argument("--m", type=int, default=16)
    sp.add_argument("--target", type=int, default=0)
    sp.set_defaults(fn=_cmd_loo)

    sp = sub.add_parser("pac", help="Monte-Carlo error-bound experiment")
    common(sp)
    sp.add_argument("--m", default="200", help="sample size or comma list")
    sp.add_argument("--delta", type=float, default=0.1)
    sp.add_argument("--trials", type=int, default=50)
    sp.add_argument("--target", type=int, default=0)
    sp.set_defaults(fn=_cmd_pac)

    sp = sub.add_parser("agnostic", help="cover/menu/ERM pipeline run")
    common(sp)
    sp.add_argument("--n1", type=int, default=100)
    sp.add_argument("--rounds", type=int, default=100)
    sp.add_argument("--n3", type=int, default=200)
    sp.add_argument("--delta", type=float, default=0.1)
    sp.add_argument("--target", type=int, default=0)
    sp.add_argument("--noise", type=float, default=0.0)
    sp.set_defaults(fn=_cmd_agnostic)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    if hasattr(args, "seed"):
        args.seed = _default_seed(args.seed)  # resolve env fallback into provenance
    cfg = RunConfig(command=args.command,
                    args={k: v for k, v in vars(args).items()
                          if k not in ("fn", "command") and v is not None})
    try:
        return args.fn(args, cfg)
    except CertificateError as exc:
        print(f"dslab {args.command}: certificate failed: {exc}", file=sys.stderr)
        return EXIT_VERDICT_FAIL
    except (BudgetError, RealizabilityError, ValueError, OSError, KeyError) as exc:
        print(f"dslab {args.command}: {exc}", file=sys.stderr)
        if isinstance(exc, BudgetError):
            print("hint: raise --budget-matrix or shrink the input",
                  file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
