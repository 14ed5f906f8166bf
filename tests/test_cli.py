import ast
import dataclasses
import gc
import json
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from concurrent.futures import ProcessPoolExecutor

from dslab import algebra, cli, hclass, oig
from dslab.cli import EXIT_ERROR, EXIT_OK, EXIT_VERDICT_FAIL, main
from dslab.errors import CertificateError
from dslab.hclass import HypothesisClass, gen_cube, load_class, save_class


@pytest.fixture()
def square(tmp_path):
    p = tmp_path / "square.json"
    save_class(gen_cube(2, 1, 2, 2), p)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_then_load(tmp_path, capsys):
    out_file = str(tmp_path / "c.json")
    code, _out, _err = run(capsys, "gen", "--cube", "k=3,ell=1,s=1,m=2", "-o", out_file)
    assert code == EXIT_OK
    assert len(load_class(out_file)) == 3


def test_gen_random_uses_seed_env(tmp_path, capsys, monkeypatch):
    out_file = str(tmp_path / "r.json")
    monkeypatch.setenv("DSLAB_SEED", "11")
    code, _out, _err = run(capsys, "gen", "--random", "k=3,n=2,size=5", "-o", out_file)
    assert code == EXIT_OK
    from dslab.hclass import gen_random
    assert load_class(out_file) == gen_random(3, 2, 5, seed=11)


def test_mu_square_prints_one(square, capsys):
    code, out, _err = run(capsys, "mu", "--class", square, "--n", "2", "--ell", "1")
    assert code == EXIT_OK
    assert json.loads(out)["mu"] == "1/1"


def test_density_command(square, capsys):
    code, out, _err = run(capsys, "density", "--class", square, "--ell", "1")
    assert code == EXIT_OK and json.loads(out)["density"] == "1/1"


def test_dims_command_includes_vc(square, capsys):
    code, out, _err = run(capsys, "dims", "--class", square, "--ell", "1")
    doc = json.loads(out)
    assert code == EXIT_OK
    assert doc["d_ds"] == 2 and doc["d_nat"] == 2 and doc["vc"] == 2


def test_dims_witness_validation_roundtrip(square, tmp_path, capsys):
    code, out, _err = run(capsys, "dims", "--class", square, "--ell", "1")
    witness = json.loads(out)["ds_witness"]
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps(witness))
    code, out, _err = run(capsys, "dims", "--class", square, "--ell", "1",
                          "--validate-witness", str(wpath))
    assert code == EXIT_OK and json.loads(out)["witness_valid"] is True


SQUARE_DS_WITNESS = {"kind": "DS", "ell": 1, "coords": [1, 2],
                     "subfamily": {"k": 2, "n": 2, "hyps": [[1, 1], [1, 2], [2, 1], [2, 2]]}}


@pytest.mark.parametrize("witness, message", [
    ({**SQUARE_DS_WITNESS, "ell": None}, "witness JSON 'ell' must be an integer, got null"),
    ({**SQUARE_DS_WITNESS, "subfamily": {"k": 2, "n": 2, "hyps": [[1, 1], [1, None]]}},
     "class JSON label must be an integer, got null"),
    ([SQUARE_DS_WITNESS], "witness JSON must be an object with 'kind', 'ell', a 'coords' list and 'subfamily'"),
    # int() would read these as coords (1, 2) and ell 1: a valid witness
    ({**SQUARE_DS_WITNESS, "coords": [1.7, 2], "ell": 1.9},
     "witness JSON coordinate must be an integer, got 1.7"),
    # a kind other than the two strings once read as a failed verdict (exit 2)
    ({**SQUARE_DS_WITNESS, "kind": 5}, 'witness JSON \'kind\' must be "DS" or "Natarajan", got 5'),
    ({**SQUARE_DS_WITNESS, "kind": "foo"}, 'witness JSON \'kind\' must be "DS" or "Natarajan", got "foo"'),
], ids=["null_ell", "null_label", "top_level_list", "fractional_coords_and_ell", "numeric_kind", "unknown_kind"])
def test_malformed_witness_file_is_a_one_line_error(witness, message, square, tmp_path, capsys):
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps(witness))
    code, out, err = run(capsys, "dims", "--class", square, "--ell", "1",
                         "--validate-witness", str(wpath))
    assert code == EXIT_ERROR and out == ""
    assert err == f"dslab dims: {message}\n"


def test_orient_command(square, capsys):
    code, out, _err = run(capsys, "orient", "--class", square, "--ell", "1")
    doc = json.loads(out)
    assert code == EXIT_OK and doc["t_star"] == 1
    assert len(doc["orientation"]["edges"]) == 4


def saturate_without_flow(net, cap):
    """A lying max-flow: every sink arc saturated, no edge covering a row."""
    for a in net.sink_arcs:
        cap[a] = 0


def test_failed_minimality_certificate_exits_two(square, capsys, monkeypatch):
    # the square's t_star = 1 equals ceil(density), where the search starts,
    # so t = 1 is the only target it asks for; a flow that lies there (it
    # covers no vertex) is padded to each edge's first member, which leaves
    # row 3 both its edges as outdegree, and the orientation must fail the
    # fractional-orientation check, not be returned
    G = oig.build_oig(load_class(square))
    monkeypatch.setattr(oig, "maximum_flow", saturate_without_flow)
    with pytest.raises(CertificateError, match=r"lam=1 leaves row 3 outdegree 2 > lam"):
        oig.min_max_orientation(G, 1)
    code, out, err = run(capsys, "orient", "--class", square, "--ell", "1")
    assert code == EXIT_VERDICT_FAIL and out == "" and "certificate" in err


def test_cut_not_denser_than_t_exits_two(square, capsys, monkeypatch):
    # a flow that routes nothing calls t = 1 infeasible, and its cut is the
    # whole square, whose density is exactly 1, not above it
    G = oig.build_oig(load_class(square))
    monkeypatch.setattr(oig, "maximum_flow", lambda net, cap: None)
    with pytest.raises(CertificateError, match="lam=1"):
        oig.min_max_orientation(G, 1)
    code, out, err = run(capsys, "orient", "--class", square, "--ell", "1")
    assert code == EXIT_VERDICT_FAIL and out == "" and "certificate" in err


def test_cut_down_ds_witness_exits_two(square, capsys, monkeypatch):
    # d_DS is certified from below by re-checking its witness: a witness cut
    # down to one row has no i-neighbors, so the audit must refuse it
    honest = algebra.ds_dimension

    def cut_down(H, ell):
        d, w = honest(H, ell)
        one_row = HypothesisClass(k=w.subfamily.k, n=w.subfamily.n, hyps=w.subfamily.hyps[:1])
        return d, dataclasses.replace(w, subfamily=one_row)

    monkeypatch.setattr(algebra, "ds_dimension", cut_down)
    with pytest.raises(CertificateError, match="DS witness"):
        algebra.audit_theorem(load_class(square), 1)
    code, out, err = run(capsys, "audit", "--class", square, "--ell", "1")
    assert code == EXIT_VERDICT_FAIL and out == "" and "certificate" in err


def test_cut_down_natarajan_witness_exits_two(square, capsys, monkeypatch):
    # d_Nat is re-checked as d_DS is: a product witness cut down to one row
    # has lists of one label, not ell + 1
    honest = algebra.natarajan_dimension

    def cut_down(H, ell):
        d, w = honest(H, ell)
        one_row = HypothesisClass(k=w.subfamily.k, n=w.subfamily.n, hyps=w.subfamily.hyps[:1])
        return d, dataclasses.replace(w, subfamily=one_row)

    monkeypatch.setattr(algebra, "natarajan_dimension", cut_down)
    with pytest.raises(CertificateError, match="Natarajan witness on \\(1, 2\\)"):
        algebra.audit_theorem(load_class(square), 1)
    code, out, err = run(capsys, "audit", "--class", square, "--ell", "1")
    assert code == EXIT_VERDICT_FAIL and out == "" and "certificate" in err


def test_residual_graph_without_a_maximizer_exits_two(tmp_path, capsys, monkeypatch):
    # a sink-component pass that finds no component of balanced rows, or
    # offers no rows or a row set below the maximum, must make the density
    # search refuse its own answer rather than return one.  In the L
    # {11, 12, 21} at ell 1 the corner carries more than the uniform load,
    # so its search balances the loads (every row of the square carries the
    # same load: it needs no balance)
    ell_shape = tmp_path / "ell_shape.json"
    save_class(HypothesisClass(k=2, n=2, hyps=((1, 1), (1, 2), (2, 1))), ell_shape)
    for lie in (None, (), (0,)):  # (0,) is the corner alone, of density 0
        monkeypatch.setattr(oig, "_smallest_sink", lambda live, x, load, cap, unit: lie)
        with pytest.raises(CertificateError, match="holds no maximizer"):
            oig.mu(load_class(ell_shape), 2, 1)
    code, out, err = run(capsys, "mu", "--class", str(ell_shape), "--ell", "1")
    assert code == EXIT_VERDICT_FAIL and out == ""
    assert err == "dslab mu: certificate failed: residual graph at density 2/3 holds no maximizer\n"


LYING_FLOWS = """
import sys
from dslab import oig
from dslab.algebra import audit_theorem
from dslab.errors import CertificateError
from dslab.hclass import gen_cube, gen_random

if not sys.flags.optimize:
    sys.exit(3)
G = oig.build_oig(gen_cube(2, 1, 2, 2))
honest = oig.maximum_flow


def no_cover(net, cap):
    for a in net.sink_arcs:
        cap[a] = 0


def overfull_cover(net, cap):  # every edge covers all its members
    no_cover(net, cap)
    for j in range(1, net.n_edges + 1):
        for a in net.adj[j]:
            if not a & 1:
                cap[a ^ 1] = 1


lies = {"no cover": no_cover, "thin cut": lambda net, cap: None, "overfull cover": overfull_cover}
for name, lie in lies.items():
    oig.maximum_flow = lie
    try:
        oig.min_max_orientation(G, 1)
    except CertificateError as exc:
        print(name, "caught:", exc)

# a real density balance that then claims every row balanced: on this class
# a zeroed flow once passed every other check, reporting mu = 9/7 for 3/2
H = gen_random(3, 3, 14, seed=60)
oig.maximum_flow = honest
honest_balance = oig._balance


def stops_short(live, x, load, cap, unit):
    honest_balance(live, x, load, cap, unit)


oig._balance = stops_short
for name, run in {"density": lambda: oig.max_density_subfamily(H, 1),
                  "audit": lambda: audit_theorem(H, 1)}.items():
    try:
        print(name, "returned", run())
    except CertificateError as exc:
        print(name, "caught:", exc)
"""


def test_orientation_certificates_survive_python_O():
    # python -O strips asserts; the orientation and density certificates
    # must not be asserts
    src = Path(oig.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-O", "-c", LYING_FLOWS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "no cover caught: flow at lam=1 leaves row 3 outdegree 2 > lam",
        "thin cut caught: min cut at lam=1 found no subfamily denser than lam",
        "overfull cover caught: flow at lam=1 is no fractional orientation of edge (0, 2)",
        "density caught: flow at lam=9/7 leaves row 1 outdegree 4/3 > lam",
        "audit caught: flow at lam=9/7 leaves row 1 outdegree 4/3 > lam"]


def test_no_bare_assert_in_the_package():
    # python -O strips asserts, so every check in src must be explicit code
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(oig.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


FIRST_IMPORT = """
import importlib, sys, types
pkg = types.ModuleType("dslab")  # the package without its __init__
pkg.__path__ = [sys.argv[1]]
sys.modules["dslab"] = pkg
importlib.import_module("dslab." + sys.argv[2])
"""


@pytest.mark.parametrize("module", sorted(p.stem for p in Path(oig.__file__).parent.glob("*.py")
                                          if p.stem != "__init__"))
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    # dslab/__init__.py fixes one import order; loading each module first
    # without it shows any import cycle that order would hide
    proc = subprocess.run([sys.executable, "-c", FIRST_IMPORT, str(Path(oig.__file__).parent), module],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


FOOTPRINT = """
import sys
import dslab, dslab.cli
assert "scipy.sparse" not in sys.modules, "importing dslab loaded scipy.sparse"
import scipy.sparse
assert dslab.oig.csr_matrix is scipy.sparse.csr_matrix
try:
    dslab.oig.no_such_name
except AttributeError:
    pass
else:
    raise SystemExit("dslab.oig.no_such_name resolved")
"""

WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now fails
from dslab import agnostic_pipeline, audit_theorem, gen_cube
from dslab.learn import SyntheticDistribution
assert audit_theorem(gen_cube(2, 1, 2, 2), 1).verdict == "PASS"
H = gen_cube(3, 1, 2, 3)
D = SyntheticDistribution.uniform_realizable(H, 1)
rep = agnostic_pipeline(H, D, ell=1, n1=16, T=16, n3=32, delta=0.1, seed=0)
assert rep.results["excess_err"] == 0.0
"""


@pytest.mark.parametrize("script", [FOOTPRINT, WITHOUT_SCIPY], ids=["footprint", "without_scipy"])
def test_the_runtime_does_not_import_scipy(script):
    # scipy is a test and bench dependency only: dslab resolves
    # oig.csr_matrix on first access, for the benchmark tracer, and runs
    # with scipy blocked
    src = Path(oig.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_span_command(square, capsys):
    code, out, _err = run(capsys, "span", "--class", square, "--ell", "1", "--s", "2")
    assert code == EXIT_OK and json.loads(out)["spanning"] is True
    code, out, _err = run(capsys, "span", "--class", square, "--ell", "1", "--s", "0")
    assert code == EXIT_VERDICT_FAIL


def test_audit_single_class_passes(square, capsys):
    code, out, _err = run(capsys, "audit", "--class", square, "--ell", "1")
    doc = json.loads(out)
    assert code == EXIT_OK
    assert doc["reports"][0]["verdict"] == "PASS"


def test_audit_past_former_row_cap_exits_zero(tmp_path, capsys):
    from dslab.hclass import gen_random
    p = tmp_path / "wide.json"
    save_class(gen_random(3, 3, 23, seed=5), p)
    code, out, _err = run(capsys, "audit", "--class", str(p), "--ell", "1")
    assert code == EXIT_OK
    (report,) = json.loads(out)["reports"]
    assert report["authoritative"] is True and report["mu"] == "42/23"
    assert "budget_subsets" not in json.loads(out)["config"]["args"]


def test_audit_directory_batch_csv(tmp_path, capsys):
    d = tmp_path / "classes"
    d.mkdir()
    save_class(gen_cube(2, 1, 2, 2), d / "a.json")
    save_class(gen_cube(3, 1, 1, 2), d / "b.json")
    out_file = tmp_path / "batch.csv"
    code, _out, _err = run(capsys, "audit", "--class", str(d), "--ell", "1,2",
                           "--format", "csv", "-o", str(out_file))
    assert code == EXIT_OK
    lines = out_file.read_text().strip().splitlines()
    assert lines[0].startswith("class_id,ell,mu_num,mu_den,ceil_mu")
    assert len(lines) == 1 + 4  # 2 classes x 2 ell values


def test_audit_csv_closes_output_when_a_class_is_malformed(tmp_path, capsys):
    d = tmp_path / "classes"
    d.mkdir()
    (d / "a.json").write_text('{"k": 2, "hyps": [[1, 2]]}')  # no "n"
    save_class(gen_cube(2, 1, 2, 2), d / "b.json")
    out_file = tmp_path / "batch.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _out, _err = run(capsys, "audit", "--class", str(d), "--ell", "1",
                               "--format", "csv", "-o", str(out_file))
        gc.collect()
    assert code == EXIT_ERROR
    assert out_file.read_text().splitlines()[0].startswith("class_id,ell,mu_num")
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_audit_batch_parallel_jobs(tmp_path, capsys):
    d = tmp_path / "classes"
    d.mkdir()
    for i, cls in enumerate([gen_cube(2, 1, 2, 2), gen_cube(3, 1, 1, 2),
                             gen_cube(3, 1, 2, 2)]):
        save_class(cls, d / f"c{i}.json")
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert run(capsys, "audit", "--class", str(d), "--ell", "1",
               "--format", "csv", "-o", str(serial))[0] == EXIT_OK
    assert run(capsys, "audit", "--class", str(d), "--ell", "1",
               "--format", "csv", "-o", str(parallel), "--jobs", "2")[0] == EXIT_OK
    assert serial.read_text() == parallel.read_text()


def test_audit_json_batch_honours_jobs(tmp_path, capsys, monkeypatch):
    d = tmp_path / "classes"
    d.mkdir()
    for i, cls in enumerate([gen_cube(2, 1, 2, 2), gen_cube(3, 1, 1, 2),
                             gen_cube(3, 1, 2, 2)]):
        save_class(cls, d / f"c{i}.json")
    pools = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    code, serial, _err = run(capsys, "audit", "--class", str(d), "--ell", "1,2")
    assert code == EXIT_OK and not pools
    code, parallel, _err = run(capsys, "audit", "--class", str(d), "--ell", "1,2",
                               "--jobs", "2")
    assert code == EXIT_OK and len(pools) == 1
    assert json.loads(parallel)["reports"] == json.loads(serial)["reports"]
    assert len(json.loads(serial)["reports"]) == 6


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts no process."""
    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("jobs,n_classes,workers", [("64", 3, [3]), ("2", 3, [2]),
                                                    ("64", 1, []), ("1", 3, [])])
def test_audit_pool_holds_no_more_workers_than_jobs(jobs, n_classes, workers, tmp_path,
                                                    capsys, monkeypatch):
    d = tmp_path / "classes"
    d.mkdir()
    for i, cls in enumerate([gen_cube(2, 1, 2, 2), gen_cube(3, 1, 1, 2),
                             gen_cube(3, 1, 2, 2)][:n_classes]):
        save_class(cls, d / f"c{i}.json")
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _SerialPool)
    code, out, _err = run(capsys, "audit", "--class", str(d), "--ell", "1", "--jobs", jobs)
    assert code == EXIT_OK and len(json.loads(out)["reports"]) == n_classes
    assert _SerialPool.sizes == workers


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_audit_jobs_below_one_is_a_one_line_error(jobs, square, capsys, monkeypatch):
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _SerialPool)
    code, out, err = run(capsys, "audit", "--class", square, "--ell", "1", "--jobs", jobs)
    assert code == EXIT_ERROR and out == "" and not _SerialPool.sizes
    assert err == f"dslab audit: jobs must be >= 1, got {jobs}\n"


@pytest.mark.parametrize("command", ["span", "audit"])
@pytest.mark.parametrize("budget", ["-1", "-5"])
def test_negative_matrix_budget_is_a_one_line_error(command, budget, square, capsys):
    code, out, err = run(capsys, command, "--class", square, "--budget-matrix", budget)
    assert code == EXIT_ERROR and out == ""
    assert err == f"dslab {command}: budget-matrix must be >= 0, got {budget}\n"


def test_zero_matrix_budget_still_skips_spanning(square, capsys):
    code, out, _err = run(capsys, "audit", "--class", square, "--budget-matrix", "0")
    report, = json.loads(out)["reports"]
    assert code == EXIT_OK and report["authoritative"] is False and report["spanning"] is None
    code, out, err = run(capsys, "span", "--class", square, "--budget-matrix", "0")
    assert code == EXIT_ERROR and out == ""
    assert err == ("dslab span: monomial enumeration exceeds budget 0\n"
                   "hint: raise --budget-matrix or shrink the input\n")


def test_audit_csv_bad_output_path_fails_before_any_audit(tmp_path, capsys, monkeypatch):
    d = tmp_path / "classes"
    d.mkdir()
    for i, cls in enumerate([gen_cube(2, 1, 2, 2), gen_cube(3, 1, 1, 2)]):
        save_class(cls, d / f"c{i}.json")
    pools = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    code, out, err = run(capsys, "audit", "--class", str(d), "--ell", "1", "--jobs", "2",
                         "--format", "csv", "-o", str(tmp_path / "missing" / "x.csv"))
    assert code == EXIT_ERROR and "dslab audit:" in err
    assert not pools and out == ""


CONFIG_KEYS = {
    "gen": (["--cube", "k=3,ell=1,s=1,m=2"], {"cube", "seed"}),
    "dims": ([], {"klass", "ell"}),
    "density": ([], {"klass", "ell"}),
    "mu": ([], {"klass", "ell"}),
    "orient": ([], {"klass", "ell"}),
    "span": ([], {"klass", "ell", "budget_matrix"}),
    "audit": ([], {"klass", "ell", "jobs", "budget_matrix", "format"}),
    "loo": ([], {"klass", "ell", "seed", "m", "target"}),
    "pac": (["--m", "8", "--trials", "2"],
            {"klass", "ell", "seed", "m", "delta", "trials", "target", "format"}),
    "agnostic": (["--n1", "8", "--rounds", "4", "--n3", "8"],
                 {"klass", "ell", "seed", "n1", "rounds", "n3", "delta", "target", "noise"}),
}


@pytest.mark.parametrize("command", sorted(CONFIG_KEYS))
def test_config_args_hold_only_the_flags_a_subcommand_reads(command, square, capsys):
    extra, keys = CONFIG_KEYS[command]
    klass = [] if command == "gen" else ["--class", square]
    code, out, _err = run(capsys, command, *klass, *extra)
    assert code == EXIT_OK
    assert set(json.loads(out)["config"]["args"]) == keys


@pytest.mark.parametrize("command", sorted(CONFIG_KEYS))
def test_json_output_embeds_config_and_reruns_identically(command, square, tmp_path, capsys):
    # two runs of one config print the same bytes apart from the timestamp;
    # gen's -o names the class file, so its report is read from stdout
    extra, _keys = CONFIG_KEYS[command]
    out = tmp_path / "out.json"
    klass = [] if command == "gen" else ["--class", square]
    texts = []
    for _run in range(2):
        code, stdout, _err = run(capsys, command, *klass, *extra, "-o", str(out))
        assert code == EXIT_OK
        texts.append(stdout if command == "gen" else out.read_text())
    first, second = (re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', t) for t in texts)
    assert first == second
    config = json.loads(first)["config"]
    assert config["command"] == command
    assert config["args"].get("klass") == (None if command == "gen" else square)


@pytest.mark.parametrize("command", ["loo", "pac", "agnostic"])
@pytest.mark.parametrize("target", ["-1", "size"])
def test_target_outside_the_class_is_a_one_line_error(command, target, square, capsys):
    size = len(load_class(square))
    target = str(size) if target == "size" else target
    code, out, err = run(capsys, command, "--class", square, "--target", target)
    assert code == EXIT_ERROR and out == ""
    assert err == f"dslab {command}: target {target} out of range [0, {size - 1}]\n"


@pytest.mark.parametrize("delta", ["0", "1", "1.5", "-0.1"])
def test_pac_delta_outside_the_open_unit_interval_is_a_one_line_error(delta, square, capsys):
    code, out, err = run(capsys, "pac", "--class", square, "--delta", delta,
                         "--m", "8", "--trials", "2")
    assert code == EXIT_ERROR and out == ""
    assert err == f"dslab pac: delta must lie in (0, 1), got {float(delta)}\n"


@pytest.mark.parametrize("delta", ["0", "1", "5", "-1"])
def test_agnostic_delta_outside_the_open_unit_interval_is_a_one_line_error(delta, square, capsys):
    code, out, err = run(capsys, "agnostic", "--class", square, "--delta", delta)
    assert code == EXIT_ERROR and out == ""
    assert err == f"dslab agnostic: delta must lie in (0, 1), got {float(delta)}\n"


@pytest.mark.parametrize("text", ["5", '{"k":2,"n":2,"hyps":[1,2]}', '{"k":2,"n":2,"hyps":null}',
                                  '{"k":null,"n":2,"hyps":[[1,1]]}',
                                  '{"k":2,"n":[2],"hyps":[[1,1]]}',
                                  '{"k":"2","n":2,"hyps":[[1,1]]}',
                                  '{"k":2,"n":2,"hyps":[[1,2.7]]}',
                                  '{"k":2,"n":2,"hyps":[[true,1]]}'])
@pytest.mark.parametrize("command", ["dims", "audit"])
def test_malformed_class_file_is_a_one_line_error(command, text, tmp_path, capsys):
    # audit reads a directory of classes, dims a single file
    (tmp_path / "bad.json").write_text(text)
    target = tmp_path if command == "audit" else tmp_path / "bad.json"
    code, out, err = run(capsys, command, "--class", str(target), "--ell", "1")
    assert code == EXIT_ERROR and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"dslab {command}: class JSON ")


@pytest.mark.parametrize("command,unread", [
    ("mu", ["--jobs", "2"]),
    ("density", ["--budget-matrix", "5"]),
    ("dims", ["--format", "csv"]),
    ("gen", ["--ell", "2"]),
    ("orient", ["--seed", "1"]),
])
def test_unread_flag_is_a_usage_error(command, unread, square, capsys):
    base = ["--cube", "k=3,ell=1,s=1,m=2"] if command == "gen" else ["--class", square]
    assert run(capsys, command, *base)[0] == EXIT_OK
    code, out, err = run(capsys, command, *base, *unread)
    assert code == EXIT_ERROR and out == "" and err.startswith("usage: dslab")
    assert err.splitlines()[-1] == f"dslab: error: unrecognized arguments: {' '.join(unread)}"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_audit_of_a_directory_without_classes_exits_one(fmt, tmp_path, capsys):
    d = tmp_path / "empty"
    d.mkdir()
    (d / "notes.txt").write_text("not a class")
    out_file = tmp_path / "audits.csv"
    code, out, err = run(capsys, "audit", "--class", str(d), "--ell", "1",
                         "--format", fmt, "-o", str(out_file))
    assert code == EXIT_ERROR and out == ""
    assert err == f"dslab audit: no *.json classes in {d}\n"
    assert not out_file.exists()


@pytest.mark.parametrize("noise", ["inf", "-inf", "nan", "1.5"])
def test_agnostic_noise_outside_the_unit_interval_is_a_one_line_error(noise, square, capsys):
    code, out, err = run(capsys, "agnostic", "--class", square, f"--noise={noise}")
    assert code == EXIT_ERROR and out == ""
    assert err == f"dslab agnostic: noise must lie in [0, 1], got {float(noise)}\n"


@pytest.mark.parametrize("flag, text, message", [
    ("--cube", "k=3", "--cube needs k, ell, s, m; missing ell, s, m"),
    ("--cube", "k=3,ell=1,m=2", "--cube needs k, ell, s, m; missing s"),
    ("--random", "k=3,n=2", "--random needs k, n, size; missing size"),
    ("--cube", "k=3,ell=one,s=1,m=2", "--cube: k, ell, s, m must be integers, got 'k=3,ell=one,s=1,m=2'"),
    ("--random", "k=3,n,size=4", "--random: k, n, size must be integers, got 'k=3,n,size=4'"),
])
def test_gen_names_the_flag_and_its_missing_keys(flag, text, message, capsys):
    code, out, err = run(capsys, "gen", flag, text)
    assert code == EXIT_ERROR and out == ""
    assert err == f"dslab gen: {message}\n"


def test_loo_negative_sample_size_is_a_one_line_error(square, capsys):
    code, out, err = run(capsys, "loo", "--class", square, "--m", "-1")
    assert code == EXIT_ERROR and out == ""
    assert err == "dslab loo: sample size must be >= 0, got -1\n"
    code, out, err = run(capsys, "loo", "--class", square, "--m", "0")
    assert code == EXIT_ERROR and err == "dslab loo: sample must be non-empty\n"


def test_invalid_seed_env_is_a_one_line_error(square, capsys, monkeypatch):
    monkeypatch.setenv("DSLAB_SEED", "abc")
    code, out, err = run(capsys, "loo", "--class", square, "--m", "10")
    assert code == EXIT_ERROR and out == ""
    assert err == "dslab loo: DSLAB_SEED must be an integer, got 'abc'\n"
    # a seed given on the command line never reads the variable
    assert run(capsys, "loo", "--class", square, "--m", "10", "--seed", "3")[0] == EXIT_OK


def test_gen_size_limit_exits_one_without_budget_hint(capsys):
    code, out, err = run(capsys, "gen", "--cube", "k=10,ell=1,s=7,m=7")
    assert code == EXIT_ERROR and out == ""
    assert "exceeds budget" in err and "--budget-matrix" not in err


@pytest.mark.parametrize("command, flag, text", [("audit", "--ell", "1,,2"), ("audit", "--ell", "x"),
                                                  ("pac", "--m", "x")])
def test_a_bad_integer_in_a_comma_list_names_the_flag(command, flag, text, square, capsys):
    code, out, err = run(capsys, command, "--class", square, flag, text)
    assert code == EXIT_ERROR and out == ""
    assert err == f"dslab {command}: {flag} takes an integer or a comma list of them, got {text!r}\n"


def test_wide_one_row_class_answers_or_refuses_at_once(tmp_path, capsys, monkeypatch):
    # 40 coordinates.  With one row none is heavy (more than ell labels), so
    # every search walks nothing and answers.  With two rows all 40 are:
    # both dimension searches start at s* = 1, and mu's walk of all
    # 2**40 - 1 coordinate sets is refused before it restricts anything; a
    # walk of the sets of size <= 3 (10 700) still runs.  Past 20 000
    # restrictions the walk fails fast instead of hanging.
    one, two = tmp_path / "forty.json", tmp_path / "forty-two-rows.json"
    one.write_text(json.dumps({"k": 3, "n": 40, "hyps": [[1] * 40]}))
    two.write_text(json.dumps({"k": 2, "n": 40, "hyps": [[1] * 40, [2] * 40]}))
    calls, honest = [0], hclass.restrict

    def bounded(*args):
        calls[0] += 1
        if calls[0] > 20_000:
            raise RuntimeError("the walk ran past 20 000 restrictions")
        return honest(*args)

    monkeypatch.setattr(hclass, "restrict", bounded)
    code, out, _err = run(capsys, "dims", "--class", str(one), "--ell", "1")
    assert code == EXIT_OK and (json.loads(out)["d_ds"], json.loads(out)["d_nat"]) == (0, 0)
    code, out, _err = run(capsys, "mu", "--class", str(one), "--ell", "1")
    assert code == EXIT_OK and json.loads(out)["mu"] == "0/1"
    code, out, _err = run(capsys, "audit", "--class", str(one), "--ell", "1")
    assert code == EXIT_OK and calls[0] == 0
    code, out, _err = run(capsys, "dims", "--class", str(two), "--ell", "1")
    assert code == EXIT_OK and (json.loads(out)["d_ds"], json.loads(out)["d_nat"]) == (1, 1)
    calls[0] = 0
    for command in ("audit", "mu"):
        code, out, err = run(capsys, command, "--class", str(two), "--ell", "1")
        assert code == EXIT_ERROR and out == "" and calls[0] == 0
        assert err == (f"dslab {command}: walk of {2 ** 40 - 1} coordinate tuples exceeds "
                       f"limit {2 ** 20}\n")
    code, out, _err = run(capsys, "mu", "--class", str(two), "--ell", "1", "--n", "3")
    assert code == EXIT_OK and json.loads(out)["mu"] == "1/2" and calls[0] == 10_700
    calls[0] = 0
    assert run(capsys, "audit", "--class", str(two), "--ell", "1", "--n", "3")[0] == EXIT_OK


def test_config_embeds_resolved_seed(square, capsys, monkeypatch):
    monkeypatch.setenv("DSLAB_SEED", "99")
    _code, out, _err = run(capsys, "loo", "--class", square, "--m", "10")
    assert json.loads(out)["config"]["args"]["seed"] == 99


def test_loo_command(square, capsys):
    code, out, _err = run(capsys, "loo", "--class", square, "--ell", "1",
                          "--m", "10", "--seed", "3")
    doc = json.loads(out)
    assert code == EXIT_OK and doc["bound_holds"] is True


def test_pac_command_csv(tmp_path, capsys):
    p = tmp_path / "c.json"
    save_class(gen_cube(3, 1, 2, 4), p)
    code, out, _err = run(capsys, "pac", "--class", str(p), "--ell", "1",
                          "--m", "32,64", "--trials", "5", "--seed", "1",
                          "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "m,quantile_err,bound,verdict"
    assert len(lines) == 3


def test_agnostic_command(tmp_path, capsys):
    p = tmp_path / "c.json"
    save_class(gen_cube(3, 1, 1, 3), p)
    code, out, _err = run(capsys, "agnostic", "--class", str(p), "--ell", "1",
                          "--n1", "16", "--rounds", "16", "--n3", "24",
                          "--noise", "0.1", "--seed", "2")
    assert code == EXIT_OK
    assert "excess_err" in json.loads(out)["report"]["results"]


def test_usage_errors_exit_one(capsys, tmp_path, square):
    assert run(capsys, "definitely-not-a-command")[0] == EXIT_ERROR
    assert run(capsys, "mu", "--class", str(tmp_path / "missing.json"))[0] == EXIT_ERROR
    assert run(capsys, "gen")[0] == EXIT_ERROR
    # the exact density search has no row budget, so the flag is gone
    assert run(capsys, "mu", "--class", square)[0] == EXIT_OK
    assert run(capsys, "mu", "--class", square, "--budget-subsets", "8")[0] == EXIT_ERROR


def test_budget_error_exits_one_with_hint(tmp_path, capsys):
    from dslab.hclass import gen_random
    p = tmp_path / "big.json"
    save_class(gen_random(2, 5, 30, seed=0), p)
    code, _out, err = run(capsys, "span", "--class", str(p), "--ell", "1",
                          "--budget-matrix", "10")
    assert code == EXIT_ERROR and "budget" in err.lower()
    assert "hint: raise --budget-matrix" in err


def test_verdict_fail_exit_code_mapping():
    # the honest path cannot produce FAIL (that would falsify the audited
    # bound), so check the mapping on a synthetic failed report
    from dslab.algebra import AuditReport
    rep = AuditReport(class_id="x", ell=1, n=1, n_samples=1, mu_value=Fraction(0),
                      ceil_mu=0, d_ds=0, d_nat=0, t_star=0,
                      spanning_ok=None, spanning_rank=None, class_size=1,
                      modulus=3, authoritative=True,
                      verdicts={"d_nat_le_d_ds": False})
    assert rep.verdict == "FAIL"
    assert rep.to_dict()["mu"] == "0/1" and rep.csv_row()[2:5] == [0, 1, 0]
    assert (EXIT_VERDICT_FAIL if not rep.passed else EXIT_OK) == EXIT_VERDICT_FAIL
