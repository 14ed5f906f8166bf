"""Tests of the benchmark itself: run with  python3 -m pytest bench/tests -q"""

import dataclasses
import json
import sys

import pytest

import dslab
import run
import worker
from tracing import Tracer
from workloads import DEFAULT_SEED, WORKLOADS, Checker, load_reference

# A few operations of each workload, on a seed other than the default one.
PREFIX = {"audit_small": 150, "audit_wide": 2, "agnostic": 1}


def traced_counts(name: str, seed: int) -> dict:
    wl = WORKLOADS[name]
    ops = wl.make_pass(seed)
    checker = Checker(wl, seed, len(ops))
    with Tracer() as tracer:
        worker.run_ops(wl, ops[:PREFIX[name]], checker, tracer)
    assert checker.failed == 0, checker.first_failure
    res = {"calls": tracer.counts(), "busy": tracer.busy, "self_time": tracer.self_time,
           "ops": PREFIX[name], "untraced_s": [1.0, 1.0], "traced_s": 1.0}
    metrics, _notes = run.per_layer(res)
    return {k: v for k, (v, unit) in metrics.items()
            if unit in ("count", "ratio") and not k.startswith("trace.")}


@pytest.mark.parametrize("name", sorted(PREFIX))
def test_traced_counters_repeat_exactly(name):
    first = traced_counts(name, seed=3)
    assert first == traced_counts(name, seed=3)
    assert any(first.values())


def test_layers_with_no_work_report_zero():
    counts = traced_counts("agnostic", seed=3)
    assert counts["oig.max_density_subfamily.calls"] == 0
    assert counts["algebra.rank_fallback_ratio"] == 0
    assert counts["agnostic.CoverMember.predict.calls"] > 0


def test_uninstall_restores_every_binding():
    mods = [m for n, m in sys.modules.items() if n == "dslab" or n.startswith("dslab.")]
    before = [dict(vars(m)) for m in mods]
    classes = [dslab.agnostic.CoverMember, dslab.agnostic.Menu,
               dslab.learn.PrefixVotePredictor, dslab.learn.SyntheticDistribution]
    methods = [dict(vars(c)) for c in classes]
    with Tracer():
        assert dslab.audit_theorem is not before[mods.index(dslab)]["audit_theorem"]
    assert [dict(vars(m)) for m in mods] == before
    assert [dict(vars(c)) for c in classes] == methods


def test_checker_counts_mismatches_and_exceptions():
    wl = WORKLOADS["audit_small"]
    ops = wl.make_pass(DEFAULT_SEED)
    checker = Checker(wl, DEFAULT_SEED, len(ops))
    rep = wl.run_op(ops[0])
    checker.record(0, rep, None)
    assert checker.failed == 0
    checker.record(0, dataclasses.replace(rep, d_ds=rep.d_ds + 1), None)
    checker.record(1, None, ValueError("boom"))
    assert (checker.attempted, checker.failed) == (3, 2)
    assert "fingerprint" in checker.first_failure


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_covers_one_default_pass(name):
    wl = WORKLOADS[name]
    assert len(load_reference(wl, DEFAULT_SEED)) == len(wl.make_pass(DEFAULT_SEED))
    off_default = load_reference(wl, DEFAULT_SEED + 1)
    assert (off_default is not None) == wl.same_outputs_every_seed


@pytest.mark.parametrize("name", ["audit_small", "audit_wide"])
def test_audit_seeds_relabel_the_same_classes(name):
    wl = WORKLOADS[name]
    base, other = wl.make_pass(DEFAULT_SEED), wl.make_pass(5)
    assert other == wl.make_pass(5)
    assert [op[0].hyps for op in base] != [op[0].hyps for op in other]
    assert [(len(H), H.k, H.n, ell) for H, ell in base] == \
        [(len(H), H.k, H.n, ell) for H, ell in other]


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    res = {"latencies": [0.1, 0.2, 0.3], "elapsed_s": 0.6, "passes": 1,
           "speed": 1.0, "kernel_runs": 20, "peak_rss_kb": 1024, "failed": 0,
           "attempted": 3}
    metrics, _notes = run.end_to_end(res, [0.5])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(k, unit) for k, (_v, unit) in metrics.items()]


def test_refuses_a_checkout_without_sources(monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", run.BENCH / "no-such-checkout")
    assert run.main(["--workload", "audit_small", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_agnostic_check_rejects_an_inconsistent_report():
    wl = WORKLOADS["agnostic"]
    rep = wl.run_op(wl.make_pass(DEFAULT_SEED)[0])
    assert wl.sane(rep)
    r = rep.results
    worse = dict(r, inside_menu_loss_predictor=r["inside_menu_loss_erm"] + 0.01)
    assert not wl.sane(dataclasses.replace(rep, results=worse))
    assert not wl.sane(dataclasses.replace(rep, results=dict(r, err=1.5)))
