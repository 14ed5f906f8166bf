import hashlib
import math
import random
import re
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from helpers import (per_point_best_hypothesis, per_point_boost_member,
                     per_point_decomposition, per_point_inside_menu, per_point_list_error,
                     per_point_mw_menu, per_point_predictor_loss, random_class)
from dslab import agnostic, cli
from dslab.errors import BudgetError, CertificateError
from dslab.hclass import HypothesisClass, gen_cube, gen_random, save_class
from dslab.learn import (ListPrediction, PredictionTable, PrefixVotePredictor,
                         SyntheticDistribution, _consolidate, oig_list_predict)
from dslab.agnostic import (_boost_member, _fit_inside_menu, agnostic_pipeline,
                            build_list_cover, inside_menu_erm, mw_menu)


def draw(D, seed, m):
    return D.draw(np.random.default_rng(seed), m)


def test_cover_singleton_class():
    H = HypothesisClass(k=3, n=3, hyps=((1, 2, 3),))
    D = SyntheticDistribution.uniform_realizable(H, 0)
    S1 = draw(D, 0, 12)
    cover = build_list_cover(H, S1, d=2, j=2, rng=np.random.default_rng(1))
    assert len(cover) == 1 and cover.uncovered == ()
    member = cover.members[0]
    assert all(y in member.predict(x) for x, y in S1)


def test_cover_from_empty_sample_is_vacuous():
    # nothing to cover: members carry no subsamples and predict nothing
    H = gen_cube(3, 1, 1, 2)
    cover = build_list_cover(H, [], d=2, j=2, rng=np.random.default_rng(0))
    assert cover.uncovered == ()
    for member in cover.members:
        assert member.subsamples == ()
        assert member.predict(1) == frozenset()


def test_cover_empty_consistent_sets_are_vacuous():
    # labels drawn from one hypothesis leave the others partly uncovered,
    # but every h-consistent subsample must be covered by h's member
    H = gen_cube(3, 1, 1, 3)
    D = SyntheticDistribution.with_label_noise(H, target=0, noise=Fraction(1, 3))
    S1 = draw(D, 5, 24)
    cover = build_list_cover(H, S1, d=4, j=5, rng=np.random.default_rng(2))
    assert cover.uncovered == ()
    for h_idx, h in enumerate(H.hyps):
        member = cover.members[cover.member_of[h_idx]]
        for x, y in S1:
            if h[x - 1] == y:
                assert y in member.predict(x)


def test_cover_respects_member_list_bound():
    H = gen_cube(3, 1, 1, 3)
    D = SyntheticDistribution.uniform_realizable(H, 1)
    S1 = draw(D, 7, 30)
    j, ell = math.ceil(math.log2(30)), 1
    cover = build_list_cover(H, S1, d=4, j=j, ell=ell, rng=np.random.default_rng(3))
    assert cover.uncovered == ()
    for member in cover.members:
        assert len(member.subsamples) <= j
        for x in range(1, H.n + 1):
            assert len(member.predict(x)) <= max(1, len(member.subsamples) * ell)


def test_cover_consolidates_each_boosting_attempt_once(monkeypatch):
    # every attempt consolidates its subsample and fills one label table;
    # a member keeps the states of its chosen subsamples, so building it
    # consolidates nothing again.  Coordinates 2 and 3 are constant, so at
    # ell = 1 they count as live however often a subsample repeats them
    calls = {"_consolidate": 0, "_label_table": 0}
    for name in calls:
        def counted(*args, _f=getattr(agnostic, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(agnostic, name, counted)
    H = gen_cube(3, 1, 1, 3)
    D = SyntheticDistribution.with_label_noise(H, target=0, noise=Fraction(1, 3))
    cover = build_list_cover(H, draw(D, 5, 24), d=4, j=5, rng=np.random.default_rng(2))
    assert sum(len(m.subsamples) for m in cover.members) > 0
    assert calls["_consolidate"] == calls["_label_table"] > 0
    monkeypatch.undo()
    repeated_light = 0
    for member in cover.members:
        assert member._states == tuple(member.table.state(*_consolidate(sub, H))
                                       for sub in member.subsamples)
        for sub, state in zip(member.subsamples, member._states):
            seen = [c for c, _y in sub]
            assert state == tuple((c, y, seen.count(c) == 1 or c > 1) for c, y in sorted(set(sub)))
            repeated_light += any(seen.count(c) > 1 for c in (2, 3))
    assert repeated_light > 0


def test_mw_menu_weight_dynamics():
    H = gen_cube(2, 1, 2, 2)
    D = SyntheticDistribution.uniform_realizable(H, 0)
    S1, S2 = draw(D, 1, 16), draw(D, 2, 12)
    cover = build_list_cover(H, S1, d=3, j=3, rng=np.random.default_rng(4))
    menu = mw_menu(cover, S2, rng=np.random.default_rng(5))

    T = len(S2)
    assert len(menu.trace) == T and len(menu.weight_history) == T + 1
    for t in range(T):
        w_t, w_next = menu.weight_history[t], menu.weight_history[t + 1]
        for m in range(len(cover)):
            r = menu.rewards[t][m]
            assert r in (0, 1)
            assert w_next[m] == w_t[m] * math.exp(r / 2)  # exact float replay
            assert w_next[m] >= w_t[m]
            assert w_t[m] > 0
        total = sum(w_t)
        probs = [w / total for w in w_t]
        assert abs(sum(probs) - 1) < 1e-12 and all(p > 0 for p in probs)


def test_mw_reward_requires_novel_coverage():
    # reward is 1 only when the label is inside the member but not yet in the union
    H = gen_cube(3, 1, 1, 2)
    D = SyntheticDistribution.uniform_realizable(H, 2)
    S1, S2 = draw(D, 3, 16), draw(D, 4, 10)
    cover = build_list_cover(H, S1, d=3, j=3, rng=np.random.default_rng(6))
    menu = mw_menu(cover, S2, rng=np.random.default_rng(7))
    selected = []
    for t, ((x, y), r_vec) in enumerate(zip(S2, menu.rewards)):
        union = set()
        for m in selected:
            union.update(cover.members[m].predict(x))
        for m in range(len(cover)):
            want = 1 if (y in cover.members[m].predict(x) and y not in union) else 0
            assert r_vec[m] == want
        selected.append(menu.trace[t][1])


def test_menu_union_and_size_bound():
    H = gen_cube(3, 1, 1, 3)
    D = SyntheticDistribution.uniform_realizable(H, 0)
    S1, S2 = draw(D, 8, 20), draw(D, 9, 6)
    ell = 1
    cover = build_list_cover(H, S1, d=4, j=4, ell=ell, rng=np.random.default_rng(8))
    menu = mw_menu(cover, S2, rng=np.random.default_rng(9))
    for x in range(1, H.n + 1):
        union = set()
        for _t, m in menu.trace[:-1]:
            union.update(cover.members[m].predict(x))
        assert menu.predict(x) == union
        assert len(menu.predict(x)) <= sum(max(1, len(cover.members[m].subsamples) * ell)
                                           for _t, m in menu.trace[:-1])


def test_single_member_menu():
    H = HypothesisClass(k=2, n=2, hyps=((1, 2),))
    D = SyntheticDistribution.uniform_realizable(H, 0)
    S1, S2 = draw(D, 10, 8), draw(D, 11, 4)
    cover = build_list_cover(H, S1, d=2, j=1, rng=np.random.default_rng(10))
    assert len(cover) == 1
    menu = mw_menu(cover, S2, rng=np.random.default_rng(11))
    assert menu.predict(1) == cover.members[0].predict(1)


def test_inside_menu_erm_optimality():
    H = gen_cube(3, 1, 1, 2)
    D = SyntheticDistribution.with_label_noise(H, target=0, noise=Fraction(1, 5))
    S1, S2, S3 = draw(D, 12, 20), draw(D, 13, 20), draw(D, 14, 40)
    cover = build_list_cover(H, S1, d=4, j=5, rng=np.random.default_rng(12))
    menu = mw_menu(cover, S2, rng=np.random.default_rng(13))
    res = inside_menu_erm(H, menu, S3, ell=1)
    assert not res.flagged
    assert res.predictor_loss <= res.erm_loss
    for x in range(1, H.n + 1):
        assert set(res.predict(x).labels) <= menu.predict(x)
        assert len(res.predict(x)) <= 1


def test_inside_menu_loss_reduces_to_plain_loss_when_menu_full():
    # when the menu contains every label everywhere, the inside-menu ERM
    # loss of a hypothesis equals its ordinary empirical error
    H = gen_cube(2, 1, 1, 2)
    D = SyntheticDistribution.with_label_noise(H, target=0, noise=Fraction(1, 2))
    S1, S2, S3 = draw(D, 15, 30), draw(D, 16, 30), draw(D, 17, 30)
    cover = build_list_cover(H, S1, d=3, j=6, rng=np.random.default_rng(14))
    menu = mw_menu(cover, S2, rng=np.random.default_rng(15))
    if all(menu.predict(x) == set(range(1, H.k + 1)) for x in range(1, H.n + 1)):
        res = inside_menu_erm(H, menu, S3, ell=1)
        h = H.hyps[res.erm_index]
        plain = Fraction(sum(1 for x, y in S3 if h[x - 1] != y), len(S3))
        assert res.erm_loss == plain


def test_inside_menu_erm_empty_s_plus_flagged():
    H = HypothesisClass(k=2, n=1, hyps=((1,),))
    D = SyntheticDistribution.uniform_realizable(H, 0)
    S1, S2 = draw(D, 18, 8), draw(D, 19, 4)
    cover = build_list_cover(H, S1, d=2, j=1, rng=np.random.default_rng(16))
    menu = mw_menu(cover, S2, rng=np.random.default_rng(17))
    # all S3 labels sit outside the menu -> S+ is empty
    res = inside_menu_erm(H, menu, [(1, 2)] * 4, ell=1)
    assert res.flagged and res.n_plus == 0
    assert res.predict(1).labels == ()


def test_pipeline_realizable_sanity():
    H = gen_cube(3, 1, 1, 3)
    D = SyntheticDistribution.uniform_realizable(H, 1)
    rep = agnostic_pipeline(H, D, ell=1, n1=24, T=24, n3=48, delta=0.1, seed=21)
    assert rep.results["excess_err"] == 0.0
    assert rep.results["err"] == 0.0


def test_pipeline_singleton_noisy_zero_excess():
    H = HypothesisClass(k=3, n=2, hyps=((1, 2),))
    D = SyntheticDistribution.with_label_noise(H, target=0, noise=Fraction(1, 4))
    rep = agnostic_pipeline(H, D, ell=1, n1=16, T=16, n3=32, delta=0.1, seed=22)
    assert rep.results["excess_err"] == 0.0


def test_pipeline_reports_and_decomposition():
    H = gen_cube(3, 1, 2, 3)
    D = SyntheticDistribution.with_label_noise(H, target=3, noise=Fraction(1, 10))
    rep = agnostic_pipeline(H, D, ell=1, n1=40, T=40, n3=80, delta=0.1, seed=23)
    res = rep.results
    assert res["cover_size"] >= 1
    assert rep.params["d_subsample"] == 4 * 2
    assert rep.params["j_unions"] == math.ceil(math.log2(40))
    d = res["decomposition"]
    assert d["best_label_outside_menu"] <= d["best_label_outside_cover_member"] + d["cover_member_outside_menu"] + 1e-12
    assert len(res["menu_list_sizes"]) == H.n


def test_pipeline_deterministic():
    H = gen_cube(3, 1, 1, 3)
    D = SyntheticDistribution.with_label_noise(H, target=0, noise=Fraction(1, 5))
    a = agnostic_pipeline(H, D, ell=1, n1=20, T=20, n3=30, delta=0.1, seed=5)
    b = agnostic_pipeline(H, D, ell=1, n1=20, T=20, n3=30, delta=0.1, seed=5)
    assert a.to_json() == b.to_json()


def test_zero_rewards_leave_weights_constant():
    # labels the members never predict: every reward is 0, weights stay put
    H = HypothesisClass(k=2, n=2, hyps=((1, 1),))
    D = SyntheticDistribution.uniform_realizable(H, 0)
    cover = build_list_cover(H, draw(D, 30, 8), d=2, j=1,
                             rng=np.random.default_rng(30))
    S2 = [(1, 2), (2, 2), (1, 2)]
    menu = mw_menu(cover, S2, rng=np.random.default_rng(31))
    assert all(r == (0,) for r in menu.rewards)
    assert all(w == (1.0,) for w in menu.weight_history)


def test_pipeline_median_excess_error_at_scale():
    # recorded Monte-Carlo target: 50 seeded runs on the 9-hypothesis product
    # class with 10% label noise keep the median excess error at most 0.1
    H = gen_cube(3, 1, 2, 4)
    D = SyntheticDistribution.with_label_noise(H, target=0, noise=Fraction(1, 10))
    excesses = []
    for seed in range(50):
        rep = agnostic_pipeline(H, D, ell=1, n1=200, T=200, n3=800,
                                delta=0.1, seed=seed)
        excesses.append(rep.results["excess_err"])
    excesses.sort()
    median = excesses[len(excesses) // 2]
    assert median <= 0.1


# sha256 of agnostic_pipeline(...).to_json() at the at-scale config, computed
# before the cover and menu predictions were memoized
AT_SCALE_DIGESTS = {
    0: "ccf935fb59f86fb273943677c1ad19ce5a87b82c338637e090c4570a70305a45",
    1: "23fffe6573afd7ccced0d6faf36d5003f20a26ab0fc5d50afce21a1bebe2f09a",
    2: "22de068e3a6812c48c8d6a64407bfd2874b813fa423fb04e091e6a31d9b7c3f8",
    3: "1658029b42ced947430aec7a855eb4f06b54960ba8321486a3fd53d9064e8a23",
    4: "5faf202a7c5c2d0979c8a008a6c2301f8d78acc5608a14cff85a972c967f3cca",
}


def test_pipeline_reports_pinned_at_scale():
    H = gen_cube(3, 1, 2, 4)
    D = SyntheticDistribution.with_label_noise(H, target=0, noise=Fraction(1, 10))
    for seed, digest in AT_SCALE_DIGESTS.items():
        rep = agnostic_pipeline(H, D, ell=1, n1=200, T=200, n3=800,
                                delta=0.1, seed=seed)
        assert hashlib.sha256(rep.to_json().encode()).hexdigest() == digest


def test_memoized_predictions_match_definitions():
    # members answer from the cover's one (state, x) memo, and the menu
    # through them; each must equal the union it stands for, recomputed here
    # without any memo
    rng = np.random.default_rng(40)
    for trial in range(25):
        H = random_class(rng, size_max=8)
        D = SyntheticDistribution.with_label_noise(H, target=0, noise=Fraction(1, 4))
        ell = 1 + trial % 2
        cover = build_list_cover(H, draw(D, trial, 12), d=2, j=4, ell=ell,
                                 rng=np.random.default_rng(trial))
        menu = mw_menu(cover, draw(D, 100 + trial, 6), rng=np.random.default_rng(trial))
        for x in range(1, H.n + 1):
            for member in cover.members:
                want = set()
                for sub in member.subsamples:
                    want.update(oig_list_predict(H, sub, x, ell).labels)
                assert member.predict(x) == want
            want = set()
            for _t, m in menu.trace[:-1]:
                want.update(cover.members[m].predict(x))
            assert menu.predict(x) == want


def _pipeline_case(case):
    """(H, D, ell, (n1, T, n3)).  Case 0 is a product class whose menu holds
    the best labels; cases 1 and 2 are random classes with menus of two
    rounds, where the decomposition terms are non-zero; case 3 puts every
    weight over a prime denominator past 2**63."""
    if case == 0:
        H = gen_cube(3, 1, 2, 3)
        return H, SyntheticDistribution.with_label_noise(H, 3, Fraction(1, 10)), 1, (30, 30, 40)
    if case in (1, 2):
        H = gen_random(4, 4, 6, seed=853233194) if case == 1 else gen_random(3, 3, 4, seed=1915754261)
        D = SyntheticDistribution.with_label_noise(H, 5 if case == 1 else 0, Fraction(1, 3))
        return H, D, 3 - case, (4, 3, 12)
    H = gen_cube(3, 1, 1, 3)
    P = 2**89 - 1
    support = tuple((x, y) for x in range(1, H.n + 1) for y in range(1, H.k + 1))
    r = random.Random(50)
    weights = [Fraction(r.randrange(1, P // 16), P) for _ in support[1:]]
    return H, SyntheticDistribution(support, tuple(weights) + (1 - sum(weights),)), 1, (4, 3, 12)


@pytest.mark.parametrize("case", range(4))
def test_pipeline_evaluation_matches_per_point_oracles(case, monkeypatch):
    # err, best_err, the decomposition terms and the menu sizes, recomputed
    # point by point from the stages the pipeline built
    H, D, ell, (n1, T, n3) = _pipeline_case(case)
    stages = {}
    for name in ("build_list_cover", "mw_menu", "inside_menu_erm"):
        def kept(*args, _f=getattr(agnostic, name), _name=name, **kwargs):
            stages[_name] = _f(*args, **kwargs)
            return stages[_name]
        monkeypatch.setattr(agnostic, name, kept)
    res = agnostic_pipeline(H, D, ell=ell, n1=n1, T=T, n3=n3, delta=0.1, seed=case).results
    cover, menu = stages["build_list_cover"], stages["mw_menu"]
    err = per_point_list_error(D, stages["inside_menu_erm"].predict)
    best_idx, best_err = per_point_best_hypothesis(D, H)
    assert (res["err"], res["best_err"], res["excess_err"]) == (
        float(err), float(best_err), float(err - best_err))
    assert res["menu_list_sizes"] == sorted(len(menu.predict(x)) for x in {x for x, _ in D.support})
    member = cover.member_of.get(best_idx)
    assert member is not None
    terms = per_point_decomposition(D, H.hyps[best_idx], menu.predict,
                                    cover.members[member].predict)
    assert res["decomposition"] == dict(zip(
        ("best_label_outside_menu", "best_label_outside_cover_member",
         "cover_member_outside_menu"), map(float, terms)))
    assert (sum(t > 0 for t in terms) >= 2) == (case > 0)


def test_pipeline_rejects_a_support_outside_the_class_domain():
    H = gen_cube(3, 1, 1, 2)
    D = SyntheticDistribution(support=((0, 1), (1, 1)), weights=(Fraction(1, 2),) * 2)
    with pytest.raises(ValueError, match="sample points must lie in"):
        agnostic_pipeline(H, D, ell=1, n1=8, T=8, n3=8, delta=0.1, seed=0)


# -- the table-driven stages against per-point oracles --------------------------


@st.composite
def class_and_samples(draw, n_samples=3):
    """A class with k <= 4 labels on n <= 4 coordinates, ell 1-2, and
    ``n_samples`` samples of 4-24 (x, y) pairs, mostly labeled by one
    hypothesis; with at most 16 distinct pairs, samples repeat points."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(1, 4))
    row = st.tuples(*[st.integers(1, k)] * n)
    hyps = draw(st.lists(row, min_size=1, max_size=6, unique=True))
    H = HypothesisClass(k=k, n=n, hyps=tuple(sorted(hyps)))
    target = draw(st.sampled_from(H.hyps))
    point = st.tuples(st.integers(1, n), st.integers(0, k))  # label 0: the target's
    samples = [[(x, y or target[x - 1])
                for x, y in draw(st.lists(point, min_size=4, max_size=24))]
               for _ in range(n_samples)]
    return H, draw(st.integers(1, 2)), samples


def cover_and_menu(H, ell, S1, S2, seed, menu_rng=None):
    try:
        cover = build_list_cover(H, S1, d=3, j=3, ell=ell, rng=np.random.default_rng(seed))
    except BudgetError:
        assume(False)
    return cover, mw_menu(cover, S2, rng=menu_rng or np.random.default_rng(seed + 1))


@given(class_and_samples(n_samples=1), st.integers(0, 2**16), st.integers(1, 4),
       st.integers(1, 4), st.sampled_from([1, 2, agnostic.BOOST_BUDGET]))
def test_boost_member_matches_per_point_oracle(data, seed, d, j, budget):
    # small budgets make rounds fail, so the None path is checked too
    H, ell, (sample,) = data
    for h in H.hyps:
        points = [(x, y) for x, y in sample if h[x - 1] == y]
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        with mock.patch.object(agnostic, "BOOST_BUDGET", budget):
            member = _boost_member(PredictionTable(H, ell), points, d, j, rng)
            want = per_point_boost_member(H, points, d, j, ell, oracle_rng)
        assert (None if member is None else member.subsamples) == want
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


class _ScriptedTable(PredictionTable):
    """The subsample's one coordinate c covers c and c+1 (mod 3)."""

    def predict(self, state, x):
        (c, _y, _once), = state
        return ListPrediction((1,) if x in (c, c % 3 + 1) else ())


def test_boost_member_stops_once_its_rounds_cover_every_point():
    # with the scripted table, round 1 covers two points and misses weight
    # 1 <= 3/3, and round 2 must cover the third point (a miss of 1 > 2/3 is
    # refused).  No round covers all three, but rounds 1 and 2 together do.
    H = HypothesisClass(k=2, n=3, hyps=((1, 1, 1),))
    table = _ScriptedTable(H, 1)
    points = [(1, 1), (2, 1), (3, 1)]
    for seed in range(5):
        member = _boost_member(table, points, 1, 4, np.random.default_rng(seed))
        assert len(member.subsamples) == 2
        assert len({sub[0][0] for sub in member.subsamples}) == 2


def test_no_weak_subsample_leaves_every_hypothesis_uncovered(tmp_path, capsys, monkeypatch):
    # with no tries per round no round finds a weak subsample, so no member
    # is built; every hypothesis labels x = 1 as 1, so each has points to
    # cover, and the cover and the command refuse with one line
    H = HypothesisClass(k=2, n=2, hyps=((1, 1), (1, 2)))
    monkeypatch.setattr(agnostic, "BOOST_BUDGET", 0)
    table = PredictionTable(H, 1)
    assert _boost_member(table, [(1, 1)], 2, 3, np.random.default_rng(0)) is None
    with pytest.raises(BudgetError, match="no cover member could be built within budget"):
        build_list_cover(H, [(1, 1), (2, 1), (2, 2)], d=2, j=3, rng=np.random.default_rng(0))
    path = tmp_path / "c.json"
    save_class(H, path)
    code = cli.main(["agnostic", "--class", str(path), "--n1", "8", "--rounds", "4", "--n3", "8"])
    out = capsys.readouterr()
    assert code == cli.EXIT_ERROR and out.out == ""
    assert out.err == "dslab agnostic: no cover member could be built within budget\n"


def test_both_kinds_of_failed_member_leave_their_hypothesis_uncovered(monkeypatch):
    # one round (j = 1) of one-point subsamples: h_0's round finds no weak
    # subsample, and the members of h_2 and h_4 are built but miss a point
    # of their own, since a round may miss up to a third of the weight
    H = gen_random(3, 3, 6, seed=1)
    D = SyntheticDistribution.with_label_noise(H, 0, Fraction(1, 3))
    S1 = draw(D, 1, 12)
    built = []

    def recorded(*args, _boost=agnostic._boost_member):
        built.append(_boost(*args))
        return built[-1]

    monkeypatch.setattr(agnostic, "_boost_member", recorded)
    cover = build_list_cover(H, S1, d=1, j=1, rng=np.random.default_rng(2))
    assert cover.uncovered == (0, 2, 4) and sorted(cover.member_of) == [1, 3, 5]
    assert [h_idx for h_idx, member in enumerate(built) if member is None] == [0]
    for h_idx, h in enumerate(H.hyps[1:], start=1):
        misses = [(x, y) for x, y in S1 if h[x - 1] == y and y not in built[h_idx].predict(x)]
        assert bool(misses) == (h_idx in cover.uncovered)


def test_a_kept_point_the_base_predictor_misses_gets_its_own_label_first():
    # a seeded case: the prefix-vote list at some S+ points, cut to the
    # menu, misses the point's own label, and the predictor answers it
    H = gen_random(3, 3, 8, seed=60)
    D = SyntheticDistribution.with_label_noise(H, 0, Fraction(1, 2))
    S1, S2, S3 = (D.draw(np.random.default_rng([60, i]), 12) for i in range(3))
    cover = build_list_cover(H, S1, d=3, j=3, rng=np.random.default_rng(60))
    menu = mw_menu(cover, S2, rng=np.random.default_rng(61))
    fit = _fit_inside_menu(H, menu, S3)
    sub = HypothesisClass(k=H.k, n=H.n,
                          hyps=tuple(h for h, keep in zip(H.hyps, fit.consistent) if keep))
    base = PrefixVotePredictor(sub, fit.s_plus, 1)
    missed = {(x, y) for x, y in fit.s_plus
              if y not in [lab for lab in base.predict(x).labels if lab in menu.predict(x)]}
    assert missed
    res = inside_menu_erm(H, menu, S3, 1)
    assert all(res.predict(x).labels == (y,) for x, y in missed)


@given(class_and_samples(n_samples=2), st.integers(0, 2**16))
def test_mw_menu_matches_per_point_oracle(data, seed):
    H, ell, (S1, S2) = data
    rng, oracle_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    cover, menu = cover_and_menu(H, ell, S1, S2, seed, menu_rng=rng)
    want = per_point_mw_menu(cover, S2, oracle_rng)
    assert (menu.trace, menu.rewards, menu.weight_history) == want
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert all(type(r) is int for rs in menu.rewards for r in rs)


@given(class_and_samples(n_samples=3), st.integers(0, 2**16))
def test_inside_menu_erm_matches_per_point_oracle(data, seed):
    H, ell, (S1, S2, S3) = data
    _cover, menu = cover_and_menu(H, ell, S1, S2, seed)
    losses, erm, s_plus, consistent = per_point_inside_menu(H, menu, S3)
    fit = _fit_inside_menu(H, menu, S3)
    assert [Fraction(int(b), len(S3)) for b in fit.bad] == losses
    assert fit.erm_index == erm and fit.s_plus == s_plus
    assert np.flatnonzero(fit.consistent).tolist() == consistent
    res = inside_menu_erm(H, menu, S3, ell)
    assert (res.erm_index, res.erm_loss, res.n_plus) == (erm, losses[erm], len(s_plus))
    assert res.predictor_loss == per_point_predictor_loss(res.predict, menu, S3)


def test_mw_menu_rejects_points_outside_the_class_domain():
    H = gen_cube(3, 1, 1, 2)
    cover = build_list_cover(H, [(1, 1), (2, 2)], d=2, j=1, rng=np.random.default_rng(0))
    for bad in ([(3, 1)], [(1, 4)], [(0, 1)]):
        with pytest.raises(ValueError, match="sample points must lie in"):
            mw_menu(cover, bad, rng=np.random.default_rng(0))


def test_mw_menu_nonpositive_weight_raises_certificate_error(monkeypatch):
    # a reward factor of 0 zeroes the rewarded weights; the positivity check
    # is explicit code, so it holds under python -O too
    H = gen_cube(3, 1, 1, 2)
    cover = build_list_cover(H, [(1, 1), (2, 2)], d=2, j=1, rng=np.random.default_rng(0))
    monkeypatch.setattr(agnostic, "math", SimpleNamespace(exp=lambda _x: 0.0))
    with pytest.raises(CertificateError, match="menu weights"):
        mw_menu(cover, [(1, 1), (2, 2), (1, 1)], rng=np.random.default_rng(0))


@pytest.mark.parametrize("lie", ["inside_menu_loss", "decomposition"])
def test_failed_pipeline_certificate_raises_and_exits_two(lie, tmp_path, capsys, monkeypatch):
    # each check is explicit code, so a lie it catches fails the run under
    # python -O too: a predictor loss above the ERM's, or masses that break
    # term_nu <= term1 + term2 (the square has 4 rows, so only the
    # decomposition asks _mass for 3 masses at once)
    H = gen_cube(2, 1, 2, 2)
    if lie == "inside_menu_loss":
        monkeypatch.setattr(agnostic, "_loss_of_predictor", lambda *_args: Fraction(2))
        match = "predictor inside-menu loss 2 exceeds the ERM loss"
    else:
        honest = SyntheticDistribution._mass

        def lying(self, masks):
            got = honest(self, masks)
            return [Fraction(1), Fraction(0), Fraction(0)] if len(got) == 3 else got

        monkeypatch.setattr(SyntheticDistribution, "_mass", lying)
        match = r"decomposition fails: 1 > 0 \+ 0"
    D = SyntheticDistribution.with_label_noise(H, 0, Fraction(1, 10))
    with pytest.raises(CertificateError, match=match):
        agnostic_pipeline(H, D, ell=1, n1=30, T=30, n3=40, delta=0.1, seed=0)
    path = tmp_path / "square.json"
    save_class(H, path)
    code = cli.main(["agnostic", "--class", str(path), "--noise", "0.1"])
    out = capsys.readouterr()
    assert code == cli.EXIT_VERDICT_FAIL == 2
    assert out.out == "" and re.search(f"certificate failed: {match}", out.err)
