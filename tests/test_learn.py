import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import (graph_prediction, is_flat, per_point_best_hypothesis,
                     per_point_list_error, per_prefix_states, random_class)
import dslab
import dslab.learn as learn
import dslab.oig as oig
from dslab.algebra import audit_theorem
from dslab.errors import CertificateError, RealizabilityError
from dslab.hclass import HypothesisClass, gen_cube, gen_random, off_groups, restrict
from dslab.dims import ds_dimension
from dslab.oig import build_oig, min_max_orientation
from dslab.learn import (ListPrediction, PrefixVotePredictor,
                         SyntheticDistribution, loo_error, oig_list_predict,
                         pac_error_bound, pac_experiment, topk_vote)


def naive_t_star(H, train, x, ell):
    """Min-max outdegree on the literal projection, repeats and all."""
    coords = [c for c, _y in train] + [x]
    W = restrict(H, coords, allow_repeats=True)
    _sigma, t = min_max_orientation(build_oig(W), ell)
    return t


def random_realizable_sample(rng, H, m):
    target = int(rng.integers(0, len(H)))
    h = H.hyps[target]
    xs = rng.integers(1, H.n + 1, size=m)
    return [(int(x), h[int(x) - 1]) for x in xs], target


def test_singleton_class_predicts_its_label():
    H = HypothesisClass(k=3, n=2, hyps=((2, 3),))
    assert oig_list_predict(H, [(1, 2)], 2, 1).labels == (3,)
    assert oig_list_predict(H, [], 1, 1).labels == (2,)


def test_duplicate_column_two_vertex_graph():
    H = HypothesisClass(k=2, n=2, hyps=((1, 1), (2, 2)))
    assert 1 in oig_list_predict(H, [(1, 1)], 2, 1)


def test_small_edge_predicts_all_consistent_labels():
    # the test-direction edge has <= ell members: every consistent label shows up
    H = gen_cube(3, 2, 1, 2)  # [3] x [2]
    pred = oig_list_predict(H, [(2, 2)], 1, 3)
    assert pred.labels == (1, 2, 3)


def test_seen_instance_is_memorized():
    rng = np.random.default_rng(41)
    for _ in range(10):
        H = random_class(rng)
        sample, _t = random_realizable_sample(rng, H, 6)
        x, y = sample[0]
        assert oig_list_predict(H, sample, x, 1).labels == (y,)


def test_prediction_labels_come_from_consistent_hypotheses():
    rng = np.random.default_rng(42)
    for _ in range(15):
        H = random_class(rng)
        sample, _t = random_realizable_sample(rng, H, 5)
        x = int(rng.integers(1, H.n + 1))
        for ell in (1, 2):
            pred = oig_list_predict(H, sample, x, ell)
            assert 1 <= len(pred) <= ell
            consistent = {h[x - 1] for h in H.hyps
                          if all(h[c - 1] == y for c, y in sample)}
            assert set(pred.labels) <= consistent


def test_reduced_graph_t_star_matches_full_projection():
    rng = np.random.default_rng(43)
    for _ in range(10):
        H = random_class(rng, size_max=8)
        sample, _t = random_realizable_sample(rng, H, 5)
        _m, t_red = loo_error(H, sample, 1)
        coords = [c for c, _y in sample]
        W = restrict(H, coords, allow_repeats=True)
        _sigma, t_full = min_max_orientation(build_oig(W), 1)
        assert t_red == t_full


def test_rejects_non_realizable_train():
    H = HypothesisClass(k=2, n=2, hyps=((1, 1), (2, 2)))
    with pytest.raises(RealizabilityError):
        oig_list_predict(H, [(1, 1), (2, 2)], 1, 1)
    with pytest.raises(RealizabilityError):
        oig_list_predict(H, [(1, 1), (1, 2)], 2, 1)


def test_loo_singleton_zero():
    H = HypothesisClass(k=2, n=3, hyps=((1, 2, 1),))
    assert loo_error(H, [(1, 1), (2, 2), (3, 1)], 1) == (0, 0)


def test_loo_square():
    H = gen_cube(2, 1, 2, 2)
    m_n, t_star = loo_error(H, [(1, 1), (2, 2)], 1)
    assert m_n <= t_star == 1


def test_loo_error_above_t_star_raises_certificate_error(monkeypatch):
    monkeypatch.setattr(learn, "outdegrees",
                        lambda G, sigma: [len(G.by_direction) + 1] * G.n_vertices)
    with pytest.raises(CertificateError):
        loo_error(gen_cube(2, 1, 2, 2), [(1, 1), (2, 2)], 1)


def test_loo_bounded_by_ds_dimension():
    rng = np.random.default_rng(44)
    for _ in range(25):
        H = random_class(rng)
        sample, _t = random_realizable_sample(rng, H, int(rng.integers(1, 12)))
        for ell in (1, 2):
            m_n, t_star = loo_error(H, sample, ell)
            assert m_n <= t_star <= ds_dimension(H, ell)[0]


def test_topk_examples():
    assert topk_vote([[1], [1], [2]], 1).labels == (1,)
    assert topk_vote([[1, 2], [1, 3], [2, 3]], 2).labels == (1, 2)
    assert topk_vote([ListPrediction((2, 4))] * 3, 2).labels == (2, 4)


def test_topk_exclusion_bound():
    # an excluded label must be missing from >= ceil(N/(ell+1)) input lists
    rng = np.random.default_rng(45)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        ell = int(rng.integers(1, k))
        n_lists = int(rng.integers(1, 12))
        lists = []
        for _j in range(n_lists):
            size = int(rng.integers(1, ell + 1))
            lists.append(tuple(int(v) + 1 for v in rng.choice(k, size=size, replace=False)))
        out = topk_vote(lists, ell)
        for y in range(1, k + 1):
            if y not in out.labels:
                omitted = sum(1 for lst in lists if y not in lst)
                assert omitted >= math.ceil(n_lists / (ell + 1))


def _table_cases():
    """(H, ell, samples) for prediction tables: seeded random classes at ell
    1-3, then a class with k = 1, one with ell >= k, and one with k > ell
    whose edges all have at most ell members.  Each sample is a realizable
    one, consolidated to (labels, counts); samples repeat coordinates, and
    each sequence of coordinates is labeled by three rows, so states share
    their coordinates and live directions under other labels."""
    rng = np.random.default_rng(48)
    cases = [(random_class(rng, k_max=5, size_max=30), 1 + trial % 3) for trial in range(90)]
    cases += [(HypothesisClass(k=1, n=3, hyps=((1, 1, 1),)), 1),
              (gen_cube(3, 2, 2, 3), 3),
              (HypothesisClass(k=3, n=3, hyps=((1, 1, 1), (1, 2, 1), (2, 1, 1), (3, 3, 3))), 2)]
    for H, ell in cases:
        samples = []
        for _ in range(4):
            xs = rng.integers(1, H.n + 1, size=int(rng.integers(0, 2 * H.n + 1)))
            for h in rng.choice(H.hyps, 3):
                samples.append(learn._consolidate([(int(x), int(h[x - 1])) for x in xs], H))
        yield H, ell, samples


def _raw_state(y_of, counts):
    """A sample's state as the graph oracle reads it: every coordinate seen
    more than once is dead, whatever its number of labels."""
    return tuple((c, y_of[c], counts[c] == 1) for c in sorted(y_of))


def _training_edge(H, state, x):
    """The members of the test-direction edge that ``state``'s labels key."""
    W = restrict(H, tuple(c for c, _y, _live in state) + (x,))
    return dict(off_groups(W, W.n - 1))[tuple(y for _c, y, _live in state)]


def test_a_table_and_every_sibling_a_miss_fills_match_the_graph_oracle():
    # a coordinate with at most ell labels is live however often it was
    # seen, and a miss records the answer of every live test-direction
    # edge's state; each entry must be what the whole graph's orientation
    # gives, with that coordinate's direction dead or not
    filled = read = merged = dead = 0
    for H, ell, samples in _table_cases():
        light = {c for c in range(1, H.n + 1) if len(H.labels_at(c)) <= ell}
        table = learn.PredictionTable(H, ell)
        asked = set()
        for y_of, counts in samples:
            state, raw = table.state(y_of, counts), _raw_state(y_of, counts)
            assert state == tuple((c, y, once or c in light) for c, y, once in raw)
            merged += state != raw
            for x in range(1, H.n + 1):
                before = set(table._known)
                read += (state, x) in before and (state, x) not in asked  # a sibling's flow
                asked.add((state, x))
                assert table.predict(state, x) == graph_prediction(H, raw, x, ell)
                for sibling, x2 in table._known.keys() - before - {(state, x)}:
                    light_dead = tuple((c, y, live and c not in light) for c, y, live in sibling)
                    assert (table._known[sibling, x2] == graph_prediction(H, sibling, x2, ell)
                            == graph_prediction(H, light_dead, x2, ell))
                    filled += 1
                    dead += not all(live for _c, _y, live in sibling)
    assert filled > 120 and dead > 50 and read > 40 and merged > 100


def test_an_unrealizable_state_raises_on_both_paths():
    H = HypothesisClass(k=2, n=3, hyps=((1, 1, 1), (2, 2, 2)))
    state = ((1, 1, True), (2, 2, False))  # no row labels coordinates 1, 2 as 1, 2
    for ell in (1, 2):
        table = learn.PredictionTable(H, ell)
        with pytest.raises(RealizabilityError, match="no edge matches"):
            table.predict(state, 3)
        with pytest.raises(RealizabilityError, match="no edge matches"):
            graph_prediction(H, state, 3, ell)
        assert not table._known


def test_audits_tables_and_the_pipeline_build_no_graph(monkeypatch):
    # the graph objects serve `dslab orient`, the demos and loo_error; the
    # audit, every prediction and the agnostic pipeline orient live edges
    audits = [(gen_random(3, 3, 14, seed), ell) for seed in range(12) for ell in (1, 2)]
    t_star = [min_max_orientation(build_oig(restrict(H, oig.mu_with_witness(H, H.n, ell)[1])),
                                  ell)[1] for H, ell in audits]
    cases = list(_table_cases())

    def refuse(*args, **kwargs):
        raise AssertionError("graph object built on a path that orients live edges only")

    for mod in (dslab, oig, learn, dslab.algebra, dslab.agnostic):
        for name in ("build_oig", "min_max_orientation"):
            if name in vars(mod):
                monkeypatch.setattr(mod, name, refuse)
    assert [audit_theorem(H, ell).t_star for H, ell in audits] == t_star
    for H, ell, samples in cases:
        table = learn.PredictionTable(H, ell)
        for sample in samples:
            for x in range(1, H.n + 1):
                table.predict(table.state(*sample), x)
    H = gen_cube(3, 1, 2, 4)
    D = SyntheticDistribution.with_label_noise(H, target=0, noise=Fraction(1, 10))
    dslab.agnostic_pipeline(H, D, ell=1, n1=20, T=20, n3=40, delta=0.1, seed=0)


def test_a_training_edge_of_at_most_ell_members_runs_no_flow(monkeypatch):
    # such an edge keeps every member in every orientation: nothing is
    # oriented.  A larger one orients the live edges, which takes a flow
    # exactly when a row lies in more of them than ceil(excess / |W|)
    honest_flow, honest_orient, flows, oriented = oig.maximum_flow, learn._orient_live, [], []

    def counted(net, cap):
        flows.append(None)
        honest_flow(net, cap)

    def recorded(live, n_rows, ell):
        oriented.append((live, n_rows))
        return honest_orient(live, n_rows, ell)

    monkeypatch.setattr(oig, "maximum_flow", counted)
    monkeypatch.setattr(learn, "_orient_live", recorded)
    small = flat = flowed = 0
    for H, ell, samples in _table_cases():
        for sample in samples:
            state = learn.PredictionTable(H, ell).state(*sample)
            for x in set(range(1, H.n + 1)) - {c for c, _y, _live in state}:
                size = len(_training_edge(H, state, x))
                flows.clear(), oriented.clear()
                learn.PredictionTable(H, ell).predict(state, x)
                assert len(oriented) == (size > ell)
                if oriented:
                    (live, n_rows), = oriented
                    assert bool(flows) == (not is_flat(live, n_rows, ell))
                else:
                    assert not flows
                small += size <= ell
                flat += bool(oriented) and not flows
                flowed += bool(flows)
    assert small > 500 and flat > 300 and flowed > 100


def test_no_table_orients_one_projection_and_live_edge_list_twice(monkeypatch):
    # one flow serves every labeling of the training coordinates, and a
    # coordinate with at most ell labels is live however often it was seen.
    # In a product class those are the only directions with no live edge in
    # any projection, so no table orients the live edges of one projection
    # (coordinates and x) twice: not over samples that repeat coordinates,
    # and not in the agnostic pipeline
    predict, restrict, orient = learn.PredictionTable.predict, learn.restrict, learn._orient_live
    asking, oriented = [None, None], []

    def record_predict(table, state, x):
        asking[0] = table
        return predict(table, state, x)

    def record_restrict(H, coords):
        asking[1] = tuple(coords)
        return restrict(H, coords)

    def record_orient(live, n_rows, ell):
        oriented.append((*asking, tuple(live)))
        return orient(live, n_rows, ell)

    monkeypatch.setattr(learn.PredictionTable, "predict", record_predict)
    monkeypatch.setattr(learn, "restrict", record_restrict)
    monkeypatch.setattr(learn, "_orient_live", record_orient)
    rng = np.random.default_rng(49)
    for H, ell in ((gen_cube(3, 1, 2, 4), 1), (gen_cube(4, 2, 2, 3), 2),
                   (gen_cube(4, 3, 1, 3), 3), (gen_cube(5, 2, 3, 4), 2)):
        table = learn.PredictionTable(H, ell)
        for _ in range(12):
            xs = rng.integers(1, H.n + 1, size=int(rng.integers(1, 2 * H.n + 1))).tolist()
            light_again = [c for c in xs if len(H.labels_at(c)) <= ell]
            for h in rng.choice(H.hyps, 3):
                for sample in (xs, xs + light_again):
                    y_of, counts = learn._consolidate([(c, int(h[c - 1])) for c in sample], H)
                    for x in range(1, H.n + 1):
                        table.predict(table.state(y_of, counts), x)
    H = gen_cube(3, 1, 2, 4)
    D = SyntheticDistribution.with_label_noise(H, target=0, noise=Fraction(1, 10))
    dslab.agnostic_pipeline(H, D, ell=1, n1=40, T=20, n3=80, delta=0.1, seed=0)
    assert len(set(oriented)) == len(oriented) > 25


def test_prefix_predictor_needs_eight_points():
    H = gen_cube(2, 1, 2, 2)
    with pytest.raises(ValueError):
        PrefixVotePredictor(H, [(1, 1)] * 7, 1)


def test_a_prediction_table_answers_only_for_its_class_and_list_size():
    # H1's table holds label 1 at x = 2 for this sample's state, a label no
    # row of H2 has; a predictor for H2 (or for another ell) must refuse the
    # table rather than read it
    H1 = HypothesisClass(k=3, n=2, hyps=((1, 1),))
    H2 = HypothesisClass(k=3, n=2, hyps=((1, 2),))
    sample = [(1, 1)] * 8
    table = learn.PredictionTable(H1, 1)
    assert PrefixVotePredictor(H1, sample, 1, cache=table).predict(2).labels == (1,)
    for H, ell in ((H2, 1), (H1, 2)):
        with pytest.raises(ValueError, match="another class or list size"):
            PrefixVotePredictor(H, sample, ell, cache=table)
    assert PrefixVotePredictor(H2, sample, 1).predict(2).labels == (2,)
    equal = HypothesisClass(k=3, n=2, hyps=((1, 1),))
    assert PrefixVotePredictor(equal, sample, 1, cache=table).predict(2).labels == (1,)
    with pytest.raises(ValueError, match="ell must be >= 1"):
        learn.PredictionTable(H1, 0)


def test_prefix_count_for_n8():
    H = gen_cube(3, 1, 2, 4)
    D = SyntheticDistribution.uniform_realizable(H, target=0)
    sample = D.draw(np.random.default_rng(0), 8)
    pred = PrefixVotePredictor(H, sample, 1)
    assert list(pred.prefix_lengths) == [2, 3, 4, 5, 6, 7]


def test_prefix_vote_is_majority_of_prefix_predictions():
    rng = np.random.default_rng(46)
    H = gen_cube(3, 1, 2, 4)
    D = SyntheticDistribution.uniform_realizable(H, target=2)
    sample = D.draw(rng, 12)
    pred = PrefixVotePredictor(H, sample, 1)
    for x in range(1, H.n + 1):
        lists = [pred.predict_prefix(t, x) for t in pred.prefix_lengths]
        assert pred.predict(x) == topk_vote(lists, 1)


@given(st.integers(2, 4), st.integers(1, 4), st.data())
def test_prefix_states_match_per_prefix_recomputation(k, n, data):
    # the states are kept incrementally; each must equal the state of its
    # prefix consolidated from scratch, and the weights must count them.  A
    # coordinate is live when its prefix saw it once or H has at most ell
    # labels there
    rows = data.draw(st.lists(st.tuples(*[st.integers(1, k)] * n), min_size=1,
                              max_size=6, unique=True))
    H = HypothesisClass(k=k, n=n, hyps=tuple(sorted(rows)))
    h = data.draw(st.sampled_from(H.hyps))
    xs = data.draw(st.lists(st.integers(1, n), min_size=8, max_size=30))
    sample = [(x, h[x - 1]) for x in xs]
    ell = data.draw(st.integers(1, 2))
    pred = PrefixVotePredictor(H, sample, ell)
    want = per_prefix_states(learn.PredictionTable(H, ell), sample, pred.t_start)
    assert pred._state_by_t == want
    assert pred._weighted_states == sorted((s, want.count(s)) for s in set(want))
    for t, state in enumerate(want, pred.t_start):
        assert state == tuple((c, h[c - 1], xs[:t].count(c) == 1 or len(H.labels_at(c)) <= ell)
                              for c in sorted(set(xs[:t])))


def test_prefix_vote_singleton_class_constant():
    H = HypothesisClass(k=3, n=2, hyps=((2, 3),))
    sample = [(1, 2), (2, 3)] * 5
    pred = PrefixVotePredictor(H, sample, 1)
    assert pred.predict(1).labels == (2,) and pred.predict(2).labels == (3,)


def test_vote_error_bounded_by_average_prefix_error():
    # pointwise: an excluded label is missed by >= N/(ell+1) prefixes, so
    # err(vote) <= (ell+1) * mean prefix error; with n divisible by 4 the
    # mean is exactly (4/(3n)) * sum.
    rng = np.random.default_rng(47)
    for trial in range(8):
        H = random_class(rng, k_max=3, n_max=4, size_max=9)
        target = int(rng.integers(0, len(H)))
        D = SyntheticDistribution.uniform_realizable(H, target)
        n = 12
        sample = D.draw(rng, n)
        for ell in (1, 2):
            pred = PrefixVotePredictor(H, sample, ell)
            vote_err = D.list_error(pred.predict)
            prefix_errs = [D.list_error(lambda x, t=t: pred.predict_prefix(t, x))
                           for t in pred.prefix_lengths]
            n_pref = len(prefix_errs)
            assert vote_err <= (ell + 1) * Fraction(sum(prefix_errs), n_pref)
            assert Fraction(1, n_pref) == Fraction(4, 3 * n)


def test_distribution_validation():
    with pytest.raises(ValueError):
        SyntheticDistribution(support=((1, 1),), weights=(Fraction(1, 2),))
    with pytest.raises(ValueError, match="not 1"):  # exact weights: no tolerance
        SyntheticDistribution(support=((1, 1), (1, 2)),
                              weights=(Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**15)))
    D = SyntheticDistribution.uniform_realizable(gen_cube(2, 1, 2, 2), 0)
    assert D.realizable and sum(D.weights) == 1
    assert D.support == ((1, 1), (2, 1))
    assert D == SyntheticDistribution.with_label_noise(gen_cube(2, 1, 2, 2), 0, 0)


def test_noisy_distribution_weights():
    H = gen_cube(2, 1, 1, 1)
    D = SyntheticDistribution.with_label_noise(H, target=0, noise=Fraction(1, 5))
    assert not D.realizable
    assert sum(D.weights) == 1
    weights = dict(zip(D.support, D.weights))
    assert weights[(1, 1)] == Fraction(9, 10)  # 4/5 + (1/5)/2
    assert weights[(1, 2)] == Fraction(1, 10)


def stage_weights(rng, n):
    """A weight vector as the agnostic stages make one: repeated products of
    exp(0.5) (the menu) or halvings 2**-a (boosting)."""
    if rng.random() < 0.5:
        return 2.0 ** -rng.integers(0, 12, n)
    w = np.ones(n)
    for _round in range(int(rng.integers(0, 30))):
        w[rng.random(n) < 0.3] *= math.exp(0.5)
    return w


@pytest.mark.parametrize("size", [None, 1, 4, 16])
def test_inverse_cdf_draw_matches_weighted_choice(size):
    # lengths of 8 or more cross numpy's blocked pairwise sum
    gen = np.random.default_rng(size or 0)
    for n in range(1, 41):
        for _ in range(4):
            w = stage_weights(gen, n)
            seed = int(gen.integers(2**32))
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _draw in range(5):
                got = learn._inverse_cdf(w).searchsorted(rng.random(size), side="right")
                want = oracle_rng.choice(n, size, p=w / w.sum())
                assert np.shape(got) == np.shape(want) and np.array_equal(got, want)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_inverse_cdf_draw_matches_weighted_choice_on_cdf_boundaries():
    # the weights put a CDF entry within a few ulps of the uniform the draw
    # reads, where any other rounding of the CDF would flip some picks
    gen = np.random.default_rng(1)
    for n in (2, 3, 9, 17, 40):
        for seed in range(40):
            u = np.random.default_rng(seed).random()
            w = stage_weights(gen, n)
            k = int(gen.integers(1, n))
            w[:k] *= u * w[k:].sum() / ((1 - u) * w[:k].sum())
            for ulps in range(-6, 7):
                v = w.copy()
                v[k - 1] *= 1 + ulps * 2.0**-52
                want = np.random.default_rng(seed).choice(n, p=v / v.sum())
                assert learn._inverse_cdf(v).searchsorted(u, side="right") == want


def test_best_hypothesis_exact():
    H = gen_cube(2, 1, 2, 2)
    D = SyntheticDistribution.with_label_noise(H, target=0, noise=Fraction(1, 4))
    idx, err = D.best_hypothesis(H)
    assert idx == 0 and err == Fraction(1, 8)  # noise/2 misses per instance


def test_pac_bound_value():
    want = 9.64 * (2 + math.log(20)) / 500
    assert pac_error_bound(2, 1, 0.1, 500) == pytest.approx(want)
    assert pac_error_bound(2, 2, 0.1, 500) == pytest.approx(4.82 * 3 * (2 + math.log(20)) / 500)


def test_pac_singleton_class_zero_error():
    H = HypothesisClass(k=3, n=4, hyps=((1, 2, 3, 1),))
    D = SyntheticDistribution.uniform_realizable(H, 0)
    rep = pac_experiment(H, D, 1, m=16, delta=0.1, trials=10, seed=0)
    assert rep.results["max_err"] == 0 and rep.verdict == "PASS"


def test_pac_deterministic_given_seed():
    H = gen_cube(3, 1, 2, 4)
    D = SyntheticDistribution.uniform_realizable(H, 4)
    a = pac_experiment(H, D, 1, m=32, delta=0.1, trials=8, seed=9)
    b = pac_experiment(H, D, 1, m=32, delta=0.1, trials=8, seed=9)
    assert a.to_json() == b.to_json()
    c = pac_experiment(H, D, 1, m=32, delta=0.1, trials=8, seed=10)
    assert c.seed != a.seed


def test_pac_requires_realizable():
    H = gen_cube(3, 1, 2, 4)
    D = SyntheticDistribution.with_label_noise(H, 0, Fraction(1, 10))
    with pytest.raises(RealizabilityError):
        pac_experiment(H, D, 1, m=16, delta=0.1, trials=2, seed=0)


def test_pac_reports_error_mode():
    H = gen_cube(3, 1, 2, 4)
    D = SyntheticDistribution.uniform_realizable(H, 0)
    rep = pac_experiment(H, D, 1, m=16, delta=0.1, trials=4, seed=0)
    assert rep.results["error_mode"] == "exact"


def test_pac_rejects_delta_outside_the_open_unit_interval_and_no_trials():
    H = gen_cube(3, 1, 2, 4)
    D = SyntheticDistribution.uniform_realizable(H, 0)
    for delta in (0, 1, 1.5, 3.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match="delta must lie in"):
            pac_experiment(H, D, 1, m=16, delta=delta, trials=4, seed=0)
    with pytest.raises(ValueError, match="trials"):
        pac_experiment(H, D, 1, m=16, delta=0.1, trials=0, seed=0)


def test_distributions_reject_targets_and_points_outside_the_class():
    H = gen_cube(2, 1, 1, 3)  # 3 rows on 3 coordinates
    for make in (SyntheticDistribution.uniform_realizable,
                 lambda H, t: SyntheticDistribution.with_label_noise(H, t, Fraction(1, 10))):
        for target in (-1, len(H)):
            with pytest.raises(ValueError, match=f"target {target} out of range"):
                make(H, target)
    # a caller-built support is checked against the class when it is evaluated
    for point in ((0, 1), (H.n + 1, 1), (1, 0), (1, H.k + 1)):
        D = SyntheticDistribution(support=(point, (1, 1)),
                                  weights=(Fraction(1, 2), Fraction(1, 2)))
        with pytest.raises(ValueError, match="sample points must lie in"):
            D.best_hypothesis(H)


# denominators past 2**63, so that int64 numerators would overflow
BIG_DENOMINATORS = (2**64 - 59, 2**89 - 1)


@st.composite
def class_and_distribution(draw):
    """A class of 2-6 rows with k <= 4 labels on n <= 4 coordinates and a
    distribution over 2-12 (x, y) pairs, repeats allowed.  Some draws weigh
    the points equally, so hypotheses often tie; the rest put every weight
    over one prime denominator past 2**63."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[st.integers(1, k)] * n), min_size=2, max_size=6,
                         unique=True))
    H = HypothesisClass(k=k, n=n, hyps=tuple(sorted(rows)))
    support = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, k)),
                            min_size=2, max_size=12))
    if draw(st.booleans()):
        weights = [Fraction(1, len(support))] * len(support)
    else:  # numerators below P/16, so the last weight stays positive
        P = draw(st.sampled_from(BIG_DENOMINATORS))
        weights = [Fraction(draw(st.integers(1, P // 16)), P) for _ in support[1:]]
        weights.append(1 - sum(weights))
    return H, SyntheticDistribution(support=tuple(support), weights=tuple(weights))


@given(class_and_distribution(), st.data())
def test_exact_evaluation_matches_per_point_oracles(case, data):
    H, D = case
    lists = data.draw(st.lists(st.frozensets(st.integers(1, H.k)), min_size=H.n, max_size=H.n))
    asked = []

    def predict(x):
        asked.append(x)
        return lists[x - 1]

    assert D.list_error(predict) == per_point_list_error(D, lambda x: lists[x - 1])
    assert sorted(asked) == sorted({x for x, _y in D.support})  # once per distinct x
    assert D.best_hypothesis(H) == per_point_best_hypothesis(D, H)
