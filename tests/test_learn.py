import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import (per_point_best_hypothesis, per_point_list_error, per_prefix_states,
                     random_class)
import dslab.learn as learn
from dslab.errors import CertificateError, RealizabilityError
from dslab.hclass import HypothesisClass, gen_cube, restrict
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
    monkeypatch.setattr(learn, "outdegrees", lambda G, sigma: [G.n_directions + 1] * G.n_vertices)
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


def test_prefix_predictor_needs_eight_points():
    H = gen_cube(2, 1, 2, 2)
    with pytest.raises(ValueError):
        PrefixVotePredictor(H, [(1, 1)] * 7, 1)


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
    # prefix consolidated from scratch, and the weights must count them
    rows = data.draw(st.lists(st.tuples(*[st.integers(1, k)] * n), min_size=1,
                              max_size=6, unique=True))
    H = HypothesisClass(k=k, n=n, hyps=tuple(sorted(rows)))
    h = data.draw(st.sampled_from(H.hyps))
    xs = data.draw(st.lists(st.integers(1, n), min_size=8, max_size=30))
    sample = [(x, h[x - 1]) for x in xs]
    pred = PrefixVotePredictor(H, sample, data.draw(st.integers(1, 2)))
    want = per_prefix_states(H, sample, pred.t_start)
    assert pred._state_by_t == want
    assert pred._weighted_states == sorted((s, want.count(s)) for s in set(want))


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


def test_noisy_distribution_weights():
    H = gen_cube(2, 1, 1, 1)
    D = SyntheticDistribution.with_label_noise(H, target=0, noise=Fraction(1, 5))
    assert not D.realizable
    assert sum(D.weights) == 1
    weights = dict(zip(D.support, D.weights))
    assert weights[(1, 1)] == Fraction(9, 10)  # 4/5 + (1/5)/2
    assert weights[(1, 2)] == Fraction(1, 10)


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


def test_distributions_reject_targets_and_instances_outside_the_class():
    H = gen_cube(2, 1, 1, 3)  # 3 rows on 3 coordinates
    for make in (SyntheticDistribution.uniform_realizable,
                 lambda H, t, instances=None: SyntheticDistribution.with_label_noise(
                     H, t, Fraction(1, 10), instances)):
        for target in (-1, len(H)):
            with pytest.raises(ValueError, match=f"target {target} out of range"):
                make(H, target)
        for instances in ([0, 1], [1, H.n + 1], []):
            with pytest.raises(ValueError, match="instances"):
                make(H, 0, instances=instances)
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
