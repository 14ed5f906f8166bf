import itertools
import pickle

import numpy as np
import pytest

from helpers import naive_edges, random_class
from dslab.algebra import audit_theorem
from dslab.errors import BudgetError
import dslab.hclass as hclass
from dslab.hclass import (HypothesisClass, class_id, dumps_class, gen_cube, gen_random, load_class,
                          loads_class, off_groups, restrict, save_class, walk)
from dslab.oig import mu, mu_prime, mu_with_witness


def test_load_simple(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"k":2,"n":1,"hyps":[[1],[2]]}')
    H = load_class(p)
    assert (H.k, H.n, len(H)) == (2, 1, 2)
    assert H.hyps == ((1,), (2,))


def test_load_dedups_with_counter(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"k":3,"n":2,"hyps":[[1,2],[1,1],[1,2]]}')
    H = load_class(p)
    assert len(H) == 2
    assert H.hyps == ((1, 1), (1, 2))


def test_load_label_out_of_range(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"k":2,"n":1,"hyps":[[3]]}')
    with pytest.raises(ValueError, match="label out of range"):
        load_class(p)


def test_load_ragged_rows():
    with pytest.raises(ValueError, match="ragged"):
        loads_class('{"k":2,"n":2,"hyps":[[1,1],[1]]}')


def test_load_malformed_json():
    with pytest.raises(ValueError, match="malformed"):
        loads_class("{nope")


NOT_INTEGERS = ["null", "[2]", '"2"', "2.7", "true"]


@pytest.mark.parametrize("text, match", [
    ("5", "must be an object"),
    ('{"k":2,"n":2,"hyps":[1,2]}', "list of label lists"),
    ('{"k":2,"n":2,"hyps":null}', "list of label lists"),
] + [(f'{{"k":{v},"n":2,"hyps":[[1,1]]}}', "'k' must be an integer") for v in NOT_INTEGERS]
  + [(f'{{"k":2,"n":{v},"hyps":[[1,1]]}}', "'n' must be an integer") for v in NOT_INTEGERS]
  + [(f'{{"k":2,"n":2,"hyps":[[1,{v}]]}}', "label must be an integer") for v in NOT_INTEGERS])
def test_load_rejects_json_of_the_wrong_shape(text, match):
    with pytest.raises(ValueError, match=match):
        loads_class(text)


def test_roundtrip(tmp_path):
    H = gen_random(3, 3, 11, seed=5)
    p = tmp_path / "c.json"
    save_class(H, p)
    assert load_class(p) == H
    assert dumps_class(load_class(p)) == dumps_class(H)


def test_restrict_projection_collapses():
    H = HypothesisClass(k=3, n=2, hyps=((1, 2), (1, 3), (2, 2)))
    R = restrict(H, [1])
    assert R.hyps == ((1,), (2,))
    assert R.k == 3 and R.n == 1


def test_restrict_permutation():
    H = HypothesisClass(k=3, n=2, hyps=((1, 2),))
    assert restrict(H, [2, 1]).hyps == ((2, 1),)


def test_restrict_with_repeats():
    # enumerate projections by hand: (1,1),(1,2),(2,1),(2,2) -> diagonal pairs
    H = gen_cube(2, 1, 2, 2)
    R = restrict(H, [1, 1], allow_repeats=True)
    assert R.hyps == ((1, 1), (2, 2))


def test_restrict_rejects_bad_coords():
    H = gen_cube(2, 1, 2, 2)
    with pytest.raises(ValueError):
        restrict(H, [3])
    with pytest.raises(ValueError):
        restrict(H, [1, 1])
    with pytest.raises(ValueError):
        restrict(H, [])


def test_restrict_equals_the_validated_projection_on_every_coordinate_tuple():
    # restrict skips the class checks, so its rows must already be canonical:
    # rebuilt through the validating constructor they give the same class
    rng = np.random.default_rng(16)
    for trial in range(40):
        H = random_class(rng, n_max=1 if trial % 4 == 0 else 3)
        for m in range(1, H.n + 2):
            for T in itertools.product(range(1, H.n + 1), repeat=m):
                W = restrict(H, T, allow_repeats=True)
                want = {tuple(h[c - 1] for c in T) for h in H.hyps}
                assert W == HypothesisClass(k=H.k, n=m, hyps=tuple(sorted(want)))
                assert W == HypothesisClass(k=W.k, n=W.n, hyps=W.hyps)
                if len(set(T)) == m:
                    assert restrict(H, T) == W


def test_off_groups_are_built_once_per_direction_and_kept_on_the_class():
    rng = np.random.default_rng(29)
    for trial in range(40):
        H = random_class(rng, n_max=1 if trial % 5 == 0 else 4)
        for W in (H, restrict(H, range(H.n, 0, -1))):
            groups = [off_groups(W, i) for i in range(W.n)]
            assert all(off_groups(W, i) is groups[i] for i in range(W.n))
            assert sorted((i, vs) for i, by_key in enumerate(groups)
                          for _key, vs in by_key) == sorted(naive_edges(W))
            for i, by_key in enumerate(groups):
                assert [key for key, _vs in by_key] == sorted({h[:i] + h[i + 1:] for h in W.hyps})
            # an equal class built apart groups afresh, to equal groups
            twin = HypothesisClass(k=W.k, n=W.n, hyps=W.hyps)
            assert all(off_groups(twin, i) == groups[i] and off_groups(twin, i) is not groups[i]
                       for i in range(W.n))


def test_kept_groups_change_no_equality_hash_or_serialization():
    H = gen_random(3, 3, 12, seed=4)
    bare = HypothesisClass(k=H.k, n=H.n, hyps=H.hyps)
    before = (hash(H), dumps_class(H), class_id(H))
    for i in range(H.n):
        off_groups(H, i)
    assert H == bare and bare == H
    assert (hash(H), dumps_class(H), class_id(H)) == before == (
        hash(bare), dumps_class(bare), class_id(bare))
    back = pickle.loads(pickle.dumps(H))
    assert back == H == bare and hash(back) == hash(bare) and dumps_class(back) == dumps_class(bare)
    assert all(off_groups(back, i) == off_groups(bare, i) for i in range(H.n))


def test_restrict_idempotent_on_identity():
    H = gen_random(3, 3, 9, seed=1)
    R = restrict(H, [1, 3])
    assert restrict(R, [1, 2]) == R


def test_gen_cube_examples():
    assert gen_cube(3, 1, 1, 2).hyps == ((1, 1), (2, 1), (3, 1))
    assert len(gen_cube(2, 1, 2, 2)) == 4
    assert len(gen_cube(4, 2, 2, 3)) == 4 * 4 * 2


@pytest.mark.parametrize("k,ell,s,m", [(2, 1, 0, 3), (3, 2, 2, 2), (5, 3, 1, 4)])
def test_gen_cube_cardinality(k, ell, s, m):
    assert len(gen_cube(k, ell, s, m)) == k**s * ell ** (m - s)


def test_gen_cube_rejects_bad_params():
    with pytest.raises(ValueError):
        gen_cube(2, 2, 1, 2)  # ell must be < k
    with pytest.raises(ValueError):
        gen_cube(3, 1, 4, 2)  # s > m


def test_gen_random_saturation_and_determinism():
    assert gen_random(2, 1, 2, seed=0).hyps == ((1,), (2,))
    full = gen_random(3, 2, 9, seed=7)
    assert len(full) == 9
    assert gen_random(3, 4, 20, seed=3) == gen_random(3, 4, 20, seed=3)
    with pytest.raises(ValueError):
        gen_random(2, 2, 5, seed=0)


def test_canonical_serialization_is_order_insensitive():
    a = loads_class('{"k":2,"n":2,"hyps":[[2,2],[1,1]]}')
    b = loads_class('{"k":2,"n":2,"hyps":[[1,1],[2,2]]}')
    assert dumps_class(a) == dumps_class(b)


def test_gen_budget():
    with pytest.raises(BudgetError):
        gen_cube(10, 1, 8, 8)


def test_gen_random_refuses_past_the_budget_before_sampling(monkeypatch):
    # near-full targets past the enumeration limit turn into coupon
    # collection; a class past the budget must be refused before any draw
    def no_sampling(seed):
        raise AssertionError("sampled past the budget")

    monkeypatch.setattr(hclass.np.random, "default_rng", no_sampling)
    with pytest.raises(BudgetError, match="exceeds budget"):
        gen_random(2, 21, 1_000_001, seed=0)
    with pytest.raises(BudgetError, match="exceeds budget"):
        gen_random(2, 23, 2 ** 23, seed=0)


def test_walk_yields_each_size_in_turn_lexicographically():
    H = gen_random(3, 4, 20, seed=2)
    assert all(len(H.labels_at(i)) == 3 for i in range(1, 5))
    want = list(itertools.combinations(range(1, 5), 3)) + list(itertools.combinations(range(1, 5), 1))
    fresh = list(walk(H, 2, (3, 1)))
    assert [T for T, _W in fresh] == want
    assert all(W == restrict(H, T) for T, W in fresh)
    assert list(walk(H, 2, range(0))) == []
    assert list(walk(H, 3, (3, 1))) == []
    # coordinate 2 holds two labels: light at ell 2, heavy at ell 1
    G = HypothesisClass(k=3, n=4, hyps=tuple(sorted({(a, min(b, 2), c, d) for a, b, c, d in H.hyps})))
    assert [T for T, _W in walk(G, 2, (3, 2, 1))] == [(1, 3, 4), (1, 3), (1, 4), (3, 4), (1,), (3,), (4,)]
    assert [T for T, _W in walk(G, 1, (3, 1))] == want


def test_walk_past_its_limit_raises_before_restricting_anything(monkeypatch):
    # mu walks every set of at most n_samples heavy coordinates; on 40 of
    # them that is 2**40 - 1 sets, refused before the first restriction,
    # while a full walk of 20 (2**20 - 1 sets) is inside the limit.  The
    # limit counts only heavy coordinates: one row has none, so every search
    # answers at once.
    def refuse(*_args):
        raise AssertionError("a refused walk restricted the class")

    monkeypatch.setattr(hclass, "restrict", refuse)
    two = HypothesisClass(k=2, n=40, hyps=((1,) * 40, (2,) * 40))
    message = f"walk of {2 ** 40 - 1} coordinate tuples exceeds limit {2 ** 20}"
    for search in (lambda: mu(two, 40, 1), lambda: mu_prime(two, 40),
                   lambda: audit_theorem(two, 1), lambda: next(walk(two, 1, range(40, 0, -1)))):
        with pytest.raises(BudgetError, match=message):
            search()
    with pytest.raises(BudgetError, match=f"walk of {2 ** 21 - 1} coordinate tuples"):
        next(walk(HypothesisClass(k=2, n=21, hyps=((1,) * 21, (2,) * 21)), 1, range(1, 22)))
    one = HypothesisClass(k=3, n=40, hyps=((1,) * 40,))
    assert mu_with_witness(one, 40, 1) == (0, (1,), HypothesisClass(k=3, n=1, hyps=((1,),)))
    assert mu_prime(one, 40) == 0
    assert audit_theorem(one, 1).mu_value == 0
    assert list(walk(two, 2, range(40, 0, -1))) == []
    monkeypatch.undo()
    twenty = HypothesisClass(k=2, n=20, hyps=((1,) * 20, (2,) * 20))
    assert next(walk(twenty, 1, range(1, 21)))[0] == (1,)


def test_direct_construction_enforces_canonical_form():
    with pytest.raises(ValueError, match="ascending"):
        HypothesisClass(k=2, n=1, hyps=((2,), (1,)))
    with pytest.raises(ValueError, match="ascending"):
        HypothesisClass(k=2, n=1, hyps=((1,), (1,)))
    with pytest.raises(ValueError, match="label out of range"):
        HypothesisClass(k=2, n=1, hyps=((3,),))
    with pytest.raises(ValueError, match="ragged"):
        HypothesisClass(k=2, n=2, hyps=((1,),))



def test_gen_random_past_the_enumeration_limit_samples_distinct_rows():
    # 2**23 > 4 000 000 vectors: rows are drawn one by one until enough differ
    H = gen_random(2, 23, 40, seed=3)
    assert (H.k, H.n, len(H)) == (2, 23, 40)
    assert len(set(H.hyps)) == 40
    assert all(len(h) == 23 and set(h) <= {1, 2} for h in H.hyps)
    assert gen_random(2, 23, 40, seed=3) == H
    assert gen_random(2, 23, 40, seed=4) != H
