import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from helpers import (brute_largest_valid_subfamily, brute_vc, is_valid_subfamily, random_class,
                     subclasses, uncapped_dimension, unpruned_mu_with_witness)
import dslab.dims as dims
import dslab.hclass as hclass
from dslab.hclass import HypothesisClass, gen_cube, restrict
from dslab.oig import mu_with_witness
from dslab.dims import (ShatterWitness, _product_family, ds_dimension, ds_shatter_core,
                        natarajan_dimension, validate_witness, vc_dimension, witness_from_json,
                        witness_to_json)


def test_core_full_square():
    W = gen_cube(2, 1, 2, 2)
    assert ds_shatter_core(W, 1) == W


def test_core_square_minus_vertex_is_empty():
    W = HypothesisClass(k=2, n=2, hyps=((1, 1), (1, 2), (2, 1)))
    assert ds_shatter_core(W, 1) is None
    assert brute_largest_valid_subfamily(W, 1) is None


def test_core_triangle_ell2():
    W = gen_cube(3, 2, 1, 1)
    assert ds_shatter_core(W, 2) == W


def test_core_agrees_with_brute_force_existence():
    rng = np.random.default_rng(21)
    for _ in range(20):
        W = random_class(rng, size_max=7)
        for ell in (1, 2):
            got = ds_shatter_core(W, ell)
            assert (got is None) == (brute_largest_valid_subfamily(W, ell) is None)


@st.composite
def small_classes(draw):
    """A class over at most 3 coordinates and 4 labels with at most 8 rows:
    half the time a box (a product of per-coordinate label sets, with a
    non-empty core when every side has two labels) plus stray rows,
    otherwise rows drawn at random."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    cube = list(itertools.product(range(1, k + 1), repeat=n))
    box = set()
    if draw(st.booleans()):
        side = st.sets(st.integers(1, k), min_size=min(2, k), max_size=3 if n == 1 else 2)
        box = set(itertools.product(*[sorted(draw(side)) for _ in range(n)]))
    extra = draw(st.sets(st.sampled_from(cube), min_size=min(1, 8 - len(box)),
                         max_size=8 - len(box)))
    return HypothesisClass(k=k, n=n, hyps=tuple(sorted(box | extra)))


@example(HypothesisClass(k=4, n=2, hyps=((1, 1), (1, 2), (2, 1), (2, 2),
                                         (3, 3), (3, 4), (4, 3), (4, 4))), 1)
@example(HypothesisClass(k=3, n=2, hyps=((1, 1), (1, 2), (2, 1), (2, 2), (3, 3))), 1)
@example(gen_cube(3, 2, 1, 1), 2)
@given(W=small_classes(), ell=st.integers(1, 2))
def test_core_is_the_largest_valid_subfamily(W, ell):
    # the peeling fixed point is the union of every valid subfamily, and
    # that union is itself valid
    union = brute_largest_valid_subfamily(W, ell)
    assert ds_shatter_core(W, ell) == union
    assert union is None or is_valid_subfamily(union, ell)


def test_core_is_order_independent():
    # one-at-a-time removal in random order reaches the same fixed point
    rng = np.random.default_rng(22)
    for _ in range(10):
        W = random_class(rng, size_max=9)
        core = ds_shatter_core(W, 1)

        alive = set(range(len(W)))
        order = list(alive)
        rng.shuffle(order)
        changed = True
        while changed and alive:
            changed = False
            for v in order:
                if v not in alive:
                    continue
                h = W.hyps[v]
                for i in range(W.n):
                    nbrs = sum(1 for u in alive if u != v
                               and W.hyps[u][i] != h[i]
                               and W.hyps[u][:i] + W.hyps[u][i + 1:] == h[:i] + h[i + 1:])
                    if nbrs < 1:
                        alive.discard(v)
                        changed = True
                        break
        expected = None
        if alive:
            expected = HypothesisClass(k=W.k, n=W.n,
                                       hyps=tuple(W.hyps[v] for v in sorted(alive)))
        assert core == expected


def test_ds_dimension_square():
    H = gen_cube(2, 1, 2, 2)
    d, w = ds_dimension(H, 1)
    assert d == 2 and w is not None and validate_witness(H, w)
    assert ds_dimension(H, 2) == (0, None)


def test_ds_dimension_of_product_classes():
    assert ds_dimension(gen_cube(4, 2, 2, 3), 2)[0] == 2
    assert ds_dimension(gen_cube(4, 1, 2, 3), 1)[0] == 2
    assert ds_dimension(gen_cube(8, 1, 3, 4), 1)[0] == 3


def test_ds_dimension_nonincreasing_in_ell():
    rng = np.random.default_rng(23)
    for _ in range(10):
        H = random_class(rng)
        ds = [ds_dimension(H, ell)[0] for ell in (1, 2, 3)]
        assert ds[0] >= ds[1] >= ds[2]


def test_ds_dimension_cannot_grow_under_projection():
    rng = np.random.default_rng(24)
    for _ in range(10):
        H = random_class(rng, n_max=4)
        d_full = ds_dimension(H, 1)[0]
        for size in range(1, H.n):
            for S in itertools.combinations(range(1, H.n + 1), size):
                assert ds_dimension(restrict(H, S), 1)[0] <= d_full


def test_duplicated_coordinate_never_shatters():
    # the two copies pin each other, so no member has an i-neighbor there
    rng = np.random.default_rng(25)
    for _ in range(10):
        H = random_class(rng)
        W = restrict(H, [1, 1], allow_repeats=True)
        assert ds_shatter_core(W, 1) is None


def assert_capped_equals_uncapped(H, ell):
    """Both dimensions, with their witnesses, and VC on binary classes, as
    the search from all n coordinates finds them."""
    assert ds_dimension(H, ell) == uncapped_dimension(H, ell, "DS")
    assert natarajan_dimension(H, ell) == uncapped_dimension(H, ell, "Natarajan")
    if H.k == 2 and ell == 1:
        assert vc_dimension(H) == uncapped_dimension(H, 1, "Natarajan")[0]


def test_capped_searches_equal_the_uncapped_search_on_every_small_subclass():
    # the full cube [ell+1]^s has d = s = s*, so a cap one size low fails here
    for cube in (gen_cube(3, 1, 2, 2), gen_cube(2, 1, 3, 3)):
        for H in subclasses(cube):
            for ell in (1, 2):
                assert_capped_equals_uncapped(H, ell)


def test_capped_searches_equal_the_uncapped_search_on_random_classes():
    rng = np.random.default_rng(28)
    for _ in range(150):
        H = random_class(rng, k_max=5, n_max=5, size_max=40)
        for ell in (1, 2):
            assert_capped_equals_uncapped(H, ell)


def s_star(H, ell):
    """The largest s <= n with (ell+1)^s <= |H|."""
    return max(s for s in range(H.n + 1) if (ell + 1) ** s <= len(H))


def record_probes(monkeypatch, H, ell):
    """The widths of the restrictions both dimension searches probe; a probe
    wider than ``s_star`` fails the test at once."""
    widths, cap = [], s_star(H, ell)

    def recorded(probe):
        def checked(W, *args):
            if W.n > cap:
                pytest.fail(f"probed a {W.n}-coordinate restriction past s* = {cap}")
            widths.append(W.n)
            return probe(W, *args)
        return checked

    monkeypatch.setattr(dims, "ds_shatter_core", recorded(ds_shatter_core))
    monkeypatch.setattr(dims, "_product_family", recorded(_product_family))
    return widths


def test_no_probe_is_wider_than_the_row_count_allows(monkeypatch):
    # one row on 40 coordinates: s* = 0, so neither search probes anything
    forty = HypothesisClass(k=3, n=40, hyps=((1,) * 40,))
    widths = record_probes(monkeypatch, forty, 1)
    assert ds_dimension(forty, 1) == natarajan_dimension(forty, 1) == (0, None)
    assert widths == []
    # 3 rows on 4 coordinates: s* = 1 at ell 1 and 2, and one label list of
    # each width fits at coordinate 1
    H = gen_cube(3, 1, 1, 4)
    for ell in (1, 2):
        widths = record_probes(monkeypatch, H, ell)
        assert ds_dimension(H, ell)[0] == natarajan_dimension(H, ell)[0] == 1
        assert widths == [1, 1]
    # 20 rows on 5 coordinates: s* = 4 < n at ell 1, and 2 at ell 2.
    # Coordinate 1 is constant, and at ell 2 only coordinate 2 has more than
    # ell labels, so no pair is walked there.
    H = HypothesisClass(k=3, n=5, hyps=gen_cube(3, 2, 2, 5).hyps[:20])
    for ell in (1, 2):
        monkeypatch.undo()  # the oracle probes every width
        want = uncapped_dimension(H, ell, "DS"), uncapped_dimension(H, ell, "Natarajan")
        widths = record_probes(monkeypatch, H, ell)
        assert (ds_dimension(H, ell), natarajan_dimension(H, ell)) == want
        assert max(widths) == (s_star(H, ell) if ell == 1 else 1) and s_star(H, ell) < H.n


def walked_searches(monkeypatch, H, ell, n_samples):
    """``mu_with_witness``, ``ds_dimension`` and ``natarajan_dimension`` of
    ``H``; fails if any of them restricts to a set holding a coordinate with
    at most ell labels in ``H``."""
    light = {i for i in range(1, H.n + 1) if len(H.labels_at(i)) <= ell}
    honest = hclass.restrict

    def recorded(G, coords, *args):
        if light.intersection(coords):
            pytest.fail(f"restricted to {tuple(coords)}, which holds a coordinate of at most {ell} labels")
        return honest(G, coords, *args)

    monkeypatch.setattr(hclass, "restrict", recorded)
    got = mu_with_witness(H, n_samples, ell), ds_dimension(H, ell), natarajan_dimension(H, ell)
    monkeypatch.undo()
    return got


def full_walks(H, ell, n_samples):
    return (unpruned_mu_with_witness(H, n_samples, ell), uncapped_dimension(H, ell, "DS"),
            uncapped_dimension(H, ell, "Natarajan"))


def test_searches_never_restrict_to_a_coordinate_with_at_most_ell_labels(monkeypatch):
    # coordinates 3 and 4 hold two labels, so at ell 2 only {1, 2} is walked
    H = gen_cube(3, 2, 2, 4)
    assert walked_searches(monkeypatch, H, 2, H.n) == full_walks(H, 2, H.n)
    # the binary 8-cube with 22 constant coordinates: s* = 8, and the walk
    # over the 8 heavy coordinates holds 255 tuples, where one over all 30
    # would hold 8 656 936, past the walk limit (the full walks never end)
    H = gen_cube(2, 1, 8, 30)
    got_mu, got_ds, got_nat = walked_searches(monkeypatch, H, 1, 2)
    assert got_mu == unpruned_mu_with_witness(H, 2, 1)
    for d, w in (got_ds, got_nat):
        assert d == 8 and w.coords == tuple(range(1, 9)) and validate_witness(H, w)
    # one coordinate forced to at most two labels: light at ell 2 and 3
    rng = np.random.default_rng(25)
    for _ in range(60):
        R = random_class(rng)
        j = int(rng.integers(R.n))
        H = HypothesisClass(k=R.k, n=R.n, hyps=tuple(sorted(
            {h[:j] + (1 + (h[j] - 1) % 2,) + h[j + 1:] for h in R.hyps})))
        for ell in (1, 2, 3):
            assert walked_searches(monkeypatch, H, ell, H.n) == full_walks(H, ell, H.n)


def test_natarajan_square():
    d, w = natarajan_dimension(gen_cube(2, 1, 2, 2), 1)
    assert d == 2 and w.kind == "Natarajan"


def test_natarajan_diagonal_pair():
    # brute force: both 2x2 products fail, the single-coordinate list works
    H = HypothesisClass(k=2, n=2, hyps=((1, 1), (2, 2)))
    d, w = natarajan_dimension(H, 1)
    assert d == 1
    assert validate_witness(H, w)


def test_natarajan_at_most_ds():
    rng = np.random.default_rng(26)
    for _ in range(20):
        H = random_class(rng)
        for ell in (1, 2):
            assert natarajan_dimension(H, ell)[0] <= ds_dimension(H, ell)[0]


def test_natarajan_needs_enough_labels():
    assert natarajan_dimension(gen_cube(2, 1, 2, 2), 2) == (0, None)


def test_vc_examples():
    assert vc_dimension(gen_cube(2, 1, 2, 2)) == 2
    assert vc_dimension(HypothesisClass(k=2, n=2, hyps=((1, 2),))) == 0
    with pytest.raises(ValueError):
        vc_dimension(gen_cube(3, 1, 1, 2))


def test_vc_matches_pattern_count_oracle():
    # every binary class on at most 3 coordinates of at most 4 rows
    for n in (1, 2, 3):
        cube = list(itertools.product((1, 2), repeat=n))
        for size in range(1, min(4, len(cube)) + 1):
            for rows in itertools.combinations(cube, size):
                H = HypothesisClass(k=2, n=n, hyps=rows)
                assert vc_dimension(H) == brute_vc(H)


def test_vc_equals_ds_at_ell_one_binary():
    rng = np.random.default_rng(27)
    for _ in range(20):
        H = random_class(rng, k_max=2, n_max=3, size_max=8)
        assert vc_dimension(H) == ds_dimension(H, 1)[0]


def test_witness_json_roundtrip_and_validation():
    H = gen_cube(3, 1, 2, 3)
    for getter, ell in ((ds_dimension, 1), (natarajan_dimension, 1), (ds_dimension, 2)):
        d, w = getter(H, ell)
        if w is None:
            continue
        w2 = witness_from_json(witness_to_json(w))
        assert w2 == w
        assert validate_witness(H, w2)


@pytest.mark.parametrize("ell", [1, 2])
def test_the_ds_recheck_agrees_with_the_neighbor_count_on_every_subfamily(ell):
    # every non-empty subfamily of every restriction, deficient ones
    # included; a subfamily with a group of exactly ell rows gives those
    # rows ell - 1 neighbors and must be refused
    rng = np.random.default_rng(31)
    answers = []
    for _ in range(24):
        H = random_class(rng, k_max=4, n_max=3, size_max=9)
        for size in range(1, H.n + 1):
            for T in itertools.combinations(range(1, H.n + 1), size):
                for F in subclasses(restrict(H, T)):
                    want = is_valid_subfamily(F, ell)
                    assert validate_witness(H, ShatterWitness(T, F, "DS", ell)) == want, (T, F.hyps)
                    answers.append(want)
    assert 0 < sum(answers) < len(answers)


def test_witness_validation_rejects_tampering():
    H = gen_cube(2, 1, 2, 2)
    _d, w = ds_dimension(H, 1)
    bad = witness_from_json(witness_to_json(w).replace('"ell":1', '"ell":2'))
    assert not validate_witness(H, bad)


def test_witness_validation_rejects_a_list_size_below_one():
    # a one-row subfamily passes both kinds' checks when ell < 1
    H = gen_cube(2, 1, 2, 2)
    row = HypothesisClass(k=2, n=2, hyps=((1, 1),))
    for kind in ("DS", "Natarajan"):
        assert validate_witness(H, ShatterWitness((1, 2), row, kind, 1)) is False
        for ell in (0, -2):
            w = ShatterWitness((1, 2), row, kind, ell)
            assert validate_witness(H, w) is False
            with pytest.raises(ValueError, match=f"'ell' must be >= 1, got {ell}"):
                witness_from_json(witness_to_json(w))


@pytest.mark.parametrize("defect", ["coords_out_of_range", "repeated_coords",
                                    "outside_projection", "natarajan_width", "unknown_kind"])
def test_witness_validation_rejects_each_defect(defect):
    # [3]^2 x {1}: both witnesses sit on coordinates (1, 2) and are valid
    # until one field is changed
    H = gen_cube(3, 1, 2, 3)
    kind = "Natarajan" if defect == "natarajan_width" else "DS"
    d, w = (natarajan_dimension if kind == "Natarajan" else ds_dimension)(H, 1)
    assert (d, w.coords, w.kind) == (2, (1, 2), kind) and validate_witness(H, w)
    bad = {"coords_out_of_range": dict(coords=(1, 4)),
           "repeated_coords": dict(coords=(1, 1)),
           "outside_projection": dict(coords=(1, 3)),  # coordinate 3 is always 1
           "natarajan_width": dict(ell=2),             # lists of 2 labels, not 3
           "unknown_kind": dict(kind="VC")}[defect]
    assert not validate_witness(H, dataclasses.replace(w, **bad))
