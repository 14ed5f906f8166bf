import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import dslab.oig as oig
from helpers import (brute_max_density, brute_max_density_witness,
                     brute_min_max_outdegree, brute_mu, naive_density,
                     naive_edges, random_class, scipy_flow_assignment, subclasses)
from dslab.algebra import audit_theorem
from dslab.errors import BudgetError, CertificateError
from dslab.hclass import HypothesisClass, gen_cube, gen_random, restrict
from dslab.oig import (Orientation, build_oig, density, format_ratio, max_density_subfamily,
                       min_max_orientation, mu, mu_prime, mu_with_witness,
                       orientation_to_json, outdegrees, parse_ratio)


def test_build_single_coordinate():
    G = build_oig(gen_cube(3, 2, 1, 1))
    assert G.n_directions == 1 and G.n_edges == 1
    assert len(next(G.edges())) == 3


def test_build_square_matches_hand_enumeration():
    W = gen_cube(2, 1, 2, 2)
    G = build_oig(W)
    assert G.n_edges == 4
    assert all(len(e) == 2 for e in G.edges())
    got = {(e.direction, e.members) for e in G.edges()}
    assert got == set(naive_edges(W))


def test_build_singleton():
    G = build_oig(HypothesisClass(k=2, n=2, hyps=((1, 1),)))
    assert G.n_edges == 2
    assert all(len(e) == 1 for e in G.edges())


def test_build_matches_naive_on_random_classes():
    rng = np.random.default_rng(11)
    for _ in range(25):
        W = random_class(rng)
        got = {(e.direction, e.members) for e in build_oig(W).edges()}
        assert got == set(naive_edges(W))


def test_build_dead_dirs_forces_singletons():
    W = gen_cube(2, 1, 2, 2)
    G = build_oig(W, dead_dirs=[0])
    sizes = sorted(len(e) for e in G.by_direction[0])
    assert sizes == [1, 1, 1, 1]
    assert all(len(e) == 2 for e in G.by_direction[1])


def test_density_examples():
    assert density(gen_cube(3, 2, 1, 1), 1) == Fraction(2, 3)
    assert density(gen_cube(2, 1, 2, 2), 1) == 1
    assert naive_density(gen_cube(2, 1, 2, 2), 1) == 1


@pytest.mark.parametrize("k,ell,s,m", [(3, 1, 1, 2), (4, 1, 2, 3), (6, 2, 2, 3), (4, 2, 1, 2)])
def test_density_of_product_class(k, ell, s, m):
    # closed form s * (1 - ell/k), exact
    H = gen_cube(k, ell, s, m)
    assert density(H, ell) == Fraction(s) * (1 - Fraction(ell, k))


def test_density_antimonotone_in_ell_and_bounded():
    rng = np.random.default_rng(2)
    for _ in range(20):
        W = random_class(rng)
        vals = [density(W, ell) for ell in range(1, W.k + 2)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert all(0 <= v <= W.n for v in vals)


def test_max_density_subfamily_square():
    W = gen_cube(2, 1, 2, 2)
    val, F = max_density_subfamily(W, 1)
    assert val == 1 and F == W
    assert brute_max_density(W, 1) == 1


def test_max_density_subfamily_singleton():
    W = HypothesisClass(k=3, n=1, hyps=((2,),))
    val, F = max_density_subfamily(W, 1)
    assert val == 0 and F == W


def test_max_density_subfamily_triangle_ell2():
    W = gen_cube(3, 2, 1, 1)
    val, F = max_density_subfamily(W, 2)
    assert val == Fraction(1, 3) and F == W


def test_max_density_subfamily_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(15):
        W = random_class(rng, size_max=8)
        for ell in (1, 2):
            val, F = max_density_subfamily(W, ell)
            assert val == brute_max_density(W, ell)
            assert density(F, ell) == val  # witness recomputes


def test_max_density_tie_break_is_smallest_then_lex():
    # two isolated vertices: all densities are 0, want the single first row
    W = HypothesisClass(k=2, n=2, hyps=((1, 1), (2, 2)))
    val, F = max_density_subfamily(W, 1)
    assert val == 0
    assert F.hyps == ((1, 1),)


@st.composite
def classes(draw):
    """A random class over [k]^n with 1 to 10 rows."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(1, 3))
    cube = list(itertools.product(range(1, k + 1), repeat=n))
    rows = draw(st.sets(st.sampled_from(cube), min_size=1, max_size=min(10, len(cube))))
    return HypothesisClass(k=k, n=n, hyps=tuple(sorted(rows)))


@st.composite
def isolated_classes(draw):
    """Rows (a, b, a + b mod k) differ pairwise in at least two coordinates,
    so every edge is a singleton and every subfamily has density 0."""
    k = draw(st.integers(2, 4))
    base = draw(st.sets(st.tuples(st.integers(1, k), st.integers(1, k)), min_size=1, max_size=6))
    rows = {(a, b, (a + b) % k + 1) for a, b in base}
    return HypothesisClass(k=k, n=3, hyps=tuple(sorted(rows)))


@st.composite
def twin_block_classes(draw):
    """A class on labels {1, 2} and its copy on {3, 4}: the copies differ in
    every coordinate, so they share no edge and their densities tie."""
    n = draw(st.integers(2, 3))
    cube = list(itertools.product((1, 2), repeat=n))
    block = draw(st.sets(st.sampled_from(cube), min_size=1, max_size=5))
    rows = block | {tuple(x + 2 for x in h) for h in block}
    return HypothesisClass(k=4, n=n, hyps=tuple(sorted(rows)))


@st.composite
def cube_with_pendants(draw):
    """The dense cube {k-1, k}^n plus rows that start with label 1, which sort
    first: a larger maximizer can then hold the cube's smaller one."""
    k = draw(st.integers(3, 4))
    n = draw(st.integers(2, 3))
    cube = set(itertools.product((k - 1, k), repeat=n))
    tails = list(itertools.product(range(1, k + 1), repeat=n - 1))
    pendants = draw(st.sets(st.sampled_from(tails), min_size=1, max_size=10 - len(cube)))
    rows = cube | {(1,) + t for t in pendants}
    return HypothesisClass(k=k, n=n, hyps=tuple(sorted(rows)))


def check_witness_oracle(W, ell):
    val, F = max_density_subfamily(W, ell)
    want_val, want_F = brute_max_density_witness(W, ell)
    assert val == want_val
    assert F.hyps == want_F.hyps


@pytest.mark.parametrize("W, ells", [
    (HypothesisClass(k=3, n=1, hyps=((2,),)), (1, 2)),                            # |W| = 1, n = 1
    (HypothesisClass(k=4, n=1, hyps=((1,), (2,), (3,), (4,))), (1, 2, 3, 4, 5)),  # n = 1
    (gen_cube(3, 2, 1, 1), (3, 4)),                                               # ell >= every edge size
    (HypothesisClass(k=3, n=2, hyps=((1, 1), (2, 2), (3, 3))), (1,)),             # all rows isolated
    (HypothesisClass(k=4, n=2, hyps=((1, 1), (1, 2), (3, 3), (3, 4))), (1,)),     # two equal disjoint edges
    (HypothesisClass(k=3, n=2, hyps=((1, 1), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3))), (1,)),  # nested maximizers
])
def test_max_density_witness_edge_shapes(W, ells):
    for ell in ells:
        check_witness_oracle(W, ell)


@given(classes(), st.integers(1, 4))
def test_max_density_witness_matches_oracle(W, ell):
    check_witness_oracle(W, ell)


@given(isolated_classes(), st.integers(1, 3))
def test_max_density_witness_isolated_rows(W, ell):
    check_witness_oracle(W, ell)


@given(twin_block_classes(), st.integers(1, 2))
def test_max_density_witness_tied_disjoint_blocks(W, ell):
    check_witness_oracle(W, ell)


@given(cube_with_pendants(), st.integers(1, 2))
def test_max_density_witness_nested_maximizers(W, ell):
    check_witness_oracle(W, ell)


@pytest.mark.parametrize("rows, ell", [(30, 1), (34, 2), (40, 1)])
def test_max_density_exact_past_26_rows(rows, ell):
    W = gen_random(3, 4, rows, seed=rows)
    val, F = max_density_subfamily(W, ell)
    assert density(F, ell) == val
    # orientation duality: the min-max outdegree is the ceiling of the maximum
    assert math.ceil(val) == min_max_orientation(build_oig(W), ell)[1]


def test_mu_prime_refuses_wide_restriction_before_allocating(monkeypatch):
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.{name} used before the row check")

    monkeypatch.setattr(oig, "np", NoNumpy())
    for rows in (23, 27, 33):  # 33 rows no longer fit a uint32 bitmask either
        H = HypothesisClass(k=rows, n=1, hyps=tuple((v,) for v in range(1, rows + 1)))
        with pytest.raises(BudgetError, match="22 rows"):
            mu_prime(H, 1)


def test_mu_square():
    H = gen_cube(2, 1, 2, 2)
    assert mu(H, 2, 1) == 1
    assert mu(H, 1, 1) == Fraction(1, 2)


def test_mu_large_ell_is_zero():
    rng = np.random.default_rng(5)
    for _ in range(5):
        H = random_class(rng, size_max=8)
        assert mu(H, H.n, H.k) == 0


def test_mu_matches_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(10):
        H = random_class(rng, n_max=3, size_max=7)
        for ell in (1, 2):
            assert mu(H, H.n, ell) == brute_mu(H, H.n, ell)


def test_mu_dominates_all_repeat_sequences():
    # maximizing over plain coordinate subsets loses nothing: projections
    # onto sequences with repeated coordinates never score higher
    import itertools
    rng = np.random.default_rng(14)
    for _ in range(6):
        H = random_class(rng, k_max=3, n_max=2, size_max=6)
        m = mu(H, 2, 1)
        for seq in itertools.product(range(1, H.n + 1), repeat=2):
            W = restrict(H, seq, allow_repeats=True)
            assert brute_max_density(W, 1) <= m


def test_mu_nondecreasing_in_sample_size():
    rng = np.random.default_rng(7)
    for _ in range(10):
        H = random_class(rng)
        vals = [mu(H, n, 1) for n in range(1, H.n + 2)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_mu_witness_consistency():
    H = gen_cube(4, 1, 2, 3)
    val, T, F = mu_with_witness(H, 3, 1)
    assert density(F, 1) == val
    assert set(F.hyps) <= set(restrict(H, T).hyps)


def test_mu_prime_examples():
    assert mu_prime(gen_cube(2, 1, 2, 2), 2) == 2
    assert mu_prime(HypothesisClass(k=2, n=1, hyps=((1,),)), 1) == 0


def test_mu_prime_sandwich():
    rng = np.random.default_rng(8)
    for _ in range(12):
        H = random_class(rng, size_max=9)
        m, mp = mu(H, H.n, 1), mu_prime(H, H.n)
        assert mp / 2 <= m <= mp


def test_orientation_single_big_edge():
    G = build_oig(gen_cube(3, 2, 1, 1))
    sigma, t = min_max_orientation(G, 1)
    assert t == 1
    assert brute_min_max_outdegree(G, 1) == 1


def test_orientation_square():
    G = build_oig(gen_cube(2, 1, 2, 2))
    _sigma, t = min_max_orientation(G, 1)
    assert t == 1
    assert brute_min_max_outdegree(G, 1) == 1


def test_orientation_all_edges_small():
    G = build_oig(gen_cube(3, 2, 1, 1))
    sigma, t = min_max_orientation(G, 3)
    assert t == 0
    assert all(len(chosen) == 3 for _d, _k, chosen in sigma.assign)


def check_orientation_oracle(G, ell):
    sigma, t = min_max_orientation(G, ell)
    assert t == brute_min_max_outdegree(G, ell)
    dens = Fraction(sum(max(len(e) - ell, 0) for e in G.edges()), G.n_vertices)
    assert t >= math.ceil(dens)  # the search's start
    assert max(outdegrees(G, sigma)) == t


def test_orientation_flow_matches_exhaustive():
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(40):
        W = random_class(rng, size_max=7)
        G = build_oig(W)
        if G.n_edges > 6 or any(len(e) > 4 for e in G.edges()):
            continue
        for ell in (1, 2):
            check_orientation_oracle(G, ell)
        checked += 1
    assert checked >= 10


@pytest.mark.parametrize("W, dead, ells", [
    (gen_cube(3, 1, 2, 2), (0,), (1, 2)),                  # a dead direction
    (gen_cube(2, 1, 2, 3), (0, 2), (1,)),                  # two dead directions
    (gen_cube(3, 2, 1, 1), (), (3, 4)),                    # ell >= every edge size
    (gen_cube(2, 1, 2, 2), (), (2,)),
    (HypothesisClass(k=4, n=1, hyps=((1,), (2,), (3,), (4,))), (), (1, 2, 3, 4)),  # n = 1
    (HypothesisClass(k=3, n=1, hyps=((1,), (3,))), (0,), (1,)),
    (HypothesisClass(k=2, n=3, hyps=((1, 2, 1),)), (), (1, 2)),  # |W| = 1
    (HypothesisClass(k=2, n=2, hyps=((2, 1),)), (1,), (1,)),
])
def test_orientation_oracle_edge_shapes(W, dead, ells):
    G = build_oig(W, dead_dirs=dead)
    for ell in ells:
        check_orientation_oracle(G, ell)


def test_orientation_oracle_random_dead_directions():
    rng = np.random.default_rng(14)
    checked = 0
    for _ in range(40):
        W = random_class(rng, size_max=7)
        dead = [i for i in range(W.n) if rng.random() < 0.4]
        G = build_oig(W, dead_dirs=dead)
        if G.n_edges > 12 or any(len(e) > 4 for e in G.edges()):
            continue
        for ell in (1, 2):
            check_orientation_oracle(G, ell)
        checked += 1
    assert checked >= 10


@st.composite
def orientation_graphs(draw):
    """The graph of a class of at most 6 rows over [k]^n, k and n from 1,
    projected on a sample whose coordinates may repeat, with some dead
    directions."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    cube = list(itertools.product(range(1, k + 1), repeat=n))
    rows = draw(st.sets(st.sampled_from(cube), min_size=1, max_size=min(6, len(cube))))
    H = HypothesisClass(k=k, n=n, hyps=tuple(sorted(rows)))
    coords = draw(st.lists(st.integers(1, n), min_size=1, max_size=3))
    W = restrict(H, coords, allow_repeats=True)
    dead = draw(st.sets(st.integers(0, W.n - 1)))
    return build_oig(W, dead_dirs=dead)


@given(orientation_graphs(), st.integers(1, 4))
@example(build_oig(HypothesisClass(k=1, n=1, hyps=((1,),))), 1)  # k = 1, n = 1, |W| = 1
@example(build_oig(gen_cube(3, 2, 1, 2)), 3)                     # ell >= k
@example(build_oig(restrict(gen_cube(3, 1, 2, 2), (1, 1, 2), allow_repeats=True),
                   dead_dirs=(0, 1)), 1)                        # a repeated coordinate, dead
@example(build_oig(restrict(gen_cube(3, 2, 2, 3), (2, 3, 2), allow_repeats=True)), 2)  # not dead
def test_orientation_flow_matches_scipy_oracle(G, ell):
    edges = list(G.edges())
    members = [e.members for e in edges]
    net = oig._Network(members, G.n_vertices, ell)
    first_row = net.n_edges + 1
    for t in range(G.n_directions + 1):
        cuts = []

        def stay(ex, size):  # record the cut, and refuse to step past t
            cuts.append((ex, size))
            return Fraction(t)

        try:
            _lam, cap, _flows = oig._cut_search(net, members, ell, Fraction(t), stay)
        except CertificateError:
            (ex, size), = cuts  # the min cut's sink side is denser than t
            assert ex > t * size
            picked = None
        else:
            picked = [{net.head[a] - first_row for a in net.adj[j] if not a & 1 and cap[a ^ 1]}
                      for j in range(1, first_row)]
        assert picked == scipy_flow_assignment(G, edges, ell, t)
    check_orientation_oracle(G, ell)


@pytest.mark.parametrize("search", ["density", "orientation"])
def test_a_flow_that_routes_nothing_fails_the_cut_certificate(search, monkeypatch):
    # with no flow every row with a positive sink arc reaches the sink, and
    # that cut is never strictly denser than the lam that built it
    monkeypatch.setattr(oig, "maximum_flow", lambda net, cap: None)
    for seed in range(25):
        H = gen_random(3, 3, 14, seed)
        for ell in (1, 2):
            with pytest.raises(CertificateError, match="found no subfamily denser"):
                if search == "density":
                    max_density_subfamily(H, ell)
                else:
                    min_max_orientation(build_oig(H), ell)


@pytest.mark.parametrize("search", ["density", "orientation", "audit"])
def test_a_flow_with_zeroed_sink_residuals_is_caught_or_harmless(search, monkeypatch):
    # a real flow that then claims every sink arc saturated: its cuts still
    # rise, so only the fractional-orientation check can see that it stopped
    # below mu (e.g. 9/7 for 3/2 at seed 60, ell 1)
    run = {"density": max_density_subfamily,
           "orientation": lambda H, ell: min_max_orientation(build_oig(H), ell),
           "audit": audit_theorem}[search]
    honest = oig.maximum_flow

    def zeroed(net, cap):
        honest(net, cap)
        for a in net.sink_arcs:
            cap[a] = 0

    for seed in range(200):
        H = gen_random(3, 3, 14, seed)
        for ell in (1, 2):
            want = run(H, ell)
            monkeypatch.setattr(oig, "maximum_flow", zeroed)
            try:
                assert run(H, ell) == want
            except CertificateError as exc:
                assert "fractional orientation" in str(exc) or "outdegree" in str(exc)
            monkeypatch.setattr(oig, "maximum_flow", honest)


@pytest.mark.parametrize("flows, lam, fails", [
    ([[1, 1, 1]], Fraction(2, 3), None),
    ([[2, 1, 0]], Fraction(2, 3), "leaves row 2 outdegree 1 > lam"),
    ([[2, 2, 1]], Fraction(2, 3), "no fractional orientation"),
    ([[4, -1, 0]], Fraction(2, 3), "no fractional orientation"),
    ([[1, 1]], Fraction(2, 3), "no fractional orientation"),
    ([], Fraction(2, 3), "covers 0 of 1 edges"),
    ([[0, 0, 0]], Fraction(1, 2), "outdegree 1 > lam"),
])
def test_fractional_orientation_certificate(flows, lam, fails):
    # one edge of three rows at ell 1 has density 2/3; at lam = 2/3 the one
    # certificate gives each row a third of the edge's one pick
    if fails is None:
        oig._check_fractional_orientation([(0, 1, 2)], 1, lam, flows)
    else:
        with pytest.raises(CertificateError, match=fails):
            oig._check_fractional_orientation([(0, 1, 2)], 1, lam, flows)


def test_orientation_achieves_exactly_t_star():
    rng = np.random.default_rng(10)
    for _ in range(15):
        W = random_class(rng, size_max=10)
        G = build_oig(W)
        sigma, t = min_max_orientation(G, 1)
        assert max(outdegrees(G, sigma)) == t


def test_outdegrees_manual():
    W = gen_cube(3, 2, 1, 1)
    G = build_oig(W)
    sigma = Orientation(ell=1, assign=(((0), (), (0,)),))
    out = outdegrees(G, sigma)
    assert out == [0, 1, 1]


def test_outdegrees_singleton_class_zero():
    W = HypothesisClass(k=2, n=3, hyps=((1, 2, 1),))
    G = build_oig(W)
    sigma, t = min_max_orientation(G, 1)
    assert outdegrees(G, sigma) == [0] and t == 0


def test_outdegree_sum_identity():
    rng = np.random.default_rng(12)
    for _ in range(10):
        W = random_class(rng, size_max=10)
        G = build_oig(W)
        sigma, _t = min_max_orientation(G, 1)
        total = sum(outdegrees(G, sigma))
        assert total == sum(len(e) - len(a) for e, (_d, _k, a) in zip(G.edges(), sigma.assign))


def test_max_outdegree_dominates_subfamily_density():
    # counting bound: no orientation can beat the densest subfamily
    rng = np.random.default_rng(13)
    for _ in range(10):
        W = random_class(rng, size_max=8)
        G = build_oig(W)
        _sigma, t = min_max_orientation(G, 1)
        for F in list(subclasses(W))[::7]:
            assert t >= naive_density(F, 1)


def test_outdegrees_rejects_foreign_and_overfull_assignments():
    # min_max_orientation turns these into CertificateError on a lying flow
    G = build_oig(gen_cube(2, 1, 2, 2))
    sigma, _t = min_max_orientation(G, 1)
    d, key, _got = sigma.assign[0]
    for chosen, message in (((9,), "non-member vertex"),
                            (G.by_direction[d][0].members, "exceeds list size")):
        bad = (d, key, chosen)
        with pytest.raises(ValueError, match=message):
            outdegrees(G, Orientation(ell=1, assign=(bad,) + sigma.assign[1:]))


def test_orientation_mismatch_detected():
    G1 = build_oig(gen_cube(2, 1, 2, 2))
    G2 = build_oig(gen_cube(3, 1, 1, 2))
    sigma, _t = min_max_orientation(G2, 1)
    with pytest.raises(ValueError, match="mismatched"):
        outdegrees(G1, sigma)


def test_orientation_json_schema():
    G = build_oig(gen_cube(2, 1, 2, 2))
    sigma, _t = min_max_orientation(G, 1)
    doc = json.loads(orientation_to_json(sigma))
    assert set(doc) == {"ell", "edges"}
    for e in doc["edges"]:
        assert set(e) == {"dir", "key", "assign"}
        assert 1 <= e["dir"] <= 2
        assert all(v >= 1 for v in e["assign"])


def test_ratio_format_roundtrip():
    x = Fraction(22, 7)
    assert parse_ratio(format_ratio(x)) == x
    assert format_ratio(Fraction(3)) == "3/1"
