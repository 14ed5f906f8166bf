import hashlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import dslab.oig as oig
from helpers import (brute_densest_rows, brute_max_density, brute_max_density_witness,
                     brute_min_max_outdegree, brute_mu, is_flat, naive_density,
                     naive_edges, random_class, scipy_flow_assignment, subclasses,
                     uniform_bound, unpruned_mu_with_witness)
from dslab.algebra import audit_theorem
from dslab.errors import BudgetError, CertificateError
from dslab.hclass import HypothesisClass, gen_cube, gen_random, restrict
from dslab.oig import (Orientation, build_oig, density, format_ratio, max_density_subfamily,
                       min_max_orientation, mu, mu_prime, mu_with_witness,
                       orientation_to_json, outdegrees)


def test_build_single_coordinate():
    G = build_oig(gen_cube(3, 2, 1, 1))
    assert len(G.by_direction) == 1 and G.n_edges == 1
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
@example(build_oig(HypothesisClass(k=3, n=2, hyps=((1, 1), (2, 1), (3, 3)))), 1)  # (3, 3): live degree 0
def test_orientation_flow_matches_scipy_oracle(G, ell):
    # on all of G's edges, where every sink arc is n_dirs - t, and on the
    # live ones that min_max_orientation solves, where a row's sink arc is
    # (d_v - t)_+ and may be 0 below t
    every = list(G.edges())
    for edges in (every, [e for e in every if len(e) > ell]):
        members = [e.members for e in edges]
        net = oig._Network(members, G.n_vertices, ell)
        first_row = net.n_edges + 1
        for t in range(len(G.by_direction) + 1):
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


def test_orientation_network_holds_only_the_live_edges(monkeypatch):
    # an edge with |e| <= ell keeps every member in every orientation, so it
    # never enters the network; dead directions hold only singletons.  The
    # network is built only when a row lies in more live edges than
    # ceil(excess / |W|); otherwise the first ell members reach that bound
    built = _recorded_networks(monkeypatch)
    rng = np.random.default_rng(23)
    flows = flat = small = 0
    for seed in range(60):
        dead = rng.choice(3, 1 + seed % 2, replace=False).tolist()
        G = build_oig(gen_random(3, 3, 14, seed), dead_dirs=dead)
        for ell in (1, 2):
            built.clear()
            sigma, _t = min_max_orientation(G, ell)
            live = [e.members for e in G.edges() if len(e) > ell]
            assert built == ([] if is_flat(live, G.n_vertices, ell) else [live])
            flows += bool(built)
            flat += bool(live) and not built
            for e, (_d, _key, chosen) in zip(G.edges(), sigma.assign):
                if len(e) <= ell:
                    assert chosen == e.members
                    small += 1
    assert flows > 30 and flat > 60 and small > 3000


@pytest.mark.parametrize("search", ["density", "orientation"])
def test_a_flow_that_routes_nothing_fails_the_cut_certificate(search, monkeypatch):
    # with no flow every row with a positive sink arc reaches the sink, and
    # that cut is never strictly denser than the lam that built it.  Only an
    # orientation can have no such row, when no row's live degree is above
    # its starting t: then its padded picks are certified without any flow.
    # A density balance that moves nothing and calls every row stuck offers
    # W, which is no denser than the lam it starts from
    cases = [(build_oig(gen_random(3, 3, 14, seed)), ell) for seed in range(25) for ell in (1, 2)]
    t_star = [min_max_orientation(G, ell)[1] for G, ell in cases]
    if search == "density":
        monkeypatch.setattr(oig, "_balance", lambda live, x, load, cap, unit: list(range(len(load))))
    else:
        monkeypatch.setattr(oig, "maximum_flow", lambda net, cap: None)
    raised = 0
    for (G, ell), want in zip(cases, t_star):
        try:
            if search == "density":
                max_density_subfamily(G.base, ell)
            else:
                sigma, t = min_max_orientation(G, ell)
        except CertificateError as exc:
            assert "found no subfamily denser" in str(exc)
            raised += 1
            continue
        assert search == "orientation" and t == want and max(outdegrees(G, sigma)) == t
        assert all(sum(v in e.members for e in G.edges() if len(e) > ell) <= t
                   for v in range(G.n_vertices))
    assert raised == len(cases) if search == "density" else 0 < raised < len(cases)


@pytest.mark.parametrize("search", ["density", "orientation", "audit"])
def test_a_flow_with_zeroed_sink_residuals_is_caught_or_harmless(search, monkeypatch):
    # a real flow that then claims every sink arc saturated, and a real
    # density balance that then claims every row balanced: their cuts and
    # stuck sets still rise, so only the fractional-orientation check can
    # see that they stopped below mu (e.g. 9/7 for 3/2 at seed 60, ell 1)
    run = {"density": max_density_subfamily,
           "orientation": lambda H, ell: min_max_orientation(build_oig(H), ell),
           "audit": audit_theorem}[search]
    honest = oig.maximum_flow, oig._balance

    def zeroed(net, cap):
        honest[0](net, cap)
        for a in net.sink_arcs:
            cap[a] = 0

    def short(live, x, load, cap, unit):
        honest[1](live, x, load, cap, unit)

    caught = 0
    for seed in range(200):
        H = gen_random(3, 3, 14, seed)
        for ell in (1, 2):
            want = run(H, ell)
            monkeypatch.setattr(oig, "maximum_flow", zeroed)
            monkeypatch.setattr(oig, "_balance", short)
            try:
                assert run(H, ell) == want
            except CertificateError as exc:
                assert "fractional orientation" in str(exc) or "outdegree" in str(exc)
                caught += 1
            monkeypatch.setattr(oig, "maximum_flow", honest[0])
            monkeypatch.setattr(oig, "_balance", honest[1])
    assert caught > 0 or search == "orientation"  # no zeroed orientation flow here misleads


def _warm_start_cases():
    """(W, ell, live edges, max density, its rows) on random classes, n = 1
    among them."""
    rng = np.random.default_rng(16)
    for trial in range(50):
        W = random_class(rng, n_max=1 if trial % 5 == 0 else 4, size_max=9)
        for ell in (1, 2):
            want, F = brute_max_density_witness(W, ell)
            yield W, ell, oig._live_edges(W, ell), want, tuple(W.row_index(h) for h in F.hyps)


def test_a_density_search_from_a_floor_below_the_maximum_ends_where_the_cold_one_does():
    for W, ell, live, want, rows in _warm_start_cases():
        own = naive_density(W, ell)
        assert oig._densest_subfamily(live, len(W), ell) == (want, rows)
        for floor in {Fraction(-1), Fraction(0), own, (own + want) / 2, want - Fraction(1, 97)}:
            if floor < want:
                assert oig._densest_subfamily(live, len(W), ell, floor) == (want, rows)
        assert mu_with_witness(W, W.n, ell) == unpruned_mu_with_witness(W, W.n, ell)


def test_density_searches_match_the_brute_force_over_every_row_set(monkeypatch):
    # value and smallest, then lexicographically first, maximizer against
    # all 2^|W| - 1 row sets, from floors below, at and above the maximum,
    # on every subclass of [3]^2 and [2]^3 and on 40 seeded 14-row classes.
    # Edges of 5 rows at ell 2 let a row hold a whole unit of an edge whose
    # other members still hold some: the balance must not walk out of it
    balances = _recorded_balances(monkeypatch)
    cases = [(H, ell) for cube in (gen_cube(3, 1, 2, 2), gen_cube(2, 1, 3, 3))
             for H in subclasses(cube) for ell in (1, 2)]
    cases += [(gen_random(k, n, 14, seed), ell)
              for seed in range(20) for k, n in ((3, 3), (5, 2)) for ell in (1, 2)]
    found = stepped = 0
    for W, ell in cases:
        live = oig._live_edges(W, ell)
        want, rows = brute_densest_rows(W, ell)
        own = naive_density(W, ell)
        for floor in {Fraction(-1), Fraction(0), own, (own + want) / 2, want - Fraction(1, 97)}:
            if floor < want:
                balances.clear()
                assert oig._densest_subfamily(live, len(W), ell, floor) == (want, rows)
                found += bool(balances)
                stepped += len(balances) > 1
        for floor in {want, want + Fraction(1, 3), uniform_bound(live, len(W), ell)}:
            assert oig._densest_subfamily(live, len(W), ell, floor) is None
    assert found > 3000 and stepped > 1500


def test_mu_over_heavy_coordinates_equals_the_full_walk_on_every_small_subclass():
    # every non-empty subclass of [3]^2 and [2]^3 and every sample size; on
    # those with no coordinate of more than ell labels mu is 0, and the
    # witness is still the full walk's first set and row
    for cube in (gen_cube(3, 1, 2, 2), gen_cube(2, 1, 3, 3)):
        for H in subclasses(cube):
            for ell in (1, 2):
                for ns in range(1, H.n + 1):
                    assert mu_with_witness(H, ns, ell) == unpruned_mu_with_witness(H, ns, ell)


def _recorded_networks(monkeypatch) -> list:
    """Record the edge list of every ``_Network`` built from now on."""
    built = []

    class Recorded(oig._Network):
        def __init__(self, edges, n_rows, ell):
            built.append(list(edges))
            super().__init__(edges, n_rows, ell)

    monkeypatch.setattr(oig, "_Network", Recorded)
    return built


def _recorded_balances(monkeypatch) -> list:
    """Record what every ``_balance`` from now on returns: None once
    balanced, or the stuck rows, which must be denser than cap / unit."""
    honest, balances = oig._balance, []

    def recorded(live, x, load, cap, unit):
        ell = sum(x[0]) // unit  # each live edge's entries start at ell * unit
        balances.append(honest(live, x, load, cap, unit))
        if balances[-1] is not None:
            stuck = set(balances[-1])
            excess = sum(max(len(stuck.intersection(e)) - ell, 0) for e in live)
            assert excess * unit > cap * len(stuck), "stuck rows no denser than the cap"
        return balances[-1]

    monkeypatch.setattr(oig, "_balance", recorded)
    return balances


def test_a_density_search_settled_with_no_flow_matches_the_brute_force_witness(monkeypatch):
    # when every row carries the uniform bound, W is a maximizer and the
    # smallest, then first, maximizer is the smallest, then first, connected
    # component of the live edges, with no balance run
    balances = _recorded_balances(monkeypatch)
    cases = [(H, ell) for cube in (gen_cube(3, 1, 2, 2), gen_cube(2, 1, 3, 3))
             for H in subclasses(cube) for ell in (1, 2)]
    cases += [(W, ell) for W, ell, _live, _want, _rows in _warm_start_cases()]
    settled = split = 0
    for W, ell in cases:
        live = oig._live_edges(W, ell)
        balances.clear()
        got = oig._densest_subfamily(live, len(W), ell)
        if balances or not live:
            continue
        want, F = brute_max_density_witness(W, ell)
        assert got == (want, tuple(W.row_index(h) for h in F.hyps))
        assert want == naive_density(W, ell) == uniform_bound(live, len(W), ell)
        settled += 1
        split += len(got[1]) < len(W)
    assert settled > 100 and split > 20


def test_a_flat_orientation_reaches_the_brute_force_minimum(monkeypatch):
    # when no row lies in more live edges than t0 = ceil(excess / |W|), the
    # first ell members of each edge reach t0, which no orientation beats
    built = _recorded_networks(monkeypatch)
    rng = np.random.default_rng(28)
    flat = 0
    for _ in range(600):
        G = build_oig(random_class(rng, k_max=3, n_max=3, size_max=8))
        for ell in (1, 2):
            live = [e for e in G.edges() if len(e) > ell]
            if not live or math.prod(math.comb(len(e), ell) for e in live) > 5000:
                continue
            built.clear()
            sigma, t = min_max_orientation(G, ell)
            if built:
                continue
            assert t == brute_min_max_outdegree(G, ell) == max(outdegrees(G, sigma))
            flat += 1
    assert flat > 200


def test_a_density_search_builds_no_network_and_balances_once_from_a_floor_at_the_maximum(monkeypatch):
    # no density search builds a cut network.  A floor at or above the
    # uniform bound is settled with no balance; any other floor at or above
    # the maximum takes exactly one, which ends balanced
    built = _recorded_networks(monkeypatch)
    cases = [(W, ell, live, want) for W, ell, live, want, _rows in _warm_start_cases()]
    for seed in range(20):
        H = gen_random(3, 3, 14, seed)
        for ell in (1, 2):
            live = oig._live_edges(H, ell)
            cases.append((H, ell, live, oig._densest_subfamily(live, len(H), ell)[0]))
    balances = _recorded_balances(monkeypatch)
    settled = balanced = 0
    for W, ell, live, want in cases:
        bound = uniform_bound(live, len(W), ell)
        for floor in {want, (want + bound) / 2, want + Fraction(1, 3), want + 2}:
            balances.clear()
            assert oig._densest_subfamily(live, len(W), ell, floor) is None
            assert balances == ([] if bound <= floor else [None])
            settled += bool(live) and not balances
            balanced += bool(balances)
    assert settled > 100 and balanced > 100 and built == []


def test_a_zeroed_flow_at_a_floor_below_the_maximum_is_caught(monkeypatch):
    # the warm start's one-balance answer rests on the dual check alone: a
    # balance that claims every row balanced below the maximum must fail it
    honest = oig._balance

    def short(live, x, load, cap, unit):  # moves load honestly, never reports stuck rows
        honest(live, x, load, cap, unit)

    cases = []
    for seed in range(60):
        H = gen_random(3, 3, 14, seed)
        for ell in (1, 2):
            live = oig._live_edges(H, ell)
            want = oig._densest_subfamily(live, len(H), ell)[0]
            own = naive_density(H, ell)
            cases += [(H, ell, live, floor) for floor in (own, (own + want) / 2) if floor < want]
    monkeypatch.setattr(oig, "_balance", short)
    for H, ell, live, floor in cases:
        with pytest.raises(CertificateError, match="outdegree .* > lam"):
            oig._densest_subfamily(live, len(H), ell, floor)
    assert len(cases) > 50


@pytest.mark.parametrize("flows, lam, fails", [
    ([[1, 1, 1]], (2, 3), None),
    ([[2, 1, 0]], (2, 3), "leaves row 2 outdegree 1 > lam"),
    ([[2, 2, 1]], (2, 3), "no fractional orientation"),
    ([[4, -1, 0]], (2, 3), "no fractional orientation"),
    ([[1, 1]], (2, 3), "no fractional orientation"),
    ([], (2, 3), "covers 0 of 1 edges"),
    ([[0, 0, 0]], (1, 2), "outdegree 1 > lam"),
    # lam = 2/3 at the unit 6: x is in sixths, and messages read lam reduced
    ([[2, 2, 2]], (4, 6), None),
    ([[3, 2, 1]], (4, 6), "lam=2/3 leaves row 2 outdegree 5/6 > lam"),
    ([[3, 3, 1]], (4, 6), "lam=2/3 is no fractional orientation"),
])
def test_fractional_orientation_certificate(flows, lam, fails):
    # one edge of three rows at ell 1 has density 2/3; at lam = 2/3 the one
    # certificate gives each row a third of the edge's one pick
    if fails is None:
        oig._check_fractional_orientation([(0, 1, 2)], 1, *lam, flows)
    else:
        with pytest.raises(CertificateError, match=fails):
            oig._check_fractional_orientation([(0, 1, 2)], 1, *lam, flows)


def test_every_answer_is_certified_once(monkeypatch):
    # the orientation is checked as returned, 0/1 choices at lam = t, not as
    # the raw flow it was read from, also when no flow ran; the density
    # search runs no cut search and checks the x of its last balance at
    # lam = cap / unit, or, when it runs none, the uniform fractional
    # orientation x(e, v) = ell/|e| in units of the lcm of |e|
    checks, searches, balances, answers = [], [], [], []
    check, search = oig._check_fractional_orientation, oig._cut_search
    balance, densest = oig._balance, oig._densest_subfamily

    def record_check(edges, ell, p, q, flows):
        checks.append((list(edges), ell, p, q, [list(xs) for xs in flows]))
        check(edges, ell, p, q, flows)

    def record_search(*args):
        searches.append(search(*args))
        return searches[-1]

    def record_balance(live, x, load, cap, unit):
        got = balance(live, x, load, cap, unit)
        balances.append(([list(xs) for xs in x], cap, unit, got))
        return got

    def record_densest(live, n_rows, ell, floor):
        checks.clear(), searches.clear(), balances.clear()
        got = densest(live, n_rows, ell, floor)
        answers.append((list(live), n_rows, ell, got, list(checks), list(searches), list(balances)))
        return got

    monkeypatch.setattr(oig, "_check_fractional_orientation", record_check)
    monkeypatch.setattr(oig, "_cut_search", record_search)
    monkeypatch.setattr(oig, "_balance", record_balance)
    monkeypatch.setattr(oig, "_densest_subfamily", record_densest)
    padded = flat = 0
    for seed in range(60):
        H = gen_random(3, 3, 14, seed=seed)
        G = build_oig(H)
        for ell in (1, 2):
            checks.clear(), searches.clear()
            sigma, t = min_max_orientation(G, ell)
            live = [(e, chosen) for e, (_d, _key, chosen) in zip(G.edges(), sigma.assign)
                    if len(e) > ell]
            picks = [[int(v in chosen) for v in e.members] for e, chosen in live]
            assert checks == [([e.members for e, _chosen in live], ell, t, 1, picks)]
            if searches:
                (_lam, _cap, raw), = searches
                padded += picks != raw
            else:
                flat += 1
        for ell in (1, 2):
            mu_with_witness(H, 3, ell)
    assert flat > 10 and padded == 120 - flat
    kinds = {"none": 0, "tight": 0, "balanced": 0, "stepped": 0}
    for live, n_rows, ell, got, done, ran, moved in answers:
        assert ran == []
        if not live:
            assert done == [] and moved == []
            continue
        if moved:
            *stuck, (x, cap, unit, last) = moved
            assert last is None and all(rows for _x, _cap, _unit, rows in stuck)
            assert done == [(live, ell, cap, unit, x)]
            kinds["balanced"] += 1
            kinds["stepped"] += bool(stuck)
            continue
        q = math.lcm(*map(len, live))
        p = uniform_bound(live, n_rows, ell) * q
        assert p.denominator == 1
        assert done == [(live, ell, p, q, [[ell * q // len(e)] * len(e) for e in live])]
        kinds["none" if got is None else "tight"] += 1
    assert kinds["stepped"] > 20 and min(kinds[k] for k in ("none", "tight", "balanced")) > 100



def test_mu_refuses_no_samples():
    H = gen_cube(2, 1, 2, 2)
    for search in (lambda: mu(H, 0, 1), lambda: mu_with_witness(H, 0, 1), lambda: mu_prime(H, 0)):
        with pytest.raises(ValueError, match="n_samples"):
            search()


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
    assert Fraction(format_ratio(x)) == x
    assert format_ratio(Fraction(3)) == "3/1"


# sha256 of every (mu, T_star, witness rows) and (t_star, orientation JSON)
# below, computed while every density search and orientation ran a flow
GOLDEN_DIGEST = "939f8239b8ad6334c10fd53532ffae10aaaa2efe48eac6c905a6918b6bdac151"


def test_densities_witnesses_and_orientations_are_pinned():
    rng = np.random.default_rng(28)
    classes = [random_class(rng, k_max=4, n_max=4, size_max=16) for _ in range(200)]
    classes += [gen_random(3, 3, 14, seed) for seed in range(40)]
    digest = hashlib.sha256()
    for H in classes:
        for ell in (1, 2, 3):
            val, T, F = mu_with_witness(H, H.n, ell)
            sigma, t = min_max_orientation(build_oig(H), ell)
            line = f"{format_ratio(val)} {T} {F.hyps} {t} {orientation_to_json(sigma)}\n"
            digest.update(line.encode())
    assert digest.hexdigest() == GOLDEN_DIGEST
