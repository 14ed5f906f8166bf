import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from helpers import (enumerated_spanning, evaluate, fraction_rank, is_prime, random_class,
                     subclasses, uniform_bound, unpruned_mu_with_witness)
import dslab.algebra as algebra
from dslab.errors import BudgetError, CertificateError
from dslab.hclass import HypothesisClass, class_id, gen_cube, gen_random, restrict
from dslab.dims import ds_dimension
from dslab.algebra import (audit_theorem, check_spanning,
                           direction_subspace_dim, eval_matrix, extract_basis,
                           in_direction_subspace, monomial_set, rank_bareiss,
                           rank_exact, rank_mod_p)
from dslab.oig import (_densest_subfamily, _live_edges, build_oig, density,
                       max_density_subfamily, mu_with_witness)


def test_monomial_counts():
    W = HypothesisClass(k=2, n=1, hyps=((1,), (2,)))
    assert monomial_set(W, 1, 1) == [(0,), (1,)]
    assert monomial_set(gen_cube(2, 1, 2, 2), 1, 0) == [(0, 0)]
    # entries <= 2 with at most one nonzero coordinate
    assert len(monomial_set(gen_cube(3, 1, 2, 2), 1, 1)) == 5


def test_monomial_reduced_alphabet():
    # second coordinate realizes a single label, so its degree is pinned to 0
    W = gen_cube(3, 1, 1, 2)
    mons = monomial_set(W, 1, 2)
    assert all(alpha[1] == 0 for alpha in mons)
    assert len(mons) == 3


def test_monomial_budget():
    with pytest.raises(BudgetError):
        monomial_set(gen_cube(4, 1, 4, 4), 1, 4, budget=10)


def test_eval_matrix_vandermonde():
    W = HypothesisClass(k=2, n=1, hyps=((1,), (2,)))
    assert eval_matrix(W, monomial_set(W, 1, 1)) == ((1, 1), (1, 2))


def test_eval_matrix_values():
    W = HypothesisClass(k=3, n=2, hyps=((2, 3),))
    M = eval_matrix(W, monomial_set(W, 1, 2))
    assert M[0] == (1,)  # all-zero exponent row evaluates to 1
    assert evaluate((1, 2), (2, 3)) == 18


def test_rank_trivial_cases():
    assert rank_exact([[1, 1], [1, 2]]) == 2
    assert rank_exact([[1, 1, 1]] * 3) == 1
    assert rank_exact([]) == 0


@pytest.mark.parametrize("k,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_full_cube_eval_matrix_has_full_rank(k, n):
    W = gen_cube(k, 1, n, n)
    mat = eval_matrix(W, monomial_set(W, 1, n))
    assert rank_exact(mat) == k**n
    assert fraction_rank(mat) == k**n


def test_rank_matches_fraction_oracle():
    rng = np.random.default_rng(31)
    for _ in range(30):
        rows = rng.integers(-5, 6, size=(rng.integers(1, 7), rng.integers(1, 7)))
        mat = [list(map(int, r)) for r in rows]
        expected = fraction_rank(mat)
        assert rank_bareiss(mat) == expected
        assert rank_exact(mat) == expected
        assert rank_mod_p(mat, algebra.MODULUS) == expected


def test_rank_engineered_deficiency():
    # third row is a combination of the first two
    mat = [[2, 4, 6], [1, 0, 1], [3, 4, 7]]
    assert rank_exact(mat) == 2 == fraction_rank(mat)


def test_rank_exact_falls_back_where_the_modulus_divides_a_minor():
    # (1, 1 + p) is (1, 1) mod p, so the modular rank undershoots by one and
    # only the exact fallback sees rank 2; the third row (0, 1) is
    # ((1, 1 + p) - (1, 1)) / p, so the three rows still have rank 2
    p = algebra.MODULUS
    two = [(1, 1), (1, 1 + p)]
    assert rank_mod_p(two, p) == 1
    assert rank_exact(two) == 2 == fraction_rank(two)
    three = two + [(0, 1)]
    assert rank_exact(three) == 2 == fraction_rank(three)


def test_rank_exact_below_modular_rank_raises_certificate_error(monkeypatch):
    # a modular deficit falls back to Bareiss, whose rank may not undershoot
    monkeypatch.setattr(algebra, "rank_bareiss", lambda rows: 0)
    with pytest.raises(CertificateError):
        rank_exact([[2, 4, 6], [1, 0, 1], [3, 4, 7]])


def test_rank_low_rank_products():
    # products A @ B with inner dimension r force rank <= r and plenty of
    # pivot-column skipping during elimination
    rng = np.random.default_rng(37)
    for _ in range(25):
        m, n = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        r = int(rng.integers(1, min(m, n) + 1))
        A = rng.integers(-4, 5, size=(m, r))
        B = rng.integers(-4, 5, size=(r, n))
        mat = (A @ B).tolist()
        expected = fraction_rank(mat)
        assert expected <= r
        assert rank_bareiss(mat) == expected
        assert rank_exact(mat) == expected


@st.composite
def int_matrices(draw, shape):
    """Integer matrices with entries up to 10^30 in size, ``shape`` "tall"
    (more rows than columns), "wide" or "square"; some rows are combinations
    of the first two and some columns copies of the first, so ranks fall
    short of full on both sides."""
    short = draw(st.integers(1, 4))
    long = short + draw(st.integers(1, 4))
    n_rows, n_cols = {"tall": (long, short), "wide": (short, long),
                      "square": (short, short)}[shape]
    entry = st.integers(-10**30, 10**30) | st.integers(-2, 2)
    rows = [draw(st.lists(entry, min_size=n_cols, max_size=n_cols)) for _ in range(n_rows)]
    for r in range(2, n_rows):
        if draw(st.booleans()):
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows[r] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    for c in range(1, n_cols):
        if draw(st.booleans()):
            for row in rows:
                row[c] = row[0]
    return rows


@pytest.mark.parametrize("shape", ["tall", "wide", "square"])
@given(data=st.data())
def test_rank_paths_agree_on_every_shape(shape, data):
    rows = data.draw(int_matrices(shape))
    expected = fraction_rank(rows)
    assert rank_bareiss(rows) == expected
    assert rank_mod_p(rows, algebra.MODULUS) == expected
    assert rank_exact(rows) == expected


def test_rank_paths_on_empty_shapes():
    for rows in ([], [[]], [[], []]):
        assert rank_mod_p(rows, algebra.MODULUS) == rank_bareiss(rows) == 0
        assert fraction_rank(rows) == rank_exact(rows) == 0


@st.composite
def classes_with_monomials(draw):
    """A class over at most 3 coordinates and monomials in any order, with
    repeats, and exponents up to 4."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    cube = list(itertools.product(range(1, k + 1), repeat=n))
    rows = draw(st.sets(st.sampled_from(cube), min_size=1, max_size=min(8, len(cube))))
    W = HypothesisClass(k=k, n=n, hyps=tuple(sorted(rows)))
    alphas = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=12))
    if draw(st.booleans()):  # a shuffled full monomial set
        alphas += draw(st.permutations(monomial_set(W, 1, n)))
    return W, alphas


@example((HypothesisClass(k=4, n=1, hyps=((1,), (3,), (4,))),
          [(2,), (0,), (1,), (2,)]))
@example((gen_cube(3, 1, 2, 2), list(reversed(monomial_set(gen_cube(3, 1, 2, 2), 1, 2)))))
@given(classes_with_monomials())
def test_eval_matrix_matches_per_cell_oracle(case):
    W, mons = case
    assert eval_matrix(W, mons) == tuple(tuple(evaluate(m, h) for h in W.hyps) for m in mons)


def test_modulus_is_a_62_bit_prime():
    p = algebra.MODULUS
    assert p.bit_length() == 62 and is_prime(p)
    assert p == audit_theorem(gen_cube(2, 1, 2, 2), 1).modulus
    # the oracle itself: a Carmichael number, a strong pseudoprime to the
    # bases 2, 3, 5 and 7 (151 * 751 * 28351), and a Mersenne prime
    assert not is_prime(561) and not is_prime(3215031751) and not is_prime(1)
    assert is_prime(2**61 - 1)


def test_spanning_full_support_always_true():
    rng = np.random.default_rng(32)
    for _ in range(10):
        W = random_class(rng, size_max=10)
        ok, rank, size = check_spanning(W, 1, W.n)
        assert ok and rank == size == len(W)


def test_spanning_square_without_support_fails():
    ok, rank, size = check_spanning(gen_cube(2, 1, 2, 2), 1, 0)
    assert not ok and rank == 1 and size == 4


def test_spanning_at_ds_dimension():
    rng = np.random.default_rng(33)
    for _ in range(15):
        W = random_class(rng, size_max=10)
        for ell in (1, 2):
            s = ds_dimension(W, ell)[0]
            ok, _rank, _size = check_spanning(W, ell, s)
            assert ok


@pytest.mark.parametrize("k,n", [(2, 3), (3, 2)])
def test_spanning_matches_the_enumerated_rank_on_every_small_subclass(k, n):
    # every (subclass, ell, s) of [2]^3 and [3]^2: 5 106 cases, each
    # certificate's wrong turns included
    cube = HypothesisClass(k=k, n=n, hyps=tuple(itertools.product(range(1, k + 1), repeat=n)))
    for W in subclasses(cube):
        for ell in (1, 2):
            for s in range(n + 1):
                assert check_spanning(W, ell, s) == enumerated_spanning(W, ell, s), (W.hyps, ell, s)


# (rows over [2]^3, s) at ell = 1, the calls check_spanning makes, its answer
SPANNING_PATHS = [
    # every row has at most s heavy coordinates: no arithmetic at all
    (((1, 1, 1), (1, 2, 1), (2, 1, 1)), 1, [], (True, 3, 3)),
    # (0,1,1) keeps its first heavy coordinate: a full-rank 2x2 Newton matrix
    (((1, 1, 1), (1, 2, 2)), 1, ["rank_mod_p"], (True, 2, 2)),
    # (1,1,0) and (1,1,1) become (1,0,0) and (0,1,0), whose Newton rows are
    # equal on W, so the fallback ranks; it spans through (0,0,1)
    (((1, 1, 1), (2, 2, 1), (2, 2, 2)), 1,
     ["rank_mod_p", "monomial_set", "rank_exact", "rank_mod_p"], (True, 3, 3)),
    # as above, and the fallback finds the deficit the singular minor hid
    (((1, 1, 1), (1, 1, 2), (2, 2, 1), (2, 2, 2)), 1,
     ["rank_mod_p", "monomial_set", "rank_exact", "rank_mod_p"], (False, 3, 4)),
    # both lowerings of (0,1,1) are rows of W already: no minor to rank
    (((1, 1, 2), (1, 2, 1), (1, 2, 2)), 1, ["monomial_set", "rank_exact", "rank_mod_p"],
     (True, 3, 3)),
    # s = 0 lowers (0,0,1) to (0,0,0), which is taken
    (((1, 1, 1), (1, 1, 2)), 0, ["monomial_set", "rank_exact", "rank_mod_p"], (False, 1, 2)),
]


@pytest.mark.parametrize("rows,s,calls,answer", SPANNING_PATHS)
def test_each_spanning_certificate_settles_only_what_it_proves(rows, s, calls, answer,
                                                               monkeypatch):
    seen = []
    for name in ("monomial_set", "rank_exact", "rank_mod_p"):
        def record(*args, _name=name, _fn=getattr(algebra, name), **kwargs):
            seen.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(algebra, name, record)
    W = HypothesisClass(k=2, n=3, hyps=rows)
    assert check_spanning(W, 1, s) == answer
    assert seen == calls
    assert enumerated_spanning(W, 1, s) == answer


@pytest.mark.parametrize("rows,s,_calls,_answer", SPANNING_PATHS)
def test_spanning_budget_binds_where_the_enumerated_matrix_does(rows, s, _calls, _answer):
    # on every path: over |E| exponent tuples, then over |E| * |W| cells
    W = HypothesisClass(k=2, n=3, hyps=rows)
    count = len(monomial_set(W, 1, s))
    cells = count * len(W)
    for budget, message in [
            (count - 1, f"monomial enumeration exceeds budget {count - 1}"),
            (count, f"evaluation matrix of {cells} cells exceeds budget {count}"),
            (cells - 1, f"evaluation matrix of {cells} cells exceeds budget {cells - 1}"),
            (cells, None)]:
        for spanning in (lambda: check_spanning(W, 1, s, budget=budget),
                         lambda: eval_matrix(W, monomial_set(W, 1, s, budget=budget),
                                             budget=budget)):
            if message is None:
                spanning()
            else:
                with pytest.raises(BudgetError) as exc:
                    spanning()
                assert str(exc.value) == message


def test_direction_subspace_examples():
    W3 = gen_cube(3, 2, 1, 1)
    assert direction_subspace_dim(W3, 1, 1) == 1
    assert direction_subspace_dim(W3, 1, 2) == 2
    assert direction_subspace_dim(gen_cube(2, 1, 2, 2), 1, 1) == 2


def test_direction_subspace_matches_edge_formula():
    from dslab.oig import build_oig
    rng = np.random.default_rng(34)
    for _ in range(15):
        W = random_class(rng, size_max=10)
        G = build_oig(W)
        for i in range(1, W.n + 1):
            for ell in (1, 2):
                want = sum(min(ell, len(g)) for g in G.by_direction[i - 1])
                assert direction_subspace_dim(W, i, ell) == want


def test_direction_subspace_rank_mismatch_raises_certificate_error(monkeypatch):
    W = gen_cube(2, 1, 2, 2)
    formula = direction_subspace_dim(W, 1, 1)
    monkeypatch.setattr(algebra, "rank_exact", lambda rows: formula - 1)
    with pytest.raises(CertificateError, match="Vandermonde"):
        direction_subspace_dim(W, 1, 1)


@pytest.mark.parametrize("where", ["below", "above"])
@pytest.mark.parametrize("fn", [
    lambda W, i: direction_subspace_dim(W, i, 1),
    lambda W, i: in_direction_subspace(W, i, 1, [1, 2, 3]),
], ids=["direction_subspace_dim", "in_direction_subspace"])
def test_direction_out_of_range_raises_value_error(fn, where):
    W = gen_cube(3, 1, 1, 2)  # n = 2, three rows
    i = 0 if where == "below" else W.n + 1
    with pytest.raises(ValueError, match=f"direction {i} out of range"):
        fn(W, i)


def test_a_function_off_the_direction_subspace_is_refused():
    # on [3]^2 each direction-1 edge holds three rows; at ell = 1 the
    # subspace is the functions constant on every such edge, and the row
    # indices 0..8 are not
    W = gen_cube(3, 1, 2, 2)
    assert not in_direction_subspace(W, 1, 1, list(range(9)))
    assert in_direction_subspace(W, 1, 1, [h[1] for h in W.hyps])


def test_low_degree_monomials_live_in_direction_subspace():
    rng = np.random.default_rng(35)
    for _ in range(10):
        W = random_class(rng, size_max=9)
        ell = int(rng.integers(1, 3))
        mons = monomial_set(W, ell, W.n)
        for alpha, row in zip(mons, eval_matrix(W, mons)):
            for i in range(1, W.n + 1):
                if alpha[i - 1] < ell:
                    assert in_direction_subspace(W, i, ell, list(row))


def test_basis_counting_inequality():
    # any extracted basis has enough high-degree members per direction to
    # pay for every edge's oversize
    rng = np.random.default_rng(36)
    for _ in range(12):
        W = random_class(rng, size_max=9)
        for ell in (1, 2):
            s = ds_dimension(W, ell)[0]
            basis, _rows = extract_basis(W, ell, s)
            if len(basis) < len(W):
                continue  # spanning failed would be caught elsewhere
            from dslab.oig import build_oig
            G = build_oig(W)
            for i in range(W.n):
                heavy = sum(1 for alpha in basis if alpha[i] >= ell)
                oversize = sum(max(len(g) - ell, 0) for g in G.by_direction[i])
                assert heavy >= oversize


@given(st.integers(2, 4), st.integers(1, 3), st.integers(1, 3), st.data())
def test_extract_basis_keeps_the_rows_that_raise_the_rank(k, n, ell, data):
    cube = list(itertools.product(range(1, k + 1), repeat=n))
    rows = data.draw(st.sets(st.sampled_from(cube), min_size=1, max_size=min(14, len(cube))))
    W = HypothesisClass(k=k, n=n, hyps=tuple(sorted(rows)))
    for s in range(n + 1):
        mons = monomial_set(W, ell, s)
        full = eval_matrix(W, mons)
        ranks = [fraction_rank(full[:j]) for j in range(len(full) + 1)]
        want = [j for j in range(len(full)) if ranks[j + 1] > ranks[j]]
        basis, kept = extract_basis(W, ell, s)
        assert basis == [mons[j] for j in want]
        assert kept == tuple(full[j] for j in want)
        assert check_spanning(W, ell, s) == (ranks[-1] == len(W), ranks[-1], len(W))


def test_extract_basis_is_deterministic_and_spans():
    W = gen_cube(3, 1, 2, 2)
    b1, m1 = extract_basis(W, 1, 2)
    b2, m2 = extract_basis(W, 1, 2)
    assert b1 == b2
    assert rank_exact(m1) == len(W)


def test_audit_product_class():
    rep = audit_theorem(gen_cube(4, 1, 2, 3), 1)
    assert rep.mu_value == Fraction(3, 2)
    assert rep.ceil_mu == 2 and rep.d_ds == 2 and rep.t_star == 2
    assert rep.passed and rep.verdict == "PASS"
    assert rep.authoritative


def test_audit_singleton():
    rep = audit_theorem(HypothesisClass(k=3, n=2, hyps=((2, 1),)), 1)
    assert rep.mu_value == 0 and rep.d_ds == 0 and rep.t_star == 0
    assert rep.passed


def test_audit_matrix_budget_flags_partial():
    H = gen_random(2, 5, 30, seed=2)
    rep = audit_theorem(H, 1, matrix_budget=10)
    assert rep.authoritative is False
    # the density side is exact at every class size; only spanning is skipped
    assert rep.mu_value == Fraction(7, 3)
    assert rep.ceil_mu == 3 and rep.t_star == 3
    assert "spanning" not in rep.verdicts and rep.spanning_ok is None
    assert "lower_bound_only" not in rep.to_dict()
    assert rep.passed


@pytest.mark.parametrize("k, n, rows, seed, ell, want", [
    (3, 3, 23, 5, 1, Fraction(42, 23)),
    (3, 4, 40, 40, 2, Fraction(21, 25)),
])
def test_audit_past_former_cap_is_exact(k, n, rows, seed, ell, want):
    H = gen_random(k, n, rows, seed=seed)
    assert len(H) == rows
    rep = audit_theorem(H, ell)
    assert rep.authoritative and rep.verdict == "PASS"
    assert rep.mu_value == want
    assert rep.t_star == rep.ceil_mu == math.ceil(want)
    _val, _T, F = mu_with_witness(H, H.n, ell)
    assert density(F, ell) == want


def test_audit_report_serialization():
    rep = audit_theorem(gen_cube(3, 1, 1, 2), 1)
    doc = rep.to_dict()
    assert doc["mu"] == "2/3" and doc["verdict"] == "PASS"
    row = rep.csv_row()
    assert len(row) == len(rep.CSV_HEADER)
    assert rep.to_json() == audit_theorem(gen_cube(3, 1, 1, 2), 1).to_json()


def test_class_id_stable():
    assert class_id(gen_cube(2, 1, 2, 2)) == class_id(gen_cube(2, 1, 2, 2))
    assert class_id(gen_cube(2, 1, 2, 2)) != class_id(gen_cube(2, 1, 1, 2))


@st.composite
def audit_cases(draw):
    """A class with k <= 4, n <= 4 and at most 12 rows, an ell from 1 to 3
    and a sample size from 1 to n."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    cube = list(itertools.product(range(1, k + 1), repeat=n))
    rows = draw(st.sets(st.sampled_from(cube), min_size=1, max_size=min(12, len(cube))))
    H = HypothesisClass(k=k, n=n, hyps=tuple(sorted(rows)))
    return H, draw(st.integers(1, 3)), draw(st.integers(1, n))


@given(audit_cases())
def test_density_bound_and_restriction_memo_change_no_result(case):
    H, ell, ns = case
    assert mu_with_witness(H, ns, ell) == unpruned_mu_with_witness(H, ns, ell)
    # every restriction, also those the walk leaves out
    for size in range(1, min(ns, H.n) + 1):
        for T in itertools.combinations(range(1, H.n + 1), size):
            W = restrict(H, T)
            live = _live_edges(W, ell)
            assert live == [g.members for g in build_oig(W).edges() if len(g) > ell]
            # the uniform fractional orientation x(e, v) = ell/|e| bounds every
            # subfamily, so a search from a floor at that bound answers None
            bound = uniform_bound(live, len(W), ell)
            assert bound >= max_density_subfamily(W, ell)[0]
            assert _densest_subfamily(live, len(W), ell, bound) is None
    assert audit_theorem(H, ell, ns).to_json() == audit_theorem(H, ell, ns).to_json()
