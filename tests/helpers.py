"""Independent brute-force oracles used to pin expected values.

Everything here recomputes quantities from first principles, avoiding the
library's hashing/bitmask/flow shortcuts, so the two paths can check each
other.
"""

from fractions import Fraction
from itertools import combinations, product

from dslab.hclass import HypothesisClass


def naive_edges(W: HypothesisClass) -> list[tuple[int, tuple[int, ...]]]:
    """Edges by all-pairs scanning: (direction, sorted member indices)."""
    edges = []
    for i in range(W.n):
        seen = set()
        for v in range(len(W)):
            if v in seen:
                continue
            members = tuple(
                u for u in range(len(W))
                if all(W.hyps[u][j] == W.hyps[v][j] for j in range(W.n) if j != i)
            )
            edges.append((i, members))
            seen.update(members)
    return edges


def naive_density(W: HypothesisClass, ell: int) -> Fraction:
    num = sum(max(len(m) - ell, 0) for _i, m in naive_edges(W))
    return Fraction(num, len(W))


def subclasses(W: HypothesisClass):
    """All non-empty subfamilies, as classes."""
    for size in range(1, len(W) + 1):
        for rows in combinations(W.hyps, size):
            yield HypothesisClass(k=W.k, n=W.n, hyps=rows)


def brute_max_density(W: HypothesisClass, ell: int) -> Fraction:
    return max(naive_density(F, ell) for F in subclasses(W))


def brute_max_density_witness(W: HypothesisClass, ell: int) -> tuple[Fraction, HypothesisClass]:
    """Maximum density and its first maximizer in ``subclasses()`` order:
    smallest size first, then lexicographically first rows."""
    best = None
    for F in subclasses(W):
        val = naive_density(F, ell)
        if best is None or val > best[0]:
            best = (val, F)
    return best


def brute_densest_rows(W: HypothesisClass, ell: int) -> tuple[Fraction, tuple[int, ...]]:
    """Maximum density over all 2^|W| - 1 non-empty row sets F, each scored
    on ``naive_edges(W)`` as sum of (|e & F| - ell)_+ over |F|, and the
    smallest, then lexicographically first, maximizer as ascending row
    indices.  The row sets are int64 bitmasks, counted with numpy."""
    import math

    import numpy as np

    n = len(W)
    masks = np.arange(1, 1 << n, dtype=np.int64)
    excess = np.zeros(len(masks), dtype=np.int64)
    for _i, members in naive_edges(W):
        hit = np.bitwise_count(masks & sum(1 << v for v in members)).astype(np.int64)
        excess += np.maximum(hit - ell, 0)
    common = math.lcm(*range(1, n + 1))  # compare excess/|F| over one denominator
    score = excess * (common // np.bitwise_count(masks).astype(np.int64))
    top = int(score.max())
    rows = min((tuple(v for v in range(n) if m >> v & 1) for m in masks[score == top].tolist()),
               key=lambda r: (len(r), r))
    return Fraction(top, common), rows


def brute_mu(H: HypothesisClass, n_samples: int, ell: int) -> Fraction:
    from dslab.hclass import restrict

    best = Fraction(0)
    for size in range(1, min(n_samples, H.n) + 1):
        for T in combinations(range(1, H.n + 1), size):
            best = max(best, brute_max_density(restrict(H, T), ell))
    return best


def unpruned_mu_with_witness(H: HypothesisClass, n_samples: int, ell: int):
    """``mu_with_witness`` with no floor and no skipped coordinate: every
    restriction goes through ``max_density_subfamily``, and the best is
    replaced only on a strict increase."""
    from dslab.hclass import restrict
    from dslab.oig import max_density_subfamily

    best = (Fraction(-1), (), None)
    for size in range(1, min(n_samples, H.n) + 1):
        for T in combinations(range(1, H.n + 1), size):
            val, F = max_density_subfamily(restrict(H, T), ell)
            if val > best[0]:
                best = (val, T, F)
    return best


def uniform_bound(live, n_rows: int, ell: int) -> Fraction:
    """The density bound of the uniform fractional orientation
    x(e, v) = ell/|e| on the ``live`` edges: the largest sum over the live
    edges e at a row of (|e| - ell)/|e| (0 with no live edge)."""
    return max((sum(Fraction(len(e) - ell, len(e)) for e in live if v in e)
                for v in range(n_rows)), default=Fraction(0))


def is_flat(live, n_rows: int, ell: int) -> bool:
    """Is every row in at most ceil(excess / n_rows) of the ``live`` edges,
    excess the sum of |e| - ell over them?"""
    t0 = -(-sum(len(e) - ell for e in live) // n_rows)
    return all(sum(v in e for e in live) <= t0 for v in range(n_rows))


def brute_min_max_outdegree(G, ell: int) -> int:
    """Exhaustive search over all orientations with full-size assignments."""
    edges = list(G.edges())
    options = []
    for e in edges:
        w = min(ell, len(e))
        options.append([frozenset(c) for c in combinations(e.members, w)])
    best = None
    for choice in product(*options):
        out = [0] * G.n_vertices
        for e, chosen in zip(edges, choice):
            for v in e.members:
                if v not in chosen:
                    out[v] += 1
        worst = max(out)
        if best is None or worst < best:
            best = worst
    return best


def scipy_flow_assignment(G, edges, ell: int, t: int):
    """Per-edge covered-vertex sets of scipy's max-flow on the orientation
    network of ``edges`` (edge groups of G) at max outdegree t, or None if t
    is not achievable on them.  Row v's sink arc is (d_v - t)_+, d_v the
    number of ``edges`` at v."""
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    V = G.n_vertices
    need = [0] * V
    for e in edges:
        for v in e.members:
            need[v] += 1
    need = [max(d - t, 0) for d in need]
    E = len(edges)
    source, sink = 0, 1 + E + V
    rows, cols, caps = [], [], []
    for j, e in enumerate(edges):
        rows.append(source)
        cols.append(1 + j)
        caps.append(min(ell, len(e)))
        for v in e.members:
            rows.append(1 + j)
            cols.append(1 + E + v)
            caps.append(1)
    for v in range(V):
        if need[v]:
            rows.append(1 + E + v)
            cols.append(sink)
            caps.append(need[v])
    graph = csr_matrix((np.array(caps, dtype=np.int32), (rows, cols)),
                       shape=(sink + 1, sink + 1))
    res = maximum_flow(graph, source, sink)
    if res.flow_value != sum(need):
        return None
    flow = res.flow.tocsr()
    picked = []
    for j in range(E):
        a, b = flow.indptr[1 + j], flow.indptr[2 + j]
        picked.append({int(c) - 1 - E for c, f in zip(flow.indices[a:b], flow.data[a:b]) if f > 0})
    return picked


def is_valid_subfamily(F: HypothesisClass, ell: int) -> bool:
    """Does every member of F have >= ell i-neighbors in F in every direction i?"""
    return all(
        sum(1 for g in F.hyps if g[i] != h[i] and g[:i] + g[i + 1:] == h[:i] + h[i + 1:]) >= ell
        for h in F.hyps for i in range(F.n))


def brute_largest_valid_subfamily(W: HypothesisClass, ell: int) -> HypothesisClass | None:
    """Union of all valid subfamilies of W (see ``is_valid_subfamily``), or
    None when there is none."""
    union = set()
    for F in subclasses(W):
        if is_valid_subfamily(F, ell):
            union.update(F.hyps)
    return HypothesisClass(k=W.k, n=W.n, hyps=tuple(sorted(union))) if union else None


def uncapped_dimension(H: HypothesisClass, ell: int, kind: str):
    """(d, witness) of ``ds_dimension`` (``kind`` "DS") or of
    ``natarajan_dimension`` ("Natarajan") by the top-down search from all n
    coordinates, with no cap from the row count: the first set, over sizes
    n..1 and lexicographically within a size, whose restriction the
    library's probe maps to a family."""
    from dslab.dims import ShatterWitness, _product_family, ds_shatter_core
    from dslab.hclass import restrict

    if kind == "Natarajan" and ell + 1 > H.k:
        return 0, None
    for size in range(H.n, 0, -1):
        for S in combinations(range(1, H.n + 1), size):
            W = restrict(H, S)
            fam = ds_shatter_core(W, ell) if kind == "DS" else _product_family(W, ell + 1)
            if fam is not None:
                return size, ShatterWitness(coords=S, subfamily=fam, kind=kind, ell=ell)
    return 0, None


def brute_vc(H: HypothesisClass) -> int:
    """Largest d with some d coordinates on which H realizes all 2^d label
    patterns; binary classes."""
    for d in range(H.n, 0, -1):
        for S in combinations(range(H.n), d):
            if len({tuple(h[c] for c in S) for h in H.hyps}) == 1 << d:
                return d
    return 0


def evaluate(alpha: tuple[int, ...], row: tuple[int, ...]) -> int:
    """The monomial with exponent tuple ``alpha`` at ``row``, cell by cell."""
    val = 1
    for base, exp in zip(row, alpha):
        val *= base**exp
    return val


def fraction_rank(rows) -> int:
    """Plain Gaussian elimination over exact rationals."""
    mat = [[Fraction(v) for v in row] for row in rows]
    if not mat or not mat[0]:
        return 0
    n_rows, n_cols = len(mat), len(mat[0])
    rank = 0
    for col in range(n_cols):
        piv = next((r for r in range(rank, n_rows) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(rank + 1, n_rows):
            if mat[r][col]:
                f = mat[r][col] / mat[rank][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def enumerated_spanning(W: HypothesisClass, ell: int, s: int) -> tuple[bool, int, int]:
    """``check_spanning`` by enumeration alone: every exponent tuple of
    ``monomial_set``, evaluated cell by cell, ranked over the rationals."""
    from dslab.algebra import monomial_set

    rank = fraction_rank([[evaluate(alpha, w) for w in W.hyps]
                          for alpha in monomial_set(W, ell, s)])
    return rank == len(W), rank, len(W)


def is_prime(n: int) -> bool:
    """Miller-Rabin over the twelve prime bases up to 37: exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x not in (1, n - 1) and all((x := x * x % n) != n - 1 for _ in range(r - 1)):
            return False
    return True


def random_class(rng, k_max=4, n_max=4, size_max=12) -> HypothesisClass:
    from dslab.hclass import gen_random

    k = int(rng.integers(2, k_max + 1))
    n = int(rng.integers(1, n_max + 1))
    size = int(rng.integers(1, min(size_max, k**n) + 1))
    return gen_random(k, n, size, seed=int(rng.integers(0, 2**31)))


def graph_prediction(H: HypothesisClass, state, x: int, ell: int):
    """The one-inclusion list prediction as the graph objects give it:
    restrict H to the trained coordinates and x, build the whole graph with
    every coordinate seen more than once dead, orient all its edges with
    ``min_max_orientation``, and scan the orientation for the test edge that
    the training labels key.  Raises RealizabilityError when none does."""
    from dslab.errors import RealizabilityError
    from dslab.hclass import restrict
    from dslab.learn import ListPrediction
    from dslab.oig import build_oig, min_max_orientation

    trained = {c: y for c, y, _once in state}
    if x in trained:
        return ListPrediction((trained[x],))
    coords = tuple(sorted(trained)) + (x,)
    W = restrict(H, coords)
    dead = [p for p, (_c, _y, once) in enumerate(state) if not once]
    G = build_oig(W, dead_dirs=dead)
    sigma, _t = min_max_orientation(G, ell)
    test_pos = len(coords) - 1
    target_key = tuple(trained[c] for c in coords[:-1])
    for d, key, chosen in sigma.assign:
        if d == test_pos and key == target_key:
            return ListPrediction(tuple(sorted(W.hyps[v][test_pos] for v in chosen)))
    raise RealizabilityError("no edge matches the training labels")


# -- per-point oracles for the agnostic stages --------------------------------
# Each asks a predictor or the menu at every sample point, as the stages did
# before they ran on [x, y] tables, and keeps boosting's weights as Fractions.


def per_point_boost_member(H: HypothesisClass, points, d: int, j: int, ell: int, rng):
    """Subsamples ``agnostic._boost_member`` should choose for ``points``, or
    None when some round finds no weak subsample.  Draws from ``rng`` as it
    does: the float probabilities are the correctly rounded quotients of
    the exact weights."""
    import numpy as np
    from dslab.agnostic import BOOST_BUDGET
    from dslab.learn import oig_list_predict

    if not points:
        return ()
    weights = [Fraction(1)] * len(points)
    chosen = []
    for _round in range(j):
        total = sum(weights)
        p = np.array([float(w / total) for w in weights])
        for _attempt in range(BOOST_BUDGET):
            picks = rng.choice(len(points), size=d, p=p)
            sub = tuple(points[int(i)] for i in picks)
            hits = [y in oig_list_predict(H, sub, x, ell) for x, y in points]
            if sum(w for w, hit in zip(weights, hits) if not hit) <= total / 3:
                break
        else:
            return None
        chosen.append((sub, hits))
        weights = [w / 2 if hit else w for w, hit in zip(weights, hits)]
        if all(any(h[i] for _s, h in chosen) for i in range(len(points))):
            break
    return tuple(sub for sub, _hits in chosen)


def per_point_mw_menu(F, S2, rng):
    """(trace, rewards, weight_history) of ``agnostic.mw_menu``, with each
    round's union rebuilt from the members selected before it."""
    import math

    import numpy as np

    weights = np.ones(len(F.members))
    trace, rewards, history, selected = [], [], [], []
    for t, (x, y) in enumerate(S2, start=1):
        history.append(tuple(float(w) for w in weights))
        m_idx = int(rng.choice(len(weights), p=weights / weights.sum()))
        trace.append((t, m_idx))
        union = set()
        for m in selected:
            union.update(F.members[m].predict(x))
        r = tuple(1 if y in member.predict(x) and y not in union else 0
                  for member in F.members)
        rewards.append(r)
        for m, reward in enumerate(r):
            if reward:
                weights[m] *= math.exp(0.5)
        selected.append(m_idx)
    history.append(tuple(float(w) for w in weights))
    return tuple(trace), tuple(rewards), tuple(history)


def per_point_inside_menu(H: HypothesisClass, menu, S):
    """Inside-menu losses of every hypothesis, the ERM index, S+ in sample
    order and the menu-consistent hypothesis indices, point by point."""
    losses = [Fraction(sum(1 for x, y in S if y in menu.predict(x) and h[x - 1] != y), len(S))
              for h in H.hyps]
    erm = min(range(len(H)), key=lambda i: (losses[i], i))
    s_plus = [(x, y) for x, y in S if y in menu.predict(x) and H.hyps[erm][x - 1] == y]
    consistent = [i for i, h in enumerate(H.hyps)
                  if all(h[x - 1] in menu.predict(x) for x, _y in s_plus)]
    return losses, erm, s_plus, consistent


def per_point_predictor_loss(predict, menu, S) -> Fraction:
    """Inside-menu loss of a list predictor, asking it at every point of S."""
    return Fraction(sum(1 for x, y in S if y in menu.predict(x) and y not in predict(x)),
                    len(S))


def per_prefix_states(table, sample, t_start: int):
    """The state ``table`` builds for every prefix ``sample[:t]``,
    consolidated from scratch, t_start <= t < len(sample)."""
    from dslab.learn import _consolidate

    return [table.state(*_consolidate(sample[:t], table.H)) for t in range(t_start, len(sample))]


# -- per-point oracles for exact evaluation over a distribution's support ------
# The library sums masks over the support on one common denominator; these
# add Fraction weights point by point, as evaluation did before.


def per_point_list_error(D, predict) -> Fraction:
    """Miss probability of a list predictor, asking it at every support point."""
    return sum((w for (x, y), w in zip(D.support, D.weights) if y not in predict(x)),
               Fraction(0))


def per_point_best_hypothesis(D, H: HypothesisClass) -> tuple[int, Fraction]:
    """The first hypothesis with the least error under D, and that error."""
    best_idx, best_err = 0, None
    for idx, h in enumerate(H.hyps):
        e = sum((w for (x, y), w in zip(D.support, D.weights) if h[x - 1] != y), Fraction(0))
        if best_err is None or e < best_err:
            best_idx, best_err = idx, e
    return best_idx, best_err


def per_point_decomposition(D, best_h, menu_predict, member_predict):
    """The agnostic pipeline's three decomposition terms: the best
    hypothesis's label outside the menu, outside its cover member, and the
    member's labels outside the menu."""
    def mass(keep):
        return sum((w for (x, y), w in zip(D.support, D.weights) if keep(x, y)), Fraction(0))

    return (mass(lambda x, y: best_h[x - 1] == y and y not in menu_predict(x)),
            mass(lambda x, y: best_h[x - 1] == y and y not in member_predict(x)),
            mass(lambda x, y: y in member_predict(x) and y not in menu_predict(x)))
