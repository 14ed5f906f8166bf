"""One-inclusion hypergraphs, exact densities, and list orientations.

The one-inclusion graph of a class W over n coordinates has W as its vertex
set and, for every direction i, one edge per distinct off-i behavior grouping
all vertices that agree everywhere except coordinate i.  Every vertex is
adjacent to exactly n edges (singleton edges included).

Densities are exact rationals throughout: dens_ell(W) = (1/|W|) * sum over
edges of max(|e| - ell, 0).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .errors import BudgetError, CertificateError
from .hclass import HypothesisClass, restrict

__all__ = [
    "EdgeGroup",
    "OneInclusionGraph",
    "Orientation",
    "build_oig",
    "density",
    "max_density_subfamily",
    "mu",
    "mu_with_witness",
    "mu_prime",
    "min_max_orientation",
    "outdegrees",
    "orientation_to_json",
    "format_ratio",
    "parse_ratio",
    "DEFAULT_SUBSET_CAP",
]

# Row budget of the subfamily searches (--budget-subsets).  mu_prime enumerates
# 2^|W| subsets; the exact density search takes polynomial time but still
# refuses larger classes, past which the audit reports only a lower bound.
DEFAULT_SUBSET_CAP = 22


@dataclass(frozen=True)
class EdgeGroup:
    """One hyperedge: all vertices sharing ``key`` off ``direction``.

    ``direction`` is 0-based internally; ``members`` are ascending vertex
    indices into the canonical row order of the base class; ``mask`` is the
    same membership as a bitmask.
    """

    direction: int
    key: tuple[int, ...]
    members: tuple[int, ...]

    @property
    def mask(self) -> int:
        m = 0
        for v in self.members:
            m |= 1 << v
        return m

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class OneInclusionGraph:
    base: HypothesisClass
    by_direction: tuple[tuple[EdgeGroup, ...], ...]

    @property
    def n_directions(self) -> int:
        return len(self.by_direction)

    @property
    def n_vertices(self) -> int:
        return len(self.base)

    def edges(self) -> Iterator[EdgeGroup]:
        for groups in self.by_direction:
            yield from groups

    @property
    def n_edges(self) -> int:
        return sum(len(g) for g in self.by_direction)


@dataclass(frozen=True)
class Orientation:
    """Per-edge assignment of at most ``ell`` member vertices.

    Assignments are stored in the same (direction, key) order as the graph's
    edges; after normalization every edge is assigned min(ell, |e|) members.
    """

    ell: int
    assign: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]  # (dir, key, vertices)


def build_oig(W: HypothesisClass, dead_dirs: Sequence[int] = ()) -> OneInclusionGraph:
    """Group the vertices of ``W`` into edges, one partition per direction.

    ``dead_dirs`` (0-based) forces those directions into singleton edges.
    This models directions that correspond to repeated sample coordinates:
    two hypotheses that agree off such a position also agree on it, so no
    non-trivial edge can exist there.
    """
    dead = frozenset(dead_dirs)
    dirs = []
    for i in range(W.n):
        if i in dead:
            groups = tuple(
                EdgeGroup(i, h[:i] + h[i + 1:], (v,)) for v, h in enumerate(W.hyps)
            )
        else:
            buckets: dict[tuple[int, ...], list[int]] = {}
            for v, h in enumerate(W.hyps):
                buckets.setdefault(h[:i] + h[i + 1:], []).append(v)
            groups = tuple(
                EdgeGroup(i, key, tuple(vs)) for key, vs in sorted(buckets.items())
            )
        assert sum(len(g) for g in groups) == len(W)  # partition per direction
        dirs.append(groups)
    return OneInclusionGraph(base=W, by_direction=tuple(dirs))


def density(W: HypothesisClass, ell: int, graph: OneInclusionGraph | None = None) -> Fraction:
    """Exact ell-density of ``W``: average per-vertex edge oversize."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    G = graph if graph is not None else build_oig(W)
    num = sum(max(len(g) - ell, 0) for g in G.edges())
    val = Fraction(num, len(W))
    assert 0 <= val <= W.n
    return val


# -- exact subfamily search --------------------------------------------------
#
# The edges of a subfamily F <= W are exactly W's edges intersected with F,
# so every subfamily's density is a function of W's live edges (|e| > ell)
# alone.  The excess f(F) = sum over live edges of (|e & F| - ell)_+ is
# supermodular (a convex function of a modular one), so max f(F)/|F| is a
# maximum-density subgraph problem (Goldberg 1984): Dinkelbach iteration over
# min cuts solves it exactly in a few max-flows, and the final residual graph
# holds every maximizer (Picard & Queyranne 1980).  mu_prime's gross
# objective is not supermodular and still enumerates all 2^|W| bitmasks.


def _max_flow(adj: list[list[int]], head: list[int], cap: list[int], source: int, sink: int) -> None:
    """Dinic's max-flow, in place: ``cap`` ends as the residual capacities.

    Arc ``a`` runs to ``head[a]``, arc ``a ^ 1`` is its reverse, and
    ``adj[u]`` lists the arcs leaving node u.  Capacities are Python ints, so
    scaled capacities cannot overflow.  Paths are walked iteratively, so long
    residual paths cannot exhaust the recursion limit.
    """
    n = len(adj)
    while True:
        level = [-1] * n
        level[source] = 0
        queue = [source]
        for u in queue:
            for a in adj[u]:
                if cap[a] and level[head[a]] < 0:
                    level[head[a]] = level[u] + 1
                    queue.append(head[a])
        if level[sink] < 0:
            return
        nxt = [0] * n
        path: list[int] = []
        u = source
        while True:
            if u == sink:
                push = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= push
                    cap[a ^ 1] += push
                path.clear()
                u = source
                continue
            arcs, i = adj[u], nxt[u]
            while i < len(arcs) and not (cap[arcs[i]] and level[head[arcs[i]]] == level[u] + 1):
                i += 1
            nxt[u] = i
            if i < len(arcs):
                path.append(arcs[i])
                u = head[arcs[i]]
            elif u == source:
                break
            else:  # dead end for this phase: retreat one arc
                level[u] = -1
                u = head[path.pop() ^ 1]


def _residual_reach(adj: list[list[int]], head: list[int], cap: list[int],
                    start: int, forward: bool) -> set[int]:
    """Nodes ``start`` reaches in the residual graph, or (``forward=False``)
    the nodes that reach ``start``."""
    seen, stack = {start}, [start]
    while stack:
        u = stack.pop()
        for a in adj[u]:
            if cap[a if forward else a ^ 1] and head[a] not in seen:
                seen.add(head[a])
                stack.append(head[a])
    return seen


def _densest_subfamily(live: list[tuple[int, ...]], n_rows: int, ell: int) -> tuple[Fraction, tuple[int, ...]]:
    """Exact max of f(F)/|F| over non-empty F, and its smallest, then
    lexicographically first, maximizer as ascending row indices.

    For lam = p/q the network is source -> live edge (capacity q*ell),
    edge -> member (q), and vertex -> sink (q*d_v - p, only where positive),
    with d_v the number of live edges at v.  All sink arcs saturate iff no
    F has f(F) > lam*|F|.  Otherwise the vertices that reach the sink in the
    residual graph are strictly denser, and their density is the next lam.
    At the maximum, the smallest maximizer containing v is the set of
    vertices that reach v in the residual graph (none if the source does).
    Both steps are checked, and a failure raises CertificateError.
    """
    deg = [0] * n_rows
    for e in live:
        for v in e:
            deg[v] += 1

    def excess(rows) -> int:
        rows = set(rows)
        return sum(max(sum(v in rows for v in e) - ell, 0) for e in live)

    # One topology for every lam: arc a has capacity max(q*per_q - p*per_p, 0),
    # and a vertex whose sink arc is 0 takes no part.
    E = len(live)
    source, sink = 0, E + n_rows + 1
    adj: list[list[int]] = [[] for _ in range(sink + 1)]
    head: list[int] = []
    coef: list[tuple[int, int]] = []

    def arc(u: int, v: int, per_q: int, per_p: int) -> None:
        adj[u].append(len(head))
        head.append(v)
        coef.append((per_q, per_p))
        adj[v].append(len(head))
        head.append(u)
        coef.append((0, 0))

    for j, e in enumerate(live, 1):
        arc(source, j, ell, 0)
        for v in e:
            arc(j, E + 1 + v, 1, 0)
    vertex_sink_arcs = []
    for v, d in enumerate(deg):
        vertex_sink_arcs.append(len(head))
        arc(E + 1 + v, sink, d, 1)

    lam = Fraction(sum(len(e) - ell for e in live), n_rows)
    while True:
        p, q = lam.numerator, lam.denominator
        cap = [max(q * per_q - p * per_p, 0) for per_q, per_p in coef]
        sink_arcs = [a for a in vertex_sink_arcs if cap[a]]
        _max_flow(adj, head, cap, source, sink)
        if not any(cap[a] for a in sink_arcs):
            break
        denser = [u - E - 1 for u in _residual_reach(adj, head, cap, sink, False) if E < u < sink]
        nxt = Fraction(excess(denser), len(denser))
        if nxt <= lam:
            raise CertificateError(f"min cut at density {lam} found no denser subfamily")
        lam = nxt

    # Maximizers are closed under union and non-empty intersection, so the
    # minimal ones are disjoint and each is the ancestor set of every member.
    # An ancestor set that its own vertex reaches in full is minimal: its
    # other members need no search of their own.
    from_source = _residual_reach(adj, head, cap, source, True)
    best, settled = None, set()
    for a in sink_arcs:
        u = head[a ^ 1]
        if u in from_source or u in settled:
            continue
        anc = {x for x in _residual_reach(adj, head, cap, u, False) if E < x < sink}
        if anc <= _residual_reach(adj, head, cap, u, True):
            settled |= anc
        rows = tuple(sorted(x - E - 1 for x in anc))
        if best is None or (len(rows), rows) < (len(best), best):
            best = rows
    if best is None or excess(best) * q != p * len(best):
        raise CertificateError(f"residual graph at density {lam} holds no maximizer")
    return lam, best


def _best_subfamily_mask(group_masks: list[int], n_rows: int) -> Fraction:
    """Best gross density over all non-empty vertex bitmasks: the sum of
    |e & F| over edges with |e & F| > 1, per member of F.

    Enumerates all 2^n_rows bitmasks as uint32, so more than 26 rows raise
    BudgetError before anything is allocated.
    """
    if n_rows > 26:
        raise BudgetError(f"gross subfamily enumeration unsupported beyond 26 rows, got {n_rows}")
    arr = np.arange(1, 1 << n_rows, dtype=np.uint32)
    num = np.zeros(arr.shape[0], dtype=np.int64)
    for g in group_masks:
        cnt = np.bitwise_count(arr & np.uint32(g)).astype(np.int64)
        num += np.where(cnt >= 2, cnt, 0)
    sizes = np.bitwise_count(arr).astype(np.int64)
    # max num/size: compare over the common denominator lcm(1..n_rows)
    lcm = math.lcm(*range(1, n_rows + 1))
    idx = int(np.argmax(num * (lcm // sizes)))
    return Fraction(int(num[idx]), int(sizes[idx]))


def _rows_to_class(W: HypothesisClass, rows) -> HypothesisClass:
    return HypothesisClass(k=W.k, n=W.n, hyps=tuple(W.hyps[v] for v in rows))


def max_density_subfamily(W: HypothesisClass, ell: int, mode: str = "exact",
                          cap: int = DEFAULT_SUBSET_CAP) -> tuple[Fraction, HypothesisClass]:
    """Best ell-density over all non-empty subfamilies of ``W``.

    Exact mode (requires |W| <= cap) returns the true maximum by min cuts,
    with the smallest, then lexicographically first, maximizer as witness;
    heuristic mode hill-climbs by single add/remove moves and returns a
    certified lower bound with its witness.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    G = build_oig(W)
    if mode == "exact":
        if len(W) > cap:
            raise BudgetError(f"|W|={len(W)} exceeds exact subfamily cap {cap}")
        live = [g.members for g in G.edges() if len(g) > ell]
        if not live:
            return Fraction(0), _rows_to_class(W, (0,))
        val, rows = _densest_subfamily(live, len(W), ell)
        return val, _rows_to_class(W, rows)
    if mode == "heuristic":
        return _hill_climb(W, [g.mask for g in G.edges() if len(g) > ell], ell)
    raise ValueError(f"unknown mode {mode!r}")


def _hill_climb(W: HypothesisClass, live: list[int], ell: int) -> tuple[Fraction, HypothesisClass]:
    n_rows = len(W)

    def dens_of(mask: int) -> Fraction:
        size = mask.bit_count()
        if size == 0:
            return Fraction(-1)
        num = sum(max((mask & g).bit_count() - ell, 0) for g in live)
        return Fraction(num, size)

    cur = (1 << n_rows) - 1
    cur_val = dens_of(cur)
    improved = True
    while improved:
        improved = False
        for v in range(n_rows):
            cand = cur ^ (1 << v)
            val = dens_of(cand)
            if val > cur_val:
                cur, cur_val = cand, val
                improved = True
    return cur_val, _rows_to_class(W, [v for v in range(n_rows) if cur >> v & 1])


def _restrictions(H: HypothesisClass, n_samples: int) -> Iterator[tuple[tuple[int, ...], HypothesisClass]]:
    """(T, H restricted to T) for every coordinate subset T of size 1 to
    min(n_samples, n), by size, then lexicographically."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    for size in range(1, min(n_samples, H.n) + 1):
        for T in itertools.combinations(range(1, H.n + 1), size):
            yield T, restrict(H, T)


def mu_with_witness(H: HypothesisClass, n_samples: int, ell: int,
                    cap: int = DEFAULT_SUBSET_CAP) -> tuple[Fraction, tuple[int, ...], HypothesisClass]:
    """Maximum ell-density over restrictions: value, coordinates, subfamily.

    Restrictions range over all non-empty coordinate subsets of size up to
    min(n_samples, n).  A sequence with repeated coordinates never beats a
    plain subset: a repeated direction only carries singleton edges (its off
    positions already pin the repeated value), and extra context coordinates
    only refine edge groups.  Witness ties break toward smaller, then
    lexicographically earlier, coordinate sets.
    """
    best = (Fraction(-1), (), None)
    for T, W in _restrictions(H, n_samples):
        val, F = max_density_subfamily(W, ell, cap=cap)
        if val > best[0]:
            best = (val, T, F)
    return best


def mu(H: HypothesisClass, n_samples: int, ell: int, cap: int = DEFAULT_SUBSET_CAP) -> Fraction:
    """Maximum ell-density function of ``H`` for sample size ``n_samples``."""
    return mu_with_witness(H, n_samples, ell, cap=cap)[0]


def mu_prime(H: HypothesisClass, n_samples: int, cap: int = DEFAULT_SUBSET_CAP) -> Fraction:
    """Variant density maximum summing full sizes of edges with |e| > 1.

    Agrees with ``mu(..., ell=1)`` up to a factor of two:
    mu' / 2 <= mu <= mu'.
    """
    best = Fraction(0)
    for _T, W in _restrictions(H, n_samples):
        if len(W) > cap:
            raise BudgetError(f"|W|={len(W)} exceeds exact subfamily cap {cap}")
        live = [g.mask for g in build_oig(W).edges() if len(g) >= 2]
        if live:
            best = max(best, _best_subfamily_mask(live, len(W)))
    return best


# -- min-max ell-outdegree orientation ---------------------------------------


def min_max_orientation(G: OneInclusionGraph, ell: int) -> tuple[Orientation, int]:
    """Orientation minimizing the maximum ell-outdegree, with optimal value.

    Feasibility of a target t is decided by an exact integral max-flow:
    source -> edge with capacity min(ell, |e|), edge -> member with capacity
    1, vertex -> sink with capacity (deg - t)_+.  All sink arcs saturate iff
    every vertex can be covered by all but t of its edges.  The binary search
    starts at ceil(density): every full orientation's outdegrees sum to
    sum over edges of (|e| - ell)_+ = density * |W|, so no maximum is
    smaller.  The returned orientation is the flow at t_star, and t_star is
    certified minimal by infeasibility at t_star - 1; a failed certificate
    raises CertificateError.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    edges = list(G.edges())
    n_dirs = G.n_directions
    if all(len(e) <= ell for e in edges):
        assign = tuple((e.direction, e.key, e.members) for e in edges)
        return Orientation(ell=ell, assign=assign), 0

    lo, hi = math.ceil(density(G.base, ell, graph=G)), n_dirs
    feasible_assign = None
    while lo < hi:
        mid = (lo + hi) // 2
        got = _flow_assignment(G, edges, ell, mid)
        if got is not None:
            hi = mid
            feasible_assign = got
        else:
            lo = mid + 1
    t_star = lo
    if feasible_assign is None:  # the search never tried t_star
        feasible_assign = _flow_assignment(G, edges, ell, t_star)
    if feasible_assign is None:
        raise CertificateError(f"no feasible orientation at t_star={t_star}")
    if t_star > 0 and _flow_assignment(G, edges, ell, t_star - 1) is not None:
        raise CertificateError(f"orientation with max outdegree {t_star - 1} < t_star={t_star}")

    assign = []
    for e, picked in zip(edges, feasible_assign):
        want = min(ell, len(e))
        chosen = sorted(picked)
        for v in e.members:  # pad deterministically up to the size bound
            if len(chosen) >= want:
                break
            if v not in picked:
                chosen.append(v)
        assign.append((e.direction, e.key, tuple(sorted(chosen))))
    return Orientation(ell=ell, assign=tuple(assign)), t_star


def _flow_assignment(G: OneInclusionGraph, edges: list[EdgeGroup], ell: int, t: int):
    """Per-edge covered-vertex sets if max outdegree t is achievable, else None."""
    V = G.n_vertices
    need = G.n_directions - t
    if need <= 0:
        return [set() for _ in edges]
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
        rows.append(1 + E + v)
        cols.append(sink)
        caps.append(need)
    graph = csr_matrix((np.array(caps, dtype=np.int32), (rows, cols)),
                       shape=(sink + 1, sink + 1))
    res = maximum_flow(graph, source, sink)
    if res.flow_value != need * V:
        return None
    flow = res.flow.tocsr()
    indptr, indices, data = flow.indptr, flow.indices.tolist(), flow.data.tolist()
    picked = []
    for j in range(E):
        a, b = indptr[1 + j], indptr[2 + j]
        picked.append({c - 1 - E for c, f in zip(indices[a:b], data[a:b]) if f > 0})
    return picked


def outdegrees(G: OneInclusionGraph, sigma: Orientation) -> list[int]:
    """Per-vertex count of adjacent edges oriented away from the vertex."""
    edges = list(G.edges())
    if len(edges) != len(sigma.assign):
        raise ValueError("mismatched orientation: edge count differs")
    out = [0] * G.n_vertices
    for e, (d, key, chosen) in zip(edges, sigma.assign):
        if (d, key) != (e.direction, e.key):
            raise ValueError("mismatched orientation: edge identity differs")
        if not set(chosen) <= set(e.members):
            raise ValueError("orientation assigns non-member vertex")
        if len(chosen) > max(sigma.ell, 0):
            raise ValueError("orientation exceeds list size")
        for v in e.members:
            if v not in chosen:
                out[v] += 1
    return out


def orientation_to_json(sigma: Orientation) -> str:
    """Serialize with 1-based directions and 1-based vertex indices."""
    payload = {
        "ell": sigma.ell,
        "edges": [
            {"dir": d + 1, "key": list(key), "assign": [v + 1 for v in chosen]}
            for d, key, chosen in sigma.assign
        ],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def format_ratio(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_ratio(s: str) -> Fraction:
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den) if den else 1)
