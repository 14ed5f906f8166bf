"""One-inclusion hypergraphs, exact densities, and list orientations.

The one-inclusion graph of a class W over n coordinates has W as its vertex
set and, for every direction i, one edge per distinct off-i behavior grouping
all vertices that agree everywhere except coordinate i.  Every vertex is
adjacent to exactly n edges (singleton edges included).

Densities are exact rationals throughout: dens_ell(W) = (1/|W|) * sum over
edges of max(|e| - ell, 0).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import BudgetError, CertificateError
from .hclass import HypothesisClass, _trusted_class, off_groups, walk

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
]


def __getattr__(name: str):
    # only for bench/tracing.py's oig.csr_matrix span; goes when that span does
    if name == "csr_matrix":
        from scipy.sparse import csr_matrix
        globals()[name] = csr_matrix
        return csr_matrix
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class EdgeGroup:
    """One hyperedge: all vertices sharing ``key`` off ``direction``.

    ``direction`` is 0-based internally; ``members`` are ascending vertex
    indices into the canonical row order of the base class.
    """

    direction: int
    key: tuple[int, ...]
    members: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class OneInclusionGraph:
    base: HypothesisClass
    by_direction: tuple[tuple[EdgeGroup, ...], ...]

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
    non-trivial edge can exist there.  Every other direction's edges are
    ``hclass.off_groups(W, i)``, grouped once per class.
    """
    dead = frozenset(dead_dirs)
    dirs = []
    for i in range(W.n):
        if i in dead:
            edges = tuple(
                EdgeGroup(i, h[:i] + h[i + 1:], (v,)) for v, h in enumerate(W.hyps)
            )
        else:
            edges = tuple(EdgeGroup(i, key, vs) for key, vs in off_groups(W, i))
        dirs.append(edges)
    return OneInclusionGraph(base=W, by_direction=tuple(dirs))


def _live_edges(W: HypothesisClass, ell: int) -> list[tuple[int, ...]]:
    """The members of W's edges with more than ``ell`` rows, in the edge
    order of ``build_oig(W)``: the only edges a density can see.  Read off
    the ``off_groups`` kept on ``W``."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return [vs for i in range(W.n) for _key, vs in off_groups(W, i) if len(vs) > ell]


def density(W: HypothesisClass, ell: int) -> Fraction:
    """Exact ell-density of ``W``: average per-vertex edge oversize."""
    num = sum(len(e) - ell for e in _live_edges(W, ell))
    return Fraction(num, len(W))


# -- density searches and min-cut orientations ------------------------------
#
# The edges of a subfamily F <= W are W's edges intersected with F, so the
# excess f(F) = sum over edges of (|e & F| - ell)_+ sees only edges with
# |e| > ell.  f is supermodular (a convex function of a modular one), so
# max f(F)/|F| is a maximum-density subgraph problem (Goldberg 1984).  Its
# LP dual is a fractional orientation (Charikar 2000): each live edge shares
# ell units among its members, and a row's load is the part of its edges it
# does not hold; if no row's load is above lam, no F is denser than lam.
# ``_densest_subfamily`` starts from the uniform x(e, v) = ell/|e|, which
# settles a search whose floor it reaches or whose rows all carry its bound.
# Otherwise ``_balance`` moves load from row to row along residual arcs until
# no row is above lam, or finds rows denser than lam, and lam steps to their
# exact ratio (Dinkelbach's iteration).  The balanced residual row graph
# holds every maximizer (the row form of Picard & Queyranne 1980): that
# gives mu and its witness with no network.
# Orientations run on a cut network (``_Network``, Dinic's ``maximum_flow``).
# ``_cut_search`` steps lam to the ceiling of each cut's ratio, so lam stays
# an integer t, and the final flow on the live edges is an orientation of
# maximum outdegree t_star = ceil(mu) (Hakimi 1965).  A density does not
# depend on which optimal x is found, but an orientation's picks do, and
# they are read off that flow.  One with no row in more live edges than
# ceil(density) takes each edge's first ell members with no network.
# ``_orient_live`` orients a list of live edges with no graph object: the
# audit and the list predictor hand it ``off_groups``' live edges directly,
# and since the answer never reads the training labels, one orientation
# answers every labeling of a projection's training coordinates.
# Each answer is checked by ``_check_fractional_orientation``, which bounds
# every F's density by lam without trusting the search code: a density
# search's balanced or uniform x, and the 0/1 choices of the orientation
# returned at t_star.  mu_prime's gross objective is not supermodular and
# still enumerates all 2^|W| bitmasks.


class _Network:
    """The cut network on ``edges`` (ascending row tuples over ``n_rows``
    rows), with every arc capacity a function of a parameter lam = p/q:

        source -> edge    q * min(ell, |e|)
        edge -> member    q
        row -> sink       (q * d_v - p)_+, d_v the number of edges at v

    Node 0 is the source, node j the j-th edge (1-based), node E + 1 + v row
    v, and the last node the sink.  Arc a runs to ``head[a]``, arc a ^ 1 is
    its reverse, and ``adj[u]`` lists the arcs at u by ascending head, the
    order in which scipy's maximum_flow walks them, so both find the same flow.
    So an edge's arcs to its members are its even arcs, in member order.
    """

    def __init__(self, edges: Sequence[tuple[int, ...]], n_rows: int, ell: int):
        E = len(edges)
        self.n_edges, self.sink = E, E + n_rows + 1
        adj: list[list[int]] = [[] for _ in range(self.sink + 1)]
        head: list[int] = []
        coef: list[tuple[int, int]] = []  # capacity at p/q: max(q*coef[0] - p*coef[1], 0)

        def arc(u: int, v: int, per_q: int, per_p: int) -> None:
            adj[u].append(len(head))
            head.append(v)
            coef.append((per_q, per_p))
            adj[v].append(len(head))
            head.append(u)
            coef.append((0, 0))

        deg = [0] * n_rows
        for j, e in enumerate(edges, 1):
            arc(0, j, min(ell, len(e)), 0)
            for v in e:
                deg[v] += 1
                arc(j, E + 1 + v, 1, 0)
        self.sink_arcs = []  # the arc from row v to the sink, by v
        for v, d in enumerate(deg):
            self.sink_arcs.append(len(head))
            arc(E + 1 + v, self.sink, d, 1)
        self.adj, self.head, self.coef = adj, head, coef

    def capacities(self, p: int, q: int = 1) -> list[int]:
        return [max(q * a - p * b, 0) for a, b in self.coef]

    def member_flows(self, cap: list[int]) -> list[list[int]]:
        """The flow from each edge to each of its members, in member order,
        read off the reverse residual capacities ``cap``."""
        return [[cap[a ^ 1] for a in self.adj[j] if not a & 1]
                for j in range(1, self.n_edges + 1)]

    def rows(self, nodes) -> list[int]:
        """The rows among ``nodes``, ascending."""
        first, sink = self.n_edges + 1, self.sink
        return sorted(u - first for u in nodes if first <= u < sink)


def maximum_flow(net: _Network, cap: list[int]) -> None:
    """Dinic's max-flow from the source to the sink of ``net``, in place:
    ``cap`` ends as the residual capacities.

    Capacities are Python ints, so scaled capacities cannot overflow.  Paths
    are walked iteratively, so long residual paths cannot exhaust the
    recursion limit.
    """
    adj, head, source, sink = net.adj, net.head, 0, net.sink
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


def _residual_reach(net: _Network, cap: list[int], start: int) -> set[int]:
    """The nodes that reach ``start`` in the residual graph."""
    adj, head = net.adj, net.head
    seen, stack = {start}, [start]
    while stack:
        u = stack.pop()
        for a in adj[u]:
            if cap[a ^ 1] and head[a] not in seen:
                seen.add(head[a])
                stack.append(head[a])
    return seen


def _excess(edges: Sequence[tuple[int, ...]], rows, ell: int) -> int:
    """sum over ``edges`` of (|e & rows| - ell)_+: the outdegree that the
    members of ``rows`` carry in any orientation of their edges."""
    rows = set(rows)
    return sum(max(sum(v in rows for v in e) - ell, 0) for e in edges)


def _check_fractional_orientation(edges: Sequence[tuple[int, ...]], ell: int, p: int, q: int,
                                  flows: list[list[int]]) -> None:
    """Certify that no F has excess(F) > lam*|F|, lam = p/q, by the LP dual
    of the density (Charikar 2000).  x is in units of 1/q, and (p, q) need
    not be reduced: ``flows[j][i]`` = x(e, v) for the i-th member v of the
    j-th edge e must satisfy, in integers,

        0 <= x(e, v) <= q,
        sum over v of x(e, v) <= q * min(ell, |e|)    per edge,
        sum over e of x(e, v) >= q * d_v - p           per row,

    d_v the number of ``edges`` at v.  Then each edge gives
    q * (|e & F| - ell)_+ <= sum over v in e & F of (q - x(e, v)), and summing
    over edges, q * excess(F) <= sum over v in F of (q * d_v - x_v) <= p * |F|.
    Arithmetic on ``flows`` alone; a failure raises CertificateError.
    """
    lam = Fraction(p, q)
    if len(flows) != len(edges):
        raise CertificateError(f"flow at lam={lam} covers {len(flows)} of {len(edges)} edges")
    outdeg: dict[int, int] = {}  # q * d_v - x_v
    for e, xs in zip(edges, flows):
        if len(xs) != len(e) or min(xs) < 0 or max(xs) > q or sum(xs) > q * min(ell, len(e)):
            raise CertificateError(f"flow at lam={lam} is no fractional orientation of edge {e}")
        for v, x in zip(e, xs):
            outdeg[v] = outdeg.get(v, 0) + q - x
    for v, out in outdeg.items():
        if out > p:
            raise CertificateError(f"flow at lam={lam} leaves row {v} outdegree {Fraction(out, q)} > lam")


def _cut_search(net: _Network, edges: Sequence[tuple[int, ...]], ell: int,
                lam: Fraction, step) -> tuple[Fraction, list[int], list[list[int]]]:
    """The first lam, from ``lam`` up, at which one ``maximum_flow`` on
    ``net`` saturates every sink arc; that flow's residual capacities; and its
    edge-to-member flows (``_Network.member_flows``).

    A flow that leaves a sink arc unsaturated is a min cut whose sink side F
    (the rows that reach the sink in the residual graph) has
    excess(F) > lam*|F| (``_excess`` over ``edges``).  The next lam is
    ``step(excess(F), |F|)``: ``_orient_live`` steps to the ceiling, so lam
    stays an integer t, and the scipy oracle test steps nowhere to pin the
    flow at one t.  Unless the next lam is larger, the cut certifies nothing
    and CertificateError is raised.  These cuts bound the answer from below;
    the final flow is not checked here, and ``_orient_live`` certifies its
    answer from above with ``_check_fractional_orientation``.
    """
    while True:
        cap = net.capacities(lam.numerator, lam.denominator)
        maximum_flow(net, cap)
        if not any(cap[a] for a in net.sink_arcs):
            return lam, cap, net.member_flows(cap)
        F = net.rows(_residual_reach(net, cap, net.sink))
        nxt = step(_excess(edges, F, ell), len(F))
        if nxt <= lam:
            raise CertificateError(f"min cut at lam={lam} found no subfamily denser than lam")
        lam = nxt


def _densest_subfamily(live: list[tuple[int, ...]], n_rows: int, ell: int,
                       floor: Fraction = Fraction(-1)) -> tuple[Fraction, tuple[int, ...]] | None:
    """Exact max of f(F)/|F| over non-empty F, and its smallest, then
    lexicographically first, maximizer as ascending row indices; or None
    when no F beats ``floor`` (by default -1, which every F beats).

    The search works on fractional orientations x of the live edges, the
    LP dual of the density (Charikar 2000): each edge e shares ell units
    among its members, 0 <= x(e, v) <= 1, and row v carries the load
    sum over live e at v of 1 - x(e, v).  If no row carries more than lam,
    no F is denser than lam (``_check_fractional_orientation``).

    First the uniform x(e, v) = ell/|e|, in units of 1/q, q the lcm of the
    live edge sizes: row v carries the load p_v = sum over live e at v of
    q(|e| - ell)/|e|, and since (m - ell)_+ <= m(|e| - ell)/|e| for
    0 <= m <= |e|, no F is denser than p/q, p = max p_v.  It settles two
    cases as it stands, each certified by ``_check_fractional_orientation``
    on that x at (p, q):
    - p/q <= ``floor``: the answer is None.
    - W's own density is p/q, so every row carries p: W is a maximizer.  A
      maximizer F meets the bound with equality, which needs m = 0 or
      m = |e| on every live edge, so F is a union of connected components
      of the live edges; each component reaches p/q, so the smallest
      maximizer is the smallest, then lexicographically first, component.

    Otherwise lam starts at max(W's own density, ``floor``), and
    ``_balance`` moves load from the uniform x, in units of 1/U with
    U = q * den(lam), until no row carries more than lam.  If it gets stuck,
    it returns rows R denser than lam; lam steps to R's density
    (Dinkelbach's iteration) and the balance starts again from the uniform
    x, and a step that does not rise raises CertificateError.  The balanced
    x must pass ``_check_fractional_orientation`` at lam, so no F is denser
    than lam: at lam = ``floor`` the answer is None.  Every other lam is the
    density of W or of some R, so it is the maximum, whichever balanced x
    was found.  At the maximum, F is a maximizer exactly when each of its
    rows carries lam and no residual arc of ``_balance`` leaves F: for a
    maximizer the dual bound excess(F) <= load(F) <= lam * |F| is an
    equality, edge by edge, and that closes F; a closed F has
    excess(F) >= load(F), as ``_balance`` shows for R.  So the minimal
    maximizers are the sink components of the residual row graph whose
    rows all carry lam, and ``_smallest_sink`` picks the smallest.
    Either way the maximizer is checked to reach the maximum, or
    CertificateError.  With no live edge every F has density 0: the answer
    is row 0 alone, or None for a floor of 0 or more.
    """
    if not live:
        return None if floor >= 0 else (Fraction(0), (0,))
    q = math.lcm(*map(len, live))
    load = [0] * n_rows
    for e in live:
        w = (len(e) - ell) * (q // len(e))
        for v in e:
            load[v] += w
    p, excess = max(load), sum(len(e) - ell for e in live)
    lam = Fraction(p, q)
    if excess * q == p * n_rows or lam <= floor:
        _check_fractional_orientation(live, ell, p, q, [[ell * q // len(e)] * len(e) for e in live])
        if lam <= floor:
            return None
        best = _smallest_component(live, n_rows)
    else:
        lam = max(Fraction(excess, n_rows), floor)
        while True:
            b = lam.denominator
            unit, p = q * b, lam.numerator * q  # U and lam * U
            x = [[ell * unit // len(e)] * len(e) for e in live]
            loads = [v * b for v in load]
            stuck = _balance(live, x, loads, p, unit)
            if stuck is None:
                break
            nxt = Fraction(_excess(live, stuck, ell), len(stuck))
            if nxt <= lam:
                raise CertificateError(f"balance at lam={lam} found no subfamily denser than lam")
            lam = nxt
        q = unit
        _check_fractional_orientation(live, ell, p, q, x)
        if lam <= floor:
            return None
        best = _smallest_sink(live, x, loads, p, q)
    if not best or _excess(live, best, ell) * q != p * len(best):
        raise CertificateError(f"residual graph at density {lam} holds no maximizer")
    return lam, best


def _balance(live: Sequence[tuple[int, ...]], x: list[list[int]], load: list[int],
             cap: int, unit: int) -> list[int] | None:
    """Move load between rows until none carries more than ``cap``, in place
    on ``x`` and ``load``; None once that holds.  ``x[j][i]`` is
    unit * x(e, v) for the i-th member v of the j-th ``live`` edge e, so
    each edge's entries sum to ell * unit, and ``load[v]`` is the sum over
    live e at v of unit - x[j][i].

    A residual arc w -> u runs through a live edge e holding both when
    x(e, w) < 1 and x(e, u) > 0: raising x(e, w) and lowering x(e, u) by
    the same amount moves load from w to u and keeps e's sum.  One sweep
    over the edges first pushes along single arcs from rows above ``cap``
    to rows below it.  Then each round walks breadth-first from the rows
    above ``cap`` to the nearest row below it (``_nearest_below``) and
    pushes along that path; a shortest path uses each edge once.

    If no row above ``cap`` reaches a row below it, the rows they reach are
    returned, ascending: call them R.  No arc leaves R, so an edge with
    members on both sides has x = 1 on its members in R, which then take no
    load from it, or x = 0 on its members outside R, which leaves all of
    its ell * unit in R.  Either way the edge adds at most
    unit * (|e & R| - ell)_+ to load(R), so unit * excess(R) >= load(R)
    > cap * |R|: R is denser than cap / unit.
    """
    for xs, e in zip(x, live):
        for i, w in enumerate(e):
            if load[w] > cap and xs[i] < unit:
                for k, u in enumerate(e):
                    if load[u] < cap and xs[k]:
                        push = min(load[w] - cap, cap - load[u], unit - xs[i], xs[k])
                        xs[i] += push
                        xs[k] -= push
                        load[w] -= push
                        load[u] += push
                        if load[w] == cap or xs[i] == unit:
                            break
    over = [v for v, got in enumerate(load) if got > cap]
    if not over:
        return None
    at: list[list[int]] = [[] for _ in load]  # the live edges at each row
    for j, e in enumerate(live):
        for v in e:
            at[v].append(j)
    while over:
        parent: dict[int, tuple[int, int, int, int] | None] = dict.fromkeys(over)
        end = _nearest_below(live, at, x, load, cap, unit, parent)
        if end is None:
            return sorted(parent)
        path, v = [], end
        while parent[v] is not None:
            w, j, i, k = parent[v]
            path.append((j, i, k))
            v = w
        push = min(load[v] - cap, cap - load[end],
                   min(min(unit - x[j][i], x[j][k]) for j, i, k in path))
        if push <= 0:  # each round must move load, or the balance would not end
            raise CertificateError(f"balance at lam={Fraction(cap, unit)} found a path that moves no load")
        for j, i, k in path:
            x[j][i] += push
            x[j][k] -= push
        load[v] -= push
        load[end] += push
        if load[v] == cap:
            over.remove(v)
    return None


def _nearest_below(live: Sequence[tuple[int, ...]], at: list[list[int]], x: list[list[int]],
                   load: list[int], cap: int, unit: int,
                   parent: dict[int, tuple[int, int, int, int] | None]) -> int | None:
    """Walk ``_balance``'s residual arcs breadth-first from the rows keyed in
    ``parent``, recording for each row reached the arc (w, edge, position
    of w, position of the row) that reached it; return the first row reached
    with load below ``cap``, or None once every reachable row is keyed."""
    queue = list(parent)
    for w in queue:
        for j in at[w]:
            e, xs = live[j], x[j]
            i = e.index(w)
            if xs[i] == unit:
                continue
            for k, u in enumerate(e):
                if xs[k] and u not in parent:
                    parent[u] = (w, j, i, k)
                    if load[u] < cap:
                        return u
                    queue.append(u)
    return None


def _smallest_sink(live: Sequence[tuple[int, ...]], x: list[list[int]], load: list[int],
                   cap: int, unit: int) -> tuple[int, ...] | None:
    """The smallest, then lexicographically first, sink component of the
    residual row graph of ``_balance`` on ``x`` whose rows all carry
    ``cap``, ascending; None if there is none.  One pass of Tarjan's
    strongly connected components, iterative: a component is complete only
    after every component it reaches, so it is a sink exactly when no row
    in it has an arc to a row outside it."""
    n = len(load)
    succ: list[list[int]] = [[] for _ in range(n)]
    for e, xs in zip(live, x):
        gets = [u for u, got in zip(e, xs) if got]
        for w, got in zip(e, xs):
            if got < unit:
                succ[w] += gets
    index, low, on_stack = [-1] * n, [0] * n, [False] * n
    stack: list[int] = []
    best, count = None, 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, arcs = work[-1]
            for u in arcs:
                if index[u] < 0:
                    index[u] = low[u] = count
                    count += 1
                    stack.append(u)
                    on_stack[u] = True
                    work.append((u, iter(succ[u])))
                    break
                if on_stack[u] and index[u] < low[v]:
                    low[v] = index[u]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:  # v roots a component: pop it
                    rows = []
                    while not rows or rows[-1] != v:
                        rows.append(stack.pop())
                        on_stack[rows[-1]] = False
                    inside = set(rows)
                    if all(load[u] == cap and inside.issuperset(succ[u]) for u in rows):
                        rows = tuple(sorted(rows))
                        if best is None or (len(rows), rows) < (len(best), best):
                            best = rows
    return best


def _smallest_component(edges: Sequence[tuple[int, ...]], n_rows: int) -> tuple[int, ...]:
    """The smallest, then lexicographically first, connected component of
    the ``n_rows`` rows under ``edges``, as ascending row indices."""
    root = list(range(n_rows))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    for e in edges:
        r = find(e[0])
        for v in e[1:]:
            root[find(v)] = r
    parts: dict[int, list[int]] = {}
    for v in range(n_rows):
        parts.setdefault(find(v), []).append(v)
    return min(map(tuple, parts.values()), key=lambda rows: (len(rows), rows))


def _best_subfamily_mask(edges: list[tuple[int, ...]], n_rows: int) -> Fraction:
    """Best gross density over all non-empty vertex bitmasks: the sum of
    |e & F| over ``edges`` with |e & F| > 1, per member of F.

    Enumerates all 2^n_rows bitmasks as uint32, so more than 22 rows raise
    BudgetError before anything is allocated.
    """
    if n_rows > 22:
        raise BudgetError(f"gross subfamily enumeration unsupported beyond 22 rows, got {n_rows}")
    arr = np.arange(1, 1 << n_rows, dtype=np.uint32)
    num = np.zeros(arr.shape[0], dtype=np.int64)
    for e in edges:
        cnt = np.bitwise_count(arr & np.uint32(sum(1 << v for v in e))).astype(np.int64)
        num += np.where(cnt >= 2, cnt, 0)
    sizes = np.bitwise_count(arr).astype(np.int64)
    # max num/size: compare over the common denominator lcm(1..n_rows)
    lcm = math.lcm(*range(1, n_rows + 1))
    idx = int(np.argmax(num * (lcm // sizes)))
    return Fraction(int(num[idx]), int(sizes[idx]))


def _rows_to_class(W: HypothesisClass, rows) -> HypothesisClass:
    """The subfamily of ``W`` on the ascending row indices ``rows``."""
    return _trusted_class(W.k, W.n, tuple(W.hyps[v] for v in rows))


def max_density_subfamily(W: HypothesisClass, ell: int) -> tuple[Fraction, HypothesisClass]:
    """Best ell-density over all non-empty subfamilies of ``W``, exact by
    ``_densest_subfamily``, with the smallest, then lexicographically first,
    maximizer as witness."""
    val, rows = _densest_subfamily(_live_edges(W, ell), len(W), ell)
    return val, _rows_to_class(W, rows)


def mu_with_witness(H: HypothesisClass, n_samples: int,
                    ell: int) -> tuple[Fraction, tuple[int, ...], HypothesisClass]:
    """Maximum ell-density over restrictions: value, coordinates, subfamily.

    Restrictions range over the non-empty coordinate subsets of size up to
    min(n_samples, n); more subsets than ``hclass.walk``'s limit raise
    BudgetError.  A sequence with repeated coordinates never beats a plain
    subset: a repeated direction only carries singleton edges (its off
    positions already pin the repeated value), and extra context coordinates
    only refine edge groups.  Witness ties break toward smaller, then
    lexicographically earlier, coordinate sets, so each restriction's search
    has the best so far as its floor (``_densest_subfamily``): a restriction
    whose uniform fractional orientation is no better, or whose rows all
    carry the uniform bound, is settled by that orientation as it stands,
    and one that does not beat the floor after one balance at the floor;
    each answer is certified by its dual check.

    Only sets of coordinates with more than ell labels are walked.  If j has
    at most ell, every direction-j edge has at most ell members; split a
    subfamily F of W_T by its label at j: each other edge lies in one slice,
    and each slice maps one-to-one onto W_{T-j} with the same edges, so F is
    no denser than its densest slice, hence than mu(T-j).  T-j comes earlier
    in the walk and ties go to the earlier set, so no set holding j is the
    witness.  A heavy singleton has density > 0, so mu = 0 exactly when no
    coordinate is heavy; the answer is then (0, (1,), row 0 of W_{(1,)}),
    the first set and row the full walk gives.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    best = (Fraction(-1), (), None)
    for T, W in walk(H, ell, range(1, min(n_samples, H.n) + 1)):
        got = _densest_subfamily(_live_edges(W, ell), len(W), ell, best[0])
        if got is not None:
            best = (got[0], T, _rows_to_class(W, got[1]))
    if best[2] is None:
        return Fraction(0), (1,), _trusted_class(H.k, 1, (H.hyps[0][:1],))  # H's rows ascend
    return best


def mu(H: HypothesisClass, n_samples: int, ell: int) -> Fraction:
    """Maximum ell-density function of ``H`` for sample size ``n_samples``."""
    return mu_with_witness(H, n_samples, ell)[0]


def mu_prime(H: HypothesisClass, n_samples: int) -> Fraction:
    """Variant density maximum summing full sizes of edges with |e| > 1.

    Agrees with ``mu(..., ell=1)`` up to a factor of two:
    mu' / 2 <= mu <= mu'.  Enumerates all 2^|W| subfamilies of each
    restriction ``mu`` walks at ell 1, so a restriction with an edge and
    more than 22 rows raises BudgetError.  A constant coordinate is left
    out: it leaves the restriction isomorphic and adds only singleton edges.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    best = Fraction(0)
    for _T, W in walk(H, 1, range(1, min(n_samples, H.n) + 1)):
        live = _live_edges(W, 1)
        if live:
            best = max(best, _best_subfamily_mask(live, len(W)))
    return best


# -- min-max ell-outdegree orientation ---------------------------------------


def _orient_live(live: Sequence[tuple[int, ...]], n_rows: int,
                 ell: int) -> tuple[int, list[tuple[int, ...]]]:
    """Min-max ell-outdegree orientation of the ``live`` edges (ascending
    row tuples of more than ell members over ``n_rows`` rows): the optimal
    value t, and the members each live edge picks, in edge order.

    An edge with |e| <= ell keeps every member, so it adds 0 to every
    vertex's outdegree and to every excess(F): it is left out, and a t is
    feasible on the live edges exactly when it is feasible with the small
    edges added.  Every orientation gives the rows excess(W) outdegree in
    all, so no t is below t0 = ceil(excess(W)/n_rows).  If no row's live
    degree d_v exceeds t0, each edge picks its first ell members and t0 is
    reached with no flow.  Otherwise ``_cut_search`` runs over the live
    edges from t0, stepping to the ceiling of each cut's ratio, so lam stays
    an integer t and each vertex's sink arc is (d_v - t)_+.  Each cut's F
    carries excess(F) > t*|F| outdegree in every orientation, so no maximum
    is below the next t.  Once every sink arc saturates, each live edge
    picks the members its flow covers, padded in member order up to ell
    (with no row above t0 the flow is zero, and the padding is the first
    ell members, the same picks).

    So t is certified minimal by t0 and the cuts, and the picks are
    certified to reach it by ``_check_fractional_orientation`` at lam = t.
    The checks are arithmetic, independent of the flow; a failure raises
    CertificateError.  The answer depends on the edges alone, so callers
    that share the live edges share one answer.
    """
    if not live:  # nothing to orient: outdegree 0 by construction
        return 0, []

    def ceil_ratio(ex: int, size: int) -> Fraction:
        return Fraction(-(-ex // size))

    t = -(-sum(len(e) - ell for e in live) // n_rows)
    deg = [0] * n_rows
    for e in live:
        for v in e:
            deg[v] += 1
    if max(deg) <= t:
        chosen = [e[:ell] for e in live]
    else:
        net = _Network(live, n_rows, ell)
        lam, _cap, flows = _cut_search(net, live, ell, Fraction(t), ceil_ratio)
        t, chosen = int(lam), []
        for e, xs in zip(live, flows):
            got = {v for v, x in zip(e, xs) if x}
            pad = [v for v in e if v not in got][:ell - len(got)]  # in member order
            chosen.append(tuple(sorted(got.union(pad))))
    picks = [[int(v in c) for v in e] for e, c in zip(live, chosen)]
    _check_fractional_orientation(live, ell, t, 1, picks)
    return t, chosen


def min_max_orientation(G: OneInclusionGraph, ell: int) -> tuple[Orientation, int]:
    """Orientation minimizing the maximum ell-outdegree, with optimal value.

    A wrapper over ``_orient_live`` for callers that hold the graph and read
    the orientation edge by edge (``dslab orient``, ``loo_error`` through
    ``outdegrees``, and the demos): the live edges (|e| > ell) are oriented
    in graph order, and every other edge keeps all its members.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    edges = list(G.edges())
    t, chosen = _orient_live([e.members for e in edges if len(e) > ell], G.n_vertices, ell)
    picked = iter(chosen)
    assign = tuple((e.direction, e.key, next(picked) if len(e) > ell else e.members)
                   for e in edges)
    return Orientation(ell=ell, assign=assign), t


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

