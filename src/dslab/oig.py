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
    # only for bench/tracing.py's oig.csr_matrix and oig.maximum_flow spans,
    # which name scipy's objects (dslab calls neither); goes when they do
    if name in ("csr_matrix", "maximum_flow"):
        import scipy.sparse.csgraph
        home = scipy.sparse.csgraph if name == "maximum_flow" else scipy.sparse
        globals()[name] = got = getattr(home, name)
        return got
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


def build_oig(W: HypothesisClass) -> OneInclusionGraph:
    """Group the vertices of ``W`` into edges, one partition per direction:
    direction i's edges are ``hclass.off_groups(W, i)``, grouped once per
    class.  A projection that repeats a coordinate (``restrict(...,
    allow_repeats=True)``) gives each copy's direction only singleton edges:
    two hypotheses that agree off one copy agree on it too."""
    return OneInclusionGraph(base=W, by_direction=tuple(
        tuple(EdgeGroup(i, key, vs) for key, vs in off_groups(W, i)) for i in range(W.n)))


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


# -- density searches and orientations --------------------------------------
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
# An orientation is the same balance in whole units: x starts at each edge's
# first ell members, lam steps to the ceiling of each stuck set's ratio, so
# it stays an integer t, and the balanced 0/1 x is an orientation of maximum
# outdegree t_star = ceil(mu) (Hakimi 1965).  A density does not depend on
# which optimal x is found, but an orientation's picks do.
# ``_orient_live`` orients a list of live edges with no graph object: the
# audit and the list predictor hand it ``off_groups``' live edges directly,
# and since the answer never reads the training labels, one orientation
# answers every labeling of a projection's training coordinates.
# Each answer is checked by ``_check_fractional_orientation``, which bounds
# every F's density by lam without trusting the search code: a density
# search's balanced or uniform x, and the 0/1 choices of the orientation
# returned at t_star.  mu_prime's gross objective is not supermodular and
# still enumerates all 2^|W| bitmasks.


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
    to rows below it.  Then, for each row still above ``cap`` in turn, each
    round walks breadth-first from that row alone to the nearest row below
    ``cap`` (``_nearest_below``) and pushes along that path; a shortest
    path uses each edge once.  At ``unit`` 1 every push is 1, so a 0/1 x
    stays 0/1.

    If a row above ``cap`` reaches no row below it, the rows it reaches are
    returned, ascending: call them R.  No arc leaves R, so an edge with
    members on both sides has x = 1 on its members in R, which then take no
    load from it, or x = 0 on its members outside R, which leaves all of
    its ell * unit in R.  Either way the edge adds at most
    unit * (|e & R| - ell)_+ to load(R), so unit * excess(R) >= load(R)
    > cap * |R|, since every row of R carries at least ``cap`` and the row
    it was reached from more: R is denser than cap / unit.
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
    for start in over:  # a push ends at or below cap, so no row joins them
        while load[start] > cap:
            parent: dict[int, tuple[int, int, int, int] | None] = {start: None}
            end = _nearest_below(live, at, x, load, cap, unit, parent)
            if end is None:
                return sorted(parent)
            path, v = [], end
            while v != start:
                w, j, i, k = parent[v]
                path.append((j, i, k))
                v = w
            push = min(load[start] - cap, cap - load[end],
                       min(min(unit - x[j][i], x[j][k]) for j, i, k in path))
            if push <= 0:  # each round must move load, or the balance would not end
                raise CertificateError(f"balance at lam={Fraction(cap, unit)} found a path that moves no load")
            for j, i, k in path:
                x[j][i] += push
                x[j][k] -= push
            load[start] -= push
            load[end] += push
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
    all, so no t is below t0 = ceil(excess(W)/n_rows).  The picks start at
    each edge's first ell members, the 0/1 fractional orientation x at
    ``unit`` 1, and ``_balance`` moves them from t0 up, in place, until no
    row's outdegree is above t.  Each time it is stuck, its rows R carry
    excess(R) > t*|R| outdegree in every orientation, so no maximum is below
    ceil(excess(R)/|R|), and t steps there from the same x; a step that does
    not rise raises CertificateError.  Every push moves one pick, so each
    edge keeps exactly ell picks: the members at which x is 1.  With no row
    above t0 nothing moves, and the picks are the first ell members.

    So t is certified minimal by t0 and the stuck sets, and the picks are
    certified to reach it by ``_check_fractional_orientation`` at lam = t.
    The checks are arithmetic, independent of the balance; a failure raises
    CertificateError.  The answer depends on the edges alone, so callers
    that share the live edges share one answer.
    """
    if not live:  # nothing to orient: outdegree 0 by construction
        return 0, []
    t = -(-sum(len(e) - ell for e in live) // n_rows)
    x = [[1] * ell + [0] * (len(e) - ell) for e in live]
    load = [0] * n_rows
    for e in live:
        for v in e[ell:]:
            load[v] += 1
    while (stuck := _balance(live, x, load, t, 1)) is not None:
        nxt = -(-_excess(live, stuck, ell) // len(stuck))
        if nxt <= t:
            raise CertificateError(f"balance at lam={t} found no subfamily denser than lam")
        t = nxt
    _check_fractional_orientation(live, ell, t, 1, x)
    return t, [tuple(v for v, got in zip(e, xs) if got) for e, xs in zip(live, x)]


def min_max_orientation(G: OneInclusionGraph, ell: int) -> tuple[Orientation, int]:
    """Orientation minimizing the maximum ell-outdegree, with optimal value.

    A wrapper over ``_orient_live`` for callers that hold the graph and read
    the orientation edge by edge (``dslab orient`` and the demos; the audit
    and the learner orient live edges with no graph object): the live edges
    (|e| > ell) are oriented in graph order, each picking exactly ell
    members, and every other edge keeps all its members.
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

