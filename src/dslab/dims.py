"""Exact DS, Natarajan, and VC dimensions via shattering searches.

A class ell-DS shatters a coordinate set when some non-empty subfamily of the
restriction gives every member at least ell i-neighbors in every direction
(an i-neighbor agrees everywhere except coordinate i).  Valid subfamilies are
closed under union, so the unique maximal one is the fixed point of peeling
away deficient members, exactly like a k-core decomposition run per
direction.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .hclass import (HypothesisClass, _class_from_json, _json_int, _trusted_class, check_coords,
                     off_groups, restrict, walk)

__all__ = [
    "ShatterWitness",
    "ds_shatter_core",
    "ds_dimension",
    "natarajan_dimension",
    "vc_dimension",
    "validate_witness",
    "witness_to_json",
    "witness_from_json",
]


@dataclass(frozen=True)
class ShatterWitness:
    coords: tuple[int, ...]          # 1-based coordinates of the shattered set
    subfamily: HypothesisClass       # witnessing family over those coordinates
    kind: str                        # "DS" | "Natarajan"
    ell: int


def ds_shatter_core(W: HypothesisClass, ell: int) -> HypothesisClass | None:
    """Maximal subfamily where every member has >= ell i-neighbors everywhere.

    Returns None when no such subfamily exists.  Drops the alive members of
    any ``off_groups`` group with 1..ell of them alive until none is left.
    The result is independent of peeling order: removing any deficient member
    can never repair another member's deficit.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    alive = set(range(len(W)))
    changed = True
    while changed and alive:
        changed = False
        for i in range(W.n):
            for _key, vs in off_groups(W, i):
                live = alive.intersection(vs)
                if 0 < len(live) <= ell:
                    alive -= live
                    changed = True
    if not alive:
        return None
    return _trusted_class(W.k, W.n, tuple(W.hyps[v] for v in sorted(alive)))


def ds_dimension(H: HypothesisClass, ell: int) -> tuple[int, ShatterWitness | None]:
    """Largest d such that some d-coordinate set has a non-empty shatter core.

    Searches subset sizes from s* down (``_top_down``) and returns at the
    first success; d = 0 with no witness when no single coordinate is
    shattered.  Distinct coordinates suffice: on a repeated coordinate no
    member can have an i-neighbor (the off positions pin the repeated value),
    so any core over a sequence with duplicates is empty.
    """
    return _top_down(H, ell, "DS", lambda W: ds_shatter_core(W, ell))


def natarajan_dimension(H: HypothesisClass, ell: int) -> tuple[int, ShatterWitness | None]:
    """Largest d admitting label lists y_1..y_d of size ell+1 with the full
    product embedded in the restriction.

    Searches as ``ds_dimension`` does; returns 0 when ell + 1 > k (no list
    of ell+1 distinct labels exists).
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if ell + 1 > H.k:
        return 0, None
    return _top_down(H, ell, "Natarajan", lambda W: _product_family(W, ell + 1))


def _top_down(H: HypothesisClass, ell: int, kind: str, probe) -> tuple[int, ShatterWitness | None]:
    """(d, witness) for the first coordinate set S that ``hclass.walk`` gives
    over sizes s*..1, largest first and then lexicographically, whose
    restriction ``probe`` maps to a family; (0, None) when there is none.
    s* is the largest s <= n with (ell+1)^s <= |H|, and no larger set is
    shattered (the list analogue of VC <= log2|H|), so a search from n finds
    the same S.  A Natarajan witness on s coordinates is a product of s
    lists of ell+1 labels: (ell+1)^s rows.  A DS core F on s coordinates has
    at least (ell+1)^s rows: projected off coordinate i, F maps onto a core
    on the other s-1 coordinates (projected j-neighbours stay distinct
    j-neighbours), and each image row has >= ell+1 preimages (a row and its
    >= ell i-neighbours); induct on s.  So a restriction W_S with fewer than
    (ell+1)^|S| rows is not probed, and since both need ell+1 labels at every
    coordinate of S, the walk holds only coordinates heavy at ell; neither
    skip moves the first S found.
    """
    s_star = next(s for s in range(H.n, -1, -1) if (ell + 1) ** s <= len(H))
    for S, W in walk(H, ell, range(s_star, 0, -1)):
        if len(W) < (ell + 1) ** len(S):
            continue
        fam = probe(W)
        if fam is not None:
            return len(S), ShatterWitness(coords=S, subfamily=fam, kind=kind, ell=ell)
    return 0, None


def _product_family(W: HypothesisClass, width: int) -> HypothesisClass | None:
    """The product of the first (lex order) choice of width-sized label lists
    whose product is in W, as a class."""
    rows = set(W.hyps)
    prefixes: list[set[tuple[int, ...]]] = [set()] * (W.n + 1)
    prefixes[W.n] = rows
    for i in range(W.n - 1, -1, -1):
        prefixes[i] = {r[:i] for r in rows}
    per_coord = [sorted({h[i] for h in W.hyps}) for i in range(W.n)]

    def extend(depth: int, chosen: list[tuple[int, ...]], partial: list[tuple[int, ...]]):
        if depth == W.n:
            return tuple(chosen)
        for ys in itertools.combinations(per_coord[depth], width):
            nxt = [p + (y,) for p in partial for y in ys]
            if all(q in prefixes[depth + 1] for q in nxt):
                got = extend(depth + 1, chosen + [ys], nxt)
                if got is not None:
                    return got
        return None

    if any(len(c) < width for c in per_coord):
        return None
    lists = extend(0, [], [()])
    return None if lists is None else _trusted_class(
        W.k, W.n, tuple(sorted(itertools.product(*lists))))


def vc_dimension(H: HypothesisClass) -> int:
    """Exact VC dimension; binary classes only.  With k = 2 the only label
    list of width 2 is {1, 2}, so a set is Natarajan-shattered at ell = 1
    exactly when the restriction is the full cube: VC shattering."""
    if H.k != 2:
        raise ValueError("vc_dimension requires k = 2")
    return natarajan_dimension(H, 1)[0]


def validate_witness(H: HypothesisClass, w: ShatterWitness) -> bool:
    """Re-check a witness from first principles against ``H``.  A DS
    subfamily's rows are distinct, so each ``off_groups(subfamily, i)`` group
    must have more than ell members, checked in one linear pass."""
    try:
        check_coords(H.n, w.coords)
    except ValueError:
        return False
    proj = restrict(H, w.coords)
    if not set(w.subfamily.hyps) <= set(proj.hyps):
        return False
    if w.kind == "DS":
        F = w.subfamily
        return all(len(vs) > w.ell for i in range(F.n) for _key, vs in off_groups(F, i))
    if w.kind == "Natarajan":
        d = len(w.coords)
        lists = [sorted({h[i] for h in w.subfamily.hyps}) for i in range(d)]
        if any(len(ys) != w.ell + 1 for ys in lists):
            return False
        product = set(itertools.product(*lists))
        return product == set(w.subfamily.hyps)
    return False


def witness_to_json(w: ShatterWitness) -> str:
    payload = {
        "kind": w.kind,
        "ell": w.ell,
        "coords": list(w.coords),
        "subfamily": {"k": w.subfamily.k, "n": w.subfamily.n,
                      "hyps": [list(h) for h in w.subfamily.hyps]},
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def witness_from_json(text: str) -> ShatterWitness:
    """Parse ``witness_to_json``'s output, refusing any other shape with a
    ValueError; ``subfamily`` is checked as ``hclass.loads_class`` checks."""
    obj = json.loads(text)
    if not isinstance(obj, dict) or "kind" not in obj or not isinstance(obj.get("coords"), list):
        raise ValueError("witness JSON must be an object with 'kind', 'ell', a 'coords' list and 'subfamily'")
    if obj["kind"] not in ("DS", "Natarajan"):
        raise ValueError(f"witness JSON 'kind' must be \"DS\" or \"Natarajan\", got {json.dumps(obj['kind'])}")
    return ShatterWitness(coords=tuple(_json_int(c, "witness JSON coordinate") for c in obj["coords"]),
                          subfamily=_class_from_json(obj.get("subfamily")), kind=obj["kind"],
                          ell=_json_int(obj.get("ell"), "witness JSON 'ell'"))
