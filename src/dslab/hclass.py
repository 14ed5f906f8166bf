"""Finite multiclass hypothesis classes.

A class is a finite set of label vectors of length ``n`` with labels in
``1..k``.  Vectors are stored deduplicated and in lexicographic order so that
equal classes always serialize to identical bytes.  All public interfaces are
1-based (labels and coordinate indices alike).

Every class built from outside data is checked: ``HypothesisClass(...)``
itself, ``make_class``, ``loads_class``/``load_class`` and the ``gen_*``
generators (and ``dims.witness_from_json``) refuse ragged rows, labels out of
range and rows out of canonical order.  Classes derived from a valid class
(``restrict``, and dslab's subfamilies of one: density witnesses, DS cores,
Natarajan products, the inside-menu subclass) are valid by construction and
go through the private ``_trusted_class``, which skips those checks.

``off_groups(W, i)`` alone groups rows by their labels off coordinate i (the
one-inclusion edges and the DS i-neighbours); it keeps each grouping on ``W``.
``walk`` alone enumerates the coordinate tuples of every restriction search;
it walks only coordinates with more than ell labels, the only ones that can
carry a live edge or belong to a shattered set.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetError

__all__ = [
    "HypothesisClass",
    "check_coords",
    "class_id",
    "load_class",
    "loads_class",
    "save_class",
    "dumps_class",
    "off_groups",
    "restrict",
    "walk",
    "gen_cube",
    "gen_random",
]

_GEN_BUDGET = 1_000_000  # refuse to materialize gen_cube or gen_random classes above this size
_WALK_LIMIT = 2**20  # refuse walks over more coordinate tuples; a full walk of n = 20 runs


@dataclass(frozen=True)
class HypothesisClass:
    """Canonical finite hypothesis class over coordinates ``1..n``.

    ``hyps`` holds distinct label vectors sorted lexicographically.
    """

    k: int
    n: int
    hyps: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("label count k must be >= 1")
        if self.n < 1:
            raise ValueError("coordinate count n must be >= 1")
        if not self.hyps:
            raise ValueError("hypothesis class must be non-empty")
        for h in self.hyps:
            if len(h) != self.n:
                raise ValueError(f"ragged row: expected length {self.n}, got {len(h)}")
            if not all(1 <= v <= self.k for v in h):
                raise ValueError(f"label out of range in {h}: labels lie in [1, {self.k}]")
        if any(a >= b for a, b in zip(self.hyps, self.hyps[1:])):
            raise ValueError("rows must be strictly ascending (canonical order)")

    def __len__(self) -> int:
        return len(self.hyps)

    def labels_at(self, i: int) -> tuple[int, ...]:
        """Distinct labels realized at 1-based coordinate ``i``, ascending."""
        return tuple(sorted({h[i - 1] for h in self.hyps}))

    def row_index(self, vec: Sequence[int]) -> int:
        """Index of ``vec`` in canonical order; raises KeyError if absent."""
        v = tuple(vec)
        idx = getattr(self, "_index", None)
        if idx is None:
            idx = {h: j for j, h in enumerate(self.hyps)}
            object.__setattr__(self, "_index", idx)
        if v not in idx:
            raise KeyError(f"vector {v} not in class")
        return idx[v]


def _trusted_class(k: int, n: int, hyps: tuple[tuple[int, ...], ...]) -> HypothesisClass:
    """A class from rows the caller guarantees canonical: distinct, ascending,
    of length ``n``, labels in ``1..k``.  ``__post_init__``'s checks are
    skipped, so only rows derived from a valid class may come here."""
    H = object.__new__(HypothesisClass)
    H.__dict__.update(k=k, n=n, hyps=hyps)
    return H


def make_class(k: int, n: int, rows: Iterable[Sequence[int]]) -> HypothesisClass:
    """Deduplicate and canonicalize ``rows`` into a class, which checks them."""
    distinct = {tuple(int(v) for v in row) for row in rows}
    return HypothesisClass(k=k, n=n, hyps=tuple(sorted(distinct)))


def check_coords(n: int, coords: Sequence[int], allow_repeats: bool = False) -> tuple[int, ...]:
    """Validate a 1-based coordinate sequence against a class of width ``n``."""
    cs = tuple(int(c) for c in coords)
    if not cs:
        raise ValueError("coordinate sequence must be non-empty")
    for c in cs:
        if not 1 <= c <= n:
            raise ValueError(f"coordinate index out of range: {c} not in [1, {n}]")
    if not allow_repeats and len(set(cs)) != len(cs):
        raise ValueError(f"repeated coordinate in {cs}")
    return cs


def restrict(H: HypothesisClass, coords: Sequence[int], allow_repeats: bool = False) -> HypothesisClass:
    """Project ``H`` onto the given coordinate sequence and deduplicate.

    ``k`` is unchanged and the new width equals ``len(coords)``.  Repeated
    coordinates are rejected unless ``allow_repeats`` is set (tests use it to
    build the un-reduced graph of a sample with repeated instances).
    """
    cs = check_coords(H.n, coords, allow_repeats=allow_repeats)
    if len(cs) == 1:  # itemgetter of one index gives a label, not a 1-tuple
        c = cs[0] - 1
        rows = {(h[c],) for h in H.hyps}
    else:
        rows = set(map(itemgetter(*(c - 1 for c in cs)), H.hyps))
    return _trusted_class(H.k, len(cs), tuple(sorted(rows)))


def off_groups(W: HypothesisClass, i: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The rows of ``W`` grouped by their labels off coordinate i (0-based):
    (key, ascending row indices) per group, by ascending key.  Each group is
    one edge of W's one-inclusion graph in direction i, and its members are
    each other's i-neighbours.  Built on first use and kept on ``W``."""
    kept = W.__dict__.setdefault("_off_groups", {})  # frozen: write __dict__ directly
    if i not in kept:
        buckets: dict[tuple[int, ...], list[int]] = {}
        for v, h in enumerate(W.hyps):
            buckets.setdefault(h[:i] + h[i + 1:], []).append(v)
        kept[i] = tuple((key, tuple(vs)) for key, vs in sorted(buckets.items()))
    return kept[i]


def walk(H: HypothesisClass, ell: int,
         sizes: Sequence[int]) -> Iterator[tuple[tuple[int, ...], HypothesisClass]]:
    """(T, ``restrict(H, T)``) for every tuple T of coordinates heavy at
    ``ell`` (where ``H`` has more than ell labels), of each size in ``sizes``
    in turn, lexicographically within a size: the full walk's order with
    every tuple holding a light coordinate left out.  A walk over more than
    ``_WALK_LIMIT`` such tuples in all raises BudgetError before it yields
    anything."""
    heavy = [i for i, col in enumerate(zip(*H.hyps), 1) if len(set(col)) > ell]
    count = sum(math.comb(len(heavy), size) for size in sizes)
    if count > _WALK_LIMIT:
        raise BudgetError(f"walk of {count} coordinate tuples exceeds limit {_WALK_LIMIT}")
    for size in sizes:
        for T in itertools.combinations(heavy, size):
            yield T, restrict(H, T)


def gen_cube(k: int, ell: int, s: int, m: int) -> HypothesisClass:
    """Product class with ``s`` full-alphabet coordinates and ``m - s``
    coordinates restricted to the first ``ell`` labels.

    Size is exactly ``k**s * ell**(m-s)``.
    """
    if not 1 <= ell < k:
        raise ValueError(f"need 1 <= ell < k, got ell={ell}, k={k}")
    if not 0 <= s <= m:
        raise ValueError(f"need 0 <= s <= m, got s={s}, m={m}")
    if m < 1:
        raise ValueError("m must be >= 1")
    size = k**s * ell ** (m - s)
    if size > _GEN_BUDGET:
        raise BudgetError(f"product class of size {size} exceeds budget {_GEN_BUDGET}")
    ranges = [range(1, k + 1)] * s + [range(1, ell + 1)] * (m - s)
    rows = itertools.product(*ranges)
    return HypothesisClass(k=k, n=m, hyps=tuple(sorted(rows)))


def gen_random(k: int, n: int, target_size: int, seed: int) -> HypothesisClass:
    """Uniformly sampled class of ``target_size`` <= ``_GEN_BUDGET`` distinct vectors."""
    total = k**n
    if not 1 <= target_size <= total:
        raise ValueError(f"target_size {target_size} not in [1, {total} = k**n]")
    if target_size > _GEN_BUDGET:
        raise BudgetError(f"random class of size {target_size} exceeds budget {_GEN_BUDGET}")
    rng = np.random.default_rng(seed)
    if total <= 4_000_000:
        picks = rng.choice(total, size=target_size, replace=False)
        rows = [_decode(int(p), k, n) for p in picks]
    else:
        chosen: set[tuple[int, ...]] = set()
        while len(chosen) < target_size:
            chosen.add(tuple(int(v) for v in rng.integers(1, k + 1, size=n)))
        rows = list(chosen)
    return HypothesisClass(k=k, n=n, hyps=tuple(sorted(rows)))


def _decode(idx: int, k: int, n: int) -> tuple[int, ...]:
    digits = []
    for _ in range(n):
        digits.append(idx % k + 1)
        idx //= k
    return tuple(reversed(digits))


def _json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer; JSON true/false load as bools, which
    Python counts as ints, so the type is compared exactly."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {json.dumps(value)}")
    return value


def _class_from_json(obj) -> HypothesisClass:
    """The class in a parsed class JSON object; ``k``, ``n`` and every label
    must be JSON integers."""
    if not isinstance(obj, dict):
        raise ValueError("class JSON must be an object")
    for key in ("k", "n", "hyps"):
        if key not in obj:
            raise ValueError(f"class JSON missing key {key!r}")
    if not isinstance(obj["hyps"], list) or not all(isinstance(h, list) for h in obj["hyps"]):
        raise ValueError("class JSON 'hyps' must be a list of label lists")
    return make_class(_json_int(obj["k"], "class JSON 'k'"), _json_int(obj["n"], "class JSON 'n'"),
                      [[_json_int(v, "class JSON label") for v in h] for h in obj["hyps"]])


def loads_class(text: str) -> HypothesisClass:
    """Parse class JSON; ``k``, ``n`` and every label must be JSON integers."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed class JSON: {exc}") from exc
    return _class_from_json(obj)


def load_class(path) -> HypothesisClass:
    """Read a class from a JSON file: ``{"k": int, "n": int, "hyps": [[...]]}``."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads_class(fh.read())


def dumps_class(H: HypothesisClass) -> str:
    return json.dumps({"k": H.k, "n": H.n, "hyps": [list(h) for h in H.hyps]},
                      sort_keys=True, separators=(",", ":"))


def class_id(H: HypothesisClass) -> str:
    """The first 16 hex digits of the SHA-256 of ``dumps_class(H)``."""
    return hashlib.sha256(dumps_class(H).encode()).hexdigest()[:16]


def save_class(H: HypothesisClass, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_class(H))
        fh.write("\n")

