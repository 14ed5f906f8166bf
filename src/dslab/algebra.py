"""Monomial spanning sets, exact integer ranks, and the density/DS auditor.

Every class W over n coordinates carries a vector space of real functions on
its rows.  The monomials w -> w_1^a_1 * ... * w_n^a_n with per-coordinate
degree below the number of realized labels, and with at most s coordinates of
degree >= ell, span that space whenever s is at least the ell-DS dimension of
W.  ``check_spanning`` first tries two exact certificates in the Newton
basis, in which the matrix of the rows' own exponents is triangular: with no
arithmetic when every row's exponent is a monomial of the set, else by one
square Newton matrix of full rank modulo a fixed 62-bit prime.  Only when
both fail does it rank every monomial's evaluations, and only that fallback
can report a deficit.  The budget binds at the same monomial and cell counts
on every path.  Ranks are computed exactly: first modulo the prime, with a
fraction-free integer elimination as the confirmation path whenever the
modular answer is not already provably tight.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .dims import ds_dimension, natarajan_dimension, validate_witness
from .errors import BudgetError, CertificateError
from .hclass import HypothesisClass, class_id, off_groups, restrict
from .oig import build_oig, format_ratio, min_max_orientation, mu_with_witness

__all__ = [
    "AuditReport",
    "monomial_set",
    "eval_matrix",
    "rank_exact",
    "rank_mod_p",
    "rank_bareiss",
    "check_spanning",
    "direction_subspace_dim",
    "extract_basis",
    "in_direction_subspace",
    "audit_theorem",
    "DEFAULT_MATRIX_BUDGET",
]

DEFAULT_MATRIX_BUDGET = 2_000_000  # max matrix cells materialized per operation


def _exponent_count(W: HypothesisClass, ell: int, s: int,
                    budget: int) -> tuple[list[tuple[int, ...]], int]:
    """The labels realized at each coordinate, and the number of exponent
    tuples ``monomial_set`` lists, counted by a DP over coordinates on the
    number of heavy exponents.  Refuses ell < 1 and s outside [0, n] with
    ValueError, and more tuples than ``budget`` with BudgetError."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if not 0 <= s <= W.n:
        raise ValueError(f"need 0 <= s <= n, got s={s}")
    labels = [W.labels_at(i + 1) for i in range(W.n)]
    ways = [1] + [0] * s  # ways[h]: exponent prefixes with h heavy coordinates
    for r in labels:
        light, heavy = min(len(r), ell), max(len(r) - ell, 0)
        ways = [light * ways[h] + (heavy * ways[h - 1] if h else 0) for h in range(s + 1)]
    if sum(ways) > budget:
        raise BudgetError(f"monomial enumeration exceeds budget {budget}")
    return labels, sum(ways)


def _check_cells(cells: int, budget: int) -> None:
    if cells > budget:
        raise BudgetError(f"evaluation matrix of {cells} cells exceeds budget {budget}")


def monomial_set(W: HypothesisClass, ell: int, s: int,
                 budget: int = DEFAULT_MATRIX_BUDGET) -> list[tuple[int, ...]]:
    """All exponent tuples with a_i < k_i and at most s heavy coordinates
    (a_i >= ell).

    k_i is the number of distinct labels realized at coordinate i; shrinking
    the degree bound per coordinate loses nothing because degree-(k_i - 1)
    polynomials already interpolate any function on k_i points.  Enumeration
    order is lexicographic in the exponent vector.
    """
    labels, _count = _exponent_count(W, ell, s, budget)
    k_per = [len(r) for r in labels]
    out: list[tuple[int, ...]] = []

    def rec(i: int, heavy: int, alpha: list[int]):
        if i == W.n:
            out.append(tuple(alpha))
            return
        for a in range(k_per[i]):
            h = heavy + (1 if a >= ell else 0)
            if h > s:
                break  # exponents scan upward; heavier only gets worse
            alpha.append(a)
            rec(i + 1, h, alpha)
            alpha.pop()

    rec(0, 0, [])
    return out


def eval_matrix(W: HypothesisClass, monomials: list[tuple[int, ...]],
                budget: int = DEFAULT_MATRIX_BUDGET) -> tuple[tuple[int, ...], ...]:
    """Exact integer evaluations, one row per exponent tuple in
    ``monomials``, columns in the canonical row order of ``W``."""
    _check_cells(len(monomials) * len(W), budget)
    # A row is the elementwise product of per-coordinate power columns; the
    # products over the exponent prefix shared with the previous row are kept.
    cols, powers = list(zip(*W.hyps)), {}  # powers[i, a]: cols[i] ** a, elementwise
    prefix, prev, rows = [(1,) * len(W)], (), []
    for alpha in monomials:
        j = next((i for i, (x, y) in enumerate(zip(prev, alpha)) if x != y), len(prev))
        del prefix[j + 1:]
        for i in range(j, W.n):
            a = alpha[i]
            if a and (i, a) not in powers:
                powers[i, a] = tuple(z**a for z in cols[i])
            prefix.append(tuple(x * y for x, y in zip(prefix[-1], powers[i, a])) if a else prefix[-1])
        rows.append(prefix[-1])
        prev = alpha
    return tuple(rows)


# -- exact rank --------------------------------------------------------------

# The prime of rank_exact's modular pass, reported as every audit's
# ``modulus``.  Any 62-bit prime would serve; this one is the value audits
# have always reported, so changing it changes their output.
MODULUS = 3674014178492845169


def rank_mod_p(rows, p: int) -> int:
    """Gaussian elimination over GF(p), on the side with fewer rows."""
    if rows and len(rows) > len(rows[0]):
        rows = list(zip(*rows))
    mat = [[v % p for v in row] for row in rows]
    n_rows = len(mat)
    n_cols = len(mat[0]) if n_rows else 0
    rank = 0
    for col in range(n_cols):
        piv = next((r for r in range(rank, n_rows) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        below = [row for row in mat[rank + 1:] if row[col]]
        if below:  # a triangular matrix needs no inverse at all
            inv = pow(prow[col], p - 2, p)
        for row in below:
            f = row[col] * inv % p
            for c in range(col, n_cols):
                row[c] = (row[c] - f * prow[c]) % p
        rank += 1
        if rank == n_rows:
            break
    return rank


def _pivot_columns(rows) -> list[int]:
    """Columns that are not combinations over Q of earlier columns, by
    fraction-free integer elimination; every division below is exact."""
    mat = [list(map(int, row)) for row in rows]
    n_rows = len(mat)
    n_cols = len(mat[0]) if n_rows else 0
    pivots: list[int] = []
    prev = 1
    for col in range(n_cols):
        rank = len(pivots)
        piv = next((r for r in range(rank, n_rows) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][col]
        for r in range(rank + 1, n_rows):
            row = mat[r]
            f = row[col]
            for c in range(col, n_cols):
                row[c] = (pv * row[c] - f * mat[rank][c]) // prev
        prev = pv
        pivots.append(col)
        if len(pivots) == n_rows:
            break
    return pivots


def rank_bareiss(rows) -> int:
    """Exact rank over the rationals: the number of pivot columns."""
    return len(_pivot_columns(rows))


def rank_exact(rows) -> int:
    """True rank over the rationals of a sequence of integer rows.

    The modular rank can only undershoot (bad primes kill minors), so a
    modular result equal to min(rows, cols) is already certified.  Any
    deficit triggers the fraction-free integer elimination, whose answer is
    exact and is returned; an exact rank below the modular one raises
    CertificateError.
    """
    if not rows or not rows[0]:
        return 0
    r_mod = rank_mod_p(rows, MODULUS)
    if r_mod == min(len(rows), len(rows[0])):
        return r_mod
    r_exact = rank_bareiss(rows)
    if r_exact < r_mod:
        raise CertificateError(f"exact rank {r_exact} below modular rank {r_mod}")
    return r_exact


def check_spanning(W: HypothesisClass, ell: int, s: int,
                   budget: int = DEFAULT_MATRIX_BUDGET) -> tuple[bool, int, int]:
    """Do the bounded-support monomials span all functions on W?

    Returns (spans, rank, |W|); spans iff rank == |W|.

    The monomials span what their Newton products f^a do, f_a(z) being
    prod_{j<a} (z - r_j) over the labels r_0 < r_1 < ... realized at a
    coordinate: each f_a has degree a and leading coefficient 1, and the
    exponent set is downward closed.  With rho(w) the per-coordinate label
    indices of row w, f_a(r_m) = 0 for m < a, so the matrix
    [f^rho(w')(w)] is triangular under the componentwise order with a
    non-zero diagonal.  Hence two certificates of rank |W|: (1) every rho(w)
    has at most s heavy coordinates, so all of them are exponents; (2)
    otherwise each offending rho(w) keeps the first s of its heavy
    coordinates that give an unused exponent and lowers the rest to ell - 1,
    and the square Newton matrix of these |W| exponents has full rank mod
    MODULUS, so a non-zero determinant over Z.  When both fail,
    ``rank_exact`` ranks every monomial's evaluations; only this fallback
    can report a deficit.  The budget is that of ``monomial_set`` and
    ``eval_matrix``, checked on the counted exponents before either
    certificate, so no certificate answers past it.
    """
    labels, count = _exponent_count(W, ell, s, budget)
    _check_cells(count * len(W), budget)
    index = [{z: a for a, z in enumerate(r)} for r in labels]
    rhos = [tuple(ix[z] for ix, z in zip(index, w)) for w in W.hyps]
    heavy = [[i for i, a in enumerate(rho) if a >= ell] for rho in rhos]
    if all(len(h) <= s for h in heavy):
        return True, len(W), len(W)
    used = {rho for rho, h in zip(rhos, heavy) if len(h) <= s}
    for rho, h in zip(rhos, heavy):
        if len(h) > s:
            for keep in itertools.combinations(h, s):
                alpha = tuple(a if a < ell or i in keep else ell - 1 for i, a in enumerate(rho))
                if alpha not in used:
                    used.add(alpha)
                    break
    if len(used) == len(W):
        newton = []  # newton[i][a]: f_a at coordinate i, evaluated on every row
        for r, col in zip(labels, zip(*W.hyps)):
            newton.append([(1,) * len(W)])
            for root in r[:-1]:
                newton[-1].append(tuple(v * (z - root) for v, z in zip(newton[-1][-1], col)))
        square = [[math.prod(v) for v in zip(*(newton[i][a] for i, a in enumerate(alpha)))]
                  for alpha in sorted(used)]
        if rank_mod_p(square, MODULUS) == len(W):
            return True, len(W), len(W)
    rank = rank_exact(eval_matrix(W, monomial_set(W, ell, s, budget=budget), budget=budget))
    return rank == len(W), rank, len(W)


def _edge_vandermondes(W: HypothesisClass, i: int,
                       ell: int) -> Iterator[tuple[tuple[int, ...], list[list[int]]]]:
    """Per direction-i edge of ``W``: its members, and their Vandermonde rows
    [1, z, ..., z^(ell-1)] in member order, z a member's i-th label."""
    if not 1 <= i <= W.n:
        raise ValueError(f"direction {i} out of range [1, {W.n}]")
    for _key, members in off_groups(W, i - 1):
        yield members, [[W.hyps[v][i - 1] ** c for c in range(ell)] for v in members]


def direction_subspace_dim(W: HypothesisClass, i: int, ell: int) -> int:
    """Dimension of the functions that are degree-(ell-1) polynomials in the
    i-th label on every direction-i edge.

    The formula value  sum over edges of min(ell, |e|)  is checked against
    the independently computed rank of the stacked per-edge Vandermonde
    columns before being returned; a mismatch raises CertificateError.
    """
    formula, stacked = 0, []
    for members, vand in _edge_vandermondes(W, i, ell):
        formula += min(ell, len(members))
        for powers in zip(*vand):  # one stacked row per degree below ell
            row = [0] * len(W)
            for v, z in zip(members, powers):
                row[v] = z
            stacked.append(row)
    rank = rank_exact(stacked)
    if rank != formula:
        raise CertificateError(
            f"direction {i}: stacked Vandermonde rank {rank} != formula {formula}")
    return formula


def extract_basis(W: HypothesisClass, ell: int, s: int, budget: int = DEFAULT_MATRIX_BUDGET
                  ) -> tuple[list[tuple[int, ...]], tuple[tuple[int, ...], ...]]:
    """Greedy basis among the monomial evaluations, deterministic pivot order:
    the kept exponent tuples and their evaluation rows.

    Keeps each monomial, in enumeration order, whose row is not a combination
    over the rationals of the rows before it: the pivot columns of one exact
    elimination of the transposed evaluation matrix.  No modular rank
    decides here, since p may divide a minor.
    """
    mons = monomial_set(W, ell, s, budget=budget)
    rows = eval_matrix(W, mons, budget=budget)
    kept = _pivot_columns(list(zip(*rows)))
    return [mons[j] for j in kept], tuple(rows[j] for j in kept)


def in_direction_subspace(W: HypothesisClass, i: int, ell: int, values) -> bool:
    """Is the function (given as per-row values) a degree-(ell-1) polynomial
    in the i-th label on every direction-i edge?  Exact rank comparison of
    the per-edge Vandermonde system against its augmentation."""
    for members, vand in _edge_vandermondes(W, i, ell):
        aug = [row + [values[v]] for row, v in zip(vand, members)]
        if rank_exact(aug) != rank_exact(vand):
            return False
    return True


# -- end-to-end audit ---------------------------------------------------------


@dataclass(frozen=True)
class AuditReport:
    class_id: str
    ell: int
    n: int
    n_samples: int
    mu_value: Fraction
    ceil_mu: int
    d_ds: int
    d_nat: int
    t_star: int
    spanning_ok: bool | None
    spanning_rank: int | None
    class_size: int
    modulus: int
    authoritative: bool
    verdicts: dict = field(compare=False)

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def to_dict(self) -> dict:
        return {
            "class_id": self.class_id,
            "ell": self.ell,
            "n": self.n,
            "n_samples": self.n_samples,
            "mu": format_ratio(self.mu_value),
            "ceil_mu": self.ceil_mu,
            "d_ds": self.d_ds,
            "d_nat": self.d_nat,
            "t_star": self.t_star,
            "spanning": self.spanning_ok,
            "spanning_rank": self.spanning_rank,
            "class_size": self.class_size,
            "modulus": self.modulus,
            "authoritative": self.authoritative,
            "verdicts": dict(self.verdicts),
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def csv_row(self) -> list:
        return [self.class_id, self.ell, self.mu_value.numerator,
                self.mu_value.denominator, self.ceil_mu,
                self.d_ds, self.d_nat, self.t_star, self.spanning_ok, self.verdict]

    CSV_HEADER = ["class_id", "ell", "mu_num", "mu_den", "ceil_mu",
                  "d_ds", "d_nat", "t_star", "spanning", "verdict"]


def audit_theorem(H: HypothesisClass, ell: int, n_samples: int | None = None,
                  matrix_budget: int = DEFAULT_MATRIX_BUDGET) -> AuditReport:
    """Audit the ceiling-of-density bound and its companions on one class.

    Verdicts: ceil(mu) <= d_DS, d_Nat <= d_DS, t_star == ceil(mu) on the
    density-maximizing restriction, and spanning at s = d_DS.  Any failed
    verdict marks the report FAIL: it would contradict the bound being
    audited or expose an implementation bug.  A spanning check past
    ``matrix_budget`` is skipped, and the report is marked non-authoritative
    instead of guessing.  A DS or Natarajan witness that fails
    ``validate_witness`` raises CertificateError.  Each search restricts
    ``H`` afresh, and ``mu``'s walk past ``hclass.walk``'s limit raises BudgetError.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    ns = H.n if n_samples is None else n_samples

    mu_val, T_star, _F = mu_with_witness(H, ns, ell)
    ceil_mu = math.ceil(mu_val)
    _sigma, t_star = min_max_orientation(build_oig(restrict(H, T_star)), ell)

    d_ds, w_ds = ds_dimension(H, ell)
    if w_ds is not None and not validate_witness(H, w_ds):
        raise CertificateError(f"DS witness on {w_ds.coords} fails its re-check")
    d_nat, w_nat = natarajan_dimension(H, ell)
    if w_nat is not None and not validate_witness(H, w_nat):
        raise CertificateError(f"Natarajan witness on {w_nat.coords} fails its re-check")

    authoritative = True
    spanning_ok = spanning_rank = None
    try:
        spanning_ok, spanning_rank, _size = check_spanning(
            H, ell, d_ds, budget=matrix_budget)
    except BudgetError:
        authoritative = False

    verdicts = {
        "ceil_mu_le_d_ds": ceil_mu <= d_ds,
        "t_star_eq_ceil_mu": t_star == ceil_mu,
        "d_nat_le_d_ds": d_nat <= d_ds,
    }
    if spanning_ok is not None:
        verdicts["spanning"] = spanning_ok

    return AuditReport(
        class_id=class_id(H), ell=ell, n=H.n, n_samples=ns,
        mu_value=mu_val, ceil_mu=ceil_mu, d_ds=d_ds, d_nat=d_nat,
        t_star=t_star, spanning_ok=spanning_ok, spanning_rank=spanning_rank,
        class_size=len(H), modulus=MODULUS, authoritative=authoritative,
        verdicts=verdicts,
    )
