"""Agnostic list learning pipeline: cover, menu, inside-menu ERM.

Three stages over three fresh samples:

1. A finite cover of list functions such that, for every hypothesis h, the
   h-consistent part of the first sample is fully covered by some member.
   Members are unions of one-inclusion list predictions trained on stored
   size-d subsamples; they are found by boosting with point reweighting
   rather than by a minimax existence argument, and coverage is verified
   post hoc instead of assumed.
2. A multiplicative-weights pass over the second sample that stitches
   selected cover members into a menu: weight update exp(reward/2), reward 1
   exactly when the round's label is inside the sampled member but not yet
   inside the growing union.
3. An inside-menu empirical risk minimizer over the third sample, charged
   only on points whose label the menu contains, followed by a realizable
   list learner on the correctly-classified in-menu points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .dims import ds_dimension
from .errors import BudgetError, CertificateError
from .hclass import HypothesisClass, _trusted_class, class_id
from .learn import (ExperimentReport, ListPrediction, PredictionTable, PrefixVotePredictor,
                    SyntheticDistribution, _consolidate, _inverse_cdf, _label_table,
                    _pair_arrays)

__all__ = [
    "CoverMember",
    "ListCover",
    "Menu",
    "InsideMenuResult",
    "build_list_cover",
    "mw_menu",
    "inside_menu_erm",
    "agnostic_pipeline",
]

BOOST_BUDGET = 64  # weak-subsample tries per boosting round


class CoverMember:
    """Union of one-inclusion predictions over stored subsamples.

    ``states`` holds each subsample's state, in the same order;
    ``_boost_member`` built them through ``table`` (and so checked
    realizability) while it searched.  Predictions come from ``table``, the
    cover's one ``PredictionTable``; ``predict`` takes the union afresh on
    every call.
    """

    def __init__(self, subsamples: tuple[tuple[tuple[int, int], ...], ...],
                 states: tuple, table: PredictionTable):
        self.subsamples = subsamples
        self.table = table
        self._states = states

    def predict(self, x: int) -> frozenset[int]:
        lookup = self.table.predict
        return frozenset().union(*(lookup(state, x).labels for state in self._states))


@dataclass(frozen=True)
class ListCover:
    members: tuple[CoverMember, ...]
    member_of: dict = field(compare=False)   # hypothesis index -> member index
    uncovered: tuple[int, ...] = ()          # hypothesis indices the budget missed

    def __len__(self) -> int:
        return len(self.members)


def _boost_member(table: PredictionTable, points: list[tuple[int, int]], d: int, j: int,
                  rng: np.random.Generator) -> CoverMember | None:
    """Boost one covering member for a realizable point set.

    Maintains weights over the points; each round draws up to ``BOOST_BUDGET``
    weighted size-d subsamples until the trained predictor's weighted miss
    rate is at most 1/3, then halves the weights of points it covers.
    Returns None when some round finds no weak subsample.  Subsamples invert
    one ``learn._inverse_cdf`` per round.  Each attempt builds its state
    through the cover's ``table`` and asks it once per distinct x of the
    points.
    """
    if not points:
        return CoverMember((), (), table)
    H = table.H
    px, py = _pair_arrays(H, points)
    xs = np.unique(px).tolist()
    weights = np.ones(len(points))
    covered = np.zeros(len(points), dtype=bool)
    subsamples: list[tuple[tuple[int, int], ...]] = []
    states: list = []
    for _round in range(j):
        cdf = _inverse_cdf(weights)
        # Each weight is 2**-a with a <= j, so every sum below is exact in
        # float64 and the 1/3 test decides as it would over the rationals.
        total = weights.sum()
        for _attempt in range(BOOST_BUDGET):
            picks = cdf.searchsorted(rng.random(d), side="right")
            sub = tuple(points[int(i)] for i in picks)
            state = table.state(*_consolidate(sub, H))
            hit = _label_table(H, xs, lambda x: table.predict(state, x).labels)[px, py]
            if weights[~hit].sum() <= total / 3:
                break
        else:
            return None
        subsamples.append(sub)
        states.append(state)
        weights[hit] /= 2
        covered |= hit
        if covered.all():
            break  # everything already covered; no need for more rounds
    return CoverMember(tuple(subsamples), tuple(states), table)


def build_list_cover(H: HypothesisClass, S1: Sequence[tuple[int, int]], d: int, j: int,
                     ell: int = 1, *, rng: np.random.Generator) -> ListCover:
    """Cover every hypothesis's consistent subsample with one member.

    For each h, the points of S1 labeled consistently with h form a
    realizable set; a member is boosted for it and coverage is verified by
    direct membership checks.  Hypotheses whose member failed to cover (or
    whose boosting found no weak subsample within ``BOOST_BUDGET`` tries per
    round) are reported in ``uncovered``.  One ``PredictionTable`` per call
    serves the boosting rounds and every member.
    """
    if d < 1 or j < 1:
        raise ValueError("need d >= 1 and j >= 1")
    table = PredictionTable(H, ell)
    members: list[CoverMember] = []
    by_subsamples: dict[tuple, int] = {}
    member_of: dict[int, int] = {}
    uncovered: list[int] = []
    pairs = [(int(x), int(y)) for x, y in S1]
    for h_idx, h in enumerate(H.hyps):
        points = [(x, y) for x, y in pairs if h[x - 1] == y]
        member = _boost_member(table, points, d, j, rng)
        if member is None:
            uncovered.append(h_idx)
            continue
        if not all(y in member.predict(x) for x, y in set(points)):
            uncovered.append(h_idx)
            continue
        key = member.subsamples
        if key not in by_subsamples:
            by_subsamples[key] = len(members)
            members.append(member)
        member_of[h_idx] = by_subsamples[key]
    if not members:
        raise BudgetError("no cover member could be built within budget")
    return ListCover(members=tuple(members), member_of=member_of,
                     uncovered=tuple(uncovered))


@dataclass(frozen=True)
class Menu:
    """Union of the cover members selected during the weight rounds.

    ``trace`` records (round, member index); only rounds 1..T-1 contribute to
    the menu.  ``weight_history`` stores each round's pre-update weight
    vector so the multiplicative update can be replayed and checked exactly.
    ``predict`` takes the union over the distinct ``menu_members()`` on every
    call; the members answer from their cover's ``PredictionTable``.
    """

    cover: ListCover = field(compare=False)
    trace: tuple[tuple[int, int], ...] = ()
    rewards: tuple[tuple[int, ...], ...] = ()
    weight_history: tuple[tuple[float, ...], ...] = ()

    def menu_members(self) -> tuple[int, ...]:
        return tuple(sorted({m for _t, m in self.trace[:-1]}))

    def predict(self, x: int) -> frozenset[int]:
        return frozenset().union(*(self.cover.members[m].predict(x)
                                   for m in self.menu_members()))


def mw_menu(F: ListCover, S2: Sequence[tuple[int, int]], *, rng: np.random.Generator) -> Menu:
    """Multiplicative-weights menu construction over the second sample.

    Round t samples a member proportionally to its weight, grants reward 1 to
    every member containing y_t when y_t is not yet in the union of earlier
    selections, and multiplies weights by exp(reward/2).  The menu is the
    union over rounds 1..T-1.  Rewards are read off a member table
    ``C[m, x, y]`` and a running union table ``U[x, y]``, each member being
    asked once per distinct x of S2; a member joins ``U`` on its first draw.
    Members are drawn by inverting ``learn._inverse_cdf``.  Only a rewarded
    round moves the weights, so only such a round rebuilds that CDF and the
    ``weight_history`` row, and checks that every weight is still positive.
    """
    if len(F) == 0:
        raise ValueError("cover must be non-empty")
    if not S2:
        raise ValueError("need at least one round")
    H = F.members[0].table.H
    sx, sy = _pair_arrays(H, S2)
    xs = np.unique(sx).tolist()
    C = np.stack([_label_table(H, xs, member.predict) for member in F.members])
    U = np.zeros_like(C[0])
    n_members = len(F.members)
    drawn = np.zeros(n_members, dtype=bool)
    weights = np.ones(n_members)
    cdf, row = _inverse_cdf(weights), tuple(weights.tolist())
    no_reward = (0,) * n_members
    trace: list[tuple[int, int]] = []
    rewards: list[tuple[int, ...]] = []
    history: list[tuple[float, ...]] = []
    for t, (x, y) in enumerate(zip(sx.tolist(), sy.tolist()), start=1):
        history.append(row)
        m_idx = int(cdf.searchsorted(rng.random(), side="right"))
        trace.append((t, m_idx))
        r = C[:, x, y]
        if U[x, y] or not r.any():
            rewards.append(no_reward)
        else:
            rewards.append(tuple(r.astype(int).tolist()))
            weights[r] *= math.exp(0.5)
            if not np.all(weights > 0):
                raise CertificateError(f"menu weights left the positive reals: {weights.tolist()}")
            cdf, row = _inverse_cdf(weights), tuple(weights.tolist())
        if not drawn[m_idx]:
            drawn[m_idx] = True
            U |= C[m_idx]
    history.append(row)
    return Menu(cover=F, trace=tuple(trace), rewards=tuple(rewards),
                weight_history=tuple(history))


@dataclass(frozen=True)
class InsideMenuResult:
    erm_index: int
    erm_loss: Fraction                      # empirical inside-menu loss of h_S
    predictor_loss: Fraction                # empirical inside-menu loss of the list predictor
    n_plus: int
    flagged: bool                           # S+ was empty
    predict: object = field(compare=False)  # callable x -> ListPrediction


class _InsideMenuFit(NamedTuple):
    in_menu: np.ndarray     # w[x, y]: points of S at (x, y) whose label the menu contains
    bad: np.ndarray         # per hypothesis, the in-menu points of S it gets wrong
    erm_index: int          # first hypothesis with the fewest
    s_plus: list            # in-menu points h_S gets right, in sample order
    consistent: np.ndarray  # per hypothesis: labels every S+ instance inside the menu


def _fit_inside_menu(H: HypothesisClass, nu: Menu, S: list[tuple[int, int]]):
    """The inside-menu ERM step on tables: the menu is asked once per
    distinct x of S, and each loss is one integer count."""
    sx, sy = _pair_arrays(H, S)
    menu = _label_table(H, np.unique(sx).tolist(), nu.predict)
    counts = np.zeros(menu.shape, dtype=np.int64)
    np.add.at(counts, (sx, sy), 1)
    in_menu = counts * menu
    table = np.array(H.hyps, dtype=np.intp)  # |H| x n
    bad = in_menu.sum() - in_menu[np.arange(1, H.n + 1), table].sum(axis=1)
    erm_idx = int(np.argmin(bad))
    kept = menu[sx, sy] & (table[erm_idx, sx - 1] == sy)
    plus_xs = np.unique(sx[kept])
    consistent = menu[plus_xs, table[:, plus_xs - 1]].all(axis=1)
    return _InsideMenuFit(in_menu, bad, erm_idx,
                          [pt for pt, keep in zip(S, kept.tolist()) if keep], consistent)


def inside_menu_erm(H: HypothesisClass, nu: Menu, S3: Sequence[tuple[int, int]],
                    ell: int) -> InsideMenuResult:
    """ERM under the loss charged only when the menu contains the label.

    h_S minimizes the empirical inside-menu loss over H; the kept points S+
    are those the menu contains and h_S gets right.  The final predictor is
    the realizable list learner trained on S+ within the subclass of
    menu-consistent hypotheses, always answers inside the menu, and recalls
    every S+ point, which makes its empirical inside-menu loss at most h_S's.
    """
    if not S3:
        raise ValueError("S3 must be non-empty")
    S = [(int(x), int(y)) for x, y in S3]
    fit = _fit_inside_menu(H, nu, S)
    erm_idx, s_plus = fit.erm_index, fit.s_plus
    erm_loss = Fraction(int(fit.bad[erm_idx]), len(S))

    if not s_plus:
        predict = lambda x: ListPrediction(())  # noqa: E731
        return InsideMenuResult(erm_index=erm_idx, erm_loss=erm_loss,
                                predictor_loss=_loss_of_predictor(H, predict, fit.in_menu, len(S)),
                                n_plus=0, flagged=True, predict=predict)

    # h_S labels every S+ point inside the menu, so the subclass contains it
    sub = _trusted_class(H.k, H.n, tuple(h for h, keep in zip(H.hyps, fit.consistent) if keep))
    mem = {x: y for x, y in s_plus}

    table = PredictionTable(sub, ell)
    if len(s_plus) >= 8:
        base_predict = PrefixVotePredictor(sub, s_plus, ell, cache=table).predict
    else:
        state = table.state(*_consolidate(s_plus, sub))
        base_predict = lambda x: table.predict(state, x)  # noqa: E731

    def predict(x: int) -> ListPrediction:
        menu = nu.predict(x)
        inside = [lab for lab in base_predict(x).labels if lab in menu]
        if x in mem and mem[x] not in inside:
            inside = [mem[x]] + inside
        return ListPrediction(tuple(inside[:ell]))

    pred_loss = _loss_of_predictor(H, predict, fit.in_menu, len(S))
    if pred_loss > erm_loss:
        raise CertificateError(f"predictor inside-menu loss {pred_loss} exceeds "
                               f"the ERM loss {erm_loss}")
    return InsideMenuResult(erm_index=erm_idx, erm_loss=erm_loss,
                            predictor_loss=pred_loss, n_plus=len(s_plus),
                            flagged=False, predict=predict)


def _loss_of_predictor(H: HypothesisClass, predict, in_menu: np.ndarray, m: int) -> Fraction:
    """Inside-menu loss over the m sample points counted in ``in_menu``;
    ``predict`` is asked once per instance that has an in-menu point."""
    xs = np.flatnonzero(in_menu.any(axis=1)).tolist()
    hits = _label_table(H, xs, lambda x: predict(x).labels)
    return Fraction(int((in_menu * ~hits).sum()), m)


def agnostic_pipeline(H: HypothesisClass, D: SyntheticDistribution, ell: int,
                      n1: int, T: int, n3: int, delta: float, seed: int) -> ExperimentReport:
    """Run cover -> menu -> inside-menu ERM and measure excess error exactly.

    The stage constants are d = 4 * max(1, d_DS), j = ceil(log2(n1)) and
    ``BOOST_BUDGET`` tries per boosting round; all are engineering choices
    recorded in the report, not claimed values.  ``delta`` must lie in
    (0, 1) and is recorded in ``params``, but no stage reads it.
    """
    if min(n1, T, n3) < 1:
        raise ValueError("sample sizes must be >= 1")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    sx, sy = _pair_arrays(H, D.support)
    xs = np.unique(sx).tolist()
    d_ds, _w = ds_dimension(H, ell)
    d = 4 * max(1, d_ds)
    j = max(1, math.ceil(math.log2(max(2, n1))))

    rng_draw = np.random.default_rng([seed, 0])
    rng_boost = np.random.default_rng([seed, 1])
    rng_mw = np.random.default_rng([seed, 2])
    S1 = D.draw(rng_draw, n1)
    S2 = D.draw(rng_draw, T)
    S3 = D.draw(rng_draw, n3)

    cover = build_list_cover(H, S1, d, j, ell=ell, rng=rng_boost)
    nu = mw_menu(cover, S2, rng=rng_mw)
    res = inside_menu_erm(H, nu, S3, ell)

    err_mu = D.list_error(res.predict)
    best_idx, best_err = D.best_hypothesis(H)
    excess = err_mu - best_err

    # the decomposition terms are masses of masks over the support; the menu
    # and mu_star are asked once per distinct instance, through [x, y] tables
    menu = _label_table(H, xs, nu.predict)
    mu_star_idx = cover.member_of.get(best_idx)
    decomposition = {}
    if mu_star_idx is not None:
        best = np.array(H.hyps[best_idx])[sx - 1] == sy
        in_menu = menu[sx, sy]
        in_mu_star = _label_table(H, xs, cover.members[mu_star_idx].predict)[sx, sy]
        term_nu, term1, term2 = D._mass([best & ~in_menu, best & ~in_mu_star,
                                         in_mu_star & ~in_menu])
        if term_nu > term1 + term2:
            raise CertificateError(f"decomposition fails: {term_nu} > {term1} + {term2}")
        decomposition = {"best_label_outside_menu": float(term_nu),
                         "best_label_outside_cover_member": float(term1),
                         "cover_member_outside_menu": float(term2)}

    menu_sizes = sorted(menu[xs].sum(axis=1).tolist())
    return ExperimentReport(
        kind="agnostic", class_id=class_id(H), ell=ell, seed=seed,
        params={"n1": n1, "T": T, "n3": n3, "delta": delta,
                "d_subsample": d, "j_unions": j, "boost_budget": BOOST_BUDGET,
                "stage_streams": {"draw": [seed, 0], "boost": [seed, 1],
                                  "mw": [seed, 2]}},
        results={"err": float(err_mu), "best_err": float(best_err),
                 "excess_err": float(excess), "cover_size": len(cover),
                 "uncovered": list(cover.uncovered), "n_plus": res.n_plus,
                 "erm_index": res.erm_index, "flagged": res.flagged,
                 "menu_list_sizes": menu_sizes,
                 "inside_menu_loss_erm": float(res.erm_loss),
                 "inside_menu_loss_predictor": float(res.predictor_loss),
                 "decomposition": decomposition},
        verdict=None,
    )
