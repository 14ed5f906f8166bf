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
from typing import Sequence

import numpy as np

from .dims import ds_dimension
from .errors import BudgetError, CertificateError
from .hclass import HypothesisClass
from .learn import (ExperimentReport, ListPrediction, PrefixVotePredictor,
                    SyntheticDistribution, _cached_predict, _consolidate,
                    _predict_from_state, _state_of)

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

    Each subsample is consolidated once, here, which also checks that it is
    realizable.  Predictions are looked up in ``memo``, a (state, x) ->
    ListPrediction dict; ``build_list_cover`` passes one memo to its boosting
    rounds and to every member it builds, so each distinct (state, x) is
    oriented once per cover.  Sharing is sound because a prediction depends
    only on (H, state, x, ell) and one cover fixes H and ell.  The union at
    each x is kept per member in ``_cache``.
    """

    def __init__(self, H: HypothesisClass, subsamples: tuple[tuple[tuple[int, int], ...], ...],
                 ell: int, memo: dict):
        self.H = H
        self.subsamples = subsamples
        self.ell = ell
        self._states = tuple(_state_of(*_consolidate(sub, H)) for sub in subsamples)
        self._memo = memo
        self._cache: dict[int, frozenset[int]] = {}

    @property
    def list_bound(self) -> int:
        return max(1, len(self.subsamples) * self.ell)

    def predict(self, x: int) -> frozenset[int]:
        got = self._cache.get(x)
        if got is None:
            got = frozenset().union(*(
                _cached_predict(self.H, state, x, self.ell, self._memo).labels
                for state in self._states))
            self._cache[x] = got
        return got


@dataclass(frozen=True)
class ListCover:
    members: tuple[CoverMember, ...]
    member_of: dict = field(compare=False)   # hypothesis index -> member index
    uncovered: tuple[int, ...] = ()          # hypothesis indices the budget missed

    def __len__(self) -> int:
        return len(self.members)


def _boost_member(H: HypothesisClass, points: list[tuple[int, int]], d: int, j: int,
                  ell: int, rng: np.random.Generator, memo: dict) -> CoverMember | None:
    """Boost one covering member for a realizable point set.

    Maintains weights over the points; each round draws up to ``BOOST_BUDGET``
    weighted size-d subsamples until the trained predictor's weighted miss
    rate is at most 1/3, then halves the weights of points it covers.
    Returns None when some round finds no weak subsample.  Predictions go
    through the cover's (state, x) ``memo``.
    """
    if not points:
        return CoverMember(H, (), ell, memo)
    weights = np.ones(len(points))
    subsamples: list[tuple[tuple[int, int], ...]] = []
    preds: list[frozenset[int]] = []
    for _round in range(j):
        p = weights / weights.sum()
        found = None
        for _attempt in range(BOOST_BUDGET):
            picks = rng.choice(len(points), size=d, p=p)
            sub = tuple(points[int(i)] for i in picks)
            state = _state_of(*_consolidate(sub, H))
            per_point = [frozenset(_cached_predict(H, state, x, ell, memo).labels)
                         for x, _y in points]
            miss = sum(w for (x, y), w, pl in zip(points, weights, per_point)
                       if y not in pl)
            if miss <= weights.sum() / 3:
                found = (sub, per_point)
                break
        if found is None:
            return None
        sub, per_point = found
        subsamples.append(sub)
        preds.append(per_point)
        for idx, ((x, y), pl) in enumerate(zip(points, per_point)):
            if y in pl:
                weights[idx] /= 2
        if all(any(y in pl[idx] for pl in preds)
               for idx, (x, y) in enumerate(points)):
            break  # everything already covered; no need for more rounds
    return CoverMember(H, tuple(subsamples), ell, memo)


def build_list_cover(H: HypothesisClass, S1: Sequence[tuple[int, int]], d: int, j: int,
                     ell: int = 1, rng: np.random.Generator | None = None) -> ListCover:
    """Cover every hypothesis's consistent subsample with one member.

    For each h, the points of S1 labeled consistently with h form a
    realizable set; a member is boosted for it and coverage is verified by
    direct membership checks.  Hypotheses whose member failed to cover (or
    whose boosting found no weak subsample within ``BOOST_BUDGET`` tries per
    round) are reported in ``uncovered``.

    One (state, x) -> ListPrediction memo is created per call and shared by
    the boosting rounds and every member, so an orientation is computed once
    per distinct (state, x) of this cover; see ``CoverMember``.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if d < 1 or j < 1:
        raise ValueError("need d >= 1 and j >= 1")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    memo: dict = {}
    members: list[CoverMember] = []
    by_subsamples: dict[tuple, int] = {}
    member_of: dict[int, int] = {}
    uncovered: list[int] = []
    pairs = [(int(x), int(y)) for x, y in S1]
    for h_idx, h in enumerate(H.hyps):
        points = [(x, y) for x, y in pairs if h[x - 1] == y]
        member = _boost_member(H, points, d, j, ell=ell, rng=rng, memo=memo)
        if member is None:
            uncovered.append(h_idx)
            continue
        covered = all(y in member.predict(x) for x, y in points)
        if not covered:
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
    The union at each x is taken once, over the distinct ``menu_members()``,
    and kept in ``_memo``; the menu is immutable, so the union never changes.
    """

    cover: ListCover = field(compare=False)
    trace: tuple[tuple[int, int], ...] = ()
    rewards: tuple[tuple[int, ...], ...] = ()
    weight_history: tuple[tuple[float, ...], ...] = ()
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def menu_members(self) -> tuple[int, ...]:
        return tuple(sorted({m for _t, m in self.trace[:-1]}))

    def predict(self, x: int) -> frozenset[int]:
        got = self._memo.get(x)
        if got is None:
            got = frozenset().union(*(self.cover.members[m].predict(x)
                                      for m in self.menu_members()))
            self._memo[x] = got
        return got

    @property
    def list_bound(self) -> int:
        if len(self.trace) <= 1:
            return 0
        return sum(self.cover.members[m].list_bound for _t, m in self.trace[:-1])


def mw_menu(F: ListCover, S2: Sequence[tuple[int, int]],
            rng: np.random.Generator | None = None) -> Menu:
    """Multiplicative-weights menu construction over the second sample.

    Round t samples a member proportionally to its weight, grants reward 1 to
    every member containing y_t when y_t is not yet in the union of earlier
    selections, and multiplies weights by exp(reward/2).  The menu is the
    union over rounds 1..T-1.
    """
    if len(F) == 0:
        raise ValueError("cover must be non-empty")
    if not S2:
        raise ValueError("need at least one round")
    if rng is None:
        rng = np.random.default_rng(0)
    n_members = len(F.members)
    weights = np.ones(n_members)
    trace: list[tuple[int, int]] = []
    rewards: list[tuple[int, ...]] = []
    history: list[tuple[float, ...]] = []
    selected: set[int] = set()
    for t, (x, y) in enumerate(S2, start=1):
        history.append(tuple(float(w) for w in weights))
        p = weights / weights.sum()
        m_idx = int(rng.choice(n_members, p=p))
        trace.append((t, m_idx))
        union_so_far = set()
        for m in selected:
            union_so_far.update(F.members[m].predict(x))
        r = tuple(
            1 if (y in F.members[m].predict(x) and y not in union_so_far) else 0
            for m in range(n_members)
        )
        rewards.append(r)
        for m in range(n_members):
            if r[m]:
                weights[m] *= math.exp(0.5)
        selected.add(m_idx)
    history.append(tuple(float(w) for w in weights))
    assert np.all(weights > 0)
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


def _inside_loss_h(H: HypothesisClass, idx: int, nu: Menu,
                   S: list[tuple[int, int]]) -> Fraction:
    h = H.hyps[idx]
    bad = sum(1 for x, y in S if y in nu.predict(x) and h[x - 1] != y)
    return Fraction(bad, len(S))


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
    losses = [_inside_loss_h(H, idx, nu, S) for idx in range(len(H))]
    erm_idx = min(range(len(H)), key=lambda i: (losses[i], i))
    h_s = H.hyps[erm_idx]
    s_plus = [(x, y) for x, y in S if y in nu.predict(x) and h_s[x - 1] == y]

    if not s_plus:
        predict = lambda x: ListPrediction(())  # noqa: E731
        result = InsideMenuResult(erm_index=erm_idx, erm_loss=losses[erm_idx],
                                  predictor_loss=_loss_of_predictor(predict, nu, S),
                                  n_plus=0, flagged=True, predict=predict)
        return result

    consistent = [i for i, h in enumerate(H.hyps)
                  if all(h[x - 1] in nu.predict(x) for x, _y in s_plus)]
    sub = HypothesisClass(k=H.k, n=H.n, hyps=tuple(H.hyps[i] for i in sorted(set(consistent) | {erm_idx})))
    mem = {x: y for x, y in s_plus}

    if len(s_plus) >= 8:
        base = PrefixVotePredictor(sub, s_plus, ell)
        base_predict = base.predict
    else:
        y_of, counts = _consolidate(s_plus, sub)
        state = _state_of(y_of, counts)
        base_predict = lambda x: _predict_from_state(sub, state, x, ell)  # noqa: E731

    def predict(x: int) -> ListPrediction:
        inside = [lab for lab in base_predict(x).labels if lab in nu.predict(x)]
        if x in mem and mem[x] not in inside:
            inside = [mem[x]] + inside
        return ListPrediction(tuple(inside[:ell]))

    pred_loss = _loss_of_predictor(predict, nu, S)
    if pred_loss > min(losses):
        raise CertificateError(f"predictor inside-menu loss {pred_loss} exceeds "
                               f"the ERM loss {min(losses)}")
    return InsideMenuResult(erm_index=erm_idx, erm_loss=losses[erm_idx],
                            predictor_loss=pred_loss, n_plus=len(s_plus),
                            flagged=False, predict=predict)


def _loss_of_predictor(predict, nu: Menu, S: list[tuple[int, int]]) -> Fraction:
    bad = sum(1 for x, y in S if y in nu.predict(x) and y not in predict(x))
    return Fraction(bad, len(S))


def agnostic_pipeline(H: HypothesisClass, D: SyntheticDistribution, ell: int,
                      n1: int, T: int, n3: int, delta: float, seed: int) -> ExperimentReport:
    """Run cover -> menu -> inside-menu ERM and measure excess error exactly.

    The stage constants are d = 4 * max(1, d_DS), j = ceil(log2(n1)) and
    ``BOOST_BUDGET`` tries per boosting round; all are engineering choices
    recorded in the report, not claimed values.
    """
    from .algebra import class_id  # local import to avoid a cycle

    if min(n1, T, n3) < 1:
        raise ValueError("sample sizes must be >= 1")
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

    mu_star_idx = cover.member_of.get(best_idx)
    decomposition = {}
    if mu_star_idx is not None:
        mu_star = cover.members[mu_star_idx]
        term_nu = sum((w for (x, y), w in zip(D.support, D.weights)
                       if H.hyps[best_idx][x - 1] == y and y not in nu.predict(x)),
                      Fraction(0))
        term1 = sum((w for (x, y), w in zip(D.support, D.weights)
                     if H.hyps[best_idx][x - 1] == y and y not in mu_star.predict(x)),
                    Fraction(0))
        term2 = sum((w for (x, y), w in zip(D.support, D.weights)
                     if y in mu_star.predict(x) and y not in nu.predict(x)),
                    Fraction(0))
        if term_nu > term1 + term2:
            raise CertificateError(f"decomposition fails: {term_nu} > {term1} + {term2}")
        decomposition = {"best_label_outside_menu": float(term_nu),
                         "best_label_outside_cover_member": float(term1),
                         "cover_member_outside_menu": float(term2)}

    menu_sizes = sorted(len(nu.predict(x)) for x in sorted({x for x, _y in D.support}))
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
