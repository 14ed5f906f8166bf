"""Realizable list learning on one-inclusion graphs.

Instances are columns of the class table, so a labeled sample is a sequence
of (coordinate, label) pairs and a test point is a coordinate index.  The
one-inclusion list predictor projects the class onto the sample coordinates
plus the test coordinate, orients the resulting hypergraph to minimize the
maximum ell-outdegree, and reads the prediction off the edge matching the
training labels.  Only the live edges (more than ell members) are oriented,
straight from ``hclass.off_groups``, with no graph object: an edge of at
most ell members keeps every member, so a training edge that small needs no
orientation at all.

Repeated coordinates are handled by reduction: a direction whose coordinate
occurs more than once in the projection tuple carries only singleton edges
(its value is pinned by the other copy), so the graph collapses to the
distinct coordinates, live when seen once.  One with at most ell labels in H
carries no live edge either way (its edges hold rows that differ only
there), so it is live however often it was seen.  Predictions depend only on
(H, state, x, ell), where the state (``CoordState``) records the coordinates
seen, their labels, and which are live.  A ``PredictionTable`` owns that
model: it builds the states for its (H, ell), orients their live edges for
``predict`` and ``loo_error``, and is the one prediction cache, memoized by
(state, x).  An orientation never reads the training labels, so a miss fills
the table for every labeling of the same coordinates.

Probabilities under a ``SyntheticDistribution`` are exact: each is the mass
of the support points a boolean mask marks, summed as integer numerators
over the weights' common denominator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .dims import ds_dimension
from .errors import CertificateError, RealizabilityError
from .hclass import HypothesisClass, class_id, off_groups, restrict
# min_max_orientation: unused here, kept for bench/tracing.py's learn.min_max_orientation counter
from .oig import _orient_live, min_max_orientation  # noqa: F401

__all__ = [
    "ListPrediction",
    "SyntheticDistribution",
    "ExperimentReport",
    "oig_list_predict",
    "loo_error",
    "topk_vote",
    "PredictionTable",
    "PrefixVotePredictor",
    "pac_experiment",
    "pac_error_bound",
]

@dataclass(frozen=True)
class ListPrediction:
    labels: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("prediction labels must be distinct")

    def __contains__(self, label: int) -> bool:
        return label in self.labels

    def __len__(self) -> int:
        return len(self.labels)


def _consolidate(train: Sequence[tuple[int, int]], H: HypothesisClass):
    """Collapse a sample to per-coordinate labels and occurrence counts.

    Raises RealizabilityError when no hypothesis is consistent.
    """
    y_of: dict[int, int] = {}
    counts: dict[int, int] = {}
    for c, y in train:
        c, y = int(c), int(y)
        if not 1 <= c <= H.n:
            raise ValueError(f"instance {c} out of range [1, {H.n}]")
        if not 1 <= y <= H.k:
            raise ValueError(f"label {y} out of range [1, {H.k}]")
        if y_of.get(c, y) != y:
            raise RealizabilityError(f"conflicting labels at instance {c}")
        y_of[c] = y
        counts[c] = counts.get(c, 0) + 1
    if y_of and not any(all(h[c - 1] == y for c, y in y_of.items()) for h in H.hyps):
        raise RealizabilityError("no hypothesis is consistent with the sample")
    return y_of, counts


CoordState = tuple[tuple[int, int, bool], ...]  # (coordinate, label, live)


def _label_table(H: HypothesisClass, xs, labels_at) -> np.ndarray:
    """Boolean table ``T[x, y]``: is y among ``labels_at(x)``?

    Indexed by 1-based instance and label; ``labels_at`` is asked once per x
    in ``xs``, and every other row (row 0 and column 0 too) stays False.
    """
    table = np.zeros((H.n + 1, H.k + 1), dtype=bool)
    for x in xs:
        table[x, list(labels_at(x))] = True
    return table


def _pair_arrays(H: HypothesisClass, pairs: Sequence[tuple[int, int]]):
    """Instances and labels of ``pairs`` as two int arrays, checked to lie
    in [1, n] x [1, k]."""
    xy = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    if xy.size and ((xy.min(0) < 1).any() or (xy.max(0) > (H.n, H.k)).any()):
        raise ValueError(f"sample points must lie in [1, {H.n}] x [1, {H.k}]")
    return xy[:, 0], xy[:, 1]


class PredictionTable:
    """One-inclusion list predictions for one (H, ell), memoized by (state, x).

    ``state`` builds the states the table answers, so the key fixes the
    answer; a ``PrefixVotePredictor`` takes its class and list size from the
    table it is given.  ``predict`` reads the answer off the training edge,
    the test-direction edge of W = ``restrict(H, coords + (x,))`` whose key
    is the training labels: the labels at x of the members that a min-max
    orientation of W's graph keeps on that edge, where a direction that is
    not live holds only singletons (its coordinate was seen again).
    - A training edge of at most ell members keeps them all in every
      orientation, so it is answered with no orientation.
    - Otherwise ``_orient`` orients the live edges (more than ell members)
      of the live directions.  That orientation depends on (coordinates,
      live directions, ell) and never reads the training labels, so every
      live test-direction edge's key labels a sibling state, the asked one
      among them, and the miss writes each sibling's answer into the memo.

    Raises RealizabilityError when no row of W carries the training labels.
    """

    def __init__(self, H: HypothesisClass, ell: int):
        if ell < 1:
            raise ValueError("ell must be >= 1")
        self.H = H
        self.ell = ell
        self._light = frozenset(c for c, col in enumerate(zip(*H.hyps), 1)
                                if len(set(col)) <= ell)
        self._known: dict[tuple[CoordState, int], ListPrediction] = {}

    def state(self, y_of: dict[int, int], counts: dict[int, int]) -> CoordState:
        """The state of a consolidated sample (see ``_consolidate``): a
        coordinate is live when it was seen once or has at most ell labels
        in H, where its direction carries no live edge however often seen."""
        return tuple((c, y_of[c], counts[c] == 1 or c in self._light) for c in sorted(y_of))

    def _orient(self, W: HypothesisClass, lives: Sequence[bool]):
        """Min-max orientation of W's graph when only the ``lives``
        directions are live: (t, the live edges of those directions in
        ``build_oig``'s edge order, the members each live edge picks)."""
        live = [vs for i, on in enumerate(lives) if on
                for _key, vs in off_groups(W, i) if len(vs) > self.ell]
        t, picks = _orient_live(live, len(W), self.ell)
        return t, live, picks

    def predict(self, state: CoordState, x: int) -> ListPrediction:
        got = self._known.get((state, x))
        if got is not None:
            return got
        trained = {c: y for c, y, _live in state}
        if x in trained:
            got = self._known[state, x] = ListPrediction((trained[x],))
            return got
        coords = tuple(trained)
        lives = tuple(live for _c, _y, live in state)
        W = restrict(self.H, coords + (x,))
        test = len(coords)
        groups = off_groups(W, test)
        members = dict(groups).get(tuple(trained.values()))
        if members is None:
            raise RealizabilityError("no edge matches the training labels")

        def labels(rows: tuple[int, ...]) -> ListPrediction:
            return ListPrediction(tuple(sorted(W.hyps[v][test] for v in rows)))

        if len(members) <= self.ell:
            got = self._known[state, x] = labels(members)
            return got
        _t, _live, chosen = self._orient(W, lives + (True,))
        keys = [key for key, vs in groups if len(vs) > self.ell]  # their edges end ``live``
        for key, rows in zip(keys, chosen[len(chosen) - len(keys):]):
            self._known[tuple(zip(coords, key, lives)), x] = labels(rows)
        return self._known[state, x]


def oig_list_predict(H: HypothesisClass, train: Sequence[tuple[int, int]],
                     x: int, ell: int) -> ListPrediction:
    """Predict at most ell labels for instance ``x`` from a realizable sample."""
    table = PredictionTable(H, ell)
    if not 1 <= x <= H.n:
        raise ValueError(f"instance {x} out of range [1, {H.n}]")
    return table.predict(table.state(*_consolidate(train, H)), x)


def loo_error(H: HypothesisClass, sample: Sequence[tuple[int, int]],
              ell: int) -> tuple[int, int]:
    """Leave-one-out error of the list predictor on a realizable sample.

    Hold-out predictions all share one graph (only the designated test
    direction changes), so the error equals the outdegree of the ground-truth
    row under a single min-max orientation of the sample's own state: M_n
    counts the live edges that hold the truth row and do not pick it.
    Returns (M_n, t_star); a violated M_n <= t_star raises CertificateError.
    """
    if not sample:
        raise ValueError("sample must be non-empty")
    table = PredictionTable(H, ell)
    state = table.state(*_consolidate(sample, H))
    W = restrict(H, tuple(c for c, _y, _live in state))
    t_star, live, picks = table._orient(W, tuple(live for _c, _y, live in state))
    truth = W.row_index(tuple(y for _c, y, _live in state))
    m_n = sum(truth in e and truth not in p for e, p in zip(live, picks))
    if m_n > t_star:
        raise CertificateError(f"leave-one-out error {m_n} exceeds t_star={t_star}")
    return m_n, t_star


def _top_ell(counts: dict[int, int], ell: int) -> ListPrediction:
    """The ell labels with the highest counts; ties favor smaller labels."""
    return ListPrediction(tuple(sorted(counts, key=lambda lab: (-counts[lab], lab))[:ell]))


def topk_vote(lists: Iterable[Iterable[int]], ell: int) -> ListPrediction:
    """Top-ell labels by occurrence count across lists; ties favor smaller labels.

    Any label excluded from the output is missing from at least
    ceil(N / (ell + 1)) of the N input lists.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    counts: dict[int, int] = {}
    n_lists = 0
    for lst in lists:
        n_lists += 1
        labels = lst.labels if isinstance(lst, ListPrediction) else lst
        for lab in labels:
            counts[lab] = counts.get(lab, 0) + 1
    if n_lists == 0:
        raise ValueError("need at least one list")
    return _top_ell(counts, ell)


class PrefixVotePredictor:
    """Top-ell vote over one-inclusion predictors trained on sample prefixes.

    Prefix lengths run from ceil(n/4) to n-1.  The states are built by, and
    predictions looked up in, ``table``, whose (H, ell) the predictor takes
    and which predictors may share.  Consecutive prefixes almost always
    consolidate to the same state, so states are grouped with multiplicities.
    """

    def __init__(self, table: PredictionTable, sample: Sequence[tuple[int, int]]):
        n = len(sample)
        if n < 8:
            raise ValueError("prefix voting needs a sample of size >= 8")
        _consolidate(sample, table.H)  # realizability of the full sample
        self.ell = table.ell
        self.n = n
        self._table = table
        self._sample = [(int(c), int(y)) for c, y in sample]
        self.t_start = math.ceil(n / 4)

        running_counts: dict[int, int] = {}
        running_labels: dict[int, int] = {}
        self._state_by_t: list[CoordState] = []
        weights: dict[CoordState, int] = {}
        for t in range(n):
            c, y = self._sample[t]
            running_labels[c] = y
            running_counts[c] = running_counts.get(c, 0) + 1
            # the sample is realizable, so a coordinate keeps its label: the
            # state can change only when c is new or has just been seen twice
            if running_counts[c] <= 2:
                state = table.state(running_labels, running_counts)
            if self.t_start <= t + 1 <= n - 1:
                self._state_by_t.append(state)
                weights[state] = weights.get(state, 0) + 1
        self._weighted_states = sorted(weights.items())

    def predict_prefix(self, t: int, x: int) -> ListPrediction:
        """Prediction of the predictor trained on the first ``t`` points."""
        if not self.t_start <= t <= self.n - 1:
            raise ValueError(f"prefix length {t} outside [{self.t_start}, {self.n - 1}]")
        return self._table.predict(self._state_by_t[t - self.t_start], x)

    @property
    def prefix_lengths(self) -> range:
        return range(self.t_start, self.n)

    def predict(self, x: int) -> ListPrediction:
        counts: dict[int, int] = {}
        for state, w in self._weighted_states:
            for lab in self._table.predict(state, x).labels:
                counts[lab] = counts.get(lab, 0) + w
        return _top_ell(counts, self.ell)


# -- synthetic distributions and experiments ----------------------------------


def _inverse_cdf(weights: np.ndarray) -> np.ndarray:
    """CDF of the non-negative float ``weights`` for inverse-CDF draws:
    ``_inverse_cdf(w).searchsorted(rng.random(size), side="right")``.

    These are the steps numpy 2.x ``Generator.choice(len(w), size, p=w / w.sum())``
    takes once it has validated ``p``, so such a draw picks what that call
    picks and leaves ``rng`` in the same state, without re-validating ``p``
    on every draw.  Callers keep the CDF while their weights do not move.
    """
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]
    return cdf


@dataclass(frozen=True)
class SyntheticDistribution:
    """Distribution over (instance, label) pairs with exact weights.

    Realizable mode records the witnessing hypothesis index in ``target``;
    agnostic mode leaves it None and carries arbitrary joint weights.
    """

    support: tuple[tuple[int, int], ...]
    weights: tuple[Fraction, ...]
    target: int | None = None

    def __post_init__(self):
        if len(self.support) != len(self.weights):
            raise ValueError("support and weights must align")
        if not self.support:
            raise ValueError("support must be non-empty")
        total = sum(self.weights)
        if total != 1:
            raise ValueError(f"weights sum to {total}, not 1")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")

    @property
    def realizable(self) -> bool:
        return self.target is not None

    @classmethod
    def uniform_realizable(cls, H: HypothesisClass, target: int) -> "SyntheticDistribution":
        return cls.with_label_noise(H, target, 0)

    @classmethod
    def with_label_noise(cls, H: HypothesisClass, target: int,
                         noise: Fraction) -> "SyntheticDistribution":
        """Uniform instances over every coordinate; the label of row
        ``target`` (in [0, |H|)) is flipped to uniform noise with probability
        ``noise``."""
        noise = Fraction(noise)
        if not 0 <= noise <= 1:
            raise ValueError("noise must lie in [0, 1]")
        if not 0 <= target < len(H):
            raise ValueError(f"target {target} out of range [0, {len(H) - 1}]")
        h, wx = H.hyps[target], Fraction(1, H.n)
        support, weights = [], []
        for x in range(1, H.n + 1):
            for y in range(1, H.k + 1):
                w = wx * (noise / H.k + ((1 - noise) if y == h[x - 1] else 0))
                if w > 0:
                    support.append((x, y))
                    weights.append(w)
        return cls(support=tuple(support), weights=tuple(weights),
                   target=None if noise > 0 else target)

    def draw(self, rng: np.random.Generator, m: int) -> list[tuple[int, int]]:
        if m < 0:
            raise ValueError(f"sample size must be >= 0, got {m}")
        cdf = _inverse_cdf(np.array([float(w) for w in self.weights]))
        picks = cdf.searchsorted(rng.random(m), side="right")
        return [self.support[int(i)] for i in picks]

    def _mass(self, masks) -> list[Fraction]:
        """Exact weight of the support points each row of a boolean
        (rows, |support|) ``masks`` marks.  Integer numerators are summed over
        the weights' common denominator as Python ints, so no denominator
        can overflow."""
        denom = math.lcm(*(w.denominator for w in self.weights))
        nums = np.array([w.numerator * (denom // w.denominator) for w in self.weights],
                        dtype=object)
        return [Fraction(v, denom) for v in np.asarray(masks, dtype=bool) @ nums]

    def list_error(self, predict: Callable[[int], ListPrediction]) -> Fraction:
        """Exact miss probability of a list predictor; ``predict`` is asked
        once per distinct instance of the support."""
        preds = {x: predict(x) for x in dict.fromkeys(x for x, _y in self.support)}
        return self._mass([[y not in preds[x] for x, y in self.support]])[0]

    def best_hypothesis(self, H: HypothesisClass) -> tuple[int, Fraction]:
        """The first hypothesis with the least error, and that error."""
        sx, sy = _pair_arrays(H, self.support)
        errs = self._mass(np.array(H.hyps, dtype=np.intp)[:, sx - 1] != sy)
        best = errs.index(min(errs))
        return best, errs[best]


@dataclass(frozen=True)
class ExperimentReport:
    kind: str
    class_id: str
    ell: int
    seed: int
    params: dict = field(compare=False)
    results: dict = field(compare=False)
    verdict: str | None = None

    def to_dict(self) -> dict:
        return {"kind": self.kind, "class_id": self.class_id, "ell": self.ell,
                "seed": self.seed, "params": dict(self.params),
                "results": dict(self.results), "verdict": self.verdict}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def pac_error_bound(d_ds: int, ell: int, delta: float, m: int) -> float:
    """High-probability error level at sample size m.

    Uses the natural logarithm for log(2/delta); the choice is recorded in
    experiment metadata so results can be rescaled under other conventions.
    """
    return 4.82 * (ell + 1) * (d_ds + math.log(2 / delta)) / m


def pac_experiment(H: HypothesisClass, D: SyntheticDistribution, ell: int,
                   m: int, delta: float, trials: int, seed: int) -> ExperimentReport:
    """Monte-Carlo check that prefix voting meets its error bound.

    Each trial draws m points, trains the prefix-vote predictor, and
    evaluates its error exactly over the support.  The empirical
    (1 - delta)-quantile across trials is compared against the bound, so
    delta must lie in (0, 1).
    """
    if not D.realizable:
        raise RealizabilityError("pac_experiment requires a realizable distribution")
    if m < 8:
        raise ValueError("need m >= 8 for prefix voting")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if trials < 1:
        raise ValueError("need trials >= 1")
    d_ds, _w = ds_dimension(H, ell)
    bound = pac_error_bound(d_ds, ell, delta, m)
    table = PredictionTable(H, ell)
    errors: list[float] = []
    for trial in range(trials):
        sample = D.draw(np.random.default_rng([seed, trial]), m)
        predictor = PrefixVotePredictor(table, sample)
        errors.append(float(D.list_error(predictor.predict)))
    ordered = sorted(errors)
    q_idx = min(math.ceil((1 - delta) * trials), trials) - 1
    quantile = ordered[q_idx]
    verdict = "PASS" if quantile <= bound else "FAIL"
    return ExperimentReport(
        kind="pac", class_id=class_id(H), ell=ell, seed=seed,
        params={"m": m, "delta": delta, "trials": trials},
        results={"quantile_err": quantile, "bound": bound, "d_ds": d_ds,
                 "mean_err": sum(errors) / len(errors), "max_err": max(errors),
                 "error_mode": "exact", "log_base": "e"},
        verdict=verdict,
    )
