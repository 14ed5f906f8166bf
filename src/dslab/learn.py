"""Realizable list learning on one-inclusion graphs.

Instances are columns of the class table, so a labeled sample is a sequence
of (coordinate, label) pairs and a test point is a coordinate index.  The
one-inclusion list predictor projects the class onto the sample coordinates
plus the test coordinate, orients the resulting hypergraph to minimize the
maximum ell-outdegree, and reads the prediction off the edge matching the
training labels.

Repeated coordinates are handled by reduction: a direction whose coordinate
occurs more than once in the projection tuple carries only singleton edges
(its value is pinned by the other copy), so the graph collapses to the
distinct coordinates with repeated ones marked dead.  Predictions therefore
depend only on (H, state, x, ell), where the state (``CoordState``) records
which coordinates were seen, their labels, and whether each was seen once or
more -- which is what makes caching sound.  The (state, x) memo of
``_cached_predict`` is the one prediction cache: each memo serves one fixed
(H, ell) and is owned by its caller -- ``PrefixVotePredictor``'s ``cache``
(``pac_experiment`` shares one across its trials), and the memo
``agnostic.build_list_cover`` creates per call for its boosting rounds and
cover members, which the menu reads through the members.
``agnostic.inside_menu_erm``'s prefix voter keeps its own memo because it
predicts over a subclass of H.

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
from .hclass import HypothesisClass, restrict
from .oig import build_oig, min_max_orientation, outdegrees

__all__ = [
    "ListPrediction",
    "SyntheticDistribution",
    "ExperimentReport",
    "oig_list_predict",
    "loo_error",
    "topk_vote",
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


CoordState = tuple[tuple[int, int, bool], ...]  # (coordinate, label, seen exactly once)


def _state_of(y_of: dict[int, int], counts: dict[int, int]) -> CoordState:
    return tuple((c, y_of[c], counts[c] == 1) for c in sorted(y_of))


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


def _predict_from_state(H: HypothesisClass, state: CoordState, x: int, ell: int) -> ListPrediction:
    """One-inclusion list prediction for a consolidated sample state."""
    trained = {c: y for c, y, _ in state}
    if x in trained:
        return ListPrediction((trained[x],))
    coords = tuple(sorted(trained)) + (x,)
    W = restrict(H, coords)
    dead = [p for p, (_c, _y, once) in enumerate(state) if not once]
    G = build_oig(W, dead_dirs=dead)
    sigma, _t = min_max_orientation(G, ell)
    test_pos = len(coords) - 1
    target_key = tuple(trained[c] for c in coords[:-1])
    for (d, key, chosen), e in zip(sigma.assign, G.edges()):
        if d == test_pos and key == target_key:
            labels = sorted(W.hyps[v][test_pos] for v in chosen)
            return ListPrediction(tuple(labels))
    raise RealizabilityError("no edge matches the training labels")


def _cached_predict(H: HypothesisClass, state: CoordState, x: int, ell: int,
                    cache: dict) -> ListPrediction:
    """``_predict_from_state`` through a caller-owned (state, x) memo.

    One memo must serve a single (H, ell): a prediction depends only on
    (H, state, x, ell), so within that pair the key fixes the answer.
    """
    key = (state, x)
    got = cache.get(key)
    if got is None:
        got = cache[key] = _predict_from_state(H, state, x, ell)
    return got


def oig_list_predict(H: HypothesisClass, train: Sequence[tuple[int, int]],
                     x: int, ell: int) -> ListPrediction:
    """Predict at most ell labels for instance ``x`` from a realizable sample."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if not 1 <= x <= H.n:
        raise ValueError(f"instance {x} out of range [1, {H.n}]")
    y_of, counts = _consolidate(train, H)
    return _predict_from_state(H, _state_of(y_of, counts), x, ell)


def loo_error(H: HypothesisClass, sample: Sequence[tuple[int, int]],
              ell: int) -> tuple[int, int]:
    """Leave-one-out error of the list predictor on a realizable sample.

    Hold-out predictions all share one graph (only the designated test
    direction changes), so the error equals the outdegree of the ground-truth
    vertex under a single min-max orientation.  Returns (M_n, t_star); a
    violated M_n <= t_star raises CertificateError.
    """
    if not sample:
        raise ValueError("sample must be non-empty")
    y_of, counts = _consolidate(sample, H)
    coords = tuple(sorted(y_of))
    W = restrict(H, coords)
    dead = [p for p, c in enumerate(coords) if counts[c] >= 2]
    G = build_oig(W, dead_dirs=dead)
    sigma, t_star = min_max_orientation(G, ell)
    truth = tuple(y_of[c] for c in coords)
    m_n = outdegrees(G, sigma)[W.row_index(truth)]
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

    Prefix lengths run from ceil(n/4) to n-1.  Consecutive prefixes almost
    always consolidate to the same state, so states are grouped with
    multiplicities and predictions are memoized in ``cache`` (shareable
    across predictors for the same class and list size).
    """

    def __init__(self, H: HypothesisClass, sample: Sequence[tuple[int, int]],
                 ell: int, cache: dict | None = None):
        n = len(sample)
        if n < 8:
            raise ValueError("prefix voting needs a sample of size >= 8")
        if ell < 1:
            raise ValueError("ell must be >= 1")
        y_of, _counts = _consolidate(sample, H)  # realizability of the full sample
        self.H = H
        self.ell = ell
        self.n = n
        self._cache = cache if cache is not None else {}
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
            # state changes only when c is new or has just been seen twice
            if running_counts[c] <= 2:
                state = _state_of(running_labels, running_counts)
            if self.t_start <= t + 1 <= n - 1:
                self._state_by_t.append(state)
                weights[state] = weights.get(state, 0) + 1
        self._weighted_states = sorted(weights.items())

    def _lookup(self, state: CoordState, x: int) -> ListPrediction:
        return _cached_predict(self.H, state, x, self.ell, self._cache)

    def predict_prefix(self, t: int, x: int) -> ListPrediction:
        """Prediction of the predictor trained on the first ``t`` points."""
        if not self.t_start <= t <= self.n - 1:
            raise ValueError(f"prefix length {t} outside [{self.t_start}, {self.n - 1}]")
        return self._lookup(self._state_by_t[t - self.t_start], x)

    @property
    def prefix_lengths(self) -> range:
        return range(self.t_start, self.n)

    def predict(self, x: int) -> ListPrediction:
        counts: dict[int, int] = {}
        for state, w in self._weighted_states:
            for lab in self._lookup(state, x).labels:
                counts[lab] = counts.get(lab, 0) + w
        return _top_ell(counts, self.ell)


# -- synthetic distributions and experiments ----------------------------------


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

    @staticmethod
    def _target_and_instances(H: HypothesisClass, target: int,
                              instances: Sequence[int] | None):
        """The target's row and the instances (default: every coordinate),
        checked to lie in [0, |H|) and [1, n]."""
        if not 0 <= target < len(H):
            raise ValueError(f"target {target} out of range [0, {len(H) - 1}]")
        xs = tuple(instances) if instances is not None else tuple(range(1, H.n + 1))
        if not xs:
            raise ValueError("instances must be non-empty")
        if not all(1 <= x <= H.n for x in xs):
            raise ValueError(f"instances must lie in [1, {H.n}]")
        return H.hyps[target], xs

    @classmethod
    def uniform_realizable(cls, H: HypothesisClass, target: int,
                           instances: Sequence[int] | None = None) -> "SyntheticDistribution":
        h, xs = cls._target_and_instances(H, target, instances)
        w = Fraction(1, len(xs))
        return cls(support=tuple((x, h[x - 1]) for x in xs),
                   weights=(w,) * len(xs), target=target)

    @classmethod
    def with_label_noise(cls, H: HypothesisClass, target: int, noise: Fraction,
                         instances: Sequence[int] | None = None) -> "SyntheticDistribution":
        """Uniform instances; the target label is flipped to uniform noise
        with probability ``noise``."""
        noise = Fraction(noise)
        if not 0 <= noise <= 1:
            raise ValueError("noise must lie in [0, 1]")
        h, xs = cls._target_and_instances(H, target, instances)
        wx = Fraction(1, len(xs))
        support, weights = [], []
        for x in xs:
            for y in range(1, H.k + 1):
                w = wx * (noise / H.k + ((1 - noise) if y == h[x - 1] else 0))
                if w > 0:
                    support.append((x, y))
                    weights.append(w)
        return cls(support=tuple(support), weights=tuple(weights),
                   target=None if noise > 0 else target)

    def draw(self, rng: np.random.Generator, m: int) -> list[tuple[int, int]]:
        p = np.array([float(w) for w in self.weights])
        p /= p.sum()
        picks = rng.choice(len(self.support), size=m, p=p)
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
    from .algebra import class_id  # local import to avoid a cycle

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
    cache: dict = {}
    errors: list[float] = []
    for trial in range(trials):
        sample = D.draw(np.random.default_rng([seed, trial]), m)
        predictor = PrefixVotePredictor(H, sample, ell, cache=cache)
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
