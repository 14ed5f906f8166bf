"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines as they complete.
"""

import hashlib
import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from helpers import brute_min_max_outdegree, naive_edges
from dslab.hclass import HypothesisClass, class_id, gen_cube, gen_random
from dslab.oig import (build_oig, density, max_density_subfamily,
                       min_max_orientation, mu, mu_prime)
from dslab.dims import ds_dimension, vc_dimension
from dslab.algebra import audit_theorem, direction_subspace_dim
from dslab.learn import (PredictionTable, PrefixVotePredictor, SyntheticDistribution, loo_error,
                         pac_experiment)
from dslab.agnostic import (agnostic_pipeline, build_list_cover,
                            inside_menu_erm, mw_menu)

CRIT2_SEED = 20260810


@pytest.fixture(scope="module")
def crit1_classes():
    cube = gen_cube(3, 1, 2, 2)  # the full table [3]^2
    out = []
    for size in range(1, len(cube) + 1):
        for rows in combinations(cube.hyps, size):
            out.append(HypothesisClass(k=3, n=2, hyps=rows))
    assert len(out) == 511
    return out


@pytest.fixture(scope="module")
def crit2_classes():
    rng = np.random.default_rng(CRIT2_SEED)
    out = []
    for _ in range(500):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(1, 5))
        size = int(rng.integers(1, min(18, k**n) + 1))
        out.append(gen_random(k, n, size, seed=int(rng.integers(0, 2**31))))
    return out


def test_c01_exhaustive_theorem_audit(crit1_classes):
    t0 = time.time()
    failures = 0
    for H in crit1_classes:
        for ell in (1, 2):
            rep = audit_theorem(H, ell, n_samples=2)
            assert rep.authoritative
            assert rep.verdicts["ceil_mu_le_d_ds"], (H.hyps, ell, rep.to_dict())
            failures += 0 if rep.passed else 1
    assert failures == 0
    elapsed = time.time() - t0
    assert elapsed < 300
    print(f"\nACCEPTANCE 1 PASS: 511 classes x ell in {{1,2}}, ceil(mu) <= d_DS, "
          f"0 failures ({elapsed:.1f}s)")


def test_c02_randomized_theorem_audit(crit2_classes):
    t0 = time.time()
    for H in crit2_classes:
        for ell in (1, 2, 3):
            rep = audit_theorem(H, ell)
            assert rep.authoritative, (class_id(H), ell)
            assert rep.passed, (class_id(H), ell, rep.to_dict())
            assert rep.verdicts["spanning"], (class_id(H), ell)
            assert rep.d_nat <= rep.d_ds
    elapsed = time.time() - t0
    assert elapsed < 1800
    print(f"\nACCEPTANCE 2 PASS: 500 random classes x ell in {{1,2,3}}, all "
          f"verdicts PASS incl. spanning at s=d_DS ({elapsed:.1f}s)")


def test_c03_tightness_family():
    for k, ell, s, m in ((4, 1, 2, 3), (6, 2, 2, 3), (8, 1, 3, 4)):
        H = gen_cube(k, ell, s, m)
        assert density(H, ell) == Fraction(s) * (1 - Fraction(ell, k))
        assert ds_dimension(H, ell)[0] == s
    print("\nACCEPTANCE 3 PASS: product families have density s(1 - ell/k) "
          "exactly and d_DS = s")


def test_c04_orientation_equality(crit1_classes, crit2_classes):
    t0 = time.time()
    exhaustive_checked = 0
    jobs = [(H, (1, 2)) for H in crit1_classes] + \
           [(H, (1, 2, 3)) for H in crit2_classes]
    for H, ells in jobs:
        G = build_oig(H)
        small = G.n_edges <= 6 and all(len(e) <= 4 for e in G.edges())
        for ell in ells:
            val, _F = max_density_subfamily(H, ell)
            _sigma, t_star = min_max_orientation(G, ell)
            assert t_star == math.ceil(val), (H.hyps, ell, t_star, val)
            if small:
                assert t_star == brute_min_max_outdegree(G, ell)
                exhaustive_checked += 1
    elapsed = time.time() - t0
    assert exhaustive_checked > 500
    print(f"\nACCEPTANCE 4 PASS: t_star = ceil(max subfamily density) on all "
          f"criteria 1-2 classes; orientation matched exhaustive search on "
          f"{exhaustive_checked} small graphs ({elapsed:.1f}s)")


def test_c05_mu_vs_mu_prime(crit1_classes):
    for H in crit1_classes:
        m = mu(H, 2, 1)
        mp = mu_prime(H, 2)
        assert mp / 2 <= m <= mp, (H.hyps, m, mp)
    print("\nACCEPTANCE 5 PASS: mu'/2 <= mu <= mu' exactly on all 511 classes")


def test_c06_binary_crosscheck():
    t0 = time.time()
    cube = gen_cube(2, 1, 3, 3)
    for size in range(1, len(cube) + 1):
        for rows in combinations(cube.hyps, size):
            H = HypothesisClass(k=2, n=3, hyps=rows)
            vc = vc_dimension(H)
            assert ds_dimension(H, 1)[0] == vc
            for fsize in range(1, size + 1):
                for frows in combinations(rows, fsize):
                    F = HypothesisClass(k=2, n=3, hyps=frows)
                    assert density(F, 1) <= vc
    elapsed = time.time() - t0
    assert elapsed < 120
    print(f"\nACCEPTANCE 6 PASS: d_DS(.,1) = VC and every subfamily density "
          f"<= VC on all 255 binary classes ({elapsed:.1f}s)")


# sha256 of the 200 "M_n t_star" lines of test_c07_loo_bound, in sample
# order, pinned while loo_error still oriented the whole graph (a repeated
# coordinate's direction forced to singleton edges); orienting the live
# edges of the live directions must give the same pairs
LOO_DIGEST = "3026f266ef4e8e5c3bec7ff9ed161d43d161684190ce880c976b5778d813b25c"


def test_c07_loo_bound():
    classes = [gen_cube(3, 1, 2, 4), gen_cube(4, 2, 2, 3), gen_cube(2, 1, 2, 2),
               gen_random(3, 4, 12, seed=71), gen_random(4, 3, 10, seed=72)]
    rng = np.random.default_rng(77)
    runs, pairs = 0, hashlib.sha256()
    for H in classes:
        d_ds = {ell: ds_dimension(H, ell)[0] for ell in (1, 2)}
        for _ in range(40):
            target = int(rng.integers(0, len(H)))
            h = H.hyps[target]
            m = int(rng.integers(2, 20))
            xs = rng.integers(1, H.n + 1, size=m)
            sample = [(int(x), h[int(x) - 1]) for x in xs]
            ell = int(rng.integers(1, 3))
            m_n, t_star = loo_error(H, sample, ell)
            assert m_n <= t_star <= d_ds[ell], (class_id(H), ell, m_n, t_star)
            pairs.update(f"{m_n} {t_star}\n".encode())
            runs += 1
    assert runs == 200 and pairs.hexdigest() == LOO_DIGEST
    print("\nACCEPTANCE 7 PASS: M_n <= t_star <= d_DS on 200 seeded realizable "
          "samples over 5 classes")


def test_c08_pac_bound():
    t0 = time.time()
    H = gen_cube(3, 1, 2, 4)
    lines = []
    for ell in (1, 2):
        D = SyntheticDistribution.uniform_realizable(H, target=0)
        d_ds = ds_dimension(H, ell)[0]
        for m in (200, 500, 1000):
            rep = pac_experiment(H, D, ell, m=m, delta=0.1, trials=200, seed=808)
            want = 4.82 * (ell + 1) * (d_ds + math.log(20)) / m
            assert rep.results["bound"] == pytest.approx(want)
            assert rep.results["quantile_err"] <= rep.results["bound"], rep.to_dict()
            assert rep.verdict == "PASS"
            lines.append((ell, m, rep.results["quantile_err"], rep.results["bound"]))
    elapsed = time.time() - t0
    assert elapsed < 1200
    detail = "; ".join(f"ell={e} m={m}: {q:.4f}<={b:.4f}" for e, m, q, b in lines)
    print(f"\nACCEPTANCE 8 PASS: 0.9-quantile error within bound ({detail}) "
          f"({elapsed:.1f}s)")


def test_c09_direction_subspace_formula():
    rng = np.random.default_rng(90)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(1, 5))
        size = int(rng.integers(1, min(12, k**n) + 1))
        W = gen_random(k, n, size, seed=int(rng.integers(0, 2**31)))
        edges = naive_edges(W)
        for i in range(1, W.n + 1):
            for ell in (1, 2, 3):
                want = sum(min(ell, len(m)) for d, m in edges if d == i - 1)
                assert direction_subspace_dim(W, i, ell) == want
    print("\nACCEPTANCE 9 PASS: stacked Vandermonde rank equals "
          "sum min(ell, |e|) in every direction of 100 random classes")


def test_c10_agnostic_invariants():
    t0 = time.time()
    H = gen_cube(3, 1, 1, 3)
    noisy = SyntheticDistribution.with_label_noise(H, target=0, noise=Fraction(1, 10))
    for run in range(50):
        rng = np.random.default_rng([4242, run])
        S1 = noisy.draw(rng, 30)
        S2 = noisy.draw(rng, 24)
        S3 = noisy.draw(rng, 60)
        cover = build_list_cover(H, S1, d=4, j=5, ell=1,
                                 rng=np.random.default_rng([4242, run, 1]))
        menu = mw_menu(cover, S2, rng=np.random.default_rng([4242, run, 2]))
        for t in range(len(S2)):
            w_t, w_next = menu.weight_history[t], menu.weight_history[t + 1]
            for m in range(len(cover)):
                r = menu.rewards[t][m]
                assert r in (0, 1)
                assert w_next[m] == w_t[m] * math.exp(r / 2)
        res = inside_menu_erm(H, menu, S3, ell=1)
        for x in range(1, H.n + 1):
            assert set(res.predict(x).labels) <= menu.predict(x)
        losses = [sum(1 for x, y in S3 if y in menu.predict(x) and h[x - 1] != y)
                  for h in H.hyps]
        assert res.predictor_loss <= Fraction(min(losses), len(S3))

    # realizable distribution: pipeline error vs the plain realizable learner
    D = SyntheticDistribution.uniform_realizable(H, target=0)
    pipeline_errs, realizable_errs = [], []
    for run in range(20):
        rep = agnostic_pipeline(H, D, ell=1, n1=30, T=24, n3=60, delta=0.1,
                                seed=run)
        pipeline_errs.append(rep.results["err"])
        sample = D.draw(np.random.default_rng([77, run]), 60)
        pred = PrefixVotePredictor(PredictionTable(H, 1), sample)
        realizable_errs.append(float(D.list_error(pred.predict)))
    mean_p = sum(pipeline_errs) / len(pipeline_errs)
    mean_r = sum(realizable_errs) / len(realizable_errs)
    se = lambda xs, mean: (sum((x - mean) ** 2 for x in xs) / max(1, len(xs) - 1) / len(xs)) ** 0.5  # noqa: E731
    gap = abs(mean_p - mean_r)
    tol = 2 * (se(pipeline_errs, mean_p) ** 2 + se(realizable_errs, mean_r) ** 2) ** 0.5
    assert gap <= tol
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE 10 PASS: 50 runs of stage invariants hold; realizable "
          f"pipeline error {mean_p:.4f} matches realizable path {mean_r:.4f} "
          f"within 2 SE ({elapsed:.1f}s)")
