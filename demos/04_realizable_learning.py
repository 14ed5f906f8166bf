#!/usr/bin/env python3
"""The one-inclusion list learner, leave-one-out accounting, and the
prefix-vote predictor with its error bound.

Training data lives on the class's coordinates: a sample is a list of
(instance, label) pairs.  The learner projects the class onto the sample
plus the query point, orients the graph, and answers with the labels of the
vertices the training edge was assigned.
"""

import numpy as np

from dslab import gen_cube, loo_error, oig_list_predict, pac_experiment, topk_vote
from dslab.learn import PrefixVotePredictor, SyntheticDistribution, pac_error_bound

H = gen_cube(3, 1, 2, 4)  # 9 hypotheses over 4 instances
D = SyntheticDistribution.uniform_realizable(H, target=5)
rng = np.random.default_rng(1)
sample = D.draw(rng, 20)

# Single predictions: seen instances are memorized, unseen ones resolved by
# the orientation of the augmented graph.
print("target:", H.hyps[5])
for x in range(1, 5):
    print(f"predict({x}) from 3 points:", oig_list_predict(H, sample[:3], x, 1).labels)

# Leave-one-out error is a single outdegree read off one orientation, and is
# bounded by the optimal value t_star.
m_n, t_star = loo_error(H, sample, 1)
print("leave-one-out misses:", m_n, "<= t_star =", t_star)

# The deployed predictor votes over all prefixes from n/4 to n-1.
vote = PrefixVotePredictor(H, sample, 1)
print("prefix lengths:", list(vote.prefix_lengths))
print("votes:", {x: vote.predict(x).labels for x in range(1, 5)})
print("aggregation matches topk:", vote.predict(1) ==
      topk_vote([vote.predict_prefix(t, 1) for t in vote.prefix_lengths], 1))

# Monte-Carlo check of the high-probability bound 4.82(ell+1)(d+ln(2/delta))/m.
report = pac_experiment(H, D, ell=1, m=200, delta=0.1, trials=50, seed=0)
print("0.9-quantile error:", report.results["quantile_err"],
      "bound:", pac_error_bound(report.results["d_ds"], 1, 0.1, 200),
      report.verdict)
