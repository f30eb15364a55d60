import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duke.baselines import (
    margin_select,
    random_select,
    submodular_greedy,
)
from duke.dataset import METRICS, EmbeddingSet, WeightVector, metric_row
from duke.errors import BudgetExceedsGroundSet, InvalidArgument, SizeMismatch
from duke.nngraph import build_knn_graph
from duke.wkcenter import evaluate_solution


def _undirected_sims(graph):
    # undirected kNN edges keyed (i, j) with i < j, sim = 1 - d/2
    sims = {}
    for i in range(graph.n):
        idx, dist = graph.neighbors(i)
        for j, d in zip(idx, dist):
            sims[(min(i, int(j)), max(i, int(j)))] = 1.0 - d / 2.0
    return sims


def test_random_deterministic_and_distinct():
    a = random_select(100, 10, seed=7)
    b = random_select(100, 10, seed=7)
    assert a == b
    assert len(set(a)) == 10
    c = random_select(100, 10, seed=8)
    assert a != c


def test_random_marginal_frequency():
    # each point should appear in a k-of-n draw with probability k/n;
    # 10000 fixed seeds keep this check deterministic
    hits = 0
    for seed in range(10000):
        if 3 in random_select(10, 1, seed=seed):
            hits += 1
    assert abs(hits / 10000 - 0.1) < 0.01


def test_random_bounds():
    with pytest.raises(BudgetExceedsGroundSet):
        random_select(5, 6, seed=0)


def test_margin_picks_least_confident():
    w = WeightVector(np.array([0.9, 0.1, 0.5]))
    assert margin_select(w, 2) == [1, 2]


def test_margin_tie_break_by_index():
    w = WeightVector(np.array([0.4, 0.2, 0.4, 0.2]))
    assert margin_select(w, 3) == [1, 3, 0]


def test_margin_minimizes_weight_sum(rng):
    w = rng.random(30)
    chosen = w[margin_select(WeightVector(w), 5)].sum()
    for _ in range(50):
        other = rng.choice(30, size=5, replace=False)
        assert chosen <= w[other].sum() + 1e-12


def test_baseline_score_equals_the_definition(rng):
    emb = EmbeddingSet(rng.normal(size=(20, 2)), "euclidean")
    w = WeightVector(rng.random(20))
    picks = random_select(20, 4, seed=0)
    sol = evaluate_solution(emb, w, 0.5, picks, "random")
    # farthest point from its nearest pick, by full rows
    radius = max(min(metric_row(emb, c)[i] for c in picks)
                 for i in range(20))
    wsum = float(w.values[sorted(picks)].sum())
    assert (sol.radius_term, sol.weight_term) == (radius, wsum)
    assert sol.objective == radius + 0.5 * wsum
    assert (sol.indices, sol.algorithm, sol.gamma_used) == (picks, "random", 0.0)


def test_utility_from_weights():
    # with no penalty the gains are the utilities 1 - weight, largest first
    emb = EmbeddingSet(np.arange(6.0).reshape(3, 2) + 1.0, "euclidean")
    graph = build_knn_graph(emb, 2)
    picks, extra = submodular_greedy(
        graph, WeightVector(np.array([0.0, 0.25, 1.0])), lambda_s=0.0, k=3)
    assert picks == [0, 1, 2]
    assert extra["marginal_gains"] == [1.0, 0.75, 0.0]


def test_submodular_checks_its_arguments():
    emb = EmbeddingSet(np.arange(6.0).reshape(3, 2) + 1.0, "euclidean")
    graph = build_knn_graph(emb, 2)
    w = WeightVector(np.array([0.0, 0.25, 1.0]))
    for lam in (-0.5, float("nan"), float("inf")):
        with pytest.raises(InvalidArgument):
            submodular_greedy(graph, w, lambda_s=lam, k=2)
    with pytest.raises(SizeMismatch):
        submodular_greedy(graph, WeightVector(np.array([0.0, 1.0])),
                          lambda_s=0.5, k=2)
    with pytest.raises(BudgetExceedsGroundSet):
        submodular_greedy(graph, w, lambda_s=0.5, k=4)


def test_submodular_redundant_twin_is_skipped():
    # two coincident points and one orthogonal: after taking the first
    # twin, the second is heavily penalized and the novel direction wins
    emb = EmbeddingSet(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                       "cosine-distance")
    graph = build_knn_graph(emb, 1)
    # utilities 0.9, 0.9, 0.5
    w = WeightVector(np.array([0.1, 0.1, 0.5]))
    picks, _ = submodular_greedy(graph, w, lambda_s=10.0, k=2)
    assert picks == [0, 2]


def test_submodular_zero_penalty_is_topk_utility():
    emb = EmbeddingSet(np.arange(12.0).reshape(6, 2) + 1.0, "euclidean")
    graph = build_knn_graph(emb, 2)
    utils = np.array([0.1, 0.8, 0.3, 0.8, 0.9, 0.2])
    picks, extra = submodular_greedy(graph, WeightVector(1.0 - utils),
                                     lambda_s=0.0, k=3)
    assert picks == [4, 1, 3]
    assert extra["submodular_value"] == pytest.approx(0.9 + 0.8 + 0.8)


def test_submodular_marginal_gains_non_increasing(rng):
    # the penalty only accumulates, so the greedy pick sequence cannot
    # see gains rise between rounds
    emb = EmbeddingSet(rng.normal(size=(25, 3)) + 5.0, "cosine-distance")
    graph = build_knn_graph(emb, 4)
    _, extra = submodular_greedy(graph, WeightVector(rng.random(25)),
                                 lambda_s=0.7, k=10)
    gains = extra["marginal_gains"]
    assert len(gains) == 10
    assert all(a >= b - 1e-12 for a, b in zip(gains, gains[1:]))


def test_submodular_greedy_near_optimal(rng):
    # classic greedy bound against the enumerated best set value; holds
    # whenever the objective stays monotone over the instance
    def set_value(subset, utils, sims, lam):
        total = sum(utils[i] for i in subset)
        inside = set(subset)
        for (a, b), s in sims.items():
            if a in inside and b in inside:
                total -= lam * s
        return total

    for trial in range(6):
        emb = EmbeddingSet(rng.normal(size=(10, 2)) + 4.0, "cosine-distance")
        graph = build_knn_graph(emb, 3)
        # weights in [0, 0.5): utilities above 0.5 keep the set function
        # monotone against the small penalty
        w = WeightVector(rng.random(10) * 0.5)
        utils = 1.0 - w.values
        sims = _undirected_sims(graph)
        lam = 0.05
        picks, extra = submodular_greedy(graph, w, lambda_s=lam, k=3)
        got = set_value(picks, utils, sims, lam)
        best = max(set_value(c, utils, sims, lam) for c in itertools.combinations(range(10), 3))
        assert got >= (1.0 - 1.0 / math.e) * best - 1e-9
        assert extra["submodular_value"] == pytest.approx(got)


@given(st.sampled_from(METRICS), st.integers(2, 30), st.integers(1, 6),
       st.sampled_from([0.01, 1.0, 100.0]), st.floats(0.0, 5.0),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_submodular_gain_never_exceeds_the_picks_utility(metric, n, knn, scale,
                                                         lambda_s, seed):
    # similarities lie in [0, 1] under every metric, so the penalty only
    # lowers a gain; on spread-out euclidean or manhattan points a similarity
    # of 1 - d/2 would be negative and raise it
    rng = np.random.default_rng(seed)
    emb = EmbeddingSet(scale * rng.normal(size=(n, 3)) + scale / 2, metric)
    w = WeightVector(rng.random(n))
    graph = build_knn_graph(emb, knn)
    k = int(rng.integers(1, n + 1))
    picks, extra = submodular_greedy(graph, w, lambda_s=lambda_s, k=k)
    for pick, gain in zip(picks, extra["marginal_gains"]):
        assert gain <= 1.0 - w.values[pick]
