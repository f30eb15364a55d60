import itertools
import math

import numpy as np
import pytest

from duke.dataset import EmbeddingSet, WeightVector
from duke import oracle
from duke.errors import InstanceTooLarge
from duke.oracle import brute_force_kcenter, brute_force_weighted


def slow_enumerate(pts, weights, k, lam, metric="euclidean"):
    """Deliberately naive reference enumerator, written without any of
    the package's distance or pruning machinery. Pure Python loops so a
    bug in the vectorized oracle cannot hide here too.
    """
    n = len(pts)

    def dist(i, j):
        if metric == "euclidean":
            return math.sqrt(sum((a - b) ** 2 for a, b in zip(pts[i], pts[j])))
        if metric == "manhattan":
            return sum(abs(a - b) for a, b in zip(pts[i], pts[j]))
        dot = sum(a * b for a, b in zip(pts[i], pts[j]))
        na = math.sqrt(sum(a * a for a in pts[i]))
        nb = math.sqrt(sum(b * b for b in pts[j]))
        return 1.0 - max(-1.0, min(1.0, dot / (na * nb)))

    best = None
    for subset in itertools.combinations(range(n), k):
        radius = max(min(dist(i, c) for c in subset) for i in range(n))
        wsum = sum(weights[i] for i in sorted(subset))
        obj = radius + lam * wsum
        if best is None or obj < best[1]:
            best = (subset, obj, radius, wsum)
    return best


def test_cross_check_independent_enumerator(rng):
    for trial in range(30):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(1, n))
        lam = float(rng.choice([0.0, 0.1, 1.0, 5.0]))
        metric = ("euclidean", "manhattan", "cosine-distance")[trial % 3]
        pts = rng.normal(size=(n, 2)) + (3.0 if metric == "cosine-distance" else 0.0)
        w = rng.random(n)
        got = brute_force_weighted(EmbeddingSet(pts, metric), WeightVector(w), k, lam)
        want_subset, want_obj, want_radius, want_wsum = slow_enumerate(pts.tolist(), w.tolist(), k, lam, metric)
        assert got.best_subset == want_subset, (trial, metric)
        assert got.objective == pytest.approx(want_obj, abs=1e-12)
        assert got.radius_term == pytest.approx(want_radius, abs=1e-12)
        assert got.weight_term == pytest.approx(want_wsum, abs=1e-12)


def test_line_kcenter(line_points):
    res = brute_force_kcenter(line_points, 2)
    assert res.radius_term == 2.0
    assert res.best_subset == (1, 4)
    assert res.enumerated == 10


def test_k_equals_n(line_points):
    w = WeightVector(np.array([0.1, 0.2, 0.3, 0.2, 0.2]))
    res = brute_force_weighted(line_points, w, 5, 1.0)
    assert res.radius_term == 0.0
    assert res.weight_term == pytest.approx(1.0)
    assert res.best_subset == (0, 1, 2, 3, 4)


def test_lexicographic_tie_break():
    # two coincident points make {0,2} and {1,2} equally good; the
    # lexicographically smaller subset must win
    emb = EmbeddingSet(np.array([[0.0], [0.0], [1.0]]), "euclidean")
    res = brute_force_kcenter(emb, 2)
    assert res.radius_term == 0.0
    assert res.best_subset == (0, 2)


def test_weight_dominated_regime(rng):
    # with a huge lambda the optimum is simply the k lightest points
    n = 9
    emb = EmbeddingSet(rng.normal(size=(n, 2)), "euclidean")
    w = rng.random(n)
    res = brute_force_weighted(emb, WeightVector(w), 3, 1e6)
    assert res.best_subset == tuple(sorted(np.argsort(w, kind="stable")[:3]))


def test_instance_too_large():
    emb = EmbeddingSet(np.zeros((30, 1)) + np.arange(30)[:, None], "euclidean")
    w = WeightVector(np.full(30, 0.5))
    with pytest.raises(InstanceTooLarge):
        brute_force_weighted(emb, w, 15, 1.0)
    # the cap is a parameter, so tiny budgets trip it too
    with pytest.raises(InstanceTooLarge):
        brute_force_kcenter(emb, 2, cap=10)


@pytest.mark.parametrize("n, k", [(20000, 1), (2000, 2)])
def test_oracle_memory_budget_raises_before_allocating(monkeypatch, n, k):
    # both pass the C(n, k) cap; their distance matrices (3.2 GB, 32 MB)
    # exceed the byte budget
    assert math.comb(n, k) <= oracle.ENUMERATION_CAP
    assert 8 * n * n > oracle.MEMORY_BUDGET

    def no_matrix(*args):
        raise AssertionError("distance matrix allocated")

    monkeypatch.setattr(oracle, "distance_matrix", no_matrix)
    emb = EmbeddingSet(np.arange(float(n))[:, None], "euclidean")
    with pytest.raises(InstanceTooLarge):
        brute_force_weighted(emb, WeightVector(np.zeros(n)), k, 1.0)


@pytest.mark.parametrize("n, k", [(3, 1), (14, 6), (200, 3), (1448, 2), (1448, 1448)])
def test_oracle_chunk_gather_within_budget(n, k):
    chunk = oracle._chunk_size(n, k)
    assert chunk >= 1
    assert 8 * n * chunk * k <= oracle.MEMORY_BUDGET


def test_kcenter_reports_weights(line_points):
    w = WeightVector(np.array([0.9, 0.1, 0.9, 0.9, 0.1]))
    res = brute_force_kcenter(line_points, 2, weights=w)
    assert res.best_subset == (1, 4)
    assert res.weight_term == pytest.approx(0.2)


def test_optimal_gamma_is_radius_of_weighted_optimum(rng):
    emb = EmbeddingSet(rng.normal(size=(8, 2)), "euclidean")
    w = WeightVector(rng.random(8))
    # at lambda zero the weighted optimum's radius is the unweighted one
    res = brute_force_weighted(emb, w, 3, 0.0)
    assert res.radius_term == brute_force_kcenter(emb, 3).radius_term
