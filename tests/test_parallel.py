import numpy as np
import pytest

from duke.dataset import EmbeddingSet, WeightVector
from duke.errors import TooManyWorkers
from duke.oracle import brute_force_weighted
from duke.parallel import PartitionPlan, make_partition, parallel_weighted_kcenter
from duke.wkcenter import SelectionConfig, weighted_kcenter


def test_round_robin_partition():
    plan = make_partition(10, 2)
    assert plan.m == 2
    assert list(plan.members(0)) == [0, 2, 4, 6, 8]
    assert list(plan.members(1)) == [1, 3, 5, 7, 9]


def test_partition_sizes_balanced():
    plan = make_partition(7, 3)
    sizes = sorted(len(plan.members(j)) for j in range(3))
    assert sizes == [2, 2, 3]
    # every element lands in exactly one part
    all_members = np.concatenate([plan.members(j) for j in range(3)])
    assert sorted(all_members) == list(range(7))


def test_random_partition_deterministic():
    a = make_partition(50, 4, seed=9, strategy="random")
    b = make_partition(50, 4, seed=9, strategy="random")
    assert np.array_equal(a.assignment, b.assignment)
    c = make_partition(50, 4, seed=10, strategy="random")
    assert not np.array_equal(a.assignment, c.assignment)
    sizes = sorted(len(c.members(j)) for j in range(4))
    assert max(sizes) - min(sizes) <= 1


def test_partition_bounds():
    with pytest.raises(TooManyWorkers):
        make_partition(5, 0)
    with pytest.raises(TooManyWorkers):
        make_partition(5, 6)
    one = make_partition(5, 1)
    assert list(one.members(0)) == list(range(5))


def test_single_machine_equals_sequential(rng):
    for trial in range(20):
        n = int(rng.integers(4, 40))
        emb = EmbeddingSet(rng.normal(size=(n, 2)))
        w = WeightVector(rng.random(n))
        k = int(rng.integers(1, min(6, n) + 1))
        cfg = SelectionConfig(k=k, lambda_=0.2, gamma=1.0)
        seq = weighted_kcenter(emb, "euclidean", w, cfg)
        par = parallel_weighted_kcenter(emb, "euclidean", w, cfg, make_partition(n, 1))
        assert sorted(par.indices) == sorted(seq.indices)
        assert par.objective == pytest.approx(seq.objective)


def test_worker_relabeling_does_not_change_result(rng):
    n = 24
    emb = EmbeddingSet(rng.normal(size=(n, 2)))
    w = WeightVector(rng.random(n))
    cfg = SelectionConfig(k=4, lambda_=0.3, gamma=0.8)
    plan = make_partition(n, 3, seed=1, strategy="random")
    relabel = np.array([2, 0, 1])[plan.assignment]
    swapped = PartitionPlan(m=3, assignment=relabel, strategy="random")
    a = parallel_weighted_kcenter(emb, "euclidean", w, cfg, plan)
    b = parallel_weighted_kcenter(emb, "euclidean", w, cfg, swapped)
    assert a.indices == b.indices
    assert a.objective == b.objective


def test_parallel_stays_within_14x(rng):
    # union-and-rerun reduction across machines keeps the combined
    # solution inside the relaxed guarantee at the enumerated optimum
    for trial in range(20):
        n = int(rng.integers(8, 14))
        emb = EmbeddingSet(rng.normal(size=(n, 2)))
        w = WeightVector(rng.random(n))
        k = int(rng.integers(2, 5))
        lam = float(rng.choice([0.0, 0.1, 1.0]))
        opt = brute_force_weighted(emb, "euclidean", w, k, lam)
        gamma = opt.radius_term
        cfg = SelectionConfig(k=k, lambda_=lam, gamma=gamma)
        for m in (1, 2, 3):
            plan = make_partition(n, m, seed=trial, strategy=("round-robin", "random")[trial % 2])
            sol = parallel_weighted_kcenter(emb, "euclidean", w, cfg, plan)
            assert len(sol.indices) == k
            assert sol.objective <= 14.0 * opt.objective + 1e-9, (trial, m)


def test_solution_metadata(rng):
    n = 30
    emb = EmbeddingSet(rng.normal(size=(n, 2)))
    w = WeightVector(rng.random(n))
    cfg = SelectionConfig(k=5, lambda_=0.1, gamma=1.0)
    sol = parallel_weighted_kcenter(emb, "euclidean", w, cfg, make_partition(n, 3))
    assert sol.algorithm == "parallel"
    assert sol.extra["machines"] == 3
    assert sol.extra["union_size"] >= 5
    assert len(sol.indices) == 5
    # the radius and weight terms are evaluated on the full ground set
    assert sol.radius_term > 0.0
