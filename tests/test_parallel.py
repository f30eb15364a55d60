import numpy as np
import pytest

from duke.dataset import EmbeddingSet, WeightVector
from duke.errors import InvalidArgument, TooManyWorkers
from duke.oracle import brute_force_weighted
from duke.parallel import make_partition, parallel_weighted_kcenter
from duke.wkcenter import weighted_kcenter


def test_round_robin_partition():
    parts = make_partition(10, 2)
    assert [list(p) for p in parts] == [[0, 2, 4, 6, 8], [1, 3, 5, 7, 9]]


def test_partition_sizes_balanced():
    parts = make_partition(7, 3)
    assert sorted(len(p) for p in parts) == [2, 2, 3]
    # every element lands in exactly one part
    assert sorted(np.concatenate(parts)) == list(range(7))


def test_random_partition_deterministic():
    a = make_partition(50, 4, seed=9, strategy="random")
    b = make_partition(50, 4, seed=9, strategy="random")
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = make_partition(50, 4, seed=10, strategy="random")
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))
    sizes = sorted(len(p) for p in c)
    assert max(sizes) - min(sizes) <= 1
    # point perm[i] goes to worker i % m, each part in index order
    perm = np.random.default_rng(10).permutation(50)
    for w, part in enumerate(c):
        assert list(part) == sorted(perm[w::4])


def test_parts_must_cover_every_point_once(rng):
    emb = EmbeddingSet(rng.normal(size=(10, 2)), "euclidean")
    w = WeightVector(rng.random(10))
    # a point in no part, a point in two parts, an index outside the set
    for parts in ([np.arange(0, 9, 2), np.arange(1, 9, 2)],
                  [np.arange(0, 10, 2), np.arange(1, 10, 2), np.array([3])],
                  [np.arange(0, 10, 2), np.array([1, 3, 5, 7, 10])]):
        with pytest.raises(InvalidArgument):
            parallel_weighted_kcenter(emb, w, 3, 0.1, 0.5, parts)


def test_partition_bounds():
    with pytest.raises(TooManyWorkers):
        make_partition(5, 0)
    with pytest.raises(TooManyWorkers):
        make_partition(5, 6)
    one = make_partition(5, 1)
    assert [list(p) for p in one] == [list(range(5))]


def test_single_machine_equals_sequential(rng):
    for trial in range(20):
        n = int(rng.integers(4, 40))
        emb = EmbeddingSet(rng.normal(size=(n, 2)), "euclidean")
        w = WeightVector(rng.random(n))
        k = int(rng.integers(1, min(6, n) + 1))
        seq = weighted_kcenter(emb, w, k, 0.2, 1.0)
        par = parallel_weighted_kcenter(emb, w, k, 0.2, 1.0,
                                        make_partition(n, 1))
        assert sorted(par.indices) == sorted(seq.indices)
        assert par.objective == pytest.approx(seq.objective)


def test_worker_relabeling_does_not_change_result(rng):
    n = 24
    emb = EmbeddingSet(rng.normal(size=(n, 2)), "euclidean")
    w = WeightVector(rng.random(n))
    cfg = (4, 0.3, 0.8)
    parts = make_partition(n, 3, seed=1, strategy="random")
    swapped = [parts[1], parts[2], parts[0]]
    a = parallel_weighted_kcenter(emb, w, *cfg, parts)
    b = parallel_weighted_kcenter(emb, w, *cfg, swapped)
    assert a.indices == b.indices
    assert a.objective == b.objective


def test_parallel_stays_within_14x(rng):
    # union-and-rerun reduction across machines keeps the combined
    # solution inside the relaxed guarantee at the enumerated optimum
    for trial in range(20):
        n = int(rng.integers(8, 14))
        emb = EmbeddingSet(rng.normal(size=(n, 2)), "euclidean")
        w = WeightVector(rng.random(n))
        k = int(rng.integers(2, 5))
        lam = float(rng.choice([0.0, 0.1, 1.0]))
        opt = brute_force_weighted(emb, w, k, lam)
        gamma = opt.radius_term
        for m in (1, 2, 3):
            parts = make_partition(n, m, seed=trial, strategy=("round-robin", "random")[trial % 2])
            sol = parallel_weighted_kcenter(emb, w, k, lam, gamma,
                                            parts)
            assert len(sol.indices) == k
            assert sol.objective <= 14.0 * opt.objective + 1e-9, (trial, m)


def test_solution_metadata(rng):
    n = 30
    emb = EmbeddingSet(rng.normal(size=(n, 2)), "euclidean")
    w = WeightVector(rng.random(n))
    sol = parallel_weighted_kcenter(emb, w, 5, 0.1, 1.0,
                                    make_partition(n, 3))
    assert sol.algorithm == "parallel"
    assert sol.extra["machines"] == 3
    assert sol.extra["union_size"] >= 5
    assert len(sol.indices) == 5
    # the radius and weight terms are evaluated on the full ground set
    assert sol.radius_term > 0.0
