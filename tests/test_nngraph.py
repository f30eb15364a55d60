import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duke.dataset import EmbeddingSet, metric_row
from duke.errors import InvalidArgument, ZeroVectorCosine
from duke.nngraph import NeighborGraph, build_knn_graph, export_graph


def test_three_collinear_points():
    emb = EmbeddingSet(np.array([[0.0], [1.0], [5.0]]))
    g = build_knn_graph(emb, 1, "euclidean")
    assert g.neighbor_indices[0, 0] == 1
    assert g.neighbor_indices[1, 0] == 0
    assert g.neighbor_indices[2, 0] == 1
    assert g.neighbor_dists[2, 0] == 4.0


def test_k_clamped_to_n_minus_one():
    emb = EmbeddingSet(np.array([[0.0], [1.0], [2.0]]))
    g = build_knn_graph(emb, 10, "euclidean")
    assert g.k_effective == 2
    assert g.neighbor_indices.shape == (3, 2)


def test_neighbors_sorted_and_tie_broken():
    # point 0 is equidistant from 1 and 2; the lower index must come first
    emb = EmbeddingSet(np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]))
    g = build_knn_graph(emb, 2, "euclidean")
    assert list(g.neighbor_indices[0]) == [1, 2]


def test_matches_naive_scan(rng):
    pts = rng.normal(size=(120, 5))
    emb = EmbeddingSet(pts)
    for metric in ("euclidean", "cosine-distance"):
        g = build_knn_graph(emb, 7, metric)
        for i in range(0, 120, 17):
            dists = metric_row(emb, metric, i)
            dists[i] = np.inf
            order = np.lexsort((np.arange(120), dists))[:7]
            assert list(g.neighbor_indices[i]) == list(order)
            # stored distances are the exact floats the kernel produces
            for slot, j in enumerate(order):
                assert g.neighbor_dists[i, slot] == dists[j]


def test_build_rejects_bad_args():
    emb = EmbeddingSet(np.array([[0.0], [1.0]]))
    with pytest.raises(InvalidArgument):
        build_knn_graph(emb, 0, "euclidean")
    with pytest.raises(ZeroVectorCosine):
        build_knn_graph(EmbeddingSet(np.array([[0.0, 0.0], [1.0, 0.0]])), 1, "cosine-distance")


def test_export_format():
    emb = EmbeddingSet(np.array([[0.0], [1.0], [5.0]]))
    g = build_knn_graph(emb, 1, "euclidean")
    buf = io.StringIO()
    export_graph(g, buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == 3
    assert lines[0] == "0: (1,1)"
    assert lines[2] == "2: (1,4)"


def test_neighbors_accessor():
    emb = EmbeddingSet(np.array([[0.0], [1.0], [5.0]]))
    g = build_knn_graph(emb, 2, "euclidean")
    idx, d = g.neighbors(2)
    assert list(idx) == [1, 0]
    assert list(d) == [4.0, 5.0]
    assert isinstance(g, NeighborGraph)


def _lexsort_graph(emb, k_nn, metric):
    """The graph by a full (distance, index) lexsort of every row."""
    kk = min(k_nn, emb.n - 1)
    idx, dist = [], []
    for i in range(emb.n):
        d = metric_row(emb, metric, i)
        order = np.lexsort((np.arange(emb.n), d))
        order = order[order != i][:kk]
        idx.append(order)
        dist.append(d[order])
    return np.array(idx).reshape(emb.n, kk), np.array(dist).reshape(emb.n, kk)


@given(st.sampled_from(["euclidean", "manhattan", "cosine-distance"]),
       st.sampled_from(["lattice", "duplicates", "normal", "huge"]),
       st.integers(1, 60), st.integers(1, 5), st.integers(1, 70),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_partitioned_rows_equal_the_full_lexsort(metric, kind, n, dim, k_nn,
                                                 seed):
    # ties at the kk-th distance (lattices, duplicated rows), kk = n - 1
    # (k_nn up to 70) and NaN cosine distances (norms that overflow)
    rng = np.random.default_rng(seed)
    if kind == "lattice":
        pts = rng.integers(-1, 2, size=(n, dim)).astype(float)
    elif kind == "duplicates":
        few = max(1, n // 4)
        pts = rng.normal(size=(few, dim))[rng.integers(0, few, n)]
    elif kind == "normal":
        pts = rng.normal(size=(n, dim))
    else:
        pts = 1e200 * rng.normal(size=(n, dim))
    if metric == "cosine-distance":
        pts[~np.abs(pts).any(axis=1)] = 1.0
    emb = EmbeddingSet(pts)
    with np.errstate(over="ignore", invalid="ignore"):
        g = build_knn_graph(emb, k_nn, metric)
        idx, dist = _lexsort_graph(emb, k_nn, metric)
    assert g.neighbor_indices.tolist() == idx.tolist()
    assert g.neighbor_dists.tobytes() == dist.tobytes()
