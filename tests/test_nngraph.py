import io

import numpy as np
import pytest

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
