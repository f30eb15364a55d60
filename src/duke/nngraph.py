"""Exact k-nearest-neighbor graph.

Construction is a straight all-pairs scan per node. Neighbor lists are sorted
by (distance, index), self excluded, and clamped to n-1 entries. Stored
distances are entries of ``metric_row``: the edge (i, j) holds
``metric_row(emb, metric, i)[j]`` exactly. Each row is partitioned to its
kk-th distance in linear time, and only the points at or below it are
sorted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import EmbeddingSet, metric_row, _check_rows
from .errors import InvalidArgument

__all__ = ["NeighborGraph", "build_knn_graph", "export_graph"]


@dataclass
class NeighborGraph:
    neighbor_indices: np.ndarray  # (n, kk) int64
    neighbor_dists: np.ndarray    # (n, kk) float64

    @property
    def n(self) -> int:
        return self.neighbor_indices.shape[0]

    @property
    def k_effective(self) -> int:
        return self.neighbor_indices.shape[1]

    def neighbors(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        return self.neighbor_indices[i], self.neighbor_dists[i]


def build_knn_graph(emb: EmbeddingSet, k_nn: int, metric: str) -> NeighborGraph:
    if k_nn < 1:
        raise InvalidArgument(k_nn=k_nn)
    _check_rows(emb, metric)
    n = emb.n
    kk = min(k_nn, n - 1)
    idx_out = np.empty((n, kk), dtype=np.int64)
    dist_out = np.empty((n, kk), dtype=np.float64)
    for i in range(n if kk else 0):
        # position j of the others stands for point j, or j + 1 from i on
        others = np.delete(metric_row(emb, metric, i), i)
        kth = np.partition(others, kk - 1)[kk - 1]
        # np.partition, like np.lexsort, orders NaN last: a NaN kth admits all
        near = (np.flatnonzero(others <= kth) if kth == kth
                else np.arange(others.size))
        near = near[np.lexsort((near, others[near]))][:kk]
        idx_out[i] = near + (near >= i)
        dist_out[i] = others[near]
    return NeighborGraph(idx_out, dist_out)


def export_graph(graph: NeighborGraph, stream) -> None:
    """One line per node: ``i: (j,d) (j,d) ...`` with 9 significant digits."""
    for i in range(graph.n):
        idx, dist = graph.neighbors(i)
        pairs = " ".join(f"({int(j)},{d:.9g})" for j, d in zip(idx, dist))
        stream.write(f"{i}: {pairs}\n")
