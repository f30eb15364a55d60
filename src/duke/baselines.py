"""Reference selection strategies to compare against.

The selectors here only pick indices; they do not see distances between
the picks and the rest of the ground set. The CLI scores their picks with
:func:`duke.wkcenter.evaluate_solution`, as it would any selection.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .dataset import WeightVector
from .errors import BudgetExceedsGroundSet, InvalidArgument, SizeMismatch

if TYPE_CHECKING:
    from .nngraph import NeighborGraph

__all__ = [
    "random_select",
    "margin_select",
    "submodular_greedy",
]


def random_select(n: int, k: int, seed: int) -> list[int]:
    """Uniform sample of k distinct indices."""
    if k < 1 or k > n:
        raise BudgetExceedsGroundSet(k=k, n=n)
    rng = np.random.default_rng(seed)
    return [int(i) for i in rng.choice(n, size=k, replace=False)]


def margin_select(weights: WeightVector, k: int) -> list[int]:
    """The k lightest points, ascending (weight, index). Minimizes the weight
    term over all k-subsets by construction."""
    n = weights.n
    if k < 1 or k > n:
        raise BudgetExceedsGroundSet(k=k, n=n)
    order = np.lexsort((np.arange(n), weights.values))
    return [int(i) for i in order[:k]]


def submodular_greedy(graph: NeighborGraph, weights: WeightVector,
                      lambda_s: float, k: int) -> tuple[list[int], dict]:
    """Greedy maximization of  sum util(i) - lambda_s * sum_{edges in S} sim.

    Utility is 1 - weight, so uncertain points are the valuable ones. The
    edges are the kNN adjacency taken undirected, with sim = 1 - d/D, where
    D is the longest edge or 2, whichever is larger: every similarity lies
    in [0, 1] under any metric, and cosine distances, which never exceed 2,
    keep D = 2. Penalties only accrue on graph edges, so each pick updates
    the marginal gains of its neighbors alone, and a pick's gain never
    exceeds its utility. Ties break to the lowest index.

    Returns the picks and ``extra``: the function value and the picked
    gains."""
    n = graph.n
    if k < 1 or k > n:
        raise BudgetExceedsGroundSet(k=k, n=n)
    if weights.n != n:
        raise SizeMismatch(expected=n, got=weights.n)
    if not (math.isfinite(lambda_s) and lambda_s >= 0.0):
        raise InvalidArgument(lambda_s=lambda_s)

    # a pair listed in both directions holds the similarity written last
    adj: list[dict[int, float]] = [{} for _ in range(n)]
    scale = float(np.max(graph.neighbor_dists, initial=2.0))
    for i in range(n):
        idx, dist = graph.neighbors(i)
        for j, d in zip(idx.tolist(), dist.tolist()):
            adj[i][j] = adj[j][i] = 1.0 - d / scale

    gain = 1.0 - weights.values
    in_s = np.zeros(n, dtype=bool)
    selected: list[int] = []
    gains: list[float] = []
    value = 0.0
    for _ in range(k):
        pick = int(np.argmax(np.where(in_s, -np.inf, gain)))
        g = float(gain[pick])
        selected.append(pick)
        gains.append(g)
        value += g
        in_s[pick] = True
        for u, s in adj[pick].items():
            gain[u] -= lambda_s * s
    return selected, {"submodular_value": value, "marginal_gains": gains}
