"""Reference selection strategies to compare against.

The simple selectors here return solutions with NaN evaluation fields since
they do not see the embedding set; run them through
:func:`duke.wkcenter.evaluate_solution` to fill radius, weight and objective.
The CLI does this before reporting.
"""

from __future__ import annotations

import numpy as np

from .dataset import WeightVector
from .errors import BudgetExceedsGroundSet, InvalidArgument
from .nngraph import NeighborGraph
from .wkcenter import SubsetSolution

__all__ = [
    "random_select",
    "margin_select",
    "edge_similarities",
    "utility_from_weights",
    "submodular_greedy",
]

def _unevaluated(indices, algorithm: str, extra=None) -> SubsetSolution:
    return SubsetSolution(indices=[int(i) for i in indices],
                          radius_term=float("nan"), weight_term=float("nan"),
                          objective=float("nan"), algorithm=algorithm,
                          gamma_used=0.0, extra=extra or {})


def random_select(n: int, k: int, seed: int) -> SubsetSolution:
    """Uniform sample of k distinct indices."""
    if k < 1 or k > n:
        raise BudgetExceedsGroundSet(k=k, n=n)
    rng = np.random.default_rng(seed)
    idx = rng.choice(n, size=k, replace=False)
    return _unevaluated(idx, "random")


def margin_select(weights: WeightVector, k: int) -> SubsetSolution:
    """The k lightest points, ascending (weight, index). Minimizes the weight
    term over all k-subsets by construction."""
    n = weights.n
    if k < 1 or k > n:
        raise BudgetExceedsGroundSet(k=k, n=n)
    order = np.lexsort((np.arange(n), weights.values))
    return _unevaluated(order[:k], "margin")


def edge_similarities(graph: NeighborGraph) -> dict[tuple[int, int], float]:
    """Undirected edge map from the kNN adjacency, sim = 1 - d/2.

    Keys are (i, j) with i < j. Distances are exactly symmetric, so a pair
    present in both directions maps to one value."""
    sims: dict[tuple[int, int], float] = {}
    for i in range(graph.n):
        idx, dist = graph.neighbors(i)
        for j, d in zip(idx, dist):
            key = (i, int(j)) if i < j else (int(j), i)
            sims[key] = 1.0 - d / 2.0
    return sims


def utility_from_weights(weights: WeightVector) -> np.ndarray:
    """Utility = 1 - weight: uncertain points are the valuable ones."""
    return 1.0 - weights.values


def submodular_greedy(graph: NeighborGraph, utilities: np.ndarray,
                      similarities: dict[tuple[int, int], float],
                      lambda_s: float, k: int) -> SubsetSolution:
    """Greedy maximization of  sum util(i) - lambda_s * sum_{edges in S} sim.

    Penalties only accrue on graph edges, so each pick updates the marginal
    gains of its neighbors alone. Ties break to the lowest index. The running
    function value and the picked gains are recorded in ``extra``.
    """
    n = graph.n
    if k < 1 or k > n:
        raise BudgetExceedsGroundSet(k=k, n=n)
    util = np.asarray(utilities, dtype=np.float64)
    if util.shape != (n,):
        raise InvalidArgument(utilities_shape=util.shape)
    if lambda_s < 0.0:
        raise InvalidArgument(lambda_s=lambda_s)

    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (i, j), s in similarities.items():
        adj[i].append((j, s))
        adj[j].append((i, s))

    gain = util.copy()
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
        for u, s in adj[pick]:
            gain[u] -= lambda_s * s
    return _unevaluated(selected, "submodular",
                        extra={"submodular_value": value,
                               "marginal_gains": gains})
