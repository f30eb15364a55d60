"""Partition-parallel selection.

The ground set is dealt across m workers, each worker runs the fixed-gamma
selector on its part with the shared gamma, and a reduce step runs the same
selector over the union of all worker picks (the composable coreset of
Malkomes et al. 2015). Quality degrades by a constant factor versus the
sequential run but each worker only touches n/m points.

The final evaluation is always against the full ground set, and the union is
sorted before reduction, so the result does not depend on worker ordering.
It repeats at every guess at which all worker runs and the reduce run
repeat, so its span is the intersection of theirs.
"""

from __future__ import annotations

import numpy as np

from .dataset import EmbeddingSet, WeightVector
from .errors import InvalidArgument, TooManyWorkers
from .wkcenter import (GammaSpan, SubsetSolution, check_selection,
                       evaluate_solution, weighted_kcenter)

__all__ = ["make_partition", "parallel_weighted_kcenter"]

STRATEGIES = ("round-robin", "random")


def make_partition(n: int, m: int, seed: int = 0,
                   strategy: str = "round-robin") -> list[np.ndarray]:
    """Deal n points across m workers: one sorted index array per worker,
    sizes differing by at most one."""
    if m < 1 or m > n:
        raise TooManyWorkers(m=m, n=n)
    if strategy not in STRATEGIES:
        raise InvalidArgument(strategy=strategy)
    if strategy == "round-robin":
        return [np.arange(w, n, m) for w in range(m)]
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(perm[w::m]) for w in range(m)]


def parallel_weighted_kcenter(emb: EmbeddingSet, weights: WeightVector,
                              k: int, lambda_: float, gamma: float,
                              parts: list[np.ndarray]) -> SubsetSolution:
    """Select on each part, then reselect on the union of the picks.

    ``parts`` must hold every index in ``range(n)`` exactly once."""
    n = emb.n
    check_selection(emb, weights, k, lambda_, gamma)
    if not 1 <= len(parts) <= n:
        raise TooManyWorkers(m=len(parts), n=n)
    if not np.array_equal(np.sort(np.concatenate(parts)), np.arange(n)):
        raise InvalidArgument(parts="not-a-partition", n=n)

    candidate_lists, spans = [], []
    for part in parts:
        if part.size == 0:
            continue
        sub_sol = weighted_kcenter(emb.subset(part), weights.subset(part),
                                   min(k, int(part.size)), lambda_, gamma)
        candidate_lists.append(part[np.asarray(sub_sol.indices)])
        spans.append(sub_sol.span)

    union = np.sort(np.concatenate(candidate_lists))
    red_sol = weighted_kcenter(emb.subset(union), weights.subset(union),
                               min(k, int(union.size)), lambda_, gamma)
    spans.append(red_sol.span)

    return evaluate_solution(
        emb, weights, lambda_, union[red_sol.indices], "parallel",
        gamma_used=gamma,
        extra={"machines": len(parts), "union_size": int(union.size),
               "worker_candidates": [sorted(map(int, c))
                                     for c in candidate_lists]},
        span=GammaSpan(gamma, min(s.t_hi for s in spans),
                       min(s.g_hi for s in spans)))
