"""Partition-parallel selection.

The ground set is dealt across m workers, each worker runs the fixed-gamma
selector on its slice with the shared gamma, and a reduce step runs the same
selector over the union of all worker picks. Quality degrades by a constant
factor versus the sequential run but each worker only touches n/m points.

The final evaluation is always against the full ground set, and the union is
sorted before reduction, so the result does not depend on worker ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import EmbeddingSet, WeightVector
from .errors import InvalidArgument, SizeMismatch, TooManyWorkers
from .wkcenter import SelectionConfig, SubsetSolution, weighted_kcenter, weighted_objective

__all__ = ["PartitionPlan", "make_partition", "parallel_weighted_kcenter"]

STRATEGIES = ("round-robin", "random")


@dataclass
class PartitionPlan:
    """Assignment of each point to a worker in [0, m)."""

    m: int
    assignment: np.ndarray
    strategy: str

    def members(self, worker: int) -> np.ndarray:
        return np.nonzero(self.assignment == worker)[0]


def make_partition(n: int, m: int, seed: int = 0,
                   strategy: str = "round-robin") -> PartitionPlan:
    """Deal n points across m workers; sizes differ by at most one."""
    if m < 1 or m > n:
        raise TooManyWorkers(m=m, n=n)
    if strategy not in STRATEGIES:
        raise InvalidArgument(strategy=strategy)
    if strategy == "round-robin":
        assignment = np.arange(n, dtype=np.int64) % m
    else:
        perm = np.random.default_rng(seed).permutation(n)
        assignment = np.empty(n, dtype=np.int64)
        assignment[perm] = np.arange(n, dtype=np.int64) % m
    return PartitionPlan(m=m, assignment=assignment, strategy=strategy)


def parallel_weighted_kcenter(emb: EmbeddingSet, metric: str,
                              weights: WeightVector, config: SelectionConfig,
                              plan: PartitionPlan) -> SubsetSolution:
    n = emb.n
    config.validate(n)
    if weights.n != n:
        raise SizeMismatch(expected=n, got=weights.n)
    if plan.assignment.shape != (n,):
        raise SizeMismatch(expected=n, got=plan.assignment.shape)
    if plan.m < 1 or plan.m > n:
        raise TooManyWorkers(m=plan.m, n=n)

    candidate_lists: list[np.ndarray] = []
    for worker in range(plan.m):
        part = plan.members(worker)
        if part.size == 0:
            continue
        sub_cfg = replace(config, k=min(config.k, int(part.size)))
        sub_sol = weighted_kcenter(emb.subset(part), metric,
                                   weights.subset(part), sub_cfg)
        candidate_lists.append(part[np.asarray(sub_sol.indices)])

    union = np.sort(np.concatenate(candidate_lists))
    red_cfg = replace(config, k=min(config.k, int(union.size)))
    red_sol = weighted_kcenter(emb.subset(union), metric,
                               weights.subset(union), red_cfg)
    final = [int(union[i]) for i in red_sol.indices]

    radius, wsum, obj = weighted_objective(emb, metric, weights,
                                           config.lambda_, final)
    return SubsetSolution(
        indices=final, radius_term=radius, weight_term=wsum, objective=obj,
        algorithm="parallel", gamma_used=config.gamma,
        extra={"machines": plan.m,
               "strategy": plan.strategy,
               "union_size": int(union.size),
               "worker_candidates": [sorted(int(x) for x in c)
                                     for c in candidate_lists]})
