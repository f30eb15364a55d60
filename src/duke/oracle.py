"""Exhaustive optima for small instances.

Subsets are enumerated in lexicographic order and evaluated in vectorized
chunks against the full distance matrix. Ties keep the lexicographically
smallest subset, so results are deterministic. A hard cap on C(n, k) refuses
instances that cannot finish, and a byte budget refuses, before anything is
allocated, instances whose distance matrix would not fit in it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import EmbeddingSet, WeightVector, distance_matrix
from .errors import BudgetExceedsGroundSet, InstanceTooLarge, SizeMismatch
from .wkcenter import check_lambda

__all__ = [
    "OracleResult",
    "ENUMERATION_CAP",
    "MEMORY_BUDGET",
    "brute_force_weighted",
    "brute_force_kcenter",
]

ENUMERATION_CAP = 2_000_000
# The most bytes one oracle array may take: the n x n distance matrix, and
# the (n, chunk, k) gather that scores one chunk of subsets.
MEMORY_BUDGET = 1 << 24


@dataclass
class OracleResult:
    best_subset: tuple[int, ...]
    objective: float
    radius_term: float
    weight_term: float
    enumerated: int


def _check_budget(n: int, k: int, cap: int) -> int:
    if k < 1 or k > n:
        raise BudgetExceedsGroundSet(k=k, n=n)
    total = math.comb(n, k)
    if total > cap:
        raise InstanceTooLarge(combinations=total, cap=cap)
    return total


def _chunk_size(n: int, k: int) -> int:
    """Subsets scored per chunk, within the memory budget.

    Raises InstanceTooLarge if the distance matrix alone exceeds the budget;
    otherwise, since k <= n, at least one subset fits."""
    matrix = 8 * n * n
    if matrix > MEMORY_BUDGET:
        raise InstanceTooLarge(matrix_bytes=matrix, budget=MEMORY_BUDGET)
    return MEMORY_BUDGET // (8 * n * k)


def brute_force_weighted(emb: EmbeddingSet, weights: WeightVector, k: int,
                         lambda_: float,
                         cap: int = ENUMERATION_CAP) -> OracleResult:
    n = emb.n
    if weights.n != n:
        raise SizeMismatch(expected=n, got=weights.n)
    check_lambda(lambda_)
    total = _check_budget(n, k, cap)
    chunk = _chunk_size(n, k)
    dist = distance_matrix(emb)
    w = weights.values

    best_obj = np.inf
    best_subset: tuple[int, ...] | None = None
    best_radius = np.inf
    best_wsum = np.inf

    combos = itertools.combinations(range(n), k)
    while True:
        block = list(itertools.islice(combos, chunk))
        if not block:
            break
        subs = np.array(block, dtype=np.int64)
        wcost = lambda_ * w[subs].sum(axis=1)
        # a subset whose weight cost alone meets the incumbent cannot win:
        # radius >= 0, and on an exact tie the earlier (lex-smaller) incumbent
        # is kept anyway
        live = wcost < best_obj
        if not live.any():
            continue
        live_subs = subs[live]
        radii = dist[:, live_subs].min(axis=2).max(axis=0)
        objs = radii + wcost[live]
        loc = int(np.argmin(objs))
        if objs[loc] < best_obj:
            best_obj = float(objs[loc])
            best_subset = tuple(int(x) for x in live_subs[loc])
            best_radius = float(radii[loc])
            best_wsum = float(w[np.sort(live_subs[loc])].sum())
    return OracleResult(best_subset=best_subset, objective=best_obj,
                        radius_term=best_radius, weight_term=best_wsum,
                        enumerated=total)


def brute_force_kcenter(emb: EmbeddingSet, k: int,
                        weights: WeightVector | None = None,
                        cap: int = ENUMERATION_CAP) -> OracleResult:
    """Optimal covering radius (lambda = 0). When ``weights`` is given the
    winning subset's weight sum is reported, but plays no role in selection."""
    zero = WeightVector(np.zeros(emb.n))
    res = brute_force_weighted(emb, zero, k, 0.0, cap=cap)
    wsum = 0.0
    if weights is not None:
        if weights.n != emb.n:
            raise SizeMismatch(expected=emb.n, got=weights.n)
        idx = np.sort(np.asarray(res.best_subset, dtype=np.int64))
        wsum = float(weights.values[idx].sum())
    return OracleResult(best_subset=res.best_subset, objective=res.objective,
                        radius_term=res.radius_term, weight_term=wsum,
                        enumerated=res.enumerated)

