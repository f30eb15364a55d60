"""Randomized property verification against the brute-force oracle.

Each suite draws seeded random instances, computes exact optima, and checks
the guarantees the selectors are supposed to carry. Checks are exact float
comparisons, no tolerance: instances are continuous (ties have measure zero)
and every quantity on both sides of a comparison is either drawn from the
same distance pool or rounds once. A violation records a full replay of the
offending instance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .dataset import EmbeddingSet, WeightVector
from .oracle import brute_force_kcenter, brute_force_weighted
from .parallel import make_partition, parallel_weighted_kcenter
from .wkcenter import (
    gamma_bounds,
    gamma_search,
    greedy_kcenter,
    make_gamma_grid,
    weighted_kcenter,
)

__all__ = ["PropertyStat", "VerifySummary", "bounds_suite", "parallel_suite",
           "early_stop_suite", "run_full"]

_LAMBDAS = (0.0, 0.1, 1.0)
# over-estimates alpha * gamma* at which the bounds suite checks 3 * alpha
_ALPHAS = (1.5, 2.0)
# worker counts of the parallel suite
_MACHINES = (1, 2, 3)
_METRICS = ("euclidean", "cosine-distance")
_GRID_SIZE = 8


@dataclass
class PropertyStat:
    name: str
    checks: int = 0
    worst: float = float("-inf")
    violations: list[str] = field(default_factory=list)

    def record(self, ok: bool, ratio: float | None, detail: str) -> None:
        self.checks += 1
        if ratio is not None and ratio > self.worst:
            self.worst = ratio
        if not ok:
            self.violations.append(detail)

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass
class VerifySummary:
    stats: list[PropertyStat] = field(default_factory=list)
    ms: dict[str, float] = field(default_factory=dict)  # wall ms per suite

    def stat(self, name: str) -> PropertyStat:
        for s in self.stats:
            if s.name == name:
                return s
        s = PropertyStat(name)
        self.stats.append(s)
        return s

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.stats)

    def all_violations(self) -> list[str]:
        return [v for s in self.stats for v in s.violations]

    def merge(self, other: "VerifySummary") -> "VerifySummary":
        self.stats.extend(other.stats)
        return self


def _serialize(emb: EmbeddingSet, weights: WeightVector, k: int, lam: float,
               note: str) -> str:
    coords = [[repr(v) for v in row] for row in emb.features.tolist()]
    ws = [repr(v) for v in weights.values.tolist()]
    return (f"{note}\n  n={emb.n} dim={emb.dim} k={k} lambda={lam!r} "
            f"metric={emb.metric}\n  coords={coords}\n  weights={ws}")


def _rand_instance(rng: np.random.Generator, t: int, n_lo: int, n_hi: int,
                   k_max: int
                   ) -> tuple[EmbeddingSet, WeightVector, int, float]:
    """Trial t's instance and lambda; lambda and metric cycle with t."""
    lam = _LAMBDAS[t % len(_LAMBDAS)]
    metric = _METRICS[(t // len(_LAMBDAS)) % len(_METRICS)]
    n = int(rng.integers(n_lo, n_hi + 1))
    dim = int(rng.integers(2, 4))
    pts = rng.normal(0.0, 1.0, size=(n, dim))
    w = rng.uniform(0.0, 1.0, size=n)
    k = int(rng.integers(1, max(2, min(k_max, n - 1)) + 1))
    return EmbeddingSet(pts, metric), WeightVector(w), k, lam


def bounds_suite(trials: int = 200, seed: int = 0, n_max: int = 14,
                 k_max: int = 6) -> VerifySummary:
    """Guarantee checks for the fixed-gamma selector, run at the radius of
    the exact optimum (and at over-estimates of it), plus the radius bracket
    and the greedy 2-approximation, all against brute force."""
    rng = np.random.default_rng(seed)
    summary = VerifySummary()
    s_ratio = summary.stat("objective_within_3x_at_opt_radius")
    s_weight = summary.stat("weight_term_dominated")
    s_radius = summary.stat("radius_within_3x_opt_radius")
    s_alpha = summary.stat("overestimated_radius_scales_3alpha")
    s_bracket = summary.stat("radius_bracket_holds")
    # the greedy 2x guarantee needs the triangle inequality; cosine
    # distance (1 - cos) is half a squared euclidean distance on normalized
    # vectors, which only satisfies the relaxed inequality
    # d(a,c) <= 2*(d(a,b) + d(b,c)), so the provable factor there is 4
    s_greedy = summary.stat("greedy_within_2x_kcenter_opt")
    s_greedy_cos = summary.stat("greedy_within_4x_kcenter_opt_cosine")

    for t in range(trials):
        emb, weights, k, lam = _rand_instance(rng, t, 5, n_max, k_max)

        opt = brute_force_weighted(emb, weights, k, lam)
        gamma_star = opt.radius_term
        sol = weighted_kcenter(emb, weights, k, lam, gamma_star)

        ratio = sol.objective / opt.objective
        s_ratio.record(sol.objective <= 3.0 * opt.objective, ratio,
                       _serialize(emb, weights, k, lam,
                                  f"objective {sol.objective!r} > 3x opt {opt.objective!r}"))
        s_weight.record(sol.weight_term <= opt.weight_term, None,
                        _serialize(emb, weights, k, lam,
                                   f"weight {sol.weight_term!r} > opt weight {opt.weight_term!r}"))
        s_radius.record(sol.radius_term <= 3.0 * gamma_star,
                        sol.radius_term / gamma_star if gamma_star > 0 else None,
                        _serialize(emb, weights, k, lam,
                                   f"radius {sol.radius_term!r} > 3x gamma* {gamma_star!r}"))

        for alpha in _ALPHAS:
            sol_a = weighted_kcenter(emb, weights, k, lam,
                                     alpha * gamma_star)
            bound = 3.0 * alpha * opt.objective
            s_alpha.record(sol_a.objective <= bound,
                           sol_a.objective / opt.objective,
                           _serialize(emb, weights, k, lam,
                                      f"alpha={alpha} objective {sol_a.objective!r} > {bound!r}"))

        kc = brute_force_kcenter(emb, k)
        gamma1 = kc.radius_term
        gamma2 = gamma_bounds(emb, weights, k).hi
        s_bracket.record(gamma1 <= gamma_star <= gamma2, None,
                         _serialize(emb, weights, k, lam,
                                    f"bracket failed: {gamma1!r} <= {gamma_star!r} <= {gamma2!r}"))

        grd = greedy_kcenter(emb, weights, k)
        factor = 4.0 if emb.metric == "cosine-distance" else 2.0
        stat = s_greedy_cos if emb.metric == "cosine-distance" else s_greedy
        stat.record(grd.radius_term <= factor * gamma1,
                    grd.radius_term / gamma1 if gamma1 > 0 else None,
                    _serialize(emb, weights, k, lam,
                               f"greedy radius {grd.radius_term!r} > {factor}x opt {gamma1!r}"))
    return summary


def parallel_suite(trials: int = 60, seed: int = 2) -> VerifySummary:
    """Partition-parallel runs stay within 14x of the optimum at the optimal
    radius; one machine reproduces the sequential selection as a set."""
    rng = np.random.default_rng(seed)
    summary = VerifySummary()
    s_qual = summary.stat("parallel_within_14x")
    s_one = summary.stat("single_machine_matches_sequential")

    for t in range(trials):
        emb, weights, k, lam = _rand_instance(rng, t, 6, 12, 4)

        opt = brute_force_weighted(emb, weights, k, lam)
        gamma = opt.radius_term
        seq = weighted_kcenter(emb, weights, k, lam, gamma)
        strategy = "round-robin" if t % 2 == 0 else "random"
        for m in _MACHINES:
            if m > emb.n:
                continue
            parts = make_partition(emb.n, m, seed=t, strategy=strategy)
            par = parallel_weighted_kcenter(emb, weights, k, lam,
                                            gamma, parts)
            s_qual.record(par.objective <= 14.0 * opt.objective,
                          par.objective / opt.objective,
                          _serialize(emb, weights, k, lam,
                                     f"m={m} objective {par.objective!r} > 14x opt {opt.objective!r}"))
            if m == 1:
                s_one.record(sorted(par.indices) == sorted(seq.indices), None,
                             _serialize(emb, weights, k, lam,
                                        f"m=1 {sorted(par.indices)} != {sorted(seq.indices)}"))
    return summary


def early_stop_suite(instances: int = 200, seed: int = 3) -> VerifySummary:
    """The gamma search, which runs the selector only at grid gammas outside
    the span of its last run, must equal the best over a run of the selector
    at every grid gamma: the same trace, and the same winner with the same
    gamma.

    Instances mix sizes, metrics, duplicated points and tied weights. Every
    other one is well-separated gaussian clusters, where runs with far
    rounds cover several grid gammas; on the rest the search mostly skips
    the top of the grid after a run with no far round. The worst ratio is
    search objective over full-grid objective."""
    rng = np.random.default_rng(seed)
    summary = VerifySummary()
    s_eq = summary.stat("early_stop_matches_full_grid")

    for t in range(instances):
        n = int(rng.integers(2, 61))
        dim = int(rng.integers(2, 5))
        pts = rng.normal(0.0, 1.0, size=(n, dim))
        if t % 2 == 1:
            centers = rng.normal(0.0, 10.0, size=(int(rng.integers(2, 7)), dim))
            pts += centers[np.arange(n) % len(centers)]
        metric = _METRICS[t // 2 % 2]
        if t % 3 == 1 and n >= 4:
            dup = rng.integers(0, n, size=n // 4)
            pts[dup] = pts[(dup + 1) % n]
        w = rng.uniform(0.0, 1.0, size=n)
        if t % 5 == 2:
            w = np.round(w, 1)
        lam = _LAMBDAS[t % len(_LAMBDAS)]
        k = int(rng.integers(1, min(n, 20) + 1))
        emb, weights = EmbeddingSet(pts, metric), WeightVector(w)

        sol, trace = gamma_search(emb, weights, k, lam, _GRID_SIZE)
        grid = make_gamma_grid(*gamma_bounds(emb, weights, k)[:2],
                               _GRID_SIZE)
        runs = [weighted_kcenter(emb, weights, k, lam, float(g))
                for g in grid]
        best = min(runs, key=lambda r: r.objective)   # first of equals
        same = (trace == [(float(g), r.objective) for g, r in zip(grid, runs)]
                and sol.indices == best.indices
                and sol.objective == best.objective
                and sol.gamma_used == best.gamma_used)
        s_eq.record(same,
                    sol.objective / best.objective if best.objective > 0 else None,
                    _serialize(emb, weights, k, lam,
                               f"search {sol.indices} at gamma={sol.gamma_used!r} "
                               f"!= full grid {best.indices} at gamma={best.gamma_used!r}"))
    return summary


def run_full(trials: int = 200, parallel_trials: int = 60, seed: int = 0,
             n_max: int = 14, k_max: int = 6) -> VerifySummary:
    """Every suite: the bounds and early-stop suites run ``trials`` instances
    each, the parallel suite ``parallel_trials``."""
    summary = VerifySummary()
    for name, suite, *args in (
            ("bounds", bounds_suite, trials, seed, n_max, k_max),
            ("parallel", parallel_suite, parallel_trials, seed + 2),
            ("early_stop", early_stop_suite, trials, seed + 3)):
        t0 = time.perf_counter()
        summary.merge(suite(*args))
        summary.ms[name] = 1e3 * (time.perf_counter() - t0)
    return summary
