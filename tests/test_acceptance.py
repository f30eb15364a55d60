"""End-to-end acceptance gate.

Each test covers one advertised guarantee and records a single
pass/fail line, echoed in the terminal summary. Randomized suites run
at fixed seeds so the whole gate is deterministic.
"""

import struct
import time

import numpy as np
import pytest
from conftest import ACCEPTANCE_LINES, per_round_selection

from duke.dataset import (
    EmbeddingSet,
    ProbabilityMatrix,
    WeightVector,
    margin_weights,
    metric_row,
)
from duke.instances import SyntheticSpec, gen_clusters, gen_worked_example
from duke.oracle import brute_force_kcenter, brute_force_weighted
from duke.parallel import make_partition, parallel_weighted_kcenter
from duke import verify
from duke.verify import parallel_suite, bounds_suite
from duke.wkcenter import (
    default_lambda,
    gamma_bounds,
    weighted_kcenter,
)


def _verdict(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def _stat(summary, name):
    for s in summary.stats:
        if s.name == name:
            return s
    raise AssertionError(f"missing stat {name}")


@pytest.fixture(scope="module")
def theorem_run():
    t0 = time.perf_counter()
    summary = bounds_suite(trials=200, seed=0)
    return summary, time.perf_counter() - t0


def test_criterion_01_worked_example_golden():
    t0 = time.perf_counter()
    emb, w = gen_worked_example()
    plain = brute_force_kcenter(emb, 8, weights=w)
    weighted = brute_force_weighted(emb, w, 8, 1.0)
    sol = weighted_kcenter(emb, w, 8, 1.0, 2.0)
    elapsed = time.perf_counter() - t0
    ok = (
        plain.radius_term == 1.0
        and plain.weight_term == 7.0
        and weighted.objective == 6.0
        and weighted.radius_term == 2.0
        and sol.objective == 6.0
        and elapsed < 1.0
    )
    _verdict(1, ok, f"worked example exact (radius 1, weight 7, objective 6, "
                    f"gamma* 2) in {elapsed:.2f}s")


def test_criterion_02_three_x_guarantee_at_opt_radius(theorem_run):
    summary, elapsed = theorem_run
    obj = _stat(summary, "objective_within_3x_at_opt_radius")
    wdom = _stat(summary, "weight_term_dominated")
    rad = _stat(summary, "radius_within_3x_opt_radius")
    ok = (
        obj.checks >= 200 and not obj.violations
        and wdom.checks >= 200 and not wdom.violations
        and rad.checks >= 200 and not rad.violations
        and elapsed < 120.0
    )
    _verdict(2, ok, f"{obj.checks} instances at gamma*: objective <= 3x opt "
                    f"(worst {obj.worst:.4f}), weight term dominated, radius <= "
                    f"3 gamma* (worst {rad.worst:.4f}), suite {elapsed:.1f}s")


def test_criterion_03_overestimated_radius_scaling(theorem_run):
    summary, _ = theorem_run
    s = _stat(summary, "overestimated_radius_scales_3alpha")
    ok = s.checks >= 400 and not s.violations
    _verdict(3, ok, f"{s.checks} checks at alpha in {{1.5, 2}}: objective <= "
                    f"3 alpha x opt (worst {s.worst:.4f})")


def _cosine_lo_above_gamma_star(trials=200, seed=0):
    """Replay the instances of ``bounds_suite(trials, seed)`` and count the
    cosine ones whose bracket starts above gamma*: (count, cosine total).

    The greedy/2 lower bound rests on the triangle inequality, which cosine
    distance lacks."""
    rng = np.random.default_rng(seed)
    above = total = 0
    for t in range(trials):
        emb, weights, k, lam = verify._rand_instance(rng, t, 5, 14, 6)
        if emb.metric != "cosine-distance":
            continue
        gamma_star = brute_force_weighted(emb, weights, k, lam).radius_term
        total += 1
        above += gamma_bounds(emb, weights, k).lo > gamma_star
    return above, total


def test_criterion_04_radius_bracket(theorem_run):
    summary, _ = theorem_run
    s = _stat(summary, "radius_bracket_holds")
    ok = s.checks >= 200 and not s.violations
    # reported, not asserted: the lower end the search starts from
    above, cosine = _cosine_lo_above_gamma_star()
    _verdict(4, ok, f"{s.checks} instances: k-center optimum <= gamma* <= "
                    f"lightest-k cover radius; greedy/2 lower bound above "
                    f"gamma* on {above} of {cosine} cosine instances "
                    f"(not asserted)")


def test_criterion_05_parallel_guarantee():
    t0 = time.perf_counter()
    summary = parallel_suite(trials=60, seed=2)
    elapsed = time.perf_counter() - t0
    qual = _stat(summary, "parallel_within_14x")
    one = _stat(summary, "single_machine_matches_sequential")
    ok = (
        qual.checks >= 180 and not qual.violations
        and one.checks >= 60 and not one.violations
        and elapsed < 120.0
    )
    _verdict(5, ok, f"{qual.checks} runs m in {{1,2,3}} within 14x "
                    f"(worst {qual.worst:.4f}); m=1 identical to sequential "
                    f"on all {one.checks}")


def test_criterion_06_greedy_two_x(theorem_run):
    summary, _ = theorem_run
    metric_ok = _stat(summary, "greedy_within_2x_kcenter_opt")
    cosine = _stat(summary, "greedy_within_4x_kcenter_opt_cosine")
    ok = (
        metric_ok.checks > 0 and not metric_ok.violations
        and not cosine.violations
    )
    # cosine distance is not a metric, so the classic 2x argument only
    # binds the true-metric instances; cosine instances are held to the
    # provable relaxed 4x bound (see test_wkcenter for a pinned >2x case)
    _verdict(6, ok, f"greedy within 2x on {metric_ok.checks} metric instances "
                    f"(worst {metric_ok.worst:.4f}); within 4x on "
                    f"{cosine.checks} cosine instances (worst {cosine.worst:.4f})")


def _selector_instances(count, seed):
    """Mixed sizes up to n=2000, both metrics, duplicated points, tied
    weights, and gamma values from zero to past the diameter."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        if t % 100 == 99:
            # last large draw is pinned so the top of the advertised
            # size range is actually exercised
            n = 2000 if t + 1 == count else int(rng.integers(500, 2001))
        else:
            n = int(rng.integers(2, 201))
        dim = int(rng.integers(2, 4))
        pts = rng.normal(0.0, 1.0, size=(n, dim))
        if t % 11 == 5 and n >= 4:
            dup = rng.integers(0, n, size=n // 4)
            pts[dup] = pts[(dup + 1) % n]
        w = rng.uniform(0.0, 1.0, size=n)
        if t % 7 == 3:
            w = np.round(w, 1)
        metric = ("euclidean", "cosine-distance")[t % 2]
        lam = float(rng.uniform(0.0, 1.0))
        k = int(rng.integers(1, min(n, 50) + 1))
        a, b = rng.integers(0, n, size=2)
        emb = EmbeddingSet(pts, metric)
        if t % 50 == 10:
            gamma = 0.0
        elif t % 50 == 20:
            gamma = 1e9
        else:
            gamma = metric_row(emb, int(a))[int(b)] * \
                float(rng.uniform(0.2, 1.5))
        yield emb, WeightVector(w), k, lam, gamma


def test_criterion_07_selector_matches_definition():
    t0 = time.perf_counter()
    checks = violations = 0
    for emb, w, k, lam, gamma in _selector_instances(500, seed=1):
        sol = weighted_kcenter(emb, w, k, lam, gamma)
        want, radius, far_rounds = per_round_selection(emb, w.values, k, gamma)
        checks += 1
        violations += (sol.indices != want or sol.far_rounds != far_rounds
                       or struct.pack("<d", sol.radius_term) != struct.pack("<d", radius))
    elapsed = time.perf_counter() - t0
    ok = checks >= 500 and violations == 0
    _verdict(7, ok, f"selector equal to the per-round definition (indices, "
                    f"far rounds, radius bits) on {checks} instances up to "
                    f"n=2000, {violations} violations ({elapsed:.1f}s)")


def test_criterion_08_near_linear_scaling():
    metric = "cosine-distance"
    dim, k, rounds = 64, 100, 6
    sizes = (25000, 50000, 100000, 200000)
    t0 = time.perf_counter()

    def build(n):
        pts, w = gen_clusters(SyntheticSpec(kind="uniform-cube", n=n, dim=dim, seed=0))
        emb = EmbeddingSet(pts, metric)
        lo, hi = gamma_bounds(emb, w, k)[:2]
        gamma = float(np.sqrt(max(lo, 1e-12) * max(hi, lo, 1e-12)))
        return emb, w, gamma

    prepared = {n: build(n) for n in sizes}
    times = {n: float("inf") for n in sizes}
    # round 0 warms caches and is discarded; interleaving sizes within
    # each round spreads machine-load drift evenly instead of letting
    # it bias one block of the ladder
    for rnd in range(rounds):
        for n in sizes:
            emb, w, gamma = prepared[n]
            t = time.perf_counter()
            weighted_kcenter(emb, w, k, default_lambda(k), gamma)
            dt = time.perf_counter() - t
            if rnd > 0:
                times[n] = min(times[n], dt)
    elapsed = time.perf_counter() - t0
    ratios = [times[b] / times[a] for a, b in zip(sizes, sizes[1:])]
    ok = all(r < 2.4 for r in ratios) and elapsed < 600.0
    shown = ", ".join(f"{r:.2f}" for r in ratios)
    _verdict(8, ok, f"selector wall time n=25k..200k (dim 64, k=100): successive "
                    f"ratios [{shown}] all < 2.4, bench {elapsed:.0f}s")


def test_criterion_09_margin_arithmetic():
    probs = ProbabilityMatrix(np.array([
        [0.6, 0.3, 0.1],
        [1.0, 0.0, 0.0],
        [1 / 3, 1 / 3, 1 / 3],
    ]))
    w = margin_weights(probs)
    ok = w.values[0] == 0.6 - 0.3 and w.values[1] == 1.0 and w.values[2] == 0.0
    _verdict(9, ok, "margin weights match hand-computed rows exactly")


def test_criterion_10_training_curves_out_of_scope():
    # image-classifier accuracy curves need GPU training runs and are
    # not reproducible here; the partition-degradation claim is instead
    # measured as an objective ratio over a batch of random instances
    # and reported without assertion
    machines = (2, 4, 6, 8)
    rng = np.random.default_rng(10)
    ratios = {m: [] for m in machines}
    for trial in range(50):
        n = int(rng.integers(24, 80))
        k = int(rng.integers(3, 9))
        emb = EmbeddingSet(rng.normal(size=(n, 3)), "euclidean")
        w = WeightVector(rng.random(n))
        lo, hi = gamma_bounds(emb, w, k)[:2]
        gamma = float(np.sqrt(max(lo, 1e-12) * max(hi, lo, 1e-12)))
        seq = weighted_kcenter(emb, w, k, 0.5, gamma)
        for m in machines:
            par = parallel_weighted_kcenter(emb, w, k, 0.5, gamma,
                                            make_partition(n, m, seed=trial))
            ratios[m].append(par.objective / seq.objective)
    shown = ", ".join(
        f"m={m}: mean {np.mean(v):.3f} max {np.max(v):.3f}"
        for m, v in ratios.items()
    )
    ok = all(np.isfinite(v).all() for v in ratios.values())
    _verdict(10, ok, f"accuracy curves out of scope (GPU training); measured "
                     f"parallel-vs-sequential objective ratios over 50 "
                     f"instances [{shown}], reported not asserted")
