"""The [solution] block of every method on one fixed instance, as exact text.

The expected blocks were recorded from ``duke select`` before selectors and
baselines were scored by one function; any change to how a selection is made
or scored shows up here as a changed line.
"""

import numpy as np
import pytest

from duke import cli
from duke.instances import SyntheticSpec, gen_clusters

GOLDEN = {
    ("duke",): (
        "algorithm = duke\n"
        "indices = 39,10,0,19,13,20\n"
        "radius_term = 14.0697997\n"
        "weight_term = 0.550925984\n"
        "objective = 15.1716516\n"
        "gamma_used = 8.77259795\n"),
    ("parallel", "--machines", "3"): (
        "algorithm = parallel\n"
        "indices = 39,10,0,19,13,20\n"
        "radius_term = 14.0697997\n"
        "weight_term = 0.550925984\n"
        "objective = 15.1716516\n"
        "gamma_used = 8.77259795\n"
        "machines = 3\n"
        "union_size = 18\n"
        "worker_candidates = 0,6,15,18,21,39,10,13,16,19,28,34,2,5,20,23,32,35\n"),
    ("parallel", "--machines", "3", "--partition", "random", "--seed", "2"): (
        "algorithm = parallel\n"
        "indices = 39,10,0,19,13,20\n"
        "radius_term = 14.0697997\n"
        "weight_term = 0.550925984\n"
        "objective = 15.1716516\n"
        "gamma_used = 8.77259795\n"
        "machines = 3\n"
        "union_size = 18\n"
        "worker_candidates = 1,11,29,33,35,39,2,5,10,13,24,34,0,15,19,20,23,26\n"),
    ("greedy-kcenter",): (
        "algorithm = greedy-kcenter\n"
        "indices = 0,26,39,37,19,20\n"
        "radius_term = 14.0738544\n"
        "weight_term = 1.1843324\n"
        "objective = 16.4425192\n"
        "gamma_used = 0\n"),
    ("random", "--seed", "5"): (
        "algorithm = random\n"
        "indices = 18,0,23,20,28,30\n"
        "radius_term = 18.5175008\n"
        "weight_term = 2.19276666\n"
        "objective = 22.9030341\n"
        "gamma_used = 0\n"),
    ("margin",): (
        "algorithm = margin\n"
        "indices = 39,19,13,20,5,10\n"
        "radius_term = 32.9305695\n"
        "weight_term = 0.397050681\n"
        "objective = 33.7246709\n"
        "gamma_used = 0\n"),
    # re-recorded when similarities were scaled by the longest kNN edge, so
    # that no euclidean gain exceeds its utility (it reached 1.66 before)
    ("submodular", "--knn", "4"): (
        "algorithm = submodular\n"
        "indices = 39,19,13,20,10,5\n"
        "radius_term = 32.9305695\n"
        "weight_term = 0.397050681\n"
        "objective = 33.7246709\n"
        "gamma_used = 0\n"
        "marginal_gains = 0.998851586,0.991033527,0.946970325,0.935749678,"
        "0.856363054,0.759539826\n"
        "submodular_value = 5.488508\n"),
}


@pytest.fixture(scope="module")
def clusters_files(tmp_path_factory):
    # eight gaussian clusters in 3-d: the gamma search takes far rounds,
    # and every method picks a different selection
    points, w = gen_clusters(SyntheticSpec("clusters", n=40, dim=3,
                                           clusters=8, seed=3))
    root = tmp_path_factory.mktemp("golden")
    pts, wfile = root / "p.csv", root / "w.csv"
    np.savetxt(pts, points, delimiter=",", fmt="%.17g")
    np.savetxt(wfile, w.values, fmt="%.17g")
    return str(pts), str(wfile)


def test_golden_covers_every_method():
    assert {case[0] for case in GOLDEN} == set(cli.METHODS)


@pytest.mark.parametrize("method", list(GOLDEN), ids=" ".join)
def test_solution_block_matches_golden(capsys, clusters_files, method):
    pts, w = clusters_files
    code = cli.main(["select", "--embeddings", pts, "--weights", w,
                     "--metric", "euclidean", "--k", "6", "--lambda", "2",
                     "--method", *method])
    assert code == 0
    blocks = capsys.readouterr().out.split("\n\n")
    solution = [b for b in blocks if b.startswith("[solution]\n")]
    assert solution == ["[solution]\n" + GOLDEN[method].rstrip("\n")]
