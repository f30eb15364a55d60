import numpy as np
import pytest

from duke.dataset import metric_row
from duke.errors import InvalidArgument
from duke.instances import (
    EXAMPLE_K,
    EXAMPLE_LAMBDA,
    EXAMPLE_OPT_OBJECTIVE,
    SyntheticSpec,
    gen_clusters,
    gen_worked_example,
)
from duke.wkcenter import weighted_kcenter


def test_worked_example_layout(worked_example):
    emb, w = worked_example
    assert emb.features.shape == (14, 2)
    assert list(w.values) == [0.5] * 8 + [1.0] * 6
    # the two tight groups sit 20 apart; sanity anchors for the geometry
    assert metric_row(emb, 0)[4] == 20.0
    assert metric_row(emb, 8)[0] == 3.0


def test_worked_example_selector_trace(worked_example):
    # run at the certified optimal radius: the selector must land on
    # the known objective of 6 exactly, within the 3x guarantee
    emb, w = worked_example
    sol = weighted_kcenter(emb, w, EXAMPLE_K, EXAMPLE_LAMBDA, 2.0)
    assert sol.objective == EXAMPLE_OPT_OBJECTIVE
    assert sol.indices == [0, 4, 1, 2, 3, 5, 6, 7]
    assert sorted(sol.indices) == list(range(8))


def test_gen_worked_example_deterministic():
    a, wa = gen_worked_example()
    b, wb = gen_worked_example()
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(wa.values, wb.values)


def test_gen_clusters_deterministic():
    spec = SyntheticSpec(kind="clusters", n=50, dim=3, clusters=4, seed=11)
    a, wa = gen_clusters(spec)
    b, wb = gen_clusters(spec)
    assert np.array_equal(a, b)
    assert np.array_equal(wa.values, wb.values)
    c, _ = gen_clusters(SyntheticSpec(kind="clusters", n=50, dim=3, clusters=4, seed=12))
    assert not np.array_equal(a, c)


def test_gen_clusters_spread_zero_collapses():
    spec = SyntheticSpec(kind="clusters", n=20, dim=2, clusters=4, spread=0.0, seed=3)
    pts, _ = gen_clusters(spec)
    # points of the same cluster coincide exactly
    assert np.array_equal(pts[0], pts[4])
    assert np.array_equal(pts[1], pts[5])
    assert not np.array_equal(pts[0], pts[1])


def test_gen_line():
    pts, w = gen_clusters(SyntheticSpec(kind="line", n=5, dim=3, spread=2.0, seed=0))
    assert list(pts[:, 0]) == [0.0, 2.0, 4.0, 6.0, 8.0]
    assert np.all(pts[:, 1:] == 0.0)
    assert len(w.values) == 5


def test_uniform_cube_range():
    pts, _ = gen_clusters(SyntheticSpec(kind="uniform-cube", n=200, dim=4, spread=3.0, seed=5))
    assert pts.min() >= 0.0
    assert pts.max() <= 3.0
    assert pts.max() > 2.5


def test_weight_schemes():
    common = dict(kind="clusters", n=40, dim=2, clusters=4, seed=7)
    _, uniform = gen_clusters(SyntheticSpec(weight_scheme="uniform", **common))
    assert np.all((uniform.values >= 0.0) & (uniform.values <= 1.0))
    _, per_cluster = gen_clusters(SyntheticSpec(weight_scheme="per-cluster", **common))
    # one shared weight per cluster
    assert len(set(np.round(per_cluster.values, 12))) <= 4
    assert per_cluster.values[0] == per_cluster.values[4]
    _, proxy = gen_clusters(SyntheticSpec(weight_scheme="distance-proxy", **common))
    assert np.all(proxy.values > 0.0)
    assert np.all(proxy.values <= 1.0)


def test_bad_kind_and_scheme():
    with pytest.raises(InvalidArgument):
        gen_clusters(SyntheticSpec(kind="spiral", n=10))
    with pytest.raises(InvalidArgument):
        gen_clusters(SyntheticSpec(kind="clusters", n=10, weight_scheme="entropy"))
    # a spread that would put NaN or infinity in the points
    for spread in (-1.0, float("nan"), float("inf")):
        with pytest.raises(InvalidArgument):
            gen_clusters(SyntheticSpec(kind="clusters", n=10, spread=spread))
