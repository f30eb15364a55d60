"""Synthetic instance generators.

``gen_worked_example`` builds a small two-cluster instance whose optima are known
exactly and are float-exact, so golden tests can assert equality rather than
tolerances. ``gen_clusters`` draws parameterized random geometries for
property tests and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import EmbeddingSet, WeightVector
from .errors import InvalidArgument

__all__ = ["SyntheticSpec", "gen_worked_example", "gen_clusters", "KINDS"]

KINDS = ("worked-example", "clusters", "uniform-cube", "line")

# Two red clusters of four points each (hub plus three axis-aligned
# satellites at distance 1), hubs 20 apart. Six blue points, each exactly 2
# from its nearest satellite and at least 2 from everything else. With
# weights 0.5 for reds and 1.0 for blues:
#   - best 8-subset by radius alone: both hubs plus all six blues,
#     radius 1.0, total weight 7.0 (unique);
#   - best 8-subset of radius + 1.0 * weight: the eight reds,
#     radius 2.0, weight 4.0, objective 6.0 (unique);
# so the radius of the optimal weighted subset is exactly 2.0. All the
# distances involved are square roots of perfect squares, hence exact in
# float64.
_EXAMPLE_POINTS = np.array([
    (0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0),        # reds, cluster A
    (20.0, 0.0), (21.0, 0.0), (19.0, 0.0), (20.0, 1.0),     # reds, cluster B
    (3.0, 0.0), (-3.0, 0.0), (0.0, 3.0),                    # blues, cluster A
    (23.0, 0.0), (17.0, 0.0), (20.0, 3.0),                  # blues, cluster B
])
_EXAMPLE_WEIGHTS = np.array([0.5] * 8 + [1.0] * 6)

EXAMPLE_K = 8
EXAMPLE_LAMBDA = 1.0
EXAMPLE_METRIC = "euclidean"
EXAMPLE_KCENTER_RADIUS = 1.0
EXAMPLE_KCENTER_WEIGHT = 7.0
EXAMPLE_OPT_OBJECTIVE = 6.0
EXAMPLE_OPT_RADIUS = 2.0
EXAMPLE_OPT_WEIGHT = 4.0
EXAMPLE_OPT_SUBSET = tuple(range(8))


def gen_worked_example() -> tuple[EmbeddingSet, WeightVector]:
    return (EmbeddingSet(_EXAMPLE_POINTS, EXAMPLE_METRIC),
            WeightVector(_EXAMPLE_WEIGHTS))


@dataclass(frozen=True)
class SyntheticSpec:
    kind: str
    n: int = 100
    dim: int = 2
    clusters: int = 4
    spread: float = 1.0
    seed: int = 0
    weight_scheme: str = "uniform"


def gen_clusters(spec: SyntheticSpec) -> tuple[np.ndarray, WeightVector]:
    """Draw points and weights per the spec. Same spec, same instance.

    Weight schemes: "uniform" draws iid U[0,1); "per-cluster" shares one
    U[0,1) draw across a cluster; "distance-proxy" maps distance to the own
    cluster center through 1/(1+d).
    """
    if spec.kind not in KINDS:
        raise InvalidArgument(kind=spec.kind)
    if spec.kind == "worked-example":
        return _EXAMPLE_POINTS.copy(), WeightVector(_EXAMPLE_WEIGHTS)
    if spec.n < 1 or spec.dim < 1:
        raise InvalidArgument(n=spec.n, dim=spec.dim)
    if not 0.0 <= spec.spread < np.inf:
        raise InvalidArgument(spread=spec.spread)
    rng = np.random.default_rng(spec.seed)

    if spec.kind == "clusters":
        c = spec.clusters
        if c < 1 or c > spec.n:
            raise InvalidArgument(clusters=c)
        centers = rng.normal(0.0, 10.0, size=(c, spec.dim))
        assign = np.arange(spec.n, dtype=np.int64) % c
        points = centers[assign] + spec.spread * rng.normal(
            0.0, 1.0, size=(spec.n, spec.dim))
        anchors = centers[assign]
    elif spec.kind == "uniform-cube":
        points = spec.spread * rng.random((spec.n, spec.dim))
        assign = np.zeros(spec.n, dtype=np.int64)
        anchors = np.broadcast_to(points.mean(axis=0), points.shape)
    else:  # line
        points = np.zeros((spec.n, spec.dim))
        points[:, 0] = np.arange(spec.n) * spec.spread
        assign = np.zeros(spec.n, dtype=np.int64)
        anchors = np.broadcast_to(points.mean(axis=0), points.shape)

    if spec.weight_scheme == "uniform":
        w = rng.uniform(0.0, 1.0, size=spec.n)
    elif spec.weight_scheme == "per-cluster":
        vals = rng.uniform(0.0, 1.0, size=int(assign.max()) + 1)
        w = vals[assign]
    elif spec.weight_scheme == "distance-proxy":
        diff = points - anchors
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        w = 1.0 / (1.0 + d)
    else:
        raise InvalidArgument(weight_scheme=spec.weight_scheme)

    # read-only, so that a set made from it takes it without a copy
    points.setflags(write=False)
    return points, WeightVector(w)
