"""Subset selection by weighted k-center: pick k points that jointly cover
the ground set and concentrate on low-margin (uncertain) points."""

from .dataset import (
    EmbeddingSet,
    ProbabilityMatrix,
    WeightVector,
    METRICS,
    load_embeddings,
    load_probabilities,
    load_weights,
    margin_weights,
)
from .nngraph import NeighborGraph, build_knn_graph
from .wkcenter import (
    SubsetSolution,
    check_selection,
    default_lambda,
    evaluate_solution,
    gamma_bounds,
    gamma_search,
    greedy_kcenter,
    make_gamma_grid,
    weighted_kcenter,
)
from .parallel import make_partition, parallel_weighted_kcenter
from .oracle import (
    OracleResult,
    brute_force_kcenter,
    brute_force_weighted,
)
from .baselines import (
    margin_select,
    random_select,
    submodular_greedy,
)
from .instances import SyntheticSpec, gen_clusters, gen_worked_example

__version__ = "0.1.0"
