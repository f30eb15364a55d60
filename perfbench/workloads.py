"""Seeded inputs for the benchmark workloads.

Each workload writes its input files into a directory and returns the
``duke select`` argument list that reads them, together with the exact
float64 values the program will see, so the output check can recompute the
objective without going through duke. Generation uses the benchmark's own
numpy code and is never timed.

A workload seed selects one of ``INSTANCES`` instances (``seed % INSTANCES``),
so that every run can be compared against a golden selection recorded at the
seed commit for that instance.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

INSTANCES = 24


@dataclass
class Inputs:
    """Generated files plus the values the program reads back from them."""

    argv: list[str]
    files: dict[str, Path]
    features: np.ndarray      # (n, dim) float64, as parsed by the program
    weights: np.ndarray       # (n,) float64 selection weights
    metric: str
    k: int

    @property
    def matrix_bytes(self) -> int:
        """Bytes of the float64 feature matrix the program holds."""
        return int(self.features.nbytes)

    def provenance(self) -> dict[str, dict]:
        out = {}
        for role, path in self.files.items():
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 22), b""):
                    h.update(block)
            out[role] = {"bytes": path.stat().st_size, "sha256": h.hexdigest()}
        return out


def _rng(salt: int, instance: int) -> np.random.Generator:
    return np.random.default_rng([salt, instance])


def _clusters(rng, n: int, dim: int, clusters: int):
    """Gaussian clusters with the recipe of ``duke gen --kind clusters``."""
    centers = rng.normal(0.0, 10.0, size=(clusters, dim))
    assign = np.arange(n) % clusters
    points = centers[assign] + rng.normal(0.0, 1.0, size=(n, dim))
    weights = rng.uniform(0.0, 1.0, size=n)
    return points, weights


def _write_f32(path: Path, values: np.ndarray) -> np.ndarray:
    """Write little-endian float32; return the float64 values read back."""
    v32 = np.ascontiguousarray(values, dtype="<f4")
    v32.tofile(path)
    return v32.astype(np.float64)


def clusters_csv_search(instance: int, out: Path) -> Inputs:
    points, weights = _clusters(_rng(1, instance), 50_000, 32, 20)
    emb, wts = out / "points.csv", out / "weights.csv"
    # %.17g round-trips float64 exactly, so the parsed values equal these
    np.savetxt(emb, points, delimiter=",", fmt="%.17g")
    np.savetxt(wts, weights, fmt="%.17g")
    argv = ["--embeddings", str(emb), "--weights", str(wts),
            "--metric", "euclidean", "--k", "100"]
    return Inputs(argv, {"embeddings": emb, "weights": wts}, points, weights,
                  "euclidean", 100)


def cube_raw_cosine_margin(instance: int, out: Path) -> Inputs:
    rng = _rng(2, instance)
    n, dim, classes = 100_000, 64, 10
    emb, prb = out / "points.f32", out / "probs.f32"
    points = _write_f32(emb, rng.random((n, dim)))
    logits = rng.normal(0.0, 1.5, size=(n, classes))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = _write_f32(prb, e / e.sum(axis=1, keepdims=True))
    top2 = np.sort(probs, axis=1)[:, -2:]
    weights = top2[:, 1] - top2[:, 0]
    argv = ["--embeddings", str(emb), "--format", "raw-float32",
            "--dim", str(dim), "--probs", str(prb), "--classes", str(classes),
            "--metric", "cosine-distance", "--k", "100"]
    return Inputs(argv, {"embeddings": emb, "probs": prb}, points, weights,
                  "cosine-distance", 100)


def clusters_raw_pinned_far(instance: int, out: Path) -> Inputs:
    points, weights = _clusters(_rng(3, instance), 50_000, 32, 20)
    emb, wts = out / "points.f32", out / "weights.f32"
    points = _write_f32(emb, points)
    weights = _write_f32(wts, weights)
    argv = ["--embeddings", str(emb), "--format", "raw-float32",
            "--dim", "32", "--weights", str(wts),
            "--metric", "euclidean", "--k", "400", "--gamma", "1.0"]
    return Inputs(argv, {"embeddings": emb, "weights": wts}, points, weights,
                  "euclidean", 400)


WORKLOADS = {
    "clusters-csv-search": clusters_csv_search,
    "cube-raw-cosine-margin": cube_raw_cosine_margin,
    "clusters-raw-pinned-far": clusters_raw_pinned_far,
}


def generate(workload: str, seed: int, out: Path) -> tuple[int, Inputs]:
    """Write the inputs of ``workload`` for ``seed``; return (instance, inputs)."""
    instance = seed % INSTANCES
    out.mkdir(parents=True, exist_ok=True)
    return instance, WORKLOADS[workload](instance, out)
