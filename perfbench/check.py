"""Independent check of a ``duke select`` report.

The report is parsed with this module's own reader, and the radius, weight
and objective terms are recomputed from the reported indices with plain
numpy: no duke code is involved. Reported values carry '%.9g' precision, so a
recomputed term matches when it agrees to within one unit in the ninth
significant digit.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import Inputs

_CHUNK = 1 << 14


def parse_report(text: str) -> dict[str, dict[str, str]]:
    """``{section: {key: value}}`` from the ``[section]`` / ``key = value`` form."""
    sections: dict[str, dict[str, str]] = {}
    current = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], {})
        elif current is not None and " = " in line:
            key, value = line.split(" = ", 1)
            current[key] = value
        else:
            raise ValueError(f"unparseable report line: {raw!r}")
    return sections


def _agrees(mine: float, reported: str) -> bool:
    rep = float(reported)
    if format(mine, ".9g") == reported:
        return True
    if rep == 0.0:
        return abs(mine) <= 1e-12
    unit = 10.0 ** (math.floor(math.log10(abs(rep))) - 8)
    return abs(mine - rep) <= unit


def covering_radius(inputs: Inputs, centers: np.ndarray) -> float:
    """max over points of the distance to the nearest center."""
    x = inputs.features
    c = x[centers]
    if inputs.metric == "cosine-distance":
        xn = x / np.sqrt(np.einsum("ij,ij->i", x, x))[:, None]
        cn = xn[centers]
        worst = 0.0
        for s in range(0, len(x), _CHUNK):
            sims = np.clip(xn[s:s + _CHUNK] @ cn.T, -1.0, 1.0)
            worst = max(worst, float((1.0 - sims.max(axis=1)).max()))
        return worst
    if inputs.metric != "euclidean":
        raise ValueError(f"metric not covered by the check: {inputs.metric}")
    c2 = np.einsum("ij,ij->i", c, c)
    worst = 0.0
    for s in range(0, len(x), _CHUNK):
        xs = x[s:s + _CHUNK]
        d2 = np.einsum("ij,ij->i", xs, xs)[:, None] + c2[None, :] - 2.0 * (xs @ c.T)
        worst = max(worst, float(np.maximum(d2.min(axis=1), 0.0).max()))
    return math.sqrt(worst)


def check_solution(report: dict[str, dict[str, str]], inputs: Inputs) -> list[str]:
    """Problems found in the report's solution; empty when it is correct."""
    sol = report.get("solution")
    if sol is None:
        return ["no [solution] section"]
    missing = [key for key in ("indices", "radius_term", "weight_term", "objective")
               if key not in sol]
    if missing:
        return [f"[solution] lacks {', '.join(missing)}"]
    try:
        idx = np.array([int(t) for t in sol["indices"].split(",")], dtype=np.int64)
    except ValueError:
        return [f"indices are not integers: {sol['indices'][:80]!r}"]
    n, k = len(inputs.features), inputs.k
    problems = []
    if len(idx) != k:
        problems.append(f"{len(idx)} indices, expected k={k}")
    if len(np.unique(idx)) != len(idx):
        problems.append("indices are not distinct")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        problems.append(f"index out of range [0, {n})")
    if problems:
        return problems

    radius = covering_radius(inputs, idx)
    weight = math.fsum(inputs.weights[idx])
    objective = radius + (0.1 / k) * weight   # duke's default lambda, 0.1 / k
    for key, mine in (("radius_term", radius), ("weight_term", weight),
                      ("objective", objective)):
        if not _agrees(mine, sol[key]):
            problems.append(f"{key}: reported {sol[key]}, recomputed {mine:.12g}")
    return problems
