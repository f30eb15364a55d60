import numpy as np
import pytest

# filled by the acceptance module; echoed after the run so the
# per-criterion verdict survives output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from duke.instances import (
    EXAMPLE_K,
    EXAMPLE_KCENTER_RADIUS,
    EXAMPLE_KCENTER_WEIGHT,
    EXAMPLE_LAMBDA,
    EXAMPLE_METRIC,
    EXAMPLE_OPT_OBJECTIVE,
    EXAMPLE_OPT_RADIUS,
    EXAMPLE_OPT_SUBSET,
    EXAMPLE_OPT_WEIGHT,
    gen_worked_example,
)
from duke.errors import NormOutOfRange
from duke.oracle import brute_force_kcenter, brute_force_weighted
from duke.report import Report


@pytest.fixture(scope="session")
def worked_example():
    """Worked example, certified against brute force before any golden
    test consumes it. Every advertised constant is re-derived here by
    exhaustive enumeration; if this fixture ever drifts, the whole tier
    of hand-checked assertions downstream is void.
    """
    emb, weights = gen_worked_example()

    assert emb.metric == EXAMPLE_METRIC
    plain = brute_force_kcenter(emb, EXAMPLE_K, weights=weights)
    assert plain.radius_term == EXAMPLE_KCENTER_RADIUS
    assert plain.weight_term == EXAMPLE_KCENTER_WEIGHT

    joint = brute_force_weighted(emb, weights, EXAMPLE_K, EXAMPLE_LAMBDA)
    assert joint.objective == EXAMPLE_OPT_OBJECTIVE
    assert joint.radius_term == EXAMPLE_OPT_RADIUS
    assert joint.weight_term == EXAMPLE_OPT_WEIGHT
    assert joint.best_subset == EXAMPLE_OPT_SUBSET

    return emb, weights


@pytest.fixture()
def line_points():
    """Five points on a line with one far outlier; small enough to
    reason about by hand."""
    from duke.dataset import EmbeddingSet

    return EmbeddingSet(np.array([[0.0], [1.0], [2.0], [3.0], [10.0]]),
                        "euclidean")


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


def per_round_selection(emb, w, k, gamma):
    """The fixed-gamma selector by its definition, for tests to compare
    ``weighted_kcenter`` against: every round takes the minimum over every
    center's full distance row again, with no fill shortcut, row reuse or
    span. Ties break to the lowest index.

    Returns (indices, radius, far_rounds)."""
    from duke.dataset import metric_row

    w = [float(x) for x in w]

    def lightest(pool):
        return min(pool, key=lambda i: (w[i], i))

    def to_centers(centers):
        return np.min([metric_row(emb, c) for c in centers], axis=0)

    selected = [lightest(range(emb.n))]
    far_rounds = 0
    while len(selected) < k:
        far = np.flatnonzero(to_centers(selected) > 3.0 * gamma).tolist()
        if far:
            far_rounds += 1
            row = metric_row(emb, lightest(far))
            pool = np.flatnonzero(row <= gamma).tolist()
        else:
            pool = range(emb.n)
        taken = set(selected)
        selected.append(lightest(j for j in pool if j not in taken))
    return selected, float(to_centers(selected).max()), far_rounds


def farthest_point_traversal(emb, k):
    """The farthest-point traversal by its definition, for tests to compare
    ``greedy_kcenter`` against: from point 0, every round folds the last
    pick's full distance row into every point and picks the unselected point
    farthest from the centers, the lowest index among ties (np.argmax).

    Returns (indices, radius)."""
    from duke.dataset import metric_row

    selected = [0]
    dmin = metric_row(emb, 0).copy()
    while len(selected) < k:
        masked = dmin.copy()
        masked[selected] = -np.inf
        selected.append(int(np.argmax(masked)))
        np.minimum(dmin, metric_row(emb, selected[-1]), out=dmin)
    return selected, float(dmin.max())


def refused(pts, metric) -> bool:
    """Whether a row of ``pts`` lies outside the squared-norm range on which
    every ``metric`` distance is finite (at most 2^900, and for cosine at
    least 2^-900); if one does, ``EmbeddingSet(pts, metric)`` must raise
    NormOutOfRange at the first such row."""
    from duke.dataset import EmbeddingSet

    sq = np.einsum("ij,ij->i", pts, pts)
    low = 2.0 ** -900 if metric == "cosine-distance" else 0.0
    out = np.flatnonzero((sq > 2.0 ** 900) | (sq < low))
    if not out.size:
        return False
    with pytest.raises(NormOutOfRange) as exc:
        EmbeddingSet(pts, metric)
    assert exc.value.details == {"row": int(out[0])}
    return True


class ParsedReport(Report):
    """A report read back from its text, with lookups by section and key."""

    def get(self, section: str, key: str) -> str:
        return dict(self.section(section))[key]

    def section(self, section: str) -> list[tuple[str, str]]:
        for name, pairs in self.sections:
            if name == section:
                return pairs
        raise KeyError(section)


def parse_report(text: str) -> ParsedReport:
    """Read ``Report.to_text`` output back; raise ValueError on a line that
    is neither a ``[section]`` header nor a ``key = value`` pair in one."""
    rep = ParsedReport()
    current: list[tuple[str, str]] | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = []
            rep.sections.append((line[1:-1], current))
            continue
        if current is None or " = " not in line:
            raise ValueError(f"unparseable report line: {raw!r}")
        k, v = line.split(" = ", 1)
        current.append((k, v))
    return rep
