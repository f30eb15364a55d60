"""In-process tracing of ``duke.cli.main`` and per-layer metrics.

Wrappers defined here sit around the public functions of each layer on the
``select`` path. A wrapper records a span (name, start, end, parent) per call;
spans stay in memory until the benchmark writes them out. Every module that
imported a wrapped function by name gets the wrapper, because ``cli`` and
``wkcenter`` bind ``gamma_bounds``, ``weighted_kcenter``, ``metric_row`` and
friends at import time: patching ``duke.dataset.metric_row`` alone would see
none of the selector's rows.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass

# (span name, module, attribute, class or None, note on the result)
# The note keeps what a count needs from a call's result.
TARGETS = [
    ("cli.main", "duke.cli", "main", None, None),
    ("dataset.load_embeddings", "duke.dataset", "load_embeddings", None, None),
    ("dataset.load_weights", "duke.dataset", "load_weights", None, None),
    ("dataset.load_probabilities", "duke.dataset", "load_probabilities", None, None),
    ("dataset.margin_weights", "duke.dataset", "margin_weights", None, None),
    ("dataset.metric_row", "duke.dataset", "metric_row", None, None),
    ("dataset.norms", "duke.dataset", "norms", "EmbeddingSet", None),
    ("wkcenter.gamma_bounds", "duke.wkcenter", "gamma_bounds", None, None),
    ("wkcenter.make_gamma_grid", "duke.wkcenter", "make_gamma_grid", None, None),
    ("wkcenter.weighted_kcenter", "duke.wkcenter", "weighted_kcenter", None,
     lambda sol: ",".join(map(str, sol.indices))),
    ("wkcenter.evaluate_solution", "duke.wkcenter", "evaluate_solution", None, None),
    ("report.to_text", "duke.report", "to_text", "Report",
     lambda text: len(text.encode("utf-8"))),
]

LOAD_SPANS = ("dataset.load_embeddings", "dataset.load_weights",
              "dataset.load_probabilities", "dataset.margin_weights")


@dataclass
class Span:
    run: int
    name: str
    start: float
    end: float
    parent: int       # index into the tracer's span list, -1 at the root
    note: object = None

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder. ``install`` patches duke; ``uninstall`` restores it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(self.run, name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if note is not None:
                span.note = note(result)
            return result
        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "duke" or name.startswith("duke.")]
        for name, modname, attr, cls, note in TARGETS:
            owner = sys.modules[modname]
            if cls is not None:
                owner = getattr(owner, cls)
                original = owner.__dict__[attr]
                self._set(owner, attr, self._wrap(name, original, note))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, note)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"run": s.run, "id": i, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent, "note": s.note}) + "\n")


def _owner(spans: list[Span], i: int, names: tuple[str, ...]) -> str | None:
    """Name of the nearest ancestor of span i whose name is in ``names``."""
    p = spans[i].parent
    while p != -1:
        if spans[p].name in names:
            return spans[p].name
        p = spans[p].parent
    return None


def layer_metrics(spans: list[Span], run: int, k: int, n: int, dim: int,
                  input_bytes: int) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer measurements and counts of one traced ``main`` call.

    Returns (measured, counts). Counts must repeat exactly across runs of the
    same input; the caller takes the median of each measurement.
    """
    idx = [i for i, s in enumerate(spans) if s.run == run]

    def named(name):
        return [i for i in idx if spans[i].name == name]

    def total(ids):
        return sum(spans[i].dur for i in ids)

    rows = named("dataset.metric_row")
    owners = {i: _owner(spans, i, ("wkcenter.gamma_bounds",
                                   "wkcenter.weighted_kcenter",
                                   "wkcenter.evaluate_solution")) for i in rows}
    grid = named("wkcenter.make_gamma_grid")
    selectors = named("wkcenter.weighted_kcenter")
    grid_runs = [i for i in selectors if grid and spans[i].start >= spans[grid[0]].end]
    rows_of = {i: [r for r in rows if spans[r].parent == i] for i in selectors}
    rows_under = {i: len(rows_of[i]) for i in selectors}
    far = sum(rows_under[i] - k for i in selectors)
    fill = len(selectors) * (k - 1) - far
    main = named("cli.main")[0]
    children = [i for i in idx if spans[i].parent == main]
    renders = named("report.to_text")

    load_s = total(i for n_ in LOAD_SPANS for i in named(n_))
    row_s = total(rows)
    measured = {
        "dataset.load_s": load_s,
        "dataset.input_mb_per_s": input_bytes / 1e6 / load_s,
        "dataset.metric_row_s": row_s,
        "dataset.metric_row_ms": 1e3 * row_s / max(len(rows), 1),
        "dataset.row_gb_per_s_computed": len(rows) * n * dim * 8 / 1e9 / row_s,
        "dataset.norms_s": total(named("dataset.norms")),
        "wkcenter.bracket_s": total(named("wkcenter.gamma_bounds")),
        "wkcenter.grid_s": total(grid_runs),
        "wkcenter.selector_self_s": sum(spans[i].dur - total(rows_of[i])
                                        for i in selectors),
        "wkcenter.evaluate_s": total(named("wkcenter.evaluate_solution")),
        "report.render_s": total(renders),
        "cli.self_s": spans[main].dur - total(children),
        "cli.main_s": spans[main].dur,
    }
    distinct = len({spans[i].note for i in grid_runs})
    counts = {
        "dataset.metric_row_calls": len(rows),
        "wkcenter.bracket_rows": sum(o == "wkcenter.gamma_bounds" for o in owners.values()),
        "wkcenter.grid_runs": len(grid_runs),
        "wkcenter.grid_rows": sum(rows_under[i] for i in grid_runs),
        "wkcenter.grid_distinct": distinct,
        "wkcenter.selector_calls": len(selectors),
        "wkcenter.far_rounds": far,
        "wkcenter.fill_rounds": fill,
        "wkcenter.evaluate_rows": sum(o == "wkcenter.evaluate_solution"
                                      for o in owners.values()),
    }
    # report bytes include the [timing] values, whose printed length varies
    measured["report.bytes"] = float(sum(spans[i].note for i in renders))
    return measured, counts
