"""The benchmark's tracer names duke functions by module and attribute, and
derives per-layer metrics from the spans it records; a rename in duke, or a
run shape whose metrics cannot be derived, must fail here rather than in a
traced benchmark run."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from duke import cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being built;
    # no bytecode cache is written next to the benchmark
    sys.modules[spec.name] = module
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
        sys.dont_write_bytecode = saved
    return module


@pytest.mark.parametrize("target", _tracing().TARGETS, ids=lambda t: t[0])
def test_tracer_target_resolves(target):
    _, modname, attr, cls, _ = target
    assert modname == "duke" or modname.startswith("duke.")
    owner = importlib.import_module(modname)
    if cls is not None:
        owner = getattr(owner, cls)
        # the tracer wraps the class's own attribute, not an inherited one
        assert attr in vars(owner), (modname, cls, attr)
    assert callable(getattr(owner, attr)), (modname, cls, attr)


@pytest.mark.parametrize("metric", ["euclidean", "cosine-distance"])
@pytest.mark.parametrize("extra", [[], ["--gamma", "0.5"],
                                   ["--method", "greedy-kcenter"],
                                   ["--method", "margin"]],
                         ids=["search", "pinned", "greedy", "margin"])
def test_layer_metrics_of_a_traced_select(tmp_path, metric, extra):
    # layer_metrics divides by the time of the traced loads and of the
    # traced metric_row calls; it must return finite figures on every path
    tracing = _tracing()
    rng = np.random.default_rng(6)
    n, dim, k = 80, 3, 6
    emb, wts = tmp_path / "points.csv", tmp_path / "weights.csv"
    np.savetxt(emb, 2.0 + rng.normal(size=(n, dim)), delimiter=",")
    np.savetxt(wts, rng.uniform(size=(n, 1)), delimiter=",")
    argv = ["select", "--embeddings", str(emb), "--weights", str(wts),
            "--metric", metric, "--k", str(k),
            "--out", str(tmp_path / "report.txt"), *extra]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    input_bytes = emb.stat().st_size + wts.stat().st_size
    measured, counts = tracing.layer_metrics(tracer.spans, 0, k, n, dim,
                                             input_bytes)
    assert all(np.isfinite(v) for v in measured.values())


_BOUNDARY = ("dataset", "wkcenter", "parallel", "oracle", "nngraph")


def _public_callables(module):
    """Every public function and class a duke module defines, and the public
    methods of those classes, by qualified name."""
    for name, value in vars(module).items():
        if name.startswith("_") or not callable(value):
            continue
        if getattr(value, "__module__", None) != module.__name__:
            continue
        yield name, value
        if isinstance(value, type):
            for attr, member in vars(value).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_only_a_ground_set_takes_a_metric():
    # a set carries its metric: no selector, kernel or oracle is handed one
    # apart, which could differ from the set's
    taking = set()
    for short in _BOUNDARY:
        module = importlib.import_module(f"duke.{short}")
        for name, fn in _public_callables(module):
            if "metric" in inspect.signature(fn).parameters:
                taking.add(f"{short}.{name}")
    assert taking == {"dataset.EmbeddingSet", "dataset.load_embeddings"}


def test_only_wkcenter_imports_private_names_of_dataset():
    src = Path(__file__).resolve().parent.parent / "src" / "duke"
    importers = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom)
                    and node.module in ("dataset", "duke.dataset")
                    and any(a.name.startswith("_") for a in node.names)):
                importers.add(path.stem)
    assert importers == {"wkcenter"}


def test_every_process_entry_is_run():
    # the console script, python -m duke and python -m duke.cli all start
    # at cli.run, so each process freezes the collector the same way
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"duke": "duke.cli:run"}
    package = Path(cli.__file__).resolve().parent
    dunder_main = ast.parse((package / "__main__.py").read_text())
    assert [ast.unparse(n) for n in dunder_main.body] == [
        "from .cli import run", "run()"]
    guards = [node for node in ast.parse(inspect.getsource(cli)).body
              if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [[ast.unparse(stmt) for stmt in g.body] for g in guards] == [
        ["run()"]]
