"""The benchmark's tracer names duke functions by module and attribute; a
rename in duke must fail here rather than in a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
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
    return module.TARGETS


@pytest.mark.parametrize("target", _targets(), ids=lambda t: t[0])
def test_tracer_target_resolves(target):
    _, modname, attr, cls, _ = target
    assert modname == "duke" or modname.startswith("duke.")
    owner = importlib.import_module(modname)
    if cls is not None:
        owner = getattr(owner, cls)
        # the tracer wraps the class's own attribute, not an inherited one
        assert attr in vars(owner), (modname, cls, attr)
    assert callable(getattr(owner, attr)), (modname, cls, attr)
