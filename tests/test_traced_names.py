"""The benchmark's tracer patches library functions by name: every name must resolve.

The benchmark's own checks call the library too; the last test makes those calls.
"""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import gssamp as gs

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(tracing):
    for module, name, _ in tracing.TRACED:
        assert module.__name__.startswith("gssamp.")
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_class_hooks_resolve_in_class_body(tracing):
    # the tracer patches vars(cls)[attr], so an inherited attribute does not count
    for cls, attr, _ in tracing._CLASS_HOOKS:
        assert cls.__module__.startswith("gssamp.")
        assert callable(vars(cls).get(attr)), f"{cls.__name__}.{attr}"


@pytest.mark.parametrize("family", ["vertex", "index", "spectrum"])
def test_pyramid_check_library_calls(family):
    # the calls of the benchmark's pyramid reconstruction check, on a small graph
    graph = gs.build_random_sensor(64, seed=3)
    f = np.random.default_rng(0).standard_normal(64)
    config = gs.PyramidConfig(sampling=family, analysis_filter=gs.FilterSpec())
    rec = gs.synthesize(gs.analyze(f, graph, 3, config))
    assert np.linalg.norm(rec - f) / np.linalg.norm(f) <= 1e-10
