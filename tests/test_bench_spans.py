"""The benchmark's span contract: every entry point ``nucbench/spans.py``
wraps exists where it says, and a traced decomposition of each local
workload fires every span the workload declares.

The benchmark wraps functions by name on the module or class that
``nucleus_decomposition`` reaches them through, so a refactor that
renames, moves or stops calling one of them breaks its traced run
(``--trace 1``) without failing any other test.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.experiments import _best_config
from repro.nucleus import decomp

NUCBENCH = Path(__file__).resolve().parents[1] / "nucbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"nucbench_{name}", NUCBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")


@pytest.mark.parametrize("name", sorted(spans.SPANS))
def test_span_target_exists(name):
    """A class's attribute must be its own: the tracer wraps it in the
    class ``__dict__``."""
    path, attr = spans.SPANS[name]
    owner = spans._resolve(path)
    if isinstance(owner, type):
        assert attr in owner.__dict__, f"{path}.{attr}"
    else:
        assert callable(getattr(owner, attr, None)), f"{path}.{attr}"


@pytest.mark.parametrize("name", sorted(n for n, w in workloads.WORKLOADS.items() if not w.spark))
def test_workload_fires_its_spans(name):
    """One traced call per workload, through the module attribute the
    benchmark calls: a name imported before ``install`` would bypass the
    wrapper."""
    w = workloads.WORKLOADS[name]
    edges = w.graph(w.default_seed)
    tracer = spans.Tracer().install()
    try:
        res = decomp.nucleus_decomposition(edges, w.r, w.s, _best_config(w.r, w.s))
        fired = tracer.fired()
        summary = tracer.summarize(res)
    finally:
        tracer.uninstall()
    assert set(w.spans) <= fired, sorted(set(w.spans) - fired)
    assert summary["bucketing.rounds"] == res.rho
