"""The benchmark's tracer still finds every name it wraps.

``perfbench/run.py --trace 1`` rebinds the functions listed in
``tracing.TRACED``; a listed name that the package no longer has would only
show up there. This test installs and removes the tracer, so it fails here.
"""

import sys
from pathlib import Path

import csglab.analysis  # noqa: F401  the tracer wraps names in loaded modules
import csglab.dynamics  # noqa: F401
import csglab.io  # noqa: F401
from csglab.graphs import make_graph

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402


def test_tracer_installs_and_removes_every_traced_name():
    originals = {
        (module, function): getattr(sys.modules[f"csglab.{module}"], function)
        for module, function, _ in tracing.TRACED
    }
    tracer = tracing.Tracer()
    tracer.reset()
    tracer.install()
    try:
        for (module, function), original in originals.items():
            assert getattr(sys.modules[f"csglab.{module}"], function) is not original
        graphs = sys.modules["csglab.graphs"]
        graphs.classify(make_graph(["s", "t"], [(0, "s", "t")], "s", "t"))
        assert tracer.snapshot()["graphs.classify.calls"] == (1, "count")
    finally:
        tracer.remove()
    for (module, function), original in originals.items():
        assert getattr(sys.modules[f"csglab.{module}"], function) is original
