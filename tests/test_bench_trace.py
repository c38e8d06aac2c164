"""The benchmark's tracer patches library functions and methods by name.

Run one shipped scenario under the tracer: a method it watches that left
its class body (or was renamed) fails ``install``, and ``uninstall`` must
put back every original.
"""

import importlib.util
import json
import sys
from importlib import resources
from pathlib import Path

from monodromy_lab import scenarios

BENCH = Path(__file__).resolve().parents[1] / "bench"
SCENARIO = resources.files("monodromy_lab") / "data" / "scenarios" / "elliptic_igusa_f2.json"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _library_namespaces():
    """Every module and class namespace of the library, by identity."""
    spaces = []
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("monodromy_lab"):
            continue
        spaces.append(module)
        spaces.extend(v for v in vars(module).values() if isinstance(v, type))
    return spaces


def test_traced_scenario_counts_and_uninstall_restores():
    doc = json.loads(SCENARIO.read_text())
    tracer = _load_tracing().Tracer()
    before = {id(ns): dict(vars(ns)) for ns in _library_namespaces()}
    tracer.install()
    patched = list(tracer._patches)
    try:
        tracer.enabled = True
        report = scenarios.run_scenario(doc)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert report.ok
    assert tracer.counts["series.mul_calls"] > 0
    assert tracer.counts["scenarios.run_scenario_calls"] == 1
    watched = {(getattr(ns, "__name__", ""), attr) for ns, attr, _ in patched}
    for name in ("__mul__", "invert"):
        assert ("PuiseuxSeries", name) in watched
    for name in ("__mul__", "inverse"):
        assert ("FiniteFieldElement", name) in watched
    assert ("FiniteField", "__eq__") in watched
    for ns, attr, original in patched:
        assert vars(ns)[attr] is original
    for ns in _library_namespaces():
        if id(ns) in before:
            assert dict(vars(ns)) == before[id(ns)], ns
