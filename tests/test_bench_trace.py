"""The benchmark's tracer patches library functions and methods by name.

Run shipped scenarios under the tracer: a method it watches that left
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
SCENARIOS = resources.files("monodromy_lab") / "data" / "scenarios"


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


def _traced_run(scenario):
    """Run one shipped scenario under the tracer, uninstall it, and check
    that every patched name and namespace is back as it was."""
    doc = json.loads((SCENARIOS / ("%s.json" % scenario)).read_text())
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
    for ns, attr, original in patched:
        assert vars(ns)[attr] is original
    for ns in _library_namespaces():
        if id(ns) in before:
            assert dict(vars(ns)) == before[id(ns)], ns
    return tracer, report, patched


def test_traced_scenario_counts_and_uninstall_restores():
    tracer, report, patched = _traced_run("elliptic_igusa_f2")
    assert report.ok
    assert tracer.counts["series.mul_calls"] > 0
    assert tracer.counts["scenarios.run_scenario_calls"] == 1
    # verify_levels 2 runs the Puiseux oracle: the puiseux-oracle layer
    # metrics read 0 if these stop going through the names the tracer wraps
    assert tracer.counts["polynomials.newton_polygon_calls"] > 0
    assert tracer.counts["polynomials.puiseux_roots_calls"] > 0
    watched = {(getattr(ns, "__name__", ""), attr) for ns, attr, _ in patched}
    for name in ("__mul__", "invert"):
        assert ("PuiseuxSeries", name) in watched
    for name in ("__mul__", "inverse"):
        assert ("FiniteFieldElement", name) in watched
    assert ("FiniteField", "__eq__") in watched


def test_traced_clifford_scenario_reaches_linalg_and_clifford_counters():
    # the linalg and Clifford layer metrics read 0 if rref or the element
    # product stop going through the names the tracer wraps
    tracer, report, _ = _traced_run("clifford_n2_type2")
    assert report.ok
    assert tracer.counts["linalg.rref_calls"] > 0
    assert tracer.counts["linalg.rows_in"] > 0
    assert tracer.counts["clifford.element_mul_calls"] > 0
