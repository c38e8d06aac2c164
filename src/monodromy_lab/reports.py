"""Report assembly and canonical serialization.

A ``Report`` echoes the scenario, carries the structured result payload, the
pass/fail flags of built-in assertions, and a provenance block (package
version plus the precision actually used).  JSON mode is canonical: sorted
keys, no insignificant whitespace, every rational rendered as a "num/den"
string -- running the same scenario twice yields identical bytes.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from . import __version__


def jsonable(value):
    """Map exact values onto deterministic JSON-safe structures."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    raise TypeError("cannot serialise %r" % (value,))


@dataclass(frozen=True)
class Report:
    scenario: dict
    result: dict
    assertions: dict
    provenance: dict

    @property
    def ok(self):
        return all(self.assertions.values())

    def payload(self):
        return {
            "assertions": jsonable(self.assertions),
            "provenance": jsonable(self.provenance),
            "result": jsonable(self.result),
            "scenario": jsonable(self.scenario),
        }


def make_provenance(precision=None):
    return {
        "package": "monodromy-lab",
        "version": __version__,
        "precision": precision or {},
    }


def emit_report(report, fmt="json"):
    """Serialise a report to bytes; json mode is byte-deterministic."""
    if fmt == "json":
        text = json.dumps(report.payload(), sort_keys=True, separators=(",", ":"))
        return (text + "\n").encode("utf-8")
    if fmt == "text":
        return _emit_text(report).encode("utf-8")
    raise ValueError("unknown format %r" % (fmt,))


def emit_error_report(scenario, error, fmt="json"):
    """A deterministic error document for computation/precision failures.

    A ``PrecisionError`` that names the precision it needed carries it as
    ``error.needed``.
    """
    doc = {
        "error": {"type": type(error).__name__, "message": str(error)},
        "scenario": jsonable(scenario),
    }
    needed = getattr(error, "needed", None)
    if needed is not None:
        doc["error"]["needed"] = jsonable(needed)
    if fmt == "text":
        return ("error: %s\n  %s\n" % (type(error).__name__, error)).encode("utf-8")
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return (text + "\n").encode("utf-8")


def _emit_text(report):
    lines = []
    kind = report.scenario.get("kind", "?")
    lines.append("scenario: %s" % kind)
    result = report.result
    if kind == "ladder" or "ladder" in result:
        ladder = result if kind == "ladder" else result["ladder"]
        lines.append("  n   v_n          denominator  regime")
        for level in ladder["levels"]:
            lines.append(
                "  %-3d %-12s %-12s %s"
                % (
                    level["n"],
                    jsonable(level["valuation"]),
                    level["denominator"],
                    "certified" if level["certified_regime"] else "-",
                )
            )
        lines.append("  n0 = %s" % ladder["n0"])
    if kind == "polygon":
        lines.append("  vertices: %s" % jsonable(result["vertices"]))
        for seg in result["segments"]:
            lines.append(
                "  segment slope=%s length=%s"
                % (jsonable(seg["slope"]), seg["length"])
            )
        lines.append("  root valuations: %s" % jsonable(result["root_valuations"]))
    for key in sorted(result):
        if key in ("levels", "n0", "vertices", "segments", "root_valuations", "ladder"):
            continue
        lines.append("  %s: %s" % (key, json.dumps(jsonable(result[key]), sort_keys=True)))
    lines.append("assertions:")
    for name in sorted(report.assertions):
        lines.append("  %-32s %s" % (name, "pass" if report.assertions[name] else "FAIL"))
    return "\n".join(lines) + "\n"
