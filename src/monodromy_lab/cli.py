"""Command-line front end.

    monodromy-lab run <scenario.json> [--format json|text] [--out FILE]
    monodromy-lab batch <dir> [--format json|text]
    monodromy-lab selftest

``selftest`` runs every shipped scenario in ``data/scenarios/`` and checks
that it reports ``ok`` and that its JSON report is byte-identical to
``data/golden/<name>.golden.json``; it exits 0 only if all of them match,
else 1.

Exit codes: 0 ok, 2 schema violation, 3 computation error, 4 precision
exhaustion, 5 the scenario ran but one of its built-in assertions is false
(the report is written as usual).  Expected errors never print stack
traces; computation and precision failures still emit a deterministic
error report.
"""

import argparse
import json
import sys
import time
from importlib import resources
from pathlib import Path

from .errors import ComputationError, MonodromyLabError, PrecisionError, SchemaError
from .reports import emit_error_report, emit_report
from .scenarios import run_scenario, scenario_format

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_COMPUTATION = 3
EXIT_PRECISION = 4
EXIT_ASSERTION = 5


def _load_document(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError("cannot read %s: %s" % (path, exc))
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("%s is not valid JSON: %s" % (path, exc))


def _write(data, out):
    if out is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        Path(out).write_bytes(data)


def _run_one(path, fmt, out):
    """Run a scenario file; returns the exit code."""
    try:
        doc = _load_document(path)
        if fmt is None:
            fmt = scenario_format(doc)
        report = run_scenario(doc)
    except SchemaError as exc:
        print("schema error: %s" % exc, file=sys.stderr)
        return EXIT_SCHEMA
    except PrecisionError as exc:
        _write(emit_error_report(_safe_doc(path), exc, fmt or "json"), out)
        return EXIT_PRECISION
    except ComputationError as exc:
        _write(emit_error_report(_safe_doc(path), exc, fmt or "json"), out)
        return EXIT_COMPUTATION
    _write(emit_report(report, fmt), out)
    return EXIT_OK if report.ok else EXIT_ASSERTION


def _safe_doc(path):
    try:
        return _load_document(path)
    except SchemaError:
        return {"path": str(path)}


def _cmd_run(args):
    return _run_one(args.scenario, args.format, args.out)


def _cmd_batch(args):
    directory = Path(args.directory)
    if not directory.is_dir():
        print("schema error: %s is not a directory" % directory, file=sys.stderr)
        return EXIT_SCHEMA
    paths = sorted(
        p for p in directory.glob("*.json") if not p.name.endswith(".report.json")
    )
    if not paths:
        print("schema error: no scenario files in %s" % directory, file=sys.stderr)
        return EXIT_SCHEMA
    worst = EXIT_OK
    for path in paths:
        out = path.with_suffix("").as_posix() + ".report.json"
        code = _run_one(path, args.format, out)
        status = "ok" if code == EXIT_OK else "error(%d)" % code
        print("%s %s" % (status, path.name))
        if code != EXIT_OK and worst == EXIT_OK:
            worst = code
    return worst


def _cmd_selftest(_args):
    """Run every shipped scenario and compare its JSON report with the golden."""
    data = resources.files("monodromy_lab") / "data"
    names = sorted(p.name[: -len(".json")] for p in (data / "scenarios").iterdir())
    failed = 0
    for name in names:
        start = time.perf_counter()
        doc = json.loads((data / "scenarios" / (name + ".json")).read_text())
        golden = (data / "golden" / (name + ".golden.json")).read_bytes()
        try:
            report = run_scenario(doc)
            passed = report.ok and emit_report(report, "json") == golden
        except MonodromyLabError:
            passed = False
        status = "PASS" if passed else "FAIL"
        print("[%s] %-32s %6.2fs" % (status, name, time.perf_counter() - start))
        failed += not passed
    print("%d/%d scenarios match their goldens" % (len(names) - failed, len(names)))
    return EXIT_OK if failed == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="monodromy-lab",
        description="Exact torsion-tower, Newton-polygon and Clifford-filtration computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario file")
    run_p.add_argument("scenario", help="path to a scenario .json document")
    run_p.add_argument("--format", choices=("json", "text"), default=None,
                       help="override the scenario's own format (default json)")
    run_p.add_argument("--out", default=None, help="write the report to FILE")
    run_p.set_defaults(func=_cmd_run)

    batch_p = sub.add_parser("batch", help="run every scenario in a directory")
    batch_p.add_argument("directory")
    batch_p.add_argument("--format", choices=("json", "text"), default=None)
    batch_p.set_defaults(func=_cmd_batch)

    self_p = sub.add_parser(
        "selftest", help="check every shipped scenario's report against its golden"
    )
    self_p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
