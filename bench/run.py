"""Benchmark runner for monodromy-lab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this fresh process as a single closed-loop client on
one thread: the next case starts when the previous one finishes, as in
``monodromy-lab batch``.  The first round is the cold round; warm rounds
follow until ``--seconds`` have passed (at least two warm rounds).  Every
round's case times are divided by the mean time of a fixed reference loop
sampled every 10 ms during that round (``ReferenceSampler``), so timings
are in reference-loop units (``_ref``) and host speed drift cancels; raw
seconds are recorded for context only.

With ``--trace 1`` untraced and traced warm rounds alternate and the
per-layer metrics of ``bench/tracing.py`` are printed instead of the
end-to-end ones.  The last line of standard output is one JSON object;
``bench/results/`` receives the run record and, when traced, the spans.
See ``bench/README.md`` for the workloads, metrics and known failures.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

WORKLOADS = ("torsion-tower", "puiseux-oracle", "galois-closure", "clifford-filtration")
SETUP_SAMPLES = 7
MIN_WARM_ROUNDS = 2
REF_ITERATIONS = 1_000
SAMPLE_INTERVAL_S = 0.01
# setup_s is scaled to a host on which one reference loop takes this long
# (about the median on the 2-vCPU Linux VM the benchmark was sized on)
REF_NOMINAL_S = 0.0006

_now = time.perf_counter


def reference_loop():
    """A fixed pure-Python workload (dict, tuple and integer arithmetic)."""
    table = {}
    x = 1
    for i in range(REF_ITERATIONS):
        x = (x * 1103515245 + 12345) % 2147483648
        key = (x & 255, i & 7)
        table[key] = table.get(key, 0) + i
    return len(table)


class ReferenceSampler:
    """Times the reference loop every SAMPLE_INTERVAL_S of wall time.

    A timer signal interrupts the running case between bytecodes and runs
    one reference loop, so the loop sees the same host speed as the case
    around it.  On a host whose speed flips by 2x every few tens of
    milliseconds, loops timed only before and after each case miss most
    flips; samples spread through the case follow them.  The handler's own
    time is counted in ``overhead`` and taken out of the case times.
    """

    def __init__(self):
        self.samples = []
        self.overhead = 0.0

    def _tick(self, _signum, _frame):
        start = _now()
        reference_loop()
        self.samples.append(_now() - start)
        self.overhead += _now() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def mean(self):
        """Mean reference-loop time; one loop is timed if no tick came."""
        if self.samples:
            return statistics.mean(self.samples)
        start = _now()
        reference_loop()
        return _now() - start


# ---------------------------------------------------------------------------
# inputs


def load_library():
    if not (SRC / "monodromy_lab" / "__init__.py").is_file():
        sys.exit("bench: no monodromy_lab sources under %s" % SRC)
    sys.path.insert(0, str(SRC))


def make_cases(workload, seed):
    """Generate the workload's cases from its seed; inputs are then ready."""
    import workloads
    from monodromy_lab.fields import FiniteField
    from monodromy_lab.polynomials import CoefficientSeries
    from monodromy_lab.series import PuiseuxSeries

    def series(field, terms):
        return PuiseuxSeries.from_terms(
            field, {e: field.element(c) for e, c in terms.items()}
        )

    cases = workloads.GENERATORS[workload](random.Random("%s:%d" % (workload, seed)))
    for case in cases:
        if case.kind == "puiseux":
            p, coeffs = case.poly
            field = FiniteField(p)
            case.poly = CoefficientSeries(field, [series(field, c) for c in coeffs])
            case.roots = [series(field, r) for r in case.roots]
    return cases


def measure_setup(workload, seed):
    """Median set-up time of fresh processes that start the interpreter,
    import the library and generate the inputs.

    Each probe's wall time, less its sampler ticks, is scaled by
    REF_NOMINAL_S over the reference-loop time sampled inside the probe, so
    host speed drift cancels as it does for the ``_ref`` metrics.  The wait
    blocks: a wait with a timeout polls and rounds times up to 50 ms steps.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = _now()
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            check=True,
            stdout=subprocess.PIPE,
        )
        wall = _now() - start
        probe = json.loads(out.stdout)
        samples.append({
            "wall_s": wall,
            "ref_s": probe["ref_s"],
            "setup_s": (wall - probe["overhead_s"]) * REF_NOMINAL_S / probe["ref_s"],
        })
    return statistics.median(x["setup_s"] for x in samples), samples


# ---------------------------------------------------------------------------
# one case


def known_failure(case, error, failing):
    """The documented baseline defect class a failure belongs to, or None."""
    doc = case.doc or {}
    if (
        error is not None
        and doc.get("kind") == "formal-group"
        and str(error).startswith("no expandable root of valuation")
    ):
        return "residue-extension"
    if (
        error is None
        and doc.get("kind") == "galois"
        and doc.get("p") == 2
        and doc.get("generators") == "full"
        and failing == ["derived_equals_full_unipotent"]
    ):
        return "p2-derived-subgroup"
    if (
        error is None
        and doc.get("kind") == "clifford"
        and isinstance(doc.get("lattice"), list)
        and doc.get("filtration") == "II"
        and doc.get("n", 0) >= 3
        and failing == ["cocharacter_containments"]
    ):
        return "rref-nullspace"
    return None


def execute(case):
    """Run one case; returns (report bytes, error or None, payload)."""
    from monodromy_lab import errors, polynomials, reports, scenarios

    if case.kind == "puiseux":
        try:
            roots = polynomials.puiseux_roots(case.poly, case.target)
        except errors.MonodromyLabError as exc:
            return ("%s: %s\n" % (type(exc).__name__, exc)).encode(), exc, None
        data = [
            [
                str(r.valuation),
                r.multiplicity,
                None
                if r.expansion is None
                else [[str(e), list(c.coords)] for e, c in r.expansion.terms()],
            ]
            for r in roots
        ]
        return (json.dumps(sorted(data, key=str)) + "\n").encode(), None, roots
    try:
        report = scenarios.run_scenario(case.doc)
        return reports.emit_report(report), None, report
    except errors.MonodromyLabError as exc:
        return reports.emit_error_report(case.doc, exc), exc, None


def self_check(case, payload):
    """Problems with a finished case's output, by its generator's expectations."""
    problems = []
    if case.kind == "puiseux":
        unmatched = list(case.roots)
        for r in payload:
            if r.expansion is None or r.multiplicity != 1:
                problems.append("unexpanded or multiple root at %s" % r.valuation)
                continue
            hit = [s for s in unmatched if r.expansion.agrees_with(s, below=case.target)]
            if len(hit) != 1:
                problems.append("oracle root %s matches %d seeded roots" % (r.valuation, len(hit)))
                continue
            unmatched.remove(hit[0])
        if unmatched:
            problems.append("%d seeded roots not recovered" % len(unmatched))
        return problems
    result = payload.result
    for key, want in case.expect.items():
        got = result.get(key)
        if isinstance(want, tuple):  # (low, high) bounds
            if got is None or not want[0] <= got <= want[1]:
                problems.append("%s = %r, expected within %r" % (key, got, want))
        elif got != want:
            problems.append("%s = %r, expected %r" % (key, got, want))
    return problems


def check(case, data, error, payload, first_bytes):
    """Classify one execution: "ok", a known defect class, or "unexpected"."""
    detail = []
    if case.golden is not None and data != case.golden:
        detail.append("report differs from its golden")
    if first_bytes is not None and data != first_bytes:
        detail.append("report bytes differ from the first round")
    if error is not None:
        label = known_failure(case, error, [])
        if label is None:
            detail.append("%s: %s" % (type(error).__name__, error))
        return ("unexpected", detail) if detail else (label, [])
    detail.extend(self_check(case, payload))
    if detail:
        return "unexpected", detail
    failing = []
    if case.kind == "scenario":
        failing = sorted(name for name, ok in payload.assertions.items() if not ok)
    if failing:
        label = known_failure(case, None, failing)
        if label is None:
            return "unexpected", ["assertions failed: %s" % failing]
        return label, []
    return "ok", []


# ---------------------------------------------------------------------------
# rounds


class RunState:
    """Outcomes of every execution, checked against the first round."""

    def __init__(self, cases):
        self.cases = cases
        self.first = {}
        self.attempted = 0
        self.statuses = {}
        self.unexpected = []

    def record(self, case, data, error, payload):
        status, detail = check(case, data, error, payload, self.first.get(case.case_id))
        self.first.setdefault(case.case_id, data)
        self.attempted += 1
        self.statuses[status] = self.statuses.get(status, 0) + 1
        if status == "unexpected":
            self.unexpected.append({"case": case.case_id, "detail": detail})
        return status

    def digest(self):
        h = hashlib.sha256()
        for case in self.cases:
            h.update(case.case_id.encode() + b"\0" + self.first[case.case_id] + b"\0")
        return h.hexdigest()


def run_round(state, tracer=None):
    """One pass over every case.

    Returns the round total in reference-loop units, the per-case
    (ref units, seconds, status) and the reference samples taken.
    """
    timed = []
    with ReferenceSampler() as sampler:
        for case in state.cases:
            if tracer is not None:
                tracer.case_id = case.case_id
            overhead = sampler.overhead
            start = _now()
            data, error, payload = execute(case)
            seconds = _now() - start - (sampler.overhead - overhead)
            timed.append((case, seconds, data, error, payload))
    ref = sampler.mean()
    per_case = []
    for case, seconds, data, error, payload in timed:
        status = state.record(case, data, error, payload)
        per_case.append((seconds / ref, seconds, status))
    return sum(r for r, _, _ in per_case), per_case, sampler.samples


# ---------------------------------------------------------------------------
# reporting


def machine_info(seed):
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
    }


def write_record(name, record):
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / name
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_library()
    if args.setup_probe:
        with ReferenceSampler() as sampler:
            make_cases(args.workload, args.seed)
        print(json.dumps({"ref_s": sampler.mean(), "overhead_s": sampler.overhead}))
        return 0

    setup_s, setup_samples = measure_setup(args.workload, args.seed)
    cases = make_cases(args.workload, args.seed)
    state = RunState(cases)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    start = _now()
    cold = run_round(state)
    warm, traced = [], []
    while len(warm) < MIN_WARM_ROUNDS or _now() - start < args.seconds:
        warm.append(run_round(state))
        if tracer is not None:
            tracer.enabled = True
            traced.append(run_round(state, tracer))
            tracer.enabled = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    batch_ref = statistics.median(total for total, _, _ in warm)
    cold_ref = cold[0]
    ok = state.statuses.get("ok", 0)
    ok_frac = ok / state.attempted
    failed = len(state.unexpected)
    refs = [ref for _, _, samples in [cold] + warm for ref in samples]

    print("workload %s seed %d: %d cases, %d rounds (1 cold, %d warm%s)" % (
        args.workload, args.seed, len(cases), 1 + len(warm) + len(traced), len(warm),
        ", %d traced" % len(traced) if traced else ""))
    print("  outcomes: %s" % json.dumps(state.statuses, sort_keys=True))
    print("  failed_frac %.4f (cases that raised or failed a check, known classes included)"
          % (1 - ok_frac))
    for item in state.unexpected[:10]:
        print("  UNEXPECTED %s: %s" % (item["case"], "; ".join(item["detail"])))
    print("  report digest %s" % state.digest())
    print("  reference loop %.6f s median; warm round %.3f s raw median" % (
        statistics.median(refs),
        statistics.median(sum(s for _, s, _ in per_case) for _, per_case, _ in warm)))

    record = {
        "workload": args.workload,
        "machine": machine_info(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "digest": state.digest(),
        "outcomes": state.statuses,
        "unexpected": state.unexpected,
        "setup_samples": setup_samples,
        "reference_loop_s": {
            "median": statistics.median(refs),
            "min": min(refs),
            "max": max(refs),
            "samples": len(refs),
        },
        "cases": [
            {
                "case": case.case_id,
                "props": case.props,
                "status": [r[1][i][2] for r in [cold] + warm],
                "seconds": [r[1][i][1] for r in [cold] + warm],
                "ref_units": [r[1][i][0] for r in [cold] + warm],
            }
            for i, case in enumerate(cases)
        ],
    }

    if tracer is not None:
        tracer.uninstall()
        traced_ref = statistics.median(total for total, _, _ in traced)
        layers = tracer.layer_metrics(len(traced))
        layers["trace.overhead"] = (traced_ref / batch_ref, "ratio")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        record["layers"] = metrics
        spans_path = write_record(
            "%s-seed%d-spans.json" % (args.workload, args.seed),
            {"spans": tracer.span_records(), "counts": dict(tracer.counts)},
        )
        print("  trace.overhead %.3f; %d spans written to %s" % (
            traced_ref / batch_ref, len(tracer.spans), spans_path.relative_to(ROOT)))
    else:
        metrics = {
            "batch_ref": {"value": batch_ref, "unit": "ref"},
            "cold_ref": {"value": cold_ref, "unit": "ref"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "ok_frac": {"value": ok_frac, "unit": "ratio"},
        }
        record["metrics"] = metrics
    for name, m in metrics.items():
        print("  %-36s %14.6f %s" % (name, m["value"], m["unit"]))
    write_record("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace), record)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": state.attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
