"""In-memory tracing of the library's layers, installed from outside.

``Tracer.install`` replaces the public functions and methods the benchmark
watches by wrappers.  Functions are rebound under every name any
``monodromy_lab`` module holds them by (modules import by name, so
``scenarios.ec_formal_group`` and ``formal_groups.ec_formal_group`` are two
bindings of one function); methods are patched on their class, aliases such
as ``__rmul__ = __mul__`` included.  ``uninstall`` restores the originals.

Three kinds of watch:

* span: timed, recorded as (name, start, end, parent, case id);
* timed: timed but not recorded one by one (hot calls);
* counted: call count only.

Self time of a timed call is its duration minus the time of the timed calls
nested inside it.  Failures are counted where the wrapped call raised.
"""

import sys
import time
from collections import defaultdict

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.enabled = False
        self.case_id = None
        self.spans = []  # (name, start, end, parent index or -1, case id)
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.max_n_ram = 0
        self._stack = []  # [name, span index or None, child seconds]
        self._patches = []  # (namespace, attribute, original)

    # -- wrappers --------------------------------------------------------

    def _timed(self, name, fn, record_span, on_result=None, on_call=None):
        tracer = self
        calls_key, failed_key = name + "_calls", name + "_failed"

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.counts[calls_key] += 1
            if on_call is not None:
                args = on_call(args)
            stack = tracer._stack
            span = None
            if record_span:
                parent = stack[-1][1] if stack and stack[-1][1] is not None else -1
                span = len(tracer.spans)
                tracer.spans.append([name, 0.0, 0.0, parent, tracer.case_id])
            frame = [name, span, 0.0]
            stack.append(frame)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counts[failed_key] += 1
                raise
            finally:
                end = _now()
                stack.pop()
                dur = end - start
                tracer.incl_s[name] += dur
                tracer.self_s[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if span is not None:
                    tracer.spans[span][1] = start
                    tracer.spans[span][2] = end
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        tracer = self
        calls_key = name + "_calls"

        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.counts[calls_key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------

    def _rebind_function(self, fn, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("monodromy_lab"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, method, wrapper):
        original = cls.__dict__[method]
        for attr, value in list(cls.__dict__.items()):
            if value is original:
                self._patches.append((cls, attr, original))
                setattr(cls, attr, wrapper)

    def install(self):
        from monodromy_lab import (
            clifford,
            fields,
            formal_groups,
            linalg,
            monodromy,
            polynomials,
            reports,
            scenarios,
            series,
        )

        def note_n_ram(_args, result):
            n_ram = getattr(result, "n_ram", 0)
            if n_ram > self.max_n_ram:
                self.max_n_ram = n_ram

        def note_table(_args, fgl):
            self.counts["formal_groups.table_terms"] += len(fgl.table)

        def note_rows(args):
            rows = list(args[0])
            self.counts["linalg.rows_in"] += len(rows)
            return (rows,) + tuple(args[1:])

        def note_pivots(_args, pivots):
            self.counts["linalg.pivots"] += len(pivots)

        # mulclose never nests in itself: one saved product count suffices
        products_at_start = [0]

        def closure_start(args):
            products_at_start[0] = self.counts["monodromy.block_mul_calls"]
            return args

        def closure_end(_args, group):
            self.counts["monodromy.closure_found"] += len(group)
            self.counts["monodromy.closure_products"] += (
                self.counts["monodromy.block_mul_calls"] - products_at_start[0]
            )

        spans = (
            (scenarios.run_scenario, "scenarios.run_scenario"),
            (reports.emit_report, "reports.emit_report"),
            (formal_groups.ec_formal_group, "formal_groups.ec_formal_group", note_table),
            (formal_groups.p_decomposition, "formal_groups.p_decomposition"),
            (formal_groups.valuation_ladder, "formal_groups.valuation_ladder"),
            (formal_groups.verify_tower, "formal_groups.verify_tower"),
            (polynomials.weierstrass_prepare, "polynomials.weierstrass_prepare"),
            (polynomials.puiseux_roots, "polynomials.puiseux_roots"),
            (monodromy.full_block_group, "monodromy.enumerate"),
            (monodromy.unipotent_subgroup, "monodromy.enumerate"),
            (monodromy.commutator_closure, "monodromy.commutator_closure"),
            (clifford.left_ideal_image, "clifford.left_ideal_image"),
            (clifford.graded_splitting, "clifford.graded_splitting"),
            (clifford.cocharacter_conjugation_check, "clifford.cocharacter"),
        )
        for fn, name, *hook in spans:
            wrapper = self._timed(name, fn, True, on_result=hook[0] if hook else None)
            self._rebind_function(fn, wrapper)
        self._rebind_function(
            monodromy.mulclose,
            self._timed(
                "monodromy.mulclose",
                monodromy.mulclose,
                True,
                on_result=closure_end,
                on_call=closure_start,
            ),
        )
        self._rebind_function(
            linalg.rref,
            self._timed(
                "linalg.rref", linalg.rref, False, on_result=note_pivots, on_call=note_rows
            ),
        )
        for fn, name in (
            (fields.is_prime, "fields.is_prime"),
            (polynomials.newton_polygon, "polynomials.newton_polygon"),
        ):
            self._rebind_function(fn, self._counted(name, fn))

        P = series.PuiseuxSeries
        self._patch_method(
            P, "__mul__", self._timed("series.mul", P.__mul__, False, on_result=note_n_ram)
        )
        self._patch_method(
            P, "invert", self._timed("series.invert", P.invert, False, on_result=note_n_ram)
        )
        for cls, method, name in (
            (fields.FiniteFieldElement, "__mul__", "fields.elem_mul"),
            (fields.FiniteFieldElement, "inverse", "fields.elem_inverse"),
            (fields.FiniteField, "__eq__", "fields.field_eq"),
            (monodromy.BlockGaloisElement, "__init__", "monodromy.elements_constructed"),
            (monodromy.BlockGaloisElement, "__mul__", "monodromy.block_mul"),
            (clifford.CliffordElement, "__mul__", "clifford.element_mul"),
        ):
            self._patch_method(cls, method, self._counted(name, cls.__dict__[method]))

    def uninstall(self):
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def layer_metrics(self, rounds):
        """Per-round layer metrics over ``rounds`` traced rounds."""
        c = self.counts

        def per_round(x):
            return x / rounds

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "fields.elem_mul_calls": (per_round(c["fields.elem_mul_calls"]), "count"),
            "fields.elem_inverse_calls": (per_round(c["fields.elem_inverse_calls"]), "count"),
            "fields.field_eq_calls": (per_round(c["fields.field_eq_calls"]), "count"),
            "fields.is_prime_calls": (per_round(c["fields.is_prime_calls"]), "count"),
            "monodromy.elements_constructed": (
                per_round(c["monodromy.elements_constructed_calls"]),
                "count",
            ),
            "monodromy.block_mul_calls": (per_round(c["monodromy.block_mul_calls"]), "count"),
            "monodromy.closure_yield": (
                ratio(c["monodromy.closure_found"], c["monodromy.closure_products"]),
                "ratio",
            ),
            "monodromy.mulclose_s": (per_round(self.self_s["monodromy.mulclose"]), "s"),
            "monodromy.commutator_closure_s": (
                per_round(self.self_s["monodromy.commutator_closure"]),
                "s",
            ),
            "monodromy.enumerate_s": (per_round(self.self_s["monodromy.enumerate"]), "s"),
            "series.mul_calls": (per_round(c["series.mul_calls"]), "count"),
            "series.mul_s": (per_round(self.incl_s["series.mul"]), "s"),
            "series.invert_calls": (per_round(c["series.invert_calls"]), "count"),
            "series.max_n_ram": (self.max_n_ram, "count"),
            "formal_groups.ec_formal_group_s": (
                per_round(self.self_s["formal_groups.ec_formal_group"]),
                "s",
            ),
            "formal_groups.table_terms": (per_round(c["formal_groups.table_terms"]), "count"),
            "polynomials.weierstrass_prepare_s": (
                per_round(self.self_s["polynomials.weierstrass_prepare"]),
                "s",
            ),
            "formal_groups.p_decomposition_s": (
                per_round(self.self_s["formal_groups.p_decomposition"]),
                "s",
            ),
            "formal_groups.valuation_ladder_s": (
                per_round(self.self_s["formal_groups.valuation_ladder"]),
                "s",
            ),
            "polynomials.newton_polygon_calls": (
                per_round(c["polynomials.newton_polygon_calls"]),
                "count",
            ),
            "polynomials.puiseux_roots_s": (
                per_round(self.self_s["polynomials.puiseux_roots"]),
                "s",
            ),
            "polynomials.puiseux_roots_failed": (
                per_round(c["polynomials.puiseux_roots_failed"]),
                "count",
            ),
            "formal_groups.verify_tower_s": (
                per_round(self.self_s["formal_groups.verify_tower"]),
                "s",
            ),
            "formal_groups.verify_tower_failed": (
                per_round(c["formal_groups.verify_tower_failed"]),
                "count",
            ),
            "clifford.left_ideal_image_s": (
                per_round(self.self_s["clifford.left_ideal_image"]),
                "s",
            ),
            "clifford.graded_splitting_s": (
                per_round(self.self_s["clifford.graded_splitting"]),
                "s",
            ),
            "clifford.cocharacter_s": (per_round(self.self_s["clifford.cocharacter"]), "s"),
            "clifford.element_mul_calls": (per_round(c["clifford.element_mul_calls"]), "count"),
            "linalg.rref_calls": (per_round(c["linalg.rref_calls"]), "count"),
            "linalg.rref_s": (per_round(self.self_s["linalg.rref"]), "s"),
            "linalg.rows_in": (per_round(c["linalg.rows_in"]), "count"),
            "linalg.pivot_yield": (ratio(c["linalg.pivots"], c["linalg.rows_in"]), "ratio"),
            "scenarios.run_scenario_s": (
                per_round(self.self_s["scenarios.run_scenario"]),
                "s",
            ),
            "reports.emit_report_s": (per_round(self.self_s["reports.emit_report"]), "s"),
        }

    def span_records(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "case": c}
            for n, s, e, p, c in self.spans
        ]
