"""The acceptance suite: one callable per criterion, exact tolerances.

Each criterion returns a ``CriterionResult``; ``run_all`` executes the whole
list.  The CLI ``selftest`` subcommand and the pytest acceptance module both
drive these, printing one pass/fail line per criterion.  All comparisons are
exact (rational equality, set equality, byte equality); the only inexact
quantities are the wall-clock budgets stated alongside.
"""

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .clifford import (
    GramLattice,
    cocharacter_conjugation_check,
    filtration_type2,
    filtration_type3,
    graded_splitting,
)
from .fields import FiniteField
from .formal_groups import (
    WeierstrassModel,
    ec_formal_group,
    p_decomposition,
    p_series_decomposition,
    valuation_ladder,
    verify_ladder,
    verify_tower,
)
from .monodromy import TateLattice, tate_torsion_tower
from .polynomials import CoefficientSeries
from .reports import emit_report
from .scenarios import run_scenario
from .series import PuiseuxSeries


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _result(name, start, passed, detail):
    return CriterionResult(name, passed, detail, time.perf_counter() - start)


def _t(field, e=1, c=1):
    return PuiseuxSeries.t_power(field, Fraction(e), c)


# -- 1. Igusa ladder, m = 1 ------------------------------------------------


def criterion_igusa_ladder():
    start = time.perf_counter()
    for p in (2, 3, 5):
        ladder = valuation_ladder(p, {1: 1}, 6)
        if ladder.n0 != 1:
            return _result("igusa-ladder-m1", start, False, "n0 != 1 for p=%d" % p)
        for n, v in enumerate(ladder.valuations(), start=1):
            want = Fraction(1, p ** (n - 1) * (p - 1))
            if v != want:
                return _result(
                    "igusa-ladder-m1", start, False,
                    "p=%d level %d: %s != %s" % (p, n, v, want),
                )
    elapsed = time.perf_counter() - start
    return _result(
        "igusa-ladder-m1", start, elapsed < 1.0,
        "v_n = 1/(p^(n-1)(p-1)) for p in {2,3,5}, n <= 6; %.3fs" % elapsed,
    )


# -- 2. elliptic end to end ---------------------------------------------------


def criterion_elliptic_end_to_end():
    start = time.perf_counter()
    field = FiniteField(2)
    model = WeierstrassModel.from_ints(field, a1=_t(field), a3=1)
    fgl = ec_formal_group(model)
    h2 = p_decomposition(fgl)
    if h2.m != 1:
        return _result("elliptic-end-to-end", start, False, "m = %s != 1" % h2.m)
    ladder = h2.ladder(2)
    report = verify_ladder(fgl, ladder, levels=2)
    want = (((Fraction(1), 1),), ((Fraction(1, 2), 2),))
    if report.multisets != want:
        return _result(
            "elliptic-end-to-end", start, False,
            "oracle multisets %s != %s" % (report.multisets, want),
        )
    elapsed = time.perf_counter() - start
    return _result(
        "elliptic-end-to-end", start, elapsed < 5.0,
        "m=1, oracle {1} then {1/2,1/2}; %.3fs" % elapsed,
    )


# -- 3. m > 1 regime ------------------------------------------------------------


def criterion_m_gt_one():
    start = time.perf_counter()
    ladder = valuation_ladder(3, {1: Fraction(3), 2: Fraction(2)}, 4)
    want = [Fraction(3, 2), Fraction(1, 2), Fraction(1, 6), Fraction(1, 18)]
    if ladder.valuations() != want:
        return _result("m-gt-1-regime", start, False, "ladder %s" % ladder.valuations())
    if ladder.n0 != 2:
        return _result("m-gt-1-regime", start, False, "n0 = %s != 2" % ladder.n0)
    # independent oracle on a synthetic tower polynomial with that profile
    field = FiniteField(3)
    series = [PuiseuxSeries.zero(field)] * 10
    series[3] = _t(field, 3, 2)
    series[6] = _t(field, 2)
    series[9] = PuiseuxSeries.one(field)
    h2 = p_series_decomposition(CoefficientSeries(field, series, None), 3)
    if h2.interior != {1: Fraction(3), 2: Fraction(2)}:
        return _result("m-gt-1-regime", start, False, "interior %s" % h2.interior)
    oracle = verify_tower(h2, h2.ladder(4), levels=1)
    if oracle.multisets != (((Fraction(3, 2), 2),),):
        return _result("m-gt-1-regime", start, False, "oracle %s" % (oracle.multisets,))
    return _result(
        "m-gt-1-regime", start, True,
        "ladder [3/2,1/2,1/6,1/18], n0=2, oracle confirms 3/2",
    )


# -- 4. Tate towers ---------------------------------------------------------------


def criterion_tate_towers():
    start = time.perf_counter()
    checked = 0
    for p in (2, 3):
        field = FiniteField(p)
        one_plus_t = PuiseuxSeries.from_terms(field, {0: 1, 1: 1})
        for g in (1, 2):
            periods = [_t(field)]
            if g == 2:
                periods.append(_t(field, 3) * one_plus_t)
            periods = tuple(q.truncate(64) for q in periods)
            lattice = TateLattice(periods=periods, p=p)
            for n in range(4):
                tower = tate_torsion_tower(lattice, n)
                if tower.separable_degree != 1:
                    return _result("tate-towers", start, False, "separable degree != 1")
                if tower.inseparable_degree != p ** (n * g):
                    return _result(
                        "tate-towers", start, False,
                        "inseparable degree off at p=%d g=%d n=%d" % (p, g, n),
                    )
                if not tower.verify_generators(lattice):
                    return _result(
                        "tate-towers", start, False,
                        "root^p^n != q at p=%d g=%d n=%d" % (p, g, n),
                    )
                checked += 1
    return _result(
        "tate-towers", start, True,
        "%d towers: separable degree 1, roots power back to T=64" % checked,
    )


# -- 5. Clifford dimensions -----------------------------------------------------


def criterion_clifford_dimensions():
    start = time.perf_counter()
    for n in range(1, 6):
        lattice = GramLattice.one_hyperbolic(n)
        filtration = filtration_type3(lattice, lattice.basis_vector(0))
        if filtration.dims() != (1 << (n + 1), 1 << (n + 1), 1 << (n + 2)):
            return _result(
                "clifford-dimensions", start, False, "type III dims off at n=%d" % n
            )
        if filtration.graded_dims()[1] != 0:
            return _result(
                "clifford-dimensions", start, False, "gr_1 != 0 at n=%d" % n
            )
    t5 = time.perf_counter()
    for n in range(2, 6):
        lattice = GramLattice.split(n)
        e1, e2 = lattice.basis_vector(0), lattice.basis_vector(1)
        filtration = filtration_type2(lattice, e1, e2)
        d = 1 << (n + 1)
        if filtration.dims() != (1 << n, 3 * (1 << n), 1 << (n + 2)):
            return _result(
                "clifford-dimensions", start, False, "type II dims off at n=%d" % n
            )
        if 2 * filtration.dims()[0] != d:
            return _result(
                "clifford-dimensions", start, False, "W_-2 != d/2 at n=%d" % n
            )
        if n == 5:
            n5_elapsed = time.perf_counter() - t5
    total = time.perf_counter() - start
    return _result(
        "clifford-dimensions", start, n5_elapsed < 10.0,
        "type II (2^n, 3*2^n, 2^(n+2)) for n=2..5, type III gr_1=0 for n=1..5; "
        "%.3fs total" % total,
    )


# -- 6. cocharacter table ----------------------------------------------------------


def criterion_cocharacter_table():
    start = time.perf_counter()
    lattice = GramLattice.split(2)
    e1, e2, e3, e4 = (lattice.basis_vector(i) for i in range(4))
    splitting = graded_splitting(filtration_type2(lattice, e1, e2), e3, e4)
    slots = (
        ("I_-1", (e1, e2)),
        ("I_0", splitting.i_0_basis),
        ("I_1", (e3, e4)),
    )
    cells = 0
    checks = 0
    parity_ok = True
    for label, reps in slots:
        per_degree = {0: True, 1: True, 2: True}
        for v in reps:
            chk = cocharacter_conjugation_check(splitting, v)
            parity_ok = parity_ok and chk.parity_preserved
            for i, holds in chk.containments:
                per_degree[i] = per_degree[i] and holds
                checks += 1
        for i in (0, 1, 2):
            cells += 1
            if not per_degree[i]:
                return _result(
                    "cocharacter-table", start, False,
                    "containment fails for %s at degree -%d" % (label, i),
                )
    if cells != 9:
        return _result("cocharacter-table", start, False, "expected 9 table cells")
    if not parity_ok:
        return _result("cocharacter-table", start, False, "parity not preserved")
    return _result(
        "cocharacter-table", start, True,
        "9 cells (I_0 empty at n=2, vacuous), %d rep checks, parity ok" % checks,
    )


# -- 7. classification golden ---------------------------------------------------------


_CLASSIFY_TABLE = {
    "classify_surface_ordinary": "UnipotentInertia",
    "classify_surface_supersingular": "FiniteIndexInertia",
    "classify_surface_total": "TrivialImage",
    "classify_ks_ordinary": "UnipotentInertia",
    "classify_ks_supersingular": "FiniteIndexInertia",
}


def criterion_classification_golden():
    start = time.perf_counter()
    data_root = resources.files("monodromy_lab") / "data"
    for name, want in sorted(_CLASSIFY_TABLE.items()):
        doc = json.loads((data_root / "scenarios" / (name + ".json")).read_text())
        report = run_scenario(doc)
        if report.result["classification"] != want:
            return _result(
                "classification-golden", start, False,
                "%s -> %s, expected %s" % (name, report.result["classification"], want),
            )
        if not report.result["citation"]:
            return _result("classification-golden", start, False, "empty citation")
        first = emit_report(report, "json")
        second = emit_report(run_scenario(doc), "json")
        if first != second:
            return _result(
                "classification-golden", start, False, "%s not byte-stable" % name
            )
        golden = (data_root / "golden" / (name + ".golden.json")).read_bytes()
        if first != golden:
            return _result(
                "classification-golden", start, False, "%s differs from golden" % name
            )
    return _result(
        "classification-golden", start, True,
        "five cases match the frozen table, byte-identical to goldens",
    )


CRITERIA = (
    criterion_igusa_ladder,
    criterion_elliptic_end_to_end,
    criterion_m_gt_one,
    criterion_tate_towers,
    criterion_clifford_dimensions,
    criterion_cocharacter_table,
    criterion_classification_golden,
)


def run_all():
    return [criterion() for criterion in CRITERIA]
