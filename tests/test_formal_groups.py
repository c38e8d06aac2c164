import json
import random
from fractions import Fraction
from importlib import resources

import pytest

from monodromy_lab import (
    ComputationError,
    FiniteField,
    GenericSupersingularError,
    INFINITY,
    LadderMismatchError,
    NotHeightTwoError,
    PrecisionError,
    PuiseuxSeries,
)
from monodromy_lab import formal_groups, scenarios
from monodromy_lab.formal_groups import (
    FormalGroupLaw,
    LadderLevel,
    ValuationLadder,
    WeierstrassModel,
    ec_formal_group,
    multiplication_series,
    p_decomposition,
    p_series_decomposition,
    valuation_ladder,
    verify_ladder,
    verify_tower,
)
from monodromy_lab import polynomials
from monodromy_lab.formal_groups import (
    _check_linear_coefficient,
    _madd,
    _mone,
    _mscale,
    _truncation,
    _w_series,
)
from monodromy_lab.polynomials import (
    CoefficientSeries,
    truncated_product,
    truncated_unit_inverse,
)
from monodromy_lab.reports import emit_error_report

F2 = FiniteField(2)
F3 = FiniteField(3)
F5 = FiniteField(5)
F4 = FiniteField(2, [1, 1, 1])
F9 = FiniteField(3, [1, 0, 1])


def t(field, e=1, c=1):
    return PuiseuxSeries.t_power(field, Fraction(e), c)


@pytest.fixture(scope="module")
def igusa_curve():
    """y^2 + t xy + y = x^3 over F_2((t)): ordinary with supersingular fibre."""
    model = WeierstrassModel.from_ints(F2, a1=t(F2), a3=1)
    return ec_formal_group(model)


# -- formal group construction -------------------------------------------------


def test_identity_axiom(igusa_curve):
    x = igusa_curve.identity_series()
    assert igusa_curve.formal_sum(x, igusa_curve.zero_series()).agrees_with(x)


def test_cusp_curve_group_law_is_additive_to_low_order():
    # all a_i = 0: hand expansion shows no terms below total degree 4
    model = WeierstrassModel.from_ints(F5)
    fgl = ec_formal_group(model, x_trunc=6)
    for (i, j), v in fgl.table.items():
        if 2 <= i + j <= 3:
            assert not v.known_nonzero, (i, j, v)


def test_a1_shows_up_in_the_cross_term(igusa_curve):
    # coefficient of z1 z2 is -a1 = t in characteristic 2
    assert igusa_curve.coefficient(1, 1).agrees_with(t(F2))


def test_formal_inverse(igusa_curve):
    x = igusa_curve.identity_series()
    inv = igusa_curve.inverse_series()
    sum_ = igusa_curve.formal_sum(x, inv)
    assert all(not c.known_nonzero for c in sum_.coeffs)


def test_additive_group_formal_sum():
    add = FormalGroupLaw.additive(F2, 8)
    f = CoefficientSeries(F2, [PuiseuxSeries.zero(F2), PuiseuxSeries.zero(F2), PuiseuxSeries.one(F2)])
    g = CoefficientSeries(
        F2,
        [PuiseuxSeries.zero(F2), PuiseuxSeries.zero(F2), PuiseuxSeries.zero(F2), PuiseuxSeries.one(F2)],
    )
    s = add.formal_sum(f, g)
    assert s.coefficient(2).agrees_with(PuiseuxSeries.one(F2))
    assert s.coefficient(3).agrees_with(PuiseuxSeries.one(F2))


def test_formal_sum_rejects_nonpositive_order(igusa_curve):
    const = CoefficientSeries(F2, [PuiseuxSeries.one(F2)])
    with pytest.raises(ComputationError):
        igusa_curve.formal_sum(const, igusa_curve.identity_series())


def test_truncated_model_agrees_with_exact_model(igusa_curve):
    # a1 = t + O(t^12): every coefficient must agree with the exact model's
    # below its own truncation, which integrality keeps at >= 12
    model = WeierstrassModel.from_ints(F2, a1=t(F2).truncate(12), a3=1)
    fgl = ec_formal_group(model)
    assert fgl.x_trunc == igusa_curve.x_trunc
    assert any(not v.is_exact for v in fgl.table.values())
    for i, j in set(fgl.table) | set(igusa_curve.table):
        got = fgl.coefficient(i, j)
        assert got.is_exact or got.trunc >= 12, (i, j, got)
        assert got.agrees_with(igusa_curve.coefficient(i, j)), (i, j, got)


def test_compose_keeps_the_outer_constant_term():
    add = FormalGroupLaw.additive(F3, 6)
    x = add.identity_series()
    one_plus_x = CoefficientSeries(F3, [PuiseuxSeries.one(F3), PuiseuxSeries.one(F3)])
    composed = add.compose(one_plus_x, x)
    assert composed.agrees_with(one_plus_x)
    assert composed.coefficient(0).agrees_with(PuiseuxSeries.one(F3))


def test_noncommutative_table_rejected():
    one = PuiseuxSeries.one(F2)
    with pytest.raises(ComputationError):
        FormalGroupLaw(F2, {(1, 0): one, (0, 1): one, (2, 1): one}, 4)


# -- multiplication by m -------------------------------------------------------


def test_mult_one_is_identity(igusa_curve):
    m1 = igusa_curve.mult_by_int(1)
    assert m1.coefficient(1).agrees_with(PuiseuxSeries.one(F2))
    assert all(not m1.coefficient(i).known_nonzero for i in range(2, 5))


def test_mult_p_kills_linear_term(igusa_curve):
    m2 = igusa_curve.mult_by_int(2)
    assert not m2.coefficient(1).known_nonzero


def test_double_on_igusa_curve_starts_t_x2(igusa_curve):
    # hand expansion: F(x, x) = 2x - a1 x^2 + ... = t x^2 + O(x^3) in char 2
    m2 = igusa_curve.mult_by_int(2)
    assert m2.coefficient(2).agrees_with(t(F2))


def test_add_mult_compatibility_randomised(igusa_curve):
    rng = random.Random(31)
    cache = {m: igusa_curve.mult_by_int(m) for m in range(13)}
    for _ in range(40):
        m = rng.randrange(0, 7)
        k = rng.randrange(0, 7)
        lhs = igusa_curve.formal_sum(cache[m], cache[k])
        assert lhs.agrees_with(cache[m + k])


def test_mult_by_negative_int(igusa_curve):
    neg = igusa_curve.mult_by_int(-1)
    assert neg.agrees_with(igusa_curve.inverse_series())


# -- [m] from the curve, against the bivariate oracle ---------------------------


def _cross_check_models():
    return {
        "F2-a1-a3": WeierstrassModel.from_ints(
            F2, a1=t(F2) + t(F2, 2), a2=t(F2), a3=1 + t(F2, 3), a6=t(F2)
        ),
        "F3": WeierstrassModel.from_ints(F3, a2=t(F3), a4=1, a6=t(F3, 2, 2)),
        "F5": WeierstrassModel.from_ints(F5, a2=t(F5, 2), a4=t(F5, 1, 2), a6=1 + t(F5, 3)),
        "F4": WeierstrassModel.from_ints(F4, a1=t(F4, 1, [0, 1]), a3=1, a6=t(F4, 2)),
        "F9": WeierstrassModel.from_ints(F9, a2=t(F9, 1, [1, 1]), a4=1, a6=t(F9)),
    }


@pytest.mark.parametrize("truncated", [False, True])
def test_w_series_solves_the_curve_equation(truncated):
    # both builds share w(z), so check it against the (z, w) equation itself:
    # w = z^3 + (a1 z + a2 z^2) w + (a3 + a4 z) w^2 + a6 w^3 to the bound
    models = list(_cross_check_models().values())
    if truncated:
        models = [
            WeierstrassModel(*(a.truncate(3 + i) for i, a in enumerate(m.coefficients())))
            for m in models
        ]
    for model in models:
        a1, a2, a3, a4, a6 = model.coefficients()
        bound = 14
        w = _w_series(model, bound)
        w2 = truncated_product(w, w, bound)
        rhs = {(3,): PuiseuxSeries.one(model.field)}
        for c, power in (
            ({(1,): a1, (2,): a2}, w),
            ({(0,): a3, (1,): a4}, w2),
            ({(0,): a6}, truncated_product(w2, w, bound)),
        ):
            rhs = _madd(rhs, truncated_product(c, power, bound))
        assert rhs == w


@pytest.mark.parametrize("name", sorted(_cross_check_models()))
def test_multiplication_series_matches_the_oracle(name):
    model = _cross_check_models()[name]
    p = model.field.p
    x = max(4, p * p)
    fgl = ec_formal_group(model, x)
    for m in sorted({2, 3, 4, p}):
        got = multiplication_series(model, m, x)
        want = fgl.mult_by_int(m)
        assert got.x_trunc == want.x_trunc == x
        assert got.coeffs == want.coeffs, (name, m)


def test_multiplication_series_matches_the_oracle_on_a_dense_p5_model():
    # y^2 = x^3 + t x^2 + x + t^2, the frontier model, at X = p^2 + p = 30
    model = WeierstrassModel.from_ints(F5, a2=t(F5), a4=1, a6=t(F5, 2))
    got = multiplication_series(model, 5)
    want = ec_formal_group(model).mult_by_int(5)
    assert got.x_trunc == want.x_trunc == 30
    assert got.coeffs == want.coeffs


def test_multiplication_series_agrees_on_a_truncated_model(igusa_curve):
    model = WeierstrassModel.from_ints(F2, a1=t(F2).truncate(12), a3=1)
    for m in (2, 3, 4):
        got = multiplication_series(model, m)
        assert any(not c.is_exact for c in got.coeffs)
        assert got.agrees_with(ec_formal_group(model).mult_by_int(m))
        assert got.agrees_with(igusa_curve.mult_by_int(m))


def test_multiplication_series_of_the_additive_cusp():
    # y^2 = x^3 has F(x, y) = x + y exactly, so [p] = 0 and [m] = m x
    model = WeierstrassModel.from_ints(F3)
    assert all(c.is_exact_zero for c in multiplication_series(model, 3).coeffs)
    four = multiplication_series(model, 4)
    assert four.coefficient(1).agrees_with(PuiseuxSeries.one(F3))
    assert all(c.is_exact_zero for c in four.coeffs[2:])


def test_multiplication_series_refuses_like_the_oracle():
    # X < 4 first, then the discriminant
    model = WeierstrassModel.from_ints(F5, a4=PuiseuxSeries.zero_at_precision(F5, 2))
    for build in (lambda x: ec_formal_group(model, x), lambda x: multiplication_series(model, 5, x)):
        with pytest.raises(ComputationError, match="at least 4"):
            build(3)
        with pytest.raises(PrecisionError, match="discriminant at precision 6"):
            build(30)
    with pytest.raises(ComputationError, match="m >= 1"):
        multiplication_series(WeierstrassModel.from_ints(F3, a4=1), 0)


# -- [m] on packed codes, against the tuple-keyed build it replaced ------------
#
# The reference below is the build before x-series were packed into one code
# map: w(z), the chord step, the third point and the negation on 1-tuple-keyed
# maps of PuiseuxSeries, one series product per pair of terms.


def _reference_w_series(model, bound):
    a1, a2, a3, a4, a6 = model.coefficients()
    zero = PuiseuxSeries.zero(model.field)
    w = [zero] * (bound + 1)
    w2 = [zero] * (bound + 1)
    w3 = [zero] * (bound + 1)
    w[3] = PuiseuxSeries.one(model.field)
    for n in range(4, bound + 1):
        w2[n] = sum((w[i] * w[n - i] for i in range(3, n - 2)), zero)
        w3[n] = sum((w2[i] * w[n - i] for i in range(6, n - 2)), zero)
        w[n] = (
            a1 * w[n - 1] + a2 * w[n - 2] + a3 * w2[n] + a4 * w2[n - 1] + a6 * w3[n]
        )
    return {(n,): c for n, c in enumerate(w) if not c.is_exact_zero}


def _reference_third_point(model, z1, z2, lam, nu, bound):
    a1, a2, a3, a4, a6 = model.coefficients()
    minus = model.field.element(-1)
    lam_nu = truncated_product(lam, nu, bound)
    lam2 = truncated_product(lam, lam, bound)
    big_a = _mone(model.field, 1)
    for coef, term in ((a2, lam), (a4, lam2), (a6, truncated_product(lam2, lam, bound))):
        big_a = _madd(big_a, _mscale(term, coef))
    big_b = _madd(
        _madd(_mscale(lam, a1), _mscale(lam2, a3)),
        _madd(
            _mscale(nu, a2),
            _madd(
                _mscale(lam_nu, a4.scale(2)),
                _mscale(truncated_product(lam2, nu, bound), a6.scale(3)),
            ),
        ),
    )
    return _madd(
        _mscale(_madd(z1, z2), minus),
        _mscale(
            truncated_product(big_b, truncated_unit_inverse(big_a, bound), bound),
            minus,
        ),
    )


def _reference_negate(model, z, w, bound):
    minus = model.field.element(-1)
    unit = _madd(
        _mone(model.field, 1),
        _mscale(_madd(_mscale(z, model.a1), _mscale(w, model.a3)), minus),
    )
    return truncated_product(
        _mscale(z, minus), truncated_unit_inverse(unit, bound - 1), bound
    )


def _reference_chord_step(model, w, z1, z2, bound):
    field = model.field
    one = PuiseuxSeries.one(field)
    powers = [{(0,): one}]
    for _ in range(bound):
        powers.append(truncated_product(powers[-1], z1, bound))
    lam = {}
    w_z1 = {}
    if z2 is None:
        z2 = z1
        for (n,), wn in w.items():
            if n <= bound + 1 and n % field.p:
                lam = _madd(lam, _mscale(powers[n - 1], wn.scale(n)))
    else:
        h = {(0,): one}
        for n in range(1, bound + 2):
            wn = w.get((n,))
            if wn is not None:
                lam = _madd(lam, _mscale(h, wn))
            if n <= bound:
                h = _madd({(e + 1,): c for (e,), c in h.items() if e < bound}, powers[n])
    for (n,), wn in w.items():
        if n <= bound:
            w_z1 = _madd(w_z1, _mscale(powers[n], wn))
    nu = _madd(w_z1, _mscale(truncated_product(lam, z1, bound), field.element(-1)))
    z3 = _reference_third_point(model, z1, z2, lam, nu, bound)
    w3 = _madd(truncated_product(lam, z3, bound), nu)
    return _reference_negate(model, z3, w3, bound)


def _reference_multiplication_series(model, m, x_trunc=None):
    field = model.field
    X = _truncation(model, x_trunc)
    w = _reference_w_series(model, X + 2)
    z = {(1,): PuiseuxSeries.one(field)}
    zero = PuiseuxSeries.zero(field)
    result, k = z, 1
    for bit in bin(m)[3:]:
        for z2 in (None, z) if bit == "1" else (None,):
            result = _reference_chord_step(model, w, result, z2, X)
            k = 2 * k if z2 is None else k + 1
            _check_linear_coefficient(field, result.get((1,), zero), k)
    return CoefficientSeries.from_terms(field, result, X)


def _packed_path_models():
    """Exact, truncated and ramified models over F_2, F_4, F_3, F_9, F_5."""
    models = _cross_check_models()
    for name, model in list(models.items()):
        models[name + "-truncated"] = WeierstrassModel(
            *(a.truncate(7 + 2 * i) for i, a in enumerate(model.coefficients()))
        )
    half = Fraction(1, 2)
    models["F3-ramified"] = WeierstrassModel.from_ints(
        F3, a2=t(F3, half), a4=1, a6=t(F3) + t(F3, Fraction(5, 2), 2)
    )
    # t^(1/2) terms, a truncation off the ramification grid, a coefficient
    # that is zero at precision and one truncated below its own terms' reach
    models["F5-mixed"] = WeierstrassModel.from_ints(
        F5,
        a2=(t(F5, half) + t(F5, 2)).truncate(Fraction(13, 3)),
        a3=PuiseuxSeries.zero_at_precision(F5, 5),
        a4=1 + t(F5, Fraction(3, 2), 3),
        a6=(t(F5) + t(F5, 3)).truncate(9),
    )
    models["F4-ramified-truncated"] = WeierstrassModel.from_ints(
        F4, a1=t(F4, half, [0, 1]).truncate(6), a3=1, a6=t(F4, 2)
    )
    return models


@pytest.mark.parametrize("name", sorted(_packed_path_models()))
def test_multiplication_series_equals_the_tuple_keyed_build(name):
    model = _packed_path_models()[name]
    p = model.field.p
    x = max(6, p * p)
    for m in sorted({2, 3, 4, p}):
        got = multiplication_series(model, m, x)
        want = _reference_multiplication_series(model, m, x)
        assert got.x_trunc == want.x_trunc == x
        # == on PuiseuxSeries compares codes, n_ram and the truncation
        assert got.coeffs == want.coeffs, (name, m)
    if "truncated" in name or name == "F5-mixed":
        assert any(not c.is_exact for c in got.coeffs)


def test_w_series_equals_the_tuple_keyed_solve():
    for model in _packed_path_models().values():
        assert _w_series(model, 16) == _reference_w_series(model, 16)


def test_packed_slot_guard_refuses_a_carry(monkeypatch):
    # a2 = t^3 packs into 4-bit slots (exponents < 8), but w_9 = t^9 + ...
    model = WeierstrassModel.from_ints(F5, a2=t(F5, 3), a4=1)
    want = _reference_multiplication_series(model, 2, 12)
    assert multiplication_series(model, 2, 12).coeffs == want.coeffs
    assert any(e >= 8 for c in want.coeffs for e in c.coeffs)
    monkeypatch.setattr(polynomials, "SH", 4)
    with pytest.raises(ComputationError, match="does not fit a packed x-slot of 4 bits"):
        multiplication_series(model, 2, 12)
    # an input exponent past the slot is refused when it is packed
    monkeypatch.setattr(polynomials, "SH", 2)
    with pytest.raises(ComputationError, match="t-exponent 3 does not fit"):
        multiplication_series(model, 2, 12)


def test_multiplication_series_builds_no_series_per_term(monkeypatch):
    # only the discriminant's fixed work goes through PuiseuxSeries: the
    # count at X = 12 equals the count at X = 30
    counts = {}
    for method in ("__mul__", "__add__", "scale"):
        original = getattr(PuiseuxSeries, method)

        def counted(*args, _original=original, _method=method, **kwargs):
            counts[_method] = counts.get(_method, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(PuiseuxSeries, method, counted)
    seen = []
    for x in (12, 30):
        counts.clear()
        model = WeierstrassModel.from_ints(F5, a2=t(F5), a4=1, a6=t(F5, 2))
        multiplication_series(model, 5, x)
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    assert seen[0]["__mul__"] > 0


def test_formal_group_scenario_computes_the_discriminant_once(monkeypatch):
    calls = []
    original = formal_groups._discriminant

    def counted(*coefficients):
        calls.append(coefficients)
        return original(*coefficients)

    monkeypatch.setattr(formal_groups, "_discriminant", counted)
    shipped = resources.files("monodromy_lab") / "data" / "scenarios" / "elliptic_igusa_f2.json"
    assert scenarios.run_scenario(json.loads(shipped.read_text())).ok
    assert len(calls) == 1
    # the cusp is refused for its discriminant after the same single check
    calls.clear()
    with pytest.raises(ComputationError, match="discriminant is exactly zero"):
        scenarios.run_scenario({"kind": "formal-group", "field": {"p": 3}, "model": {}})
    assert len(calls) == 1


# Error documents of formal-group scenarios, pinned from the build through
# the bivariate law: X < 4 and X < p^2.  The cusp y^2 = x^3 (discriminant
# exactly zero) is refused as a singular model before its additive [3] = 0
# reaches the preparation.
_ERROR_PARITY = (
    (
        {"kind": "formal-group", "field": {"p": 2}, "model": {"a1": {"1": 1}, "a3": {"0": 1}}, "precision": {"x": 3}},
        b'{"error":{"message":"formal group truncation must be at least 4","type":"ComputationError"},"scenario":{"field":{"p":2},"kind":"formal-group","model":{"a1":{"1":1},"a3":{"0":1}},"precision":{"x":3}}}\n',
    ),
    (
        {"kind": "formal-group", "field": {"p": 3}, "model": {"a2": {"1": 1}, "a4": {"0": 1}}, "precision": {"x": 8}},
        b'{"error":{"message":"formal group known to degree 8 < p^2 = 9","type":"ComputationError"},"scenario":{"field":{"p":3},"kind":"formal-group","model":{"a2":{"1":1},"a4":{"0":1}},"precision":{"x":8}}}\n',
    ),
    (
        {"kind": "formal-group", "field": {"p": 3}, "model": {}},
        b'{"error":{"message":"singular model: the discriminant is exactly zero","type":"ComputationError"},"scenario":{"field":{"p":3},"kind":"formal-group","model":{}}}\n',
    ),
)


@pytest.mark.parametrize("doc, expected", _ERROR_PARITY)
def test_formal_group_scenario_error_reports_are_unchanged(doc, expected):
    with pytest.raises(ComputationError) as info:
        scenarios.run_scenario(doc)
    assert emit_error_report(doc, info.value) == expected


def test_formal_group_scenarios_do_not_build_the_bivariate_law(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the bivariate group law was built")

    for module in (formal_groups, scenarios):
        for name in ("ec_formal_group", "p_decomposition"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    shipped = resources.files("monodromy_lab") / "data" / "scenarios" / "elliptic_igusa_f2.json"
    p3 = {
        "kind": "formal-group",
        "field": {"p": 3},
        "model": {"a2": {"1": 1}, "a4": {"0": 1}, "a6": {"2": 2}},
    }
    for doc in (json.loads(shipped.read_text()), p3):
        report = scenarios.run_scenario(doc)
        assert report.ok
    assert report.result["m"] == 1
    assert report.provenance["precision"]["x"] == 12


# -- [p]-decomposition ---------------------------------------------------------


def test_p_series_is_in_x_to_the_p(igusa_curve):
    m2 = igusa_curve.mult_by_int(2)
    for i in range(len(m2.coeffs)):
        if i % 2:
            assert not m2.coefficient(i).known_nonzero


def test_decomposition_of_igusa_curve(igusa_curve):
    h2 = p_decomposition(igusa_curve)
    assert h2.p == 2
    assert h2.m == 1
    assert h2.distinguished.degree() == 2
    assert h2.distinguished.coefficient(0).is_exact_zero
    c1 = h2.distinguished.coefficient(1)
    assert c1.valuation() == 1


def test_decomposition_rejects_good_ordinary():
    model = WeierstrassModel.from_ints(F2, a1=1, a6=t(F2))
    fgl = ec_formal_group(model)
    with pytest.raises(NotHeightTwoError):
        p_decomposition(fgl)


def test_decomposition_rejects_multiplicative_group():
    # [p](x) = x^p: height 1 everywhere
    with pytest.raises(NotHeightTwoError):
        p_series_decomposition(FormalGroupLaw.multiplicative(F3, 12).mult_by_int(3), 3)


def test_synthetic_exact_p_series():
    coeffs = [PuiseuxSeries.zero(F3)] * 10
    coeffs[3] = t(F3)
    coeffs[9] = PuiseuxSeries.one(F3)
    h2 = p_series_decomposition(CoefficientSeries(F3, coeffs, None), 3)
    assert h2.m == 1
    assert h2.interior == {1: 1, 2: INFINITY}


def test_supersingular_generic_fibre_detected():
    # [p](x) = x^9 exactly: no linear u-term at all
    coeffs = [PuiseuxSeries.zero(F3)] * 10
    coeffs[9] = PuiseuxSeries.one(F3)
    with pytest.raises(GenericSupersingularError):
        p_series_decomposition(CoefficientSeries(F3, coeffs, None), 3)


# -- valuation ladders ----------------------------------------------------------


def test_ladder_p2_m1():
    lad = valuation_ladder(2, {1: 1}, 4)
    assert lad.valuations() == [1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
    assert lad.n0 == 1
    assert lad.validate()


def test_ladder_p3_unit_interiors():
    lad = valuation_ladder(3, {1: 1, 2: 1}, 3)
    assert lad.valuations() == [Fraction(1, 2), Fraction(1, 6), Fraction(1, 18)]
    assert lad.n0 == 1


def test_ladder_p3_m3():
    lad = valuation_ladder(3, {1: 3, 2: 2}, 4)
    assert lad.valuations() == [
        Fraction(3, 2),
        Fraction(1, 2),
        Fraction(1, 6),
        Fraction(1, 18),
    ]
    assert lad.denominators() == [2, 2, 6, 18]
    assert lad.n0 == 2
    assert lad.validate()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ladder_m1_closed_form(p):
    lad = valuation_ladder(p, {1: 1}, 6)
    for n, v in enumerate(lad.valuations(), start=1):
        assert v == Fraction(1, p ** (n - 1) * (p - 1))
    assert lad.n0 == 1


def test_ladder_rejects_bad_input():
    with pytest.raises(ComputationError):
        valuation_ladder(3, {1: 1}, 0)
    with pytest.raises(ComputationError):
        valuation_ladder(3, {2: 1}, 2)  # v(c_1) must be finite
    with pytest.raises(ComputationError):
        valuation_ladder(3, {1: 0}, 2)


# -- oracle verification ---------------------------------------------------------


def test_verify_igusa_curve_two_levels(igusa_curve):
    h2 = p_decomposition(igusa_curve)
    lad = h2.ladder(4)
    report = verify_ladder(igusa_curve, lad, levels=2)
    assert report.multisets == (
        ((Fraction(1), 1),),
        ((Fraction(1, 2), 2),),
    )


def test_verify_synthetic_p3_one_level():
    coeffs = [PuiseuxSeries.zero(F3)] * 10
    coeffs[3] = t(F3)
    coeffs[9] = PuiseuxSeries.one(F3)
    h2 = p_series_decomposition(CoefficientSeries(F3, coeffs, None), 3)
    lad = h2.ladder(2)
    report = verify_tower(h2, lad, levels=1)
    assert report.multisets == (((Fraction(1, 2), 2),),)


def test_verify_detects_corrupted_ladder(igusa_curve):
    h2 = p_decomposition(igusa_curve)
    lad = h2.ladder(2)
    bad_level = LadderLevel(1, Fraction(7), 1, ((Fraction(7), 1),))
    bad = ValuationLadder(p=2, levels=(bad_level,) + lad.levels[1:], n0=1)
    with pytest.raises(LadderMismatchError):
        verify_ladder(igusa_curve, bad, levels=1)


def test_verify_m_gt_one_synthetic_level():
    # interior profile {c_1: 3, c_2: 2} realised by h = u^3 + t^2 u^2 + 2 t^3 u
    coeffs = [
        PuiseuxSeries.zero(F3),
        t(F3, 3, 2),
        t(F3, 2),
        PuiseuxSeries.one(F3),
    ]
    h = CoefficientSeries(F3, coeffs, None)
    series = [PuiseuxSeries.zero(F3)] * 10
    for j, c in enumerate(h.coeffs):
        series[3 * j] = c
    h2 = p_series_decomposition(CoefficientSeries(F3, series, None), 3)
    assert h2.m == 3
    assert h2.interior == {1: 3, 2: 2}
    lad = h2.ladder(4)
    assert lad.valuations() == [
        Fraction(3, 2),
        Fraction(1, 2),
        Fraction(1, 6),
        Fraction(1, 18),
    ]
    assert lad.n0 == 2
    report = verify_tower(h2, lad, levels=1)
    assert report.multisets == (((Fraction(3, 2), 2),),)
