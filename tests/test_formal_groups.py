import random
from fractions import Fraction

import pytest

from monodromy_lab import (
    ComputationError,
    FiniteField,
    GenericSupersingularError,
    INFINITY,
    LadderMismatchError,
    NotHeightTwoError,
    PuiseuxSeries,
)
from monodromy_lab.formal_groups import (
    FormalGroupLaw,
    LadderLevel,
    ValuationLadder,
    WeierstrassModel,
    ec_formal_group,
    p_decomposition,
    p_series_decomposition,
    valuation_ladder,
    verify_ladder,
    verify_tower,
)
from monodromy_lab.polynomials import CoefficientSeries

F2 = FiniteField(2)
F3 = FiniteField(3)
F5 = FiniteField(5)


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
