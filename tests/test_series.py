import random
from fractions import Fraction

import pytest

from monodromy_lab import (
    ComputationError,
    FiniteField,
    INFINITY,
    PrecisionError,
    PuiseuxSeries,
)

F2 = FiniteField(2)
F3 = FiniteField(3)
F5 = FiniteField(5)


def t(field, e=1, c=1):
    return PuiseuxSeries.t_power(field, Fraction(e), c)


def test_monomial_product():
    assert t(F2) * t(F2) == t(F2, 2)


def test_freshmans_dream_char2():
    a = PuiseuxSeries.from_terms(F2, {0: 1, 1: 1})  # 1 + t
    sq = a * a
    assert sq == PuiseuxSeries.from_terms(F2, {0: 1, 2: 1})


def test_half_exponents_multiply():
    half = t(F2, Fraction(1, 2))
    assert half.n_ram == 2
    prod = half * half
    assert prod == t(F2)
    assert prod.n_ram == 1


def test_characteristic_mismatch():
    with pytest.raises(ComputationError):
        t(F2) * t(F3)


def test_invert_geometric_series():
    a = PuiseuxSeries.from_terms(F2, {0: 1, 1: 1}, trunc=4)  # 1+t at T=4
    inv = a.invert()
    expected = PuiseuxSeries.from_terms(F2, {0: 1, 1: 1, 2: 1, 3: 1}, trunc=4)
    assert inv == expected
    assert (a * inv).agrees_with(PuiseuxSeries.one(F2))


def test_invert_monomial_is_exact():
    inv = t(F2).invert()
    assert inv == t(F2, -1)
    assert inv.is_exact


def test_invert_2_plus_t_over_f5():
    a = PuiseuxSeries.from_terms(F5, {0: 2, 1: 1}, trunc=2)
    inv = a.invert()
    # (2+t)(3+t) = 6+5t+t^2 = 1 mod 5 below T=2
    assert inv == PuiseuxSeries.from_terms(F5, {0: 3, 1: 1}, trunc=2)
    assert (a * inv).agrees_with(PuiseuxSeries.one(F5))


def test_invert_zero_states():
    with pytest.raises(ZeroDivisionError):
        PuiseuxSeries.zero(F2).invert()
    with pytest.raises(PrecisionError):
        PuiseuxSeries.zero_at_precision(F2, 4).invert()


def test_valuation_basics():
    a = PuiseuxSeries.from_terms(F2, {3: 1, 5: 1})
    assert a.valuation() == 3
    b = PuiseuxSeries.from_terms(F2, {Fraction(1, 2): 1, 1: 1})
    assert b.valuation() == Fraction(1, 2)
    assert PuiseuxSeries.zero(F2).valuation() == INFINITY


def test_valuation_zero_at_precision_is_explicit():
    z = PuiseuxSeries.zero_at_precision(F2, 10)
    with pytest.raises(PrecisionError):
        z.valuation()
    assert z.valuation_lower_bound() == 10


def test_pth_root_monomials():
    assert t(F2).pth_root() == t(F2, Fraction(1, 2))
    assert t(F2, 2).pth_root() == t(F2)


def test_pth_root_mixed_exponents():
    # (1+t)^2 + t^3 = 1 + t^2 + t^3 over F_2
    a = PuiseuxSeries.from_terms(F2, {0: 1, 2: 1, 3: 1})
    r = a.pth_root()
    assert r == PuiseuxSeries.from_terms(F2, {0: 1, 1: 1, Fraction(3, 2): 1})
    assert (r * r).agrees_with(a)


def test_pth_root_in_extension_field():
    F4 = FiniteField(2, [1, 1, 1])
    u = F4.generator()
    a = PuiseuxSeries.from_terms(F4, {1: u})
    r = a.pth_root()
    assert (r * r).agrees_with(a)


def test_truncation_rule_for_products():
    a = PuiseuxSeries.from_terms(F2, {1: 1}, trunc=5)   # t + O(t^5)
    b = PuiseuxSeries.from_terms(F2, {2: 1}, trunc=7)   # t^2 + O(t^7)
    prod = a * b
    # min(v(a)+T_b, v(b)+T_a) = min(1+7, 2+5) = 7
    assert prod.trunc == 7
    assert prod == PuiseuxSeries.from_terms(F2, {3: 1}, trunc=7)


def test_exact_zero_times_anything_is_exact_zero():
    z = PuiseuxSeries.zero(F2)
    assert (z * t(F2)).is_exact_zero


def test_zero_at_precision_propagates():
    z = PuiseuxSeries.zero_at_precision(F2, 4)
    prod = t(F2, 2) * z
    assert prod.is_zero_at_precision
    assert prod.trunc == 6


def _random_series(rng, field, max_terms=4, trunc=None):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        e = Fraction(rng.randrange(0, 8), rng.choice((1, 1, 2)))
        c = rng.randrange(field.order)
        if c:
            terms[e] = field.element(list(_int_coords(c, field)))
    try:
        return PuiseuxSeries.from_terms(field, terms, trunc=trunc)
    except ComputationError:
        return PuiseuxSeries.zero(field)


def _int_coords(code, field):
    for _ in range(field.degree):
        yield code % field.p
        code //= field.p


@pytest.mark.parametrize("field", [F2, F3, FiniteField(2, [1, 1, 1]), F5])
def test_ring_axioms_randomised(field):
    rng = random.Random(20240 + field.order)
    for _ in range(60):
        a = _random_series(rng, field, trunc=rng.choice((None, 10)))
        b = _random_series(rng, field)
        c = _random_series(rng, field)
        assert ((a * b) * c).agrees_with(a * (b * c))
        assert (a * b).agrees_with(b * a)
        assert (a * (b + c)).agrees_with(a * b + a * c)
        assert (a + b).agrees_with(b + a)


def test_invert_is_involutive_and_inverse():
    rng = random.Random(7)
    for _ in range(40):
        a = _random_series(rng, F3, trunc=12)
        if not a.known_nonzero:
            continue
        inv = a.invert()
        assert (a * inv).agrees_with(PuiseuxSeries.one(F3))
        assert inv.invert().agrees_with(a)


def test_pth_root_power_roundtrip_randomised():
    rng = random.Random(11)
    for field in (F2, F3):
        p = field.p
        for _ in range(40):
            a = _random_series(rng, field)
            r = a.pth_root()
            assert (r ** p).agrees_with(a)


def test_valuation_additivity():
    rng = random.Random(13)
    for _ in range(60):
        a = _random_series(rng, F5)
        b = _random_series(rng, F5)
        if not (a.known_nonzero and b.known_nonzero):
            continue
        assert (a * b).valuation() == a.valuation() + b.valuation()
