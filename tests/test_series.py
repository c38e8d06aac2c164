import math
import random
from fractions import Fraction

import pytest

from monodromy_lab import (
    ComputationError,
    FiniteField,
    FiniteFieldElement,
    INFINITY,
    PrecisionError,
    PuiseuxSeries,
)
from monodromy_lab.series import dense_unit_inverse

F2 = FiniteField(2)
F3 = FiniteField(3)
F5 = FiniteField(5)


def t(field, e=1, c=1):
    return PuiseuxSeries.t_power(field, Fraction(e), c)


def test_monomial_product():
    assert t(F2) * t(F2) == t(F2, 2)


def test_shift_is_the_product_with_a_monomial():
    F4 = FiniteField(2, [1, 1, 1])
    series = [
        PuiseuxSeries(F3, {0: 1, 1: 2, 4: 1}, n_ram=2, trunc=Fraction(5, 2)),
        PuiseuxSeries(F3, {1: 1, 2: 2}, n_ram=3),
        PuiseuxSeries(F4, {0: [0, 1], 3: [1, 1]}, trunc=4),
        PuiseuxSeries.zero_at_precision(F3, Fraction(7, 3)),
        PuiseuxSeries.zero(F3),
    ]
    for s in series:
        for e in (0, 2, Fraction(1, 2), Fraction(-5, 6), Fraction(3, 4)):
            want = s * PuiseuxSeries.t_power(s.field, e)
            assert s.shift(e) == want, (s, e)


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


# ---------------------------------------------------------------------------
# the int-coded kernel against a schoolbook reference over field elements

F4 = FiniteField(2, [1, 1, 1])
F9 = FiniteField(3, [1, 0, 1])
F25 = FiniteField(5, [2, 0, 1])
F2_17 = FiniteField(2, [1, 0, 0, 1] + [0] * 13 + [1])


def _ref_terms(terms, trunc):
    """Drop zero coefficients and those at or above ``trunc``."""
    return {e: c for e, c in terms.items() if c and (trunc is None or e < trunc)}


def _ref_mul(a, b):
    """The product rule spelled out term by term on FiniteFieldElements."""
    ta, tb = dict(a.terms()), dict(b.terms())
    if (not ta and a.trunc is None) or (not tb and b.trunc is None):
        return {}, None
    va = min(ta) if ta else a.trunc
    vb = min(tb) if tb else b.trunc
    bounds = []
    if b.trunc is not None:
        bounds.append(va + b.trunc)
    if a.trunc is not None:
        bounds.append(vb + a.trunc)
    trunc = min(bounds) if bounds else None
    out = {}
    for e1, c1 in ta.items():
        for e2, c2 in tb.items():
            e = e1 + e2
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return _ref_terms(out, trunc), trunc


def _ref_add(a, b):
    trunc = min((t for t in (a.trunc, b.trunc) if t is not None), default=None)
    out = dict(a.terms())
    for e, c in b.terms():
        out[e] = out[e] + c if e in out else c
    return _ref_terms(out, trunc), trunc


def _ref_unit_inverse(a, m):
    """The first m coefficients of 1/a by the plain recurrence."""
    inv0 = a[0].inverse()
    b = [inv0]
    for k in range(1, m):
        acc = a[0].field.zero()
        for j in range(1, min(k, len(a) - 1) + 1):
            acc = acc + a[j] * b[k - j]
        b.append(-(inv0 * acc))
    return b


def _ref_invert(a):
    """1/a below T - 2v, on a's grid, for a truncated a with a known term."""
    terms = dict(a.terms())
    v = min(terms)
    trunc = a.trunc - 2 * v
    n = a.n_ram
    m = max(0, math.ceil((trunc + v) * n))
    zero = a.field.zero()
    unit = [terms.get(v + Fraction(k, n), zero) for k in range(m)]
    inv = _ref_unit_inverse(unit, m) if m else []
    return _ref_terms({Fraction(k, n) - v: c for k, c in enumerate(inv)}, trunc), trunc


def _kernel_random_series(rng, field, trunc):
    n = rng.choice((1, 2, 3))
    terms = {}
    for _ in range(rng.randrange(1, 7)):
        e = Fraction(rng.randrange(0, 4 * n), n)
        terms[e] = field.element([rng.randrange(field.p) for _ in range(field.degree)])
    return PuiseuxSeries.from_terms(field, terms, trunc=trunc)


def _assert_matches(series, ref):
    terms, trunc = ref
    assert dict(series.terms()) == terms
    assert series.trunc == trunc
    n = 1
    for e in terms:
        n = n * e.denominator // math.gcd(n, e.denominator)
    assert series.n_ram == n


@pytest.mark.parametrize("field", [F2, F5, F4, F9], ids=repr)
def test_kernel_matches_schoolbook_reference(field):
    rng = random.Random(31 * field.order)
    truncs = (None, None, Fraction(3), Fraction(7, 2), Fraction(8, 3))
    ramified = set()
    for _ in range(120):
        a = _kernel_random_series(rng, field, rng.choice(truncs))
        b = _kernel_random_series(rng, field, rng.choice(truncs))
        ramified.update((a.n_ram, b.n_ram))
        _assert_matches(a * b, _ref_mul(a, b))
        _assert_matches(a + b, _ref_add(a, b))
        if a.known_nonzero:
            a_t = a if a.trunc is not None else a.truncate(Fraction(6))
            _assert_matches(a_t.invert(), _ref_invert(a_t))
    assert {2, 3} <= ramified


@pytest.mark.parametrize("field", [F2, F5, F4, F9], ids=repr)
def test_dense_unit_inverse_matches_reference(field):
    rng = random.Random(field.order)
    for _ in range(30):
        length = rng.randrange(1, 9)
        a = [field.element([rng.randrange(field.p) for _ in range(field.degree)])
             for _ in range(length)]
        if not a[0]:
            a[0] = field.one()
        m = rng.randrange(0, 12)
        got = dense_unit_inverse(field, [c.code for c in a], m)
        want = _ref_unit_inverse(a, m) if m else []
        assert [FiniteFieldElement(field, c) for c in got] == want


def test_kernel_product_over_a_field_without_tables():
    rng = random.Random(2 ** 17)

    def coeff():
        return F2_17.element([rng.randrange(2) for _ in range(17)])

    a = PuiseuxSeries.from_terms(F2_17, {0: coeff(), Fraction(1, 2): coeff(), 2: coeff()})
    b = PuiseuxSeries.from_terms(F2_17, {1: coeff(), Fraction(3, 2): coeff()}, trunc=4)
    _assert_matches(a * b, _ref_mul(a, b))
    _assert_matches(a + b, _ref_add(a, b))


@pytest.mark.parametrize("field", [F4, F9, F25], ids=repr)
def test_coords_and_repr_are_the_digits_of_the_code(field):
    p = field.p
    for x in field.elements():
        digits = tuple(x.code // p ** i % p for i in range(field.degree))
        assert x.coords == digits
        parts = []
        for i in range(field.degree - 1, -1, -1):
            c = digits[i]
            if c:
                mono = "" if i == 0 else "u" if i == 1 else "u^%d" % i
                if not mono:
                    parts.append(str(c))
                else:
                    parts.append(mono if c == 1 else "%d*%s" % (c, mono))
        assert repr(x) == ("+".join(parts) or "0")
        assert field.element(list(digits)) == x
