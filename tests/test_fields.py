import itertools
import pickle
import random

import pytest

from monodromy_lab import ComputationError, FiniteField, fields


def test_prime_field_arithmetic():
    F5 = FiniteField(5)
    a = F5.element(2)
    b = F5.element(4)
    assert a + b == F5.element(1)
    assert a * b == F5.element(3)
    assert (a - b) == F5.element(3)
    assert a.inverse() * a == F5.one()


def test_nonprime_characteristic_rejected():
    with pytest.raises(ComputationError):
        FiniteField(6)


def test_reducible_modulus_rejected():
    # u^2 + 1 = (u+1)^2 over F_2
    with pytest.raises(ComputationError):
        FiniteField(2, [1, 0, 1])


def test_f4_multiplication_table():
    # F_4 = F_2[u]/(u^2+u+1)
    F4 = FiniteField(2, [1, 1, 1])
    u = F4.generator()
    assert u * u == u + F4.one()
    assert u ** 3 == F4.one()
    assert u.inverse() == u * u


@pytest.mark.parametrize(
    "field",
    [FiniteField(2), FiniteField(5), FiniteField(2, [1, 1, 1]), FiniteField(3, [1, 0, 1])],
)
def test_qth_power_fixes_everything(field):
    q = field.order
    for x in field.elements():
        assert x ** q == x
        if x:
            assert x * x.inverse() == field.one()


def test_frobenius_inverse_roundtrip():
    F9 = FiniteField(3, [1, 0, 1])  # u^2 + 1 irreducible over F_3
    for x in F9.elements():
        assert x.frobenius_inverse() ** 3 == x
        assert (x ** 3).frobenius_inverse() == x


def test_field_equality_is_structural():
    assert FiniteField(2, [1, 1, 1]) == FiniteField(2, [1, 1, 1])
    assert FiniteField(2) != FiniteField(3)


def _trial_division_irreducible(p, modulus):
    """Reference verdict: no monic polynomial of degree 1..r/2 divides pi."""
    r = len(modulus) - 1
    for d in range(1, r // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            rem = list(modulus)
            divisor = list(low) + [1]
            for i in range(r, d - 1, -1):
                c = rem[i]
                for j in range(d + 1):
                    rem[i - d + j] = (rem[i - d + j] - c * divisor[j]) % p
            if not any(rem[:d]):
                return False
    return True


def _accepted(p, modulus):
    try:
        FiniteField(p, modulus)
    except ComputationError as exc:
        assert "reducible" in str(exc)
        return False
    return True


def test_degree_17_reducible_modulus_rejected():
    # x^17 + 1 has the root 1 over F_2
    with pytest.raises(ComputationError, match="reducible"):
        FiniteField(2, [1] + [0] * 16 + [1])


def test_degree_17_irreducible_modulus_accepted():
    modulus = [1, 0, 0, 1] + [0] * 13 + [1]  # x^17 + x^3 + 1
    assert _trial_division_irreducible(2, modulus)
    field = FiniteField(2, modulus)
    assert field.order == 2 ** 17
    u = field.generator()
    assert u ** field.order == u


def test_product_of_two_degree_7_factors_refused_as_reducible():
    # (x^7 - x - 1)(x^7 - x - 2) over F_7, degree 14
    a, b = [6, 6, 0, 0, 0, 0, 0, 1], [5, 6, 0, 0, 0, 0, 0, 1]
    product = [0] * 15
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            product[i + j] = (product[i + j] + x * y) % 7
    with pytest.raises(ComputationError, match="reducible over F_7"):
        FiniteField(7, product)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_every_small_modulus_matches_trial_division(p, r):
    for low in itertools.product(range(p), repeat=r):
        modulus = list(low) + [1]
        assert _accepted(p, modulus) == _trial_division_irreducible(p, modulus), modulus


# ---------------------------------------------------------------------------
# interning


def test_fields_are_interned_by_reduced_modulus():
    assert FiniteField(3, [4, 3, 1]) is FiniteField(3, [1, 0, 1])
    assert FiniteField(5) is FiniteField(5, [0, 1])


def test_reducible_modulus_is_refused_on_every_call():
    for _ in range(2):
        with pytest.raises(ComputationError, match="reducible"):
            FiniteField(3, [2, 0, 1])  # u^2 - 1 = (u - 1)(u + 1)


def test_nonprime_characteristic_is_refused_and_never_cached():
    for _ in range(2):
        with pytest.raises(ComputationError, match="not prime"):
            FiniteField(9, [0, 1])
    assert not any(p == 9 for p, _ in fields._FIELDS)


def test_elements_of_separately_constructed_equal_fields_mix():
    u = FiniteField(3, [1, 0, 1]).generator()
    w = FiniteField(3, [4, 0, 1]).element([1, 1])  # 1 + u
    assert (u + w).coords == (1, 2)
    assert (u * w).coords == (2, 1)  # u + u^2 = u - 1


def test_pickled_field_is_the_interned_instance():
    F9 = FiniteField(3, [1, 0, 1])
    assert pickle.loads(pickle.dumps(F9)) is F9
    x = pickle.loads(pickle.dumps(F9.element([2, 1])))
    assert x.field is F9 and x == F9.element([2, 1])


def _reference_mul(field, a, b):
    """Schoolbook product of two coordinate tuples modulo pi."""
    p, r, pi = field.p, field.degree, field.modulus
    prod = [0] * (2 * r - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for i in range(len(prod) - 1, r - 1, -1):
        c = prod[i]
        for j in range(r + 1):
            prod[i - r + j] -= c * pi[j]
    return tuple(c % p for c in prod[:r])


@pytest.mark.parametrize(
    "p, modulus",
    [(2, [1, 1, 1]), (2, [1, 1, 0, 1]), (3, [1, 0, 1]), (3, [1, 2, 0, 1]), (5, [2, 0, 1])],
)
def test_table_arithmetic_matches_schoolbook(p, modulus):
    field = FiniteField(p, modulus)
    elems = list(field.elements())
    for a in elems:
        assert (-a).coords == tuple(-c % p for c in a.coords)
        if a:
            assert a * a.inverse() == field.one()
        for b in elems:
            assert (a + b).coords == tuple((x + y) % p for x, y in zip(a.coords, b.coords))
            assert (a * b).coords == _reference_mul(field, a.coords, b.coords)


def test_large_field_digit_arithmetic_matches_schoolbook():
    field = FiniteField(2, [1, 0, 0, 1] + [0] * 13 + [1])  # q = 2^17, no tables
    rng = random.Random(17)
    for _ in range(50):
        a = field.element([rng.randrange(2) for _ in range(17)])
        b = field.element([rng.randrange(2) for _ in range(17)])
        assert (a * b).coords == _reference_mul(field, a.coords, b.coords)
        assert (a + b).coords == tuple(x ^ y for x, y in zip(a.coords, b.coords))
