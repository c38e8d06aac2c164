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
from monodromy_lab.polynomials import (
    CoefficientSeries,
    newton_polygon,
    puiseux_roots,
    root_valuations,
    truncated_product,
    truncated_unit_inverse,
    weierstrass_prepare,
)

F2 = FiniteField(2)
F3 = FiniteField(3)
F5 = FiniteField(5)


def t(field, e=1, c=1):
    return PuiseuxSeries.t_power(field, Fraction(e), c)


def one(field):
    return PuiseuxSeries.one(field)


def zero(field):
    return PuiseuxSeries.zero(field)


# -- truncated-product kernel -----------------------------------------------


def test_unit_inverse_with_ramified_coefficients():
    half = t(F3, Fraction(1, 2))
    unit = {
        (0, 0): one(F3),
        (1, 0): half,
        (0, 1): half + t(F3, Fraction(3, 2), 2),
        (2, 0): -half,
        (1, 1): t(F3).truncate(5),
    }
    inv = truncated_unit_inverse(unit, 6)
    assert max(v.n_ram for v in inv.values()) == 2
    assert max(sum(k) for k in inv) == 6
    prod = truncated_product(unit, inv, 6)
    assert all(sum(k) <= 6 for k in prod)
    assert prod[(0, 0)].agrees_with(one(F3))
    for k, v in prod.items():
        if k != (0, 0):
            assert not v.known_nonzero, (k, v)


@pytest.mark.parametrize(
    "constant",
    [PuiseuxSeries.constant(F3, 2), one(F3).truncate(4), one(F3) + t(F3), None],
    ids=["two", "one-at-precision", "one-plus-t", "missing"],
)
def test_unit_inverse_refuses_constant_other_than_one(constant):
    unit = {(1,): t(F3)}
    if constant is not None:
        unit[(0,)] = constant
    with pytest.raises(ComputationError):
        truncated_unit_inverse(unit, 4)


def test_product_x_truncation_rule():
    # x_trunc = min(X_a + ord b, X_b + ord a), an exact operand counting as X = inf
    a = CoefficientSeries(F3, [zero(F3), one(F3), t(F3)], x_trunc=4)
    b = CoefficientSeries(F3, [zero(F3), zero(F3), one(F3), t(F3)])
    c = CoefficientSeries(F3, [zero(F3), zero(F3), one(F3)], x_trunc=3)
    for prod in (a * b, b * a):
        assert prod.x_trunc == 4 + 2
        assert len(prod.coeffs) == 7
        assert prod.coefficient(3).agrees_with(one(F3))
        assert prod.coefficient(5).agrees_with(t(F3, 2))
    assert (a * c).x_trunc == (c * a).x_trunc == min(4 + 2, 3 + 1)
    assert (b * b).x_trunc is None and (b * b).degree() == 6


# -- Newton polygons ---------------------------------------------------------


def test_polygon_single_segment():
    poly = newton_polygon([(0, 1), (2, 0)])
    assert poly.vertices == ((0, 1), (2, 0))
    assert len(poly.segments) == 1
    assert poly.segments[0].slope == Fraction(-1, 2)
    assert poly.segments[0].length == 2
    assert poly.verify()


def test_polygon_interior_point_above():
    poly = newton_polygon([(1, 1), (3, 0), (2, 1)])
    assert poly.vertices == ((1, 1), (3, 0))
    assert poly.hull_value(2) == Fraction(1, 2)
    assert poly.verify()


def test_polygon_degenerate():
    poly = newton_polygon([(0, 0)])
    assert poly.is_degenerate
    with pytest.raises(ComputationError):
        root_valuations(poly)


def test_polygon_duplicate_indices():
    with pytest.raises(ComputationError):
        newton_polygon([(0, 1), (0, 2)])


def test_polygon_collinear_points_are_not_vertices():
    poly = newton_polygon([(0, 2), (1, 1), (2, 0)])
    assert poly.vertices == ((0, 2), (2, 0))
    assert poly.collinear == ((1, 1),)
    assert poly.verify()


def test_root_valuations_examples():
    assert root_valuations(newton_polygon([(0, 1), (2, 0)])) == [(Fraction(1, 2), 2)]
    # p=3, m=1 first level with the nonzero-torsion points
    assert root_valuations(newton_polygon([(1, 1), (3, 0)])) == [(Fraction(1, 2), 2)]
    assert root_valuations(newton_polygon([(0, 1), (1, 5), (2, 0)])) == [
        (Fraction(1, 2), 2)
    ]


def test_polygon_unknown_bounds():
    # unknown coefficient safely above the hull is fine
    newton_polygon([(0, 1), (2, 0)], unknown_bounds=[(1, Fraction(3))])
    # bound below the hull: the hull could change
    with pytest.raises(PrecisionError):
        newton_polygon([(0, 1), (2, 0)], unknown_bounds=[(1, Fraction(1, 4))])
    # bound exactly on the hull: fine for the hull, rejected in strict mode
    newton_polygon([(0, 1), (2, 0)], unknown_bounds=[(1, Fraction(1, 2))])
    with pytest.raises(PrecisionError):
        newton_polygon(
            [(0, 1), (2, 0)], unknown_bounds=[(1, Fraction(1, 2))], strict=True
        )
    # unknown index outside the known span can always move the hull
    with pytest.raises(PrecisionError):
        newton_polygon([(1, 1), (2, 0)], unknown_bounds=[(0, Fraction(10))])


def test_polygon_against_naive_check_randomised():
    rng = random.Random(99)
    for _ in range(200):
        k = rng.randrange(1, 9)
        idx = rng.sample(range(12), k)
        pts = [(i, Fraction(rng.randrange(-6, 12), rng.choice((1, 2, 3)))) for i in idx]
        poly = newton_polygon(pts)
        assert poly.verify()
        assert sum(s.length for s in poly.segments) == max(idx) - min(idx)


# -- Weierstrass preparation --------------------------------------------------


def test_prepare_already_distinguished():
    f = CoefficientSeries(F2, [zero(F2), zero(F2), zero(F2), one(F2)])
    prep = weierstrass_prepare(f, precision=8)
    assert prep.degree == 3
    assert prep.distinguished.agrees_with(f)
    assert prep.unit.coefficient(0).agrees_with(one(F2))


def test_prepare_x_plus_tx2():
    # f = x + t x^2: degree mod t is 1
    f = CoefficientSeries(F2, [zero(F2), one(F2), t(F2)], x_trunc=5)
    prep = weierstrass_prepare(f, precision=12)
    assert prep.degree == 1
    product = prep.unit * prep.distinguished
    assert product.agrees_with(f)
    # h = x + c0 with v(c0) > 0 (here c0 dies: f = x(1 + tx), so h = x)
    assert prep.distinguished.coefficient(0).valuation_lower_bound() > 0


def test_prepare_constructed_product():
    # f = (1+t)(x^2 + t x + t^2), expanded
    u = PuiseuxSeries.from_terms(F5, {0: 1, 1: 1})
    f = CoefficientSeries(F5, [u * t(F5, 2), u * t(F5), u], x_trunc=4)
    prep = weierstrass_prepare(f, precision=10)
    assert prep.degree == 2
    assert prep.distinguished.coefficient(0).agrees_with(t(F5, 2))
    assert prep.distinguished.coefficient(1).agrees_with(t(F5))
    assert prep.unit.coefficient(0).agrees_with(u)
    for i in range(1, 3):
        assert not prep.unit.coefficient(i).known_nonzero
    assert (prep.unit * prep.distinguished).agrees_with(f)


def test_prepare_zero_mod_m_errors():
    f = CoefficientSeries(F2, [t(F2), t(F2, 2)])
    with pytest.raises(ComputationError):
        weierstrass_prepare(f, precision=4)


def test_prepare_degree_beyond_truncation_errors():
    f = CoefficientSeries(F2, [t(F2), t(F2)], x_trunc=1)
    with pytest.raises(ComputationError):
        weierstrass_prepare(f, precision=4)


def test_prepare_identity_randomised():
    rng = random.Random(404)
    for _ in range(60):
        field = rng.choice((F2, F3, F5))
        d = rng.randrange(1, 4)
        X = d + rng.randrange(1, 4)
        coeffs = []
        for i in range(X + 1):
            terms = {}
            lo = 0 if i >= d else 1
            for e in range(lo, 5):
                c = rng.randrange(field.p)
                if c:
                    terms[e] = c
            if i == d and 0 not in terms:
                terms[0] = 1
            coeffs.append(PuiseuxSeries.from_terms(field, terms))
        f = CoefficientSeries(field, coeffs, x_trunc=X)
        prep = weierstrass_prepare(f, precision=10)
        assert prep.degree == d
        assert (prep.unit * prep.distinguished).agrees_with(f)


# -- Puiseux roots ------------------------------------------------------------


def test_roots_x2_minus_t_over_f3():
    f = CoefficientSeries(F3, [-t(F3), zero(F3), one(F3)])
    roots = puiseux_roots(f, target_precision=4)
    assert sorted(r.valuation for r in roots) == [Fraction(1, 2), Fraction(1, 2)]
    for r in roots:
        assert r.expansion is not None
        assert r.expansion.n_ram == 2
        square = r.expansion * r.expansion
        assert square.agrees_with(t(F3))


def test_roots_x2_plus_tx_over_f2():
    f = CoefficientSeries(F2, [zero(F2), t(F2), one(F2)])
    roots = puiseux_roots(f, target_precision=6)
    vals = sorted((r.valuation, r.multiplicity) for r in roots)
    assert vals == [(1, 1), (INFINITY, 1)]
    nonzero = [r for r in roots if r.valuation == 1][0]
    assert nonzero.expansion.agrees_with(t(F2))


def test_roots_constructed_product_over_f5():
    # (x - t)(x - t^2) = x^2 - (t + t^2) x + t^3
    f = CoefficientSeries(
        F5,
        [t(F5, 3), -(t(F5) + t(F5, 2)), one(F5)],
    )
    roots = puiseux_roots(f, target_precision=6)
    assert sorted(r.valuation for r in roots) == [1, 2]
    for r in roots:
        want = t(F5) if r.valuation == 1 else t(F5, 2)
        assert r.expansion.agrees_with(want, below=6)


def test_roots_valuation_only_when_residue_root_missing():
    # x^2 + t over F_3: residual z^2 = -1 = 2 has no root in F_3
    f = CoefficientSeries(F3, [t(F3), zero(F3), one(F3)])
    roots = puiseux_roots(f, target_precision=4)
    assert len(roots) == 1
    assert roots[0].valuation == Fraction(1, 2)
    assert roots[0].multiplicity == 2
    assert roots[0].expansion is None
    with pytest.raises(ComputationError):
        puiseux_roots(f, target_precision=4, require_expansions=True)


def test_roots_double_root_expands():
    # (x - t)^2 = x^2 - 2t x + t^2 over F_5
    f = CoefficientSeries(F5, [t(F5, 2), t(F5).scale(-2), one(F5)])
    roots = puiseux_roots(f, target_precision=5)
    assert sum(r.multiplicity for r in roots) == 2
    for r in roots:
        assert r.valuation == 1
        assert r.expansion.agrees_with(t(F5), below=5)


def test_roots_oracle_vs_polygon_randomised():
    rng = random.Random(2718)
    for _ in range(60):
        field = rng.choice((F2, F3, F5))
        deg = rng.randrange(1, 4)
        exps = sorted(rng.randrange(0, 5) for _ in range(deg))
        # product of (x - u_i t^{a_i}) with unit u_i
        poly = CoefficientSeries(field, [one(field)])
        for a in exps:
            u = rng.randrange(1, field.p)
            lin = CoefficientSeries(field, [t(field, a, u).scale(field.p - 1), one(field)])
            poly = poly * lin
        pts = [
            (i, c.valuation())
            for i, c in enumerate(poly.coeffs)
            if c.known_nonzero
        ]
        multiset = {}
        for v, m in root_valuations(newton_polygon(pts)):
            multiset[v] = multiset.get(v, 0) + m
        expected = {}
        for a in exps:
            expected[Fraction(a)] = expected.get(Fraction(a), 0) + 1
        assert multiset == expected
        roots = puiseux_roots(poly, target_precision=8)
        got = {}
        for r in roots:
            got[r.valuation] = got.get(r.valuation, 0) + r.multiplicity
        assert got == expected


def test_roots_precision_exhaustion_is_loud():
    # constant coefficient only known to O(t^1): the hull is not certified
    c0 = PuiseuxSeries.zero_at_precision(F3, 1)
    f = CoefficientSeries(F3, [c0, one(F3)])
    with pytest.raises(PrecisionError):
        puiseux_roots(f, target_precision=4)
