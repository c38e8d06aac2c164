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
from monodromy_lab.polynomials import (
    CoefficientSeries,
    NewtonPolygon,
    Segment,
    _substitute,
    newton_polygon,
    pack,
    packed_grid,
    packed_unit_inverse,
    puiseux_roots,
    root_valuations,
    truncated_product,
    truncated_unit_inverse,
    unpack,
    weierstrass_prepare,
)

F2 = FiniteField(2)
F3 = FiniteField(3)
F5 = FiniteField(5)
F4 = FiniteField(2, [1, 1, 1])
F9 = FiniteField(3, [1, 0, 1])


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


@pytest.mark.parametrize("field", [F2, F4, F3, F9, F5], ids=["F2", "F4", "F3", "F9", "F5"])
def test_packed_unit_inverse_equals_the_tuple_keyed_inverse(field):
    rng = random.Random(field.order * 37 + 1)
    for _ in range(20):
        coeffs = [one(field)] + [
            _random_product_coefficient(rng, field) for _ in range(rng.randrange(1, 6))
        ]
        # the kernel packs integral series: shift each coefficient to t^0
        coeffs[1:] = [
            c if c.is_exact_zero or c.valuation_lower_bound() >= 0
            else c.shift(-c.valuation_lower_bound())
            for c in coeffs[1:]
        ]
        n = packed_grid(coeffs)
        terms = {(i,): c for i, c in enumerate(coeffs) if not c.is_exact_zero}
        got = unpack(field, packed_unit_inverse(field, pack(coeffs, n), 7), n)
        assert got == truncated_unit_inverse(terms, 7)


@pytest.mark.parametrize(
    "constant",
    [PuiseuxSeries.constant(F3, 2), one(F3).truncate(4), one(F3) + t(F3), zero(F3)],
    ids=["two", "one-at-precision", "one-plus-t", "missing"],
)
def test_packed_unit_inverse_refuses_constant_other_than_one(constant):
    with pytest.raises(ComputationError, match="constant term exactly 1"):
        packed_unit_inverse(F3, pack([constant, t(F3)], 1), 4)


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


def _random_product_coefficient(rng, field):
    """Exact zero, exact, truncated or zero at precision, with negative and
    ramified exponents and truncations off the ramification grid."""
    kind = rng.choice(("zero", "exact", "exact", "truncated", "at-precision"))
    if kind == "zero":
        return zero(field)
    if kind == "at-precision":
        return PuiseuxSeries.zero_at_precision(field, Fraction(rng.randrange(-4, 9), rng.choice((1, 2, 3))))
    n = rng.choice((1, 1, 2, 3, 6))
    terms = {
        Fraction(rng.randrange(-4 * n, 6 * n), n): field.element(rng.randrange(1, field.order))
        for _ in range(rng.randrange(1, 5))
    }
    c = PuiseuxSeries.from_terms(field, terms)
    if kind == "truncated":
        c = c.truncate(max(terms) + Fraction(rng.randrange(-2, 6), rng.choice((1, 2, 5))))
    return c


def _random_x_series(rng, field):
    coeffs = [_random_product_coefficient(rng, field) for _ in range(rng.randrange(1, 7))]
    x_trunc = rng.choice((None, None, len(coeffs) - 1, len(coeffs) + 1, max(0, len(coeffs) - 3)))
    return CoefficientSeries(field, coeffs, x_trunc)


@pytest.mark.parametrize("field", [F2, F4, F3, F9, F5], ids=["F2", "F4", "F3", "F9", "F5"])
def test_product_equals_the_tuple_keyed_product(field):
    # the x_trunc rule of CoefficientSeries.__mul__, then truncated_product
    # on the 1-tuple-keyed terms: the product it replaced
    rng = random.Random(field.order * 101 + 7)
    for _ in range(120):
        a, b = _random_x_series(rng, field), _random_x_series(rng, field)
        if a.is_polynomial and b.is_polynomial:
            xt, top = None, len(a.coeffs) + len(b.coeffs) - 2
        else:
            bounds = []
            for s, o in ((a, b), (b, a)):
                if s.x_trunc is not None:
                    ob = o.x_order_lower_bound()
                    bounds.append(s.x_trunc + (0 if ob is INFINITY else ob))
            xt = top = min(bounds)
        want = CoefficientSeries.from_terms(field, truncated_product(a.terms(), b.terms(), top), xt)
        got = a * b
        assert got.x_trunc == want.x_trunc
        # == on PuiseuxSeries compares codes, n_ram and the truncation
        assert got.coeffs == want.coeffs, (a, b)


def test_product_of_a_series_known_only_to_precision_with_a_long_one():
    # no codes on the left, more terms on the right than the kernel scans
    # unsorted, and an x-bound that cuts the product
    unknown = CoefficientSeries(F5, [PuiseuxSeries.zero_at_precision(F5, 3)] * 2, x_trunc=1)
    long = CoefficientSeries(F5, [t(F5, e % 4) for e in range(20)])
    got = unknown * long
    assert got.x_trunc == 1
    assert got.coeffs == (PuiseuxSeries.zero_at_precision(F5, 3),) * 2


def test_product_refuses_exponents_past_the_slot():
    # packed exponents run from each operand's least term, and every packed
    # exponent, the product's included, stays below 2**(SH - 1) = 2**19
    wide = CoefficientSeries(F5, [one(F5) + t(F5, 1 << 19)])
    with pytest.raises(ComputationError, match="t-exponent 524288 does not fit"):
        wide * wide
    half_wide = CoefficientSeries(F5, [one(F5) + t(F5, 1 << 18)])
    with pytest.raises(ComputationError, match="t-exponent 524288 does not fit"):
        half_wide * half_wide
    narrow = CoefficientSeries(F5, [t(F5, -(1 << 17)) + t(F5, (1 << 17) - 1)])
    assert (narrow * narrow).coefficient(0).agrees_with(
        t(F5, -(1 << 18)) + t(F5, -1, 2) + t(F5, (1 << 18) - 2)
    )


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


# The Fraction hull the integer grid replaced, kept as an oracle.


def _reference_cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _reference_on_hull(vertices, p):
    i, v = p
    for (i0, v0), (i1, v1) in zip(vertices, vertices[1:]):
        if i0 < i < i1 and (v - v0) * (i1 - i0) == (v1 - v0) * (i - i0):
            return True
    return False


def _reference_polygon(points, unknown_bounds=(), strict=False):
    pts = []
    seen = set()
    for i, v in points:
        i = int(i)
        if i in seen:
            raise ComputationError("duplicate index %d in polygon input" % i)
        seen.add(i)
        pts.append((i, Fraction(v)))
    if not pts:
        raise ComputationError("polygon needs at least one point")
    pts.sort()
    hull = []
    for p in pts:
        while len(hull) >= 2 and _reference_cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    vertices = tuple(hull)
    polygon = NewtonPolygon(
        vertices=vertices,
        segments=tuple(
            Segment(Fraction(v1 - v0, i1 - i0), i1 - i0)
            for (i0, v0), (i1, v1) in zip(hull, hull[1:])
        ),
        points=tuple(pts),
        collinear=tuple(
            p for p in pts if p not in vertices and _reference_on_hull(vertices, p)
        ),
    )
    for i, bound in unknown_bounds:
        i = int(i)
        bound = Fraction(bound)
        if i in seen:
            raise ComputationError("index %d both known and unknown" % i)
        if not (vertices[0][0] <= i <= vertices[-1][0]):
            raise PrecisionError("outside the known index span")
        h = polygon.hull_value(i)
        if bound < h or (strict and bound == h):
            raise PrecisionError("hull not certified", needed=h)
    return polygon


def _polygon_outcome(build, points, bounds, strict):
    try:
        poly = build(points, bounds, strict=strict)
    except ComputationError:
        return "ComputationError"
    except PrecisionError as exc:
        return ("PrecisionError", exc.needed)
    return poly.vertices, poly.segments, poly.points, poly.collinear


def _seeded_point_set(rng, shape):
    """(index, valuation) points of one shape; valuations mix int and Fraction."""

    def mixed(v):
        return int(v) if v.denominator == 1 and rng.random() < 0.5 else v

    idx = sorted(rng.sample(range(14), rng.randrange(2, 10)))
    if shape == "single":
        return [(rng.randrange(8), rng.randrange(-3, 6))]
    if shape == "equal":
        v = Fraction(rng.randrange(-6, 6), rng.choice((1, 2, 3)))
        return [(i, mixed(v)) for i in idx]
    if shape == "collinear":
        # a line, most points on it and the rest above
        slope = Fraction(rng.randrange(-6, 7), rng.choice((1, 2, 3, 4)))
        base = Fraction(rng.randrange(-4, 8), rng.choice((1, 2, 5)))
        pts = []
        for i in idx:
            v = base + slope * i
            if rng.random() < 0.25:
                v += Fraction(rng.randrange(1, 5), rng.choice((1, 3)))
            pts.append((i, mixed(v)))
        return pts
    pts = []
    for i in idx:
        if rng.random() < 0.4:
            pts.append((i, rng.randrange(-6, 12)))
        else:
            den = rng.choice((1, 2, 3, 4, 6))
            pts.append((i, Fraction(rng.randrange(-12, 24), den)))
    return pts


def test_polygon_integer_hull_matches_fraction_hull():
    rng = random.Random(4411)
    shapes = ("single", "equal", "collinear", "mixed")
    seen = {"collinear": 0, "touch": 0, "cross": 0}
    for _ in range(400):
        pts = _seeded_point_set(rng, rng.choice(shapes))
        ref = _reference_polygon(pts)
        seen["collinear"] += bool(ref.collinear)
        for strict in (False, True):
            assert _polygon_outcome(newton_polygon, pts, (), strict) == (
                _polygon_outcome(_reference_polygon, pts, (), strict)
            )
        known = {i for i, _ in pts}
        lo, hi = ref.vertices[0][0], ref.vertices[-1][0]
        free = [i for i in range(lo - 1, hi + 2) if i not in known]
        if not free:
            continue
        bounds = []
        for i in rng.sample(free, rng.randrange(1, len(free) + 1)):
            if not lo <= i <= hi:
                bounds.append((i, rng.randrange(0, 20)))
                continue
            h = ref.hull_value(i)
            kind = rng.choice(("touch", "cross", "above"))
            if kind in seen:
                seen[kind] += 1
            shift = {"touch": 0, "cross": -Fraction(1, 7), "above": Fraction(2, 3)}
            bounds.append((i, h + shift[kind]))
        for strict in (False, True):
            assert _polygon_outcome(newton_polygon, pts, bounds, strict) == (
                _polygon_outcome(_reference_polygon, pts, bounds, strict)
            )
    assert all(seen.values()), seen


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
    for _ in range(80):
        field = rng.choice((F2, F3, F5, F4, F9))
        elements = list(field.elements())
        d = rng.randrange(1, 4)
        X = d + rng.randrange(0, 4)
        coeffs = []
        for i in range(X + 1):
            n_ram = rng.choice((1, 2, 3))
            lo = 0 if i >= d else 1
            terms = {e: rng.choice(elements) for e in range(lo, 5 * n_ram)}
            if i == d:
                terms[0] = rng.choice(elements[1:])
            trunc = None
            if rng.random() < 0.3:
                trunc = Fraction(rng.randrange(n_ram, 8 * n_ram), n_ram)
            coeffs.append(PuiseuxSeries(field, terms, n_ram, trunc))
        f = CoefficientSeries(field, coeffs, x_trunc=rng.choice((X, None)))
        X = f.x_trunc if f.x_trunc is not None else len(f.coeffs) - 1
        prep = weierstrass_prepare(f, precision=10)
        assert prep.degree == d
        h = prep.distinguished
        assert h.degree() == d and h.coefficient(d) == one(field)
        for j in range(d):
            assert h.coefficient(j).valuation_lower_bound() > 0
        polynomial_unit = f.is_polynomial and X == d
        assert prep.unit.x_trunc == (None if polynomial_unit else X - d)
        # u * h has degree <= X, so it must match f in every known degree
        uh = CoefficientSeries(field, prep.unit.coeffs) * h
        for i in range(X + 1):
            assert uh.coefficient(i).agrees_with(f.coefficient(i))


def test_prepare_factors_the_x_polynomial_truncation():
    # coefficients above x_trunc count as zero: t + x + x^2 + O(x^3) prepares
    # exactly like the polynomial t + x + x^2
    truncated = CoefficientSeries(F5, [t(F5), one(F5), one(F5)], x_trunc=2)
    polynomial = CoefficientSeries(F5, [t(F5), one(F5), one(F5)])
    a = weierstrass_prepare(truncated, precision=8)
    b = weierstrass_prepare(polynomial, precision=8)
    assert (a.degree, a.trunc) == (b.degree, b.trunc) == (1, 8)
    assert a.unit.x_trunc == b.unit.x_trunc == 1
    assert a.unit.coeffs == b.unit.coeffs
    assert a.distinguished.coeffs == b.distinguished.coeffs
    # so an x^3 term the truncation hides moves h at t^3, below the O(t^8)
    # both factorizations claim
    longer = CoefficientSeries(F5, [t(F5), one(F5), one(F5), one(F5)], x_trunc=3)
    c = weierstrass_prepare(longer, precision=8)
    h_a = a.distinguished.coefficient(0)
    h_c = c.distinguished.coefficient(0)
    assert h_a.trunc == h_c.trunc == c.trunc == 8
    assert h_a.agrees_with(h_c, below=3)
    assert h_a.coefficient(3) != h_c.coefficient(3)


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



# The series-object substitution the one-pass code replaced, kept as an
# oracle: c is a FiniteFieldElement here.


def _reference_substitute(field, cs, s, c):
    d = len(cs) - 1
    new = [PuiseuxSeries.zero(field) for _ in range(d + 1)]
    for i, ci in enumerate(cs):
        if ci.is_exact_zero:
            continue
        shifted = ci.shift(s * i)
        power = field.one()
        binomials = [math.comb(i, j) for j in range(i + 1)]
        for j in range(i, -1, -1):
            coef = field.element(binomials[j]) * power
            if coef:
                new[j] = new[j] + shifted.scale(coef)
            power = power * c
    w = None
    for ci in new:
        lb = ci.valuation_lower_bound()
        if lb is INFINITY:
            continue
        w = lb if w is None else min(w, lb)
    if w:
        new = [ci.shift(-w) for ci in new]
    return new


def _random_coefficient(rng, field, kind):
    if kind == "exact-zero":
        return zero(field)
    den = rng.choice((1, 2, 3, 5, 7))
    trunc = Fraction(rng.randrange(-2 * den, 9 * den), den)
    if kind == "zero-at-precision":
        return PuiseuxSeries.zero_at_precision(field, trunc)
    n_ram = rng.choice((1, 2, 3, 4, 6))
    exps = rng.sample(range(-n_ram, 8 * n_ram), rng.randrange(1, 6))
    terms = {e: FiniteFieldElement(field, rng.randrange(1, field.order)) for e in exps}
    return PuiseuxSeries(field, terms, n_ram, trunc if kind == "truncated" else None)


def test_substitute_matches_series_reference():
    rng = random.Random(7321)
    kinds = ("exact", "exact", "truncated", "zero-at-precision", "exact-zero")
    seen = {"vanishing-binomial": 0, "mixed-n_ram": 0, "ramified-s": 0, "off-grid-w": 0}
    for _ in range(300):
        field = rng.choice((F2, F3, F5, F4, F9))
        degree = rng.randrange(1, 9)
        cs = [_random_coefficient(rng, field, rng.choice(kinds)) for _ in range(degree)]
        cs.append(_random_coefficient(rng, field, rng.choice(("exact", "truncated"))))
        den = rng.choice((1, 2, 3, 4))
        s = Fraction(rng.randrange(-3 * den, 3 * den + 1), den)
        c = rng.randrange(1, field.order)
        got = _substitute(field, cs, s, c)
        want = _reference_substitute(field, cs, s, FiniteFieldElement(field, c))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == w, (cs, s, c)
        live = [ci for ci in cs if not ci.is_exact_zero]
        grid = math.lcm(s.denominator, *(ci.n_ram for ci in live))
        seen["vanishing-binomial"] += len(cs) - 1 >= field.p
        seen["mixed-n_ram"] += len({ci.n_ram for ci in live if ci.coeffs}) > 1
        seen["ramified-s"] += s.denominator > 1
        seen["off-grid-w"] += any(grid % g.n_ram for g in got)
    assert all(seen.values()), seen


def test_substitute_renormalises_by_an_off_grid_truncation():
    # P = O(t^(1/5)) + t x at x = t^(1/2) (1 + y): the constant is only known
    # below 1/5, which beats t^(3/2) and sets w off the grid 1/2
    cs = [PuiseuxSeries.zero_at_precision(F3, Fraction(1, 5)), t(F3)]
    got = _substitute(F3, cs, Fraction(1, 2), 1)
    assert got == _reference_substitute(F3, cs, Fraction(1, 2), F3.one())
    assert got[0] == PuiseuxSeries.zero_at_precision(F3, 0)
    assert got[1] == PuiseuxSeries.t_power(F3, Fraction(13, 10))
    assert got[1].n_ram == 10


def _seeded_roots(rng, field, count, target):
    """Distinct roots {exponent: code} below ``target``; pairs share a
    leading term, so some residual equations have double roots."""
    roots = []
    while len(roots) < count:
        den = rng.choice((1, 2, 3))
        lead = Fraction(rng.randrange(1, int(target * den)), den)
        prefix = {lead: rng.randrange(1, field.order)}
        for _ in range(min(2, count - len(roots))):
            root = dict(prefix)
            e = lead + Fraction(rng.randrange(1, 7), rng.choice((2, 3, 4)))
            if e < target:
                root[e] = rng.randrange(1, field.order)
            if root not in roots:
                roots.append(root)
    return [
        PuiseuxSeries.from_terms(
            field, {e: FiniteFieldElement(field, c) for e, c in r.items()}
        )
        for r in roots
    ]


def test_roots_oracle_over_extension_fields():
    rng = random.Random(9041)
    target = Fraction(3)
    ramified = 0
    for field in (F4, F9) * 6:
        roots = _seeded_roots(rng, field, rng.randrange(2, 5), target)
        ramified += max(r.n_ram for r in roots) > 1
        poly = CoefficientSeries(field, [one(field)])
        for r in roots:
            poly = poly * CoefficientSeries(field, [-r, one(field)])
        unmatched = list(roots)
        for got in puiseux_roots(poly, target):
            assert got.expansion is not None and got.multiplicity == 1
            hit = [r for r in unmatched if got.expansion.agrees_with(r, below=target)]
            assert len(hit) == 1
            unmatched.remove(hit[0])
        assert not unmatched
    assert ramified
