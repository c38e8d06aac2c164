"""One-dimensional formal group laws over R = F_q[[t]].

``ec_formal_group`` expands the formal group of a Weierstrass model by the
classical z = -x/y, w = -1/y substitution: the curve becomes

    w = z^3 + a1 z w + a2 z^2 w + a3 w^2 + a4 z w^2 + a6 w^3,

the chord through (z1, w(z1)), (z2, w(z2)) meets the curve in a third point,
and composing with the formal negation gives F(z1, z2).

``p_decomposition`` writes [p](x) = g(x^p), Weierstrass-prepares g to its
degree-p distinguished factor h (special fibre of height 2), and reads off
the interior coefficient valuations.  ``valuation_ladder`` then iterates the
level polygons of the torsion tower: level 1 uses the points
(i, v(c_i)), (p, 0); level n >= 2 uses (0, v_{n-1}), (i, p^(n-1) v(c_i)),
(p, 0), taking v_n from the segment through index 0.  Once every interior
point strictly clears the chord from (0, v_n) to (p, 0) -- and the numerator
of v_n is prime to p -- the single-slope regime v_{n+1} = v_n / p is
certified for all later levels, which is how the threshold n0 is set.

Note: the ladder reports exact denominators e_n per level and does not
assert any closed-form ramification degree; bookkeeping that folds the
levels into a degree formula is left to the caller on purpose (the obvious
closed forms are off by one step of p between natural conventions).

``verify_ladder`` is the independent oracle: it rebuilds the actual level-n
polynomials (coefficients twisted by the (n-1)-st Frobenius power, constant
term the chosen previous-level root), hands them to ``puiseux_roots`` and
compares valuation multisets.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ComputationError,
    GenericSupersingularError,
    LadderMismatchError,
    NotHeightTwoError,
    PrecisionError,
)
from .polynomials import (
    CoefficientSeries,
    NewtonPolygon,
    newton_polygon,
    puiseux_roots,
    root_valuations,
    truncated_product,
    truncated_unit_inverse,
    weierstrass_prepare,
)
from .series import INFINITY, PuiseuxSeries

_ASSOCIATIVITY_CHECK_CAP = 6


# ---------------------------------------------------------------------------
# map arithmetic on top of the truncated-product kernel


def _madd(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out[k] + v if k in out else v
    return {k: v for k, v in out.items() if not v.is_exact_zero}


def _mscale(a, s):
    out = {}
    for k, v in a.items():
        sv = v * s if isinstance(s, PuiseuxSeries) else v.scale(s)
        if not sv.is_exact_zero:
            out[k] = sv
    return out


def _mone(field, nvars):
    return {(0,) * nvars: PuiseuxSeries.one(field)}


def _msubst(field, table, bound, args, nvars):
    """Evaluate sum table[(i, j, ...)] * prod args[k]**i_k."""
    pow_cache = [{0: _mone(field, nvars)} for _ in args]

    def power(k, i):
        cache = pow_cache[k]
        if i not in cache:
            cache[i] = truncated_product(power(k, i - 1), args[k], bound)
        return cache[i]

    out = {}
    for exps, coef in table.items():
        if sum(exps) > bound:
            continue
        term = _mone(field, nvars)
        for k, i in enumerate(exps):
            if i:
                term = truncated_product(term, power(k, i), bound)
        out = _madd(out, _mscale(term, coef))
    return out


# ---------------------------------------------------------------------------
# Weierstrass models


@dataclass(frozen=True)
class WeierstrassModel:
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 with integral a_i."""

    a1: PuiseuxSeries
    a2: PuiseuxSeries
    a3: PuiseuxSeries
    a4: PuiseuxSeries
    a6: PuiseuxSeries

    def __post_init__(self):
        field = self.a1.field
        for a in self.coefficients():
            if a.field != field:
                raise ComputationError("model coefficients over different fields")
            lb = a.valuation_lower_bound()
            if lb is not INFINITY and lb < 0:
                raise ComputationError("model must be integral (valuations >= 0)")

    @classmethod
    def from_ints(cls, field, a1=0, a2=0, a3=0, a4=0, a6=0):
        def mk(v):
            if isinstance(v, PuiseuxSeries):
                return v
            return PuiseuxSeries.constant(field, v)

        return cls(mk(a1), mk(a2), mk(a3), mk(a4), mk(a6))

    @property
    def field(self):
        return self.a1.field

    def coefficients(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def discriminant(self):
        a1, a2, a3, a4, a6 = self.coefficients()
        b2 = a1 * a1 + a2.scale(4)
        b4 = a4.scale(2) + a1 * a3
        b6 = a3 * a3 + a6.scale(4)
        b8 = a1 * a1 * a6 + (a2 * a6).scale(4) - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return (
            -(b2 * b2 * b8)
            - (b4 * b4 * b4).scale(8)
            - (b6 * b6).scale(27)
            + (b2 * b4 * b6).scale(9)
        )


# ---------------------------------------------------------------------------
# formal group laws


class FormalGroupLaw:
    """F(x, y) as a total-degree-truncated table of PuiseuxSeries."""

    def __init__(self, field, table, x_trunc, check=True, associativity_order=None):
        self.field = field
        self.p = field.p
        self.x_trunc = x_trunc
        self.table = {
            k: v for k, v in table.items() if not v.is_exact_zero and sum(k) <= x_trunc
        }
        self._inverse = None
        if check:
            self._check_axioms(associativity_order)

    @classmethod
    def additive(cls, field, x_trunc=8):
        one = PuiseuxSeries.one(field)
        return cls(field, {(1, 0): one, (0, 1): one}, x_trunc)

    @classmethod
    def multiplicative(cls, field, x_trunc=8):
        one = PuiseuxSeries.one(field)
        return cls(field, {(1, 0): one, (0, 1): one, (1, 1): one}, x_trunc)

    def coefficient(self, i, j):
        if i + j > self.x_trunc:
            raise PrecisionError("formal group only known to total degree %d" % self.x_trunc)
        return self.table.get((i, j), PuiseuxSeries.zero(self.field))

    def _check_axioms(self, associativity_order=None):
        one = PuiseuxSeries.one(self.field)
        for (i, j), v in self.table.items():
            if j == 0 and v.known_nonzero and (i != 1 or not v.agrees_with(one)):
                raise ComputationError("F(x, 0) != x: bad coefficient at x^%d" % i)
            if i == 0 and v.known_nonzero and (j != 1 or not v.agrees_with(one)):
                raise ComputationError("F(0, y) != y: bad coefficient at y^%d" % j)
        if not (
            self.coefficient(1, 0).agrees_with(one)
            and self.coefficient(0, 1).agrees_with(one)
        ):
            raise ComputationError("formal group law must start x + y")
        for (i, j), v in self.table.items():
            w = self.table.get((j, i))
            if w is None or not v.agrees_with(w):
                raise ComputationError("formal group law is not commutative")
        cap = self.x_trunc if associativity_order is None else associativity_order
        cap = min(cap, self.x_trunc)
        if cap >= 3:
            self._check_associativity(cap)

    def _check_associativity(self, bound):
        field = self.field
        x = {(1, 0, 0): PuiseuxSeries.one(field)}
        y = {(0, 1, 0): PuiseuxSeries.one(field)}
        z = {(0, 0, 1): PuiseuxSeries.one(field)}
        fxy = _msubst(field, self.table, bound, (x, y), 3)
        fyz = _msubst(field, self.table, bound, (y, z), 3)
        left = _msubst(field, self.table, bound, (fxy, z), 3)
        right = _msubst(field, self.table, bound, (x, fyz), 3)
        for k in set(left) | set(right):
            a = left.get(k, PuiseuxSeries.zero(field))
            b = right.get(k, PuiseuxSeries.zero(field))
            if not a.agrees_with(b):
                raise ComputationError(
                    "associativity fails at monomial %s up to degree %d" % (k, bound)
                )

    # -- operations --------------------------------------------------------

    def _as_uni(self, f):
        """CoefficientSeries -> 1-tuple-keyed dict, validating composability."""
        c0 = f.coefficient(0)
        if c0.known_nonzero:
            raise ComputationError("argument must have positive x-order")
        if c0.is_zero_at_precision:
            raise PrecisionError(
                "argument constant term only known to O(t^%s)" % c0.trunc
            )
        return f.terms()

    def _out_trunc(self, *args):
        out = self.x_trunc
        for f in args:
            if f.x_trunc is not None:
                out = min(out, f.x_trunc)
        return out

    def formal_sum(self, f, g):
        """F(f, g) for series f, g of positive x-order."""
        bound = self._out_trunc(f, g)
        res = _msubst(
            self.field, self.table, bound, (self._as_uni(f), self._as_uni(g)), 1
        )
        return CoefficientSeries.from_terms(self.field, res, bound)

    def identity_series(self):
        return CoefficientSeries(
            self.field, [PuiseuxSeries.zero(self.field), PuiseuxSeries.one(self.field)]
        )

    def zero_series(self):
        return CoefficientSeries(self.field, [PuiseuxSeries.zero(self.field)])

    def inverse_series(self):
        """The formal inverse i(x), solving F(x, i(x)) = 0 degree by degree."""
        if self._inverse is None:
            x = self.identity_series()
            inv = CoefficientSeries(
                self.field,
                [PuiseuxSeries.zero(self.field), -PuiseuxSeries.one(self.field)],
                x_trunc=self.x_trunc,
            )
            for _ in range(self.x_trunc):
                residual = self.formal_sum(x, inv)
                if all(not c.known_nonzero for c in residual.coeffs):
                    break
                inv = inv - residual
            self._inverse = inv
        return self._inverse

    def compose(self, outer, inner):
        """outer(inner(x)) for an inner series of positive x-order."""
        bound = self._out_trunc(outer, inner)
        res = _msubst(self.field, outer.terms(), bound, (self._as_uni(inner),), 1)
        return CoefficientSeries.from_terms(self.field, res, bound)

    def mult_by_int(self, m):
        """[m](x), by doubling plus one formal sum per odd step."""
        if self.x_trunc < 1:
            raise ComputationError("truncation too small to hold the linear term")
        if m < 0:
            return self.compose(self.inverse_series(), self.mult_by_int(-m))
        if m == 0:
            return self.zero_series()
        if m == 1:
            return self.identity_series()
        if m % 2 == 0:
            half = self.mult_by_int(m // 2)
            doubled = self.formal_sum(half, half)
            result = doubled
        else:
            result = self.formal_sum(self.mult_by_int(m - 1), self.identity_series())
        lin = result.coefficient(1)
        want = self.field.element(m)
        if (want and not lin.agrees_with(PuiseuxSeries.constant(self.field, want))) or (
            not want and lin.known_nonzero
        ):
            raise ComputationError("linear coefficient of [%d] is not %d mod p" % (m, m))
        return result


def ec_formal_group(model, x_trunc=None, associativity_order=_ASSOCIATIVITY_CHECK_CAP):
    """The formal group of an elliptic Weierstrass model, to total degree X.

    X defaults to p^2 + p, enough for the [p]-decomposition with headroom.
    The group-law axioms are checked on construction (associativity up to
    ``associativity_order``, whose default keeps large-X builds affordable).
    """
    field = model.field
    X = x_trunc if x_trunc is not None else field.p ** 2 + field.p
    if X < 4:
        raise ComputationError("formal group truncation must be at least 4")
    disc = model.discriminant()
    if disc.is_zero_at_precision:
        raise PrecisionError(
            "cannot certify the discriminant at precision %s" % disc.trunc
        )

    a1, a2, a3, a4, a6 = model.coefficients()
    one = PuiseuxSeries.one(field)

    # w(z) = z^3 + ... solving the (z, w) curve equation by iteration:
    # w = z^3 + (a1 z + a2 z^2) w + (a3 + a4 z) w^2 + a6 w^3
    w_bound = X + 2
    c1 = {(1,): a1, (2,): a2}
    c2 = {(0,): a3, (1,): a4}
    c3 = {(0,): a6}
    w = {}
    for _ in range(w_bound):
        w2 = truncated_product(w, w, w_bound)
        w3 = truncated_product(w2, w, w_bound)
        nxt = {(3,): one}
        for c, power in ((c1, w), (c2, w2), (c3, w3)):
            nxt = _madd(nxt, truncated_product(c, power, w_bound))
        if nxt == w:
            break
        w = nxt

    # lambda(z1, z2) = (w(z2) - w(z1)) / (z2 - z1), nu = w(z1) - lambda z1
    lam = {}
    for (n,), wn in w.items():
        for a in range(n):
            k = (a, n - 1 - a)
            lam[k] = lam[k] + wn if k in lam else wn
    w1 = {(n, 0): wn for (n,), wn in w.items()}
    z1 = {(1, 0): one}
    z2 = {(0, 1): one}
    bound = X
    nu = _madd(w1, _mscale(truncated_product(lam, z1, bound + 1), field.element(-1)))
    lam_nu = truncated_product(lam, nu, bound)
    lam2 = truncated_product(lam, lam, bound)
    big_a = _mone(field, 2)
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
    z3 = _madd(
        _mscale(_madd(z1, z2), field.element(-1)),
        _mscale(
            truncated_product(big_b, truncated_unit_inverse(big_a, bound), bound),
            field.element(-1),
        ),
    )

    # formal negation i(z) = -z * (1 - a1 z - a3 w(z))^{-1}
    unit = _madd(
        _mone(field, 1), _mscale(_madd({(1,): a1}, _mscale(w, a3)), field.element(-1))
    )
    neg = truncated_product({(1,): -one}, truncated_unit_inverse(unit, X - 1), X)

    table = _msubst(field, neg, X, (z3,), 2)
    return FormalGroupLaw(
        field, table, X, check=True, associativity_order=associativity_order
    )


# ---------------------------------------------------------------------------
# [p]-decomposition and the valuation ladder


@dataclass(frozen=True)
class Height2Data:
    """The degree-p distinguished factor of g, where [p](x) = g(x^p).

    ``m = v(c_1)`` measures the generic-ordinary slope; ``interior``
    maps 1..p-1 to exact valuations (INFINITY for exact zeros) and
    ``interior_bounds`` carries lower bounds for coefficients that are only
    zero at the working precision.
    """

    p: int
    distinguished: CoefficientSeries
    m: Fraction
    interior: dict
    interior_bounds: dict
    level1_polygon: NewtonPolygon

    def ladder(self, n_max):
        return valuation_ladder(
            self.p, self.interior, n_max, interior_bounds=self.interior_bounds
        )


def p_decomposition(fgl, precision=None):
    """Height-2 data of a formal group law: prepare g from [p](x) = g(x^p)."""
    p = fgl.p
    if fgl.x_trunc < p * p:
        raise ComputationError(
            "formal group known to degree %d < p^2 = %d" % (fgl.x_trunc, p * p)
        )
    return p_series_decomposition(fgl.mult_by_int(p), p, precision=precision)


def p_series_decomposition(series, p, precision=None):
    """Height-2 data from an explicit [p]-series (synthetic inputs welcome)."""
    field = series.field
    if field.p != p:
        raise ComputationError("series characteristic differs from p")
    top = len(series.coeffs) - 1 if series.is_polynomial else series.x_trunc
    if top < p * p:
        raise ComputationError("[p]-series known to degree %d < p^2" % top)
    c0 = series.coefficient(0)
    if c0.known_nonzero:
        raise ComputationError("[p](0) must vanish")
    for k in range(1, top + 1):
        if k % p and series.coefficient(k).known_nonzero:
            raise ComputationError(
                "[p] contains the exponent %d not divisible by p" % k
            )
    g = CoefficientSeries(
        field,
        [series.coefficient(p * j) for j in range(top // p + 1)],
        x_trunc=None if series.is_polynomial else top // p,
    )
    prep = weierstrass_prepare(g, precision=precision)
    if prep.degree != p:
        if prep.degree == 1:
            raise NotHeightTwoError(
                "special fibre is not height 2: the reduction is ordinary "
                "(Weierstrass degree 1 in u)"
            )
        raise NotHeightTwoError(
            "special fibre is not height 2: Weierstrass degree %d in u"
            % prep.degree
        )
    h = prep.distinguished
    # the identity is p-torsion, so c_0 = 0 exactly; pin it down
    if h.coefficient(0).known_nonzero:
        raise ComputationError("distinguished factor has nonzero constant term")
    coeffs = [PuiseuxSeries.zero(field)] + list(h.coeffs[1:])
    h = CoefficientSeries(field, coeffs, None)
    c1 = h.coefficient(1)
    if not c1.known_nonzero:
        if c1.is_exact_zero:
            raise GenericSupersingularError(
                "generic fibre supersingular: the linear u-coefficient vanishes"
            )
        raise GenericSupersingularError(
            "generic fibre supersingular at precision %s: m undeterminable"
            % c1.trunc
        )
    interior = {}
    bounds = {}
    for i in range(1, p):
        ci = h.coefficient(i)
        if ci.known_nonzero:
            interior[i] = ci.valuation()
        elif ci.is_exact_zero:
            interior[i] = INFINITY
        else:
            bounds[i] = ci.trunc
    pts = [(i, v) for i, v in interior.items() if v is not INFINITY]
    pts.append((p, Fraction(0)))
    polygon = newton_polygon(pts, [(i, b) for i, b in bounds.items()])
    return Height2Data(
        p=p,
        distinguished=h,
        m=interior[1],
        interior=interior,
        interior_bounds=bounds,
        level1_polygon=polygon,
    )


@dataclass(frozen=True)
class LadderLevel:
    n: int
    valuation: Fraction
    denominator: int
    multiset: tuple  # ((valuation, multiplicity), ...)


@dataclass(frozen=True)
class ValuationLadder:
    """Per-level root valuations of the torsion tower, plus the threshold n0.

    ``n0`` is operational: the least level after which the single-slope
    regime (and the exact p-fold growth of the denominators) is certified
    analytically, not merely observed.
    """

    p: int
    levels: tuple
    n0: object  # int, or None when not certified within the computed range

    def valuations(self):
        return [lv.valuation for lv in self.levels]

    def denominators(self):
        return [lv.denominator for lv in self.levels]

    def level(self, n):
        return self.levels[n - 1]

    def validate(self):
        """Recheck the ladder invariants (test helper)."""
        vs = self.valuations()
        assert all(a > b for a, b in zip(vs, vs[1:]))
        es = self.denominators()
        assert all(b % a == 0 for a, b in zip(es, es[1:]))
        if self.n0 is not None:
            for n in range(self.n0, len(vs)):
                assert vs[n] == vs[n - 1] / self.p
            for n in range(self.n0 + 1, len(es)):
                assert es[n] == self.p * es[n - 1]
        return True


def valuation_ladder(p, interior, n_max, interior_bounds=None):
    """Iterate the level polygons of the p-power torsion tower.

    ``interior`` maps i in 1..p-1 to v(c_i) (Fractions; INFINITY for exact
    zeros); ``interior_bounds`` carries "valuation >= bound" entries for
    coefficients unknown at the working precision.
    """
    if n_max < 1:
        raise ComputationError("n_max must be at least 1")
    interior_bounds = dict(interior_bounds or {})
    finite = {}
    for i, v in interior.items():
        if not 1 <= int(i) <= p - 1:
            raise ComputationError("interior index %s out of range" % (i,))
        if v is INFINITY:
            continue
        v = Fraction(v)
        if v <= 0:
            raise ComputationError("interior valuations must be positive")
        finite[int(i)] = v
    if 1 not in finite and 1 not in interior_bounds:
        raise ComputationError("v(c_1) must be finite (ordinary generic fibre)")

    levels = []
    prev = None
    n0 = None
    for n in range(1, n_max + 1):
        scale = p ** (n - 1)
        pts = [(i, scale * v) for i, v in finite.items()]
        pts.append((p, Fraction(0)))
        if n > 1:
            pts.append((0, prev))
        unknowns = [(i, scale * b) for i, b in interior_bounds.items()]
        polygon = newton_polygon(pts, unknowns)
        multiset = tuple(root_valuations(polygon))
        v_n = multiset[0][0]  # segment meeting the leftmost index
        levels.append(
            LadderLevel(n=n, valuation=v_n, denominator=v_n.denominator, multiset=multiset)
        )
        if n0 is None and v_n.numerator % p != 0:
            if _single_slope_certified(p, finite, interior_bounds, v_n, n + 1):
                n0 = n
        prev = v_n
    return ValuationLadder(p=p, levels=tuple(levels), n0=n0)


def _single_slope_certified(p, finite, bounds, v_prev, level):
    """All interior points clear the chord from (0, v_prev) to (p, 0) at
    ``level``; scaling interiors by p while the chord shrinks keeps this true
    at every later level."""
    scale = p ** (level - 1)

    def chord(i):
        return v_prev * (p - i) / p

    for i, v in finite.items():
        if scale * v <= chord(i):
            return False
    for i, b in bounds.items():
        if scale * b <= chord(i):
            return False
    return True


# ---------------------------------------------------------------------------
# oracle cross-check


@dataclass(frozen=True)
class LadderVerification:
    levels: int
    multisets: tuple  # per level: ((valuation, multiplicity), ...)
    tower_valuations: tuple


def verify_ladder(fgl, ladder, levels=2, precision=None, n_cap=64):
    """Check ladder valuations against actual Puiseux roots of the tower."""
    return verify_tower(
        p_decomposition(fgl, precision=precision), ladder, levels, n_cap=n_cap
    )


def verify_tower(h2, ladder, levels=2, n_cap=64):
    """Oracle walk of the torsion tower from prepared height-2 data.

    Builds the level-n polynomial (Frobenius-twisted coefficients, previous
    root as constant term), expands its roots, and compares the valuation
    multiset with the ladder.  Raises ``LadderMismatchError`` on the first
    disagreement.
    """
    field = h2.distinguished.field
    p = h2.p
    if levels < 1:
        raise ComputationError("at least one level required")
    if len(ladder.levels) < levels:
        raise ComputationError("ladder holds fewer levels than requested")
    base = [h2.distinguished.coefficient(i) for i in range(1, p + 1)]
    y_prev = None
    multisets = []
    tower = []
    for n in range(1, levels + 1):
        twisted = [c.frobenius_power(n - 1) for c in base]
        if n == 1:
            coeffs = twisted
        else:
            coeffs = [-y_prev] + twisted
        poly = CoefficientSeries(field, coeffs, None)
        want = ladder.level(n)
        if n == levels:
            # multiset check only: stopping at the smallest expected
            # valuation keeps the expansion from consuming the previous
            # root's tail
            target = min(v for v, _ in want.multiset)
        else:
            # expand deep enough that the next level can separate branches
            # (they split around the twisted linear coefficient, at p^n * m)
            target = want.valuation + p ** n * h2.m + 1
        roots = puiseux_roots(poly, target_precision=target, n_cap=n_cap)
        got = _aggregate(roots)
        expected = _aggregate_pairs(want.multiset)
        if got != expected:
            raise LadderMismatchError(n, sorted(expected.items()), sorted(got.items()))
        multisets.append(tuple(sorted(got.items())))
        if n < levels:
            candidates = [
                r
                for r in roots
                if r.valuation == want.valuation
                and r.expansion is not None
                and r.expansion.known_nonzero
            ]
            if not candidates:
                raise ComputationError(
                    "no expandable root of valuation %s to continue the tower"
                    % want.valuation
                )
            y_prev = candidates[0].expansion
        tower.append(want.valuation)
    return LadderVerification(
        levels=levels, multisets=tuple(multisets), tower_valuations=tuple(tower)
    )


def _aggregate(roots):
    out = {}
    for r in roots:
        out[r.valuation] = out.get(r.valuation, 0) + r.multiplicity
    return out


def _aggregate_pairs(pairs):
    out = {}
    for v, m in pairs:
        out[v] = out.get(v, 0) + m
    return out
