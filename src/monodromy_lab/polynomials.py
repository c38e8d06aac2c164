"""Polynomials and power series in x over rings of truncated Puiseux series.

The tools that live here:

* ``truncated_product`` / ``truncated_unit_inverse`` -- the one kernel for
  truncated x-series arithmetic: sparse maps from exponent tuples to
  ``PuiseuxSeries``, cut at a total-degree bound.  ``CoefficientSeries``
  multiplies through it (1-tuple keys) and so does the bivariate
  formal-group build;
* ``weierstrass_prepare`` -- factor a power series f(x) over R = F_q[[t]]
  (or a ramified extension) as unit * monic distinguished polynomial,
  lifting one t-slice at a time from the residual; a slice is a map
  x-degree -> code, multiplied and summed by the code kernel of ``series``;
* ``newton_polygon`` / ``root_valuations`` -- exact lower convex hulls of
  (index, valuation) data and the root-valuation multisets they encode;
* ``puiseux_roots`` -- a Newton-Puiseux iteration that actually expands the
  roots over Puiseux extensions, used as an independent oracle against the
  polygon bookkeeping.

Coefficients whose valuation is only bounded below ("zero at precision T")
enter a polygon solely as upper-side constraints; whenever the hull, or a
residual equation, could differ for some admissible valuation, the
computation refuses loudly instead of guessing.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ComputationError, PrecisionError
from .series import (
    DEFAULT_TRUNCATION,
    INFINITY,
    PuiseuxSeries,
    code_product,
    code_sum,
    dense_unit_inverse,
)

_RESIDUE_SEARCH_LIMIT = 1 << 16
_MAX_EXPANSION_DEPTH = 512


# ---------------------------------------------------------------------------
# multivariate series helpers (dicts keyed by exponent tuples, total-degree
# truncated, PuiseuxSeries values)


def truncated_product(a, b, bound):
    """The product of two exponent-tuple maps, cut above total degree ``bound``."""
    b_items = [(kb, sum(kb), vb) for kb, vb in b.items()]
    out = {}
    for ka, va in a.items():
        room = bound - sum(ka)
        for kb, db, vb in b_items:
            if db > room:
                continue
            k = tuple(x + y for x, y in zip(ka, kb))
            prod = va * vb
            out[k] = out[k] + prod if k in out else prod
    return {k: v for k, v in out.items() if not v.is_exact_zero}


def truncated_unit_inverse(a, bound):
    """The inverse of an exponent-tuple map with constant term exactly 1.

    Solved degree by degree: the homogeneous part of total degree d is minus
    the sum of (part j of ``a``) * (part d - j of the inverse), j = 1..d.
    """
    unit = next((k for k in a if not any(k)), None)
    if unit is None or a[unit] != PuiseuxSeries.one(a[unit].field):
        raise ComputationError("unit inverse needs a constant term exactly 1")
    parts = [{} for _ in range(bound + 1)]
    for k, v in a.items():
        d = sum(k)
        if 0 < d <= bound:
            parts[d][k] = v
    layers = [{unit: a[unit]}]
    for d in range(1, bound + 1):
        acc = {}
        for j in range(1, d + 1):
            for k, v in truncated_product(parts[j], layers[d - j], d).items():
                acc[k] = acc[k] + v if k in acc else v
        layers.append({k: -v for k, v in acc.items() if not v.is_exact_zero})
    return {k: v for layer in layers for k, v in layer.items()}


class CoefficientSeries:
    """A series sum c_i x**i with PuiseuxSeries coefficients.

    ``x_trunc = X`` means degrees 0..X are the known ones; ``x_trunc = None``
    marks an honest polynomial (all higher coefficients exactly zero).
    """

    __slots__ = ("field", "coeffs", "x_trunc")

    def __init__(self, field, coeffs, x_trunc=None):
        coeffs = [
            c if isinstance(c, PuiseuxSeries) else PuiseuxSeries.constant(field, c)
            for c in coeffs
        ]
        for c in coeffs:
            if c.field is not field:
                raise ComputationError("coefficient field mismatch")
        if x_trunc is None:
            while len(coeffs) > 1 and coeffs[-1].is_exact_zero:
                coeffs.pop()
        else:
            if x_trunc < 0:
                raise ComputationError("x-truncation must be >= 0")
            coeffs = coeffs[: x_trunc + 1]
            coeffs += [PuiseuxSeries.zero(field)] * (x_trunc + 1 - len(coeffs))
        if not coeffs:
            coeffs = [PuiseuxSeries.zero(field)]
        self.field = field
        self.coeffs = tuple(coeffs)
        self.x_trunc = x_trunc

    @property
    def is_polynomial(self):
        return self.x_trunc is None

    def degree(self):
        """Degree of an honest polynomial."""
        if not self.is_polynomial:
            raise ComputationError("degree of an x-truncated series is unknown")
        return len(self.coeffs) - 1

    def coefficient(self, i):
        if i < len(self.coeffs):
            return self.coeffs[i]
        if self.is_polynomial:
            return PuiseuxSeries.zero(self.field)
        raise PrecisionError("x-coefficient %d beyond truncation %d" % (i, self.x_trunc))

    @classmethod
    def from_terms(cls, field, terms, x_trunc=None):
        """Build from a map {(i,): c_i}, the inverse of ``terms``."""
        top = x_trunc if x_trunc is not None else max((i for (i,) in terms), default=0)
        coeffs = [PuiseuxSeries.zero(field)] * (top + 1)
        for (i,), c in terms.items():
            coeffs[i] = c
        return cls(field, coeffs, x_trunc)

    def terms(self):
        """The map {(i,): c_i} of the coefficients that are not exactly zero."""
        return {(i,): c for i, c in enumerate(self.coeffs) if not c.is_exact_zero}

    def x_order_lower_bound(self):
        """Least degree whose coefficient is not exactly zero (INFINITY if none)."""
        for i, c in enumerate(self.coeffs):
            if not c.is_exact_zero:
                return i
        return INFINITY if self.is_polynomial else len(self.coeffs)

    def __add__(self, other):
        self._check(other)
        if self.is_polynomial and other.is_polynomial:
            xt = None
        else:
            xt = min(
                self.x_trunc if self.x_trunc is not None else INFINITY,
                other.x_trunc if other.x_trunc is not None else INFINITY,
            )
        n = max(len(self.coeffs), len(other.coeffs))
        out = [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        return CoefficientSeries(self.field, out, xt)

    def __neg__(self):
        return CoefficientSeries(self.field, [-c for c in self.coeffs], self.x_trunc)

    def __sub__(self, other):
        return self + (-other)

    def _check(self, other):
        if not isinstance(other, CoefficientSeries) or other.field is not self.field:
            raise ComputationError("coefficient series field mismatch")

    def __mul__(self, other):
        self._check(other)
        if self.is_polynomial and other.is_polynomial:
            xt = None
            top = len(self.coeffs) + len(other.coeffs) - 2
        else:
            bounds = []
            if self.x_trunc is not None:
                ob = other.x_order_lower_bound()
                bounds.append(self.x_trunc + (0 if ob is INFINITY else ob))
            if other.x_trunc is not None:
                sb = self.x_order_lower_bound()
                bounds.append(other.x_trunc + (0 if sb is INFINITY else sb))
            xt = min(bounds)
            top = xt
        prod = truncated_product(self.terms(), other.terms(), top)
        return CoefficientSeries.from_terms(self.field, prod, xt)

    def agrees_with(self, other, below=None):
        """Coefficientwise agreement up to the shared x- and t-truncations."""
        self._check(other)
        tops = []
        for s in (self, other):
            tops.append(len(s.coeffs) - 1 if s.is_polynomial else s.x_trunc)
        top = min(tops)
        for i in range(top + 1):
            if not self.coefficient(i).agrees_with(other.coefficient(i), below=below):
                return False
        return True

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_exact_zero:
                continue
            xs = "" if i == 0 else ("x" if i == 1 else "x^%d" % i)
            parts.append("(%r)%s" % (c, ("*" + xs) if xs else ""))
        body = " + ".join(parts) if parts else "0"
        if self.x_trunc is not None:
            body += " + O(x^%d)" % (self.x_trunc + 1)
        return body


# ---------------------------------------------------------------------------
# Newton polygons


@dataclass(frozen=True)
class Segment:
    slope: Fraction
    length: int


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex hull of (index, valuation) points.

    ``vertices`` is the minimal vertex set; input points lying on a segment
    interior are listed in ``collinear`` instead.
    """

    vertices: tuple
    segments: tuple
    points: tuple
    collinear: tuple

    @property
    def is_degenerate(self):
        return not self.segments

    def hull_value(self, index):
        """Height of the hull above ``index`` (must lie in the index span)."""
        if not self.vertices or not (
            self.vertices[0][0] <= index <= self.vertices[-1][0]
        ):
            raise ComputationError("index %s outside the hull span" % (index,))
        for (i0, v0), (i1, v1) in zip(self.vertices, self.vertices[1:]):
            if i0 <= index <= i1:
                return v0 + Fraction(v1 - v0, i1 - i0) * (index - i0)
        return self.vertices[0][1]

    def verify(self):
        """Recheck the hull definition point by point (test helper)."""
        assert sum(s.length for s in self.segments) == (
            self.vertices[-1][0] - self.vertices[0][0]
        )
        slopes = [s.slope for s in self.segments]
        assert slopes == sorted(slopes) and len(set(slopes)) == len(slopes)
        for i, v in self.points:
            assert v >= self.hull_value(i)
        for i, v in self.vertices:
            assert (i, v) in self.points
        return True


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def newton_polygon(points, unknown_bounds=(), strict=False):
    """Lower convex hull of exact (index, valuation) points.

    ``unknown_bounds`` lists (index, bound) pairs for coefficients known only
    to satisfy valuation >= bound.  If the hull could change for some
    admissible valuation, a ``PrecisionError`` demands more precision.  With
    ``strict=True`` a bound merely touching the hull is already rejected
    (needed when coefficients exactly on the hull feed residual equations).
    """
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
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    vertices = tuple(hull)
    segments = tuple(
        Segment(Fraction(v1 - v0, i1 - i0), i1 - i0)
        for (i0, v0), (i1, v1) in zip(hull, hull[1:])
    )
    polygon = NewtonPolygon(
        vertices=vertices,
        segments=segments,
        points=tuple(pts),
        collinear=tuple(
            p
            for p in pts
            if p not in vertices
            and _on_hull(vertices, p)
        ),
    )
    for i, bound in unknown_bounds:
        i = int(i)
        bound = Fraction(bound)
        if i in seen:
            raise ComputationError("index %d both known and unknown" % i)
        if not (vertices[0][0] <= i <= vertices[-1][0]):
            raise PrecisionError(
                "coefficient of unknown valuation at index %d lies outside the "
                "known index span; the hull cannot be certified" % i
            )
        h = polygon.hull_value(i)
        if bound < h or (strict and bound == h):
            raise PrecisionError(
                "hull not certified: coefficient at index %d only known to "
                "valuation >= %s but the hull needs > %s" % (i, bound, h),
                needed=h,
            )
    return polygon


def _on_hull(vertices, p):
    i, v = p
    for (i0, v0), (i1, v1) in zip(vertices, vertices[1:]):
        if i0 < i < i1 and (v - v0) * (i1 - i0) == (v1 - v0) * (i - i0):
            return True
    return False


def root_valuations(polygon):
    """Multiset of root valuations: slope -s, length l gives (s, l)."""
    if polygon.is_degenerate:
        raise ComputationError("degenerate polygon carries no root data")
    return [(-seg.slope, seg.length) for seg in polygon.segments]


# ---------------------------------------------------------------------------
# Weierstrass preparation


@dataclass(frozen=True)
class PreparedFactorization:
    """unit * distinguished = input, certified below the stated truncation."""

    unit: CoefficientSeries
    distinguished: CoefficientSeries
    degree: int
    trunc: Fraction


def weierstrass_prepare(f, precision=None):
    """Factor f = u * h with u a unit and h monic distinguished of degree d.

    d is the Weierstrass degree of f mod the maximal ideal; the iteration
    lifts the residue factorization slice by slice in the t-direction up to
    the guaranteed truncation (min of the coefficient truncations, capped by
    ``precision``; exact inputs use ``precision`` or the default).  An
    x-truncated f is factored as the polynomial of its known coefficients:
    those above ``x_trunc`` count as zero.
    """
    field = f.field
    X = f.x_trunc if f.x_trunc is not None else len(f.coeffs) - 1
    # working ramification grid and certified truncation
    n_ram = 1
    t_star = None
    for c in f.coeffs:
        n_ram = n_ram * c.n_ram // math.gcd(n_ram, c.n_ram)
        if c.trunc is not None:
            t_star = c.trunc if t_star is None else min(t_star, c.trunc)
        lb = c.valuation_lower_bound()
        if lb is not INFINITY and lb < 0:
            raise ComputationError("coefficients must be integral (valuation >= 0)")

    # an exact monic polynomial that is already distinguished factors as
    # 1 * itself, with nothing to approximate
    def _residue_known_zero(c):
        if c.trunc is not None and c.trunc <= 0:
            return False
        return not c.coefficient(0)

    lead = f.coeffs[-1]
    if (
        f.is_polynomial
        and lead.is_exact
        and lead == PuiseuxSeries.one(field)
        and all(_residue_known_zero(c) for c in f.coeffs[:-1])
    ):
        return PreparedFactorization(
            unit=CoefficientSeries(field, [PuiseuxSeries.one(field)]),
            distinguished=f,
            degree=len(f.coeffs) - 1,
            trunc=t_star,
        )
    if precision is not None:
        p_prec = Fraction(precision)
        t_star = p_prec if t_star is None else min(t_star, p_prec)
    if t_star is None:
        t_star = DEFAULT_TRUNCATION
    if t_star <= 0:
        raise PrecisionError("no positive t-precision available for preparation")
    n_slices = math.ceil(t_star * n_ram)

    # f as t-slices: slice k (exponent k/n_ram) maps x-degree -> code
    f_slices = [{} for _ in range(n_slices)]
    for i, c in enumerate(f.coeffs):
        scale = n_ram // c.n_ram
        for e, code in c.coeffs.items():
            if e * scale < n_slices:
                f_slices[e * scale][i] = code

    fbar = f_slices[0]
    if not fbar:
        if f.x_trunc is None:
            raise ComputationError(
                "input is 0 modulo the maximal ideal: no Weierstrass degree"
            )
        raise ComputationError(
            "Weierstrass degree exceeds the x-truncation %d "
            "(reduction vanishes up to that order)" % X
        )
    d = min(fbar)
    cut = X + 1
    ubar = {i - d: c for i, c in fbar.items()}
    ubar_inv = dense_unit_inverse(field, [ubar.get(j, 0) for j in range(d)], d)
    ubar_inv = {j: c for j, c in enumerate(ubar_inv) if c}
    neg = field.code_neg

    def minus(a, b):
        return code_sum(field, (a, {i: neg(c) for i, c in b.items()}), cut)

    # h = x^d + sum_k h_k t^(k/n_ram) and u = ubar + sum_k u_k t^(k/n_ram),
    # k >= 1; slice k of f = u*h reads rho_k = ubar h_k + u_k x^d, which has
    # exactly one solution with deg h_k < d and deg u_k <= X - d
    h_slices = [{} for _ in range(n_slices)]
    u_slices = [ubar] + [{} for _ in range(1, n_slices)]
    for k in range(1, n_slices):
        known = code_sum(
            field,
            (
                code_product(field, u_slices[a], h_slices[k - a], cut)
                for a in range(1, k)
                if u_slices[a] and h_slices[k - a]
            ),
        )
        rho = minus(f_slices[k], known)
        h_slices[k] = code_product(field, ubar_inv, rho, d)
        rest = minus(rho, code_product(field, ubar, h_slices[k], cut))
        u_slices[k] = {i - d: c for i, c in rest.items()}

    def _coefficients(slices, count):
        columns = [{} for _ in range(count)]
        for k, row in enumerate(slices):
            for j, c in row.items():
                columns[j][k] = c
        return [
            PuiseuxSeries._from_valid(field, col, n_ram, t_star) for col in columns
        ]

    width_u = X - d
    h_coeffs = _coefficients(h_slices, d) + [PuiseuxSeries.one(field)]
    distinguished = CoefficientSeries(field, h_coeffs, None)
    unit = CoefficientSeries(
        field,
        _coefficients(u_slices, width_u + 1),
        None if f.x_trunc is None and width_u == 0 else width_u,
    )
    return PreparedFactorization(
        unit=unit, distinguished=distinguished, degree=d, trunc=t_star
    )


# ---------------------------------------------------------------------------
# Newton-Puiseux root expansion


@dataclass(frozen=True)
class PuiseuxRoot:
    """One root (or root packet) of a polynomial over the Puiseux field.

    ``expansion`` is None for packets whose residual equation only has roots
    in a residue-field extension; the exact valuation and multiplicity are
    still reported.
    """

    valuation: object  # Fraction, or INFINITY for the zero root
    multiplicity: int
    expansion: object  # PuiseuxSeries or None


def _residual_roots(field, phi):
    """All roots of phi over F_q with multiplicities, plus the unmatched count."""
    if field.order > _RESIDUE_SEARCH_LIMIT:
        raise ComputationError(
            "residue field too large for exhaustive root search (q=%d)" % field.order
        )
    found = []
    remaining = list(phi)
    degree = len(phi) - 1
    for c in field.elements():
        if not c:
            continue
        mult = 0
        while len(remaining) > 1:
            quot, rem = _divide_linear(field, remaining, c)
            if rem:
                break
            mult += 1
            remaining = quot
        if mult:
            found.append((c, mult))
    matched = sum(m for _, m in found)
    return found, degree - matched


def _divide_linear(field, coeffs, c):
    """Divide sum a_j z^j by (z - c); returns (quotient, remainder)."""
    quot = [field.zero()] * (len(coeffs) - 1)
    acc = field.zero()
    for j in range(len(coeffs) - 1, 0, -1):
        acc = coeffs[j] + c * acc
        quot[j - 1] = acc
    rem = coeffs[0] + c * acc
    return quot, rem


def puiseux_roots(poly, target_precision, n_cap=64, require_expansions=False):
    """Expand the roots of a monic polynomial over the Puiseux field.

    Each hull segment of slope -s contributes roots of valuation s; the
    residual equation over the residue field is solved by exhaustive search,
    the substitution x = t**s (c + x') recurses, and expansions are certified
    below ``target_precision``.  Residual equations solvable only in a
    residue extension yield valuation-only entries unless
    ``require_expansions`` insists otherwise.
    """
    if not poly.is_polynomial:
        raise ComputationError("root expansion needs an honest polynomial")
    field = poly.field
    target = Fraction(target_precision)
    cs = list(poly.coeffs)
    if not cs[-1].known_nonzero:
        raise ComputationError("leading coefficient must be determinably nonzero")
    roots = _expand(field, cs, target, n_cap, 0, top=True)
    total = sum(r.multiplicity for r in roots)
    if total != poly.degree():
        raise ComputationError(
            "multiplicity bookkeeping lost roots: %d of %d" % (total, poly.degree())
        )
    if require_expansions and any(r.expansion is None for r in roots):
        raise ComputationError(
            "some residual equations have no residue-field root; full "
            "expansions were demanded"
        )
    return roots


def _expand(field, cs, target, n_cap, depth, top=False):
    if depth > _MAX_EXPANSION_DEPTH:
        raise PrecisionError("root expansion exceeded the depth guard")
    out = []
    # exact zero roots (terminated branches): strip powers of the variable
    k = 0
    while k < len(cs) - 1 and cs[k].is_exact_zero:
        k += 1
    if k:
        out.append(PuiseuxRoot(INFINITY, k, PuiseuxSeries.zero(field)))
        cs = cs[k:]
    if len(cs) == 1:
        return out
    pts = []
    unknowns = []
    const_bound = None
    for i, c in enumerate(cs):
        if c.known_nonzero:
            pts.append((i, c.valuation()))
        elif c.is_zero_at_precision:
            if i == 0:
                const_bound = c.trunc
            else:
                unknowns.append((i, c.trunc))
    if const_bound is not None and top:
        raise PrecisionError(
            "constant term is zero at precision %s: root valuations are not "
            "determined" % const_bound
        )
    polygon = newton_polygon(pts, unknowns, strict=True)
    hidden_cutoff = 0
    if const_bound is not None:
        # The unknown constant rules every root left of the tangency from
        # (0, const_bound) to the known hull.  If all of those lie beyond the
        # target they collapse into one zero-at-precision packet; otherwise
        # the answer genuinely depends on unavailable coefficients.
        i_star, val_lb = None, None
        for ik, vk in polygon.vertices:
            ratio = (const_bound - vk) / ik
            if val_lb is None or ratio >= val_lb:
                i_star, val_lb = ik, ratio
        if val_lb < target:
            raise PrecisionError(
                "roots hidden behind the constant term (known only to "
                "O(t^%s)) may reach valuation %s, below the target %s"
                % (const_bound, val_lb, target)
            )
        out.append(
            PuiseuxRoot(val_lb, i_star, PuiseuxSeries.zero_at_precision(field, target))
        )
        hidden_cutoff = i_star
    pos = polygon.vertices[0][0]
    for seg in polygon.segments:
        i0 = pos
        pos += seg.length
        s = -seg.slope
        if i0 < hidden_cutoff:
            continue
        if not top and s <= 0:
            continue
        work_n = s.denominator
        for c in cs:
            work_n = work_n * c.n_ram // math.gcd(work_n, c.n_ram)
        if work_n > n_cap:
            raise PrecisionError(
                "required ramification index %d exceeds the cap %d" % (work_n, n_cap)
            )
        v0 = polygon.hull_value(i0)
        phi = []
        for j in range(seg.length + 1):
            phi.append(cs[i0 + j].coefficient(v0 + seg.slope * j))
        found, unmatched = _residual_roots(field, phi)
        if unmatched:
            out.append(PuiseuxRoot(s, unmatched, None))
        for c, mult in found:
            if s >= target:
                out.append(
                    PuiseuxRoot(s, mult, PuiseuxSeries.zero_at_precision(field, target))
                )
                continue
            sub = _substitute(field, cs, s, c)
            tail = _expand(field, sub, target - s, n_cap, depth + 1)
            got = sum(r.multiplicity for r in tail)
            if got != mult:
                raise ComputationError(
                    "branch at slope %s lost multiplicity (%d of %d)" % (s, got, mult)
                )
            base = PuiseuxSeries.constant(field, c)
            for r in tail:
                if r.expansion is None:
                    out.append(PuiseuxRoot(s, r.multiplicity, None))
                    continue
                expansion = (base + r.expansion).shift(s)
                out.append(PuiseuxRoot(s, r.multiplicity, expansion))
    return out


def _substitute(field, cs, s, c):
    """Coefficients of P(t**s (c + y)) in y, renormalised by the minimal power."""
    d = len(cs) - 1
    new = [PuiseuxSeries.zero(field) for _ in range(d + 1)]
    for i, ci in enumerate(cs):
        if ci.is_exact_zero:
            continue
        shifted = ci.shift(s * i)
        power = field.one()
        # j descending so c^(i-j) builds incrementally
        binomials = [math.comb(i, j) for j in range(i + 1)]
        for j in range(i, -1, -1):
            coef = field.element(binomials[j]) * power
            if coef:
                new[j] = new[j] + shifted.scale(coef)
            power = power * c
    # renormalise so the smallest valuation is zero (exact monomial division)
    w = None
    for ci in new:
        lb = ci.valuation_lower_bound()
        if lb is INFINITY:
            continue
        w = lb if w is None else min(w, lb)
    if w:
        new = [ci.shift(-w) for ci in new]
    return new
