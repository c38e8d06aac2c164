"""Polynomials and power series in x over rings of truncated Puiseux series.

The tools that live here:

* ``pack`` / ``packed_product`` / ``packed_sum`` / ``packed_unit_inverse``
  / ``unpack`` -- the kernel for truncated x-series arithmetic: an x-series
  whose coefficients are t-series on one grid is one code map keyed
  i << SH | e (Kronecker substitution in x) plus a per-degree t-cut, so a
  product is one ``series.code_product`` call, the x-bound is the key cut,
  and the t-cuts follow the rules of ``PuiseuxSeries``.
  ``CoefficientSeries`` multiplies through it and so does the [m]-series
  build of ``formal_groups``;
* ``truncated_product`` / ``truncated_unit_inverse`` -- the tuple-keyed
  oracle: sparse maps from exponent tuples to ``PuiseuxSeries``, cut at a
  total-degree bound, one series product per pair of terms.  The bivariate
  formal-group build (``ec_formal_group``) runs on it;
* ``weierstrass_prepare`` -- factor a power series f(x) over R = F_q[[t]]
  (or a ramified extension) as unit * monic distinguished polynomial,
  lifting one t-slice at a time from the residual; a slice is a map
  x-degree -> code, multiplied and summed by the code kernel of ``series``;
* ``newton_polygon`` / ``root_valuations`` -- exact lower convex hulls of
  (index, valuation) data and the root-valuation multisets they encode; the
  hull is taken on an integer grid (valuations times the lcm of their
  denominators) and reported in Fractions;
* ``puiseux_roots`` -- a Newton-Puiseux iteration that actually expands the
  roots over Puiseux extensions, used as an independent oracle against the
  polygon bookkeeping.  Each step runs on codes: the residual equation is
  searched in code order by Horner division, and the substitution
  x = t**s (c + y) is one pass over the coefficients' codes on their common
  ramification grid, building one series per output coefficient.

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


# ---------------------------------------------------------------------------
# x-series packed into one code map (Kronecker substitution in x)

#: bits of t-exponent per x-degree slot: x^i t^(e/n) is the key i << SH | e
SH = 20


def _check_slots(codes):
    """Refuse t-exponents that a product could carry into the next x-slot.

    Every packed exponent stays below 2**(SH - 1), so the exponent sums of
    a product stay below 2**SH; a product of such maps can only break the
    bound through bit SH - 1.
    """
    half = 1 << (SH - 1)
    if any(map(half.__and__, codes)):
        raise ComputationError(
            "t-exponent %d does not fit a packed x-slot of %d bits"
            % (max(k & ((1 << SH) - 1) for k in codes), SH)
        )


def packed_grid(coeffs):
    """The common grid of some series: the lcm of their ramification
    indices and of the denominators of their truncations."""
    n = 1
    for c in coeffs:
        n = math.lcm(n, c.n_ram, 1 if c.trunc is None else c.trunc.denominator)
    return n


def pack(coeffs, n, offset=0):
    """An x-series as (codes, cuts) on the grid t^(1/n).

    ``coeffs[i]`` is the coefficient of x^i; its term e/n goes to the key
    i << SH | (e - offset), and a truncated coefficient records the cut
    ``{i: T*n - offset}``.  A degree absent from both maps is exactly zero;
    a cut with no codes is zero at precision.  ``n`` must be a multiple of
    ``packed_grid(coeffs)``, and every exponent minus ``offset`` must lie in
    [0, 2**(SH - 1)).
    """
    half = 1 << (SH - 1)
    codes, cuts = {}, {}
    for i, c in enumerate(coeffs):
        scale = n // c.n_ram
        for e, code in c.coeffs.items():
            e = e * scale - offset
            if not 0 <= e < half:
                raise ComputationError(
                    "t-exponent %d does not fit a packed x-slot of %d bits" % (e, SH)
                )
            codes[i << SH | e] = code
        if c.trunc is not None:
            cuts[i] = int(c.trunc * n) - offset
    return codes, cuts


def unpack(field, packed, n, offset=0):
    """The map {(i,): c_i} of the coefficients of a packed x-series that are
    not exactly zero: one ``PuiseuxSeries`` per x-degree."""
    codes, cuts = packed
    mask = (1 << SH) - 1
    slices = {i: {} for i in cuts}
    for k, c in codes.items():
        slices.setdefault(k >> SH, {})[(k & mask) + offset] = c
    return {
        (i,): PuiseuxSeries._from_valid(
            field, s, n, Fraction(cuts[i] + offset, n) if i in cuts else None
        )
        for i, s in slices.items()
    }


def _lows(packed):
    """{i: least exponent} per present x-degree; the cut stands in for it on
    a coefficient that is zero at precision."""
    codes, cuts = packed
    mask = (1 << SH) - 1
    lows = dict(cuts)
    for k in codes:
        i, e = k >> SH, k & mask
        low = lows.get(i)
        if low is None or e < low:
            lows[i] = e
    return lows


def _filter_cuts(codes, cuts):
    """The codes that lie below the cut of their x-degree."""
    mask, inf = (1 << SH) - 1, 1 << SH
    return {k: c for k, c in codes.items() if k & mask < cuts.get(k >> SH, inf)}


def packed_product(field, a, b, bound):
    """a * b cut above x-degree ``bound``: one ``code_product`` on the keys.

    The cut of degree k is the min over i + j = k of cut_a(i) + low_b(j)
    and low_a(i) + cut_b(j), the rule of ``PuiseuxSeries.__mul__`` summed
    as ``PuiseuxSeries.__add__`` sums; the codes at or above it are dropped.
    """
    (codes_a, cuts_a), (codes_b, cuts_b) = a, b
    if not (codes_a or cuts_a) or not (codes_b or cuts_b):
        return {}, {}
    codes = code_product(field, codes_a, codes_b, (bound + 1) << SH)
    cuts = {}
    for cuts_x, y in ((cuts_a, b), (cuts_b, a)):
        if not cuts_x:
            continue
        lows = _lows(y)
        for i, cut in cuts_x.items():
            for j, low in lows.items():
                k = i + j
                if k <= bound and (k not in cuts or cut + low < cuts[k]):
                    cuts[k] = cut + low
    if cuts:
        codes = _filter_cuts(codes, cuts)
    _check_slots(codes)
    return codes, cuts


def packed_sum(field, parts):
    """The sum of packed x-series, each degree cut at the least of its cuts."""
    parts = list(parts)
    codes = code_sum(field, (c for c, _ in parts))
    cuts = {}
    for _, part_cuts in parts:
        for i, cut in part_cuts.items():
            if i not in cuts or cut < cuts[i]:
                cuts[i] = cut
    return (_filter_cuts(codes, cuts) if cuts else codes), cuts


def packed_scale(field, packed, c):
    """The product with the nonzero scalar code ``c``."""
    codes, cuts = packed
    mul = field.code_mul
    return {k: mul(c, v) for k, v in codes.items()}, cuts


def packed_shift(packed, k, bound):
    """The product with x^k, cut above x-degree ``bound``."""
    codes, cuts = packed
    top, step = (bound + 1 - k) << SH, k << SH
    return (
        {key + step: c for key, c in codes.items() if key < top},
        {i + k: cut for i, cut in cuts.items() if i + k <= bound},
    )


def packed_slices(packed, top):
    """The packed x-series of degree i alone, for i = 0..top."""
    codes, cuts = packed
    slices = [({}, {}) for _ in range(top + 1)]
    for k, c in codes.items():
        i = k >> SH
        if i <= top:
            slices[i][0][k] = c
    for i, cut in cuts.items():
        if i <= top:
            slices[i][1][i] = cut
    return slices


def packed_unit_inverse(field, a, bound):
    """The inverse of a packed x-series with constant term exactly 1, cut
    above x-degree ``bound``, solved degree by degree as in
    ``truncated_unit_inverse``."""
    parts = packed_slices(a, bound)
    if parts[0] != ({0: 1}, {}):
        raise ComputationError("unit inverse needs a constant term exactly 1")
    neg = field.code_neg
    live = [j for j in range(1, bound + 1) if parts[j] != ({}, {})]
    codes, cuts = {0: 1}, {}
    layers = [parts[0]]
    for d in range(1, bound + 1):
        acc_codes, acc_cuts = packed_sum(
            field,
            (packed_product(field, parts[j], layers[d - j], d) for j in live if j <= d),
        )
        layer = {k: neg(c) for k, c in acc_codes.items()}, acc_cuts
        layers.append(layer)
        codes.update(layer[0])
        cuts.update(acc_cuts)
    return codes, cuts


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
        # each operand packed above its least t-exponent, so negative and
        # ramified exponents pack; the product's offset is the sum
        field = self.field
        n = packed_grid(self.coeffs + other.coeffs)
        packed, offset = [], 0
        for s in (self, other):
            low = min(
                (int(c.valuation_lower_bound() * n) for c in s.coeffs if not c.is_exact_zero),
                default=0,
            )
            packed.append(pack(s.coeffs, n, low))
            offset += low
        prod = packed_product(field, packed[0], packed[1], top)
        return CoefficientSeries.from_terms(field, unpack(field, prod, n, offset), xt)

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


def newton_polygon(points, unknown_bounds=(), strict=False):
    """Lower convex hull of exact (index, valuation) points.

    The hull and the collinear test run on an integer grid: every valuation
    is scaled by the lcm D of their denominators, so the monotone-chain turn
    test and the on-segment test are int cross products.  Vertices, points
    and collinear points are reported as (index, Fraction) pairs and slopes
    as Fractions, (V1 - V0) / (D * (i1 - i0)) on the grid values V.

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
        pts.append((i, v if type(v) is Fraction else Fraction(v)))
    if not pts:
        raise ComputationError("polygon needs at least one point")
    pts.sort()
    D = math.lcm(*(v.denominator for _, v in pts))
    grid = [(i, v.numerator * (D // v.denominator)) for i, v in pts]
    hull = []  # positions in pts, index order
    for k, (i, V) in enumerate(grid):
        while len(hull) >= 2:
            (ia, Va), (ib, Vb) = grid[hull[-2]], grid[hull[-1]]
            if (ib - ia) * (V - Va) - (Vb - Va) * (i - ia) > 0:
                break
            hull.pop()
        hull.append(k)
    # the points between two consecutive vertices are the segment interior's
    segments = []
    collinear = []
    for a, b in zip(hull, hull[1:]):
        (i0, V0), (i1, V1) = grid[a], grid[b]
        segments.append(Segment(Fraction(V1 - V0, D * (i1 - i0)), i1 - i0))
        for k in range(a + 1, b):
            i, V = grid[k]
            if (V - V0) * (i1 - i0) == (V1 - V0) * (i - i0):
                collinear.append(pts[k])
    vertices = tuple(pts[k] for k in hull)
    polygon = NewtonPolygon(
        vertices=vertices,
        segments=tuple(segments),
        points=tuple(pts),
        collinear=tuple(collinear),
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
    """All roots of phi over F_q with multiplicities, plus the unmatched count.

    ``phi`` and the roots are codes; candidates are tried in code order.
    """
    if field.order > _RESIDUE_SEARCH_LIMIT:
        raise ComputationError(
            "residue field too large for exhaustive root search (q=%d)" % field.order
        )
    found = []
    remaining = list(phi)
    degree = len(phi) - 1
    for c in range(1, field.order):
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
    """Divide sum a_j z^j by (z - c) by Horner on codes; returns (quotient,
    remainder)."""
    add, mul = field.code_add, field.code_mul
    quot = [0] * (len(coeffs) - 1)
    acc = 0
    for j in range(len(coeffs) - 1, 0, -1):
        acc = add(coeffs[j], mul(c, acc))
        quot[j - 1] = acc
    rem = add(coeffs[0], mul(c, acc))
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
        phi = [cs[i0 + j].code_at(v0 + seg.slope * j) for j in range(seg.length + 1)]
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
            base = PuiseuxSeries._from_valid(field, {0: c}, 1, None)
            for r in tail:
                if r.expansion is None:
                    out.append(PuiseuxRoot(s, r.multiplicity, None))
                    continue
                expansion = (base + r.expansion).shift(s)
                out.append(PuiseuxRoot(s, r.multiplicity, expansion))
    return out


def _substitute(field, cs, s, c):
    """Coefficients of P(t**s (c + y)) in y, renormalised by the minimal power.

    One pass on the common grid N = lcm(s.denominator, every c_i.n_ram): the
    term (e, v) of c_i adds binom(i, j) * c**(i - j) * v to output coefficient
    j <= i at grid exponent e * (N / n_i) + s * N * i.  A scalar that is 0 mod
    p adds nothing, not even its truncation: output j is cut at the min of
    T_i + s * i over the i whose c_i is not exactly zero and whose scalar is
    nonzero.  The renormaliser w is the min over j of the least surviving
    exponent, or of the truncation where nothing survives; dividing by t**w
    moves the codes by -w on the grid lcm(N, w.denominator).  ``c`` is a
    nonzero code.
    """
    d = len(cs) - 1
    live = [i for i, ci in enumerate(cs) if not ci.is_exact_zero]
    n = math.lcm(s.denominator, *(cs[i].n_ram for i in live))
    step = s.numerator * (n // s.denominator)
    prime = field.degree == 1
    p = field.p
    add, mul = field.code_add, field.code_mul
    powers = [1]  # c**k as codes
    for _ in range(d):
        powers.append(mul(powers[-1], c))
    # per output j: the contributing (i, scalar) pairs and the truncation
    scalars = [[] for _ in range(d + 1)]
    truncs = [None] * (d + 1)
    for i in live:
        ti = cs[i].trunc
        if ti is not None:
            ti = ti + s * i
        for j in range(i + 1):
            b = math.comb(i, j) % p
            if not b:
                continue
            scalars[j].append((i, mul(b, powers[i - j])))
            if ti is not None and (truncs[j] is None or ti < truncs[j]):
                truncs[j] = ti
    # c_i's codes on the grid, shifted by s * i
    terms = {}
    for i in live:
        ci = cs[i]
        scale = n // ci.n_ram
        base = step * i
        terms[i] = [(e * scale + base, v) for e, v in ci.coeffs.items()]
    out = []
    for j in range(d + 1):
        trunc = truncs[j]
        cut = INFINITY if trunc is None else math.ceil(trunc * n)
        acc = {}
        get = acc.get
        if prime:
            for i, b in scalars[j]:
                for e, v in terms[i]:
                    if e < cut:
                        acc[e] = get(e, 0) + b * v
            acc = {e: v % p for e, v in acc.items() if v % p}
        else:
            for i, b in scalars[j]:
                for e, v in terms[i]:
                    if e < cut:
                        acc[e] = add(get(e, 0), mul(b, v))
            acc = {e: v for e, v in acc.items() if v}
        out.append(acc)
    # renormalise so the smallest valuation is zero (exact monomial division)
    low = min((min(acc) for acc in out if acc), default=None)
    w = None if low is None else Fraction(low, n)
    for acc, trunc in zip(out, truncs):
        if not acc and trunc is not None and (w is None or trunc < w):
            w = trunc
    if w:
        grid = math.lcm(n, w.denominator)
        scale = grid // n
        move = w.numerator * (grid // w.denominator)
        out = [{e * scale - move: v for e, v in acc.items()} for acc in out]
        truncs = [None if trunc is None else trunc - w for trunc in truncs]
        n = grid
    return [
        PuiseuxSeries._from_valid(field, acc, n, trunc)
        for acc, trunc in zip(out, truncs)
    ]
