"""Exact linear algebra over Q on sparse rows.

Rows are dicts {column: exact rational}: Python ``int`` or ``Fraction``
entries, mixed freely.  A subspace is held fraction-free: its reduced row
echelon basis with every row scaled to the primitive integer row (content 1)
with a positive pivot.  That scaling is as canonical as pivots equal to 1,
so subspaces compare by equality of their rows.  All arithmetic is exact; no
pivot thresholds anywhere.  ``rref`` eliminates over the integers and
returns those primitive rows, so integral input never builds a ``Fraction``;
membership tests eliminate against them the same way.  Only
``RowSpace.basis_rows`` and ``nullspace`` divide by the pivots.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import ComputationError


def _subtract(r, factor, row):
    """r -= factor * row in place, dropping the entries that cancel."""
    for cc, vv in row.items():
        nv = r.get(cc, 0) - factor * vv
        if nv:
            r[cc] = nv
        else:
            r.pop(cc, None)


def _primitive(row):
    """The nonzero integer multiple of a nonempty row with content 1 and a
    positive leading entry."""
    try:
        g = gcd(*row.values())
    except TypeError:  # a Fraction entry: clear denominators first
        den = lcm(*(v.denominator for v in row.values()))
        row = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
        g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    if g != 1:
        row = {c: v // g for c, v in row.items()}
    return row


def _eliminate(r, c, prow):
    """r <- a*r - b*prow in place, for integer rows r and prow, with
    a : b = prow[c] : r[c] in lowest terms, so that r is zero at column c."""
    a, b = prow[c], r[c]
    g = gcd(a, b)
    if g != 1:
        a //= g
        b //= g
    if a != 1:
        for cc in r:
            r[cc] *= a
    _subtract(r, b, prow)


def _normalized(row, p):
    """An integer row divided by its pivot p: an ``int`` where p divides the
    entry and a ``Fraction`` otherwise."""
    if p == 1:
        return dict(row)
    out = {}
    for c, v in row.items():
        q, m = divmod(v, p)
        out[c] = Fraction(v, p) if m else q
    return out


def rref(rows):
    """Canonical fraction-free reduced echelon basis: dict pivot_col ->
    primitive integer row with a positive pivot, zero on every other pivot
    column.

    Fraction-free Gauss-Jordan, integer-preserving as in Bareiss: each row
    is scaled to a primitive integer row, and a column is cleared by the
    cross-multiplication r <- a*r - b*prow, with a and b the two entries
    there divided by their gcd."""
    pivots = {}
    for row in rows:
        r = {c: v for c, v in row.items() if v}
        if not r:
            continue
        r = _primitive(r)
        # existing pivot rows are zero on each other's pivot columns, so
        # clearing one never brings another back: one pass clears them all,
        # those right of the new leading column included (without those the
        # basis is not reduced, and nullspace reads wrong coefficients off it)
        for pc in [cc for cc in r if cc in pivots]:
            _eliminate(r, pc, pivots[pc])
        if not r:
            continue
        r = _primitive(r)
        c = min(r)
        for pc, prow in pivots.items():
            if c in prow:
                _eliminate(prow, c, r)
                pivots[pc] = _primitive(prow)
        pivots[c] = r
    return pivots


def rank(rows):
    return len(rref(rows))


class RowSpace:
    """An exact subspace of Q^ambient, held as its ``rref``: pivot column ->
    primitive integer row with a positive pivot."""

    __slots__ = ("ambient", "pivots")

    def __init__(self, ambient, rows=()):
        self.ambient = ambient
        self.pivots = rref(rows)

    @property
    def dim(self):
        return len(self.pivots)

    def integer_rows(self):
        """The primitive integer basis rows, by ascending pivot column."""
        return [dict(self.pivots[c]) for c in sorted(self.pivots)]

    def basis_rows(self):
        """The reduced echelon basis rows divided by their pivots."""
        return [_normalized(self.pivots[c], self.pivots[c][c]) for c in sorted(self.pivots)]

    def _same_ambient(self, other):
        if self.ambient != other.ambient:
            raise ComputationError("ambient dimension mismatch")

    def contains_row(self, row):
        r = {c: v for c, v in row.items() if v}
        if not r:
            return True
        lead = min(r)
        if lead < 0 or max(r) >= self.ambient:
            raise ComputationError("row has a column outside Q^%d" % self.ambient)
        # every row of the space leads at a pivot column
        if lead not in self.pivots:
            return False
        r = _primitive(r)
        # pivot rows vanish on each other's pivot columns: one pass
        for pc in [cc for cc in r if cc in self.pivots]:
            _eliminate(r, pc, self.pivots[pc])
        return not r

    def contains(self, other):
        self._same_ambient(other)
        return all(self.contains_row(r) for r in other.pivots.values())

    def add(self, other):
        self._same_ambient(other)
        return RowSpace(self.ambient, self.integer_rows() + other.integer_rows())

    def intersect(self, other):
        """Zassenhaus: rref of [[U, U], [W, 0]]; zero-left rows span the meet."""
        self._same_ambient(other)
        n = self.ambient
        stacked = []
        for r in self.pivots.values():
            row = dict(r)
            row.update({c + n: v for c, v in r.items()})
            stacked.append(row)
        stacked.extend(other.integer_rows())
        reduced = rref(stacked)
        meet = []
        for c, row in reduced.items():
            if c >= n:
                meet.append({cc - n: v for cc, v in row.items()})
        return RowSpace(n, meet)

    def canonical(self):
        return tuple(
            (c, tuple(sorted(self.pivots[c].items()))) for c in sorted(self.pivots)
        )

    def __eq__(self, other):
        return (
            isinstance(other, RowSpace)
            and self.ambient == other.ambient
            and self.pivots == other.pivots
        )

    def __hash__(self):
        return hash((self.ambient, self.canonical()))

    def __repr__(self):
        return "RowSpace(dim=%d of %d)" % (self.dim, self.ambient)


def nullspace(rows, ambient):
    """Basis of {v : row . v = 0 for all rows}, rows sparse over ``ambient``."""
    pivots = {c: _normalized(r, r[c]) for c, r in rref(rows).items()}
    free = [c for c in range(ambient) if c not in pivots]
    basis = []
    for f in free:
        vec = {f: 1}
        for pc, prow in pivots.items():
            coef = prow.get(f)
            if coef:
                vec[pc] = -coef
        basis.append(vec)
    return basis
