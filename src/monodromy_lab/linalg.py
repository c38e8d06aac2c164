"""Exact linear algebra over Q on sparse rows.

Rows are dicts {column: exact rational}: Python ``int`` or ``Fraction``
entries, mixed freely.  Everything reduces to a canonical reduced row
echelon basis, so subspaces compare by equality of their canonical rows.
All arithmetic is exact; no pivot thresholds anywhere.  ``rref`` eliminates
over the integers (each row scaled by the lcm of its denominators and kept
primitive), so integral input never builds a ``Fraction`` until the final
division by the pivots.
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


def _reduce_against(row, pivots):
    """Reduce a sparse row against pivot rows (pivot col -> normalized row)
    until its leading column is not a pivot; returns (row, that column)."""
    r = dict(row)
    while r:
        c = min(r)
        prow = pivots.get(c)
        if prow is None:
            return r, c
        _subtract(r, r[c], prow)
    return r, None


def _primitive(row):
    """The nonzero integer multiple of a nonempty row with content 1 and a
    positive leading entry."""
    if any(type(v) is not int for v in row.values()):
        den = lcm(*(v.denominator for v in row.values()))
        row = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
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


def _normalize(row, p):
    """Divide an integer row by its pivot p in place, keeping ints where p
    divides."""
    if p != 1:
        for c in row:
            q, m = divmod(row[c], p)
            row[c] = Fraction(row[c], p) if m else q


def rref(rows):
    """Canonical reduced echelon basis: dict pivot_col -> normalized row.

    Fraction-free Gauss-Jordan, integer-preserving as in Bareiss: each row
    is scaled to a primitive integer row, and a column is cleared by the
    cross-multiplication r <- a*r - b*prow, with a and b the two entries
    there divided by their gcd.  Pivot rows stay primitive, with positive
    pivots.  Only the returned rows are divided by their pivot: an entry is
    an ``int`` where the pivot divides it and a ``Fraction`` otherwise."""
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
    for c, r in pivots.items():
        _normalize(r, r[c])
    return pivots


def rank(rows):
    return len(rref(rows))


class RowSpace:
    """An exact subspace of Q^ambient, held in canonical RREF form."""

    __slots__ = ("ambient", "pivots")

    def __init__(self, ambient, rows=(), _pivots=None):
        self.ambient = ambient
        self.pivots = rref(rows) if _pivots is None else _pivots

    @property
    def dim(self):
        return len(self.pivots)

    def basis_rows(self):
        return [dict(self.pivots[c]) for c in sorted(self.pivots)]

    def contains_row(self, row):
        residual, _ = _reduce_against(row, self.pivots)
        return not residual

    def contains(self, other):
        return all(self.contains_row(r) for r in other.pivots.values())

    def add(self, other):
        if self.ambient != other.ambient:
            raise ComputationError("ambient dimension mismatch")
        return RowSpace(self.ambient, self.basis_rows() + other.basis_rows())

    def intersect(self, other):
        """Zassenhaus: rref of [[U, U], [W, 0]]; zero-left rows span the meet."""
        if self.ambient != other.ambient:
            raise ComputationError("ambient dimension mismatch")
        n = self.ambient
        stacked = []
        for r in self.basis_rows():
            row = dict(r)
            row.update({c + n: v for c, v in r.items()})
            stacked.append(row)
        stacked.extend(dict(r) for r in other.basis_rows())
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
            and self.canonical() == other.canonical()
        )

    def __hash__(self):
        return hash((self.ambient, self.canonical()))

    def __repr__(self):
        return "RowSpace(dim=%d of %d)" % (self.dim, self.ambient)


def nullspace(rows, ambient):
    """Basis of {v : row . v = 0 for all rows}, rows sparse over ``ambient``."""
    pivots = rref(rows)
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
