"""Exact linear algebra over Q on sparse rows.

Rows are dicts {column: Fraction}.  Everything reduces to a canonical
reduced row echelon basis, so subspaces compare by equality of their
canonical rows.  All arithmetic is exact; no pivot thresholds anywhere.
"""

from fractions import Fraction

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


def rref(rows):
    """Canonical reduced echelon basis: dict pivot_col -> normalized row."""
    pivots = {}
    for row in rows:
        r, c = _reduce_against(row, pivots)
        if c is None:
            continue
        # _reduce_against stops at the first non-pivot column; the existing
        # pivot columns to its right must be cleared too, or the basis is
        # not reduced (and nullspace reads wrong coefficients off it).
        # Existing rows are zero on each other's pivots, so one pass does.
        for pc in [cc for cc in r if cc in pivots]:
            _subtract(r, r[pc], pivots[pc])
        inv = Fraction(1) / r[c]
        r = {cc: vv * inv for cc, vv in r.items()}
        for prow in pivots.values():
            if c in prow:
                _subtract(prow, prow[c], r)
        pivots[c] = r
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
        vec = {f: Fraction(1)}
        for pc, prow in pivots.items():
            coef = prow.get(f)
            if coef:
                vec[pc] = -coef
        basis.append(vec)
    return basis
