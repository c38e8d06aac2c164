"""Exact Clifford algebras of signature-(n, 2) lattices and their boundary
weight filtrations.

The algebra Cl(V) of a rational quadratic space (V, q) is presented on the
2^(n+2) monomials e_S = e_s1 ... e_sk (s1 < ... < sk) against the full Gram
matrix:

    e_i e_j + e_j e_i = 2 B(e_i, e_j),    e_i^2 = q(e_i) = B(e_i, e_i).

A basis vector times a monomial has a closed form, Chevalley's identity
v x = v ^ x + v _| x written out in this basis: moving e_i rightwards past
each s_m < i contracts with 2 B(e_i, e_sm) at sign (-1)^(m-1), and then e_i
either squares to q(e_i) or takes its slot, at sign (-1)^(number of s_m < i).
A product e_S * x applies e_sk, ..., e_s1 to x in turn.  No
orthogonalisation is forced anywhere: the interesting vectors here are
isotropic.  Weight filtrations of degenerating weight-two structures are
computed as exact left-ideal images:

* type II (2-dim isotropic I = <e1, e2>):
      W_-2 = im(e1 e2) = e1 im(e2)  of dimension 2^n,
      W_-1 = im(e1) + im(e2),
      with the weight-one graded piece of dimension 2^(n+1);
* type III (isotropic line <e1>):
      W_-2 = W_-1 = im(e1)  of dimension 2^(n+1), trivial gr_1.

``graded_splitting`` intersects the ascending filtration built from the dual
isotropic vectors (e3, e4) with the W-pieces, and
``cocharacter_conjugation_check`` verifies that left multiplication by
vectors of the three homogeneous slots shifts the splitting by one weight
step and preserves the even/odd grading.

A monomial e_S is keyed everywhere by the bitmask of S (bit i set iff
e_(i+1) occurs), and that bitmask is also its column in the ``RowSpace``
rows, so an element's terms are a sparse row as they stand.  Subspaces of
Cl(V) are ``RowSpace`` objects over 2^(n+2) columns.

Coefficients are exact rationals, coerced once at the boundary (Gram
entries, ``vector`` coordinates, ``scale`` factors) to an ``int`` when
integral and a ``Fraction`` otherwise.  Over an integral Gram matrix every
structure constant and every product is therefore an ``int``; a rational
Gram matrix gives ``Fraction``s through the same code.  All linear algebra
runs over Q with exact, integer-preserving row reduction; n is capped at 6
(algebra dimension 256) so rank certificates stay cheap.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import ComputationError
from .linalg import RowSpace, nullspace, rank

_MAX_N = 6


def _exact(x):
    """x as an exact rational: an ``int`` when integral, else a ``Fraction``."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class GramLattice:
    """A rational quadratic lattice of signature (n, 2), by its Gram matrix."""

    def __init__(self, gram):
        gram = tuple(tuple(_exact(x) for x in row) for row in gram)
        dim = len(gram)
        if any(len(row) != dim for row in gram):
            raise ComputationError("Gram matrix must be square")
        for i in range(dim):
            for j in range(dim):
                if gram[i][j] != gram[j][i]:
                    raise ComputationError("Gram matrix must be symmetric")
        if dim < 3 or dim - 2 > _MAX_N:
            raise ComputationError(
                "ambient dimension must be between 3 and %d" % (_MAX_N + 2)
            )
        pos, neg = _signature(gram)
        if pos + neg != dim:
            raise ComputationError("Gram matrix is degenerate")
        if neg != 2:
            raise ComputationError(
                "signature is (%d, %d), not (n, 2)" % (pos, neg)
            )
        self.gram = gram
        self.dim = dim
        self.n = dim - 2
        # per i: (bit of j, bits below j, 2 B(e_i, e_j)) for j < i, B != 0
        self._contractions = tuple(
            tuple((1 << j, (1 << j) - 1, 2 * gram[i][j]) for j in range(i) if gram[i][j])
            for i in range(dim)
        )

    # -- standard shapes ---------------------------------------------------

    @classmethod
    def split(cls, n):
        """Two hyperbolic planes <e1, e3>, <e2, e4> plus a definite rest.

        Basis order: e1, e2 (isotropic pair), e3, e4 (duals), then an
        orthonormal tail.  Needs n >= 2.
        """
        if n < 2:
            raise ComputationError("two hyperbolic planes need n >= 2")
        dim = n + 2
        g = [[0] * dim for _ in range(dim)]
        g[0][2] = g[2][0] = 1
        g[1][3] = g[3][1] = 1
        for i in range(4, dim):
            g[i][i] = 1
        return cls(g)

    @classmethod
    def one_hyperbolic(cls, n):
        """One hyperbolic plane <e1, e2-dual> plus diag(1,...,1,-1); n >= 1."""
        if n < 1:
            raise ComputationError("n must be >= 1")
        dim = n + 2
        g = [[0] * dim for _ in range(dim)]
        g[0][1] = g[1][0] = 1
        for i in range(2, dim - 1):
            g[i][i] = 1
        g[dim - 1][dim - 1] = -1
        return cls(g)

    # -- plumbing ------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, GramLattice) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        return "GramLattice(n=%d)" % self.n

    def bilinear(self, v, w):
        """B(v, w) on coordinate vectors."""
        return sum(
            v[i] * self.gram[i][j] * w[j]
            for i in range(self.dim)
            for j in range(self.dim)
            if v[i] and self.gram[i][j] and w[j]
        )

    def quadratic(self, v):
        return self.bilinear(v, v)

    def vector(self, coords):
        coords = [_exact(c) for c in coords]
        if len(coords) != self.dim:
            raise ComputationError("vector needs %d coordinates" % self.dim)
        terms = {1 << i: c for i, c in enumerate(coords) if c}
        return CliffordElement(self, terms)

    def basis_vector(self, i):
        return CliffordElement(self, {1 << i: 1})

    def one(self):
        return CliffordElement(self, {0: 1})

    def monomials(self):
        """All monomial bitmasks, in increasing order."""
        return range(1 << self.dim)

    def _left_basis_mul(self, i, terms):
        """e_i * x in closed form, for x given by its terms {bitmask: coeff};
        all ``int`` over an integral Gram matrix."""
        bit = 1 << i
        below = bit - 1
        q = self.gram[i][i]
        contractions = self._contractions[i]
        out = {}
        for t, c in terms.items():
            # e_i passes the indices of t below i, one sign flip each
            signed = -c if (t & below).bit_count() & 1 else c
            if t & bit:
                if q:
                    m = t ^ bit
                    out[m] = out.get(m, 0) + q * signed
            else:
                m = t | bit
                out[m] = out.get(m, 0) + signed
            for jbit, jbelow, twob in contractions:
                if t & jbit:
                    m = t ^ jbit
                    v = twob * c
                    if (t & jbelow).bit_count() & 1:
                        v = -v
                    out[m] = out.get(m, 0) + v
        return {m: c for m, c in out.items() if c}


def _mask_to_tuple(mask):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


class CliffordElement:
    """A rational element of Cl(V) over the subset-monomial basis.

    ``terms`` maps the bitmask of S to the exact coefficient of e_S, an
    ``int`` or a ``Fraction``; the bitmasks are the ``RowSpace`` columns, so
    ``terms`` is a sparse row.  Callers coerce at the boundary
    (``GramLattice.vector``, ``scale``).
    """

    __slots__ = ("lattice", "terms")

    def __init__(self, lattice, terms):
        self.lattice = lattice
        self.terms = {m: c for m, c in terms.items() if c}

    def _check(self, other):
        if self.lattice != other.lattice:
            raise ComputationError("elements over different lattices")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, CliffordElement)
            and self.lattice == other.lattice
            and self.terms == other.terms
        )

    __hash__ = None

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return CliffordElement(self.lattice, out)

    def __neg__(self):
        return CliffordElement(self.lattice, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = _exact(c)
        return CliffordElement(self.lattice, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        left = self.lattice._left_basis_mul
        out = {}
        for ms, cs in self.terms.items():
            # e_S x = e_s1 (e_s2 (... (e_sk x))): highest index first
            prod = {mt: cs * ct for mt, ct in other.terms.items()}
            while ms and prod:
                i = ms.bit_length() - 1
                prod = left(i, prod)
                ms ^= 1 << i
            for mono, c in prod.items():
                out[mono] = out.get(mono, 0) + c
        return CliffordElement(self.lattice, out)

    __rmul__ = __mul__

    def parity(self):
        """0 (even), 1 (odd), or None if mixed."""
        seen = {m.bit_count() % 2 for m in self.terms}
        if len(seen) == 1:
            return seen.pop()
        return None if seen else 0

    def grade_one_coords(self):
        """Coordinate vector if the element is a pure vector, else None."""
        coords = [0] * self.lattice.dim
        for m, c in self.terms.items():
            if m.bit_count() != 1:
                return None
            coords[m.bit_length() - 1] = c
        return coords

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda m: (m.bit_count(), _mask_to_tuple(m))):
            name = "".join("e%d" % (i + 1) for i in _mask_to_tuple(m)) or "1"
            parts.append("%s*%s" % (self.terms[m], name))
        return " + ".join(parts)


def _signature(gram):
    """Inertia (pos, neg) of a symmetric matrix by exact congruence."""
    dim = len(gram)
    m = [list(row) for row in gram]
    pos = neg = 0
    for i in range(dim):
        if m[i][i] == 0:
            swap = next((j for j in range(i + 1, dim) if m[j][j] != 0), None)
            if swap is not None:
                for r in m:
                    r[i], r[swap] = r[swap], r[i]
                m[i], m[swap] = m[swap], m[i]
            else:
                off = next((j for j in range(i + 1, dim) if m[i][j] != 0), None)
                if off is None:
                    return pos, neg  # degenerate: zero block remains
                for k in range(dim):
                    m[i][k] += m[off][k]
                for k in range(dim):
                    m[k][i] += m[k][off]
        pivot = m[i][i]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        for j in range(i + 1, dim):
            factor = Fraction(m[j][i], pivot)
            if not factor:
                continue
            for k in range(dim):
                m[j][k] -= factor * m[i][k]
            for k in range(dim):
                m[k][j] -= factor * m[k][i]
    return pos, neg


# ---------------------------------------------------------------------------
# left ideals and filtrations


def left_ideal_image(lattice, element):
    """The left ideal element * Cl(V) as an exact ``RowSpace``."""
    if not element:
        raise ComputationError("left ideal of the zero element")
    rows = []
    for mono in lattice.monomials():
        prod = element * CliffordElement(lattice, {mono: 1})
        if prod:
            rows.append(prod.terms)
    return RowSpace(1 << lattice.dim, rows)


def _products(element, space):
    """element * r for the primitive integer rows r of a ``RowSpace``, as
    sparse rows; ``int`` over an integral Gram matrix."""
    lattice = element.lattice
    for r in space.integer_rows():
        yield (element * CliffordElement(lattice, r)).terms


def left_multiply(element, space):
    """The image element * space of a ``RowSpace`` of Cl(V)."""
    return RowSpace(space.ambient, _products(element, space))


def _require_isotropic_vector(lattice, e, name):
    coords = e.grade_one_coords()
    if coords is None or not any(coords):
        raise ComputationError("%s must be a nonzero vector" % name)
    if lattice.quadratic(coords):
        raise ComputationError("%s must be isotropic" % name)
    return coords


@dataclass(frozen=True)
class WeightFiltration:
    """W_-2 <= W_-1 <= W_0 = Cl(V) attached to a boundary degeneration."""

    kind: str  # "II" | "III"
    lattice: GramLattice
    w_minus2: RowSpace
    w_minus1: RowSpace
    isotropic_vectors: tuple

    def dims(self):
        return (self.w_minus2.dim, self.w_minus1.dim, 1 << self.lattice.dim)

    def graded_dims(self):
        d2, d1, d0 = self.dims()
        return (d2, d1 - d2, d0 - d1)


def filtration_type2(lattice, e1, e2):
    """Type II boundary filtration from a 2-dimensional isotropic <e1, e2>."""
    c1 = _require_isotropic_vector(lattice, e1, "e1")
    c2 = _require_isotropic_vector(lattice, e2, "e2")
    if lattice.bilinear(c1, c2):
        raise ComputationError("e1, e2 must span an isotropic plane (B(e1,e2)=0)")
    if rank([{i: v for i, v in enumerate(c1) if v}, {i: v for i, v in enumerate(c2) if v}]) != 2:
        raise ComputationError("e1, e2 must be linearly independent")
    n = lattice.n
    im_e2 = left_ideal_image(lattice, e2)
    # (e1 e2) Cl(V) = e1 (e2 Cl(V)) by associativity
    w2 = left_multiply(e1, im_e2)
    w1 = left_ideal_image(lattice, e1).add(im_e2)
    if w2.dim != 1 << n:
        raise ComputationError("dim W_-2 = %d, expected 2^n" % w2.dim)
    if w1.dim - w2.dim != 1 << (n + 1):
        raise ComputationError(
            "dim gr_-1 = %d, expected 2^(n+1)" % (w1.dim - w2.dim)
        )
    if not w1.contains(w2):
        raise ComputationError("W_-2 is not contained in W_-1")
    return WeightFiltration(
        kind="II",
        lattice=lattice,
        w_minus2=w2,
        w_minus1=w1,
        isotropic_vectors=(e1, e2),
    )


def filtration_type3(lattice, e1):
    """Type III boundary filtration from an isotropic line <e1>."""
    _require_isotropic_vector(lattice, e1, "e1")
    w = left_ideal_image(lattice, e1)
    if w.dim != 1 << (lattice.n + 1):
        raise ComputationError("dim im(e1) = %d, expected 2^(n+1)" % w.dim)
    return WeightFiltration(
        kind="III",
        lattice=lattice,
        w_minus2=w,
        w_minus1=w,
        isotropic_vectors=(e1,),
    )


@dataclass(frozen=True)
class GradedSplitting:
    """H_0 + H_-1 + H_-2 = Cl(V) splitting a type II weight filtration."""

    lattice: GramLattice
    filtration: WeightFiltration
    h_0: RowSpace
    h_minus1: RowSpace
    h_minus2: RowSpace
    i_minus1: tuple  # (e1, e2)
    i_1: tuple  # (e3, e4)
    i_0_basis: tuple  # vectors orthogonal to both hyperbolic planes

    def piece(self, i):
        """H_{-i} for i in {0, 1, 2}; anything else is the zero space."""
        if i == 0:
            return self.h_0
        if i == 1:
            return self.h_minus1
        if i == 2:
            return self.h_minus2
        return RowSpace(1 << self.lattice.dim)

    def dims(self):
        return (self.h_minus2.dim, self.h_minus1.dim, self.h_0.dim)

    @cached_property
    def _slot_spaces(self):
        """(shift, span) for each nonempty one of I_-1, I_0 and I_1."""
        slots = ((-1, self.i_minus1), (0, self.i_0_basis), (1, self.i_1))
        return tuple(
            (shift, RowSpace(self.lattice.dim, _span_rows(vectors)))
            for shift, vectors in slots
            if vectors
        )


def graded_splitting(filtration, e3, e4):
    """Split a type II filtration against the dual isotropic pair (e3, e4).

    The pieces are H_-2 = W_-2, H_-1 = (im(e3)+im(e4)) meet W_-1, and
    H_0 = im(e3 e4); their dims (2^n, 2^(n+1), 2^n) and the direct-sum
    decomposition are verified by exact rank.
    """
    if filtration.kind != "II":
        raise ComputationError("splitting needs a type II filtration")
    lattice = filtration.lattice
    e1, e2 = filtration.isotropic_vectors
    c1 = e1.grade_one_coords()
    c2 = e2.grade_one_coords()
    c3 = _require_isotropic_vector(lattice, e3, "e3")
    c4 = _require_isotropic_vector(lattice, e4, "e4")
    pairings = (
        (lattice.bilinear(c1, c3), 1, "B(e1,e3)"),
        (lattice.bilinear(c2, c4), 1, "B(e2,e4)"),
        (lattice.bilinear(c1, c4), 0, "B(e1,e4)"),
        (lattice.bilinear(c2, c3), 0, "B(e2,e3)"),
        (lattice.bilinear(c3, c4), 0, "B(e3,e4)"),
    )
    for value, want, label in pairings:
        if value != want:
            raise ComputationError("%s = %s, need %d" % (label, value, want))
    n = lattice.n
    h2 = filtration.w_minus2
    im_e4 = left_ideal_image(lattice, e4)
    h1 = left_ideal_image(lattice, e3).add(im_e4).intersect(filtration.w_minus1)
    # (e3 e4) Cl(V) = e3 (e4 Cl(V)) by associativity
    h0 = left_multiply(e3, im_e4)
    dims = (h2.dim, h1.dim, h0.dim)
    if dims != (1 << n, 1 << (n + 1), 1 << n):
        raise ComputationError("splitting dims %s are off" % (dims,))
    if rank(h2.integer_rows() + h1.integer_rows() + h0.integer_rows()) != 1 << lattice.dim:
        raise ComputationError("splitting pieces do not fill the algebra")
    # I_0 = the orthogonal complement of both hyperbolic planes
    constraints = []
    for c in (c1, c2, c3, c4):
        row = {}
        for j in range(lattice.dim):
            val = sum(c[i] * lattice.gram[i][j] for i in range(lattice.dim) if c[i])
            if val:
                row[j] = val
        constraints.append(row)
    i0 = []
    for vec in nullspace(constraints, lattice.dim):
        coords = [0] * lattice.dim
        for i, v in vec.items():
            coords[i] = v
        i0.append(lattice.vector(coords))
    return GradedSplitting(
        lattice=lattice,
        filtration=filtration,
        h_0=h0,
        h_minus1=h1,
        h_minus2=h2,
        i_minus1=(e1, e2),
        i_1=(e3, e4),
        i_0_basis=tuple(i0),
    )


# ---------------------------------------------------------------------------
# cocharacter compatibility


@dataclass(frozen=True)
class CocharacterCheck:
    """Containments v * H_{-i} <= H_{-i + shift} and parity preservation."""

    shift: int
    containments: tuple  # ((i, holds), ...) for i in occupied degrees
    parity_preserved: bool

    @property
    def ok(self):
        return self.parity_preserved and all(h for _, h in self.containments)


def _span_rows(vectors):
    return [
        {i: c for i, c in enumerate(v.grade_one_coords()) if c} for v in vectors
    ]


def _weight_slot(splitting, coords):
    row = {i: c for i, c in enumerate(coords) if c}
    for shift, space in splitting._slot_spaces:
        if space.contains_row(row):
            return shift
    return None


def cocharacter_conjugation_check(splitting, v, parity_ok=None):
    """Left multiplication by a homogeneous vector shifts the splitting by
    one weight step (down for the isotropic pair, up for its duals) and
    commutes with the even/odd grading.

    Parity does not depend on v: Cl(V) is Z/2-graded by construction, so
    ``parity_preserved`` is certified once from the generators, by checking
    that each basis vector flips the parity of each monomial (see
    ``parity_preserved``), not by multiplying out every even product.
    Callers checking several v on one splitting pass that verdict as
    ``parity_ok``; it is computed here when omitted."""
    coords = v.grade_one_coords()
    if coords is None or not any(coords):
        raise ComputationError("v must be a nonzero vector")
    shift = _weight_slot(splitting, coords)
    if shift is None:
        raise ComputationError(
            "v is not homogeneous for the I_-1 / I_0 / I_1 decomposition"
        )
    containments = []
    for i in (0, 1, 2):
        target = splitting.piece(i - shift)
        holds = all(target.contains_row(r) for r in _products(v, splitting.piece(i)))
        containments.append((i, holds))
    if parity_ok is None:
        parity_ok = parity_preserved(splitting)
    return CocharacterCheck(
        shift=shift,
        containments=tuple(containments),
        parity_preserved=parity_ok,
    )


def parity_preserved(splitting):
    """Even products of the splitting vectors act parity-preservingly.

    Cl(V) is Z/2-graded: its defining relations e_i e_j + e_j e_i = 2 B(e_i,
    e_j) equate elements of even degree, so left multiplication by a vector
    raises parity by one.  The check is a certificate of exactly that on the
    generators: every product e_i * e_S of a basis vector with a monomial
    holds only monomials of parity |S| + 1 (dim V * 2^dim V closed-form basis
    products).  By linearity every vector then flips parity, and by
    associativity every product a * b of two vectors, applied as a * (b * x),
    preserves it.  The products a * b of the splitting vectors are also
    checked to be even themselves.
    """
    lattice = splitting.lattice
    vectors = list(splitting.i_minus1) + list(splitting.i_1) + list(
        splitting.i_0_basis
    )
    for a, b in itertools.combinations(vectors, 2):
        e = a * b
        if e and e.parity() != 0:
            return False
    for i in range(lattice.dim):
        for mono in lattice.monomials():
            flipped = (mono.bit_count() + 1) % 2
            for m in lattice._left_basis_mul(i, {mono: 1}):
                if m.bit_count() % 2 != flipped:
                    return False
    return True
