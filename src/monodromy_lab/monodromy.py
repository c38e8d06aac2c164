"""Torsion towers of uniformized abelian varieties and their Galois images.

A totally degenerating abelian variety is a quotient of a torus by a
multiplicative period lattice, so its p-power torsion is generated by p-power
roots of the periods: purely inseparable extensions, trivial Galois image.
``tate_torsion_tower`` materialises those roots and their degrees.

In the semi-abelian case the Galois action on a torsion basis is served by
finite block matrices [[D, W], [0, I]] over Z/p^n with D an invertible
diagonal block.  The full group of these is the semidirect product of the
diagonal units and W.  Its derived subgroup is I*W, where I is the ideal of
Z/p^n generated by {u - 1 : u a unit}: all of W for odd p, but only 2W for
p = 2.

Subgroups are measured by module arithmetic, never by listing elements.
``BlockSpan`` keeps a Z/p^n-submodule of W in Howell form (Howell, *Linear
Multilinear Algebra* 19, 1986), so its order and membership are exact.
``kernel_by_transversal`` searches the diagonal image of H = <generators>
with one representative per diagonal and collects H ∩ W from Schreier
generators, so |H| = |diagonal image| * |H ∩ W|; ``derived_span`` is the
span of the generator commutators closed under conjugation, which acts on W
as row scaling (every commutator lands in the unipotent block D = I, which
is asserted).  ``mulclose``, ``commutator_closure``, ``full_block_group``
and ``unipotent_subgroup`` enumerate elements and serve as bounded test
oracles.  ``elementary_generators`` gives a small generating set of the full
group, ``unipotent_index`` counts the diagonal choices, and
``classify_monodromy`` maps a reduction-type descriptor to the monodromy
outcome together with a stable case label.  All outputs are immutable
except a ``BlockSpan`` while it is being built.
"""

import itertools
from dataclasses import dataclass

from .errors import ComputationError
from .fields import is_prime

ENUMERATION_BOUND = 10 ** 6
# the closed-form cost a "full" galois scenario may have (about 1 s)
FULL_WORK_BOUND = 10 ** 6


# ---------------------------------------------------------------------------
# Tate towers


@dataclass(frozen=True)
class TateLattice:
    """Multiplicative period lattice q_1..q_g with positive valuations."""

    periods: tuple
    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ComputationError("p must be prime")
        if not self.periods:
            raise ComputationError("at least one period required")
        field = self.periods[0].field
        if field.p != self.p:
            raise ComputationError("period field has the wrong characteristic")
        for q in self.periods:
            if q.field is not field:
                raise ComputationError("periods over different fields")
            if not q.known_nonzero or q.valuation() <= 0:
                raise ComputationError("periods need determinable positive valuation")

    @property
    def g(self):
        return len(self.periods)

    def valuation_vector(self):
        return tuple(q.valuation() for q in self.periods)


@dataclass(frozen=True)
class TorsionTower:
    """Level-n torsion data of a torus quotient: inseparable only."""

    n: int
    p: int
    g: int
    generators: tuple  # q_i**(1/p^n)
    separable_degree: int
    inseparable_degree: int
    galois_image: str  # always "trivial" here

    def verify_generators(self, lattice):
        """(root)^(p^n) = q_i exactly to truncation, for every generator."""
        for root, q in zip(self.generators, lattice.periods):
            if not root.frobenius_power(self.n).agrees_with(q):
                return False
        return True


def tate_torsion_tower(lattice, n):
    """The field data of the p^n-torsion of G_m^g / <q_1..q_g>.

    Separable degree 1; inseparable degree p^(n*g); generators are the
    iterated p-th roots of the periods.
    """
    if n < 0:
        raise ComputationError("tower level must be >= 0")
    generators = []
    for q in lattice.periods:
        root = q
        for _ in range(n):
            root = root.pth_root()
        generators.append(root)
    tower = TorsionTower(
        n=n,
        p=lattice.p,
        g=lattice.g,
        generators=tuple(generators),
        separable_degree=1,
        inseparable_degree=lattice.p ** (n * lattice.g),
        galois_image="trivial",
    )
    if not tower.verify_generators(lattice):
        raise ComputationError("generator roots fail to reproduce the periods")
    return tower


# ---------------------------------------------------------------------------
# block Galois elements


class BlockGaloisElement:
    """An invertible matrix over Z/p^n of shape [[D, W], [0, I]].

    D is an invertible diagonal (d/2)x(d/2) block, W arbitrary, and the
    lower half is frozen to [0, I]; this is the finite-level shadow of the
    Galois action on a torsion basis of a semi-abelian quotient.
    """

    __slots__ = ("p", "n", "d", "diag", "w")

    def __init__(self, p, n, d, diag, w):
        if not is_prime(p):
            raise ComputationError("p must be prime")
        if n < 1:
            raise ComputationError("level n must be >= 1")
        if d < 2 or d % 2:
            raise ComputationError("size d must be even and >= 2")
        half = d // 2
        mod = p ** n
        diag = tuple(int(x) % mod for x in diag)
        if len(diag) != half:
            raise ComputationError("diagonal block needs %d entries" % half)
        if any(x % p == 0 for x in diag):
            raise ComputationError("diagonal entries must be units mod p")
        w = tuple(tuple(int(x) % mod for x in row) for row in w)
        if len(w) != half or any(len(row) != half for row in w):
            raise ComputationError("W must be a %dx%d block" % (half, half))
        self.p = p
        self.n = n
        self.d = d
        self.diag = diag
        self.w = w

    @classmethod
    def _from_valid(cls, p, n, d, diag, w):
        """Build from blocks already reduced and checked (products and
        inverses of valid elements), skipping the validation in __init__."""
        g = object.__new__(cls)
        g.p, g.n, g.d, g.diag, g.w = p, n, d, diag, w
        return g

    @classmethod
    def identity(cls, p, n, d):
        half = d // 2
        return cls(p, n, d, (1,) * half, ((0,) * half,) * half)

    @classmethod
    def from_matrix(cls, p, n, d, matrix):
        """Validate a full d x d matrix and extract the blocks."""
        half = d // 2
        mod = p ** n
        if len(matrix) != d or any(len(row) != d for row in matrix):
            raise ComputationError("matrix must be %dx%d" % (d, d))
        for i in range(half, d):
            for j in range(d):
                want = 1 if i == j else 0
                if (matrix[i][j] - want) % mod:
                    raise ComputationError("lower half must be [0, I]")
        for i in range(half):
            for j in range(half):
                if i != j and matrix[i][j] % mod:
                    raise ComputationError("D block must be diagonal")
        diag = [matrix[i][i] for i in range(half)]
        w = [[matrix[i][half + j] for j in range(half)] for i in range(half)]
        return cls(p, n, d, diag, w)

    @property
    def modulus(self):
        return self.p ** self.n

    @property
    def is_unipotent(self):
        return all(x == 1 for x in self.diag)

    def matrix(self):
        half = self.d // 2
        rows = []
        for i in range(half):
            row = [0] * self.d
            row[i] = self.diag[i]
            for j in range(half):
                row[half + j] = self.w[i][j]
            rows.append(row)
        for i in range(half):
            row = [0] * self.d
            row[half + i] = 1
            rows.append(row)
        return rows

    def _check(self, other):
        if (self.p, self.n, self.d) != (other.p, other.n, other.d):
            raise ComputationError("modulus/size mismatch")

    def __mul__(self, other):
        self._check(other)
        mod = self.modulus
        half = self.d // 2
        diag = tuple((a * b) % mod for a, b in zip(self.diag, other.diag))
        w = tuple(
            tuple(
                (self.diag[i] * other.w[i][j] + self.w[i][j]) % mod
                for j in range(half)
            )
            for i in range(half)
        )
        return self._from_valid(self.p, self.n, self.d, diag, w)

    def inverse(self):
        mod = self.modulus
        half = self.d // 2
        dinv = tuple(pow(x, -1, mod) for x in self.diag)
        w = tuple(
            tuple((-dinv[i] * self.w[i][j]) % mod for j in range(half))
            for i in range(half)
        )
        return self._from_valid(self.p, self.n, self.d, dinv, w)

    def commutator(self, other):
        """a^-1 b^-1 a b."""
        return self.inverse() * other.inverse() * self * other

    def __eq__(self, other):
        return (
            isinstance(other, BlockGaloisElement)
            and (self.p, self.n, self.d, self.diag, self.w)
            == (other.p, other.n, other.d, other.diag, other.w)
        )

    def __hash__(self):
        return hash((self.p, self.n, self.d, self.diag, self.w))

    def __repr__(self):
        return "BlockGaloisElement(p=%d, n=%d, D=%s, W=%s)" % (
            self.p,
            self.n,
            list(self.diag),
            [list(r) for r in self.w],
        )


def mulclose(generators):
    """The subgroup generated by ``generators``, by worklist closure.

    A test oracle for ``kernel_by_transversal``: it lists every element, so
    it stops past ENUMERATION_BOUND of them.
    """
    gens = [g for g in generators]
    if not gens:
        raise ComputationError("no generators")
    idem = BlockGaloisElement.identity(gens[0].p, gens[0].n, gens[0].d)
    group = {idem}
    frontier = [idem]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in group:
                    group.add(y)
                    nxt.append(y)
                    if len(group) > ENUMERATION_BOUND:
                        raise ComputationError(
                            "enumeration bound %d exceeded" % ENUMERATION_BOUND
                        )
        frontier = nxt
    return frozenset(group)


def commutator_closure(generators):
    """Derived subgroup of the group generated by ``generators``.

    Seeds with the commutators of generator pairs and closes the seed under
    conjugation by the generators (normal closure): <S> is normal in <T>
    once t^-1 s t lies in <S> for every s in S and t in T, so only the seed
    is conjugated.  Asserts that everything produced is unipotent, as the
    block shape demands.  A test oracle for ``derived_span``: it lists every
    element through ``mulclose``.
    """
    gens = list(dict.fromkeys(generators))
    if not gens:
        raise ComputationError("no generators")
    if len(gens) ** 2 > 2 * 10 ** 7:
        raise ComputationError("too many generators for pairwise commutators")
    inverses = [g.inverse() for g in gens]
    # unordered pairs suffice: [b, a] = [a, b]^-1 generates the same subgroup
    seed = set()
    for i, a in enumerate(gens):
        for j in range(i + 1, len(gens)):
            b = gens[j]
            seed.add(inverses[i] * inverses[j] * a * b)
    if not seed:
        seed = {gens[0] * inverses[0]}
    while True:
        subgroup = mulclose(seed)
        new = {ginv * s * g for ginv, g in zip(inverses, gens) for s in seed}
        new -= subgroup
        if not new:
            for h in subgroup:
                if not h.is_unipotent:
                    raise ComputationError(
                        "commutator subgroup left the unipotent block"
                    )
            return subgroup
        seed |= new


def elementary_generators(p, n, d):
    """A generating set of the full block group for (p, n, d).

    With h = d/2: one element per diagonal slot and unit u != 1 (u in that
    slot, W = 0), and one per W entry (D = I, W = E_ij), so
    h * (phi(p^n) - 1) + h^2 elements in all.
    """
    half = d // 2
    mod = p ** n
    ones = (1,) * half
    zero = ((0,) * half,) * half
    gens = [
        BlockGaloisElement(p, n, d, ones[:i] + (u,) + ones[i + 1 :], zero)
        for i in range(half)
        for u in range(2, mod)
        if u % p
    ]
    for i in range(half):
        for j in range(half):
            w = tuple(
                tuple(int((r, c) == (i, j)) for c in range(half)) for r in range(half)
            )
            gens.append(BlockGaloisElement(p, n, d, ones, w))
    return gens


def full_block_group(p, n, d):
    """Every block element for (p, n, d), a test oracle; sizes are checked
    against the bound."""
    half = d // 2
    mod = p ** n
    units = [u for u in range(1, mod) if u % p]
    order = len(units) ** half * mod ** (half * half)
    if order > ENUMERATION_BOUND:
        raise ComputationError("full block group order %d exceeds bound" % order)
    elements = []
    for diag in itertools.product(units, repeat=half):
        for flat in itertools.product(range(mod), repeat=half * half):
            w = tuple(flat[i * half : (i + 1) * half] for i in range(half))
            elements.append(BlockGaloisElement(p, n, d, diag, w))
    return elements


def unipotent_subgroup(p, n, d):
    """All [[I, W], [0, I]] elements, a test oracle; sizes are checked
    against the bound."""
    half = d // 2
    mod = p ** n
    order = mod ** (half * half)
    if order > ENUMERATION_BOUND:
        raise ComputationError("unipotent subgroup order %d exceeds bound" % order)
    out = []
    for flat in itertools.product(range(mod), repeat=half * half):
        w = tuple(flat[i * half : (i + 1) * half] for i in range(half))
        out.append(BlockGaloisElement(p, n, d, (1,) * half, w))
    return out


def unipotent_index(p, n, d):
    """Index of the unipotent subgroup in the full block group.

    The quotient is the group of diagonal unit choices, of order
    ((p-1) p^(n-1))^(d/2).
    """
    if d % 2:
        raise ComputationError("size d must be even")
    if n < 1 or not is_prime(p):
        raise ComputationError("need prime p and n >= 1")
    return ((p - 1) * p ** (n - 1)) ** (d // 2)


# ---------------------------------------------------------------------------
# block subgroups by module arithmetic over Z/p^n


class BlockSpan:
    """A Z/p^n-submodule of the W blocks, kept in Howell form.

    A W block is flattened row by row into a vector of length h*h.  Each
    echelon row has the entry p^k (k < n) in its first nonzero column, and
    p^(n-k) times it lies in the span of the rows with later columns
    (Howell's condition).  So every element is a unique sum of a_i * row_i
    with 0 <= a_i < p^(n - k_i): the order is p^(sum of n - k_i), and
    reduction by the rows decides membership.
    """

    def __init__(self, p, n, half):
        self.p = p
        self.n = n
        self.modulus = p ** n
        self.size = half * half
        self.rows = {}  # first nonzero column -> (k, row) with row[column] = p^k
        self.exponent = 0  # the order is p^exponent

    @property
    def order(self):
        return self.p ** self.exponent

    def _reduce(self, v):
        """Reduce ``v`` in place by the rows; (column, k, unit) of what is
        left, with v[column] = p^k * unit and no row to clear it, or None
        when v reduces to 0."""
        p, mod = self.p, self.modulus
        for c in range(self.size):
            a = v[c]
            if not a:
                continue
            k = 0
            while a % p == 0:
                a //= p
                k += 1
            row = self.rows.get(c)
            if row is None or row[0] > k:
                return c, k, a
            q = v[c] // p ** row[0]
            r = row[1]
            for j in range(c, self.size):
                v[j] = (v[j] - q * r[j]) % mod
        return None

    def add(self, vector):
        """Put ``vector`` into the span; True when the span grew."""
        before = self.exponent
        if before == self.n * self.size:  # already all of W
            return False
        p, n, mod = self.p, self.n, self.modulus
        pending = [list(vector)]
        while pending:
            v = pending.pop()
            lead = self._reduce(v)
            if lead is None:
                continue
            c, k, unit = lead
            inv = pow(unit, -1, mod)
            v = [x * inv % mod for x in v]
            displaced = self.rows.get(c)
            self.rows[c] = (k, v)
            self.exponent += n - k
            if displaced is not None:
                # a pivot of lower valuation took its column: reinsert it
                self.exponent -= n - displaced[0]
                pending.append(displaced[1])
            if k:
                pending.append([x * p ** (n - k) % mod for x in v])
        return self.exponent > before

    def contains(self, vector):
        return self._reduce(list(vector)) is None

    def issubset(self, other):
        return all(other.contains(row) for _, row in self.rows.values())


def _flat(w):
    return [x for row in w for x in row]


def _per_entry(diag):
    """The factor of each flattened W entry when D = ``diag`` scales rows."""
    return [x for x in diag for _ in diag]


def _shape(generators):
    """(p, n, half) shared by a nonempty generator list."""
    if not generators:
        raise ComputationError("no generators")
    first = generators[0]
    for g in generators:
        first._check(g)
    return first.p, first.n, first.d // 2


def kernel_by_transversal(generators):
    """The diagonal image of H = <generators> and H ∩ W, by Schreier's lemma.

    A breadth-first search over the diagonal image keeps one representative
    t in H per diagonal.  For a representative t and a generator g, the
    product x = t g either has a new diagonal and becomes its representative,
    or gives the Schreier generator x t'^-1 = (I, W_x - W_t') of H ∩ W, where
    t' represents the diagonal of x.  Those generate H ∩ W, so
    |H| = |diagonal image| * |H ∩ W|.  Returns the order of the diagonal
    image and the ``BlockSpan`` of H ∩ W; the search visits at most
    ENUMERATION_BOUND diagonals.
    """
    p, n, half = _shape(generators)
    mod = p ** n
    gens = [(g.diag, _flat(g.w)) for g in generators]
    kernel = BlockSpan(p, n, half)
    one = (1,) * half
    reps = {one: [0] * (half * half)}
    frontier = [one]
    while frontier:
        found = []
        for diag in frontier:
            w = reps[diag]
            scale = _per_entry(diag)
            for gdiag, gw in gens:
                # t g = (D_t D_g, D_t W_g + W_t)
                xdiag = tuple(a * b % mod for a, b in zip(diag, gdiag))
                xw = [(s * y + x) % mod for s, y, x in zip(scale, gw, w)]
                rep = reps.get(xdiag)
                if rep is not None:
                    kernel.add([(x - y) % mod for x, y in zip(xw, rep)])
                    continue
                if len(reps) == ENUMERATION_BOUND:
                    raise ComputationError(
                        "diagonal image exceeds enumeration bound %d" % ENUMERATION_BOUND
                    )
                reps[xdiag] = xw
                found.append(xdiag)
        frontier = found
    return len(reps), kernel


def derived_span(generators):
    """The derived subgroup of H = <generators>, as a ``BlockSpan``.

    It is the normal closure of the commutators of generator pairs.  Each
    commutator is asserted unipotent, and conjugating (I, W) by (D, V) gives
    (I, D^-1 W), so the normal closure is their span closed under row
    scaling by every generator's diagonal.
    """
    gens = list(dict.fromkeys(generators))
    p, n, half = _shape(gens)
    if len(gens) ** 2 > 2 * 10 ** 7:
        raise ComputationError("too many generators for pairwise commutators")
    mod = p ** n
    pending = []
    for i, a in enumerate(gens):
        for b in gens[i + 1 :]:
            c = a.commutator(b)
            if not c.is_unipotent:
                raise ComputationError("commutator subgroup left the unipotent block")
            pending.append(_flat(c.w))
    scalings = list(dict.fromkeys(tuple(_per_entry(g.diag)) for g in gens))
    span = BlockSpan(p, n, half)
    while pending:
        v = pending.pop()
        if span.add(v):
            pending.extend([s * x % mod for s, x in zip(scale, v)] for scale in scalings)
    return span


def unit_difference_span(p, n, d):
    """The span of {(u - 1) E_ij : u a unit mod p^n}, that is I*W."""
    half = d // 2
    mod = p ** n
    span = BlockSpan(p, n, half)
    for c in range(half * half):
        for u in range(2, mod):
            if u % p:
                span.add([u - 1 if j == c else 0 for j in range(half * half)])
    return span


# ---------------------------------------------------------------------------
# reduction-type classification


@dataclass(frozen=True)
class AbelianPartDescriptor:
    """The abelian quotient of the uniformizing semi-abelian variety."""

    kind: str  # "elliptic" | "product_of_elliptic"
    reduction: str  # "ordinary" | "supersingular"
    copies: int = 1

    def __post_init__(self):
        if self.kind not in ("elliptic", "product_of_elliptic"):
            raise ComputationError("unknown abelian part kind %r" % (self.kind,))
        if self.reduction not in ("ordinary", "supersingular"):
            raise ComputationError("unknown reduction type %r" % (self.reduction,))
        if self.copies < 1:
            raise ComputationError("copies must be >= 1")


@dataclass(frozen=True)
class UniformizationData:
    """Shape of the uniformization: torus rank, abelian part, total dimension."""

    torus_rank: int
    abelian_part: object  # AbelianPartDescriptor or None (total degeneration)
    dimension: int
    lattice_rank: int = None

    def __post_init__(self):
        if self.lattice_rank is None:
            object.__setattr__(self, "lattice_rank", self.torus_rank)
        if self.lattice_rank != self.torus_rank:
            raise ComputationError("lattice rank must equal the torus rank")
        if self.torus_rank < 1 or self.dimension < 1:
            raise ComputationError("ranks and dimension must be positive")
        if self.abelian_part is None:
            if self.torus_rank != self.dimension:
                raise ComputationError(
                    "total degeneration needs torus rank = dimension"
                )
        else:
            ab_dim = (
                1 if self.abelian_part.kind == "elliptic" else self.abelian_part.copies
            )
            if self.torus_rank + ab_dim != self.dimension:
                raise ComputationError(
                    "dimension %d != torus rank %d + abelian part %d"
                    % (self.dimension, self.torus_rank, ab_dim)
                )


UNIPOTENT_INERTIA = "UnipotentInertia"
FINITE_INDEX_INERTIA = "FiniteIndexInertia"
TRIVIAL_IMAGE = "TrivialImage"

_CITATIONS = {
    UNIPOTENT_INERTIA: (
        "semi-abelian reduction, ordinary abelian part: the torsion tower is "
        "unramified over the torus directions and inertia acts as "
        "identity-plus-nilpotent block matrices"
    ),
    FINITE_INDEX_INERTIA: (
        "semi-abelian reduction, supersingular abelian part: past a finite "
        "level the tower is totally ramified, so the inertia image has "
        "finite index in the full Galois image"
    ),
    TRIVIAL_IMAGE: (
        "total degeneration to a torus: the torsion generates purely "
        "inseparable extensions and the Galois image is trivial"
    ),
}


@dataclass(frozen=True)
class MonodromyClassification:
    kind: str
    citation: str


def classify_monodromy(data):
    """Reduction type -> monodromy outcome, with a stable case label."""
    if data.abelian_part is None:
        kind = TRIVIAL_IMAGE
    elif data.abelian_part.reduction == "ordinary":
        kind = UNIPOTENT_INERTIA
    else:
        kind = FINITE_INDEX_INERTIA
    return MonodromyClassification(kind=kind, citation=_CITATIONS[kind])
