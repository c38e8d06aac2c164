import itertools
import random
from fractions import Fraction

import pytest

from monodromy_lab import ComputationError
from monodromy_lab.clifford import (
    CliffordElement,
    GramLattice,
    cocharacter_conjugation_check,
    filtration_type2,
    filtration_type3,
    graded_splitting,
    left_ideal_image,
    left_multiply,
    parity_preserved,
)
from monodromy_lab.linalg import RowSpace


@pytest.fixture(scope="module")
def split2():
    return GramLattice.split(2)


@pytest.fixture(scope="module")
def split3():
    return GramLattice.split(3)


def vectors(lattice, *indices):
    return tuple(lattice.basis_vector(i) for i in indices)


# -- lattice validation ----------------------------------------------------------


def test_signature_rejected_when_wrong():
    with pytest.raises(ComputationError):
        GramLattice([[1, 0, 0], [0, 1, 0], [0, 0, 1]])  # (3, 0)
    with pytest.raises(ComputationError):
        GramLattice([[0, 1, 0], [1, 0, 0], [0, 0, 0]])  # degenerate


def test_standard_lattices_have_right_signature():
    for n in range(2, 6):
        assert GramLattice.split(n).n == n
    for n in range(1, 6):
        assert GramLattice.one_hyperbolic(n).n == n


def test_asymmetric_gram_rejected():
    with pytest.raises(ComputationError):
        GramLattice([[0, 1, 0], [0, 0, 0], [0, 0, -1]])


# -- multiplication ---------------------------------------------------------------


def test_square_is_quadratic_value(split2):
    e3 = split2.basis_vector(2)
    assert (e3 * e3).terms == {}  # q(e3) = 0 in the split lattice
    L = GramLattice.one_hyperbolic(2)
    f = L.basis_vector(2)
    assert (f * f).terms == {0: Fraction(1)}
    g = L.basis_vector(3)
    assert (g * g).terms == {0: Fraction(-1)}


def test_orthogonal_vectors_anticommute():
    L = GramLattice.one_hyperbolic(3)
    a, b = L.basis_vector(2), L.basis_vector(3)
    assert (b * a).terms == {0b1100: Fraction(-1)}
    assert (a * b + b * a).terms == {}


def test_hyperbolic_pair_sandwich(split2):
    # q(e1) = 0, B(e1, e3) = 1: e1 e3 e1 = 2 e1
    e1, e3 = vectors(split2, 0, 2)
    prod = e1 * e3 * e1
    assert prod.terms == {0b1: Fraction(2)}


def test_repr_of_mixed_grade_element(split2):
    # grades ascend; within a grade, index tuples sort lexicographically
    # (e1e4 before e2e3, although bitmask 0b1001 > 0b0110)
    e1, e2, e3, e4 = vectors(split2, 0, 1, 2, 3)
    x = split2.one().scale(3) + e1 * e2 - e3 + e2 * e3 + e4 * e1
    assert repr(x) == "3*1 + -1*e3 + 1*e1e2 + -1*e1e4 + 1*e2e3"
    assert repr(split2.vector([1, Fraction(1, 2), 0, -2])) == "1*e1 + 1/2*e2 + -2*e4"
    assert repr(x - x) == "0"


def test_parity_multiplicative(split2):
    rng = random.Random(5)
    monos = list(split2.monomials())
    for _ in range(100):
        a = CliffordElement(split2, {rng.choice(monos): Fraction(rng.randrange(1, 5))})
        b = CliffordElement(split2, {rng.choice(monos): Fraction(rng.randrange(1, 5))})
        ab = a * b
        if a and b and ab:
            assert ab.parity() == (a.parity() + b.parity()) % 2


def _random_element(rng, lattice, terms=3):
    monos = list(lattice.monomials())
    out = {}
    for _ in range(terms):
        out[rng.choice(monos)] = Fraction(rng.randrange(-3, 4))
    return CliffordElement(lattice, out)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_associativity_randomised(n):
    lattice = GramLattice.split(n) if n >= 2 else GramLattice.one_hyperbolic(n)
    rng = random.Random(100 + n)
    for _ in range(60):
        a = _random_element(rng, lattice)
        b = _random_element(rng, lattice)
        c = _random_element(rng, lattice)
        assert (a * b) * c == a * (b * c)


def test_vector_square_identity_randomised(split3):
    rng = random.Random(9)
    for _ in range(80):
        coords = [Fraction(rng.randrange(-3, 4)) for _ in range(split3.dim)]
        v = split3.vector(coords)
        sq = v * v
        expected = split3.quadratic(coords)
        assert sq.terms == ({0: expected} if expected else {})


# -- left ideal images -------------------------------------------------------------


def test_unit_generates_everything(split2):
    img = left_ideal_image(split2, split2.one())
    assert img.dim == 1 << split2.dim


def test_isotropic_vector_image_is_half():
    L = GramLattice.one_hyperbolic(1)  # n = 1, dim 3, algebra dim 8
    img = left_ideal_image(L, L.basis_vector(0))
    assert img.dim == 4


def test_isotropic_plane_image_is_quarter():
    L = GramLattice.split(1 + 1) if False else GramLattice.split(2)
    e1, e2 = vectors(L, 0, 1)
    img = left_ideal_image(L, e1 * e2)
    assert img.dim == 4  # 2^n with n = 2


def test_zero_element_rejected(split2):
    with pytest.raises(ComputationError):
        left_ideal_image(split2, CliffordElement(split2, {}))


# -- filtrations --------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_type2_dimension_table(n):
    L = GramLattice.split(n)
    e1, e2 = vectors(L, 0, 1)
    f = filtration_type2(L, e1, e2)
    assert f.dims() == (1 << n, 3 * (1 << n), 1 << (n + 2))
    assert f.graded_dims() == (1 << n, 1 << (n + 1), 1 << n)
    # d/2 bookkeeping: d = 2^(n+1), dim W_-2 = d/2
    d = 1 << (n + 1)
    assert f.dims()[0] == d // 2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_type3_dimension_table(n):
    L = GramLattice.one_hyperbolic(n)
    f = filtration_type3(L, L.basis_vector(0))
    assert f.dims() == (1 << (n + 1), 1 << (n + 1), 1 << (n + 2))
    assert f.graded_dims()[1] == 0


def test_type2_rejects_nonisotropic(split2):
    bad = split2.basis_vector(0) + split2.basis_vector(2)  # q = 2
    with pytest.raises(ComputationError):
        filtration_type2(split2, bad, split2.basis_vector(1))


def test_type2_rejects_dependent_pair(split2):
    e1 = split2.basis_vector(0)
    with pytest.raises(ComputationError):
        filtration_type2(split2, e1, e1.scale(2))


def test_type3_rejects_nonisotropic():
    L = GramLattice.one_hyperbolic(2)
    with pytest.raises(ComputationError):
        filtration_type3(L, L.basis_vector(2))


def test_w1_product_containment():
    # e1 * (e2 * Cl(V)) is exactly im(e1 e2), by associativity, and so is
    # e3 * (e4 * Cl(V)) = im(e3 e4): W_-2 and H_0 are built that way
    rebased, vecs = GramLattice(REBASED_N3["lattice"]), REBASED_N3["vectors"]
    cases = [(L, *vectors(L, 0, 1, 2, 3)) for L in map(GramLattice.split, (2, 3, 4))]
    cases.append((rebased, *(rebased.vector(vecs[k]) for k in ("e1", "e2", "e3", "e4"))))
    for L, e1, e2, e3, e4 in cases:
        for a, b in ((e1, e2), (e3, e4)):
            moved = left_multiply(a, left_ideal_image(L, b))
            assert moved == left_ideal_image(L, a * b)
            assert moved.dim == 1 << L.n


# -- graded splitting -----------------------------------------------------------------


def test_splitting_dims_n2(split2):
    e1, e2, e3, e4 = vectors(split2, 0, 1, 2, 3)
    f = filtration_type2(split2, e1, e2)
    s = graded_splitting(f, e3, e4)
    assert s.dims() == (4, 8, 4)
    assert s.h_minus2.contains(f.w_minus2) and f.w_minus2.contains(s.h_minus2)
    total = s.h_0.add(s.h_minus1).add(s.h_minus2)
    assert total.dim == 16


def test_splitting_dims_n3(split3):
    e1, e2, e3, e4 = vectors(split3, 0, 1, 2, 3)
    f = filtration_type2(split3, e1, e2)
    s = graded_splitting(f, e3, e4)
    assert s.dims() == (8, 16, 8)
    assert len(s.i_0_basis) == 1


def test_splitting_rejects_broken_duality(split2):
    e1, e2, e3, e4 = vectors(split2, 0, 1, 2, 3)
    f = filtration_type2(split2, e1, e2)
    with pytest.raises(ComputationError):
        graded_splitting(f, e4, e3)  # pairings land on the wrong vectors


# -- cocharacter checks ----------------------------------------------------------------


def _standard_splitting(n):
    L = GramLattice.split(n)
    e1, e2, e3, e4 = vectors(L, 0, 1, 2, 3)
    return L, graded_splitting(filtration_type2(L, e1, e2), e3, e4)


def test_cocharacter_lowering(split2):
    _, s = _standard_splitting(2)
    chk = cocharacter_conjugation_check(s, split2.basis_vector(0))
    assert chk.shift == -1
    assert chk.ok


def test_cocharacter_raising(split2):
    _, s = _standard_splitting(2)
    chk = cocharacter_conjugation_check(s, split2.basis_vector(2))
    assert chk.shift == 1
    assert chk.ok


def test_cocharacter_i0_fixes_weights():
    L, s = _standard_splitting(3)
    assert len(s.i_0_basis) == 1
    chk = cocharacter_conjugation_check(s, s.i_0_basis[0])
    assert chk.shift == 0
    assert chk.ok


def test_cocharacter_rejects_mixed_vector(split2):
    _, s = _standard_splitting(2)
    mixed = split2.basis_vector(0) + split2.basis_vector(2)
    with pytest.raises(ComputationError):
        cocharacter_conjugation_check(s, mixed)


def test_full_table_n2():
    _, s = _standard_splitting(2)
    L = s.lattice
    reps = [L.basis_vector(0), L.basis_vector(1), L.basis_vector(2), L.basis_vector(3)]
    for v in reps:
        chk = cocharacter_conjugation_check(s, v)
        assert chk.ok, (v, chk)


# A type II n = 3 scenario in a basis rebased by a unit upper triangular
# change of basis with +-1 entries on the two diagonals above the main one.
# Its I_0 vector comes from ``linalg.nullspace`` over dense constraints.
REBASED_N3 = {
    "kind": "clifford",
    "n": 3,
    "filtration": "II",
    "lattice": [
        [0, 0, 1, 1, -1],
        [0, 0, 1, 2, 0],
        [1, 1, -2, 0, 2],
        [1, 2, 0, -2, -1],
        [-1, 0, 2, -1, 1],
    ],
    "vectors": {
        "e1": [1, 0, 0, 0, 0],
        "e2": [-1, 1, 0, 0, 0],
        "e3": [2, -1, 1, 0, 0],
        "e4": [-3, 2, -1, 1, 0],
    },
    "with_splitting": True,
    "with_cocharacter": True,
}


def _rebased_splitting():
    L = GramLattice(REBASED_N3["lattice"])
    e1, e2, e3, e4 = (L.vector(REBASED_N3["vectors"][k]) for k in ("e1", "e2", "e3", "e4"))
    return graded_splitting(filtration_type2(L, e1, e2), e3, e4)


def test_rebased_n3_cocharacter_containments():
    from monodromy_lab.scenarios import run_scenario

    report = run_scenario(REBASED_N3)
    assert report.assertions["cocharacter_containments"] is True
    assert report.ok
    slots = [row["slot"] for row in report.result["cocharacter_table"]]
    assert slots == ["I_-1", "I_0", "I_1"]


def test_scenario_certifies_parity_once_per_splitting(monkeypatch):
    from monodromy_lab import scenarios

    calls = []

    def counted(splitting):
        calls.append(splitting)
        return parity_preserved(splitting)

    monkeypatch.setattr(scenarios, "parity_preserved", counted)
    report = scenarios.run_scenario(REBASED_N3)
    rows = report.result["cocharacter_table"]
    assert len(rows) == 3 and all(row["parity_preserved"] for row in rows)
    assert len(calls) == 1


def _enumerative_parity_preserved(splitting):
    """Reference: multiply every even product of the splitting vectors by
    every monomial and read off the parity of each product."""
    lattice = splitting.lattice
    vectors = list(splitting.i_minus1) + list(splitting.i_1) + list(splitting.i_0_basis)
    evens = [a * b for a, b in itertools.combinations(vectors, 2)]
    for e in (e for e in evens if e):
        if e.parity() != 0:
            return False
        for mono in lattice.monomials():
            prod = e * CliffordElement(lattice, {mono: Fraction(1)})
            if prod and prod.parity() != mono.bit_count() % 2:
                return False
    return True


@pytest.mark.parametrize("which", ["n2", "n3", "rebased-n3"])
def test_parity_certificate_agrees_with_enumeration(which):
    if which == "rebased-n3":
        s = _rebased_splitting()
    else:
        _, s = _standard_splitting(int(which[1]))
    assert parity_preserved(s) is _enumerative_parity_preserved(s) is True


def test_parity_certificate_catches_a_wrong_parity_product(monkeypatch):
    L, s = _standard_splitting(2)
    honest = L._left_basis_mul

    def corrupted(i, terms):
        out = honest(i, terms)
        if terms == {0b110: 1}:
            out = dict(out)
            out[0] = Fraction(1)  # e_i e_{23} must be odd
        return out

    assert cocharacter_conjugation_check(s, L.basis_vector(0)).parity_preserved
    monkeypatch.setattr(L, "_left_basis_mul", corrupted)
    chk = cocharacter_conjugation_check(s, L.basis_vector(0))
    assert chk.parity_preserved is False
    assert not chk.ok


# -- exact coefficients: ints over an integral Gram matrix, Fractions otherwise ---


@pytest.mark.parametrize("which", ["split4", "one-hyperbolic3", "rebased-n3"])
def test_integral_gram_gives_int_coefficients(which):
    if which == "split4":
        L = GramLattice.split(4)
    elif which == "one-hyperbolic3":
        L = GramLattice.one_hyperbolic(3)
    else:
        L = GramLattice(REBASED_N3["lattice"])
    for s in L.monomials():
        for t in L.monomials():
            prod = CliffordElement(L, {s: 1}) * CliffordElement(L, {t: 1})
            assert all(type(v) is int for v in prod.terms.values()), (s, t)
    if which == "rebased-n3":
        e1, e2 = (L.vector(REBASED_N3["vectors"][k]) for k in ("e1", "e2"))
    else:
        e1, e2 = vectors(L, 0, 1)
    assert (e1 * e2).terms
    assert all(type(v) is int for v in (e1 * e2).terms.values())


def _half_tail_gram(n):
    """split(n) with the first definite tail entry q(e5) = 1/2."""
    gram = [list(row) for row in GramLattice.split(n).gram]
    gram[4][4] = Fraction(1, 2)
    return gram


def test_rational_gram_filtration_splitting_and_cocharacter():
    n = 3
    L = GramLattice(_half_tail_gram(n))
    assert L.gram[4][4] == Fraction(1, 2)
    e1, e2, e3, e4 = vectors(L, 0, 1, 2, 3)
    assert e1 * e3 * e1 == 2 * e1
    tail = L.basis_vector(4)
    assert (tail * tail).terms == {0: Fraction(1, 2)}
    f = filtration_type2(L, e1, e2)
    assert f.dims() == (1 << n, (1 << n) + (1 << (n + 1)), 1 << (n + 2))
    s = graded_splitting(f, e3, e4)
    assert s.dims() == (1 << n, 1 << (n + 1), 1 << n)
    assert len(s.i_0_basis) == 1
    parity_ok = parity_preserved(s)
    assert parity_ok
    shifts = []
    for v in (e1, s.i_0_basis[0], e3):
        chk = cocharacter_conjugation_check(s, v, parity_ok=parity_ok)
        assert all(holds for _, holds in chk.containments)
        assert chk.ok
        shifts.append(chk.shift)
    assert shifts == [-1, 0, 1]


def test_rational_gram_scenario_runs_ok():
    from monodromy_lab.scenarios import run_scenario

    gram = [[str(x) for x in row] for row in _half_tail_gram(3)]
    assert gram[4][4] == "1/2"
    report = run_scenario(
        {
            "kind": "clifford",
            "n": 3,
            "filtration": "II",
            "lattice": gram,
            "with_splitting": True,
            "with_cocharacter": True,
        }
    )
    assert report.ok
    assert report.result["splitting_dims"] == [8, 16, 8]


def test_cocharacter_product_rows_are_int_over_an_integral_gram(monkeypatch):
    # the check multiplies the primitive integer rows of each piece, so over
    # an integral Gram matrix no product row holds a Fraction
    s = _rebased_splitting()
    seen = []
    honest = RowSpace.contains_row

    def recording(space, row):
        if space.ambient == 1 << s.lattice.dim:  # not the weight-slot test
            seen.append(row)
        return honest(space, row)

    monkeypatch.setattr(RowSpace, "contains_row", recording)
    for v in (s.i_minus1[0], s.i_0_basis[0], s.i_1[0]):
        assert cocharacter_conjugation_check(s, v, parity_ok=True).ok
    assert len(seen) > 0 and any(seen)
    assert all(type(c) is int for row in seen for c in row.values())
    for piece in (s.h_minus2, s.h_minus1, s.h_0):
        for row in piece.integer_rows():
            assert all(type(c) is int for c in row.values())


# -- the closed-form product against normal-ordering rewriting -------------------


def _mask_indices(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _rewritten_product(lattice, s, t):
    """Reference: e_s * e_t by normal-ordering rewriting, swapping the first
    out-of-order pair e_a e_b into 2 B(e_a, e_b) - e_b e_a (or e_a e_a into
    q(e_a)) until every word is strictly ascending."""
    result = {}
    stack = [(1, _mask_indices(s) + _mask_indices(t))]
    while stack:
        coeff, seq = stack.pop()
        k = next((k for k in range(len(seq) - 1) if seq[k] >= seq[k + 1]), None)
        if k is None:
            mono = sum(1 << i for i in seq)
            result[mono] = result.get(mono, 0) + coeff
            continue
        a, b = seq[k], seq[k + 1]
        if a == b:
            stack.append((coeff * lattice.gram[a][a], seq[:k] + seq[k + 2 :]))
        else:
            stack.append((coeff * 2 * lattice.gram[a][b], seq[:k] + seq[k + 2 :]))
            stack.append((-coeff, seq[:k] + [b, a] + seq[k + 2 :]))
    return {m: c for m, c in result.items() if c}


def _lattice(which):
    if which == "split3":
        return GramLattice.split(3)
    if which == "one-hyperbolic3":
        return GramLattice.one_hyperbolic(3)
    if which == "rebased-n3":
        return GramLattice(REBASED_N3["lattice"])
    return GramLattice(_half_tail_gram(3))


LATTICES = ["split3", "one-hyperbolic3", "rebased-n3", "half-tail3"]


@pytest.mark.parametrize("which", LATTICES)
def test_closed_form_matches_rewriting_on_every_monomial_pair(which):
    L = _lattice(which)
    for s in L.monomials():
        e_s = CliffordElement(L, {s: 1})
        for t in L.monomials():
            prod = e_s * CliffordElement(L, {t: 1})
            assert prod.terms == _rewritten_product(L, s, t), (s, t)


@pytest.mark.parametrize("which", LATTICES)
def test_monomial_products_associate(which):
    L = _lattice(which)
    rng = random.Random(7)
    monos = list(L.monomials())
    for _ in range(300):
        a, b, c = (CliffordElement(L, {rng.choice(monos): 1}) for _ in range(3))
        assert a * (b * c) == (a * b) * c
