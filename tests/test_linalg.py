import random
from fractions import Fraction
from math import gcd

import pytest

from monodromy_lab import ComputationError
from monodromy_lab.linalg import RowSpace, _normalized, _primitive, nullspace, rank, rref


def _random_rows(rng, count, ambient, density=0.5):
    rows = []
    for _ in range(count):
        row = {
            c: Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
            for c in range(ambient)
            if rng.random() < density
        }
        rows.append({c: v for c, v in row.items() if v})
    return rows


def _is_primitive(row):
    """An integer row with content 1."""
    return all(type(v) is int for v in row.values()) and gcd(*row.values()) == 1


def _dot(row, vec):
    return sum(v * vec.get(c, 0) for c, v in row.items())


def test_nullspace_clears_pivots_to_the_right():
    # the second row's pivot (column 0) sits left of the first row's
    # (column 1); the first row's entry at column 1 must be cleared from it
    assert nullspace([{1: 1, 2: 1}, {0: 1, 1: 1}], 3) == [
        {0: Fraction(1), 1: Fraction(-1), 2: Fraction(1)}
    ]


@pytest.mark.parametrize("seed", range(6))
def test_rref_is_reduced(seed):
    rng = random.Random(seed)
    pivots = rref(_random_rows(rng, 6, 8))
    for c, row in pivots.items():
        assert min(row) == c and row[c] > 0
        assert _is_primitive(row)
        assert not any(pc in row for pc in pivots if pc != c)
        assert _normalized(row, row[c])[c] == 1


@pytest.mark.parametrize("seed", range(6))
def test_rowspace_equality_ignores_row_order(seed):
    rng = random.Random(seed)
    rows = _random_rows(rng, 5, 8)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert RowSpace(8, rows) == RowSpace(8, shuffled)
    assert RowSpace(8, rows) == RowSpace(8, list(reversed(rows)))


@pytest.mark.parametrize("seed", range(6))
def test_nullspace_is_killed_by_every_row(seed):
    rng = random.Random(100 + seed)
    ambient = 7
    rows = _random_rows(rng, rng.randrange(1, 6), ambient)
    basis = nullspace(rows, ambient)
    assert len(basis) == ambient - rank(rows)
    for vec in basis:
        assert all(_dot(row, vec) == 0 for row in rows)
    assert RowSpace(ambient, basis).dim == len(basis)


def test_intersect_by_hand():
    # <(1,0,0), (0,1,0)> meets <(0,1,1), (1,0,1)> in the line <(1,-1,0)>
    u = RowSpace(3, [{0: 1}, {1: 1}])
    w = RowSpace(3, [{1: 1, 2: 1}, {0: 1, 2: 1}])
    meet = u.intersect(w)
    assert meet == RowSpace(3, [{0: 1, 1: -1}])
    assert meet.basis_rows() == [{0: Fraction(1), 1: Fraction(-1)}]


# -- the integer elimination against a Fraction Gauss-Jordan oracle ---------------


def _ref_subtract(r, factor, row):
    for cc, vv in row.items():
        nv = r.get(cc, 0) - factor * vv
        if nv:
            r[cc] = nv
        else:
            r.pop(cc, None)


def _reference_rref(rows):
    """Gauss-Jordan over ``Fraction``, dividing by each pivot as it is found."""
    pivots = {}
    for row in rows:
        r = {c: Fraction(v) for c, v in row.items()}
        while r and min(r) in pivots:
            _ref_subtract(r, r[min(r)], pivots[min(r)])
        if not r:
            continue
        c = min(r)
        for pc in [cc for cc in r if cc in pivots]:
            _ref_subtract(r, r[pc], pivots[pc])
        inv = 1 / r[c]
        r = {cc: vv * inv for cc, vv in r.items()}
        for prow in pivots.values():
            if c in prow:
                _ref_subtract(prow, prow[c], r)
        pivots[c] = r
    return pivots


def _entry(rng, kind):
    num = rng.randint(-50, 50)
    if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
        return num
    return Fraction(num, rng.randint(1, 6))


def _oracle_rows(rng, kind, count=7, ambient=9):
    """Random rows plus duplicates and combinations of them, so the set is
    rank-deficient; entries are ints, Fractions or a mix of both."""
    rows = [
        {c: _entry(rng, kind) for c in range(ambient) if rng.random() < 0.55}
        for _ in range(count)
    ]
    rows.append(dict(rng.choice(rows)))
    for _ in range(3):
        a, b = rng.sample(rows, 2)
        x, y = _entry(rng, kind), _entry(rng, kind)
        rows.append({c: x * a.get(c, 0) + y * b.get(c, 0) for c in set(a) | set(b)})
    rng.shuffle(rows)
    return [{c: v for c, v in row.items() if v} for row in rows]


@pytest.mark.parametrize("kind", ["fraction", "int", "mixed"])
@pytest.mark.parametrize("seed", range(8))
def test_rref_matches_fraction_oracle(seed, kind):
    rng = random.Random(1000 + seed)
    rows = _oracle_rows(rng, kind)
    pivots = rref(rows)
    assert all(_is_primitive(r) and r[c] > 0 for c, r in pivots.items())
    got = {c: _normalized(r, r[c]) for c, r in pivots.items()}
    want = _reference_rref(rows)
    assert sorted(got) == sorted(want)
    assert got == want
    for row in got.values():
        # an entry the pivot divides comes back as an int
        assert all(type(v) is int or v.denominator != 1 for v in row.values())


def test_rref_of_rank_deficient_int_rows():
    rows = [{0: 2, 1: 4}, {0: -3, 1: -6}, {1: 3, 2: 6}, {0: 2, 1: 4}]
    assert rref(rows) == {0: {0: 1, 2: -4}, 1: {1: 1, 2: 2}}
    assert rref(rows) == _reference_rref(rows)


def test_primitive_is_the_canonical_integer_multiple():
    row = {1: Fraction(-3, 4), 3: Fraction(1, 6), 4: 2}
    assert _primitive(row) == {1: 9, 3: -2, 4: -24}
    for factor in (Fraction(-1), Fraction(5, 7), Fraction(-2, 9), 3):
        assert _primitive({c: factor * v for c, v in row.items()}) == _primitive(row)


def _as_fractions(rows):
    return [{c: Fraction(v) for c, v in row.items()} for row in rows]


@pytest.mark.parametrize("seed", range(6))
def test_int_and_fraction_spellings_agree(seed):
    rng = random.Random(2000 + seed)
    ambient = 8
    u_rows = _oracle_rows(rng, "int", count=4, ambient=ambient)
    w_rows = _oracle_rows(rng, "int", count=4, ambient=ambient)
    u_int, u_frac = RowSpace(ambient, u_rows), RowSpace(ambient, _as_fractions(u_rows))
    w_int, w_frac = RowSpace(ambient, w_rows), RowSpace(ambient, _as_fractions(w_rows))
    assert u_int == u_frac and w_int == w_frac
    probes = _oracle_rows(rng, "int", count=3, ambient=ambient) + u_rows
    for probe in probes:
        (frac_probe,) = _as_fractions([probe])
        assert u_int.contains_row(probe) == u_frac.contains_row(frac_probe)
        assert u_int.contains_row(frac_probe) == u_frac.contains_row(probe)
    assert all(u_int.contains_row(r) for r in u_rows)
    meet = u_int.intersect(w_int)
    assert meet == u_frac.intersect(w_frac) == u_int.intersect(w_frac)
    assert u_int.contains(meet) and w_frac.contains(meet)
    assert nullspace(u_rows, ambient) == nullspace(_as_fractions(u_rows), ambient)


# -- RowSpace operations against the Fraction oracle -----------------------------


def _reference_basis(rows):
    ref = _reference_rref(rows)
    return [ref[c] for c in sorted(ref)]


def _reference_contains(rows, probe):
    return len(_reference_rref(rows + [probe])) == len(_reference_rref(rows))


def _reference_meet(u_rows, w_rows, n):
    """Zassenhaus over the oracle: rref of [[U, U], [W, 0]]."""
    stacked = [{**r, **{c + n: v for c, v in r.items()}} for r in u_rows] + w_rows
    reduced = _reference_rref(stacked)
    return _reference_basis(
        [{cc - n: v for cc, v in row.items()} for c, row in reduced.items() if c >= n]
    )


@pytest.mark.parametrize("kind", ["fraction", "int"])
@pytest.mark.parametrize("seed", range(6))
def test_rowspace_operations_match_fraction_oracle(seed, kind):
    rng = random.Random(3000 + seed)
    ambient = 9
    u_rows = _oracle_rows(rng, kind, count=rng.randrange(2, 6), ambient=ambient)
    w_rows = _oracle_rows(rng, kind, count=rng.randrange(2, 6), ambient=ambient)
    u, w = RowSpace(ambient, u_rows), RowSpace(ambient, w_rows)
    assert u.basis_rows() == _reference_basis(u_rows)
    # equality: the same span from other generators, and a different span
    respelled = [{c: 3 * v for c, v in r.items()} for r in reversed(u_rows)]
    assert u == RowSpace(ambient, respelled + u_rows[:1])
    assert (u == w) == (_reference_basis(u_rows) == _reference_basis(w_rows))
    probes = _oracle_rows(rng, kind, count=4, ambient=ambient) + w_rows + u_rows
    for probe in probes:
        assert u.contains_row(probe) == _reference_contains(u_rows, probe)
    total = u.add(w)
    assert total.basis_rows() == _reference_basis(u_rows + w_rows)
    assert total.contains(u) and total.contains(w)
    meet = u.intersect(w)
    assert meet.basis_rows() == _reference_meet(u_rows, w_rows, ambient)
    assert meet == w.intersect(u)
    assert u.contains(meet) and w.contains(meet)


def test_containment_across_ambients_is_refused():
    u = RowSpace(3, [{0: 1, 2: 1}])
    with pytest.raises(ComputationError):
        u.contains(RowSpace(4, [{0: 1}]))
    with pytest.raises(ComputationError):
        RowSpace(4, [{0: 1, 2: 1}]).contains(u)
    for row in ({3: 1}, {0: 1, 5: Fraction(1, 2)}, {-1: 2}):
        with pytest.raises(ComputationError):
            u.contains_row(row)
    assert u.contains_row({0: 2, 2: 2}) and not u.contains_row({1: 1})
    assert u.contains(RowSpace(3))
