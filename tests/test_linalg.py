import random
from fractions import Fraction

import pytest

from monodromy_lab.linalg import RowSpace, nullspace, rank, rref


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
        assert min(row) == c and row[c] == 1
        assert not any(pc in row for pc in pivots if pc != c)


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
