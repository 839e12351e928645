import math
import random
from fractions import Fraction

import numpy as np
import pytest

from momentangle.exact_linalg import (
    IntegerMatrix,
    det_int,
    hermite_row_form,
    inverse,
    nullspace,
    solve_square,
)


def test_nullspace_triangle_normals():
    # relations among the facet normals of the standard triangle: the
    # nullspace of the 2 x 3 normal matrix
    ker = nullspace(IntegerMatrix([[1, 0], [0, 1], [-1, -1]]).transpose())
    assert ker.entries == ((1, 1, 1),)


def test_nullspace_full_rank_is_empty():
    ker = nullspace(IntegerMatrix([[1, 0], [0, 1]]))
    assert ker.rows == 0 and ker.cols == 2


def test_nullspace_one_relation():
    # hand row reduction: x1 + x2 = 0, basis (1, -1) after sign normalization
    ker = nullspace(IntegerMatrix([[1, 1]]))
    assert ker.entries == ((1, -1),)


def test_nullspace_empty_matrix():
    ker = nullspace(IntegerMatrix([], cols=3))
    assert ker.rows == 3  # whole space


@pytest.mark.parametrize("side", ["right", "left"])
def test_nullspace_annihilates(side):
    # "left" is the nullspace of the transpose
    rnd = random.Random(7)
    for _ in range(60):
        nr, nc = rnd.randint(1, 4), rnd.randint(1, 5)
        M = IntegerMatrix([[rnd.randint(-12, 12) for _ in range(nc)] for _ in range(nr)])
        work = M if side == "right" else M.transpose()
        ker = nullspace(work)
        assert work.matmul(ker.transpose()).is_zero()
        rank = np.linalg.matrix_rank(np.array(work.entries, dtype=float))
        assert ker.rows + rank == work.cols
        # canonical rows: integral, primitive, leading entry positive
        for row in ker.entries:
            assert all(isinstance(x, int) for x in row)
            assert math.gcd(*row) == 1
            lead = next(x for x in row if x != 0)
            assert lead > 0


def test_integer_kernel_saturated():
    # kernel of (1 1 2) must contain (1, 1, -1), not only a finite-index sublattice
    K = nullspace(IntegerMatrix([[1, 1, 2]]))
    assert K.rows == 2
    # the Hermite form is canonical: any proper sublattice has another one
    assert K.entries == ((1, 1, -1), (0, 2, -1))
    target = (1, 1, -1)
    assert hermite_row_form(IntegerMatrix(list(K.entries) + [list(target)], cols=3)) == hermite_row_form(K)


def test_sublattice_examples():
    assert hermite_row_form(IntegerMatrix([[1]])) == hermite_row_form(IntegerMatrix([[1], [2]]))
    assert hermite_row_form(IntegerMatrix([[2]])) != hermite_row_form(IntegerMatrix([[1], [2]]))
    assert hermite_row_form(IntegerMatrix([[1, 1], [1, 2]])) == hermite_row_form(IntegerMatrix([[1, 0], [0, 1]]))


def test_sublattice_monotone_and_symmetric():
    rnd = random.Random(11)
    for _ in range(40):
        d = rnd.randint(1, 3)
        full = IntegerMatrix([[rnd.randint(-3, 3) for _ in range(d)] for _ in range(d + 1)], cols=d)
        sub_rows = [list(r) for r in full.entries[: rnd.randint(1, d + 1)]]
        sub = IntegerMatrix(sub_rows, cols=d)
        if hermite_row_form(sub) == hermite_row_form(full):
            assert hermite_row_form(full) == hermite_row_form(sub)
            # adding generators never flips equal -> unequal
            bigger = IntegerMatrix(sub_rows + [list(full.entries[-1])], cols=d)
            assert hermite_row_form(bigger) == hermite_row_form(full)


def test_hermite_form_canonical():
    A = IntegerMatrix([[2, 1, 0], [1, 2, 0]])
    B = IntegerMatrix([[1, 2, 0], [3, 3, 0], [2, 1, 0]])
    assert hermite_row_form(A) == hermite_row_form(B)


def test_hermite_form_reduces_every_pivot_column():
    # reducing row 0 by row 1 moves the entry above the last pivot to -1;
    # the reduction by row 2 must come after it
    H = hermite_row_form(IntegerMatrix([[0, 0, 0, 2], [0, 0, 1, 1], [0, 1, 1, 0]]))
    assert H.entries == ((0, 1, 0, 1), (0, 0, 1, 1), (0, 0, 0, 2))


def test_rational_det_inverse():
    # the exact inverse times the matrix is the identity, and its
    # determinant is 1 / det_int
    for rows, d in (([[1, 2], [3, 5]], -1), ([[2, 0], [1, 3]], 6)):
        M = IntegerMatrix(rows)
        assert det_int(M) == d
        Minv = inverse(M)
        assert all(isinstance(x, Fraction) for row in Minv for x in row)
        product = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*Minv)) for row in rows)
        assert product == ((1, 0), (0, 1))
        assert Minv[0][0] * Minv[1][1] - Minv[0][1] * Minv[1][0] == Fraction(1, d)
    with pytest.raises(ValueError):
        inverse(IntegerMatrix([[1, 2], [2, 4]]))


def test_solve_square_against_inverse():
    # rows of integers or Fractions; the solution is exact, and a singular
    # matrix gives None
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 4)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        b = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        x = solve_square(A, b)
        if det_int(IntegerMatrix(A)) == 0:
            assert x is None
        else:
            assert tuple(sum(a * t for a, t in zip(row, x)) for row in A) == tuple(b)
    assert solve_square([[1, 2], [2, 4]], [1, 2]) is None
    assert solve_square([[Fraction(1, 2)]], [1]) == (Fraction(2),)
    with pytest.raises(ValueError):
        solve_square([[1, 2]], [1])
