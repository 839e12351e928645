import random
from fractions import Fraction

import pytest

from momentangle.exact_linalg import (
    IntegerMatrix,
    RationalMatrix,
    det,
    det_int,
    hermite_row_form,
    integer_kernel,
    inverse,
    rank,
    rational_nullspace,
    smith_normal_form,
    snf_diagonal,
    solve_square,
    sublattice_equals_lattice,
)


def test_nullspace_triangle_normals():
    # left kernel of the transposed normal matrix of the standard triangle
    At = RationalMatrix([[1, 0], [0, 1], [-1, -1]])
    ker = rational_nullspace(At, side="left")
    assert ker.entries == ((Fraction(1), Fraction(1), Fraction(1)),)


def test_nullspace_full_rank_is_empty():
    ker = rational_nullspace(RationalMatrix([[1, 0], [0, 1]]))
    assert ker.rows == 0 and ker.cols == 2


def test_nullspace_one_relation():
    # hand row reduction: x1 + x2 = 0, basis (1, -1) after sign normalization
    ker = rational_nullspace(RationalMatrix([[1, 1]]))
    assert ker.entries == ((Fraction(1), Fraction(-1)),)


def test_nullspace_empty_matrix():
    ker = rational_nullspace(RationalMatrix([], cols=3))
    assert ker.rows == 3  # whole space


@pytest.mark.parametrize("side", ["right", "left"])
def test_nullspace_annihilates(side):
    rnd = random.Random(7)
    for _ in range(60):
        nr, nc = rnd.randint(1, 4), rnd.randint(1, 5)
        M = RationalMatrix(
            [[Fraction(rnd.randint(-4, 4), rnd.randint(1, 3)) for _ in range(nc)] for _ in range(nr)]
        )
        ker = rational_nullspace(M, side=side)
        work = M if side == "right" else M.transpose()
        prod = work.matmul(ker.transpose())
        assert prod.is_zero()
        assert ker.rows + rank(work) == work.cols
        # canonical rows: integral, primitive, leading entry positive
        for row in ker.entries:
            assert all(x.denominator == 1 for x in row)
            lead = next(x for x in row if x != 0)
            assert lead > 0


def test_smith_normal_form_examples():
    _, D, _ = smith_normal_form(IntegerMatrix([[2, 0], [0, 3]]))
    assert D.entries == ((1, 0), (0, 6))
    _, D, _ = smith_normal_form(IntegerMatrix([[1, 0], [0, 1]]))
    assert D.entries == ((1, 0), (0, 1))
    _, D, _ = smith_normal_form(IntegerMatrix([[2, 4]]))
    assert D.entries == ((2, 0),)


def test_smith_normal_form_random():
    rnd = random.Random(3)
    for _ in range(150):
        nr, nc = rnd.randint(1, 4), rnd.randint(1, 4)
        M = IntegerMatrix([[rnd.randint(-9, 9) for _ in range(nc)] for _ in range(nr)])
        U, D, V = smith_normal_form(M)  # factorization re-verified inside
        diag = [D.entries[i][i] for i in range(min(nr, nc))]
        assert all(x >= 0 for x in diag)
        nz = [x for x in diag if x]
        assert diag[: len(nz)] == nz  # nonzero invariants first
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        assert abs(det_int(U)) == 1 and abs(det_int(V)) == 1
        # off-diagonal zero
        for i in range(D.rows):
            for j in range(D.cols):
                if i != j:
                    assert D.entries[i][j] == 0


def test_integer_kernel_saturated():
    # kernel of (1 1 2) must contain (1, 1, -1), not only a finite-index sublattice
    K = integer_kernel(IntegerMatrix([[1, 1, 2]]))
    assert K.rows == 2
    target = (1, 1, -1)
    assert sublattice_equals_lattice(
        IntegerMatrix(list(K.entries) + [list(target)], cols=3), K
    )


def test_sublattice_examples():
    assert sublattice_equals_lattice(IntegerMatrix([[1]]), IntegerMatrix([[1], [2]]))
    assert not sublattice_equals_lattice(IntegerMatrix([[2]]), IntegerMatrix([[1], [2]]))
    assert sublattice_equals_lattice(
        IntegerMatrix([[1, 1], [1, 2]]), IntegerMatrix([[1, 0], [0, 1]])
    )


def test_sublattice_monotone_and_symmetric():
    rnd = random.Random(11)
    for _ in range(40):
        d = rnd.randint(1, 3)
        full = IntegerMatrix([[rnd.randint(-3, 3) for _ in range(d)] for _ in range(d + 1)], cols=d)
        sub_rows = [list(r) for r in full.entries[: rnd.randint(1, d + 1)]]
        sub = IntegerMatrix(sub_rows, cols=d)
        if sublattice_equals_lattice(sub, full):
            assert sublattice_equals_lattice(full, sub)
            # adding generators never flips equal -> unequal
            bigger = IntegerMatrix(sub_rows + [list(full.entries[-1])], cols=d)
            assert sublattice_equals_lattice(bigger, full)


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
    M = RationalMatrix([[1, 2], [3, 5]])
    assert det(M) == Fraction(-1)
    Minv = inverse(M)
    assert M.matmul(Minv).entries == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    diag = snf_diagonal(IntegerMatrix([[6, 4], [4, 8]]))
    assert diag == (2, 16)  # det 32, gcd 2


def test_solve_square_against_inverse():
    # rows of integers or Fractions; the solution is exact, and a singular
    # matrix gives None
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 4)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        b = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        x = solve_square(A, b)
        if det(RationalMatrix(A)) == 0:
            assert x is None
        else:
            assert RationalMatrix(A).matmul(RationalMatrix([[t] for t in x])).entries == tuple((t,) for t in b)
    assert solve_square([[1, 2], [2, 4]], [1, 2]) is None
    assert solve_square([[Fraction(1, 2)]], [1]) == (Fraction(2),)
    with pytest.raises(ValueError):
        solve_square([[1, 2]], [1])
