"""Exact integer linear algebra.

Everything in this module is computed over arbitrary-precision integers; no
floating point enters. Matrices are ``IntegerMatrix``, immutable so results
can be shared freely between threads: determinants, ranks, kernels and
lattices are all integer. ``solve_square`` and ``inverse`` eliminate
fraction-free (Bareiss) as well: ``Fraction`` appears only in the rational
inputs of ``solve_square`` and in the rows of Fractions that both return.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence


def _as_int_rows(rows: Iterable[Iterable]) -> tuple[tuple[int, ...], ...]:
    out = []
    for row in rows:
        r = []
        for x in row:
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise ValueError(f"entry {x} is not an integer")
                x = x.numerator
            r.append(int(x))
        out.append(tuple(r))
    return tuple(out)


class IntegerMatrix:
    """Immutable matrix with arbitrary-precision integer entries."""

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, rows: Iterable[Iterable], cols: int | None = None):
        self.entries = _as_int_rows(rows)
        self.rows = len(self.entries)
        if self.rows:
            widths = {len(r) for r in self.entries}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            self.cols = widths.pop()
            if cols is not None and cols != self.cols:
                raise ValueError("declared column count disagrees with rows")
        else:
            if cols is None:
                raise ValueError("zero-row matrix needs an explicit column count")
            self.cols = cols
        if self.cols < 0:
            raise ValueError("negative dimension")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntegerMatrix)
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.entries, self.cols))

    def __repr__(self):
        return f"IntegerMatrix({[list(r) for r in self.entries]})"

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def matmul(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        return IntegerMatrix(
            [
                [
                    sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                    for j in range(other.cols)
                ]
                for i in range(self.rows)
            ],
            cols=other.cols,
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.column(j) for j in range(self.cols))


def identity_int(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# fraction-free elimination


def _bareiss(a: list[list[int]], n: int) -> int:
    """Fraction-free Gauss-Jordan on the first n columns of the integer rows ``a``, in place.

    Each step divides exactly by the previous pivot (Bareiss's identity), so
    every entry stays an integer minor. Returns ``d``, the determinant of
    the left block A up to sign, or 0 if A is singular. When ``d != 0`` the
    left block is now ``d`` times the identity and the rest of each row
    holds ``d`` times A^-1 applied to the columns that were there.
    """
    prev = 1
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            return 0
        a[k], a[pivot_row] = a[pivot_row], a[k]
        r = a[k]
        p = r[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                if f:
                    a[i] = [(x * p - f * y) // prev for x, y in zip(a[i], r)]
                elif p != prev:  # a row the pivot leaves alone still moves to the new d
                    a[i] = [x * p // prev for x in a[i]]
        prev = p
    return prev


def solve_square(A: Sequence[Sequence], b: Sequence) -> tuple[Fraction, ...] | None:
    """Solve ``A x = b`` for the square matrix with rows ``A``; ``None`` if A is singular.

    The rows hold integers or Fractions. A row holding Fractions is scaled
    to integers, b to a common denominator L, and the elimination runs in
    integers; the solution is formed once, as ``y_i / (d L)``.
    """
    n = len(A)
    if any(len(row) != n for row in A) or n != len(b):
        raise ValueError("shape mismatch")
    aug = []
    rhs = []
    for row, bi in zip(A, b):
        s = lcm(*(x.denominator for x in row))
        aug.append([x.numerator * (s // x.denominator) for x in row])
        rhs.append(Fraction(bi) * s)
    L = lcm(*(x.denominator for x in rhs))
    for r, bi in zip(aug, rhs):
        r.append(bi.numerator * (L // bi.denominator))
    d = _bareiss(aug, n)
    if d == 0:
        return None
    return tuple(Fraction(r[n], d * L) for r in aug)


def inverse(M: IntegerMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """The rows of the exact inverse of a square integer matrix."""
    if M.rows != M.cols:
        raise ValueError("inverse of non-square matrix")
    n = M.rows
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(M.entries)]
    d = _bareiss(aug, n)
    if d == 0:
        raise ValueError("singular matrix")
    return tuple(tuple(Fraction(x, d) for x in row[n:]) for row in aug)


# ---------------------------------------------------------------------------
# integer forms


def _swap_rows(a, i, j):
    a[i], a[j] = a[j], a[i]


def _swap_cols(a, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]


def smith_normal_form(M: IntegerMatrix) -> tuple[IntegerMatrix, IntegerMatrix, IntegerMatrix]:
    """Return unimodular ``U``, diagonal ``D``, unimodular ``V`` with ``U M V = D``.

    The diagonal is nonnegative and satisfies the divisibility chain
    d_1 | d_2 | ... ; the factorization is re-verified exactly before
    returning.
    """
    nr, nc = M.rows, M.cols
    d = [list(row) for row in M.entries]
    u = identity_int(nr)
    v = identity_int(nc)

    def row_op(i, j, q):  # row_i -= q * row_j
        d[i] = [x - q * y for x, y in zip(d[i], d[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in d:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    t = 0
    while t < min(nr, nc):
        # locate a nonzero pivot of minimal magnitude in the trailing block
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            _swap_rows(d, t, bi)
            _swap_rows(u, t, bi)
        if bj != t:
            _swap_cols(d, t, bj)
            _swap_cols(v, t, bj)
        dirty = False
        for i in range(t + 1, nr):
            if d[i][t] != 0:
                q = d[i][t] // d[t][t]
                row_op(i, t, q)
                if d[i][t] != 0:
                    dirty = True
        for j in range(t + 1, nc):
            if d[t][j] != 0:
                q = d[t][j] // d[t][t]
                col_op(j, t, q)
                if d[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # pivot must divide every remaining entry; if not, fold the offender in
        offender = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if d[i][j] % d[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)  # add offending row to the pivot row
            continue
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    U = IntegerMatrix(u, cols=nr)
    D = IntegerMatrix(d, cols=nc)
    V = IntegerMatrix(v, cols=nc)
    if U.matmul(M).matmul(V) != D:
        raise AssertionError("Smith normal form verification failed")
    if abs(det_int(U)) != 1 or abs(det_int(V)) != 1:
        raise AssertionError("transform matrices are not unimodular")
    return U, D, V


def det_int(M: IntegerMatrix) -> int:
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    if M.rows != M.cols:
        raise ValueError("determinant of non-square matrix")
    n = M.rows
    if n == 0:
        return 1
    a = [list(row) for row in M.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot_row is None:
                return 0
            _swap_rows(a, k, pivot_row)
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def snf_diagonal(M: IntegerMatrix) -> tuple[int, ...]:
    _, D, _ = smith_normal_form(M)
    return tuple(D.entries[i][i] for i in range(min(D.rows, D.cols)))


def integer_kernel(M: IntegerMatrix) -> IntegerMatrix:
    """ℤ-basis (rows) of ``{x ∈ ℤ^cols : M x = 0}``.

    The basis spans the *saturated* kernel lattice, i.e. every integer vector
    in the rational kernel is an integer combination of the returned rows.
    """
    if M.rows == 0:
        return IntegerMatrix(identity_int(M.cols), cols=M.cols)
    _, D, V = smith_normal_form(M)
    r = sum(1 for i in range(min(D.rows, D.cols)) if D.entries[i][i] != 0)
    basis = [V.column(j) for j in range(r, M.cols)]
    return IntegerMatrix(basis, cols=M.cols)


def hermite_row_form(M: IntegerMatrix) -> IntegerMatrix:
    """Canonical row-style Hermite normal form of the row lattice of ``M``.

    Zero rows are dropped; pivots are positive, entries above a pivot are
    reduced into ``[0, pivot)``. Two generating sets span the same lattice
    iff their Hermite forms are identical.
    """
    rows = [list(r) for r in M.entries if any(r)]
    ncols = M.cols
    h: list[list[int]] = []
    work = rows
    for c in range(ncols):
        carriers = [r for r in work if r[c] != 0]
        rest = [r for r in work if r[c] == 0]
        if not carriers:
            work = rest
            continue
        # Euclidean reduction in column c down to a single carrier
        while len(carriers) > 1:
            carriers.sort(key=lambda r: abs(r[c]))
            base = carriers[0]
            new_carriers = [base]
            for r in carriers[1:]:
                q = r[c] // base[c]
                reduced = [x - q * y for x, y in zip(r, base)]
                if reduced[c] != 0:
                    new_carriers.append(reduced)
                elif any(reduced):
                    rest.append(reduced)
            carriers = new_carriers
        pivot = carriers[0]
        if pivot[c] < 0:
            pivot = [-x for x in pivot]
        h.append(pivot)
        work = rest
    # reduce entries above each pivot, top down: row i is zero left of its
    # pivot, so it leaves the columns of the earlier pivots as they are
    for i in range(len(h)):
        c = next(j for j in range(ncols) if h[i][j] != 0)
        for k in range(i):
            q = h[k][c] // h[i][c]
            if q:
                h[k] = [x - q * y for x, y in zip(h[k], h[i])]
    return IntegerMatrix(h, cols=ncols)


def lattice_contains(generators: IntegerMatrix, vector: Sequence[int]) -> bool:
    """Is ``vector`` an integer combination of the rows of ``generators``?"""
    if len(vector) != generators.cols:
        raise ValueError("dimension mismatch")
    if generators.rows == 0:
        return all(x == 0 for x in vector)
    _, D, V = smith_normal_form(generators)
    w = IntegerMatrix([list(vector)], cols=generators.cols).matmul(V).entries[0]
    for j in range(generators.cols):
        dj = D.entries[j][j] if j < min(D.rows, D.cols) else 0
        if dj == 0:
            if w[j] != 0:
                return False
        elif w[j] % dj != 0:
            return False
    return True


def sublattice_equals_lattice(subset: IntegerMatrix, full: IntegerMatrix) -> bool:
    """Exact equality of the row lattices of the two generating sets."""
    if subset.cols != full.cols:
        raise ValueError("generators live in different ambient dimensions")
    return all(lattice_contains(full, r) for r in subset.entries) and all(
        lattice_contains(subset, r) for r in full.entries
    )


def nullspace(M: IntegerMatrix) -> IntegerMatrix:
    """Canonical basis, as rows, of the integer kernel ``{x : M x = 0}``.

    The rows are the Hermite form of a basis of the saturated kernel
    lattice: each row is primitive with positive leading entry, and the
    result is reproducible bit-exactly.
    """
    return hermite_row_form(integer_kernel(M))
