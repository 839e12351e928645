"""Exact integer and rational linear algebra.

Everything in this module is computed over arbitrary-precision integers or
``fractions.Fraction``; no floating point enters. The two public containers
are deliberately immutable so results can be shared freely between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence


def _as_fraction_rows(rows: Iterable[Iterable]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


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


class RationalMatrix:
    """Immutable matrix with exact rational entries.

    Fractions are kept reduced with positive denominators by construction
    (``fractions.Fraction`` guarantees both).
    """

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, rows: Iterable[Iterable], cols: int | None = None):
        self.entries = _as_fraction_rows(rows)
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
            isinstance(other, RationalMatrix)
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.entries, self.cols))

    def __repr__(self):
        return f"RationalMatrix({[list(map(str, r)) for r in self.entries]})"

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        return RationalMatrix(
            [
                [
                    sum(
                        (self.entries[i][k] * other.entries[k][j] for k in range(self.cols)),
                        Fraction(0),
                    )
                    for j in range(other.cols)
                ]
                for i in range(self.rows)
            ],
            cols=other.cols,
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.entries for x in row)

    def to_integer(self) -> "IntegerMatrix":
        if not self.is_integral():
            raise ValueError("matrix has non-integer entries")
        return IntegerMatrix([[x.numerator for x in row] for row in self.entries], cols=self.cols)


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

    def to_rational(self) -> RationalMatrix:
        return RationalMatrix(self.entries, cols=self.cols)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.column(j) for j in range(self.cols))


def identity_int(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# rational elimination


def _rref_rows(a: list[list[Fraction]], ncols: int) -> list[int]:
    """Row-reduce the rows ``a`` (lists of Fractions) in place; return the pivot columns."""
    nrows = len(a)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return pivots


def rref(M: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Reduced row echelon form together with the pivot columns."""
    a = [list(row) for row in M.entries]
    pivots = _rref_rows(a, M.cols)
    return RationalMatrix(a, cols=M.cols), tuple(pivots)


def rank(M: RationalMatrix) -> int:
    return len(rref(M)[1])


def solve_square(A: Sequence[Sequence], b: Sequence) -> tuple[Fraction, ...] | None:
    """Solve ``A x = b`` for the square matrix with rows ``A``; ``None`` if A is singular.

    The rows hold integers or Fractions. The elimination runs on plain rows,
    each entry converted to ``Fraction`` once.
    """
    n = len(A)
    if any(len(row) != n for row in A) or n != len(b):
        raise ValueError("shape mismatch")
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(A)]
    pivots = _rref_rows(aug, n + 1)
    if len(pivots) != n or n in pivots:
        return None
    return tuple(aug[i][n] for i in range(n))


def det(M: RationalMatrix) -> Fraction:
    if M.rows != M.cols:
        raise ValueError("determinant of non-square matrix")
    a = [list(row) for row in M.entries]
    n = M.rows
    out = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            a[c], a[pivot_row] = a[pivot_row], a[c]
            out = -out
        out *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return out


def inverse(M: RationalMatrix) -> RationalMatrix:
    if M.rows != M.cols:
        raise ValueError("inverse of non-square matrix")
    n = M.rows
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(M.entries)]
    if _rref_rows(aug, 2 * n) != list(range(n)):
        raise ValueError("singular matrix")
    return RationalMatrix([row[n:] for row in aug], cols=n)


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


# ---------------------------------------------------------------------------
# nullspaces


def _clear_denominators(M: RationalMatrix) -> IntegerMatrix:
    rows = []
    for row in M.entries:
        mult = 1
        for x in row:
            mult = mult * x.denominator // gcd(mult, x.denominator)
        rows.append([int(x * mult) for x in row])
    return IntegerMatrix(rows, cols=M.cols) if rows else IntegerMatrix([], cols=M.cols)


def rational_nullspace(M: RationalMatrix, side: str = "right") -> RationalMatrix:
    """Canonical basis, as rows, of a nullspace of ``M``.

    side="right": rows r with ``M rᵀ = 0``;  side="left": rows y with ``y M = 0``.

    The rows form a ℤ-basis of the saturated integer kernel lattice in
    Hermite normal form, so every entry is an integer, each row is primitive
    with positive leading entry, and the result is reproducible bit-exactly.
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    work = M if side == "right" else M.transpose()
    kernel = integer_kernel(_clear_denominators(work))
    return hermite_row_form(kernel).to_rational()
