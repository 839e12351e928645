"""Exact integer linear algebra.

Everything in this module is computed over arbitrary-precision integers; no
floating point enters. Matrices are ``IntegerMatrix``, immutable so results
can be shared freely between threads: determinants, ranks, kernels and
lattices are all integer. One elimination step and one normal form answer
every question. The Bareiss pivot ``_pivot`` runs the determinant, the
square solves and ``lp``'s simplex, and ``_bareiss`` runs the feasible-basis
loop of ``quadric_config``. The basis loop and the simplex decide on
integer numerators and build a ``Fraction`` only for the bases they keep and
for the LP points a caller reads. ``solve_square`` and ``inverse`` eliminate
fraction-free, so ``Fraction`` appears only in the rational inputs of
``solve_square`` and in the rows of Fractions that both return;
``solve_with_det`` returns the determinant a solve ends on with its
solution, and the vertex loop of ``polytope`` still solves through it. The
Hermite form gives ranks (its row count), kernels and lattice equality.
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


# ---------------------------------------------------------------------------
# fraction-free elimination


def _pivot(rows: list[list[int]], r: int, col: int, d: int) -> int:
    """One Bareiss step on the integer rows, in place: clear column ``col``
    of every row but ``r``, and return the new pivot ``rows[r][col]``.

    Each updated row divides exactly by the previous pivot ``d`` (Bareiss's
    identity), so every entry stays an integer minor. A row the pivot leaves
    alone is still rescaled from ``d`` to the new pivot.
    """
    piv = rows[r]
    p = piv[col]
    for i, t in enumerate(rows):
        if i != r:
            f = t[col]
            if f:
                rows[i] = [(x * p - f * y) // d for x, y in zip(t, piv)]
            elif p != d:
                rows[i] = [x * p // d for x in t]
    return p


def _bareiss(a: list[list[int]], n: int) -> int:
    """Fraction-free Gauss-Jordan on the first n columns of the n integer rows ``a``, in place.

    Returns the determinant of the left block A, or 0 if A is singular. A
    row swap negates the row it moves down, which undoes the swap's sign
    change, so the last pivot is det A itself. When it is nonzero the left
    block is now ``det A`` times the identity and the rest of each row holds
    ``det A`` times A^-1 applied to the columns that were there.
    """
    d = 1
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], [-x for x in a[k]]
        d = _pivot(a, k, k, d)
    return d


def solve_square(A: Sequence[Sequence], b: Sequence) -> tuple[Fraction, ...] | None:
    """Solve ``A x = b`` for the square matrix with rows ``A``; ``None`` if A is singular."""
    return solve_with_det(A, b)[0]


def solve_with_det(A: Sequence[Sequence], b: Sequence) -> tuple[tuple[Fraction, ...] | None, int]:
    """``(solve_square(A, b), d)``, d the determinant the elimination ends on: det A where
    the rows of A are integers.

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
    return (tuple(Fraction(r[n], d * L) for r in aug) if d else None), d


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


def det_int(M: IntegerMatrix) -> int:
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    if M.rows != M.cols:
        raise ValueError("determinant of non-square matrix")
    return _bareiss([list(row) for row in M.entries], M.rows)


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


def nullspace(M: IntegerMatrix) -> IntegerMatrix:
    """Canonical basis, as rows, of the integer kernel ``{x : M x = 0}``.

    The rows (M e_j, e_j) generate the lattice {(M x, x) : x integer}. In
    its Hermite form the rows that vanish on the first block come last, and
    they are a Hermite basis of its part with M x = 0: their second blocks
    are the Hermite form of the whole (saturated) integer kernel. Each row
    is primitive with positive leading entry, and the result is
    reproducible bit-exactly.
    """
    r, n = M.rows, M.cols
    rows = [list(col) + [int(i == j) for j in range(n)] for i, col in enumerate(M.columns())]
    H = hermite_row_form(IntegerMatrix(rows, cols=r + n))
    return IntegerMatrix([row[r:] for row in H.entries if not any(row[:r])], cols=n)
