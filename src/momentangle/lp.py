"""Exact rational linear programming (two-phase simplex, Bland's rule).

Problems here are tiny (tens of variables), so a dense tableau is both
simple and fast enough. The tableau pivots in integers: the constraints and
the cost are each scaled once by the least common multiple of their
denominators, and the tableau is kept as integer rows over one common
denominator ``D > 0``, every entry a minor of the scaled system. Each pivot
divides exactly by the previous ``D`` (Bareiss's identity). The optimal
basic solution is kept as its integer numerators over ``D``, and no
``Fraction`` is built until a caller reads ``LPResult.x`` or ``objective``.
Bland's pivoting rule makes termination unconditional.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Sequence

from .exact_linalg import _pivot as _bareiss_pivot


@dataclass(frozen=True)
class LPResult:
    """The status, the program's cost vector, and at an optimum the basic
    solution x = numerators / D.

    ``x`` and ``objective`` are built from the numerators on first read and
    kept."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    cost: tuple
    numerators: tuple[int, ...] | None = None
    D: int = 1

    @cached_property
    def x(self) -> tuple[Fraction, ...] | None:
        if self.numerators is None:
            return None
        return tuple(Fraction(y, self.D) for y in self.numerators)

    @cached_property
    def objective(self) -> Fraction | None:
        if self.numerators is None:
            return None
        return sum((ci * xi for ci, xi in zip(self.cost, self.x)), Fraction(0))


def _pivot(T: list[list[int]], basis: list[int], row: int, col: int, D: int) -> int:
    """Pivot the tableau ``T / D`` on (row, col) in integers; return the new D.

    The cost row, if any, is the last row of T and is updated with the rest,
    by the Bareiss step of ``exact_linalg``. A negative pivot negates its
    row first, so that the new D stays positive.
    """
    if T[row][col] < 0:
        T[row] = [-x for x in T[row]]
    basis[row] = col
    return _bareiss_pivot(T, row, col, D)


def _run_simplex(T: list[list[int]], basis: list[int], D: int) -> tuple[str, int]:
    """Minimize; the last row of T is the reduced-cost row (last entry = -objective * D)."""
    cost = T[-1]
    ncols = len(cost) - 1
    rows = range(len(T) - 1)
    while True:
        col = next((j for j in range(ncols) if cost[j] < 0), None)  # Bland: lowest index
        if col is None:
            return "optimal", D
        # min ratio T[i][-1] / T[i][col] over T[i][col] > 0, compared by
        # cross-multiplication, ties by lowest basis index
        row = None
        for i in rows:
            a = T[i][col]
            if a > 0:
                if row is None:
                    row = i
                    continue
                lhs, rhs = T[i][-1] * T[row][col], T[row][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[row]):
                    row = i
        if row is None:
            return "unbounded", D
        D = _pivot(T, basis, row, col, D)
        cost = T[-1]


def solve_lp(
    A: Sequence[Sequence], b: Sequence, c: Sequence, maximize: bool = False
) -> LPResult:
    """Optimize ``c.x`` subject to ``A x = b``, ``x >= 0`` in exact arithmetic.

    Entries are ints or ``Fraction``s; an int is its own numerator over 1, so
    only the Fractions' denominators set the scale."""
    m = len(A)
    n = len(c)
    rows: list[list] = []
    for i in range(m):
        r = list(A[i])
        if len(r) != n:
            raise ValueError("row length disagrees with cost vector")
        bb = b[i]
        if bb < 0:
            r = [-x for x in r]
            bb = -bb
        rows.append(r + [bb])
    scale = lcm(*(x.denominator for r in rows for x in r))
    rows = [[x.numerator * (scale // x.denominator) for x in r] for r in rows]

    # phase 1: artificial basis, the cost row last
    T = [r[:n] + [int(j == i) for j in range(m)] + [r[n]] for i, r in enumerate(rows)]
    sums = [sum(col) for col in zip(*rows)] or [0] * (n + 1)
    T.append([-x for x in sums[:n]] + [0] * m + [-sums[n]])
    basis = [n + i for i in range(m)]
    status, D = _run_simplex(T, basis, 1)
    if status != "optimal":  # phase 1 is always bounded below by 0
        raise AssertionError("phase 1 cannot be unbounded")
    if T.pop()[-1] != 0:
        return LPResult("infeasible", tuple(c))

    # drive leftover artificials out of the basis, drop redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if T[i][j] != 0), None)
            if col is None:
                continue  # redundant constraint
            D = _pivot(T, basis, i, col, D)
        keep.append(i)
    T = [T[i][:n] + [T[i][-1]] for i in keep]  # strip artificial columns
    basis = [basis[i] for i in keep]

    # phase 2: the cost row over the same D, scaled by its own lcm
    obj = [-x if maximize else x for x in c]
    scale = lcm(*(x.denominator for x in obj))
    obj = [x.numerator * (scale // x.denominator) for x in obj]
    cost = [D * x for x in obj] + [0]
    for t, bi in zip(T, basis):
        f = obj[bi]
        if f:
            cost = [x - f * y for x, y in zip(cost, t)]
    T.append(cost)
    status, D = _run_simplex(T, basis, D)
    if status == "unbounded":
        return LPResult("unbounded", tuple(c))
    y = [0] * n
    for i, bi in enumerate(basis):
        if bi < n:
            y[bi] = T[i][-1]
    return LPResult("optimal", tuple(c), tuple(y), D)


def feasible_point(A: Sequence[Sequence], b: Sequence) -> tuple[Fraction, ...] | None:
    """A point of ``{x >= 0 : A x = b}``, or ``None``."""
    n = len(A[0]) if A else 0
    res = solve_lp(A, b, [0] * n)
    return res.x if res.status == "optimal" else None


# ---------------------------------------------------------------------------
# geometry-flavoured wrappers


def positive_combination(
    vectors: Sequence[Sequence], target: Sequence
) -> tuple[Fraction, ...] | None:
    """Strictly positive t with ``sum t_k v_k = target``, or ``None``.

    Decided exactly by maximizing the common lower bound delta of the t_k
    (capped at 1 so the program stays bounded); the system is solvable with
    all t_k > 0 iff the optimum is positive.
    """
    dim = len(target)
    nv = len(vectors)
    if nv == 0:
        return () if all(t == 0 for t in target) else None
    # variables: s_k >= 0 (k < nv), delta, slack;  t_k = s_k + delta
    A = []
    for i in range(dim):
        row = [v[i] for v in vectors]
        row.append(sum(row))  # delta column
        row.append(0)  # slack
        A.append(row)
    A.append([0] * nv + [1, 1])  # delta + slack = 1
    b = list(target) + [1]
    cost = [0] * nv + [1, 0]
    res = solve_lp(A, b, cost, maximize=True)
    if res.status != "optimal":
        return None
    # D > 0, so delta = y[nv] / D is positive iff its numerator is
    y, D = res.numerators, res.D
    if y[nv] <= 0:
        return None
    return tuple(Fraction(y[k] + y[nv], D) for k in range(nv))


def inequality_point(vectors: Sequence[Sequence], lower: Sequence) -> tuple[Fraction, ...] | None:
    """x with ``<v_k, x> >= lower_k`` for every k, or ``None``.

    x is split into positive and negative parts, and each inequality gets a
    surplus variable, to keep the standard form.
    """
    dim = len(vectors[0])
    A = [list(v) + [-x for x in v] + [-int(j == k) for j in range(len(vectors))] for k, v in enumerate(vectors)]
    pt = feasible_point(A, lower)
    if pt is None:
        return None
    return tuple(pt[i] - pt[dim + i] for i in range(dim))


def strictly_positive_functional(vectors: Sequence[Sequence]) -> tuple[Fraction, ...] | None:
    """h with ``<h, v_k> > 0`` for every k, or ``None``.

    By homogeneity this is the feasibility of ``<h, v_k> >= 1``.
    """
    if not vectors:
        return None
    return inequality_point(vectors, [1] * len(vectors))
