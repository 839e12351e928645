"""Exact rational linear programming (two-phase simplex, Bland's rule).

Problems here are tiny (tens of variables), so a dense tableau over
``Fraction`` is both simple and fast enough. Bland's pivoting rule makes
termination unconditional.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: tuple[Fraction, ...] | None = None
    objective: Fraction | None = None


def _pivot(T: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = T[row][col]
    T[row] = [x / piv for x in T[row]]
    for i in range(len(T)):
        if i != row and T[i][col] != 0:
            f = T[i][col]
            T[i] = [x - f * y for x, y in zip(T[i], T[row])]
    basis[row] = col


def _run_simplex(T: list[list[Fraction]], basis: list[int], cost: list[Fraction]) -> str:
    """Minimize; ``cost`` is the reduced-cost row (last entry = -objective)."""
    ncols = len(cost) - 1
    while True:
        col = next((j for j in range(ncols) if cost[j] < 0), None)  # Bland: lowest index
        if col is None:
            return "optimal"
        candidates = [
            (T[i][-1] / T[i][col], basis[i], i) for i in range(len(T)) if T[i][col] > 0
        ]
        if not candidates:
            return "unbounded"
        _, _, row = min(candidates)  # min ratio, ties by lowest basis index
        piv = T[row][col]
        scaled = [x / piv for x in T[row]]
        f = cost[col]
        for j in range(len(cost)):
            cost[j] -= f * scaled[j]
        _pivot(T, basis, row, col)


def solve_lp(
    A: Sequence[Sequence], b: Sequence, c: Sequence, maximize: bool = False
) -> LPResult:
    """Optimize ``c.x`` subject to ``A x = b``, ``x >= 0`` in exact arithmetic."""
    m = len(A)
    n = len(c)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i in range(m):
        r = [Fraction(x) for x in A[i]]
        if len(r) != n:
            raise ValueError("row length disagrees with cost vector")
        bb = Fraction(b[i])
        if bb < 0:
            r = [-x for x in r]
            bb = -bb
        rows.append(r)
        rhs.append(bb)

    # phase 1: artificial basis
    T = [rows[i] + [Fraction(int(j == i)) for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    cost1 = [Fraction(0)] * (n + m + 1)
    for j in range(n):
        cost1[j] = -sum(T[i][j] for i in range(m))
    cost1[-1] = -sum(T[i][-1] for i in range(m))
    status = _run_simplex(T, basis, cost1)
    if status != "optimal":  # phase 1 is always bounded below by 0
        raise AssertionError("phase 1 cannot be unbounded")
    if -cost1[-1] != 0:
        return LPResult("infeasible")

    # drive leftover artificials out of the basis, drop redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if T[i][j] != 0), None)
            if col is None:
                continue  # redundant constraint
            _pivot(T, basis, i, col)
        keep.append(i)
    T = [T[i][:n] + [T[i][-1]] for i in keep]  # strip artificial columns
    basis = [basis[i] for i in keep]

    # phase 2
    obj = [Fraction(x) for x in c]
    if maximize:
        obj = [-x for x in obj]
    cost2 = list(obj) + [Fraction(0)]
    for i, bi in enumerate(basis):
        f = cost2[bi]
        if f != 0:
            for j in range(n + 1):
                cost2[j] -= f * T[i][j]
    status = _run_simplex(T, basis, cost2)
    if status == "unbounded":
        return LPResult("unbounded")
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = T[i][-1]
    val = sum((Fraction(ci) * xi for ci, xi in zip(c, x)), Fraction(0))
    return LPResult("optimal", tuple(x), val)


def feasible_point(A: Sequence[Sequence], b: Sequence) -> tuple[Fraction, ...] | None:
    """A point of ``{x >= 0 : A x = b}``, or ``None``."""
    n = len(A[0]) if A else 0
    res = solve_lp(A, b, [Fraction(0)] * n)
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
        return () if all(Fraction(t) == 0 for t in target) else None
    # variables: s_k >= 0 (k < nv), delta, slack;  t_k = s_k + delta
    A = []
    for i in range(dim):
        row = [Fraction(v[i]) for v in vectors]
        row.append(sum(row, Fraction(0)))  # delta column
        row.append(Fraction(0))  # slack
        A.append(row)
    A.append([Fraction(0)] * nv + [Fraction(1), Fraction(1)])  # delta + slack = 1
    b = [Fraction(t) for t in target] + [Fraction(1)]
    cost = [Fraction(0)] * nv + [Fraction(1), Fraction(0)]
    res = solve_lp(A, b, cost, maximize=True)
    if res.status != "optimal" or res.x is None:
        return None
    delta = res.x[nv]
    if delta <= 0:
        return None
    return tuple(res.x[k] + delta for k in range(nv))


def inequality_point(vectors: Sequence[Sequence], lower: Sequence) -> tuple[Fraction, ...] | None:
    """x with ``<v_k, x> >= lower_k`` for every k, or ``None``.

    x is split into positive and negative parts, and each inequality gets a
    surplus variable, to keep the standard form.
    """
    dim = len(vectors[0])
    A = [
        [Fraction(x) for x in v] + [-Fraction(x) for x in v] + [Fraction(-int(j == k)) for j in range(len(vectors))]
        for k, v in enumerate(vectors)
    ]
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
