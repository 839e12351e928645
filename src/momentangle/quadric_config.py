"""Quadric systems sum_k gamma_jk |z_k|^2 = c_j and their exact predicates.

A configuration is the matrix of quadric coefficients together with the
right-hand sides. Derived from a polytope presentation via the nullspace of
the normal matrix it describes the associated intersection of Hermitian
quadrics in C^m.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd
from typing import Iterable, Sequence

import numpy as np

from . import lp
from .exact_linalg import IntegerMatrix, rational_nullspace, snf_diagonal, solve_square
from .polytope import PolytopePresentation


class CanonicalFormError(ValueError):
    pass


class QuadricConfiguration:
    """Integer quadric coefficients (rows) with rational right-hand sides."""

    def __init__(self, gamma: IntegerMatrix, c: Iterable):
        self.gamma = gamma
        self.c = tuple(Fraction(x) for x in c)
        if len(self.c) != gamma.rows:
            raise ValueError("one right-hand side per quadric required")
        if gamma.cols < 1:
            raise ValueError("ambient dimension must be positive")
        if gamma.rows:
            diag = snf_diagonal(gamma)
            if sum(1 for d in diag if d) != gamma.rows:
                raise ValueError("quadric coefficient rows are linearly dependent")
        self._gamma_float = np.array(gamma.entries, dtype=float).reshape(gamma.rows, gamma.cols)
        self._c_float = np.array([float(x) for x in self.c])
        self._feasible_bases = None  # computed on first use by feasible_bases

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], c: Iterable):
        """Build from possibly-rational rows, scaling each row to primitive integers."""
        int_rows, c_out = [], []
        for row, ci in zip(rows, (Fraction(x) for x in c)):
            fr = [Fraction(x) for x in row]
            mult = 1
            for x in fr:
                mult = mult * x.denominator // gcd(mult, x.denominator)
            ints = [int(x * mult) for x in fr]
            g = 0
            for x in ints:
                g = gcd(g, abs(x))
            if g == 0:
                raise ValueError("zero quadric row")
            int_rows.append([x // g for x in ints])
            c_out.append(ci * mult / g)
        cols = len(int_rows[0]) if int_rows else None
        if cols is None:
            raise ValueError("from_rows needs at least one row; use the constructor for empty systems")
        return cls(IntegerMatrix(int_rows, cols=cols), c_out)

    @cached_property
    def positive_solution(self) -> tuple[Fraction, ...] | None:
        """A strictly positive x with gamma x = c from one exact LP, or None.

        Cached: a configuration does not change after construction.
        """
        return lp.positive_combination(self.gamma.columns(), self.c)

    @property
    def ambient_dim(self) -> int:
        return self.gamma.cols

    @property
    def num_quadrics(self) -> int:
        return self.gamma.rows

    def gamma_float(self) -> np.ndarray:
        return self._gamma_float

    def c_float(self) -> np.ndarray:
        return self._c_float

    def __repr__(self):
        return (
            f"QuadricConfiguration(gamma={list(map(list, self.gamma.entries))}, "
            f"c={tuple(map(str, self.c))})"
        )

    def __eq__(self, other):
        return (
            isinstance(other, QuadricConfiguration)
            and self.gamma == other.gamma
            and self.c == other.c
        )


@dataclass(frozen=True)
class NondegeneracyReport:
    cond_a: bool
    cond_b: bool
    cond_c: bool
    witness_b: tuple[int, ...] | None = None
    lattice_rank: int | None = None

    @property
    def all_ok(self) -> bool:
        return self.cond_a and self.cond_b and self.cond_c


def gale_dual(P: PolytopePresentation) -> QuadricConfiguration:
    """Quadric configuration whose rows span the relations among the facet normals.

    The rows are the canonical nullspace basis of the transposed normal
    matrix, and the right-hand side is that basis applied to the offsets.
    Computed once per presentation and kept on it, so every caller gets the
    same configuration object, and with it that object's cached feasible
    bases.
    """
    if P._gale_dual is None:
        P._gale_dual = _solve_gale_dual(P)
    return P._gale_dual


def _solve_gale_dual(P: PolytopePresentation) -> QuadricConfiguration:
    At = P.normal_matrix().transpose()  # m x n
    gamma = rational_nullspace(At, side="left").to_integer()
    c = [
        sum((Fraction(gamma.entries[j][k]) * P.offsets[k] for k in range(P.num_facets)), Fraction(0))
        for j in range(gamma.rows)
    ]
    return QuadricConfiguration(gamma, c)


def membership_residuals(Q: QuadricConfiguration, z: np.ndarray) -> np.ndarray:
    """Per-point max quadric defect |sum gamma_jk |z_k|^2 - c_j| (batched)."""
    z = np.asarray(z)
    if z.shape[-1] != Q.ambient_dim:
        raise ValueError("point dimension mismatch")
    if Q.num_quadrics == 0:
        return np.zeros(z.shape[:-1])
    sq = np.abs(z) ** 2
    vals = sq @ Q.gamma_float().T - Q.c_float()
    return np.abs(vals).max(axis=-1)


def membership_residual(Q: QuadricConfiguration, z) -> float:
    return float(membership_residuals(Q, np.asarray(z)))


def moment_map(Q: QuadricConfiguration, z) -> np.ndarray:
    """The quadric coefficient matrix applied to (|z_1|^2, ..., |z_m|^2)."""
    z = np.asarray(z, dtype=complex)
    if z.shape[-1] != Q.ambient_dim:
        raise ValueError("point dimension mismatch")
    return (np.abs(z) ** 2) @ Q.gamma_float().T


def boundedness_check(Q: QuadricConfiguration) -> bool:
    """True iff some functional is strictly positive on every coefficient column.

    Such an h turns the quadric system into the bound
    sum <h, gamma_k> |z_k|^2 = <h, c>, so the zero set is compact; an exact
    LP decides existence.
    """
    if Q.num_quadrics == 0:
        return False  # no constraints: the zero set is the whole space
    return lp.strictly_positive_functional(Q.gamma.columns()) is not None


def feasible_bases(Q: QuadricConfiguration) -> tuple[tuple[tuple[int, ...], tuple[Fraction, ...]], ...]:
    """The basic feasible solutions of ``{x >= 0 : gamma x = c}``, as pairs (S, lam).

    S runs over the ``num_quadrics``-subsets of columns in lexicographic
    order and is kept when gamma_S is invertible and lam = gamma_S^-1 c is
    nonnegative. By Gale duality these are the vertices of the polytope the
    configuration comes from. Computed once per configuration and kept on
    it, as a tuple.
    """
    if Q._feasible_bases is None:
        Q._feasible_bases = _solve_feasible_bases(Q)
    return Q._feasible_bases


def _solve_feasible_bases(Q: QuadricConfiguration):
    k = Q.num_quadrics
    out = []
    for S in combinations(range(Q.ambient_dim), k):
        lam = solve_square([[row[i] for i in S] for row in Q.gamma.entries], Q.c)
        if lam is not None and all(x >= 0 for x in lam):
            out.append((S, lam))
    return tuple(out)


def degenerate_support(bases) -> tuple[int, ...] | None:
    """Smallest support {i in S : lam_i > 0}, by (len, tuple), of a basis with a zero lam_i.

    That is the smallest subset of fewer than k columns whose cone holds c.
    """
    supports = [tuple(i for i, x in zip(S, lam) if x) for S, lam in bases if 0 in lam]
    return min(supports, key=lambda s: (len(s), s), default=None)


def nondegeneracy_check(Q: QuadricConfiguration) -> NondegeneracyReport:
    """The three regularity conditions for an intersection of quadrics.

    (a) the right-hand side lies in the nonnegative span of the columns,
    (b) it does not lie in the span of fewer than ``num_quadrics`` columns,
    (c) the columns generate a full-rank lattice.
    All three are decided exactly. The rows have full rank, so by
    Caratheodory (a) holds iff some basis is feasible, and (b) fails iff
    some feasible basis has a zero coordinate (``degenerate_support``).
    """
    k = Q.num_quadrics
    bases = feasible_bases(Q)
    witness_b = degenerate_support(bases)
    lattice_rank = sum(1 for d in snf_diagonal(IntegerMatrix(Q.gamma.columns(), cols=k)) if d)
    return NondegeneracyReport(bool(bases), witness_b is None, lattice_rank == k, witness_b, lattice_rank)


@dataclass(frozen=True)
class CanonicalTwoQuadrics:
    p: int
    q: int
    transform: IntegerMatrix  # row transform W, |det W| minimal among candidates
    permutation: tuple[int, ...]  # column order putting second-row positives first
    config: QuadricConfiguration  # the transformed, permuted configuration

    @property
    def transform_det(self) -> int:
        w = self.transform.entries
        return w[0][0] * w[1][1] - w[0][1] * w[1][0]


# the largest |entry| of a row transform ``two_quadrics_canonical`` tries
ENTRY_BOUND = 8


def two_quadrics_canonical(Q: QuadricConfiguration) -> CanonicalTwoQuadrics:
    """Invertible integer row transform to the sign-normal form of two quadrics.

    Target shape: first row strictly positive with positive right-hand side,
    second row with p positive then q negative entries (after a column
    permutation) and right-hand side zero. Among all transforms with entries
    bounded by ``ENTRY_BOUND`` the one with minimal |det| (then smallest
    entries) wins, so a unimodular transform is used whenever one exists.
    """
    if Q.num_quadrics != 2:
        raise ValueError("canonical form applies to exactly two quadrics")
    g = Q.gamma.entries
    m = Q.ambient_dim
    c1, c2 = Q.c

    def second_rows():
        if (c1, c2) != (0, 0):
            # w2 . c = 0 pins w2 up to scale
            num = (c2.numerator * c1.denominator, -c1.numerator * c2.denominator)
            gg = gcd(abs(num[0]), abs(num[1]))
            base = (num[0] // gg, num[1] // gg)
            tmax = ENTRY_BOUND // max(1, max(abs(base[0]), abs(base[1])))
            for t in range(1, tmax + 1):
                yield (t * base[0], t * base[1])
                yield (-t * base[0], -t * base[1])
        else:
            for a in range(-ENTRY_BOUND, ENTRY_BOUND + 1):
                for b in range(-ENTRY_BOUND, ENTRY_BOUND + 1):
                    if (a, b) != (0, 0):
                        yield (a, b)

    best = None
    for w2 in second_rows():
        row2 = [w2[0] * g[0][j] + w2[1] * g[1][j] for j in range(m)]
        if any(x == 0 for x in row2):
            continue
        pos = sum(1 for x in row2 if x > 0)
        if pos == 0 or pos == m:
            continue
        for a in range(-ENTRY_BOUND, ENTRY_BOUND + 1):
            for b in range(-ENTRY_BOUND, ENTRY_BOUND + 1):
                d = a * w2[1] - b * w2[0]
                if d == 0:
                    continue
                if a * c1 + b * c2 <= 0:
                    continue
                row1 = [a * g[0][j] + b * g[1][j] for j in range(m)]
                if any(x <= 0 for x in row1):
                    continue
                key = (abs(d), max(abs(a), abs(b), abs(w2[0]), abs(w2[1])), (a, b, *w2))
                if best is None or key < best[0]:
                    best = (key, (a, b), w2, row1, row2)
    if best is None:
        raise CanonicalFormError(
            f"no sign-normal form reachable with row-transform entries bounded by {ENTRY_BOUND}"
        )
    _, w1, w2, row1, row2 = best
    perm = tuple(sorted(range(m), key=lambda j: (row2[j] < 0, j)))
    p = sum(1 for x in row2 if x > 0)
    gamma_new = IntegerMatrix([[row1[j] for j in perm], [row2[j] for j in perm]], cols=m)
    c_new = (w1[0] * c1 + w1[1] * c2, Fraction(0))
    return CanonicalTwoQuadrics(
        p=p,
        q=m - p,
        transform=IntegerMatrix([list(w1), list(w2)], cols=2),
        permutation=perm,
        config=QuadricConfiguration(gamma_new, c_new),
    )
