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
from math import gcd, lcm, log10
from typing import Iterable, Sequence

import numpy as np

from . import lp
from .exact_linalg import IntegerMatrix, _bareiss, det_int, hermite_row_form, inverse, nullspace
from .polytope import PolytopePresentation


class CanonicalFormError(ValueError):
    pass


# the mark of a value kept on an object and not computed yet, where None is a value it may take
NOT_COMPUTED = object()


def float_array(values: Iterable, name: str) -> np.ndarray:
    """The floats of exact ``values``; a ``ValueError`` names ``name[i]`` where one is out of float range."""
    out = []
    for i, x in enumerate(values):
        try:
            out.append(float(x))
        except OverflowError:
            size = log10(abs(Fraction(x).numerator)) - log10(Fraction(x).denominator)
            raise ValueError(f"{name}[{i}] is out of float range: about 1e{size:.0f}") from None
    return np.array(out, dtype=float)


class QuadricConfiguration:
    """Integer quadric coefficients (rows) with rational right-hand sides."""

    def __init__(self, gamma: IntegerMatrix, c: Iterable):
        self.gamma = gamma
        self.c = tuple(Fraction(x) for x in c)
        if len(self.c) != gamma.rows:
            raise ValueError("one right-hand side per quadric required")
        if gamma.cols < 1:
            raise ValueError("ambient dimension must be positive")
        if hermite_row_form(gamma).rows != gamma.rows:
            raise ValueError("quadric coefficient rows are linearly dependent")
        self._feasible_bases = None  # computed on first use by feasible_bases
        self._global_chart = NOT_COMPUTED  # computed on first use by charts.global_chart

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], c: Iterable):
        """Build from possibly-rational rows, scaling each row to primitive integers."""
        int_rows, c_out = [], []
        for row, ci in zip(rows, (Fraction(x) for x in c)):
            fr = [Fraction(x) for x in row]
            mult = lcm(*(x.denominator for x in fr))
            ints = [int(x * mult) for x in fr]
            g = gcd(*ints)
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

    @cached_property
    def column_lattice(self) -> IntegerMatrix:
        """Hermite basis (rows) of the lattice the coefficient columns generate.

        Cached: the torus subgroup, nondegeneracy (c) and freeness all read it.
        """
        return hermite_row_form(IntegerMatrix(self.gamma.columns(), cols=self.num_quadrics))

    @cached_property
    def lattice_index(self) -> int:
        """The index of the column lattice in Z^k, |det| of its Hermite basis; the period
        lattice's covolume is its inverse. Cached: freeness and the orbit volumes read it."""
        return abs(det_int(self.column_lattice))

    @cached_property
    def dual_basis(self) -> tuple[tuple[Fraction, ...], ...]:
        """Rows: a basis of the dual (period) lattice, the inverse transpose of the column
        lattice's Hermite basis. Cached: the torus subgroup and the global chart's phases read it.
        The rows of Gamma are independent, so the column lattice has full rank k."""
        return inverse(self.column_lattice.transpose())

    @property
    def ambient_dim(self) -> int:
        return self.gamma.cols

    @property
    def num_quadrics(self) -> int:
        return self.gamma.rows

    @cached_property
    def _floats(self) -> tuple[np.ndarray, np.ndarray]:
        """Gamma and c as floats, converted on first read and kept: the exact checks never read them."""
        rows = [float_array(row, f"gamma[{j}]") for j, row in enumerate(self.gamma.entries)]
        return np.array(rows, dtype=float).reshape(self.gamma.rows, self.gamma.cols), float_array(self.c, "c")

    def gamma_float(self) -> np.ndarray:
        return self._floats[0]

    def c_float(self) -> np.ndarray:
        return self._floats[1]

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

    The rows are the canonical integer nullspace basis of the normal
    matrix, and the right-hand side is that basis applied to the offsets.
    Computed once per presentation and kept on it, so every caller gets the
    same configuration object, and with it that object's cached feasible
    bases.
    """
    if P._gale_dual is None:
        P._gale_dual = _solve_gale_dual(P)
    return P._gale_dual


def _solve_gale_dual(P: PolytopePresentation) -> QuadricConfiguration:
    gamma = nullspace(P.normal_matrix())
    c = [sum(g * b for g, b in zip(row, P.offsets)) for row in gamma.entries]
    return QuadricConfiguration(gamma, c)


def membership_residuals(Q: QuadricConfiguration, z: np.ndarray) -> np.ndarray:
    """Per-point max relative quadric defect |sum_k gamma_jk |z_k|^2 - c_j| / (sum_k |gamma_jk| |z_k|^2 + |c_j|)
    (batched): the defect over the size of its terms, and of their rounding, at any scale of c (0 at 0 / 0)."""
    z = np.asarray(z)
    if z.shape[-1] != Q.ambient_dim:
        raise ValueError("point dimension mismatch")
    if Q.num_quadrics == 0:
        return np.zeros(z.shape[:-1])
    sq, G, c = np.abs(z) ** 2, Q.gamma_float(), Q.c_float()
    size = sq @ np.abs(G).T + np.abs(c)
    return (np.abs(sq @ G.T - c) / np.where(size > 0.0, size, 1.0)).max(axis=-1)


def boundedness_check(Q: QuadricConfiguration) -> bool:
    """True iff some functional is strictly positive on every coefficient column.

    Such an h turns the quadric system into the bound
    sum <h, gamma_k> |z_k|^2 = <h, c>, so the zero set is compact; an exact
    LP decides existence.
    """
    if Q.num_quadrics == 0:
        return False  # no constraints: the zero set is the whole space
    return lp.strictly_positive_functional(Q.gamma.columns()) is not None


def feasible_bases(Q: QuadricConfiguration) -> tuple[tuple[tuple[int, ...], tuple[Fraction, ...], int], ...]:
    """The basic feasible solutions of ``{x >= 0 : gamma x = c}``, as triples (S, lam, det gamma_S).

    S runs over the ``num_quadrics``-subsets of columns in lexicographic
    order and is kept when gamma_S is invertible and lam = gamma_S^-1 c is
    nonnegative; the solve that finds lam ends on det gamma_S. By Gale
    duality these are the vertices of the polytope the configuration comes
    from. Computed once per configuration and kept on it, as a tuple.
    """
    if Q._feasible_bases is None:
        Q._feasible_bases = _solve_feasible_bases(Q)
    return Q._feasible_bases


def _solve_feasible_bases(Q: QuadricConfiguration):
    """Each subset's Bareiss elimination runs on the integer rows [gamma_S | C],
    C = L c the levels scaled by the lcm L of their denominators, and ends on
    d = det gamma_S with y = d gamma_S^-1 C in the last column; lam = y / (d L)
    is nonnegative iff every y_i d is, so a ``Fraction`` is built only for the
    bases kept."""
    k = Q.num_quadrics
    L = lcm(*(x.denominator for x in Q.c))
    C = [x.numerator * (L // x.denominator) for x in Q.c]
    gamma = Q.gamma.entries
    out = []
    for S in combinations(range(Q.ambient_dim), k):
        aug = [[row[i] for i in S] + [ci] for row, ci in zip(gamma, C)]
        det = _bareiss(aug, k)
        if det and all(r[k] * det >= 0 for r in aug):
            dL = det * L
            out.append((S, tuple(Fraction(r[k], dL) for r in aug), det))
    return tuple(out)


def degenerate_support(bases) -> tuple[int, ...] | None:
    """Smallest support {i in S : lam_i > 0}, by (len, tuple), of a basis with a zero lam_i.

    That is the smallest subset of fewer than k columns whose cone holds c.
    """
    supports = [tuple(i for i, x in zip(S, lam) if x) for S, lam, _ in bases if 0 in lam]
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
    lattice_rank = Q.column_lattice.rows
    return NondegeneracyReport(bool(bases), witness_b is None, lattice_rank == k, witness_b, lattice_rank)


def two_quadrics_signature(Q: QuadricConfiguration) -> tuple[int, int]:
    """(p, q) of the two-quadric submanifold N_l(p, q): p columns of Gamma lie
    counterclockwise of the level c, det[c, gamma_j] > 0, and q clockwise.

    Each determinant is exact. An invertible row transform A multiplies
    every det[c, gamma_j] by det A, so (p, q) is kept by det A > 0 and
    swapped by det A < 0; on the sign-normal form (first row and c_1
    positive, c_2 = 0) p counts the positive entries of the second row.
    That form is reachable, and ``CanonicalFormError`` is raised otherwise,
    iff no column is parallel to c, both sides hold a column, and some
    functional is strictly positive on every column and on c.
    """
    if Q.num_quadrics != 2:
        raise ValueError("the signature applies to exactly two quadrics")
    c1, c2 = Q.c
    dets = [c1 * g2 - c2 * g1 for g1, g2 in Q.gamma.columns()]
    if 0 in dets:
        raise CanonicalFormError(f"column {dets.index(0)} of Gamma is parallel to c")
    p = sum(d > 0 for d in dets)
    q = len(dets) - p
    if p == 0 or q == 0:
        raise CanonicalFormError("every column of Gamma lies on one side of c")
    if lp.strictly_positive_functional([*Q.gamma.columns(), Q.c]) is None:
        raise CanonicalFormError("no functional is positive on every column of Gamma and on c")
    return p, q
