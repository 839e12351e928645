"""Convex polytopes presented by facet inequalities, with exact predicates.

A presentation is the system <a_i, x> + b_i >= 0 with integer facet normals
a_i and rational offsets b_i. Boundedness is one exact LP. Vertex
enumeration solves every n-subset of facet equalities exactly, C(m, n)
rational solves, which is adequate at desk scale (m <= 14). A presentation
does not change after construction, so its boundedness, its vertex set and
its Gale dual (``quadric_config.gale_dual``) are computed on first use and
kept on it; construction computes none of them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Iterable, Sequence

from . import lp
from .exact_linalg import IntegerMatrix, hermite_row_form, solve_with_det
from .verdict import Verdict


class EmptyPolytopeError(ValueError):
    pass


class UnboundedPolytopeError(ValueError):
    pass


class PolytopePresentation:
    """The inequality system P = {x : <a_i, x> + b_i >= 0, i = 1..m}.

    Normals are normalized to primitive integer vectors (offsets rescaled
    accordingly), the normals must span R^n, and the feasible region must be
    nonempty; all three are enforced at construction.
    """

    def __init__(self, normals: Iterable[Sequence], offsets: Iterable):
        raw_normals = [tuple(int(x) for x in a) for a in normals]
        raw_offsets = [Fraction(b) for b in offsets]
        if len(raw_normals) != len(raw_offsets):
            raise ValueError("need one offset per facet normal")
        if not raw_normals:
            raise ValueError("at least one facet required")
        dims = {len(a) for a in raw_normals}
        if len(dims) != 1:
            raise ValueError("normals of mixed dimension")
        n = dims.pop()
        norm_out, off_out = [], []
        for a, b in zip(raw_normals, raw_offsets):
            g = 0
            for x in a:
                g = gcd(g, abs(x))
            if g == 0:
                raise ValueError("zero facet normal")
            norm_out.append(tuple(x // g for x in a))
            off_out.append(b / g)
        self.normals: tuple[tuple[int, ...], ...] = tuple(norm_out)
        self.offsets: tuple[Fraction, ...] = tuple(off_out)
        self.dim = n
        if self.num_facets < n:
            raise ValueError("fewer facets than the ambient dimension")
        if hermite_row_form(IntegerMatrix(self.normals, cols=n)).rows != n:
            raise ValueError("facet normals do not span the ambient space")
        if lp.inequality_point(self.normals, [-b for b in self.offsets]) is None:
            raise EmptyPolytopeError("inequality system has no solution")
        # computed on first use: is_bounded, enumerate_vertices, gale_dual
        self._bounded: bool | None = None
        self._vertices: VertexSet | None = None
        self._gale_dual = None

    @property
    def num_facets(self) -> int:
        return len(self.normals)

    def normal_matrix(self) -> IntegerMatrix:
        """The n x m matrix whose columns are the facet normals."""
        return IntegerMatrix(self.normals, cols=self.dim).transpose()

    def __repr__(self):
        return f"PolytopePresentation(normals={self.normals}, offsets={tuple(map(str, self.offsets))})"

    def __eq__(self, other):
        return (
            isinstance(other, PolytopePresentation)
            and self.normals == other.normals
            and self.offsets == other.offsets
        )

    def is_bounded(self) -> bool:
        """No x != 0 has <a_i, x> >= 0 for all i, decided by one exact LP.

        The normals span R^n, so <a_i, x> = 0 for all i forces x = 0, and by
        Stiemke's lemma the recession cone is {0} iff some t > 0 has
        sum t_i a_i = 0.
        """
        if self._bounded is None:
            self._bounded = lp.positive_combination(self.normals, [0] * self.dim) is not None
        return self._bounded


class VertexSet:
    """All vertices of a bounded presentation, their active facet sets, and the determinant
    of the n normals, in facet order, whose equalities found each: its active ones where it is simple."""

    def __init__(self, vertices, incidence, determinants):
        self.vertices: tuple[tuple[Fraction, ...], ...] = tuple(tuple(v) for v in vertices)
        self.incidence: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in incidence)
        self.determinants: tuple[int, ...] = tuple(determinants)

    def __len__(self):
        return len(self.vertices)

    def __iter__(self):
        return iter(zip(self.vertices, self.incidence))


def embed_point(P: PolytopePresentation, x: Sequence) -> tuple[Fraction, ...]:
    """The affine facet-evaluation map x -> (<a_i, x> + b_i)_{i=1..m}, exact."""
    xf = [Fraction(t) for t in x]
    if len(xf) != P.dim:
        raise ValueError("point dimension mismatch")
    return tuple(
        sum((Fraction(a[j]) * xf[j] for j in range(P.dim)), Fraction(0)) + b
        for a, b in zip(P.normals, P.offsets)
    )


def enumerate_vertices(P: PolytopePresentation) -> VertexSet:
    """Solve every nonsingular n-subset of facet equalities and keep the feasible ones.

    Incidence records *all* facets active at a vertex, not just the defining
    subset, so simplicity can be read off directly. Computed once per
    presentation and kept on it.
    """
    if P._vertices is None:
        P._vertices = _solve_vertices(P)
    return P._vertices


def _solve_vertices(P: PolytopePresentation) -> VertexSet:
    if not P.is_bounded():
        raise UnboundedPolytopeError("vertex enumeration needs a bounded polytope")
    n, m = P.dim, P.num_facets
    seen: dict[tuple[Fraction, ...], tuple[frozenset[int], int]] = {}
    for subset in combinations(range(m), n):
        x, d = solve_with_det([P.normals[i] for i in subset], [-P.offsets[i] for i in subset])
        if x is None:
            continue
        values = embed_point(P, x)
        if any(v < 0 for v in values):
            continue
        seen[x] = frozenset(i for i, v in enumerate(values) if v == 0), d
    if not seen:
        raise EmptyPolytopeError("no vertices found")
    items = sorted(seen.items())
    return VertexSet([v for v, _ in items], [s for _, (s, _) in items], [d for _, (_, d) in items])


def is_simple(P: PolytopePresentation) -> Verdict:
    """Every vertex lies on exactly n facets; witness is a violating vertex."""
    vs = enumerate_vertices(P)
    for vertex, active in vs:
        if len(active) != P.dim:
            return Verdict(
                False,
                witness=(vertex, tuple(sorted(active))),
                detail=f"vertex lies on {len(active)} facets, expected {P.dim}",
            )
    return Verdict(True)


def is_delzant(P: PolytopePresentation) -> Verdict:
    """At every vertex the active primitive normals, which found it, must have determinant +-1."""
    vs = enumerate_vertices(P)
    nonsimple = [(vertex, tuple(sorted(active))) for vertex, active in vs if len(active) != P.dim]
    if nonsimple:
        raise ValueError(f"is_delzant requires a simple polytope; witness {nonsimple[0]}")
    for (vertex, active), det in zip(vs, vs.determinants):
        if abs(det) != 1:
            # a Fraction: reports print the witness tuple, whose repr shows the type
            d = Fraction(det)
            return Verdict(
                False,
                witness=(vertex, tuple(sorted(active)), d),
                detail=f"normal determinant {d} at vertex",
            )
    return Verdict(True)
