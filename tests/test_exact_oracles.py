"""Property tests of the exact layer against independent computations.

The feasible-basis nondegeneracy and freeness checks are compared with the
subset-LP algorithm they replaced, kept here as the reference, and freeness
with the Delzant condition on random simple lattice polytopes; the one-LP
boundedness test of a presentation is compared with the 2n-LP recession
search it replaced and with scipy; the exact LP is compared with scipy's
HiGHS solver, and the Smith normal form, the Hermite form and the rational
nullspace with sympy's.
"""

from fractions import Fraction
from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from momentangle.exact_linalg import (
    IntegerMatrix,
    RationalMatrix,
    hermite_row_form,
    rational_nullspace,
    snf_diagonal,
    sublattice_equals_lattice,
)
from momentangle.lp import feasible_point, positive_combination, strictly_positive_functional
from momentangle.polytope import (
    PolytopePresentation,
    UnboundedPolytopeError,
    enumerate_vertices,
    is_delzant,
    is_simple,
)
from momentangle.quadric_config import QuadricConfiguration, gale_dual, nondegeneracy_check
from momentangle.torus_actions import freeness_check

entries = st.integers(-3, 3)


@st.composite
def configurations(draw):
    """Quadric systems with k <= 3 independent rows, m <= 6 columns and c != 0."""
    k = draw(st.integers(1, 3))
    m = draw(st.integers(k, 6))
    rows = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=k, max_size=k))
    c = draw(st.lists(entries, min_size=k, max_size=k).filter(any))
    try:
        return QuadricConfiguration(IntegerMatrix(rows, cols=m), c)
    except ValueError:  # dependent rows
        assume(False)


def _cone_holds(vectors, c) -> bool:
    if not vectors:
        return all(x == 0 for x in c)
    return feasible_point([[v[j] for v in vectors] for j in range(len(c))], c) is not None


def _reference_nondegeneracy(Q):
    """Condition (a) by one LP; (b) and its witness by an LP per subset of < k columns."""
    cols = Q.gamma.columns()
    cond_a = _cone_holds(cols, Q.c)
    for size in range(Q.num_quadrics):
        for subset in combinations(range(Q.ambient_dim), size):
            if _cone_holds([cols[i] for i in subset], Q.c):
                return cond_a, False, subset
    return cond_a, True, None


def _reference_freeness(Q):
    """The first support, by (size, lex), realizable with positive weights whose
    columns generate a proper sublattice; ``None`` if there is none."""
    cols = Q.gamma.columns()
    full = IntegerMatrix(cols, cols=Q.num_quadrics)
    for size in range(1, Q.ambient_dim + 1):
        for subset in combinations(range(Q.ambient_dim), size):
            if positive_combination([cols[i] for i in subset], Q.c) is None:
                continue
            if not sublattice_equals_lattice(IntegerMatrix([cols[i] for i in subset]), full):
                return subset
    return None


@settings(max_examples=60)
@given(configurations())
def test_feasible_bases_match_subset_lps(Q):
    nd = nondegeneracy_check(Q)
    assert (nd.cond_a, nd.cond_b, nd.witness_b) == _reference_nondegeneracy(Q)
    free = freeness_check(Q)
    bad = _reference_freeness(Q)
    assert bool(free) == (bad is None)
    assert free.witness == bad


vector_lists = st.integers(1, 3).flatmap(
    lambda dim: st.lists(st.lists(entries, min_size=dim, max_size=dim), min_size=1, max_size=5)
)


@given(vector_lists, st.data())
def test_positive_combination_matches_linprog(vectors, data):
    linprog = pytest.importorskip("scipy.optimize").linprog
    dim, nv = len(vectors[0]), len(vectors)
    target = data.draw(st.lists(entries, min_size=dim, max_size=dim))
    t = positive_combination(vectors, target)
    # maximize delta subject to V t = target, t_k >= delta, delta <= 1
    res = linprog(
        [0] * nv + [-1],
        A_ub=[[-int(j == i) for j in range(nv)] + [1] for i in range(nv)],
        b_ub=[0] * nv,
        A_eq=[[v[i] for v in vectors] + [0] for i in range(dim)],
        b_eq=target,
        bounds=[(None, None)] * nv + [(None, 1)],
        method="highs",
    )
    assert (t is not None) == (res.status == 0 and -res.fun > 1e-9)
    if t is not None:
        assert all(x > 0 for x in t)
        assert [sum(tk * v[i] for tk, v in zip(t, vectors)) for i in range(dim)] == target


@given(vector_lists)
def test_strictly_positive_functional_matches_linprog(vectors):
    linprog = pytest.importorskip("scipy.optimize").linprog
    dim = len(vectors[0])
    h = strictly_positive_functional(vectors)
    # <h, v_k> >= 1 for every k, h free
    res = linprog(
        [0] * dim,
        A_ub=[[-x for x in v] for v in vectors],
        b_ub=[-1] * len(vectors),
        bounds=[(None, None)] * dim,
        method="highs",
    )
    assert (h is not None) == (res.status == 0)
    if h is not None:
        assert all(sum(a * b for a, b in zip(h, v)) > 0 for v in vectors)


@given(st.integers(1, 4).flatmap(
    lambda cols: st.lists(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols), min_size=1, max_size=4)
))
def test_snf_diagonal_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    D = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
    expected = [abs(int(D[i, i])) for i in range(min(D.shape))]
    assert [abs(d) for d in snf_diagonal(IntegerMatrix(rows))] == expected


def _reference_recession_direction(P):
    """Some x != 0 with <a_i, x> >= 0 for all i, or ``None``: one LP per
    coordinate j and sign, pinning x_j = +-1 on the recession cone."""
    n, m = P.dim, P.num_facets
    # variables x+, x- and the slacks of <a_i, x+ - x-> >= 0
    cone = [
        [Fraction(x) for x in a] + [-Fraction(x) for x in a] + [Fraction(-int(t == i)) for t in range(m)]
        for i, a in enumerate(P.normals)
    ]
    for j in range(n):
        for sigma in (1, -1):
            pin = [Fraction(0)] * (2 * n + m)
            pin[j], pin[n + j] = Fraction(sigma), Fraction(-sigma)
            pt = feasible_point(cone + [pin], [Fraction(0)] * m + [Fraction(1)])
            if pt is not None:
                return tuple(pt[i] - pt[n + i] for i in range(n))
    return None


@st.composite
def presentations(draw):
    """Presentations in dimension <= 3 with up to n + 4 facets, bounded or not.

    The offsets are nonnegative, so the origin lies in P and no draw is lost
    to an empty system (most of which would be bounded).
    """
    n = draw(st.integers(1, 3))
    m = draw(st.integers(n, n + 4))
    normals = draw(st.lists(st.lists(entries, min_size=n, max_size=n).filter(any), min_size=m, max_size=m))
    offsets = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    try:
        return PolytopePresentation(normals, offsets)
    except ValueError:  # normals that do not span
        assume(False)


# a half-plane's normals do not span R^2, so it is refused at construction;
# the unbounded examples are the quadrant, a half-plane cut by one more
# facet, a half-line, a half-strip and a pointed simplicial cone in R^3, the
# bounded ones a triangle and a tetrahedron
@example(PolytopePresentation([(1, 0), (0, 1)], [0, 0]))
@example(PolytopePresentation([(0, 1), (1, 1)], [0, 5]))
@example(PolytopePresentation([(1,)], [0]))
@example(PolytopePresentation([(0, 1), (0, -1), (1, 0)], [0, 1, 0]))
@example(PolytopePresentation([(1, 2, 0), (0, 1, -1), (-1, 0, 1)], [0, 0, 0]))
@example(PolytopePresentation([(1, 0), (0, 1), (-1, -1)], [0, 0, 1]))
@example(PolytopePresentation([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], [0, 0, 0, 1]))
@given(presentations())
def test_is_bounded_matches_recession_search_and_linprog(P):
    linprog = pytest.importorskip("scipy.optimize").linprog
    bounded = P.is_bounded()
    assert bounded == (_reference_recession_direction(P) is None)
    # P is bounded iff every coordinate is bounded above and below on it
    statuses = {
        linprog(
            [sigma * int(i == j) for i in range(P.dim)],
            A_ub=[[-x for x in a] for a in P.normals],
            b_ub=[float(b) for b in P.offsets],
            bounds=[(None, None)] * P.dim,
            method="highs",
        ).status
        for j in range(P.dim)
        for sigma in (1, -1)
    }
    assert statuses <= {0, 3}  # optimal or unbounded: P is not empty
    assert bounded == (statuses == {0})
    if not bounded:
        with pytest.raises(UnboundedPolytopeError):
            enumerate_vertices(P)


@st.composite
def cut_boxes(draw):
    """A lattice box in dimension 2 or 3 cut by one or two half-spaces with integer normals."""
    n = draw(st.integers(2, 3))
    sides = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    normals, offsets = [], []
    for i, side in enumerate(sides):
        normals += [tuple(int(j == i) for j in range(n)), tuple(-int(j == i) for j in range(n))]
        offsets += [0, side]
    for _ in range(draw(st.integers(1, 2))):
        a = tuple(draw(st.lists(entries, min_size=n, max_size=n).filter(any)))
        # the cut <a, x> + b >= 0 passes between the box corners and, with
        # b in Z + 1/2, through no lattice point
        lo = -sum(max(x, 0) * s for x, s in zip(a, sides))
        hi = -1 - sum(min(x, 0) * s for x, s in zip(a, sides))
        normals.append(a)
        offsets.append(Fraction(2 * draw(st.integers(lo, hi)) + 1, 2))
    try:
        P = PolytopePresentation(normals, offsets)
    except ValueError:  # the two cuts leave nothing
        assume(False)
    # drop the facets that no vertex lies on: the cuts made them redundant
    keep = sorted(set().union(*enumerate_vertices(P).incidence))
    return PolytopePresentation([normals[i] for i in keep], [offsets[i] for i in keep])


@given(cut_boxes())
def test_delzant_iff_free_on_random_simple_polytopes(P):
    assume(is_simple(P))
    assert bool(is_delzant(P)) == bool(freeness_check(gale_dual(P)))


int_matrices = st.integers(1, 4).flatmap(
    lambda cols: st.lists(st.lists(st.integers(-6, 6), min_size=cols, max_size=cols), min_size=1, max_size=4)
)


@given(int_matrices)
def test_hermite_row_form_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    H = hermite_row_form(IntegerMatrix(rows)).entries
    # the defining shape: nonzero rows, pivots moving right, positive, with
    # the entries above each pivot reduced into [0, pivot)
    assert len(H) == sympy.Matrix(rows).rank()
    pivots = [next(j for j, x in enumerate(r) if x) for r in H]
    assert pivots == sorted(set(pivots))
    for i, (r, c) in enumerate(zip(H, pivots)):
        assert r[c] > 0 and all(0 <= H[k][c] < r[c] for k in range(i))
    # the same lattice: sympy's column-style form is canonical, so compare
    # the forms of the two generating sets, taken as columns
    if H:
        assert hermite_normal_form(sympy.Matrix(H).T) == hermite_normal_form(sympy.Matrix(rows).T)


@given(int_matrices, st.sampled_from(["right", "left"]))
def test_rational_nullspace_matches_sympy(rows, side):
    sympy = pytest.importorskip("sympy")
    M = sympy.Matrix(rows)
    N = rational_nullspace(RationalMatrix(rows), side=side)
    expected = M.nullspace() if side == "right" else M.T.nullspace()
    assert N.rows == len(expected)
    if expected:
        ours = sympy.Matrix(N.entries)
        theirs = sympy.Matrix.hstack(*expected).T
        # equal spans: stacking one basis on the other adds no rank
        assert sympy.Matrix.vstack(ours, theirs).rank() == ours.rank() == theirs.rank()
