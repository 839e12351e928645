"""Property tests of the exact layer against independent computations.

The feasible bases are compared with square solves and determinants taken
subset by subset; the feasible-basis nondegeneracy and freeness checks are
compared with the subset-LP algorithm they replaced, kept here as the
reference, and freeness
with the Delzant condition on random simple lattice polytopes; the one-LP
boundedness test of a presentation is compared with the 2n-LP recession
search it replaced and with scipy; the integer-pivoting simplex and the
fraction-free square solves are compared with the ``Fraction`` eliminations
they replaced, kept here as references; the exact LP is compared with
scipy's HiGHS solver, and the determinant, the Hermite form and the integer
nullspace with sympy's; the rank and lattice index read from the Hermite
form are compared with sympy's Smith form. The reference freeness test
decides lattice equality by the Hermite form, which has its own oracle here.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from momentangle import lp
from momentangle.exact_linalg import (
    IntegerMatrix,
    det_int,
    hermite_row_form,
    inverse,
    nullspace,
    solve_square,
)
from momentangle.lp import feasible_point, positive_combination, solve_lp, strictly_positive_functional
from momentangle.polytope import (
    PolytopePresentation,
    UnboundedPolytopeError,
    enumerate_vertices,
    is_delzant,
    is_simple,
)
from momentangle.quadric_config import QuadricConfiguration, feasible_bases, gale_dual, nondegeneracy_check
from momentangle.torus_actions import freeness_check

entries = st.integers(-3, 3)
levels = st.builds(Fraction, entries, st.integers(1, 6))


@st.composite
def configurations(draw):
    """Quadric systems with k <= 3 independent rows, m <= 6 columns and rational c != 0."""
    k = draw(st.integers(1, 3))
    m = draw(st.integers(k, 6))
    rows = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=k, max_size=k))
    c = draw(st.lists(levels, min_size=k, max_size=k).filter(any))
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
            if hermite_row_form(IntegerMatrix([cols[i] for i in subset])) != hermite_row_form(full):
                return subset
    return None


def _reference_feasible_bases(Q):
    """Subset by subset: lam from the square solve and, where it is nonnegative, det_int of gamma_S."""
    out = []
    for S in combinations(range(Q.ambient_dim), Q.num_quadrics):
        gamma_S = [[row[i] for i in S] for row in Q.gamma.entries]
        lam = solve_square(gamma_S, Q.c)
        if lam is not None and all(x >= 0 for x in lam):
            out.append((S, lam, det_int(IntegerMatrix(gamma_S, cols=len(S)))))
    return tuple(out)


# the level (1/2, 0) lies on a face of the cone of the columns: the bases
# (0, 1) and (0, 2) are kept with lam = (1/2, 0)
@example(QuadricConfiguration(IntegerMatrix([[1, 0, 1], [0, 1, 1]], cols=3), [Fraction(1, 2), 0]))
@settings(max_examples=60)
@given(configurations())
def test_feasible_bases_match_square_solves(Q):
    assert feasible_bases(Q) == _reference_feasible_bases(Q)


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
def test_hermite_rank_and_index_match_sympy_smith_form(rows):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    D = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
    invariants = [abs(int(D[i, i])) for i in range(min(D.shape)) if D[i, i]]
    H = hermite_row_form(IntegerMatrix(rows))
    assert H.rows == len(invariants)
    # a full-rank lattice has index |det H| in Z^cols, the product of the invariants
    if H.rows == H.cols:
        assert abs(det_int(H)) == prod(invariants)


@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)
))
def test_det_int_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    # the sign too: a Delzant witness reports the signed determinant
    assert det_int(IntegerMatrix(rows)) == sympy.Matrix(rows).det()


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
    # "left" is the nullspace of the transpose
    N = nullspace(IntegerMatrix(rows) if side == "right" else IntegerMatrix(rows).transpose())
    expected = M.nullspace() if side == "right" else M.T.nullspace()
    assert N.rows == len(expected)
    if expected:
        ours = sympy.Matrix(N.entries)
        theirs = sympy.Matrix.hstack(*expected).T
        # equal spans: stacking one basis on the other adds no rank
        assert sympy.Matrix.vstack(ours, theirs).rank() == ours.rank() == theirs.rank()


def _primitive(v) -> list[int]:
    """The primitive integer vector on the ray of v, a nonzero vector of ints or Fractions."""
    scale = lcm(*(x.denominator for x in v))
    ints = [int(x * scale) for x in v]
    g = gcd(*ints)
    return [x // g for x in ints]


@given(int_matrices, st.data())
def test_nullspace_is_saturated(rows, data):
    sympy = pytest.importorskip("sympy")
    # every primitive integer vector of the rational kernel is already in
    # the lattice of the rows: appending it leaves the Hermite form unchanged
    N = nullspace(IntegerMatrix(rows))
    kernel = [_primitive([Fraction(int(x.p), int(x.q)) for x in v]) for v in sympy.Matrix(rows).nullspace()]
    if kernel:
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(kernel), max_size=len(kernel)).filter(any))
        # the basis is independent, so the combination is not 0
        kernel.append(_primitive([sum(a * v[j] for a, v in zip(coeffs, kernel)) for j in range(N.cols)]))
    for v in kernel:
        assert hermite_row_form(IntegerMatrix(list(N.entries) + [v], cols=N.cols)) == N


# ---------------------------------------------------------------------------
# the Fraction eliminations that the integer ones replaced


def _reference_pivot(T, basis, row, col):
    piv = T[row][col]
    T[row] = [x / piv for x in T[row]]
    for i in range(len(T)):
        if i != row and T[i][col] != 0:
            f = T[i][col]
            T[i] = [x - f * y for x, y in zip(T[i], T[row])]
    basis[row] = col


def _reference_run_simplex(T, basis, cost):
    ncols = len(cost) - 1
    while True:
        col = next((j for j in range(ncols) if cost[j] < 0), None)
        if col is None:
            return "optimal"
        candidates = [(T[i][-1] / T[i][col], basis[i], i) for i in range(len(T)) if T[i][col] > 0]
        if not candidates:
            return "unbounded"
        _, _, row = min(candidates)
        scaled = [x / T[row][col] for x in T[row]]
        f = cost[col]
        for j in range(len(cost)):
            cost[j] -= f * scaled[j]
        _reference_pivot(T, basis, row, col)


def _reference_solve_lp(A, b, c, maximize=False):
    """The two-phase Bland simplex on a dense tableau of Fractions."""
    m, n = len(A), len(c)
    rows, rhs = [], []
    for i in range(m):
        r, bb = [Fraction(x) for x in A[i]], Fraction(b[i])
        if bb < 0:
            r, bb = [-x for x in r], -bb
        rows.append(r)
        rhs.append(bb)
    T = [rows[i] + [Fraction(int(j == i)) for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    cost1 = [Fraction(0)] * (n + m + 1)
    for j in range(n):
        cost1[j] = -sum(T[i][j] for i in range(m))
    cost1[-1] = -sum(T[i][-1] for i in range(m))
    assert _reference_run_simplex(T, basis, cost1) == "optimal"
    if cost1[-1] != 0:
        return "infeasible", None, None
    keep = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if T[i][j] != 0), None)
            if col is None:
                continue
            _reference_pivot(T, basis, i, col)
        keep.append(i)
    T = [T[i][:n] + [T[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    cost2 = [-Fraction(x) if maximize else Fraction(x) for x in c] + [Fraction(0)]
    for i, bi in enumerate(basis):
        f = cost2[bi]
        if f != 0:
            cost2 = [x - f * y for x, y in zip(cost2, T[i])]
    if _reference_run_simplex(T, basis, cost2) == "unbounded":
        return "unbounded", None, None
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = T[i][-1]
    return "optimal", tuple(x), sum((Fraction(ci) * xi for ci, xi in zip(c, x)), Fraction(0))


def _reference_rref_rows(a, ncols):
    """Gauss-Jordan over Fractions in place; the pivot columns."""
    pivots, r = [], 0
    for c in range(ncols):
        if r == len(a):
            break
        pivot_row = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return pivots


def _reference_solve_square(A, b):
    n = len(A)
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(A)]
    pivots = _reference_rref_rows(aug, n + 1)
    if len(pivots) != n or n in pivots:
        return None
    return tuple(row[n] for row in aug)


def _reference_inverse(rows):
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    if _reference_rref_rows(aug, 2 * n) != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in aug)


rationals = st.one_of(entries, st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)))
multipliers = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def linear_programs(draw):
    """Rational programs with up to 4 rows, some negative right-hand sides, and
    some redundant rows: a rational multiple of an earlier row and its b."""
    n = draw(st.integers(0, 6))
    m = draw(st.integers(0, 4))
    A = [draw(st.lists(rationals, min_size=n, max_size=n)) for _ in range(m)]
    b = draw(st.lists(rationals, min_size=m, max_size=m))
    if m and draw(st.booleans()):
        i = draw(st.integers(0, m - 1))
        t = draw(multipliers)
        A.append([t * x for x in A[i]])
        b.append(t * b[i])
    c = draw(st.lists(rationals, min_size=n, max_size=n))
    return A, b, c


# an infeasible program, an unbounded one, a redundant row, and a drive-out
# step that pivots on a negative entry
@example(([[1, 1]], [-1], [0, 0]))
@example(([[1, -1]], [0], [-1, 0]))
@example(([[1, 2, 0], [2, 4, 0], [0, 1, 1]], [2, 4, Fraction(1, 3)], [1, -1, Fraction(1, 2)]))
@example(([[0, -2, 0, -1], [-1, 0, -2, 0]], [0, -1], [1, 1, -1, 0]))
@settings(max_examples=60)
@given(linear_programs())
def test_solve_lp_matches_fraction_simplex(program):
    A, b, c = program
    for maximize in (False, True):
        res = solve_lp(A, b, c, maximize)
        assert (res.status, res.x, res.objective) == _reference_solve_lp(A, b, c, maximize)


@settings(max_examples=60)
@given(linear_programs())
def test_solve_lp_reads_ints_and_fractions_alike(program):
    # an int entry is its own numerator over 1, so the program as drawn (ints
    # and Fractions) and the same program with every entry a Fraction scale
    # alike and take the same pivots to the same result
    A, b, c = program
    as_fractions = [[Fraction(x) for x in row] for row in A], [Fraction(x) for x in b], [Fraction(x) for x in c]
    pivot = lp._pivot
    for maximize in (False, True):
        runs = []
        for program in ((A, b, c), as_fractions):
            pivots = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lp, "_pivot", lambda T, basis, row, col, D: pivots.append((row, col, D)) or pivot(T, basis, row, col, D))
                runs.append((solve_lp(*program, maximize), pivots))
        assert runs[0] == runs[1]


def test_negative_pivot_in_drive_out(monkeypatch):
    # phase 1 ends with the first row's artificial basic at level 0, and
    # that row's nonzero entries in the original columns are negative, so
    # driving it out pivots on a negative entry
    A, b = [[0, -2, 0, -1], [-1, 0, -2, 0]], [0, -1]
    pivots = []
    pivot = lp._pivot
    monkeypatch.setattr(lp, "_pivot", lambda T, basis, row, col, D: pivots.append(T[row][col]) or pivot(T, basis, row, col, D))
    res = solve_lp(A, b, [0, 0, 0, 0])
    assert any(p < 0 for p in pivots)
    assert (res.status, res.x, res.objective) == ("optimal", (1, 0, 0, 0), 0)
    for c in ([1, 1, 1, 1], [0, 1, Fraction(-1, 2), 0]):
        for maximize in (False, True):
            res = solve_lp(A, b, c, maximize)
            assert (res.status, res.x, res.objective) == _reference_solve_lp(A, b, c, maximize)


@st.composite
def square_systems(draw):
    """Square rows of integers and Fractions, singular when a row repeats a
    multiple of another, and a rational right-hand side."""
    n = draw(st.integers(0, 5))
    A = [draw(st.lists(rationals, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        t = draw(multipliers)
        A[-1] = [t * x for x in A[0]]
    return A, draw(st.lists(rationals, min_size=n, max_size=n))


@example(([[1, 2], [2, 4]], [1, 2]))
@example(([[Fraction(1, 2), Fraction(1, 3)], [Fraction(-2, 5), 0]], [Fraction(1, 7), -1]))
@settings(max_examples=60)
@given(square_systems())
def test_solve_square_matches_fraction_elimination(system):
    A, b = system
    assert solve_square(A, b) == _reference_solve_square(A, b)


@example([[1, 2], [2, 4]])
@example([[0, 1], [1, 0]])
@settings(max_examples=60)
@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)
))
def test_inverse_matches_fraction_elimination(rows):
    n = len(rows)
    try:
        ours = inverse(IntegerMatrix(rows, cols=n))
    except ValueError as e:
        assert str(e) == "singular matrix"
        ours = None
    assert ours == _reference_inverse(rows)
