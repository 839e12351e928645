from fractions import Fraction

import numpy as np
import pytest

from momentangle import quadric_config
from momentangle.exact_linalg import IntegerMatrix
from momentangle.polytope import enumerate_vertices
from momentangle.quadric_config import (
    CanonicalFormError,
    QuadricConfiguration,
    boundedness_check,
    feasible_bases,
    gale_dual,
    membership_residuals,
    nondegeneracy_check,
    two_quadrics_signature,
)
from momentangle.reduction_catalog import catalog_polytope, catalog_quadrics


def test_gale_dual_triangle():
    Q = gale_dual(catalog_polytope("triangle"))
    assert Q.gamma.entries == ((1, 1, 1),)
    assert Q.c == (Fraction(1),)


def test_gale_dual_square():
    Q = gale_dual(catalog_polytope("square"))
    assert Q.gamma.entries == ((1, 0, 1, 0), (0, 1, 0, 1))
    assert Q.c == (Fraction(1), Fraction(1))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gale_dual_simplex(n):
    Q = gale_dual(catalog_polytope(f"simplex:{n}"))
    assert Q.gamma.entries == ((1,) * (n + 1),)
    assert Q.c == (Fraction(1),)


@pytest.mark.parametrize(
    "name",
    ["triangle", "square", "bad-triangle", "simplex:3", "simplex:4", "cube:3",
     "product:2,2", "product:2,3", "product:3,3"],
)
def test_gale_orthogonality_exact(name):
    P = catalog_polytope(name)
    Q = gale_dual(P)
    assert Q.gamma.matmul(P.normal_matrix().transpose()).is_zero()


def test_membership_residual():
    # per point, the largest relative quadric defect
    # |sum gamma_jk |z_k|^2 - c_j| / (sum |gamma_jk| |z_k|^2 + |c_j|)
    Q = catalog_quadrics("one-quadric:3")
    Z = np.array([[1, 0, 0], [0, 0, 0], [0, 1j, 0]], dtype=complex)
    assert membership_residuals(Q, Z).tolist() == [0.0, 1.0, 0.0]
    Qs = gale_dual(catalog_polytope("square"))  # |z_0|^2 + |z_2|^2 = 1 = |z_1|^2 + |z_3|^2
    Z = np.array([[1, 0, 0, 1], [1, 1, 0, 0], [0, 0, 0, 0], [2, 0, 0, 1]], dtype=complex)
    assert membership_residuals(Qs, Z).tolist() == [0.0, 0.0, 1.0, 0.6]
    assert membership_residuals(Qs, Z[1]) == 0.0  # one point, unbatched
    with pytest.raises(ValueError):
        membership_residuals(Q, np.zeros(4, dtype=complex))


def test_moment_map():
    # the moment map Gamma |z|^2 meets the level c exactly where the residual vanishes
    Qs = gale_dual(catalog_polytope("square"))
    Z = np.array([[1, 1, 0, 0], [0, 0, 0, 0], [2, 0, 0, 1]], dtype=complex)
    mu = (np.abs(Z) ** 2) @ Qs.gamma_float().T
    assert mu.tolist() == [[1.0, 1.0], [0.0, 0.0], [4.0, 1.0]]
    size = (np.abs(Z) ** 2) @ np.abs(Qs.gamma_float()).T + np.abs(Qs.c_float())
    assert membership_residuals(Qs, Z).tolist() == (np.abs(mu - Qs.c_float()) / size).max(axis=1).tolist()
    Q = catalog_quadrics("one-quadric:3")
    assert ((np.abs(np.array([1, 0, 0])) ** 2) @ Q.gamma_float().T).tolist() == [1.0]


def test_boundedness():
    assert boundedness_check(catalog_quadrics("one-quadric:3"))
    assert not boundedness_check(QuadricConfiguration.from_rows([(1, -1)], [0]))
    assert boundedness_check(catalog_quadrics("two-quadrics:2,2"))


def test_nondegeneracy_examples():
    nd = nondegeneracy_check(catalog_quadrics("one-quadric:3"))
    assert nd.cond_a and nd.cond_b and nd.cond_c

    degenerate = QuadricConfiguration.from_rows([(1, -1)], [0])
    nd = nondegeneracy_check(degenerate)
    assert not nd.cond_b
    assert nd.witness_b == ()  # the empty subset already reaches c = 0
    assert nd.cond_c

    scaled = QuadricConfiguration(IntegerMatrix([[2, 2, 2]], cols=3), [1])
    nd = nondegeneracy_check(scaled)
    assert nd.cond_a and nd.cond_c and nd.lattice_rank == 1


def test_feasible_bases_are_vertex_complements():
    # each basis S carries lam = gamma_S^-1 c and det gamma_S
    assert feasible_bases(catalog_quadrics("one-quadric:3")) == (((0,), (1,), 1), ((1,), (1,), 1), ((2,), (1,), 1))
    # Gale duality: the facets active at a vertex are the complement of a feasible basis
    for name in ("triangle", "square", "bad-triangle", "simplex:3", "cube:3", "product:2,3"):
        P = catalog_polytope(name)
        bases = feasible_bases(gale_dual(P))
        complements = {frozenset(range(P.num_facets)) - set(S) for S, _, _ in bases}
        assert complements == set(enumerate_vertices(P).incidence), name
        assert all(all(x > 0 for x in lam) for _, lam, _ in bases), name


def test_feasible_bases_build_fractions_only_for_kept_bases(monkeypatch):
    # the sign of lam is read off the integer numerators, so only the kept
    # bases build their k lam entries: of cube:5's C(10, 5) = 252 subsets, 32
    # are kept. Its invertible subsets are all kept, so the second system,
    # the sphere cut by a cone with weights (1, 2, 3, -1, -2, -3), pins the
    # rest: all 15 pairs are invertible, and the 9 pairs of mixed sign are kept
    subsets, built = [], []
    bareiss = quadric_config._bareiss
    monkeypatch.setattr(quadric_config, "_bareiss", lambda a, n: subsets.append(n) or bareiss(a, n))
    monkeypatch.setattr(quadric_config, "Fraction", lambda *args: built.append(args) or Fraction(*args))
    cone = QuadricConfiguration(IntegerMatrix([[1] * 6, [1, 2, 3, -1, -2, -3]], cols=6), [1, 0])
    for Q, counts in ((gale_dual(catalog_polytope("cube:5")), (252, 32, 32 * 5)), (cone, (15, 9, 9 * 2))):
        subsets.clear()
        built.clear()
        bases = quadric_config._solve_feasible_bases(Q)
        assert (len(subsets), len(bases), len(built)) == counts


def test_nondegeneracy_on_catalog_duals():
    for name in ("triangle", "square", "simplex:3", "cube:3", "product:2,2"):
        Q = gale_dual(catalog_polytope(name))
        nd = nondegeneracy_check(Q)
        assert nd.all_ok
        assert boundedness_check(Q)


def test_two_quadrics_canonical_identity_case():
    Q = catalog_quadrics("two-quadrics:2,2")
    assert two_quadrics_signature(Q) == (2, 2)


def test_two_quadrics_canonical_row_mixing():
    # no unimodular transform reaches the sign pattern here, and none is needed:
    # columns 0 and 1 lie clockwise of c = (1, 1), columns 2 and 3 counterclockwise
    Q = QuadricConfiguration.from_rows([(1, 1, 0, 0), (0, 0, 1, 1)], [1, 1])
    assert two_quadrics_signature(Q) == (2, 2)


def test_two_quadrics_canonical_sphere_cone_split():
    # both systems split into two blockwise sphere equations of two coordinates each
    for Q in (catalog_quadrics("two-quadrics:2,2"),
              QuadricConfiguration.from_rows([(2, 2, 0, 0), (0, 0, 2, 2)], [2, 2])):
        assert two_quadrics_signature(Q) == (2, 2)


def test_two_quadrics_canonical_error():
    Q = QuadricConfiguration.from_rows([(1, -1), (1, 1)], [2, 0])
    with pytest.raises(CanonicalFormError):
        two_quadrics_signature(Q)


@pytest.mark.parametrize("rows, c, reason", [
    ([(1, 1, 1, 1), (1, 1, -1, -1)], [0, 0], "column 0 of Gamma is parallel"),  # c = 0
    ([(1, 1, 1), (1, 0, -1)], [1, 0], "column 1 of Gamma is parallel"),
    ([(1, 1), (1, -1)], [1, 2], "one side"),  # both columns clockwise of c
    ([(1, -1), (1, 1)], [0, -1], "no functional"),  # h (1, 1) > 0 and h (-1, 1) > 0 give h (0, -1) < 0
])
def test_two_quadrics_signature_refusals(rows, c, reason):
    with pytest.raises(CanonicalFormError, match=reason):
        two_quadrics_signature(QuadricConfiguration.from_rows(rows, c))


def test_two_quadrics_signature_under_unimodular_row_operations():
    # det A multiplies every det[c, gamma_j]: (p, q) holds under det A = 1 and swaps under det A = -1
    rng = np.random.default_rng(0)
    elementary = [np.array([[1, 1], [0, 1]]), np.array([[1, 0], [1, 1]]), np.array([[1, -1], [0, 1]]),
                  np.array([[1, 0], [-1, 1]]), np.array([[0, 1], [1, 0]]), np.array([[-1, 0], [0, 1]])]
    dets = set()
    for p, q in [(1, 3), (2, 2), (2, 3), (3, 2), (2, 4)]:
        Q = catalog_quadrics(f"two-quadrics:{p},{q}")
        gamma_c = np.array([list(row) + [int(c)] for row, c in zip(Q.gamma.entries, Q.c)], dtype=object)
        for _ in range(50):
            A = np.eye(2, dtype=int)
            for i in rng.integers(0, len(elementary), 6):
                A = elementary[i] @ A
            det = round(np.linalg.det(A))
            dets.add(det)
            moved = A.astype(object) @ gamma_c
            R = QuadricConfiguration(IntegerMatrix(moved[:, :-1].tolist(), cols=p + q), moved[:, -1].tolist())
            assert two_quadrics_signature(R) == ((p, q) if det == 1 else (q, p)), (A.tolist(), det)
    assert dets == {1, -1}


def test_rational_rows_scaled():
    Q = QuadricConfiguration.from_rows([(Fraction(1, 2), Fraction(1, 2))], [Fraction(1, 2)])
    assert Q.gamma.entries == ((1, 1),)
    assert Q.c == (Fraction(1),)


def test_dependent_rows_rejected():
    with pytest.raises(ValueError):
        QuadricConfiguration.from_rows([(1, 1, 1), (2, 2, 2)], [1, 2])


def test_bounded_implies_coordinate_bounds():
    # the strictly positive functional certifies per-coordinate bounds on the zero set
    from momentangle.lp import strictly_positive_functional
    from momentangle.submanifold_numerics import sample_chart_points

    for name in ("one-quadric:3", "two-quadrics:2,2"):
        Q = catalog_quadrics(name)
        h = strictly_positive_functional(Q.gamma.columns())
        assert h is not None
        hc = sum(float(hi) * float(ci) for hi, ci in zip(h, Q.c))
        rng = np.random.default_rng(13)
        for z in sample_chart_points(Q, 20, rng, order=0).points:
            sq = np.abs(z) ** 2
            for k in range(Q.ambient_dim):
                hg = sum(float(h[j]) * Q.gamma.entries[j][k] for j in range(Q.num_quadrics))
                assert sq[k] <= hc / hg + 1e-9
