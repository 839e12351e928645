from fractions import Fraction

import numpy as np
import pytest

from momentangle.exact_linalg import IntegerMatrix
from momentangle.polytope import enumerate_vertices
from momentangle.quadric_config import (
    CanonicalFormError,
    QuadricConfiguration,
    boundedness_check,
    feasible_bases,
    gale_dual,
    membership_residual,
    moment_map,
    nondegeneracy_check,
    two_quadrics_canonical,
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
    prod = Q.gamma.to_rational().matmul(P.normal_matrix().transpose())
    assert prod.is_zero()


def test_membership_residual():
    Q = catalog_quadrics("one-quadric:3")
    assert membership_residual(Q, np.array([1, 0, 0], dtype=complex)) == 0.0
    assert membership_residual(Q, np.zeros(3, dtype=complex)) == 1.0
    Qs = gale_dual(catalog_polytope("square"))
    assert membership_residual(Qs, np.array([1, 0, 0, 1], dtype=complex)) == 0.0
    with pytest.raises(ValueError):
        membership_residual(Q, np.zeros(4, dtype=complex))


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
    assert feasible_bases(catalog_quadrics("one-quadric:3")) == (((0,), (1,)), ((1,), (1,)), ((2,), (1,)))
    # Gale duality: the facets active at a vertex are the complement of a feasible basis
    for name in ("triangle", "square", "bad-triangle", "simplex:3", "cube:3", "product:2,3"):
        P = catalog_polytope(name)
        bases = feasible_bases(gale_dual(P))
        complements = {frozenset(range(P.num_facets)) - set(S) for S, _ in bases}
        assert complements == set(enumerate_vertices(P).incidence), name
        assert all(all(x > 0 for x in lam) for _, lam in bases), name


def test_nondegeneracy_on_catalog_duals():
    for name in ("triangle", "square", "simplex:3", "cube:3", "product:2,2"):
        Q = gale_dual(catalog_polytope(name))
        nd = nondegeneracy_check(Q)
        assert nd.all_ok
        assert boundedness_check(Q)


def test_moment_map():
    Q = catalog_quadrics("one-quadric:3")
    assert np.allclose(moment_map(Q, np.array([1, 0, 0], complex)), [1.0])
    Qs = gale_dual(catalog_polytope("square"))
    assert np.allclose(moment_map(Qs, np.array([1, 1, 0, 0], complex)), [1.0, 1.0])
    assert np.allclose(moment_map(Qs, np.zeros(4, complex)), [0.0, 0.0])


def test_two_quadrics_canonical_identity_case():
    Q = catalog_quadrics("two-quadrics:2,2")
    can = two_quadrics_canonical(Q)
    assert (can.p, can.q) == (2, 2)
    assert abs(can.transform_det) == 1
    row1, row2 = can.config.gamma.entries
    assert all(x > 0 for x in row1)
    assert all(x > 0 for x in row2[: can.p]) and all(x < 0 for x in row2[can.p :])
    assert can.config.c[0] > 0 and can.config.c[1] == 0


def test_two_quadrics_canonical_row_mixing():
    Q = QuadricConfiguration.from_rows([(1, 1, 0, 0), (0, 0, 1, 1)], [1, 1])
    can = two_quadrics_canonical(Q)
    assert (can.p, can.q) == (2, 2)
    # no unimodular transform reaches the sign pattern here; sum/difference does
    assert abs(can.transform_det) == 2
    assert can.config.gamma.entries[0] == (1, 1, 1, 1)
    assert can.config.c == (Fraction(2), Fraction(0))


def test_two_quadrics_canonical_sphere_cone_split():
    # canonical system splits into two blockwise sphere equations
    for Q in (catalog_quadrics("two-quadrics:2,2"),
              QuadricConfiguration.from_rows([(2, 2, 0, 0), (0, 0, 2, 2)], [2, 2])):
        can = two_quadrics_canonical(Q)
        row1, row2 = can.config.gamma.entries
        p = can.p
        ssum = [a + b for a, b in zip(row1, row2)]
        sdiff = [a - b for a, b in zip(row1, row2)]
        assert all(x > 0 for x in ssum[:p]) and all(x == 0 for x in ssum[p:])
        assert all(x == 0 for x in sdiff[:p]) and all(x > 0 for x in sdiff[p:])


def test_two_quadrics_canonical_error():
    Q = QuadricConfiguration.from_rows([(1, -1), (1, 1)], [2, 0])
    with pytest.raises(CanonicalFormError):
        two_quadrics_canonical(Q)


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
