from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from momentangle.quadric_config import (
    QuadricConfiguration,
    gale_dual,
    membership_residual,
    moment_map,
)
from momentangle.polytope import is_delzant
from momentangle.reduction_catalog import catalog_polytope, catalog_quadrics
from momentangle.submanifold_numerics import (
    DEFAULT_SPEC,
    omega_pair,
    sample_chart_points,
)
from momentangle.torus_actions import (
    NonFreePointError,
    conjugate,
    freeness_check,
    orbit_generators,
    orbit_volume,
    torus_subgroup,
)

TWO_PI = 2.0 * np.pi


def test_freeness_examples():
    assert freeness_check(catalog_quadrics("one-quadric:3"))
    bad = freeness_check(QuadricConfiguration.from_rows([(1, 2)], [1]))
    assert not bad
    assert bad.witness == (1,)  # support {second coordinate}: lattice 2Z
    stacked = QuadricConfiguration.from_rows([(1, 1, 1), (1, 1, 2)], [2, 3])
    assert freeness_check(stacked)


def test_freeness_at_zero_level():
    # c = 0 puts the origin, fixed by the whole torus, on the zero set
    bad = freeness_check(QuadricConfiguration.from_rows([(1, -1)], [0]))
    assert not bad
    assert bad.witness == ()


def test_freeness_matches_delzant_on_catalog():
    for name in ("triangle", "square", "bad-triangle", "simplex:3", "simplex:4",
                 "cube:2", "cube:3", "product:2,2", "product:2,3", "product:3,3"):
        P = catalog_polytope(name)
        assert bool(is_delzant(P)) == bool(freeness_check(gale_dual(P))), name


def test_one_quadric_freeness_iff_equal_coefficients():
    for m in (2, 3):
        for row in product(range(1, 6), repeat=m):
            Q = QuadricConfiguration.from_rows([row], [1])
            # from_rows makes rows primitive; test on the primitive representative
            prow = Q.gamma.entries[0]
            assert bool(freeness_check(Q)) == (len(set(prow)) == 1)


def test_orbit_generators():
    Q = catalog_quadrics("one-quadric:3")
    gens = orbit_generators(Q, np.array([1, 0, 0], complex))
    assert np.allclose(gens, [[2j * np.pi, 0, 0]])
    assert np.allclose(orbit_generators(Q, np.zeros(3, complex)), 0)
    Qs = gale_dual(catalog_polytope("square"))
    gens = orbit_generators(Qs, np.array([1, 1, 0, 0], complex))
    assert np.allclose(gens, [[2j * np.pi, 0, 0, 0], [0, 2j * np.pi, 0, 0]])


def test_orbit_volume_circle_cases():
    Q = catalog_quadrics("one-quadric:3")
    assert np.isclose(orbit_volume(Q, np.array([1, 0, 0], complex)), TWO_PI)
    rng = np.random.default_rng(0)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    z /= np.linalg.norm(z)
    assert np.isclose(orbit_volume(Q, z), TWO_PI)
    Q2 = QuadricConfiguration.from_rows([(1, 1)], [1])
    r = 1 / np.sqrt(2)
    assert np.isclose(orbit_volume(Q2, np.array([r, r], complex)), TWO_PI)
    with pytest.raises(NonFreePointError):
        orbit_volume(Q2, np.zeros(2, complex))


def test_orbit_volume_respects_lattice_normalization():
    # doubled coefficients halve the phase period; the orbit set is unchanged
    from momentangle.exact_linalg import IntegerMatrix

    Qa = QuadricConfiguration.from_rows([(1, 1)], [1])
    Qb = QuadricConfiguration(IntegerMatrix([[2, 2]], cols=2), [2])
    z = np.array([0.3 + 0.4j, np.sqrt(1 - 0.25)], complex)
    assert np.isclose(orbit_volume(Qa, z), orbit_volume(Qb, z))


def test_conjugation():
    assert np.allclose(conjugate(np.array([1j, 1.0])), np.array([-1j, 1.0]))
    x = np.array([0.3, -0.7])
    assert np.allclose(conjugate(x), x)
    Q = catalog_quadrics("one-quadric:3")
    rng = np.random.default_rng(1)
    for _ in range(100):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        z /= np.linalg.norm(z)
        assert membership_residual(Q, conjugate(z)) == membership_residual(Q, z)


def test_orbit_volume_conjugation_invariance():
    Q = catalog_quadrics("two-quadrics:2,2")
    rng = np.random.default_rng(2)
    Z = sample_chart_points(Q, 30, rng, order=0).points
    assert np.abs(orbit_volume(Q, Z) - orbit_volume(Q, conjugate(Z))).max() < 1e-12


def test_hamiltonian_identity_for_generators():
    # directional derivative of each moment component equals the symplectic
    # pairing with the matching orbit generator
    spec = DEFAULT_SPEC
    rng = np.random.default_rng(3)
    for name in ("one-quadric:3", "two-quadrics:2,2"):
        Q = catalog_quadrics(name)
        z = sample_chart_points(Q, 1, rng, spec, order=0).points[0]
        gens = orbit_generators(Q, z)
        for j in range(Q.num_quadrics):
            for _ in range(4):
                v = rng.standard_normal(Q.ambient_dim) + 1j * rng.standard_normal(Q.ambient_dim)
                h = 1e-4
                dmu = (moment_map(Q, z + h * v) - moment_map(Q, z - h * v)) / (2 * h)
                assert abs(omega_pair(gens[j], v) - dmu[j]) < 1e-6


def test_torus_subgroup_dual_pairing_is_integral():
    for name in ("one-quadric:3", "two-quadrics:2,2"):
        Q = catalog_quadrics(name)
        T = torus_subgroup(Q)
        # exact dual pairing integrality
        for drow in T.dual_basis.entries:
            for lrow in T.lattice_basis.entries:
                val = sum((Fraction(d) * Fraction(l) for d, l in zip(drow, lrow)), Fraction(0))
                assert val.denominator == 1


def test_two_quadrics_dual_covolume():
    Q = catalog_quadrics("two-quadrics:2,2")
    T = torus_subgroup(Q)
    assert T.dual_covolume == Fraction(1, 2)  # column lattice has index 2 in Z^2
