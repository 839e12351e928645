from fractions import Fraction

import numpy as np
import pytest

from momentangle.charts import FunctionChart
from momentangle.quadric_config import (
    QuadricConfiguration,
    boundedness_check,
    membership_residual,
    nondegeneracy_check,
)
from momentangle import fd
from momentangle.reduction_catalog import (
    CP_TOL_STATIONARITY,
    CpChart,
    StackValidationError,
    catalog_double,
    catalog_polytope,
    catalog_quadrics,
    classify_N,
    cp_affine_index,
    cp_chart_setup,
    cp_hamiltonian_field,
    cp_lagrangian_residual,
    cp_reduced_tensor_derivatives,
    cp_reduced_tensors,
    cp2_torus_lift_chart,
    ntilde_chart,
    ntilde_lagrangian_residual,
    stack_double,
    stacked_tangent_horizontal_residual,
)
from momentangle.submanifold_numerics import DEFAULT_SPEC, VectorField, chart_point, stationarity_ratio
from momentangle.torus_actions import freeness_check, torus_point

spec = DEFAULT_SPEC


# ---------------------------------------------------------------------------
# topology descriptors


def test_classify_one_quadric():
    assert classify_N(catalog_quadrics("one-quadric:2")).name == "S^1 x S^1"
    d3 = classify_N(catalog_quadrics("one-quadric:3"))
    assert d3.name == "K^3"
    assert "K^3: 3-dimensional Klein bottle" in d3.facts
    assert classify_N(catalog_quadrics("one-quadric:4")).name == "S^3 x S^1"
    assert "Z = S^5" in d3.facts and "R = S^2" in d3.facts


def test_classify_two_quadrics():
    Q = catalog_quadrics("two-quadrics:2,2")
    d0 = classify_N(Q, l=0)
    assert d0.name == "N_0(2,2)" and d0.trivial is True
    assert "trivial bundle: T^4 = T^2 x T^2" in d0.facts
    d1 = classify_N(Q, l=1)
    assert d1.name == "N_1(2,2)" and d1.trivial is False
    assert "nontrivial T^2 bundle over T^2" in d1.facts
    assert "bundle over T^2 with fiber S^1 x S^1" in d1.facts


def test_classify_errors():
    Q = catalog_quadrics("two-quadrics:2,2")
    with pytest.raises(ValueError):
        classify_N(Q)  # missing l
    with pytest.raises(ValueError):
        classify_N(Q, l=5)  # out of range
    with pytest.raises(ValueError):
        classify_N(QuadricConfiguration.from_rows([(1, 2)], [1]))  # non-free sphere case


# ---------------------------------------------------------------------------
# stacking


def test_stack_cp2_instance():
    D = catalog_double("cp2-torus")
    assert D.stacked.gamma.entries == ((1, 1, 1), (1, 1, 2))
    assert D.stacked.c == (Fraction(2), Fraction(3))
    assert D.checks["free_stacked"]
    assert D.checks["free_gamma"]
    # the second system alone is not free; reported, not required
    assert not D.checks["free_delta"]


def test_stack_rejects_parallel_rows():
    g = QuadricConfiguration.from_rows([(1, 1, 1)], [2])
    d = QuadricConfiguration.from_rows([(1, 1, 1)], [3])
    with pytest.raises(StackValidationError):
        stack_double(g, d)


def test_stack_empty_second_system():
    D = catalog_double("rp2")
    assert D.delta_cfg.num_quadrics == 0
    assert D.stacked.gamma == D.gamma_cfg.gamma


def test_stacked_checks_symmetric_under_swap():
    # the stacked rows are the same set either way; its verdicts must agree
    g = QuadricConfiguration.from_rows([(1, 1, 1)], [2])
    d = QuadricConfiguration.from_rows([(1, 1, 2)], [3])
    s1 = QuadricConfiguration.from_rows([(1, 1, 1), (1, 1, 2)], [2, 3])
    s2 = QuadricConfiguration.from_rows([(1, 1, 2), (1, 1, 1)], [3, 2])
    assert bool(freeness_check(s1)) == bool(freeness_check(s2))
    assert boundedness_check(s1) == boundedness_check(s2)
    assert nondegeneracy_check(s1).all_ok == nondegeneracy_check(s2).all_ok


# ---------------------------------------------------------------------------
# the lifted reduced Lagrangian


def test_ntilde_chart_examples():
    D = catalog_double("cp2-torus")
    base = np.array([1.0, 0.0, 1.0])
    p = ntilde_chart(D, base, [0.0], [0.0], spec)
    assert np.allclose(p.point, base, atol=1e-13)
    p2 = ntilde_chart(D, base, [0.0], [0.5], spec)
    # phases exp(pi i delta_k): (-1, -1, +1)
    assert np.allclose(p2.point, [-1.0, 0.0, 1.0], atol=1e-12)


def test_ntilde_membership_and_residual():
    D = catalog_double("cp2-torus")
    base = np.array([1.0, 0.0, 1.0])
    rng = np.random.default_rng(12)
    worst_mem, worst_lag = 0.0, 0.0
    for _ in range(100):
        v = 0.35 * rng.uniform(-1, 1, 1)
        ph = rng.uniform(0, 1, 1)
        p = ntilde_chart(D, base, v, ph, spec)
        worst_mem = max(worst_mem, membership_residual(D.stacked, p.point))
        worst_lag = max(worst_lag, ntilde_lagrangian_residual(D, p, spec))
    assert worst_mem < 1e-10
    assert worst_lag < 1e-8


def test_ntilde_negative_control():
    D = catalog_double("cp2-torus")
    p = ntilde_chart(D, np.array([1.0, 0.0, 1.0]), [0.1], [0.2], spec)
    assert stacked_tangent_horizontal_residual(D, p.point, spec) > 0.1


def test_ntilde_residual_invariant_under_first_torus():
    D = catalog_double("cp2-torus")
    base = np.array([1.0, 0.0, 1.0])
    p = ntilde_chart(D, base, [0.15], [0.3], spec)
    r0 = ntilde_lagrangian_residual(D, p, spec)
    rng = np.random.default_rng(3)
    for _ in range(3):
        phases = torus_point(D.gamma_cfg, rng.uniform(0, 1, 1))

        moved = FunctionChart(
            lambda S, ch=p.chart, ph=phases: ph * ch.value(S),
            p.chart.dim,
            p.chart.ambient_dim,
        )
        pm = chart_point(moved, p.params, Q=D.stacked, spec=spec)
        rm = ntilde_lagrangian_residual(D, pm, spec)
        assert abs(rm - r0) < 1e-10


def test_rp2_lift_is_lagrangian():
    D = catalog_double("rp2")
    base = np.array([1.0, 0.0, 0.0])
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = ntilde_chart(D, base, 0.3 * rng.uniform(-1, 1, 2), [], spec)
        assert ntilde_lagrangian_residual(D, p, spec) < 1e-10


# ---------------------------------------------------------------------------
# projective chart


def test_cp_affine_index_tie_break():
    assert cp_affine_index(np.array([1.0, 1.0, 0.5])) == 0
    assert cp_affine_index(np.array([0.1, 0.9j, 0.3])) == 1


def test_cp_reduced_metric_against_orbit_distance_oracle():
    # quotient distance between nearby orbits, minimized in closed form over
    # the circle phase, must match the horizontal-lift metric
    Qg = catalog_double("rp2").gamma_cfg
    a = 1.0

    def section(W, j=0):
        W = np.atleast_2d(W)
        mm = W.shape[1] // 2 + 1
        w = W[:, : mm - 1] + 1j * W[:, mm - 1 :]
        zhat = np.insert(w, j, 1.0 + 0j, axis=1)
        return np.sqrt(a) * zhat / np.linalg.norm(zhat, axis=1, keepdims=True)

    rng = np.random.default_rng(1)
    for _ in range(5):
        W = rng.uniform(-0.8, 0.8, (1, 4))
        delta = rng.standard_normal(4)
        delta /= np.linalg.norm(delta)
        eps = 1e-5
        z0 = section(W)[0]
        z1 = section(W + eps * delta)[0]
        S = np.sum(z1 * np.conj(z0))
        dist = np.sqrt(max(2 * a - 2 * abs(S), 0.0))
        G, _ = cp_reduced_tensors(Qg, W, spec)
        pred = eps * np.sqrt(delta @ G[0] @ delta)
        assert abs(dist - pred) / dist < 1e-4


def _horizontal_lift_tensors(Q_gamma, W, j, spec):
    """(G, Omega) of the reduced space from horizontal lifts, an oracle for the closed form.

    A real chart direction is lifted to the normalized section
    z = sqrt(a) zhat / |zhat|, zhat = w with 1 inserted at index j, its
    orbit (phase) component removed, and the flat metric and symplectic
    form evaluated on the lifts.
    """
    row = Q_gamma.gamma.entries[0]
    a = float(Q_gamma.c[0] / row[0])
    N, D = W.shape
    mm = D // 2 + 1
    w = W[:, : mm - 1] + 1j * W[:, mm - 1 :]
    zhat = np.insert(w, j, 1.0 + 0j, axis=1)
    nrm = np.linalg.norm(zhat, axis=1, keepdims=True)
    z = np.sqrt(a) * zhat / nrm
    lifts = np.zeros((N, D, mm), dtype=complex)
    for r in range(D):
        k = r % (mm - 1)
        dzhat = np.zeros((N, mm), dtype=complex)
        dzhat[:, k if k < j else k + 1] = 1.0 if r < mm - 1 else 1.0j
        inner = np.real(np.sum(np.conj(zhat) * dzhat, axis=1, keepdims=True))
        dz = np.sqrt(a) * (dzhat / nrm - zhat * inner / nrm**3)
        vert = 1j * z
        coef = np.real(np.sum(np.conj(vert) * dz, axis=1, keepdims=True)) / a
        lifts[:, r, :] = dz - coef * vert
    gram = np.einsum("nri,nsi->nrs", np.conj(lifts), lifts)
    return np.real(gram), spec.omega_scale * np.imag(gram)


def _cp_nodes(name):
    """The stationarity patch's chart values (W) for a catalog double at seed 0."""
    setup = cp_chart_setup(catalog_double(name), 50, 0, spec)
    return setup, setup.patch.points


@pytest.mark.parametrize("name", ["rp2", "cp2-torus"])
def test_cp_reduced_tensors_match_horizontal_lifts(name):
    # the Fubini-Study closed form is the same in every affine chart; the
    # lifts through the section of each chart must reproduce it
    setup, W = _cp_nodes(name)
    Qg = catalog_double(name).gamma_cfg
    G, Om = cp_reduced_tensors(Qg, W, spec)
    for j in range(3):
        G_ref, Om_ref = _horizontal_lift_tensors(Qg, W, j, spec)
        assert np.abs(G - G_ref).max() <= 1e-14
        assert np.abs(Om - Om_ref).max() <= 1e-14


def _along(F, W, V, step=1e-4):
    """Order-4 central difference of F at the points W along the directions V (one per point)."""
    offs, wts = fd._D1
    return sum(w * np.asarray(F(W + o * step * V)) for o, w in zip(offs, wts)) / step


@pytest.mark.parametrize("name", ["rp2", "cp2-torus"])
def test_cp_reduced_tensor_derivatives_match_fd(name):
    # DG[V] and DOmega[V] against an order-4 stencil of the closed forms along
    # V at step 1e-4 (measured 1.3e-12), with one and with two directions per point
    _, W = _cp_nodes(name)
    Qg = catalog_double(name).gamma_cfg
    rng = np.random.default_rng(21)
    V = rng.standard_normal((W.shape[0], 2, W.shape[1]))
    DG, DOm = cp_reduced_tensor_derivatives(Qg, W, V, spec)
    for k in range(2):
        ref = _along(lambda P: np.stack(cp_reduced_tensors(Qg, P, spec), axis=1), W, V[:, k])
        got = np.stack([DG[:, k], DOm[:, k]], axis=1)
        assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()
        one = np.stack(cp_reduced_tensor_derivatives(Qg, W, V[:, k], spec), axis=1)
        assert np.array_equal(one, got)


def test_cp_hamiltonian_field_derivative_matches_fd():
    # DX[V] = -Omega^-1 (Hess f V + DOmega[V] X) against an order-4 stencil of
    # X along V at step 1e-4, on rp2's patch nodes inside and outside the
    # ball cutoff (the Hessian test of the cutoff covers its edge). Measured
    # 1.6e-11; without the DOmega[V] X term it reads 0.30
    setup, W = _cp_nodes("rp2")
    Qg = catalog_double("rp2").gamma_cfg
    X = cp_hamiltonian_field(Qg, setup.grad, setup.hess, spec)
    V = np.random.default_rng(22).standard_normal((W.shape[0], 2, W.shape[1]))
    got = X.derivative(W, V)
    for k in range(2):
        ref = _along(X, W, V[:, k])
        assert np.abs(got[:, k] - ref).max() <= 1e-9 * np.abs(ref).max()
    assert not got[~X(W).any(axis=1) & ~setup.grad(W).any(axis=1)].any()


def test_cp_gradient_field_negative_control():
    # the gradient field G^-1 grad f of the same Hamiltonian is not a
    # symplectic variation, and the CP^2 torus is not stationary for it:
    # it reads 0.087, 0.128 and 0.097 at seeds 0-2, where the Hamiltonian
    # field reads the rounding floor (at most 2.8e-16)
    D = catalog_double("cp2-torus")
    Qg = D.gamma_cfg
    for seed in range(3):
        setup = cp_chart_setup(D, 50, seed, spec)

        def value(W):
            G, _ = cp_reduced_tensors(Qg, W, spec)
            return np.linalg.solve(G, setup.grad(W)[..., None])[..., 0]

        def derivative(W, V):
            # G X = grad f, so DX[V] = G^-1 (Hess f V - DG[V] X)
            G, _ = cp_reduced_tensors(Qg, W, spec)
            DG, _ = cp_reduced_tensor_derivatives(Qg, W, V, spec)
            rhs = setup.hess(W, V) - (DG @ value(W)[:, None, :, None])[..., 0]
            return np.swapaxes(np.linalg.solve(G, np.swapaxes(rhs, 1, 2)), 1, 2)

        gradient = stationarity_ratio(setup.patch, VectorField(value, derivative))
        assert gradient > 50 * CP_TOL_STATIONARITY, (seed, gradient)
        hamiltonian = cp_hamiltonian_field(Qg, setup.grad, setup.hess, spec)
        assert stationarity_ratio(setup.patch, hamiltonian) < 1e-12


def test_cp_lagrangian_residuals():
    D = catalog_double("cp2-torus")
    lift = cp2_torus_lift_chart(D)
    rng = np.random.default_rng(2)
    S = np.stack([rng.uniform(0, 2 * np.pi, 25), rng.uniform(0, 1, 25)], axis=-1)
    j = cp_affine_index(lift.value(S[:1])[0])
    chart = CpChart(lift, j)
    assert cp_lagrangian_residual(D, chart, S, spec) < 1e-8

    Drp = catalog_double("rp2")
    from momentangle.charts import TorusSpreadChart

    lift_rp = TorusSpreadChart(
        Drp.stacked, np.array([1.0, 0.0, 0.0]), phase_rows=Drp.delta_cfg.gamma_float()
    )
    chart_rp = CpChart(lift_rp, cp_affine_index(lift_rp.value(np.zeros((1, 2)))[0]))
    Srp = 0.3 * rng.uniform(-1, 1, (25, 2))
    assert cp_lagrangian_residual(Drp, chart_rp, Srp, spec) < 1e-10


def test_cp_chart_jacobian_matches_stencil():
    # the chain rule dw = (dz_rest - w dz_j) / z_j on the exact lift
    # jacobians, against a 4th-order stencil of the chart's value at step
    # 1e-3 on the Lagrangian residual's samples: measured 5.2e-11 (cp2-torus)
    # and 1.9e-10 (rp2) of the largest entry, falling 16-fold per halving of
    # the step, the stencil's own error
    for name in ("cp2-torus", "rp2"):
        setup = cp_chart_setup(catalog_double(name), 50, 0, spec)
        chart, S = setup.chart, setup.sample_S
        J = chart.jacobian(S)
        assert J.shape == (50, chart.ambient_dim, chart.dim)
        assert np.abs(J - fd.jacobian(chart.value, S, 1e-3)).max() < 5e-10 * np.abs(J).max(), name


def test_cp_chart_degenerate_coordinate():
    D = catalog_double("cp2-torus")
    lift = cp2_torus_lift_chart(D)
    chart = CpChart(lift, 0)  # first coordinate vanishes at angle pi/2
    with pytest.raises(ValueError):
        chart.value(np.array([[np.pi / 2, 0.0]]))


def test_catalog_unknown_names():
    with pytest.raises(KeyError):
        catalog_polytope("dodecahedron")
    with pytest.raises(KeyError):
        catalog_quadrics("three-quadrics:1,1,1")
    with pytest.raises(KeyError):
        catalog_double("cp3-torus")
