from fractions import Fraction

import numpy as np
import pytest

from momentangle.charts import TorusSpreadChart, c2r
from momentangle.quadric_config import (
    QuadricConfiguration,
    boundedness_check,
    membership_residual,
    nondegeneracy_check,
)
from momentangle import fd
from momentangle.reduction_catalog import (
    CP_CUTOFF_RADIUS,
    StackValidationError,
    catalog_double,
    catalog_polytope,
    catalog_quadrics,
    circle_invariant_hamiltonian,
    circle_invariants,
    classify_N,
    cp_chart_setup,
    cp2_torus_lift_chart,
    ntilde_chart,
    ntilde_lagrangian_residual,
    stack_double,
    stacked_tangent_horizontal_residual,
)
from momentangle.report import TOL_STATIONARITY
from momentangle.submanifold_numerics import (
    DEFAULT_SPEC,
    OMEGA_SCALE,
    ChartPatch,
    ChartSample,
    VectorField,
    _poly_scalar,
    _radial_cutoff,
    chart_point,
    hamiltonian_vector_field,
    lagrangian_residual,
    patch_volume,
    patch_volume_and_derivative,
    stationarity_ratio,
)
from momentangle.torus_actions import freeness_check, orbit_volume, torus_point
from stencil_chart import FunctionChart

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


def test_stack_refuses_required_checks_nondegeneracy_first():
    # the torus of (1, 2) does not act freely, and (1, -1) at level 0 is
    # degenerate: a required check refuses the double with its witness, and
    # of two failures the nondegeneracy is named
    from momentangle.exact_linalg import IntegerMatrix

    g = QuadricConfiguration.from_rows([(1, 2)], [1])
    with pytest.raises(StackValidationError, match="fails free_gamma") as exc:
        stack_double(g, QuadricConfiguration(IntegerMatrix([], cols=2), []))
    assert exc.value.witness == (1,)
    with pytest.raises(StackValidationError, match="fails nondeg_delta"):
        stack_double(g, QuadricConfiguration.from_rows([(1, -1)], [0]))


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
    assert np.allclose(p.points, [base], atol=1e-13)
    p2 = ntilde_chart(D, base, [0.0], [0.5], spec)
    # phases exp(pi i delta_k): (-1, -1, +1)
    assert np.allclose(p2.points, [[-1.0, 0.0, 1.0]], atol=1e-12)


def test_ntilde_membership_and_residual():
    D = catalog_double("cp2-torus")
    base = np.array([1.0, 0.0, 1.0])
    rng = np.random.default_rng(12)
    worst_mem, worst_lag = 0.0, 0.0
    for _ in range(100):
        v = 0.35 * rng.uniform(-1, 1, 1)
        ph = rng.uniform(0, 1, 1)
        p = ntilde_chart(D, base, v, ph, spec)
        worst_mem = max(worst_mem, membership_residual(D.stacked, p.points[0]))
        worst_lag = max(worst_lag, ntilde_lagrangian_residual(D, p)[0])
    assert worst_mem < 1e-10
    assert worst_lag < 1e-8


def test_ntilde_negative_control():
    D = catalog_double("cp2-torus")
    p = ntilde_chart(D, np.array([1.0, 0.0, 1.0]), [0.1], [0.2], spec)
    assert stacked_tangent_horizontal_residual(D, p.points)[0] > 0.1


def test_ntilde_residual_invariant_under_first_torus():
    D = catalog_double("cp2-torus")
    base = np.array([1.0, 0.0, 1.0])
    p = ntilde_chart(D, base, [0.15], [0.3], spec)
    r0 = ntilde_lagrangian_residual(D, p)[0]
    rng = np.random.default_rng(3)
    for _ in range(3):
        phases = torus_point(D.gamma_cfg, rng.uniform(0, 1, 1))

        moved = FunctionChart(
            lambda S, ch=p.chart, ph=phases: ph * ch.value(S),
            p.chart.dim,
            p.chart.ambient_dim,
        )
        pm = chart_point(moved, p.params[0], Q=D.stacked, spec=spec)
        rm = ntilde_lagrangian_residual(D, pm)[0]
        assert abs(rm - r0) < 1e-10


def test_rp2_lift_is_lagrangian():
    D = catalog_double("rp2")
    base = np.array([1.0, 0.0, 0.0])
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = ntilde_chart(D, base, 0.3 * rng.uniform(-1, 1, 2), [], spec)
        assert ntilde_lagrangian_residual(D, p)[0] < 1e-10


# ---------------------------------------------------------------------------
# projective checks on the lift


def _horizontal_lift_tensors(Q_gamma, W, j):
    """(G, Omega) of the reduced space from horizontal lifts, in an affine chart.

    A real chart direction of w = z_rest / z_j is lifted to the normalized
    section z = sqrt(a) zhat / |zhat|, zhat = w with 1 inserted at index j,
    its orbit (phase) component removed, and the flat metric and symplectic
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
    return np.real(gram), OMEGA_SCALE * np.imag(gram)


def test_cp_reduced_metric_against_orbit_distance_oracle():
    # the quotient distance between nearby orbits, minimized in closed form
    # over the circle phase, must match the horizontal-lift metric oracle
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
        G, _ = _horizontal_lift_tensors(Qg, W, 0)
        pred = eps * np.sqrt(delta @ G[0] @ delta)
        assert abs(dist - pred) / dist < 1e-4


GAMMA_AXIS = {"rp2": 2, "cp2-torus": 1}  # the first torus's phase axis of each lift chart


def _lift_patch(name):
    """The setup of ``cp_chart_verify`` at seed 0 and its patch; rp2's shrunk
    to v in [-0.3, 0.3]^2, away from the affine chart's pole z_0 = 0."""
    setup = cp_chart_setup(catalog_double(name), 50, 0, spec)
    patch = setup.patch
    if name == "rp2":
        patch = ChartPatch(chart=patch.chart, lo=[-0.3, -0.3, -0.5], hi=[0.3, 0.3, 0.5],
                           nodes=[24, 24, 1], order=1)
    return setup, patch


@pytest.mark.parametrize("name", ["rp2", "cp2-torus"])
def test_cp_reduced_tensors_match_horizontal_lifts(name):
    # the reduced metric and form seen by the lift are the flat ones on the
    # horizontal part of its tangent vectors. The oracle pulls the
    # horizontal-lift tensors back through an affine chart of CP^2, whose
    # jacobian is a 4th-order stencil at step 1e-3 (measured: the tensors
    # agree to 4.0e-10 of the largest entry on rp2 and 1.0e-10 on the cp2
    # torus). The orbits on the sphere all have length
    # V_orb = 2 pi sqrt(c / gamma), so vol(reduced patch) = vol(lift patch)
    # / V_orb (measured: 2.7e-11 and 5.2e-11 relative)
    D = catalog_double(name)
    _, patch = _lift_patch(name)
    chart, S, P = patch.chart, patch.sample.params, patch.sample.points
    j = int(np.argmax(np.abs(P).min(axis=0)))  # the coordinate farthest from 0 on the nodes
    ax = GAMMA_AXIS[name]
    rest = [a for a in range(chart.dim) if a != ax]

    def affine(R):
        z = chart.value(np.insert(R, ax, S[0, ax], axis=1))
        return c2r(np.delete(z, j, axis=1) / z[:, j : j + 1])

    Jw = fd.jacobian(affine, S[:, rest], 1e-3)  # (N, 4, 2)
    G, Om = _horizontal_lift_tensors(D.gamma_cfg, affine(S[:, rest]), j)
    g_red = np.swapaxes(Jw, 1, 2) @ G @ Jw
    om_red = np.swapaxes(Jw, 1, 2) @ Om @ Jw

    J = patch.sample.jet[1][:, :, rest]  # (N, 3, 2)
    vert = 1j * P / np.linalg.norm(P, axis=1, keepdims=True)
    Jh = J - vert[:, :, None] * np.real(np.einsum("ni,nia->na", np.conj(vert), J))[:, None, :]
    gram = np.einsum("nia,nib->nab", np.conj(Jh), Jh)
    scale = np.abs(gram).max()
    assert np.abs(g_red - gram.real).max() <= 1e-9 * scale
    assert np.abs(om_red - OMEGA_SCALE * gram.imag).max() <= 1e-9 * scale

    v_orb = orbit_volume(D.gamma_cfg, P)
    assert np.allclose(v_orb, 2 * np.pi * np.sqrt(float(D.gamma_cfg.c[0])), rtol=1e-14, atol=0)
    width = patch.hi[ax] - patch.lo[ax]
    vol_red = np.sum(patch.w / width * np.sqrt(np.linalg.det(g_red)))
    assert abs(patch_volume(patch) / v_orb[0] - vol_red) <= 1e-9 * vol_red


@pytest.mark.parametrize("name", ["rp2", "cp2-torus"])
def test_cp_one_orbit_node_matches_several(name):
    # every integrand is constant along the first torus's circle, so one
    # node on its phase axis gives the volume and the derivative of four
    # (measured: to 1.8e-16 relative)
    setup = cp_chart_setup(catalog_double(name), 50, 0, spec)
    one = setup.patch
    nodes = [int(n) for n in one.nodes]
    nodes[GAMMA_AXIS[name]] = 4
    four = ChartPatch(chart=one.chart, lo=one.lo, hi=one.hi, nodes=nodes, order=1)
    X = hamiltonian_vector_field(setup.grad, setup.hess)
    one_vol, one_dvol = patch_volume_and_derivative(one, X)
    four_vol, four_dvol = patch_volume_and_derivative(four, X)
    assert abs(one_vol - four_vol) <= 1e-14 * one_vol
    assert abs(one_dvol - four_dvol) <= 1e-14 * one_vol * np.abs(X(one.sample.points)).max()


def _along(F, P, V, step=1e-4):
    """Order-4 central difference of F at the points P along the directions V (one per point)."""
    offs, wts = fd._D1
    return sum(w * np.asarray(F(P + o * step * V)) for o, w in zip(offs, wts)) / step


@pytest.mark.parametrize("name", ["rp2", "cp2-torus"])
def test_cp_invariant_hamiltonian_derivatives_match_fd(name):
    # the chain rule through q(z) = (conj(z_k) z_l)_{k<=l}: the packed
    # gradient against an order-4 stencil of f, and the Hessian against one
    # of the gradient, along random complex directions at step 1e-4 on the
    # patch nodes, inside and outside rp2's cutoff but off its edge (the
    # Hessian test of the cutoff covers the edge; across it the stencil
    # reads the jump of the bump's fourth derivative). f is invariant under
    # the diagonal circle and its gradient is equivariant
    setup = cp_chart_setup(catalog_double(name), 50, 0, spec)
    P = setup.patch.sample.points
    rng = np.random.default_rng(23)
    poly = _poly_scalar(6, rng)
    if name == "rp2":
        q0 = circle_invariants(setup.patch.chart.value(np.zeros((1, 3))))[0]
        poly = _radial_cutoff(poly, q0, CP_CUTOFF_RADIUS)
        r = np.linalg.norm(circle_invariants(P) - q0, axis=1) / CP_CUTOFF_RADIUS
        P = P[np.abs(r - 1.0) > 0.01]
    f, grad, hess = circle_invariant_hamiltonian(poly, 3)
    V = rng.standard_normal(P.shape) + 1j * rng.standard_normal(P.shape)
    g = grad(P)
    df = _along(f, P, V)
    assert np.abs(np.real(np.sum(np.conj(g) * V, axis=1)) - df).max() <= 1e-9 * np.abs(df).max()
    H = hess(P, V[:, None, :])[:, 0]
    ref = _along(grad, P, V)
    assert np.abs(H - ref).max() <= 1e-9 * np.abs(ref).max()
    theta = np.exp(1j * rng.uniform(0, 2 * np.pi, (P.shape[0], 1)))
    assert np.abs(f(theta * P) - f(P)).max() <= 1e-13 * np.abs(f(P)).max()
    assert np.abs(grad(theta * P) - theta * g).max() <= 1e-13 * np.abs(g).max()


def test_cp_hamiltonian_field_derivative_matches_fd():
    # DX[V] = -i Hess f[V] / OMEGA_SCALE against an order-4 stencil of X
    # along V at step 1e-4, on rp2's patch nodes inside and outside the
    # q-ball cutoff, off its edge. X is tangent to the sphere
    # |z|^2 = c / gamma, whose function |z|^2 generates the circle f is
    # invariant under, and it vanishes where the cutoff does
    setup = cp_chart_setup(catalog_double("rp2"), 50, 0, spec)
    P = setup.patch.sample.points
    X = hamiltonian_vector_field(setup.grad, setup.hess)
    V = np.random.default_rng(22).standard_normal((P.shape[0], 2, 3)) + 0j
    got = X.derivative(P, V)
    q0 = circle_invariants(setup.patch.chart.value(np.zeros((1, 3))))[0]
    r = np.linalg.norm(circle_invariants(P) - q0, axis=1) / CP_CUTOFF_RADIUS
    off_edge = np.abs(r - 1.0) > 0.01
    for k in range(2):
        ref = _along(X, P[off_edge], V[off_edge, k])
        assert np.abs(got[off_edge, k] - ref).max() <= 1e-9 * np.abs(ref).max()
    Xv = X(P)
    assert np.abs(np.real(np.sum(np.conj(P) * Xv, axis=1))).max() <= 1e-14 * np.abs(Xv).max()
    outside = ~setup.grad(P).any(axis=1)
    assert outside.any() and not got[outside].any()


def test_cp_gradient_field_negative_control():
    # the gradient field of the same Hamiltonian, projected onto the sphere
    # (it is horizontal already: f is circle-invariant), is not a symplectic
    # variation, and the lifted CP^2 torus is not stationary for it: it
    # reads 0.076, 0.186 and 0.129 at seeds 0-2, where the Hamiltonian
    # field reads the rounding floor (at most 2.6e-16)
    D = catalog_double("cp2-torus")
    for seed in range(3):
        setup = cp_chart_setup(D, 50, seed, spec)

        def value(z):
            g = setup.grad(z)
            s = np.real(np.sum(np.conj(z) * g, axis=1)) / np.sum(np.abs(z) ** 2, axis=1)
            return g - s[:, None] * z

        def derivative(z, V):
            # Y = g - (s / r) z with s = Re <z, g>, r = |z|^2, by the product rule
            g, Dg = setup.grad(z), setup.hess(z, V)
            r = np.sum(np.abs(z) ** 2, axis=1)[:, None]
            s = np.real(np.sum(np.conj(z) * g, axis=1))[:, None]
            ds = np.real(np.sum(np.conj(V) * g[:, None, :] + np.conj(z)[:, None, :] * Dg, axis=2))
            dr = 2.0 * np.real(np.sum(np.conj(z)[:, None, :] * V, axis=2))
            return (Dg - ((ds * r - s * dr) / r**2)[:, :, None] * z[:, None, :]
                    - (s / r)[:, :, None] * V)

        P = setup.patch.sample.points
        vertical = np.real(np.sum(np.conj(1j * P) * setup.grad(P), axis=1))
        assert np.abs(vertical).max() <= 1e-13 * np.abs(setup.grad(P)).max()
        gradient = stationarity_ratio(setup.patch, VectorField(value, derivative))
        assert gradient > 50 * TOL_STATIONARITY, (seed, gradient)
        hamiltonian = hamiltonian_vector_field(setup.grad, setup.hess)
        assert stationarity_ratio(setup.patch, hamiltonian) < 1e-12


def test_cp_lagrangian_residuals():
    # the lift is Lagrangian in C^3, which is the reduced submanifold being
    # Lagrangian in CP^2; the sample of cp_chart_verify and fresh ones
    for name in ("cp2-torus", "rp2"):
        D = catalog_double(name)
        setup = cp_chart_setup(D, 25, 2, spec)
        assert lagrangian_residual(D.stacked, setup.sample).max() < 1e-14, name
    D = catalog_double("rp2")
    lift = TorusSpreadChart(D.stacked, np.array([1.0, 0.0, 0.0]))
    S = np.concatenate([0.3 * np.random.default_rng(2).uniform(-1, 1, (25, 2)),
                        np.zeros((25, 1))], axis=1)
    sample = ChartSample.at(lift, S, 1)
    assert lagrangian_residual(D.stacked, sample).max() < 1e-14


def test_cp_chart_jacobian_matches_stencil():
    # the lift charts' exact jacobians (the several-row circle spread of the
    # cp2 torus, the nearest-point chart of rp2) against a 4th-order stencil
    # of their values (and of their jacobians for the hessians) at step
    # 1e-4 on the Lagrangian residual's samples: measured at most 9.3e-13
    # of the largest entry
    for name in ("cp2-torus", "rp2"):
        sample = cp_chart_setup(catalog_double(name), 50, 0, spec).sample
        chart, S = sample.chart, sample.params
        J, H = chart.jacobian(S), chart.hessian(S)
        assert J.shape == (50, 3, 3)
        for exact, stencil in ((J, fd.jacobian(chart.value, S, 1e-4)),
                               (H, fd.jacobian(chart.jacobian, S, 1e-4))):
            assert np.abs(exact - stencil).max() < 1e-10 * np.abs(exact).max(), name


def test_cp_chart_degenerate_coordinate():
    # the lift has no pole: where a coordinate vanishes (the pole of the
    # affine chart dividing by it) it is a regular Lagrangian chart. On the
    # cp2 torus z_0 = 0 at angle pi/2; rp2's box reaches z_0 = 0 near its
    # corner (0.5, 0.5)
    D = catalog_double("cp2-torus")
    lift = cp2_torus_lift_chart(D)
    S = np.array([[np.pi / 2, 0.3, 0.7]])
    assert abs(lift.value(S)[0, 0]) < 1e-15
    pts = ChartSample.at(lift, S, 1)
    assert lagrangian_residual(D.stacked, pts)[0] < 1e-15
    patch = cp_chart_setup(catalog_double("rp2"), 50, 0, spec).patch
    near = np.abs(patch.sample.points[:, 0]).argmin()
    assert abs(patch.sample.points[near, 0]) < 0.05
    assert np.linalg.cond(patch.g[near]) < 1e3 and patch.elem[near] > 0.1


def test_catalog_unknown_names():
    with pytest.raises(KeyError):
        catalog_polytope("dodecahedron")
    with pytest.raises(KeyError):
        catalog_quadrics("three-quadrics:1,1,1")
    with pytest.raises(KeyError):
        catalog_double("cp3-torus")
