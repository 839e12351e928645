from fractions import Fraction

import numpy as np
import pytest

from momentangle.charts import TorusSpreadChart, c2r, global_chart
from momentangle.quadric_config import (
    QuadricConfiguration,
    boundedness_check,
    membership_residuals,
    nondegeneracy_check,
)
from momentangle import fd
from momentangle.reduction_catalog import (
    StackValidationError,
    _horizontal_residual,
    catalog_double,
    catalog_polytope,
    catalog_quadrics,
    circle_invariant_hamiltonian,
    classify_N,
    cp_chart_setup,
    cp_chart_verify,
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
    hamiltonian_vector_field,
    lagrangian_residual,
    patch_volume_derivative,
    sample_chart_points,
    stationarity_ratio,
    tangent_frame_Z,
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


def _lift(D, base):
    """The lift's spread chart over ``base``, with the second system's phases only."""
    return TorusSpreadChart(D.stacked, base, phase_rows=D.delta_cfg.gamma_float())


def test_ntilde_chart_examples():
    D = catalog_double("cp2-torus")
    base = np.array([1.0, 0.0, 1.0])
    p = ChartSample.at(_lift(D, base), [0.0, 0.0], 2).on(D.stacked, spec)
    assert np.allclose(p.points, [base], atol=1e-13)
    p2 = ChartSample.at(_lift(D, base), [0.0, 0.5], 2).on(D.stacked, spec)
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
        p = ChartSample.at(_lift(D, base), np.concatenate([v, ph]), 2).on(D.stacked, spec)
        worst_mem = max(worst_mem, membership_residuals(D.stacked, p.points).max())
        worst_lag = max(worst_lag, ntilde_lagrangian_residual(D, p)[0])
    assert worst_mem < 1e-10
    assert worst_lag < 1e-8


def test_ntilde_negative_control():
    D = catalog_double("cp2-torus")
    p = ChartSample.at(_lift(D, np.array([1.0, 0.0, 1.0])), [0.1, 0.2], 2).on(D.stacked, spec)
    assert stacked_tangent_horizontal_residual(D, p.points)[0] > 0.1


@pytest.mark.parametrize("name", ["cp2-torus", "rp2"])
def test_horizontal_residual_reads_columns_at_any_scale(name):
    # the horizontal part of the stacked quadric set's tangent frame is not
    # Lagrangian downstairs, whatever the length of its columns: a column is
    # dropped only below 1e-9 of its own length, so a frame scaled by 1e-12
    # reads what the orthonormal one reads, where an absolute floor dropped
    # every column and read 0.0
    D = catalog_double(name)
    pts = sample_chart_points(D.stacked, 20, np.random.default_rng(0), spec,
                              phase_rows=D.delta_cfg.gamma_float(), order=1)
    frame = tangent_frame_Z(D.stacked, pts.points)
    unit = _horizontal_residual(D, pts.points, frame)
    assert unit.max() > 0.2
    for scale in (1e-6, 1e-12, 1e-18):
        assert np.allclose(_horizontal_residual(D, pts.points, scale * frame), unit, rtol=1e-12, atol=0.0), scale


def test_ntilde_residual_invariant_under_first_torus():
    D = catalog_double("cp2-torus")
    base = np.array([1.0, 0.0, 1.0])
    p = ChartSample.at(_lift(D, base), [0.15, 0.3], 2).on(D.stacked, spec)
    r0 = ntilde_lagrangian_residual(D, p)[0]
    rng = np.random.default_rng(3)
    for _ in range(3):
        phases = torus_point(D.gamma_cfg, rng.uniform(0, 1, 1))

        moved = FunctionChart(
            lambda S, ch=p.chart, ph=phases: ph * ch.value(S),
            p.chart.dim,
            p.chart.ambient_dim,
        )
        pm = ChartSample.at(moved, p.params, 1).on(D.stacked, spec)
        rm = ntilde_lagrangian_residual(D, pm)[0]
        assert abs(rm - r0) < 1e-10


def test_rp2_lift_is_lagrangian():
    D = catalog_double("rp2")
    base = np.array([1.0, 0.0, 0.0])
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = ChartSample.at(_lift(D, base), 0.3 * rng.uniform(-1, 1, 2), 2).on(D.stacked, spec)
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


def _node_counts(patch):
    """The nodes of a tensor-grid patch on each axis."""
    return [len(np.unique(patch.params[:, a])) for a in range(patch.chart.dim)]


def _lift_patch(name):
    """The setup of ``cp_chart_verify`` at seed 0 and its patch; rp2's shrunk
    to both angles in [-0.3, 0.3], away from the affine chart's pole z_0 = 0."""
    setup = cp_chart_setup(catalog_double(name), 0)
    patch = setup.patch
    if name == "rp2":
        patch = ChartPatch.grid(patch.chart, [-0.3, -0.3, 0.0], [0.3, 0.3, 1.0], [24, 24, 1], 1, (2,))
    return setup, patch


# the bound of each instance: 5 times rp2's tensor floor, and the cp2
# torus's 1e-9, 10 times its floor
REDUCED_TENSOR_BOUND = {"rp2": 1e-11, "cp2-torus": 1e-9}


@pytest.mark.parametrize("name", ["rp2", "cp2-torus"])
def test_cp_reduced_tensors_match_horizontal_lifts(name):
    # the reduced metric and form seen by the lift are the flat ones on the
    # horizontal part of its tangent vectors. The oracle pulls the
    # horizontal-lift tensors back through an affine chart of CP^2, whose
    # jacobian is a 4th-order stencil at step 1e-3 (measured: the tensors
    # agree to 2.0e-12 of the largest entry on rp2's shrunk patch and 1.0e-10
    # on the cp2 torus). The orbits on the sphere all have length
    # V_orb = 2 pi sqrt(c / gamma), so vol(reduced patch) = vol(lift patch)
    # / V_orb (measured, with the lift's area element prod diag L from the
    # Cholesky factor of its metric: 1.3e-12 and 5.2e-11 relative)
    bound = REDUCED_TENSOR_BOUND[name]
    D = catalog_double(name)
    _, patch = _lift_patch(name)
    chart, S, P = patch.chart, patch.params, patch.points
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

    J = patch.jet[1][:, :, rest]  # (N, 3, 2)
    vert = 1j * P / np.linalg.norm(P, axis=1, keepdims=True)
    Jh = J - vert[:, :, None] * np.real(np.einsum("ni,nia->na", np.conj(vert), J))[:, None, :]
    gram = np.einsum("nia,nib->nab", np.conj(Jh), Jh)
    scale = np.abs(gram).max()
    assert np.abs(g_red - gram.real).max() <= bound * scale
    assert np.abs(om_red - OMEGA_SCALE * gram.imag).max() <= bound * scale

    v_orb = orbit_volume(D.gamma_cfg, P)
    assert np.allclose(v_orb, 2 * np.pi * np.sqrt(float(D.gamma_cfg.c[0])), rtol=1e-14, atol=0)
    width = chart.hi[ax] - chart.lo[ax]  # the phase box [0, 1) of the circle, on both patches
    vol_red = np.sum(patch.w / width * np.sqrt(np.linalg.det(g_red)))
    assert abs(np.sum(patch.w * patch.area) / v_orb[0] - vol_red) <= bound * vol_red


@pytest.mark.parametrize("name", ["rp2", "cp2-torus"])
def test_cp_one_orbit_node_matches_several(name):
    # every integrand is constant along the first torus's circle, so one
    # node on its phase axis gives the volume and the derivative of four
    # (measured: to 3.4e-16 relative)
    setup = cp_chart_setup(catalog_double(name), 0)
    one = setup.patch
    nodes = _node_counts(one)
    nodes[GAMMA_AXIS[name]] = 4
    four = ChartPatch.over(one.chart, nodes, order=1)
    X = hamiltonian_vector_field(setup.grad, setup.hess)
    one_vol, four_vol = (np.sum(patch.w * patch.area) for patch in (one, four))
    assert abs(one_vol - four_vol) <= 1e-14 * one_vol
    dvol_gap = patch_volume_derivative(one, X) - patch_volume_derivative(four, X)
    assert abs(dvol_gap) <= 1e-14 * one_vol * np.abs(X(one.points)).max()


def _along(F, P, V, step=1e-4):
    """Order-4 central difference of F at the points P along the directions V (one per point)."""
    offs, wts = fd._D1
    return sum(w * np.asarray(F(P + o * step * V)) for o, w in zip(offs, wts)) / step


@pytest.mark.parametrize("name", ["rp2", "cp2-torus"])
def test_cp_invariant_hamiltonian_derivatives_match_fd(name):
    # the chain rule through q(z) = (conj(z_k) z_l)_{k<=l}: the packed
    # gradient against an order-4 stencil of f, and the Hessian against one
    # of the gradient, along random complex directions at step 1e-4 on the
    # patch nodes. f is invariant under the diagonal circle and its
    # gradient is equivariant
    setup = cp_chart_setup(catalog_double(name), 0)
    P = setup.patch.points
    rng = np.random.default_rng(23)
    f, grad, hess = circle_invariant_hamiltonian(_poly_scalar(6, rng), 3)
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
    # along V at step 1e-4, on rp2's patch nodes. X is tangent to the
    # sphere |z|^2 = c / gamma, whose function |z|^2 generates the circle f
    # is invariant under
    setup = cp_chart_setup(catalog_double("rp2"), 0)
    P = setup.patch.points
    X = hamiltonian_vector_field(setup.grad, setup.hess)
    V = np.random.default_rng(22).standard_normal((P.shape[0], 2, 3)) + 0j
    got = X.derivative(P, V)
    for k in range(2):
        ref = _along(X, P, V[:, k])
        assert np.abs(got[:, k] - ref).max() <= 1e-9 * np.abs(ref).max()
    Xv = X(P)
    assert np.abs(np.real(np.sum(np.conj(P) * Xv, axis=1))).max() <= 1e-14 * np.abs(Xv).max()


def _sphere_gradient_field(grad, hess) -> VectorField:
    """The gradient field of a Hamiltonian, projected onto the sphere."""

    def value(z):
        g = grad(z)
        s = np.real(np.sum(np.conj(z) * g, axis=1)) / np.sum(np.abs(z) ** 2, axis=1)
        return g - s[:, None] * z

    def derivative(z, V):
        # Y = g - (s / r) z with s = Re <z, g>, r = |z|^2, by the product rule
        g, Dg = grad(z), hess(z, V)
        r = np.sum(np.abs(z) ** 2, axis=1)[:, None]
        s = np.real(np.sum(np.conj(z) * g, axis=1))[:, None]
        ds = np.real(np.sum(np.conj(V) * g[:, None, :] + np.conj(z)[:, None, :] * Dg, axis=2))
        dr = 2.0 * np.real(np.sum(np.conj(z)[:, None, :] * V, axis=2))
        return (Dg - ((ds * r - s * dr) / r**2)[:, :, None] * z[:, None, :]
                - (s / r)[:, :, None] * V)

    return VectorField(value, derivative)


def test_cp_gradient_field_negative_control():
    # neither the radial field z -> z, which scales the lift, nor the
    # gradient field of a circle-invariant Hamiltonian, projected onto the
    # sphere (it is horizontal already), is a symplectic variation, and the
    # lifted CP^2 torus is not stationary for them: over the whole lift the
    # radial field reads 3.00, the lift's dimension, at seeds 0-2, and the
    # worst of three gradient draws per seed 0.661, 0.161 and 0.852 (one
    # draw reads 0.030: a single draw can come out nearly volume-preserving),
    # where the Hamiltonian field of every draw reads the rounding floor (at
    # most 5.5e-16)
    D = catalog_double("cp2-torus")
    m = D.ambient_dim
    radial = VectorField(lambda z: z, lambda z, V: V)
    for seed in range(3):
        setup = cp_chart_setup(D, seed)
        P = setup.patch.points
        ratio = stationarity_ratio(setup.patch, radial)
        assert ratio > 50 * TOL_STATIONARITY, (seed, ratio)
        rng = np.random.default_rng([seed, 1])
        draws = [(setup.grad, setup.hess)] + [
            circle_invariant_hamiltonian(_poly_scalar(m * (m + 1) // 2, rng), m)[1:] for _ in range(2)
        ]
        ratios = []
        for grad, hess in draws:
            vertical = np.real(np.sum(np.conj(1j * P) * grad(P), axis=1))
            assert np.abs(vertical).max() <= 1e-13 * np.abs(grad(P)).max()
            ratios.append(stationarity_ratio(setup.patch, _sphere_gradient_field(grad, hess)))
            assert stationarity_ratio(setup.patch, hamiltonian_vector_field(grad, hess)) < 1e-12
        assert max(ratios) > 50 * TOL_STATIONARITY, (seed, ratios)


def test_cp_stationarity_reads_the_floor_at_small_levels():
    # c -> lam c scales the lift by sqrt(lam), and the stationarity ratio
    # reads its rounding floor at every scale: at lam = 1e-18 at most 1.2e-16
    # over seeds 0-4. A ratio over integral |X| dA alone would grow like
    # lam^-1/2, to 8.0e-8 here
    D = catalog_double("cp2-torus")
    lam = Fraction(1, 10**18)

    def scaled(Q):
        return QuadricConfiguration(Q.gamma, [lam * c for c in Q.c])

    small = stack_double(scaled(D.gamma_cfg), scaled(D.delta_cfg))
    for seed in range(5):
        record = cp_chart_verify(small, seed=seed).records[1]
        assert record.name == "cp-hamiltonian-stationarity"
        assert record.residual <= 1e-14, (seed, record.residual)


def test_cp_lagrangian_residuals():
    # the lift is Lagrangian in C^3, which is the reduced submanifold being
    # Lagrangian in CP^2; the patch nodes cp_chart_verify reads and fresh points
    for name in ("cp2-torus", "rp2"):
        D = catalog_double(name)
        patch = cp_chart_setup(D, 0).patch
        assert lagrangian_residual(D.stacked, patch).max() < 1e-14, name
    D = catalog_double("rp2")
    lift = TorusSpreadChart(D.stacked, np.array([1.0, 0.0, 0.0]))
    S = np.concatenate([0.3 * np.random.default_rng(2).uniform(-1, 1, (25, 2)),
                        np.zeros((25, 1))], axis=1)
    sample = ChartSample.at(lift, S, 1)
    assert lagrangian_residual(D.stacked, sample).max() < 1e-14


def test_cp_chart_jacobian_matches_stencil():
    # the lift charts' exact jacobians (the global charts of the stacked
    # systems) against a 4th-order stencil of their values (and of their
    # jacobians for the hessians) at step 1e-4 on the nodes the Lagrangian
    # residual reads (5 x 1 x 3 on the cp2 torus, 12 x 5 x 1 on rp2):
    # measured at most 8.7e-13 of the largest entry
    for name, size in (("cp2-torus", 15), ("rp2", 60)):
        patch = cp_chart_setup(catalog_double(name), 0).patch
        chart, S = patch.chart, patch.params
        J, H = chart.jacobian(S), chart.hessian(S)
        assert J.shape == (size, 3, 3)
        for exact, stencil in ((J, fd.jacobian(chart.value, S, 1e-4)),
                               (H, fd.jacobian(chart.jacobian, S, 1e-4))):
            assert np.abs(exact - stencil).max() < 1e-10 * np.abs(exact).max(), name


def test_cp_patch_resolves_the_top_phase_frequency():
    # the Hamiltonian is quadratic in the circle invariants q, each q_kl of
    # frequency R_jl - R_jk along phase j, R the lift chart's phase rows: the
    # rows of D Gamma, D the dual basis. The stack of delta (-1, -1, 5) has
    # lattice index 6, and its second phase row is (-1, -1, 0), so the
    # integrands reach 2 along it. At 3 nodes, one more than that degree, as
    # ``node_counts`` gives, the records read the rounding floor (measured at
    # most 3.6e-16 at seeds 0-4); at 2 nodes the stationarity record reads
    # 0.012-0.26. The circle takes one node, and so do the catalog lifts:
    # the cp2 torus takes 3 on its second phase, and rp2 has none. Every
    # azimuth of a lift turns two equal columns and takes 5 nodes, one more
    # than the degree 4 of a quadratic in q
    D = stack_double(QuadricConfiguration.from_rows([(1, 1, 1)], [1]),
                     QuadricConfiguration.from_rows([(-1, -1, 5)], [Fraction(-1, 2)]))
    patch = cp_chart_setup(D, 0).patch
    assert patch.chart.kinds == ("azimuth", "phase", "phase")
    assert patch.chart.phase_rows.tolist() == [[1, 1, 1], [-1, -1, 0]]
    for name, nodes in (("cp2-torus", [5, 1, 3]), ("rp2", [12, 5, 1])):
        assert _node_counts(cp_chart_setup(catalog_double(name), 0).patch) == nodes, name
    aliased = []
    for seed in range(5):
        setup = cp_chart_setup(D, seed)
        assert _node_counts(setup.patch) == [5, 1, 3]
        assert max(r.residual for r in cp_chart_verify(D, seed).records) <= 1e-14, seed
        two = ChartPatch.over(setup.patch.chart, [5, 1, 2], order=1)
        aliased.append(stationarity_ratio(two, hamiltonian_vector_field(setup.grad, setup.hess)))
    assert max(aliased) > 10 * TOL_STATIONARITY, aliased


def test_cp_chart_degenerate_coordinate():
    # the lift has no pole: where a coordinate vanishes (the pole of the
    # affine chart dividing by it) it is a regular Lagrangian chart. On the
    # cp2 torus z_0 = 0 at angle pi/2; on rp2's lift z_0 = 0 at the azimuth
    # pi/2, which none of its patch's 5 azimuth nodes lands on: there, at
    # the patch's polar nodes, the node nearest the equator is regular
    D = catalog_double("cp2-torus")
    lift = global_chart(D.stacked)
    S = np.array([[np.pi / 2, 0.3, 0.7]])
    assert abs(lift.value(S)[0, 0]) < 1e-15
    pts = ChartSample.at(lift, S, 1)
    assert lagrangian_residual(D.stacked, pts)[0] < 1e-15
    D = catalog_double("rp2")
    patch = cp_chart_setup(D, 0).patch
    polar = np.unique(patch.params[:, 0])
    pts = ChartSample.at(patch.chart, np.column_stack([polar, np.full_like(polar, np.pi / 2), 0 * polar]), 1)
    assert np.abs(pts.points[:, 0]).max() < 1e-15
    assert lagrangian_residual(D.stacked, pts).max() < 1e-15
    near = np.argmax(pts.area)
    assert np.linalg.cond(pts.metric[near]) < 1e3 and pts.area[near] > 0.1


def test_catalog_unknown_names():
    with pytest.raises(KeyError):
        catalog_polytope("dodecahedron")
    with pytest.raises(KeyError):
        catalog_quadrics("three-quadrics:1,1,1")
    with pytest.raises(KeyError):
        catalog_double("cp3-torus")
