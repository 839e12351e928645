import numpy as np
import pytest

from momentangle.charts import (
    FunctionChart,
    NonConvergenceError,
    PolytopeChart,
    TorusSpreadChart,
    c2r,
    project_complex,
    project_real,
    r2c,
)
from momentangle.quadric_config import (
    QuadricConfiguration,
    gale_dual,
    membership_residual,
    membership_residuals,
)
from momentangle.reduction_catalog import (
    catalog_double,
    catalog_polytope,
    catalog_quadrics,
    ntilde_lagrangian_residual,
)
from momentangle.submanifold_numerics import (
    DEFAULT_SPEC,
    SAMPLE_REACH,
    ChartPatch,
    ChartSample,
    InvarianceError,
    MetricSpec,
    _curvature_batch,
    chart_N,
    chart_point,
    coarea_orbit_volume_check,
    first_variation_integral,
    frame_symplectic_residual,
    hamiltonian_field,
    hamiltonian_field_batch,
    hamiltonian_pairing_residual,
    hminimality_residual,
    lagrangian_residual,
    mean_curvature_ambient,
    minimality_residual_in_Z,
    noether_drift,
    omega_matrix,
    patch_volume,
    patch_volume_derivative,
    project_to_quadrics,
    real_base_point,
    sample_chart_points,
    stationarity_ratio,
    tangent_frame_N,
    tangent_frame_Z,
)
from momentangle import fd
from momentangle.quadrature import bump_poly
from momentangle.procedures import (
    _poly_scalar,
    _radial_cutoff,
    _random_matrix_field,
    ellipse_control,
    unequal_torus_control,
)
from momentangle.reduction_catalog import _cp_hamiltonian, one_quadric_torus_chart

spec = DEFAULT_SPEC
TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# Newton retraction


def test_projection_radial():
    Q = catalog_quadrics("one-quadric:3")
    z = project_to_quadrics(Q, np.array([1.1, 0, 0], complex))
    assert np.allclose(z, [1, 0, 0], atol=1e-12)
    z0 = np.array([0.6, 0.8, 0.0], complex)
    assert np.allclose(project_to_quadrics(Q, z0), z0, atol=1e-13)


def test_projection_stacked_two_quadrics():
    stacked = QuadricConfiguration.from_rows([(1, 1, 1), (1, 1, 2)], [2, 3])
    rng = np.random.default_rng(0)
    base = np.array([1.0, 0.0, 1.0])
    start = base + 0.05 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    z = project_complex(stacked, start)
    assert membership_residual(stacked, z) < 1e-12


def test_projection_nonconvergence():
    # the constraint gradients vanish at the origin: a zero Gram entry for one
    # quadric (the scalar Newton step), a singular Gram matrix for two
    for name in ("one-quadric:2", "two-quadrics:2,2"):
        Q = catalog_quadrics(name)
        with pytest.raises(NonConvergenceError):
            project_real(Q, np.zeros(Q.ambient_dim), max_iter=5)


# ---------------------------------------------------------------------------
# charts and frames


def test_chart_phase_examples():
    Q2 = QuadricConfiguration.from_rows([(1, 1)], [1])
    r = 1 / np.sqrt(2)
    p = chart_N(Q2, [r, r], [0.0], [0.25])
    assert np.allclose(p.point, [1j * r, 1j * r], atol=1e-12)
    p = chart_N(Q2, [r, r], [0.0], [0.0])
    assert np.allclose(p.point, [r, r], atol=1e-13)
    Q3 = catalog_quadrics("one-quadric:3")
    p = chart_N(Q3, [1, 0, 0], [0.0, 0.0], [0.5])
    assert np.allclose(p.point, [-1, 0, 0], atol=1e-12)


def _chart_configurations():
    """(Q, phase rows) for a one-, two- and three-quadric system and a stacked lift."""
    D = catalog_double("cp2-torus")
    return [
        (catalog_quadrics("one-quadric:3"), None),
        (catalog_quadrics("two-quadrics:2,2"), None),
        (gale_dual(catalog_polytope("cube:3")), None),
        (D.stacked, D.delta_cfg.gamma_float()),
    ]


def test_polytope_chart_derivatives_match_stencils():
    # the closed-form jacobian and hessian against 4th-order stencils of the
    # chart's own value, at sampled points
    rng = np.random.default_rng(21)
    for Q, rows in _chart_configurations():
        pts = sample_chart_points(Q, 10, rng, spec, phase_rows=rows)
        chart, S = pts.chart, pts.params
        assert isinstance(chart, PolytopeChart)
        J = chart.jacobian(S)
        H = chart.hessian(S)
        assert J.shape == (10, Q.ambient_dim, chart.dim)
        assert H.shape == (10, Q.ambient_dim, chart.dim, chart.dim)
        assert np.abs(J - fd.jacobian(chart.value, S, 1e-3, 4)).max() < 1e-8 * np.abs(J).max()
        assert np.abs(H - fd.hessian(chart.value, S, 1e-3, 4)).max() < 1e-7 * np.abs(H).max()
        assert np.array_equal(chart.jacobian(S, step=0.5, order=2), J)  # no step is read


def test_sampled_points_lie_on_the_quadrics_inside_the_margin():
    rng = np.random.default_rng(22)
    for Q, rows in _chart_configurations():
        pts = sample_chart_points(Q, 200, rng, spec, phase_rows=rows)
        assert len(pts) == 200
        assert membership_residuals(Q, pts.points).max() <= spec.tol_membership
        x = np.abs(pts.points) ** 2
        assert np.all(x >= (1.0 - SAMPLE_REACH) * pts.chart.x0 - 1e-14)
        # the divergence stencil (offsets up to 2 step_divergence in x) stays inside
        assert x.min() > 2.0 * spec.step_divergence
        assert np.allclose(pts.bases**2, x, rtol=1e-13, atol=0)
        p = pts[7]
        assert np.array_equal(p.point, pts.points[7]) and np.array_equal(p.base, pts.bases[7])
        assert len(pts[:5]) == 5
    # leaving the open orthant raises instead of returning a NaN
    chart = PolytopeChart(catalog_quadrics("one-quadric:2"), [0.5, 0.5])
    with pytest.raises(ValueError, match="open orthant"):
        chart.value(np.array([[1.0, 0.0]]))


# one-point-at-a-time residual formulas, the reference for the batched
# functions


def _pointwise_lagrangian(Q, p):
    J = p.chart.jacobian(p.params[None, :], spec.step_chart, spec.fd_order)[0]
    Qm, _ = np.linalg.qr(np.concatenate([J.real, J.imag], axis=0))
    return frame_symplectic_residual(r2c(Qm.T), spec)


def _pointwise_minimality(Q, p):
    H, Jr, _ = _curvature_batch(p.chart, p.params[None, :], spec)
    h = H[0]
    grads = c2r(2.0 * Q.gamma_float() * p.point[None, :])
    Qm, _ = np.linalg.qr(np.concatenate([Jr[0], grads.T], axis=1))
    return float(np.linalg.norm(h - Qm @ (Qm.T @ h)))


def _pointwise_hminimality(p):
    Om = omega_matrix(p.chart.ambient_dim, spec)

    def sqrtg_W(Sb):
        Hr, Jr, g = _curvature_batch(p.chart, Sb, spec)
        alpha = np.einsum("ni,ij,nja->na", Hr, Om, Jr)
        W = np.linalg.solve(g, alpha[..., None])[..., 0]
        return np.sqrt(np.linalg.det(g))[:, None] * W

    Jout = fd.jacobian(sqrtg_W, p.params[None, :], spec.step_divergence, spec.fd_order)[0]
    _, _, g0 = _curvature_batch(p.chart, p.params[None, :], spec)
    return abs(float(np.trace(Jout)) / float(np.sqrt(np.linalg.det(g0[0]))))


def _pointwise_ntilde(D, p):
    from momentangle.torus_actions import orbit_generators

    J = p.chart.jacobian(p.params[None, :], spec.step_chart, spec.fd_order)[0]
    Qo, _ = np.linalg.qr(c2r(orbit_generators(D.gamma_cfg, p.point)).T)
    cols = np.concatenate([J.real, J.imag], axis=0)
    Qh, R = np.linalg.qr(cols - Qo @ (Qo.T @ cols))
    diag = np.abs(np.diag(R))
    keep = diag > 1e-9 * max(1.0, diag.max())
    return frame_symplectic_residual(r2c(Qh[:, keep].T), spec)


def _spread_params(chart, rng, n=12):
    return np.concatenate(
        [0.15 * rng.uniform(-1, 1, (n, chart.nv)), rng.uniform(0, 1, (n, chart.nphi))], axis=1
    )


def _sample_at(chart, S):
    Z = chart.value(S)
    return ChartSample(chart, S, Z, np.abs(Z))


def _assert_matches(batched, reference):
    assert batched.shape == (len(reference),)
    assert np.all(np.abs(batched - reference) <= 1e-12 * np.maximum(1.0, np.abs(reference)))


def test_batched_residuals_match_per_point_formulas():
    rng = np.random.default_rng(23)
    Q3 = catalog_quadrics("one-quadric:3")
    spread = TorusSpreadChart(Q3, [0.8, 0.36, 0.48])
    S = _spread_params(spread, rng)

    # a non-Lagrangian, non-minimal surface, so the residuals are O(1); its map
    # is elementwise, so each point's value is the same in any batch (the
    # Newton retraction of a spread chart stops on the worst point of its batch)
    def skewed(Sb):
        a, b, ph = Sb[:, 0], Sb[:, 1], np.exp(2j * np.pi * Sb[:, 2])
        u = np.stack([np.cos(a), np.sin(a) * np.cos(b), np.sin(a) * np.sin(b)], axis=1)
        z = ph[:, None] * u
        return z + 0.3 * np.conj(z[:, [1, 2, 0]])

    skew = FunctionChart(skewed, 3, 3)
    for chart, Q_frame, params in ((spread, Q3, S), (skew, None, S + [0.7, 0.9, 0.0])):
        sample = _sample_at(chart, params)
        pts = list(sample)
        _assert_matches(lagrangian_residual(Q_frame, sample, spec),
                        np.array([_pointwise_lagrangian(Q_frame, p) for p in pts]))
        _assert_matches(minimality_residual_in_Z(Q3, sample, spec),
                        np.array([_pointwise_minimality(Q3, p) for p in pts]))
        _assert_matches(hminimality_residual(Q3, sample, spec),
                        np.array([_pointwise_hminimality(p) for p in pts]))
        if chart is skew:
            assert lagrangian_residual(None, sample, spec).min() > 1e-2

    D = catalog_double("cp2-torus")
    lift = TorusSpreadChart(D.stacked, real_base_point(D.stacked),
                            phase_rows=D.delta_cfg.gamma_float())
    sample = _sample_at(lift, _spread_params(lift, rng))
    _assert_matches(ntilde_lagrangian_residual(D, sample, spec),
                    np.array([_pointwise_ntilde(D, p) for p in sample]))
    # one point gives the float of the sample's first entry
    assert lagrangian_residual(Q3, sample_chart_points(Q3, 3, rng, spec)[0], spec) >= 0.0


def test_frame_orthonormal_and_annihilating():
    rng = np.random.default_rng(4)
    for name in ("one-quadric:3", "two-quadrics:2,2"):
        Q = catalog_quadrics(name)
        for p in sample_chart_points(Q, 5, rng, spec):
            fr = tangent_frame_N(Q, p, spec)
            V = np.concatenate([fr.vectors.real, fr.vectors.imag], axis=1)
            gram = V @ V.T
            assert np.abs(gram - np.eye(len(V))).max() < 1e-12
            grads = 2.0 * Q.gamma_float() * p.point[None, :]
            pairing = np.real(fr.vectors @ np.conj(grads).T)
            assert np.abs(pairing).max() < 1e-10


def test_lagrangian_residual_examples():
    Q2 = QuadricConfiguration.from_rows([(1, 1)], [1])
    r = 1 / np.sqrt(2)
    p = chart_N(Q2, [r, r], [0.0], [0.0])
    assert lagrangian_residual(Q2, p, spec) < 1e-13
    Q3 = catalog_quadrics("one-quadric:3")
    rng = np.random.default_rng(5)
    worst = max(lagrangian_residual(Q3, q, spec) for q in sample_chart_points(Q3, 100, rng, spec))
    assert worst < 1e-10
    # negative control: the quadric set itself is not Lagrangian
    z = sample_chart_points(Q3, 1, rng, spec)[0].point
    assert frame_symplectic_residual(tangent_frame_Z(Q3, z, spec), spec) > 0.1


def test_mean_curvature_examples():
    Q2 = QuadricConfiguration.from_rows([(1, 1)], [1])
    r = 1 / np.sqrt(2)
    p = chart_N(Q2, [r, r], [0.0], [0.0])
    H = mean_curvature_ambient(Q2, p, spec)
    assert np.allclose(H, [-np.sqrt(2), -np.sqrt(2)], atol=1e-7)
    assert abs(np.linalg.norm(c2r(H)) - 2.0) < 1e-7

    # circle of radius r in C: H = -z / r^2
    Q1 = QuadricConfiguration.from_rows([(1,)], [1])
    pc = chart_N(Q1, [1.0], [], [0.3])
    Hc = mean_curvature_ambient(Q1, pc, spec)
    assert np.allclose(Hc, -pc.point, atol=1e-8)


def test_mean_curvature_scaling_law():
    lam = 1.7
    Qa = QuadricConfiguration.from_rows([(1, 1)], [1])
    Qb = QuadricConfiguration.from_rows([(1, 1)], [lam**2])
    r = 1 / np.sqrt(2)
    pa = chart_N(Qa, [r, r], [0.0], [0.17])
    pb = chart_N(Qb, [lam * r, lam * r], [0.0], [0.17])
    Ha = mean_curvature_ambient(Qa, pa, spec)
    Hb = mean_curvature_ambient(Qb, pb, spec)
    assert np.allclose(Hb, Ha / lam, atol=1e-7)


def test_mean_curvature_is_normal():
    rng = np.random.default_rng(6)
    Q = catalog_quadrics("one-quadric:3")
    for p in sample_chart_points(Q, 10, rng, spec):
        H = mean_curvature_ambient(Q, p, spec)
        fr = tangent_frame_N(Q, p, spec)
        Hr = c2r(H)
        V = np.concatenate([fr.vectors.real, fr.vectors.imag], axis=1)
        assert np.abs(V @ Hr).max() < 1e-6


def test_minimality_residual_examples():
    Q2 = QuadricConfiguration.from_rows([(1, 1)], [1])
    r = 1 / np.sqrt(2)
    p = chart_N(Q2, [r, r], [0.0], [0.0])
    assert minimality_residual_in_Z(Q2, p, spec) < 1e-8
    Q3 = catalog_quadrics("one-quadric:3")
    rng = np.random.default_rng(7)
    worst = max(
        minimality_residual_in_Z(Q3, q, spec) for q in sample_chart_points(Q3, 100, rng, spec)
    )
    assert worst < 1e-4
    assert unequal_torus_control(spec) > 0.1


def test_conjugation_symmetry_of_residuals():
    # the involution acts on a spread chart by negating the phase parameters
    Q = catalog_quadrics("one-quadric:3")
    rng = np.random.default_rng(8)
    for p in sample_chart_points(Q, 5, rng, spec):
        params_c = p.params.copy()
        params_c[p.chart.nv :] *= -1.0
        pc = chart_point(p.chart, params_c, Q=Q, spec=spec)
        assert np.allclose(pc.point, np.conj(p.point), atol=1e-12)
        assert abs(lagrangian_residual(Q, p, spec) - lagrangian_residual(Q, pc, spec)) < 1e-10
        assert (
            abs(minimality_residual_in_Z(Q, p, spec) - minimality_residual_in_Z(Q, pc, spec))
            < 1e-10
        )


# ---------------------------------------------------------------------------
# Hamiltonian fields


def test_hamiltonian_field_linear():
    z = np.array([0.3 + 0.4j, 0.1 - 0.2j, 0.5 + 0.0j])
    f = lambda zz: zz[..., 0].real
    X = hamiltonian_field(f, z, spec)
    # i_X omega = d(Re z_1): with omega scaled so the moment map is exact,
    # X = (i pi) e_1 (the convention constant folded in)
    assert np.allclose(X, [1j * np.pi, 0, 0], atol=1e-9)
    assert hamiltonian_pairing_residual(f, z, X, spec) < 1e-8


def test_hamiltonian_field_constant_and_moment():
    z = np.array([0.5 + 0.1j, -0.2 + 0.3j])
    Xc = hamiltonian_field(lambda zz: 0.0 * zz[..., 0].real + 3.0, z, spec)
    assert np.abs(Xc).max() < 1e-9
    Xm = hamiltonian_field(lambda zz: np.abs(zz[..., 0]) ** 2, z, spec)
    assert np.allclose(Xm, [2j * np.pi * z[0], 0], atol=1e-9)  # first rotation circle


def _assert_gradient_matches_fd(f, grad, X):
    # the cutoffs are only C^3 at their edge, where the truncation error of a
    # wider stencil alone exceeds 1e-6 of the gradient's scale
    ref = fd.gradient(f, X, 1e-4, 4)
    assert np.abs(grad(X) - ref).max() <= 1e-6 * np.abs(ref).max()


def test_closed_form_hamiltonian_gradients():
    rng = np.random.default_rng(11)

    def real(pair):
        f, grad = pair
        return (lambda xr: f(r2c(xr))), (lambda xr: c2r(grad(r2c(xr))))

    # the global polynomial of the C^2 check
    _assert_gradient_matches_fd(*real(_poly_scalar(2, rng)), 2.0 * rng.standard_normal((50, 4)))

    # the radial cutoff of the C^3 check, inside, across the edge of and outside its ball
    poly = _poly_scalar(3, rng)
    x0, rho = rng.standard_normal(6), 0.4
    dirs = rng.standard_normal((300, 6))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = np.concatenate(
        [rng.uniform(0.0, 0.95, 100), rng.uniform(0.99, 1.01, 100), rng.uniform(1.05, 2.0, 100)]
    )
    X = x0 + rho * radii[:, None] * dirs
    f, grad = real(_radial_cutoff(poly, r2c(x0), rho))
    _assert_gradient_matches_fd(f, grad, X)
    assert not grad(X[200:]).any()

    # the tensor cutoff of the projective check, the same three ways along one axis
    lin = rng.standard_normal(4)
    quad = rng.standard_normal((4, 4))
    W0 = rng.standard_normal(4)
    t = rng.uniform(-0.95, 0.95, (300, 4))
    rows, axes = np.arange(100, 300), rng.integers(0, 4, 200)
    edge = np.concatenate([rng.uniform(0.99, 1.01, 100), rng.uniform(1.05, 2.0, 100)])
    t[rows, axes] = rng.choice([-1.0, 1.0], 200) * edge
    W = W0 + 0.42 * t
    f, grad = _cp_hamiltonian(lin, 0.5 * (quad + quad.T), W0)
    _assert_gradient_matches_fd(f, grad, W)
    assert not grad(W[200:]).any()


def test_hamiltonian_field_from_gradient_inverts_omega():
    # X = -i grad f / omega_scale is the solution of -Omega X = df
    rng = np.random.default_rng(12)
    for s in (spec, MetricSpec(omega_scale=2.5)):
        for m in (1, 3):
            G = rng.standard_normal((7, m)) + 1j * rng.standard_normal((7, m))
            ref = r2c(np.linalg.solve(-omega_matrix(m, s), c2r(G).T).T)
            Z = rng.standard_normal((7, m)) + 0j
            assert np.allclose(hamiltonian_field_batch(lambda _: G, Z, s), ref, rtol=1e-14, atol=0)
            X = hamiltonian_field(None, Z[0], s, grad=lambda _: G[0], check=False)
            assert np.allclose(X, ref[0], rtol=1e-14, atol=0)


def test_noether_drift():
    Q = catalog_quadrics("one-quadric:3")
    rng = np.random.default_rng(9)
    z = sample_chart_points(Q, 1, rng, spec)[0].point
    f = lambda zz: (np.abs(zz) ** 2).sum(axis=-1)
    assert noether_drift(Q, f, z, spec) < 1e-8
    fc = lambda zz: 0.0 * zz[..., 0].real + 1.0
    assert noether_drift(Q, fc, z, spec) < 1e-12
    with pytest.raises(InvarianceError):
        noether_drift(Q, lambda zz: zz[..., 0].real, z, spec)


# ---------------------------------------------------------------------------
# variations


def test_circle_first_variation():
    Q1 = QuadricConfiguration.from_rows([(1,)], [1])
    chart = TorusSpreadChart(Q1, [1.0], newton_tol=spec.newton_tol)
    patch = ChartPatch(chart=chart, lo=[0.0], hi=[1.0], nodes=32)
    radial = lambda z: z / np.abs(z)
    assert abs(patch_volume_derivative(patch, radial, spec) - TWO_PI) < 1e-4
    assert abs(first_variation_integral(patch, radial, spec) - TWO_PI) < 1e-4


def test_tangential_field_preserves_volume():
    Q2 = QuadricConfiguration.from_rows([(1, 1)], [1])
    chart = one_quadric_torus_chart(Q2)
    patch = ChartPatch(chart=chart, lo=[0.0, 0.0], hi=list(chart.periods), nodes=24)
    dv = patch_volume_derivative(patch, lambda z: 1j * z, spec)  # orbit direction
    assert abs(dv) < 1e-6


def _two_volume_derivative(patch, X):
    """Reference dVol/dt: two full deformed-volume evaluations at t = +-step."""
    chart = patch.chart

    def ambient_real(vals):
        return c2r(vals) if chart.ambient == "complex" else np.asarray(vals, dtype=float)

    def deformed(t):
        def fn(Sb):
            P = chart.value(Sb)
            field = np.asarray(X(P))
            bump = patch.bump_at(Sb).reshape(-1, *([1] * (P.ndim - 1)))
            return ambient_real(P + t * bump * field)

        return fn

    def vol(t):
        f = deformed(t)
        J = fd.jacobian(f, patch.S, spec.step_chart, spec.fd_order)
        if patch.ambient_metric is None:
            g = np.einsum("nia,nib->nab", J, J)
        else:
            g = np.einsum("nia,nij,njb->nab", J, patch.ambient_metric(f(patch.S)), J)
        return float(np.sum(patch.w * np.sqrt(np.linalg.det(g))))

    return (vol(spec.step) - vol(-spec.step)) / (2.0 * spec.step)


def test_volume_derivative_matches_two_volume_reference():
    # flat ambient: the C^2 torus patch under a bump and a random matrix field
    chart = one_quadric_torus_chart(catalog_quadrics("one-quadric:2"))
    patch = ChartPatch(chart=chart, lo=[0.3, 0.05], hi=[5.9, 0.95], nodes=24, bump_axes=(0, 1))
    X = _random_matrix_field(2, np.random.default_rng(3))
    ref = _two_volume_derivative(patch, X)
    assert abs(patch_volume_derivative(patch, X, spec) - ref) < 1e-9 * abs(ref)

    # metric ambient: rp2's affine chart with the reduced metric. RP^2 is
    # totally geodesic, so only an unbumped patch (boundary flux) has a
    # volume derivative that a relative comparison can see
    from momentangle.reduction_catalog import CpChart, catalog_double, cp_reduced_tensors
    from momentangle.submanifold_numerics import real_base_point

    D = catalog_double("rp2")
    lift = TorusSpreadChart(D.stacked, real_base_point(D.stacked),
                            phase_rows=D.delta_cfg.gamma_float(), newton_tol=spec.newton_tol)
    cp = CpChart(lift, 0)
    metric = lambda W: cp_reduced_tensors(D.gamma_cfg, W, 0, spec)[0]
    mpatch = ChartPatch(chart=cp, lo=[-0.5, -0.5], hi=[0.5, 0.5], nodes=40, ambient_metric=metric)
    A = np.random.default_rng(4).standard_normal((cp.ambient_dim, cp.ambient_dim))
    Xm = lambda W: W @ A.T + 0.3
    ref = _two_volume_derivative(mpatch, Xm)
    assert abs(patch_volume_derivative(mpatch, Xm, spec) - ref) < 1e-9 * abs(ref)


def test_stationarity_ratio_rejects_leaking_field():
    chart = one_quadric_torus_chart(catalog_quadrics("one-quadric:2"))
    patch = ChartPatch(chart=chart, lo=[0.3, 0.05], hi=[5.9, 0.95], nodes=12)
    with pytest.raises(RuntimeError):
        stationarity_ratio(patch, lambda z: 1j * z, spec, localized=True)
    # unlocalized, the same field is a global variation: a volume-preserving rotation
    assert stationarity_ratio(patch, lambda z: 1j * z, spec) < 1e-6


def test_stationarity_ratio_negative_controls():
    # the radial field z -> z scales the spread torus e^{2 pi i phi} (cos t, sin t),
    # so dVol/dt = 2 vol; its largest component modulus is 1, at cos t = +-1
    # (the Gauss-Legendre nodes come within 2.3e-4 of that)
    chart = one_quadric_torus_chart(catalog_quadrics("one-quadric:2"))
    patch = ChartPatch(chart=chart, lo=[0.0, 0.0], hi=list(chart.periods), nodes=24)
    assert abs(stationarity_ratio(patch, lambda z: z, spec) - 2.0) < 1e-3

    # a bump-localized radial field on the patch of the C^3 stationarity
    # report, under a wider and flatter cutoff than the report's Hamiltonians
    Q3 = catalog_quadrics("one-quadric:3")
    base = sample_chart_points(Q3, 1, np.random.default_rng(0), spec)[0].base
    chart3 = TorusSpreadChart(Q3, base, newton_tol=spec.newton_tol)
    patch3 = ChartPatch(chart=chart3, lo=[-0.65, -0.65, -0.15], hi=[0.65, 0.65, 0.15],
                        nodes=[20, 20, 36])
    z0 = chart3.value(np.zeros((1, 3)))[0]

    def radial(z):
        r = np.sqrt(np.sum(np.abs(z - z0) ** 2, axis=-1)) / 0.5
        return bump_poly(r, 2)[:, None] * z

    assert stationarity_ratio(patch3, radial, spec, localized=True) > 0.1


def test_equivariant_curvature_direction_consistency():
    # variation along (the in-quadric-set part of) the curvature direction:
    # for the balanced torus both the derivative and the squared-norm
    # quadrature vanish
    Q2 = QuadricConfiguration.from_rows([(1, 1)], [1])
    chart = one_quadric_torus_chart(Q2)
    patch = ChartPatch(
        chart=chart, lo=[0.5, 0.1], hi=[5.5, 0.9], nodes=20, bump_axes=(0, 1)
    )

    def in_Z_curvature_field(Z):
        # the chart parameters of ambient points; the sign of exp(2 pi i phi)
        # is the chart's deck transformation, so either root is the same point
        phi = np.angle(Z[:, 0] ** 2 + Z[:, 1] ** 2) / (4 * np.pi)
        turn = np.exp(-2j * np.pi * phi)
        theta = np.arctan2((Z[:, 1] * turn).real, (Z[:, 0] * turn).real)
        Sb = np.stack([theta, phi], axis=-1)
        Hr, Jr, _ = _curvature_batch(chart, Sb, spec)
        out = np.empty((Hr.shape[0], 2), complex)
        for i in range(Hr.shape[0]):
            grads = c2r(2.0 * Q2.gamma_float() * Z[i][None, :])
            stacked = np.concatenate([Jr[i], grads.T], axis=1)
            Qm, _ = np.linalg.qr(stacked)
            h = Hr[i] - Qm @ (Qm.T @ Hr[i])
            out[i] = h[:2] + 1j * h[2:]
        return out

    dv = patch_volume_derivative(patch, in_Z_curvature_field, spec)
    comp = first_variation_integral(patch, in_Z_curvature_field, spec)
    assert abs(dv) < 1e-3
    assert abs(comp) < 1e-3


def test_hminimality_examples():
    Q2 = QuadricConfiguration.from_rows([(1, 1)], [1])
    r = 1 / np.sqrt(2)
    p = chart_N(Q2, [r, r], [0.0], [0.0])
    assert hminimality_residual(Q2, p, spec) < 1e-4

    # circle: curvature constant, codifferential vanishes
    Q1 = QuadricConfiguration.from_rows([(1,)], [1])
    pc = chart_N(Q1, [1.0], [], [0.2])
    assert hminimality_residual(Q1, pc, spec) < 1e-6

    numeric, oracle = ellipse_control(spec=spec)
    assert numeric > 1e-2
    assert abs(numeric - oracle) / oracle < 1e-3


def test_coarea_identity():
    Q2 = catalog_quadrics("one-quadric:2")
    up, fib = coarea_orbit_volume_check(Q2, np.array([1.0, 0.0]), [-0.45], [0.55], nodes=20, spec=spec)
    assert abs(up - fib) / up < 1e-4
    Q3 = catalog_quadrics("one-quadric:3")
    up, fib = coarea_orbit_volume_check(
        Q3, np.array([1.0, 0.0, 0.0]), [-0.45, -0.4], [0.55, 0.5], nodes=16, spec=spec
    )
    assert abs(up - fib) / up < 1e-3
    # degenerate zero-width patch
    up, fib = coarea_orbit_volume_check(Q2, np.array([1.0, 0.0]), [0.2], [0.2], nodes=8, spec=spec)
    assert up == 0.0 and fib == 0.0


def test_coarea_nontrivial_dual_covolume():
    from momentangle.exact_linalg import IntegerMatrix

    Q = QuadricConfiguration(IntegerMatrix([[2, 2]], cols=2), [2])
    base = np.array([1.0, 1.0]) / np.sqrt(2)
    up, fib = coarea_orbit_volume_check(Q, base, [-0.4], [0.5], nodes=16, spec=spec)
    assert abs(up - fib) / up < 1e-6


def test_patch_volume_double_cover():
    Q2 = QuadricConfiguration.from_rows([(1, 1)], [1])
    from momentangle.reduction_catalog import one_quadric_torus_chart

    chart = one_quadric_torus_chart(Q2)
    patch = ChartPatch(chart=chart, lo=[0.0, 0.0], hi=list(chart.periods), nodes=24)
    # the (theta, phi) box covers the spread torus twice: 2 * 2 pi^2
    assert abs(patch_volume(patch, spec) - 4 * np.pi**2) < 1e-8


def test_frame_spans_expected_directions():
    # balanced-point frame of the spread circle spans {(-1,1)/sqrt2, (i,i)/sqrt2}
    Q2 = QuadricConfiguration.from_rows([(1, 1)], [1])
    r = 1 / np.sqrt(2)
    p = chart_N(Q2, [r, r], [0.0], [0.0])
    fr = tangent_frame_N(Q2, p, spec)
    V = np.concatenate([fr.vectors.real, fr.vectors.imag], axis=1)  # (2, 4)
    for target in (np.array([-1.0, 1.0, 0.0, 0.0]) / np.sqrt(2),
                   np.array([0.0, 0.0, 1.0, 1.0]) / np.sqrt(2)):
        coeffs = V @ target
        assert abs(np.linalg.norm(coeffs) - 1.0) < 1e-10  # target lies in the span

    # sphere chart at a coordinate point contains the rotation direction
    Q3 = catalog_quadrics("one-quadric:3")
    p3 = chart_N(Q3, [1.0, 0.0, 0.0], [0.0, 0.0], [0.0])
    fr3 = tangent_frame_N(Q3, p3, spec)
    V3 = np.concatenate([fr3.vectors.real, fr3.vectors.imag], axis=1)
    rot = np.zeros(6)
    rot[3] = 1.0  # the direction i * e_1
    assert abs(np.linalg.norm(V3 @ rot) - 1.0) < 1e-10


def test_project_to_quadrics_real_mode():
    Q = catalog_quadrics("one-quadric:3")
    u = project_to_quadrics(Q, np.array([1.2, 0.1, -0.3]), mode="real")
    assert u.dtype.kind == "f"
    assert abs((u * u).sum() - 1.0) < 1e-12


def test_chart_patch_rejects_dimension_above_four():
    # the tensor Gauss-Legendre rule is the only quadrature; no check builds
    # a patch of dimension above 4
    chart = FunctionChart(lambda S: S[:, :3].astype(complex), dim=5, ambient_dim=3)
    with pytest.raises(ValueError, match="dimension at most 4"):
        ChartPatch(chart=chart, lo=[0.0] * 5, hi=[1.0] * 5, nodes=4)
    four = FunctionChart(lambda S: S[:, :3].astype(complex), dim=4, ambient_dim=3)
    assert ChartPatch(chart=four, lo=[0.0] * 4, hi=[1.0] * 4, nodes=3).S.shape == (81, 4)
