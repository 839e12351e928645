import numpy as np
import pytest

from momentangle.charts import (
    CircleSpreadChart,
    NonConvergenceError,
    PolytopeChart,
    TorusSpreadChart,
    c2r,
    r2c,
)
from momentangle.quadric_config import (
    QuadricConfiguration,
    gale_dual,
    membership_residuals,
)
from momentangle.reduction_catalog import (
    catalog_double,
    catalog_polytope,
    catalog_quadrics,
    ntilde_lagrangian_residual,
)
from momentangle import submanifold_numerics
from momentangle.submanifold_numerics import (
    DEFAULT_SPEC,
    SAMPLE_REACH,
    ChartPatch,
    ChartSample,
    InvarianceError,
    VectorField,
    _curvature_batch,
    _poly_scalar,
    _radial_cutoff,
    chart_N,
    chart_point,
    coarea_orbit_volume_check,
    first_variation_integral,
    frame_symplectic_residual,
    hamiltonian_field_batch,
    hminimality_residual,
    lagrangian_residual,
    minimality_residual_in_Z,
    noether_drift,
    omega_matrix,
    omega_pair,
    patch_volume,
    patch_volume_derivative,
    real_base_point,
    sample_chart_points,
    stationarity_ratio,
    tangent_frame_Z,
    tangent_frames,
)
from momentangle import fd
from momentangle.quadrature import box_bump, box_bump_gradient
from momentangle.procedures import (
    _noether_hamiltonians,
    _random_matrix_field,
    ellipse_control,
    unequal_torus_control,
)
from momentangle.reduction_catalog import one_quadric_torus_chart
from stencil_chart import FunctionChart

spec = DEFAULT_SPEC
TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# the nearest-point spread chart


def _spread_charts():
    """(name, chart, v half-width) for the spread charts the checks build: the
    (1, 2, 1) ellipsoid of bad-triangle at its stationarity base, the cp2
    stack with the delta rows, two quadrics in C^4, and a base on the
    boundary of the orthant."""
    Qe = gale_dual(catalog_polytope("bad-triangle"))
    D = catalog_double("cp2-torus")
    Q22 = catalog_quadrics("two-quadrics:2,2")
    return [
        ("ellipsoid", TorusSpreadChart(Qe, sample_chart_points(Qe, 1, np.random.default_rng(0), spec, order=0).bases[0]),
         0.65),
        ("cp2 stack", TorusSpreadChart(D.stacked, real_base_point(D.stacked), phase_rows=D.delta_cfg.gamma_float()), 0.35),
        ("two-quadrics:2,2", TorusSpreadChart(Q22, real_base_point(Q22)), 0.3),
        ("boundary base", TorusSpreadChart(catalog_quadrics("one-quadric:3"), [1.0, 0.0, 0.0]), 0.5),
    ]


def _box_params(chart, rng, half, n=20):
    return np.concatenate(
        [half * rng.uniform(-1, 1, (n, chart.nv)), rng.uniform(0, 1, (n, chart.nphi))], axis=1
    )


def test_spread_chart_derivatives_match_stencils():
    # the implicit-function jacobian, hessian and third derivative against
    # 4th-order stencils at step 1e-3 (of the chart's value, and of its
    # hessian for the third), relative to their largest entry: measured at
    # most 8.3e-10 (jacobian), 2.8e-10 (hessian) and 8.3e-10 (third), the
    # stencil's own error. The jacobian's and the third's errors fall 16-fold
    # per halving of the step (h^4), from 1.3e-8 at 2e-3 to 5.2e-11 at 5e-4;
    # below 1e-3 the hessian's stencil reads the 1e-14 Newton residual
    # through its 1 / h^2
    rng = np.random.default_rng(31)
    for name, chart, half in _spread_charts():
        S = _box_params(chart, rng, half)
        _, J, H, T = chart.jet(S, 3)
        assert J.shape == (20, chart.ambient_dim, chart.dim)
        assert T.shape == (20, chart.ambient_dim, chart.dim, chart.dim, chart.dim)
        assert np.abs(J - fd.jacobian(chart.value, S, 1e-3)).max() < 2e-9 * np.abs(J).max(), name
        assert np.abs(H - fd.hessian(chart.value, S, 1e-3)).max() < 1e-9 * np.abs(H).max(), name
        assert np.abs(T - fd.jacobian(chart.hessian, S, 1e-3)).max() < 2e-9 * np.abs(T).max(), name
        assert np.abs(H - np.swapaxes(H, 2, 3)).max() <= 1e-15 * np.abs(H).max(), name
        for axes in ((2, 3), (3, 4)):  # measured at most 7e-19
            assert np.abs(T - np.swapaxes(T, *axes)).max() <= 1e-15 * np.abs(T).max(), name
        assert membership_residuals(chart.project_cfg, chart.value(S)).max() < 1e-13, name


def test_projection_radial():
    # the spread chart's u(v) is the nearest point of the real locus to
    # p = u0 + T v: u - p lies in the span of the normals gamma_j * u, and on
    # a sphere of radius r the nearest point is r p / |p|
    rng = np.random.default_rng(32)
    for name, chart, half in _spread_charts():
        V = half * rng.uniform(-1, 1, (20, chart.nv))
        U = chart.value(np.concatenate([V, np.zeros((20, chart.nphi))], axis=1)).real
        P = chart.u0 + V @ chart.tangent
        for u, p in zip(U, P):
            normals = chart.G * u  # (k, m)
            coef, *_ = np.linalg.lstsq(normals.T, u - p, rcond=None)
            assert np.abs(normals.T @ coef - (u - p)).max() < 1e-15, name  # measured 1.1e-16
    sphere = TorusSpreadChart(QuadricConfiguration.from_rows([(2, 2, 2)], [3]), [0.6, 0.0, np.sqrt(1.5 - 0.36)])
    V = rng.uniform(-1, 1, (20, 2))
    U = sphere.value(np.concatenate([V, np.zeros((20, 1))], axis=1)).real
    P = sphere.u0 + V @ sphere.tangent
    # to Newton's stopping residual 1e-14 * (1 + c): measured 5.2e-15
    r = np.sqrt(1.5)
    assert np.abs(U - r * P / np.linalg.norm(P, axis=1)[:, None]).max() < 2e-14


def test_projection_stacked_two_quadrics():
    # the stacked cp2 system: the base on the boundary of the orthant is a
    # fixed point, and nearby parameters land on both quadrics
    D = catalog_double("cp2-torus")
    chart = TorusSpreadChart(D.stacked, [1.0, 0.0, 1.0], phase_rows=D.delta_cfg.gamma_float())
    assert np.array_equal(chart.value(np.zeros((1, 2)))[0], [1.0, 0.0, 1.0])
    S = _box_params(chart, np.random.default_rng(0), 0.4)
    assert membership_residuals(D.stacked, chart.value(S)).max() < 1e-13


def test_projection_nonconvergence():
    # a base where the constraint gradients vanish (the origin of a cone, for
    # one quadric and for two) is rejected; a p on the medial axis of a
    # hyperbola has two nearest points, and Newton on the multipliers stalls
    from momentangle.charts import _solve_small

    for rows, c in (([(1, -1)], [0]), ([(1, 1, -1, -1), (1, -1, 1, -1)], [0, 0])):
        Q = QuadricConfiguration.from_rows(rows, c)
        with pytest.raises(NonConvergenceError, match="degenerate"):
            TorusSpreadChart(Q, np.zeros(Q.ambient_dim))
    for rows, c, u0 in (([(1, -1)], [1], [np.sqrt(2.0), 1.0]),
                        ([(1, -1, 0), (0, 0, 1)], [1, 1], [np.sqrt(2.0), 1.0, 1.0])):
        chart = TorusSpreadChart(QuadricConfiguration.from_rows(rows, c), u0)
        v = -chart.u0[0] / chart.tangent[0, 0]  # p = (0, -1, ...)
        with np.errstate(all="ignore"), pytest.raises(NonConvergenceError, match="stalled"):
            chart.value(np.concatenate([[[v]], np.zeros((1, chart.nphi))], axis=1))
    # a singular Gram system: a zero entry for one quadric, a singular matrix for two
    for k in (1, 2):
        with pytest.raises(NonConvergenceError, match="singular"):
            _solve_small(np.zeros((3, k, k)), np.ones((3, k, 1)))


def test_projection_of_a_point_does_not_depend_on_its_batch():
    # each point stops stepping once its own residual converges, so its
    # value is bit-identical alone and beside far-off points
    rng = np.random.default_rng(5)
    for name in ("one-quadric:3", "two-quadrics:2,2"):
        Q = catalog_quadrics(name)
        chart = TorusSpreadChart(Q, real_base_point(Q))
        s = _box_params(chart, rng, 0.05, n=1)
        far = _box_params(chart, rng, 0.6, n=7)
        alone = chart.value(s)[0]
        assert np.array_equal(chart.value(np.vstack([far[:3], s, far[3:]]))[3], alone)


# ---------------------------------------------------------------------------
# charts and frames


def test_chart_phase_examples():
    Q2 = QuadricConfiguration.from_rows([(1, 1)], [1])
    r = 1 / np.sqrt(2)
    p = chart_N(Q2, [r, r], [0.0], [0.25])
    assert np.allclose(p.points, [[1j * r, 1j * r]], atol=1e-12)
    p = chart_N(Q2, [r, r], [0.0], [0.0])
    assert np.allclose(p.points, [[r, r]], atol=1e-13)
    Q3 = catalog_quadrics("one-quadric:3")
    p = chart_N(Q3, [1, 0, 0], [0.0, 0.0], [0.5])
    assert np.allclose(p.points, [[-1, 0, 0]], atol=1e-12)


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
    # chart's own value, and the third derivative against a 4th-order
    # stencil of the exact hessian (measured at most 8.3e-10), at sampled
    # points
    rng = np.random.default_rng(21)
    for Q, rows in _chart_configurations():
        pts = sample_chart_points(Q, 10, rng, spec, phase_rows=rows, order=3)
        chart, S = pts.chart, pts.params
        assert isinstance(chart, PolytopeChart)
        _, J, H, T = pts.jet
        assert J.shape == (10, Q.ambient_dim, chart.dim)
        assert H.shape == (10, Q.ambient_dim, chart.dim, chart.dim)
        assert T.shape == (10, Q.ambient_dim, chart.dim, chart.dim, chart.dim)
        assert np.abs(J - fd.jacobian(chart.value, S, 1e-3)).max() < 1e-8 * np.abs(J).max()
        assert np.abs(H - fd.hessian(chart.value, S, 1e-3)).max() < 1e-7 * np.abs(H).max()
        assert np.abs(T - fd.jacobian(chart.hessian, S, 1e-3)).max() < 1e-7 * np.abs(T).max()
        for axes in ((2, 3), (3, 4)):  # symmetric up to the order of its sums
            assert np.abs(T - np.swapaxes(T, *axes)).max() <= 1e-14 * np.abs(T).max()


def test_torus_chart_derivatives_match_stencils():
    # the closed-form cos/sin-times-phase derivatives against 4th-order
    # stencils of the chart's value (and of its hessian for the third),
    # relative to their largest entry: measured 5.2e-11 (jacobian),
    # 3.7e-11 (hessian) and 5.2e-11 (third) on one-quadric:2, 8.3e-10,
    # 2.8e-10 and 8.3e-10 on gamma (2, 2) with c = 3, whose phase turns
    # twice as fast (3.3e-10 and 1.5e-9 absolute on one-quadric:2)
    from momentangle.exact_linalg import IntegerMatrix

    rng = np.random.default_rng(24)
    for Q in (catalog_quadrics("one-quadric:2"), QuadricConfiguration(IntegerMatrix([[2, 2]], cols=2), [3])):
        chart = one_quadric_torus_chart(Q)
        S = rng.uniform(0.0, 1.0, (40, 2)) * chart.periods
        _, J, H, T = chart.jet(S, 3)
        assert np.abs(J - fd.jacobian(chart.value, S, 1e-3)).max() < 2e-9 * np.abs(J).max()
        assert np.abs(H - fd.hessian(chart.value, S, 1e-3)).max() < 1e-9 * np.abs(H).max()
        assert np.abs(T - fd.jacobian(chart.hessian, S, 1e-3)).max() < 2e-9 * np.abs(T).max()
        for axes in ((2, 3), (3, 4)):  # measured exactly symmetric
            assert np.abs(T - np.swapaxes(T, *axes)).max() <= 1e-15 * np.abs(T).max()
        assert membership_residuals(Q, chart.value(S)).max() < 1e-14
        shifted = chart.value(S + chart.periods * rng.integers(-2, 3, (40, 2)))
        assert np.abs(shifted - chart.value(S)).max() < 1e-13


def test_a_jet_holds_each_lower_order_bit_for_bit():
    # one jet through third order gives exactly the z, J and H of the lower
    # orders, on the polytope charts, the nearest-point chart of the rp2 lift
    # and the circle spread of the C^2 torus
    rng = np.random.default_rng(25)
    D = catalog_double("rp2")
    charts = [sample_chart_points(catalog_quadrics(name), 1, rng, spec, order=0).chart
              for name in ("one-quadric:3", "two-quadrics:2,2")]
    charts += [TorusSpreadChart(D.stacked, real_base_point(D.stacked)),
               one_quadric_torus_chart(catalog_quadrics("one-quadric:2"))]
    for chart in charts:
        S = _box_params(chart, rng, 0.2)
        third = chart.jet(S, 3)
        for n in range(3):
            assert all(np.array_equal(a, b) for a, b in zip(third[: n + 1], chart.jet(S, n), strict=True)), (chart, n)
        assert np.array_equal(third[1], chart.jacobian(S)) and np.array_equal(third[2], chart.hessian(S))


def test_base_point_lp_runs_once_per_configuration(monkeypatch):
    from momentangle import lp

    calls = []
    solve = lp.positive_combination
    monkeypatch.setattr(lp, "positive_combination", lambda *args: calls.append(args) or solve(*args))
    Q = QuadricConfiguration.from_rows([(1, 1, 2)], [3])
    first = sample_chart_points(Q, 5, np.random.default_rng(0), spec, order=0)
    again = sample_chart_points(Q, 5, np.random.default_rng(0), spec, order=0)
    assert len(calls) == 1
    assert np.array_equal(first.points, again.points)
    assert np.array_equal(real_base_point(Q), np.sqrt([float(x) for x in solve(*calls[0])]))


def test_sampled_points_lie_on_the_quadrics_inside_the_margin():
    rng = np.random.default_rng(22)
    for Q, rows in _chart_configurations():
        pts = sample_chart_points(Q, 200, rng, spec, phase_rows=rows, order=0)
        assert len(pts) == 200
        assert membership_residuals(Q, pts.points).max() <= spec.tol_membership
        x = np.abs(pts.points) ** 2
        assert np.all(x >= (1.0 - SAMPLE_REACH) * pts.chart.x0 - 1e-14)
        assert np.allclose(pts.bases**2, x, rtol=1e-13, atol=0)
        p = pts[7:8]
        assert np.array_equal(p.points, pts.points[7:8]) and np.array_equal(p.bases, pts.bases[7:8])
        assert len(pts[:5]) == 5
        # a sample holds no single points: an integer index raises
        with pytest.raises(TypeError, match="slices"):
            pts[7]
    # leaving the open orthant raises instead of returning a NaN
    chart = PolytopeChart(catalog_quadrics("one-quadric:2"), [0.5, 0.5])
    with pytest.raises(ValueError, match="open orthant"):
        chart.value(np.array([[1.0, 0.0]]))


# one-point-at-a-time residual formulas, the reference for the batched
# functions; each takes a one-point sample


def _pointwise_lagrangian(Q, p):
    J = p.chart.jacobian(p.params)[0]
    Qm, _ = np.linalg.qr(np.concatenate([J.real, J.imag], axis=0))
    return frame_symplectic_residual(r2c(Qm.T))


def _curvature(chart, S):
    """(H_real, Jr, g) of ``chart`` at S, from its jet as a sample's checks read it."""
    _, J, Hess = chart.jet(S, 2)
    Jr = np.concatenate([J.real, J.imag], axis=-2)
    g = np.einsum("nia,nib->nab", Jr, Jr)
    return _curvature_batch(Jr, g, Hess), Jr, g


def _pointwise_minimality(Q, p):
    H, Jr, _ = _curvature(p.chart, p.params)
    h = H[0]
    grads = c2r(2.0 * Q.gamma_float() * p.points)
    Qm, _ = np.linalg.qr(np.concatenate([Jr[0], grads.T], axis=1))
    return float(np.linalg.norm(h - Qm @ (Qm.T @ h)))


# the outer step of the stencil codifferential, kept as an oracle
STEP_DIVERGENCE = 3e-3


def _pointwise_hminimality(p):
    """|delta(i_H omega)| by a stencil of sqrt(g) W over the chart parameters."""
    Om = omega_matrix(p.chart.ambient_dim)

    def sqrtg_W(Sb):
        Hr, Jr, g = _curvature(p.chart, Sb)
        alpha = np.einsum("ni,ij,nja->na", Hr, Om, Jr)
        W = np.linalg.solve(g, alpha[..., None])[..., 0]
        return np.sqrt(np.linalg.det(g))[:, None] * W

    Jout = fd.jacobian(sqrtg_W, p.params, STEP_DIVERGENCE)[0]
    _, _, g0 = _curvature(p.chart, p.params)
    return abs(float(np.trace(Jout)) / float(np.sqrt(np.linalg.det(g0[0]))))


def _pointwise_ntilde(D, p):
    from momentangle.torus_actions import orbit_generators

    J = p.chart.jacobian(p.params)[0]
    Qo, _ = np.linalg.qr(c2r(orbit_generators(D.gamma_cfg, p.points[0])).T)
    cols = np.concatenate([J.real, J.imag], axis=0)
    Qh, R = np.linalg.qr(cols - Qo @ (Qo.T @ cols))
    diag = np.abs(np.diag(R))
    keep = diag > 1e-9 * max(1.0, diag.max())
    return frame_symplectic_residual(r2c(Qh[:, keep].T))


def _spread_params(chart, rng, n=12):
    return np.concatenate(
        [0.15 * rng.uniform(-1, 1, (n, chart.nv)), rng.uniform(0, 1, (n, chart.nphi))], axis=1
    )


def _sample_at(chart, S):
    jet = chart.jet(S, 3)
    return ChartSample(chart, S, jet, np.abs(jet[0]))


def _points(sample):
    """The one-point samples of a sample, in order."""
    return [sample[i : i + 1] for i in range(len(sample))]


def _assert_matches(batched, reference):
    assert batched.shape == (len(reference),)
    assert np.all(np.abs(batched - reference) <= 1e-12 * np.maximum(1.0, np.abs(reference)))


def _assert_rows_of_seven(residual, sample):
    # one value per point for N = 1 and N = 7, and each one-point call equal
    # to its row of the seven-point call, bit for bit
    seven = residual(sample[:7])
    assert seven.shape == (7,)
    for i, p in enumerate(_points(sample[:7])):
        one = residual(p)
        assert one.shape == (1,)
        assert one[0] == seven[i], (i, one[0], seven[i])


def test_batched_residuals_match_per_point_formulas():
    rng = np.random.default_rng(23)
    Q3 = catalog_quadrics("one-quadric:3")
    spread = TorusSpreadChart(Q3, [0.8, 0.36, 0.48])
    S = _spread_params(spread, rng)

    # a non-Lagrangian, non-minimal surface, so the residuals are O(1); its map
    # is elementwise, so each point's value is the same in any batch
    def skewed(Sb):
        a, b, ph = Sb[:, 0], Sb[:, 1], np.exp(2j * np.pi * Sb[:, 2])
        u = np.stack([np.cos(a), np.sin(a) * np.cos(b), np.sin(a) * np.sin(b)], axis=1)
        z = ph[:, None] * u
        return z + 0.3 * np.conj(z[:, [1, 2, 0]])

    skew = FunctionChart(skewed, 3, 3)
    for chart, Q_frame, params in ((spread, Q3, S), (skew, None, S + [0.7, 0.9, 0.0])):
        sample = _sample_at(chart, params)
        pts = _points(sample)
        _assert_matches(lagrangian_residual(Q_frame, sample),
                        np.array([_pointwise_lagrangian(Q_frame, p) for p in pts]))
        _assert_matches(minimality_residual_in_Z(Q3, sample),
                        np.array([_pointwise_minimality(Q3, p) for p in pts]))
        hmin = hminimality_residual(Q3, sample)
        _assert_matches(hmin, np.concatenate([hminimality_residual(Q3, p) for p in pts]))
        _assert_rows_of_seven(lambda smp: lagrangian_residual(Q_frame, smp), sample)
        _assert_rows_of_seven(lambda smp: minimality_residual_in_Z(Q3, smp), sample)
        _assert_rows_of_seven(lambda smp: hminimality_residual(Q3, smp), sample)
        if chart is skew:
            assert lagrangian_residual(None, sample).min() > 1e-2
            # the product rule against the stencil oracle, where the
            # residuals are O(1) (0.05 to 4.3): measured 3.2e-6 relative, the
            # stencil's own error
            oracle = np.array([_pointwise_hminimality(p) for p in pts])
            assert oracle.min() > 1e-2
            assert np.all(np.abs(hmin - oracle) <= 1e-5 * oracle)

    D = catalog_double("cp2-torus")
    lift = TorusSpreadChart(D.stacked, real_base_point(D.stacked),
                            phase_rows=D.delta_cfg.gamma_float())
    sample = _sample_at(lift, _spread_params(lift, rng))
    _assert_matches(ntilde_lagrangian_residual(D, sample),
                    np.array([_pointwise_ntilde(D, p) for p in _points(sample)]))
    _assert_rows_of_seven(lambda smp: ntilde_lagrangian_residual(D, smp), sample)

    # the sampled polytope charts, in groups of seven: their derivatives sum
    # by einsum, so a point's residuals do not depend on its batch either
    for name in ("one-quadric:3", "two-quadrics:2,2"):
        Q = catalog_quadrics(name)
        sample = sample_chart_points(Q, 70, rng, spec, order=3)
        for i in range(0, 70, 7):
            group = sample[i : i + 7]
            _assert_rows_of_seven(lambda smp: lagrangian_residual(Q, smp), group)
            _assert_rows_of_seven(lambda smp: minimality_residual_in_Z(Q, smp), group)
            _assert_rows_of_seven(lambda smp: hminimality_residual(Q, smp), group)


def test_frame_orthonormal_and_annihilating():
    rng = np.random.default_rng(4)
    for name in ("one-quadric:3", "two-quadrics:2,2"):
        Q = catalog_quadrics(name)
        pts = sample_chart_points(Q, 5, rng, spec, order=1)
        F = tangent_frames(Q, pts)  # (5, d, m)
        V = np.concatenate([F.real, F.imag], axis=2)
        gram = V @ np.swapaxes(V, 1, 2)
        assert np.abs(gram - np.eye(V.shape[1])).max() < 1e-12
        grads = 2.0 * Q.gamma_float() * pts.points[:, None, :]
        pairing = np.real(F @ np.conj(np.swapaxes(grads, 1, 2)))
        assert np.abs(pairing).max() < 1e-10


def test_lagrangian_residual_examples():
    Q2 = QuadricConfiguration.from_rows([(1, 1)], [1])
    r = 1 / np.sqrt(2)
    p = chart_N(Q2, [r, r], [0.0], [0.0])
    assert lagrangian_residual(Q2, p)[0] < 1e-13
    Q3 = catalog_quadrics("one-quadric:3")
    rng = np.random.default_rng(5)
    assert lagrangian_residual(Q3, sample_chart_points(Q3, 100, rng, spec, order=1)).max() < 1e-10
    # negative control: the quadric set itself is not Lagrangian
    z = sample_chart_points(Q3, 1, rng, spec, order=0).points
    assert frame_symplectic_residual(tangent_frame_Z(Q3, z))[0] > 0.1


def _mean_curvature(p):
    """The unnormalized mean curvature vector of a one-point sample in flat space."""
    return r2c(_curvature(p.chart, p.params)[0][0])


def test_mean_curvature_examples():
    Q2 = QuadricConfiguration.from_rows([(1, 1)], [1])
    r = 1 / np.sqrt(2)
    p = chart_N(Q2, [r, r], [0.0], [0.0])
    H = _mean_curvature(p)
    assert np.allclose(H, [-np.sqrt(2), -np.sqrt(2)], atol=1e-7)
    assert abs(np.linalg.norm(c2r(H)) - 2.0) < 1e-7

    # circle of radius r in C: H = -z / r^2
    Q1 = QuadricConfiguration.from_rows([(1,)], [1])
    pc = chart_N(Q1, [1.0], [], [0.3])
    Hc = _mean_curvature(pc)
    assert np.allclose(Hc, -pc.points[0], atol=1e-8)


def test_mean_curvature_scaling_law():
    lam = 1.7
    Qa = QuadricConfiguration.from_rows([(1, 1)], [1])
    Qb = QuadricConfiguration.from_rows([(1, 1)], [lam**2])
    r = 1 / np.sqrt(2)
    pa = chart_N(Qa, [r, r], [0.0], [0.17])
    pb = chart_N(Qb, [lam * r, lam * r], [0.0], [0.17])
    Ha = _mean_curvature(pa)
    Hb = _mean_curvature(pb)
    assert np.allclose(Hb, Ha / lam, atol=1e-7)


def test_mean_curvature_is_normal():
    rng = np.random.default_rng(6)
    Q = catalog_quadrics("one-quadric:3")
    pts = sample_chart_points(Q, 10, rng, spec, order=2)
    Hr, _, _ = _curvature(pts.chart, pts.params)
    F = tangent_frames(Q, pts)
    V = np.concatenate([F.real, F.imag], axis=2)
    assert np.abs(np.einsum("ndi,ni->nd", V, Hr)).max() < 1e-6


def test_minimality_residual_examples():
    Q2 = QuadricConfiguration.from_rows([(1, 1)], [1])
    r = 1 / np.sqrt(2)
    p = chart_N(Q2, [r, r], [0.0], [0.0])
    assert minimality_residual_in_Z(Q2, p)[0] < 1e-8
    Q3 = catalog_quadrics("one-quadric:3")
    rng = np.random.default_rng(7)
    assert minimality_residual_in_Z(Q3, sample_chart_points(Q3, 100, rng, spec, order=2)).max() < 1e-4
    assert unequal_torus_control(spec) > 0.1


def test_conjugation_symmetry_of_residuals():
    # the involution acts on a spread chart by negating the phase parameters
    Q = catalog_quadrics("one-quadric:3")
    rng = np.random.default_rng(8)
    for p in _points(sample_chart_points(Q, 5, rng, spec, order=2)):
        params_c = p.params[0].copy()
        params_c[p.chart.nv :] *= -1.0
        pc = chart_point(p.chart, params_c, Q=Q, spec=spec)
        assert np.allclose(pc.points, np.conj(p.points), atol=1e-12)
        assert abs(lagrangian_residual(Q, p) - lagrangian_residual(Q, pc))[0] < 1e-10
        assert abs(minimality_residual_in_Z(Q, p) - minimality_residual_in_Z(Q, pc))[0] < 1e-10


# ---------------------------------------------------------------------------
# Hamiltonian fields


def test_hamiltonian_field_linear():
    Z = np.array([[0.3 + 0.4j, 0.1 - 0.2j, 0.5 + 0.0j], [-0.7 + 0.1j, 0.2j, 1.0 + 0.0j]])
    grad = lambda zz: np.broadcast_to(np.array([1.0, 0.0, 0.0], complex), zz.shape)  # d Re z_1
    X = hamiltonian_field_batch(grad, Z)
    # i_X omega = d(Re z_1): with omega scaled so the moment map is exact,
    # X = (i pi) e_1 (the convention constant folded in)
    assert np.allclose(X, [1j * np.pi, 0, 0], rtol=0, atol=1e-15)
    # the pairing omega(X, v) is df(v) = <grad f, v> in every direction
    V = r2c(np.random.default_rng(10).standard_normal((8, 6)))
    for x, z in zip(X, Z):
        assert np.allclose(omega_pair(x, V), np.real(np.conj(grad(z[None])[0]) * V).sum(axis=1),
                           rtol=0, atol=1e-15)


def test_hamiltonian_field_constant_and_moment():
    Z = np.array([[0.5 + 0.1j, -0.2 + 0.3j]])
    Xc = hamiltonian_field_batch(np.zeros_like, Z)  # a constant
    assert not Xc.any()
    e1 = np.array([1.0, 0.0])
    Xm = hamiltonian_field_batch(lambda zz: 2.0 * e1 * zz, Z)  # |z_1|^2
    assert np.allclose(Xm[0], [2j * np.pi * Z[0, 0], 0], rtol=1e-15, atol=0)  # first rotation circle


def _assert_gradient_matches_fd(f, grad, X):
    # the cutoffs are only C^3 at their edge, where the truncation error of a
    # wider stencil alone exceeds 1e-6 of the gradient's scale
    ref = fd.jacobian(f, X, 1e-4)
    assert np.abs(grad(X) - ref).max() <= 1e-6 * np.abs(ref).max()


def _ball_probes(rng, x0, rho):
    """100 points each inside, across the edge of and outside the ball B(x0, rho)."""
    dirs = rng.standard_normal((300, x0.size))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = np.concatenate(
        [rng.uniform(0.0, 0.95, 100), rng.uniform(0.99, 1.01, 100), rng.uniform(1.05, 2.0, 100)]
    )
    return x0 + rho * radii[:, None] * dirs


def test_closed_form_hamiltonian_gradients():
    rng = np.random.default_rng(11)

    def real(triple):
        f, grad, _ = triple
        return (lambda xr: f(r2c(xr))), (lambda xr: c2r(grad(r2c(xr))))

    # the global polynomial of the C^2 check
    _assert_gradient_matches_fd(*real(_poly_scalar(2, rng)), 2.0 * rng.standard_normal((50, 4)))

    # the radial cutoff of the C^3 check, inside, across the edge of and outside its ball
    poly = _poly_scalar(3, rng)
    x0, rho = rng.standard_normal(6), 0.4
    X = _ball_probes(rng, x0, rho)
    f, grad = real(_radial_cutoff(poly, r2c(x0), rho))
    _assert_gradient_matches_fd(f, grad, X)
    assert not grad(X[200:]).any()


def _assert_hessian_matches_fd(grad, hess, X, rel):
    # Hess f applied to each real basis vector, against an order-4 stencil of
    # the closed-form gradient at step 1e-4
    n, D = X.shape
    ref = fd.jacobian(lambda xr: c2r(grad(r2c(xr))), X, 1e-4)  # (n, D, D)
    basis = np.broadcast_to(r2c(np.eye(D)), (n, D, D // 2))
    got = np.swapaxes(c2r(hess(r2c(X), basis)), 1, 2)  # column b is Hess f e_b
    assert np.abs(got - ref).max() <= rel * np.abs(ref).max()


def test_closed_form_hamiltonian_hessians():
    rng = np.random.default_rng(13)
    # the polynomial: its Hessian 2 quad is constant, so the stencil of its
    # gradient is exact up to rounding
    _, grad, hess = _poly_scalar(2, rng)
    _assert_hessian_matches_fd(grad, hess, 2.0 * rng.standard_normal((50, 4)), 1e-9)

    # the radial cutoff, inside, across the edge of and outside its ball; the
    # cutoff is C^3 at the edge, so its Hessian is C^1 there
    x0, rho = rng.standard_normal(6), 0.4
    X = _ball_probes(rng, x0, rho)
    _, grad, hess = _radial_cutoff(_poly_scalar(3, rng), r2c(x0), rho)
    _assert_hessian_matches_fd(grad, hess, X, 1e-6)
    V = r2c(rng.standard_normal((300, 2, 6)))
    assert not hess(r2c(X[200:]), V[200:]).any()
    # real-linear in the direction, including the conj(V) part
    V2 = r2c(rng.standard_normal((300, 2, 6)))
    Z = r2c(X)
    lhs, rhs = hess(Z, V - 2.0 * V2), hess(Z, V) - 2.0 * hess(Z, V2)
    assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_random_matrix_field_derivative_matches_fd():
    # z -> A z + B conj(z) + c0 is real-affine: its derivative along V is exact
    # for a central difference of the value
    rng = np.random.default_rng(15)
    X = _random_matrix_field(3, rng)
    Z = r2c(rng.standard_normal((20, 6)))
    V = r2c(rng.standard_normal((20, 2, 6)))
    ref = (X(Z[:, None, :] + 1e-3 * V) - X(Z[:, None, :] - 1e-3 * V)) / 2e-3
    assert np.abs(X.derivative(Z, V) - ref).max() <= 1e-10 * np.abs(ref).max()


def test_box_bump_gradient_matches_fd():
    # inside the box, near its faces and outside it, with two and three bumped axes
    rng = np.random.default_rng(14)
    lo, hi = np.array([0.3, 0.05, -1.0]), np.array([5.9, 0.95, 1.0])
    S = lo + (hi - lo) * rng.uniform(-0.1, 1.1, (400, 3))
    for axes in ((0, 1), (0, 1, 2)):
        ref = fd.jacobian(lambda Sb: box_bump(Sb, lo, hi, axes), S, 1e-5)
        got = box_bump_gradient(S, lo, hi, axes)
        assert np.abs(got - ref).max() <= 1e-7 * np.abs(ref).max()
        assert not got[:, [a for a in range(3) if a not in axes]].any()


def test_hamiltonian_field_from_gradient_inverts_omega():
    # X = -i grad f / OMEGA_SCALE is the solution of -Omega X = df
    rng = np.random.default_rng(12)
    for m in (1, 3):
        G = rng.standard_normal((7, m)) + 1j * rng.standard_normal((7, m))
        ref = r2c(np.linalg.solve(-omega_matrix(m), c2r(G).T).T)
        Z = rng.standard_normal((7, m)) + 0j
        assert np.allclose(hamiltonian_field_batch(lambda _: G, Z), ref, rtol=1e-14, atol=0)


def test_noether_hamiltonian_gradients_match_fd():
    # sum |z_k|^2, sum |z_k|^4 and sum k |z_k|^2 are polynomials of degree
    # at most 4, so an order-4 stencil of f is exact up to rounding
    rng = np.random.default_rng(16)
    for m in (2, 3, 4):
        X = rng.standard_normal((20, 2 * m))
        for f, grad in _noether_hamiltonians(m):
            ref = fd.jacobian(lambda xr: f(r2c(xr)), X, 1e-3)
            assert np.abs(c2r(grad(r2c(X))) - ref).max() <= 1e-10 * np.abs(ref).max()


def test_noether_drift():
    Q = catalog_quadrics("one-quadric:3")
    rng = np.random.default_rng(9)
    z = sample_chart_points(Q, 1, rng, spec, order=0).points[0]
    for f, grad in _noether_hamiltonians(3):
        assert noether_drift(Q, f, grad, z) < 1e-14
    fc = lambda zz: 0.0 * zz[..., 0].real + 1.0
    assert noether_drift(Q, fc, np.zeros_like, z) == 0.0
    e1 = np.array([1.0, 0.0, 0.0], complex)  # the gradient of Re z_1
    with pytest.raises(InvarianceError):
        noether_drift(Q, lambda zz: zz[..., 0].real, lambda zz: e1 + 0.0 * zz, z)


# ---------------------------------------------------------------------------
# variations


def test_circle_first_variation():
    Q1 = QuadricConfiguration.from_rows([(1,)], [1])
    chart = TorusSpreadChart(Q1, [1.0], newton_tol=spec.newton_tol)
    patch = ChartPatch(chart=chart, lo=[0.0], hi=[1.0], nodes=32, order=2)
    radial = VectorField(
        lambda z: z / np.abs(z),
        lambda z, V: V - z[:, None, :] * np.real(np.conj(z[:, None, :]) * V),  # on |z| = 1
    )
    # the phase chart is exact and Jacobi's integrand is the constant 2 pi:
    # measured error 0
    assert abs(patch_volume_derivative(patch, radial) - TWO_PI) < 1e-12
    assert abs(first_variation_integral(patch, radial) - TWO_PI) < 1e-4


ORBIT = VectorField(lambda z: 1j * z, lambda z, V: 1j * V)


def test_tangential_field_preserves_volume():
    Q2 = QuadricConfiguration.from_rows([(1, 1)], [1])
    chart = one_quadric_torus_chart(Q2)
    patch = ChartPatch(chart=chart, lo=[0.0, 0.0], hi=list(chart.periods), nodes=24, order=1)
    dv = patch_volume_derivative(patch, ORBIT)  # orbit direction
    assert abs(dv) < 1e-12
    # a flat-ambient volume derivative reads the field's derivative
    with pytest.raises(TypeError, match="VectorField"):
        patch_volume_derivative(patch, ORBIT.value)
    # the curvature integral reads the mean curvature, which a patch of order 1 does not hold
    with pytest.raises(ValueError, match="order 2"):
        first_variation_integral(patch, ORBIT)


def _two_volume_derivative(patch, X, t_step, s_step=1e-3, richardson=False):
    """Reference dVol/dt from full deformed volumes at t = +-t_step.

    Each deformed volume differentiates the deformed chart by its own stencil
    at ``s_step``. With ``richardson`` the central difference in t is
    extrapolated from t_step and t_step / 2, which removes its t^2 error.
    """
    chart = patch.chart

    def deformed(t):
        def fn(Sb):
            P = chart.value(Sb)
            field = np.asarray(X(P))
            bump = patch.bump_at(Sb).reshape(-1, *([1] * (P.ndim - 1)))
            return c2r(P + t * bump * field)

        return fn

    def vol(t):
        J = fd.jacobian(deformed(t), patch.sample.params, s_step)
        g = np.einsum("nia,nib->nab", J, J)
        return float(np.sum(patch.w * np.sqrt(np.linalg.det(g))))

    def central(h):
        return (vol(h) - vol(-h)) / (2.0 * h)

    if richardson:
        return (4.0 * central(t_step / 2.0) - central(t_step)) / 3.0
    return central(t_step)


def test_volume_derivative_matches_two_volume_reference():
    # flat ambient: the C^2 torus patch under a bump and a random matrix field,
    # by Jacobi's formula. The reference extrapolates in t from 1e-3 and
    # differentiates each deformed chart at 2.5e-4. Its own error: it moves
    # by 4.4e-10 relative when that step halves from 5e-4, and its 4th-order
    # stencil leaves about a fifteenth of that. Measured agreement: 4.6e-11
    chart = one_quadric_torus_chart(catalog_quadrics("one-quadric:2"))
    patch = ChartPatch(chart=chart, lo=[0.3, 0.05], hi=[5.9, 0.95], nodes=24, order=1, bump_axes=(0, 1))
    X = _random_matrix_field(2, np.random.default_rng(3))
    ref = _two_volume_derivative(patch, X, t_step=1e-3, s_step=2.5e-4, richardson=True)
    assert abs(patch_volume_derivative(patch, X) - ref) < 1e-9 * abs(ref)

    # the rp2 lift: the nearest-point chart of the sphere's real locus
    # spread by the diagonal circle, on one node along the circle. An
    # unbumped patch under a random matrix field (boundary flux). The
    # reference extrapolates in t from 1e-3 and differentiates each
    # deformed chart at 5e-4. Its own error: it moves by 7e-12 relative
    # when that step halves and by 4.6e-11 when t halves. Measured
    # agreement: 2.3e-11
    D = catalog_double("rp2")
    lift = TorusSpreadChart(D.stacked, real_base_point(D.stacked), newton_tol=spec.newton_tol)
    lpatch = ChartPatch(chart=lift, lo=[-0.4, -0.4, -0.5], hi=[0.4, 0.4, 0.5], nodes=[24, 24, 1],
                        order=1)
    Xl = _random_matrix_field(3, np.random.default_rng(4))
    ref = _two_volume_derivative(lpatch, Xl, t_step=1e-3, s_step=5e-4, richardson=True)
    assert abs(patch_volume_derivative(lpatch, Xl) - ref) < 5e-11 * abs(ref)


def test_stationarity_ratio_rejects_leaking_field():
    chart = one_quadric_torus_chart(catalog_quadrics("one-quadric:2"))
    patch = ChartPatch(chart=chart, lo=[0.3, 0.05], hi=[5.9, 0.95], nodes=12, order=1)
    with pytest.raises(RuntimeError):
        stationarity_ratio(patch, ORBIT, localized=True)
    # unlocalized, the same field is a global variation: a volume-preserving rotation
    assert stationarity_ratio(patch, ORBIT) < 1e-12


def test_stationarity_ratio_negative_controls():
    # the radial field z -> z scales the spread torus e^{2 pi i phi} (cos t, sin t),
    # so dVol/dt = 2 vol, which Jacobi's formula gives to rounding (measured
    # 0); the ratio divides by the largest component modulus on the nodes,
    # which comes within 2.3e-4 of its maximum 1 at cos t = +-1
    chart = one_quadric_torus_chart(catalog_quadrics("one-quadric:2"))
    patch = ChartPatch(chart=chart, lo=[0.0, 0.0], hi=list(chart.periods), nodes=24, order=1)
    radial = VectorField(lambda z: z, lambda z, V: V)
    ratio = stationarity_ratio(patch, radial)
    assert abs(ratio - 2.0) < 1e-3
    assert abs(ratio * np.abs(patch.sample.points).max() - 2.0) < 1e-12

    # a bump-localized radial field on the patch of the C^3 stationarity
    # report, under a wider and flatter cutoff than the report's Hamiltonians
    Q3 = catalog_quadrics("one-quadric:3")
    base = sample_chart_points(Q3, 1, np.random.default_rng(0), spec, order=0).bases[0]
    chart3 = TorusSpreadChart(Q3, base, newton_tol=spec.newton_tol)
    patch3 = ChartPatch(chart=chart3, lo=[-0.65, -0.65, -0.15], hi=[0.65, 0.65, 0.15],
                        nodes=[20, 20, 36], order=1)
    z0 = chart3.value(np.zeros((1, 3)))[0]
    rho = 0.5

    # the cutoff (1 - s)^2 in s = |z - z0|^2 / rho^2, 0 outside the ball, with d/ds = -2 (1 - s)
    def radial_value(z):
        s = np.minimum(np.sum(np.abs(z - z0) ** 2, axis=-1) / rho**2, 1.0)
        return ((1.0 - s) ** 2)[:, None] * z

    def radial_derivative(z, V):
        s = np.minimum(np.sum(np.abs(z - z0) ** 2, axis=-1) / rho**2, 1.0)
        ds = (2.0 / rho**2) * np.real(np.sum(np.conj(z - z0)[:, None, :] * V, axis=-1))
        return ((1.0 - s) ** 2)[:, None, None] * V - (2.0 * (1.0 - s)[:, None] * ds)[..., None] * z[:, None, :]

    ratio3 = stationarity_ratio(patch3, VectorField(radial_value, radial_derivative),
                                localized=True)
    assert ratio3 > 0.1, ratio3


def test_equivariant_curvature_direction_consistency():
    # variation along (the in-quadric-set part of) the curvature direction:
    # for the balanced torus both the derivative and the squared-norm
    # quadrature vanish
    Q2 = QuadricConfiguration.from_rows([(1, 1)], [1])
    chart = one_quadric_torus_chart(Q2)
    patch = ChartPatch(
        chart=chart, lo=[0.5, 0.1], hi=[5.5, 0.9], nodes=20, order=2, bump_axes=(0, 1)
    )

    def in_Z_curvature_field(Z):
        # the chart parameters of ambient points; the sign of exp(2 pi i phi)
        # is the chart's deck transformation, so either root is the same point
        phi = np.angle(Z[:, 0] ** 2 + Z[:, 1] ** 2) / (4 * np.pi)
        turn = np.exp(-2j * np.pi * phi)
        theta = np.arctan2((Z[:, 1] * turn).real, (Z[:, 0] * turn).real)
        Sb = np.stack([theta, phi], axis=-1)
        Hr, Jr, _ = _curvature(chart, Sb)
        out = np.empty((Hr.shape[0], 2), complex)
        for i in range(Hr.shape[0]):
            grads = c2r(2.0 * Q2.gamma_float() * Z[i][None, :])
            stacked = np.concatenate([Jr[i], grads.T], axis=1)
            Qm, _ = np.linalg.qr(stacked)
            h = Hr[i] - Qm @ (Qm.T @ Hr[i])
            out[i] = h[:2] + 1j * h[2:]
        return out

    def derivative(Z, V):
        # the field has no closed form here: a 4th-order central difference
        # along each direction
        h = 3e-3
        n, d, m = V.shape
        out = np.zeros(V.shape, complex)
        for o, w in zip(*fd._D1):
            shifted = (Z[:, None, :] + o * h * V).reshape(n * d, m)
            out += w * in_Z_curvature_field(shifted).reshape(n, d, m) / h
        return out

    X = VectorField(in_Z_curvature_field, derivative)
    dv = patch_volume_derivative(patch, X)
    comp = first_variation_integral(patch, X)
    assert abs(dv) < 1e-3
    assert abs(comp) < 1e-3


def test_hminimality_examples():
    Q2 = QuadricConfiguration.from_rows([(1, 1)], [1])
    r = 1 / np.sqrt(2)
    p = chart_N(Q2, [r, r], [0.0], [0.0])
    assert hminimality_residual(Q2, p)[0] < 1e-4

    # circle: curvature constant, codifferential vanishes
    Q1 = QuadricConfiguration.from_rows([(1,)], [1])
    pc = chart_N(Q1, [1.0], [], [0.2])
    assert hminimality_residual(Q1, pc)[0] < 1e-6

    # the ellipse on its closed-form chart against the closed form of
    # |dkappa/ds|: measured 1.9e-16 relative (one unit in the last place),
    # and bounded at about 20 times that
    numeric, oracle = ellipse_control()
    assert numeric > 1e-2
    assert abs(numeric - oracle) / oracle < 4e-15


# one quadric in C^2 and C^3, gamma (2, 2) with c = 2, and two quadrics in
# C^4, the last two with dual covolume 1/2
COAREA_CONFIGURATIONS = (
    ("one-quadric:2", 20),
    ("one-quadric:3", 16),
    ("gamma (2, 2)", 16),
    ("two-quadrics:2,2", 8),
)


def _coarea_configuration(name):
    from momentangle.exact_linalg import IntegerMatrix

    if name == "gamma (2, 2)":
        return QuadricConfiguration(IntegerMatrix([[2, 2]], cols=2), [2])
    return catalog_quadrics(name)


def test_coarea_identity():
    # both sides read one exact chart on the same v-nodes, so they agree to
    # rounding: measured at most 5.2e-16
    for name, nodes in COAREA_CONFIGURATIONS:
        up, fib = coarea_orbit_volume_check(_coarea_configuration(name), nodes=nodes)
        assert up > 0.0 and abs(up - fib) / up < 1e-12, name


def test_coarea_nontrivial_dual_covolume(monkeypatch):
    # negative control: the phase rows Gamma in place of dual @ Gamma run the
    # unit phi-box over the covolume-1/2 lattice's domain twice, so the
    # upstairs volume doubles (relative mismatch 0.5) where the dual lattice
    # is not Z^k
    wrong_domain = lambda Q, x0, phase_rows=None: PolytopeChart(Q, x0)
    monkeypatch.setattr(submanifold_numerics, "PolytopeChart", wrong_domain)
    for name, nodes in COAREA_CONFIGURATIONS[2:]:
        up, fib = coarea_orbit_volume_check(_coarea_configuration(name), nodes=nodes)
        assert abs(abs(up - fib) / max(up, fib) - 0.5) < 1e-12, name


def test_patch_volume_double_cover():
    Q2 = QuadricConfiguration.from_rows([(1, 1)], [1])
    from momentangle.reduction_catalog import one_quadric_torus_chart

    chart = one_quadric_torus_chart(Q2)
    patch = ChartPatch(chart=chart, lo=[0.0, 0.0], hi=list(chart.periods), nodes=24, order=1)
    # the (theta, phi) box covers the spread torus twice: 2 * 2 pi^2
    assert abs(patch_volume(patch) - 4 * np.pi**2) < 1e-8


def test_frame_spans_expected_directions():
    # balanced-point frame of the spread circle spans {(-1,1)/sqrt2, (i,i)/sqrt2}
    Q2 = QuadricConfiguration.from_rows([(1, 1)], [1])
    r = 1 / np.sqrt(2)
    p = chart_N(Q2, [r, r], [0.0], [0.0])
    F = tangent_frames(Q2, p)[0]
    V = np.concatenate([F.real, F.imag], axis=1)  # (2, 4)
    for target in (np.array([-1.0, 1.0, 0.0, 0.0]) / np.sqrt(2),
                   np.array([0.0, 0.0, 1.0, 1.0]) / np.sqrt(2)):
        coeffs = V @ target
        assert abs(np.linalg.norm(coeffs) - 1.0) < 1e-10  # target lies in the span

    # sphere chart at a coordinate point contains the rotation direction
    Q3 = catalog_quadrics("one-quadric:3")
    p3 = chart_N(Q3, [1.0, 0.0, 0.0], [0.0, 0.0], [0.0])
    F3 = tangent_frames(Q3, p3)[0]
    V3 = np.concatenate([F3.real, F3.imag], axis=1)
    rot = np.zeros(6)
    rot[3] = 1.0  # the direction i * e_1
    assert abs(np.linalg.norm(V3 @ rot) - 1.0) < 1e-10


def test_chart_patch_rejects_dimension_above_four():
    # the tensor Gauss-Legendre rule is the only quadrature; no check builds
    # a patch of dimension above 4
    def spread(rows):  # the unit circle in C^2 x {0}, spread by ``rows``: dimension 1 + len(rows)
        return CircleSpreadChart([1, 0, 0], [0, 1, 0], [0, 0, 0], rows, (TWO_PI,) + (1.0,) * len(rows))

    with pytest.raises(ValueError, match="dimension at most 4"):
        ChartPatch(chart=spread(np.eye(4, 3)), lo=[0.0] * 5, hi=[1.0] * 5, nodes=4, order=1)
    four = ChartPatch(chart=spread(np.eye(3)), lo=[0.0] * 4, hi=[1.0] * 4, nodes=3, order=1)
    assert four.sample.params.shape == (81, 4) and four.sample.jet[1].shape == (81, 3, 4)
