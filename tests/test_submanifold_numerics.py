from fractions import Fraction

import numpy as np
import pytest

from momentangle.charts import (
    CircleSpreadChart,
    NonConvergenceError,
    PolytopeChart,
    TorusSpreadChart,
    c2r,
    global_chart,
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
    _poly_scalar,
    coarea_orbit_volume_check,
    first_variation_integral,
    frame_symplectic_residual,
    hamiltonian_field_batch,
    hminimality_residual,
    lagrangian_residual,
    minimality_residual_in_Z,
    noether_drift,
    patch_volume_derivative,
    real_base_point,
    sample_chart_points,
    stationarity_ratio,
    tangent_frame_Z,
    tangent_frames,
)
from momentangle import fd
from momentangle.procedures import (
    _noether_hamiltonians,
    _random_matrix_field,
    ellipse_control,
    unequal_torus_control,
)
from stencil_chart import FunctionChart
from symplectic_reference import omega_matrix, omega_pair

spec = DEFAULT_SPEC
TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# the graph spread chart


def _spread_charts():
    """(name, chart, v half-width) for graph spread charts: the (1, 2, 1)
    ellipsoid of bad-triangle at a sampled base, the cp2 stack with the
    delta rows, two quadrics in C^4, and a base on the boundary of the
    orthant. The graph's domains hold boxes up to half-widths 0.21, 0.29,
    0.29 and 0.71, and each box stays within about half of that."""
    Qe = gale_dual(catalog_polytope("bad-triangle"))
    D = catalog_double("cp2-torus")
    Q22 = catalog_quadrics("two-quadrics:2,2")
    return [
        ("ellipsoid", TorusSpreadChart(Qe, np.abs(sample_chart_points(Qe, 1, np.random.default_rng(0), spec, order=0).points[0])),
         0.1),
        ("cp2 stack", TorusSpreadChart(D.stacked, real_base_point(D.stacked), phase_rows=D.delta_cfg.gamma_float()), 0.15),
        ("two-quadrics:2,2", TorusSpreadChart(Q22, real_base_point(Q22)), 0.15),
        ("boundary base", TorusSpreadChart(catalog_quadrics("one-quadric:3"), [1.0, 0.0, 0.0]), 0.5),
    ]


def _box_params(chart, rng, half, n=20):
    return np.concatenate(
        [half * rng.uniform(-1, 1, (n, chart.nv)), rng.uniform(0, 1, (n, chart.nphi))], axis=1
    )


def test_spread_chart_derivatives_match_stencils():
    # the closed-form jacobian and hessian against 4th-order stencils at
    # step 1e-3 of the chart's value, relative to their largest entry:
    # measured at most 8.3e-10 (jacobian) and 2.8e-10 (hessian), the
    # stencil's own error. Boxes that reach 0.7 of the domain read up to
    # 2.5e-9 on the hessian, where u_S nears 0 and its derivatives grow
    rng = np.random.default_rng(31)
    for name, chart, half in _spread_charts():
        S = _box_params(chart, rng, half)
        J, H = chart.jacobian(S), chart.hessian(S)
        assert J.shape == (20, chart.ambient_dim, chart.dim)
        assert H.shape == (20, chart.ambient_dim, chart.dim, chart.dim)
        assert np.abs(J - fd.jacobian(chart.value, S, 1e-3)).max() < 2e-9 * np.abs(J).max(), name
        assert np.abs(H - fd.hessian(chart.value, S, 1e-3)).max() < 1e-9 * np.abs(H).max(), name
        assert np.abs(H - np.swapaxes(H, 2, 3)).max() <= 1e-15 * np.abs(H).max(), name
        assert membership_residuals(chart.project_cfg, chart.value(S)).max() < 1e-13, name


def test_graph_chart_on_the_unit_sphere():
    # at the base (1, 0, 0) of |u|^2 = 1 the basic coordinate is u_1, so the
    # chart is u = (sqrt(1 - |v|^2), v) in closed form, and it ends where
    # |v| reaches 1
    chart = TorusSpreadChart(catalog_quadrics("one-quadric:3"), [1.0, 0.0, 0.0])
    V = 0.7 * np.random.default_rng(33).uniform(-1, 1, (20, 2))
    u = chart.value(np.concatenate([V, np.zeros((20, 1))], axis=1)).real
    expected = np.concatenate([np.sqrt(1.0 - (V * V).sum(axis=1))[:, None], V], axis=1)
    assert np.abs(u - expected).max() <= 2e-16
    for v in ([1.0, 0.0], [0.6, 0.8], [0.9, 0.9]):
        with pytest.raises(ValueError, match="domain"):
            chart.value([v + [0.0]])


def test_projection_stacked_two_quadrics():
    # the stacked cp2 system: the base on the boundary of the orthant is a
    # fixed point, and nearby parameters land on both quadrics
    D = catalog_double("cp2-torus")
    chart = TorusSpreadChart(D.stacked, [1.0, 0.0, 1.0], phase_rows=D.delta_cfg.gamma_float())
    assert np.array_equal(chart.value(np.zeros((1, 2)))[0], [1.0, 0.0, 1.0])
    S = _box_params(chart, np.random.default_rng(0), 0.4)
    assert membership_residuals(D.stacked, chart.value(S)).max() < 1e-13


def test_degenerate_base_is_refused():
    # a base where the constraint gradients vanish (the origin of a cone, for
    # one quadric and for two) has no regular basic block
    for rows, c in (([(1, -1)], [0]), ([(1, 1, -1, -1), (1, -1, 1, -1)], [0, 0])):
        Q = QuadricConfiguration.from_rows(rows, c)
        with pytest.raises(NonConvergenceError, match="degenerate"):
            TorusSpreadChart(Q, np.zeros(Q.ambient_dim))


def test_projection_of_a_point_does_not_depend_on_its_batch():
    # the chart is elementwise but for one einsum, so a point's value is
    # bit-identical alone and beside far-off points
    rng = np.random.default_rng(5)
    for name in ("one-quadric:3", "two-quadrics:2,2"):
        Q = catalog_quadrics(name)
        chart = TorusSpreadChart(Q, real_base_point(Q))
        s = _box_params(chart, rng, 0.05, n=1)
        far = _box_params(chart, rng, 0.12, n=7)
        alone = chart.value(s)[0]
        assert np.array_equal(chart.value(np.vstack([far[:3], s, far[3:]]))[3], alone)


# ---------------------------------------------------------------------------
# charts and frames


def test_chart_phase_examples():
    Q2 = QuadricConfiguration.from_rows([(1, 1)], [1])
    r = 1 / np.sqrt(2)
    p = ChartSample.at(TorusSpreadChart(Q2, [r, r]), [0.0, 0.25], 2).on(Q2, spec)
    assert np.allclose(p.points, [[1j * r, 1j * r]], atol=1e-12)
    p = ChartSample.at(TorusSpreadChart(Q2, [r, r]), [0.0, 0.0], 2).on(Q2, spec)
    assert np.allclose(p.points, [[r, r]], atol=1e-13)
    Q3 = catalog_quadrics("one-quadric:3")
    p = ChartSample.at(TorusSpreadChart(Q3, [1, 0, 0]), [0.0, 0.0, 0.5], 2).on(Q3, spec)
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
    # chart's own value, at sampled points
    rng = np.random.default_rng(21)
    for Q, rows in _chart_configurations():
        pts = sample_chart_points(Q, 10, rng, spec, phase_rows=rows, order=2)
        chart, S = pts.chart, pts.params
        assert isinstance(chart, PolytopeChart)
        J, H = pts.jet[1], chart.hessian(S)
        assert J.shape == (10, Q.ambient_dim, chart.dim)
        assert H.shape == (10, Q.ambient_dim, chart.dim, chart.dim)
        assert np.abs(J - fd.jacobian(chart.value, S, 1e-3)).max() < 1e-8 * np.abs(J).max()
        assert np.abs(H - fd.hessian(chart.value, S, 1e-3)).max() < 1e-7 * np.abs(H).max()


def _global_box_params(chart, rng, n):
    """n parameters uniform on a global chart's box."""
    return chart.lo + (chart.hi - chart.lo) * rng.uniform(0.0, 1.0, (n, chart.dim))


def test_torus_chart_derivatives_match_stencils():
    # the closed-form cos/sin-times-phase derivatives of the C^2 torus's
    # global chart against 4th-order stencils of the chart's value, relative
    # to their largest entry: measured 5.2e-11 (jacobian) and 3.7e-11
    # (hessian) on one-quadric:2, 8.3e-10 and 2.8e-10 on gamma (2, 2) with
    # c = 3, whose phase turns twice as fast
    from momentangle.exact_linalg import IntegerMatrix

    rng = np.random.default_rng(24)
    for Q in (catalog_quadrics("one-quadric:2"), QuadricConfiguration(IntegerMatrix([[2, 2]], cols=2), [3])):
        chart = global_chart(Q)
        periods = chart.hi - chart.lo
        S = _global_box_params(chart, rng, 40)
        J, H = chart.jacobian(S), chart.hessian(S)
        assert np.abs(J - fd.jacobian(chart.value, S, 1e-3)).max() < 2e-9 * np.abs(J).max()
        assert np.abs(H - fd.hessian(chart.value, S, 1e-3)).max() < 1e-9 * np.abs(H).max()
        assert membership_residuals(Q, chart.value(S)).max() < 1e-14
        shifted = chart.value(S + periods * rng.integers(-2, 3, (40, 2)))
        assert np.abs(shifted - chart.value(S)).max() < 1e-13


def _charted_systems():
    """(name, Q) for every catalog quadric system and stacked double system with a global chart."""
    from momentangle.reduction_catalog import DOUBLE_NAMES, POLYTOPE_NAMES, QUADRIC_NAMES

    systems = [(name, gale_dual(catalog_polytope(name))) for name in POLYTOPE_NAMES]
    systems += [(name, catalog_quadrics(name)) for name in QUADRIC_NAMES + ("one-quadric:1",)]
    systems += [(name, catalog_double(name).stacked) for name in DOUBLE_NAMES]
    return [(name, Q) for name, Q in systems if global_chart(Q) is not None]


def test_global_chart_jet_matches_stencils():
    # every catalog system and stacked system has a global chart. Its jet
    # through second order against 4th-order stencils at step 1e-3 of its
    # value, relative to the largest entry: measured at most 8.3e-10
    # (jacobian) and 4.4e-10 (hessian) on the systems whose phases turn
    # twice as fast, and 5.2e-11 and 1.1e-10 on the others. Its points lie
    # on the quadrics to rounding: measured 8.9e-16
    rng = np.random.default_rng(26)
    systems = _charted_systems()
    assert len(systems) == 18
    for name, Q in systems:
        chart = global_chart(Q)
        S = _global_box_params(chart, rng, 20)
        z, J, H = chart.value(S), chart.jacobian(S), chart.hessian(S)
        assert H.shape == (20, Q.ambient_dim) + (chart.dim,) * 2, name
        assert np.abs(J - fd.jacobian(chart.value, S, 1e-3)).max() < 2e-9 * np.abs(J).max(), name
        assert np.abs(H - fd.hessian(chart.value, S, 1e-3)).max() < 1e-9 * np.abs(H).max(), name
        assert membership_residuals(Q, z).max() < 4e-15, name


def test_global_chart_exists_iff_the_real_locus_is_a_product_of_ellipsoids():
    # gamma (1, 2) with c = 3 is one ellipse, u_1^2 + 2 u_2^2 = 3, with radii
    # sqrt(3) and sqrt(3/2); the hyperboloid u_1^2 - u_2^2 = 1 has two classes
    # of columns for one quadric, and two quadrics with three classes have no
    # chart either
    ellipse = global_chart(QuadricConfiguration.from_rows([(1, 2)], [3]))
    assert np.allclose(ellipse.radii, [np.sqrt(3.0), np.sqrt(1.5)], rtol=1e-15, atol=0)
    assert ellipse.kinds == ("azimuth", "phase")
    assert global_chart(QuadricConfiguration.from_rows([(1, -1)], [1])) is None
    assert global_chart(QuadricConfiguration.from_rows([(1, 1, 1), (1, 2, 3)], [3, 6])) is None
    # a level that is not positive: the blocks u_1^2 = 1 - l and u_2^2 + u_3^2 = l
    # of the rows (1, 1, 1), (0, 1, 1) at c = (1, 2) would need l = 2 > 1
    assert global_chart(QuadricConfiguration.from_rows([(1, 1, 1), (0, 1, 1)], [1, 2])) is None


def test_a_jet_holds_each_lower_order_bit_for_bit():
    # one jet through second order gives exactly the z and J of the lower
    # orders, on the polytope charts, the graph chart of the rp2 lift
    # and the global charts of the C^2 torus and the triangle. No check
    # reads a third order, and no chart gives one
    rng = np.random.default_rng(25)
    D = catalog_double("rp2")
    charts = [sample_chart_points(catalog_quadrics(name), 1, rng, spec, order=0).chart
              for name in ("one-quadric:3", "two-quadrics:2,2")]
    charts += [TorusSpreadChart(D.stacked, real_base_point(D.stacked)),
               global_chart(catalog_quadrics("one-quadric:2")), global_chart(catalog_quadrics("one-quadric:3"))]
    for chart in charts:
        S = _box_params(chart, rng, 0.1)
        second = chart.jet(S, 2)
        for n in range(2):
            assert all(np.array_equal(a, b) for a, b in zip(second[: n + 1], chart.jet(S, n), strict=True)), (chart, n)
        assert np.array_equal(second[1], chart.jacobian(S)) and np.array_equal(second[2].assemble(), chart.hessian(S))
        with pytest.raises(ValueError, match="order 2"):
            chart.jet(S, 3)


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
        assert np.allclose(x, pts.chart.x0 + pts.params[:, : pts.chart.nv] @ pts.chart.B.T, rtol=1e-13, atol=0)
        p = pts[7:8]
        assert np.array_equal(p.points, pts.points[7:8]) and np.array_equal(p.params, pts.params[7:8])
        assert len(pts[:5]) == 5
        # a sample holds no single points: an integer index raises
        with pytest.raises(TypeError, match="slices"):
            pts[7]
    # a sample checked against quadrics its points are not on raises
    Q2 = catalog_quadrics("one-quadric:2")
    off = ChartSample.at(PolytopeChart(Q2, [0.5, 0.5]), [[0.1, 0.3]], 0)
    assert off.on(Q2, spec) is off
    with pytest.raises(ValueError, match="violates the quadric system"):
        off.on(QuadricConfiguration.from_rows([(1, 2)], [1]), spec)
    # leaving the open orthant raises instead of returning a NaN
    chart = PolytopeChart(catalog_quadrics("one-quadric:2"), [0.5, 0.5])
    with pytest.raises(ValueError, match="open orthant"):
        chart.value(np.array([[1.0, 0.0]]))


# one-point-at-a-time residual formulas, the reference for the batched
# functions; each takes a one-point sample


def _omega_residual(F):
    """max |omega(e_i, e_j)| over the columns of a real frame F (2m, d), from the matrix of omega."""
    return np.abs(F.T @ omega_matrix(F.shape[0] // 2) @ F).max()


def _pointwise_lagrangian(Q, p):
    J = p.chart.jacobian(p.params)[0]
    Qm, _ = np.linalg.qr(np.concatenate([J.real, J.imag], axis=0))
    return _omega_residual(Qm)


def _curvature(chart, S):
    """(H_real, Jr, g) of ``chart`` at S, as a sample's checks read them."""
    sample = ChartSample.at(chart, S, 2)
    return sample.curvature, sample.real_jacobian, sample.metric


def _pointwise_minimality(Q, p):
    H, Jr, _ = _curvature(p.chart, p.params)
    h = H[0]
    grads = c2r(2.0 * Q.gamma_float() * p.points)
    Qm, _ = np.linalg.qr(np.concatenate([Jr[0], grads.T], axis=1))
    return float(np.linalg.norm(h - Qm @ (Qm.T @ h)))


def _pointwise_ntilde(D, p):
    from momentangle.torus_actions import orbit_generators

    J = p.chart.jacobian(p.params)[0]
    Qo, _ = np.linalg.qr(c2r(orbit_generators(D.gamma_cfg, p.points[0])).T)
    cols = np.concatenate([J.real, J.imag], axis=0)
    Qh, R = np.linalg.qr(cols - Qo @ (Qo.T @ cols))
    diag = np.abs(np.diag(R))
    keep = diag > 1e-9 * max(1.0, diag.max())
    return _omega_residual(Qh[:, keep])


def _spread_params(chart, rng, n=12):
    return np.concatenate(
        [0.15 * rng.uniform(-1, 1, (n, chart.nv)), rng.uniform(0, 1, (n, chart.nphi))], axis=1
    )


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
        sample = ChartSample.at(chart, params, 2)
        pts = _points(sample)
        _assert_matches(lagrangian_residual(Q_frame, sample),
                        np.array([_pointwise_lagrangian(Q_frame, p) for p in pts]))
        _assert_matches(minimality_residual_in_Z(Q3, sample),
                        np.array([_pointwise_minimality(Q3, p) for p in pts]))
        _assert_rows_of_seven(lambda smp: lagrangian_residual(Q_frame, smp), sample)
        _assert_rows_of_seven(lambda smp: minimality_residual_in_Z(Q3, smp), sample)
        if chart is skew:
            assert lagrangian_residual(None, sample).min() > 1e-2
        else:  # the skew surface is no spread chart: it has no phase rows, so no angle form
            _assert_matches(hminimality_residual(Q3, sample),
                            np.concatenate([hminimality_residual(Q3, p) for p in pts]))
            _assert_rows_of_seven(lambda smp: hminimality_residual(Q3, smp), sample)

    D = catalog_double("cp2-torus")
    lift = TorusSpreadChart(D.stacked, real_base_point(D.stacked),
                            phase_rows=D.delta_cfg.gamma_float())
    sample = ChartSample.at(lift, _spread_params(lift, rng), 1)
    _assert_matches(ntilde_lagrangian_residual(D, sample),
                    np.array([_pointwise_ntilde(D, p) for p in _points(sample)]))
    _assert_rows_of_seven(lambda smp: ntilde_lagrangian_residual(D, smp), sample)

    # the sampled polytope charts, in groups of seven: their derivatives sum
    # by einsum, so a point's residuals do not depend on its batch either
    for name in ("one-quadric:3", "two-quadrics:2,2"):
        Q = catalog_quadrics(name)
        sample = sample_chart_points(Q, 70, rng, spec, order=2)
        for i in range(0, 70, 7):
            group = sample[i : i + 7]
            _assert_rows_of_seven(lambda smp: lagrangian_residual(Q, smp), group)
            _assert_rows_of_seven(lambda smp: minimality_residual_in_Z(Q, smp), group)
            _assert_rows_of_seven(lambda smp: hminimality_residual(Q, smp), group)


def test_factored_trace_matches_the_assembled_hessian():
    # an order-2 jet keeps the second derivatives as the product rule's
    # factors; their trace sum g^ab H_ab equals the contraction of the
    # assembled hessian ``Chart.hessian`` to a few ulp of each row's largest
    # entry (measured at most 3.4 eps, on the cp2 torus's global chart), on
    # every chart kind: sampled polytope charts, graph charts, the global
    # charts of every charted catalog system and circle charts with complex
    # u and none, one or two phase rows. A one-point slice's trace is its
    # row of the batch, bit for bit
    rng = np.random.default_rng(41)
    cases = [sample_chart_points(Q, 20, rng, spec, order=0) for Q in (
        catalog_quadrics("one-quadric:3"), catalog_quadrics("two-quadrics:2,2"),
        gale_dual(catalog_polytope("cube:3")), gale_dual(catalog_polytope("product:3,3")))]
    cases = [(smp.chart, smp.params) for smp in cases]
    cases += [(chart, _box_params(chart, rng, half)) for _, chart, half in _spread_charts()]
    cases += [(global_chart(Q), _global_box_params(global_chart(Q), rng, 20)) for _, Q in _charted_systems()]
    A, B, C = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    for rows in ([], [[1, 2, 1]], [[1, 0, 1], [0, 1, -1]]):
        circle = CircleSpreadChart(A, B, 0.3 * C, rows)
        angles, phases = rng.uniform(0.0, TWO_PI, (20, 1)), rng.uniform(0.0, 1.0, (20, circle.nphi))
        cases.append((circle, np.concatenate([angles, phases], axis=1)))
    assert {type(chart).__name__ for chart, _ in cases} == {"PolytopeChart", "TorusSpreadChart", "GlobalChart",
                                                            "CircleSpreadChart"}
    eps = np.finfo(float).eps
    for chart, S in cases:
        sample = ChartSample.at(chart, S, 2)
        gi = sample.metric_inverse
        reference = c2r(np.einsum("nab,nkab->nk", gi, chart.hessian(S)))
        trace = sample.jet[2].trace(gi)
        assert trace.shape == (20, 2 * chart.ambient_dim)
        assert np.all(np.abs(trace - reference).max(axis=1) <= 8 * eps * np.abs(reference).max(axis=1)), chart
        for i in (0, 7):
            one = sample[i : i + 1].jet[2].trace(gi[i : i + 1])
            assert np.array_equal(one[0], trace[i]), (chart, i)


def test_order_two_sample_builds_no_full_hessian():
    # an order-2 sample of 100 points and its curvature keep the hessian
    # as its factors: on cube:3 (m = 6, d = 6) the complex (N, m, d, d)
    # hessian alone takes 338 KiB, and the assembled path peaked at about
    # 1.0 MiB of traced memory; the factored one reads 0.32-0.36 MiB. One
    # untraced run first caches the base point's LP on Q and warms numpy's
    # first-call state, so the trace holds the sample's own arrays
    import tracemalloc

    for name in ("cube:3", "product:3,3"):
        Q = gale_dual(catalog_polytope(name))
        sample_chart_points(Q, 100, np.random.default_rng(0), spec, order=2).curvature
        tracemalloc.start()
        try:
            sample_chart_points(Q, 100, np.random.default_rng(0), spec, order=2).curvature
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024, (name, peak)


def test_sample_geometry_rows_do_not_depend_on_the_batch():
    # each quantity a sample computes once and keeps equals, bit for bit,
    # its row of the whole sample on a one-point slice, as the residuals
    # do (``_assert_rows_of_seven``): on sampled polytope charts, and on a
    # whole-N patch, whose slices are plain samples
    rng = np.random.default_rng(31)
    samples = [sample_chart_points(catalog_quadrics(name), 7, rng, spec, order=2)
               for name in ("one-quadric:3", "two-quadrics:2,2")]
    patch = ChartPatch.over(global_chart(catalog_quadrics("one-quadric:3")), [3, 4, 2], order=2)
    assert type(patch[:1]) is ChartSample and len(patch) == 24
    for sample in samples + [patch]:
        for i, p in enumerate(_points(sample)):
            for name in ("metric", "metric_inverse", "area", "curvature"):
                assert np.array_equal(getattr(p, name)[0], getattr(sample, name)[i]), (name, i)
            assert np.array_equal(p.frame[0], sample.frame[i]), i


def test_frame_orthonormal_and_annihilating():
    rng = np.random.default_rng(4)
    for name in ("one-quadric:3", "two-quadrics:2,2"):
        Q = catalog_quadrics(name)
        pts = sample_chart_points(Q, 5, rng, spec, order=1)
        F = tangent_frames(Q, pts)  # (5, 2m, d)
        assert F.shape == (5, 2 * Q.ambient_dim, pts.chart.dim)
        gram = np.swapaxes(F, 1, 2) @ F
        assert np.abs(gram - np.eye(F.shape[2])).max() < 1e-12
        grads = c2r(2.0 * Q.gamma_float() * pts.points[:, None, :])  # (5, k, 2m)
        assert np.abs(grads @ F).max() < 1e-10


def test_rank_test_decides_above_the_metrics_resolution():
    # g = J^T J resolves a column's sine only down to about sqrt(eps) = 1.5e-8,
    # so the rank test's 1e-7 sits above it: two unit columns of R^4 = C^2 at
    # an angle of 1e-9, in 200 seeded orientations, each raise, and at 1e-6
    # each pass. At a threshold of 1e-8, 225 of 2,000 orientations at 1e-9
    # passed as full rank, on rounding alone
    rng = np.random.default_rng(0)
    for angle, full_rank in ((1e-9, False), (1e-6, True)):
        for _ in range(200):
            R = np.linalg.qr(rng.standard_normal((4, 4)))[0]
            cols = R[:, :2] @ np.array([[1.0, np.cos(angle)], [0.0, np.sin(angle)]])  # (4, 2), real parts first
            sample = ChartSample(None, np.zeros((1, 2)), (np.zeros((1, 2), complex), r2c(cols.T).T[None]))
            if full_rank:
                assert tangent_frames(None, sample).shape == (1, 4, 2)
            else:
                with pytest.raises(NonConvergenceError, match="rank deficient"):
                    tangent_frames(None, sample)


def test_frame_symplectic_residual_matches_the_matrix_of_omega():
    # on random real orthonormal frames (2m, d), stacked, the closed form
    # |OMEGA_SCALE| max |X^T Y - Y^T X| equals max |F^T Omega F| with Omega
    # built entry by entry, to 8 eps; a lone frame gives a float, a stack
    # one value per frame, each its row of the stack
    rng = np.random.default_rng(43)
    eps = np.finfo(float).eps
    for m, d in ((1, 1), (1, 2), (2, 2), (3, 2), (3, 3), (4, 5), (6, 6)):
        F, _ = np.linalg.qr(rng.standard_normal((9, 2 * m, d)))
        got = frame_symplectic_residual(F)
        assert got.shape == (9,)
        reference = np.array([_omega_residual(f) for f in F])
        assert np.all(np.abs(got - reference) <= 8 * eps), (m, d)
        assert frame_symplectic_residual(F[4]) == got[4]
    # isotropic and symplectic pairs: [e, i e] reads |OMEGA_SCALE| = 1/pi
    e = np.zeros((4, 1))
    e[0, 0] = 1.0
    assert frame_symplectic_residual(np.concatenate([e, submanifold_numerics.times_i(e)], axis=1)) == 1 / np.pi
    assert frame_symplectic_residual(np.eye(4)[:, [0, 1]]) == 0.0


def test_lagrangian_residual_examples():
    Q2 = QuadricConfiguration.from_rows([(1, 1)], [1])
    r = 1 / np.sqrt(2)
    p = ChartSample.at(TorusSpreadChart(Q2, [r, r]), [0.0, 0.0], 2).on(Q2, spec)
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
    p = ChartSample.at(TorusSpreadChart(Q2, [r, r]), [0.0, 0.0], 2).on(Q2, spec)
    H = _mean_curvature(p)
    assert np.allclose(H, [-np.sqrt(2), -np.sqrt(2)], atol=1e-7)
    assert abs(np.linalg.norm(c2r(H)) - 2.0) < 1e-7

    # circle of radius r in C: H = -z / r^2
    Q1 = QuadricConfiguration.from_rows([(1,)], [1])
    pc = ChartSample.at(TorusSpreadChart(Q1, [1.0]), [0.3], 2).on(Q1, spec)
    Hc = _mean_curvature(pc)
    assert np.allclose(Hc, -pc.points[0], atol=1e-8)


def test_mean_curvature_scaling_law():
    lam = 1.7
    Qa = QuadricConfiguration.from_rows([(1, 1)], [1])
    Qb = QuadricConfiguration.from_rows([(1, 1)], [lam**2])
    r = 1 / np.sqrt(2)
    pa = ChartSample.at(TorusSpreadChart(Qa, [r, r]), [0.0, 0.17], 2).on(Qa, spec)
    pb = ChartSample.at(TorusSpreadChart(Qb, [lam * r, lam * r]), [0.0, 0.17], 2).on(Qb, spec)
    Ha = _mean_curvature(pa)
    Hb = _mean_curvature(pb)
    assert np.allclose(Hb, Ha / lam, atol=1e-7)


def test_mean_curvature_is_normal():
    rng = np.random.default_rng(6)
    Q = catalog_quadrics("one-quadric:3")
    pts = sample_chart_points(Q, 10, rng, spec, order=2)
    Hr, _, _ = _curvature(pts.chart, pts.params)
    F = tangent_frames(Q, pts)  # (10, 2m, d)
    assert np.abs(np.einsum("nid,ni->nd", F, Hr)).max() < 1e-6


def test_minimality_residual_examples():
    Q2 = QuadricConfiguration.from_rows([(1, 1)], [1])
    r = 1 / np.sqrt(2)
    p = ChartSample.at(TorusSpreadChart(Q2, [r, r]), [0.0, 0.0], 2).on(Q2, spec)
    assert minimality_residual_in_Z(Q2, p)[0] < 1e-8
    Q3 = catalog_quadrics("one-quadric:3")
    rng = np.random.default_rng(7)
    assert minimality_residual_in_Z(Q3, sample_chart_points(Q3, 100, rng, spec, order=2)).max() < 1e-4
    # the torus of radii rho_1 < rho_2 on the unit 3-sphere has |H| =
    # (rho_2^2 - rho_1^2) / (rho_1 rho_2) in the sphere: 0.4 / 0.99 = 40/99
    assert abs(unequal_torus_control(spec) - 40 / 99) <= 1e-14 * (40 / 99)
    # with no quadric (k = 0) Z is flat C^m, and the residual is |H|: 1/2
    # on the circle of radius 2
    from momentangle.exact_linalg import IntegerMatrix

    flat = QuadricConfiguration(IntegerMatrix([], cols=1), [])
    circle = ChartSample.at(CircleSpreadChart([2.0], [2j], [0.0], []), [[0.3], [1.0]], 2)
    assert np.allclose(minimality_residual_in_Z(flat, circle), 0.5, rtol=1e-14, atol=0)


def test_conjugation_symmetry_of_residuals():
    # the involution acts on a spread chart by negating the phase parameters
    Q = catalog_quadrics("one-quadric:3")
    rng = np.random.default_rng(8)
    for p in _points(sample_chart_points(Q, 5, rng, spec, order=2)):
        params_c = p.params[0].copy()
        params_c[p.chart.nv :] *= -1.0
        pc = ChartSample.at(p.chart, params_c, 2).on(Q, spec)
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


def test_closed_form_hamiltonian_gradients():
    # the polynomials of the stationarity checks have degree at most 2, so an
    # order-4 stencil of f is exact up to rounding
    rng = np.random.default_rng(11)
    for m in (2, 3):
        f, grad, _ = _poly_scalar(m, rng)
        X = 2.0 * rng.standard_normal((50, 2 * m))
        ref = fd.jacobian(lambda xr: f(r2c(xr)), X, 1e-4)
        assert np.abs(c2r(grad(r2c(X))) - ref).max() <= 1e-9 * np.abs(ref).max()


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
    _, grad, hess = _poly_scalar(3, rng)
    X = 2.0 * rng.standard_normal((300, 6))
    _assert_hessian_matches_fd(grad, hess, X, 1e-9)
    # real-linear in the direction, including the conj(V) part
    V = r2c(rng.standard_normal((300, 2, 6)))
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
    fields = _noether_hamiltonians(3)
    single = [noether_drift(Q, f, grad, z) for f, grad in fields]
    assert max(single) < 1e-14
    # the stacked path: values (n, H), gradients (n, H, m) and one drift per
    # Hamiltonian, its own drift bit for bit
    fs, grads = zip(*fields)

    def stack(fs, grads):
        return (lambda zz: np.stack([f(zz) for f in fs], axis=-1),
                lambda zz: np.stack([grad(zz) for grad in grads], axis=-2))

    stacked = noether_drift(Q, *stack(fs, grads), z)
    assert stacked.shape == (3,)
    assert np.array_equal(stacked, single)
    fc = lambda zz: 0.0 * zz[..., 0].real + 1.0
    assert noether_drift(Q, fc, np.zeros_like, z) == 0.0
    e1 = np.array([1.0, 0.0, 0.0], complex)  # the gradient of Re z_1
    re_z1, grad_re_z1 = lambda zz: zz[..., 0].real, lambda zz: e1 + 0.0 * zz
    with pytest.raises(InvarianceError):
        noether_drift(Q, re_z1, grad_re_z1, z)
    # one Hamiltonian that is not invariant fails the stack
    with pytest.raises(InvarianceError):
        noether_drift(Q, *stack(fs + (re_z1,), grads + (grad_re_z1,)), z)
    # the spot check is relative to f on the orbit, so it holds at every
    # scale: Re z_1 is rejected at |z| = 1e-9, where it moves by about 1e-9,
    # and the invariant Hamiltonians pass at |z| = 1e6, where sum |z_k|^4
    # reads 1e24. The drift divides each quadric's rate by the magnitudes of
    # its terms, so it stays at rounding there too
    with pytest.raises(InvarianceError):
        noether_drift(Q, re_z1, grad_re_z1, 1e-9 * z)
    large = noether_drift(Q, *stack(fs, grads), 1e6 * z)
    assert large.shape == (3,) and large.max() < 1e-14


# ---------------------------------------------------------------------------
# variations


def test_circle_first_variation():
    Q1 = QuadricConfiguration.from_rows([(1,)], [1])
    patch = ChartPatch.over(global_chart(Q1), [8], order=2)
    radial = VectorField(
        lambda z: z / np.abs(z),
        lambda z, V: V - z[:, None, :] * np.real(np.conj(z[:, None, :]) * V),  # on |z| = 1
    )
    # the phase chart is exact and both integrands are the constant 2 pi on
    # the trapezoid nodes: measured error 0
    assert abs(patch_volume_derivative(patch, radial) - TWO_PI) < 1e-14
    assert abs(first_variation_integral(patch, radial) - TWO_PI) < 1e-14


ORBIT = VectorField(lambda z: 1j * z, lambda z, V: 1j * V)


def test_tangential_field_preserves_volume():
    Q2 = QuadricConfiguration.from_rows([(1, 1)], [1])
    patch = ChartPatch.over(global_chart(Q2), [12, 12], order=1)
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
            return c2r(P + t * np.asarray(X(P)))

        return fn

    def vol(t):
        J = fd.jacobian(deformed(t), patch.params, s_step)
        g = np.einsum("nia,nib->nab", J, J)
        return float(np.sum(patch.w * np.sqrt(np.linalg.det(g))))

    def central(h):
        return (vol(h) - vol(-h)) / (2.0 * h)

    if richardson:
        return (4.0 * central(t_step / 2.0) - central(t_step)) / 3.0
    return central(t_step)


def test_volume_derivative_matches_two_volume_reference():
    # flat ambient: the whole C^2 torus under a random matrix field, by
    # Jacobi's formula. The reference extrapolates in t from 1e-3 and
    # differentiates each deformed chart at 2.5e-4. Its own error: it moves
    # by 5.0e-12 relative when that step doubles. Measured agreement: 1.1e-11
    patch = ChartPatch.over(global_chart(catalog_quadrics("one-quadric:2")), [12, 12], order=1)
    X = _random_matrix_field(2, np.random.default_rng(3))
    ref = _two_volume_derivative(patch, X, t_step=1e-3, s_step=2.5e-4, richardson=True)
    assert abs(patch_volume_derivative(patch, X) - ref) < 1e-9 * abs(ref)

    # the rp2 lift: the graph chart of the sphere's real locus
    # spread by the diagonal circle, on one node along the circle. A local
    # patch under a random matrix field (boundary flux), inside the graph's
    # domain, which holds the box of half-width 0.13. The reference
    # extrapolates in t from 1e-3 and differentiates each deformed chart at
    # 5e-4. Its own error: it moves by 3.3e-11 relative when that step
    # halves and by 3.9e-11 when t halves. Measured agreement: 2.0e-12
    D = catalog_double("rp2")
    lift = TorusSpreadChart(D.stacked, real_base_point(D.stacked))
    lpatch = ChartPatch.grid(lift, [-0.1, -0.1, -0.5], [0.1, 0.1, 0.5], [24, 24, 1], 1, ())
    Xl = _random_matrix_field(3, np.random.default_rng(4))
    ref = _two_volume_derivative(lpatch, Xl, t_step=1e-3, s_step=5e-4, richardson=True)
    assert abs(patch_volume_derivative(lpatch, Xl) - ref) < 5e-11 * abs(ref)


RADIAL = VectorField(lambda z: z, lambda z, V: V)


def test_stationarity_ratio_negative_controls():
    # the radial field z -> z scales N, so dVol/dt = dim(N) vol, and on the
    # unit sphere |z| = 1 the ratio reads dim(N): 2 on the spread torus
    # e^{2 pi i phi} (cos t, sin t) and 3 on the triangle's N, over the
    # whole of N (measured to 4.4e-16)
    for name, dim in (("one-quadric:2", 2), ("one-quadric:3", 3)):
        Q = catalog_quadrics(name)
        chart = global_chart(Q)
        patch = ChartPatch.over(chart, [12] * chart.dim, order=1)
        assert abs(stationarity_ratio(patch, RADIAL) - dim) < 1e-13, name
        assert stationarity_ratio(patch, ORBIT) < 1e-15, name


def test_stationarity_ratio_reads_the_same_at_every_scale():
    # c -> lam c maps N to sqrt(lam) N, and the ratio, a volume rate over
    # integral |X| dA / R with R the patch's RMS radius, has no units: the
    # radial field reads dim N = 3 on one quadric in C^3 at c = 1e-12, 1 and
    # 1e12 (measured 3 to 1.5e-16 relative). Over integral |X| dA alone it
    # would read 3 / sqrt(c), 3e-6 at c = 1e12, below TOL_STATIONARITY: a
    # field that changes volume would pass as stationary
    for c in (Fraction(1, 10**12), 1, 10**12):
        chart = global_chart(QuadricConfiguration.from_rows([(1, 1, 1)], [c]))
        patch = ChartPatch.over(chart, [12] * chart.dim, order=1)
        assert abs(stationarity_ratio(patch, RADIAL) - 3.0) < 1e-14, c


def test_stationarity_scale_is_frame_independent():
    # the ratio divides by integral |X| dA, which no unitary change of frame
    # moves: the radial field reads 2 on the spread torus and on its image
    # under (z_1 + i z_2, z_1 - i z_2) / sqrt 2, the Clifford torus
    # (e^{i a}, e^{2 pi i phi}) / sqrt 2, whose component moduli are all
    # 1 / sqrt 2 (the largest-component scale read 2.0002 and 2.8284)
    r = 1.0 / np.sqrt(2.0)
    clifford = CircleSpreadChart([r, 0.0], [1j * r, 0.0], [0.0, r], [[0.0, 1.0]])
    patch = ChartPatch.grid(clifford, [0.0, 0.0], [TWO_PI, 1.0], [8, 8], 1, (0, 1))
    assert abs(stationarity_ratio(patch, RADIAL) - 2.0) < 1e-14
    torus = ChartPatch.over(global_chart(catalog_quadrics("one-quadric:2")), [8, 8], order=1)
    assert abs(stationarity_ratio(torus, RADIAL) - 2.0) < 1e-14


def test_equivariant_curvature_direction_consistency():
    # variation along (the in-quadric-set part of) the curvature direction:
    # for the balanced torus both the derivative and the squared-norm
    # quadrature vanish
    Q2 = QuadricConfiguration.from_rows([(1, 1)], [1])
    chart = global_chart(Q2)
    patch = ChartPatch.over(chart, [20, 20], order=2)

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
    # the Clifford torus and the circle on their graph charts:
    # i_H omega is the angle form (measured 0 and 7.1e-17)
    Q2 = QuadricConfiguration.from_rows([(1, 1)], [1])
    r = 1 / np.sqrt(2)
    p = ChartSample.at(TorusSpreadChart(Q2, [r, r]), [0.0, 0.0], 2).on(Q2, spec)
    assert hminimality_residual(Q2, p)[0] < 1e-4
    Q1 = QuadricConfiguration.from_rows([(1,)], [1])
    pc = ChartSample.at(TorusSpreadChart(Q1, [1.0]), [0.2], 2).on(Q1, spec)
    assert hminimality_residual(Q1, pc)[0] < 1e-6

    # the ellipse on its closed-form chart: |i_H omega|_g = |OMEGA_SCALE| |H|
    # from its sample's curvature, against its closed form
    # |OMEGA_SCALE| kappa: measured 1.6e-16 apart, and bounded at about 20
    # units in the last place
    numeric, oracle = ellipse_control()
    assert numeric > 1e-2
    assert abs(numeric - oracle) / oracle < 4e-15

    # the reduced lift of a double has dimension 2 in C^3: no Lagrangian angle
    D = catalog_double("cp2-torus")
    lift = TorusSpreadChart(D.stacked, [1.0, 0.0, 1.0], phase_rows=D.delta_cfg.gamma_float())
    with pytest.raises(ValueError, match="no Lagrangian angle"):
        hminimality_residual(D.stacked, ChartSample.at(lift, [0.1, 0.3], 2))


def test_hminimality_refuses_a_chart_whose_u_is_not_real():
    # the angle form 2 sum_k R_jk holds where u is real; on the chart
    # (cos a, sin a) in C, whose u is complex, the H-minimal unit circle
    # would read 1/pi (its curvature against a zero angle form), so it is
    # refused. The same circle as the spread of the real point u = 1 reads
    # the floor
    circle = ChartSample.at(CircleSpreadChart([1], [1j], [0], []), [[0.3], [1.2]], 2)
    with pytest.raises(ValueError, match="u is not real"):
        hminimality_residual(None, circle)
    Q1 = QuadricConfiguration.from_rows([(1,)], [1])
    spread = ChartSample.at(TorusSpreadChart(Q1, [1.0]), [[0.3], [0.7]], 2).on(Q1, spec)
    assert hminimality_residual(Q1, spread).max() < 1e-14


def test_spread_metric_has_no_v_phi_block():
    # the premise of the angle argument behind hminimality_residual: on a
    # spread chart with u real, d_v z = phases d_v u and d_phi z = 2 pi i R u
    # phases are orthogonal, so g_v,phi vanishes to rounding. On the command
    # sample of every catalog configuration that is not a double, at seeds
    # 0-4: measured at most 1.6e-17 of max |g| (5.5e-16 absolute on triangle)
    from momentangle.reduction_catalog import POLYTOPE_NAMES, QUADRIC_NAMES

    systems = [gale_dual(catalog_polytope(name)) for name in POLYTOPE_NAMES]
    systems += [catalog_quadrics(name) for name in QUADRIC_NAMES]
    assert len(systems) == 15
    for Q in systems:
        for seed in range(5):
            sample = sample_chart_points(Q, 100, np.random.default_rng(seed), spec, order=1)
            g, nv = sample.metric, sample.chart.nv
            assert np.abs(g[:, :nv, nv:]).max(initial=0.0) <= 1e-15 * np.abs(g).max(), (Q, seed)


# one quadric in C^2 and C^3, gamma (2, 2) with c = 2, and two quadrics in
# C^4, the last two with dual covolume 1/2: the gated instances, and beyond
# the gate one quadric in C^4, two quadrics in C^5 and gamma (1, 2, 3)
COAREA_CONFIGURATIONS = (
    "one-quadric:2",
    "one-quadric:3",
    "gamma (2, 2)",
    "two-quadrics:2,2",
    "one-quadric:4",
    "two-quadrics:2,3",
    "gamma (1, 2, 3)",
)


def _coarea_configuration(name):
    from momentangle.exact_linalg import IntegerMatrix

    if name == "gamma (2, 2)":
        return QuadricConfiguration(IntegerMatrix([[2, 2]], cols=2), [2])
    if name == "gamma (1, 2, 3)":
        return QuadricConfiguration.from_rows([(1, 2, 3)], [1])
    return catalog_quadrics(name)


def _coarea_mismatch(name, seed):
    Q = _coarea_configuration(name)
    return coarea_orbit_volume_check(Q, sample_chart_points(Q, 100, np.random.default_rng(seed), spec, order=1))


def test_coarea_identity():
    # the chart's metric has no v-phi block, so sqrt det g |det D| and
    # sqrt det g_vv V_orb agree at every point, on the gate's instances and
    # beyond it: measured at most 1.4e-15 over seeds 0-4
    for name in COAREA_CONFIGURATIONS:
        for seed in range(5):
            mismatch = _coarea_mismatch(name, seed)
            assert mismatch.shape == (100,) and mismatch.max() <= 1e-12, (name, seed)


def test_coarea_nontrivial_dual_covolume(monkeypatch):
    # negative control: an orbit volume without the factor |det D| = 1 /
    # lattice_index measures the unit phi-box, which runs over the
    # covolume-1/2 lattice's domain twice, so the downstairs side doubles
    # (relative mismatch 0.5 at every point) where the dual lattice is not Z^k
    real = submanifold_numerics.orbit_volume
    monkeypatch.setattr(submanifold_numerics, "orbit_volume", lambda Q, z: real(Q, z) * Q.lattice_index)
    for name in ("gamma (2, 2)", "two-quadrics:2,2"):
        assert Fraction(1, _coarea_configuration(name).lattice_index) == Fraction(1, 2)
        assert np.abs(_coarea_mismatch(name, 0) - 0.5).max() < 1e-12, name


def test_patch_volume_double_cover():
    Q2 = QuadricConfiguration.from_rows([(1, 1)], [1])
    patch = ChartPatch.over(global_chart(Q2), [12, 12], order=1)
    # the (theta, phi) box covers the spread torus twice: 2 * 2 pi^2
    assert abs(np.sum(patch.w * patch.area) - 4 * np.pi**2) < 1e-12


def test_frame_spans_expected_directions():
    # balanced-point frame of the spread circle spans {(-1,1)/sqrt2, (i,i)/sqrt2}
    Q2 = QuadricConfiguration.from_rows([(1, 1)], [1])
    r = 1 / np.sqrt(2)
    p = ChartSample.at(TorusSpreadChart(Q2, [r, r]), [0.0, 0.0], 2).on(Q2, spec)
    V = tangent_frames(Q2, p)[0].T  # (2, 4)
    for target in (np.array([-1.0, 1.0, 0.0, 0.0]) / np.sqrt(2),
                   np.array([0.0, 0.0, 1.0, 1.0]) / np.sqrt(2)):
        coeffs = V @ target
        assert abs(np.linalg.norm(coeffs) - 1.0) < 1e-10  # target lies in the span

    # sphere chart at a coordinate point contains the rotation direction
    Q3 = catalog_quadrics("one-quadric:3")
    p3 = ChartSample.at(TorusSpreadChart(Q3, [1.0, 0.0, 0.0]), [0.0, 0.0, 0.0], 2).on(Q3, spec)
    V3 = tangent_frames(Q3, p3)[0].T
    rot = np.zeros(6)
    rot[3] = 1.0  # the direction i * e_1
    assert abs(np.linalg.norm(V3 @ rot) - 1.0) < 1e-10


def test_chart_patch_keeps_to_the_node_budget(monkeypatch):
    # a patch takes at most NODE_BUDGET nodes, whatever its dimension, and
    # the budget is read before the grid is allocated
    from momentangle import quadrature

    def spread(rows):  # the unit circle in C^2 x {0}, spread by ``rows``: dimension 1 + len(rows)
        return CircleSpreadChart([1, 0, 0], [0, 1, 0], [0, 0, 0], rows)

    five = ChartPatch.grid(spread(np.eye(4, 3)), [0.0] * 5, [1.0] * 5, [3] * 5, 1, ())
    assert five.params.shape == (243, 5) and five.jet[1].shape == (243, 3, 5)
    assert submanifold_numerics.NODE_BUDGET == 2**16
    assert submanifold_numerics.within_node_budget([2**8, 2**4, 2**4])
    assert not submanifold_numerics.within_node_budget([2**8, 2**8 + 1])
    monkeypatch.setattr(quadrature, "tensor_grid", lambda *args: pytest.fail("the grid was allocated"))
    with pytest.raises(ValueError, match="node budget"):
        ChartPatch.grid(spread(np.eye(3)), [0.0] * 4, [1.0] * 4, [2 * 10**12 + 1, 8, 1, 1], 1, ())
