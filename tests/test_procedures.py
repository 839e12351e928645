import numpy as np
import pytest

from momentangle import procedures as proc
from momentangle.quadric_config import QuadricConfiguration
from momentangle.reduction_catalog import catalog_polytope, catalog_quadrics, cp_chart_verify
from momentangle.submanifold_numerics import DEFAULT_SPEC, sample_chart_points


def _sample(Q, samples, seed, order=2):
    return sample_chart_points(Q, samples, np.random.default_rng(seed), DEFAULT_SPEC, order=order)


def test_gale_report_exact():
    rep = proc.gale_report(catalog_polytope("product:2,3"))
    assert rep.overall
    names = [r.name for r in rep.records]
    assert names == ["gale-orthogonality-exact", "gale-image-level-exact"]


def test_gale_level_negative_control(monkeypatch):
    # a dual whose level is off by one keeps its rows, so orthogonality
    # still holds and only the level record fails
    gale_dual = proc.gale_dual

    def shifted(P):
        Q = gale_dual(P)
        return QuadricConfiguration(Q.gamma, [c + 1 for c in Q.c])

    monkeypatch.setattr(proc, "gale_dual", shifted)
    for name in ("triangle", "product:2,3"):
        passed = {r.name: r.passed for r in proc.gale_report(catalog_polytope(name)).records}
        assert passed == {"gale-orthogonality-exact": True, "gale-image-level-exact": False}, name


def test_polytope_and_freeness_reports():
    assert proc.polytope_report(catalog_polytope("square")).overall
    rep = proc.polytope_report(catalog_polytope("bad-triangle"))
    assert not rep.overall  # delzant record fails
    assert proc.delzant_freeness_report(catalog_polytope("bad-triangle")).overall


def test_nondegeneracy_and_freeness_reports():
    Q = catalog_quadrics("two-quadrics:2,2")
    assert proc.nondegeneracy_report(Q).overall and proc.freeness_report(Q).overall
    Q = QuadricConfiguration.from_rows([(1, 2)], [1])
    assert proc.nondegeneracy_report(Q).overall
    assert not proc.freeness_report(Q).overall


def test_first_variation_report_unsupported():
    with pytest.raises(ValueError):
        proc.first_variation_report(catalog_quadrics("two-quadrics:2,2"))
    with pytest.raises(ValueError):
        proc.hamiltonian_stationarity_report(catalog_quadrics("one-quadric:4"), n_fields=3)


def test_first_variation_small_derivative_seed():
    # a random field with a small first variation (|dv| ~ 0.03): the
    # curvature quadrature must still match to the relative tolerance
    rep = proc.first_variation_report(catalog_quadrics("one-quadric:2"), seed=1819340549)
    assert [r.name for r in rep.records] == [f"first-variation-field-{i}" for i in range(5)]
    assert rep.overall, rep.render_human()


def test_point_residual_report_shapes():
    Q = catalog_quadrics("one-quadric:2")
    rep = proc.point_residual_report(Q, _sample(Q, 10, 3, order=1))
    assert rep.overall
    by_name = {r.name: r for r in rep.records}
    assert by_name["lagrangian-residual"].samples == 10
    assert by_name["lagrangian-negative-control"].residual < 0  # passes with margin


def test_orbit_volume_conjugation_catches_a_dropped_lattice_index(monkeypatch):
    # the record compares orbit_volume at z with the volume the generators span
    # at conj(z): an orbit_volume that forgets the covolume of the period
    # lattice (index 2 on two-quadrics:2,2) reads twice the spanned volume
    Q = catalog_quadrics("two-quadrics:2,2")
    sample = _sample(Q, 20, 0, order=0)
    rep = proc.vo_symmetry_report(Q, sample)
    assert rep.overall and rep.records[0].residual < 1e-15
    orbit_volume = proc.orbit_volume
    monkeypatch.setattr(proc, "orbit_volume", lambda Q, z: orbit_volume(Q, z) * Q.lattice_index)
    record = proc.vo_symmetry_report(Q, sample).records[0]
    assert not record.passed and record.residual == pytest.approx(0.5, abs=1e-15)


def test_machine_report_format():
    Q = catalog_quadrics("one-quadric:3")
    rep = proc.noether_report(Q, _sample(Q, 1, 2, order=0), seed=2)
    text = rep.render_machine()
    lines = [ln for ln in text.splitlines() if ln]
    assert all(len(ln.split("\t")) == 4 for ln in lines)
    assert all(ln.split("\t")[3] in ("pass", "fail") for ln in lines)


def test_noether_report_rejects_without_an_exception(monkeypatch):
    # the control reads the invariance spot check's value: Re z_1 is not
    # torus-invariant, and no call of noether_drift raises on the way, so
    # an exception counted in a traced run is a fault, never a passing
    # control. The spot check is the one noether_drift raises on
    from momentangle.submanifold_numerics import InvarianceError, noether_drift

    raised = []

    def watched(*args, **kwargs):
        try:
            return noether_drift(*args, **kwargs)
        except Exception as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(proc, "noether_drift", watched)
    for name in ("one-quadric:2", "one-quadric:3", "two-quadrics:2,2"):
        Q = catalog_quadrics(name)
        for seed in range(3):
            rep = proc.noether_report(Q, _sample(Q, 1, seed, order=0), seed=seed)
            assert [(r.name, r.passed) for r in rep.records] == [("noether-drift", True),
                                                                   ("noninvariant-rejected", True)], (name, seed)
    assert raised == []
    from momentangle.submanifold_numerics import is_torus_invariant

    Q = catalog_quadrics("one-quadric:3")
    z = _sample(Q, 1, 0, order=0).points[0]
    assert not is_torus_invariant(Q, lambda zz: zz[..., 0].real, z, np.random.default_rng(2))
    assert is_torus_invariant(Q, lambda zz: (np.abs(zz) ** 2).sum(axis=-1), z, np.random.default_rng(2))
    with pytest.raises(InvarianceError):
        noether_drift(Q, lambda zz: zz[..., 0].real, lambda zz: np.eye(3)[0] + 0.0 * zz, z)


def test_cp_chart_verify_requires_equal_coefficients():
    # a valid double whose first system is two quadrics does not reduce to
    # projective space: the projective records refuse it, and the CLI skips them
    from momentangle.exact_linalg import IntegerMatrix
    from momentangle.reduction_catalog import is_projective, stack_double

    g = catalog_quadrics("two-quadrics:2,2")
    D = stack_double(g, QuadricConfiguration(IntegerMatrix([], cols=4), []))
    assert not is_projective(D.gamma_cfg)
    assert not is_projective(QuadricConfiguration.from_rows([(1, 1, 2)], [3]))
    assert is_projective(QuadricConfiguration.from_rows([(2, 2, 2)], [3]))
    with pytest.raises(ValueError, match="equal coefficients"):
        cp_chart_verify(D)


def test_renderings_contain_identical_numbers():
    Q = catalog_quadrics("one-quadric:2")
    sample = _sample(Q, 5, 1)
    rep = proc.point_residual_report(Q, sample)
    rep.extend(proc.minimality_report(Q, sample))
    human = rep.render_human()
    machine = rep.render_machine()
    for r in rep.records:
        assert repr(r.residual) in human and repr(r.residual) in machine
        assert repr(r.tolerance) in human and repr(r.tolerance) in machine


def test_stationarity_checks_take_no_fd_gradient():
    # every Hamiltonian carries a closed-form gradient: fd has no gradient
    # stencil, and the stationarity checks run without one
    from momentangle import fd
    from momentangle.reduction_catalog import catalog_double

    assert not hasattr(fd, "gradient")
    for name in ("one-quadric:2", "one-quadric:3"):
        assert proc.hamiltonian_stationarity_report(catalog_quadrics(name), n_fields=1).overall
    for name in ("cp2-torus", "rp2"):
        assert cp_chart_verify(catalog_double(name)).overall


def _variational_records() -> list:
    """Every record of the reports that integrate over the whole of N, on the
    catalog instances that run them and the circle, at seeds 0-4."""
    from momentangle.quadric_config import gale_dual
    from momentangle.reduction_catalog import catalog_double

    reports = []
    for seed in range(5):
        for name in ("triangle", "bad-triangle", "simplex:2", "one-quadric:2", "one-quadric:3"):
            Q = catalog_quadrics(name) if name.startswith("one-quadric") else gale_dual(catalog_polytope(name))
            reports.append(proc.hamiltonian_stationarity_report(Q, seed=seed, n_fields=3))
        for Q in (catalog_quadrics("one-quadric:1"), catalog_quadrics("one-quadric:2"),
                  QuadricConfiguration.from_rows([(1, 2)], [1])):
            reports.append(proc.first_variation_report(Q, seed=seed))
        for name in ("rp2", "cp2-torus"):
            reports.append(cp_chart_verify(catalog_double(name), seed=seed))
    return [r for rep in reports for r in rep.records]


def test_variational_records_read_the_floor_at_twice_their_nodes(monkeypatch):
    # the variational records integrate over the whole of N, on the
    # trapezoid rule along its periodic axes and Gauss-Legendre along its
    # polar angles: at their node counts and at twice as many on every
    # axis, the polar and azimuth axes of ``charts.WHOLE_NODES`` and the
    # degree plus one of the phases and of the azimuths between equal
    # columns alike, each reads the rounding floor (the ratios measured at
    # most 7.9e-16 and 3.8e-16, the circle's differences from 2 pi 1.8e-15
    # at both), and the records keep their names. gamma (1, 2) is the one
    # input whose azimuth, between unequal columns, reads the table
    from momentangle import charts
    from momentangle.charts import GlobalChart

    records = _variational_records()
    assert len(records) == 5 * (5 * 3 + 3 + 5 + 5 + 2 * 2)
    assert max(r.residual for r in records) <= 1e-14
    monkeypatch.setattr(charts, "WHOLE_NODES", {kind: 2 * n for kind, n in charts.WHOLE_NODES.items()})
    node_counts = GlobalChart.node_counts
    monkeypatch.setattr(GlobalChart, "node_counts", lambda self, frequencies, azimuth_degree: (
        node_counts(self, [2 * top + 1 for top in frequencies], 2 * azimuth_degree + 1)))
    doubled = _variational_records()
    assert [r.name for r in doubled] == [r.name for r in records]
    assert max(r.residual for r in doubled) <= 1e-14


def test_triangle_stationarity_aliases_one_phase_node_short(monkeypatch):
    # the triangle's integrands reach degree 2 along its phases, which take 3
    # nodes; at 2, one short of exact, a frequency-2 term aliases onto the
    # mean, and the worst record of every seed fails (measured 0.068-0.30,
    # where 3 nodes read at most 1.7e-16)
    from momentangle.charts import GlobalChart, global_chart
    from momentangle.quadric_config import gale_dual
    from momentangle.report import TOL_STATIONARITY

    Q = gale_dual(catalog_polytope("triangle"))
    assert proc._whole_nodes(global_chart(Q)) == [12, 3, 3]
    node_counts = GlobalChart.node_counts
    monkeypatch.setattr(GlobalChart, "node_counts", lambda self, frequencies, azimuth_degree: (
        node_counts(self, [top - 1 for top in frequencies], azimuth_degree)))
    for seed in range(5):
        worst = max(r.residual for r in proc.hamiltonian_stationarity_report(Q, seed=seed, n_fields=3).records)
        assert worst > 10 * TOL_STATIONARITY, (seed, worst)


def test_first_variation_aliases_one_azimuth_node_short(monkeypatch):
    # the C^2 torus's azimuth turns its two equal columns, so a field's
    # integrands are of degree 2 along it and it takes 3 nodes, where every
    # record reads the rounding floor (measured at most 4.5e-16 at seeds
    # 0-4); at 2, one short of exact, the worst record of every seed fails
    # (measured 0.58-1.2)
    from momentangle.charts import GlobalChart, global_chart
    from momentangle.report import TOL_VARIATION_REL

    Q = catalog_quadrics("one-quadric:2")
    assert proc._whole_nodes(global_chart(Q)) == [3, 3]
    for seed in range(5):
        assert max(r.residual for r in proc.first_variation_report(Q, seed=seed).records) <= 1e-15, seed
    node_counts = GlobalChart.node_counts
    monkeypatch.setattr(GlobalChart, "node_counts", lambda self, frequencies, azimuth_degree: (
        node_counts(self, frequencies, azimuth_degree - 1)))
    assert proc._whole_nodes(global_chart(Q)) == [2, 3]
    for seed in range(5):
        worst = max(r.residual for r in proc.first_variation_report(Q, seed=seed).records)
        assert worst > 10 * TOL_VARIATION_REL, (seed, worst)


def test_azimuth_takes_its_degree_only_between_equal_columns():
    # gamma (1, 1, 2): the azimuth turns z_0 and z_1, whose columns are equal,
    # so it takes 2 + 1 nodes, and the radial field's ratio, whose integrands
    # no such rotation moves, reads the value of the table's 12 nodes
    # (measured 3.01510789 at both, 7.4e-16 apart). bad-triangle (1, 2, 1)
    # and (2, 1, 1) put their azimuth on two unequal columns: the table's 12
    from momentangle.charts import global_chart
    from momentangle.quadric_config import gale_dual
    from momentangle.submanifold_numerics import ChartPatch, VectorField, stationarity_ratio

    radial = VectorField(lambda z: z, lambda z, V: V)
    chart = global_chart(QuadricConfiguration.from_rows([(1, 1, 2)], [1]))
    nodes = proc._whole_nodes(chart)
    assert nodes == [12, 3, 5]
    exact, table = (stationarity_ratio(ChartPatch.over(chart, n, order=1), radial) for n in (nodes, [12, 12, 5]))
    assert abs(exact - table) <= 1e-12 * table
    for Q in (gale_dual(catalog_polytope("bad-triangle")), QuadricConfiguration.from_rows([(2, 1, 1)], [1])):
        assert proc._whole_nodes(global_chart(Q)) == [12, 12, 5], Q.gamma.entries


def test_hminimality_catches_a_second_derivative_off_by_one_part_in_a_thousand(monkeypatch):
    # the polytope chart's second v-derivative of u, times 1 + eps: the
    # curvature moves and the angle form does not, so the triangle's
    # residual reads 2 eps / pi (measured 6.4e-4 at eps = 1e-3, against the
    # tolerance 1e-4) and at eps = 0 its floor (measured 4.3e-16)
    import io

    from momentangle.charts import PolytopeChart
    from momentangle.cli import _catalog_config, run_command
    from momentangle.report import TOL_HMINIMAL
    from momentangle.submanifold_numerics import MetricSpec

    solve = PolytopeChart._u

    def residual(eps):
        monkeypatch.setattr(PolytopeChart, "_u", lambda self, V, order: tuple(
            (1.0 + eps) * part if n == 2 else part for n, part in enumerate(solve(self, V, order))))
        rep = run_command("verify-hminimal", _catalog_config("triangle"), 0, 100, MetricSpec(), out=io.StringIO())
        record = next(r for r in rep.records if r.name == "hminimality-residual")
        assert record.samples == 100
        return record.residual

    assert residual(1e-3) > TOL_HMINIMAL
    assert residual(0.0) < 1e-15


def test_report_all_evaluates_each_point_set_once(monkeypatch):
    # a sample or patch is evaluated once, as a jet through the order its
    # checks read: one u(v) solve per point set, at the default 100 samples.
    # Its metric is inverted once and Cholesky-factored at most once, on
    # first read, for every check and every field that reads it, and no
    # volume derivative solves a metric system
    import io

    from momentangle.charts import CircleSpreadChart, GlobalChart, PolytopeChart, TorusSpreadChart
    from momentangle.cli import _catalog_config, run_command
    from momentangle.submanifold_numerics import MetricSpec

    solves = []  # (chart class, rows, order) per u(v) solve
    for cls in (TorusSpreadChart, CircleSpreadChart, GlobalChart, PolytopeChart):
        monkeypatch.setattr(cls, "_u", lambda self, V, order, u=cls._u: (
            solves.append((type(self).__name__, len(V), order)) or u(self, V, order)))
    inverted, solved = [], []  # rows per batched inverse and per batched solve
    inv, solve = np.linalg.inv, np.linalg.solve
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(len(a)) or inv(a))
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solved.append(len(a)) or solve(a, b))
    factored = []  # (rows, columns) per batched (3-D) QR
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kw: (
        np.ndim(a) == 3 and factored.append((len(a), np.shape(a)[-1]))) or qr(a, *args, **kw))
    cholesky_rows = []  # rows per batched Cholesky factorization
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a, *args, **kw: (
        cholesky_rows.append(len(a)) or cholesky(a, *args, **kw)))

    def report_all(name):
        for calls in (solves, inverted, solved, factored, cholesky_rows):
            calls.clear()
        rep = run_command("report-all", _catalog_config(name), 0, 100, MetricSpec(), out=io.StringIO())
        assert rep.overall, name
        assert solved == [], name

    # the rp2 lift: its 12 x 5 x 1-node patch on the global chart, which
    # the Lagrangian residual and the stationarity ratio both read; no
    # command builds a TorusSpreadChart
    report_all("rp2")
    assert [s for s in solves if s[0] != "PolytopeChart"] == [("GlobalChart", 60, 1)]
    assert inverted == [60] and cholesky_rows == [60]
    # the C^2 torus: the first-variation patch (3 x 3 nodes, whose
    # curvature integral reads order 2) and the stationarity patch (3 x 3);
    # the first-variation patch's one inverse serves the curvature and the
    # volume derivative of all 5 fields
    report_all("one-quadric:2")
    assert [s for s in solves if s[0] == "GlobalChart"] == [("GlobalChart", 9, 2), ("GlobalChart", 9, 1)]
    assert inverted == [100, 9, 9]
    # the sample's one Cholesky factor of g gives its frames, and each
    # patch's its area element; no jacobian is QR-factored. The batched QRs
    # factor only the k = 1 normal of Z at the negative control's 5 points
    # and at the sample's points for minimality
    assert cholesky_rows == [100, 9, 9]
    assert factored == [(5, 1), (100, 1)]
    # triangle: the command's one 100-point sample through order 2, which
    # the co-area identity and the H-minimality residual read too, and the
    # whole-N stationarity patch (12 x 3 x 3 nodes), at order 1: no check
    # reads its hessian. The sample's metric is inverted once, for the
    # curvature and the angle form, and the stationarity patch's once for
    # 3 fields
    report_all("triangle")
    assert [s[1:] for s in solves if s[0] == "PolytopeChart"] == [(100, 2)]
    assert [s for s in solves if s[0] != "PolytopeChart"] == [("GlobalChart", 108, 1)]
    assert inverted == [100, 108]
    # the same factorizations, on N of dimension 3: the sample's Cholesky
    # factor serves its frames and the co-area identity's area element
    assert cholesky_rows == [100, 108]
    assert factored == [(5, 1), (100, 1)]


def test_no_module_in_src_imports_fd():
    # every chart differentiates in closed form: the stencils serve only the
    # tests, as their oracle
    import ast
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src" / "momentangle"
    importers = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                if any(n.split(".")[-1] == "fd" for n in names):
                    importers.add(path.name)
    assert importers == set()


def test_delzant_and_freeness_are_decided_independently(monkeypatch):
    # the identity compares two independent computations: the polytope side
    # may not enumerate the feasible bases, nor the quadric side the vertices,
    # even when the other side's cache is already filled
    from momentangle import polytope, quadric_config, torus_actions
    from momentangle.polytope import PolytopePresentation
    from momentangle.quadric_config import gale_dual

    def guarded(check, forbidden):
        def run(*args):
            def refuse(*_):
                raise AssertionError(f"{check.__name__} reached the other side of the identity")

            with monkeypatch.context() as m:
                for module, name in forbidden:
                    m.setattr(module, name, refuse)
                return check(*args)

        return run

    bases = [(quadric_config, "feasible_bases"), (torus_actions, "feasible_bases")]
    vertices = [(polytope, "enumerate_vertices")]
    monkeypatch.setattr(proc, "is_simple", guarded(proc.is_simple, bases))
    monkeypatch.setattr(proc, "is_delzant", guarded(proc.is_delzant, bases))
    monkeypatch.setattr(proc, "freeness_check", guarded(proc.freeness_check, vertices))
    # the square pyramid is not simple, so neither Delzant nor free
    pyramid = ([(0, 0, 1), (-1, 0, -1), (1, 0, -1), (0, -1, -1), (0, 1, -1)], [0, 1, 1, 1, 1])
    for name in ("cube:3", "bad-triangle", "square-pyramid"):
        for warm_first in (proc.polytope_report, lambda P: proc.freeness_report(gale_dual(P))):
            P = PolytopePresentation(*pyramid) if name == "square-pyramid" else catalog_polytope(name)
            warm_first(P)
            assert proc.delzant_freeness_report(P).overall, name
