import pytest

from momentangle import procedures as proc
from momentangle.quadric_config import QuadricConfiguration
from momentangle.reduction_catalog import catalog_polytope, catalog_quadrics, cp_chart_verify


def test_gale_report_exact():
    rep = proc.gale_report(catalog_polytope("product:2,3"), seed=1)
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


def test_quadrics_core_report():
    rep = proc.quadrics_core_report(catalog_quadrics("two-quadrics:2,2"))
    assert rep.overall
    rep = proc.quadrics_core_report(QuadricConfiguration.from_rows([(1, 2)], [1]))
    assert not rep.overall  # freeness fails


def test_first_variation_report_unsupported():
    with pytest.raises(ValueError):
        proc.first_variation_report(catalog_quadrics("two-quadrics:2,2"))
    with pytest.raises(ValueError):
        proc.hamiltonian_stationarity_report(catalog_quadrics("one-quadric:4"))


def test_first_variation_small_derivative_seed():
    # a random field with a small first variation (|dv| ~ 0.03): the
    # curvature quadrature must still match to the relative tolerance
    rep = proc.first_variation_report(catalog_quadrics("one-quadric:2"), seed=1819340549)
    assert [r.name for r in rep.records] == [f"first-variation-field-{i}" for i in range(5)]
    assert rep.overall, rep.render_human()


def test_point_residual_report_shapes():
    rep = proc.point_residual_report(catalog_quadrics("one-quadric:2"), samples=10, seed=3)
    assert rep.overall
    by_name = {r.name: r for r in rep.records}
    assert by_name["lagrangian-residual"].samples == 10
    assert by_name["lagrangian-negative-control"].residual < 0  # passes with margin


def test_machine_report_format():
    rep = proc.noether_report(catalog_quadrics("one-quadric:3"), seed=2)
    text = rep.render_machine()
    lines = [ln for ln in text.splitlines() if ln]
    assert all(len(ln.split("\t")) == 4 for ln in lines)
    assert all(ln.split("\t")[3] in ("pass", "fail") for ln in lines)


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
        cp_chart_verify(D, samples=5)


def test_renderings_contain_identical_numbers():
    rep = proc.point_residual_report(catalog_quadrics("one-quadric:2"), samples=5, seed=1)
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
        assert cp_chart_verify(catalog_double(name), samples=5).overall


def test_report_all_evaluates_each_point_set_once(monkeypatch):
    # a sample or patch is evaluated once, as a jet through the order its
    # checks read: one u(v) solve per point set, at the default 100 samples
    import io

    from momentangle.charts import CircleSpreadChart, PolytopeChart, TorusSpreadChart
    from momentangle.cli import _catalog_config, run_command
    from momentangle.submanifold_numerics import MetricSpec

    solves, nearest = [], []  # (chart class, rows, order) per u(v) solve; rows per Newton solve
    for cls in (TorusSpreadChart, CircleSpreadChart, PolytopeChart):
        monkeypatch.setattr(cls, "_u", lambda self, V, order, u=cls._u: (
            solves.append((type(self).__name__, len(V), order)) or u(self, V, order)))
    solve_nearest = TorusSpreadChart._nearest
    monkeypatch.setattr(TorusSpreadChart, "_nearest", lambda self, P: nearest.append(len(P)) or solve_nearest(self, P))

    def report_all(name):
        solves.clear()
        nearest.clear()
        rep = run_command("report-all", _catalog_config(name), 0, 100, MetricSpec(), out=io.StringIO())
        assert rep.overall, name

    # the rp2 lift: its 50-point sample and its 1600-node stationarity patch
    report_all("rp2")
    assert nearest == [50, 1600]
    # the C^2 torus: the first-variation patch (48 x 48 nodes, whose
    # curvature integral reads order 2) and the stationarity patch (24 x 24)
    report_all("one-quadric:2")
    assert [s for s in solves if s[0] == "CircleSpreadChart"] == [
        ("CircleSpreadChart", 2304, 2), ("CircleSpreadChart", 576, 1)]
    # triangle's C^3 stationarity patch, at order 1: no check reads its hessian
    report_all("triangle")
    assert [s for s in solves if s[1] == 14400] == [("TorusSpreadChart", 14400, 1)]


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
