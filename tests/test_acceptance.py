"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest -v tests/test_acceptance.py`` (or ``-s`` to see the
PASS/FAIL lines inline).
"""

from fractions import Fraction

import numpy as np
import pytest

from momentangle import procedures as proc
from momentangle.cli import _catalog_config, run_command
from momentangle.polytope import embed_point, is_delzant
from momentangle.quadric_config import QuadricConfiguration, gale_dual
from momentangle.reduction_catalog import (
    StackValidationError,
    catalog_double,
    catalog_polytope,
    catalog_quadrics,
    classify_N,
    cp_chart_verify,
    stack_double,
)
from momentangle.submanifold_numerics import (
    DEFAULT_SPEC,
    frame_symplectic_residual,
    lagrangian_residual,
    minimality_residual_in_Z,
    sample_chart_points,
    tangent_frame_Z,
)
from momentangle.torus_actions import freeness_check

spec = DEFAULT_SPEC

GALE_CATALOG = (
    "triangle",
    "square",
    "simplex:2",
    "simplex:3",
    "simplex:4",
    "product:2,2",
    "product:2,3",
    "product:3,3",
)
RESIDUAL_CONFIGS = ("one-quadric:2", "one-quadric:3", "one-quadric:4", "two-quadrics:2,2")
SEED = 20260810


def _finish(num: int, name: str, results: dict[str, bool]):
    ok = all(results.values())
    line = f"ACCEPTANCE {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}"
    if not ok:
        line += "  failing: " + ", ".join(k for k, v in results.items() if not v)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sampled_points():
    pts = {}
    for cname in RESIDUAL_CONFIGS:
        Q = catalog_quadrics(cname)
        rng = np.random.default_rng(SEED)
        pts[cname] = (Q, sample_chart_points(Q, 100, rng, spec, order=2))
    return pts


def test_criterion_01_gale_exactness():
    results = {}
    rng = np.random.default_rng(SEED)
    for name in GALE_CATALOG:
        P = catalog_polytope(name)
        Q = gale_dual(P)
        ortho = Q.gamma.to_rational().matmul(P.normal_matrix().transpose()).is_zero()
        level = True
        for _ in range(20):
            x = [Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 13))) for _ in range(P.dim)]
            y = embed_point(P, x)
            img = tuple(
                sum((Fraction(Q.gamma.entries[j][k]) * y[k] for k in range(P.num_facets)), Fraction(0))
                for j in range(Q.num_quadrics)
            )
            level = level and img == Q.c
        results[name] = ortho and level
    _finish(1, "gale duality exactness", results)


def test_criterion_02_triangle_pipeline():
    Q = gale_dual(catalog_polytope("triangle"))
    results = {
        "gamma": Q.gamma.entries == ((1, 1, 1),),
        "level": Q.c == (Fraction(1),),
    }
    desc = classify_N(Q)
    results["sphere-case"] = "Z = S^5" in desc.facts and desc.name == "K^3"
    _finish(2, "triangle pipeline", results)


def test_criterion_03_delzant_equals_freeness():
    results = {}
    for name in ("triangle", "square", "bad-triangle", "simplex:3", "cube:3",
                 "product:2,2", "product:3,3"):
        P = catalog_polytope(name)
        results[name] = bool(is_delzant(P)) == bool(freeness_check(gale_dual(P)))
    results["failing-case-present"] = not is_delzant(catalog_polytope("bad-triangle"))
    _finish(3, "delzant equals torus freeness", results)


def test_criterion_04_lagrangian(sampled_points):
    results = {}
    for cname, (Q, pts) in sampled_points.items():
        results[f"{cname}-residual"] = lagrangian_residual(Q, pts).max() < 1e-8
    Q3 = sampled_points["one-quadric:3"][0]
    z = sampled_points["one-quadric:3"][1].points[:1]
    control = frame_symplectic_residual(tangent_frame_Z(Q3, z))[0]
    results["negative-control"] = control > 0.1
    _finish(4, "Lagrangian residuals", results)


def test_criterion_05_minimal_in_Z(sampled_points):
    results = {}
    for cname, (Q, pts) in sampled_points.items():
        results[f"{cname}-residual"] = minimality_residual_in_Z(Q, pts).max() < 1e-4
    results["unequal-torus-control"] = proc.unequal_torus_control(spec) > 0.1
    _finish(5, "minimality inside the quadric set", results)


def test_criterion_06_first_variation():
    results = {}
    dv, comp = proc.circle_variation_values(spec)
    results["circle-dvol"] = abs(dv - 2 * np.pi) < 1e-4
    results["circle-integral"] = abs(comp - 2 * np.pi) < 1e-4
    rep = proc.first_variation_report(catalog_quadrics("one-quadric:2"), seed=SEED, spec=spec)
    for r in rep.records:
        results[r.name] = r.passed and r.residual < 1e-3
    _finish(6, "first variation formula", results)


def test_criterion_07_hminimality():
    results = {}
    for cname in ("one-quadric:2", "one-quadric:3"):
        Q = catalog_quadrics(cname)
        rep = proc.hamiltonian_stationarity_report(Q, seed=SEED, spec=spec, n_fields=5)
        for r in rep.records:
            results[f"{cname}-{r.name}"] = r.passed
        hrep = proc.hminimality_report(Q, points=10, seed=SEED, spec=spec)
        results[f"{cname}-pointwise"] = hrep.records[0].residual < 1e-4
    numeric, _ = proc.ellipse_control()
    results["ellipse-control"] = numeric > 1e-2
    _finish(7, "Hamiltonian-variation stationarity", results)


def test_criterion_08_noether():
    results = {}
    for cname in ("one-quadric:2", "one-quadric:3"):
        rep = proc.noether_report(catalog_quadrics(cname), seed=SEED, spec=spec)
        by_name = {r.name: r for r in rep.records}
        results[f"{cname}-drift"] = by_name["noether-drift"].residual < 1e-8
        results[f"{cname}-rejection"] = by_name["noninvariant-rejected"].passed
    _finish(8, "moment conservation", results)


def test_criterion_09_orbit_volume(sampled_points):
    from momentangle.torus_actions import conjugate, orbit_volume

    results = {}
    Q, pts = sampled_points["one-quadric:3"]
    worst = np.abs(orbit_volume(Q, pts.points) - orbit_volume(Q, conjugate(pts.points))).max()
    results["conjugation-symmetry"] = worst < 1e-12
    for cname in ("one-quadric:2", "one-quadric:3"):
        rep = proc.coarea_report(catalog_quadrics(cname), seed=SEED)
        results[f"{cname}-coarea"] = rep.records[0].residual < 1e-3
    _finish(9, "orbit volume symmetry and co-area", results)


def test_criterion_10_topology_table():
    results = {
        "m2": classify_N(catalog_quadrics("one-quadric:2")).name == "S^1 x S^1",
        "m3": classify_N(catalog_quadrics("one-quadric:3")).name == "K^3",
    }
    d0 = classify_N(catalog_quadrics("two-quadrics:2,2"), l=0)
    results["(2,2,0)"] = (
        d0.trivial is True and "trivial bundle: T^4 = T^2 x T^2" in d0.facts
    )
    d1 = classify_N(catalog_quadrics("two-quadrics:2,2"), l=1)
    results["(2,2,1)"] = (
        d1.trivial is False and "nontrivial T^2 bundle over T^2" in d1.facts
    )
    _finish(10, "topology table", results)


def test_criterion_11_double_configuration():
    results = {}
    D = catalog_double("cp2-torus")
    results["accepts-instance"] = D.checks["free_stacked"] and D.checks["nondeg_stacked"].all_ok
    try:
        stack_double(
            QuadricConfiguration.from_rows([(1, 1, 1)], [2]),
            QuadricConfiguration.from_rows([(1, 1, 1)], [3]),
        )
        results["rejects-parallel"] = False
    except StackValidationError as exc:
        results["rejects-parallel"] = exc.witness is not None
    rep = proc.ntilde_report(D, samples=100, seed=SEED, spec=spec)
    by_name = {r.name: r for r in rep.records}
    results["ntilde-residual"] = by_name["ntilde-lagrangian-residual"].residual < 1e-8
    results["ntilde-control"] = by_name["ntilde-negative-control"].passed
    for inst in ("cp2-torus", "rp2"):
        rep = cp_chart_verify(catalog_double(inst), samples=50, seed=SEED, spec=spec)
        by_name = {r.name: r for r in rep.records}
        results[f"{inst}-lagrangian"] = by_name["cp-lagrangian-residual"].residual < 1e-8
        results[f"{inst}-stationarity"] = by_name["cp-hamiltonian-stationarity"].residual < 1e-3
    _finish(11, "reduced-space pipeline", results)


def test_criterion_12_determinism():
    cfg = _catalog_config("one-quadric:2")
    outputs = []
    for _ in range(2):
        rep = run_command("report-all", cfg, seed=SEED, samples=25, spec=DEFAULT_SPEC)
        outputs.append(rep.render_machine())
    results = {
        "byte-identical": outputs[0] == outputs[1],
        "all-pass": "fail" not in outputs[0],
    }
    _finish(12, "report determinism", results)
