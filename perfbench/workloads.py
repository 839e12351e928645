"""The three workloads: inputs built from a seed, one pass of operations, and
the verdict each operation is expected to give.

An operation is one instance report (``stationarity``, ``catalog-fast``) or
one predicate call (``exact-sweep``). Every operation calls the package
through module attributes at call time, so the tracer's wrappers see it.

The report workloads run each catalog instance at its configuration's own
sampling seed, as ``momentangle report-all catalog:<name>`` does, so their
inputs are the same for every benchmark seed. The benchmark seed builds the
random polytopes of ``exact-sweep``.
"""

from __future__ import annotations

import copy
import importlib
import io
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Any, Callable

from randpoly import random_polytopes

WORKLOADS = ("stationarity", "exact-sweep", "catalog-fast")
# the kind of reference work (speed.py) that slows with the host the way the
# workload does: exact-sweep is pure-Python rational arithmetic, catalog-fast
# is Python loops over small numpy calls, and stationarity spends most of
# its time in large array operations
REFERENCE_WORK = {"stationarity": "mixed", "exact-sweep": "interpreted", "catalog-fast": "interpreted"}

# every catalog instance except triangle (the stationarity workload), its
# non-Delzant twin, simplex:2 (a second triangle) and one-quadric:3 (the
# same C^3 stationarity check as triangle)
CATALOG_FAST = (
    "square",
    "simplex:3",
    "simplex:4",
    "cube:2",
    "cube:3",
    "product:2,2",
    "product:2,3",
    "product:3,3",
    "one-quadric:2",
    "one-quadric:4",
    "two-quadrics:2,2",
    "cp2-torus",
    "rp2",
)
# run twice per pass; both machine renderings must be byte-identical
REPEATED = "cp2-torus"
EXACT_SWEEP = ("cube:3", "cube:4", "cube:5", "product:4,4", "simplex:6", "bad-triangle")
SAMPLES = 100

# ---------------------------------------------------------------------------
# expected report records (all must pass on these instances)

_EXACT_POLYTOPE = (
    "gale-orthogonality-exact gale-image-level-exact simple delzant delzant-equals-freeness"
).split()
_CORE = "bounded nondegenerate-a nondegenerate-b nondegenerate-c torus-free".split()
_POINTWISE = (
    "lagrangian-residual lagrangian-negative-control minimality-in-Z-residual "
    "orbit-volume-conjugation noether-drift noninvariant-rejected hminimality-residual"
).split()
_C2 = ["first-variation-field-%d" % i for i in range(5)]
_C3 = ["coarea-relative-mismatch"] + ["hamiltonian-stationarity-%d" % i for i in range(3)]
_NTILDE = "ntilde-lagrangian-residual ntilde-negative-control cp-lagrangian-residual cp-hamiltonian-stationarity".split()


def _stack_checks(parts):
    return [f"{check}_{part}" for part in parts for check in ("nondeg", "bounded", "free")]


EXPECTED_RECORDS = {
    "triangle": _EXACT_POLYTOPE + _CORE + _POINTWISE + _C3,
    "one-quadric:2": _CORE + _POINTWISE + _C2 + _C3,
    "one-quadric:4": _CORE + _POINTWISE,
    "two-quadrics:2,2": _CORE + _POINTWISE,
    "cp2-torus": _stack_checks(("gamma", "delta", "stacked")) + _NTILDE,
    "rp2": _stack_checks(("gamma", "stacked")) + _NTILDE,
}
for _name in CATALOG_FAST:
    EXPECTED_RECORDS.setdefault(_name, _EXACT_POLYTOPE + _CORE + _POINTWISE)


def check_report(instance: str, rep) -> str | None:
    names = [r.name for r in rep.records]
    if names != EXPECTED_RECORDS[instance]:
        return f"records {names} differ from the pinned list"
    failing = [r.name for r in rep.records if not r.passed]
    if failing:
        return f"records failed: {failing}"
    return None


# ---------------------------------------------------------------------------
# operations


@dataclass
class Op:
    instance: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def _report_op(ma, instance: str, cfg, check=None) -> Op:
    def run():
        return ma.cli.run_command(
            "report-all", cfg, cfg.seed, SAMPLES, ma.submanifold_numerics.MetricSpec(), out=io.StringIO()
        )

    return Op(instance, "report-all", run, check or (lambda rep: check_report(instance, rep)))


def _stationarity(ma, seed: int):
    cfg = ma.cli._catalog_config("triangle")
    return lambda: [_report_op(ma, "triangle", cfg)]


def _catalog_fast(ma, seed: int):
    cfgs = {name: ma.cli._catalog_config(name) for name in CATALOG_FAST}

    def make_ops():
        rendered = {}

        def first(rep):
            rendered["first"] = rep.render_machine()
            return check_report(REPEATED, rep)

        def again(rep):
            if rep.render_machine() != rendered.get("first"):
                return "second machine report is not byte-identical to the first"
            return check_report(REPEATED, rep)

        ops = [
            _report_op(ma, name, cfgs[name], first if name == REPEATED else None)
            for name in CATALOG_FAST
        ]
        ops.append(_report_op(ma, REPEATED, cfgs[REPEATED], again))
        return ops

    return make_ops


def _check_gale(P, Q) -> str | None:
    """Exact, independent of the program: rows annihilate the normals and give the level."""
    gamma = Q.gamma.entries
    if len(gamma) != P.num_facets - P.dim:
        return f"{len(gamma)} relations, expected {P.num_facets - P.dim}"
    for row in gamma:
        if any(sum(g * a[i] for g, a in zip(row, P.normals)) for i in range(P.dim)):
            return "relation does not annihilate the facet normals"
    level = tuple(sum((g * b for g, b in zip(row, P.offsets)), Fraction(0)) for row in gamma)
    if level != Q.c:
        return f"level {Q.c} is not gamma * offsets = {level}"
    return None


def _expect(value, wanted: bool, what: str) -> str | None:
    return None if bool(value) == wanted else f"{what} is {bool(value)}, expected {wanted}"


def _predicate_ops(ma, name: str, P, delzant: bool, weight: int, delzant_witness=None) -> list[Op]:
    """gale_dual, is_simple, is_delzant, boundedness, nondegeneracy and freeness on P."""
    got = {}

    def gale():
        got["Q"] = ma.quadric_config.gale_dual(P)
        return got["Q"]

    def check_delzant(v):
        if bool(v) != delzant:
            return f"is_delzant is {bool(v)}, expected {delzant}"
        if not delzant and abs(v.witness[2]) != weight:
            return f"Delzant witness determinant {v.witness[2]}, expected +-{weight}"
        if delzant_witness is not None and v.witness != delzant_witness:
            return f"Delzant witness {v.witness}, expected {delzant_witness}"
        return None

    def check_free(v):
        # the paper's identity: the torus acts freely iff P is Delzant
        if bool(v) != delzant:
            return f"freeness_check is {bool(v)}, expected {delzant} (Delzant iff free)"
        if not delzant and not v.witness:
            return "non-free verdict carries no witness support"
        return None

    def check_nondeg(r):
        return None if r.all_ok else f"nondegeneracy failed: {r}"

    return [
        Op(name, "gale_dual", gale, lambda Q: _check_gale(P, Q)),
        Op(name, "is_simple", lambda: ma.polytope.is_simple(P), lambda v: _expect(v, True, "is_simple")),
        Op(name, "is_delzant", lambda: ma.polytope.is_delzant(P), check_delzant),
        Op(name, "boundedness_check", lambda: ma.quadric_config.boundedness_check(got["Q"]),
           lambda v: _expect(v, True, "boundedness_check")),
        Op(name, "nondegeneracy_check", lambda: ma.quadric_config.nondegeneracy_check(got["Q"]), check_nondeg),
        Op(name, "freeness_check", lambda: ma.torus_actions.freeness_check(got["Q"]), check_free),
    ]


# bad-triangle: the vertex (0, 1/2) on facets 0 and 2 has determinant -2
BAD_TRIANGLE_WITNESS = ((Fraction(0), Fraction(1, 2)), (0, 2), Fraction(-2))


def _exact_sweep(ma, seed: int):
    Presentation = ma.polytope.PolytopePresentation
    # (name, polytope, delzant, weight, pinned witness)
    pristine = [
        (name, ma.reduction_catalog.catalog_polytope(name), name != "bad-triangle", 2,
         BAD_TRIANGLE_WITNESS if name == "bad-triangle" else None)
        for name in EXACT_SWEEP
    ]
    pristine += [
        (rp.name, Presentation(rp.normals, rp.offsets), rp.delzant, rp.weight, None)
        for rp in random_polytopes(seed)
    ]

    def make_ops():
        # polytopes cache their boundedness; each pass starts from fresh copies
        ops = []
        for name, P, delzant, weight, witness in copy.deepcopy(pristine):
            ops += _predicate_ops(ma, name, P, delzant, weight, witness)
        return ops

    return make_ops


def import_package():
    """The package modules the workloads and the tracer use, by short name."""
    names = (
        "cli config_io exact_linalg fd lp polytope quadrature quadric_config "
        "reduction_catalog procedures charts submanifold_numerics torus_actions"
    ).split()
    return SimpleNamespace(**{n: importlib.import_module(f"momentangle.{n}") for n in names})


def build(name: str, seed: int, ma) -> Callable[[], list[Op]]:
    """Build the inputs of a workload; the result makes one pass's operations."""
    builders = {"stationarity": _stationarity, "exact-sweep": _exact_sweep, "catalog-fast": _catalog_fast}
    return builders[name](ma, seed)
