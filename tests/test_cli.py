import io
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import momentangle
from momentangle.cli import main, run_command, _catalog_config
from momentangle.config_io import (
    ConfigError,
    parse_config,
    polytope_from_config,
    render_config,
)
from momentangle.reduction_catalog import catalog_names


def test_config_round_trip_all_catalog():
    for name in catalog_names():
        cfg = _catalog_config(name)
        text = render_config(cfg)
        cfg2 = parse_config(text)
        assert render_config(cfg2) == text
        for attr in ("mode", "A", "b", "gamma", "c", "delta", "d", "l", "seed", "samples"):
            assert getattr(cfg, attr) == getattr(cfg2, attr), (name, attr)


def test_parse_errors():
    with pytest.raises(ConfigError):
        parse_config("")
    with pytest.raises(ConfigError):
        parse_config("mode nonsense\n")
    with pytest.raises(ConfigError):
        parse_config("mode polytope\nA 2 3\n1 0 -1\n")  # truncated matrix
    with pytest.raises(ConfigError):
        parse_config("mode polytope\nA 1 2\n1 0\nb 0 0 0\n")  # offset mismatch
    with pytest.raises(ConfigError):
        parse_config("mode quadrics\ngamma 1 2\n1 1\nc 1\nfrobnicate 2\n")


def test_rational_offsets_round_trip():
    text = "mode polytope\nA 1 2\n1 -1\nb 1/3 5/2\nseed 7\n"
    cfg = parse_config(text)
    P = polytope_from_config(cfg)
    assert render_config(cfg) == text.replace("b 1/3 5/2", "b 1/3 5/2")
    assert P.num_facets == 2


def test_gale_command_round_trip(tmp_path, capsys):
    rc = main(["emit-catalog", "triangle", str(tmp_path / "tri.cfg")])
    assert rc == 0
    rc = main(["gale", str(tmp_path / "tri.cfg")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "gamma 1 3" in out and "1 1 1" in out and "c 1" in out


def test_check_delzant_exit_codes(capsys):
    assert main(["check-delzant", "catalog:triangle"]) == 0
    assert main(["check-delzant", "catalog:bad-triangle"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "-2" in out  # witness determinant in the detail


def test_unknown_catalog_and_bad_file(tmp_path, capsys):
    assert main(["gale", "catalog:nonsense"]) == 2
    # a catalog parameter that is missing, not an integer, or too small to
    # build is a usage error, from every command that reads the catalog
    for name in ("simplex:x", "simplex:2_0", "simplex:", "product:2", "product:2,3,4",
                 "two-quadrics:1", "cube:0", "simplex:0", "one-quadric:0", "product:1,1"):
        assert main(["report-all", f"catalog:{name}"]) == 2, name
        assert main(["emit-catalog", name]) == 2, name
        assert "configuration error" in capsys.readouterr().err, name
    assert main(["gale", str(tmp_path / "missing.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("mode quadrics\ngamma 1 2\n1 x\nc 1\n")
    assert main(["check-free", str(bad)]) == 2


def test_isotropic_quadric_sets_pass_report_all(tmp_path, capsys):
    # with as many quadrics as coordinates the quadric set Z is the torus N
    # itself, isotropic, so the Lagrangian negative control pairs N's first
    # unit tangent vector e with i e and reads |OMEGA_SCALE| = 1/pi
    import math

    for name in ("one-quadric:1", "two-quadrics:1,1"):
        out = tmp_path / "report.txt"
        assert main(["report-all", f"catalog:{name}", "--report-file", str(out)]) == 0, name
        control = next(line.split("\t") for line in out.read_text().splitlines()
                       if line.startswith("lagrangian-negative-control"))
        assert float(control[1]) == pytest.approx(0.1 - 1 / math.pi, abs=1e-15), name
    capsys.readouterr()


def test_classify_precondition_exit(capsys):
    # two-quadric classification without l is a precondition violation
    assert main(["classify", "catalog:two-quadrics:2,2"]) == 3
    assert main(["classify", "catalog:two-quadrics:2,2", "--l", "1"]) == 0
    out = capsys.readouterr().out
    assert "N_1(2,2)" in out


def test_emit_catalog_list(capsys):
    assert main(["emit-catalog", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("triangle", "cp2-torus", "two-quadrics:2,2"):
        assert name in out
    assert main(["emit-catalog", "not-a-name"]) == 2


def test_verify_commands_smoke(capsys):
    assert main(["verify-lagrangian", "catalog:one-quadric:2", "--samples", "10"]) == 0
    assert main(["verify-noether", "catalog:one-quadric:3"]) == 0
    assert main(["verify-variation", "catalog:one-quadric:2", "--seed", "3"]) == 0


@pytest.mark.parametrize("delta, d", [("1 2 1", 3), ("1 1 3", 4)])
def test_projective_doubles_outside_the_catalog(tmp_path, capsys, delta, d):
    # the first system is CP^2's, the second is not cp2-torus's rows: the
    # projective records run on a localized box centred on the base
    cfg = tmp_path / "double.cfg"
    cfg.write_text(f"mode double\ngamma 1 3\n1 1 1\nc 2\ndelta 1 3\n{delta}\nd {d}\n")
    for seed in range(5):
        for command in ("report-all", "verify-ntilde"):
            assert main([command, str(cfg), "--seed", str(seed)]) == 0, (command, seed)
        out = capsys.readouterr().out
        assert "cp-hamiltonian-stationarity" in out


def test_seed_and_tol_overrides(monkeypatch, capsys):
    monkeypatch.setenv("MOMENTANGLE_SEED", "41")
    assert main(["verify-lagrangian", "catalog:one-quadric:2", "--samples", "5"]) == 0
    out = capsys.readouterr().out
    assert "seed: 41" in out
    # flag beats environment
    assert main(["verify-lagrangian", "catalog:one-quadric:2", "--samples", "5", "--seed", "8"]) == 0
    out = capsys.readouterr().out
    assert "seed: 8" in out
    # an absurdly tight tolerance must flip the verdict and the exit status
    monkeypatch.delenv("MOMENTANGLE_SEED")
    rc = main([
        "verify-lagrangian", "catalog:one-quadric:2", "--samples", "5",
        "--tol", "membership", "1e-30",
    ])
    assert rc == 3  # chart points cannot meet an impossible membership tolerance


def test_report_determinism(tmp_path):
    args = [
        "report-all", "catalog:one-quadric:2", "--samples", "25", "--seed", "5",
    ]
    f1, f2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    assert main(args + ["--report-file", str(f1)]) == 0
    assert main(args + ["--report-file", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_console_script_installed():
    # the subprocess must import the package under test, which pytest's
    # `pythonpath` setting puts on sys.path but not in the environment
    src = str(Path(momentangle.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "momentangle.cli", "emit-catalog", "square"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "mode polytope" in proc.stdout


def _benchmark_expected_records(monkeypatch) -> dict:
    """The record names the benchmark pins per catalog instance (its workloads module, read only)."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    return workloads.EXPECTED_RECORDS


def test_report_all_whole_catalog(tmp_path, capsys, monkeypatch):
    # every catalog instance passes report-all at seed 0, except bad-triangle,
    # which fails exactly its lattice-vertex (Delzant) and freeness records;
    # where the benchmark pins an instance's record names, they match, so a
    # renamed record fails here and not only in the benchmark
    pinned = _benchmark_expected_records(monkeypatch)
    out = tmp_path / "report.tsv"
    for name in catalog_names():
        rc = main(["report-all", f"catalog:{name}", "--seed", "0", "--report-file", str(out)])
        lines = out.read_text().splitlines()
        if name in pinned:
            assert [line.split("\t")[0] for line in lines] == pinned[name], name
        failing = [line.split("\t")[0] for line in lines if line.endswith("\tfail")]
        if name == "bad-triangle":
            assert (rc, failing) == (1, ["delzant", "torus-free"])
        else:
            assert (rc, failing) == (0, []), name


def test_gale_round_trip_whole_catalog(capsys):
    from momentangle.config_io import config_from_quadrics
    from momentangle.quadric_config import gale_dual
    from momentangle.reduction_catalog import POLYTOPE_NAMES, catalog_polytope

    for name in POLYTOPE_NAMES:
        assert main(["gale", f"catalog:{name}"]) == 0
        out = capsys.readouterr().out
        expected = render_config(config_from_quadrics(gale_dual(catalog_polytope(name))))
        assert expected in out, name


def test_directive_without_value_exits_2(tmp_path, capsys):
    for line in ("seed", "samples", "l"):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"mode quadrics\ngamma 1 2\n1 1\nc 1\n{line}\n")
        assert main(["verify-lagrangian", str(bad)]) == 2, line


def test_malformed_numbers_exit_2(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mode quadrics\ngamma 1 2\n1 1\nc 1\nsamples x\n")
    assert main(["verify-lagrangian", str(bad)]) == 2
    assert main(["verify-lagrangian", "catalog:one-quadric:2", "--samples", "0"]) == 2
    assert main(["verify-lagrangian", "catalog:one-quadric:2", "--seed", "-1"]) == 2
    assert main(["verify-lagrangian", "catalog:one-quadric:2", "--tol", "membership", "x"]) == 2
    monkeypatch.setenv("MOMENTANGLE_TOL_MEMBERSHIP", "tiny")
    assert main(["verify-lagrangian", "catalog:one-quadric:2", "--samples", "5"]) == 2


def test_unknown_tolerance_names_exit_2(tmp_path, monkeypatch, capsys):
    # internal MetricSpec fields and retired names are not tolerance names
    for name in ("omega_scale", "fd_order", "newton_max_iter", "tol_membership", "frame", "variation",
                 "curvature", "step_gradient"):
        assert main(["verify-lagrangian", "catalog:one-quadric:2", "--samples", "5",
                     "--tol", name, "0"]) == 2, name
    cfg = tmp_path / "tol.cfg"
    cfg.write_text("mode quadrics\ngamma 1 2\n1 1\nc 1\ntol frame 1e-3\n")
    assert main(["verify-lagrangian", str(cfg), "--samples", "5"]) == 2
    monkeypatch.setenv("MOMENTANGLE_TOL_VARIATION", "1e-3")
    assert main(["verify-lagrangian", "catalog:one-quadric:2", "--samples", "5"]) == 2


def test_retired_variation_step_exits_2(tmp_path, monkeypatch, capsys):
    # every volume derivative is exact in t, so no check reads a variation
    # step; no check reads the curvature normality tolerance, every
    # Hamiltonian gradient is closed-form, the codifferential is the
    # product rule on the chart's derivatives, and every chart report-all
    # differentiates is exact, so none of these is a name
    args = ["verify-ntilde", "catalog:rp2", "--samples", "5"]
    for name in ("step", "curvature", "step_gradient", "step_divergence", "step_chart"):
        assert main(args + ["--tol", name, "1e-4"]) == 2
        cfg = tmp_path / "tol.cfg"
        cfg.write_text(f"mode quadrics\ngamma 1 2\n1 1\nc 1\ntol {name} 1e-4\n")
        assert main(["verify-lagrangian", str(cfg), "--samples", "5"]) == 2
        with monkeypatch.context() as m:
            m.setenv(f"MOMENTANGLE_TOL_{name.upper()}", "1e-4")
            assert main(args) == 2
        assert f"unknown tolerance name {name!r}" in capsys.readouterr().err


def test_tolerance_values_must_be_finite_and_positive(tmp_path, monkeypatch, capsys):
    # a zero stencil step gave nan residuals and exit 1, a negative one ran
    # and passed; every tolerance rejects such values
    args = ["verify-lagrangian", "catalog:one-quadric:2", "--samples", "5"]
    for value in ("0", "-0.001", "nan", "inf"):
        assert main(args + ["--tol", "newton", value]) == 2, value
        cfg = tmp_path / "tol.cfg"
        cfg.write_text(f"mode quadrics\ngamma 1 2\n1 1\nc 1\ntol membership {value}\n")
        assert main(["verify-lagrangian", str(cfg), "--samples", "5"]) == 2, value
        with monkeypatch.context() as m:
            m.setenv("MOMENTANGLE_TOL_NEWTON", value)
            assert main(args) == 2, value
        assert capsys.readouterr().err.count("must be finite and positive") == 3, value
    assert main(args + ["--tol", "newton", "2e-3"]) == 0


def test_env_tolerance_override(monkeypatch):
    monkeypatch.setenv("MOMENTANGLE_TOL_MEMBERSHIP", "1e-30")
    rc = main(["verify-lagrangian", "catalog:one-quadric:2", "--samples", "5"])
    assert rc == 3  # impossible membership tolerance rejects every chart point


def test_singular_matrix_exits_4(monkeypatch, capsys):
    import numpy as np

    from momentangle import procedures

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(procedures, "noether_report", singular)
    assert main(["verify-noether", "catalog:one-quadric:3"]) == 4
    assert "numeric failure" in capsys.readouterr().err


def test_check_nondeg_and_check_free_report_their_own_checks(capsys):
    # bad-triangle is nondegenerate, but its torus does not act freely
    assert main(["check-nondeg", "catalog:bad-triangle"]) == 0
    out = capsys.readouterr().out
    for name in ("bounded", "nondegenerate-a", "nondegenerate-b", "nondegenerate-c"):
        assert name in out
    assert "torus-free" not in out
    assert main(["check-free", "catalog:bad-triangle"]) == 1
    out = capsys.readouterr().out
    assert "torus-free" in out and "FAIL" in out and "(1,)" in out
    assert "nondegenerate" not in out and "bounded" not in out
    assert main(["check-nondeg", "catalog:one-quadric:2"]) == 0
    assert main(["check-free", "catalog:one-quadric:2"]) == 0


def test_readme_tolerance_names_match_the_cli():
    import dataclasses
    import re
    from pathlib import Path

    from momentangle.cli import _TOL_FIELDS
    from momentangle.submanifold_numerics import MetricSpec

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"Tolerance names:(.*?)\.\s", readme, re.S).group(1)
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(_TOL_FIELDS)
    # every MetricSpec field is set by exactly one name
    fields = {f.name for f in dataclasses.fields(MetricSpec)}
    assert Counter(_TOL_FIELDS.values()) == Counter(fields)


def _readme() -> str:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_command_list_matches_the_cli(capsys):
    import re

    from momentangle.cli import COMMANDS

    listed = re.search(r"Commands:(.*?)\.\s", _readme(), re.S).group(1)
    assert tuple(re.findall(r"`([\w-]+)`", listed)) == COMMANDS
    with pytest.raises(SystemExit):
        main(["--help"])
    choices = re.search(r"\{([\w,-]+)\}", capsys.readouterr().out).group(1)
    assert tuple(choices.split(",")) == COMMANDS + ("emit-catalog",)


def test_readme_checks_section_matches_the_table():
    # each row of the README's check table is one entry of procedures.CHECKS,
    # in order, with its subject and commands; the records it lists are the
    # records the entry emits on the catalog and the circle
    import fnmatch
    import re

    from momentangle import procedures as proc
    from momentangle.config_io import double_from_config, quadrics_from_config
    from momentangle.quadric_config import gale_dual
    from momentangle.reduction_catalog import catalog_quadrics
    from momentangle.submanifold_numerics import MetricSpec

    section = _readme().split("### Checks", 1)[1].split("\n### ", 1)[0]
    rows = [line.split(" | ") for line in section.splitlines() if line.startswith("| `")]
    assert [row[0].strip("| `") for row in rows] == [c.key for c in proc.CHECKS]
    assert [row[1] for row in rows] == [c.subject for c in proc.CHECKS]
    assert [tuple(re.findall(r"`([\w-]+)`", row[4])) for row in rows] == [c.commands for c in proc.CHECKS]

    emitted = {c.key: set() for c in proc.CHECKS}
    subjects = [{"Q": catalog_quadrics("one-quadric:1")}]
    for name in catalog_names():
        cfg = _catalog_config(name)
        if cfg.mode == "double":
            subjects.append({"D": double_from_config(cfg)})
        elif cfg.mode == "polytope":
            P = polytope_from_config(cfg)
            subjects.append({"P": P, "Q": gale_dual(P)})
        else:
            subjects.append({"Q": quadrics_from_config(cfg)})
    for check in proc.CHECKS:
        for available in subjects:
            subject = available.get(check.subject)
            if subject is not None and check.applies(subject):
                rep = check.run(subject, seed=0, samples=5, spec=MetricSpec())
                emitted[check.key].update(r.name for r in rep.records)
    for row, check in zip(rows, proc.CHECKS):
        patterns = re.findall(r"`([\w*-]+)`", row[2])
        assert all(any(fnmatch.fnmatchcase(n, p) for p in patterns) for n in emitted[check.key]), check.key
        assert all(any(fnmatch.fnmatchcase(n, p) for n in emitted[check.key]) for p in patterns), check.key


def test_every_tolerance_name_is_read_by_report_all():
    from momentangle.cli import _TOL_FIELDS
    from momentangle.submanifold_numerics import MetricSpec

    reads = set()

    class RecordingSpec(MetricSpec):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    for name in catalog_names():
        cfg = _catalog_config(name)
        run_command("report-all", cfg, cfg.seed, 10, RecordingSpec(), out=io.StringIO())
    assert set(_TOL_FIELDS.values()) <= reads, set(_TOL_FIELDS.values()) - reads


# the square pyramid of test_polytope.py: its apex lies on four facets
SQUARE_PYRAMID = "mode polytope\nA 3 5\n0 -1 1 0 0\n0 0 0 -1 1\n1 -1 -1 -1 -1\nb 0 1 1 1 1\n"


def test_report_all_on_a_non_simple_polytope(tmp_path, capsys):
    # not simple, so not Delzant, and its torus does not act freely: the
    # identity holds, and the checks that fail say why
    cfg = tmp_path / "pyramid.cfg"
    cfg.write_text(SQUARE_PYRAMID)
    out = tmp_path / "report.tsv"
    assert main(["report-all", str(cfg), "--report-file", str(out)]) == 1
    status = dict(line.split("\t")[0::3] for line in out.read_text().splitlines())
    assert [name for name, s in status.items() if s == "fail"] == ["simple", "nondegenerate-b", "torus-free"]
    assert status["delzant-equals-freeness"] == "pass"
    assert "delzant" not in status
    # the Delzant check alone still refuses a non-simple polytope
    assert main(["check-delzant", str(cfg)]) == 3


def _report_all(cfg):
    from momentangle.submanifold_numerics import MetricSpec

    return run_command("report-all", cfg, cfg.seed, 100, MetricSpec(), out=io.StringIO())


def test_report_all_computes_each_exact_object_once(monkeypatch):
    from momentangle import lp, polytope, quadric_config

    cfg = _catalog_config("cube:3")
    counts = Counter()

    def count(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, **kw: counts.update([name]) or real(*args, **kw))

    count(polytope, "_solve_vertices")
    count(quadric_config, "_solve_gale_dual")
    count(quadric_config, "_solve_feasible_bases")
    count(lp, "solve_lp")
    init = polytope.PolytopePresentation.__init__
    monkeypatch.setattr(
        polytope.PolytopePresentation, "__init__", lambda self, *args: counts.update(["presentation"]) or init(self, *args)
    )
    assert _report_all(cfg).overall
    # the four LPs: P is nonempty, P is bounded, the quadric set is bounded,
    # and the base point of the sampling chart
    assert counts == {
        "presentation": 1,
        "_solve_gale_dual": 1,
        "_solve_vertices": 1,
        "_solve_feasible_bases": 1,
        "solve_lp": 4,
    }


def test_report_all_cold_and_warm_caches_agree(monkeypatch):
    # a second report over the same presentation (or configuration) reads
    # every exact object from the caches the first one filled, computes
    # none of them again, and renders the same bytes
    from momentangle import cli, polytope, quadric_config

    def refuse(*args):
        raise AssertionError("exact object computed again on a warm run")

    for name in ("square", "bad-triangle", "cube:3", "two-quadrics:2,2"):
        cfg = _catalog_config(name)
        with monkeypatch.context() as m:
            if cfg.mode == "polytope":
                P = polytope_from_config(cfg)
                m.setattr(cli, "polytope_from_config", lambda cfg: P)
            else:
                Q = cli.quadrics_from_config(cfg)
                m.setattr(cli, "quadrics_from_config", lambda cfg: Q)
            cold = _report_all(cfg).render_machine()
            for module, solver in (
                (polytope, "_solve_vertices"),
                (quadric_config, "_solve_gale_dual"),
                (quadric_config, "_solve_feasible_bases"),
            ):
                m.setattr(module, solver, refuse)
            assert _report_all(cfg).render_machine() == cold, name


# the record names of each report, as the command line emits them
_EXACT_P = ["gale-orthogonality-exact", "gale-image-level-exact", "simple", "delzant", "delzant-equals-freeness"]
_NONDEG = ["bounded", "nondegenerate-a", "nondegenerate-b", "nondegenerate-c"]
_LAGRANGIAN = ["lagrangian-residual", "lagrangian-negative-control"]
_MINIMAL = _LAGRANGIAN + ["minimality-in-Z-residual"]
_NOETHER = ["noether-drift", "noninvariant-rejected"]
_VARIATION = [f"first-variation-field-{i}" for i in range(5)]
_STATIONARITY = [f"hamiltonian-stationarity-{i}" for i in range(3)]
_NTILDE = ["ntilde-lagrangian-residual", "ntilde-negative-control", "cp-lagrangian-residual",
           "cp-hamiltonian-stationarity"]
# one quadric in C^2, and in C^3
_IN_C2 = {"one-quadric:2"}
_IN_C3 = {"triangle", "simplex:2", "bad-triangle", "one-quadric:3"}
_CLASSIFIED = {"triangle", "simplex:2", "simplex:3", "simplex:4", "one-quadric:2", "one-quadric:3",
               "one-quadric:4"}


def _expected_run(command: str, name: str) -> tuple[int, list[str]]:
    """(exit code, record names) of ``command`` on the catalog instance ``name``."""
    from momentangle.reduction_catalog import DOUBLE_NAMES, POLYTOPE_NAMES

    polytope, double, bad = name in POLYTOPE_NAMES, name in DOUBLE_NAMES, name == "bad-triangle"
    stationarity = _STATIONARITY if name in _IN_C3 or name in _IN_C2 else []
    if command in ("gale", "check-simple", "check-delzant"):
        if not polytope:
            return 2, []
        record = {"gale": "gale-computed", "check-simple": "simple", "check-delzant": "delzant"}[command]
        return int(bad and command == "check-delzant"), [record]
    # on a double only report-all and verify-ntilde run; the rest refuse it
    if double and command not in ("report-all", "verify-ntilde"):
        return 2, []
    if command == "check-free":
        return int(bad), ["torus-free"]
    if command == "check-nondeg":
        return 0, _NONDEG
    if command == "classify":
        return (0, ["classified"]) if name in _CLASSIFIED else (3, [])
    if command == "verify-lagrangian":
        return 0, _LAGRANGIAN
    if command == "verify-minimal":
        return 0, _MINIMAL
    if command == "verify-hminimal":
        return 0, ["hminimality-residual"] + stationarity
    if command == "verify-noether":
        return 0, _NOETHER
    if command == "verify-variation":
        return (0, _VARIATION) if name in _IN_C2 else (3, [])
    if command == "verify-ntilde":
        return (0, _NTILDE) if double else (2, [])
    assert command == "report-all", command
    if double:
        systems = ("gamma", "delta", "stacked") if name == "cp2-torus" else ("gamma", "stacked")
        return 0, [f"{check}_{s}" for s in systems for check in ("nondeg", "bounded", "free")] + _NTILDE
    coarea = ["coarea-relative-mismatch"] if stationarity else []
    records = (_EXACT_P if polytope else []) + _NONDEG + ["torus-free"] + _MINIMAL
    records += ["orbit-volume-conjugation"] + _NOETHER + ["hminimality-residual"]
    records += (_VARIATION if name in _IN_C2 else []) + coarea + stationarity
    return int(bad), records


def test_every_command_on_the_whole_catalog(tmp_path, capsys):
    # the exit code and record names of every command on every catalog
    # instance: which checks run where, and which commands refuse which
    # configurations
    from momentangle.cli import COMMANDS

    out = tmp_path / "report.tsv"
    for command in COMMANDS:
        for name in catalog_names():
            out.unlink(missing_ok=True)
            rc = main([command, f"catalog:{name}", "--samples", "5", "--report-file", str(out)])
            names = [line.split("\t")[0] for line in out.read_text().splitlines()] if out.exists() else []
            assert (rc, names) == _expected_run(command, name), (command, name)
    capsys.readouterr()
