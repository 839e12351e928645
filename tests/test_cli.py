import io
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import momentangle
from momentangle.cli import COMMANDS, main, run_command, _catalog_config
from momentangle.config_io import (
    ConfigError,
    config_from_double,
    config_from_quadrics,
    parse_config,
    polytope_from_config,
    render_config,
)
from momentangle.quadric_config import QuadricConfiguration, gale_dual
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


def _unreadable(tmp_path, monkeypatch):
    # a chmod does not stop a process running as root from reading, so the refusal is simulated
    from momentangle import cli

    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(cli, "open", refuse, raising=False)
    return ["report-all", str(tmp_path / "unreadable.cfg")]


def _not_utf8(tmp_path, monkeypatch):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("mode quadrics\ngamma 1 2\n1 1\nc 1\n# d\u00e9j\u00e0 vu\n".encode("latin-1"))
    return ["report-all", str(cfg)]


@pytest.mark.parametrize("args", [
    lambda tmp_path, _: ["report-all", str(tmp_path)],
    _unreadable,
    _not_utf8,
    lambda tmp_path, _: ["check-nondeg", "catalog:triangle", "--report-file", str(tmp_path)],
    lambda tmp_path, _: ["report-all", "catalog:triangle", "--report-file", str(tmp_path)],
    lambda tmp_path, _: ["emit-catalog", "triangle", str(tmp_path)],
], ids=["config-is-a-directory", "config-unreadable", "config-not-utf8", "report-file-is-a-directory",
        "report-all-report-file-is-a-directory", "emit-catalog-to-a-directory"])
def test_io_errors_exit_2(tmp_path, monkeypatch, capsys, args):
    # a path the command cannot read or write is a usage error: one line on
    # stderr, never a traceback, and never the exit 1 of a failed check; the
    # report path is opened before any check runs, so nothing reaches stdout
    assert main(args(tmp_path, monkeypatch)) == 2
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err, captured.err
    assert captured.out == ""


def test_failed_run_leaves_an_empty_report(tmp_path, capsys):
    # an opened report is truncated first: a run that then fails leaves it
    # empty, never holding an earlier run's report
    stale = tmp_path / "report.txt"
    stale.write_text("stale\n")
    assert main(["verify-ntilde", "catalog:triangle", "--report-file", str(stale)]) == 2
    assert stale.read_text() == ""
    capsys.readouterr()


def test_empty_quadric_system_refused(tmp_path, capsys):
    # quadrics mode with no gamma row is a configuration error from every
    # command, where it crashed in numpy (exit 3) or passed vacuously (exit 0)
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("mode quadrics\ngamma 0 3\nc\n")
    for command in COMMANDS:
        assert main([command, str(cfg)]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == "", command
        assert captured.err == "configuration error: quadrics mode needs at least one gamma row\n", command
    # the empty delta block of a double stays valid
    assert parse_config("mode double\ngamma 1 3\n1 1 1\nc 1\ndelta 0 3\n").delta.rows == 0


@pytest.mark.parametrize("command", COMMANDS)
def test_double_with_empty_first_system_refused(tmp_path, capsys, command):
    # with no gamma row the first quadric set is all of C^3 and there is no
    # reduced space; verify-ntilde and report-all passed vacuously (exit 0)
    cfg = tmp_path / "empty-first.cfg"
    cfg.write_text("mode double\ngamma 0 3\nc\ndelta 1 3\n1 1 1\nd 1\n")
    assert main([command, str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration error: double mode needs at least one gamma row\n"


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


@pytest.mark.parametrize("p, q", [(1, 3), (2, 3), (3, 2), (2, 4)])
def test_classify_names_the_catalog_pair(p, q, capsys):
    assert main(["classify", f"catalog:two-quadrics:{p},{q}", "--l", "0"]) == 0
    assert capsys.readouterr().out.startswith(f"N_0({p},{q})\n")


def test_classify_checks_l_against_p(tmp_path, capsys):
    # l runs over [0, p]: p = 1 on two-quadrics:1,3
    assert main(["classify", "catalog:two-quadrics:1,3", "--l", "2"]) == 3
    assert "twisting parameter l=2 outside [0, 1]" in capsys.readouterr().err
    # a level that only a row transform with an entry of 100 brings to sign-normal form
    cfg = tmp_path / "tilted.cfg"
    cfg.write_text("mode quadrics\ngamma 2 4\n1 1 1 1\n1 1 -1 -1\nc 100 1\n")
    assert main(["check-nondeg", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["classify", str(cfg), "--l", "0"]) == 0
    assert capsys.readouterr().out.startswith("N_0(2,2)\n")
    cfg.write_text("mode quadrics\ngamma 2 4\n1 1 1 1\n1 1 -1 -1\nc 0 0\n")
    assert main(["classify", str(cfg), "--l", "0"]) == 3
    assert "parallel to c" in capsys.readouterr().err


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
    # projective records run over the whole lift, on its global chart
    cfg = tmp_path / "double.cfg"
    cfg.write_text(f"mode double\ngamma 1 3\n1 1 1\nc 2\ndelta 1 3\n{delta}\nd {d}\n")
    for seed in range(5):
        for command in ("report-all", "verify-ntilde"):
            assert main([command, str(cfg), "--seed", str(seed)]) == 0, (command, seed)
        out = capsys.readouterr().out
        assert "cp-hamiltonian-stationarity" in out


def test_variational_checks_run_on_the_configurations_own_surface(tmp_path, monkeypatch, capsys):
    # gamma (1, 2) with c = 3: N spreads the ellipse u_1^2 + 2 u_2^2 = 3, and
    # every node of the stationarity and first-variation patches lies on it
    # (measured 1.8e-15); the round unit torus did not
    from momentangle import procedures
    from momentangle.quadric_config import QuadricConfiguration, membership_residuals

    cfg = tmp_path / "ellipse.cfg"
    cfg.write_text("mode quadrics\ngamma 1 2\n1 2\nc 3\n")
    patches = []
    for name in ("stationarity_ratio", "patch_volume_derivative"):
        monkeypatch.setattr(procedures, name, lambda patch, *args, real=getattr(procedures, name), **kwargs: (
            patches.append(patch) or real(patch, *args, **kwargs)))
    assert main(["verify-hminimal", str(cfg)]) == 0
    assert main(["verify-variation", str(cfg)]) == 0
    assert len(patches) == 3 + 5
    Q = QuadricConfiguration.from_rows([(1, 2)], [3])
    for patch in patches:
        assert membership_residuals(Q, patch.points).max() < 1e-14


def test_variational_checks_resolve_the_top_phase_frequency(monkeypatch):
    # N's phases run through the rows of D Gamma, D the dual basis (Gamma's
    # own rows where, as here, the column lattice is Z^k), so a field's
    # integrands reach frequency 2 max_k |Gamma_jk| along phase j, and a
    # trapezoid rule of that many nodes counts the top term in full.
    # gamma (1, 3, 1) puts z_2^2 at frequency 6 and gamma (1, 4) at 8, where
    # 6 and 8 phase nodes read up to 0.084 and 1.04. One node more than the
    # top frequency, as ``GlobalChart.node_counts`` gives, reads the rounding
    # floor (measured 3.0e-17 and 7.0e-16 at seed 0)
    from momentangle import procedures
    from momentangle.submanifold_numerics import MetricSpec

    patches = []
    for name in ("stationarity_ratio", "patch_volume_derivative"):
        monkeypatch.setattr(procedures, name, lambda patch, *args, real=getattr(procedures, name), **kwargs: (
            patches.append(patch) or real(patch, *args, **kwargs)))
    for command, text, phase_nodes in (
        ("verify-hminimal", "mode quadrics\ngamma 1 3\n1 3 1\nc 1\n", 7),
        ("verify-variation", "mode quadrics\ngamma 1 2\n1 4\nc 1\n", 9),
    ):
        patches.clear()
        rep = run_command(command, parse_config(text), 0, 100, MetricSpec(), out=io.StringIO())
        assert rep.overall, command
        records = [r for r in rep.records if r.name.startswith(("hamiltonian-stationarity", "first-variation"))]
        assert len(records) in (3, 5) and max(r.residual for r in records) <= 1e-14
        assert len(patches) == len(records)
        assert all(len(np.unique(patch.params[:, -1])) == phase_nodes for patch in patches)


@pytest.mark.parametrize("gamma", [1, 2, 3])
def test_circle_variation_reads_two_pi_at_every_coefficient(gamma):
    # the circle gamma |z|^2 = c: its phase runs through the dual basis, the
    # row gamma / gamma = 1, so the phase box covers the circle once and the
    # radial unit field's dVol/dt and curvature integral read 2 pi at every
    # gamma and level. Through gamma's own row the box covered the circle
    # gamma times, and both read 2 pi (gamma - 1) too much
    from momentangle.charts import global_chart
    from momentangle.exact_linalg import IntegerMatrix
    from momentangle.procedures import circle_variation_values
    from momentangle.quadric_config import QuadricConfiguration
    from momentangle.submanifold_numerics import MetricSpec

    for c in (1, 2):
        text = f"mode quadrics\ngamma 1 1\n{gamma}\nc {c}\n"
        rep = run_command("verify-variation", parse_config(text), 0, 100, MetricSpec(), out=io.StringIO())
        assert [r.name for r in rep.records] == ["circle-dvol", "circle-curvature-integral", "circle-consistency"]
        assert rep.overall and max(r.residual for r in rep.records) <= 1e-14, (gamma, c)
        chart = global_chart(QuadricConfiguration(IntegerMatrix([[gamma]], cols=1), [c]))
        assert chart.phase_rows.tolist() == [[1.0]]
        for value in circle_variation_values(chart):
            assert abs(value - 2 * math.pi) <= 1e-14, (gamma, c, value)


def test_variational_checks_refuse_a_locus_that_is_no_product_of_ellipsoids(tmp_path, capsys):
    # the hyperboloid u_1^2 - u_2^2 = 1 has no global chart: it runs no
    # stationarity record and no first variation
    from momentangle.charts import global_chart
    from momentangle.quadric_config import QuadricConfiguration

    assert global_chart(QuadricConfiguration.from_rows([(1, -1)], [1])) is None
    cfg = tmp_path / "hyperboloid.cfg"
    cfg.write_text("mode quadrics\ngamma 1 2\n1 -1\nc 1\n")
    assert main(["verify-hminimal", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "hminimality-residual" in out and "hamiltonian-stationarity" not in out
    assert main(["verify-variation", str(cfg)]) == 3
    assert "no check of verify-variation applies" in capsys.readouterr().err


def test_variational_checks_keep_to_the_node_budget(tmp_path, monkeypatch, capsys):
    # the phase of gamma (10^6, 1) takes 2 * 10^6 + 1 nodes, far above the
    # node budget: report-all keeps its other records and runs no variational
    # one, and verify-variation exits 3. Before the budget, 10^5 took 16 s
    # and 1.1 GB, and 10^6 ran out of memory
    from momentangle import procedures, reduction_catalog, submanifold_numerics
    from momentangle.quadric_config import QuadricConfiguration
    from momentangle.reduction_catalog import catalog_double

    for row in ("1000000 1", "1000000000000 1"):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(f"mode quadrics\ngamma 1 2\n{row}\nc 1\n")
        assert main(["report-all", str(cfg)]) == 1, row  # the orbits of z_2 = 0 have a stabilizer
        out = capsys.readouterr().out
        assert "FAIL  torus-free" in out and "coarea-relative-mismatch" in out, row
        assert "first-variation" not in out and "hamiltonian-stationarity" not in out, row
        assert main(["verify-variation", str(cfg)]) == 3, row
        assert "no check of verify-variation applies" in capsys.readouterr().err
    # the one gate reads each family's own patch: stationarity's 12 x 12 x 201 nodes fit,
    # and at (1000, 1, 1) its 12 x 12 x 2001 do not; rp2's 12 x 5 x 1-node
    # lift patch does not fit a budget of 50
    for row, fits in (((100, 1, 1), True), ((1000, 1, 1), False)):
        chart = procedures._one_quadric_chart(QuadricConfiguration.from_rows([row], [1]), (2, 3))
        assert (procedures._whole_nodes(chart) is not None) == fits, row
    assert reduction_catalog.cp_lift_nodes(catalog_double("rp2")) is not None
    monkeypatch.setattr(submanifold_numerics, "NODE_BUDGET", 50)
    assert reduction_catalog.cp_lift_nodes(catalog_double("rp2")) is None
    assert main(["verify-ntilde", "catalog:rp2"]) == 0
    out = capsys.readouterr().out
    assert "ntilde-lagrangian-residual" in out and "cp-" not in out


@pytest.mark.parametrize("text", [
    "mode quadrics\ngamma 1 2\n1 1\nc 1e400\n",
    "mode polytope\nA 2 3\n1 0 -1\n0 1 -1\nb 0 0 1e400\n",
], ids=["quadrics", "polytope"])
def test_a_level_out_of_float_range_is_refused_where_floats_are_read(tmp_path, capsys, text):
    # the exact checks never read Gamma or c as floats, so they answer
    # exactly; a numeric entry names the value it cannot convert and exits 3
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(text)
    assert main(["check-free", str(cfg)]) == 0
    assert main(["check-nondeg", str(cfg)]) == 0
    assert "PASS  torus-free" in capsys.readouterr().out
    for command in ("verify-lagrangian", "report-all"):
        assert main([command, str(cfg)]) == 3, command
        err = capsys.readouterr().err
        assert err.startswith("precondition violation:") and "out of float range: about 1e40" in err, command


def test_report_all_survives_seeded_one_quadric_rows(tmp_path):
    # 10 seeded rows in C^2 and C^3 with entries up to 10^6 (one in five
    # negative) and levels from 1/1000 to 1000: every row fails torus-free
    # (and a row of mixed signs bounded), so each run exits 1, and no
    # exception escapes. The rows
    # [-1827, 407788, -78546] and [151034, -1773, -63] (levels 23.874 and
    # 10.562) exited 3 under an absolute membership tolerance, at defects of
    # 3.8e-9 and 1.4e-10, the rounding of terms up to 10^7; the relative
    # defect reads them at the floor. 0.8 s for all ten
    rng = np.random.default_rng(0)
    cfg = tmp_path / "row.cfg"
    for _ in range(10):
        m = int(rng.integers(2, 4))
        row = np.round(10.0 ** rng.uniform(0, 6, m)).astype(int) * rng.choice([-1, 1], m, p=[0.2, 0.8])
        level = int(round(10 ** rng.uniform(-3, 3) * 1000))
        cfg.write_text(f"mode quadrics\ngamma 1 {m}\n{' '.join(map(str, row))}\nc {level}/1000\n")
        assert main(["report-all", str(cfg)]) == 1, (row, level)


def _scaled_verdicts(tmp_path, name: str, lam: Fraction) -> tuple[int, list[tuple[str, str]]]:
    """The exit code and the (record, verdict) pairs of report-all at seed 0 on the
    catalog instance ``name`` as a quadric configuration, or a double, with every
    level scaled by ``lam``."""
    from momentangle.reduction_catalog import DOUBLE_NAMES, catalog_double, stack_double

    def scaled(Q):
        return QuadricConfiguration(Q.gamma, [lam * c for c in Q.c])

    if name in DOUBLE_NAMES:
        D = catalog_double(name)
        return _verdicts(tmp_path, config_from_double(stack_double(scaled(D.gamma_cfg), scaled(D.delta_cfg))))
    return _verdicts(tmp_path, config_from_quadrics(scaled(_catalog_quadrics(name))))


def _catalog_quadrics(name: str) -> QuadricConfiguration:
    """The non-double catalog instance ``name`` as a quadric configuration."""
    from momentangle.reduction_catalog import POLYTOPE_NAMES, catalog_polytope, catalog_quadrics

    return gale_dual(catalog_polytope(name)) if name in POLYTOPE_NAMES else catalog_quadrics(name)


def _verdicts(tmp_path, config) -> tuple[int, list[tuple[str, str]]]:
    """The exit code and the (record, verdict) pairs of report-all at seed 0 on ``config``."""
    cfg, out = tmp_path / "instance.cfg", tmp_path / "report.tsv"
    cfg.write_text(render_config(config))
    rc = main(["report-all", str(cfg), "--seed", "0", "--report-file", str(out)])
    return rc, [(line.split("\t")[0], line.split("\t")[3]) for line in out.read_text().splitlines()]


def test_report_all_verdicts_hold_at_small_levels(tmp_path, capsys):
    # c -> lam c maps N to sqrt(lam) N, a homothety that keeps N Lagrangian,
    # minimal and H-minimal, so report-all at seed 0 on every catalog
    # instance, as a quadric configuration or a double with c and d scaled,
    # gives the exit code, record names and verdicts of lam = 1 at
    # lam = 10^e, e = -18, -15, ..., -3. The frames' rank test and the
    # horizontal part of a double's lift compare each column with its own
    # length and the Noether spot check compares f with its size on the
    # orbit, so no absolute floor reads a small N as degenerate or a small
    # non-invariant f as invariant
    for name in catalog_names():
        expected = _scaled_verdicts(tmp_path, name, Fraction(1))
        assert expected[0] == int(name == "bad-triangle"), name
        for e in range(-18, 0, 3):
            assert _scaled_verdicts(tmp_path, name, Fraction(10) ** e) == expected, (name, e)
    capsys.readouterr()


def test_report_all_verdicts_hold_at_large_levels(tmp_path, capsys):
    # the large-level half of the homothety: noether-drift compares the
    # moment rate of each quadric with the sum of the magnitudes of its
    # terms, and the membership test and the charts' base-point checks read
    # the defect of Gamma |z|^2 = c over the magnitudes of its terms, so at
    # lam = 10^3, 10^6, 10^9 and 10^12 every catalog instance, doubles
    # included, keeps the verdicts of lam = 1. An absolute membership
    # tolerance refused chart points of every instance by 10^6
    for name in catalog_names():
        expected = _scaled_verdicts(tmp_path, name, Fraction(1))
        for e in (3, 6, 9, 12):
            assert _scaled_verdicts(tmp_path, name, Fraction(10) ** e) == expected, (name, e)
    capsys.readouterr()


def test_report_all_verdicts_hold_under_row_operations_and_column_permutations(tmp_path, capsys):
    # (Gamma | c) -> A (Gamma | c) with A unimodular keeps the torus and the
    # level set, and permuting the columns of Gamma permutes the coordinates
    # of C^m, a unitary map that commutes with the torus: N and every claim
    # of the paper stay. So report-all at seed 0 on every non-double catalog
    # instance keeps its exit code, record names and verdicts under a seeded
    # A, negation of row 0 and elementary row operations with multipliers in
    # [-2, 2], and a seeded permutation of the columns (measured at seeds
    # 0-9, 0.15 s a seed; the test runs 0-4)
    from momentangle.exact_linalg import IntegerMatrix
    from momentangle.reduction_catalog import DOUBLE_NAMES

    for name in catalog_names():
        if name in DOUBLE_NAMES:
            continue
        Q = _catalog_quadrics(name)
        expected = _verdicts(tmp_path, config_from_quadrics(Q))
        k, m = Q.num_quadrics, Q.ambient_dim
        for seed in range(5):
            rng = np.random.default_rng(seed)
            rows = [[-x for x in Q.gamma.entries[0]] + [-Q.c[0]]] + [list(row) + [c] for row, c in
                                                                     zip(Q.gamma.entries[1:], Q.c[1:])]
            for _ in range(3 * (k > 1)):
                (i, j), f = rng.choice(k, 2, replace=False), int(rng.integers(-2, 3))
                rows[i] = [a + f * b for a, b in zip(rows[i], rows[j])]
            perm = rng.permutation(m)
            moved = QuadricConfiguration(IntegerMatrix([[row[p] for p in perm] for row in rows], cols=m),
                                         [row[m] for row in rows])
            assert _verdicts(tmp_path, config_from_quadrics(moved)) == expected, (name, seed)
    capsys.readouterr()


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


def test_sample_records_agree_across_commands(tmp_path):
    # a command draws one sample of N, and every entry reads it: a record
    # reads the same bytes under each command that runs its entry
    out = tmp_path / "report.tsv"

    def records(command, name, seed):
        assert main([command, f"catalog:{name}", "--seed", str(seed), "--report-file", str(out)]) == 0
        return dict(line.split("\t", 1) for line in out.read_text().splitlines())

    for name in ("one-quadric:3", "product:2,2"):
        for seed in (0, 1):
            every = records("report-all", name, seed)
            for command, record in (("verify-lagrangian", "lagrangian-residual"),
                                    ("verify-minimal", "lagrangian-residual"),
                                    ("verify-hminimal", "hminimality-residual")):
                assert records(command, name, seed)[record] == every[record], (command, name, seed)


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


def test_samples_beyond_the_node_budget_exit_2(tmp_path, monkeypatch, capsys):
    # a sample keeps its jet and geometry per point, as a patch does per
    # node, so a sample count above NODE_BUDGET is a configuration error
    # (it ended in a numpy memory error and exit 1). One more than the
    # budget is refused before any point is drawn, from the flag and from
    # a samples line alike
    from momentangle import cli
    from momentangle.submanifold_numerics import NODE_BUDGET

    def refuse(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(cli, "sample_chart_points", refuse)
    over = str(NODE_BUDGET + 1)
    assert main(["report-all", "catalog:triangle", "--samples", over]) == 2
    assert f"samples must be at most the node budget of {NODE_BUDGET}, got {over}" in capsys.readouterr().err
    big = tmp_path / "big.cfg"
    big.write_text(f"mode quadrics\ngamma 1 3\n1 1 1\nc 1\nsamples {over}\n")
    assert main(["report-all", str(big)]) == 2
    assert f"got {over}" in capsys.readouterr().err


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
    # product rule on the chart's derivatives, every chart report-all
    # differentiates is exact, and no chart solves a Newton projection,
    # so none of these is a name
    args = ["verify-ntilde", "catalog:rp2", "--samples", "5"]
    for name in ("step", "curvature", "step_gradient", "step_divergence", "step_chart", "newton"):
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
        assert main(args + ["--tol", "membership", value]) == 2, value
        cfg = tmp_path / "tol.cfg"
        cfg.write_text(f"mode quadrics\ngamma 1 2\n1 1\nc 1\ntol membership {value}\n")
        assert main(["verify-lagrangian", str(cfg), "--samples", "5"]) == 2, value
        with monkeypatch.context() as m:
            m.setenv("MOMENTANGLE_TOL_MEMBERSHIP", value)
            assert main(args) == 2, value
        assert capsys.readouterr().err.count("must be finite and positive") == 3, value
    assert main(args + ["--tol", "membership", "2e-3"]) == 0


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


def test_rank_deficient_chart_jacobian_exits_4(monkeypatch, capsys):
    # the frames' rank test reads the Cholesky factor of g: a jacobian with
    # two equal columns leaves g singular, so the factorization itself
    # fails, and so does one whose second column meets the first at an
    # angle of 1e-10, the columns (1, 0) and (1 + 1e-10 i, 0) of C^2, exact:
    # its sine is below both the rank test's 1e-7 and the resolution of
    # g = J^T J, whose entries round to 1. Both are numeric failures. A
    # column that is merely short is not: the rank test compares each
    # column with its own length (``test_report_all_verdicts_hold_at_small_levels``)
    import numpy as np

    from momentangle import cli
    from momentangle.submanifold_numerics import ChartSample
    from stencil_chart import FunctionChart

    def equal_columns(S):
        return np.stack([np.cos(S[:, 0] + S[:, 1]), np.sin(S[:, 0] + S[:, 1])], axis=1) + 0j

    class ShearedColumns:
        """The linear chart s -> A s of C^2, jacobian A exact: columns at an angle of 1e-10."""

        dim = ambient_dim = 2
        A = np.array([[1.0, 1.0 + 1e-10j], [0.0, 0.0]])

        def jet(self, S, order):
            return S @ self.A.T, np.broadcast_to(self.A, (len(S), 2, 2)).copy()

    for chart in (FunctionChart(equal_columns, 2, 2), ShearedColumns()):
        monkeypatch.setattr(cli, "command_sample", lambda Q, checks, seed, samples, spec: ChartSample.at(
            chart, np.random.default_rng(seed).uniform(0.0, 1.0, (5, 2)), 1))
        assert main(["verify-lagrangian", "catalog:one-quadric:2"]) == 4, chart
        assert "chart jacobian is rank deficient" in capsys.readouterr().err, chart


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
    # records the entry emits on the catalog and the circle, and no two
    # entries emit a common record name
    import fnmatch
    import itertools
    import re

    from momentangle import procedures as proc
    from momentangle.cli import command_sample
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
                sample = None if check.order is None else command_sample(subject, [check], 0, 5, MetricSpec())
                rep = check.run(subject, sample=sample, seed=0, samples=5, spec=MetricSpec())
                emitted[check.key].update(r.name for r in rep.records)
    for row, check in zip(rows, proc.CHECKS):
        patterns = re.findall(r"`([\w*-]+)`", row[2])
        assert all(any(fnmatch.fnmatchcase(n, p) for p in patterns) for n in emitted[check.key]), check.key
        assert all(any(fnmatch.fnmatchcase(n, p) for n in emitted[check.key]) for p in patterns), check.key
    for (a, names_a), (b, names_b) in itertools.combinations(emitted.items(), 2):
        assert not names_a & names_b, (a, b, names_a & names_b)


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


def test_report_all_builds_each_global_chart_once(monkeypatch):
    # the global chart is kept on Q: the variational gates, their reports and
    # the projective check read the one chart built on first use; on the
    # hyperboloid, which has none, the kept None is read again
    from momentangle import charts
    from momentangle.submanifold_numerics import MetricSpec

    built = []
    solve = charts._solve_global_chart
    monkeypatch.setattr(charts, "_solve_global_chart", lambda Q: built.append(Q) or solve(Q))
    for name in ("triangle", "one-quadric:2", "rp2", "cp2-torus"):
        built.clear()
        assert _report_all(_catalog_config(name)).overall, name
        assert len(built) == 1, name
    built.clear()
    hyperboloid = parse_config("mode quadrics\ngamma 1 2\n1 -1\nc 1\n")
    rep = run_command("report-all", hyperboloid, 0, 100, MetricSpec(), out=io.StringIO())
    assert not any(r.name.startswith(("first-variation", "hamiltonian-stationarity")) for r in rep.records)
    assert len(built) == 1


def test_report_all_inverts_the_lattice_basis_once(monkeypatch):
    # the dual basis and the lattice index are kept on Q: triangle's orbit
    # volumes, freeness, co-area identity and global chart read them, and the
    # whole report runs one exact inverse
    from momentangle import quadric_config

    calls = []
    inverse = quadric_config.inverse
    monkeypatch.setattr(quadric_config, "inverse", lambda M: calls.append(M) or inverse(M))
    assert _report_all(_catalog_config("triangle")).overall
    assert len(calls) == 1


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
