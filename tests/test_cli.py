import os
import subprocess
import sys
from pathlib import Path

import pytest

import momentangle
from momentangle.cli import main, _catalog_config
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
    assert main(["gale", str(tmp_path / "missing.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("mode quadrics\ngamma 1 2\n1 x\nc 1\n")
    assert main(["check-free", str(bad)]) == 2


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


def test_report_all_whole_catalog(tmp_path, capsys):
    # every catalog instance passes report-all at seed 0, except bad-triangle,
    # which fails exactly its lattice-vertex (Delzant) and freeness records
    out = tmp_path / "report.tsv"
    for name in catalog_names():
        rc = main(["report-all", f"catalog:{name}", "--seed", "0", "--report-file", str(out)])
        lines = out.read_text().splitlines()
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
    for name in ("omega_scale", "fd_order", "newton_max_iter", "tol_membership", "frame", "variation"):
        assert main(["verify-lagrangian", "catalog:one-quadric:2", "--samples", "5",
                     "--tol", name, "0"]) == 2, name
    cfg = tmp_path / "tol.cfg"
    cfg.write_text("mode quadrics\ngamma 1 2\n1 1\nc 1\ntol frame 1e-3\n")
    assert main(["verify-lagrangian", str(cfg), "--samples", "5"]) == 2
    monkeypatch.setenv("MOMENTANGLE_TOL_VARIATION", "1e-3")
    assert main(["verify-lagrangian", "catalog:one-quadric:2", "--samples", "5"]) == 2


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
    fields = {f.name for f in dataclasses.fields(MetricSpec)}
    assert set(_TOL_FIELDS.values()) <= fields
