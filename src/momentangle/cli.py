"""Command-line driver: configuration ingestion, dispatch, report emission.

Exit status: 0 all checks pass, 1 some check fails, 2 configuration or
usage error, 3 precondition violation, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

import numpy as np
from numpy.linalg import LinAlgError

from . import procedures as proc
from .charts import NonConvergenceError
from .config_io import (
    ConfigError,
    ConfigFile,
    config_from_double,
    config_from_polytope,
    config_from_quadrics,
    double_from_config,
    parse_config,
    parse_number,
    polytope_from_config,
    quadrics_from_config,
    render_config,
)
from .polytope import is_delzant, is_simple
from .quadric_config import gale_dual
from .reduction_catalog import (
    DOUBLE_NAMES,
    catalog_double,
    catalog_names,
    catalog_polytope,
    catalog_quadrics,
    classify_N,
)
from .report import VerificationReport
from .submanifold_numerics import NODE_BUDGET, ChartSample, MetricSpec, sample_chart_points

COMMANDS = (
    "gale",
    "check-simple",
    "check-delzant",
    "check-free",
    "check-nondeg",
    "classify",
    "verify-lagrangian",
    "verify-minimal",
    "verify-hminimal",
    "verify-noether",
    "verify-variation",
    "verify-ntilde",
    "report-all",
)

# the size of a command's sample of N when neither --samples nor the file sets it
DEFAULT_SAMPLES = 100

_TOL_FIELDS = {
    "membership": "tol_membership",
}


def _spec_from(cfg: ConfigFile, flag_tols: list[tuple[str, str]]) -> MetricSpec:
    spec = MetricSpec()
    merged = dict(cfg.tols)
    for name, value in _env_tols():
        merged[name] = value
    for name, value in flag_tols:
        merged[name] = value
    for name, value in merged.items():
        if name not in _TOL_FIELDS:
            raise ConfigError(f"unknown tolerance name {name!r}")
        number = parse_number(value, f"tolerance {name}", float)
        if not (math.isfinite(number) and number > 0.0):
            raise ConfigError(f"tolerance {name} must be finite and positive, got {value!r}")
        setattr(spec, _TOL_FIELDS[name], number)
    return spec


def _env_tols():
    out = []
    for key, value in os.environ.items():
        if key.startswith("MOMENTANGLE_TOL_"):
            out.append((key[len("MOMENTANGLE_TOL_"):].lower(), value))
    return out


def _resolve_seed(cfg: ConfigFile, flag_seed: int | None) -> int:
    env = os.environ.get("MOMENTANGLE_SEED")
    if flag_seed is not None:
        seed = flag_seed
    elif env is not None:
        seed = parse_number(env, "MOMENTANGLE_SEED")
    else:
        seed = cfg.seed
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return seed


def _resolve_samples(cfg: ConfigFile, flag_samples: int | None) -> int:
    if flag_samples is not None:
        samples = flag_samples
    elif cfg.samples is not None:
        samples = cfg.samples
    else:
        samples = DEFAULT_SAMPLES
    if samples < 1:
        raise ConfigError(f"samples must be positive, got {samples}")
    # a sample keeps its jet and geometry per point, as a patch does per node
    if samples > NODE_BUDGET:
        raise ConfigError(f"samples must be at most the node budget of {NODE_BUDGET}, got {samples}")
    return samples


def command_sample(Q, checks, seed: int, samples: int, spec: MetricSpec) -> ChartSample:
    """The one sample of N that a command's ``checks`` read: ``samples`` points drawn from
    ``default_rng(seed)``, evaluated through the highest jet order any of them reads."""
    order = max(check.order for check in checks if check.order is not None)
    return sample_chart_points(Q, samples, np.random.default_rng(seed), spec, order=order)


def run_command(
    command: str,
    cfg: ConfigFile,
    seed: int,
    samples: int,
    spec: MetricSpec,
    l_param: int | None = None,
    out=None,
) -> VerificationReport:
    """Dispatch one verification command over a parsed configuration."""
    out = sys.stdout if out is None else out
    rep = VerificationReport(seed=seed)
    if command == "gale":
        out.write(render_config(config_from_quadrics(gale_dual(polytope_from_config(cfg)), seed=seed)))
        rep.add_bool("gale-computed", True)
        return rep

    if command in ("check-simple", "check-delzant"):
        name = command[len("check-"):]
        v = (is_simple if name == "simple" else is_delzant)(polytope_from_config(cfg))
        rep.add_bool(name, bool(v), detail=str(v.witness) if not v else "")
        return rep

    # a command with double entries reads the double of a double
    # configuration, and needs one when it has no other entries; a command
    # without them refuses a double, whose first system alone is not its subject
    checks = [check for check in proc.CHECKS if command in check.commands]
    reads = {check.subject for check in checks}
    if cfg.mode == "double" and "D" not in reads:
        raise ConfigError(f"{command} does not run on a double configuration")
    if "D" in reads and (cfg.mode == "double" or reads == {"D"}):
        subjects = {"D": double_from_config(cfg)}
    else:
        # one presentation per command: its Gale dual, vertices and feasible
        # bases are computed on first use and kept on P and Q
        P = polytope_from_config(cfg) if cfg.mode == "polytope" else None
        Q = quadrics_from_config(cfg) if P is None else gale_dual(P)
        if command == "classify":
            desc = classify_N(Q, l=l_param if l_param is not None else cfg.l)
            out.write(f"{desc.name}\n")
            for fact in desc.facts:
                out.write(f"  {fact}\n")
            rep.add_bool("classified", True, detail=desc.name)
            return rep
        subjects = {"Q": Q} if P is None else {"P": P, "Q": Q}
    if not checks:
        raise ConfigError(f"unknown command {command!r}")
    chosen = [check for check in checks if check.subject in subjects and check.applies(subjects[check.subject])]
    if not chosen:
        raise ValueError(f"no check of {command} applies to this configuration")
    # the sample is drawn when the first entry that reads it runs, so an
    # error of an earlier entry surfaces first
    sample = None
    for check in chosen:
        subject = subjects[check.subject]
        if sample is None and check.order is not None:
            sample = command_sample(subject, chosen, seed, samples, spec)
        rep.extend(check.run(subject, sample=sample, seed=seed, samples=samples, spec=spec))
    return rep


def _catalog_config(name: str) -> ConfigFile:
    try:
        if name in DOUBLE_NAMES:
            return config_from_double(catalog_double(name))
        if name.startswith(("one-quadric:", "two-quadrics:")):
            return config_from_quadrics(catalog_quadrics(name))
        return config_from_polytope(catalog_polytope(name))
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="momentangle",
        description="Build quadric intersections from polytope data and verify "
        "minimality / Lagrangian / H-minimality claims numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd)
        p.add_argument("config", help="path to an instance file, or catalog:<name>")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--l", type=int, default=None, help="twisting parameter for classify")
        p.add_argument("--tol", nargs=2, action="append", default=[], metavar=("NAME", "VALUE"))
        p.add_argument("--report-file", default=None, help="write the machine-readable report here")
    pc = sub.add_parser("emit-catalog")
    pc.add_argument("name", help="catalog instance name; 'list' prints the catalog")
    pc.add_argument("output", nargs="?", default="-", help="output path (default: stdout)")

    args = parser.parse_args(argv)

    try:
        if args.command == "emit-catalog":
            if args.name == "list":
                for n in catalog_names():
                    print(n)
                return 0
            text = render_config(_catalog_config(args.name))
            if args.output == "-":
                sys.stdout.write(text)
            else:
                with open(args.output, "w") as fh:
                    fh.write(text)
            return 0

        if args.config.startswith("catalog:"):
            cfg = _catalog_config(args.config[len("catalog:"):])
        else:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    cfg = parse_config(fh.read())
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{args.config} is not UTF-8 text: {exc}") from exc
        seed = _resolve_seed(cfg, args.seed)
        samples = _resolve_samples(cfg, args.samples)
        spec = _spec_from(cfg, args.tol)
        # the report path is opened before any check runs, so a path that
        # cannot be written exits 2 with nothing on stdout
        with open(args.report_file, "w") if args.report_file else contextlib.nullcontext() as fh:
            rep = run_command(args.command, cfg, seed, samples, spec, l_param=args.l)
            sys.stdout.write(rep.render_human())
            if fh is not None:
                fh.write(rep.render_machine())
        return 0 if rep.overall else 1
    except OSError as exc:  # a missing, unreadable or directory path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergenceError, LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        # every precondition error is a ValueError: a refused double, an
        # unbounded or empty polytope, a non-invariant Hamiltonian, ...
        print(f"precondition violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
