"""Line-based plain-text instance files.

Schema: first line ``mode <polytope|quadrics|double>``; matrix blocks
``A <n> <m>`` / ``gamma <k> <m>`` / ``delta <k> <m>`` followed by that many
rows of whitespace-separated integers; vector lines ``b``/``c``/``d`` of
rationals (``p/q`` or integers); optional ``l <int>``, ``seed <u64>``,
``samples <int>`` and ``tol <name> <float>`` lines. Bit-exact, diffable,
and round-trips: parsing the canonical rendering reproduces the instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exact_linalg import IntegerMatrix
from .polytope import PolytopePresentation
from .quadric_config import QuadricConfiguration
from .reduction_catalog import DoubleConfiguration, stack_double


class ConfigError(ValueError):
    pass


MODES = ("polytope", "quadrics", "double")


@dataclass
class ConfigFile:
    mode: str
    A: IntegerMatrix | None = None  # n x m, columns are facet normals
    b: tuple[Fraction, ...] | None = None
    gamma: IntegerMatrix | None = None
    c: tuple[Fraction, ...] | None = None
    delta: IntegerMatrix | None = None
    d: tuple[Fraction, ...] | None = None
    l: int | None = None
    seed: int = 0
    samples: int | None = None
    tols: dict[str, float] = field(default_factory=dict)


def parse_number(text, where: str, kind=int):
    """``kind(text)``, with a malformed value reported as a configuration error."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad value {text!r} in {where}") from exc


def parse_config(text: str) -> ConfigFile:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ConfigError("empty configuration")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "mode" or head[1] not in MODES:
        raise ConfigError("first line must be 'mode polytope|quadrics|double'")
    cfg = ConfigFile(mode=head[1])
    i = 1
    while i < len(lines):
        toks = lines[i].split()
        key = toks[0]
        if key in ("A", "gamma", "delta"):
            if len(toks) != 3:
                raise ConfigError(f"matrix header '{lines[i]}' needs two dimensions")
            try:
                nrows, ncols = int(toks[1]), int(toks[2])
            except ValueError as exc:
                raise ConfigError(f"bad dimensions in '{lines[i]}'") from exc
            if nrows < 0 or ncols < 1:
                raise ConfigError(f"bad dimensions in '{lines[i]}'")
            rows = []
            for r in range(nrows):
                i += 1
                if i >= len(lines):
                    raise ConfigError(f"matrix {key} truncated")
                entries = lines[i].split()
                if len(entries) != ncols:
                    raise ConfigError(f"matrix {key} row {r} has {len(entries)} entries, expected {ncols}")
                try:
                    rows.append([int(t) for t in entries])
                except ValueError as exc:
                    raise ConfigError(f"non-integer entry in matrix {key}") from exc
            setattr(cfg, key, IntegerMatrix(rows, cols=ncols))
        elif key in ("b", "c", "d"):
            setattr(cfg, key, tuple(parse_number(t, f"'{lines[i]}'", Fraction) for t in toks[1:]))
        elif key in ("l", "seed", "samples"):
            if len(toks) != 2:
                raise ConfigError(f"'{lines[i]}' needs exactly one value")
            setattr(cfg, key, parse_number(toks[1], f"'{lines[i]}'"))
        elif key == "tol":
            if len(toks) != 3:
                raise ConfigError(f"tol line '{lines[i]}' needs a name and a value")
            cfg.tols[toks[1]] = parse_number(toks[2], f"'{lines[i]}'", float)
        else:
            raise ConfigError(f"unknown directive {key!r}")
        i += 1
    _validate(cfg)
    return cfg


def _validate(cfg: ConfigFile) -> None:
    if cfg.mode == "polytope":
        if cfg.A is None or cfg.b is None:
            raise ConfigError("polytope mode needs blocks A and b")
        if len(cfg.b) != cfg.A.cols:
            raise ConfigError("offset count must match the number of facets (columns of A)")
    elif cfg.mode == "quadrics":
        if cfg.gamma is None or cfg.c is None:
            raise ConfigError("quadrics mode needs blocks gamma and c")
        if len(cfg.c) != cfg.gamma.rows:
            raise ConfigError("one right-hand side per gamma row required")
    else:
        if cfg.gamma is None or cfg.c is None:
            raise ConfigError("double mode needs blocks gamma and c")
        if cfg.delta is None:
            raise ConfigError("double mode needs a delta block (possibly with 0 rows)")
        if cfg.d is None:
            cfg.d = ()
        if len(cfg.c) != cfg.gamma.rows or len(cfg.d) != cfg.delta.rows:
            raise ConfigError("right-hand side lengths must match the row counts")


def render_config(cfg: ConfigFile) -> str:
    out: list[str] = [f"mode {cfg.mode}"]

    def matrix(key: str, M: IntegerMatrix | None):
        if M is None:
            return
        out.append(f"{key} {M.rows} {M.cols}")
        for row in M.entries:
            out.append(" ".join(str(x) for x in row))

    def vector(key: str, v):
        if v is None:
            return
        out.append(f"{key} " + " ".join(str(Fraction(x)) for x in v))

    matrix("A", cfg.A)
    vector("b", cfg.b)
    matrix("gamma", cfg.gamma)
    vector("c", cfg.c)
    if cfg.mode == "double":
        matrix("delta", cfg.delta)
        if cfg.delta is not None and cfg.delta.rows:
            vector("d", cfg.d)
        elif cfg.d:
            vector("d", cfg.d)
    if cfg.l is not None:
        out.append(f"l {cfg.l}")
    out.append(f"seed {cfg.seed}")
    if cfg.samples is not None:
        out.append(f"samples {cfg.samples}")
    for name in sorted(cfg.tols):
        out.append(f"tol {name} {cfg.tols[name]!r}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# builders


def polytope_from_config(cfg: ConfigFile) -> PolytopePresentation:
    if cfg.mode != "polytope":
        raise ConfigError("not a polytope configuration")
    A = cfg.A
    normals = [tuple(A.entries[i][j] for i in range(A.rows)) for j in range(A.cols)]
    return PolytopePresentation(normals, cfg.b)


def quadrics_from_config(cfg: ConfigFile) -> QuadricConfiguration:
    """The first quadric system of a quadrics or double configuration.

    A polytope configuration has none: its configuration is the Gale dual
    of its presentation, ``gale_dual(polytope_from_config(cfg))``.
    """
    if cfg.gamma is None:
        raise ConfigError("configuration has no quadric block")
    return QuadricConfiguration(cfg.gamma, cfg.c)


def double_from_config(cfg: ConfigFile) -> DoubleConfiguration:
    if cfg.mode != "double":
        raise ConfigError("not a double configuration")
    g = QuadricConfiguration(cfg.gamma, cfg.c)
    dl = QuadricConfiguration(cfg.delta, cfg.d or ())
    return stack_double(g, dl)


def config_from_polytope(P: PolytopePresentation, seed: int = 0) -> ConfigFile:
    A = IntegerMatrix(
        [[P.normals[j][i] for j in range(P.num_facets)] for i in range(P.dim)],
        cols=P.num_facets,
    )
    return ConfigFile(mode="polytope", A=A, b=P.offsets, seed=seed)


def config_from_quadrics(Q: QuadricConfiguration, seed: int = 0) -> ConfigFile:
    return ConfigFile(mode="quadrics", gamma=Q.gamma, c=Q.c, seed=seed)


def config_from_double(D: DoubleConfiguration, seed: int = 0) -> ConfigFile:
    return ConfigFile(
        mode="double",
        gamma=D.gamma_cfg.gamma,
        c=D.gamma_cfg.c,
        delta=D.delta_cfg.gamma,
        d=D.delta_cfg.c,
        seed=seed,
    )
