"""Design budgets of the package, counted over its source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "momentangle"

# the settable values in src/momentangle/*.py after the last change that moved them
SETTABLE_VALUES = 84


def _is_init_false_field(value) -> bool:
    func = getattr(value, "func", None)
    return (isinstance(value, ast.Call) and getattr(func, "id", getattr(func, "attr", None)) == "field"
            and any(k.arg == "init" and getattr(k.value, "value", None) is False for k in value.keywords))


def _is_record(cls: ast.ClassDef) -> bool:
    """A dataclass or a NamedTuple: its defaulted fields are settable values."""
    decorators = {getattr(d, "id", getattr(d, "attr", None))
                  for d in (getattr(d, "func", d) for d in cls.decorator_list)}
    bases = {getattr(b, "id", getattr(b, "attr", None)) for b in cls.bases}
    return "dataclass" in decorators or "NamedTuple" in bases


def settable_values(source: str) -> int:
    """Defaulted function and lambda parameters, and defaulted dataclass and
    NamedTuple fields other than ``field(init=False)``."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_record(node):
            count += sum(isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                         and not _is_init_false_field(stmt.value) for stmt in node.body)
    return count


def test_settable_values_count():
    counted = {
        "def f(a, b=1, *, c=2, d): pass": 2,
        "g = lambda x, y=0: x": 1,
        "@dataclass\nclass A:\n    a: int\n    b: int = 0\n    c: list = field(init=False)": 1,
        "class B(NamedTuple):\n    a: int\n    b: int = 0": 1,
        "class C:\n    a: int = 0": 0,
    }
    for source, expected in counted.items():
        assert settable_values(source) == expected, source
    total = sum(settable_values(path.read_text()) for path in SRC.glob("*.py"))
    assert total <= SETTABLE_VALUES, (
        f"{total} settable values in src/momentangle, above the pinned {SETTABLE_VALUES}: a change "
        "that adds a knob must raise SETTABLE_VALUES and say so in CHANGES.md")
