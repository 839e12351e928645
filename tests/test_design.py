"""Design budgets of the package, counted over its source."""

import ast
import inspect
import re
from pathlib import Path

import momentangle

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "momentangle"

# the settable values in src/momentangle/*.py after the last change that moved them
SETTABLE_VALUES = 47


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


def _referenced_outside_definition(tree: ast.Module, name: str) -> bool:
    """Whether ``name`` is read, as a name or an attribute, anywhere in ``tree`` but the body
    of its own ``def`` or ``class``."""
    own = {id(node) for d in ast.walk(tree) if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and d.name == name
           for node in ast.walk(d)}
    return any(id(node) not in own and (getattr(node, "id", None) == name or getattr(node, "attr", None) == name)
               for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_export_is_called_by_the_package_or_perfbench():
    # the package exports no helper that only a test would call: every
    # exported function and class is read in src/ outside its own
    # definition, or named by the benchmark in perfbench/
    trees = [ast.parse(path.read_text()) for path in SRC.glob("*.py")]
    perfbench = "\n".join(path.read_text() for path in (ROOT / "perfbench").glob("*.py"))
    exported = [name for name in momentangle.__all__
                if inspect.isfunction(getattr(momentangle, name)) or inspect.isclass(getattr(momentangle, name))]
    assert len(exported) > 40
    unused = [name for name in exported
              if not any(_referenced_outside_definition(tree, name) for tree in trees)
              and not re.search(rf"\b{name}\b", perfbench)]
    assert unused == [], f"exported but called only by tests: {unused}"
