"""Spans around the package's public functions, and the per-layer metrics
derived from them.

``Tracer.install`` wraps every public function defined in each package
module, and the value/jacobian/hessian/constructor of ``TorusSpreadChart``.
The modules import functions by name, so every module namespace that holds
the original function object gets the wrapper too. Each span records its
name, start, end, parent span and the instance being run; spans stay in
memory until ``write``. Aggregates (inclusive time of the outermost call of
each name, self time per module, counts of points and evaluations) are kept
as the spans close.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

# the 12 report functions of procedures.py
REPORTS = (
    "gale_report",
    "polytope_report",
    "quadrics_core_report",
    "delzant_freeness_report",
    "point_residual_report",
    "vo_symmetry_report",
    "noether_report",
    "hminimality_report",
    "first_variation_report",
    "coarea_report",
    "hamiltonian_stationarity_report",
    "ntilde_report",
)
LAYERS = (
    "lp",
    "exact_linalg",
    "polytope",
    "quadric_config",
    "torus_actions",
    "charts",
    "fd",
    "quadrature",
    "submanifold_numerics",
    "procedures",
    "reduction_catalog",
    "config_io",
    "cli",
)
CHART_METHODS = ("__init__", "value", "jacobian", "hessian")
FREENESS = "torus_actions.freeness_check"

# (name, unit, better): the per-layer metrics, each a total per traced pass
# unless its name says otherwise
_NUMERIC = (
    "sample_chart_points",
    "lagrangian_residual",
    "minimality_residual_in_Z",
    "hminimality_residual",
    "coarea_orbit_volume_check",
)
METRICS = (
    [
        ("lp.solve_lp.calls", "count", "lower"),
        ("lp.solve_lp.s", "s", "lower"),
        ("lp.positive_combination.calls", "count", "lower"),
        ("lp.positive_combination.hit_ratio", "frac", "higher"),
        ("exact_linalg.smith_normal_form.calls", "count", "lower"),
        ("exact_linalg.smith_normal_form.s", "s", "lower"),
        ("exact_linalg.sublattice_equals_lattice.calls", "count", "lower"),
        ("exact_linalg.sublattice_equals_lattice.s", "s", "lower"),
        ("torus_actions.freeness_check.s", "s", "lower"),
        ("torus_actions.freeness_check.subsets", "count", "lower"),
        ("quadric_config.nondegeneracy_check.s", "s", "lower"),
        ("quadric_config.gale_dual.s", "s", "lower"),
        ("polytope.enumerate_vertices.calls", "count", "lower"),
        ("polytope.enumerate_vertices.s", "s", "lower"),
        ("polytope.is_delzant.s", "s", "lower"),
        ("polytope.is_simple.s", "s", "lower"),
        ("charts.project_real.calls", "count", "lower"),
        ("charts.project_real.points", "count", "lower"),
        ("charts.project_real.s", "s", "lower"),
        ("charts.TorusSpreadChart.init.calls", "count", "lower"),
        ("charts.TorusSpreadChart.init.s", "s", "lower"),
    ]
    + [
        (f"charts.TorusSpreadChart.{m}.{k}", u, "lower")
        for m in ("value", "jacobian", "hessian")
        for k, u in (("points", "count"), ("s", "s"))
    ]
    + [
        ("fd.jacobian.evals", "count", "lower"),
        ("fd.jacobian.s", "s", "lower"),
        ("fd.hessian.evals", "count", "lower"),
        ("fd.hessian.s", "s", "lower"),
        ("submanifold_numerics.hamiltonian_field_batch.points", "count", "lower"),
        ("submanifold_numerics.hamiltonian_field_batch.s", "s", "lower"),
        ("submanifold_numerics.patch_volume_derivative.calls", "count", "lower"),
        ("submanifold_numerics.patch_volume_derivative.s", "s", "lower"),
        ("submanifold_numerics.patch_volume.s", "s", "lower"),
    ]
    + [
        (f"submanifold_numerics.{f}.{k}", u, "lower")
        for f in _NUMERIC
        for k, u in (("calls", "count"), ("s", "s"))
    ]
    + [
        (f"procedures.{r}.{k}", u, "lower")
        for r in REPORTS
        for k, u in (("s", "s"), ("max_margin", "ratio"))
    ]
    + [
        ("reduction_catalog.cp_chart_verify.s", "s", "lower"),
        ("reduction_catalog.cp_chart_verify.max_margin", "ratio", "lower"),
        ("reduction_catalog.stack_double.s", "s", "lower"),
        ("cli.run_command.s", "s", "lower"),
    ]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    + [
        ("trace.spans", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def _rows(a) -> int:
    shape = getattr(a, "shape", None)
    if shape is None:
        return 1
    return 1 if len(shape) < 2 else int(shape[0])


def max_margin(rep) -> float:
    """Worst residual / tolerance over the records that have a tolerance."""
    margins = [r.residual / r.tolerance for r in rep.records if r.tolerance > 0]
    return max(margins, default=0.0)


class Tracer:
    def __init__(self, ma):
        self.ma = ma
        self.spans: list[tuple] = []
        self._next_id = 0
        self.instance: str | None = None
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._depth: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []
        self._hook_table = self._hooks()
        self.calls: Counter = Counter()
        self.incl: Counter = Counter()
        self.self_s: Counter = Counter()
        self.errors: Counter = Counter()
        self.extra: Counter = Counter()  # points, evals, hits, subsets
        self.margin: dict[str, float] = defaultdict(float)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn):
        tracer = self
        hook = self._hook_table.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(args, kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            nested = tracer._depth[name] > 0
            tracer._depth[name] += 1
            frame = [sid, name, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._depth[name] -= 1
                dur = end - frame[2]
                tracer.calls[name] += 1
                if not nested:
                    tracer.incl[name] += dur
                tracer.self_s[layer] += dur - frame[3]
                if tracer._stack:
                    tracer._stack[-1][3] += dur
                tracer.spans.append((sid, parent, name, frame[2], end, tracer.instance))
            tracer._after(name, result)
            return result

        return wrapper

    def _hooks(self):
        def count_rows(name):
            # the point batch is the second positional argument (after Q, f or self)
            def hook(args, kwargs):
                if len(args) > 1:
                    self.extra[name + ".points"] += _rows(args[1])
                return args, kwargs

            return hook

        def count_evals(name):
            def hook(args, kwargs):
                f = args[0] if args else kwargs.pop("f")

                def counted(X):
                    self.extra[name + ".evals"] += _rows(X)
                    return f(X)

                return (counted,) + tuple(args[1:]), kwargs

            return hook

        def freeness_subset(args, kwargs):
            if self._depth[FREENESS] > 0:
                self.extra[FREENESS + ".subsets"] += 1
            return args, kwargs

        hooks = {
            "charts.project_real": count_rows("charts.project_real"),
            "submanifold_numerics.hamiltonian_field_batch": count_rows(
                "submanifold_numerics.hamiltonian_field_batch"
            ),
            "fd.jacobian": count_evals("fd.jacobian"),
            "fd.hessian": count_evals("fd.hessian"),
            "lp.positive_combination": freeness_subset,
        }
        for m in ("value", "jacobian", "hessian"):
            name = f"charts.TorusSpreadChart.{m}"
            hooks[name] = count_rows(name)
        return hooks

    def _after(self, name: str, result) -> None:
        if name == "lp.positive_combination" and result is not None:
            self.extra["lp.positive_combination.hits"] += 1
        elif name.startswith(("procedures.", "reduction_catalog.cp_chart_verify")) and hasattr(result, "records"):
            self.margin[name] = max(self.margin[name], max_margin(result))

    def install(self) -> None:
        originals: dict[int, object] = {}
        for layer in LAYERS:
            mod = getattr(self.ma, layer)
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                originals[id(fn)] = self._wrap(f"{layer}.{attr}", layer, fn)
        # patch the defining module and every module that imported the name
        for mod in [m for n, m in list(sys.modules.items()) if n.startswith("momentangle")]:
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value)) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        cls = self.ma.charts.TorusSpreadChart
        for m in CHART_METHODS:
            fn = vars(cls)[m]
            label = "init" if m == "__init__" else m
            self._patched.append((cls, m, fn))
            setattr(cls, m, self._wrap(f"charts.TorusSpreadChart.{label}", "charts", fn))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def metrics(self, passes: int, overhead_s: float) -> dict[str, float]:
        """Per-layer metrics per traced pass."""
        calls, incl, extra = self.calls, self.incl, self.extra
        out: dict[str, float] = {}
        for name, unit, _ in METRICS:
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                value = calls[base] / passes
            elif kind == "s":
                value = incl[base] / passes
            elif kind in ("points", "evals", "subsets"):
                value = extra[name] / passes
            elif kind == "hit_ratio":
                value = extra[base + ".hits"] / max(calls[base], 1)
            elif kind == "max_margin":
                value = self.margin[base]
            elif kind == "self_s":
                value = self.self_s[base] / passes
            elif kind == "errors":
                value = self.errors[base] / passes
            else:
                continue
            out[name] = value
        out["cli.run_command.s"] = incl["cli.run_command"] / max(calls["cli.run_command"], 1)
        out["trace.spans"] = len(self.spans) / passes
        out["trace.overhead_s"] = overhead_s
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span\tparent\tname\tstart\tend\tinstance\n")
            for sid, parent, name, start, end, inst in self.spans:
                fh.write(f"{sid}\t{'' if parent is None else parent}\t{name}\t{start!r}\t{end!r}\t{inst}\n")

