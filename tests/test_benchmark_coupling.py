"""The benchmark under perfbench/ imports package modules and wraps chart
methods by name: a refactor that drops one of them fails here, not only in
the benchmark."""

import importlib
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_perfbench_imports_the_package_and_wraps_its_charts(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    spans = importlib.import_module("spans")

    ma = workloads.import_package()
    cls = ma.charts.TorusSpreadChart
    originals = {m: vars(cls)[m] for m in spans.CHART_METHODS}
    tracer = spans.Tracer(ma)
    tracer.install()
    try:
        chart = ma.charts.TorusSpreadChart(ma.reduction_catalog.catalog_quadrics("one-quadric:3"), [1.0, 0.0, 0.0])
        chart.jacobian(np.zeros((4, 3)))
    finally:
        tracer.uninstall()
    assert tracer.calls["charts.TorusSpreadChart.init"] == 1
    assert tracer.calls["charts.TorusSpreadChart.jacobian"] == 1
    assert tracer.extra["charts.TorusSpreadChart.jacobian.points"] == 4
    assert {m: vars(cls)[m] for m in spans.CHART_METHODS} == originals
