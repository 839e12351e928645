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


def test_one_exact_sweep_pass_meets_its_pinned_verdicts(monkeypatch):
    # bad-triangle's signed Delzant witness and "Delzant iff free" on the
    # seeded random polytopes, each checked by the workload's own check
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")

    ops = workloads.build("exact-sweep", 1, workloads.import_package())()
    assert {op.instance for op in ops} >= set(workloads.EXACT_SWEEP)
    failures = {(op.instance, op.label): op.check(op.run()) for op in ops}
    assert {key: msg for key, msg in failures.items() if msg is not None} == {}


def test_one_report_pass_of_each_report_workload_meets_its_pinned_records(monkeypatch):
    # stationarity (triangle) and catalog-fast (13 instances, cp2-torus twice):
    # each report's record names equal the workload's pinned list and all
    # pass, and cp2-torus's second machine report is byte-identical to its
    # first, each checked by the workload's own check, in pass order
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")

    ma = workloads.import_package()
    for workload, instances in (("stationarity", {"triangle"}), ("catalog-fast", set(workloads.CATALOG_FAST))):
        ops = workloads.build(workload, 1, ma)()
        assert {op.instance for op in ops} == instances, workload
        failures = [(op.instance, op.check(op.run())) for op in ops]
        assert [(instance, msg) for instance, msg in failures if msg is not None] == [], workload
