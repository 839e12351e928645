"""One workload in one process: set up, run passes for a time budget, report.

Started by ``run.py``, never by hand. Protocol on stdout: the line
``READY`` once set-up is done (the parent times process start to that line),
then ``SCALE <x>``, the reference speed over the speed of a few
reference-work samples taken right after set-up (the parent multiplies the
set-up time by it), then
free-form summary lines, then one JSON object as the last line.
With ``--setup-only`` the process exits right after ``SCALE``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5


def warm_numpy() -> None:
    """First calls of the BLAS/LAPACK routines the package uses."""
    a = np.random.default_rng(0).standard_normal((6, 6))
    g = a @ a.T + 6 * np.eye(6)
    np.linalg.solve(g, a)
    np.linalg.det(g[None])
    np.linalg.qr(a, mode="complete")
    np.linalg.svd(a, compute_uv=False)
    np.linalg.cholesky(g)
    np.linalg.inv(g)


def run_pass(make_ops, probe, tracer=None) -> dict:
    """All operations of one pass; times cover the program calls only.

    ``op_times`` holds (instance, wall seconds, start, end) per operation;
    the probe's own ticks are taken out of the wall seconds.
    """
    times, failures = [], []
    for op in make_ops():
        if tracer is not None:
            tracer.instance = op.instance
        ticks = probe.spent
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a raising operation counts as failed
            end = time.perf_counter()
            error = f"raised {type(exc).__name__}: {exc}"
        else:
            end = time.perf_counter()
            error = op.check(result)
        times.append((op.instance, end - start - (probe.spent - ticks), start, end))
        if error:
            failures.append(f"{op.instance} {op.label}: {error}")
    return {"verdict_s": sum(t[1] for t in times), "op_times": times, "failures": failures}


def at_reference_speed(passes: list[dict], probe) -> list[dict]:
    """The passes with every operation time scaled to the reference speed."""
    return [
        dict(p, op_times=[(inst, t * probe.scale(start, end), start, end) for inst, t, start, end in p["op_times"]])
        for p in passes
    ]


def median_pass(passes: list[dict]) -> tuple[float, float]:
    """(verdict_s, slowest_instance_s) of the pass made of per-operation medians.

    Every pass runs the same operations in the same order. Taking each
    operation's median over the passes before summing keeps a slow spell of
    the machine, which hits one stretch of one pass, out of the result.
    """
    per_op = zip(*(p["op_times"] for p in passes))
    instance_s: dict[str, float] = {}
    for samples in per_op:
        instance = samples[0][0]
        instance_s[instance] = instance_s.get(instance, 0.0) + statistics.median(t[1] for t in samples)
    return sum(instance_s.values()), max(instance_s.values())


def run_for(make_ops, seconds: float, probe, tracer=None) -> list[dict]:
    """Passes until the next one would overrun ``seconds``; at least one."""
    passes = []
    while True:
        passes.append(run_pass(make_ops, probe, tracer))
        spent = sum(p["verdict_s"] for p in passes)
        if spent + statistics.median(p["verdict_s"] for p in passes) > seconds:
            return passes


def high_percentile(values: list[float]) -> tuple[float, float] | None:
    """(percent, value) of the highest order statistic with ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return 100.0 * (k + 1) / n, sorted(values)[k]


def summarize(label: str, values: list[float]) -> str:
    line = (f"{label}: n={len(values)} median={statistics.median(values):.4f}s"
            f" min={min(values):.4f}s max={max(values):.4f}s")
    hp = high_percentile(values)
    if hp is None:
        return line + " (fewer than 11 samples: no percentile with ten beyond it)"
    return line + f" p{hp[0]:.1f}={hp[1]:.4f}s"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default=None, help="write the spans here (traced runs)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    ma = workloads.import_package()
    make_ops = workloads.build(args.workload, args.seed, ma)
    warm_numpy()
    print("READY", flush=True)
    kind = workloads.REFERENCE_WORK[args.workload]
    samples = [speed.sample(kind) for _ in range(SETUP_SAMPLES)]
    print("SCALE", speed.REFERENCE_S[kind] / statistics.median(samples), flush=True)
    if args.setup_only:
        return 0

    result = {}
    probe = speed.Probe(kind)
    probe.start()
    try:
        if args.trace:
            from spans import Tracer

            plain = run_for(make_ops, args.seconds / 2, probe)
            tracer = Tracer(ma)
            tracer.install()
            try:
                traced = run_for(make_ops, args.seconds / 2, probe, tracer)
            finally:
                tracer.uninstall()
        else:
            plain, traced = run_for(make_ops, args.seconds, probe), []
    finally:
        probe.stop()
    if args.trace:
        overhead = (median_pass(at_reference_speed(traced, probe))[0]
                    - median_pass(at_reference_speed(plain, probe))[0])
        result["layers"] = tracer.metrics(len(traced), overhead)
        if args.trace_out:
            tracer.write(args.trace_out)
    raw = plain + traced
    passes = at_reference_speed(raw, probe)

    op_times = [t[1] for p in passes for t in p["op_times"]]
    failures = [f for p in passes for f in p["failures"]]
    print(summarize("pass wall time", [p["verdict_s"] for p in raw]))
    print("pass wall times:", " ".join(f"{p['verdict_s']:.4f}" for p in raw))
    print("pass times at reference speed:",
          " ".join(f"{sum(t[1] for t in p['op_times']):.4f}" for p in passes))
    print(f"reference samples: n={len(probe.samples)} median={statistics.median(probe.samples):.5f}s"
          f" ({kind} reference {probe.reference_s}s)")
    print(summarize("operation time at reference speed", op_times))
    for f in failures[:20]:
        print("FAILED", f)
    print("median-pass wall time: %.4f" % median_pass(raw)[0])
    verdict_s, slowest_instance_s = median_pass(passes)
    result.update(
        passes=len(passes),
        attempted=len(op_times),
        failed=len(failures),
        verdict_s=verdict_s,
        slowest_instance_s=slowest_instance_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=np.__version__,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
