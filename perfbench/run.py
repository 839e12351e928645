"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/`` as it stands, nothing is installed. The workload runs in a single
child process (``worker.py``) with BLAS pinned to one thread, so its peak
memory is its own. Times are reported at a fixed reference machine speed
(``speed.py``). ``setup_s`` is the median time from process start to the
first timed call over several set-up-only processes and the measured one.
The last line of stdout is the result object; ``--trace 1`` reports the
per-layer metrics instead of the end-to-end ones and writes the spans to
``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 3  # set-up-only processes before and again after the measured one
DEADLINE_S = 170.0
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def start_worker(args, deadline: float, extra: list[str]):
    """Start the worker; return (process, set-up time at the reference speed).

    The set-up time is the wall time from process start to READY, scaled by
    the reference samples the worker takes right after set-up.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed)] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != "READY":
            raise BenchError(f"worker set-up failed: {line.strip()!r}")
        label, _, scale = proc.stdout.readline().partition(" ")
        if label != "SCALE":
            raise BenchError("worker sent no reference scale after set-up")
        setup *= float(scale)
        if time.perf_counter() > deadline:
            raise BenchError("worker set-up ran past the deadline")
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    return proc, setup


def finish(proc, deadline: float) -> list[str]:
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    return out.splitlines()


def machine(numpy_version: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": BLAS_THREADS,
        "processes": "one worker process per workload run",
    }


def probe_setups(args, deadline: float, count: int) -> list[float]:
    setups = []
    for _ in range(count):
        proc, setup = start_worker(args, deadline, ["--setup-only"])
        finish(proc, deadline)
        setups.append(setup)
    return setups


def measure(args) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    setups = []
    if not args.trace:
        # the uncounted first probe compiles bytecode and fills the file cache
        setups = probe_setups(args, deadline, SETUP_PROBES + 1)[1:]
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(ROOT, ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        extra += ["--trace-out", os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.tsv")]
    proc, setup = start_worker(args, deadline, extra)
    setups.append(setup)
    lines = finish(proc, deadline)
    if not args.trace:
        setups += probe_setups(args, deadline, SETUP_PROBES)
    if not lines:
        raise BenchError("worker printed no result")
    for line in lines[:-1]:
        print(line)
    res = json.loads(lines[-1])
    res["setup_s"] = statistics.median(setups)
    return res


def result_line(res: dict, trace: int) -> dict:
    attempted, failed = res["attempted"], res["failed"]
    if trace:
        units = {name: unit for name, unit, _ in METRICS}
        metrics = {name: {"value": res["layers"][name], "unit": units[name]} for name, _, _ in METRICS}
    else:
        metrics = {
            "verdict_s": {"value": res["verdict_s"], "unit": "s"},
            "slowest_instance_s": {"value": res["slowest_instance_s"], "unit": "s"},
            "setup_s": {"value": res["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "frac"},
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "momentangle", "__init__.py")):
        print(f"error: no momentangle sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        res = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"machine": machine(res["numpy"]), "workload": args.workload, "seed": args.seed,
                      "passes": res["passes"]}))
    print(json.dumps(result_line(res, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
