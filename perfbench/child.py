"""One measured process of the benchmark; started by run.py, never directly.

run.py sets the BLAS/OpenMP thread pins, PYTHONPATH and PERFBENCH_T0 (the
monotonic clock just before the spawn) in this process's environment, so
numpy starts with one thread.  The child imports qcfield, warms up, builds
the workload's models and records how long that took (set-up).  Unless
--setup-only is given it then runs passes over the workload's tasks until
--seconds have elapsed, and writes everything it measured as JSON to
--result.  With --trace 1 the passes alternate between plain and traced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads  # imports qcfield, numpy and scipy: part of set-up


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS")},
    }
    try:  # Linux: how many OS threads the pins left this process with
        status = Path("/proc/self/status").read_text()
        env["os_threads"] = int(status.split("Threads:")[1].split()[0])
    except (OSError, IndexError, ValueError):
        env["os_threads"] = None
    return env


def run_pass(tasks, references, tracer, workroot: Path, index: int) -> dict:
    """Run every task once; time each, check it, keep its fingerprint."""
    if tracer is not None:
        tracer.install()
    records = []
    for name, run in tasks:
        workdir = workroot / f"p{index}_{name}"
        workdir.mkdir()
        span = None
        if tracer is not None:
            tracer.task = f"p{index}/{name}"
            span = tracer.open(tracing.TASK_SPAN)
        start = time.perf_counter()
        try:
            outputs, error = run(workdir), None
        except Exception:  # a failing task is counted, the run goes on
            outputs, error = None, traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
        if span is not None:
            tracer.close(span)
        if error is not None:
            problems = [error]
        elif name not in references:
            problems = [f"no reference recorded for task {name}"]
        else:
            problems = workloads.check(outputs, references[name])
        records.append({
            "task": name, "seconds": seconds, "problems": problems,
            "fingerprint": (workloads.fingerprint(outputs)
                            if outputs is not None else error)})
        shutil.rmtree(workdir)
    if tracer is not None:
        tracer.uninstall()
    return {"kind": "plain" if tracer is None else "traced",
            "tasks": records}


def main() -> int:
    t0 = float(os.environ["PERFBENCH_T0"])
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    # set-up, after the imports above: warm-up and the workload's models
    workloads.warm_up()
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    tasks = workloads.WORKLOADS[args.workload](args.seed)
    if tracer is not None:
        tracer.uninstall()
    setup_s = time.monotonic() - t0

    result = {"setup_s": setup_s, "env": _environment(), "passes": [],
              "spans": []}
    if not args.setup_only:
        references = workloads.load_references()[args.workload]
        workroot = args.tmp / "work"
        workroot.mkdir()
        kinds = (None, tracer) if tracer is not None else (None,)
        start = time.perf_counter()
        # one round at least; another only if it should end within --seconds
        while True:
            round_start = time.perf_counter()
            for pass_tracer in kinds:
                result["passes"].append(run_pass(
                    tasks, references, pass_tracer, workroot,
                    len(result["passes"])))
            now = time.perf_counter()
            if now - start + (now - round_start) > args.seconds:
                break
        if tracer is not None:
            result["spans"] = tracer.spans
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
