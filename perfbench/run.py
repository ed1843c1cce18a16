"""qcfield benchmark: time to a verified ground state, end to end and per module.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: demo_configs, grid_large, fock_polaron, fock_modes (see README.md
beside this file).  Every measured process is a fresh child (child.py) with
OMP/OpenBLAS/MKL threads pinned to 1 in its environment before numpy is
imported.  With --trace 0 the result carries the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics.  A human-readable
summary goes first; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

Exit codes: 0 result printed, 2 bad arguments or no qcfield sources beside
the benchmark, 3 a child failed or ran out of time (no result printed).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
TMP_PARENT = ROOT / ".perfbench_tmp"

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 9   # set-up-only children + the measuring child; one set-up
                    # varies by up to a third, so the median needs several
DEADLINE_S = 170.0  # whole run, all children included


class BenchError(RuntimeError):
    pass


def _spawn(args: list[str], deadline: float) -> None:
    """Run one child with pinned threads; its output goes to our stderr."""
    env = dict(os.environ, **THREAD_PINS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env["PERFBENCH_T0"] = repr(time.monotonic())
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a child")
    try:
        proc = subprocess.run([sys.executable, str(CHILD), *args], env=env,
                              stdout=sys.stderr, timeout=remaining,
                              check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode}")


def _child(tmp: Path, label: str, common: list[str], deadline: float,
           *extra: str) -> dict:
    work = tmp / label
    work.mkdir()
    result = work / "result.json"
    _spawn([*common, "--tmp", str(work), "--result", str(result), *extra],
           deadline)
    return json.loads(result.read_text())


# ---------------------------------------------------------------------------
# metrics from what the children measured
# ---------------------------------------------------------------------------

def _pass_wall(p: dict) -> float:
    return sum(t["seconds"] for t in p["tasks"])


def _consistency_problems(passes: list[dict]) -> list[str]:
    """Every pass, plain or traced, must give bit-identical outputs."""
    first = [t["fingerprint"] for t in passes[0]["tasks"]]
    problems = []
    for i, p in enumerate(passes[1:], 1):
        for t, fp in zip(p["tasks"], first):
            if t["fingerprint"] != fp:
                problems.append(f"pass {i} ({p['kind']}): task {t['task']} "
                                f"differs from pass 0")
    return problems


def _task_medians(passes: list[dict]) -> list[float]:
    """Median time of each task over the given passes.

    Summing per-task medians keeps a slow spell of the machine that hits one
    task in one pass and another task in the next out of the figure, which a
    median of whole-pass times would not.
    """
    return [statistics.median(p["tasks"][i]["seconds"] for p in passes)
            for i in range(len(passes[0]["tasks"]))]


def end_to_end(main: dict, setup_samples: list[float]) -> dict:
    tasks = _task_medians([p for p in main["passes"] if p["kind"] == "plain"])
    return {
        "wall_s": sum(tasks),
        "setup_s": statistics.median(setup_samples),
        "max_task_s": max(tasks),
        "peak_rss_mb": main["peak_rss_kb"] / 1024.0,
    }


def per_layer(main: dict, names: list[str]) -> tuple[dict, float]:
    """Per-layer metrics and the traced wall_s.

    Each metric covers the set-up's spans plus one traced pass, median over
    traced passes; trace.overhead_s is traced minus plain wall_s.
    """
    spans, passes = main["spans"], main["passes"]
    stats = [tracing.layer_stats(
                 spans, lambda s, i=i: s[4] == "setup"
                 or s[4].startswith(f"p{i}/"))
             for i, p in enumerate(passes) if p["kind"] == "traced"]
    walls = {kind: sum(_task_medians([p for p in passes
                                      if p["kind"] == kind]))
             for kind in ("plain", "traced")}
    metrics = {}
    for name in names:
        if name == "trace.overhead_s":
            metrics[name] = walls["traced"] - walls["plain"]
            continue
        span_name, stat = name.rsplit(".", 1)
        metrics[name] = statistics.median(
            s.get(span_name, {}).get(stat, 0) for s in stats)
    return metrics, walls["traced"]


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _describe(main: dict, args) -> None:
    env = dict(main["env"], seed=args.seed, workload=args.workload,
               seconds=args.seconds, trace=args.trace)
    print("env " + json.dumps(env, sort_keys=True))
    passes = main["passes"]
    print(f"passes: {len(passes)}; pass walls: " + ", ".join(
        f"{_pass_wall(p):.3f} s {p['kind']}" for p in passes))
    plain = [p for p in passes if p["kind"] == "plain"]
    for t, median in zip(plain[0]["tasks"], _task_medians(plain)):
        print(f"  task {t['task']:<20} median {median:9.4f} s "
              f"over {len(plain)} plain passes")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "qcfield" / "__init__.py").is_file():
        print(f"no qcfield sources under {ROOT / 'src'}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_PARENT))
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                setups.append(_child(tmp, f"setup{i}", common, deadline,
                                     "--setup-only")["setup_s"])
        main_run = _child(tmp, "main", common, deadline)
        setups.append(main_run["setup_s"])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:  # another run still uses it
            pass

    passes = main_run["passes"]
    records = [t for p in passes for t in p["tasks"]]
    failed = [t for t in records if t["problems"]]
    inconsistent = _consistency_problems(passes)

    _describe(main_run, args)
    for t in failed:
        print(f"FAILED task {t['task']}: " + "; ".join(t["problems"]))
    for line in inconsistent:
        print(f"NOT REPRODUCED {line}")

    if args.trace:
        metrics, traced_wall = per_layer(main_run, list(units))
        print(f"per layer (set-up spans + one traced pass; traced wall_s "
              f"{traced_wall:.4f} s):")
        for name, value in metrics.items():
            share = (f"{value / traced_wall:7.1%} of wall"
                     if name.endswith(".self_s") else "")
            print(f"  {name:<40} {value:>14.6g} {units[name]:<8} {share}")
    else:
        metrics = end_to_end(main_run, setups)
        for name, value in metrics.items():
            print(f"  {name:<12} {value:12.6f} {units[name]}")
        print(f"  {'fail_frac':<12} {len(failed) / len(records):12.6f} 1")

    print(json.dumps({
        "correct": not failed and not inconsistent,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
