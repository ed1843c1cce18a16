"""Steadiness self-check: two independent sets of runs of every workload.

Usage (from the repository root):

    python3 perfbench/steady.py

It makes two sets of runs.  Each set runs every workload ten times
(untraced), each time with a new seed; the second set uses seeds the first
did not.  For every end-to-end metric on every workload it prints, per set, the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the sample count, then
checks them against BENCHMARK.json:

- spread: (q3 - q1) / median of each set stays within the metric's bound,
  and is flagged when above a third of it;
- agreement: the two sets' medians differ by no more than the bound, in
  either direction.

Exit code 0 when every check holds and every run was correct, 1 otherwise.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10  # per workload and set, as the benchmark's acceptance takes them


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    # values[set][workload][metric] -> list
    values = [{w: {m["name"]: [] for m in metrics} for w in workloads}
              for _ in range(SETS)]
    ok = True
    seed = 1
    for s in range(SETS):
        for _ in range(RUNS):
            for w in workloads:
                res = run_once(w, seed, spec["run_seconds"])
                if not res["correct"] or res["failed"]:
                    ok = False
                    print(f"set {s} {w} seed {seed}: NOT CORRECT "
                          f"({res['failed']}/{res['attempted']} failed)")
                for m in metrics:
                    values[s][w][m["name"]].append(
                        res["metrics"][m["name"]]["value"])
                print(f"set {s} {w} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.4f} {v['unit']}"
                    for k, v in res["metrics"].items())
                    + f" fail_frac={res['failed'] / res['attempted']:g} 1",
                    flush=True)
            seed += 1

    print(f"\n{'workload':<14}{'metric':<13}{'set':>4}{'median':>12}"
          f"{'q1':>12}{'q3':>12}{'n':>4}{'spread':>9}{'bound':>7}  verdict")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in range(SETS):
                med, q1, q3 = describe(values[s][w][name])
                medians.append(med)
                spread = (q3 - q1) / med
                verdict = "ok"
                if spread > bound:
                    verdict = "spread over bound"
                    ok = False
                elif spread > bound / 3:
                    verdict = "spread over bound/3"
                print(f"{w:<14}{name:<13}{s:>4}{med:>12.5g}{q1:>12.5g}"
                      f"{q3:>12.5g}{len(values[s][w][name]):>4}"
                      f"{spread:>9.2%}{bound:>7.2f}  {verdict}")
            drift = (medians[1] - medians[0]) / medians[0]
            agree = abs(drift) <= bound
            ok = ok and agree
            print(f"{w:<14}{name:<13}{'':>4}  second vs first median: "
                  f"{drift:+.2%} (bound {bound:.2f})  "
                  f"{'ok' if agree else 'medians disagree'}")
    print("\nsteady" if ok else "\nNOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
