"""Record reference outputs for every task into references.json.

Run from the repository root when the workloads change, never during a
benchmark run:

    python3 perfbench/record.py

The tasks run with seed 0; the seed only picks starting points, so the
references hold for every seed.  Energies are recorded with all their
digits; a run accepts a result within workloads.ENERGY_TOL of them.  A task
whose verdict is false, or that raises, is not recorded: the references
never bless a failure.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    references = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, setup in workloads.WORKLOADS.items():
            references[name] = {}
            for task, run in setup(0):
                workdir = Path(tmp) / name / task
                workdir.mkdir(parents=True)
                out = run(workdir)
                false = [k for k, v in out["flags"].items() if not v]
                if false:
                    print(f"{name}/{task}: verdicts false: {false}",
                          file=sys.stderr)
                    return 1
                references[name][task] = {k: out[k] for k in
                                          ("values", "exact", "flags")}
                print(f"{name}/{task}: {json.dumps(out['values'])}")
    (HERE / "references.json").write_text(
        json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
