"""Smoke test of the narrative demos, the README's library quick start and
python -m qcfield: each runs as a fresh Python process, in a scratch
directory, and exits 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from qcfield.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def _quick_start() -> str:
    """The python block of the README's "Library quick start" section."""
    section = (ROOT / "README.md").read_text().split(
        "## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = _run([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path):
    proc = _run(["-c", _quick_start()], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_module_entry_point_matches_cli_main(tmp_path):
    """python -m qcfield in a fresh process writes the results.json that
    qcfield.cli.main writes for the same arguments."""
    config = ROOT / "demos" / "configs" / "qc_min.cfg"
    proc = _run(["-m", "qcfield", "qc-min", "--config", str(config),
                 "--out", str(tmp_path / "module")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert main(["qc-min", "--config", str(config),
                 "--out", str(tmp_path / "main")]) == 0
    assert (tmp_path / "module" / "results.json").read_bytes() \
        == (tmp_path / "main" / "results.json").read_bytes()
