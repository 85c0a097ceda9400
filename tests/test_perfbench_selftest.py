from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes_and_leaves_no_work_dir():
    work = ROOT / ".perfbench_work"
    existed = work.exists()  # a benchmark run in progress keeps it
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert existed or not work.exists()
