"""Smoke tests: the demos run to completion against the current package.

``leakage_comparison.py`` is left out because it trains for about a minute.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["store_tour.py", "pipeline_walkthrough.py"])
def test_demo_exits_zero(tmp_path, demo):
    # TMPDIR is pytest's directory, so a working directory left behind shows
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.glob("modalfuse-*")) == []
