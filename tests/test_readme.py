"""README's Python quick-start runs as written, and the package exports resolve."""
from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import concert

ROOT = Path(__file__).resolve().parents[1]


def test_quick_start_runs_and_exports_resolve():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", blocks[0]], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    bound, ok = proc.stdout.split()
    assert float(bound) == pytest.approx(2.6667, abs=1e-4)
    assert ok == "True"
    # the names the quick-start and the library tour rely on exist, once each
    assert len(concert.__all__) == len(set(concert.__all__))
    missing = [name for name in concert.__all__ if not hasattr(concert, name)]
    assert missing == []
