import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    # each demo's standard output, byte for byte, as recorded in tests/data
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (DATA / f"demo_{script.stem}.txt").read_text(encoding="utf-8")
