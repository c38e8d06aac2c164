import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = Path(__file__).resolve().parent / "demo_outputs"


@pytest.mark.parametrize("demo", sorted(p.stem for p in (ROOT / "demos").glob("*.py")))
def test_demo_output_is_byte_identical(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / (demo + ".py"))],
        env=env, cwd=ROOT, capture_output=True, check=True,
    )
    assert proc.stdout == (EXPECTED / (demo + ".txt")).read_bytes()
