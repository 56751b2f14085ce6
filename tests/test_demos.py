"""The demos print exactly their golden output in ``tests/golden``, with warnings as errors."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden_file():
    assert [demo.stem for demo in DEMOS] == sorted(golden.stem for golden in (ROOT / "tests" / "golden").glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_prints_its_golden_output(demo):
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (ROOT / "tests" / "golden" / f"{demo.stem}.txt").read_text()
