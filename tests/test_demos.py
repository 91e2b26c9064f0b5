"""Every demo is deterministic: run as a script, its stdout must match its
transcript under ``demos/expected`` byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_matches_its_transcript(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, cwd=ROOT,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_bytes()
