"""Smoke test: the quick demos run to completion.

Demo 06 (see-saw) is left out for its run time; test_optimize covers
what it runs.  Demo 05 runs the sampler on a 1.9e14-question compressed
game in a few seconds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = (
    "01_magic_square.py",
    "02_rigidity_perturbation.py",
    "03_question_sampling.py",
    "04_cook_levin.py",
    "05_compression_pipeline.py",
    "07_ncpo.py",
)


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
