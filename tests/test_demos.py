"""Smoke test: the quick demos run to completion.

Demo 06 (see-saw) is left out for its run time; test_optimize covers
what it runs.  Demo 05 runs the sampler on a 1.9e14-question compressed
game in a few seconds.  The deterministic stdout of demos 04 and 05 is
pinned; demo 04 prints its wall-clock timings to stderr.
"""

import hashlib
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

# sha256 of the demo's stdout
STDOUT_SHA256 = {
    "04_cook_levin.py": "2912e8c2515e0304bcf902060bf1d1c8bbf181257de3b5210d8838a26cc5b94e",
    "05_compression_pipeline.py": "6fe9a79ff166a3c0c6a6e8c191b76ce61ad6d3b1373eb92ca9101a8b9ac13abb",
}


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
    if demo in STDOUT_SHA256:
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        assert digest == STDOUT_SHA256[demo], proc.stdout
