"""The quick demos run to completion against the source tree.

Together they exercise classify, strategic_set, matching_certificate and
path_cover_decomposition the way a reader of the README would.  The two game
demos take several seconds each and are left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ("worked_example", "tree_parameters", "exact_counts"))
def test_demo_exits_zero(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
