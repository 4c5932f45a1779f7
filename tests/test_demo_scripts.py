"""Each example script under demos/ runs to completion.

05 is left out: it trains for a few seconds and its loop is covered by
the trainer tests.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ("01_graphs_and_environment.py", "02_trajectory_similarity.py",
           "03_policy_and_losses.py", "04_expert_demonstrations.py",
           "06_experiment_harness.py")


@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_script_runs(script, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert not list(tmp_path.glob("routecoach_demo_*"))  # temp dirs are cleaned up
