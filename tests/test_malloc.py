"""On glibc, ``import routecoach`` fixes malloc's thresholds, so warm epochs fault in no memory."""
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_", "MALLOC_MMAP_MAX_",
              "GLIBC_TUNABLES")

pytestmark = pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the setting applies on glibc only")

# The A6 trainer: 10 warm-up epochs, then print the minor page faults of the next 20.
EPOCHS = """
import resource
from routecoach import AgentSpec, TrainConfig, Trainer, grid_graph

specs = (AgentSpec(0, 0, 24), AgentSpec(1, 4, 20), AgentSpec(2, 24, 0))
trainer = Trainer(TrainConfig(n_agents=3, epochs=100, steps_per_episode=100), grid_graph(5), specs)
for _ in range(10):
    trainer.run_epoch()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    trainer.run_epoch()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def warm_epoch_faults(**env_vars: str) -> int:
    env = {key: value for key, value in os.environ.items() if key not in MALLOC_ENV}
    env.update(env_vars, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    return int(subprocess.run([sys.executable, "-c", EPOCHS], env=env,
                              capture_output=True, text=True, check=True).stdout)


def test_warm_epochs_fault_in_no_memory():
    assert warm_epoch_faults() < 100  # thousands when glibc moves its thresholds


def test_a_malloc_setting_made_by_the_caller_is_kept():
    # at glibc's default trim threshold the epochs' temporaries go back to the OS again
    assert warm_epoch_faults(MALLOC_TRIM_THRESHOLD_="131072") > 1000
