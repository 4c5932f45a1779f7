"""What a process holds.

Only the HTTP endpoint loads ``requests``: importing the package and training without it do not.  A finished
trainer keeps its networks and releases its Adam moments, so a caller that keeps it while it trains another
holds one trainer's moments, not two.
"""
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

TRAIN = """
import sys
import routecoach, routecoach.cli
from routecoach import AgentSpec, TrainConfig, Trainer, grid_graph

graph = grid_graph(3)
specs = (AgentSpec(0, 0, 8), AgentSpec(1, 2, 6))
small = dict(n_agents=2, epochs=1, steps_per_episode=20)
Trainer(TrainConfig(**small, expert_provider="oracle"), graph, specs).train()
llm = Trainer(TrainConfig(**small, expert_provider="llm", mock_dir=sys.argv[1]), graph, specs)
llm.train()
print(llm.metrics[-1].validity_rate, "requests" in sys.modules)
"""


def test_training_without_the_http_endpoint_never_imports_requests(tmp_path):
    (tmp_path / "000.txt").write_text('{"0": [0, 1, 2, 5, 8], "1": [2, 1, 0, 3, 6]}')
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", TRAIN, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True).stdout.split()
    assert out == ["100.0", "False"]  # the mock's routes were used, and requests never loaded


# 12 agents on grid 5: 15,337 KiB of networks and moments per trainer.  Prints the growth of the
# peak RSS while a second trainer trains beside the first, finished one, and the second's bytes.
KEEP_AND_TRAIN = """
import resource, sys
from routecoach import TrainConfig, Trainer, generate_agent_specs, grid_graph

def peak():  # ru_maxrss counts bytes on macOS and KiB elsewhere
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * (1 if sys.platform == "darwin" else 1024)

graph = grid_graph(5)
config = TrainConfig(n_agents=12, epochs=2, steps_per_episode=20)
specs = generate_agent_specs(graph, 12, 0)
kept = Trainer(config, graph, specs).train()
before = peak()
second = Trainer(config, graph, specs)
adams = [a for ln in second.learners for a in (ln.adam_policy, ln.adam_value_a, ln.adam_value_e)]
state = (sum(p.data.nbytes for ln in second.learners for p in (ln.policy, ln.value_a, ln.value_e))
         + sum(a.m.nbytes + a.v.nbytes for a in adams))
second.train()
print(peak() - before, state)
"""


def test_a_kept_finished_trainer_holds_no_moments_while_another_trains():
    """On Linux the peak grew 15,488 KiB while the kept trainer held its moments, and 5,248 KiB once it released them."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    growth, state = map(int, subprocess.run([sys.executable, "-c", KEEP_AND_TRAIN], env=env,
                                            capture_output=True, text=True, check=True).stdout.split())
    assert growth < state / 2, f"peak RSS grew {growth} bytes beside a trainer of {state}"
