"""Only the HTTP endpoint loads ``requests``: importing the package and training without it do not."""
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
