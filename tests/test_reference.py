"""The test-side reference (``tests/reference.py``) names none of the library code it checks.

If the reference called the library's episode walk, move scoring, rollout,
replay or fused update, or their parts, a fault there would be in both sides
of a comparison and could not show.
"""
import ast
from pathlib import Path

import pytest

SHARED = {
    "step", "move_rewards", "run_episode", "rollout", "policy_table", "policy_table_forward", "stack_params",
    "choice_cdf", "draw", "replay", "execute_demos", "update_agent", "mlp_grads",
    "policy_forward_tape", "policy_upstream", "surrogate_terms", "squared_errors",
}


def _names(source: str) -> set[str]:
    """Every identifier, attribute, imported name, keyword and string constant in ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            names.add(node.asname)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.arg, ast.keyword)):
            names.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_reference_independence():
    source = (Path(__file__).parent / "reference.py").read_text()
    assert sorted(SHARED & _names(source)) == []


@pytest.mark.parametrize("source", [
    "env.step(state, joint)", "from routecoach.training import rollout as walk",
    "import routecoach.trajectory.run_episode", "draw = None", "def replay(): pass", "f(update_agent=1)",
    "getattr(nets, 'mlp_grads')",
])
def test_every_way_of_naming_is_caught(source):
    assert SHARED & _names(source)
