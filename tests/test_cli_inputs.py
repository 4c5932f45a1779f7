"""Generative tests of the values the CLI reads.

``train --set key=value`` is called in-process with one or two assignments
drawn from near-valid grammars: integers at and next to each bound, floats
from subnormals to the largest double and past it, strings, booleans, null,
lists, and ``fixed-alpha:<float>`` modes.  The run must either exit 2 with an
``error:`` line and no run directory, or exit 0 with one finite
``metrics.csv`` row per configured epoch.
"""
import csv
import json
import math
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from routecoach import cli, grid_graph, write_graph
from routecoach.llm import ENV_BASE_URL
from routecoach.training import MAX_AGENTS, MAX_EVAL_EPISODES, TrainConfig

FIELDS = {f.name: f.type for f in fields(TrainConfig)}
# fields whose accepted large values make a long or large run, not a fault: only small or rejected ones are drawn
COUNTS = ("n_agents", "epochs", "update_epochs", "steps_per_episode", "demo_interval", "checkpoint_every")
# the expert side of a run without an expert, NaN by design
IPPO_NAN = {"mean_reward_e", "dtw_mean", "validity_rate", "loss_value_e"}

INTEGERS = st.sampled_from([0, 1, -1, 2, MAX_AGENTS, MAX_AGENTS + 1, MAX_EVAL_EPISODES, MAX_EVAL_EPISODES + 1,
                            2**63, -2**63]).map(str)
SMALL_COUNTS = st.sampled_from([-1, 0, 1, 2, 3]).map(str)
FLOATS = st.one_of(
    st.builds(lambda sign, exp: f"{sign}1e{exp}", st.sampled_from(["", "-"]), st.integers(-324, 308)),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["0.0", "-0.0", "5e-324", "2.2250738585072014e-308", "1.7976931348623157e308", "1e400",
                     "-1e400", "NaN", "Infinity", "-Infinity"]),
)
STRINGS = st.one_of(
    st.sampled_from(["", "x", "oracle", "logit", "llm", "none", "dynamic", "ippo", "logit-ppo", "fixed-alpha:"]),
    st.text(max_size=4),
)
OTHERS = st.sampled_from(["true", "false", "null", "[]", "[1, 2]", '["oracle"]', "{}"])
MODES = st.builds("fixed-alpha:{}".format, FLOATS)
ANY_VALUE = st.one_of(INTEGERS, FLOATS, STRINGS, OTHERS, MODES)
TYPED = {"int": INTEGERS, "float": FLOATS, "bool": OTHERS, "str": st.one_of(STRINGS, MODES),
         "str | None": st.one_of(STRINGS, OTHERS)}


@st.composite
def assignments(draw) -> str:
    """One ``key=value`` of ``--set``: a ``TrainConfig`` field or an unknown key, and a value for it."""
    key = draw(st.sampled_from([*FIELDS, "learning_rat", "foo"]))
    if key in COUNTS:
        large = st.sampled_from([str(MAX_AGENTS + 1), str(2**63)]) if key == "n_agents" else st.nothing()
        value = draw(st.one_of(SMALL_COUNTS, large, FLOATS, STRINGS, OTHERS))
    else:
        value = draw(st.one_of(TYPED.get(FIELDS.get(key), ANY_VALUE), ANY_VALUE))
    return f"{key}={value}"


@pytest.fixture(scope="module")
def grid3(tmp_path_factory):
    return str(write_graph(grid_graph(3), tmp_path_factory.mktemp("graph") / "grid3.json"))


def _finite_rows(out: Path) -> None:
    """``metrics.csv`` under the run ``out`` holds one finite row per configured epoch (see ``IPPO_NAN``)."""
    config = json.loads((out / "manifest.json").read_text())["config"]
    with open(out / "metrics.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert [row[0] for row in rows] == [str(k) for k in range(1, config["epochs"] + 1)]
    for row in rows:
        for column, value in zip(header, row):
            if not (config["mode"] == "ippo" and column in IPPO_NAN):
                assert math.isfinite(float(value)), (column, row)


@settings(derandomize=True, max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(drawn=st.lists(assignments(), min_size=1, max_size=2))
@example(drawn=["learning_rate=1e200"])
@example(drawn=["learning_rate=1e100"])
@example(drawn=["mode=logit-ppo", "logit_temperature=1e-320"])
def test_train_set_exits_0_with_finite_rows_or_2_without_run_dir(grid3, capsys, drawn):
    sets = [arg for item in ("n_agents=2", "epochs=2", "steps_per_episode=10", *drawn)
            for arg in ("--set", item)]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.delenv(ENV_BASE_URL, raising=False)
        mp.chdir(tmp)  # a relative mock_dir names nothing
        out = Path(tmp) / "run"
        code = cli.main(["train", "--graph", grid3, *sets, "--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 2)
        if code == 2:
            assert err.startswith("error: ")
            assert not out.exists()
        else:
            _finite_rows(out)
