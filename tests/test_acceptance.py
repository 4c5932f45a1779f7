"""Acceptance criteria, one test per criterion, with pass/fail lines.

Run as ``pytest tests/test_acceptance.py -v -s``.  The learning-efficacy
criteria (A6/A7) and the collapse check share one batch of 20 small
training runs built in a module fixture, which takes about 70-95 s on a
2-vCPU Linux host with one BLAS thread, most of the module's time.  A7 and
the collapse check are expected to fail: every guided mode reaches the
oracle's reward by about epoch 100 and collapses after about epoch 140.
ROADMAP item 7 holds the measurements.  Both carry xfail markers, so the
failure stays visible without masking the rest of the suite.
"""
import time
from pathlib import Path

import numpy as np
import pytest

import routecoach as rc
from routecoach import demos as dg
from routecoach import losses as L
from routecoach import nets
from routecoach.cli import demo_quality_report, main
from routecoach.llm import MockChatCompleter
from routecoach.training import TrainConfig, Trainer
from reference import dtw_bruteforce, learner_bytes, max_gradient_error, primitive_build, returns_direct_sum

pytestmark = pytest.mark.acceptance


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{criterion} {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# A1: DTW equals exhaustive warping-path enumeration
# ---------------------------------------------------------------------------

def test_a1_dtw_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        a = rng.integers(0, 9, size=(rng.integers(1, 9), 2)).astype(float)
        b = rng.integers(0, 9, size=(rng.integers(1, 9), 2)).astype(float)
        got = rc.dtw_distance(a, b)
        expect = dtw_bruteforce(a.tolist(), b.tolist())
        worst = max(worst, abs(got - expect))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 10.0
    report("A1", ok, f"200 pairs, max abs error {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-9
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# A2: analytic gradients vs central finite differences
# ---------------------------------------------------------------------------

def test_a2_gradient_exactness():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        # policy net case: loss = sum(direction * log pi) + sum(dir_H * H)
        params = nets.init_mlp(rng, 10, 4)
        params.weights[-1][...] = rng.normal(scale=0.3, size=params.weights[-1].shape)
        x = rng.normal(size=(3, 10))
        masks = rng.random((3, 4)) < 0.8
        masks[np.arange(3), rng.integers(4, size=3)] = True  # at least one valid
        dlogp = rng.normal(size=(3, 4)) * masks
        dent = rng.normal(size=3)

        def policy_loss(p):
            logp, _, ent = nets.policy_forward_batch(p, x, masks)
            return float((np.where(masks, logp, 0.0) * dlogp).sum() + (dent * ent).sum())

        analytic = nets.policy_backward(params, x, masks, dlogp, dent)
        worst = max(worst, max_gradient_error(rng, params, policy_loss, analytic, per_layer=3))

        # value net case: loss = sum(direction * V)
        vparams = nets.init_mlp(rng, 10, 1)
        vparams.weights[-1][...] = rng.normal(scale=0.3, size=vparams.weights[-1].shape)
        dvals = rng.normal(size=3)

        def value_loss_fn(p):
            return float((nets.value_forward(p, x) * dvals).sum())

        vanalytic = nets.value_backward(vparams, x, dvals)
        worst = max(worst, max_gradient_error(rng, vparams, value_loss_fn, vanalytic, per_layer=3))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 30.0
    report("A2", ok, f"20 policy + 20 value cases, max rel error {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# A3: returns and advantages vs direct-summation oracles
# ---------------------------------------------------------------------------

def test_a3_return_advantage_oracle():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        T = int(rng.integers(1, 21))
        rewards = rng.normal(size=T) * 5
        gamma = float(rng.choice([0.0, 0.5, 0.9, 0.99]))
        tail = float(rng.normal() * 5)
        values = rng.normal(size=T) * 5

        got_r = L.bootstrapped_returns(rewards, gamma, tail)
        oracle_r = returns_direct_sum(rewards, gamma, tail)
        got_a = L.advantages(got_r, values)
        oracle_a = oracle_r - values
        worst = max(worst, float(np.max(np.abs(got_r - oracle_r))),
                    float(np.max(np.abs(got_a - oracle_a))))
    ok = worst < 1e-9
    report("A3", ok, f"100 random trajectories, max abs error {worst:.2e}")
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# A4: the mixing-weight schedule obeys its laws
# ---------------------------------------------------------------------------

def test_a4_alpha_schedule_laws():
    for k, K in ((1, 10), (7, 10), (500, 500)):
        assert L.alpha_weight(k, K, 0.0) == 1.0

    ks = np.arange(1, 41)           # 40 epochs
    ds = np.linspace(0.0, 600.0, 25)  # 25 distances -> 1000 grid points
    grid = np.array([[L.alpha_weight(int(k), 40, float(d)) for d in ds] for k in ks])
    assert grid.shape == (40, 25)
    in_unit = bool(np.all((grid > 0.0) & (grid <= 1.0)))

    decreasing_d = all(
        grid[k_i, j + 1] < grid[k_i, j]
        for k_i in range(40) for j in range(24)
    )
    decreasing_k = all(
        grid[k_i + 1, j] < grid[k_i, j]
        for k_i in range(39) for j in range(1, 25)  # d > 0
    )
    spot = L.alpha_weight(1, 100, 189.91)
    spot_ok = abs(spot - 0.1497) < 1e-4
    ok = in_unit and decreasing_d and decreasing_k and spot_ok
    report("A4", ok, f"1000-point grid in (0,1]={in_unit}, monotone(D)={decreasing_d}, "
                     f"monotone(k)={decreasing_k}, spot alpha={spot:.6f}")
    assert in_unit and decreasing_d and decreasing_k and spot_ok


# ---------------------------------------------------------------------------
# A5: clipped-surrogate identities
# ---------------------------------------------------------------------------

def test_a5_surrogate_identities():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 40))
        logp = rng.normal(size=n)
        adv = rng.normal(size=n) * 3
        eps = float(rng.uniform(0.05, 0.5))
        got = L.clipped_surrogate(logp, logp.copy(), adv, eps)
        worst = max(worst, abs(got - adv.mean()))
    up = L.clipped_surrogate(np.array([np.log(1.5)]), np.array([0.0]), np.array([1.0]), 0.2)
    down = L.clipped_surrogate(np.array([np.log(0.5)]), np.array([0.0]), np.array([-1.0]), 0.2)
    hand_ok = abs(up - 1.2) < 1e-12 and abs(down - (-0.8)) < 1e-12
    ok = worst < 1e-12 and hand_ok
    report("A5", ok, f"identity max error {worst:.2e}; hand cases {up:.12f}, {down:.12f}")
    assert worst < 1e-12
    assert hand_ok


# ---------------------------------------------------------------------------
# A6/A7: learning efficacy on the 5x5 grid (shared training runs)
# ---------------------------------------------------------------------------

GRID = rc.grid_graph(5)
SPECS = (rc.AgentSpec(0, 0, 24), rc.AgentSpec(1, 4, 20), rc.AgentSpec(2, 24, 0))
SEEDS = (0, 1, 2, 3, 4)
EPOCHS = 300
STEPS = 100
SUSTAIN = 4  # epochs the evaluation must hold the target to count as reached
GUIDED = ("dynamic", "fixed-alpha:0.2", "fixed-alpha:0.5")


def oracle_return() -> float:
    demos_by_agent = dg.execute_demos(GRID, SPECS, dg.oracle_expert(GRID, SPECS),
                                      step_limit=STEPS)
    return float(np.mean([t.episode_reward for t in demos_by_agent.values()]))


def run_mode(mode: str, seed: int) -> dict:
    provider = "none" if mode == "ippo" else "oracle"
    cfg = TrainConfig(n_agents=3, epochs=EPOCHS, steps_per_episode=STEPS,
                      mode=mode, expert_provider=provider, seed=seed)
    trainer = Trainer(cfg, GRID, SPECS)
    train_curve, eval_curve = [], []
    for _ in range(EPOCHS):
        metrics = trainer.run_epoch()
        train_curve.append(metrics.mean_reward_a)
        eval_curve.append(trainer.evaluate(1).mean)
    return {"train": np.array(train_curve), "eval": np.array(eval_curve)}


@pytest.fixture(scope="module")
def efficacy_runs():
    start = time.perf_counter()
    runs = {}
    for mode in ("ippo", *GUIDED):
        for seed in SEEDS:
            runs[(mode, seed)] = run_mode(mode, seed)
            print(f"  [efficacy fixture] {mode} seed {seed} done "
                  f"({time.perf_counter() - start:.0f}s)", flush=True)
    runs["seconds"] = time.perf_counter() - start
    return runs


def reach_epoch(curve: np.ndarray, target: float, sustain: int = SUSTAIN):
    """First epoch from which the curve (evaluation or sampled reward) holds >= target for `sustain` epochs."""
    run = 0
    for i, value in enumerate(curve):
        run = run + 1 if value >= target else 0
        if run >= sustain:
            return i + 2 - sustain
    return None


def test_a6_learning_efficacy(efficacy_runs):
    target = 0.8 * oracle_return()
    ippo = [reach_epoch(efficacy_runs[("ippo", s)]["eval"], target) for s in SEEDS]
    dyn = [reach_epoch(efficacy_runs[("dynamic", s)]["eval"], target) for s in SEEDS]
    ippo_filled = [h if h is not None else EPOCHS + 1 for h in ippo]
    dyn_filled = [h if h is not None else EPOCHS + 1 for h in dyn]
    reached = sum(h <= EPOCHS for h in ippo_filled)
    part_i = reached >= 3
    part_ii = np.median(dyn_filled) <= 0.7 * np.median(ippo_filled)
    runtime_ok = efficacy_runs["seconds"] < 15 * 60
    ok = part_i and part_ii and runtime_ok
    # reported, not asserted: the same rule on the sampled training reward (ROADMAP item 11)
    sampled = {mode: [reach_epoch(efficacy_runs[(mode, s)]["train"], target) for s in SEEDS]
               for mode in ("ippo", "dynamic")}
    report("A6", ok,
           f"target {target:.2f}; epochs-to-reach ippo {ippo} (median {np.median(ippo_filled)}), "
           f"guided {dyn} (median {np.median(dyn_filled)}); "
           f"(i) {reached}/5 seeds, (ii) ratio {np.median(dyn_filled) / np.median(ippo_filled):.2f} "
           f"<= 0.7; sampled-reward epochs-to-reach ippo {sampled['ippo']}, guided {sampled['dynamic']}; "
           f"runs took {efficacy_runs['seconds']:.0f}s")
    assert part_i, f"plain PPO reached the target in only {reached}/5 seeds"
    assert part_ii, "dynamic mixing was not 0.7x faster in the median"
    assert runtime_ok


def final100(curve) -> float:
    return float(np.mean(curve[-100:]))


def final100_median(efficacy_runs, mode: str) -> float:
    """The median over the seeds of the mean sampled training reward of the last 100 epochs."""
    return float(np.median([final100(efficacy_runs[(mode, s)]["train"]) for s in SEEDS]))


@pytest.mark.xfail(
    reason="every guided mode collapses after about epoch 140 (ROADMAP item 7), so A7 "
           "compares three collapsed plateaus",
    strict=False,
)
def test_a7_ablation_direction(efficacy_runs):
    dyn, f02, f05 = (final100_median(efficacy_runs, mode) for mode in GUIDED)
    ok = dyn >= f02 and dyn >= f05
    report("A7", ok, f"final-100-epoch medians: dynamic {dyn:.3f}, "
                     f"fixed-0.2 {f02:.3f}, fixed-0.5 {f05:.3f}"
                     + ("" if ok else " (three collapsed plateaus; see ROADMAP item 7)"))
    assert dyn >= f02, "dynamic weighting below fixed alpha 0.2"
    assert dyn >= f05, "dynamic weighting below fixed alpha 0.5"


@pytest.mark.xfail(
    reason="ROADMAP item 7: every guided mode collapses after about epoch 140, to a "
           "final-100-epoch median of 1.1-1.7 against IPPO's 15.5",
    strict=True,
)
def test_guided_modes_hold_the_target(efficacy_runs):
    """Each guided mode's sampled training reward holds A6's target over the last 100 epochs.

    Sampled, not greedy: IPPO's greedy evaluation is low over those epochs
    too (median 2.4), so a greedy check would not single out the guided modes.
    """
    target = 0.8 * oracle_return()
    medians = {mode: final100_median(efficacy_runs, mode) for mode in GUIDED}
    ok = all(m >= target for m in medians.values())
    report("collapse", ok, f"target {target:.2f}; final-100-epoch medians "
                           + ", ".join(f"{mode} {m:.3f}" for mode, m in medians.items()))
    assert ok, f"a guided mode fell below the target {target:.2f}: {medians}"


# ---------------------------------------------------------------------------
# A8: validity accounting and demonstration-quality trends
# ---------------------------------------------------------------------------

def test_a8_validity_accounting(tmp_path):
    three_of_four = dg.validity_rate([True, True, True, False])
    exact = three_of_four == 75.0

    specs2 = (rc.AgentSpec(0, 0, 24), rc.AgentSpec(1, 4, 20))
    oracle_routes = dg.oracle_expert(GRID, specs2)
    oracle_valid = dg.validity_rate(
        [dg.validate_route(GRID, s, oracle_routes.routes[s.agent_id]) for s in specs2])
    oracle_ok = oracle_valid == 100.0

    # scripted mock: phase 1 all invalid, phase 2 one valid detour, phase 3 optimal
    mock_dir = tmp_path / "mock"
    mock_dir.mkdir()
    phase1 = '{"0": [0, 1, 99], "1": [4, 20]}'
    phase2 = '{"0": [0, 5, 10, 15, 20, 21, 22, 23, 24], "1": [4, 9, 99]}'
    phase3 = '{"0": [0, 1, 2, 3, 4, 9, 14, 19, 24], "1": [4, 3, 2, 1, 0, 5, 10, 15, 20]}'
    for i, text in enumerate([phase1, phase1, phase2, phase2, phase3, phase3]):
        (mock_dir / f"{i:03d}.txt").write_text(text)
    cfg = TrainConfig(n_agents=2, epochs=1, steps_per_episode=STEPS, seed=0,
                      expert_provider="llm", mock_dir=str(mock_dir),
                      invalid_route_fallback="skip")
    records = demo_quality_report(GRID, specs2, cfg, MockChatCompleter(mock_dir),
                                  phases=3, prompts_per_phase=2)
    validity = [r.validity_rate for r in records]
    dtw = [r.mean_dtw for r in records]
    trend_ok = (all(a <= b for a, b in zip(validity, validity[1:]))
                and all(a >= b for a, b in zip(dtw, dtw[1:])))
    ok = exact and oracle_ok and trend_ok
    report("A8", ok, f"3/4 -> {three_of_four}; oracle -> {oracle_valid}; "
                     f"mock phases validity {validity}, dtw {[round(d, 1) for d in dtw]}")
    assert exact and oracle_ok and trend_ok


# ---------------------------------------------------------------------------
# A9: scalability smoke via the sweep command
# ---------------------------------------------------------------------------

def test_a9_scalability_smoke(tmp_path):
    import csv

    graph_path = tmp_path / "grid5.json"
    rc.write_graph(GRID, graph_path)
    out = tmp_path / "sweep"
    code = main(["sweep-agents", "--graph", str(graph_path), "--out", str(out),
                 "--counts", "5,10,15,20", "--seeds", "0",
                 "--set", "epochs=10", "--set", "steps_per_episode=50"])
    assert code == 0
    seconds = {}
    for n in (5, 10, 15, 20):
        with open(out / f"n{n}" / "seed0" / "timing.csv", newline="") as fh:
            seconds[n] = float(np.mean([float(r["seconds"]) for r in csv.DictReader(fh)]))
    base_per_agent = seconds[5] / 5
    ratios = {n: seconds[n] / (base_per_agent * n) for n in (10, 15, 20)}
    ok = all(r <= 3.0 for r in ratios.values())
    report("A9", ok, f"per-epoch seconds {seconds}; over-linear ratios "
                     f"{ {n: round(r, 2) for n, r in ratios.items()} } (limit 3.0)")
    assert ok


# ---------------------------------------------------------------------------
# A10: determinism
# ---------------------------------------------------------------------------

def test_a10_determinism(tmp_path):
    import json

    graph_path = tmp_path / "grid3.json"
    rc.write_graph(rc.grid_graph(3), graph_path)
    mock_dir = tmp_path / "mock"
    mock_dir.mkdir()
    (mock_dir / "000.txt").write_text('{"0": [0, 1, 2, 5, 8], "1": [2, 1, 0, 3, 6]}')
    (mock_dir / "001.txt").write_text('{"0": [0, 3, 6, 7, 8], "1": [2, 5, 8, 7, 6]}')
    config = {
        "graph": str(graph_path), "n_agents": 2, "agents": [[0, 8, 0], [2, 6, 0]],
        "epochs": 4, "steps_per_episode": 30, "demo_interval": 2,
        "expert_provider": "llm", "mock_dir": str(mock_dir), "seed": 11,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    blobs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        blobs.append((out / "metrics.csv").read_bytes())
    csv_identical = blobs[0] == blobs[1]

    graph, specs = rc.grid_graph(3), (rc.AgentSpec(0, 0, 8), rc.AgentSpec(1, 2, 6))
    cfg = TrainConfig(n_agents=2, epochs=5, steps_per_episode=30, mode="ippo", seed=3)
    golden_identical = ([learner_bytes(ln) for ln in Trainer(cfg, graph, specs).train().learners]
                        == [learner_bytes(ln) for ln in primitive_build(cfg, graph, specs)])
    ok = csv_identical and golden_identical
    report("A10", ok, f"metrics.csv byte-identical: {csv_identical}; "
                      f"ippo golden run bit-identical: {golden_identical}")
    assert csv_identical
    assert golden_identical
