"""Controller: routing, acceptance, budgets, bank-policy composition, oracle."""

import itertools

import numpy as np
import pytest

from gatedmem.controller import (
    BudgetState,
    OracleStep,
    PolicyConfig,
    accept_decision,
    compose_bank_policy,
    oracle_policy,
    route_decision,
    run_episode,
    select_threshold_percentile,
)
from gatedmem.protocol import evaluate_policy
from gatedmem.worldsim import WorldSpec, generate_world


# ---------------------------------------------------------------------------
# route_decision / select_threshold_percentile
# ---------------------------------------------------------------------------

def test_route_decision_basic():
    assert route_decision(0.4, 0.5) is True
    assert route_decision(0.9, 0.5) is False


def test_route_decision_strict_boundary():
    assert route_decision(0.5, 0.5) is False  # strict inequality


def test_percentile_p0_routes_nothing():
    confs = [0.3, 0.5, 0.7, 0.9]
    tau = select_threshold_percentile(confs, 0)
    assert tau <= min(confs)
    assert sum(route_decision(c, tau) for c in confs) == 0


def test_percentile_p100_routes_almost_all():
    rng = np.random.default_rng(0)
    confs = rng.random(500).tolist()
    tau = select_threshold_percentile(confs, 100)
    frac = np.mean([route_decision(c, tau) for c in confs])
    assert frac >= 0.99  # everything but the exact maximum


def test_percentile_p35_band():
    rng = np.random.default_rng(1)
    confs = rng.random(600).tolist()
    tau = select_threshold_percentile(confs, 35)
    frac = np.mean([route_decision(c, tau) for c in confs])
    assert 0.30 <= frac <= 0.40


def test_percentile_validation():
    with pytest.raises(ValueError):
        select_threshold_percentile([], 50)
    with pytest.raises(ValueError):
        select_threshold_percentile([0.5], 101)


# ---------------------------------------------------------------------------
# accept_decision
# ---------------------------------------------------------------------------

def test_accept_margin_and_guards():
    guards = frozenset({"format", "valid"})
    ok = {"format": True, "valid": True}
    assert accept_decision(0.4, 0.6, 0.1, ok, guards) is True
    assert accept_decision(0.4, 0.45, 0.1, ok, guards) is False  # margin fails
    assert accept_decision(0.4, 0.9, 0.1, {"format": False, "valid": True}, guards) is False


def test_accept_boundary_inclusive():
    assert accept_decision(0.4, 0.5, 0.1, {}, frozenset()) is True  # c' == c + m accepts


def test_accept_disabled_guards_ignored():
    # failing guard that is not enabled must not block acceptance
    assert accept_decision(0.4, 0.6, 0.0, {"progress": False}, frozenset({"format"})) is True
    # enabled guard missing from results counts as pass (inactive term)
    assert accept_decision(0.4, 0.6, 0.0, {}, frozenset({"contract"})) is True


# ---------------------------------------------------------------------------
# budget / cooldown
# ---------------------------------------------------------------------------

def test_budget_cap():
    state = BudgetState(budget_B=1, cooldown=0)
    assert state.can_route()
    state.step_end(routed=True)
    assert not state.can_route()


def test_budget_zero_never_routes():
    state = BudgetState(budget_B=0, cooldown=0)
    assert not state.can_route()


def test_cooldown_blocks_then_releases():
    state = BudgetState(budget_B=None, cooldown=2)
    state.step_end(routed=True)
    assert not state.can_route()
    state.step_end(routed=False)
    assert not state.can_route()
    state.step_end(routed=False)
    assert state.can_route()


# ---------------------------------------------------------------------------
# compose_bank_policy
# ---------------------------------------------------------------------------

def test_compose_shapes():
    assert compose_bank_policy(PolicyConfig(bank_policy="gate_only", primary_bank="rule")) == [
        (("rule",), True)
    ]
    assert compose_bank_policy(PolicyConfig(bank_policy="choose", primary_bank="exemplar")) == [
        (("exemplar",), False)
    ]
    assert compose_bank_policy(PolicyConfig(bank_policy="cascade_rule_then_exemplar")) == [
        (("rule",), False),
        (("exemplar",), False),
    ]
    assert compose_bank_policy(PolicyConfig(bank_policy="dual")) == [(("rule", "exemplar"), False)]


def test_multibank_requires_resolution():
    policy = PolicyConfig(bank_policy="multibank_best")
    with pytest.raises(ValueError):
        compose_bank_policy(policy)
    resolved = PolicyConfig(bank_policy="multibank_best", multibank_member="dual")
    assert compose_bank_policy(resolved) == [(("rule", "exemplar"), False)]


def test_gate_only_acceptance_superset_of_choose():
    # differential: on any trace set, gate_only accepts at least as often
    world = generate_world(WorldSpec(n_examples=150, seed=3))
    snaps = world.snapshots()
    ids = list(range(150))
    gate = evaluate_policy(
        world, PolicyConfig(tau=0.6, margin_m=0.2, bank_policy="gate_only"), snaps, ids
    )
    choose = evaluate_policy(
        world, PolicyConfig(tau=0.6, margin_m=0.2, bank_policy="choose"), snaps, ids
    )
    assert gate.accepted_frac >= choose.accepted_frac
    # and with a margin that often fails, gate accepts rows choose rejected
    assert gate.accepted_frac > 0


def test_cascade_short_circuits():
    world = generate_world(WorldSpec(n_examples=120, seed=4))
    snaps = world.snapshots()
    run = evaluate_policy(
        world,
        PolicyConfig(tau=0.9, margin_m=-1.0, bank_policy="cascade_rule_then_exemplar"),
        snaps,
        list(range(120)),
    )
    for trace in run.traces:
        for step in trace.steps:
            if step.accepted and step.attempts[0].accepted:
                assert len(step.attempts) == 1  # second bank never queried


def test_dual_single_second_pass():
    world = generate_world(WorldSpec(n_examples=100, seed=5))
    run = evaluate_policy(
        world, PolicyConfig(tau=0.9, bank_policy="dual"), world.snapshots(), list(range(100))
    )
    for trace in run.traces:
        for step in trace.steps:
            if step.routed:
                assert step.calls_used == 2  # one joint second pass
                assert len(step.attempts) == 1


# ---------------------------------------------------------------------------
# run_step / run_episode contracts
# ---------------------------------------------------------------------------

def test_high_confidence_step_not_routed():
    world = generate_world(WorldSpec(n_examples=50, seed=6))
    run = evaluate_policy(
        world, PolicyConfig(tau=0.0), world.snapshots(), list(range(50))
    )
    for trace in run.traces:
        for step in trace.steps:
            assert not step.routed
            assert step.calls_used == 1
            assert step.final_action == step.baseline_action


def test_budget_one_blocks_second_route():
    world = generate_world(WorldSpec(n_examples=60, seed=7, steps_per_episode=6))
    run = evaluate_policy(
        world, PolicyConfig(tau=1.0, budget_B=1), world.snapshots(), list(range(60))
    )
    for trace in run.traces:
        assert trace.routed_count <= 1


def test_budget_zero_bitwise_baseline():
    world = generate_world(WorldSpec(n_examples=80, seed=8))
    ids = list(range(80))
    zero = evaluate_policy(world, PolicyConfig(tau=1.0, budget_B=0), world.snapshots(), ids)
    base = evaluate_policy(
        world, PolicyConfig(tau=1.0), world.snapshots(), ids, comparator="baseline"
    )
    assert np.array_equal(zero.outcomes, base.outcomes)
    for t1, t2 in zip(zero.traces, base.traces):
        for s1, s2 in zip(t1.steps, t2.steps):
            assert s1.final_action == s2.final_action
            assert s1.calls_used == s2.calls_used == 1


def test_empty_retrieval_rolls_back():
    # world with retrieval threshold above any similarity: nothing to inject
    world = generate_world(WorldSpec(n_examples=40, seed=9, retrieval_threshold=0.999999))
    run = evaluate_policy(world, PolicyConfig(tau=1.0), world.snapshots(), list(range(40)))
    for trace in run.traces:
        for step in trace.steps:
            assert step.routed
            assert not step.accepted
            assert step.final_action == step.baseline_action


def test_trace_counters_match_recomputation():
    world = generate_world(WorldSpec(n_examples=90, seed=10, steps_per_episode=3))
    run = evaluate_policy(
        world, PolicyConfig(tau=0.7, budget_B=2), world.snapshots(), list(range(90))
    )
    for trace in run.traces:
        assert trace.routed_count == sum(1 for s in trace.steps if s.routed)
        assert trace.accepted_count == sum(1 for s in trace.steps if s.accepted)
        assert trace.total_calls == sum(s.calls_used for s in trace.steps)
        assert trace.total_calls == len(trace.steps) + trace.routed_count


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_keeps_baseline_on_tie_or_worse():
    steps = [
        OracleStep(0, "right", 1.0, 0.9, (("wrong", 0.0),)),  # second worse
        OracleStep(1, "right", 1.0, 0.9, (("also-right", 1.0),)),  # tie
    ]
    trace = oracle_policy(0, steps)
    assert [s.final_action for s in trace.steps] == ["right", "right"]
    assert all(not s.accepted for s in trace.steps)


def test_oracle_commits_strict_improvements():
    steps = [OracleStep(0, "wrong", 0.0, 0.2, (("right", 1.0),))]
    trace = oracle_policy(0, steps)
    assert trace.steps[0].final_action == "right"
    assert trace.steps[0].accepted


def test_oracle_equals_bruteforce_enumeration():
    # on <=10 routed rows, the oracle equals the best of all 2^k accept vectors
    for seed in range(6):
        world = generate_world(WorldSpec(n_examples=10, seed=100 + seed))
        snaps = world.snapshots()
        ids = list(range(10))
        osteps = world.oracle_steps(ids, snaps, contexts=("exemplar",))
        trace = oracle_policy(0, osteps)
        oracle_acc = np.mean([world.action_utility(s.example_id, s.final_action) for s in trace.steps])

        candidates = []
        for ostep in osteps:
            base_u = ostep.baseline_utility
            cand_u = ostep.candidates[0][1] if ostep.candidates else base_u
            candidates.append((base_u, cand_u))
        best = -1.0
        for bits in itertools.product((0, 1), repeat=len(candidates)):
            acc = np.mean([c if b else bu for b, (bu, c) in zip(bits, candidates)])
            best = max(best, acc)
        assert oracle_acc == pytest.approx(best, abs=1e-12)


# ---------------------------------------------------------------------------
# PolicyConfig plumbing
# ---------------------------------------------------------------------------

def test_policy_flat_roundtrip():
    policy = PolicyConfig(
        tau=0.37,
        margin_m=0.05,
        guards_enabled=frozenset({"format", "progress"}),
        bank_policy="cascade_exemplar_then_rule",
        primary_bank="exemplar",
        budget_B=3,
        cooldown=2,
        lambda_cost=0.01,
        delta=0.1,
        confidence_signal="sum_logprob",
    )
    again = PolicyConfig.from_flat(policy.to_flat())
    assert again == policy
    assert again.config_hash() == policy.config_hash()


def test_policy_flat_form_and_hash_pinned():
    # The freeze manifest locks on this hash of the flat form, so any change
    # to a key, a default or a value format shows up here.
    assert PolicyConfig().config_hash() == "357d52bb7aead827c91e5c87fc62bedc0a34ead383adc95bd03162646bc4761d"
    assert PolicyConfig().to_flat()["budget_B"] == "none"
    policy = PolicyConfig(
        tau=0.25,
        margin_m=0.05,
        guards_enabled=frozenset({"progress", "contract"}),
        bank_policy="multibank_best",
        primary_bank="exemplar",
        budget_B=3,
        cooldown=2,
        lambda_cost=0.01,
        delta=0.1,
        confidence_signal="first_token",
        multibank_member="dual",
    )
    assert policy.to_flat() == {
        "tau": "0.25",
        "margin_m": "0.05",
        "guards_enabled": "contract,progress",
        "bank_policy": "multibank_best",
        "primary_bank": "exemplar",
        "budget_B": "3",
        "cooldown": "2",
        "lambda": "0.01",
        "delta": "0.1",
        "confidence_signal": "first_token",
        "multibank_member": "dual",
    }
    assert policy.config_hash() == "59bf43b1ff44058c7b0bc47684183639edccd1cd67fc818debe0cf6abaf99baf"


def test_policy_hash_covers_every_field():
    base = PolicyConfig()
    variants = [
        PolicyConfig(tau=0.6),
        PolicyConfig(margin_m=0.2),
        PolicyConfig(guards_enabled=frozenset({"format"})),
        PolicyConfig(bank_policy="dual"),
        PolicyConfig(primary_bank="exemplar"),
        PolicyConfig(budget_B=1),
        PolicyConfig(cooldown=1),
        PolicyConfig(lambda_cost=0.5),
        PolicyConfig(delta=0.2),
        PolicyConfig(confidence_signal="first_token"),
        PolicyConfig(bank_policy="multibank_best", multibank_member="dual"),
    ]
    hashes = {base.config_hash()} | {v.config_hash() for v in variants}
    assert len(hashes) == len(variants) + 1


def test_policy_validation():
    with pytest.raises(ValueError):
        PolicyConfig(bank_policy="unknown")
    with pytest.raises(ValueError):
        PolicyConfig(guards_enabled=frozenset({"bogus"}))
    with pytest.raises(ValueError):
        PolicyConfig(budget_B=-1)
    with pytest.raises(ValueError):
        PolicyConfig(confidence_signal="last_token")
