"""Controller: routing, acceptance, budgets, bank-policy composition, oracle."""

import itertools
import json
import math
import re
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    BudgetState,
    OracleStep,
    accept_decision,
    oracle_policy,
    reference_attach_evidence,
    reference_freeze_identities,
    reference_oracle_steps,
    reference_second,
    reference_traces,
    route_decision,
    utility,
)
from gatedmem.controller import (
    BANK_POLICIES,
    GUARD_NAMES,
    MULTIBANK_FAMILY,
    PolicyConfig,
    compose_bank_policy,
    run_steps,
    select_threshold_percentile,
)
from gatedmem.protocol import (
    FIXED_BUDGET_K,
    ROUTE_AND_ACCEPT_ALL,
    PairedCounts,
    _run_counts,
    attach_evidence,
    evaluate_oracle,
    evaluate_policy,
    write_traces,
)
from gatedmem.worldsim import ORACLE_CONTEXTS, WorldSpec, generate_world


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


def test_percentile_rank_is_exact():
    # in floats 7 / 100.0 * 100 is 7.000000000000001, but the nearest rank is 7
    confs = [i / 100 for i in range(100)]
    assert select_threshold_percentile(confs, 7) == confs[6]
    for n in range(1, 201):
        values = list(range(n))
        for p in range(1, 101):
            assert select_threshold_percentile(values, p) == -(-p * n // 100) - 1, (p, n)


@pytest.mark.parametrize("n", [1, 2, 3, 101])
def test_percentile_matches_sorted_list_reference(n):
    # nearest rank ceil(p n / 100) of the sorted list, at least 1, on a list and on an array with ties
    confs = np.round(np.random.default_rng(n).random(n), 1)
    assert n < 11 or len(set(confs.tolist())) < n  # not vacuous: the larger list ties
    ordered = sorted(confs.tolist())
    for p in (0, 7, 35, 50, 100):
        want = ordered[max(1, math.ceil(Fraction(p * n, 100))) - 1]
        for given in (confs.tolist(), confs):
            got = select_threshold_percentile(given, p)
            assert type(got) is float and got == want, (p, n, type(given))


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
    assert compose_bank_policy(PolicyConfig(bank_policy="gate_only", primary_bank="rule")) == [("rule",)]
    assert compose_bank_policy(PolicyConfig(bank_policy="choose", primary_bank="exemplar")) == [("exemplar",)]
    assert compose_bank_policy(PolicyConfig(bank_policy="cascade_rule_then_exemplar")) == [("rule",), ("exemplar",)]
    assert compose_bank_policy(PolicyConfig(bank_policy="cascade_exemplar_then_rule")) == [("exemplar",), ("rule",)]
    assert compose_bank_policy(PolicyConfig(bank_policy="dual")) == [("rule", "exemplar")]


def test_multibank_requires_resolution():
    # a grid value only: fit freezes a family member in its place, and no run, a fixed replay included, reads it
    policy = PolicyConfig(bank_policy="multibank_best")
    with pytest.raises(ValueError, match="fit chooses one of"):
        compose_bank_policy(policy)
    world = generate_world(WorldSpec(n_examples=40, seed=3))
    snaps, ids = world.snapshots(), list(range(40))
    original = run_steps(world, PolicyConfig(bank_policy="dual"), snaps, ids)
    with pytest.raises(ValueError, match="fit chooses one of"):
        run_steps(world, policy, snaps, ids, frozen=original)


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
    assert gate.accepted.mean() >= choose.accepted.mean()
    # and with a margin that often fails, gate accepts rows choose rejected
    assert gate.accepted.mean() > 0


def test_cascade_short_circuits():
    world = generate_world(WorldSpec(n_examples=120, seed=4))
    snaps = world.snapshots()
    steps = evaluate_policy(
        world,
        PolicyConfig(tau=0.9, margin_m=-1.0, bank_policy="cascade_rule_then_exemplar"),
        snaps,
        list(range(120)),
    )
    assert steps.accepted_attempt[:, 0].any()
    assert not (steps.accepted_attempt[:, 0] & steps.tried[:, 1]).any()  # second bank never queried


def test_dual_single_second_pass():
    world = generate_world(WorldSpec(n_examples=100, seed=5))
    steps = evaluate_policy(
        world, PolicyConfig(tau=0.9, bank_policy="dual"), world.snapshots(), list(range(100))
    )
    counts = _run_counts(steps)
    assert steps.routed.any()
    assert np.array_equal(steps.tried, steps.routed[:, None])  # one joint second pass
    assert counts.mean_calls == 1 + counts.routed_frac


# ---------------------------------------------------------------------------
# step contracts
# ---------------------------------------------------------------------------

def test_high_confidence_step_not_routed():
    world = generate_world(WorldSpec(n_examples=50, seed=6))
    steps = evaluate_policy(
        world, PolicyConfig(tau=0.0), world.snapshots(), list(range(50))
    )
    assert not steps.routed.any() and not steps.tried.any()
    assert _run_counts(steps).mean_calls == 1
    assert np.array_equal(steps.final_correct, steps.baseline_correct)


def test_budget_one_blocks_second_route():
    world = generate_world(WorldSpec(n_examples=60, seed=7, steps_per_episode=6))
    steps = evaluate_policy(
        world, PolicyConfig(tau=1.0, budget_B=1), world.snapshots(), list(range(60))
    )
    per_episode = np.bincount(steps.episode_ids[steps.routed])
    assert per_episode.max() == 1


def test_budget_zero_bitwise_baseline():
    world = generate_world(WorldSpec(n_examples=80, seed=8))
    ids = list(range(80))
    zero = evaluate_policy(world, PolicyConfig(tau=1.0, budget_B=0), world.snapshots(), ids)
    base = world.baseline_pass(ids)[0]
    counts = _run_counts(zero)
    assert np.array_equal(zero.final_correct, base)
    assert not zero.routed.any()
    assert (counts.helps, counts.hurts) == (0, 0)
    assert counts.mean_calls == 1


def test_empty_retrieval_rolls_back():
    # world with retrieval threshold above any similarity: nothing to inject
    world = generate_world(WorldSpec(n_examples=40, seed=9, retrieval_threshold=0.999999))
    steps = evaluate_policy(world, PolicyConfig(tau=1.0), world.snapshots(), list(range(40)))
    assert steps.routed.all()
    assert not steps.filled.any() and not steps.decoded.any() and not steps.accepted.any()
    assert np.array_equal(steps.final_correct, steps.baseline_correct)


def test_trace_counters_match_recomputation(tmp_path):
    world = generate_world(WorldSpec(n_examples=90, seed=10, steps_per_episode=3))
    run = evaluate_policy(
        world, PolicyConfig(tau=0.7, budget_B=2), world.snapshots(), list(range(90))
    )
    write_traces(run, tmp_path / "traces.jsonl")
    traces = [json.loads(line) for line in (tmp_path / "traces.jsonl").read_text().splitlines()]
    assert len(traces) == 30
    for trace in traces:
        steps = trace["steps"]
        assert trace["routed_count"] == sum(s["routed"] for s in steps)
        assert trace["accepted_count"] == sum(s["accepted"] for s in steps)
        assert trace["total_calls"] == sum(s["calls_used"] for s in steps)
        assert trace["total_calls"] == len(steps) + trace["routed_count"]
        assert trace["outcome_utility"] == sum(utility(world, s["example_id"], s["final_action"]) for s in steps) / len(steps)
    steps = [s for t in traces for s in t["steps"]]
    assert [s["example_id"] for s in steps] == run.example_ids.tolist()
    assert [s["routed"] for s in steps] == run.routed.tolist()
    assert [s["accepted"] for s in steps] == run.accepted.tolist()


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
        osteps = reference_oracle_steps(world, ids, snaps, contexts=("exemplar",))
        trace = oracle_policy(0, osteps)
        oracle_acc = np.mean([utility(world, s.example_id, s.final_action) for s in trace.steps])

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
    )
    again = PolicyConfig.from_flat(policy.to_flat())
    assert again == policy
    assert again.config_hash() == policy.config_hash()


def test_policy_flat_form_and_hash_pinned():
    # The freeze manifest locks on this hash of the flat form, so any change
    # to a key, a default or a value format shows up here.
    assert PolicyConfig().config_hash() == "210100ff44179f4b3ff3cdcd00c27eb610ce980964b0469ffb4e5c8209d8d4ad"
    assert PolicyConfig().to_flat()["budget_B"] == "none"
    policy = PolicyConfig(
        tau=0.25,
        margin_m=0.05,
        guards_enabled=frozenset({"progress", "contract"}),
        bank_policy="dual",
        primary_bank="exemplar",
        budget_B=3,
        cooldown=2,
    )
    assert policy.to_flat() == {
        "tau": "0.25",
        "margin_m": "0.05",
        "guards_enabled": "contract,progress",
        "bank_policy": "dual",
        "primary_bank": "none",
        "budget_B": "3",
        "cooldown": "2",
    }
    assert policy.config_hash() == "029b1a719d92d909fadab3f520127d40df5fe6967a29190305184a85ac76f0d0"


@pytest.mark.parametrize("bank", ["rule", "exemplar"])
@pytest.mark.parametrize("margin", [0.0, 0.05, -math.inf])
def test_gate_only_is_choose_at_minus_inf_margin(bank, margin):
    gate = PolicyConfig(tau=0.6, margin_m=margin, bank_policy="gate_only", primary_bank=bank)
    choose = PolicyConfig(tau=0.6, margin_m=-math.inf, bank_policy="choose", primary_bank=bank)
    assert gate == choose
    assert gate.config_hash() == choose.config_hash()
    assert PolicyConfig.from_flat(dict(gate.to_flat(), margin_m=repr(margin), bank_policy="gate_only")) == choose


@pytest.mark.parametrize("kind", ["dual", "cascade_rule_then_exemplar", "cascade_exemplar_then_rule", "multibank_best"])
def test_primary_bank_dropped_where_unread(kind):
    policies = [PolicyConfig(tau=0.6, bank_policy=kind, primary_bank=b) for b in ("rule", "exemplar", None)]
    assert policies[0] == policies[1] == policies[2]
    assert {p.config_hash() for p in policies} == {policies[0].config_hash()}
    assert policies[0].primary_bank is None
    assert policies[0].to_flat()["primary_bank"] == "none"
    assert replace(PolicyConfig(tau=0.6, primary_bank="exemplar"), bank_policy=kind) == policies[0]


def test_choose_needs_a_primary_bank():
    with pytest.raises(ValueError, match="primary_bank"):
        PolicyConfig(bank_policy="choose", primary_bank=None)
    with pytest.raises(ValueError, match="primary_bank"):
        PolicyConfig.from_flat({"bank_policy": "gate_only", "primary_bank": "none"})
    with pytest.raises(ValueError, match="primary_bank"):
        PolicyConfig(bank_policy="dual", primary_bank="both")


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
    ]
    assert len(variants) == len(fields(PolicyConfig))  # one variant per field
    hashes = {base.config_hash()} | {v.config_hash() for v in variants}
    assert len(hashes) == len(variants) + 1


def test_policy_validation():
    with pytest.raises(ValueError):
        PolicyConfig(bank_policy="unknown")
    with pytest.raises(ValueError):
        PolicyConfig(guards_enabled=frozenset({"bogus"}))
    with pytest.raises(ValueError):
        PolicyConfig(budget_B=-1)
    with pytest.raises(TypeError, match="confidence_signal"):  # the confidence is the world's one signal
        PolicyConfig(confidence_signal="mean_logprob")


# ---------------------------------------------------------------------------
# the batched loop against the per-step reference (conftest.reference_traces)
# ---------------------------------------------------------------------------

def _evidence(banks):
    return {
        e: (count, total)
        for bank in banks.values()
        for e, count, total in zip(bank.entry_ids, bank.evidence_count.tolist(), bank.evidence_sum.tolist())
    }


def _names(world, columns, filled):
    return tuple(world.entry_ids[c] for c in columns[filled].tolist())


def _carries_retrieval(steps, version, attempt, fixed):
    """Which steps' attempt carries a retrieval result: none without memory (the `none` version),
    and in a fixed replay every tried attempt, whose frozen injection may be empty."""
    if version == "none":
        return np.zeros(len(steps.routed), bool)
    if fixed:
        return steps.tried[:, attempt]
    return steps.tried[:, attempt] & steps.filled[:, attempt].any(axis=1)


def _frozen_identities(steps, version="original", fixed=False):
    """Example id -> deciding injection of every routed step that carries a retrieval."""
    columns, filled, _ = steps.deciding_injection()
    carries = np.zeros(len(steps.routed), bool)
    for a in range(steps.tried.shape[1]):
        carries |= _carries_retrieval(steps, version, a, fixed) & (steps.deciding == a)
    return {
        idx: _names(steps.world, columns[s], filled[s])
        for s, idx in enumerate(steps.example_ids.tolist())
        if carries[s]
    }


def _table_view(steps, version, fixed):
    """Each step of a StepTable run of a content version (a fixed replay if `fixed`) as (example,
    episode, position, baseline correct and confidence, routed, accepted, final correct, attempts);
    each tried attempt as (index, carries a retrieval, injected ids, decoded, second correct,
    confidence, accepted)."""
    retrieved = [_carries_retrieval(steps, version, a, fixed) for a in range(steps.tried.shape[1])]
    final = steps.final_correct.tolist()
    view = []
    for s, idx in enumerate(steps.example_ids.tolist()):
        attempts = []
        for a in np.flatnonzero(steps.tried[s]).tolist():
            ran = bool(steps.decoded[s, a])
            attempts.append((
                a,
                bool(retrieved[a][s]),
                _names(steps.world, steps.columns[s, a], steps.filled[s, a]),
                ran,
                bool(steps.second_correct[s, a]) if ran else None,
                float(steps.second_confidence[s, a]) if ran else None,
                bool(steps.accepted_attempt[s, a]),
            ))
        view.append((
            idx,
            int(steps.episode_ids[s]),
            int(steps.step_index[s]),
            bool(steps.baseline_correct[s]),
            float(steps.baseline_confidence[s]),
            bool(steps.routed[s]),
            bool(steps.accepted[s]),
            final[s],
            tuple(attempts),
        ))
    return view


def _reference_view(world, traces):
    """_table_view's fields, read off the reference's step records."""
    def correct(step, action):
        return action == world.true_action(step.example_id)

    return [
        (
            s.example_id,
            t.episode_id,
            s.step_index,
            correct(s, s.baseline_action),
            s.baseline_confidence,
            s.routed,
            s.accepted,
            correct(s, s.final_action),
            tuple(
                (
                    a,
                    at.retrieved is not None,
                    at.retrieved or (),
                    at.second_action is not None,
                    None if at.second_action is None else correct(s, at.second_action),
                    at.second_confidence,
                    at.accepted,
                )
                for a, at in enumerate(s.attempts)
            ),
        )
        for t in traces
        for s in t.steps
    ]


def _assert_matches_reference(
    world, policy, snaps, ids, version="original", edited_ids=(), frozen=None, comparator=None, frozen_map=None
):
    """A policy or comparator run (evaluate_policy), or a run of another content version or a
    fixed replay (run_steps; a fixed replay of the run `frozen` reads frozen_map, example id -> ids)."""
    if version == "original" and frozen is None:
        steps = evaluate_policy(world, policy, snaps, ids, comparator=comparator)
    else:
        steps = run_steps(world, policy, snaps, ids, version, edited_ids, frozen)
    if comparator is not None:
        policy, version = _comparator_variant(policy, version, comparator)
    want = reference_traces(world, policy, snaps, ids, version, edited_ids, frozen_map)
    assert _table_view(steps, version, frozen is not None) == _reference_view(world, want)
    ref_steps = [s for t in want for s in t.steps]
    outcome = {s.example_id: utility(world, s.example_id, s.final_action) for s in ref_steps}
    assert steps.final_correct.tolist() == [bool(outcome[i]) for i in steps.example_ids.tolist()]
    counts = _run_counts(steps)
    assert counts.routed_frac == sum(t.routed_count for t in want) / len(ref_steps)
    assert counts.accepted_frac == sum(t.accepted_count for t in want) / len(ref_steps)
    assert counts.mean_calls == sum(t.total_calls for t in want) / len(ref_steps)
    batched = {k: b.copy() for k, b in world.banks.items()}
    records = reference_attach_evidence(world, want)
    attach_evidence(world, batched, steps)
    added = sum(int(b.evidence_count.sum()) for b in batched.values()) - sum(
        int(b.evidence_count.sum()) for b in world.banks.values()
    )
    assert added == len(records)
    totals = _evidence(world.banks)
    for r in records:
        count, total = totals[r.entry_id]
        totals[r.entry_id] = (count + 1, total + r.utility)
    assert _evidence(batched) == totals
    assert _frozen_identities(steps, version, frozen is not None) == reference_freeze_identities(want)
    return steps


def _comparator_variant(policy, version, comparator):
    if comparator == "retry":
        return policy, "none"
    budget = FIXED_BUDGET_K if comparator == "fixed_budget" else None
    return replace(policy, **ROUTE_AND_ACCEPT_ALL, budget_B=budget, cooldown=0), version


def _random_case(rng, trial):
    spec = WorldSpec(
        n_examples=int(rng.integers(40, 240)),
        seed=700 + trial,
        steps_per_episode=int(rng.integers(1, 31)),
        n_rule_entries=int(rng.choice([0, 6, 50])),
        n_exemplar_entries=int(rng.choice([6, 100])),
        guard_pass_rate=(("format", float(rng.uniform(0.6, 1.0))), ("progress", float(rng.uniform(0.8, 1.0)))),
        toxic_entry_rate=float(rng.uniform(0.0, 0.3)),
        k_max=int(rng.integers(1, 4)),
    )
    # every bank policy that runs, and each multibank_best member once more, in turn
    kinds = [k for k in BANK_POLICIES if k != "multibank_best"] + list(MULTIBANK_FAMILY)
    kind = kinds[trial % len(kinds)]
    policy = PolicyConfig(
        tau=float(rng.uniform(0.2, 0.9)),
        # margin 0 puts the retry comparator's second pass (the baseline again) on the accept boundary
        margin_m=0.0 if rng.random() < 0.25 else float(rng.uniform(-0.1, 0.2)),
        guards_enabled=frozenset(g for g in GUARD_NAMES if rng.random() < 0.5),
        bank_policy=kind,
        primary_bank=("rule", "exemplar")[int(rng.integers(2))],
        budget_B=[None, 0, 1, 2, 5][int(rng.integers(5))],
        cooldown=int(rng.integers(0, 4)),
    )
    return spec, policy


def test_batched_loop_matches_per_step_reference():
    rng = np.random.default_rng(2024)
    for trial in range(32):
        spec, policy = _random_case(rng, trial)
        world = generate_world(spec)
        snaps = world.snapshots()
        ids = rng.permutation(spec.n_examples)[: int(rng.integers(1, spec.n_examples + 1))].tolist()
        original = _assert_matches_reference(world, policy, snaps, ids)
        edited = tuple(sorted(rng.choice(world.entry_ids, size=6, replace=False).tolist()))
        frozen = _frozen_identities(original)
        if frozen:  # one routed query that retrieved replays an explicitly empty injection
            qid = next(iter(frozen))
            frozen[qid] = ()
            s = int(np.searchsorted(original.example_ids, qid))
            filled = original.filled.copy()
            filled[s, original.deciding[s]] = False
            original = replace(original, filled=filled)
        for version in ("repair", "corrupt"):
            _assert_matches_reference(world, policy, snaps, ids, version, edited)
            _assert_matches_reference(world, policy, snaps, ids, version, edited, frozen=original, frozen_map=frozen)
        _assert_matches_reference(world, policy, snaps, ids, comparator="retry")


def test_batched_comparators_match_per_step_reference():
    rng = np.random.default_rng(7)
    for trial in range(8):
        spec, policy = _random_case(rng, 100 + trial)
        world = generate_world(spec)
        ids = rng.permutation(spec.n_examples).tolist()
        for comparator in ("retry", "always_retrieve", "fixed_budget"):
            _assert_matches_reference(world, policy, world.snapshots(), ids, comparator=comparator)


def test_batched_loop_on_governed_banks_and_empty_banks():
    # retired entries leave holes in the snapshots; an all-retired bank retrieves nothing
    world = generate_world(WorldSpec(n_examples=300, seed=31, steps_per_episode=5, toxic_entry_rate=0.2))
    world.banks["rule"].retain([e for e in world.banks["rule"].entry_ids if int(e[1:]) % 3])
    world.banks["exemplar"].retain([])
    snaps = world.snapshots()
    for kind in ("dual", "cascade_rule_then_exemplar", "cascade_exemplar_then_rule", "gate_only"):
        policy = PolicyConfig(tau=0.8, margin_m=-0.05, bank_policy=kind, primary_bank="exemplar", cooldown=1)
        _assert_matches_reference(world, policy, snaps, list(range(300)))


def test_array_decode_matches_entry_by_entry_reference():
    world = generate_world(WorldSpec(n_examples=200, seed=41, toxic_entry_rate=0.2, edit_sensitive_rate=0.6))
    rng = np.random.default_rng(41)
    for _ in range(400):
        idx = int(rng.integers(200))
        injected = tuple(rng.choice(world.entry_ids, size=int(rng.integers(0, 5)), replace=False).tolist())
        edited = tuple(rng.choice(world.entry_ids, size=int(rng.integers(0, 40)), replace=False).tolist())
        version = ("original", "repair", "corrupt")[int(rng.integers(3))]
        cols = world.columns(injected)[None, :]
        pairs = world._pair_bytes(idx, cols)
        correct, conf = world.second_pass([idx], cols, np.ones(cols.shape, bool), pairs, version, edited)
        got = world.answer(idx, bool(correct[0]), second=bool(injected)), float(conf[0])
        assert got == reference_second(world, idx, injected, version, edited)


def test_oracle_matches_per_example_reference():
    for seed in range(3):
        world = generate_world(WorldSpec(n_examples=150, seed=60 + seed, n_rule_entries=10))
        snaps = world.snapshots()
        ids = np.random.default_rng(seed).permutation(150)[:100].tolist()
        passes = world.decode_contexts(ids, snaps)
        for contexts in (ORACLE_CONTEXTS, ("exemplar",)):
            present, correct = (np.stack([passes[c][k] for c in contexts], axis=1) for k in (0, 1))
            assert [
                tuple((world.answer(i, ok, second=True), float(ok)) for p, ok in zip(ps, oks) if p)
                for i, ps, oks in zip(ids, present.tolist(), correct.tolist())
            ] == [s.candidates for s in reference_oracle_steps(world, ids, snaps, contexts)]
        trace = oracle_policy(0, reference_oracle_steps(world, ids, snaps))
        correct, routed, accepted = evaluate_oracle(world, snaps, ids)
        counts = PairedCounts.of(world.baseline_pass(ids)[0], correct, routed, accepted)
        assert correct.tolist() == [bool(utility(world, s.example_id, s.final_action)) for s in trace.steps]
        assert counts.routed_frac == trace.routed_count / 100
        assert counts.accepted_frac == trace.accepted_count / 100
        assert counts.mean_calls == trace.total_calls / 100


# ---------------------------------------------------------------------------
# example ids
# ---------------------------------------------------------------------------

def test_repeated_example_id_rejected():
    world = generate_world(WorldSpec(n_examples=8, seed=1, steps_per_episode=4))
    with pytest.raises(ValueError, match="example id 1 is repeated"):
        evaluate_policy(world, PolicyConfig(), world.snapshots(), [1, 1, 2, 3])


WORLD_READS = ("baseline_pass", "guards_pass", "injected", "second_pass", "decode_contexts")


@pytest.mark.parametrize("reader", ["run_steps", "evaluate_oracle"])
@pytest.mark.parametrize(
    "ids, message",
    [
        ([3, 3], "example id 3 is repeated"),
        ([3, 3, -1], "example id 3 is repeated"),
        ([0, -1], "example id -1 is outside the world's examples 0..49"),
        ([7, 50], "example id 50 is outside the world's examples 0..49"),
        ([], "no examples to evaluate"),
    ],
    ids=["repeated", "repeated-and-negative", "negative", "past-the-end", "empty"],
)
def test_example_ids_checked_before_any_world_read(monkeypatch, reader, ids, message):
    # without the check, the oracle reads id -1 as the last example and [3, 3] twice,
    # and run_steps numbers example -1 as step -1
    world = generate_world(WorldSpec(n_examples=50, seed=1, steps_per_episode=4))
    snaps, reads = world.snapshots(), []
    for name in WORLD_READS:
        def spy(*args, _read=getattr(world, name), _name=name, **kwargs):
            reads.append(_name)
            return _read(*args, **kwargs)

        monkeypatch.setattr(world, name, spy)

    def run(example_ids):
        if reader == "run_steps":
            return run_steps(world, PolicyConfig(tau=1.0), snaps, example_ids)
        return evaluate_oracle(world, snaps, example_ids)

    with pytest.raises(ValueError, match=re.escape(message)):
        run(ids)
    assert reads == []
    run([7, 3, 49])  # the spies see the reads of valid ids
    assert reads and set(reads) <= set(WORLD_READS)


def test_fixed_replay_on_other_examples_rejected():
    world = generate_world(WorldSpec(n_examples=50, seed=1))
    policy, snaps = PolicyConfig(tau=0.9), world.snapshots()
    original = evaluate_policy(world, policy, snaps, list(range(40)))
    replay = dict(version="repair", edited_ids=("E000",), frozen=original)
    with pytest.raises(ValueError, match="fixed replay must run on the examples of the run it replays"):
        run_steps(world, policy, snaps, list(range(1, 41)), **replay)
    other = generate_world(WorldSpec(n_examples=50, seed=2))
    with pytest.raises(ValueError, match="fixed replay must run on a world of the spec of the run it replays"):
        run_steps(other, policy, other.snapshots(), list(range(40)), **replay)
    same = generate_world(WorldSpec(n_examples=50, seed=1))  # a world of the same spec has the same pair bytes
    fixed = run_steps(same, policy, same.snapshots(), list(range(40)), **replay)
    assert fixed.routed.any() and np.array_equal(fixed.pairs[:, 0], original.deciding_injection()[2])


@pytest.mark.parametrize("frozen", [False, True], ids=["free", "fixed"])
def test_unknown_edited_id_rejected(frozen):
    # an edited id the world does not know would otherwise be dropped, and the run read as unedited
    world = generate_world(WorldSpec(n_examples=50, seed=1))
    policy, snaps = PolicyConfig(tau=0.9), world.snapshots()
    original = evaluate_policy(world, policy, snaps, list(range(50)))
    assert original.routed.any()
    with pytest.raises(ValueError, match="unknown entry id 'R999'"):
        run_steps(world, policy, snaps, list(range(50)), "repair", ("R000", "R999"), original if frozen else None)


def test_out_of_range_example_id_rejected():
    world = generate_world(WorldSpec(n_examples=50, seed=1))
    with pytest.raises(ValueError, match="example id 60 is outside the world's examples 0..49"):
        evaluate_policy(world, PolicyConfig(), world.snapshots(), [3, 60, 70])


def test_negative_example_id_rejected():
    world = generate_world(WorldSpec(n_examples=50, seed=1))
    with pytest.raises(ValueError, match="example id -1 is outside"):
        evaluate_policy(world, PolicyConfig(), world.snapshots(), [4, -1, 4])
