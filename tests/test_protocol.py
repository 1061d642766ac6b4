"""Protocol: freeze manifests, stage separation, governance, counterfactuals."""

import os
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import arith_shape_spec, localization_shape_spec
from gatedmem.bank import EvidenceRecord
from gatedmem.controller import PolicyConfig
from gatedmem.errors import FreezeMismatch, ProtocolViolation
from gatedmem.protocol import (
    FreezeManifest,
    evaluate_policy,
    ledger_check,
    run_counterfactual,
    run_fit_stage,
    run_governance_loop,
    run_pooled_test,
    run_test_stage,
    split_indices,
)
from gatedmem.worldsim import WorldSpec, generate_world


def fitted_world(seed=0, n=400, grid=None, governance_rounds=0, spec=None):
    world = generate_world(spec or arith_shape_spec(seed=seed, n=n))
    n = world.spec.n_examples
    fit_ids, test_ids = split_indices(n, 0.5, 0)
    grid = grid or [PolicyConfig(tau=0.6, margin_m=0.0, bank_policy="choose", primary_bank="rule")]
    manifest, policy, snaps = run_fit_stage(
        world, grid, fit_ids, test_ids, governance_rounds=governance_rounds
    )
    return world, manifest, policy, snaps


# ---------------------------------------------------------------------------
# splits and fit stage
# ---------------------------------------------------------------------------

def test_split_disjoint_exhaustive():
    fit, test = split_indices(101, 0.5, 3)
    assert set(fit) & set(test) == set()
    assert sorted(fit + test) == list(range(101))


def test_fit_rejects_overlapping_splits():
    world = generate_world(WorldSpec(n_examples=50, seed=1))
    with pytest.raises(ProtocolViolation):
        run_fit_stage(world, [PolicyConfig()], [0, 1, 2], [2, 3, 4])


def test_single_candidate_selected():
    grid = [PolicyConfig(tau=0.5, bank_policy="gate_only")]
    world, manifest, policy, _ = fitted_world(seed=2, grid=grid)
    assert policy == grid[0]
    assert manifest.selection_record["grid_index"] == 0
    assert manifest.policy_hash == grid[0].config_hash()


def test_budget_zero_wins_ties_by_lower_calls():
    # in a world where memory never helps, the baseline-equivalent candidate
    # ties on delta-acc and wins on calls
    spec = WorldSpec(
        n_examples=300,
        seed=3,
        applicability_rate=(("rule", 0.0), ("exemplar", 0.0)),
        hurt_prob_given_inapplicable=0.0,
    )
    world = generate_world(spec)
    fit_ids, test_ids = split_indices(300, 0.5, 0)
    grid = [
        PolicyConfig(tau=0.8, budget_B=None, margin_m=-10.0, guards_enabled=frozenset()),
        PolicyConfig(tau=0.8, budget_B=0),
    ]
    _, policy, _ = run_fit_stage(world, grid, fit_ids, test_ids)
    assert policy.budget_B == 0


def test_multibank_best_resolved_at_fit():
    grid = [PolicyConfig(tau=0.7, bank_policy="multibank_best")]
    world, manifest, policy, _ = fitted_world(seed=4, grid=grid)
    assert policy.bank_policy == "multibank_best"
    assert policy.multibank_member in (
        "cascade_rule_then_exemplar",
        "cascade_exemplar_then_rule",
        "dual",
    )


def test_toxic_entry_excluded_by_governed_fit():
    # one rule entry per topic, so every fit query of a toxic entry's topic
    # retrieves it: the entry collects n >= 8 records at mean ~ -0.8 and the
    # frozen manifest bank must exclude it
    spec = WorldSpec(
        n_examples=400,
        seed=5,
        base_accuracy=0.85,
        topic_count=5,
        n_rule_entries=5,
        n_exemplar_entries=5,
        toxic_entry_rate=0.3,
        toxic_applicability=0.03,
        toxic_hurt_prob=0.95,
        applicability_rate=(("rule", 0.6), ("exemplar", 0.6)),
        help_prob_given_applicable=0.6,
        hurt_prob_given_inapplicable=0.15,
        k_max=1,
    )
    world = generate_world(spec)
    toxic_rules = {e for e in world.toxic_ids if e.startswith("R")}
    assert toxic_rules, "seed must produce at least one toxic rule entry"
    fit_ids, test_ids = split_indices(400, 0.5, 0)
    grid = [
        PolicyConfig(
            tau=2.0, margin_m=-10.0, guards_enabled=frozenset(),
            bank_policy="choose", primary_bank="rule",
        )
    ]
    manifest, policy, snaps = run_fit_stage(world, grid, fit_ids, test_ids, governance_rounds=4)
    active = set(snaps["rule"].entry_ids)
    assert toxic_rules & active == set()
    assert set(manifest.selection_record["active_ids"]["rule"]) == active


# ---------------------------------------------------------------------------
# test stage and manifests
# ---------------------------------------------------------------------------

def test_manifest_roundtrip(tmp_path):
    _, manifest, _, _ = fitted_world(seed=6)
    path = str(tmp_path / "manifest.json")
    manifest.save(path)
    assert FreezeManifest.load(path) == manifest


def test_tampered_tau_hash_mismatch():
    world, manifest, policy, snaps = fitted_world(seed=7)
    tampered = replace(policy, tau=policy.tau + 0.05)
    with pytest.raises(FreezeMismatch):
        run_test_stage(world, manifest, tampered, snaps)


def test_tampered_bank_hash_mismatch():
    world, manifest, policy, snaps = fitted_world(seed=8)
    world.banks["rule"].entry("R000").payload = "tampered"
    with pytest.raises(FreezeMismatch):
        run_test_stage(world, manifest, policy, world.snapshots())


def test_bank_kind_set_mismatch():
    world, manifest, policy, snaps = fitted_world(seed=8)
    assert set(snaps) == {"rule", "exemplar"}
    cases = [
        ({"rule": snaps["rule"]}, "missing ['exemplar'], extra []"),
        ({}, "missing ['exemplar', 'rule'], extra []"),
        ({**snaps, "extra": snaps["rule"]}, "missing [], extra ['extra']"),
    ]
    for partial, named in cases:
        with pytest.raises(FreezeMismatch, match=re.escape(named)):
            manifest.validate(world, policy, partial)


def test_wrong_world_hash_mismatch():
    world, manifest, policy, snaps = fitted_world(seed=9)
    other = generate_world(replace(world.spec, seed=10))
    with pytest.raises(FreezeMismatch):
        run_test_stage(other, manifest, policy, other.snapshots())


def test_test_stage_blocks_fit_operations():
    world, manifest, policy, snaps = fitted_world(seed=11)
    run_test_stage(world, manifest, policy, snaps)
    with pytest.raises(ProtocolViolation):
        world.banks["rule"].append_evidence("R000", EvidenceRecord(0, 1.0))
    with pytest.raises(ProtocolViolation):
        world.banks["rule"].retirement_sweep()
    with pytest.raises(ProtocolViolation):
        run_governance_loop(world, policy, 1, [0, 1, 2])


def test_retry_row_flat_in_deterministic_world():
    world, manifest, policy, snaps = fitted_world(seed=12)
    rows, _ = run_test_stage(world, manifest, policy, snaps)
    retry = next(r for r in rows if r.comparison.startswith("retry"))
    assert retry.delta_acc == 0.0
    assert retry.mcnemar_p == 1.0
    assert (retry.ci_lo, retry.ci_hi) == (0.0, 0.0)
    assert retry.help_hurt == 0


def test_ledger_rows_internally_consistent():
    world, manifest, policy, snaps = fitted_world(seed=13)
    rows, runs = run_test_stage(world, manifest, policy, snaps)
    for row in rows:
        row.check_consistency()
    # compute matching: retry call count equals the gated policy's
    assert runs["retry"].mean_calls == runs["policy"].mean_calls


def test_fit_test_byte_identical_ledgers(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        os.makedirs(out)
        world, manifest, policy, snaps = fitted_world(seed=14)
        run_test_stage(world, manifest, policy, snaps, out_dir=out)
    for name in ("ledger.csv", "traces.jsonl", "conf_bins.csv"):
        with open(os.path.join(out1, name), "rb") as f1, open(os.path.join(out2, name), "rb") as f2:
            assert f1.read() == f2.read(), name


def test_output_files_written(tmp_path):
    out = str(tmp_path)
    world, manifest, policy, snaps = fitted_world(seed=15)
    run_test_stage(world, manifest, policy, snaps, out_dir=out)
    assert os.path.exists(os.path.join(out, "ledger.csv"))
    assert os.path.exists(os.path.join(out, "traces.jsonl"))
    assert os.path.exists(os.path.join(out, "conf_bins.csv"))
    header = open(os.path.join(out, "ledger.csv")).readline().strip()
    assert header.split(",")[:4] == ["comparison", "n", "delta_acc", "ci_lo"]


def test_pooled_test_concatenates_seeds(tmp_path):
    world, manifest, policy, snaps = fitted_world(seed=40)
    single_rows, _ = run_test_stage(world, manifest, policy, snaps)
    # rebuild the world: run_test_stage flipped its banks to the test stage
    world, manifest, policy, snaps = fitted_world(seed=40)
    pooled_rows, per_seed = run_pooled_test(
        world, manifest, policy, n_seeds=3, out_dir=str(tmp_path)
    )
    assert len(per_seed) == 3
    single = {r.comparison: r for r in single_rows}
    for row in pooled_rows:
        row.check_consistency()
        assert row.n == 3 * single[row.comparison].n
    retry = next(r for r in pooled_rows if r.comparison == "retry vs baseline")
    assert retry.delta_acc == 0.0 and retry.mcnemar_p == 1.0
    assert os.path.exists(os.path.join(str(tmp_path), "ledger.csv"))
    for seed in per_seed:
        assert os.path.exists(os.path.join(str(tmp_path), f"ledger_seed{seed}.csv"))
    assert os.path.exists(os.path.join(str(tmp_path), "traces.jsonl"))


def test_pooled_test_single_seed_matches_plain(tmp_path):
    world, manifest, policy, snaps = fitted_world(seed=41)
    plain_rows, _ = run_test_stage(world, manifest, policy, snaps)
    world, manifest, policy, snaps = fitted_world(seed=41)
    pooled_rows, _ = run_pooled_test(world, manifest, policy, n_seeds=1)
    assert [r.as_csv() for r in pooled_rows] == [r.as_csv() for r in plain_rows]


# ---------------------------------------------------------------------------
# governance loop
# ---------------------------------------------------------------------------

def test_governance_no_harmful_entries_stable():
    spec = WorldSpec(
        n_examples=300, seed=16, hurt_prob_given_inapplicable=0.0, base_accuracy=0.7
    )
    world = generate_world(spec)
    fit_ids, _ = split_indices(300, 0.5, 0)
    report = run_governance_loop(world, PolicyConfig(tau=0.9), 3, fit_ids)
    assert all(not r.retired_ids for r in report.rounds)
    accs = [r.fit_accuracy for r in report.rounds]
    assert max(accs) - min(accs) == 0.0  # nothing changes without retirements


def test_governance_gap_close_absent_when_oracle_equals_baseline():
    # no applicable memory and no hurts: oracle == baseline
    spec = WorldSpec(
        n_examples=200,
        seed=17,
        applicability_rate=(("rule", 0.0), ("exemplar", 0.0)),
        hurt_prob_given_inapplicable=0.0,
    )
    world = generate_world(spec)
    fit_ids, _ = split_indices(200, 0.5, 0)
    report = run_governance_loop(world, PolicyConfig(tau=0.9), 2, fit_ids)
    assert report.oracle_accuracy == report.baseline_accuracy
    assert all(r.gap_close is None for r in report.rounds)


def test_governance_toxic_worlds_improve():
    # 20% toxic entries, 5 rounds, many seeds: the final round's fit accuracy
    # should not sit below round 0 (violation rate ~ 0)
    violations = 0
    trials = 30
    for seed in range(trials):
        spec = WorldSpec(
            n_examples=240,
            seed=900 + seed,
            base_accuracy=0.8,
            toxic_entry_rate=0.2,
            toxic_hurt_prob=0.95,
            applicability_rate=(("rule", 0.6), ("exemplar", 0.6)),
            help_prob_given_applicable=0.6,
            k_max=1,
        )
        world = generate_world(spec)
        fit_ids, _ = split_indices(240, 0.5, 0)
        policy = PolicyConfig(tau=0.95, margin_m=-10.0, guards_enabled=frozenset())
        report = run_governance_loop(world, policy, 5, fit_ids)
        if report.rounds[-1].fit_accuracy < report.rounds[0].fit_accuracy:
            violations += 1
    assert violations / trials <= 0.05


# ---------------------------------------------------------------------------
# counterfactual replay
# ---------------------------------------------------------------------------

def make_counterfactual_setup(seed=0):
    spec = localization_shape_spec(seed=seed)
    world = generate_world(spec)
    n = spec.n_examples
    fit_ids, test_ids = split_indices(n, 0.2, 0)
    tau_all = 2.0  # route everything; budget-free single-step episodes
    grid = [PolicyConfig(tau=tau_all, margin_m=0.0, bank_policy="choose", primary_bank="exemplar")]
    manifest, policy, snaps = run_fit_stage(world, grid, fit_ids, test_ids)
    edited = [e for e in snaps["exemplar"].entry_ids if world.banks["exemplar"].entry(e).payload.endswith("topic 0")][:4]
    edits = world.default_edits(edited, "repair")
    return world, manifest, policy, snaps, edits


def test_counterfactual_decomposition_and_fixed_mode():
    world, manifest, policy, snaps, edits = make_counterfactual_setup(seed=18)
    rows, audit = run_counterfactual(world, manifest, policy, snaps, edits, seed=18)
    assert audit["decomposition_max_abs_error"] == 0.0
    assert audit["non_hit_dacc_fixed"] == 0.0
    for row in rows:
        # fixed mode: the drift term is identically zero by construction
        assert row.outcome_repair_fixed - row.outcome_original == pytest.approx(
            (row.outcome_repair_fixed - row.outcome_original), abs=0
        )
        if not row.target_hit:
            assert row.outcome_repair_fixed == row.outcome_corrupt_fixed


def test_counterfactual_free_mode_has_drift():
    world, manifest, policy, snaps, edits = make_counterfactual_setup(seed=19)
    rows, _ = run_counterfactual(world, manifest, policy, snaps, edits, seed=19)
    drift = [
        abs((r.outcome_repair_free - r.outcome_repair_fixed)) for r in rows
    ]
    assert sum(drift) > 0  # retrieval drift makes free != fixed somewhere


def test_counterfactual_unknown_edit_rejected():
    world, manifest, policy, snaps, _ = make_counterfactual_setup(seed=20)
    from gatedmem.retrieval import ContentEdit

    with pytest.raises(KeyError):
        run_counterfactual(
            world, manifest, policy, snaps, [ContentEdit("E999", "x", "repair")]
        )


def test_counterfactual_requires_valid_manifest():
    world, manifest, policy, snaps, edits = make_counterfactual_setup(seed=21)
    with pytest.raises(FreezeMismatch):
        run_counterfactual(world, manifest, replace(policy, tau=0.1), snaps, edits)


# ---------------------------------------------------------------------------
# ledger-check solver
# ---------------------------------------------------------------------------

def test_ledger_check_paper_rows():
    assert ledger_check(540, 0.0019, 1, 1.0)[:2] == (1, 0)
    h, u, p = ledger_check(600, 0.0700, 42, 9.67e-7)
    assert (h, u) == (58, 16)
    assert abs(p - 9.67e-7) / 9.67e-7 <= 0.05
    h, u, p = ledger_check(600, 0.0767, 46, 3.80e-11)
    assert (h, u) == (50, 4)
    assert abs(p - 3.80e-11) / 3.80e-11 <= 0.05


def test_ledger_check_inconsistent_rows():
    assert ledger_check(600, 0.5, 2, 0.5) is None  # dacc*n nowhere near HH
    assert ledger_check(600, 0.07, 42, 1e-20) is None  # p unreachable
