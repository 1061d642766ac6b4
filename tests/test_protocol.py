"""Protocol: freeze manifests, stage separation, governance, counterfactuals."""

import json
import os
import re
import weakref
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from conftest import (
    COUNTERFACTUAL_OUTCOMES,
    arith_shape_spec,
    count_query_draws,
    localization_shape_spec,
    reference_conf_bins_text,
    reference_counterfactual,
    reference_counterfactual_rows_text,
    reference_ledger_check,
    reference_manifest_json,
    reference_outcome_table_text,
    reference_pooled_test,
    reference_trace_lines,
    reference_traces,
    reference_traces_text,
    tampered_policy,
)
from gatedmem import cli, protocol
from gatedmem.bank import MemoryBank
from gatedmem.controller import BANK_POLICIES, GUARD_NAMES, MULTIBANK_FAMILY, PolicyConfig, compose_bank_policy
from gatedmem.errors import FreezeMismatch, ProtocolViolation
from gatedmem.protocol import (
    LEDGER_COMPARISONS,
    FreezeManifest,
    PairedCounts,
    evaluate_policy,
    ledger_check,
    make_ledger_row,
    run_counterfactual,
    run_fit_stage,
    run_governance_loop,
    run_pooled_test,
    split_indices,
    write_counterfactual_rows,
    write_outcome_table,
    write_traces,
)
from gatedmem.stats import mcnemar_exact
from gatedmem.util import canonical_json, parse_kv_file, stable_digest
from gatedmem.worldsim import World, WorldSpec, generate_world


CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def fitted_world(seed=0, n=400, grid=None, governance_rounds=0, spec=None):
    world = generate_world(spec or arith_shape_spec(seed=seed, n=n))
    grid = grid or [PolicyConfig(tau=0.6, margin_m=0.0, bank_policy="choose", primary_bank="rule")]
    manifest, policy, snaps = run_fit_stage(world, grid, governance_rounds=governance_rounds)
    return world, manifest, policy, snaps


def base_seed(world, manifest):
    """The test stage's base-seed pass on this world: (ledger rows, PairedCounts by name)."""
    return protocol._test_seed(world, manifest, base=True, out_dir=None)


# ---------------------------------------------------------------------------
# splits and fit stage
# ---------------------------------------------------------------------------

def test_split_disjoint_exhaustive():
    fit, test = split_indices(101, 0.5, 3)
    assert set(fit) & set(test) == set()
    assert sorted(fit + test) == list(range(101))


@pytest.mark.parametrize("n", [2, 3, 101, 20000])
def test_split_matches_sorted_permutation_reference(n):
    for fit_fraction in (0.5, 0.25):
        for seed in (0, 9):
            perm = np.random.default_rng(seed).permutation(n)
            n_fit = max(1, int(round(n * fit_fraction)))
            reference = (sorted(int(i) for i in perm[:n_fit]), sorted(int(i) for i in perm[n_fit:]))
            got = split_indices(n, fit_fraction, seed)
            assert got == reference
            assert all(type(i) is int for side in got for i in side)  # plain ints: the digests json-encode them


@pytest.mark.parametrize("n, fit_fraction", [(3, 0.9), (1, 0.5), (2, 0.75), (0, 0.5)])
def test_split_with_an_empty_side_rejected(n, fit_fraction):
    with pytest.raises(ValueError, match=rf"n={n} examples at fit_fraction={fit_fraction} leave the \w+ split empty"):
        split_indices(n, fit_fraction)


def test_smallest_splits_have_both_sides():
    assert sorted(sum(split_indices(2, 0.5), [])) == [0, 1]
    assert [len(side) for side in split_indices(3, 0.65)] == [2, 1]


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
    grid = [
        PolicyConfig(tau=0.8, budget_B=None, margin_m=-10.0, guards_enabled=frozenset()),
        PolicyConfig(tau=0.8, budget_B=0),
    ]
    _, policy, _ = run_fit_stage(world, grid)
    assert policy.budget_B == 0


def test_multibank_best_resolved_at_fit():
    # fit runs each family member in multibank_best's place and freezes the one it chose:
    # the policy, hash and fit delta-acc that fit over that member alone freezes
    grid = [PolicyConfig(tau=0.7, bank_policy="multibank_best")]
    _, manifest, policy, _ = fitted_world(seed=4, grid=grid)
    assert policy.bank_policy in MULTIBANK_FAMILY
    _, alone, alone_policy, _ = fitted_world(seed=4, grid=[replace(grid[0], bank_policy=policy.bank_policy)])
    assert alone_policy == policy
    assert alone.policy_hash == manifest.policy_hash
    assert alone.selection_record["fit_delta_acc"] == manifest.selection_record["fit_delta_acc"]


@pytest.mark.parametrize(
    "grid, runs",
    [
        (parse_kv_file(os.path.join(CONFIGS, "grid.kv")), 12),
        (
            {
                "budget_B": "2|none",
                "cooldown": "0|1",
                "bank_policy": "cascade_rule_then_exemplar|dual|multibank_best",
                "tau_percentile": "35|50",
                "margin_m": "0.0|0.05",
            },
            48,
        ),
    ],
    ids=["shipped-grid", "multi-step-governed-grid"],
)
def test_fit_runs_each_distinct_policy_once(monkeypatch, grid, runs):
    # a multibank_best combo's cascade_rule_then_exemplar and dual members repeat the grid's own combos
    # (24 and 80 candidate runs in all), and fit runs each policy once, yet freezes what running all would
    world = generate_world(WorldSpec(n_examples=300, seed=1, steps_per_episode=4, toxic_entry_rate=0.2))
    fit_ids, _ = split_indices(world.spec.n_examples)
    candidates = cli._resolve_candidates(world, fit_ids, cli._expand_grid(grid, "grid.kv"))
    expanded = [
        (gi, replace(cand, bank_policy=m))
        for gi, cand in enumerate(candidates)
        for m in (MULTIBANK_FAMILY if cand.bank_policy == "multibank_best" else (cand.bank_policy,))
    ]
    scored = []
    for order, (gi, cand) in enumerate(expanded):
        counts = protocol._run_counts(evaluate_policy(world, cand, world.snapshots(), fit_ids))
        scored.append((-counts.delta_acc, counts.mean_calls, order, gi, cand))
    _, _, _, grid_index, best = min(scored)
    ran = []

    def counted(world, policy, *args):
        ran.append(policy)
        return evaluate_policy(world, policy, *args)

    monkeypatch.setattr(protocol, "evaluate_policy", counted)
    manifest, policy, _ = run_fit_stage(world, candidates)
    assert len(expanded) > len(ran) == len(set(ran)) == runs
    assert (policy, manifest.selection_record["grid_index"]) == (best, grid_index)


def test_shipped_grid_policies_behave_distinctly():
    # one stored form per behaviour: on the shipped world, no two of the shipped grid's
    # distinct policies decide every fit step alike
    world = generate_world(WorldSpec.from_flat(parse_kv_file(os.path.join(CONFIGS, "world.kv"))))
    fit_ids, _ = split_indices(world.spec.n_examples)
    combos = cli._expand_grid(parse_kv_file(os.path.join(CONFIGS, "grid.kv")), "grid.kv")
    candidates = cli._resolve_candidates(world, fit_ids, combos)
    policies = {
        replace(cand, bank_policy=m): None
        for cand in candidates
        for m in (MULTIBANK_FAMILY if cand.bank_policy == "multibank_best" else (cand.bank_policy,))
    }
    outcomes = set()
    for policy in policies:
        steps = evaluate_policy(world, policy, world.snapshots(), fit_ids)
        outcomes.add(tuple(np.packbits(x).tobytes() for x in (steps.final_correct, steps.routed, steps.accepted)))
    assert len(policies) == len(outcomes) == 12


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
    grid = [
        PolicyConfig(
            tau=2.0, margin_m=-10.0, guards_enabled=frozenset(),
            bank_policy="choose", primary_bank="rule",
        )
    ]
    manifest, policy, snaps = run_fit_stage(world, grid, governance_rounds=4)
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


@pytest.mark.parametrize("text", ["{", "[1, 2]", '{"policy_hash": "x"}'])
def test_malformed_manifest_is_a_freeze_mismatch(text):
    with pytest.raises(FreezeMismatch, match="manifest"):
        FreezeManifest.from_json(text)


def test_tampered_tau_hash_mismatch():
    world, manifest, policy, _ = fitted_world(seed=7)
    with pytest.raises(FreezeMismatch, match="policy config hash"):
        base_seed(world, tampered_policy(manifest, tau=policy.tau + 0.05))


@pytest.mark.parametrize(
    "stored", [{"bank_policy": "dual", "primary_bank": "rule"}, {"bank_policy": "gate_only", "margin_m": "0.0"}]
)
def test_policy_stored_in_a_non_canonical_form_is_refused(stored):
    # a policy file that stored a setting no run reads hashes as written, the policy it reads back does not
    grid = [PolicyConfig(tau=0.6, bank_policy=stored["bank_policy"])]
    world, manifest, _, _ = fitted_world(seed=7, grid=grid)
    flat = dict(manifest.selection_record["policy"], **stored)
    old = replace(
        manifest,
        policy_hash=stable_digest(canonical_json(flat)),
        selection_record=dict(manifest.selection_record, policy=flat),
    )
    with pytest.raises(FreezeMismatch, match="policy config hash"):
        base_seed(world, old)


def test_tampered_bank_hash_mismatch():
    world, manifest, policy, snaps = fitted_world(seed=8)
    bank = world.banks["rule"]
    bank.payloads = tuple("tampered" if e == "R000" else p for e, p in zip(bank.entry_ids, bank.payloads))
    with pytest.raises(FreezeMismatch, match="rule bank content hash"):
        base_seed(world, manifest)


def test_bank_kind_set_mismatch():
    world, manifest, _, snaps = fitted_world(seed=8)
    hashes = manifest.bank_hashes
    assert set(snaps) == set(hashes) == {"rule", "exemplar"}
    cases = [
        ({"rule": hashes["rule"]}, "missing [], extra ['exemplar']"),
        ({}, "missing [], extra ['exemplar', 'rule']"),
        ({**hashes, "extra": hashes["rule"]}, "missing ['extra'], extra []"),
    ]
    for bank_hashes, named in cases:
        with pytest.raises(FreezeMismatch, match=re.escape(f"bank kinds do not match the freeze manifest: {named}")):
            base_seed(world, replace(manifest, bank_hashes=bank_hashes))


@pytest.mark.parametrize(
    "kinds, named",
    [(["rule", "exemplar", "bogus"], "['bogus', 'exemplar', 'rule']"), (["rule"], "['rule']")],
    ids=["extra-kind", "missing-kind"],
)
def test_counterfactual_recorded_bank_kinds_must_be_the_worlds(kinds, named):
    # test_cli's malformed-manifest cases check the same rule through `test`
    world, manifest, _, snaps = fitted_world(seed=8)
    active = {kind: list(snaps[kind].entry_ids) if kind in snaps else [] for kind in kinds}
    tampered = replace(manifest, selection_record=dict(manifest.selection_record, active_ids=active))
    message = f"manifest selection_record.active_ids names bank kinds {named}, the world has ['exemplar', 'rule']"
    with pytest.raises(FreezeMismatch, match=re.escape(message)):
        run_counterfactual(world, tampered, ["E000"])


@pytest.mark.parametrize("kind, entry", [("rule", "R999"), ("rule", "E001"), ("exemplar", "R000")],
                         ids=["unknown-entry", "exemplar-under-rule", "rule-under-exemplar"])
def test_recorded_active_ids_must_be_entries_of_their_bank(kind, entry):
    # test_cli's malformed-manifest cases check the same rule through `test`
    world, manifest, _, snaps = fitted_world(seed=8)
    active = {k: [*snaps[k].entry_ids, entry] if k == kind else list(snaps[k].entry_ids) for k in snaps}
    tampered = replace(manifest, selection_record=dict(manifest.selection_record, active_ids=active))
    message = f"manifest selection_record.active_ids['{kind}'] names entries that bank lacks: ['{entry}']"
    with pytest.raises(FreezeMismatch, match=re.escape(message)):
        base_seed(world, tampered)
    with pytest.raises(FreezeMismatch, match=re.escape(message)):
        run_counterfactual(world, tampered, ["E000"])
    # refused before any bank was cut to the recorded membership or frozen
    assert all(bank.active.all() and bank.stage == "fit" for bank in world.banks.values())


def test_wrong_world_hash_mismatch():
    world, manifest, policy, snaps = fitted_world(seed=9)
    other = generate_world(replace(world.spec, seed=10))
    with pytest.raises(FreezeMismatch, match="world hash"):
        base_seed(other, manifest)


def test_test_stage_blocks_fit_operations():
    world, manifest, policy, _ = fitted_world(seed=11)
    base_seed(world, manifest)
    with pytest.raises(ProtocolViolation):
        world.banks["rule"].append_evidence("R000", [1.0])
    with pytest.raises(ProtocolViolation):
        world.banks["rule"].retirement_sweep()
    with pytest.raises(ProtocolViolation):
        run_governance_loop(world, policy, 1, [0, 1, 2])


def test_retry_row_flat_in_deterministic_world():
    world, manifest, _, _ = fitted_world(seed=12)
    rows, _ = base_seed(world, manifest)
    retry = next(r for r in rows if r.comparison.startswith("retry"))
    assert retry.delta_acc == 0.0
    assert retry.mcnemar_p == 1.0
    assert (retry.ci_lo, retry.ci_hi) == (0.0, 0.0)
    assert retry.help_hurt == 0


def test_ledger_rows_internally_consistent():
    world, manifest, _, _ = fitted_world(seed=13)
    rows, counts = base_seed(world, manifest)
    assert [(r.comparison, r.counts) for r in rows] == [(f"{name} vs baseline", counts[name]) for name in LEDGER_COMPARISONS]
    assert all(r.ci_lo <= r.ci_hi for r in rows)
    # compute matching: retry call count equals the gated policy's
    assert counts["retry"].mean_calls == counts["policy"].mean_calls


def test_inconsistent_ledger_row_is_a_protocol_violation(monkeypatch):
    # a row's n, delta_acc and help_hurt are read from its counts, so only the CI can disagree with itself
    counts = PairedCounts(100, 9, 2, 30, 20)
    row = make_ledger_row("policy vs baseline", counts)
    assert row.ci_lo < row.ci_hi
    monkeypatch.setattr(protocol, "bootstrap_ci", lambda diffs, seed: (row.ci_hi, row.ci_lo))
    with pytest.raises(ProtocolViolation, match="ledger row 'policy vs baseline': CI bounds out of order"):
        make_ledger_row("policy vs baseline", counts)


def test_fit_test_byte_identical_ledgers(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        os.makedirs(out)
        world, manifest, _, _ = fitted_world(seed=14)
        run_pooled_test(world.spec, manifest, n_seeds=1, out_dir=out)
    for name in ("ledger.csv", "traces.jsonl", "conf_bins.csv"):
        with open(os.path.join(out1, name), "rb") as f1, open(os.path.join(out2, name), "rb") as f2:
            assert f1.read() == f2.read(), name


def test_output_files_written(tmp_path):
    out = str(tmp_path)
    world, manifest, _, _ = fitted_world(seed=15)
    run_pooled_test(world.spec, manifest, n_seeds=1, out_dir=out)
    assert os.path.exists(os.path.join(out, "ledger.csv"))
    assert os.path.exists(os.path.join(out, "traces.jsonl"))
    assert os.path.exists(os.path.join(out, "conf_bins.csv"))
    with open(os.path.join(out, "ledger.csv"), encoding="utf-8") as fh:
        header = fh.readline().strip()
    assert header.split(",")[:4] == ["comparison", "n", "delta_acc", "ci_lo"]


def test_conf_bins_bytes_match_per_example_reference(tmp_path):
    # multi-step episodes whose budget and cooldown hold steps back
    spec = WorldSpec(
        n_examples=300, seed=19, steps_per_episode=5, guard_pass_rate=(("format", 0.8),), toxic_entry_rate=0.2
    )
    world = generate_world(spec)
    _, test_ids = split_indices(spec.n_examples)
    grid = [PolicyConfig(tau=0.6, margin_m=0.02, bank_policy="cascade_rule_then_exemplar", budget_B=2, cooldown=1)]
    manifest, policy, _ = run_fit_stage(world, grid)
    run_pooled_test(spec, manifest, n_seeds=1, out_dir=str(tmp_path))
    fresh = generate_world(spec)
    text = (tmp_path / "conf_bins.csv").read_text()
    assert text == reference_conf_bins_text(fresh, policy, fresh.snapshots(), test_ids)
    # not vacuous: an empty bin, and bins where the policy's accuracy differs from the baseline's
    lines = [line.split(",") for line in text.splitlines()[1:]]
    assert len(lines) == 10 and ["", ""] in [line[3:] for line in lines]
    assert any(line[3] != line[4] for line in lines)


def test_pooled_test_concatenates_seeds(tmp_path):
    world, manifest, _, _ = fitted_world(seed=40)
    single_rows, _ = base_seed(world, manifest)
    pooled_rows, per_seed = run_pooled_test(world.spec, manifest, n_seeds=3, out_dir=str(tmp_path))
    assert len(per_seed) == 3
    single = {r.comparison: r for r in single_rows}
    for row in pooled_rows:
        assert row.n == 3 * single[row.comparison].n
    retry = next(r for r in pooled_rows if r.comparison == "retry vs baseline")
    assert retry.delta_acc == 0.0 and retry.mcnemar_p == 1.0
    assert os.path.exists(os.path.join(str(tmp_path), "ledger.csv"))
    for seed in per_seed:
        assert os.path.exists(os.path.join(str(tmp_path), f"ledger_seed{seed}.csv"))
    assert os.path.exists(os.path.join(str(tmp_path), "traces.jsonl"))


def test_pooled_test_holds_one_world_at_a_time(monkeypatch, tmp_path):
    world, manifest, _, _ = fitted_world(seed=42, governance_rounds=1)
    spec = world.spec
    del world
    built = []

    def build(spec):
        assert [ref() for ref in built] == [None] * len(built), "an earlier seed's world is still alive"
        world = World(spec)
        built.append(weakref.ref(world))
        return world

    monkeypatch.setattr(protocol, "World", build)
    rows, per_seed = run_pooled_test(spec, manifest, n_seeds=3, out_dir=str(tmp_path))
    assert len(built) == 3 and [ref() for ref in built] == [None] * 3
    assert sorted(per_seed) == [42, 43, 44] and (tmp_path / "traces.jsonl").exists()


def test_a_test_seed_holds_one_step_table_at_a_time(monkeypatch, tmp_path):
    # each comparison's run is reduced to its counts before the next one runs; on
    # the base seed the policy's table lives until conf_bins.csv is written
    world, manifest, _, _ = fitted_world(seed=47)
    evaluate_policy, evaluate_oracle = protocol.evaluate_policy, protocol.evaluate_oracle
    write_conf_bins = protocol.write_conf_bins
    tables, alive_at_conf_bins = [], []

    def alive():
        return [ref() is not None for ref in tables]

    def tracked(*args, **kwargs):
        assert not any(alive()), f"an earlier run's step table is still alive: {alive()}"
        steps = evaluate_policy(*args, **kwargs)
        tables.append(weakref.ref(steps))
        return steps

    def oracle(*args, **kwargs):
        assert not any(alive()), f"an earlier run's step table is still alive: {alive()}"
        return evaluate_oracle(*args, **kwargs)

    def conf_bins(*args, **kwargs):
        alive_at_conf_bins.append(alive())
        write_conf_bins(*args, **kwargs)

    monkeypatch.setattr(protocol, "evaluate_policy", tracked)
    monkeypatch.setattr(protocol, "evaluate_oracle", oracle)
    monkeypatch.setattr(protocol, "write_conf_bins", conf_bins)
    run_pooled_test(world.spec, manifest, n_seeds=2, out_dir=str(tmp_path))
    assert len(tables) == 2 * 4 and not any(alive())  # per seed: policy and three comparators; the baseline is a read
    assert alive_at_conf_bins == [[True]]  # the policy's table is being read


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("fit_fraction", 0.0, "selection_record.fit_fraction must be in (0, 1), got 0.0"),
        ("fit_fraction", 1.5, "selection_record.fit_fraction must be in (0, 1), got 1.5"),
        ("fit_fraction", float("nan"), "selection_record.fit_fraction must be in (0, 1), got nan"),
        ("fit_fraction", "0.5", "wrong JSON type: ['selection_record.fit_fraction']"),
        ("fit_fraction", True, "wrong JSON type: ['selection_record.fit_fraction']"),
        ("fit_fraction", 0.6, "selection_record.fit_digest does not match the fit split that fit_fraction 0.6 and split_seed 0 draw from 100 examples"),
        ("split_seed", 0.9, "wrong JSON type: ['selection_record.split_seed']"),
        ("split_seed", "0", "wrong JSON type: ['selection_record.split_seed']"),
        ("split_seed", 0.0, "wrong JSON type: ['selection_record.split_seed']"),
        ("split_seed", False, "wrong JSON type: ['selection_record.split_seed']"),
        ("split_seed", -1, "selection_record.split_seed must be >= 0, got -1"),
        ("split_seed", 1, "selection_record.fit_digest does not match the fit split that fit_fraction 0.5 and split_seed 1 draw"),
        ("fit_digest", "0" * 16, "selection_record.fit_digest does not match the fit split"),
        ("test_digest", "0" * 16, "selection_record.test_digest does not match the test split"),
    ],
    ids=[
        "fraction-zero", "fraction-above-one", "fraction-nan", "fraction-string", "fraction-bool", "fraction-other",
        "seed-fraction", "seed-string", "seed-float", "seed-bool", "seed-negative", "seed-other",
        "fit-digest", "test-digest",
    ],
)
def test_tampered_split_record_names_the_field(field, value, named):
    # the recorded parameters must draw the recorded split on this world
    world, manifest, _, _ = fitted_world(seed=16, n=100)
    raw = asdict(manifest)
    raw["selection_record"][field] = value
    with pytest.raises(FreezeMismatch, match=re.escape(named)):
        base_seed(world, FreezeManifest.from_json(json.dumps(raw)))


# ---------------------------------------------------------------------------
# comparators: each is the gated controller under another policy or content version
# ---------------------------------------------------------------------------

def comparator_setup():
    # 8 entries per bank over 12 topics: queries of topics 8..11 retrieve
    # nothing; the format guard rejects some steps; the budget and cooldown bind
    spec = WorldSpec(
        n_examples=240,
        seed=17,
        steps_per_episode=6,
        topic_count=12,
        n_rule_entries=8,
        n_exemplar_entries=8,
        guard_pass_rate=(("format", 0.6),),
    )
    world = generate_world(spec)
    _, test_ids = split_indices(240, 0.5, 0)
    policy = PolicyConfig(
        tau=0.6, margin_m=0.05, bank_policy="cascade_rule_then_exemplar", budget_B=2, cooldown=1
    )
    return world, policy, world.snapshots(), test_ids


def _injects(steps):
    """Whether each step's deciding attempt injected anything."""
    return steps.deciding_injection()[1].any(axis=1)


def test_always_retrieve_routes_every_step_and_accepts_nonempty_retrievals():
    world, policy, snaps, ids = comparator_setup()
    steps = evaluate_policy(world, policy, snaps, ids, comparator="always_retrieve")
    nonempty = _injects(steps)
    assert steps.routed.all()
    assert np.array_equal(steps.accepted, nonempty)
    assert nonempty.any() and not nonempty.all()
    counts = protocol._run_counts(steps)
    assert counts.routed_frac == 1.0 and counts.mean_calls == 2.0


def test_fixed_budget_routes_two_steps_per_episode():
    world, policy, snaps, ids = comparator_setup()
    steps = evaluate_policy(world, policy, snaps, ids, comparator="fixed_budget")
    lengths = np.bincount(steps.episode_ids)
    lengths = lengths[lengths > 0]
    assert 1 in lengths and lengths.max() > 2
    assert np.array_equal(steps.routed, steps.step_index < 2)
    assert np.array_equal(steps.accepted, steps.routed & _injects(steps))


def test_retry_keeps_baseline_outcomes_at_the_gated_policy_cost():
    world, policy, snaps, ids = comparator_setup()
    base = world.baseline_pass(sorted(ids))[0]
    gated = evaluate_policy(world, policy, snaps, ids)
    retry = evaluate_policy(world, policy, snaps, ids, comparator="retry")
    gated_counts, retry_counts = protocol._run_counts(gated), protocol._run_counts(retry)
    assert np.array_equal(retry.final_correct, base)
    assert np.array_equal(retry.routed, gated.routed)
    assert retry_counts.mean_calls == gated_counts.mean_calls > 1.0
    assert retry.columns.shape[2] == 0 and not retry.deciding_injection()[1].any()
    assert not np.array_equal(gated.final_correct, base)


@pytest.mark.parametrize(
    "seed, policy",
    [
        (61, PolicyConfig(
            tau=0.6, margin_m=0.05, bank_policy="cascade_rule_then_exemplar", budget_B=2, cooldown=1,
            guards_enabled=frozenset({"format", "progress"}),
        )),
        (62, PolicyConfig(
            tau=0.8, margin_m=-0.05, bank_policy="cascade_exemplar_then_rule", primary_bank="exemplar",
            budget_B=3, cooldown=2, guards_enabled=frozenset({"progress"}),
        )),
        (63, PolicyConfig(tau=0.7, bank_policy="dual", cooldown=1, guards_enabled=frozenset(GUARD_NAMES))),
    ],
    ids=["cascade-rule-first", "cascade-exemplar-first", "dual"],
)
def test_traces_jsonl_matches_reference_on_multi_step_episodes(tmp_path, seed, policy):
    spec = WorldSpec(
        n_examples=300,
        seed=seed,
        steps_per_episode=7,
        n_rule_entries=12,
        n_exemplar_entries=24,
        toxic_entry_rate=0.2,
        guard_pass_rate=(("format", 0.7), ("progress", 0.8)),
    )
    world = generate_world(spec)
    snaps = world.snapshots()
    _, ids = split_indices(spec.n_examples, 0.5, seed)
    steps = evaluate_policy(world, policy, snaps, ids)
    path = tmp_path / "traces.jsonl"
    write_traces(steps, str(path))
    assert path.read_text().splitlines() == reference_trace_lines(reference_traces(world, policy, snaps, ids))
    # not vacuous: steps held back by the budget or a cooldown, steps a guard
    # rejects, attempts past the first bank, and accepted and rolled-back steps
    assert (~steps.routed & (steps.baseline_confidence < policy.tau)).any()
    assert not world.guards_pass(steps.example_ids[steps.routed], policy.guards_enabled).all()
    assert steps.accepted.any() and (steps.routed & ~steps.accepted).any()
    if len(compose_bank_policy(policy)) > 1:
        assert steps.tried[:, 1].any()


def test_pooled_test_single_seed_matches_plain(tmp_path):
    world, manifest, _, _ = fitted_world(seed=41)
    plain_rows, _ = base_seed(world, manifest)
    pooled_rows, _ = run_pooled_test(world.spec, manifest, n_seeds=1)
    assert [r.as_csv() for r in pooled_rows] == [r.as_csv() for r in plain_rows]


@pytest.mark.parametrize("n_seeds", [1, 3, 5])
def test_pooled_rows_from_counts_equal_rows_from_outcome_vectors(n_seeds):
    world, manifest, policy, _ = fitted_world(seed=45, governance_rounds=1)
    rows, per_seed = run_pooled_test(world.spec, manifest, n_seeds=n_seeds)
    want, want_per_seed, runs = reference_pooled_test(world.spec, manifest, policy, n_seeds)
    assert [r.as_csv() for r in rows] == want
    assert {s: [r.as_csv() for r in rs] for s, rs in per_seed.items()} == want_per_seed
    # not vacuous: rows whose paired differences lack -1 or +1, which the
    # bootstrap's np.unique drops, next to rows that have all three values
    base = runs["baseline"].correct
    helps_hurts = {name: (int((r.correct & ~base).sum()), int((base & ~r.correct).sum())) for name, r in runs.items()}
    assert helps_hurts["retry"] == (0, 0)
    assert helps_hurts["oracle"][0] > 0 and helps_hurts["oracle"][1] == 0
    assert min(helps_hurts["policy"]) > 0


def test_pooled_counts_are_one_run_over_every_seeds_examples():
    # three seeds of 128 examples routing 0, 1 and 20: the pooled rate is 21 / 384, where weighting
    # each seed's fraction by its share, sum(n_k / N * x_k), gives 0.054687 in a ledger's sixth decimal
    parts = [PairedCounts(128, h, u, r, r // 2) for h, u, r in ((3, 0, 0), (0, 2, 1), (5, 5, 20))]
    pooled = PairedCounts.pool(parts)
    assert pooled == PairedCounts(384, 8, 7, 21, 10)
    assert pooled.routed_frac == 21 / 384 != sum(128 / 384 * (r / 128) for r in (0, 1, 20))
    assert f"{pooled.routed_frac:.6f}" == "0.054688"
    assert PairedCounts.pool(parts[:1]) == parts[0]
    # pooling the parts' counts is counting their concatenated masks
    rng = np.random.default_rng(35)
    for _ in range(50):
        masks = [rng.random((4, int(rng.integers(1, 60)))) < rng.random((4, 1)) for _ in range(int(rng.integers(1, 6)))]
        assert PairedCounts.pool([PairedCounts.of(*m) for m in masks]) == PairedCounts.of(*np.concatenate(masks, axis=1))


def test_a_test_seed_hands_back_only_numbers(tmp_path):
    world, manifest, _, _ = fitted_world(seed=46)
    rows, counts = protocol._test_seed(world, manifest, base=True, out_dir=str(tmp_path))
    assert [r.comparison for r in rows] == [f"{name} vs baseline" for name in LEDGER_COMPARISONS]
    assert sorted(counts) == sorted(LEDGER_COMPARISONS)
    for record in rows + list(counts.values()):
        for f in fields(record):
            value = getattr(record, f.name)
            if isinstance(value, PairedCounts):
                assert value == counts[record.comparison.removesuffix(" vs baseline")]
                assert all(type(getattr(value, g.name)) is int for g in fields(value)), (record, f.name)
            else:
                assert type(value) in (int, float, str), (record, f.name)


def test_ledger_rows_recompute_from_their_counts():
    world, manifest, _, _ = fitted_world(seed=47)
    spec = world.spec
    pooled_rows, per_seed = run_pooled_test(spec, manifest, n_seeds=3)
    assert sorted(per_seed) == [spec.seed, spec.seed + 1, spec.seed + 2]
    for seed, rows in per_seed.items():
        assert [r.as_csv() for r in rows] == [make_ledger_row(r.comparison, r.counts, seed).as_csv() for r in rows]
    assert [r.as_csv() for r in pooled_rows] == [
        make_ledger_row(r.comparison, r.counts, spec.seed).as_csv() for r in pooled_rows
    ]
    for i, row in enumerate(pooled_rows):
        parts = [rows[i] for rows in per_seed.values()]
        assert {r.comparison for r in parts} == {row.comparison}
        assert row.counts == PairedCounts.pool([r.counts for r in parts])
    # not vacuous: the seeds' counts differ, so the pooled counts are not one seed's times three
    policy = [rows[0].counts for rows in per_seed.values()]
    assert len(set(policy)) == 3


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


def test_governance_freezes_each_bank_state_once(monkeypatch):
    # round 0 is evaluated on the state the baseline and oracle see, so the
    # banks are frozen once before the loop and once per later round
    freeze = MemoryBank.freeze
    calls = []
    monkeypatch.setattr(MemoryBank, "freeze", lambda bank: calls.append(bank.bank_kind) or freeze(bank))
    spec = WorldSpec(n_examples=200, seed=18, toxic_entry_rate=0.3, toxic_hurt_prob=0.95, k_max=1)
    world = generate_world(spec)
    fit_ids, _ = split_indices(200, 0.5, 0)
    report = run_governance_loop(world, PolicyConfig(tau=0.95, margin_m=-10.0), 2, fit_ids)
    assert len(calls) == 4
    assert report.rounds[0].bank_hashes == {k: s.content_hash for k, s in world.snapshots().items()}
    calls.clear()
    run_fit_stage(world, [PolicyConfig(tau=0.95, margin_m=-10.0)], governance_rounds=2)
    assert len(calls) == 6  # also the grid search's snapshots; the frozen result is the selected round's


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
    tau_all = 2.0  # route everything; budget-free single-step episodes
    grid = [PolicyConfig(tau=tau_all, margin_m=0.0, bank_policy="choose", primary_bank="exemplar")]
    manifest, _, snaps = run_fit_stage(world, grid, fit_fraction=0.2)
    edited = [e for e, p in zip(snaps["exemplar"].entry_ids, snaps["exemplar"].payloads) if p.endswith("topic 0")][:4]
    return world, manifest, edited


def test_counterfactual_decomposition_and_fixed_mode():
    world, manifest, edited = make_counterfactual_setup(seed=18)
    rows, audit = run_counterfactual(world, manifest, edited, seed=18)
    assert audit["decomposition_max_abs_error"] == 0.0
    assert audit["non_hit_dacc_fixed"] == 0.0
    non_hit = ~rows.target_hit
    assert non_hit.any() and rows.target_hit.any()
    assert np.array_equal(rows.outcome_repair_fixed[non_hit], rows.outcome_corrupt_fixed[non_hit])


def test_counterfactual_leaves_the_banks_frozen_for_test():
    world, manifest, edited = make_counterfactual_setup(seed=18)
    run_counterfactual(world, manifest, edited, seed=18)
    for kind, bank in world.banks.items():
        entry_id = bank.active_columns()[0][0]
        for op in (
            lambda: bank.append_evidence(entry_id, [1.0]),
            lambda: bank.retirement_sweep(),
            lambda: bank.retain([entry_id]),
        ):
            with pytest.raises(ProtocolViolation, match=f"fit-stage operation; bank '{kind}' is frozen for test"):
                op()


def test_counterfactual_free_mode_has_drift():
    world, manifest, edited = make_counterfactual_setup(seed=19)
    rows, _ = run_counterfactual(world, manifest, edited, seed=19)
    drift = np.abs(rows.outcome_repair_free - rows.outcome_repair_fixed)
    assert drift.sum() > 0  # retrieval drift makes free != fixed somewhere


@pytest.mark.parametrize("hit", [False, True])
def test_counterfactual_audits_non_hit_rows_only(monkeypatch, hit):
    # the corrupt fixed replay reports another second-pass confidence on one routed row
    world, manifest, edited = make_counterfactual_setup(seed=18)
    run_steps = protocol.run_steps
    nudged = []

    def nudge(world, policy, snapshots, example_ids, version="original", edited_ids=(), frozen=None):
        steps = run_steps(world, policy, snapshots, example_ids, version, edited_ids, frozen)
        if frozen is not None and version == "corrupt":
            columns, filled, _ = frozen.deciding_injection()
            hits = (filled & np.isin(columns, world.columns(edited_ids))).any(axis=1)
            s = int(np.flatnonzero(steps.routed & steps.decoded[:, 0] & (hits == hit))[0])
            confidence = steps.second_confidence.copy()
            confidence[s, 0] += 0.5
            nudged.append(int(steps.example_ids[s]))
            steps = replace(steps, second_confidence=confidence)
        return steps

    monkeypatch.setattr(protocol, "run_steps", nudge)
    if hit:  # a hit row may differ across repair/corrupt
        assert run_counterfactual(world, manifest, edited, seed=18)[1]["n_hit"] > 0
    else:
        with pytest.raises(ProtocolViolation) as raised:
            run_counterfactual(world, manifest, edited, seed=18)
        assert str(raised.value) == f"non-hit row {nudged[0]} differs across repair/corrupt under fixed retrieval"
        row = raised.value.row  # the corrupt replay's values against the repair replay's
        assert (row["check"], row["query_id"], row["version"]) == ("non_hit_bitwise_identical", nudged[0], "corrupt")
        expected, got = row["expected"], row["got"]
        assert got.pop("confidence") == expected.pop("confidence") + 0.5 and got == expected
    assert len(nudged) == 1


def test_counterfactual_unknown_edit_rejected():
    world, manifest, _ = make_counterfactual_setup(seed=20)
    with pytest.raises(ValueError, match="unknown entry 'E999'"):
        run_counterfactual(world, manifest, ["E999"])


def test_counterfactual_requires_valid_manifest():
    world, manifest, edited = make_counterfactual_setup(seed=21)
    with pytest.raises(FreezeMismatch, match="policy config hash"):
        run_counterfactual(world, tampered_policy(manifest, tau=0.1), edited)


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


def _ledger_cases():
    """(n, dacc, hh, p, rel_tol) rows around the first reachable p values: each exact
    p, the two rel_tol boundaries and their neighbouring doubles, p = 0 and p = 1."""
    for n in (1, 2, 3, 8, 25, 64, 150):
        for hh in sorted({*range(-n - 1, n + 2, max(1, n // 9)), -1, 0, 1}):
            first = max(0, -hh)
            exact = [mcnemar_exact(u + hh, u) for u in range(first, first + 4) if 2 * u + hh <= n]
            for rel_tol in (0.05, 0.0, 0.5):
                edges = {0.0, 1.0, 0.5, *(x * f for x in exact for f in (1, 1 / (1 - rel_tol), 1 / (1 + rel_tol)))}
                ps = {q for x in edges for q in (x, np.nextafter(x, 0.0), np.nextafter(x, 1.0))}
                for p in sorted(q for q in ps if 0.0 <= q <= 1.0):
                    yield n, hh / n, hh, float(p), rel_tol
        yield n, 0.5, 0, 1.0, 0.05  # dacc * n too far from hh
    for hh in (1070, 1080):  # at 1080 helps and no hurts p_exact underflows to 0
        yield 1100, hh / 1100, hh, 0.0, 0.05


def test_ledger_check_equals_linear_scan():
    cases = list(_ledger_cases())
    found = {"consistent": 0, "p=0": 0}
    for n, dacc, hh, p, rel_tol in cases:
        want = reference_ledger_check(n, dacc, hh, p, rel_tol)
        assert ledger_check(n, dacc, hh, p, rel_tol) == want, (n, dacc, hh, p, rel_tol)
        found["consistent"] += want is not None
        found["p=0"] += want is not None and p == 0.0
    assert len(cases) > 5000 and found["consistent"] > 1000 and found["p=0"] > 0  # not vacuous


def test_ledger_check_large_row():
    # 3000 helps and 2000 hurts of n = 20000: a linear scan tries about 2000 hurts counts
    p = mcnemar_exact(3000, 2000)
    h, u, p_exact = ledger_check(20000, 1000 / 20000, 1000, p)
    assert h - u == 1000 and u <= 2000 and abs(p_exact - p) / p <= 0.05
    assert abs(mcnemar_exact(h - 1, u - 1) - p) / p > 0.05  # no smaller hurts count fits
    assert ledger_check(20000, 1000 / 20000, 1000, 1e-300) is None


# ---------------------------------------------------------------------------
# per-row files: column encoders against a dict per row and a json call
# ---------------------------------------------------------------------------

# confidences whose 10-place rounding or JSON text is an edge case
EDGE_CONFIDENCES = (1e-11, 0.1 + 0.2, 0.99999999995, 0.0, 1.0, 1e-05, 5e-324, 0.12345678905, 0.5)


@pytest.mark.parametrize("n, block", [(1, None), (None, None), (40, 7), (14, 7), (1, 7)])
def test_outcome_table_bytes_match_reference(tmp_path, monkeypatch, n, block):
    # None: the shipped row block, and n three rows past it
    if block is not None:
        monkeypatch.setattr(protocol, "ROW_BLOCK", block)
    n = n or protocol.ROW_BLOCK + 3
    world, rows = generate_world(WorldSpec(n_examples=n, seed=n)), np.arange(n)
    baseline, passes = world.baseline_pass(rows)[0], world.decode_contexts(rows, world.snapshots())
    path = tmp_path / "outcome_table.json"
    write_outcome_table(baseline, passes, str(path))
    assert path.read_text() == reference_outcome_table_text(baseline, passes)


def test_outcome_table_confidences_at_rounding_edges(tmp_path, monkeypatch):
    monkeypatch.setattr(protocol, "ROW_BLOCK", 4)
    conf = np.array(EDGE_CONFIDENCES)
    rng = np.random.default_rng(0)
    baseline = rng.random(len(conf)) < 0.5
    passes = {
        ctx: (rng.random(len(conf)) < 0.5, rng.random(len(conf)) < 0.5, c)
        for ctx, c in (("none", conf), ("dual", conf[::-1].copy()))
    }
    path = tmp_path / "outcome_table.json"
    write_outcome_table(baseline, passes, str(path))
    assert path.read_text() == reference_outcome_table_text(baseline, passes)


def test_json_rounded_equals_repr_of_round():
    # uniform, small, U-shaped and edge values; a confidence is at most 1, but a seventh of them is
    # also scaled past 1e5 and 1e16, where '%.10f' has too many digits and repr switches to exponents
    rng = np.random.default_rng(11)
    n = 350_000
    values = np.concatenate([
        rng.random(n),
        rng.random(n) * 1e-3,
        rng.beta(0.3, 0.3, n),
        EDGE_CONFIDENCES,
        [1e-4, np.nextafter(1e-4, 0), 9.99995e-5, 1 / 2048, 0.99999999994999, 1e5, np.nextafter(1e5, 0), 12345.6789012345],
    ])
    values = np.concatenate([values, values[::7] * 1e8, values[::7] * 1e17, [np.nan, -0.25]])
    assert protocol._json_rounded(values) == [float.__repr__(round(x, 10)) for x in values.tolist()]


@pytest.mark.parametrize("steps_per_episode", range(1, 9))
@pytest.mark.parametrize("comparator", [None, "retry"])
def test_traces_bytes_match_reference(tmp_path, monkeypatch, steps_per_episode, comparator):
    monkeypatch.setattr(protocol, "ROW_BLOCK", 20)  # several blocks of episodes
    spec = WorldSpec(
        n_examples=203,
        seed=70 + steps_per_episode,
        steps_per_episode=steps_per_episode,
        n_rule_entries=12,
        n_exemplar_entries=24,
        topic_count=40,  # more topics than rule entries: some queries retrieve nothing
        toxic_entry_rate=0.2,
        guard_pass_rate=(("format", 0.7),),
    )
    world = generate_world(spec)
    ids = [i for i in range(spec.n_examples) if i % 13 != 5]  # some episodes lose a step
    policy = PolicyConfig(
        tau=0.7, margin_m=0.02, bank_policy="cascade_rule_then_exemplar", budget_B=2, guards_enabled=frozenset({"format"}),
    )
    steps = evaluate_policy(world, policy, world.snapshots(), ids, comparator=comparator)
    path = tmp_path / "traces.jsonl"
    write_traces(steps, str(path))
    assert path.read_text() == reference_traces_text(steps)
    # the same steps with confidences at rounding edges
    edge = np.resize(np.array(EDGE_CONFIDENCES), len(steps.routed))
    edged = replace(
        steps,
        baseline_confidence=edge,
        second_confidence=np.where(np.isnan(steps.second_confidence), np.nan, edge[::-1, None]),
    )
    write_traces(edged, str(path))
    assert path.read_text() == reference_traces_text(edged)
    # not vacuous: unrouted steps, and routed ones that retrieved nothing, were rejected, or were accepted
    # (a retry's second pass repeats the baseline, so the margin rejects it)
    ran = steps.deciding_pass()[0]
    assert (~steps.routed).any() and (steps.routed & ~steps.accepted & ran).any()
    if comparator is None:
        assert (steps.routed & ~ran).any() and steps.accepted.any()
    lengths = np.unique(np.unique(steps.episode_ids, return_counts=True)[1])
    assert lengths.max() == steps_per_episode and (steps_per_episode == 1 or lengths.min() < steps_per_episode)


def test_counterfactual_rows_bytes_match_reference(tmp_path, monkeypatch):
    world, manifest, edited = make_counterfactual_setup(seed=18)
    rows, _ = run_counterfactual(world, manifest, edited, seed=18)
    # one more row with an empty identity and outcomes at the rounding edges
    width = rows.columns.shape[1]
    rows = replace(
        rows,
        query_id=np.append(rows.query_id, 3),
        columns=np.vstack([rows.columns, np.zeros((1, width), np.intp)]),
        filled=np.vstack([rows.filled, np.zeros((1, width), bool)]),
        target_hit=np.append(rows.target_hit, False),
        **{f: np.append(getattr(rows, f), x) for f, x in zip(COUNTERFACTUAL_OUTCOMES, EDGE_CONFIDENCES)},
    )
    path = tmp_path / "counterfactual_rows.jsonl"
    for block in (protocol.ROW_BLOCK, 7):  # the shipped row block, and blocks that split the rows unevenly
        monkeypatch.setattr(protocol, "ROW_BLOCK", block)
        write_counterfactual_rows(rows, str(path))
        assert path.read_text() == reference_counterfactual_rows_text(rows)
    assert rows.target_hit.any() and (rows.filled.sum(axis=1) > 1).any()


def _counterfactual_world(kind):
    """A fitted world with routed steps that retrieve nothing, budget-blocked steps and rejecting guards,
    and edits of entries the policy retrieves and of some it does not."""
    spec = WorldSpec(
        n_examples=240, seed=77, steps_per_episode=4, topic_count=12, n_rule_entries=10, n_exemplar_entries=10,
        guard_pass_rate=(("format", 0.7),), edit_sensitive_rate=0.6, k_max=2,
    )
    world = generate_world(spec)
    _, test_ids = split_indices(240, 0.5, 0)
    grid = [PolicyConfig(tau=0.75, margin_m=0.02, bank_policy=kind, budget_B=2, guards_enabled=frozenset({"format"}))]
    manifest, policy, snaps = run_fit_stage(world, grid)
    return world, manifest, policy, snaps, test_ids, ["E001", "E004", "E007", "R002", "R005", "R008"]


@pytest.mark.parametrize("kind", BANK_POLICIES)
def test_counterfactual_matches_per_step_reference(tmp_path, kind):
    world, manifest, policy, snaps, test_ids, edited = _counterfactual_world(kind)
    rows, audit = run_counterfactual(world, manifest, edited, n_permutations=500, seed=3)
    path = tmp_path / "counterfactual_rows.jsonl"
    write_counterfactual_rows(rows, str(path))
    assert (path.read_text(), audit) == reference_counterfactual(
        world, policy, snaps, test_ids, edited, n_permutations=500, seed=3
    )
    # not vacuous: hits, non-hits, and routed rows that retrieved nothing, which n_non_hit leaves out
    assert audit["n_hit"] > 0 and audit["n_non_hit"] > 0
    assert audit["n_hit"] + audit["n_non_hit"] < audit["n_rows"]
    original = evaluate_policy(world, policy, snaps, test_ids)
    assert (~original.routed).any()
    if policy.bank_policy.startswith("cascade"):  # the second attempt decides some routed steps
        assert (original.routed & (original.deciding == 1) & original.filled[:, 1].any(axis=1)).any()


@pytest.mark.parametrize("governance_rounds", [0, 2])
def test_manifest_json_matches_reference(tmp_path, governance_rounds):
    _, manifest, _, _ = fitted_world(seed=6, governance_rounds=governance_rounds)
    manifest.save(str(tmp_path / "manifest.json"))
    assert (tmp_path / "manifest.json").read_text(encoding="utf-8") == reference_manifest_json(manifest) + "\n"


def _uncached(monkeypatch):
    """Clear the world's table cache before every read, so each read ranks afresh."""
    read = World._table

    def uncached(self, snapshots, rows):
        self._tables.clear()
        return read(self, snapshots, rows)

    monkeypatch.setattr(World, "_table", uncached)


def _governance_outputs(world):
    """A governed fit and an 8-round governance on one world: each stage's outputs, the
    report and the bank kind -> content hash of the tables kept after each stage."""
    fit_ids, _ = split_indices(world.spec.n_examples, 0.5, 0)
    grid = [PolicyConfig(tau=0.95, margin_m=-10.0, bank_policy=b) for b in ("dual", "cascade_rule_then_exemplar")]
    manifest, policy, _ = run_fit_stage(world, grid, governance_rounds=3)
    kept = [{k: t[0] for k, t in world._tables.items()}]
    report = run_governance_loop(world, policy, 8, fit_ids)
    kept.append({k: t[0] for k, t in world._tables.items()})
    outputs = (asdict(manifest), [(r.fit_accuracy, r.gap_close, r.retired_ids, r.bank_hashes) for r in report.rounds],
               report.selected_iteration, report.baseline_accuracy, report.oracle_accuracy)
    return outputs, report, kept


def test_governance_releases_tables_no_later_round_reads(monkeypatch):
    spec = WorldSpec(n_examples=200, seed=18, toxic_entry_rate=0.3, toxic_hurt_prob=0.95, k_max=1)
    outputs, report, kept = _governance_outputs(generate_world(spec))
    assert any(r.retired_ids for r in report.rounds[:-1])  # a bank changed between rounds
    for after_stage in kept:
        assert set(after_stage) <= {"rule", "exemplar"}  # one table per kind: an earlier round's is released
    assert kept[-1].items() <= report.rounds[-1].bank_hashes.items()  # only the last round's tables stay
    _uncached(monkeypatch)
    assert _governance_outputs(generate_world(spec))[0] == outputs


def test_fixed_replay_draws_no_query_rows(monkeypatch):
    # a fixed replay injects the original run's deciding injections, so it ranks no snapshot
    # and reads no retrieval table, even when every read would rank afresh
    world, manifest, edited = make_counterfactual_setup(seed=18)
    policy, snapshots, test_ids = protocol.frozen_inputs(world, manifest)
    original = evaluate_policy(world, policy, snapshots, test_ids)
    _uncached(monkeypatch)
    drawn = count_query_draws(monkeypatch)
    for version in ("repair", "corrupt"):
        replay = protocol.run_steps(world, policy, snapshots, original.example_ids, version, tuple(edited), frozen=original)
        assert replay.routed.any()
    assert drawn == []
    assert protocol.run_steps(world, policy, snapshots, original.example_ids, "repair", tuple(edited)).routed.any()
    assert drawn  # the same run without `frozen` ranks its rows


def test_counterfactual_releases_drifted_tables(monkeypatch):
    world, manifest, edited = make_counterfactual_setup(seed=18)
    rows, audit = run_counterfactual(world, manifest, edited, seed=18)
    kept = {k: t[0] for k, t in world._tables.items()}
    assert set(kept) <= {"rule", "exemplar"}  # one table per kind, whatever was read
    assert kept["exemplar"] != manifest.bank_hashes["exemplar"]  # the free reruns' drifted table replaced it
    _uncached(monkeypatch)
    world, manifest, edited = make_counterfactual_setup(seed=18)
    uncached = run_counterfactual(world, manifest, edited, seed=18)
    assert uncached[1] == audit
    assert all(np.array_equal(getattr(uncached[0], f.name), getattr(rows, f.name)) for f in fields(rows))
