"""World generator: determinism, outcome structure, confidence model."""

from pathlib import Path

import numpy as np
import pytest

from conftest import arith_shape_spec, reference_retrieve
from gatedmem.controller import GUARD_NAMES, PolicyConfig
from gatedmem.protocol import evaluate_oracle, evaluate_policy
from gatedmem.retrieval import Query
from gatedmem.stats import roc_auc
from gatedmem.util import derive_seed, parse_kv_file
from gatedmem.worldsim import (
    ConfidenceModel,
    WorldSpec,
    beta_separation_for_auc,
    generate_world,
)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_same_spec_same_world():
    spec = WorldSpec(n_examples=120, seed=21)
    w1, w2 = generate_world(spec), generate_world(spec)
    assert [e.baseline_correct for e in w1.examples] == [e.baseline_correct for e in w2.examples]
    assert [e.topic for e in w1.examples] == [e.topic for e in w2.examples]
    for kind in ("rule", "exemplar"):
        assert w1.banks[kind].freeze().content_hash == w2.banks[kind].freeze().content_hash
    for i in (0, 7, 55):
        assert w1.decode_baseline(i) == w2.decode_baseline(i)
        assert w1.decode_second(i, ("R000",)) == w2.decode_second(i, ("R000",))


def test_different_seed_different_world():
    w1 = generate_world(WorldSpec(n_examples=120, seed=1))
    w2 = generate_world(WorldSpec(n_examples=120, seed=2))
    assert w1.banks["rule"].freeze().content_hash != w2.banks["rule"].freeze().content_hash


def test_decode_baseline_repeatable():
    world = generate_world(WorldSpec(n_examples=30, seed=3))
    for i in range(30):
        assert world.decode_baseline(i) == world.decode_baseline(i)


def test_spec_flat_roundtrip_and_hash():
    spec = arith_shape_spec(seed=9)
    again = WorldSpec.from_flat(spec.to_flat())
    assert again == spec
    assert again.world_hash() == spec.world_hash()
    assert WorldSpec(seed=1).world_hash() != WorldSpec(seed=2).world_hash()


def test_world_hash_pinned():
    # The freeze manifest locks on this hash of the flat form, so any change
    # to a key, a default or a value format shows up here.
    shipped = WorldSpec.from_flat(parse_kv_file(str(Path(__file__).parents[1] / "configs" / "world.kv")))
    assert shipped.world_hash() == "5198279b6b669d9cc096459bf76b5ea47fa9f99eeac17196fd989b6d03f9eb03"
    spec = WorldSpec(
        guard_pass_rate=(("valid", 0.8), ("format", 0.9)),
        confidence_model=ConfidenceModel(baseline_auc=0.7, kappa=5.0),
        steps_per_episode=4,
        k_max=3,
        toxic_entry_rate=0.1,
    )
    assert spec.world_hash() == "30e04daa1b7a29b903a463b998579edaf43d4ab081ce290a78c0d5f04d432a37"


# ---------------------------------------------------------------------------
# generation structure
# ---------------------------------------------------------------------------

def test_base_accuracy_within_three_sigma():
    for seed in range(5):
        spec = WorldSpec(n_examples=800, base_accuracy=0.74, seed=seed)
        world = generate_world(spec)
        realized = np.mean([e.baseline_correct for e in world.examples])
        sigma = np.sqrt(0.74 * 0.26 / 800)
        assert abs(realized - 0.74) <= 3 * sigma


def test_base_accuracy_one_all_correct():
    world = generate_world(WorldSpec(n_examples=100, base_accuracy=1.0, seed=4))
    assert all(e.baseline_correct for e in world.examples)
    for i in range(100):
        action, _ = world.decode_baseline(i)
        assert world.action_utility(i, action) == 1.0


def test_degenerate_world_every_intervention_hurts():
    # applicability 0 and certain hurt: committed second passes only break things
    spec = WorldSpec(
        n_examples=200,
        seed=5,
        applicability_rate=(("rule", 0.0), ("exemplar", 0.0)),
        hurt_prob_given_inapplicable=1.0,
    )
    world = generate_world(spec)
    run = evaluate_policy(
        world, PolicyConfig(tau=1.0), world.snapshots(), list(range(200)),
        comparator="always_retrieve",
    )
    base = np.array([e.baseline_correct for e in world.examples], float)
    injected_rows = np.array(
        [bool(s.retrieved) for t in run.traces for s in sorted(t.steps, key=lambda s: s.example_id)]
    )
    # every injected row with a correct baseline flips to wrong: help-hurt maximally negative
    assert np.all(run.outcomes[injected_rows] == 0.0)
    helps = np.sum((base == 0) & (run.outcomes == 1))
    hurts = np.sum((base == 1) & (run.outcomes == 0))
    assert helps == 0 and hurts > 0


def test_invalid_probability_rejected():
    with pytest.raises(ValueError):
        WorldSpec(base_accuracy=1.2)
    with pytest.raises(ValueError):
        WorldSpec(applicability_rate=(("rule", -0.1), ("exemplar", 0.5)))


def test_episode_chunking():
    world = generate_world(WorldSpec(n_examples=10, seed=6, steps_per_episode=4))
    episodes = world.episodes()
    assert [members for _, members in episodes] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]


# ---------------------------------------------------------------------------
# decode_second semantics
# ---------------------------------------------------------------------------

def test_retry_returns_identical_pair():
    # deterministic decode: an empty injection repeats the baseline exactly
    world = generate_world(WorldSpec(n_examples=50, seed=7))
    for i in range(50):
        assert world.decode_second(i, ()) == world.decode_baseline(i)


def test_applicable_help_event_is_correct():
    world = generate_world(
        WorldSpec(
            n_examples=100,
            seed=8,
            base_accuracy=0.0,
            applicability_rate=(("rule", 1.0), ("exemplar", 1.0)),
            help_prob_given_applicable=1.0,
        )
    )
    for i in range(20):
        action, _ = world.decode_second(i, ("R000",))
        assert world.action_utility(i, action) == 1.0


def test_edit_sensitive_rows_flip_between_versions():
    world = generate_world(WorldSpec(n_examples=400, seed=9, edit_sensitive_rate=1.0))
    edited = ("E000",)
    flips = 0
    for i in range(400):
        repair = world.second_correct(i, edited, "repair", edited)
        corrupt = world.second_correct(i, edited, "corrupt", edited)
        sens = world.pair_draws(i, "E000").sensitivity
        if sens == "repair_better":
            assert repair and not corrupt
        elif sens == "corrupt_better":
            assert corrupt and not repair
        flips += repair != corrupt
    assert flips == 400  # sensitivity rate 1.0: every hit row flips


def test_non_hit_rows_identical_across_versions():
    world = generate_world(WorldSpec(n_examples=200, seed=10, edit_sensitive_rate=1.0))
    edited = ("E000",)
    for i in range(200):
        injected = ("R001", "R002")  # does not contain the edited entry
        assert world.second_correct(i, injected, "repair", edited) == world.second_correct(
            i, injected, "corrupt", edited
        )


def test_outcome_table_deterministic_and_bounded():
    world = generate_world(WorldSpec(n_examples=40, seed=11))
    snaps = world.snapshots()
    for i in (0, 13, 39):
        t1 = world.outcome_table(i, snaps)
        t2 = world.outcome_table(i, snaps)
        assert t1.second_correct_by_context == t2.second_correct_by_context
        for v in t1.second_correct_by_context.values():
            assert isinstance(v, bool)
        base = 1.0 if t1.baseline_correct else 0.0
        for (ctx, ver), correct in t1.second_correct_by_context.items():
            delta = (1.0 if correct else 0.0) - base
            assert delta in (-1.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# confidence model
# ---------------------------------------------------------------------------

def test_beta_separation_solver_monotone():
    d_low = beta_separation_for_auc(0.6, 10.0)
    d_high = beta_separation_for_auc(0.9, 10.0)
    assert 0 < d_low < d_high
    assert beta_separation_for_auc(0.4, 10.0) < 0  # anti-informative targets supported


def test_realized_help_hurt_auc_in_band():
    # target AUC 0.8: realized help-vs-hurt separation within [0.75, 0.85]
    spec = WorldSpec(
        n_examples=1500,
        seed=12,
        base_accuracy=0.5,
        applicability_rate=(("rule", 0.5), ("exemplar", 0.5)),
        help_prob_given_applicable=0.7,
        hurt_prob_given_inapplicable=0.7,
        confidence_model=ConfidenceModel(second_auc_rule=0.8, second_auc_exemplar=0.8),
    )
    world = generate_world(spec)
    snaps = world.snapshots()
    scores, labels = [], []
    for i in range(1500):
        injected = world.context_injection(i, "exemplar", snaps)
        if not injected:
            continue
        base = world.examples[i].baseline_correct
        _, conf = world.decode_second(i, injected)
        correct = world.second_correct(i, injected)
        if correct and not base:
            scores.append(conf)
            labels.append(1)
        elif base and not correct:
            scores.append(conf)
            labels.append(0)
    assert len(scores) >= 500
    auc = roc_auc(scores, labels)
    assert 0.75 <= auc <= 0.85


def test_signal_noise_ordering():
    # heavier-noise signals track the latent confidence less faithfully
    world = generate_world(WorldSpec(n_examples=800, seed=13))
    correct = np.array([e.baseline_correct for e in world.examples])
    aucs = {}
    for signal in ("mean_logprob", "sum_logprob", "first_token"):
        confs = np.array([world.decode_baseline(i, signal)[1] for i in range(800)])
        aucs[signal] = roc_auc(confs, correct)
    assert aucs["mean_logprob"] >= aucs["sum_logprob"] >= aucs["first_token"]
    assert aucs["first_token"] < aucs["mean_logprob"] - 0.05


# ---------------------------------------------------------------------------
# structural reproduction targets
# ---------------------------------------------------------------------------

def test_oracle_reachable_accuracy_shape():
    # base 0.74 worlds tuned so the paired upper bound sits near 0.845
    accs = []
    for seed in range(4):
        world = generate_world(arith_shape_spec(seed=300 + seed))
        run = evaluate_oracle(world, world.snapshots(), list(range(600)))
        accs.append(run.outcomes.mean())
    assert abs(np.mean(accs) - 0.845) <= 0.02


def test_exposure_averaging_insufficiency():
    # symmetric help/hurt at applicability 0.5 and base accuracy 0.5, k=1 so
    # the committed intervention's applicability equals the entry rate:
    # always-retrieve nets out to ~0 while the oracle stays clearly positive
    always_deltas, oracle_deltas = [], []
    for seed in range(12):
        spec = WorldSpec(
            n_examples=400,
            seed=700 + seed,
            base_accuracy=0.5,
            applicability_rate=(("rule", 0.5), ("exemplar", 0.5)),
            help_prob_given_applicable=0.6,
            hurt_prob_given_inapplicable=0.6,
            k_max=1,
        )
        world = generate_world(spec)
        snaps = world.snapshots()
        ids = list(range(400))
        base = evaluate_policy(world, PolicyConfig(), snaps, ids, comparator="baseline")
        always = evaluate_policy(world, PolicyConfig(), snaps, ids, comparator="always_retrieve")
        oracle = evaluate_oracle(world, snaps, ids)
        always_deltas.append(always.outcomes.mean() - base.outcomes.mean())
        oracle_deltas.append(oracle.outcomes.mean() - base.outcomes.mean())
    assert abs(np.mean(always_deltas)) <= 0.03
    assert np.mean(oracle_deltas) > 0.05


def test_drifted_snapshot_changes_only_edited_embeddings():
    world = generate_world(WorldSpec(n_examples=50, seed=14))
    edits = world.default_edits(["E001", "E005"], "corrupt")
    snap = world.banks["exemplar"].freeze()
    drifted = world.drifted_snapshot("exemplar", edits)
    assert drifted.entry_ids == snap.entry_ids
    for k, eid in enumerate(snap.entry_ids):
        same = np.allclose(drifted.embeddings[k], snap.embeddings[k])
        assert same == (eid not in ("E001", "E005"))
    # drift depends on the edit kind
    drifted_repair = world.drifted_snapshot("exemplar", world.default_edits(["E001"], "repair"))
    i = snap.entry_ids.index("E001")
    assert not np.allclose(drifted_repair.embeddings[i], drifted.embeddings[i])


# ---------------------------------------------------------------------------
# retrieval tables and memoized draws
# ---------------------------------------------------------------------------

def _multi_step_spec(seed):
    return WorldSpec(
        n_examples=400,
        steps_per_episode=8,
        toxic_entry_rate=0.2,
        guard_pass_rate=(("format", 0.8), ("progress", 0.9)),
        seed=seed,
    )


@pytest.mark.parametrize(
    "spec",
    [
        *[arith_shape_spec(seed=s) for s in (0, 1, 2)],
        *[_multi_step_spec(s) for s in (3, 4)],
        # k_max larger than the bank, every entry above the threshold, an empty bank
        WorldSpec(n_examples=100, n_rule_entries=3, n_exemplar_entries=0, k_max=5, retrieval_threshold=-1.0),
    ],
    ids=["shipped-0", "shipped-1", "shipped-2", "multi-step-3", "multi-step-4", "small-banks"],
)
def test_world_retrieve_matches_per_query_reference(spec):
    world = generate_world(spec)
    snapshots = list(world.snapshots().values())
    for kind, bank in world.banks.items():
        ids = [e.id for e in bank.active_entries()]
        snapshots.append(world.drifted_snapshot(kind, world.default_edits(ids[::3], "repair")))
        governed = bank.copy()
        governed.retain(ids[::2])
        snapshots.append(governed.freeze())
    for snap in snapshots:
        for _ in range(2):  # the second pass reads the table built by the first
            for idx, ex in enumerate(world.examples):
                want = reference_retrieve(Query(idx, ex.embedding), snap, spec.retrieval_threshold, spec.k_max)
                got = world.retrieve(idx, snap)
                assert got.retrieved_ids == want.retrieved_ids, (idx, snap.content_hash)
                assert got.similarities == pytest.approx(want.similarities, rel=0, abs=1e-12)
    assert world.retrieve(0, world.banks["rule"].freeze()).retrieved_ids  # not vacuous


def test_memoized_guard_results_equal_fresh_draws():
    spec = WorldSpec(n_examples=200, seed=4, guard_pass_rate=(("format", 0.6), ("progress", 0.9)))
    world = generate_world(spec)

    def fresh(idx):
        return {
            g: spec.guard_rate(g) >= 1.0
            or bool(np.random.default_rng(derive_seed(spec.seed, "guard", idx, g)).random() < spec.guard_rate(g))
            for g in GUARD_NAMES
        }

    for _ in range(2):  # the second pass is served from the memo
        assert [world.guard_results(i) for i in range(spec.n_examples)] == [fresh(i) for i in range(spec.n_examples)]
    assert 0 < sum(not all(world.guard_results(i).values()) for i in range(spec.n_examples)) < spec.n_examples
