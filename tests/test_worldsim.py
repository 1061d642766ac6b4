"""World generator: determinism, outcome structure, confidence model."""

import hashlib
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    arith_shape_spec,
    count_query_draws,
    reference_baseline,
    reference_outcome_table,
    reference_pair_table,
    reference_query_embeddings,
    reference_retrieve,
    utility,
)
from gatedmem import retrieval, worldsim
from gatedmem.controller import GUARD_NAMES, PolicyConfig
from gatedmem.protocol import evaluate_oracle, evaluate_policy
from gatedmem.retrieval import Query, retrieval_table
from gatedmem.stats import roc_auc
from gatedmem.util import derive_seed, parse_kv_file
from gatedmem.worldsim import (
    PAIR_APPLICABLE,
    PAIR_CORRUPT_BETTER,
    PAIR_HELP,
    PAIR_HURT,
    PAIR_REPAIR_BETTER,
    ConfidenceModel,
    WorldSpec,
    _auc,
    _betainc,
    beta_separation_for_auc,
    generate_world,
    philox_uniforms,
)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def _second_pass(world, rows, injected, version="original", edited_ids=()):
    """second_pass with every row injecting the same entry ids."""
    cols = np.tile(world.columns(injected), (len(rows), 1))
    pairs = world._pair_bytes(np.asarray(rows, np.intp)[:, None], cols)
    return world.second_pass(rows, cols, np.ones(cols.shape, bool), pairs, version, edited_ids)


def _redrawn(world, rows):
    """The query rows a world draws for ascending distinct example rows, stacked."""
    rows = np.asarray(rows, np.intp)
    blocks = list(world._query_rows(rows))
    assert np.array_equal(np.concatenate([b for b, _ in blocks] or [rows]), rows)
    return np.concatenate([q for _, q in blocks]) if blocks else np.zeros((0, world.spec.embedding_dim))


def test_same_spec_same_world():
    spec = WorldSpec(n_examples=120, seed=21)
    w1, w2 = generate_world(spec), generate_world(spec)
    rows = np.arange(120)
    assert _redrawn(w1, rows).tobytes() == _redrawn(w2, rows).tobytes()  # the examples' topics
    for kind in ("rule", "exemplar"):
        assert w1.banks[kind].freeze().content_hash == w2.banks[kind].freeze().content_hash

    def decodes(world):
        return np.stack([*world.baseline_pass(range(120)), *_second_pass(world, range(120), ("R000",))])

    assert np.array_equal(decodes(w1), decodes(w2))


def test_different_seed_different_world():
    w1 = generate_world(WorldSpec(n_examples=120, seed=1))
    w2 = generate_world(WorldSpec(n_examples=120, seed=2))
    assert w1.banks["rule"].freeze().content_hash != w2.banks["rule"].freeze().content_hash


def test_decode_baseline_repeatable():
    world = generate_world(WorldSpec(n_examples=30, seed=3))
    first = world.baseline_pass(range(30))
    for i in range(30):
        correct, conf = world.baseline_pass([i])
        assert (correct[0], conf[0]) == (first[0][i], first[1][i])


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
        realized = world.baseline_pass(range(800))[0].mean()
        sigma = np.sqrt(0.74 * 0.26 / 800)
        assert abs(realized - 0.74) <= 3 * sigma


def test_base_accuracy_one_all_correct():
    world = generate_world(WorldSpec(n_examples=100, base_accuracy=1.0, seed=4))
    correct, _ = world.baseline_pass(range(100))
    assert correct.all()
    for i, c in enumerate(correct.tolist()):
        assert utility(world, i, world.answer(i, c, second=False)) == 1.0


def test_degenerate_world_every_intervention_hurts():
    # applicability 0 and certain hurt: committed second passes only break things
    spec = WorldSpec(
        n_examples=200,
        seed=5,
        applicability_rate=(("rule", 0.0), ("exemplar", 0.0)),
        hurt_prob_given_inapplicable=1.0,
    )
    world = generate_world(spec)
    steps = evaluate_policy(
        world, PolicyConfig(tau=1.0), world.snapshots(), list(range(200)),
        comparator="always_retrieve",
    )
    base = world.baseline_pass(range(200))[0].astype(float)
    outcomes = steps.final_correct.astype(float)  # in example order
    injected_rows = steps.filled[:, 0].any(axis=1)  # one attempt per step
    assert injected_rows.any()
    # every injected row with a correct baseline flips to wrong: help-hurt maximally negative
    assert np.all(outcomes[injected_rows] == 0.0)
    helps = np.sum((base == 0) & (outcomes == 1))
    hurts = np.sum((base == 1) & (outcomes == 0))
    assert helps == 0 and hurts > 0


def test_invalid_probability_rejected():
    with pytest.raises(ValueError):
        WorldSpec(base_accuracy=1.2)
    with pytest.raises(ValueError):
        WorldSpec(applicability_rate=(("rule", -0.1), ("exemplar", 0.5)))


def test_largest_kappa_builds():
    # the bound is inclusive; larger values are refused by name (test_cli's malformed-config cases)
    world = generate_world(WorldSpec(n_examples=50, confidence_model=ConfidenceModel(kappa=1000.0)))
    assert world.spec.confidence_model.kappa == worldsim.KAPPA_MAX


def test_episode_chunking():
    world = generate_world(WorldSpec(n_examples=10, seed=6, steps_per_episode=4))
    steps = evaluate_policy(world, PolicyConfig(), world.snapshots(), [9, 0, 5, 1, 2, 3, 4, 6, 7, 8])
    assert steps.episode_ids.tolist() == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]
    assert steps.example_ids.tolist() == list(range(10))
    assert steps.step_index.tolist() == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]


# ---------------------------------------------------------------------------
# second-pass semantics
# ---------------------------------------------------------------------------

def test_retry_returns_identical_pair():
    # deterministic decode: an empty injection repeats the baseline exactly
    world = generate_world(WorldSpec(n_examples=50, seed=7))
    again = _second_pass(world, range(50), ())
    assert all(np.array_equal(a, b) for a, b in zip(again, world.baseline_pass(range(50))))


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
    assert _second_pass(world, range(20), ("R000",))[0].all()


def test_edit_sensitive_rows_flip_between_versions():
    world = generate_world(WorldSpec(n_examples=400, seed=9, edit_sensitive_rate=1.0))
    edited = ("E000",)
    flips = 0
    repairs = _second_pass(world, range(400), edited, "repair", edited)[0].tolist()
    corrupts = _second_pass(world, range(400), edited, "corrupt", edited)[0].tolist()
    bits = world._pair_bytes(np.arange(400), world.columns(edited)[0]).tolist()
    for repair, corrupt, b in zip(repairs, corrupts, bits):
        if b & PAIR_REPAIR_BETTER:
            assert repair and not corrupt
        elif b & PAIR_CORRUPT_BETTER:
            assert corrupt and not repair
        flips += repair != corrupt
    assert flips == 400  # sensitivity rate 1.0: every hit row flips


def test_non_hit_rows_identical_across_versions():
    world = generate_world(WorldSpec(n_examples=200, seed=10, edit_sensitive_rate=1.0))
    edited = ("E000",)
    injected = ("R001", "R002")  # does not contain the edited entry
    repair = _second_pass(world, range(200), injected, "repair", edited)[0]
    assert np.array_equal(repair, _second_pass(world, range(200), injected, "corrupt", edited)[0])


def test_outcome_table_deterministic_and_bounded():
    # the columns gen-world writes to outcome_table.json
    world = generate_world(WorldSpec(n_examples=40, seed=11))
    snaps, rows = world.snapshots(), np.arange(40)
    t1 = world.decode_contexts(rows, snaps)
    t2 = world.decode_contexts(rows, snaps)
    assert list(t1) == list(t2) == ["dual", "rule", "exemplar"]
    base = world.baseline_pass(rows)
    for context, (injects, correct, conf) in t1.items():
        assert injects.dtype == correct.dtype == bool and correct.shape == conf.shape == (40,)
        assert ((conf >= 0.0) & (conf <= 1.0)).all()
        for x, y in zip(t1[context], t2[context]):
            assert np.array_equal(x, y)
        for got, want in zip((correct, conf), base):  # a row that injects nothing repeats the baseline decode
            assert np.array_equal(got[~injects], want[~injects])


def test_outcome_table_matches_per_example_reference():
    for spec in (WorldSpec(n_examples=120, seed=21), _multi_step_spec(22)):
        world = generate_world(spec)
        snaps = world.snapshots()
        passes = world.decode_contexts(np.arange(spec.n_examples), snaps)
        for i in range(spec.n_examples):
            got = {c: (bool(p[0][i]), bool(p[1][i]), float(p[2][i])) for c, p in passes.items()}
            assert got == reference_outcome_table(world, i, snaps)
            assert bool(world.baseline_pass([i])[0][0]) == (reference_baseline(world, i)[0] == world.true_action(i))


# ---------------------------------------------------------------------------
# confidence model
# ---------------------------------------------------------------------------

def test_beta_separation_solver_monotone():
    d_low = beta_separation_for_auc(0.6, 10.0)
    d_high = beta_separation_for_auc(0.9, 10.0)
    assert 0 < d_low < d_high
    assert beta_separation_for_auc(0.4, 10.0) < 0  # anti-informative targets supported


# every tolerance below was fixed before the first run
SOLVE_TARGETS = [round(0.02 + 0.02 * k, 2) for k in range(49)]  # 0.02 .. 0.98
SOLVE_KAPPAS = (0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 1000.0)  # 1000: WorldSpec's largest kappa


@pytest.mark.parametrize("kappa", SOLVE_KAPPAS)
def test_beta_separation_hits_target_auc(kappa):
    for t in SOLVE_TARGETS:
        d = beta_separation_for_auc(t, kappa)
        assert -0.49 <= d <= 0.49
        assert abs(_auc(d, kappa) - t) <= 1e-9, (t, d)


@pytest.mark.parametrize("kappa", SOLVE_KAPPAS)
def test_beta_separation_antisymmetric(kappa):
    for t in SOLVE_TARGETS:
        assert beta_separation_for_auc(1.0 - t, kappa) == -beta_separation_for_auc(t, kappa)
    assert beta_separation_for_auc(0.5, kappa) == 0.0


def _binomial_tail(n, x, k):
    return sum(math.comb(n, j) * x**j * (1 - x) ** (n - j) for j in range(k, n + 1))


def test_betainc_integer_identity():
    # I_x(a, b) = P(Binomial(a + b - 1, x) >= a) for integer a, b
    for a in (1, 2, 3, 7, 20):
        for b in (1, 2, 5, 13, 30):
            for x in (1e-3, 0.1, 0.3, 0.5, 0.62, 0.9, 0.999):
                assert abs(_betainc(a, b, x) - _binomial_tail(a + b - 1, x, a)) <= 1e-12, (a, b, x)


def test_auc_integer_identity():
    # with integer a, b: P(hi > lo) = E_hi[P(Binomial(kappa - 1, hi) >= b)]
    # = sum_j C(kappa-1, j) B(a + j, kappa - 1 - j + b) / B(a, b), exactly in rationals
    def beta_fn(p, q):
        return Fraction(math.factorial(p - 1) * math.factorial(q - 1), math.factorial(p + q - 1))

    for kappa in (2, 5, 10, 50):
        for a in sorted({1, kappa // 2, kappa - 1, (3 * kappa) // 4} - {0, kappa}):
            b = kappa - a
            exact = sum(
                math.comb(kappa - 1, j) * beta_fn(a + j, kappa - 1 - j + b) for j in range(b, kappa)
            ) / beta_fn(a, b)
            assert abs(_auc(a / kappa - 0.5, kappa) - float(exact)) <= 1e-12, (kappa, a)


@pytest.mark.parametrize("t, kappa", [(0.75, 10.0), (0.3, 2.0), (0.9, 0.5)])
def test_beta_separation_monte_carlo(t, kappa):
    # 4M pairs: the realized AUC is within 5 binomial sigma (<= 1.25e-3) of the target
    d = beta_separation_for_auc(t, kappa)
    rng = np.random.default_rng(2026)
    n, chunk, wins = 4_000_000, 1_000_000, 0.0
    for _ in range(n // chunk):
        hi = rng.beta((0.5 + d) * kappa, (0.5 - d) * kappa, chunk)
        lo = rng.beta((0.5 - d) * kappa, (0.5 + d) * kappa, chunk)
        wins += np.count_nonzero(hi > lo) + 0.5 * np.count_nonzero(hi == lo)
    assert abs(wins / n - t) <= 5 * math.sqrt(t * (1 - t) / n)


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
    rows = range(1500)
    base, _ = world.baseline_pass(rows)
    cols, filled, pairs = world.injected(rows, snaps, ("exemplar",))
    correct, conf = world.second_pass(rows, cols, filled, pairs)
    flipped = filled.any(axis=1) & (correct != base)
    assert flipped.sum() >= 500
    auc = roc_auc(conf[flipped].tolist(), correct[flipped].tolist())
    assert 0.75 <= auc <= 0.85


# ---------------------------------------------------------------------------
# structural reproduction targets
# ---------------------------------------------------------------------------

def test_oracle_reachable_accuracy_shape():
    # base 0.74 worlds tuned so the paired upper bound sits near 0.845
    accs = []
    for seed in range(4):
        world = generate_world(arith_shape_spec(seed=300 + seed))
        correct, _, _ = evaluate_oracle(world, world.snapshots(), list(range(600)))
        accs.append(correct.mean())
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
        base = world.baseline_pass(ids)[0].mean()
        always = evaluate_policy(world, PolicyConfig(), snaps, ids, comparator="always_retrieve")
        oracle, _, _ = evaluate_oracle(world, snaps, ids)
        always_deltas.append(always.final_correct.mean() - base)
        oracle_deltas.append(oracle.mean() - base)
    assert abs(np.mean(always_deltas)) <= 0.03
    assert np.mean(oracle_deltas) > 0.05


def test_drifted_snapshot_changes_only_edited_embeddings():
    world = generate_world(WorldSpec(n_examples=50, seed=14))
    snap = world.banks["exemplar"].freeze()
    # ids of another bank are skipped
    drifted = world.drifted_snapshot("exemplar", "corrupt", ["E001", "E005", "R002"])
    assert drifted.entry_ids == snap.entry_ids
    assert drifted.payloads == snap.payloads  # only the embeddings drift
    for k, eid in enumerate(snap.entry_ids):
        same = np.allclose(drifted.embeddings[k], snap.embeddings[k])
        assert same == (eid not in ("E001", "E005"))
    # drift depends on the content version
    drifted_repair = world.drifted_snapshot("exemplar", "repair", ["E001"])
    i = snap.entry_ids.index("E001")
    assert not np.allclose(drifted_repair.embeddings[i], drifted.embeddings[i])
    # a retired entry is skipped: nothing active is edited, so the snapshot is the frozen one
    world.banks["exemplar"].retain([e for e in snap.entry_ids if e != "E001"])
    kept = world.banks["exemplar"].freeze()
    assert world.drifted_snapshot("exemplar", "repair", ["E001"]).content_hash == kept.content_hash


@pytest.mark.parametrize(
    "spec", [WorldSpec(n_examples=30, seed=14), WorldSpec(n_examples=30, topic_count=40, embedding_dim=16, seed=2)]
)
def test_topic_entry_and_drifted_embeddings_equal_per_topic_reference(spec):
    # every topic vector is drawn at build; each entry row blends its own normals with its topic's
    # vector alone, the topic its payload names; a drifted entry is keyed on its drift topic
    world = generate_world(spec)
    dim, weight = spec.embedding_dim, spec.topic_weight
    assert world._topic_vecs.shape == (spec.topic_count, dim)
    for t in range(spec.topic_count):
        assert world._topic_vecs[t].tobytes() == retrieval.topic_vector(t, dim).tobytes()
    key = derive_seed(spec.seed, "entry-embedding")
    normals = np.random.Generator(np.random.Philox(key=key)).standard_normal((len(world.entry_ids), dim))
    snaps = world.snapshots()
    got = np.concatenate([snaps["rule"].embeddings, snaps["exemplar"].embeddings])
    payloads = snaps["rule"].payloads + snaps["exemplar"].payloads
    for i, payload in enumerate(payloads):
        topic = int(payload.rsplit(" ", 1)[1])
        one = retrieval.topic_vector(topic, dim)[None, :]
        want = retrieval.blend_rows(normals[i:i + 1].copy(), np.zeros(1, np.intp), one, weight)[0]
        assert got[i].tobytes() == want.tobytes(), world.entry_ids[i]
    edited = ["E001", "E007", "E033", "R002"]
    for version in ("repair", "corrupt"):
        drifted = world.drifted_snapshot("exemplar", version, edited)
        for entry_id in edited[:3]:
            rng = np.random.default_rng(derive_seed(spec.seed, "drift", entry_id, version))
            topic_vec = retrieval.topic_vector(int(rng.integers(spec.topic_count)), dim)
            want = retrieval.embed_key((spec.seed, "entry", entry_id, "drift", version), dim, topic_vec, weight)
            assert drifted.embeddings[drifted.entry_ids.index(entry_id)].tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# retrieval tables
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
        ids = list(bank.active_columns()[0])
        snapshots.append(world.drifted_snapshot(kind, "repair", ids[::3]))
        governed = bank.copy()
        governed.retain(ids[::2])
        snapshots.append(governed.freeze())
    rows = range(spec.n_examples)
    for snap in snapshots:
        want = [
            reference_retrieve(Query(idx, q), snap, spec.retrieval_threshold, spec.k_max).retrieved_ids
            for idx, q in enumerate(reference_query_embeddings(spec))
        ]
        for _ in range(2):  # the second read uses the table built by the first
            cols, filled, _ = world.injected(rows, {"bank": snap}, ("bank",))
            got = [tuple(world.entry_ids[c] for c in cs[f].tolist()) for cs, f in zip(cols, filled)]
            assert got == want, snap.content_hash
    assert world.injected([0], world.snapshots(), ("rule",))[1].any()  # not vacuous


def _full_table(world, snap, dense_pairs):
    """(columns, counts, pairs) of every example, ranked at once by retrieval_table on the eager
    query matrix, with the dense pair-latent draw read at the ranked cells."""
    queries = reference_query_embeddings(world.spec)
    ranked, counts = retrieval_table(queries, snap, world.spec.retrieval_threshold, world.spec.k_max)
    columns = world.columns(snap.entry_ids)[ranked]
    return columns, counts, np.take_along_axis(dense_pairs, columns, axis=1)


@pytest.mark.parametrize(
    "spec",
    [
        _multi_step_spec(7),
        WorldSpec(n_examples=230, seed=8, k_max=3, retrieval_threshold=0.3),
        WorldSpec(n_examples=90, seed=9, n_rule_entries=4, n_exemplar_entries=0, k_max=6),
    ],
    ids=["multi-step-7", "k3", "empty-exemplar-bank"],
)
def test_lazy_table_rows_equal_full_retrieval_table(monkeypatch, spec):
    # 8 query rows drawn and ranked per block at embedding_dim 64, so most
    # reads span several blocks
    monkeypatch.setattr(worldsim, "TABLE_BLOCK_CELLS", 555)
    world = generate_world(spec)
    n = spec.n_examples
    snaps = {kind: [bank.freeze()] for kind, bank in world.banks.items()}
    for kind, bank in world.banks.items():
        ids = list(bank.active_columns()[0])
        governed = bank.copy()
        governed.retain(ids[1::2])
        emptied = bank.copy()
        emptied.retain([])
        drifted = world.drifted_snapshot(kind, "corrupt", ids[::3])
        snaps[kind] += [drifted, governed.freeze(), emptied.freeze()]
    dense = reference_pair_table(world)
    want = {s.content_hash: _full_table(world, s, dense) for kind_snaps in snaps.values() for s in kind_snaps}
    rng = np.random.default_rng(spec.seed)
    for kind, kind_snaps in snaps.items():
        world._tables.pop(kind, None)  # reads of the kind before ranked rows with another kind's snapshot
        read = {}  # content hash -> rows read since the snapshot last replaced the table
        for it in range(24):
            snap = kind_snaps[rng.integers(len(kind_snaps))]
            if world._tables.get(kind, (None,))[0] != snap.content_hash:
                read[snap.content_hash] = np.zeros(n, bool)
            # random subsets in random order, repeats within a read, rows read before and the empty read
            size = [0, 1, 7, 60, n][it % 5]
            rows = rng.integers(n, size=size) if it % 2 else rng.permutation(n)[:size]
            # half the reads rank this kind with the other kind's first snapshot, on one query draw
            other = [kind_snaps[0] for k, kind_snaps in snaps.items() if k != kind][: it % 2]
            for s, table in zip([snap, *other], world._table([snap, *other], rows)):
                columns, counts, pairs = (x[rows] for x in table)
                cols_want, counts_want, pairs_want = (x[rows] for x in want[s.content_hash])
                assert columns.shape == cols_want.shape and columns.tobytes() == cols_want.tobytes()
                assert counts.tobytes() == counts_want.tobytes()
                assert pairs.shape == pairs_want.shape and pairs.tobytes() == pairs_want.tobytes()
            read[snap.content_hash][rows] = True
            assert set(world._tables) <= set(world.banks)  # one table per kind
            ranked = world._tables[kind][4]
            assert np.array_equal(ranked, read[snap.content_hash])  # only the rows read are ranked
        (got,) = world._table([snap], np.arange(n))
        for x, x_want in zip(got, want[snap.content_hash]):
            assert x.tobytes() == x_want.tobytes()
    assert any(want[s.content_hash][1].any() for s in snaps["rule"])  # not vacuous
    assert any(want[s.content_hash][2].any() for s in snaps["rule"])


def test_single_bank_reads_share_one_query_draw(monkeypatch):
    # a read ranks every snapshot the caller holds, so a rule read then an exemplar read give the
    # dual read's tables and draw each query row once, as the dual read does
    spec = _multi_step_spec(12)
    rows = np.random.default_rng(12).permutation(spec.n_examples)[:150]
    drawn = count_query_draws(monkeypatch)
    dual = generate_world(spec)
    want = dual.injected(rows, dual.snapshots(), ("rule", "exemplar"))
    assert np.array_equal(np.sort(np.concatenate(drawn)), np.sort(rows))
    drawn.clear()
    world = generate_world(spec)
    snaps = world.snapshots()
    rule = world.injected(rows, snaps, ("rule",))
    exemplar = world.injected(rows, snaps, ("exemplar",))
    for got, x in zip(zip(rule, exemplar), want):
        joined = np.concatenate(got, axis=1)
        assert joined.shape == x.shape and joined.tobytes() == x.tobytes()
    assert np.array_equal(np.sort(np.concatenate(drawn)), np.sort(rows))
    assert rule[1].any() and exemplar[1].any()  # not vacuous


def test_runs_differing_in_budget_or_cooldown_share_one_read(monkeypatch):
    # a run reads every step under tau, routed or not, so a second run that changes only budget
    # or cooldown finds every row it routes already ranked and draws no query row
    spec = _multi_step_spec(5)
    ids = np.arange(0, spec.n_examples, 2)
    first, second = PolicyConfig(tau=0.6, budget_B=1), PolicyConfig(tau=0.6, budget_B=3, cooldown=2)
    drawn = count_query_draws(monkeypatch)
    world = generate_world(spec)
    snaps = world.snapshots()
    a = evaluate_policy(world, first, snaps, ids)
    assert len(drawn)
    drawn.clear()
    b = evaluate_policy(world, second, snaps, ids)
    assert drawn == []
    assert not np.array_equal(a.routed, b.routed) and (b.routed & ~a.routed).any()  # not vacuous
    fresh = generate_world(spec)
    want = evaluate_policy(fresh, second, fresh.snapshots(), ids)
    for name in ("routed", "columns", "filled", "pairs", "accepted_attempt", "second_correct"):
        assert getattr(b, name).tobytes() == getattr(want, name).tobytes(), name


# ---------------------------------------------------------------------------
# dense draws: invariance and realized rates
# ---------------------------------------------------------------------------

def _entry_ids(spec):
    return [f"R{i:03d}" for i in range(spec.n_rule_entries)] + [f"E{i:03d}" for i in range(spec.n_exemplar_entries)]


def _all_draws(world, order):
    """Every draw a world exposes, read in the given example order."""
    columns = world.columns(_entry_ids(world.spec))
    return {
        idx: (
            world._pair_bytes(idx, columns).tolist(),
            [world.guards_pass([idx], {g}).item() for g in GUARD_NAMES],
            tuple(x.item() for x in world.baseline_pass([idx])),
            [tuple(x.item() for x in _second_pass(world, [idx], ids)) for ids in (("R000",), ("E001", "R002"))],
        )
        for idx in order
    }


def test_draws_do_not_depend_on_block_size(monkeypatch):
    spec = _multi_step_spec(5)
    default = generate_world(spec)
    monkeypatch.setattr(worldsim, "TABLE_BLOCK_CELLS", 7 * (spec.n_rule_entries + spec.n_exemplar_entries) + 3)
    monkeypatch.setattr(retrieval, "TABLE_BLOCK_CELLS", 5 * spec.embedding_dim + 1)
    small_blocks = generate_world(spec)
    order = range(spec.n_examples)
    assert _all_draws(small_blocks, order) == _all_draws(default, order)
    rows = np.arange(spec.n_examples)
    assert _redrawn(small_blocks, rows).tobytes() == reference_query_embeddings(spec).tobytes()


@pytest.mark.parametrize("block_cells", [None, 3 * 64 + 5], ids=["default-blocks", "3-row-blocks"])
@pytest.mark.parametrize("n", [1, 63, 64, 2001])
def test_redrawn_query_rows_equal_eager_draw(monkeypatch, n, block_cells):
    if block_cells is not None:
        monkeypatch.setattr(worldsim, "TABLE_BLOCK_CELLS", block_cells)
    spec = WorldSpec(n_examples=n, seed=40 + n)
    want = reference_query_embeddings(spec)
    rng = np.random.default_rng(n)
    last_block = np.arange((n - 1) // 64 * 64, n)
    subsets = [np.unique(rng.integers(n, size=size)) for size in (1, 5, n // 3 + 1, n)]
    sparse = np.arange(n)[rng.integers(65):: 65]  # a row in most 64-row blocks
    for first in (last_block[-1:], last_block, np.arange(n)):
        world = generate_world(spec)
        # a first read, then reads in random order, each twice
        reads = [first, *[subsets[i] for i in rng.permutation(len(subsets))], sparse, first]
        for rows in reads + reads[::-1]:
            assert _redrawn(world, rows).tobytes() == want[rows].tobytes()


def test_interleaved_query_reads_equal_eager_draw(monkeypatch):
    # two reads of one world, advanced a block at a time in turn, each see their own rows
    monkeypatch.setattr(worldsim, "TABLE_BLOCK_CELLS", 5 * 64)
    spec = WorldSpec(n_examples=700, seed=43)
    want, world = reference_query_embeddings(spec), generate_world(spec)
    reads = [np.arange(0, 700, 2), np.arange(0, 700, 3)]
    blocks = [[], []]
    for pair in itertools.zip_longest(*[world._query_rows(rows) for rows in reads]):
        for got, block in zip(blocks, pair):
            if block is not None:
                got.append(block)
    for rows, got in zip(reads, blocks):
        assert len(got) > 1
        assert np.array_equal(np.concatenate([b for b, _ in got]), rows)
        assert np.concatenate([q for _, q in got]).tobytes() == want[rows].tobytes()


def test_draws_do_not_depend_on_retirement_drift_or_order():
    spec = _multi_step_spec(6)
    reference = _all_draws(generate_world(spec), range(spec.n_examples))
    world = generate_world(spec)
    for kind, bank in world.banks.items():
        ids = list(bank.active_columns()[0])
        world.drifted_snapshot(kind, "corrupt", ids[::4])
        bank.retain(ids[::3])
    assert _all_draws(world, reversed(range(spec.n_examples))) == reference


def test_philox_kernel_matches_numpy_philox():
    rng = np.random.default_rng(31)
    keys = [2**63, 2**64 - 1, 2**64 + 7, *rng.integers(2**63, 2**64, size=4, dtype=np.uint64).tolist()]
    for key in keys:
        counters = [0, 2**32 - 1, 2**63, 2**64 - 2, *rng.integers(0, 2**64 - 1, size=12, dtype=np.uint64).tolist()]
        want = [np.random.Generator(np.random.Philox(key=key, counter=c)).random(4) for c in counters]
        assert np.array_equal(philox_uniforms(key, np.array(counters, np.uint64) + np.uint64(1)), want), key
        run = np.random.Generator(np.random.Philox(key=key, counter=99)).random((6, 4))
        assert np.array_equal(philox_uniforms(key, np.arange(100, 106, dtype=np.uint64)), run), key


def _lazy_specs():
    return [
        WorldSpec(n_examples=150, seed=24),
        WorldSpec(n_examples=130, seed=25, toxic_entry_rate=0.3, edit_sensitive_rate=0.9, repair_better_prob=0.4),
        WorldSpec(n_examples=97, seed=26, n_rule_entries=7, n_exemplar_entries=0, toxic_entry_rate=0.5),
    ]


@pytest.mark.parametrize("spec", _lazy_specs())
def test_pair_bytes_equal_dense_draw_in_any_read_order(spec):
    reference = reference_pair_table(generate_world(spec))
    n, m = reference.shape
    latent_bits = PAIR_APPLICABLE | PAIR_HELP | PAIR_HURT | PAIR_REPAIR_BETTER | PAIR_CORRUPT_BETTER
    assert reference.any() and not (reference & ~np.uint8(latent_bits)).any()  # no other bit is ever set
    world = generate_world(spec)  # a row at a time, rows shuffled and columns reversed
    for idx in np.random.default_rng(spec.seed).permutation(n).tolist():
        assert np.array_equal(world._pair_bytes(idx, np.arange(m)[::-1]), reference[idx, ::-1])
    assert np.array_equal(world._pair_bytes(np.arange(n)[:, None], np.arange(m)), reference)
    world = generate_world(spec)  # scattered cells first, then the whole table
    rows, cols = np.arange(n)[::3], np.arange(n)[::3] % m
    assert np.array_equal(world._pair_bytes(rows, cols), reference[rows, cols])
    assert np.array_equal(world._pair_bytes(np.arange(n)[:, None], np.arange(m)), reference)
    for idx, entry_id in [(0, world.entry_ids[0]), (n - 1, world.entry_ids[-1])]:
        bits = world.pair_draws(idx, entry_id)
        assert type(bits) is int and bits == reference[idx, world.columns([entry_id])[0]]


def _arrays(obj, seen=None):
    """Every numpy array reachable from obj through containers and gatedmem objects."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value, seen)
    elif isinstance(obj, (tuple, list, set, frozenset)):
        for value in obj:
            yield from _arrays(value, seen)
    elif type(obj).__module__.startswith("gatedmem"):
        for value in vars(obj).values():
            yield from _arrays(value, seen)


def test_world_keeps_no_examples_by_entries_array():
    # pair latents live beside each table's ranked columns, not in an (n_examples, n_entries) matrix,
    # and query rows are drawn again when ranked, not kept in an (n_examples, embedding_dim) one
    spec = WorldSpec(n_examples=300, seed=27)
    world = generate_world(spec)
    world.decode_contexts(np.arange(spec.n_examples), world.snapshots())
    assert all(world._tables[kind][4].all() for kind in world.banks)  # every row is ranked
    cells = spec.n_examples * len(world.entry_ids)
    arrays = list(_arrays(world))
    sizes = {a.size for a in arrays}
    assert any(a is world._confidence for a in arrays)  # the walk reaches the (n_examples, 5) confidences
    assert not any(a.shape == (spec.n_examples, spec.embedding_dim) for a in arrays)
    assert spec.n_examples * spec.embedding_dim not in sizes
    assert max(sizes) < cells


def test_realized_rates_within_binomial_bands():
    # every band is 5 binomial standard deviations, fixed before the first run
    spec = WorldSpec(
        n_examples=2000,
        seed=17,
        toxic_entry_rate=0.2,
        applicability_rate=(("rule", 0.3), ("exemplar", 0.6)),
        guard_pass_rate=(("format", 0.6), ("progress", 0.9)),
    )
    world = generate_world(spec)

    def within_band(flags, p):
        flags = np.asarray(flags, bool)
        band = 5 * np.sqrt(p * (1 - p) / flags.size)
        assert abs(flags.mean() - p) <= band, (flags.mean(), p, band)

    entry_ids = _entry_ids(spec)
    within_band([e in world.toxic_ids for e in entry_ids], spec.toxic_entry_rate)
    pairs = world._pair_bytes(np.arange(spec.n_examples)[:, None], world.columns(entry_ids))
    groups = {
        "rule": [e for e in entry_ids if e.startswith("R") and e not in world.toxic_ids],
        "exemplar": [e for e in entry_ids if e.startswith("E") and e not in world.toxic_ids],
        "toxic": sorted(world.toxic_ids),
    }
    for group, ids in groups.items():
        bits = pairs[:, world.columns(ids)]
        applicable = spec.toxic_applicability if group == "toxic" else spec.rate_for(group)
        hurt = spec.toxic_hurt_prob if group == "toxic" else spec.hurt_prob_given_inapplicable
        within_band(bits & PAIR_APPLICABLE, applicable)
        within_band(bits & PAIR_HURT, hurt)
    within_band(pairs & PAIR_HELP, spec.help_prob_given_applicable)
    repair = spec.edit_sensitive_rate * spec.repair_better_prob
    within_band(pairs & PAIR_REPAIR_BETTER, repair)
    within_band(pairs & PAIR_CORRUPT_BETTER, spec.edit_sensitive_rate - repair)
    for guard in GUARD_NAMES:
        passed = world.guards_pass(range(spec.n_examples), {guard})
        if spec.guard_rate(guard) == 1.0:
            assert all(passed)
        else:
            within_band(passed, spec.guard_rate(guard))


def _reference_draw_digest(world) -> str:
    """sha256 over copies of the draws: topics, baseline, guards, confidences, then the query stream's first
    8192 doubles (whole rows, at most n_examples of them)."""
    spec = world.spec
    stream = np.random.Generator(np.random.Philox(key=derive_seed(spec.seed, "query-embedding")))
    rows = min(spec.n_examples, max(1, 8192 // spec.embedding_dim))
    query = stream.standard_normal((rows, spec.embedding_dim))
    digest = hashlib.sha256()
    for drawn in (world._query_topics, world._baseline, world._guards, world._confidence, query):
        digest.update(drawn.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "spec", [_multi_step_spec(7), WorldSpec(n_examples=90, seed=9, embedding_dim=48)], ids=["multi-step-7", "dim-48"]
)
def test_draw_digest_hashes_the_draws_and_not_the_block_size(monkeypatch, spec):
    # the digest is recorded in every manifest, so a tuning of the table block size must not move it
    world = generate_world(spec)
    want = _reference_draw_digest(world)
    assert world.draw_digest() == want
    for cells in (64, 1 << 16):
        monkeypatch.setattr(worldsim, "TABLE_BLOCK_CELLS", cells)
        assert world.draw_digest() == want
        assert generate_world(spec).draw_digest() == want
