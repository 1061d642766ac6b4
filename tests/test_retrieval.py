"""Retrieval: cosine ranking, frozen identities, edits, hit partition."""

import numpy as np
import pytest

from conftest import reference_retrieve
from gatedmem import retrieval
from gatedmem.bank import BankSnapshot, MemoryEntry
from gatedmem.controller import PolicyConfig
from gatedmem.protocol import evaluate_policy
from gatedmem.retrieval import (
    ContentEdit,
    Query,
    RetrievalResult,
    embed_key,
    freeze_identities,
    load_edits,
    retrieval_table,
    retrieve,
    save_edits,
    target_hit_partition,
    topic_vector,
)
from gatedmem.worldsim import WorldSpec, generate_world


def snap_from(vectors, kind="rule", prefix="R"):
    entries = [
        MemoryEntry(f"{prefix}{i:03d}", kind, f"payload {i}", np.asarray(v, float))
        for i, v in enumerate(vectors)
    ]
    return BankSnapshot.build(kind, entries)


def toy_snapshot():
    # hand-enumerable cosines against query (1, 0): 1.0, 0.8, 0.8, 0.6
    return snap_from([[1, 0], [0.8, 0.6], [0.8, 0.6], [0.6, 0.8]])


# ---------------------------------------------------------------------------
# retrieve
# ---------------------------------------------------------------------------

def test_self_similarity_first():
    snap = toy_snapshot()
    result = retrieve(Query(0, np.array([1.0, 0.0])), snap, threshold=0.6, k_max=4)
    assert result.retrieved_ids[0] == "R000"
    assert result.similarities[0] == pytest.approx(1.0)


def test_orthogonal_query_empty():
    snap = snap_from([[1, 0], [1, 0]])
    result = retrieve(Query(0, np.array([0.0, 1.0])), snap, threshold=0.6)
    assert result.retrieved_ids == ()


def test_topk_with_tie_broken_by_ascending_id():
    # 3 entries above threshold 0.7 (sims 1.0, 0.8, 0.8); tie at rank 2
    snap = toy_snapshot()
    result = retrieve(Query(0, np.array([1.0, 0.0])), snap, threshold=0.7, k_max=2)
    assert result.retrieved_ids == ("R000", "R001")
    assert result.similarities == pytest.approx((1.0, 0.8))


def test_threshold_is_strict():
    snap = snap_from([[0.6, 0.8]])
    result = retrieve(Query(0, np.array([1.0, 0.0])), snap, threshold=0.6, k_max=1)
    assert result.retrieved_ids == ()  # similarity exactly 0.6 is not > 0.6


def test_similarities_sorted_descending():
    snap = toy_snapshot()
    result = retrieve(Query(0, np.array([1.0, 0.0])), snap, threshold=0.5, k_max=4)
    assert list(result.similarities) == sorted(result.similarities, reverse=True)


def test_dimension_mismatch():
    snap = toy_snapshot()
    with pytest.raises(ValueError):
        retrieve(Query(0, np.array([1.0, 0.0, 0.0])), snap)


def test_retrieve_deterministic():
    snap = snap_from([embed_key(("e", i), 16, topic_vector(i % 3, 16)) for i in range(9)])
    q = Query(5, embed_key("q", 16, topic_vector(2, 16)))
    r1 = retrieve(q, snap, 0.5, 3)
    r2 = retrieve(q, snap, 0.5, 3)
    assert r1 == r2


def test_empty_snapshot():
    snap = BankSnapshot.build("rule", [])
    assert retrieve(Query(0, np.array([1.0])), snap).retrieved_ids == ()


def assert_same_result(got, want):
    # ids exactly; cosines to float64 rounding of a dot product in <= 64 dims
    assert got.query_id == want.query_id
    assert got.retrieved_ids == want.retrieved_ids
    assert got.similarities == pytest.approx(want.similarities, rel=0, abs=1e-12)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_table_matches_reference_on_ties_and_threshold_across_blocks(monkeypatch):
    # integer vectors give exact cosines: against (1, 0) the entries score
    # 1.0, 0.8, 0.8, 0.6, 0.0 -- a tie at 0.8 and a score equal to 0.6 --
    # and the zero-norm R005 scores NaN against every query
    snap = snap_from([[5, 0], [4, 3], [4, 3], [3, 4], [0, 5], [0, 0]])
    pattern = [[1, 0], [2, 0], [0, 1], [3, 4], [4, 3], [0, 7]]
    # three query rows per block, so each pattern row falls on both sides of
    # a block boundary and at every offset within a block
    monkeypatch.setattr(retrieval, "TABLE_BLOCK_CELLS", 3 * len(snap.entry_ids))
    queries = np.array(pattern * 4, float)
    sims = queries @ snap.embeddings.T / np.outer(np.linalg.norm(queries, axis=1), np.linalg.norm(snap.embeddings, axis=1))
    for threshold in (-1.0, 0.0, 0.6, 0.8, 1.0):
        for k_max in range(1, 9):  # up to larger than the bank
            table = retrieval_table(queries, snap, threshold, k_max)
            # every ranked row, the NaN and below-threshold tail included, is
            # the stable sort's: distinct rows, NaN last
            np.testing.assert_array_equal(table.ranked, np.argsort(-sims, axis=1, kind="stable")[:, :k_max])
            for i, q in enumerate(queries):
                want = reference_retrieve(Query(i, q), snap, threshold, k_max)
                assert_same_result(table.result(i, i), want)
                assert_same_result(retrieve(Query(i, q), snap, threshold, k_max), want)
    probe = retrieval_table(queries, snap, 0.6, 3)
    assert probe.result(0, 0).retrieved_ids == ("R000", "R001", "R002")
    assert probe.result(3, 3).retrieved_ids == probe.result(9, 9).retrieved_ids == ("R003", "R001", "R002")


def test_k_max_must_be_positive():
    with pytest.raises(ValueError, match="k_max"):
        retrieve(Query(0, np.array([1.0, 0.0])), toy_snapshot(), 0.6, 0)


# ---------------------------------------------------------------------------
# embedding stub
# ---------------------------------------------------------------------------

def test_embed_key_unit_norm_and_deterministic():
    v1 = embed_key("abc", 32, topic_vector(3, 32))
    v2 = embed_key("abc", 32, topic_vector(3, 32))
    assert np.allclose(v1, v2)
    assert np.linalg.norm(v1) == pytest.approx(1.0)


def test_embed_topic_structure():
    a = embed_key("x1", 64, topic_vector(0, 64))
    b = embed_key("x2", 64, topic_vector(0, 64))
    c = embed_key("x3", 64, topic_vector(1, 64))
    assert float(a @ b) > 0.6  # same topic: high cosine
    assert float(a @ c) < 0.6  # cross topic: low cosine


# ---------------------------------------------------------------------------
# freeze_identities
# ---------------------------------------------------------------------------

def test_freeze_identities_routed_only():
    # the routed steps of a run that retrieved: with 4 entries a bank over 12
    # topics most queries retrieve nothing, and the budget blocks some steps
    world = generate_world(WorldSpec(n_examples=60, seed=3, steps_per_episode=4, n_rule_entries=4, n_exemplar_entries=4))
    run = evaluate_policy(world, PolicyConfig(tau=0.6, budget_B=2), world.snapshots(), list(range(60)))
    frozen = freeze_identities(run.steps.retrievals())
    steps = [s for t in run.steps.traces() for s in t.steps]
    assert frozen == {s.example_id: s.retrieved.retrieved_ids for s in steps if s.routed and s.retrieved}
    assert any(not s.routed for s in steps) and any(s.routed and not s.retrieved for s in steps)
    assert all(frozen.values())


def test_freeze_identities_conflict():
    with pytest.raises(ValueError):
        freeze_identities([(0, ("R001",)), (0, ("R002",))])
    assert freeze_identities([(0, ("R001",)), (0, ["R001"])]) == {0: ("R001",)}


def test_edit_kind_validated():
    with pytest.raises(ValueError):
        ContentEdit("R000", "x", "delete")


def test_edits_file_roundtrip(tmp_path):
    edits = [ContentEdit("R001", "better", "repair"), ContentEdit("E002", "worse", "corrupt")]
    path = tmp_path / "edits.jsonl"
    save_edits(edits, str(path))
    assert load_edits(str(path)) == edits


# ---------------------------------------------------------------------------
# target_hit_partition
# ---------------------------------------------------------------------------

def test_partition_no_hits():
    frozen = {i: (f"R{i:03d}",) for i in range(5)}
    hit, non_hit = target_hit_partition(frozen, ["E000"])
    assert hit == [] and non_hit == [0, 1, 2, 3, 4]


def test_partition_all_hits():
    frozen = {i: ("E000", f"R{i:03d}") for i in range(4)}
    hit, non_hit = target_hit_partition(frozen, ["E000"])
    assert non_hit == [] and hit == [0, 1, 2, 3]


def test_partition_paper_scale_sizes():
    # 800 routed rows of which exactly 105 retrieve an edited entry
    edited = ["E003", "E023", "E042", "E058"]
    frozen = {}
    for q in range(800):
        if q < 105:
            frozen[q] = (edited[q % 4], "E900")
        else:
            frozen[q] = (f"E{100 + (q % 50):03d}",)
    hit, non_hit = target_hit_partition(frozen, edited)
    assert len(hit) == 105
    assert len(non_hit) == 695
    assert sorted(hit + non_hit) == list(range(800))
    assert set(hit) & set(non_hit) == set()


def test_partition_empty_map_errors():
    with pytest.raises(ValueError):
        target_hit_partition({}, ["E000"])
