"""Retrieval: cosine ranking, frozen identities, edits, hit partition."""

import re

import numpy as np
import pytest

from conftest import (
    localization_shape_spec,
    reference_freeze_identities,
    reference_retrieve,
    reference_traces,
    save_edits,
)
from gatedmem import retrieval
from gatedmem.bank import BankSnapshot
from gatedmem.controller import PolicyConfig
from gatedmem.errors import ProtocolViolation
from gatedmem.protocol import evaluate_policy, run_counterfactual, run_fit_stage
from gatedmem.retrieval import (
    Query,
    RetrievalResult,
    embed_key,
    load_edits,
    retrieval_table,
    retrieve,
    topic_vector,
)
from gatedmem.worldsim import WorldSpec, generate_world


def snap_from(vectors, kind="rule", prefix="R"):
    n = len(vectors)
    return BankSnapshot.build(kind, [f"{prefix}{i:03d}" for i in range(n)], [f"payload {i}" for i in range(n)], vectors)


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
    snap = BankSnapshot.build("rule", (), (), np.zeros((0, 0)))
    assert retrieve(Query(0, np.array([1.0])), snap).retrieved_ids == ()


def table_ids(table, snap, row):
    """The entry ids a retrieval table's row retrieves."""
    ranked, counts = table
    return tuple(snap.entry_ids[i] for i in ranked[row, :counts[row]].tolist())


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
            np.testing.assert_array_equal(table[0], np.argsort(-sims, axis=1, kind="stable")[:, :k_max])
            for i, q in enumerate(queries):
                want = reference_retrieve(Query(i, q), snap, threshold, k_max)
                assert table_ids(table, snap, i) == want.retrieved_ids
                assert_same_result(retrieve(Query(i, q), snap, threshold, k_max), want)
    probe = retrieval_table(queries, snap, 0.6, 3)
    assert table_ids(probe, snap, 0) == ("R000", "R001", "R002")
    assert table_ids(probe, snap, 3) == table_ids(probe, snap, 9) == ("R003", "R001", "R002")


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
# frozen identities: a run's deciding injections (StepTable.deciding_injection)
# ---------------------------------------------------------------------------

def test_freeze_identities_routed_only():
    # the routed steps of a run that retrieved: with 4 entries a bank over 12
    # topics most queries retrieve nothing, and the budget blocks some steps
    world = generate_world(WorldSpec(n_examples=60, seed=3, steps_per_episode=4, n_rule_entries=4, n_exemplar_entries=4))
    policy, snaps, ids = PolicyConfig(tau=0.6, budget_B=2), world.snapshots(), list(range(60))
    steps = evaluate_policy(world, policy, snaps, ids)
    columns, filled, _ = steps.deciding_injection()
    frozen = {
        idx: tuple(world.entry_ids[c] for c in columns[s][filled[s]].tolist())
        for s, idx in enumerate(steps.example_ids.tolist())
        if filled[s].any()
    }
    assert frozen == reference_freeze_identities(reference_traces(world, policy, snaps, ids))
    assert (~steps.routed).any() and (steps.routed & ~steps.filled[:, 0].any(axis=1)).any()
    assert not filled[~steps.routed].any()


def test_edit_kind_validated(tmp_path):
    path = tmp_path / "edits.jsonl"
    path.write_text('{"entry_id": "R000", "new_payload": "x", "edit_kind": "delete"}\n')
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: edit_kind must be one of ('repair', 'corrupt')")):
        load_edits(str(path))


def test_edits_file_roundtrip(tmp_path):
    # load_edits returns the edited entry ids in file order; the kind and payload do not enter a replay
    path = tmp_path / "edits.jsonl"
    for kind in ("repair", "corrupt"):
        save_edits(["R001", "E002"], str(path), kind)
        assert load_edits(str(path)) == ["R001", "E002"]


# ---------------------------------------------------------------------------
# the target-hit partition of a counterfactual run's routed rows
# ---------------------------------------------------------------------------

def _counterfactual(edited, **spec):
    """run_counterfactual on a 4-topic world whose fitted policy retrieves only from the exemplar bank."""
    shape = {"n_examples": 200, "seed": 4, "topic_count": 4, "n_rule_entries": 8, "n_exemplar_entries": 16}
    world = generate_world(WorldSpec(**shape, **spec))
    grid = [PolicyConfig(tau=2.0, margin_m=0.0, bank_policy="choose", primary_bank="exemplar").to_flat()]
    manifest, _, _ = run_fit_stage(world, grid)
    return run_counterfactual(world, manifest, edited, n_permutations=200)


def test_partition_no_hits():
    rows, audit = _counterfactual(["R000"])
    assert not rows.target_hit.any() and audit["n_hit"] == 0
    assert audit["n_non_hit"] == rows.filled.any(axis=1).sum() > 0
    assert audit["hit_dacc_fixed"] is None and audit["interaction_p"] is None


def test_partition_all_hits():
    rows, audit = _counterfactual([f"E{i:03d}" for i in range(16)])
    assert np.array_equal(rows.target_hit, rows.filled.any(axis=1))
    assert audit["n_hit"] == rows.target_hit.sum() > 0 and audit["n_non_hit"] == 0


def test_partition_paper_scale_sizes():
    # 800 routed rows, about 105 of which retrieve one of 4 edited entries
    world = generate_world(localization_shape_spec(seed=0))
    grid = [PolicyConfig(tau=2.0, margin_m=0.0, bank_policy="choose", primary_bank="exemplar").to_flat()]
    manifest, _, snaps = run_fit_stage(world, grid, fit_fraction=0.2)
    edited = [e for e, p in zip(snaps["exemplar"].entry_ids, snaps["exemplar"].payloads) if p.endswith("topic 0")][:4]
    rows, audit = run_counterfactual(world, manifest, edited)
    assert audit["n_rows"] == len(rows.query_id) == 800
    assert 60 <= audit["n_hit"] == rows.target_hit.sum() <= 160
    assert audit["n_hit"] + audit["n_non_hit"] == rows.filled.any(axis=1).sum()
    assert not (rows.target_hit & ~rows.filled.any(axis=1)).any()


def test_partition_empty_map_errors():
    # every step routes, and at this threshold none retrieves: there is no frozen identity to replay
    with pytest.raises(ProtocolViolation, match="no routed queries with retrieval"):
        _counterfactual(["E000"], retrieval_threshold=0.9999)
