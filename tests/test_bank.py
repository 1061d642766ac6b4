"""Memory bank: evidence, Hoeffding retirement, freezing, persistence."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from gatedmem.bank import (
    BankSnapshot,
    EvidenceRecord,
    MemoryBank,
    MemoryEntry,
    STAGE_TEST,
    hoeffding_ucb,
)
from gatedmem.errors import ProtocolViolation


def make_bank(n=4, kind="rule", dim=6):
    rng = np.random.default_rng(0)
    bank = MemoryBank(kind)
    prefix = "R" if kind == "rule" else "E"
    for i in range(n):
        bank.add_entry(
            MemoryEntry(
                id=f"{prefix}{i:03d}",
                bank_kind=kind,
                payload=f"payload {i}",
                embedding=rng.standard_normal(dim),
            )
        )
    return bank


# ---------------------------------------------------------------------------
# hoeffding_ucb
# ---------------------------------------------------------------------------

def test_ucb_radius_strictly_positive():
    for n in (1, 5, 100, 10_000):
        assert hoeffding_ucb(0.0, n, 0.05) > 0.0


def test_ucb_derived_values():
    # sqrt(ln(40)/16) and sqrt(ln(40)/2), checked against a high-precision oracle
    assert hoeffding_ucb(-0.6, 8, 0.05) == pytest.approx(-0.11983860434003962, abs=1e-12)
    assert hoeffding_ucb(-1.0, 1, 0.05) == pytest.approx(0.35810151574061955, abs=1e-12)


def test_ucb_monotone_in_mean():
    # at fixed n, appending worse evidence can only lower the UCB
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 50))
        delta = float(rng.uniform(0.001, 0.999))
        m1, m2 = sorted(rng.uniform(-1, 1, 2))
        assert hoeffding_ucb(m1, n, delta) <= hoeffding_ucb(m2, n, delta)


def test_ucb_argument_validation():
    with pytest.raises(ValueError):
        hoeffding_ucb(0.0, 0, 0.05)
    with pytest.raises(ValueError):
        hoeffding_ucb(0.0, 5, 0.0)
    with pytest.raises(ValueError):
        hoeffding_ucb(0.0, 5, 1.0)


# ---------------------------------------------------------------------------
# append_evidence
# ---------------------------------------------------------------------------

def test_append_evidence_single_record_mean():
    bank = make_bank()
    count = bank.append_evidence("R000", EvidenceRecord(0, 1.0))
    assert count == 1
    assert bank.entry("R000").evidence_mean == 1.0


def test_append_evidence_range_check():
    bank = make_bank()
    with pytest.raises(ValueError):
        bank.append_evidence("R000", EvidenceRecord(0, 1.5))


def test_append_evidence_test_stage_violation():
    bank = make_bank()
    bank.stage = STAGE_TEST
    with pytest.raises(ProtocolViolation):
        bank.append_evidence("R000", EvidenceRecord(0, 1.0))


def test_append_evidence_unknown_and_retired():
    bank = make_bank()
    with pytest.raises(KeyError):
        bank.append_evidence("R999", EvidenceRecord(0, 0.0))
    bank.entry("R001").status = "retired"
    with pytest.raises(ValueError):
        bank.append_evidence("R001", EvidenceRecord(0, 0.0))


# ---------------------------------------------------------------------------
# retirement_sweep
# ---------------------------------------------------------------------------

def test_sweep_retires_all_negative_entry():
    bank = make_bank()
    for i in range(8):
        bank.append_evidence("R000", EvidenceRecord(i, -1.0))
    retired = bank.retirement_sweep(delta=0.05)
    # UCB = -1 + sqrt(ln40/16) ~ -0.52 < 0
    assert retired == ["R000"]
    assert bank.entry("R000").status == "retired"


def test_sweep_retains_mean_zero_and_skips_no_evidence():
    bank = make_bank()
    for i, u in enumerate([1.0, -1.0, 1.0, -1.0]):
        bank.append_evidence("R000", EvidenceRecord(i, u))
    assert bank.retirement_sweep(delta=0.05) == []
    assert all(e.status == "active" for e in bank.entries())


def test_sweep_boundary_matches_ucb():
    # mean -0.6 over n=8 at delta 0.05 has UCB ~ -0.1198 < 0: retired
    bank = make_bank()
    for i in range(8):
        bank.append_evidence("R002", EvidenceRecord(i, -0.6))
    assert bank.retirement_sweep(delta=0.05) == ["R002"]


def test_retain_retires_the_rest_and_only_shrinks():
    bank = make_bank()
    bank.retain(["R001", "R003"])
    assert [e.id for e in bank.active_entries()] == ["R001", "R003"]
    with pytest.raises(ValueError):
        bank.retain(["R000"])  # retired stays retired
    with pytest.raises(KeyError):
        bank.retain(["R999"])
    bank.stage = STAGE_TEST
    with pytest.raises(ProtocolViolation):
        bank.retain(["R001"])


def test_copy_shares_no_status_or_evidence():
    bank = make_bank()
    bank.append_evidence("R000", EvidenceRecord(0, 0.5))
    clone = bank.copy()
    clone.append_evidence("R000", EvidenceRecord(1, -0.5))
    clone.retain(["R000"])
    assert bank.entry("R000").evidence_count == 1
    assert len(bank.active_entries()) == 4
    assert clone.freeze().entry_ids == ("R000",)


def test_sweep_empty_bank():
    bank = MemoryBank("rule")
    assert bank.retirement_sweep() == []


def test_sweep_test_stage_violation():
    bank = make_bank()
    bank.stage = STAGE_TEST
    with pytest.raises(ProtocolViolation):
        bank.retirement_sweep()


def test_hoeffding_guarantee_small():
    # true mean +0.5 (|utility| = 1 coin): retire probability well under delta
    rng = np.random.default_rng(42)
    delta, n, trials = 0.05, 30, 400
    retired = 0
    for t in range(trials):
        draws = np.where(rng.random(n) < 0.75, 1.0, -1.0)
        if hoeffding_ucb(float(draws.mean()), n, delta) < 0:
            retired += 1
    assert retired / trials <= delta


# ---------------------------------------------------------------------------
# freeze_bank / snapshots
# ---------------------------------------------------------------------------

def test_freeze_deterministic_hash():
    assert make_bank().freeze().content_hash == make_bank().freeze().content_hash


def test_freeze_hash_changes_on_retirement():
    bank = make_bank()
    before = bank.freeze().content_hash
    for i in range(8):
        bank.append_evidence("R000", EvidenceRecord(i, -1.0))
    bank.retirement_sweep()
    after = bank.freeze()
    assert after.content_hash != before
    assert "R000" not in after.entry_ids


def test_freeze_hash_ignores_evidence():
    bank = make_bank()
    before = bank.freeze().content_hash
    bank.append_evidence("R003", EvidenceRecord(0, 0.5))
    bank.append_evidence("R001", EvidenceRecord(1, -0.5))
    assert bank.freeze().content_hash == before


def test_freeze_hash_sensitive_to_payload_and_embedding():
    bank = make_bank()
    base = bank.freeze()
    entries = bank.active_entries()
    edited = BankSnapshot.build("rule", [replace(entries[0], payload="changed"), *entries[1:]])
    assert edited.content_hash != base.content_hash
    assert edited.entry_ids == base.entry_ids
    moved = BankSnapshot.build("rule", [replace(entries[0], embedding=-entries[0].embedding), *entries[1:]])
    assert moved.content_hash not in (base.content_hash, edited.content_hash)


def test_snapshot_ids_sorted_ascending():
    bank = MemoryBank("rule")
    rng = np.random.default_rng(2)
    for eid in ("R002", "R000", "R001"):
        bank.add_entry(MemoryEntry(eid, "rule", eid, rng.standard_normal(4)))
    assert bank.freeze().entry_ids == ("R000", "R001", "R002")


# ---------------------------------------------------------------------------
# structural checks and persistence
# ---------------------------------------------------------------------------

def test_duplicate_and_dimension_checks():
    bank = make_bank(dim=6)
    with pytest.raises(ValueError):
        bank.add_entry(MemoryEntry("R000", "rule", "dup", np.zeros(6)))
    with pytest.raises(ValueError):
        bank.add_entry(MemoryEntry("R900", "rule", "short", np.zeros(3)))
    with pytest.raises(ValueError):
        bank.add_entry(MemoryEntry("X001", "exemplar", "wrong kind", np.zeros(6)))


def test_bank_file_format(tmp_path):
    bank = make_bank(n=5)
    bank.entry("R004").status = "retired"
    path = tmp_path / "bank_rule.jsonl"
    bank.save(str(path))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["id"] for r in records] == [f"R{i:03d}" for i in range(5)]
    assert [r["status"] for r in records] == ["active"] * 4 + ["retired"]
    for r in records:
        assert set(r) == {"id", "bank_kind", "payload", "embedding", "status"}
        assert r["bank_kind"] == "rule"
        assert r["payload"] == bank.entry(r["id"]).payload
        # fixed-width decimal strings, so the file is byte-stable across platforms
        assert all(re.fullmatch(r"-?\d+\.\d{8}", x) for x in r["embedding"])
        np.testing.assert_allclose([float(x) for x in r["embedding"]], bank.entry(r["id"]).embedding, atol=5e-9)
