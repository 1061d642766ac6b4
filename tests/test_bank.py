"""Memory bank: evidence, Hoeffding retirement, freezing, persistence."""

import hashlib
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from gatedmem.bank import (
    BankSnapshot,
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
    count = bank.append_evidence("R000", [1.0])
    assert count == 1
    assert bank.entry("R000").evidence_mean == 1.0


def test_append_evidence_range_check():
    bank = make_bank()
    with pytest.raises(ValueError):
        bank.append_evidence("R000", [1.5])


def test_append_evidence_test_stage_violation():
    bank = make_bank()
    bank.stage = STAGE_TEST
    with pytest.raises(ProtocolViolation):
        bank.append_evidence("R000", [1.0])
    assert bank.entry("R000").evidence_count == 0


def test_append_evidence_unknown_and_retired():
    bank = make_bank()
    with pytest.raises(KeyError):
        bank.append_evidence("R999", [0.0])
    bank.entry("R001").status = "retired"
    with pytest.raises(ValueError):
        bank.append_evidence("R001", [0.0, 1.0])
    assert bank.entry("R001").evidence_count == 0


def test_append_evidence_batch_equals_one_at_a_time():
    rng = np.random.default_rng(7)
    for n in (1, 7, 30, 1000):
        for p_neg in (0.2, 0.5, 0.8):
            u = rng.choice([-1.0, 0.0, 1.0], size=n, p=[p_neg, 0.1, 0.9 - p_neg])
            batched, single = make_bank(), make_bank()
            assert batched.append_evidence("R000", u) == n
            for x in u.tolist():
                single.append_evidence("R000", [x])
            a, b = batched.entry("R000"), single.entry("R000")
            assert a.evidence_count == b.evidence_count == n
            assert a.evidence_mean == b.evidence_mean == sum(u.tolist()) / n
            assert batched.retirement_sweep(delta=0.05) == single.retirement_sweep(delta=0.05)
            assert a.status == b.status


@pytest.mark.parametrize("bad", [1.5, -1.0000001, float("nan"), float("inf")])
def test_append_evidence_bad_value_adds_nothing(bad):
    bank = make_bank()
    bank.append_evidence("R000", [0.5, -1.0])
    with pytest.raises(ValueError, match="outside"):
        bank.append_evidence("R000", [1.0, 0.0, bad, -1.0])
    entry = bank.entry("R000")
    assert (entry.evidence_count, entry.evidence_sum) == (2, -0.5)


# ---------------------------------------------------------------------------
# retirement_sweep
# ---------------------------------------------------------------------------

def test_sweep_retires_all_negative_entry():
    bank = make_bank()
    bank.append_evidence("R000", [-1.0] * 8)
    retired = bank.retirement_sweep(delta=0.05)
    # UCB = -1 + sqrt(ln40/16) ~ -0.52 < 0
    assert retired == ["R000"]
    assert bank.entry("R000").status == "retired"


def test_sweep_retains_mean_zero_and_skips_no_evidence():
    bank = make_bank()
    bank.append_evidence("R000", [1.0, -1.0, 1.0, -1.0])
    assert bank.retirement_sweep(delta=0.05) == []
    assert all(e.status == "active" for e in bank.entries())


def test_sweep_boundary_matches_ucb():
    # mean -0.6 over n=8 at delta 0.05 has UCB ~ -0.1198 < 0: retired
    bank = make_bank()
    bank.append_evidence("R002", [-0.6] * 8)
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
    bank.append_evidence("R000", [0.5])
    clone = bank.copy()
    clone.append_evidence("R000", [-0.5])
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
    bank.append_evidence("R000", [-1.0] * 8)
    bank.retirement_sweep()
    after = bank.freeze()
    assert after.content_hash != before
    assert "R000" not in after.entry_ids


def test_freeze_hash_ignores_evidence():
    bank = make_bank()
    before = bank.freeze().content_hash
    bank.append_evidence("R003", [0.5])
    bank.append_evidence("R001", [-0.5])
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


def test_embedding_decimals_match_per_scalar_format(tmp_path):
    # signed zeros, values either side of the 8th-place rounding boundary,
    # a large value and the smallest subnormal
    values = [-0.0, 4.9999999e-9, -4.9999999e-9, 5e-9, 1e15, 5e-324]
    bank = MemoryBank("rule")
    bank.add_entry(MemoryEntry("R000", "rule", "edge", np.array(values)))
    bank.add_entry(MemoryEntry("R001", "rule", "reversed", np.array(values[::-1], np.float32)))
    want = {e.id: [format(np.float64(x), ".8f") for x in e.embedding] for e in bank.entries()}
    assert want["R000"][:4] == ["-0.00000000", "0.00000000", "-0.00000000", "0.00000001"]
    lines = "\n".join(
        f"{json.dumps(eid)}\t{json.dumps(bank.entry(eid).payload)}\t{' '.join(vec)}" for eid, vec in sorted(want.items())
    )
    assert bank.freeze().content_hash == hashlib.sha256(lines.encode("utf-8")).hexdigest()
    path = tmp_path / "bank_rule.jsonl"
    bank.save(str(path))
    assert {r["id"]: r["embedding"] for r in map(json.loads, path.read_text().splitlines())} == want
