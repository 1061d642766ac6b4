"""Memory bank: evidence, Hoeffding retirement, freezing, persistence."""

import hashlib
import json
import math
import re
import numpy as np
import pytest

from gatedmem.bank import (
    BankSnapshot,
    MemoryBank,
    STAGE_TEST,
    hoeffding_ucb,
)
from gatedmem.errors import ProtocolViolation


def make_bank(n=4, kind="rule", dim=6):
    rng = np.random.default_rng(0)
    prefix = "R" if kind == "rule" else "E"
    return MemoryBank(
        kind, [f"{prefix}{i:03d}" for i in range(n)], [f"payload {i}" for i in range(n)], rng.standard_normal((n, dim))
    )


def evidence(bank, entry_id):
    i = bank.row(entry_id)
    return int(bank.evidence_count[i]), float(bank.evidence_sum[i])


def is_active(bank, entry_id):
    return bool(bank.active[bank.row(entry_id)])


def active_ids(bank):
    return [e for e, a in zip(bank.entry_ids, bank.active.tolist()) if a]


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
    assert evidence(bank, "R000") == (1, 1.0)


def test_append_evidence_range_check():
    bank = make_bank()
    with pytest.raises(ValueError):
        bank.append_evidence("R000", [1.5])


def test_append_evidence_test_stage_violation():
    bank = make_bank()
    bank.stage = STAGE_TEST
    with pytest.raises(ProtocolViolation):
        bank.append_evidence("R000", [1.0])
    assert evidence(bank, "R000") == (0, 0.0)


def test_append_evidence_unknown_and_retired():
    bank = make_bank()
    with pytest.raises(KeyError, match="unknown entry 'R999'"):
        bank.append_evidence("R999", [0.0])
    bank.active[bank.row("R001")] = False
    with pytest.raises(ValueError):
        bank.append_evidence("R001", [0.0, 1.0])
    assert evidence(bank, "R001") == (0, 0.0)


def test_append_evidence_batch_equals_one_at_a_time():
    rng = np.random.default_rng(7)
    for n in (1, 7, 30, 1000):
        for p_neg in (0.2, 0.5, 0.8):
            u = rng.choice([-1.0, 0.0, 1.0], size=n, p=[p_neg, 0.1, 0.9 - p_neg])
            batched, single = make_bank(), make_bank()
            assert batched.append_evidence("R000", u) == n
            for x in u.tolist():
                single.append_evidence("R000", [x])
            (count_a, sum_a), (count_b, sum_b) = evidence(batched, "R000"), evidence(single, "R000")
            assert count_a == count_b == n
            assert sum_a / count_a == sum_b / count_b == sum(u.tolist()) / n
            assert batched.retirement_sweep(delta=0.05) == single.retirement_sweep(delta=0.05)
            assert is_active(batched, "R000") == is_active(single, "R000")


@pytest.mark.parametrize("bad", [1.5, -1.0000001, float("nan"), float("inf")])
def test_append_evidence_bad_value_adds_nothing(bad):
    bank = make_bank()
    bank.append_evidence("R000", [0.5, -1.0])
    with pytest.raises(ValueError, match="outside"):
        bank.append_evidence("R000", [1.0, 0.0, bad, -1.0])
    assert evidence(bank, "R000") == (2, -0.5)


# ---------------------------------------------------------------------------
# retirement_sweep
# ---------------------------------------------------------------------------

def test_sweep_retires_all_negative_entry():
    bank = make_bank()
    bank.append_evidence("R000", [-1.0] * 8)
    retired = bank.retirement_sweep(delta=0.05)
    # UCB = -1 + sqrt(ln40/16) ~ -0.52 < 0
    assert retired == ["R000"]
    assert not is_active(bank, "R000")


def test_sweep_retains_mean_zero_and_skips_no_evidence():
    bank = make_bank()
    bank.append_evidence("R000", [1.0, -1.0, 1.0, -1.0])
    assert bank.retirement_sweep(delta=0.05) == []
    assert bank.active.all()


def test_sweep_boundary_matches_ucb():
    # mean -0.6 over n=8 at delta 0.05 has UCB ~ -0.1198 < 0: retired
    bank = make_bank()
    bank.append_evidence("R002", [-0.6] * 8)
    assert bank.retirement_sweep(delta=0.05) == ["R002"]


def test_retain_retires_the_rest_and_only_shrinks():
    bank = make_bank()
    bank.retain(["R001", "R003"])
    assert active_ids(bank) == ["R001", "R003"]
    with pytest.raises(ValueError):
        bank.retain(["R000"])  # retired stays retired
    with pytest.raises(KeyError):
        bank.retain(["R999"])
    bank.stage = STAGE_TEST
    with pytest.raises(ProtocolViolation):
        bank.retain(["R001"])
    bank.retain(["R003", "R001"])  # retires nothing, so a frozen bank accepts it
    assert active_ids(bank) == ["R001", "R003"]


def test_copy_shares_no_status_or_evidence():
    bank = make_bank()
    bank.append_evidence("R000", [0.5])
    clone = bank.copy()
    clone.append_evidence("R000", [-0.5])
    clone.retain(["R000"])
    assert evidence(bank, "R000") == (1, 0.5)
    assert len(active_ids(bank)) == 4
    assert clone.freeze().entry_ids == ("R000",)


def test_sweep_empty_bank():
    bank = MemoryBank("rule", (), (), np.zeros((0, 0)))
    assert bank.retirement_sweep() == []
    snap = bank.freeze()
    assert snap.entry_ids == () and snap.embeddings.shape == (0, 0)


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
    edited = BankSnapshot.build("rule", base.entry_ids, ("changed",) + base.payloads[1:], base.embeddings)
    assert edited.content_hash != base.content_hash
    assert edited.entry_ids == base.entry_ids
    flipped = base.embeddings.copy()
    flipped[0] *= -1
    moved = BankSnapshot.build("rule", base.entry_ids, base.payloads, flipped)
    assert moved.content_hash not in (base.content_hash, edited.content_hash)


def test_freeze_hashes_the_columns_as_they_are_now():
    # no memo: a payload or embedding changed in place changes the next hash
    bank = make_bank()
    base = bank.freeze().content_hash
    bank.payloads = ("changed",) + bank.payloads[1:]
    edited = bank.freeze().content_hash
    assert edited != base
    flipped = bank.embeddings.copy()
    flipped[0] *= -1
    bank.embeddings = flipped
    assert bank.freeze().content_hash not in (base, edited)


def test_freeze_hashes_as_build_over_a_membership_sequence():
    keeps = [("R000", "R001", "R002", "R003", "R004", "R005"), ("R000", "R002", "R003", "R005"), ("R003",), ()]
    reference = make_bank(n=6)
    want = []
    for keep in keeps:
        reference.retain(keep)
        want.append(BankSnapshot.build("rule", *reference.active_columns()))
    bank = make_bank(n=6)
    for keep, expected in zip(keeps, want):
        bank.retain(keep)
        snap = bank.freeze()
        assert snap.entry_ids == expected.entry_ids and snap.payloads == expected.payloads
        assert snap.content_hash == expected.content_hash
        assert snap.embeddings.shape == expected.embeddings.shape and not snap.embeddings.flags.writeable


def test_snapshot_ids_sorted_ascending():
    emb = np.random.default_rng(2).standard_normal((3, 4))
    bank = MemoryBank("rule", ("R002", "R000", "R001"), ("R002", "R000", "R001"), emb)
    snap = bank.freeze()
    assert snap.entry_ids == snap.payloads == ("R000", "R001", "R002")
    np.testing.assert_array_equal(snap.embeddings, emb[[1, 2, 0]])  # each row moves with its id
    built = BankSnapshot.build("rule", ("R002", "R000", "R001"), ("R002", "R000", "R001"), emb)
    assert (built.entry_ids, built.content_hash) == (snap.entry_ids, snap.content_hash)


def test_rows_in_id_order_are_a_read_only_view():
    emb = np.random.default_rng(3).standard_normal((3, 4))
    bank = MemoryBank("rule", ("R000", "R001", "R002"), ("a", "b", "c"), emb)
    assert np.shares_memory(bank.embeddings, emb) and emb.flags.writeable
    assert np.shares_memory(bank.freeze().embeddings, emb)  # every entry active: no copy
    with pytest.raises(ValueError):
        bank.embeddings[0, 0] = 1.0


# ---------------------------------------------------------------------------
# structural checks and persistence
# ---------------------------------------------------------------------------

def test_duplicate_and_dimension_checks():
    with pytest.raises(ValueError, match="duplicate entry id 'R000'"):
        MemoryBank("rule", ("R001", "R000", "R000"), ("a", "b", "dup"), np.zeros((3, 6)))
    with pytest.raises(ValueError, match="one row per entry id"):
        MemoryBank("rule", ("R000", "R900"), ("a", "short"), [np.zeros(6), np.zeros(3)])
    with pytest.raises(ValueError, match="one row per entry id"):
        MemoryBank("rule", ("R000", "R001"), ("a", "b"), np.zeros((3, 6)))
    with pytest.raises(ValueError, match="payloads"):
        MemoryBank("rule", ("R000", "R001"), ("a",), np.zeros((2, 6)))
    with pytest.raises(ValueError, match="bank_kind"):
        MemoryBank("semantic", ("R000",), ("a",), np.zeros((1, 6)))


def test_bank_file_format(tmp_path):
    bank = make_bank(n=5)
    bank.retain(["R000", "R001", "R002", "R003"])
    path = tmp_path / "bank_rule.jsonl"
    bank.save(str(path))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["id"] for r in records] == [f"R{i:03d}" for i in range(5)]
    assert [r["status"] for r in records] == ["active"] * 4 + ["retired"]
    for r in records:
        assert set(r) == {"id", "bank_kind", "payload", "embedding", "status"}
        assert r["bank_kind"] == "rule"
        assert r["payload"] == bank.payloads[bank.row(r["id"])]
        # fixed-width decimal strings, so the file is byte-stable across platforms
        assert all(re.fullmatch(r"-?\d+\.\d{8}", x) for x in r["embedding"])
        np.testing.assert_allclose([float(x) for x in r["embedding"]], bank.embeddings[bank.row(r["id"])], atol=5e-9)


def test_embedding_decimals_match_per_scalar_format(tmp_path):
    # signed zeros, values either side of the 8th-place rounding boundary,
    # a large value and the smallest subnormal
    values = [-0.0, 4.9999999e-9, -4.9999999e-9, 5e-9, 1e15, 5e-324]
    rows = [np.array(values), np.array(values[::-1], np.float32)]
    bank = MemoryBank("rule", ("R000", "R001"), ("edge", "reversed"), rows)
    want = {eid: [format(np.float64(x), ".8f") for x in row] for eid, row in zip(bank.entry_ids, rows)}
    assert want["R000"][:4] == ["-0.00000000", "0.00000000", "-0.00000000", "0.00000001"]
    lines = "\n".join(
        f"{json.dumps(eid)}\t{json.dumps(bank.payloads[bank.row(eid)])}\t{' '.join(vec)}" for eid, vec in sorted(want.items())
    )
    assert bank.freeze().content_hash == hashlib.sha256(lines.encode("utf-8")).hexdigest()
    path = tmp_path / "bank_rule.jsonl"
    bank.save(str(path))
    assert {r["id"]: r["embedding"] for r in map(json.loads, path.read_text().splitlines())} == want
