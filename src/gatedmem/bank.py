"""Rule/exemplar memory banks with paired-utility evidence and UCB retirement.

A bank accumulates per-entry evidence (paired utility of interventions that
retrieved the entry, relative to the baseline answer) during the fit stage
only. An entry is retired when the Hoeffding upper confidence bound on its
mean utility drops below zero. Retirement is permanent: active -> retired,
never back, and never during the test stage.

On-disk format (bank file): one json object per line, {id, bank_kind,
payload, embedding (fixed-width decimals), status}.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ProtocolViolation
from .util import sha256_hex

BANK_KINDS = ("rule", "exemplar")
STAGE_FIT = "fit"
STAGE_TEST = "test"

EMBED_PLACES = 8  # fixed-width decimals in bank files and content hashes


@dataclass
class EvidenceRecord:
    episode_id: int
    utility: float  # paired delta vs baseline, must lie in [-1, 1]
    iteration: int = 0


@dataclass
class MemoryEntry:
    id: str
    bank_kind: str
    payload: str
    embedding: np.ndarray
    status: str = "active"
    evidence: list[EvidenceRecord] = field(default_factory=list)

    @property
    def evidence_count(self) -> int:
        return len(self.evidence)

    @property
    def evidence_mean(self) -> float:
        if not self.evidence:
            raise ValueError(f"entry {self.id} has no evidence")
        return sum(r.utility for r in self.evidence) / len(self.evidence)


def hoeffding_ucb(mean: float, n: int, delta: float) -> float:
    """mean + sqrt(ln(2/delta) / (2 n)), the retirement test statistic.

    Valid for utility observations bounded in [-1, 1]; for a true mean >= 0
    the chance this falls below zero is at most delta.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return mean + math.sqrt(math.log(2.0 / delta) / (2.0 * n))


def _embedding_text(embedding) -> str:
    """The embedding as space-separated fixed-width decimals.

    One printf-style call formats every value; `%.8f` writes the same string
    as format(x, ".8f") for every float, signed zero and subnormals included.
    """
    values = np.asarray(embedding, np.float64).tolist()
    return " ".join([f"%.{EMBED_PLACES}f"] * len(values)) % tuple(values)


def _hash_lines(entries) -> str:
    # Covers active ids, payloads, and embeddings only; evidence is excluded
    # on purpose so appending records never changes a frozen snapshot hash.
    lines = [f"{json.dumps(e.id)}\t{json.dumps(e.payload)}\t{_embedding_text(e.embedding)}" for e in entries]
    return sha256_hex("\n".join(lines).encode("utf-8"))


@dataclass(frozen=True)
class BankSnapshot:
    """Immutable view of a bank's active entries, with a content hash."""

    bank_kind: str
    entry_ids: tuple[str, ...]
    payloads: tuple[str, ...]
    embeddings: np.ndarray  # (n_active, dim), row i belongs to entry_ids[i]
    content_hash: str

    @staticmethod
    def build(bank_kind: str, entries) -> "BankSnapshot":
        entries = sorted(entries, key=lambda e: e.id)
        ids = tuple(e.id for e in entries)
        payloads = tuple(e.payload for e in entries)
        if entries:
            emb = np.stack([np.asarray(e.embedding, np.float64) for e in entries])
        else:
            emb = np.zeros((0, 0))
        emb.setflags(write=False)
        return BankSnapshot(bank_kind, ids, payloads, emb, _hash_lines(entries))


class MemoryBank:
    """Mutable (fit-stage) collection of entries of one kind."""

    def __init__(self, bank_kind: str, entries: list[MemoryEntry] | None = None):
        if bank_kind not in BANK_KINDS:
            raise ValueError(f"bank_kind must be one of {BANK_KINDS}, got {bank_kind!r}")
        self.bank_kind = bank_kind
        self.stage = STAGE_FIT
        self._entries: dict[str, MemoryEntry] = {}
        for e in entries or []:
            self.add_entry(e)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, entry_id: str) -> bool:
        return entry_id in self._entries

    def entry(self, entry_id: str) -> MemoryEntry:
        try:
            return self._entries[entry_id]
        except KeyError:
            raise KeyError(f"unknown entry {entry_id!r}") from None

    def entries(self) -> list[MemoryEntry]:
        return [self._entries[k] for k in sorted(self._entries)]

    def active_entries(self) -> list[MemoryEntry]:
        return [e for e in self.entries() if e.status == "active"]

    def add_entry(self, entry: MemoryEntry) -> None:
        self._check_fit_stage("add_entry")
        if entry.id in self._entries:
            raise ValueError(f"duplicate entry id {entry.id!r}")
        if entry.bank_kind != self.bank_kind:
            raise ValueError(
                f"entry {entry.id!r} is {entry.bank_kind!r}, bank is {self.bank_kind!r}"
            )
        if self._entries:
            dim = len(next(iter(self._entries.values())).embedding)
            if len(entry.embedding) != dim:
                raise ValueError(
                    f"embedding length {len(entry.embedding)} != bank dimension {dim}"
                )
        self._entries[entry.id] = entry

    def _check_fit_stage(self, op: str) -> None:
        if self.stage != STAGE_FIT:
            raise ProtocolViolation(
                f"{op} is a fit-stage operation; bank {self.bank_kind!r} is frozen for test"
            )

    def append_evidence(self, entry_id: str, record: EvidenceRecord) -> int:
        """Attach one paired-utility observation; returns the new count."""
        self._check_fit_stage("append_evidence")
        entry = self.entry(entry_id)
        if entry.status != "active":
            raise ValueError(f"entry {entry_id!r} is retired; evidence rejected")
        if not (-1.0 <= record.utility <= 1.0):
            raise ValueError(f"utility {record.utility} outside [-1, 1]")
        entry.evidence.append(record)
        return len(entry.evidence)

    def retirement_sweep(self, delta: float = 0.05) -> list[str]:
        """Retire every active entry whose UCB on mean utility is below zero.

        Entries with no evidence are never touched (UCB undefined at n=0).
        """
        self._check_fit_stage("retirement_sweep")
        retired = []
        for entry in self.active_entries():
            n = entry.evidence_count
            if n == 0:
                continue
            if hoeffding_ucb(entry.evidence_mean, n, delta) < 0.0:
                entry.status = "retired"
                retired.append(entry.id)
        return retired

    def retain(self, entry_ids) -> None:
        """Retire every active entry not named; the named ones must be active."""
        self._check_fit_stage("retain")
        keep = set(entry_ids)
        for entry_id in sorted(keep):
            if self.entry(entry_id).status != "active":
                raise ValueError(f"entry {entry_id!r} is retired and cannot be retained")
        for entry in self.active_entries():
            if entry.id not in keep:
                entry.status = "retired"

    def copy(self) -> "MemoryBank":
        """Independent copy: same entries and stage, unshared status and evidence."""
        clone = MemoryBank(self.bank_kind)
        clone._entries = {k: replace(e, evidence=list(e.evidence)) for k, e in self._entries.items()}
        clone.stage = self.stage
        return clone

    def freeze(self) -> BankSnapshot:
        return BankSnapshot.build(self.bank_kind, self.active_entries())

    # -- persistence --------------------------------------------------------

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for e in self.entries():
                fh.write(
                    json.dumps(
                        {
                            "id": e.id,
                            "bank_kind": e.bank_kind,
                            "payload": e.payload,
                            "embedding": _embedding_text(e.embedding).split(),
                            "status": e.status,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
