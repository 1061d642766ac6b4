"""Rule/exemplar memory banks with paired-utility evidence and UCB retirement.

A bank holds its entries as columns in ascending id: ids, payloads, a
read-only embedding matrix (row i belongs to entry_ids[i]), an active mask,
and per-entry evidence. Evidence (paired utility of interventions that
retrieved the entry, relative to the baseline answer) accumulates during
the fit stage only, kept as a per-entry count and sum of utilities, which
is all the Hoeffding statistic reads. An entry is retired when the
Hoeffding upper confidence bound on its mean utility drops below zero.
That bound's radius is the one for observations in a range of width 1,
too narrow for utilities in [-1, 1], so it does not keep a harmless
entry's chance of retirement within delta (see hoeffding_ucb; ROADMAP
item 1 has the fix). Retirement is permanent: active -> retired, never back, and never during
the test stage.

A bank is frozen one way: freeze is BankSnapshot.build over the active
columns, so a snapshot's hash is always that of the columns as they are now.

On-disk format (bank file): one json object per line, {id, bank_kind,
payload, embedding (fixed-width decimals), status}.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ProtocolViolation
from .util import sha256_hex

BANK_KINDS = ("rule", "exemplar")
STAGE_FIT = "fit"
STAGE_TEST = "test"

EMBED_PLACES = 8  # fixed-width decimals in bank files and content hashes


def hoeffding_ucb(mean: float, n: int, delta: float) -> float:
    """mean + sqrt(ln(2/delta) / (2 n)), the retirement test statistic.

    The radius is Hoeffding's two-sided one for observations in a range of
    width 1. Utilities lie in [-1, 1], a range of width 2, so it is too
    narrow and the chance this falls below zero at a true mean of 0 exceeds
    delta: with +-1 utilities and delta = 0.05, exact binomial tails give
    0.100, 0.097 and 0.088 at n = 30, 100 and 400. ROADMAP item 1 has the
    fix.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return mean + math.sqrt(math.log(2.0 / delta) / (2.0 * n))


def _embedding_texts(embeddings: np.ndarray):
    """Each row as space-separated fixed-width decimals, formatted as it is read.

    One printf-style call formats a row; `%.8f` writes the same string as
    format(x, ".8f") for every float, signed zero and subnormals included.
    """
    row = " ".join([f"%.{EMBED_PLACES}f"] * embeddings.shape[1])
    return (row % tuple(values.tolist()) for values in embeddings)


def _columns(entry_ids, payloads, embeddings) -> tuple[tuple, tuple, np.ndarray]:
    """(ids, payloads, read-only float64 embeddings), rows sorted by id.

    Rows already in id order stay a view of the caller's matrix, and no
    entries make a (0, 0) matrix. A ValueError unless there is one payload
    and one embedding row per id and every id is distinct.
    """
    ids, payloads = tuple(entry_ids), tuple(payloads)
    if len(payloads) != len(ids):
        raise ValueError(f"{len(payloads)} payloads for {len(ids)} entry ids")
    try:
        emb = np.asarray(embeddings, np.float64) if ids else np.zeros((0, 0))
    except ValueError as exc:  # rows of unequal length
        raise ValueError(f"embeddings must be a matrix with one row per entry id: {exc}") from None
    if emb.ndim != 2 or len(emb) != len(ids):
        raise ValueError(f"embeddings must be a matrix with one row per entry id, got shape {emb.shape} for {len(ids)} ids")
    order = sorted(range(len(ids)), key=ids.__getitem__)
    if order != list(range(len(ids))):
        ids, payloads, emb = tuple(ids[i] for i in order), tuple(payloads[i] for i in order), emb[order]
    dup = [a for a, b in zip(ids, ids[1:]) if a == b]
    if dup:
        raise ValueError(f"duplicate entry id {dup[0]!r}")
    emb = emb.view()  # the caller's array keeps its own flags
    emb.setflags(write=False)
    return ids, payloads, emb


@dataclass(frozen=True)
class BankSnapshot:
    """Immutable view of a bank's active entries, with a content hash."""

    bank_kind: str
    entry_ids: tuple[str, ...]
    payloads: tuple[str, ...]
    embeddings: np.ndarray  # (n_active, dim), row i belongs to entry_ids[i]; (0, 0) when empty
    content_hash: str

    @staticmethod
    def build(bank_kind: str, entry_ids, payloads, embeddings) -> "BankSnapshot":
        """Snapshot of the given rows, in id order.

        The hash is over one line per row: id, payload and embedding text.
        It covers nothing else; evidence is excluded on purpose, so
        appending it never changes a frozen hash.
        """
        ids, payloads, emb = _columns(entry_ids, payloads, embeddings)
        lines = (f"{json.dumps(e)}\t{json.dumps(p)}\t{text}" for e, p, text in zip(ids, payloads, _embedding_texts(emb)))
        return BankSnapshot(bank_kind, ids, payloads, emb, sha256_hex("\n".join(lines).encode("utf-8")))


class MemoryBank:
    """Mutable (fit-stage) entries of one kind, held as columns in ascending id."""

    def __init__(self, bank_kind: str, entry_ids, payloads, embeddings):
        if bank_kind not in BANK_KINDS:
            raise ValueError(f"bank_kind must be one of {BANK_KINDS}, got {bank_kind!r}")
        self.bank_kind = bank_kind
        self.stage = STAGE_FIT
        # row i of every column belongs to entry_ids[i]
        self.entry_ids, self.payloads, self.embeddings = _columns(entry_ids, payloads, embeddings)
        self.active = np.ones(len(self.entry_ids), bool)
        self.evidence_count = np.zeros(len(self.entry_ids), np.int64)
        self.evidence_sum = np.zeros(len(self.entry_ids))  # of paired utilities vs baseline, each in [-1, 1]
        self._rows = {e: i for i, e in enumerate(self.entry_ids)}

    def __len__(self) -> int:
        return len(self.entry_ids)

    def __contains__(self, entry_id: str) -> bool:
        return entry_id in self._rows

    def row(self, entry_id: str) -> int:
        """The entry's row in the bank's columns."""
        try:
            return self._rows[entry_id]
        except KeyError:
            raise KeyError(f"unknown entry {entry_id!r}") from None

    def _check_fit_stage(self, op: str) -> None:
        if self.stage != STAGE_FIT:
            raise ProtocolViolation(
                f"{op} is a fit-stage operation; bank {self.bank_kind!r} is frozen for test"
            )

    def append_evidence(self, entry_id: str, utilities) -> int:
        """Attach one entry's paired-utility observations; returns its new count.

        Every value must lie in [-1, 1] (NaN is rejected); if any check
        fails, nothing is added.
        """
        self._check_fit_stage("append_evidence")
        i = self.row(entry_id)
        if not self.active[i]:
            raise ValueError(f"entry {entry_id!r} is retired; evidence rejected")
        values = np.asarray(utilities, np.float64)
        outside = ~((values >= -1.0) & (values <= 1.0))
        if outside.any():
            raise ValueError(f"utility {values[outside][0]} outside [-1, 1]")
        self.evidence_count[i] += values.size
        self.evidence_sum[i] += float(values.sum())
        return int(self.evidence_count[i])

    def retirement_sweep(self, delta: float = 0.05) -> list[str]:
        """Retire every active entry whose UCB on mean utility is below zero; returns their ids, ascending.

        Entries with no evidence are never touched (UCB undefined at n=0).
        """
        self._check_fit_stage("retirement_sweep")
        counts, sums = self.evidence_count.tolist(), self.evidence_sum.tolist()
        retired = [
            i for i in np.flatnonzero(self.active & (self.evidence_count > 0)).tolist()
            if hoeffding_ucb(sums[i] / counts[i], counts[i], delta) < 0.0
        ]
        self.active[retired] = False
        return [self.entry_ids[i] for i in retired]

    def retain(self, entry_ids) -> None:
        """Retire every active entry not named; the named ones must be active.

        A fit-stage operation when it retires anything: naming exactly the
        active entries changes nothing, so a frozen bank accepts it.
        """
        keep = np.zeros(len(self), bool)
        for entry_id in sorted(set(entry_ids)):
            i = self.row(entry_id)
            if not self.active[i]:
                raise ValueError(f"entry {entry_id!r} is retired and cannot be retained")
            keep[i] = True
        if (self.active & ~keep).any():
            self._check_fit_stage("retain")
        self.active &= keep

    def copy(self) -> "MemoryBank":
        """Independent copy: same entries and stage, unshared status and evidence."""
        clone = copy.copy(self)
        clone.active, clone.evidence_count, clone.evidence_sum = (
            self.active.copy(), self.evidence_count.copy(), self.evidence_sum.copy()
        )
        return clone

    def active_columns(self) -> tuple[tuple, tuple, np.ndarray]:
        """(ids, payloads, embeddings) of the active entries in id order; no copy while every entry is active."""
        if self.active.all():
            return self.entry_ids, self.payloads, self.embeddings
        rows = np.flatnonzero(self.active).tolist()
        return tuple(self.entry_ids[i] for i in rows), tuple(self.payloads[i] for i in rows), self.embeddings[rows]

    def freeze(self) -> BankSnapshot:
        """Snapshot of the active entries, hashed from the columns as they are now."""
        return BankSnapshot.build(self.bank_kind, *self.active_columns())

    # -- persistence --------------------------------------------------------

    def save(self, path: str) -> None:
        texts = _embedding_texts(self.embeddings)
        with open(path, "w", encoding="utf-8") as fh:
            for entry_id, payload, text, active in zip(self.entry_ids, self.payloads, texts, self.active.tolist()):
                record = {"id": entry_id, "bank_kind": self.bank_kind, "payload": payload, "embedding": text.split()}
                fh.write(json.dumps(dict(record, status="active" if active else "retired"), sort_keys=True) + "\n")
