"""Deterministic similarity retrieval, frozen identities, and content-edit files.

Retrieval is a pure function of (query, snapshot, threshold, k_max): cosine
similarity over the snapshot's active entries, strictly above the threshold,
in descending similarity with ties broken by ascending entry id. The
tie-break makes replay exact. Since it is pure, a world ranks all of its
queries against a snapshot once (retrieval_table) and serves every later
retrieval on that snapshot from the table.

Embeddings come from a seeded stub: a random unit vector blended with a
per-topic unit vector, so similarity structure is scriptable (same topic =>
high cosine) without any learned model. A world draws its query and entry
embeddings as matrices (embed_rows); topic vectors and drifted entries are
keyed one at a time (embed_key).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .bank import BankSnapshot
from .util import derive_seed

EDIT_KINDS = ("repair", "corrupt")


@dataclass(frozen=True)
class Query:
    id: int
    embedding: np.ndarray


@dataclass(frozen=True)
class RetrievalResult:
    query_id: int
    retrieved_ids: tuple[str, ...]
    similarities: tuple[float, ...]


@dataclass(frozen=True)
class ContentEdit:
    entry_id: str
    new_payload: str
    edit_kind: str  # repair | corrupt

    def __post_init__(self):
        if self.edit_kind not in EDIT_KINDS:
            raise ValueError(f"edit_kind must be one of {EDIT_KINDS}, got {self.edit_kind!r}")


def topic_vector(topic: int, dim: int) -> np.ndarray:
    """The unit vector that every embedding of one topic shares."""
    v = np.random.default_rng(derive_seed("embed", ("topic", topic))).standard_normal(dim)
    return v / np.linalg.norm(v)


# queries x entries ranked per block: 64 KB of similarities and as much for
# the working copy the top k are selected from, however many queries a table
# holds. With 0.5 MB blocks the peak RSS of a 2000-query, 8-step fit rose
# from 44.0 to 48.7 MB; with these it is 45.7 MB.
TABLE_BLOCK_CELLS = 1 << 13
# a NaN cosine's value in the selection copy: below every cosine, above -inf
_BELOW_ANY_COSINE = -np.finfo(np.float64).max


def embed_rows(rng: np.random.Generator, topics: np.ndarray, topic_vecs: np.ndarray, topic_weight: float) -> np.ndarray:
    """One unit embedding per entry of `topics`.

    Row i blends a standard-normal unit vector from rng, weight
    1 - topic_weight, with topic_vecs[topics[i]], weight topic_weight, and
    is normalised again; the blend runs in place a row block at a time.
    """
    out = rng.standard_normal((len(topics), topic_vecs.shape[1]))
    scaled = topic_weight * topic_vecs
    rows = max(1, TABLE_BLOCK_CELLS // max(1, out.shape[1]))
    for start in range(0, len(out), rows):
        v = out[start:start + rows]
        v *= (1.0 - topic_weight) / np.linalg.norm(v, axis=1, keepdims=True)
        v += scaled[topics[start:start + rows]]
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    return out


def embed_key(key, dim: int, topic_vec: np.ndarray, topic_weight: float = 0.9) -> np.ndarray:
    """Hash-seeded unit embedding blended with topic_vec: the one-row case of embed_rows."""
    rng = np.random.default_rng(derive_seed("embed", key))
    return embed_rows(rng, np.zeros(1, np.intp), np.reshape(topic_vec, (1, dim)), topic_weight)[0]


@dataclass(frozen=True)
class RetrievalTable:
    """retrieve() for every row of a query matrix against one snapshot."""

    entry_ids: tuple[str, ...]
    ranked: np.ndarray  # (n_queries, min(k_max, n_entries)) snapshot rows, best first
    similarities: np.ndarray  # cosine of each ranked entry
    counts: np.ndarray  # (n_queries,) leading ranked entries strictly above the threshold

    def result(self, row: int, query_id: int) -> RetrievalResult:
        n = self.counts[row]
        return RetrievalResult(
            query_id,
            tuple(self.entry_ids[i] for i in self.ranked[row, :n].tolist()),
            tuple(self.similarities[row, :n].tolist()),
        )


def retrieval_table(
    queries: np.ndarray, snapshot: BankSnapshot, threshold: float, k_max: int
) -> RetrievalTable:
    """Rank every query row against the snapshot, one matmul per row block.

    The top min(k_max, entries) are selected in descending cosine, ties to
    the lower snapshot row, and snapshot rows are sorted by entry id, so ties
    go to the ascending id: the order of a stable sort, at k passes per row.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    queries = np.asarray(queries, np.float64)
    n, m = len(queries), len(snapshot.entry_ids)
    k = min(k_max, m)
    ranked = np.zeros((n, k), np.intp)
    sims = np.zeros((n, k))
    counts = np.zeros(n, np.intp)
    if m:
        emb = snapshot.embeddings
        if queries.shape[1] != emb.shape[1]:
            raise ValueError(f"query dimension {queries.shape[1]} != bank dimension {emb.shape[1]}")
        en = np.linalg.norm(emb, axis=1)
        qn = np.linalg.norm(queries, axis=1)
        rows = max(1, TABLE_BLOCK_CELLS // m)
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            block = queries[start:stop] @ emb.T
            block /= qn[start:stop, None] * en
            # k rounds of argmax select the top k: argmax takes the first
            # maximum, so ties go to the lower row as in a stable sort. fmax
            # drops NaN (a zero-norm vector), which then ranks below every
            # cosine but above the chosen cells.
            work = np.fmax(block, _BELOW_ANY_COSINE)
            order = ranked[start:stop]
            for j in range(k):
                order[:, j] = work.argmax(axis=1)
                work[np.arange(stop - start), order[:, j]] = -np.inf
            top = np.take_along_axis(block, order, axis=1)
            sims[start:stop] = top
            counts[start:stop] = np.count_nonzero(top > threshold, axis=1)
    return RetrievalTable(snapshot.entry_ids, ranked, sims, counts)


def retrieve(
    query: Query, snapshot: BankSnapshot, threshold: float = 0.6, k_max: int = 2
) -> RetrievalResult:
    """Up to k_max entries with cosine similarity strictly above threshold.

    The one-row case of retrieval_table; a World serves its own queries from
    a table per snapshot (World.retrieve).
    """
    queries = np.asarray(query.embedding, np.float64)[None, :]
    return retrieval_table(queries, snapshot, threshold, k_max).result(0, query.id)


def freeze_identities(retrievals) -> dict[int, tuple[str, ...]]:
    """Map query_id -> retrieved_ids over (query id, retrieved ids) pairs.

    The pairs are a completed run's routed steps that retrieved
    (StepTable.retrievals); a query id given twice must name the same ids.
    """
    frozen: dict[int, tuple[str, ...]] = {}
    for qid, ids in retrievals:
        ids = tuple(ids)
        if qid in frozen and frozen[qid] != ids:
            raise ValueError(f"conflicting retrieved identities for query {qid}")
        frozen[qid] = ids
    return frozen


def target_hit_partition(
    frozen_map: dict[int, tuple[str, ...]], edited_ids
) -> tuple[list[int], list[int]]:
    """Split routed queries by whether their frozen retrieved set hits an edit."""
    if not frozen_map:
        raise ValueError("frozen map is empty")
    edited = set(edited_ids)
    hit, non_hit = [], []
    for qid in sorted(frozen_map):
        (hit if edited.intersection(frozen_map[qid]) else non_hit).append(qid)
    return hit, non_hit


# -- file formats -----------------------------------------------------------

def save_edits(edits: list[ContentEdit], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in edits:
            fh.write(json.dumps(asdict(e), sort_keys=True) + "\n")


def load_edits(path: str) -> list[ContentEdit]:
    """One JSON object per line, one line per entry; a bad line is a ValueError naming the file and line.

    A file with no edit is a ValueError too: a counterfactual over it would
    hit nothing and test nothing.
    """
    names = [f.name for f in fields(ContentEdit)]
    edits = []
    seen: dict = {}  # entry_id -> the line that edits it
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise ValueError(f"expected a JSON object with fields {names}, got {line.strip()!r}")
                missing = [k for k in names if k not in rec]
                if missing:
                    raise ValueError(f"missing field {', '.join(missing)}")
                not_text = [k for k in names if not isinstance(rec[k], str)]
                if not_text:
                    raise ValueError(f"field {', '.join(not_text)} must be a string")
                edit = ContentEdit(**{k: rec[k] for k in names})
                if edit.entry_id in seen:
                    raise ValueError(f"entry_id {edit.entry_id!r} is already edited on line {seen[edit.entry_id]}")
                seen[edit.entry_id] = lineno
                edits.append(edit)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not edits:
        raise ValueError(f"{path}: no edits")
    return edits
