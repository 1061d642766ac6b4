"""Deterministic similarity retrieval and edits files.

Retrieval is a pure function of (query, snapshot, threshold, k_max): cosine
similarity over the snapshot's active entries, strictly above the threshold,
in descending similarity with ties broken by ascending entry id. The
tie-break makes replay exact. Since it is pure, a world ranks each of its
queries against a snapshot at most once, on first read (retrieval_table on
a block of the missing rows, which returns each row's ranked snapshot rows
and how many lead above the threshold), and serves every later retrieval of
that query on that snapshot from its table. A table keeps no cosines;
retrieve, the one-query form, computes those of the entries it returns.

Embeddings come from a seeded stub: a random unit vector blended with a
per-topic unit vector, so similarity structure is scriptable (same topic =>
high cosine) without any learned model. A world draws every topic vector
when it is built (topic_vector), its entry embeddings as a matrix
(embed_rows), and its query embeddings a block of rows at a time with the
same blend (blend_rows), as it ranks them; drifted entries are keyed one at
a time (embed_key).
An edits file names the entries a counterfactual replays as both repair
and corrupt; load_edits validates each line and returns the entry ids.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .bank import BankSnapshot
from .util import derive_seed, read_text

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


def topic_vector(topic: int, dim: int) -> np.ndarray:
    """The unit vector that every embedding of one topic shares."""
    v = np.random.default_rng(derive_seed("embed", ("topic", topic))).standard_normal(dim)
    return v / np.linalg.norm(v)


# doubles per block of blocked work, 64 KB, however large the table: queries
# x entries ranked per block (the similarities, and as much again for the
# working copy the top k are selected from), embedding rows blended per
# block, and the pair cells a world draws per block at the rows a table
# ranks, four uniforms each. With 0.5 MB blocks the peak RSS of a
# 2000-query, 8-step fit rose from 44.0 to 48.7 MB; with these it is 45.7 MB.
TABLE_BLOCK_CELLS = 1 << 13
# a NaN cosine's value in the selection copy: below every cosine, above -inf
_BELOW_ANY_COSINE = -np.finfo(np.float64).max


def blend_rows(normals: np.ndarray, topics: np.ndarray, topic_vecs: np.ndarray, topic_weight: float) -> np.ndarray:
    """Turn each row of standard normals into its unit embedding, in place, and return it.

    Row i, scaled to unit length, is blended with topic_vecs[topics[i]] at
    weight topic_weight and normalised again. Every step reads one row
    alone, so a row's bits do not depend on which rows are blended with it.
    """
    normals *= (1.0 - topic_weight) / np.linalg.norm(normals, axis=1, keepdims=True)
    normals += topic_weight * topic_vecs[topics]
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return normals


def embed_rows(rng: np.random.Generator, topics: np.ndarray, topic_vecs: np.ndarray, topic_weight: float) -> np.ndarray:
    """One unit embedding per entry of `topics`: rng's standard normals, one row each, blended a row block at a time."""
    out = rng.standard_normal((len(topics), topic_vecs.shape[1]))
    rows = max(1, TABLE_BLOCK_CELLS // max(1, out.shape[1]))
    for start in range(0, len(out), rows):
        blend_rows(out[start:start + rows], topics[start:start + rows], topic_vecs, topic_weight)
    return out


def embed_key(key, dim: int, topic_vec: np.ndarray, topic_weight: float = 0.9) -> np.ndarray:
    """Hash-seeded unit embedding blended with topic_vec: the one-row case of embed_rows."""
    rng = np.random.default_rng(derive_seed("embed", key))
    return embed_rows(rng, np.zeros(1, np.intp), np.reshape(topic_vec, (1, dim)), topic_weight)[0]


def retrieval_table(
    queries: np.ndarray, snapshot: BankSnapshot, threshold: float, k_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """(ranked, counts): retrieve() for every query row against the snapshot, without the cosines.

    Row r of ranked holds query r's top min(k_max, entries) snapshot rows,
    best first, and counts[r] how many of them lead strictly above the
    threshold. Each row block is one matmul. Entries are selected in
    descending cosine, ties to the lower snapshot row, and snapshot rows are
    sorted by entry id, so ties go to the ascending id: the order of a stable
    sort, at k passes per row.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    queries = np.asarray(queries, np.float64)
    n, m = len(queries), len(snapshot.entry_ids)
    k = min(k_max, m)
    ranked = np.zeros((n, k), np.intp)
    counts = np.zeros(n, np.intp)
    if m:
        emb = snapshot.embeddings
        if queries.shape[1] != emb.shape[1]:
            raise ValueError(f"query dimension {queries.shape[1]} != bank dimension {emb.shape[1]}")
        en = np.linalg.norm(emb, axis=1)
        rows = max(1, TABLE_BLOCK_CELLS // m)
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            block = queries[start:stop] @ emb.T
            # a row's norm reduces that row alone; over all rows at once
            # norm would hold two query-sized temporaries
            block /= np.linalg.norm(queries[start:stop], axis=1)[:, None] * en
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
            counts[start:stop] = np.count_nonzero(top > threshold, axis=1)
    return ranked, counts


def retrieve(
    query: Query, snapshot: BankSnapshot, threshold: float = 0.6, k_max: int = 2
) -> RetrievalResult:
    """Up to k_max entries with cosine similarity strictly above threshold, and their cosines.

    The one-row case of retrieval_table; a World serves its own queries from
    one table per bank kind (World._table) as pair-table columns (World.injected).
    """
    q = np.asarray(query.embedding, np.float64)
    ranked, counts = retrieval_table(q[None, :], snapshot, threshold, k_max)
    top = ranked[0, :counts[0]]
    emb = snapshot.embeddings[top]
    sims = (emb @ q / (np.linalg.norm(emb, axis=1) * np.linalg.norm(q))).tolist() if top.size else []
    return RetrievalResult(query.id, tuple(snapshot.entry_ids[i] for i in top.tolist()), tuple(sims))


# -- file formats -----------------------------------------------------------

def load_edits(path: str) -> list[str]:
    """The edited entry ids, in file order; a bad line is a ValueError naming the file and line.

    Each line is a JSON object with string entry_id, edit_kind (repair or
    corrupt) and new_payload, and no entry_id repeats. A file with no edit
    is a ValueError too: a counterfactual over it would hit nothing and
    test nothing.
    """
    names = ["entry_id", "new_payload", "edit_kind"]
    seen: dict = {}  # entry_id -> the line that edits it
    for lineno, line in enumerate(read_text(path).split("\n"), 1):
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
            if rec["edit_kind"] not in EDIT_KINDS:
                raise ValueError(f"edit_kind must be one of {EDIT_KINDS}, got {rec['edit_kind']!r}")
            entry_id = rec["entry_id"]
            if entry_id in seen:
                raise ValueError(f"entry_id {entry_id!r} is already edited on line {seen[entry_id]}")
            seen[entry_id] = lineno
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not seen:
        raise ValueError(f"{path}: no edits")
    return list(seen)
