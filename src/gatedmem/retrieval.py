"""Deterministic similarity retrieval, frozen identities, and content-edit files.

Retrieval is a pure function of (query, snapshot, threshold, k_max): cosine
similarity over the snapshot's active entries, strictly above the threshold,
sorted by descending similarity with ties broken by ascending entry id. The
tie-break makes replay exact.

Embeddings come from a hash-seeded stub: a per-key unit vector blended with a
per-topic unit vector, so similarity structure is scriptable (same topic =>
high cosine) without any learned model.
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


def unit_vector(key, dim: int) -> np.ndarray:
    rng = np.random.default_rng(derive_seed("embed", key))
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def embed_key(key, dim: int, topic: int | None = None, topic_weight: float = 0.9) -> np.ndarray:
    """Hash-seeded unit embedding with an optional shared topic component."""
    base = unit_vector(key, dim)
    if topic is None:
        return base
    tvec = unit_vector(("topic", topic), dim)
    v = (1.0 - topic_weight) * base + topic_weight * tvec
    return v / np.linalg.norm(v)


def retrieve(
    query: Query, snapshot: BankSnapshot, threshold: float = 0.6, k_max: int = 2
) -> RetrievalResult:
    """Up to k_max entries with cosine similarity strictly above threshold."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if len(snapshot.entry_ids) == 0:
        return RetrievalResult(query.id, (), ())
    q = np.asarray(query.embedding, np.float64)
    if q.shape[0] != snapshot.embeddings.shape[1]:
        raise ValueError(
            f"query dimension {q.shape[0]} != bank dimension {snapshot.embeddings.shape[1]}"
        )
    qn = np.linalg.norm(q)
    en = np.linalg.norm(snapshot.embeddings, axis=1)
    sims = snapshot.embeddings @ q / (en * qn)
    above = np.flatnonzero(sims > threshold)
    ranked = sorted(above, key=lambda i: (-sims[i], snapshot.entry_ids[i]))[:k_max]
    return RetrievalResult(
        query.id,
        tuple(snapshot.entry_ids[i] for i in ranked),
        tuple(float(sims[i]) for i in ranked),
    )


def freeze_identities(traces) -> dict[int, tuple[str, ...]]:
    """Map query_id -> retrieved_ids for every routed step of a completed run.

    Non-routed queries are absent. Duplicate query ids must agree.
    """
    frozen: dict[int, tuple[str, ...]] = {}
    for trace in traces:
        for step in trace.steps:
            if not step.routed or step.retrieved is None:
                continue
            qid = step.retrieved.query_id
            ids = tuple(step.retrieved.retrieved_ids)
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
    """One JSON object per line; a bad line is a ValueError naming the file and line."""
    names = [f.name for f in fields(ContentEdit)]
    edits = []
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
                edits.append(ContentEdit(**{k: rec[k] for k in names}))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return edits
