"""Shared world shapes and the per-query retrieval reference for the test suite."""

import numpy as np

from gatedmem.retrieval import RetrievalResult
from gatedmem.worldsim import ConfidenceModel, WorldSpec


def reference_retrieve(query, snapshot, threshold, k_max) -> RetrievalResult:
    """Brute-force retrieve for one query: a matvec and a sort by (-sim, id)."""
    if len(snapshot.entry_ids) == 0:
        return RetrievalResult(query.id, (), ())
    q = np.asarray(query.embedding, np.float64)
    en = np.linalg.norm(snapshot.embeddings, axis=1)
    sims = snapshot.embeddings @ q / (en * np.linalg.norm(q))
    above = np.flatnonzero(sims > threshold)
    ranked = sorted(above, key=lambda i: (-sims[i], snapshot.entry_ids[i]))[:k_max]
    return RetrievalResult(
        query.id,
        tuple(snapshot.entry_ids[i] for i in ranked),
        tuple(float(sims[i]) for i in ranked),
    )


def arith_shape_spec(seed: int = 0, n: int = 600) -> WorldSpec:
    """Reasoning-style world: base accuracy 0.74, oracle-reachable ~0.845."""
    return WorldSpec(
        n_examples=n,
        base_accuracy=0.74,
        applicability_rate=(("rule", 0.35), ("exemplar", 0.35)),
        help_prob_given_applicable=0.40,
        hurt_prob_given_inapplicable=0.5,
        seed=seed,
    )


def localization_shape_spec(seed: int = 0) -> WorldSpec:
    """Counterfactual-localization world: ~800 routed rows, ~105 target hits.

    4 topics; the exemplar bank has 12 entries per topic, so editing 4 entries
    of one topic makes roughly 200 * (1 - C(8,2)/C(12,2)) ~ 115 of the ~800
    routed rows target hits.
    """
    return WorldSpec(
        n_examples=1000,
        base_accuracy=0.74,
        applicability_rate=(("rule", 0.5), ("exemplar", 0.5)),
        help_prob_given_applicable=0.5,
        hurt_prob_given_inapplicable=0.4,
        topic_count=4,
        n_rule_entries=24,
        n_exemplar_entries=48,
        edit_sensitive_rate=0.40,
        repair_better_prob=0.85,
        seed=seed,
    )
