"""Synthetic task world standing in for the LLM.

The world pre-draws, per (example, entry) pair, whether that entry is
actually applicable to the example, whether an applicable injection helps,
whether an inapplicable one hurts, and how the example reacts to content
edits of that entry. Decoding is then pure lookup: the baseline answer is a
seeded Bernoulli of base_accuracy, and the memory-conditioned second pass
combines the pair draws of whatever entries were injected. Everything is a
deterministic function of (spec, seed), which makes free-rerun versus
fixed-retrieval contrasts exactly decomposable and lets an oracle read off
ground-truth utilities for every candidate intervention.

Confidences come from a two-Beta model: correct decodes draw from
Beta(mu_hi*kappa, ...), incorrect from the mirrored low component, with the
separation solved numerically to hit a target AUC. The three confidence
signals are monotone transforms of the same latent value with increasing
noise (mean < sum < first_token).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bank import BANK_KINDS, BankSnapshot, MemoryBank, MemoryEntry
from .controller import GUARD_NAMES, OracleStep
from .retrieval import ContentEdit, RetrievalResult, embed_key, retrieval_table, topic_vector
from .retrieval import retrieve  # unused; perfbench/test_tracer.py asserts every module's retrieve is one function
from .util import canonical_json, derive_seed, from_flat, stable_digest, to_flat

CONTENT_VERSIONS = ("original", "repair", "corrupt")
ORACLE_CONTEXTS = ("rule", "exemplar", "dual")

# signal -> latent weight (rest is seeded uniform noise)
SIGNAL_LATENT_WEIGHT = {"mean_logprob": 1.0, "sum_logprob": 0.85, "first_token": 0.4}


@dataclass(frozen=True)
class ConfidenceModel:
    baseline_auc: float = 0.75
    second_auc_rule: float = 0.80
    second_auc_exemplar: float = 0.80
    kappa: float = 10.0

    def second_auc(self, bank_kind: str) -> float:
        return self.second_auc_rule if bank_kind == "rule" else self.second_auc_exemplar


@dataclass(frozen=True)
class WorldSpec:
    n_examples: int = 600
    base_accuracy: float = 0.74
    applicability_rate: tuple[tuple[str, float], ...] = (("rule", 0.5), ("exemplar", 0.5))
    help_prob_given_applicable: float = 0.6
    hurt_prob_given_inapplicable: float = 0.5
    confidence_model: ConfidenceModel = field(default_factory=ConfidenceModel)
    topic_count: int = 12
    seed: int = 0
    n_rule_entries: int = 50
    n_exemplar_entries: int = 100
    embedding_dim: int = 64
    topic_weight: float = 0.9
    steps_per_episode: int = 1
    guard_pass_rate: tuple[tuple[str, float], ...] = ()  # (guard, rate) overrides; default 1.0
    toxic_entry_rate: float = 0.0
    toxic_applicability: float = 0.05
    toxic_hurt_prob: float = 0.9
    edit_sensitive_rate: float = 0.3
    repair_better_prob: float = 0.85
    retrieval_threshold: float = 0.6
    k_max: int = 2

    def __post_init__(self):
        # canonical field order so equality and hashing ignore construction order
        object.__setattr__(self, "applicability_rate", tuple(sorted(self.applicability_rate)))
        object.__setattr__(self, "guard_pass_rate", tuple(sorted(self.guard_pass_rate)))
        probs = dict(self.applicability_rate)
        cm = self.confidence_model
        for name, v in [
            ("base_accuracy", self.base_accuracy),
            ("topic_weight", self.topic_weight),
            ("confidence_model.baseline_auc", cm.baseline_auc),
            ("confidence_model.second_auc_rule", cm.second_auc_rule),
            ("confidence_model.second_auc_exemplar", cm.second_auc_exemplar),
            ("help_prob_given_applicable", self.help_prob_given_applicable),
            ("hurt_prob_given_inapplicable", self.hurt_prob_given_inapplicable),
            ("toxic_entry_rate", self.toxic_entry_rate),
            ("toxic_applicability", self.toxic_applicability),
            ("toxic_hurt_prob", self.toxic_hurt_prob),
            ("edit_sensitive_rate", self.edit_sensitive_rate),
            ("repair_better_prob", self.repair_better_prob),
            *[(f"applicability_rate.{k}", p) for k, p in probs.items()],
            *[(f"guard_pass_rate.{g}", r) for g, r in self.guard_pass_rate],
        ]:
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        kinds = sorted(f"applicability_rate.{k}" for k in set(probs) ^ set(BANK_KINDS))
        if kinds:
            raise ValueError(f"applicability_rate must name rule and exemplar; missing or unknown: {kinds}")
        bad = sorted(f"guard_pass_rate.{g}" for g, _ in self.guard_pass_rate if g not in GUARD_NAMES)
        if bad:
            raise ValueError(f"unknown guards {bad}; guards are {', '.join(GUARD_NAMES)}")
        for name, v, least in [
            ("n_examples", self.n_examples, 1),
            ("topic_count", self.topic_count, 1),
            ("steps_per_episode", self.steps_per_episode, 1),
            ("embedding_dim", self.embedding_dim, 1),
            ("k_max", self.k_max, 1),
            ("n_rule_entries", self.n_rule_entries, 0),
            ("n_exemplar_entries", self.n_exemplar_entries, 0),
        ]:
            if v < least:
                raise ValueError(f"{name} must be >= {least}, got {v}")
        if not 0 < cm.kappa < math.inf:
            raise ValueError(f"confidence_model.kappa must be finite and > 0, got {cm.kappa}")

    def rate_for(self, bank_kind: str) -> float:
        return dict(self.applicability_rate)[bank_kind]

    def guard_rate(self, guard: str) -> float:
        return dict(self.guard_pass_rate).get(guard, 1.0)

    def to_flat(self) -> dict[str, str]:
        return to_flat(self)

    @staticmethod
    def from_flat(flat: dict[str, str]) -> "WorldSpec":
        return from_flat(WorldSpec, flat)

    def world_hash(self) -> str:
        return stable_digest(canonical_json(self.to_flat()))


# ---------------------------------------------------------------------------
# Beta confidence model, separation solved for a target AUC
# ---------------------------------------------------------------------------

_SEPARATION_CACHE: dict = {}


def _mc_auc(d: float, kappa: float, rng: np.random.Generator) -> float:
    mu_hi = min(max(0.5 + d, 0.01), 0.99)
    mu_lo = min(max(0.5 - d, 0.01), 0.99)
    hi = rng.beta(mu_hi * kappa, (1 - mu_hi) * kappa, 30000)
    lo = rng.beta(mu_lo * kappa, (1 - mu_lo) * kappa, 30000)
    return float(np.mean(hi > lo) + 0.5 * np.mean(hi == lo))


def beta_separation_for_auc(target_auc: float, kappa: float) -> float:
    """Bisect the mean separation d so that P(hi > lo) hits target_auc."""
    key = (round(target_auc, 4), round(kappa, 4))
    if key in _SEPARATION_CACHE:
        return _SEPARATION_CACHE[key]
    target = min(max(target_auc, 0.02), 0.98)
    lo_d, hi_d = -0.49, 0.49
    for i in range(30):
        mid = (lo_d + hi_d) / 2.0
        rng = np.random.default_rng(derive_seed("auc-solve", key, i))
        if _mc_auc(mid, kappa, rng) < target:
            lo_d = mid
        else:
            hi_d = mid
    d = (lo_d + hi_d) / 2.0
    _SEPARATION_CACHE[key] = d
    return d


def _beta_params(target_auc: float, kappa: float, correct: bool) -> tuple[float, float]:
    d = beta_separation_for_auc(target_auc, kappa)
    mu = 0.5 + d if correct else 0.5 - d
    mu = min(max(mu, 0.01), 0.99)
    return mu * kappa, (1 - mu) * kappa


# ---------------------------------------------------------------------------
# the world
# ---------------------------------------------------------------------------

@dataclass
class Example:
    idx: int
    topic: int
    baseline_correct: bool
    embedding: np.ndarray  # a row of World.query_embeddings


@dataclass(frozen=True)
class PairDraws:
    applicable: bool
    help: bool
    hurt: bool
    sensitivity: str  # none | repair_better | corrupt_better


@dataclass
class ExampleOutcomeTable:
    example_id: int
    baseline_correct: bool
    second_correct_by_context: dict  # (context, version) -> bool
    confidences: dict  # context -> float


class World:
    """Deterministic world: banks, examples, and outcome/confidence lookups."""

    def __init__(self, spec: WorldSpec):
        self.spec = spec
        self.seed = spec.seed
        rng = np.random.default_rng(derive_seed(spec.seed, "world"))
        self._topics: dict[int, np.ndarray] = {}  # topic -> topic_vector, drawn on first use

        self.banks: dict[str, MemoryBank] = {}
        self.toxic_ids: set[str] = set()
        for kind, count, prefix in (
            ("rule", spec.n_rule_entries, "R"),
            ("exemplar", spec.n_exemplar_entries, "E"),
        ):
            bank = MemoryBank(kind)
            for i in range(count):
                eid = f"{prefix}{i:03d}"
                topic = i % spec.topic_count
                if spec.toxic_entry_rate > 0 and rng.random() < spec.toxic_entry_rate:
                    self.toxic_ids.add(eid)
                bank.add_entry(
                    MemoryEntry(
                        id=eid,
                        bank_kind=kind,
                        payload=f"{kind} {eid}: guidance for topic {topic}",
                        embedding=embed_key(
                            (spec.seed, "entry", eid), spec.embedding_dim, self._topic(topic), spec.topic_weight
                        ),
                    )
                )
            self.banks[kind] = bank

        # one row per example: retrieval tables rank them a block at a time
        self.query_embeddings = np.empty((spec.n_examples, spec.embedding_dim))
        self.examples: list[Example] = []
        for i in range(spec.n_examples):
            topic = int(rng.integers(spec.topic_count))
            self.query_embeddings[i] = embed_key(
                (spec.seed, "query", i), spec.embedding_dim, self._topic(topic), spec.topic_weight
            )
            self.examples.append(
                Example(
                    idx=i,
                    topic=topic,
                    baseline_correct=bool(rng.random() < spec.base_accuracy),
                    embedding=self.query_embeddings[i],
                )
            )

        self._tables: dict = {}  # snapshot content_hash -> RetrievalTable
        self._pair_cache: dict = {}
        self._guard_cache: dict = {}
        self._conf_cache: dict = {}

    # -- structure ----------------------------------------------------------

    def entry_bank(self, entry_id: str) -> str:
        return "rule" if entry_id.startswith("R") else "exemplar"

    def _topic(self, topic: int) -> np.ndarray:
        vec = self._topics.get(topic)
        if vec is None:
            vec = self._topics[topic] = topic_vector(topic, self.spec.embedding_dim)
        return vec

    def snapshots(self) -> dict[str, BankSnapshot]:
        return {k: b.freeze() for k, b in self.banks.items()}

    def retrieve(self, idx: int, snapshot: BankSnapshot) -> RetrievalResult:
        """retrieve() for example idx, served from the snapshot's table (built on first use)."""
        table = self._tables.get(snapshot.content_hash)
        if table is None:
            table = retrieval_table(self.query_embeddings, snapshot, self.spec.retrieval_threshold, self.spec.k_max)
            self._tables[snapshot.content_hash] = table
        return table.result(idx, idx)

    def episodes(self) -> list[tuple[int, list[int]]]:
        spe = self.spec.steps_per_episode
        return [
            (eid, list(range(start, min(start + spe, len(self.examples)))))
            for eid, start in enumerate(range(0, len(self.examples), spe))
        ]

    def true_action(self, idx: int) -> str:
        return f"ans{idx}"

    def action_utility(self, idx: int, action) -> float:
        return 1.0 if action == self.true_action(idx) else 0.0

    # -- pre-drawn randomness -------------------------------------------------

    def pair_draws(self, idx: int, entry_id: str) -> PairDraws:
        key = (idx, entry_id)
        hit = self._pair_cache.get(key)
        if hit is not None:
            return hit
        spec = self.spec
        rng = np.random.default_rng(derive_seed(self.seed, "pair", idx, entry_id))
        u = rng.random(4)
        if entry_id in self.toxic_ids:
            rate, hurt_p = spec.toxic_applicability, spec.toxic_hurt_prob
        else:
            rate, hurt_p = spec.rate_for(self.entry_bank(entry_id)), spec.hurt_prob_given_inapplicable
        sens_total = spec.edit_sensitive_rate
        sens_repair = sens_total * spec.repair_better_prob
        if u[3] < sens_repair:
            sensitivity = "repair_better"
        elif u[3] < sens_total:
            sensitivity = "corrupt_better"
        else:
            sensitivity = "none"
        draws = PairDraws(
            applicable=bool(u[0] < rate),
            help=bool(u[1] < spec.help_prob_given_applicable),
            hurt=bool(u[2] < hurt_p),
            sensitivity=sensitivity,
        )
        self._pair_cache[key] = draws
        return draws

    def guard_results(self, idx: int) -> dict[str, bool]:
        hit = self._guard_cache.get(idx)
        if hit is not None:
            return hit
        out = {}
        for guard in GUARD_NAMES:
            rate = self.spec.guard_rate(guard)
            if rate >= 1.0:
                out[guard] = True
            else:
                rng = np.random.default_rng(derive_seed(self.seed, "guard", idx, guard))
                out[guard] = bool(rng.random() < rate)
        self._guard_cache[idx] = out
        return out

    def _confidence(self, cache_key, target_auc: float, correct: bool, signal: str) -> float:
        full_key = (cache_key, signal)
        hit = self._conf_cache.get(full_key)
        if hit is not None:
            return hit
        a, b = _beta_params(target_auc, self.spec.confidence_model.kappa, correct)
        rng = np.random.default_rng(derive_seed(self.seed, "conf", cache_key))
        latent = float(rng.beta(a, b))
        w = SIGNAL_LATENT_WEIGHT[signal]
        if w >= 1.0:
            value = latent
        else:
            noise_rng = np.random.default_rng(derive_seed(self.seed, "signal", cache_key, signal))
            value = float(np.clip(w * latent + (1.0 - w) * noise_rng.random(), 0.0, 1.0))
        self._conf_cache[full_key] = value
        return value

    # -- decoding -------------------------------------------------------------

    def decode_baseline(self, idx: int, signal: str = "mean_logprob"):
        ex = self.examples[idx]
        action = self.true_action(idx) if ex.baseline_correct else f"alt{idx}.b"
        conf = self._confidence(
            ("b", idx), self.spec.confidence_model.baseline_auc, ex.baseline_correct, signal
        )
        return action, conf

    def second_correct(self, idx: int, injected_ids, version: str = "original", edited_ids=()) -> bool:
        """Outcome of a memory-conditioned pass injecting the given entries."""
        injected = tuple(injected_ids)
        if not injected:
            return self.examples[idx].baseline_correct
        base = self.examples[idx].baseline_correct
        applicable = [e for e in injected if self.pair_draws(idx, e).applicable]
        if applicable:
            correct = base or self.pair_draws(idx, applicable[0]).help
        else:
            correct = base and not self.pair_draws(idx, injected[0]).hurt
        if version in ("repair", "corrupt") and edited_ids:
            edited_hit = [e for e in injected if e in set(edited_ids)]
            if edited_hit:
                sens = self.pair_draws(idx, edited_hit[0]).sensitivity
                if sens == "repair_better":
                    correct = version == "repair"
                elif sens == "corrupt_better":
                    correct = version == "corrupt"
        return correct

    def _deciding_bank(self, idx: int, injected) -> str:
        applicable = [e for e in injected if self.pair_draws(idx, e).applicable]
        return self.entry_bank(applicable[0] if applicable else injected[0])

    def decode_second(
        self,
        idx: int,
        injected_ids,
        version: str = "original",
        edited_ids=(),
        signal: str = "mean_logprob",
    ):
        injected = tuple(injected_ids)
        if not injected:
            # compute-matched retry: deterministic decode repeats the baseline
            return self.decode_baseline(idx, signal)
        correct = self.second_correct(idx, injected, version, edited_ids)
        bank = self._deciding_bank(idx, injected)
        action = self.true_action(idx) if correct else f"alt{idx}.m"
        conf = self._confidence(
            ("s", idx, bank, correct), self.spec.confidence_model.second_auc(bank), correct, signal
        )
        return action, conf

    # -- canonical outcome tables and oracle ground truth ---------------------

    def context_injection(self, idx: int, context: str, snapshots: dict) -> tuple[str, ...]:
        """Retrieved ids a given bank-policy context would inject."""
        if context == "none":
            return ()
        if context == "dual":
            ids: list[str] = []
            for kind in ("rule", "exemplar"):
                ids.extend(self.retrieve(idx, snapshots[kind]).retrieved_ids)
            return tuple(ids)
        return self.retrieve(idx, snapshots[context]).retrieved_ids

    def outcome_table(self, idx: int, snapshots: dict | None = None) -> ExampleOutcomeTable:
        snaps = snapshots or self.snapshots()
        by_context: dict = {}
        confs: dict = {}
        for context in ("none",) + ORACLE_CONTEXTS:
            injected = self.context_injection(idx, context, snaps)
            for version in CONTENT_VERSIONS:
                by_context[(context, version)] = self.second_correct(idx, injected, version)
            _, conf = self.decode_second(idx, injected)
            confs[context] = conf
        return ExampleOutcomeTable(
            example_id=idx,
            baseline_correct=self.examples[idx].baseline_correct,
            second_correct_by_context=by_context,
            confidences=confs,
        )

    def oracle_steps(
        self,
        example_ids,
        snapshots: dict | None = None,
        contexts=ORACLE_CONTEXTS,
        version: str = "original",
        edited_ids=(),
        signal: str = "mean_logprob",
    ) -> list[OracleStep]:
        """Ground-truth candidates per example, for the paired upper bound."""
        snaps = snapshots or self.snapshots()
        steps = []
        for idx in example_ids:
            base_action, base_conf = self.decode_baseline(idx, signal)
            candidates = []
            for context in contexts:
                injected = self.context_injection(idx, context, snaps)
                if not injected:
                    continue
                a2, _ = self.decode_second(idx, injected, version, edited_ids, signal)
                candidates.append((a2, self.action_utility(idx, a2)))
            steps.append(
                OracleStep(
                    example_id=idx,
                    baseline_action=base_action,
                    baseline_utility=self.action_utility(idx, base_action),
                    baseline_confidence=base_conf,
                    candidates=tuple(candidates),
                )
            )
        return steps

    # -- content-edit machinery ------------------------------------------------

    def default_edits(self, entry_ids, edit_kind: str) -> list[ContentEdit]:
        return [
            ContentEdit(eid, f"{edit_kind} version of {eid}", edit_kind) for eid in entry_ids
        ]

    def drifted_snapshot(self, bank_kind: str, edits: list[ContentEdit]) -> BankSnapshot:
        """Edited-bank view for free reruns: edited entries drift topics.

        The stored bank embeddings never change (content edits replace payload
        only); drift models the edited text embedding differently, which is
        what confounds free-rerun counterfactuals.
        """
        by_id = {e.entry_id: e for e in edits}
        spec = self.spec
        entries = []
        for entry in self.banks[bank_kind].active_entries():
            edit = by_id.get(entry.id)
            if edit is None:
                entries.append(entry)
                continue
            rng = np.random.default_rng(derive_seed(self.seed, "drift", entry.id, edit.edit_kind))
            topic = int(rng.integers(spec.topic_count))
            entries.append(
                MemoryEntry(
                    id=entry.id,
                    bank_kind=bank_kind,
                    payload=edit.new_payload,
                    embedding=embed_key(
                        (self.seed, "entry", entry.id, "drift", edit.edit_kind),
                        spec.embedding_dim,
                        self._topic(topic),
                        spec.topic_weight,
                    ),
                )
            )
        return BankSnapshot.build(bank_kind, entries)


def generate_world(spec: WorldSpec) -> World:
    """Build the deterministic world for a spec; same spec, same world."""
    return World(spec)
