"""Synthetic task world standing in for the LLM.

The world draws, per (example, entry) pair, whether that entry is
actually applicable to the example, whether an applicable injection helps,
whether an inapplicable one hurts, and how the example reacts to content
edits of that entry. Decoding is then indexing, many examples at a time:
baseline_pass reads a seeded Bernoulli of base_accuracy, guards_pass the
drawn guard outcomes, injected lists (as pair-table columns, with their
pair latents) what each example retrieves from a snapshot, and second_pass
combines the pair latents of whatever entries were injected. A decode is a
correctness flag and a confidence; answer names the action it stands for. Everything is a
deterministic function of (spec, seed), which makes free-rerun versus fixed-retrieval
contrasts exactly decomposable and lets the oracle and outcome_table.json read off
ground-truth outcomes for every candidate context (decode_contexts, over ORACLE_CONTEXTS):
whether it injects anything, and its unedited second pass's correctness and confidence.

Each purpose (pair latents, guards, confidences, topics, baseline
correctness, query and entry embeddings) draws from its own keyed Philox
stream, so a draw can be made when it is first read and still be the value
an eager draw gives. Guards, baseline correctness, topics, entry embeddings
and the confidences are drawn when the world is built, as dense arrays, and
so is every topic's unit vector (topic_vector).
Query embeddings are kept as no array: each read of query rows opens the
query stream at its start and draws it through the last row it asks for,
keeping only those rows (_query_rows).
Retrieval is ranked on first read: a world ranks only the examples it is
asked for (World._table). An injected read ranks them against every snapshot
the caller holds, whichever banks it returns, so their query rows are drawn
once for all banks, whatever order callers read the banks in. The world
draws the pair latents of each row it ranks at that row's ranked entries,
the only pairs a second pass reads. Pair (i, j) is one Philox4x64-10 block
at a fixed counter, computed directly by philox_uniforms, so its value is
the one a dense draw of the whole table would give, whichever table draws
it.

Confidences come from a two-Beta model: correct decodes draw from
Beta(mu_hi*kappa, ...), incorrect from the mirrored low component, with the
separation solved exactly (a series for P(hi > lo), then bisection) to hit
a target AUC. That draw is the decode's confidence (its mean token
log-probability, in LLM terms); there is no other confidence signal.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .bank import BANK_KINDS, BankSnapshot, MemoryBank
from .retrieval import (
    TABLE_BLOCK_CELLS,
    blend_rows,
    embed_key,
    embed_rows,
    retrieval_table,
    topic_vector,
)
from .retrieval import retrieve  # unused; perfbench/test_tracer.py asserts every module's retrieve is one function
from .util import canonical_json, derive_seed, from_flat, stable_digest, to_flat

GUARD_NAMES = ("format", "valid", "progress", "contract")
# oracle candidate context -> the banks it retrieves from, in injection order; gen-world's outcome table
# and evaluate_oracle both read decode_contexts, which decodes these. dual, the widest decode, comes first,
# so decode_contexts holds no other context's outputs while it runs
ORACLE_CONTEXTS = {"dual": ("rule", "exemplar"), "rule": ("rule",), "exemplar": ("exemplar",)}
DIGEST_QUERY_CELLS = 1 << 13  # query-stream doubles that draw_digest hashes; fixed, since manifests record the digest
# largest confidence_model.kappa: the AUC solver sums O(kappa) series terms per bisection step,
# so its cost grows with kappa (about 4 ms a solve at 1000, 0.4 s at 1e4)
KAPPA_MAX = 1000.0


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
        if not 0 < cm.kappa <= KAPPA_MAX:
            raise ValueError(f"confidence_model.kappa must be > 0 and <= {KAPPA_MAX:g}, got {cm.kappa}")
        if math.isnan(self.retrieval_threshold):
            raise ValueError("retrieval_threshold must be a number, got nan")

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

def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _series_length(kappa: float) -> int:
    # terms of the 2F1 series at x <= 1/2 shrink by at most ~3/4 past n = kappa
    return int(2 * kappa) + 100


def _hyp_terms(kappa: float, a: float, x: float) -> np.ndarray:
    """Terms c_n x^n of 2F1(kappa, 1; a + 1; x), c_n = (kappa)_n / (a + 1)_n; all positive."""
    n = np.arange(_series_length(kappa) - 1)
    return np.concatenate(([1.0], np.cumprod((kappa + n) / (a + 1.0 + n) * x)))


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b).

    I_x(a, b) = x^a (1-x)^b / (a B(a, b)) * 2F1(a + b, 1; a + 1; x), summed on
    the side x <= 1/2 (I_x(a, b) = 1 - I_{1-x}(b, a)), where the series has
    positive terms and converges at least like 2^-n.
    """
    if x > 0.5:
        return 1.0 - _betainc(b, a, 1.0 - x)
    if x <= 0.0:
        return 0.0
    log_front = a * math.log(x) + b * math.log1p(-x) - math.log(a) - _log_beta(a, b)
    return math.exp(log_front) * float(_hyp_terms(a + b, a, x).sum())


@functools.cache
def _half_moments(kappa: float) -> np.ndarray:
    """mu_n = 2^(2 kappa + n) B_{1/2}(kappa + n, kappa), n < _series_length(kappa).

    By B_x(p, q) = ((p + q) B_x(p + 1, q) + x^p (1 - x)^q) / p, run downwards
    from mu = 0 past the last term: the start's error shrinks by about
    (2 kappa + n) / (2 kappa + 2 n) a step, so it is gone long before n = 0.
    """
    count = _series_length(kappa)
    mu = np.empty(count)
    m = 0.0
    for n in range(count + 60, -1, -1):
        m = ((2.0 * kappa + n) * m / 2.0 + 1.0) / (kappa + n)
        if n < count:
            mu[n] = m
    return mu


def _auc(d: float, kappa: float) -> float:
    """P(hi > lo) for hi ~ Beta((1/2 + d) kappa, (1/2 - d) kappa) and lo its mirror image.

    With a >= b (d >= 0), lo = 1 - hi' for an independent copy hi' of hi, so
    the AUC is P(hi + hi' > 1). Split at 1/2: both above is p^2, both below
    never, and one of each is 2 (q p - J), so AUC = 1 - q^2 - 2 J with
    q = I_{1/2}(a, b) and
      J = int_0^{1/2} f(1 - y) I_y(a, b) dy
        = 2^(-2 kappa) / (a B(a, b)^2) sum_n c_n 2^-n mu_n,
    c_n the 2F1(kappa, 1; a + 1; .) coefficients: positive terms throughout.
    """
    if d < 0:
        return 1.0 - _auc(-d, kappa)
    a, b = (0.5 + d) * kappa, (0.5 - d) * kappa
    total = float(_hyp_terms(kappa, a, 0.5) @ _half_moments(kappa))
    j = math.exp(-2.0 * kappa * math.log(2.0) - math.log(a) - 2.0 * _log_beta(a, b)) * total
    q = _betainc(a, b, 0.5)
    return 1.0 - q * q - 2.0 * j


@functools.cache
def _separation(target: float, kappa: float) -> float:
    # AUC is increasing in d; 50 halvings of [0, 0.49] leave < 1e-15
    lo, hi = 0.0, 0.49
    for _ in range(50):
        mid = (lo + hi) / 2.0
        if _auc(mid, kappa) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def beta_separation_for_auc(target_auc: float, kappa: float) -> float:
    """Mean separation d with P(hi > lo) = target_auc, solved exactly.

    hi ~ Beta((1/2 + d) kappa, (1/2 - d) kappa) and lo is its mirror image.
    Targets are clamped to [0.02, 0.98]. AUC(-d) = 1 - AUC(d), so a target
    below 1/2 is solved as its complement and d(1 - t) = -d(t) holds exactly.
    """
    t = min(max(target_auc, 0.02), 0.98)
    if t < 0.5:
        return -_separation(1.0 - t, kappa)
    return 0.0 if t == 0.5 else _separation(t, kappa)


def _beta_params(target_auc: float, kappa: float, correct: bool) -> tuple[float, float]:
    d = beta_separation_for_auc(target_auc, kappa)
    mu = 0.5 + d if correct else 0.5 - d
    mu = min(max(mu, 0.01), 0.99)
    return mu * kappa, (1 - mu) * kappa


# ---------------------------------------------------------------------------
# the world
# ---------------------------------------------------------------------------

# bits of a pair-latent byte; sensitivity takes two: repair_better, corrupt_better, or neither
PAIR_APPLICABLE, PAIR_HELP, PAIR_HURT, PAIR_REPAIR_BETTER, PAIR_CORRUPT_BETTER = 1, 2, 4, 8, 16


def _stream(key: int) -> np.random.Generator:
    """Generator on the Philox stream `key`, from counter 0.

    Keyed counter-based streams (Salmon et al., SC'11): each purpose has its
    own key, and philox_uniforms reads a block of a stream at a given counter.
    """
    return np.random.Generator(np.random.Philox(key=key))


# Philox4x64-10 multipliers and Weyl key increments, as in numpy's Philox
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_U64 = (1 << 64) - 1
# np.uint64 operands keep every operation in uint64, modulo 2**64: the dtype is stated, not inferred from a python int
_LO32, _32, _11 = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(11)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) 64-bit words of the 128-bit products m * x, from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> _32
    lh, hl = m_lo * x_hi, m_hi * x_lo
    mid = (m_lo * x_lo >> _32) + (lh & _LO32) + (hl & _LO32)
    return m_hi * x_hi + (lh >> _32) + (hl >> _32) + (mid >> _32), np.uint64(m) * x


def philox_uniforms(key: int, counters: np.ndarray) -> np.ndarray:
    """(len(counters), 4) uniforms of Philox4x64-10 blocks of stream `key`.

    Row r is the block at counter counters[r] (< 2**64), the four words as
    np.random.Philox turns them into doubles: the top 53 bits times 2**-53.
    np.random.Philox(key=key, counter=c).random(4) is the block at c + 1, so
    a Generator's draws and these agree bit for bit, and any block of a
    stream can be computed without the blocks before it.
    """
    x0 = np.asarray(counters, np.uint64)
    x1 = x2 = x3 = np.zeros_like(x0)
    k0, k1 = key & _U64, key >> 64 & _U64
    for _ in range(_PHILOX_ROUNDS):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ np.uint64(k0), lo1, hi0 ^ x3 ^ np.uint64(k1), lo0
        k0, k1 = (k0 + _PHILOX_W[0]) & _U64, (k1 + _PHILOX_W[1]) & _U64
    words = np.stack([x0, x1, x2, x3], axis=1) >> _11
    return words.astype(np.float64) * 2.0**-53


class World:
    """Deterministic world: banks, examples, and outcome/confidence lookups.

    Every random value is drawn here, as arrays, each purpose from its own
    keyed stream derive_seed(seed, purpose); draws depend on the spec and the
    world's shape only, never on snapshots, retirement, drift or call order,
    nor on whether they are made at build time or on first read. Decoding
    indexes these arrays. The topic vectors, which depend on the topic and
    the embedding dimension only, are drawn at build, one row per topic.
    """

    def __init__(self, spec: WorldSpec):
        self.spec = spec
        self.seed = spec.seed
        n = spec.n_examples
        # row t: topic t's unit vector, which entry, query and drifted embeddings blend with
        self._topic_vecs = np.array([topic_vector(t, spec.embedding_dim) for t in range(spec.topic_count)])

        # entries: rule ids then exemplar ids, the columns of the pair table
        kinds = [("rule", spec.n_rule_entries, "R"), ("exemplar", spec.n_exemplar_entries, "E")]
        entry_ids = [f"{prefix}{i:03d}" for _, count, prefix in kinds for i in range(count)]
        entry_kinds = [kind for kind, count, _ in kinds for _ in range(count)]
        entry_topics = [i % spec.topic_count for _, count, _ in kinds for i in range(count)]
        self.entry_ids = tuple(entry_ids)
        self._column = {eid: j for j, eid in enumerate(entry_ids)}
        toxic = self._rng("toxic").random(len(entry_ids)) < spec.toxic_entry_rate
        self.toxic_ids = {eid for eid, t in zip(entry_ids, toxic.tolist()) if t}
        topic_rows = np.array(entry_topics, np.intp)
        embeddings = embed_rows(self._rng("entry-embedding"), topic_rows, self._topic_vecs, spec.topic_weight)
        payloads = [f"{kind} {eid}: guidance for topic {t}" for eid, kind, t in zip(entry_ids, entry_kinds, entry_topics)]
        self.banks: dict[str, MemoryBank] = {}
        start = 0
        for kind, count, _ in kinds:  # a bank's rows stay a view of the matrix while its ids sort in column order
            part = slice(start, start + count)
            self.banks[kind] = MemoryBank(kind, entry_ids[part], payloads[part], embeddings[part])
            start += count

        # examples: one row per example; a query row is drawn when a table ranks it (_query_rows)
        self._query_topics = self._rng("topic").integers(spec.topic_count, size=n)
        self._baseline = self._rng("baseline").random(n) < spec.base_accuracy

        # pair latents, drawn at the cells a retrieval table ranks (_pair_bytes)
        self._pair_rate = np.where(toxic, spec.toxic_applicability, [spec.rate_for(k) for k in entry_kinds])
        self._pair_hurt = np.where(toxic, spec.toxic_hurt_prob, spec.hurt_prob_given_inapplicable)
        rates = np.array([spec.guard_rate(g) for g in GUARD_NAMES])
        self._guards = self._rng("guard").random((n, len(GUARD_NAMES))) < rates
        self._confidence = self._draw_latent(self._baseline)
        # bank kind -> (content_hash, counts, columns, pairs, ranked) of the last snapshot read; see _table
        self._tables: dict = {}

    def _rng(self, purpose: str) -> np.random.Generator:
        return _stream(derive_seed(self.seed, purpose))

    def _pair_bytes(self, rows, columns) -> np.ndarray:
        """Packed pair-latent bytes at (rows, columns), broadcast together.

        Pair (i, j) takes the four uniforms of block i * n_entries + j + 1 of
        the world's pair stream: applicable, help, hurt, sensitivity. Cells
        are drawn TABLE_BLOCK_CELLS // 4 at a time, so that their (cells, 4)
        uniforms fill TABLE_BLOCK_CELLS doubles; a value does not depend on
        which other cells are drawn with it: it is the cell of the dense
        row-major draw.
        """
        spec, m = self.spec, len(self.entry_ids)
        sens_repair = spec.edit_sensitive_rate * spec.repair_better_prob
        cells = np.asarray(rows, np.intp) * m + np.asarray(columns, np.intp)
        out = np.empty(cells.shape, np.uint8)
        key, step = derive_seed(self.seed, "pair"), max(1, TABLE_BLOCK_CELLS // 4)
        for start in range(0, cells.size, step):
            block = cells.reshape(-1)[start:start + step]
            j, u = block % m, philox_uniforms(key, block + 1)
            bits = (u[:, 0] < self._pair_rate[j]) * np.uint8(PAIR_APPLICABLE)
            bits |= (u[:, 1] < spec.help_prob_given_applicable) * np.uint8(PAIR_HELP)
            bits |= (u[:, 2] < self._pair_hurt[j]) * np.uint8(PAIR_HURT)
            bits |= (u[:, 3] < sens_repair) * np.uint8(PAIR_REPAIR_BETTER)
            bits |= ((u[:, 3] >= sens_repair) & (u[:, 3] < spec.edit_sensitive_rate)) * np.uint8(PAIR_CORRUPT_BETTER)
            out.reshape(-1)[start:start + step] = bits
        return out

    def _draw_latent(self, baseline: np.ndarray) -> np.ndarray:
        """(n_examples, 5) Beta confidences, the world's one confidence signal.

        Column 0 is the baseline decode; column 1 + 2 * bank + correct the
        second pass decided by that bank (BANK_KINDS order) with that outcome.
        Each target AUC has its own stream, since Beta draws take a variable
        number of uniforms: a bank's confidences do not move when another
        target changes.
        """
        cm = self.spec.confidence_model
        n = self.spec.n_examples
        latent = np.empty((n, 5))
        a, b = np.array([_beta_params(cm.baseline_auc, cm.kappa, c) for c in (False, True)]).T
        correct = baseline.astype(np.intp)
        latent[:, 0] = self._rng("confidence-baseline").beta(a[correct], b[correct])
        for k, kind in enumerate(BANK_KINDS):
            a, b = np.array([_beta_params(cm.second_auc(kind), cm.kappa, c) for c in (False, True)]).T
            latent[:, 1 + 2 * k:3 + 2 * k] = self._rng(f"confidence-{kind}").beta(a, b, size=(n, 2))
        return latent

    def draw_digest(self) -> str:
        """sha256 of the draws no spec or bank hash covers: topics, baseline, guards, the
        confidences and the query stream's first DIGEST_QUERY_CELLS doubles. It moves when numpy's streams do."""
        dim = self.spec.embedding_dim
        rows = min(self.spec.n_examples, max(1, DIGEST_QUERY_CELLS // dim))
        query = self._rng("query-embedding").standard_normal((rows, dim))
        digest = hashlib.sha256()
        for drawn in (self._query_topics, self._baseline, self._guards, self._confidence, query):
            digest.update(drawn)  # C-contiguous arrays, hashed in place
        return digest.hexdigest()

    # -- structure ----------------------------------------------------------

    def entry_bank(self, entry_id: str) -> str:
        return "rule" if entry_id.startswith("R") else "exemplar"

    def snapshots(self) -> dict[str, BankSnapshot]:
        return {k: b.freeze() for k, b in self.banks.items()}

    def _query_rows(self, rows: np.ndarray):
        """Yield (block, embeddings) for ascending distinct example rows, a block of rows at a time.

        Row i is bit for bit row i of one embed_rows call over every example
        on the query-embedding stream, yet no such matrix is kept: each read
        opens the stream at its start and draws it through the last row
        asked for, keeping the rows asked for. Each standard_normal call and
        each yielded block holds at most TABLE_BLOCK_CELLS doubles, and only
        the yielded rows are blended.
        """
        dim, weight = self.spec.embedding_dim, self.spec.topic_weight
        step = max(1, TABLE_BLOCK_CELLS // dim)
        rng = self._rng("query-embedding")
        drawn, out = np.empty((step, dim)), np.empty((step, dim))
        stop = int(rows[-1]) + 1 if len(rows) else 0
        lo = i = 0  # rows[lo:i] are in out

        def blended():
            return rows[lo:i], blend_rows(out[:i - lo], self._query_topics[rows[lo:i]], self._topic_vecs, weight)

        for at in range(0, stop, step):
            end = min(at + step, stop)
            rng.standard_normal(out=drawn[:end - at])
            j = int(rows.searchsorted(end))  # rows[i:j] lie in [at, end)
            if j - lo > step:
                yield blended()
                out, lo = np.empty((step, dim)), i
            out[i - lo:j - lo] = drawn[rows[i:j] - at]
            i = j
        if i > lo:
            yield blended()

    def _table(self, snapshots, rows: np.ndarray) -> list:
        """[(columns, counts, pairs)]: each snapshot's kept table, once it has ranked example rows.

        Row i of columns holds the ranked entries of example i as pair-table
        columns, best first, counts[i] how many lead strictly above the
        threshold, and pairs[i] the pair-latent bytes of those columns; rows
        no read has asked for are zero. One table per bank kind is kept, that
        of the last snapshot read, and it ranks an example on its first read
        only. The query rows any of the snapshots miss are drawn in one pass
        of the query stream (_query_rows), a block at a time; each snapshot
        ranks the rows of a block it misses by retrieval_table, and the block
        is dropped. Each table's new rows then draw their pair bytes in one
        _pair_bytes call. A snapshot with another content hash replaces its
        kind's table; the old one goes first, so two of a kind never coexist.
        """
        n = self.spec.n_examples
        need = np.zeros(n, bool)
        need[rows] = True
        tables, work = [], []  # work: (snapshot, table, rows it misses, its columns) per snapshot that misses some
        for snapshot in snapshots:
            kind = snapshot.bank_kind
            if self._tables.get(kind, (None,))[0] != snapshot.content_hash:
                self._tables.pop(kind, None)
                k = min(self.spec.k_max, len(snapshot.entry_ids))
                self._tables[kind] = (
                    snapshot.content_hash, np.zeros(n, np.intp), np.zeros((n, k), np.intp),
                    np.zeros((n, k), np.uint8), np.zeros(n, bool),
                )
            tables.append(self._tables[kind])
            miss = need & ~tables[-1][4]
            if miss.any():
                work.append((snapshot, tables[-1], miss, self.columns(snapshot.entry_ids)))
        if work:
            union = np.flatnonzero(np.logical_or.reduce([miss for _, _, miss, _ in work]))
            for block, queries in self._query_rows(union):
                for snapshot, (_, counts, columns, _, _), miss, entry_columns in work:
                    take = miss[block]
                    mine = (block, queries) if take.all() else (block[take], queries[take])
                    ranked, above = retrieval_table(mine[1], snapshot, self.spec.retrieval_threshold, self.spec.k_max)
                    counts[mine[0]], columns[mine[0]] = above, entry_columns[ranked]
            for _, (_, _, columns, pairs, ranked), miss, _ in work:
                # one call per table: each philox_uniforms call costs its ten rounds whatever its size
                new = np.flatnonzero(miss)
                pairs[new] = self._pair_bytes(new[:, None], columns[new])
                ranked[new] = True
        return [(columns, counts, pairs) for _, counts, columns, pairs, _ in tables]

    def columns(self, entry_ids) -> np.ndarray:
        """Pair-table columns of entry ids, rule entries first; an unknown id is a ValueError naming it."""
        try:
            return np.array([self._column[e] for e in entry_ids], np.intp)
        except KeyError as exc:
            raise ValueError(f"unknown entry id {exc.args[0]!r}") from None

    def injected(self, rows, snapshots: dict, banks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(columns, filled, pairs): what retrieving from `banks` in order injects per example.

        Row r of each array belongs to example rows[r], which injects
        columns[r][filled[r]] in that order: each bank's ranked entries whose
        similarity is strictly above the threshold, best first. pairs holds
        the pair-latent byte of each column. Every snapshot of the dict ranks
        the rows it misses in this one read, whichever banks are asked for, so
        no caller orders its reads to draw each query row once.
        """
        rows = np.asarray(rows, np.intp)
        tables = dict(zip(snapshots, self._table(list(snapshots.values()), rows)))
        tables = [tables[b] for b in banks]
        shape = (len(rows), sum(cols.shape[1] for cols, _, _ in tables))
        columns, filled, pairs = (np.zeros(shape, dtype) for dtype in (np.intp, bool, np.uint8))
        at = 0
        for cols, counts, bits in tables:  # one bank's rows are copied at a time, into place
            part = slice(at, at + cols.shape[1])
            columns[:, part], pairs[:, part] = cols[rows], bits[rows]
            filled[:, part] = np.arange(cols.shape[1]) < counts[rows, None]
            at = part.stop
        return columns, filled, pairs

    def true_action(self, idx: int) -> str:
        return f"ans{idx}"

    def answer(self, idx: int, correct: bool, second: bool) -> str:
        """The action a decode emits: the true action, or a wrong one marked by its pass."""
        return self.true_action(idx) if correct else f"alt{idx}.{'m' if second else 'b'}"

    # -- drawn randomness -----------------------------------------------------

    def pair_draws(self, idx: int, entry_id: str) -> int:
        """The packed pair-latent byte (PAIR_* bits) of an example and an entry."""
        return self._pair_bytes(idx, self._column[entry_id]).item()

    def guards_pass(self, rows, guards) -> np.ndarray:
        """Whether every named guard passes, per example of rows."""
        cols = [GUARD_NAMES.index(g) for g in sorted(guards)]
        return self._guards[np.ix_(np.asarray(rows, np.intp), cols)].all(axis=1)

    # -- decoding -------------------------------------------------------------

    def baseline_pass(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """(correct, confidence) of the baseline decode, per example of rows."""
        rows = np.asarray(rows, np.intp)
        return self._baseline[rows], self._confidence[rows, 0]

    def second_pass(
        self, rows, columns, filled, pairs, version: str = "original", edited_ids=()
    ) -> tuple[np.ndarray, np.ndarray]:
        """(correct, confidence) of a second pass per example of rows, row r injecting columns[r][filled[r]]
        with pair-latent bytes pairs[r][filled[r]].

        The first applicable injected entry decides: the pass is correct if
        the baseline is or that entry helps. With none applicable the first
        injected entry decides: correct if the baseline is and that entry
        does not hurt. Under the repair or corrupt version the first injected
        entry among edited_ids overrides this if it is edit-sensitive. The
        confidence is column 1 + 2 * bank + correct of the world's confidences
        (_draw_latent), the bank that of the deciding entry. A row injecting
        nothing repeats the baseline decode.
        """
        rows = np.asarray(rows, np.intp)
        base, conf = self.baseline_pass(rows)
        if columns.shape[1] == 0:
            return base, conf
        # an unfilled slot never decides, so its byte is never read
        applicable = filled & (pairs & PAIR_APPLICABLE > 0)
        any_applicable = applicable.any(axis=1)
        slot = np.where(any_applicable, applicable.argmax(axis=1), filled.argmax(axis=1))[:, None]
        deciding = np.take_along_axis(pairs, slot, axis=1)[:, 0]
        correct = np.where(any_applicable, base | (deciding & PAIR_HELP > 0), base & (deciding & PAIR_HURT == 0))
        if version in ("repair", "corrupt") and len(edited_ids):
            edited = np.zeros(len(self.entry_ids), bool)
            edited[self.columns(edited_ids)] = True
            hit = filled & edited[columns]
            hit_bits = np.take_along_axis(pairs, hit.argmax(axis=1)[:, None], axis=1)[:, 0] * hit.any(axis=1)
            correct = np.where(
                hit_bits & PAIR_REPAIR_BETTER > 0,
                version == "repair",
                np.where(hit_bits & PAIR_CORRUPT_BETTER > 0, version == "corrupt", correct),
            )
        # columns hold rule entries first, and BANK_KINDS puts rule at 0
        bank = np.take_along_axis(columns, slot, axis=1)[:, 0] >= self.spec.n_rule_entries
        column = 1 + 2 * bank + correct
        has = filled.any(axis=1)
        return np.where(has, correct, base), np.where(has, self._confidence[rows, column], conf)

    # -- oracle ground truth ---------------------------------------------------

    def decode_contexts(self, rows, snapshots: dict) -> dict:
        """context -> (injects, correct, confidence) of the unedited second pass that retrieves
        from the context's banks (ORACLE_CONTEXTS), per example of rows: whether it injects
        anything, and its correctness and confidence. Each context is retrieved and decoded once."""
        rows = np.asarray(rows, np.intp)
        out = {}
        for context, banks in ORACLE_CONTEXTS.items():
            cols, filled, pairs = self.injected(rows, snapshots, banks)
            out[context] = (filled.any(axis=1), *self.second_pass(rows, cols, filled, pairs))
        return out

    # -- drift of edited entries ---------------------------------------------

    def drifted_snapshot(self, bank_kind: str, version: str, entry_ids) -> BankSnapshot:
        """The bank's active entries, with those among entry_ids drifted under version, for free reruns.

        Editing an entry's text moves its embedding, which is what confounds
        free-rerun counterfactuals: each active edited entry is re-embedded
        on a topic keyed by (entry, version). Payloads stay as they are, since
        a decode reads pair latents, not text; the stored bank never changes.
        Ids of other banks and of retired entries are skipped.
        """
        ids, payloads, embeddings = self.banks[bank_kind].active_columns()
        embeddings = embeddings.copy()
        spec = self.spec
        rows = {entry_id: i for i, entry_id in enumerate(ids)}
        for entry_id in entry_ids:
            i = rows.get(entry_id)
            if i is None:
                continue
            rng = np.random.default_rng(derive_seed(self.seed, "drift", entry_id, version))
            topic = int(rng.integers(spec.topic_count))
            key = (self.seed, "entry", entry_id, "drift", version)
            embeddings[i] = embed_key(key, spec.embedding_dim, self._topic_vecs[topic], spec.topic_weight)
        return BankSnapshot.build(bank_kind, ids, payloads, embeddings)


def generate_world(spec: WorldSpec) -> World:
    """Build the deterministic world for a spec; same spec, same world."""
    return World(spec)
