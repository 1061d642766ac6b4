"""The control loop: route, second pass, guarded acceptance, rollback.

One step runs as: decode the baseline action and its confidence; route to
memory only if confidence is strictly below tau and the episode budget and
cooldown allow it; retrieve and decode a memory-conditioned second pass per
the bank policy; accept the second answer only if it clears the confidence
margin and every enabled structural guard, otherwise roll back to the
baseline action.

run_steps runs every episode of a run at once: only routing depends on
earlier steps, so it loops over step position, and every other decision is
a mask over the world's arrays. A run is its StepTable, and every reader
(paired counts, evidence, frozen identities, fixed replay, the replay
audit, traces.jsonl, conf_bins.csv) reads its arrays. Neither the baseline
nor the paired oracle is a control loop: the baseline is a read of the
world's first pass (World.baseline_pass), and protocol.evaluate_oracle
reads the oracle off the world's ground truth (World.decode_contexts).

Call accounting is compute-matched: a routed step costs exactly one extra
call (k_t = 2) regardless of bank-policy internals, so total_calls is always
n_steps + routed_count and the retry comparator matches the gated policy's
cost when routed on the same steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .retrieval import retrieve  # unused; perfbench/test_tracer.py asserts every module's retrieve is one function
from .util import canonical_json, from_flat, stable_digest, to_flat
from .worldsim import GUARD_NAMES

BANK_POLICIES = (
    "gate_only",
    "choose",
    "cascade_rule_then_exemplar",
    "cascade_exemplar_then_rule",
    "dual",
    "multibank_best",
)
MULTIBANK_FAMILY = ("cascade_rule_then_exemplar", "cascade_exemplar_then_rule", "dual")


@dataclass(frozen=True)
class PolicyConfig:
    """Frozen control knobs; every field is covered by the freeze hash.

    tau and margin_m are thresholds on the world's one confidence signal
    (World.baseline_pass, World.second_pass).

    bank_policy multibank_best is a grid value only: fit runs each
    MULTIBANK_FAMILY member in its place and freezes the member it chose.

    Each behaviour is stored in one form, so it has one hash: gate_only is
    choose with margin_m = -inf, and primary_bank, read only by choose, is
    None for every other bank policy.
    """

    tau: float = 0.5
    margin_m: float = 0.0
    guards_enabled: frozenset[str] = frozenset({"format", "valid"})
    bank_policy: str = "choose"
    primary_bank: str | None = "rule"
    budget_B: int | None = None  # None = unlimited
    cooldown: int = 0

    def __post_init__(self):
        if self.bank_policy not in BANK_POLICIES:
            raise ValueError(f"unknown bank_policy {self.bank_policy!r}")
        if self.primary_bank not in ("rule", "exemplar", None):
            raise ValueError(f"unknown primary_bank {self.primary_bank!r}")
        bad = set(self.guards_enabled) - set(GUARD_NAMES)
        if bad:
            raise ValueError(f"guards_enabled names unknown guards {sorted(bad)}")
        if self.budget_B is not None and self.budget_B < 0:
            raise ValueError("budget_B must be None or >= 0")
        if self.cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {self.cooldown}")
        for key, value in (("tau", self.tau), ("margin_m", self.margin_m)):
            if math.isnan(value):
                raise ValueError(f"{key} must be a number, got nan")
        if self.bank_policy == "gate_only":
            object.__setattr__(self, "bank_policy", "choose")
            object.__setattr__(self, "margin_m", -math.inf)
        if self.bank_policy != "choose":
            object.__setattr__(self, "primary_bank", None)
        elif self.primary_bank is None:
            raise ValueError("primary_bank must be rule or exemplar when bank_policy is choose, got none")

    def to_flat(self) -> dict[str, str]:
        return to_flat(self)

    @staticmethod
    def from_flat(flat: dict[str, str]) -> "PolicyConfig":
        return from_flat(PolicyConfig, flat)

    def config_hash(self) -> str:
        return stable_digest(canonical_json(self.to_flat()))


def select_threshold_percentile(fit_confidences, p: float) -> float:
    """Nearest-rank percentile of fit confidences (a sequence or array); routed fraction ~= p/100."""
    ordered = np.sort(np.asarray(fit_confidences, np.float64))
    if ordered.size == 0:
        raise ValueError("empty confidence list")
    if not (0.0 <= p <= 100.0):
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    num, den = float(p).as_integer_ratio()
    rank = -(-num * ordered.size // (den * 100))  # exact ceil: in floats 7 / 100.0 * 100 exceeds 7, giving rank 8
    return float(ordered[max(rank, 1) - 1])


def compose_bank_policy(policy: PolicyConfig) -> list[tuple[str, ...]]:
    """Ordered bank tuples, one per attempt, for the policy's bank family.

    Cascades try the second bank only if the first attempt is rejected; dual
    injects both banks' retrievals in one joint second pass.
    """
    kind = policy.bank_policy
    if kind == "choose":
        return [(policy.primary_bank,)]
    if kind == "cascade_rule_then_exemplar":
        return [("rule",), ("exemplar",)]
    if kind == "cascade_exemplar_then_rule":
        return [("exemplar",), ("rule",)]
    if kind == "dual":
        return [("rule", "exemplar")]
    raise ValueError(f"bank_policy {kind!r} is a grid value: fit chooses one of {MULTIBANK_FAMILY} in its place")


@dataclass
class StepTable:
    """A batched run: one row per step, in episode then step order.

    Attempt a of a routed step is entry a of its bank plan (compose_bank_policy;
    a fixed replay has one attempt). columns/filled give what each attempt
    injects and pairs the pair-latent bytes it decodes them with (see
    World.injected), padded with unfilled slots to the widest attempt; a
    step tries attempt a + 1 only if attempt a was rejected.
    """

    world: object
    episode_ids: np.ndarray
    example_ids: np.ndarray
    step_index: np.ndarray
    baseline_correct: np.ndarray
    baseline_confidence: np.ndarray
    routed: np.ndarray
    tried: np.ndarray  # (steps, attempts)
    columns: np.ndarray  # (steps, attempts, width)
    filled: np.ndarray  # (steps, attempts, width)
    pairs: np.ndarray  # (steps, attempts, width)
    decoded: np.ndarray  # (steps, attempts): a second pass ran (it injected something, or used no memory)
    second_correct: np.ndarray  # (steps, attempts)
    second_confidence: np.ndarray  # (steps, attempts)
    accepted_attempt: np.ndarray  # (steps, attempts)

    @property
    def accepted(self) -> np.ndarray:
        return self.accepted_attempt.any(axis=1)

    @property
    def final_correct(self) -> np.ndarray:
        second = (self.second_correct & self.accepted_attempt).any(axis=1)
        return np.where(self.accepted, second, self.baseline_correct)

    @property
    def deciding(self) -> np.ndarray:
        """Index of each step's last attempt, the one that decides it; -1 where it did not route."""
        return self.tried.sum(axis=1) - 1

    def deciding_pass(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(decoded, correct, confidence) of each routed step's deciding attempt."""
        at = np.maximum(self.deciding, 0)[:, None]
        return tuple(
            np.take_along_axis(x, at, axis=1)[:, 0] for x in (self.decoded, self.second_correct, self.second_confidence)
        )

    def deciding_injection(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(columns, filled, pairs) of what each step's deciding attempt injected: a run's frozen
        identities and the pair bytes a fixed replay decodes them with. filled is all false where
        the step carries no retrieval (an attempt fills a slot only if it retrieved, and an
        unrouted step fills none)."""
        at = np.maximum(self.deciding, 0)[:, None, None]
        return tuple(np.take_along_axis(x, at, axis=1)[:, 0] for x in (self.columns, self.filled, self.pairs))


def _check_example_ids(example_ids: np.ndarray, n: int) -> None:
    """ValueError naming the first duplicate, negative or out-of-range example id."""
    if example_ids.size == 0:
        raise ValueError("no examples to evaluate")
    order = np.argsort(example_ids, kind="stable")
    repeat = np.zeros(len(example_ids), bool)
    repeat[order[1:]] = example_ids[order[1:]] == example_ids[order[:-1]]
    bad = np.flatnonzero(repeat | (example_ids < 0) | (example_ids >= n))
    if bad.size:
        i = int(example_ids[bad[0]])
        why = "is repeated" if repeat[bad[0]] else f"is outside the world's examples 0..{n - 1}"
        raise ValueError(f"example id {i} {why}")


def run_steps(
    world, policy: PolicyConfig, snapshots: dict, example_ids, version="original", edited_ids=(), frozen=None
) -> StepTable:
    """The decision loop over every episode at once, one step position at a time.

    A step routes iff its baseline confidence is strictly below tau, its
    episode has routed fewer than budget_B steps, and no cooldown runs (a
    routed step starts one of `cooldown` steps). A routed step tries its
    plan's attempts in order: each retrieves and decodes a second pass, and
    is accepted iff it injected something, its confidence is at least the
    baseline's plus the margin and every enabled guard passes. The first
    accepted attempt's answer is final; if none is, the step rolls back to
    the baseline. The second pass decodes edited_ids at
    content `version`; the `none` version injects nothing and decodes the
    baseline again. A fixed replay of `frozen`, a run on the same examples,
    injects each step's frozen deciding injection in one attempt. Retrieval
    reads every step under tau, routed or not, so that runs differing only
    in budget or cooldown share one world read per snapshot. Steps of
    an episode are its examples in ascending order; example_ids must be
    distinct and index the world's examples, which is checked before any
    world read.
    """
    ex = np.asarray(example_ids, np.intp)
    _check_example_ids(ex, world.spec.n_examples)
    ex = np.sort(ex)
    if frozen is not None and not np.array_equal(frozen.example_ids, ex):
        raise ValueError("fixed replay must run on the examples of the run it replays")
    if frozen is not None and frozen.world.spec != world.spec:  # it decodes with that run's pair bytes
        raise ValueError("fixed replay must run on a world of the spec of the run it replays")
    episode = ex // world.spec.steps_per_episode
    first = np.diff(episode, prepend=-1) != 0
    slot = np.cumsum(first) - 1  # the episode's number among those present
    position = np.arange(len(ex)) - np.flatnonzero(first)[slot]
    base, conf = world.baseline_pass(ex)

    wants = conf < policy.tau
    routed = np.zeros(len(ex), bool)
    count = np.zeros(slot[-1] + 1, np.intp)  # routed steps so far, per episode
    cooling = np.zeros_like(count)  # steps of cooldown left, per episode
    budget = math.inf if policy.budget_B is None else policy.budget_B
    for p in range(int(position.max()) + 1):
        at = np.flatnonzero(position == p)
        e = slot[at]
        go = wants[at] & (cooling[e] == 0) & (count[e] < budget)
        routed[at] = go
        count[e] += go
        cooling[e] = np.where(go, policy.cooldown, np.maximum(cooling[e] - 1, 0))

    plan = compose_bank_policy(policy)  # refuses multibank_best in a fixed replay too
    if frozen is not None:  # one attempt
        plan = [("frozen",)]
        injection = frozen.deciding_injection()
    rows = ex[routed]
    keep = routed[wants]  # the routed steps among those that want to route
    no_memory = version == "none"
    guards = world.guards_pass(rows, policy.guards_enabled)
    shape = (len(ex), len(plan))
    tried, decoded, correct, accepted = (np.zeros(shape, bool) for _ in range(4))
    confidence = np.full(shape, np.nan)
    injections = []  # per attempt, (columns, filled, pairs) of the routed rows
    pending = np.ones(len(rows), bool)
    for a, banks in enumerate(plan):
        if frozen is not None and not no_memory:
            cols, fill, bits = (x[routed] for x in injection)
        else:
            cols, fill, bits = (x[keep] for x in world.injected(ex[wants], snapshots, () if no_memory else banks))
        second, conf2 = world.second_pass(rows, cols, fill, bits, version, edited_ids)
        ran = pending & (fill.any(axis=1) | no_memory)
        ok = ran & ~(conf2 < conf[routed] + policy.margin_m) & guards
        injections.append((cols, fill, bits))
        tried[routed, a], decoded[routed, a], accepted[routed, a] = pending, ran, ok
        correct[routed, a], confidence[routed, a] = second, np.where(ran, conf2, np.nan)
        pending &= ~ok
    width = max(cols.shape[1] for cols, _, _ in injections)
    columns, filled, pairs = (np.zeros(shape + (width,), dtype) for dtype in (np.intp, bool, np.uint8))
    for a, attempt in enumerate(injections):
        for full, values in zip((columns, filled, pairs), attempt):
            full[routed, a, :values.shape[1]] = values
    return StepTable(
        world=world,
        episode_ids=episode,
        example_ids=ex,
        step_index=position,
        baseline_correct=base,
        baseline_confidence=conf,
        routed=routed,
        tried=tried,
        columns=columns,
        filled=filled,
        pairs=pairs,
        decoded=decoded,
        second_correct=correct,
        second_confidence=confidence,
        accepted_attempt=accepted,
    )
