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
(evidence, frozen identities, fixed replay, the replay audit,
traces.jsonl) reads its arrays. The paired oracle is not a control loop:
protocol.evaluate_oracle reads it off the world's ground truth
(World.oracle_candidates).

Call accounting is compute-matched: a routed step costs exactly one extra
call (k_t = 2) regardless of bank-policy internals, so total_calls is always
n_steps + routed_count and the retry comparator matches the gated policy's
cost when routed on the same steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .retrieval import retrieve  # unused; perfbench/test_tracer.py asserts every module's retrieve is one function
from .util import canonical_json, from_flat, stable_digest, to_flat

GUARD_NAMES = ("format", "valid", "progress", "contract")
BANK_POLICIES = (
    "gate_only",
    "choose",
    "cascade_rule_then_exemplar",
    "cascade_exemplar_then_rule",
    "dual",
    "multibank_best",
)
MULTIBANK_FAMILY = ("cascade_rule_then_exemplar", "cascade_exemplar_then_rule", "dual")
CONFIDENCE_SIGNALS = ("mean_logprob", "sum_logprob", "first_token")


@dataclass(frozen=True)
class PolicyConfig:
    """Frozen control knobs; every field is covered by the freeze hash."""

    tau: float = 0.5
    margin_m: float = 0.0
    guards_enabled: frozenset[str] = frozenset({"format", "valid"})
    bank_policy: str = "choose"
    primary_bank: str = "rule"
    budget_B: int | None = None  # None = unlimited
    cooldown: int = 0
    lambda_cost: float = field(default=0.0, metadata={"key": "lambda"})
    delta: float = 0.05
    confidence_signal: str = "mean_logprob"
    multibank_member: str | None = None  # resolved choice when bank_policy=multibank_best

    def __post_init__(self):
        if self.bank_policy not in BANK_POLICIES:
            raise ValueError(f"unknown bank_policy {self.bank_policy!r}")
        if self.primary_bank not in ("rule", "exemplar"):
            raise ValueError(f"unknown primary_bank {self.primary_bank!r}")
        if self.confidence_signal not in CONFIDENCE_SIGNALS:
            raise ValueError(f"unknown confidence_signal {self.confidence_signal!r}")
        bad = set(self.guards_enabled) - set(GUARD_NAMES)
        if bad:
            raise ValueError(f"guards_enabled names unknown guards {sorted(bad)}")
        if self.budget_B is not None and self.budget_B < 0:
            raise ValueError("budget_B must be None or >= 0")
        if self.cooldown < 0 or not self.lambda_cost >= 0:
            raise ValueError(f"cooldown and lambda must be >= 0, got {self.cooldown} and {self.lambda_cost}")
        for key, value in (("tau", self.tau), ("margin_m", self.margin_m)):
            if math.isnan(value):
                raise ValueError(f"{key} must be a number, got nan")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.multibank_member is not None and self.multibank_member not in MULTIBANK_FAMILY:
            raise ValueError(f"multibank_member must be one of {MULTIBANK_FAMILY}")

    def to_flat(self) -> dict[str, str]:
        return to_flat(self)

    @staticmethod
    def from_flat(flat: dict[str, str]) -> "PolicyConfig":
        return from_flat(PolicyConfig, flat)

    def config_hash(self) -> str:
        return stable_digest(canonical_json(self.to_flat()))

    def resolved(self) -> "PolicyConfig":
        """Replace multibank_best by its fit-selected member."""
        if self.bank_policy != "multibank_best":
            return self
        if self.multibank_member is None:
            raise ValueError("multibank_best requires a resolved multibank_member")
        return replace(self, bank_policy=self.multibank_member)


def select_threshold_percentile(fit_confidences, p: float) -> float:
    """Nearest-rank percentile of fit confidences; routed fraction ~= p/100."""
    if len(fit_confidences) == 0:
        raise ValueError("empty confidence list")
    if not (0.0 <= p <= 100.0):
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(fit_confidences)
    if p == 0.0:
        return ordered[0]
    rank = math.ceil(Fraction(p) * len(ordered) / 100)  # exact: in floats 7 / 100.0 * 100 exceeds 7, giving rank 8
    return ordered[rank - 1]


def compose_bank_policy(policy: PolicyConfig) -> list[tuple[tuple[str, ...], bool]]:
    """Ordered (banks, bypass_margin) attempts for the policy's bank family.

    gate_only keeps the structural guards but treats the margin as -inf;
    cascades try the second bank only if the first attempt is rejected; dual
    injects both banks' retrievals in one joint second pass.
    """
    kind = policy.resolved().bank_policy
    if kind == "gate_only":
        return [((policy.primary_bank,), True)]
    if kind == "choose":
        return [((policy.primary_bank,), False)]
    if kind == "cascade_rule_then_exemplar":
        return [(("rule",), False), (("exemplar",), False)]
    if kind == "cascade_exemplar_then_rule":
        return [(("exemplar",), False), (("rule",), False)]
    if kind == "dual":
        return [(("rule", "exemplar"), False)]
    raise ValueError(f"unresolved bank policy {kind!r}")


@dataclass(frozen=True)
class SecondPassContext:
    """Content version and replay mode for the second pass."""

    version: str = "original"  # original | repair | corrupt | none (no memory: retry)
    edited_ids: tuple[str, ...] = ()
    frozen: StepTable | None = None  # fixed-retrieval replay of this run's deciding injections when set


DEFAULT_CONTEXT = SecondPassContext()


@dataclass
class StepTable:
    """A batched run: one row per step, in episode then step order.

    Attempt a of a routed step is entry a of its bank plan. Per attempt,
    columns/filled give what it injects (see World.injected);
    a step tries attempt a + 1 only if attempt a was rejected.
    """

    world: object
    plan: tuple  # ((banks, bypass_margin), ...)
    episode_ids: np.ndarray
    example_ids: np.ndarray
    step_index: np.ndarray
    baseline_correct: np.ndarray
    baseline_confidence: np.ndarray
    routed: np.ndarray
    tried: np.ndarray  # (steps, attempts)
    columns: tuple  # per attempt, (steps, width)
    filled: tuple
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

    def deciding_injection(self) -> tuple[np.ndarray, np.ndarray]:
        """(columns, filled) of what each step's deciding attempt injected, padded to the widest
        attempt: a run's frozen identities. filled is all false where the step carries no retrieval
        (an attempt fills a slot only if it retrieved, and an unrouted step decides no attempt)."""
        deciding = self.deciding
        cols = np.zeros((len(self.routed), max(c.shape[1] for c in self.columns)), np.intp)
        filled = np.zeros(cols.shape, bool)
        for a, (c, f) in enumerate(zip(self.columns, self.filled)):
            at = deciding == a
            cols[at, :c.shape[1]], filled[at, :f.shape[1]] = c[at], f[at]
        return cols, filled


def run_steps(
    world, policy: PolicyConfig, snapshots: dict, example_ids, context: SecondPassContext = DEFAULT_CONTEXT
) -> StepTable:
    """The decision loop over every episode at once, one step position at a time.

    A step routes iff its baseline confidence is strictly below tau, its
    episode has routed fewer than budget_B steps, and no cooldown runs (a
    routed step starts one of `cooldown` steps). A routed step tries its
    plan's attempts in order: each retrieves and decodes a second pass, and
    is accepted iff it injected something, its confidence is at least the
    baseline's plus the margin (-inf for gate_only) and every enabled guard
    passes. The first accepted attempt's answer is final; if none is, the
    step rolls back to the baseline. Fixed replay (context.frozen, a run on
    the same examples) injects each step's frozen deciding injection in one
    attempt, and the `none` version injects nothing and decodes the baseline
    again. Steps of an episode are its examples in ascending order;
    example_ids must be distinct and index the world's examples.
    """
    ex = np.sort(np.asarray(example_ids, np.intp))
    if context.frozen is not None and not np.array_equal(context.frozen.example_ids, ex):
        raise ValueError("fixed replay must run on the examples of the run it replays")
    episode = ex // world.spec.steps_per_episode
    first = np.diff(episode, prepend=-1) != 0
    slot = np.cumsum(first) - 1  # the episode's number among those present
    position = np.arange(len(ex)) - np.flatnonzero(first)[slot]
    base, conf = world.baseline_pass(ex, policy.confidence_signal)

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

    if context.frozen is not None:
        plan = ((("frozen",), policy.resolved().bank_policy == "gate_only"),)
        frozen = context.frozen.deciding_injection()
    else:
        plan = tuple(compose_bank_policy(policy))
    rows = ex[routed]
    no_memory = context.version == "none"
    guards = world.guards_pass(rows, policy.guards_enabled)
    shape = (len(ex), len(plan))
    tried, decoded, correct, accepted = (np.zeros(shape, bool) for _ in range(4))
    confidence = np.full(shape, np.nan)
    columns, filled = [], []
    pending = np.ones(len(rows), bool)
    for a, (banks, bypass_margin) in enumerate(plan):
        if context.frozen is not None and not no_memory:
            cols, fill = (x[routed] for x in frozen)
        else:
            cols, fill = world.injected(rows, snapshots, () if no_memory else banks)
        second, conf2 = world.second_pass(
            rows, cols, fill, context.version, context.edited_ids, policy.confidence_signal
        )
        ran = pending & (fill.any(axis=1) | no_memory)
        margin = -math.inf if bypass_margin else policy.margin_m
        ok = ran & ~(conf2 < conf[routed] + margin) & guards
        for store, values in ((columns, cols), (filled, fill)):
            full = np.zeros((len(ex), values.shape[1]), values.dtype)
            full[routed] = values
            store.append(full)
        tried[routed, a], decoded[routed, a], accepted[routed, a] = pending, ran, ok
        correct[routed, a], confidence[routed, a] = second, np.where(ran, conf2, np.nan)
        pending &= ~ok
    return StepTable(
        world=world,
        plan=plan,
        episode_ids=episode,
        example_ids=ex,
        step_index=position,
        baseline_correct=base,
        baseline_confidence=conf,
        routed=routed,
        tried=tried,
        columns=tuple(columns),
        filled=tuple(filled),
        decoded=decoded,
        second_correct=correct,
        second_confidence=confidence,
        accepted_attempt=accepted,
    )
