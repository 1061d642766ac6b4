"""Per-step control loop: route, second pass, guarded acceptance, rollback.

One step runs as: decode the baseline action and its confidence; route to
memory only if confidence is strictly below tau and the episode budget and
cooldown allow it; retrieve and decode a memory-conditioned second pass per
the bank policy; accept the second answer only if it clears the confidence
margin and every enabled structural guard, otherwise roll back to the
baseline action.

Call accounting is compute-matched: a routed step costs exactly one extra
call (k_t = 2) regardless of bank-policy internals, so total_calls is always
n_steps + routed_count and the retry comparator matches the gated policy's
cost when routed on the same steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .retrieval import RetrievalResult
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


@dataclass
class AttemptRecord:
    banks: tuple[str, ...]
    retrieved: RetrievalResult | None
    second_action: object
    second_confidence: float | None
    accepted: bool


@dataclass
class StepRecord:
    step_index: int
    example_id: int
    baseline_action: object
    baseline_confidence: float
    routed: bool
    retrieved: RetrievalResult | None
    second_action: object
    second_confidence: float | None
    guard_results: dict
    accepted: bool
    final_action: object
    calls_used: int
    attempts: tuple[AttemptRecord, ...] = ()


@dataclass
class EpisodeTrace:
    episode_id: int
    steps: list[StepRecord]
    outcome_utility: float
    routed_count: int
    accepted_count: int
    total_calls: int

    @staticmethod
    def from_steps(episode_id: int, steps: list[StepRecord], outcome_utility: float):
        return EpisodeTrace(
            episode_id=episode_id,
            steps=steps,
            outcome_utility=outcome_utility,
            routed_count=sum(1 for s in steps if s.routed),
            accepted_count=sum(1 for s in steps if s.accepted),
            total_calls=sum(s.calls_used for s in steps),
        )


class BudgetState:
    """Per-episode routed-count cap and post-route cooldown."""

    def __init__(self, budget_B: int | None, cooldown: int):
        self.budget_B = budget_B
        self.cooldown = cooldown
        self.routed_count = 0
        self.cooldown_remaining = 0

    def can_route(self) -> bool:
        if self.cooldown_remaining > 0:
            return False
        return self.budget_B is None or self.routed_count < self.budget_B

    def step_end(self, routed: bool) -> None:
        if routed:
            self.routed_count += 1
            self.cooldown_remaining = self.cooldown
        elif self.cooldown_remaining > 0:
            self.cooldown_remaining -= 1


def route_decision(c_t: float, tau: float) -> bool:
    """Route iff baseline confidence is strictly below tau."""
    return c_t < tau


def select_threshold_percentile(fit_confidences, p: float) -> float:
    """Nearest-rank percentile of fit confidences; routed fraction ~= p/100."""
    if len(fit_confidences) == 0:
        raise ValueError("empty confidence list")
    if not (0.0 <= p <= 100.0):
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(fit_confidences)
    if p == 0.0:
        return ordered[0]
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[rank - 1]


def accept_decision(
    c_t: float,
    c2_t: float,
    margin_m: float,
    guard_results: dict,
    guards_enabled,
) -> bool:
    """Margin check and guard conjunction; disabled/absent guards count as pass."""
    if c2_t is None:
        raise ValueError("second-pass confidence is missing")
    if c2_t < c_t + margin_m:
        return False
    for guard in guards_enabled:
        if not guard_results.get(guard, True):
            return False
    return True


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


def _merge_results(qid: int, results: list[RetrievalResult]) -> RetrievalResult | None:
    parts = [r for r in results if r is not None and r.retrieved_ids]
    if not parts:
        return None
    ids: list[str] = []
    sims: list[float] = []
    for r in parts:
        ids.extend(r.retrieved_ids)
        sims.extend(r.similarities)
    return RetrievalResult(qid, tuple(ids), tuple(sims))


@dataclass(frozen=True)
class SecondPassContext:
    """Content version and replay mode for the second pass."""

    version: str = "original"  # original | repair | corrupt | none (no memory: retry)
    edited_ids: tuple[str, ...] = ()
    frozen_map: dict | None = None  # fixed-retrieval replay when set


DEFAULT_CONTEXT = SecondPassContext()


def run_step(
    solver,
    example_id: int,
    step_index: int,
    policy: PolicyConfig,
    snapshots: dict,
    budget_state: BudgetState,
    context: SecondPassContext = DEFAULT_CONTEXT,
) -> StepRecord:
    """One pass of the decision loop; returns the full step record.

    Comparators are this same loop under another policy or context (see
    protocol.evaluate_policy); version "none" runs the second pass without
    memory, so it repeats the baseline decode at the cost of a routed step.
    """
    action, conf = solver.decode_baseline(example_id, policy.confidence_signal)
    routed = route_decision(conf, policy.tau) and budget_state.can_route()
    budget_state.step_end(routed)

    if not routed:
        return StepRecord(
            step_index=step_index,
            example_id=example_id,
            baseline_action=action,
            baseline_confidence=conf,
            routed=False,
            retrieved=None,
            second_action=None,
            second_confidence=None,
            guard_results={},
            accepted=False,
            final_action=action,
            calls_used=1,
        )

    guard_results = solver.guard_results(example_id)
    attempts: list[AttemptRecord] = []
    decisive: AttemptRecord | None = None
    no_memory = context.version == "none"

    if context.frozen_map is not None:
        # Fixed-retrieval replay: identity is frozen, only content re-decodes.
        # Routed steps whose original retrieval was empty are absent from the
        # map and replay as empty injections.
        injected = context.frozen_map.get(example_id, ())
        plan = [(("frozen",), policy.resolved().bank_policy == "gate_only")]
    else:
        injected = None
        plan = compose_bank_policy(policy)

    for banks, bypass_margin in plan:
        if no_memory:
            result, ids = None, ()
        elif injected is not None:
            result = RetrievalResult(example_id, tuple(injected), ())
            ids = tuple(injected)
        else:
            per_bank = [solver.retrieve(example_id, snapshots[b]) for b in banks]
            result = _merge_results(example_id, per_bank)
            ids = result.retrieved_ids if result is not None else ()

        if not ids and not no_memory:
            attempt = AttemptRecord(banks, result, None, None, False)
            attempts.append(attempt)
            decisive = attempt
            continue

        a2, c2 = solver.decode_second(
            example_id, ids, context.version, context.edited_ids, policy.confidence_signal
        )
        margin = float("-inf") if bypass_margin else policy.margin_m
        ok = accept_decision(conf, c2, margin, guard_results, policy.guards_enabled)
        attempt = AttemptRecord(banks, result, a2, c2, ok)
        attempts.append(attempt)
        decisive = attempt
        if ok:
            break

    accepted = decisive is not None and decisive.accepted
    final = decisive.second_action if accepted else action
    return StepRecord(
        step_index=step_index,
        example_id=example_id,
        baseline_action=action,
        baseline_confidence=conf,
        routed=True,
        retrieved=decisive.retrieved if decisive is not None else None,
        second_action=decisive.second_action if decisive is not None else None,
        second_confidence=decisive.second_confidence if decisive is not None else None,
        guard_results=guard_results,
        accepted=accepted,
        final_action=final,
        calls_used=2,
        attempts=tuple(attempts),
    )


def run_episode(
    solver,
    episode_id: int,
    example_ids,
    policy: PolicyConfig,
    snapshots: dict,
    context: SecondPassContext = DEFAULT_CONTEXT,
) -> EpisodeTrace:
    budget = BudgetState(policy.budget_B, policy.cooldown)
    steps = [
        run_step(solver, ex, i, policy, snapshots, budget, context=context)
        for i, ex in enumerate(example_ids)
    ]
    utility = sum(solver.action_utility(s.example_id, s.final_action) for s in steps) / len(steps)
    return EpisodeTrace.from_steps(episode_id, steps, utility)


@dataclass(frozen=True)
class OracleStep:
    """Ground-truth view of one step: baseline utility plus every candidate."""

    example_id: int
    baseline_action: object
    baseline_utility: float
    baseline_confidence: float
    candidates: tuple  # of (action, utility)


def oracle_policy(episode_id: int, oracle_steps) -> EpisodeTrace:
    """Paired upper bound: commit a candidate only on strict utility gain.

    Equal utility keeps the baseline; with ground truth this is the pointwise
    maximizer over keep/commit per step, so no implementable policy over the
    same candidate set can beat it.
    """
    steps = []
    total_u = 0.0
    for i, ostep in enumerate(oracle_steps):
        best_action, best_u = None, ostep.baseline_utility
        for action, utility in ostep.candidates:
            if utility > best_u:
                best_action, best_u = action, utility
        accepted = best_action is not None
        final = best_action if accepted else ostep.baseline_action
        routed = len(ostep.candidates) > 0
        steps.append(
            StepRecord(
                step_index=i,
                example_id=ostep.example_id,
                baseline_action=ostep.baseline_action,
                baseline_confidence=ostep.baseline_confidence,
                routed=routed,
                retrieved=None,
                second_action=best_action,
                second_confidence=None,
                guard_results={},
                accepted=accepted,
                final_action=final,
                calls_used=2 if routed else 1,
            )
        )
        total_u += best_u
    return EpisodeTrace.from_steps(episode_id, steps, total_u / max(len(steps), 1))
