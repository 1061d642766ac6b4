"""Locked fit/test protocol: selection, freezing, ledgers, and counterfactuals.

The fit stage grid-searches candidate policies on the fit split, optionally
runs governance rounds (evaluate, attach evidence, retire), and emits a
freeze manifest hashing the policy, the frozen bank snapshots, the world,
and the split. The test stage refuses to run unless every input hashes to
the manifest, evaluates the frozen policy against the comparator family on
the disjoint test split, and emits internally consistent ledger rows. The
counterfactual runner replays content edits in free-rerun and
fixed-retrieval modes and audits the free = content + drift decomposition
row by row at zero tolerance.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, replace
from typing import get_type_hints

import numpy as np

from .bank import EvidenceRecord, STAGE_FIT, STAGE_TEST
from .controller import (
    MULTIBANK_FAMILY,
    PolicyConfig,
    SecondPassContext,
    StepTable,
    run_steps,
    select_threshold_percentile,
)
from .errors import FreezeMismatch, ProtocolViolation
from .retrieval import ContentEdit, freeze_identities, target_hit_partition
from .stats import PairedComparison, bootstrap_ci, mcnemar_exact, randomization_interaction_test
from .util import indices_digest
from .worldsim import World

COMPARATORS = ("retry", "always_retrieve", "fixed_budget")
FIXED_BUDGET_K = 2  # comparator retrieves up to k=2 per episode, no guards, no rollback
# Confidences lie in [0, 1], so tau = inf routes every step; margin -inf with
# no guards accepts every second pass whose retrieval is non-empty.
ROUTE_AND_ACCEPT_ALL = dict(tau=math.inf, margin_m=-math.inf, guards_enabled=frozenset())
NO_MEMORY = SecondPassContext(version="none")  # retry: a second pass without memory
# selection_record entries that the test stage reads back, with their JSON types
RECORD_TYPES = {
    "policy": dict, "fit_ids": list, "test_ids": list, "fit_digest": str, "test_digest": str, "active_ids": dict,
}


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreezeManifest:
    policy_hash: str
    bank_hashes: dict
    world_hash: str
    selection_record: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @staticmethod
    def from_json(text: str) -> "FreezeManifest":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FreezeMismatch(f"manifest is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise FreezeMismatch(f"manifest must be a JSON object, got {type(raw).__name__}")
        types = get_type_hints(FreezeManifest)
        missing, extra = sorted(types.keys() - raw.keys()), sorted(raw.keys() - types.keys())
        if missing or extra:
            raise FreezeMismatch(f"manifest fields do not match: missing {missing}, extra {extra}")
        bad = sorted(k for k, tp in types.items() if not isinstance(raw[k], tp))
        if not bad:
            record = raw["selection_record"]
            bad = sorted(f"selection_record.{k}" for k, tp in RECORD_TYPES.items() if not isinstance(record.get(k), tp))
        if not bad:
            bad = sorted(
                f"selection_record.active_ids.{kind}"
                for kind, ids in record["active_ids"].items()
                if not (isinstance(ids, list) and all(isinstance(i, str) for i in ids))
            )
        if bad:
            raise FreezeMismatch(f"manifest fields missing or of the wrong JSON type: {bad}")
        return FreezeManifest(**raw)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @staticmethod
    def load(path: str) -> "FreezeManifest":
        with open(path, "r", encoding="utf-8") as fh:
            return FreezeManifest.from_json(fh.read())

    def validate(self, world: World, policy: PolicyConfig, snapshots: dict) -> None:
        """Hard failure if any test-stage input hashes differently."""
        if policy.config_hash() != self.policy_hash:
            raise FreezeMismatch("policy config hash does not match the freeze manifest")
        if world.spec.world_hash() != self.world_hash:
            raise FreezeMismatch("world hash does not match the freeze manifest")
        missing = sorted(set(self.bank_hashes) - set(snapshots))
        extra = sorted(set(snapshots) - set(self.bank_hashes))
        if missing or extra:
            raise FreezeMismatch(
                f"bank kinds do not match the freeze manifest: missing {missing}, extra {extra}"
            )
        for kind, snap in snapshots.items():
            if self.bank_hashes[kind] != snap.content_hash:
                raise FreezeMismatch(f"{kind} bank content hash does not match the freeze manifest")


def split_indices(n: int, fit_fraction: float = 0.5, split_seed: int = 0):
    """Disjoint, exhaustive fit/test index lists from a seeded permutation."""
    if not (0.0 < fit_fraction < 1.0):
        raise ValueError("fit_fraction must be in (0, 1)")
    perm = np.random.default_rng(split_seed).permutation(n)
    n_fit = max(1, int(round(n * fit_fraction)))
    fit = sorted(int(i) for i in perm[:n_fit])
    test = sorted(int(i) for i in perm[n_fit:])
    return fit, test


# ---------------------------------------------------------------------------
# policy evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalRun:
    name: str
    example_ids: list
    outcomes: np.ndarray  # per example, index-aligned with example_ids
    routed_frac: float
    accepted_frac: float
    mean_calls: float
    steps: StepTable | None = None  # the controller's per-step arrays; None for the oracle and pooled runs


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


def evaluate_policy(
    world: World,
    policy: PolicyConfig,
    snapshots: dict,
    example_ids,
    name: str = "policy",
    comparator: str | None = None,
    context: SecondPassContext = SecondPassContext(),
) -> EvalRun:
    """Run one policy (or a comparator variant of it) over the given examples."""
    ids = np.asarray(example_ids, np.intp)
    _check_example_ids(ids, world.spec.n_examples)
    if comparator == "retry":
        context = NO_MEMORY
    elif comparator == "always_retrieve":
        policy = replace(policy, **ROUTE_AND_ACCEPT_ALL, budget_B=None, cooldown=0)
    elif comparator == "fixed_budget":
        policy = replace(policy, **ROUTE_AND_ACCEPT_ALL, budget_B=FIXED_BUDGET_K, cooldown=0)
    elif comparator == "baseline":
        policy = replace(policy, budget_B=0)
    elif comparator is not None:
        raise ValueError(f"unknown comparator {comparator!r}")

    steps = run_steps(world, policy, snapshots, ids, context)
    n = len(ids)
    routed = int(steps.routed.sum())
    return EvalRun(
        name=name,
        example_ids=list(example_ids),
        outcomes=steps.final_correct[np.searchsorted(steps.example_ids, ids)].astype(np.float64),
        routed_frac=routed / n,
        accepted_frac=int(steps.accepted.sum()) / n,
        mean_calls=(n + routed) / n,
        steps=steps,
    )


def evaluate_oracle(world: World, snapshots: dict, example_ids) -> EvalRun:
    """The paired upper bound: commit a candidate second pass only where it beats the baseline.

    Equal utility keeps the baseline; with ground truth this is the pointwise
    maximizer over keep/commit per example, so no implementable policy over
    the same candidate set can beat it.
    """
    rows = np.asarray(example_ids, np.intp)
    base, _ = world.baseline_pass(rows)
    present, correct = world.oracle_candidates(rows, snapshots)
    routed = int(present.any(axis=1).sum())
    accepted = ~base & (present & correct).any(axis=1)
    n = len(rows)
    return EvalRun(
        name="oracle",
        example_ids=list(example_ids),
        outcomes=(base | accepted).astype(np.float64),
        routed_frac=routed / n,
        accepted_frac=int(accepted.sum()) / n,
        mean_calls=(n + routed) / n,
    )


# ---------------------------------------------------------------------------
# fit stage
# ---------------------------------------------------------------------------

def resolve_tau_percentile(world: World, fit_ids, percentile: float, signal: str) -> float:
    return select_threshold_percentile(world.baseline_pass(fit_ids, signal)[1].tolist(), percentile)


def _fit_score(policy: PolicyConfig, dacc: float, mean_calls: float) -> float:
    return dacc - policy.lambda_cost * mean_calls


def attach_evidence(world: World, banks: dict, run: EvalRun, iteration: int = 0) -> int:
    """Attribute each routed intervention's paired utility to every retrieved entry.

    Records go in step, attempt and rank order; returns how many were appended.
    """
    steps = run.steps
    utility = steps.second_correct.astype(np.float64) - steps.baseline_correct[:, None]
    found = []
    for a in range(len(steps.plan)):
        rows, ranks = np.nonzero(steps.retrieved(a)[:, None] & steps.filled[a])
        found += [(s, a, k) for s, k in zip(rows.tolist(), ranks.tolist())]
    for s, a, k in sorted(found):
        entry_id = world.entry_ids[steps.columns[a][s, k]]
        record = EvidenceRecord(int(steps.episode_ids[s]), float(utility[s, a]), iteration)
        banks[world.entry_bank(entry_id)].append_evidence(entry_id, record)
    return len(found)


@dataclass
class GovernanceRound:
    index: int
    fit_accuracy: float
    gap_close: float | None
    retired_ids: list
    bank_hashes: dict
    snapshots: dict


@dataclass
class GovernanceReport:
    rounds: list
    selected_iteration: int
    baseline_accuracy: float
    oracle_accuracy: float

    def selected_snapshots(self) -> dict:
        return self.rounds[self.selected_iteration].snapshots


def run_governance_loop(world: World, policy: PolicyConfig, rounds: int, fit_ids) -> GovernanceReport:
    """Evaluate / attach evidence / retire, for a fixed number of rounds.

    Round i's accuracy is measured with the bank state entering that round;
    the sweep after round i shapes round i+1. Gap-close is the fraction of
    the baseline-to-oracle gap recovered, absent when oracle equals baseline.
    Retirement uses policy.delta. Works on bank copies; the caller applies
    the selected round's membership.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    for bank in world.banks.values():
        if bank.stage != STAGE_FIT:
            raise ProtocolViolation("governance is a fit-stage operation")
    working = {kind: bank.copy() for kind, bank in world.banks.items()}
    snapshots = world.snapshots()
    base_run = evaluate_policy(world, policy, snapshots, fit_ids, "baseline", comparator="baseline")
    oracle_run = evaluate_oracle(world, snapshots, fit_ids)
    acc_base = float(base_run.outcomes.mean())
    acc_oracle = float(oracle_run.outcomes.mean())

    report_rounds = []
    for it in range(rounds):
        snaps = {k: b.freeze() for k, b in working.items()}
        run = evaluate_policy(world, policy, snaps, fit_ids, "policy")
        acc = float(run.outcomes.mean())
        gap = None if acc_oracle == acc_base else (acc - acc_base) / (acc_oracle - acc_base)
        attach_evidence(world, working, run, iteration=it)
        retired = []
        for bank in working.values():
            retired.extend(bank.retirement_sweep(policy.delta))
        report_rounds.append(
            GovernanceRound(
                index=it,
                fit_accuracy=acc,
                gap_close=gap,
                retired_ids=sorted(retired),
                bank_hashes={k: s.content_hash for k, s in snaps.items()},
                snapshots=snaps,
            )
        )

    best = max(range(len(report_rounds)), key=lambda i: (report_rounds[i].fit_accuracy, -i))
    return GovernanceReport(
        rounds=report_rounds,
        selected_iteration=best,
        baseline_accuracy=acc_base,
        oracle_accuracy=acc_oracle,
    )


def run_fit_stage(
    world: World,
    candidates: list,
    fit_ids,
    test_ids,
    governance_rounds: int = 0,
) -> tuple[FreezeManifest, PolicyConfig, dict]:
    """Grid-search candidates on fit data only; freeze the winner.

    Selection is by fit delta-accuracy minus lambda * mean calls, ties broken
    by lower mean calls then grid order. multibank_best candidates are
    expanded into their family and the fit-selected member is recorded.
    """
    if set(fit_ids) & set(test_ids):
        raise ProtocolViolation("fit and test splits overlap")
    if not candidates:
        raise ValueError("empty candidate grid")
    if governance_rounds < 0:
        raise ValueError(f"governance_rounds must be >= 0, got {governance_rounds}")

    expanded: list[tuple[int, PolicyConfig]] = []
    for gi, cand in enumerate(candidates):
        if cand.bank_policy == "multibank_best" and cand.multibank_member is None:
            for member in MULTIBANK_FAMILY:
                expanded.append((gi, replace(cand, multibank_member=member)))
        else:
            expanded.append((gi, cand))

    snapshots = world.snapshots()
    base_run = evaluate_policy(
        world, expanded[0][1], snapshots, fit_ids, "baseline", comparator="baseline"
    )
    scored = []
    for order, (gi, cand) in enumerate(expanded):
        run = evaluate_policy(world, cand, snapshots, fit_ids, "policy")
        comp = PairedComparison(base_run.outcomes.astype(bool), run.outcomes.astype(bool))
        scored.append((gi, order, cand, comp.delta_acc(), run.mean_calls))

    best = min(
        scored,
        key=lambda t: (-_fit_score(t[2], t[3], t[4]), t[4], t[1]),
    )
    grid_index, _, policy, fit_dacc, mean_calls = best

    governance_iteration = None
    if governance_rounds >= 1:
        report = run_governance_loop(world, policy, governance_rounds, fit_ids)
        for kind, snap in report.selected_snapshots().items():
            world.banks[kind].retain(snap.entry_ids)
        governance_iteration = report.selected_iteration
        snapshots = world.snapshots()

    record = {
        "grid_index": grid_index,
        "fit_delta_acc": fit_dacc,
        "mean_calls": mean_calls,
        "governance_iteration": governance_iteration,
        "fit_ids": list(fit_ids),
        "test_ids": list(test_ids),
        "fit_digest": indices_digest(fit_ids),
        "test_digest": indices_digest(test_ids),
        "active_ids": {k: list(s.entry_ids) for k, s in snapshots.items()},
        "policy": policy.to_flat(),
    }
    manifest = FreezeManifest(
        policy_hash=policy.config_hash(),
        bank_hashes={k: s.content_hash for k, s in snapshots.items()},
        world_hash=world.spec.world_hash(),
        selection_record=record,
    )
    return manifest, policy, snapshots


# ---------------------------------------------------------------------------
# test stage
# ---------------------------------------------------------------------------

@dataclass
class LedgerRow:
    comparison: str
    n: int
    delta_acc: float
    ci_lo: float
    ci_hi: float
    mcnemar_p: float
    help_hurt: int
    delta_calls: float
    routed_frac: float
    accepted_frac: float

    def check_consistency(self) -> None:
        # On integer outcome vectors delta_acc * n is exactly helps - hurts.
        if abs(self.delta_acc * self.n - self.help_hurt) > 1e-9:
            raise ProtocolViolation(
                f"ledger row {self.comparison!r}: delta_acc*n != help-hurt "
                f"({self.delta_acc * self.n} vs {self.help_hurt})"
            )
        if not (self.ci_lo <= self.ci_hi):
            raise ProtocolViolation(f"ledger row {self.comparison!r}: CI bounds out of order")

    def as_csv(self) -> str:
        return ",".join(
            [
                self.comparison,
                str(self.n),
                f"{self.delta_acc:+.6f}",
                f"{self.ci_lo:+.6f}",
                f"{self.ci_hi:+.6f}",
                f"{self.mcnemar_p:.6g}",
                f"{self.help_hurt:+d}",
                f"{self.delta_calls:+.6f}",
                f"{self.routed_frac:.6f}",
                f"{self.accepted_frac:.6f}",
            ]
        )


LEDGER_HEADER = (
    "comparison,n,delta_acc,ci_lo,ci_hi,mcnemar_p,help_hurt,delta_calls,routed_frac,accepted_frac"
)


def make_ledger_row(name: str, base: EvalRun, run: EvalRun, seed: int = 0) -> LedgerRow:
    comp = PairedComparison(base.outcomes.astype(bool), run.outcomes.astype(bool))
    diffs = comp.diffs()
    lo, hi = bootstrap_ci(diffs, seed=seed)
    row = LedgerRow(
        comparison=name,
        n=comp.n,
        delta_acc=comp.delta_acc(),
        ci_lo=lo,
        ci_hi=hi,
        mcnemar_p=mcnemar_exact(comp.helps(), comp.hurts()),
        help_hurt=comp.helps() - comp.hurts(),
        delta_calls=run.mean_calls - base.mean_calls,
        routed_frac=run.routed_frac,
        accepted_frac=run.accepted_frac,
    )
    row.check_consistency()
    return row


def run_test_stage(
    world: World,
    manifest: FreezeManifest,
    policy: PolicyConfig,
    snapshots: dict,
) -> tuple[list, dict]:
    """Frozen paired evaluation on the test split; returns (rows, runs by name)."""
    manifest.validate(world, policy, snapshots)
    fit_ids, test_ids = _recover_split(manifest.selection_record, world.spec.n_examples)
    for bank in world.banks.values():
        bank.stage = STAGE_TEST

    runs = {"baseline": evaluate_policy(world, policy, snapshots, test_ids, "baseline", comparator="baseline")}
    runs["policy"] = evaluate_policy(world, policy, snapshots, test_ids, "policy")
    for comparator in COMPARATORS:
        runs[comparator] = evaluate_policy(
            world, policy, snapshots, test_ids, comparator, comparator=comparator
        )
    runs["oracle"] = evaluate_oracle(world, snapshots, test_ids)

    rows = [
        make_ledger_row(f"{name} vs baseline", runs["baseline"], runs[name], seed=world.seed)
        for name in ("policy", "retry", "always_retrieve", "fixed_budget", "oracle")
    ]
    return rows, runs


def _recover_split(record: dict, n: int):
    try:
        fit_ids = [int(i) for i in record["fit_ids"]]
        test_ids = [int(i) for i in record["test_ids"]]
    except (TypeError, ValueError) as exc:
        raise FreezeMismatch(f"manifest fit_ids and test_ids must be lists of example ids ({exc!r})") from None
    if len(set(fit_ids)) != len(fit_ids) or len(set(test_ids)) != len(test_ids):
        raise FreezeMismatch("manifest split has duplicate example ids")
    if set(fit_ids) & set(test_ids):
        raise FreezeMismatch("manifest records overlapping fit/test splits")
    if min(fit_ids + test_ids, default=0) < 0:
        raise FreezeMismatch("manifest split has negative example ids")
    if max(fit_ids + test_ids, default=-1) >= n:
        raise FreezeMismatch("manifest split indexes past the world size")
    if indices_digest(fit_ids) != record["fit_digest"] or indices_digest(test_ids) != record["test_digest"]:
        raise FreezeMismatch("manifest split digests do not match the recorded indices")
    return fit_ids, test_ids


def apply_recorded_membership(world: World, manifest: FreezeManifest) -> None:
    """Retire whatever the manifest's recorded active id lists exclude.

    Entry ids are deterministic across worlds of the same shape, so a
    governed manifest's pruned membership transfers to sibling-seed worlds.
    """
    recorded = manifest.selection_record["active_ids"]
    for kind, bank in world.banks.items():
        if kind in recorded:
            bank.retain(recorded[kind])


def _pool_runs(runs: list) -> EvalRun:
    total_steps = sum(len(r.example_ids) for r in runs)
    weights = [len(r.example_ids) / total_steps for r in runs]
    return EvalRun(
        name=runs[0].name,
        example_ids=[i for r in runs for i in r.example_ids],
        outcomes=np.concatenate([r.outcomes for r in runs]),
        routed_frac=sum(w * r.routed_frac for w, r in zip(weights, runs)),
        accepted_frac=sum(w * r.accepted_frac for w, r in zip(weights, runs)),
        mean_calls=sum(w * r.mean_calls for w, r in zip(weights, runs)),
    )


def run_pooled_test(
    base_world: World,
    manifest: FreezeManifest,
    policy: PolicyConfig,
    n_seeds: int = 3,
    out_dir: str | None = None,
) -> tuple[list, dict]:
    """Frozen test evaluation pooled over sibling-seed worlds.

    The given manifest is validated against the base world; sibling worlds
    reuse the frozen policy and recorded bank membership (no selection,
    evidence or retirement sweep runs on them) and get mechanical manifests
    over their own bank and world hashes. Paired outcome vectors are concatenated in seed order
    and the statistics recomputed on the pool.
    """
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    per_seed_rows = {}
    runs_by_name: dict[str, list] = {}
    base_seed = base_world.spec.seed
    for k in range(n_seeds):
        if k == 0:
            world = base_world
        else:
            world = World(replace(base_world.spec, seed=base_seed + k))
            apply_recorded_membership(world, manifest)
        snapshots = world.snapshots()
        seed_manifest = manifest if k == 0 else FreezeManifest(
            policy_hash=manifest.policy_hash,
            bank_hashes={kind: s.content_hash for kind, s in snapshots.items()},
            world_hash=world.spec.world_hash(),
            selection_record=manifest.selection_record,
        )
        rows, runs = run_test_stage(world, seed_manifest, policy, snapshots)
        per_seed_rows[world.spec.seed] = rows
        for name, run in runs.items():
            runs_by_name.setdefault(name, []).append(run)

    pooled = {name: _pool_runs(rs) for name, rs in runs_by_name.items()}
    pooled_rows = [
        make_ledger_row(f"{name} vs baseline", pooled["baseline"], pooled[name], seed=base_seed)
        for name in ("policy", "retry", "always_retrieve", "fixed_budget", "oracle")
    ]
    if out_dir is not None:
        write_ledger(pooled_rows, os.path.join(out_dir, "ledger.csv"))
        for seed, rows in per_seed_rows.items():
            write_ledger(rows, os.path.join(out_dir, f"ledger_seed{seed}.csv"))
        base_runs = {name: rs[0] for name, rs in runs_by_name.items()}
        write_traces(base_runs["policy"].steps.traces(), os.path.join(out_dir, "traces.jsonl"))
        write_conf_bins(
            base_world, base_runs, os.path.join(out_dir, "conf_bins.csv"), policy.confidence_signal
        )
    return pooled_rows, per_seed_rows


def write_ledger(rows, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(LEDGER_HEADER + "\n")
        for row in rows:
            fh.write(row.as_csv() + "\n")


def _step_json(step) -> dict:
    return {
        "step_index": step.step_index,
        "example_id": step.example_id,
        "baseline_action": step.baseline_action,
        "baseline_confidence": round(step.baseline_confidence, 10),
        "routed": step.routed,
        "retrieved_ids": list(step.retrieved.retrieved_ids) if step.retrieved else [],
        "second_action": step.second_action,
        "second_confidence": None if step.second_confidence is None else round(step.second_confidence, 10),
        "accepted": step.accepted,
        "final_action": step.final_action,
        "calls_used": step.calls_used,
    }


def write_traces(traces, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for trace in traces:
            fh.write(
                json.dumps(
                    {
                        "episode_id": trace.episode_id,
                        "outcome_utility": trace.outcome_utility,
                        "routed_count": trace.routed_count,
                        "accepted_count": trace.accepted_count,
                        "total_calls": trace.total_calls,
                        "steps": [_step_json(s) for s in trace.steps],
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def write_conf_bins(world: World, runs: dict, path: str, signal: str, n_bins: int = 10) -> None:
    """Plot-ready binned accuracy: baseline vs gated policy by baseline confidence."""
    ids = runs["baseline"].example_ids
    conf = world.baseline_pass(ids, signal)[1]
    bins = np.minimum((conf * n_bins).astype(int), n_bins - 1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bin_lo,bin_hi,count,baseline_acc,policy_acc\n")
        for b in range(n_bins):
            mask = bins == b
            cnt = int(mask.sum())
            if cnt == 0:
                fh.write(f"{b/n_bins:.2f},{(b+1)/n_bins:.2f},0,,\n")
                continue
            acc_a = runs["baseline"].outcomes[mask].mean()
            acc_b = runs["policy"].outcomes[mask].mean()
            fh.write(f"{b/n_bins:.2f},{(b+1)/n_bins:.2f},{cnt},{acc_a:.6f},{acc_b:.6f}\n")


# ---------------------------------------------------------------------------
# counterfactual replay
# ---------------------------------------------------------------------------

@dataclass
class CounterfactualRow:
    query_id: int
    routed: bool
    frozen_identity: tuple
    outcome_original: float
    outcome_repair_free: float
    outcome_corrupt_free: float
    outcome_repair_fixed: float
    outcome_corrupt_fixed: float
    target_hit: bool


def run_counterfactual(
    world: World,
    manifest: FreezeManifest,
    policy: PolicyConfig,
    snapshots: dict,
    edits: list,
    example_ids=None,
    n_permutations: int = 10000,
    seed: int = 0,
) -> tuple[list, dict]:
    """Free-rerun and fixed-retrieval replays of content edits, with audit.

    Per routed row, free contrast = within-identity content term + retrieval
    drift term, exactly; in fixed mode the drift term is identically zero and
    non-hit rows are bitwise identical across repair/corrupt.
    """
    manifest.validate(world, policy, snapshots)
    if example_ids is None:
        _, example_ids = _recover_split(manifest.selection_record, world.spec.n_examples)
    edited_ids = tuple(sorted({e.entry_id for e in edits}))
    for eid in edited_ids:
        kind = world.entry_bank(eid)
        if eid not in world.banks[kind]:
            raise ValueError(f"edit references unknown entry {eid!r}")

    original = evaluate_policy(world, policy, snapshots, example_ids, "original")
    frozen = freeze_identities(original.steps.retrievals())
    if not frozen:
        raise ProtocolViolation("no routed queries with retrieval; nothing to replay")

    repair_edits = [ContentEdit(e.entry_id, e.new_payload, "repair") for e in edits]
    corrupt_edits = [ContentEdit(e.entry_id, e.new_payload, "corrupt") for e in edits]

    def free_snaps(kind_edits):
        out = {}
        for kind, snap in snapshots.items():
            kinds_edits = [e for e in kind_edits if world.entry_bank(e.entry_id) == kind]
            out[kind] = world.drifted_snapshot(kind, kinds_edits) if kinds_edits else snap
        return out

    modes = {
        ("repair", "free"): evaluate_policy(
            world, policy, free_snaps(repair_edits), example_ids, "repair_free",
            context=SecondPassContext("repair", edited_ids),
        ),
        ("corrupt", "free"): evaluate_policy(
            world, policy, free_snaps(corrupt_edits), example_ids, "corrupt_free",
            context=SecondPassContext("corrupt", edited_ids),
        ),
        ("repair", "fixed"): evaluate_policy(
            world, policy, snapshots, example_ids, "repair_fixed",
            context=SecondPassContext("repair", edited_ids, frozen_map=frozen),
        ),
        ("corrupt", "fixed"): evaluate_policy(
            world, policy, snapshots, example_ids, "corrupt_fixed",
            context=SecondPassContext("corrupt", edited_ids, frozen_map=frozen),
        ),
    }

    pos = {ex: k for k, ex in enumerate(example_ids)}
    routed_ids = original.steps.example_ids[original.steps.routed].tolist()
    rows = []
    max_audit_error = 0.0
    for qid in routed_ids:
        k = pos[qid]
        row = CounterfactualRow(
            query_id=qid,
            routed=True,
            frozen_identity=frozen.get(qid, ()),
            outcome_original=float(original.outcomes[k]),
            outcome_repair_free=float(modes[("repair", "free")].outcomes[k]),
            outcome_corrupt_free=float(modes[("corrupt", "free")].outcomes[k]),
            outcome_repair_fixed=float(modes[("repair", "fixed")].outcomes[k]),
            outcome_corrupt_fixed=float(modes[("corrupt", "fixed")].outcomes[k]),
            target_hit=bool(set(frozen.get(qid, ())) & set(edited_ids)),
        )
        rows.append(row)
        for version in ("repair", "corrupt"):
            y_free = getattr(row, f"outcome_{version}_free")
            y_fixed = getattr(row, f"outcome_{version}_fixed")
            free_contrast = y_free - row.outcome_original
            content_term = y_fixed - row.outcome_original
            drift_term = y_free - y_fixed
            err = abs(free_contrast - (content_term + drift_term))
            max_audit_error = max(max_audit_error, err)
            if err != 0.0:
                raise ProtocolViolation(
                    f"decomposition identity violated on query {qid} ({version}): "
                    f"free={free_contrast} content={content_term} drift={drift_term}"
                )

    hit_ids, non_hit_ids = target_hit_partition(frozen, edited_ids)
    hit_set = set(hit_ids)
    hit_diffs = np.array(
        [r.outcome_repair_fixed - r.outcome_corrupt_fixed for r in rows if r.query_id in hit_set]
    )
    non_hit_diffs = np.array(
        [r.outcome_repair_fixed - r.outcome_corrupt_fixed for r in rows if r.query_id not in hit_set]
    )
    _audit_fixed_replay(modes, frozen, hit_set, rows)

    interaction_p = None
    if hit_diffs.size and non_hit_diffs.size:
        interaction_p = randomization_interaction_test(
            hit_diffs, non_hit_diffs, n_permutations=n_permutations, seed=seed
        )

    audit = {
        "n_rows": len(rows),
        "n_hit": len(hit_ids),
        "n_non_hit": len(non_hit_ids),
        "decomposition_max_abs_error": max_audit_error,
        "fixed_replay_identity_ok": True,
        "non_hit_bitwise_identical": True,
        "hit_dacc_fixed": float(hit_diffs.mean()) if hit_diffs.size else None,
        "non_hit_dacc_fixed": float(non_hit_diffs.mean()) if non_hit_diffs.size else None,
        "interaction_p": interaction_p,
    }
    return rows, audit


def _audit_fixed_replay(modes: dict, frozen: dict, hit_set: set, rows) -> None:
    """Fixed-mode hard checks: frozen identity replayed exactly, and non-hit
    rows bitwise identical across repair/corrupt (actions, confidences,
    acceptance, not just outcomes)."""
    tables = {version: modes[(version, "fixed")].steps for version in ("repair", "corrupt")}
    for version, steps in tables.items():
        for qid, replayed in steps.retrievals():
            if replayed != frozen.get(qid, ()):
                raise ProtocolViolation(
                    f"fixed replay of query {qid} ({version}) injected {replayed}, frozen was {frozen.get(qid)}"
                )
    a, b = tables["repair"], tables["corrupt"]
    (ran_a, ok_a, conf_a), (ran_b, ok_b, conf_b) = a.deciding_pass(), b.deciding_pass()
    same = (a.routed == b.routed) & (
        ~a.routed
        | (
            (a.final_correct == b.final_correct)
            & (ran_a == ran_b)
            & (~ran_a | ((ok_a == ok_b) & (conf_a == conf_b)))
            & (a.accepted == b.accepted)
        )
    )
    non_hit = [row.query_id for row in rows if row.query_id not in hit_set]
    for qid, ok in zip(non_hit, same[np.searchsorted(a.example_ids, non_hit)].tolist()):
        if not ok:
            raise ProtocolViolation(f"non-hit row {qid} differs across repair/corrupt under fixed retrieval")


def write_counterfactual_rows(rows, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in rows:
            fh.write(json.dumps(asdict(r), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# paper-style ledger consistency solver
# ---------------------------------------------------------------------------

def ledger_check(
    n: int, delta_acc: float, help_hurt: int, p: float, rel_tol: float = 0.05
) -> tuple[int, int, float] | None:
    """Search integer (helps, hurts) consistent with a reported ledger row.

    Requires helps - hurts = help_hurt, |delta_acc * n - (helps - hurts)| < 0.5,
    and exact McNemar p within rel_tol relative of the reported p. Returns the
    smallest-hurts solution, or None if the row is inconsistent.
    """
    if abs(delta_acc * n - help_hurt) >= 0.5:
        return None
    u_start = max(0, -help_hurt)
    for u in range(u_start, n + 1):
        h = u + help_hurt
        if h < 0 or h + u > n:
            continue
        p_exact = mcnemar_exact(h, u)
        if p <= 0:
            if p_exact == 0:
                return h, u, p_exact
            continue
        if abs(p_exact - p) / p <= rel_tol:
            return h, u, p_exact
    return None
