"""Locked fit/test protocol: selection, freezing, ledgers, and counterfactuals.

The fit stage grid-searches candidate policies on the fit split, optionally
runs governance rounds (evaluate, attach evidence, retire), and emits a
freeze manifest hashing the policy, the frozen bank snapshots, the world,
and the split. The test stage refuses to run unless every input hashes to
the manifest, evaluates the frozen policy against the comparator family on
the disjoint test split, and emits internally consistent ledger rows. The
counterfactual runner replays content edits in free-rerun and
fixed-retrieval modes and audits the free = content + drift decomposition
row by row at zero tolerance. With outcomes in {0, 1} that identity holds
exactly in floating point whatever the runs return, so it cannot catch a
wrong replay; the fixed-replay identity audit and the non-hit bitwise audit
do.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii
from typing import get_type_hints

import numpy as np

from .bank import STAGE_FIT, STAGE_TEST
from .controller import (
    DEFAULT_CONTEXT,
    MULTIBANK_FAMILY,
    PolicyConfig,
    SecondPassContext,
    StepTable,
    run_steps,
    select_threshold_percentile,
)
from .errors import FreezeMismatch, ProtocolViolation
from .retrieval import ContentEdit
from .stats import bootstrap_ci, confidence_bins, mcnemar_exact, randomization_interaction_test
from .util import indices_digest
from .worldsim import OutcomeTable, World, WorldSpec

COMPARATORS = ("retry", "always_retrieve", "fixed_budget")
LEDGER_COMPARISONS = ("policy",) + COMPARATORS + ("oracle",)  # each ledger row pairs one against baseline
FIXED_BUDGET_K = 2  # comparator retrieves up to k=2 per episode, no guards, no rollback
# Confidences lie in [0, 1], so tau = inf routes every step; margin -inf with
# no guards accepts every second pass whose retrieval is non-empty.
ROUTE_AND_ACCEPT_ALL = dict(tau=math.inf, margin_m=-math.inf, guards_enabled=frozenset())
NO_MEMORY = SecondPassContext(version="none")  # retry: a second pass without memory
# selection_record entries that the test stage reads back, with their JSON types
RECORD_TYPES = {
    "policy": dict, "fit_ids": list, "test_ids": list, "fit_digest": str, "test_digest": str, "active_ids": dict,
}
ROW_BLOCK = 256  # rows (traces: about this many steps) encoded per write; a block's text stays well under 1 MB
_JSON_BOOL = ("false", "true")


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
        return json.dumps(vars(self), sort_keys=True, indent=2)

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
    """Disjoint, exhaustive, non-empty fit/test index lists from a seeded permutation."""
    if not (0.0 < fit_fraction < 1.0):
        raise ValueError("fit_fraction must be in (0, 1)")
    perm = np.random.default_rng(split_seed).permutation(n)
    n_fit = max(1, int(round(n * fit_fraction)))
    if n_fit >= n:
        side = "fit" if n < 1 else "test"
        raise ValueError(f"n={n} examples at fit_fraction={fit_fraction} leave the {side} split empty")
    fit = sorted(int(i) for i in perm[:n_fit])
    test = sorted(int(i) for i in perm[n_fit:])
    return fit, test


# ---------------------------------------------------------------------------
# policy evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalRun:
    outcomes: np.ndarray  # per example, in the order of the ids evaluated
    routed_frac: float
    accepted_frac: float
    mean_calls: float
    steps: StepTable | None = None  # the controller's per-step arrays; None for the oracle


@dataclass(frozen=True)
class PairedCounts:
    """A run against the baseline on the same examples, as much as a ledger row reads:
    helps (run right, baseline wrong), hurts (the reverse), the run's rates and the baseline's mean calls."""

    n: int
    helps: int
    hurts: int
    routed_frac: float
    accepted_frac: float
    mean_calls: float
    base_mean_calls: float

    @property
    def delta_acc(self) -> float:
        return (self.helps - self.hurts) / self.n

    @staticmethod
    def of(base: EvalRun, run: EvalRun) -> "PairedCounts":
        """The counts of two runs whose outcomes are index-aligned."""
        a, b = base.outcomes.astype(bool), run.outcomes.astype(bool)
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError("outcome vectors must be 1-d and equal length")
        helps, hurts = int(np.sum(~a & b)), int(np.sum(a & ~b))
        return PairedCounts(len(a), helps, hurts, run.routed_frac, run.accepted_frac, run.mean_calls, base.mean_calls)

    @staticmethod
    def pool(parts: list) -> "PairedCounts":
        """The counts over all parts' examples. A rate pools as sum((n_k / N) * x_k) in order,
        which can differ from sum(n_k * x_k) / N in the last bit, and so in a ledger's sixth decimal."""
        total = sum(p.n for p in parts)
        rates = ("routed_frac", "accepted_frac", "mean_calls", "base_mean_calls")
        return PairedCounts(
            total,
            sum(p.helps for p in parts),
            sum(p.hurts for p in parts),
            *(sum(p.n / total * getattr(p, rate) for p in parts) for rate in rates),
        )


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
    comparator: str | None = None,
) -> EvalRun:
    """Run one policy (or a comparator variant of it) over the given examples."""
    ids = np.asarray(example_ids, np.intp)
    _check_example_ids(ids, world.spec.n_examples)
    context = DEFAULT_CONTEXT
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


def attach_evidence(world: World, banks: dict, run: EvalRun) -> int:
    """Attribute each routed intervention's paired utility to every retrieved entry.

    Each entry's utilities go to its bank in one append, entries in
    pair-table column order; returns how many utilities were attributed.
    """
    steps = run.steps
    utility = steps.second_correct.astype(np.float64) - steps.baseline_correct[:, None]
    columns, gains = [np.zeros(0, np.intp)], [np.zeros(0)]
    for a in range(len(steps.plan)):
        cells = steps.tried[:, a, None] & steps.filled[a]
        columns.append(steps.columns[a][cells])
        gains.append(utility[np.nonzero(cells)[0], a])
    columns, gains = np.concatenate(columns), np.concatenate(gains)
    order = np.argsort(columns, kind="stable")
    columns, gains = columns[order], gains[order]
    starts = np.flatnonzero(np.diff(columns, prepend=-1))
    for column, part in zip(columns[starts].tolist(), np.split(gains, starts[1:])):
        entry_id = world.entry_ids[column]
        banks[world.entry_bank(entry_id)].append_evidence(entry_id, part)
    return len(columns)


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
    snaps = {k: b.freeze() for k, b in working.items()}  # the entering state of round 0, too
    base_run = evaluate_policy(world, policy, snaps, fit_ids, comparator="baseline")
    oracle_run = evaluate_oracle(world, snaps, fit_ids)
    acc_base = float(base_run.outcomes.mean())
    acc_oracle = float(oracle_run.outcomes.mean())

    report_rounds = []
    for it in range(rounds):
        if it:
            snaps = {k: b.freeze() for k, b in working.items()}
        run = evaluate_policy(world, policy, snaps, fit_ids)
        acc = float(run.outcomes.mean())
        gap = None if acc_oracle == acc_base else (acc - acc_base) / (acc_oracle - acc_base)
        attach_evidence(world, working, run)
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
    base_run = evaluate_policy(world, expanded[0][1], snapshots, fit_ids, comparator="baseline")
    scored = []
    for order, (gi, cand) in enumerate(expanded):
        run = evaluate_policy(world, cand, snapshots, fit_ids)
        scored.append((gi, order, cand, PairedCounts.of(base_run, run).delta_acc, run.mean_calls))

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
        snapshots = report.selected_snapshots()

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


def make_ledger_row(name: str, counts: PairedCounts, seed: int = 0) -> LedgerRow:
    helps, hurts = counts.helps, counts.hurts
    # the paired differences run - baseline; the bootstrap reads only how many there are of each value
    diffs = np.repeat([-1.0, 0.0, 1.0], [hurts, counts.n - helps - hurts, helps])
    lo, hi = bootstrap_ci(diffs, seed=seed)
    row = LedgerRow(
        comparison=name,
        n=counts.n,
        delta_acc=counts.delta_acc,
        ci_lo=lo,
        ci_hi=hi,
        mcnemar_p=mcnemar_exact(helps, hurts),
        help_hurt=helps - hurts,
        delta_calls=counts.mean_calls - counts.base_mean_calls,
        routed_frac=counts.routed_frac,
        accepted_frac=counts.accepted_frac,
    )
    row.check_consistency()
    return row


def _ledger_rows(counts: dict, seed: int) -> list:
    return [make_ledger_row(f"{name} vs baseline", counts[name], seed=seed) for name in LEDGER_COMPARISONS]


def _paired_counts(runs: dict) -> dict:
    return {name: PairedCounts.of(runs["baseline"], runs[name]) for name in LEDGER_COMPARISONS}


def run_test_stage(
    world: World,
    manifest: FreezeManifest,
    policy: PolicyConfig,
    snapshots: dict,
) -> tuple[list, dict]:
    """Frozen paired evaluation on the test split; returns (rows, runs by name)."""
    manifest.validate(world, policy, snapshots)
    _, test_ids = _recover_split(manifest.selection_record, world.spec.n_examples)
    runs = _test_runs(world, policy, snapshots, test_ids)
    return _ledger_rows(_paired_counts(runs), world.seed), runs


def _test_runs(world: World, policy: PolicyConfig, snapshots: dict, test_ids: list) -> dict:
    """The baseline's and each ledger comparison's run on the test split, by name; the banks go to the test stage."""
    for bank in world.banks.values():
        bank.stage = STAGE_TEST
    runs = {"baseline": evaluate_policy(world, policy, snapshots, test_ids, comparator="baseline")}
    runs["policy"] = evaluate_policy(world, policy, snapshots, test_ids)
    for comparator in COMPARATORS:
        runs[comparator] = evaluate_policy(world, policy, snapshots, test_ids, comparator=comparator)
    runs["oracle"] = evaluate_oracle(world, snapshots, test_ids)
    return runs


def _recover_split(record: dict, n: int):
    for field in ("fit_ids", "test_ids"):
        ids = record[field]
        bad = [i for i in ids if type(i) is not int] if isinstance(ids, list) else [ids]
        if bad:
            raise FreezeMismatch(f"manifest selection_record.{field} must be a list of JSON integers, got {bad[0]!r}")
    fit_ids, test_ids = record["fit_ids"], record["test_ids"]
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


def run_pooled_test(
    spec: WorldSpec,
    manifest: FreezeManifest,
    policy: PolicyConfig,
    n_seeds: int = 3,
    out_dir: str | None = None,
) -> tuple[list, dict]:
    """Frozen test evaluation pooled over sibling-seed worlds.

    Seed k's world is built from the spec at seed spec.seed + k and keeps the
    manifest's recorded bank membership. The manifest is validated against
    the base world (k = 0); siblings reuse the frozen policy and membership,
    and no selection, evidence or retirement sweep runs on them. Each seed
    reduces every comparison to its PairedCounts against the baseline, and
    the pooled rows are computed from those counts added up in seed order.
    One world is alive at a time, and no seed keeps a per-example array: the
    base world's traces and confidence bins are written before any sibling
    is built.
    """
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    per_seed_rows = {}
    counts_by_name: dict[str, list] = {}
    for k in range(n_seeds):
        seed_spec = replace(spec, seed=spec.seed + k)
        rows, counts = _test_seed(seed_spec, manifest, policy, base=k == 0, out_dir=out_dir)
        per_seed_rows[seed_spec.seed] = rows
        for name, c in counts.items():
            counts_by_name.setdefault(name, []).append(c)

    pooled_rows = _ledger_rows({name: PairedCounts.pool(cs) for name, cs in counts_by_name.items()}, spec.seed)
    if out_dir is not None:
        write_ledger(pooled_rows, os.path.join(out_dir, "ledger.csv"))
        for seed, rows in per_seed_rows.items():
            write_ledger(rows, os.path.join(out_dir, f"ledger_seed{seed}.csv"))
    return pooled_rows, per_seed_rows


def _test_seed(
    spec: WorldSpec, manifest: FreezeManifest, policy: PolicyConfig, base: bool, out_dir: str | None
) -> tuple[list, dict]:
    """One seed's ledger rows and each comparison's PairedCounts, by name.

    The base world is checked against the manifest and, given out_dir,
    writes traces.jsonl and conf_bins.csv. The world goes when this returns.
    """
    world = World(spec)
    apply_recorded_membership(world, manifest)
    snapshots = world.snapshots()
    if base:
        manifest.validate(world, policy, snapshots)
    _, test_ids = _recover_split(manifest.selection_record, spec.n_examples)
    runs = _test_runs(world, policy, snapshots, test_ids)
    if base and out_dir is not None:
        write_traces(runs["policy"].steps, os.path.join(out_dir, "traces.jsonl"))
        write_conf_bins(world, test_ids, runs, os.path.join(out_dir, "conf_bins.csv"), policy.confidence_signal)
    counts = _paired_counts(runs)
    return _ledger_rows(counts, world.seed), counts


def write_ledger(rows, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(LEDGER_HEADER + "\n")
        for row in rows:
            fh.write(row.as_csv() + "\n")


# a traces.jsonl line and its steps: json.dumps(..., sort_keys=True) of the README's fields
_STEP_JSON = (
    '{"accepted": %s, "baseline_action": %s, "baseline_confidence": %s, "calls_used": %d, "example_id": %d, '
    '"final_action": %s, "retrieved_ids": [%s], "routed": %s, "second_action": %s, "second_confidence": %s, '
    '"step_index": %d}'
)
_EPISODE_JSON = (
    '{"accepted_count": %d, "episode_id": %d, "outcome_utility": %s, "routed_count": %d, "steps": [%s], '
    '"total_calls": %d}\n'
)


def _json_bools(values: np.ndarray) -> list:
    return list(map(_JSON_BOOL.__getitem__, values.tolist()))


def _joined_ids(quoted_ids: list, columns: np.ndarray, filled: np.ndarray) -> list:
    """Each row's injected entries as the items of a JSON list: quoted_ids[c] for c in columns[r][filled[r]]."""
    cells = [quoted_ids[c] for c in columns[filled].tolist()]
    ends = np.cumsum(filled.sum(axis=1)).tolist()
    return [", ".join(cells[lo:hi]) for lo, hi in zip([0] + ends[:-1], ends)]


def _json_rounded(values: np.ndarray) -> list:
    """json's text of each finite value rounded to 10 places, as the per-row files write confidences.

    That text is float.__repr__(round(x, 10)). From 1e-4 up to 1e5 it is also
    '%.10f' % x without trailing zeros: both take the same correctly rounded
    digits, and a decimal of at most 15 significant digits is its double's
    shortest repr. Below 1e-4 repr switches to exponent form.
    """
    out = []
    for x in values.tolist():
        if 1e-4 <= x < 1e5:
            text = ("%.10f" % x).rstrip("0")
            out.append(text + "0" if text[-1] == "." else text)
        else:
            out.append(float.__repr__(round(x, 10)))
    return out


def write_traces(steps: StepTable, path: str) -> None:
    """One JSON line per episode of the policy run, its steps in order (format in README).

    A routed step shows its deciding attempt: the ids it injected, and its
    second answer and confidence if a second pass ran. Lines are encoded
    from the table's columns a block of episodes at a time.
    """
    world = steps.world
    quoted_ids = [encode_basestring_ascii(e) for e in world.entry_ids]
    injected, filled = steps.deciding_injection()
    ran, correct, confidence = steps.deciding_pass()
    accepted = steps.accepted

    def step_json(lo: int, hi: int) -> list:
        ids = steps.example_ids[lo:hi].tolist()
        routed, ran_ = steps.routed[lo:hi], ran[lo:hi].tolist()
        base = [
            encode_basestring_ascii(world.answer(i, c, second=False))
            for i, c in zip(ids, steps.baseline_correct[lo:hi].tolist())
        ]
        second = [
            encode_basestring_ascii(world.answer(i, c, second=True)) if r else "null"
            for i, c, r in zip(ids, correct[lo:hi].tolist(), ran_)
        ]
        return list(map(_STEP_JSON.__mod__, zip(
            _json_bools(accepted[lo:hi]),
            base,
            _json_rounded(steps.baseline_confidence[lo:hi]),
            (routed + 1).tolist(),
            ids,
            [s if a else b for s, b, a in zip(second, base, accepted[lo:hi].tolist())],
            _joined_ids(quoted_ids, injected[lo:hi], filled[lo:hi]),
            _json_bools(routed),
            second,
            [c if r else "null" for c, r in zip(_json_rounded(confidence[lo:hi]), ran_)],
            steps.step_index[lo:hi].tolist(),
        )))

    bounds = np.flatnonzero(np.diff(steps.episode_ids, prepend=-1, append=-1))
    starts, lengths = bounds[:-1], np.diff(bounds)
    routed_count = np.add.reduceat(steps.routed.astype(np.intp), starts)
    accepted_count = np.add.reduceat(accepted.astype(np.intp), starts).tolist()
    utility = (np.add.reduceat(steps.final_correct.astype(np.intp), starts) / lengths).tolist()
    calls = (lengths + routed_count).tolist()
    episode_ids, routed_count, bounds = steps.episode_ids[starts].tolist(), routed_count.tolist(), bounds.tolist()
    per_block = max(1, ROW_BLOCK // world.spec.steps_per_episode)
    with open(path, "w", encoding="utf-8") as fh:
        for e0 in range(0, len(episode_ids), per_block):
            e1 = min(e0 + per_block, len(episode_ids))
            lo = bounds[e0]
            lines = step_json(lo, bounds[e1])
            fh.write("".join(
                _EPISODE_JSON % (
                    accepted_count[e], episode_ids[e], float.__repr__(utility[e]), routed_count[e],
                    ", ".join(lines[bounds[e] - lo:bounds[e + 1] - lo]), calls[e],
                )
                for e in range(e0, e1)
            ))


def write_outcome_table(table: OutcomeTable, path: str) -> None:
    """outcome_table.json: the bytes of json.dump(rows, fh, sort_keys=True), one row per example.

    A row holds example_id, baseline_correct, second_correct_by_context
    ("context/version" -> bool) and confidences (context -> second-pass
    confidence rounded to 10 places). Rows are encoded from the table's
    columns a block at a time.
    """
    correct = sorted((f"{ctx}/{ver}", v) for (ctx, ver), v in table.second_correct.items())
    confs = sorted(table.confidences.items())
    row = (
        '{"baseline_correct": %s, "confidences": {'
        + ", ".join(encode_basestring_ascii(k) + ": %s" for k, _ in confs)
        + '}, "example_id": %d, "second_correct_by_context": {'
        + ", ".join(encode_basestring_ascii(k) + ": %s" for k, _ in correct)
        + "}}"
    )
    n = len(table.baseline_correct)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[")
        for lo in range(0, n, ROW_BLOCK):
            hi = min(lo + ROW_BLOCK, n)
            columns = [_json_bools(table.baseline_correct[lo:hi])]
            columns += [_json_rounded(v[lo:hi]) for _, v in confs]
            columns.append(range(lo, hi))
            columns += [_json_bools(v[lo:hi]) for _, v in correct]
            fh.write((", " if lo else "") + ", ".join(map(row.__mod__, zip(*columns))))
        fh.write("]\n")


def write_conf_bins(world: World, test_ids: list, runs: dict, path: str, signal: str, n_bins: int = 10) -> None:
    """Plot-ready binned accuracy: baseline vs gated policy by baseline confidence, runs on test_ids."""
    conf = world.baseline_pass(test_ids, signal)[1]
    bins = confidence_bins(conf, n_bins)
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
class CounterfactualRows:
    """A counterfactual run's routed rows as columns, in ascending query id.

    A row's frozen identity is what its deciding attempt injected in the
    original run: entry_ids[c] for c in columns[r][filled[r]], empty where it
    retrieved nothing. It is a target hit if that identity holds an edited
    entry. Outcomes are 0.0 or 1.0, one column per mode.
    """

    entry_ids: tuple  # the world's entry ids, by pair-table column
    query_id: np.ndarray
    columns: np.ndarray
    filled: np.ndarray
    outcome_original: np.ndarray
    outcome_repair_free: np.ndarray
    outcome_corrupt_free: np.ndarray
    outcome_repair_fixed: np.ndarray
    outcome_corrupt_fixed: np.ndarray
    target_hit: np.ndarray


def run_counterfactual(
    world: World,
    manifest: FreezeManifest,
    policy: PolicyConfig,
    snapshots: dict,
    edits: list,
    n_permutations: int = 10000,
    seed: int = 0,
) -> tuple[CounterfactualRows, dict]:
    """Free-rerun and fixed-retrieval replays of content edits on the test split, with audit.

    Per routed row, free contrast = within-identity content term + retrieval
    drift term, exactly; in fixed mode the drift term is identically zero and
    non-hit rows are bitwise identical across repair/corrupt.
    """
    manifest.validate(world, policy, snapshots)
    _, test_ids = _recover_split(manifest.selection_record, world.spec.n_examples)
    edited_ids = tuple(sorted({e.entry_id for e in edits}))
    for eid in edited_ids:
        kind = world.entry_bank(eid)
        if eid not in world.banks[kind]:
            raise ValueError(f"edit references unknown entry {eid!r}")

    original = evaluate_policy(world, policy, snapshots, test_ids).steps
    columns, filled = frozen = original.deciding_injection()
    if not filled.any():
        raise ProtocolViolation("no routed queries with retrieval; nothing to replay")
    ex, routed = original.example_ids, original.routed
    edited = np.zeros(len(world.entry_ids), bool)
    edited[world.columns(edited_ids)] = True
    hit = (filled & edited[columns]).any(axis=1)

    # Each mode's table is reduced to what the audits and rows read as it
    # finishes. The fixed modes read the original snapshots, so they run
    # before the drifted snapshots of the free reruns replace those
    # retrieval tables.
    fixed = {
        version: _fixed_replay(
            run_steps(world, policy, snapshots, ex, SecondPassContext(version, edited_ids, frozen=original)),
            frozen,
            version,
        )
        for version in ("repair", "corrupt")
    }
    _audit_non_hit(fixed["repair"], fixed["corrupt"], routed & ~hit, ex)
    outcomes = {"original": original.final_correct, **{f"{v}_fixed": final for v, (_, final, *_) in fixed.items()}}
    for version in ("repair", "corrupt"):
        drifted = {}
        for kind, snap in snapshots.items():
            kind_edits = [
                ContentEdit(e.entry_id, e.new_payload, version) for e in edits if world.entry_bank(e.entry_id) == kind
            ]
            drifted[kind] = world.drifted_snapshot(kind, kind_edits) if kind_edits else snap
        free = run_steps(world, policy, drifted, ex, SecondPassContext(version, edited_ids)).final_correct
        outcomes[f"{version}_free"] = free

    rows = CounterfactualRows(
        entry_ids=world.entry_ids,
        query_id=ex[routed],
        columns=columns[routed],
        filled=filled[routed],
        **{f"outcome_{mode}": correct[routed].astype(np.float64) for mode, correct in outcomes.items()},
        target_hit=hit[routed],
    )
    max_audit_error = 0.0
    for version in ("repair", "corrupt"):
        y_free = getattr(rows, f"outcome_{version}_free")
        y_fixed = getattr(rows, f"outcome_{version}_fixed")
        free_contrast = y_free - rows.outcome_original
        content_term = y_fixed - rows.outcome_original
        drift_term = y_free - y_fixed
        err = np.abs(free_contrast - (content_term + drift_term))
        max_audit_error = max(max_audit_error, float(err.max()))
        if err.any():
            r = int(np.flatnonzero(err)[0])
            raise ProtocolViolation(
                f"decomposition identity violated on query {rows.query_id[r]} ({version}): "
                f"free={free_contrast[r]} content={content_term[r]} drift={drift_term[r]}"
            )

    diffs = rows.outcome_repair_fixed - rows.outcome_corrupt_fixed
    hit_diffs, non_hit_diffs = diffs[rows.target_hit], diffs[~rows.target_hit]
    interaction_p = None
    if hit_diffs.size and non_hit_diffs.size:
        interaction_p = randomization_interaction_test(
            hit_diffs, non_hit_diffs, n_permutations=n_permutations, seed=seed
        )

    audit = {
        "n_rows": len(rows.query_id),
        "n_hit": len(hit_diffs),
        # routed rows that retrieved an identity and hit no edit; non_hit_diffs also holds those that retrieved none
        "n_non_hit": int((rows.filled.any(axis=1) & ~rows.target_hit).sum()),
        "decomposition_max_abs_error": max_audit_error,
        "fixed_replay_identity_ok": True,
        "non_hit_bitwise_identical": True,
        "hit_dacc_fixed": float(hit_diffs.mean()) if hit_diffs.size else None,
        "non_hit_dacc_fixed": float(non_hit_diffs.mean()) if non_hit_diffs.size else None,
        "interaction_p": interaction_p,
    }
    return rows, audit


def _left_packed(columns: np.ndarray, filled: np.ndarray, width: int) -> np.ndarray:
    """Each row's injected columns in order, then -1 up to width."""
    out = np.full((len(filled), width), -1, np.intp)
    out[np.arange(width) < filled.sum(axis=1)[:, None]] = columns[filled]
    return out


def _fixed_replay(steps: StepTable, frozen: tuple, version: str) -> tuple:
    """Check that every routed step of a fixed-mode run replayed its frozen identity
    (the original's deciding injection) exactly; return what the non-hit audit
    compares: routed, final_correct, the deciding pass's (decoded, correct,
    confidence), and accepted."""
    replayed = steps.deciding_injection()
    width = max(frozen[1].shape[1], replayed[1].shape[1])
    want, got = _left_packed(*frozen, width), _left_packed(*replayed, width)
    bad = np.flatnonzero(steps.routed & (want != got).any(axis=1))
    if bad.size:
        s = int(bad[0])
        entry_ids = steps.world.entry_ids
        names = [tuple(entry_ids[c] for c in row if c >= 0) for row in (got[s].tolist(), want[s].tolist())]
        raise ProtocolViolation(
            f"fixed replay of query {steps.example_ids[s]} ({version}) injected {names[0]}, frozen was {names[1]}"
        )
    return (steps.routed, steps.final_correct, *steps.deciding_pass(), steps.accepted)


def _audit_non_hit(repair: tuple, corrupt: tuple, non_hit: np.ndarray, ex: np.ndarray) -> None:
    """Non-hit rows are bitwise identical across the repair and corrupt fixed
    replays (actions, confidences, acceptance, not just outcomes)."""
    (routed_a, final_a, ran_a, ok_a, conf_a, acc_a), (routed_b, final_b, ran_b, ok_b, conf_b, acc_b) = repair, corrupt
    same = (routed_a == routed_b) & (
        ~routed_a
        | (
            (final_a == final_b)
            & (ran_a == ran_b)
            & (~ran_a | ((ok_a == ok_b) & (conf_a == conf_b)))
            & (acc_a == acc_b)
        )
    )
    bad = np.flatnonzero(non_hit & ~same)
    if bad.size:
        raise ProtocolViolation(f"non-hit row {ex[bad[0]]} differs across repair/corrupt under fixed retrieval")


_COUNTERFACTUAL_JSON = (
    '{"frozen_identity": [%s], "outcome_corrupt_fixed": %s, "outcome_corrupt_free": %s, "outcome_original": %s, '
    '"outcome_repair_fixed": %s, "outcome_repair_free": %s, "query_id": %d, "routed": true, "target_hit": %s}\n'
)


def write_counterfactual_rows(rows: CounterfactualRows, path: str) -> None:
    """One JSON line per routed row, its fields in sorted order (format in README), a block of rows at a time."""
    quoted_ids = [encode_basestring_ascii(e) for e in rows.entry_ids]
    outcomes = (
        rows.outcome_corrupt_fixed, rows.outcome_corrupt_free, rows.outcome_original,
        rows.outcome_repair_fixed, rows.outcome_repair_free,
    )
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, len(rows.query_id), ROW_BLOCK):
            hi = lo + ROW_BLOCK
            fh.write("".join(map(_COUNTERFACTUAL_JSON.__mod__, zip(
                _joined_ids(quoted_ids, rows.columns[lo:hi], rows.filled[lo:hi]),
                *(map(float.__repr__, v[lo:hi].tolist()) for v in outcomes),
                rows.query_id[lo:hi].tolist(),
                _json_bools(rows.target_hit[lo:hi]),
            ))))


# ---------------------------------------------------------------------------
# paper-style ledger consistency solver
# ---------------------------------------------------------------------------

def ledger_check(
    n: int, delta_acc: float, help_hurt: int, p: float, rel_tol: float = 0.05
) -> tuple[int, int, float] | None:
    """Search integer (helps, hurts) consistent with a reported ledger row.

    Requires helps - hurts = help_hurt, |delta_acc * n - (helps - hurts)| < 0.5,
    and exact McNemar p within rel_tol relative of the reported p. Returns the
    smallest-hurts solution, or None if the row is inconsistent. A row that
    cannot be a ledger row (n < 1, a non-finite delta_acc, p outside [0, 1])
    is a ValueError.

    At fixed help_hurt >= 1 the exact p never falls as hurts u grow: with
    S ~ Bin(2u + help_hurt, 1/2), one more hurt adds (P(S = u + 1) -
    P(S = u)) / 4 >= 0 to the tail (help_hurt = 0 gives p = 1; < 0 mirrors).
    So the first u at most rel_tol below p, found by bisection, is the only
    candidate; at p = 0 only the smallest u can have p_exact = 0.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not math.isfinite(delta_acc):
        raise ValueError(f"dacc must be a finite number, got {delta_acc}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if abs(delta_acc * n - help_hurt) >= 0.5:
        return None
    lo, hi = max(0, -help_hurt), (n - help_hurt) // 2  # helps = u + help_hurt >= 0 and helps + u <= n
    if lo > hi:
        return None
    if p > 0:
        while lo < hi:
            mid = (lo + hi) // 2
            if (p - mcnemar_exact(mid + help_hurt, mid)) / p <= rel_tol:
                hi = mid
            else:
                lo = mid + 1
    p_exact = mcnemar_exact(lo + help_hurt, lo)
    consistent = p_exact == 0 if p <= 0 else abs(p_exact - p) / p <= rel_tol
    return (lo + help_hurt, lo, p_exact) if consistent else None
