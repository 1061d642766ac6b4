"""Locked fit/test protocol: selection, freezing, ledgers, and counterfactuals.

The fit stage grid-searches candidate policies on the fit split, optionally
runs governance rounds (evaluate, attach evidence, retire), and emits a
freeze manifest hashing the policy, the frozen bank snapshots, the world,
and the split. The frozen stages, test and counterfactual, take only a
world and the manifest: frozen_inputs refuses a world that hashes
differently, reads the policy, the bank membership and the split's
parameters back, cuts the world's banks to that membership, and refuses a
policy, bank or split that hashes differently. The test stage evaluates
the frozen policy against the comparator family on the disjoint test split and emits internally
consistent ledger rows. The counterfactual runner replays edited entries
as repair and corrupt in free-rerun and fixed-retrieval modes and audits
the free = content + drift decomposition row by row at zero tolerance.
With outcomes in {0, 1} that identity holds exactly in floating point
whatever the runs return, so it cannot catch a wrong replay; the
fixed-replay identity audit and the non-hit bitwise audit do.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields, replace
from json.encoder import encode_basestring_ascii
from typing import get_type_hints

import numpy as np

from .bank import STAGE_FIT, STAGE_TEST
from .controller import (
    MULTIBANK_FAMILY,
    PolicyConfig,
    StepTable,
    _check_example_ids,
    run_steps,
    select_threshold_percentile,
)
from .errors import AuditFailure, FreezeMismatch, ProtocolViolation
from .stats import CONF_BINS, N_PERMUTATIONS, bootstrap_ci, confidence_bins, mcnemar_exact, randomization_interaction_test
from .util import parse_value, read_text, stable_digest, write_json
from .worldsim import World, WorldSpec

COMPARATORS = ("retry", "always_retrieve", "fixed_budget")
LEDGER_COMPARISONS = ("policy",) + COMPARATORS + ("oracle",)  # each ledger row pairs one against baseline
FIXED_BUDGET_K = 2  # comparator retrieves up to k=2 per episode, no guards, no rollback
# Confidences lie in [0, 1], so tau = inf routes every step; margin -inf with
# no guards accepts every second pass whose retrieval is non-empty.
ROUTE_AND_ACCEPT_ALL = dict(tau=math.inf, margin_m=-math.inf, guards_enabled=frozenset())
# selection_record entries that the test stage reads back, with their JSON types
RECORD_TYPES = {"policy": dict, "fit_fraction": float, "fit_digest": str, "active_ids": dict, "draw_digest": str}
FIT_FRACTION = 0.5  # share of the examples on the fit side of the split
LEDGER_P_REL_TOL = 0.05  # ledger_check takes an exact p within this relative distance of the reported p
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
            bad = sorted(f"selection_record.{k}" for k, tp in RECORD_TYPES.items() if type(record.get(k)) is not tp)
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
        write_json(path, vars(self))

    @staticmethod
    def load(path: str) -> "FreezeManifest":
        return FreezeManifest.from_json(read_text(path))

    def validate(self, policy: PolicyConfig, snapshots: dict) -> None:
        """Hard failure if the frozen policy or a bank snapshot hashes differently."""
        if policy.config_hash() != self.policy_hash:
            raise FreezeMismatch("policy config hash does not match the freeze manifest")
        missing = sorted(set(self.bank_hashes) - set(snapshots))
        extra = sorted(set(snapshots) - set(self.bank_hashes))
        if missing or extra:
            raise FreezeMismatch(
                f"bank kinds do not match the freeze manifest: missing {missing}, extra {extra}"
            )
        for kind, snap in snapshots.items():
            if self.bank_hashes[kind] != snap.content_hash:
                raise FreezeMismatch(f"{kind} bank content hash does not match the freeze manifest")


def split_indices(n: int, fit_fraction: float = FIT_FRACTION) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint, exhaustive, non-empty fit/test sides as sorted np.intp arrays, from a permutation drawn at seed 0."""
    if not (0.0 < fit_fraction < 1.0):
        raise ValueError("fit_fraction must be in (0, 1)")
    perm = np.random.default_rng(0).permutation(n).astype(np.intp, copy=False)
    n_fit = max(1, int(round(n * fit_fraction)))
    if n_fit >= n:
        side = "fit" if n < 1 else "test"
        raise ValueError(f"n={n} examples at fit_fraction={fit_fraction} leave the {side} split empty")
    return np.sort(perm[:n_fit]), np.sort(perm[n_fit:])


# ---------------------------------------------------------------------------
# policy evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairedCounts:
    """A run against the baseline on the same examples, as much as a ledger row reads: n,
    helps (run right, baseline wrong), hurts (the reverse), and how many examples the run routed
    and accepted. Every rate is one division of these integers. A routed example costs one extra
    call, and the baseline makes one call per example."""

    n: int
    helps: int
    hurts: int
    routed: int
    accepted: int

    @property
    def delta_acc(self) -> float:
        return (self.helps - self.hurts) / self.n

    @property
    def routed_frac(self) -> float:
        return self.routed / self.n

    @property
    def accepted_frac(self) -> float:
        return self.accepted / self.n

    @property
    def mean_calls(self) -> float:
        return (self.n + self.routed) / self.n

    @staticmethod
    def of(base, correct, routed, accepted) -> "PairedCounts":
        """The counts of a run from index-aligned masks: baseline correctness, the run's
        correctness, and which examples it routed and accepted."""
        masks = [np.asarray(x, bool) for x in (base, correct, routed, accepted)]
        if masks[0].ndim != 1 or any(m.shape != masks[0].shape for m in masks):
            raise ValueError("outcome vectors must be 1-d and equal length")
        base, correct, routed, accepted = masks
        return PairedCounts(
            len(base), int(np.sum(~base & correct)), int(np.sum(base & ~correct)), int(routed.sum()), int(accepted.sum())
        )

    @staticmethod
    def pool(parts: list) -> "PairedCounts":
        """The counts over all parts' examples: each field summed, so a pooled rate is the rate
        of one run over every part's examples."""
        return PairedCounts(*(sum(getattr(p, f.name) for p in parts) for f in fields(PairedCounts)))


def _run_counts(steps: StepTable) -> PairedCounts:
    """A run's counts against the baseline first pass of its own steps."""
    return PairedCounts.of(steps.baseline_correct, steps.final_correct, steps.routed, steps.accepted)


def evaluate_policy(
    world: World,
    policy: PolicyConfig,
    snapshots: dict,
    example_ids,
    comparator: str | None = None,
) -> StepTable:
    """Run one policy (or a comparator variant of it) over the given examples."""
    version = "original"
    if comparator == "retry":
        version = "none"  # a second pass without memory
    elif comparator == "always_retrieve":
        policy = replace(policy, **ROUTE_AND_ACCEPT_ALL, budget_B=None, cooldown=0)
    elif comparator == "fixed_budget":
        policy = replace(policy, **ROUTE_AND_ACCEPT_ALL, budget_B=FIXED_BUDGET_K, cooldown=0)
    elif comparator is not None:
        raise ValueError(f"unknown comparator {comparator!r}")
    return run_steps(world, policy, snapshots, example_ids, version)


def evaluate_oracle(world: World, snapshots: dict, example_ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The paired upper bound: commit a candidate second pass only where it beats the baseline.

    Returns (correct, routed, accepted) per example of example_ids: an
    example routes if any oracle context injects something, and accepts if
    its baseline is wrong and one such context's pass is right. Equal
    utility keeps the baseline; with ground truth this is the pointwise
    maximizer over keep/commit per example, so no implementable policy over
    the same candidate set can beat it.
    """
    rows = np.asarray(example_ids, np.intp)
    _check_example_ids(rows, world.spec.n_examples)
    base, _ = world.baseline_pass(rows)
    routed, wins = np.zeros(len(rows), bool), np.zeros(len(rows), bool)
    for injects, correct, _ in world.decode_contexts(rows, snapshots).values():
        routed |= injects
        wins |= injects & correct
    accepted = ~base & wins
    return base | accepted, routed, accepted


# ---------------------------------------------------------------------------
# fit stage
# ---------------------------------------------------------------------------

def attach_evidence(world: World, banks: dict, steps: StepTable) -> None:
    """Attribute each routed intervention's paired utility to every retrieved entry.

    Each entry's utilities go to its bank in one append, entries in
    pair-table column order.
    """
    utility = steps.second_correct.astype(np.float64) - steps.baseline_correct[:, None]
    cells = steps.tried[:, :, None] & steps.filled
    columns, gains = steps.columns[cells], utility[np.nonzero(cells)[:2]]
    order = np.argsort(columns, kind="stable")
    columns, gains = columns[order], gains[order]
    starts = np.flatnonzero(np.diff(columns, prepend=-1))
    for column, part in zip(columns[starts].tolist(), np.split(gains, starts[1:])):
        entry_id = world.entry_ids[column]
        banks[world.entry_bank(entry_id)].append_evidence(entry_id, part)


@dataclass
class GovernanceRound:
    fit_accuracy: float
    retired_ids: list
    snapshots: dict


def run_governance_loop(world: World, policy: PolicyConfig, rounds: int, fit_ids) -> tuple[list, int]:
    """Evaluate / attach evidence / retire, for a fixed number of rounds.

    Each round freezes the working banks, evaluates the policy on them,
    attaches the paired utilities as evidence and retires by
    retirement_sweep at its default delta, so the sweep after round i
    shapes round i+1. Returns the GovernanceRounds in order and the
    selected round's index: the highest fit accuracy, the earliest on a
    tie. Works on bank copies; the caller applies the selected round's
    membership. The loop reads no baseline or oracle accuracy:
    run_governance_stage, which reports gap-close, computes them.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    for bank in world.banks.values():
        if bank.stage != STAGE_FIT:
            raise ProtocolViolation("governance is a fit-stage operation")
    working = {kind: bank.copy() for kind, bank in world.banks.items()}
    history = []
    for _ in range(rounds):
        snaps = {k: b.freeze() for k, b in working.items()}
        steps = evaluate_policy(world, policy, snaps, fit_ids)
        attach_evidence(world, working, steps)
        retired = [i for bank in working.values() for i in bank.retirement_sweep()]
        history.append(GovernanceRound(float(steps.final_correct.mean()), sorted(retired), snaps))
    selected = max(range(rounds), key=lambda i: (history[i].fit_accuracy, -i))
    return history, selected


def _fit_policies(world: World, fit_ids: np.ndarray, grid: list) -> dict:
    """Each distinct policy the grid's flat combos yield -> its first grid index, in grid order.

    A tau_percentile combo takes as tau that nearest-rank percentile of the
    fit confidences: the grid reads them once, and resolves each distinct
    percentile once. A multibank_best combo yields one policy per
    MULTIBANK_FAMILY member, in family order.
    """
    confidences = world.baseline_pass(fit_ids)[1] if any("tau_percentile" in c for c in grid) else None
    taus: dict[float, float] = {}
    first: dict[PolicyConfig, int] = {}
    for gi, combo in enumerate(grid):
        combo = dict(combo)
        pct = combo.pop("tau_percentile", None)
        if pct is not None and "tau" in combo:
            raise ValueError("grid sets both tau and tau_percentile; tau_percentile chooses tau, so set one of them")
        policy = PolicyConfig.from_flat(combo)
        if pct is not None:
            pct = parse_value("tau_percentile", float, pct)
            if pct not in taus:
                taus[pct] = select_threshold_percentile(confidences, pct)
            policy = replace(policy, tau=taus[pct])
        for m in MULTIBANK_FAMILY if policy.bank_policy == "multibank_best" else (policy.bank_policy,):
            first.setdefault(replace(policy, bank_policy=m), gi)
    return first


def run_fit_stage(
    world: World, grid: list, fit_fraction: float = FIT_FRACTION, governance_rounds: int = 0
) -> tuple[FreezeManifest, PolicyConfig, dict]:
    """Grid-search the grid's policies on fit data only; freeze the winner.

    The grid is a list of flat PolicyConfig combos, each of which may set
    tau_percentile in place of tau; _fit_policies turns them into policies
    on the fit side drawn here. The split is split_indices(n, fit_fraction),
    recorded by fit_fraction and the fit side's digest: given n, the test
    side is the rest. Selection is by fit delta-accuracy, ties broken by
    lower mean calls then grid order; every policy runs on the same fit
    ids, so these compare as the counts hurts - helps and routed. Each
    distinct policy runs once, at its first grid index: a repeat would
    give the same counts later in grid order, so it could never win.
    """
    fit_ids = split_indices(world.spec.n_examples, fit_fraction)[0]
    if not grid:
        raise ValueError("empty candidate grid")
    if governance_rounds < 0:
        raise ValueError(f"governance_rounds must be >= 0, got {governance_rounds}")
    first = _fit_policies(world, fit_ids, grid)

    snapshots = world.snapshots()
    scored = [(_run_counts(evaluate_policy(world, cand, snapshots, fit_ids)), cand, gi) for cand, gi in first.items()]
    counts, policy, grid_index = min(scored, key=lambda t: (t[0].hurts - t[0].helps, t[0].routed))

    governance_iteration = None
    if governance_rounds >= 1:
        history, governance_iteration = run_governance_loop(world, policy, governance_rounds, fit_ids)
        snapshots = history[governance_iteration].snapshots
        for kind, snap in snapshots.items():
            world.banks[kind].retain(snap.entry_ids)

    record = {
        "grid_index": grid_index,
        "fit_delta_acc": counts.delta_acc,
        "mean_calls": counts.mean_calls,
        "governance_iteration": governance_iteration,
        "fit_fraction": fit_fraction,
        "fit_digest": stable_digest(fit_ids.tolist()),
        "active_ids": {k: list(s.entry_ids) for k, s in snapshots.items()},
        "policy": policy.to_flat(),
        "draw_digest": world.draw_digest(),
    }
    manifest = FreezeManifest(
        policy_hash=policy.config_hash(),
        bank_hashes={k: s.content_hash for k, s in snapshots.items()},
        world_hash=world.spec.world_hash(),
        selection_record=record,
    )
    return manifest, policy, snapshots


def run_governance_stage(world: World, policy: PolicyConfig, rounds: int) -> dict:
    """governance.json's payload: the loop on the fit split, its baseline and oracle accuracy, and each
    round's gap_close, the fraction of the baseline-to-oracle gap it recovers (None when oracle equals baseline)."""
    fit_ids = split_indices(world.spec.n_examples)[0]
    # the unchanged banks hash as round 0's freeze, so that round reuses the oracle's retrieval tables
    acc_oracle = float(evaluate_oracle(world, world.snapshots(), fit_ids)[0].mean())
    acc_base = float(world.baseline_pass(fit_ids)[0].mean())
    history, selected = run_governance_loop(world, policy, rounds, fit_ids)
    return {
        "selected_iteration": selected,
        "baseline_accuracy": acc_base,
        "oracle_accuracy": acc_oracle,
        "rounds": [
            {
                "index": i,
                "fit_accuracy": r.fit_accuracy,
                "gap_close": None if acc_oracle == acc_base else (r.fit_accuracy - acc_base) / (acc_oracle - acc_base),
                "retired_ids": r.retired_ids,
                "bank_hashes": {k: s.content_hash for k, s in r.snapshots.items()},
            }
            for i, r in enumerate(history)
        ],
    }


# ---------------------------------------------------------------------------
# test stage
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LedgerRow:
    """A comparison's paired counts against the baseline and the statistics drawn from them:
    every other printed column is a function of the counts."""

    comparison: str
    counts: PairedCounts
    ci_lo: float
    ci_hi: float
    mcnemar_p: float

    @property
    def n(self) -> int:
        return self.counts.n

    @property
    def delta_acc(self) -> float:
        return self.counts.delta_acc

    @property
    def help_hurt(self) -> int:
        return self.counts.helps - self.counts.hurts

    def as_csv(self) -> str:
        c = self.counts
        return ",".join(
            [
                self.comparison,
                str(c.n),
                f"{c.delta_acc:+.6f}",
                f"{self.ci_lo:+.6f}",
                f"{self.ci_hi:+.6f}",
                f"{self.mcnemar_p:.6g}",
                f"{self.help_hurt:+d}",
                f"{c.routed_frac:+.6f}",  # delta_calls: one extra call per routed example
                f"{c.routed_frac:.6f}",
                f"{c.accepted_frac:.6f}",
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
    if not lo <= hi:
        raise ProtocolViolation(f"ledger row {name!r}: CI bounds out of order")
    return LedgerRow(name, counts, lo, hi, mcnemar_exact(helps, hurts))


def _ledger_rows(counts: dict, seed: int) -> list:
    return [make_ledger_row(f"{name} vs baseline", counts[name], seed=seed) for name in LEDGER_COMPARISONS]


def _recorded_test_ids(record: dict, n: int) -> np.ndarray:
    """The test side of the split that the recorded fit_fraction draws from n examples, once the
    fit side's digest is checked against the recorded one. The two sides partition range(n), so
    the fit side fixes the test side."""
    fraction = record["fit_fraction"]
    if not 0.0 < fraction < 1.0:
        raise FreezeMismatch(f"manifest selection_record.fit_fraction must be in (0, 1), got {fraction!r}")
    fit_ids, test_ids = split_indices(n, fraction)
    if stable_digest(fit_ids.tolist()) != record["fit_digest"]:
        raise FreezeMismatch(f"manifest selection_record.fit_digest does not match the fit split "
                             f"that fit_fraction {fraction} draws from {n} examples")
    return test_ids


def frozen_inputs(world: World, manifest: FreezeManifest) -> tuple[PolicyConfig, dict, np.ndarray]:
    """(policy, snapshots, test_ids) that the manifest freezes, for this world.

    The world's hash is checked first, so another world's config is refused
    as such, then its draw digest, so a numpy whose random streams differ
    from fit's is refused. Then the recorded policy is parsed, the banks are
    cut to the recorded membership (_frozen_snapshots), the policy and
    snapshot hashes are checked, and the recorded test split is drawn once
    its fit side's digest is checked.
    """
    record = manifest.selection_record
    if world.spec.world_hash() != manifest.world_hash:
        raise FreezeMismatch("world hash does not match the freeze manifest")
    if world.draw_digest() != record["draw_digest"]:
        raise FreezeMismatch(
            "selection_record.draw_digest does not match: the world's draws differ from fit's "
            "(a numpy whose random streams differ from the one fit ran on?)"
        )
    policy = PolicyConfig.from_flat(record["policy"])
    snapshots = _frozen_snapshots(world, record["active_ids"])
    manifest.validate(policy, snapshots)
    return policy, snapshots, _recorded_test_ids(record, world.spec.n_examples)


def _frozen_snapshots(world: World, active_ids: dict) -> dict:
    """The world's bank snapshots once each bank keeps only its recorded active ids and moves to
    the test stage. Entry ids are deterministic across worlds of the same shape, so a governed
    manifest's pruned membership transfers to sibling-seed worlds. The recorded bank kinds must
    be the world's, and every recorded id an entry of its bank."""
    if sorted(active_ids) != sorted(world.banks):
        raise FreezeMismatch(
            f"manifest selection_record.active_ids names bank kinds {sorted(active_ids)}, "
            f"the world has {sorted(world.banks)}"
        )
    for kind, bank in world.banks.items():
        unknown = sorted({e for e in active_ids[kind] if e not in bank})
        if unknown:
            raise FreezeMismatch(
                f"manifest selection_record.active_ids[{kind!r}] names entries that bank lacks: {unknown}"
            )
    for kind, bank in world.banks.items():
        bank.retain(active_ids[kind])
        bank.stage = STAGE_TEST
    return world.snapshots()


def run_pooled_test(spec: WorldSpec, manifest: FreezeManifest, n_seeds: int, out_dir: str | None = None) -> tuple[list, dict]:
    """Frozen test evaluation pooled over sibling-seed worlds.

    Seed k's world is built from the spec at seed spec.seed + k and keeps the
    manifest's recorded bank membership. frozen_inputs checks the manifest
    against the base world (k = 0) and draws the test split, once; siblings
    take only the recorded membership (_frozen_snapshots), and no selection,
    evidence or retirement sweep runs on them. Each seed reduces every
    comparison to its PairedCounts against the baseline, and the pooled rows
    are computed from those counts added up, so a pooled row is the row of
    one run over every seed's examples.
    One world is alive at a time, and no seed keeps a per-example array: the
    base world's traces and confidence bins are written before any sibling
    is built.
    """
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    per_seed_rows = {}
    counts_by_name: dict[str, list] = {}
    for k in range(n_seeds):
        world = World(replace(spec, seed=spec.seed + k))
        if k == 0:
            policy, snapshots, test_ids = frozen_inputs(world, manifest)
        else:
            snapshots = _frozen_snapshots(world, manifest.selection_record["active_ids"])
        rows, counts = _test_seed(world, policy, snapshots, test_ids, out_dir if k == 0 else None)
        del world, snapshots  # one world is alive at a time
        per_seed_rows[spec.seed + k] = rows
        for name, c in counts.items():
            counts_by_name.setdefault(name, []).append(c)

    pooled_rows = _ledger_rows({name: PairedCounts.pool(cs) for name, cs in counts_by_name.items()}, spec.seed)
    if out_dir is not None:
        write_ledger(pooled_rows, os.path.join(out_dir, "ledger.csv"))
        for seed, rows in per_seed_rows.items():
            write_ledger(rows, os.path.join(out_dir, f"ledger_seed{seed}.csv"))
    return pooled_rows, per_seed_rows


def _test_seed(
    world: World, policy: PolicyConfig, snapshots: dict, test_ids: np.ndarray, out_dir: str | None
) -> tuple[list, dict]:
    """One seed's ledger rows and each comparison's PairedCounts against the baseline, by name.

    Takes the frozen inputs as frozen_inputs returns them, so the manifest
    is checked before out_dir (the base seed's) is created and a refused
    manifest leaves no directory behind. Given out_dir, it writes
    traces.jsonl and conf_bins.csv from the policy's run. The baseline is
    the world's first pass, read once for the oracle; each comparator run is
    its StepTable, which carries the same read, and is reduced to its counts
    before the next one runs.
    """
    # the oracle reads every test row from both banks, so it goes first: its
    # one query draw per row ranks every row that a comparator's run reads
    oracle = evaluate_oracle(world, snapshots, test_ids)
    counts = {"oracle": PairedCounts.of(world.baseline_pass(test_ids)[0], *oracle)}
    for name in ("policy",) + COMPARATORS:
        steps = evaluate_policy(world, policy, snapshots, test_ids, comparator=None if name == "policy" else name)
        counts[name] = _run_counts(steps)
        if name == "policy" and out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            write_traces(steps, os.path.join(out_dir, "traces.jsonl"))
            write_conf_bins(steps, os.path.join(out_dir, "conf_bins.csv"))
        del steps  # its step table goes before the next comparison's is built
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
    injected, filled, _ = steps.deciding_injection()
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
    accepted_count = np.add.reduceat(accepted.astype(np.intp), starts)
    utility = np.add.reduceat(steps.final_correct.astype(np.intp), starts) / lengths
    calls = lengths + routed_count
    episode_ids = steps.episode_ids[starts]
    per_block = max(1, ROW_BLOCK // world.spec.steps_per_episode)
    with open(path, "w", encoding="utf-8") as fh:
        for e0 in range(0, len(episode_ids), per_block):
            e1 = min(e0 + per_block, len(episode_ids))
            ends = (bounds[e0:e1 + 1] - bounds[e0]).tolist()  # the block's episode bounds within its lines
            lines = step_json(bounds[e0], bounds[e1])
            fh.write("".join(map(_EPISODE_JSON.__mod__, zip(
                accepted_count[e0:e1].tolist(),
                episode_ids[e0:e1].tolist(),
                map(float.__repr__, utility[e0:e1].tolist()),
                routed_count[e0:e1].tolist(),
                [", ".join(lines[lo:hi]) for lo, hi in zip(ends[:-1], ends[1:])],
                calls[e0:e1].tolist(),
            ))))


def write_outcome_table(baseline: tuple, passes: dict, path: str) -> None:
    """outcome_table.json: the bytes of json.dump(rows, fh, sort_keys=True), one row per example.

    baseline is (correct, confidence) per example, as World.baseline_pass
    returns them, and passes maps context -> (injects, correct, confidence),
    as World.decode_contexts returns them. A row holds example_id,
    baseline_correct, baseline_confidence, and three maps keyed by context:
    injects, second_correct and confidences. Confidences are rounded to 10
    places. Rows are encoded from these columns a block at a time.
    """
    contexts = sorted(passes)
    by_context = ", ".join(encode_basestring_ascii(c) + ": %s" for c in contexts)
    row = (
        '{"baseline_confidence": %s, "baseline_correct": %s, "confidences": {' + by_context
        + '}, "example_id": %d, "injects": {' + by_context
        + '}, "second_correct": {' + by_context + "}}"
    )
    correct, confidence = baseline
    n = len(correct)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[")
        for lo in range(0, n, ROW_BLOCK):
            hi = min(lo + ROW_BLOCK, n)
            columns = [_json_rounded(confidence[lo:hi]), _json_bools(correct[lo:hi])]
            columns += [_json_rounded(passes[c][2][lo:hi]) for c in contexts]
            columns.append(range(lo, hi))
            columns += [_json_bools(passes[c][k][lo:hi]) for k in (0, 1) for c in contexts]
            fh.write((", " if lo else "") + ", ".join(map(row.__mod__, zip(*columns))))
        fh.write("]\n")


def write_conf_bins(steps: StepTable, path: str) -> None:
    """Plot-ready binned accuracy of the policy's run: baseline vs gated policy, by the baseline
    confidence (World.baseline_pass) in CONF_BINS equal-width bins."""
    bins = confidence_bins(steps.baseline_confidence, CONF_BINS)
    final = steps.final_correct
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bin_lo,bin_hi,count,baseline_acc,policy_acc\n")
        for b in range(CONF_BINS):
            mask = bins == b
            cnt = int(mask.sum())
            accs = f"{steps.baseline_correct[mask].mean():.6f},{final[mask].mean():.6f}" if cnt else ","
            fh.write(f"{b/CONF_BINS:.2f},{(b+1)/CONF_BINS:.2f},{cnt},{accs}\n")


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
    edited_ids,
    n_permutations: int = N_PERMUTATIONS,
    seed: int = 0,
) -> tuple[CounterfactualRows, dict]:
    """Free-rerun and fixed-retrieval replays of edited entries on the test split, with audit.

    Each edited entry is replayed as both repair and corrupt. Per routed
    row, free contrast = within-identity content term + retrieval drift
    term, exactly; in fixed mode the drift term is identically zero and
    non-hit rows are bitwise identical across repair/corrupt. The world's
    banks are cut to the manifest's recorded membership.
    """
    policy, snapshots, test_ids = frozen_inputs(world, manifest)
    edited_ids = tuple(sorted(set(edited_ids)))
    for eid in edited_ids:
        kind = world.entry_bank(eid)
        if eid not in world.banks[kind]:
            raise ValueError(f"edit references unknown entry {eid!r}")

    original = evaluate_policy(world, policy, snapshots, test_ids)
    columns, filled, _ = original.deciding_injection()
    if not filled.any():
        raise ProtocolViolation("no routed queries with retrieval; nothing to replay")
    ex, routed = original.example_ids, original.routed
    edited = np.zeros(len(world.entry_ids), bool)
    edited[world.columns(edited_ids)] = True
    hit = (filled & edited[columns]).any(axis=1)

    # Each mode's run is reduced to what the audits and rows read as it
    # finishes. The fixed modes replay the original run's deciding
    # injections and read no retrieval table; only the free reruns rank
    # snapshots, the drifted ones.
    fixed = {
        version: _fixed_replay(
            run_steps(world, policy, snapshots, ex, version, edited_ids, frozen=original),
            (columns, filled),
            version,
        )
        for version in ("repair", "corrupt")
    }
    _audit_non_hit(fixed["repair"], fixed["corrupt"], routed & ~hit, ex)
    outcomes = {"original": original.final_correct, **{f"{v}_fixed": final for v, (_, final, *_) in fixed.items()}}
    for version in ("repair", "corrupt"):
        drifted = {kind: world.drifted_snapshot(kind, version, edited_ids) for kind in snapshots}
        outcomes[f"{version}_free"] = run_steps(world, policy, drifted, ex, version, edited_ids).final_correct

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
            raise AuditFailure(
                f"decomposition identity violated on query {rows.query_id[r]} ({version}): "
                f"free={free_contrast[r]} content={content_term[r]} drift={drift_term[r]}",
                "decomposition_max_abs_error", rows.query_id[r], version,
                float(content_term[r] + drift_term[r]), float(free_contrast[r]),
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


def _fixed_replay(steps: StepTable, frozen: tuple, version: str) -> tuple:
    """Check that every routed step of a fixed-mode run replayed its frozen identity
    (the original's deciding injection) exactly; return what the non-hit audit
    compares: routed, final_correct, the deciding pass's (decoded, correct,
    confidence), and accepted. The replay injects the frozen identity as its
    one attempt, so both sides have one layout and compare slot by slot."""
    replayed = steps.deciding_injection()[:2]
    (columns, filled), (got_columns, got_filled) = frozen, replayed
    bad = np.flatnonzero(steps.routed & ((got_filled != filled) | (filled & (got_columns != columns))).any(axis=1))
    if bad.size:
        s = int(bad[0])
        entry_ids = steps.world.entry_ids
        got, want = (tuple(entry_ids[c] for c in cols[s][fill[s]].tolist()) for cols, fill in (replayed, frozen))
        raise AuditFailure(
            f"fixed replay of query {steps.example_ids[s]} ({version}) injected {got}, frozen was {want}",
            "fixed_replay_identity_ok", steps.example_ids[s], version, list(want), list(got),
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
        s = int(bad[0])
        # the corrupt replay's values against the repair replay's; a pass that did not run has a NaN confidence
        expected, got = (
            {name: None if x[s] != x[s] else x[s].item() for name, x in zip(_REPLAY_FIELDS, run)}
            for run in (repair, corrupt)
        )
        raise AuditFailure(
            f"non-hit row {ex[s]} differs across repair/corrupt under fixed retrieval",
            "non_hit_bitwise_identical", ex[s], "corrupt", expected, got,
        )


# what _fixed_replay returns per step, as _audit_non_hit's failing row names it
_REPLAY_FIELDS = ("routed", "final_correct", "decoded", "second_correct", "confidence", "accepted")


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

def ledger_check(n: int, delta_acc: float, help_hurt: int, p: float) -> tuple[int, int, float] | None:
    """Search integer (helps, hurts) consistent with a reported ledger row.

    Requires helps - hurts = help_hurt, |delta_acc * n - (helps - hurts)| < 0.5,
    and exact McNemar p within LEDGER_P_REL_TOL relative of the reported p. Returns the
    smallest-hurts solution, or None if the row is inconsistent. A row that
    cannot be a ledger row (n < 1, a non-finite delta_acc, p outside [0, 1])
    is a ValueError.

    At fixed help_hurt >= 1 the exact p never falls as hurts u grow: with
    S ~ Bin(2u + help_hurt, 1/2), one more hurt adds (P(S = u + 1) -
    P(S = u)) / 4 >= 0 to the tail (help_hurt = 0 gives p = 1; < 0 mirrors).
    So the first u at most LEDGER_P_REL_TOL below p, found by bisection, is the only
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
            if (p - mcnemar_exact(mid + help_hurt, mid)) / p <= LEDGER_P_REL_TOL:
                hi = mid
            else:
                lo = mid + 1
    p_exact = mcnemar_exact(lo + help_hurt, lo)
    consistent = p_exact == 0 if p <= 0 else abs(p_exact - p) / p <= LEDGER_P_REL_TOL
    return (lo + help_hurt, lo, p_exact) if consistent else None
