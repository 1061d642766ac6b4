"""Shared world shapes and per-query references for the test suite.

reference_retrieve is retrieve() one query at a time; reference_traces is
the control loop one step at a time, with the second pass decoded entry by
entry, as step records; oracle_policy is the paired oracle one step at a
time. The package computes all three in batches, and keeps a run as the
arrays of a StepTable. reference_pair_table draws every pair latent of a
world at once, where the world draws only the cells its retrieval tables
rank, and reference_query_embeddings every query row at once, where the
world keeps none and draws a row again whenever a table ranks it. The
reference_*_text writers build a dict per row and call json on it; the
package encodes the same bytes from columns. reference_counterfactual is the
counterfactual runner over per-step records, with the frozen identities as a
dict keyed by example id. reference_ledger_check tries every hurts count in
turn, where ledger_check bisects. reference_pooled_test keeps every seed's
per-example masks, concatenates them and prints each ledger row's columns
from the paired masks, where the test stage keeps each comparison's paired
counts and prints the row from them.
"""

import functools
import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from gatedmem.bank import BANK_KINDS
from gatedmem.controller import GUARD_NAMES, PolicyConfig, compose_bank_policy
from gatedmem.protocol import (
    COMPARATORS,
    CONTENT_VERSIONS,
    LEDGER_COMPARISONS,
    evaluate_oracle,
    evaluate_policy,
    split_indices,
)
from gatedmem.retrieval import Query, RetrievalResult, embed_rows, topic_vector
from gatedmem.stats import bootstrap_ci, mcnemar_exact, randomization_interaction_test
from gatedmem.util import derive_seed
from gatedmem.worldsim import (
    ORACLE_CONTEXTS,
    PAIR_APPLICABLE,
    PAIR_CORRUPT_BETTER,
    PAIR_HELP,
    PAIR_HURT,
    PAIR_REPAIR_BETTER,
    ConfidenceModel,
    World,
    WorldSpec,
)


def count_query_draws(monkeypatch) -> list:
    """Patch World._query_rows to record the example rows of every block it draws; returns the record."""
    drawn = []
    query_rows = World._query_rows

    def counting(self, rows):
        for block, queries in query_rows(self, rows):
            drawn.append(block.copy())
            yield block, queries

    monkeypatch.setattr(World, "_query_rows", counting)
    return drawn


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


@functools.lru_cache(maxsize=4)
def reference_query_embeddings(spec) -> np.ndarray:
    """(n_examples, embedding_dim) query embeddings of a world's spec, read-only: one eager
    embed_rows call over the world's whole query-embedding stream, with the topics of its topic stream."""
    def stream(purpose):
        return np.random.Generator(np.random.Philox(key=derive_seed(spec.seed, purpose)))

    topics = stream("topic").integers(spec.topic_count, size=spec.n_examples)
    topic_vecs = np.array([topic_vector(t, spec.embedding_dim) for t in range(spec.topic_count)])
    out = embed_rows(stream("query-embedding"), topics, topic_vecs, spec.topic_weight)
    out.flags.writeable = False
    return out


def reference_world_retrieve(world, idx, snapshot) -> RetrievalResult:
    """reference_retrieve for one example of a world, at the world's threshold and k_max."""
    query = Query(idx, reference_query_embeddings(world.spec)[idx])
    return reference_retrieve(query, snapshot, world.spec.retrieval_threshold, world.spec.k_max)


def reference_pair_table(world, block_cells=1 << 13) -> np.ndarray:
    """Every packed pair-latent byte of a world, (n_examples, n_entries) uint8, drawn densely.

    Each pair takes four uniforms from the world's pair stream: applicable,
    help, hurt, sensitivity. A row takes one Philox counter block per entry,
    so a block of rows starts at a fixed counter through a Generator.
    """
    spec = world.spec
    toxic = np.array([e in world.toxic_ids for e in world.entry_ids], bool)
    kinds = [world.entry_bank(e) for e in world.entry_ids]
    rate = np.where(toxic, spec.toxic_applicability, [spec.rate_for(k) for k in kinds])
    hurt = np.where(toxic, spec.toxic_hurt_prob, spec.hurt_prob_given_inapplicable)
    n, m = spec.n_examples, len(world.entry_ids)
    key = derive_seed(spec.seed, "pair")
    sens_repair = spec.edit_sensitive_rate * spec.repair_better_prob
    out = np.zeros((n, m), np.uint8)
    rows = max(1, block_cells // max(1, m))
    for start in range(0, n, rows):
        u = np.random.Generator(np.random.Philox(key=key, counter=start * m)).random((min(rows, n - start), m, 4))
        block = out[start:start + rows]
        block |= (u[..., 0] < rate) * np.uint8(PAIR_APPLICABLE)
        block |= (u[..., 1] < spec.help_prob_given_applicable) * np.uint8(PAIR_HELP)
        block |= (u[..., 2] < hurt) * np.uint8(PAIR_HURT)
        block |= (u[..., 3] < sens_repair) * np.uint8(PAIR_REPAIR_BETTER)
        block |= ((u[..., 3] >= sens_repair) & (u[..., 3] < spec.edit_sensitive_rate)) * np.uint8(PAIR_CORRUPT_BETTER)
    return out


def save_edits(entry_ids, path: str, edit_kind: str = "repair") -> None:
    """An edits file editing each of entry_ids as edit_kind: one JSON object per line, as load_edits reads it."""
    with open(path, "w", encoding="utf-8") as fh:
        for eid in entry_ids:
            edit = {"entry_id": eid, "edit_kind": edit_kind, "new_payload": f"{edit_kind} version of {eid}"}
            fh.write(json.dumps(edit, sort_keys=True) + "\n")


def tampered_policy(manifest, **changes):
    """The manifest with its recorded policy retuned after the freeze, its policy hash left as it was."""
    policy = replace(PolicyConfig.from_flat(manifest.selection_record["policy"]), **changes)
    return replace(manifest, selection_record=dict(manifest.selection_record, policy=policy.to_flat()))


def utility(world, idx, action) -> float:
    return 1.0 if action == world.true_action(idx) else 0.0


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


# ---------------------------------------------------------------------------
# the per-step control loop, as the reference for controller.run_steps
# ---------------------------------------------------------------------------


@dataclass
class AttemptRecord:
    banks: tuple[str, ...]
    retrieved: tuple[str, ...] | None  # the injected ids, if the attempt carries a retrieval result
    second_action: object  # None if no second pass ran
    second_confidence: float | None
    accepted: bool


@dataclass
class StepRecord:
    step_index: int
    example_id: int
    baseline_action: object
    baseline_confidence: float
    routed: bool
    retrieved: tuple[str, ...] | None
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


class BudgetState:
    """Per-episode routed-count cap and post-route cooldown."""

    def __init__(self, budget_B, cooldown):
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


def accept_decision(c_t, c2_t, margin_m, guard_results, guards_enabled) -> bool:
    """Margin check and guard conjunction; disabled/absent guards count as pass."""
    if c2_t is None:
        raise ValueError("second-pass confidence is missing")
    if c2_t < c_t + margin_m:
        return False
    return all(guard_results.get(guard, True) for guard in guards_enabled)


def reference_baseline(world, idx):
    """(action, confidence) of one baseline decode, read off the world's draws."""
    return world.answer(idx, bool(world._baseline[idx]), second=False), world._confidence.item(idx, 0)


def reference_second(world, idx, injected, version="original", edited_ids=()):
    """(action, confidence) of one second pass, decoded entry by entry from the pair bits."""
    if not injected:
        return reference_baseline(world, idx)
    bits = world._pair_bytes(idx, world.columns(injected)).tolist()
    base = bool(world._baseline[idx])
    applicable = [k for k, b in enumerate(bits) if b & PAIR_APPLICABLE]
    if applicable:
        correct = base or bool(bits[applicable[0]] & PAIR_HELP)
    else:
        correct = base and not bits[0] & PAIR_HURT
    if version in ("repair", "corrupt") and edited_ids:
        edited = set(edited_ids)
        hit = next((b for e, b in zip(injected, bits) if e in edited), 0)
        if hit & PAIR_REPAIR_BETTER:
            correct = version == "repair"
        elif hit & PAIR_CORRUPT_BETTER:
            correct = version == "corrupt"
    deciding = injected[applicable[0] if applicable else 0]
    column = 1 + 2 * BANK_KINDS.index(world.entry_bank(deciding)) + correct
    action = world.true_action(idx) if correct else f"alt{idx}.m"
    return action, world._confidence.item(idx, column)


def reference_step(
    world, example_id, step_index, policy, snapshots, budget_state, version="original", edited_ids=(), frozen_map=None
):
    """One pass of the decision loop for one step under a content version (`none`: no memory);
    a frozen_map (example id -> ids) replays fixed retrieval."""
    action, conf = reference_baseline(world, example_id)
    routed = route_decision(conf, policy.tau) and budget_state.can_route()
    budget_state.step_end(routed)
    if not routed:
        return StepRecord(step_index, example_id, action, conf, False, None, None, None, {}, False, action, 1)

    guard_results = dict(zip(GUARD_NAMES, world._guards[example_id].tolist()))
    attempts = []
    decisive = None
    no_memory = version == "none"
    plan = [("frozen",)] if frozen_map is not None else compose_bank_policy(policy)
    for banks in plan:
        if no_memory:
            ids, result = (), None
        elif frozen_map is not None:  # an empty frozen injection still carries a result
            ids = result = tuple(frozen_map.get(example_id, ()))
        else:
            ids = reference_injection(world, example_id, banks, snapshots)
            result = ids or None
        if not ids and not no_memory:
            decisive = AttemptRecord(banks, result, None, None, False)
            attempts.append(decisive)
            continue
        a2, c2 = reference_second(world, example_id, ids, version, edited_ids)
        ok = accept_decision(conf, c2, policy.margin_m, guard_results, policy.guards_enabled)
        decisive = AttemptRecord(banks, result, a2, c2, ok)
        attempts.append(decisive)
        if ok:
            break

    accepted = decisive.accepted
    return StepRecord(
        step_index=step_index,
        example_id=example_id,
        baseline_action=action,
        baseline_confidence=conf,
        routed=True,
        retrieved=decisive.retrieved,
        second_action=decisive.second_action,
        second_confidence=decisive.second_confidence,
        guard_results=guard_results,
        accepted=accepted,
        final_action=decisive.second_action if accepted else action,
        calls_used=2,
        attempts=tuple(attempts),
    )


def reference_episodes(world, example_ids):
    """(episode id, members) of the world's episodes that hold any of example_ids, members ascending."""
    spe = world.spec.steps_per_episode
    wanted = set(example_ids)
    out = []
    for eid, start in enumerate(range(0, world.spec.n_examples, spe)):
        kept = [i for i in range(start, min(start + spe, world.spec.n_examples)) if i in wanted]
        if kept:
            out.append((eid, kept))
    return out


def reference_traces(world, policy, snapshots, example_ids, version="original", edited_ids=(), frozen_map=None):
    """EpisodeTrace records of the per-step loop over example_ids."""
    traces = []
    for eid, members in reference_episodes(world, example_ids):
        budget = BudgetState(policy.budget_B, policy.cooldown)
        steps = [
            reference_step(world, ex, i, policy, snapshots, budget, version, edited_ids, frozen_map)
            for i, ex in enumerate(members)
        ]
        traces.append(
            EpisodeTrace(
                eid,
                steps,
                sum(utility(world, s.example_id, s.final_action) for s in steps) / len(steps),
                sum(1 for s in steps if s.routed),
                sum(1 for s in steps if s.accepted),
                sum(s.calls_used for s in steps),
            )
        )
    return traces


def reference_outcome_table(world, idx, snapshots):
    """(second correct by (context, version), confidence by context) of one example, as gen-world wrote it."""
    by_context, confs = {}, {}
    for context in ("none",) + ORACLE_CONTEXTS:
        injected = reference_injection(world, idx, CONTEXT_BANKS[context], snapshots)
        for version in CONTENT_VERSIONS:
            action, _ = reference_second(world, idx, injected, version)
            by_context[(context, version)] = action == world.true_action(idx)
        confs[context] = reference_second(world, idx, injected)[1]
    return by_context, confs


# bank-policy context -> the banks it retrieves from, in injection order
CONTEXT_BANKS = {"none": (), "rule": ("rule",), "exemplar": ("exemplar",), "dual": ("rule", "exemplar")}


def reference_injection(world, idx, banks, snapshots):
    """Retrieved ids that retrieving from `banks` in order injects for one example."""
    return tuple(e for b in banks for e in reference_world_retrieve(world, idx, snapshots[b]).retrieved_ids)


@dataclass(frozen=True)
class OracleStep:
    """Ground-truth view of one step: baseline utility plus every candidate."""

    example_id: int
    baseline_action: object
    baseline_utility: float
    baseline_confidence: float
    candidates: tuple  # of (action, utility)


def reference_oracle_steps(world, example_ids, snapshots, contexts=ORACLE_CONTEXTS):
    """The oracle's candidates, decoded one example and context at a time."""
    steps = []
    for idx in example_ids:
        base_action, base_conf = reference_baseline(world, idx)
        candidates = []
        for context in contexts:
            injected = reference_injection(world, idx, CONTEXT_BANKS[context], snapshots)
            if injected:
                a2, _ = reference_second(world, idx, injected)
                candidates.append((a2, utility(world, idx, a2)))
        steps.append(OracleStep(idx, base_action, utility(world, idx, base_action), base_conf, tuple(candidates)))
    return steps


def oracle_policy(episode_id, oracle_steps) -> EpisodeTrace:
    """Paired upper bound, one step at a time: commit a candidate only on strict utility gain.

    Equal utility keeps the baseline; with ground truth this is the pointwise
    maximizer over keep/commit per step, so no implementable policy over the
    same candidate set can beat it.
    """
    steps = []
    total_u = 0.0
    for i, ostep in enumerate(oracle_steps):
        best_action, best_u = None, ostep.baseline_utility
        for action, u in ostep.candidates:
            if u > best_u:
                best_action, best_u = action, u
        accepted = best_action is not None
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
                final_action=best_action if accepted else ostep.baseline_action,
                calls_used=2 if routed else 1,
            )
        )
        total_u += best_u
    return EpisodeTrace(
        episode_id=episode_id,
        steps=steps,
        outcome_utility=total_u / max(len(steps), 1),
        routed_count=sum(1 for s in steps if s.routed),
        accepted_count=sum(1 for s in steps if s.accepted),
        total_calls=sum(s.calls_used for s in steps),
    )


@dataclass(frozen=True)
class ReferenceEvidence:
    """One paired-utility observation of one retrieved entry."""

    entry_id: str
    utility: float


def reference_attach_evidence(world, traces):
    """protocol.attach_evidence's observations, one record per retrieved entry, read off step records."""
    records = []
    for trace in traces:
        for step in trace.steps:
            if not step.routed:
                continue
            base_u = utility(world, step.example_id, step.baseline_action)
            for attempt in step.attempts:
                if not attempt.retrieved:
                    continue
                gain = utility(world, step.example_id, attempt.second_action) - base_u
                records += [ReferenceEvidence(entry_id, gain) for entry_id in attempt.retrieved]
    return records


def reference_freeze_identities(traces):
    """query id -> retrieved ids of every routed step that carries a retrieval."""
    return {
        s.example_id: s.retrieved
        for t in traces
        for s in t.steps
        if s.routed and s.retrieved is not None
    }


def reference_trace_lines(traces) -> list[str]:
    """traces.jsonl as README documents it, one line per episode of step records."""
    def step_json(step):
        return {
            "step_index": step.step_index,
            "example_id": step.example_id,
            "baseline_action": step.baseline_action,
            "baseline_confidence": round(step.baseline_confidence, 10),
            "routed": step.routed,
            "retrieved_ids": list(step.retrieved or ()),
            "second_action": step.second_action,
            "second_confidence": None if step.second_confidence is None else round(step.second_confidence, 10),
            "accepted": step.accepted,
            "final_action": step.final_action,
            "calls_used": step.calls_used,
        }

    return [
        json.dumps(
            {
                "episode_id": t.episode_id,
                "outcome_utility": t.outcome_utility,
                "routed_count": t.routed_count,
                "accepted_count": t.accepted_count,
                "total_calls": t.total_calls,
                "steps": [step_json(s) for s in t.steps],
            },
            sort_keys=True,
        )
        for t in traces
    ]


# ---------------------------------------------------------------------------
# per-row files as a dict per row and a json call, the references for the
# package's column encoders
# ---------------------------------------------------------------------------


def reference_outcome_table_text(baseline_correct, passes) -> str:
    """outcome_table.json: json.dump of a row dict per example, sort_keys=True.

    passes maps context -> (injects, correct, confidence), as decode_contexts returns them; a
    context's correctness is listed under every content version.
    """
    correct = {f"{ctx}/{ver}": p[1].tolist() for ctx, p in passes.items() for ver in CONTENT_VERSIONS}
    confs = {ctx: p[2].tolist() for ctx, p in passes.items()}
    rows = [
        {
            "example_id": i,
            "baseline_correct": base,
            "second_correct_by_context": {k: v[i] for k, v in correct.items()},
            "confidences": {k: round(v[i], 10) for k, v in confs.items()},
        }
        for i, base in enumerate(baseline_correct.tolist())
    ]
    return json.dumps(rows, sort_keys=True) + "\n"


def reference_traces_text(steps) -> str:
    """traces.jsonl from a StepTable: a dict per step and per episode, json.dumps per episode."""
    world = steps.world
    columns, filled, _ = steps.deciding_injection()
    ran, correct, confidence = (x.tolist() for x in steps.deciding_pass())
    routed, accepted = steps.routed.tolist(), steps.accepted.tolist()
    base_conf = steps.baseline_confidence.tolist()
    final = steps.final_correct.tolist()
    records = []
    for s, idx in enumerate(steps.example_ids.tolist()):
        base = world.answer(idx, bool(steps.baseline_correct[s]), second=False)
        second = world.answer(idx, correct[s], second=True) if ran[s] else None
        records.append(
            {
                "step_index": int(steps.step_index[s]),
                "example_id": idx,
                "baseline_action": base,
                "baseline_confidence": round(base_conf[s], 10),
                "routed": routed[s],
                "retrieved_ids": [world.entry_ids[c] for c in columns[s][filled[s]].tolist()],
                "second_action": second,
                "second_confidence": round(confidence[s], 10) if ran[s] else None,
                "accepted": accepted[s],
                "final_action": second if accepted[s] else base,
                "calls_used": 2 if routed[s] else 1,
            }
        )
    bounds = np.flatnonzero(np.diff(steps.episode_ids, prepend=-1, append=-1)).tolist()
    lines = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        n_routed = sum(routed[lo:hi])
        episode = {
            "episode_id": int(steps.episode_ids[lo]),
            "outcome_utility": sum(final[lo:hi]) / (hi - lo),
            "routed_count": n_routed,
            "accepted_count": sum(accepted[lo:hi]),
            "total_calls": hi - lo + n_routed,
            "steps": records[lo:hi],
        }
        lines.append(json.dumps(episode, sort_keys=True) + "\n")
    return "".join(lines)


def reference_conf_bins_text(world, policy, snapshots, test_ids, n_bins=10) -> str:
    """conf_bins.csv from the per-step loop: each test example binned one at a time by its baseline
    confidence, and each bin's accuracies summed over its examples' utilities."""
    bins = [[] for _ in range(n_bins)]
    for trace in reference_traces(world, policy, snapshots, test_ids):
        for s in trace.steps:
            b = min(int(s.baseline_confidence * n_bins), n_bins - 1)
            bins[b].append((utility(world, s.example_id, s.baseline_action), utility(world, s.example_id, s.final_action)))
    lines = ["bin_lo,bin_hi,count,baseline_acc,policy_acc\n"]
    for b, members in enumerate(bins):
        bounds = f"{b / n_bins:.2f},{(b + 1) / n_bins:.2f}"
        if not members:
            lines.append(f"{bounds},0,,\n")
            continue
        base, final = (sum(m[k] for m in members) / len(members) for k in (0, 1))
        lines.append(f"{bounds},{len(members)},{base:.6f},{final:.6f}\n")
    return "".join(lines)


def reference_counterfactual_rows_text(rows) -> str:
    """counterfactual_rows.jsonl from CounterfactualRows: a dict per row, json.dumps(row, sort_keys=True)."""
    lines = []
    for r, qid in enumerate(rows.query_id.tolist()):
        row = {
            "query_id": qid,
            "routed": True,
            "frozen_identity": [rows.entry_ids[c] for c in rows.columns[r][rows.filled[r]].tolist()],
            "target_hit": bool(rows.target_hit[r]),
        }
        for field in COUNTERFACTUAL_OUTCOMES:
            row[field] = float(getattr(rows, field)[r])
        lines.append(json.dumps(row, sort_keys=True) + "\n")
    return "".join(lines)


COUNTERFACTUAL_OUTCOMES = (
    "outcome_original", "outcome_repair_free", "outcome_corrupt_free", "outcome_repair_fixed", "outcome_corrupt_fixed",
)


def reference_counterfactual(world, policy, snapshots, test_ids, edited_ids, n_permutations=10000, seed=0):
    """(counterfactual_rows.jsonl text, audit) of protocol.run_counterfactual, from the per-step loop.

    The original run's frozen identities are reference_freeze_identities of
    its step records; each free rerun retrieves from drifted snapshots, and
    each fixed replay looks its injection up by example id in that dict.
    """
    edited = tuple(sorted(set(edited_ids)))
    traces = reference_traces(world, policy, snapshots, test_ids)
    original = [s for t in traces for s in t.steps]
    frozen = reference_freeze_identities(traces)
    outcomes = {"outcome_original": {s.example_id: utility(world, s.example_id, s.final_action) for s in original}}
    for version in ("repair", "corrupt"):
        drifted = {kind: world.drifted_snapshot(kind, version, edited) for kind in snapshots}
        for mode, snaps, frozen_map in (("free", drifted, None), ("fixed", snapshots, frozen)):
            traces = reference_traces(world, policy, snaps, test_ids, version, edited, frozen_map)
            outcomes[f"outcome_{version}_{mode}"] = {
                s.example_id: utility(world, s.example_id, s.final_action) for t in traces for s in t.steps
            }
    rows, hit_diffs, non_hit_diffs = [], [], []
    for step in sorted((s for s in original if s.routed), key=lambda s: s.example_id):
        qid = step.example_id
        identity = frozen.get(qid, ())
        row = {field: outcomes[field][qid] for field in COUNTERFACTUAL_OUTCOMES}
        hit = bool(set(identity) & set(edited))
        row.update(query_id=qid, routed=True, frozen_identity=list(identity), target_hit=hit)
        for version in ("repair", "corrupt"):
            free, fixed, base = row[f"outcome_{version}_free"], row[f"outcome_{version}_fixed"], row["outcome_original"]
            assert (free - base) - ((fixed - base) + (free - fixed)) == 0.0
        (hit_diffs if row["target_hit"] else non_hit_diffs).append(
            row["outcome_repair_fixed"] - row["outcome_corrupt_fixed"]
        )
        rows.append(json.dumps(row, sort_keys=True) + "\n")
    hit_diffs, non_hit_diffs = np.array(hit_diffs), np.array(non_hit_diffs)
    audit = {
        "n_rows": len(rows),
        "n_hit": len(hit_diffs),
        "n_non_hit": sum(1 for ids in frozen.values() if not set(ids) & set(edited)),
        "decomposition_max_abs_error": 0.0,
        "fixed_replay_identity_ok": True,
        "non_hit_bitwise_identical": True,
        "hit_dacc_fixed": float(hit_diffs.mean()) if hit_diffs.size else None,
        "non_hit_dacc_fixed": float(non_hit_diffs.mean()) if non_hit_diffs.size else None,
        "interaction_p": (
            randomization_interaction_test(hit_diffs, non_hit_diffs, n_permutations=n_permutations, seed=seed)
            if hit_diffs.size and non_hit_diffs.size else None
        ),
    }
    return "".join(rows), audit


def reference_manifest_json(manifest) -> str:
    """manifest.json's text without its trailing newline, through a deep copy of every field."""
    return json.dumps(asdict(manifest), sort_keys=True, indent=2)


def reference_ledger_check(n, delta_acc, help_hurt, p, rel_tol=0.05):
    """protocol.ledger_check on a consistent row, by a linear scan over hurts from the smallest."""
    if abs(delta_acc * n - help_hurt) >= 0.5:
        return None
    for u in range(max(0, -help_hurt), n + 1):
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


# ---------------------------------------------------------------------------
# pooled test ledgers from per-example outcome vectors, the reference for
# the package's rows from paired counts
# ---------------------------------------------------------------------------


@dataclass
class ReferenceRun:
    """A run as per-example masks, index-aligned with the baseline's: which examples it got right,
    routed and accepted."""

    correct: np.ndarray
    routed: np.ndarray
    accepted: np.ndarray


def reference_run(correct, routed, accepted) -> ReferenceRun:
    return ReferenceRun(*(np.asarray(x, bool) for x in (correct, routed, accepted)))


def reference_pooled_run(runs) -> ReferenceRun:
    """One run over all the runs' examples in order: each mask concatenated."""
    return ReferenceRun(*(np.concatenate([getattr(r, f) for r in runs]) for f in ("correct", "routed", "accepted")))


def reference_ledger_row(name, base, run, seed=0) -> str:
    """A ledger row's CSV text from two runs' index-aligned masks, bootstrapping their paired differences.

    Every example costs one call and a routed one a second, so delta_calls is the difference of
    the two runs' call totals over n: the run's routed fraction, as the baseline routes nothing.
    """
    a, b, n = base.correct, run.correct, len(base.correct)
    helps, hurts = int(np.sum(~a & b)), int(np.sum(a & ~b))
    lo, hi = bootstrap_ci(b.astype(np.float64) - a.astype(np.float64), seed=seed)
    return ",".join(
        [
            name,
            str(n),
            f"{(helps - hurts) / n:+.6f}",
            f"{lo:+.6f}",
            f"{hi:+.6f}",
            f"{mcnemar_exact(helps, hurts):.6g}",
            f"{helps - hurts:+d}",
            f"{int(run.routed.sum() - base.routed.sum()) / n:+.6f}",
            f"{int(run.routed.sum()) / n:.6f}",
            f"{int(run.accepted.sum()) / n:.6f}",
        ]
    )


def reference_pooled_test(spec, manifest, policy, n_seeds):
    """(pooled rows, rows by seed, pooled runs by name) of protocol.run_pooled_test, each row as its CSV text
    and every seed's runs kept whole.

    The baseline is the world's first pass, which routes nothing; each run is over the test ids in ascending order.
    """
    record = manifest.selection_record
    _, test_ids = split_indices(spec.n_examples, record["fit_fraction"], record["split_seed"])
    runs_by_name, per_seed = {}, {}
    for k in range(n_seeds):
        world = World(replace(spec, seed=spec.seed + k))
        for kind, bank in world.banks.items():
            bank.retain(record["active_ids"][kind])
        snaps = world.snapshots()
        none = np.zeros(len(test_ids), bool)
        runs = {"baseline": reference_run(world.baseline_pass(test_ids)[0], none, none)}
        for name in ("policy",) + COMPARATORS:
            steps = evaluate_policy(world, policy, snaps, test_ids, comparator=None if name == "policy" else name)
            runs[name] = reference_run(steps.final_correct, steps.routed, steps.accepted)
        runs["oracle"] = reference_run(*evaluate_oracle(world, snaps, test_ids))
        per_seed[world.seed] = [
            reference_ledger_row(f"{name} vs baseline", runs["baseline"], runs[name], seed=world.seed)
            for name in LEDGER_COMPARISONS
        ]
        for name, run in runs.items():
            runs_by_name.setdefault(name, []).append(run)
    pooled = {name: reference_pooled_run(runs) for name, runs in runs_by_name.items()}
    rows = [
        reference_ledger_row(f"{name} vs baseline", pooled["baseline"], pooled[name], seed=spec.seed)
        for name in LEDGER_COMPARISONS
    ]
    return rows, per_seed, pooled
