"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Each line lists the criterion's measured values against their bounds,
with the margin by which they clear them (negative: fails), so two runs give
a before/after margin report. Every tolerance is pinned here; nothing is
deferred to calibration.
"""

import functools
import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    arith_shape_spec,
    localization_shape_spec,
    oracle_policy,
    reference_oracle_steps,
    tampered_policy,
    utility,
)
from gatedmem.bank import MemoryBank, hoeffding_ucb
from gatedmem.controller import PolicyConfig
from gatedmem import protocol
from gatedmem.errors import FreezeMismatch, ProtocolViolation
from gatedmem.protocol import (
    evaluate_oracle,
    evaluate_policy,
    ledger_check,
    run_counterfactual,
    run_fit_stage,
)
from gatedmem.stats import (
    CalibrationSet,
    calibration_metrics,
    mcnemar_exact,
    randomization_interaction_test,
    roc_auc,
)
from gatedmem.worldsim import ConfidenceModel, WorldSpec, generate_world


_MARGINS: list[str] = []  # what margin() recorded for the running criterion


def margin(name: str, value: float, op: str, bound: float) -> float:
    """Record how far `value` clears `bound` under op (">=" or "<="); returns value."""
    m = value - bound if op == ">=" else bound - value
    _MARGINS.append(f"{name} {value:.6g} {op} {bound:g} (margin {m:+.6g})")
    return value


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            _MARGINS.clear()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] {label}: FAIL" + "".join(f"; {m}" for m in _MARGINS))
                raise
            print(f"\n[acceptance] {label}: PASS" + "".join(f"; {m}" for m in _MARGINS))

        return run

    return wrap


# ---------------------------------------------------------------------------
# shared counterfactual runs (criteria 1 and 2)
# ---------------------------------------------------------------------------

_CF_CACHE = {}


def counterfactual_suite(n_worlds=20):
    """Counterfactual audits over seeded worlds; cached with elapsed time."""
    if n_worlds in _CF_CACHE:
        return _CF_CACHE[n_worlds]
    started = time.time()
    results = []
    for seed in range(n_worlds):
        spec = WorldSpec(
            n_examples=400,
            seed=2000 + seed,
            topic_count=4,
            n_rule_entries=24,
            n_exemplar_entries=48,
            edit_sensitive_rate=0.4,
        )
        world = generate_world(spec)
        grid = [PolicyConfig(tau=2.0, margin_m=0.0, bank_policy="choose", primary_bank="exemplar").to_flat()]
        manifest, _, snaps = run_fit_stage(world, grid, fit_fraction=0.25)
        edited = [
            e for e, p in zip(snaps["exemplar"].entry_ids, snaps["exemplar"].payloads)
            if p.endswith("topic 0")
        ][:4]
        rows, audit = run_counterfactual(world, manifest, edited, n_permutations=2000, seed=seed)
        results.append((rows, audit))
    elapsed = time.time() - started
    _CF_CACHE[n_worlds] = (results, elapsed)
    return results, elapsed


@criterion("criterion 1 (decomposition identity, >=20 worlds, <1 min)")
def test_criterion_01_decomposition_identity():
    results, elapsed = counterfactual_suite(20)
    assert len(results) >= 20
    for rows, audit in results:
        # run_counterfactual raises on any nonzero row; re-assert the audit. With outcomes in
        # {0, 1} the identity holds exactly in floating point whatever the runs return, so this
        # checks bookkeeping only: a wrong replay fails fixed_replay_identity_ok and the
        # non-hit audit (criterion 2)
        assert audit["decomposition_max_abs_error"] == 0.0
        for version in ("repair", "corrupt"):
            y_free = getattr(rows, f"outcome_{version}_free")
            y_fixed = getattr(rows, f"outcome_{version}_fixed")
            free_contrast = y_free - rows.outcome_original
            content = y_fixed - rows.outcome_original
            drift = y_free - y_fixed
            assert (free_contrast - (content + drift) == 0.0).all()  # zero tolerance, every row
    assert elapsed < 60.0, f"counterfactual suite took {elapsed:.1f}s"


@criterion("criterion 2 (fixed-retrieval drift zero, non-hit rows identical, >=10 worlds)")
def test_criterion_02_fixed_retrieval_identification():
    results, _ = counterfactual_suite(20)
    assert len(results) >= 10
    for rows, audit in results[:20]:
        # fixed mode replayed exactly the frozen identities, so the drift
        # term vanishes on every row; hard-checked inside the runner and
        # re-asserted here together with non-hit bitwise identity
        assert audit["fixed_replay_identity_ok"] is True
        assert audit["non_hit_bitwise_identical"] is True
        non_hit = ~rows.target_hit
        assert (rows.outcome_repair_fixed[non_hit] == rows.outcome_corrupt_fixed[non_hit]).all()
        assert (rows.outcome_repair_fixed[non_hit] == rows.outcome_original[non_hit]).all()
        assert audit["non_hit_dacc_fixed"] == 0.0


@criterion("criterion 3 (Hoeffding retirement guarantee, 1000 sweeps/side, <2 min)")
def test_criterion_03_hoeffding_retirement():
    started = time.time()
    delta, n_obs, trials = 0.05, 30, 1000

    def sweep_retires(utilities, trial):
        bank = MemoryBank("rule", ("R000",), ("probe",), np.ones((1, 4)))
        bank.append_evidence("R000", utilities)
        return bank.retirement_sweep(delta=delta) == ["R000"]

    # true mean +0.5: +/-1 coin with P(+1) = 0.75
    rng = np.random.default_rng(31)
    retired_pos = sum(
        sweep_retires(np.where(rng.random(n_obs) < 0.75, 1.0, -1.0), t) for t in range(trials)
    )
    assert margin("false-retire rate at mean +0.5", retired_pos / trials, "<=", delta + 0.02) <= delta + 0.02

    # true mean -0.5: {-1, 0} coin with P(-1) = 0.5
    rng = np.random.default_rng(32)
    retired_neg = sum(
        sweep_retires(np.where(rng.random(n_obs) < 0.5, -1.0, 0.0), t) for t in range(trials)
    )
    assert margin("retire rate at mean -0.5", retired_neg / trials, ">=", 0.95) >= 0.95
    assert margin("seconds", time.time() - started, "<=", 120.0) < 120.0


@criterion("criterion 4 (oracle dominance on >=30 seeds + brute-force equality)")
def test_criterion_04_oracle_dominance():
    policies = {
        "retry": ("retry", PolicyConfig(tau=0.7)),
        "gate_only_rule": (None, PolicyConfig(tau=0.7, bank_policy="gate_only", primary_bank="rule")),
        "gate_only_ex": (None, PolicyConfig(tau=0.7, bank_policy="gate_only", primary_bank="exemplar")),
        "choose_rule": (None, PolicyConfig(tau=0.7, margin_m=0.05, bank_policy="choose", primary_bank="rule")),
        "choose_ex": (None, PolicyConfig(tau=0.7, margin_m=0.05, bank_policy="choose", primary_bank="exemplar")),
        "cascade_re": (None, PolicyConfig(tau=0.7, bank_policy="cascade_rule_then_exemplar")),
        "cascade_er": (None, PolicyConfig(tau=0.7, bank_policy="cascade_exemplar_then_rule")),
        "dual": (None, PolicyConfig(tau=0.7, bank_policy="dual")),
        "always_retrieve": ("always_retrieve", PolicyConfig(tau=0.7)),
        "fixed_budget": ("fixed_budget", PolicyConfig(tau=0.7)),
    }
    for seed in range(30):
        world = generate_world(arith_shape_spec(seed=3000 + seed, n=240))
        snaps = world.snapshots()
        ids = list(range(240))
        oracle_acc = evaluate_oracle(world, snaps, ids)[0].mean()
        assert oracle_acc >= world.baseline_pass(ids)[0].mean()
        for name, (comparator, policy) in policies.items():
            steps = evaluate_policy(world, policy, snaps, ids, comparator=comparator)
            assert oracle_acc >= steps.final_correct.mean(), f"seed {seed}: oracle < {name}"

    # brute force: on <=10 routed rows the oracle equals the best of all
    # 2^k per-row accept decisions over the same candidate set
    for seed in range(6):
        world = generate_world(WorldSpec(n_examples=10, seed=3600 + seed))
        osteps = reference_oracle_steps(world, list(range(10)), world.snapshots(), contexts=("rule",))
        trace = oracle_policy(0, osteps)
        oracle_acc = np.mean([utility(world, s.example_id, s.final_action) for s in trace.steps])
        pairs = [
            (s.baseline_utility, s.candidates[0][1] if s.candidates else s.baseline_utility)
            for s in osteps
        ]
        best = max(
            np.mean([c if b else bu for b, (bu, c) in zip(bits, pairs)])
            for bits in itertools.product((0, 1), repeat=len(pairs))
        )
        assert oracle_acc == pytest.approx(best, abs=1e-12)


@criterion("criterion 5 (retry-flat: dacc 0, p 1, CI [0,0])")
def test_criterion_05_retry_flat():
    retries = []
    for seed in range(3):
        world = generate_world(arith_shape_spec(seed=4000 + seed, n=400))
        grid = [PolicyConfig(tau=0.6, margin_m=0.05, bank_policy="choose", primary_bank="rule").to_flat()]
        manifest, _, _ = run_fit_stage(world, grid)
        rows, _ = protocol._test_seed(world, *protocol.frozen_inputs(world, manifest), out_dir=None)
        retries.append(next(r for r in rows if r.comparison == "retry vs baseline"))
    margin("max |retry dacc|", max(abs(r.delta_acc) for r in retries), "<=", 0.0)
    margin("min retry p", min(r.mcnemar_p for r in retries), ">=", 1.0)
    margin("max |retry CI end|", max(max(abs(r.ci_lo), abs(r.ci_hi)) for r in retries), "<=", 0.0)
    margin("max |retry help-hurt|", max(abs(r.help_hurt) for r in retries), "<=", 0.0)
    for retry in retries:
        assert retry.delta_acc == 0.0
        assert retry.mcnemar_p == 1.0
        assert (retry.ci_lo, retry.ci_hi) == (0.0, 0.0)
        assert retry.help_hurt == 0


@criterion("criterion 6 (statistics against brute-force oracles)")
def test_criterion_06_statistics_oracles():
    # exact McNemar vs exhaustive enumeration of all 2^n sign assignments
    worst = {"mcnemar": 0.0, "auc": 0.0, "ece/brier/nll": 0.0, "randomization": 0.0}
    for n in range(0, 21):
        if n == 0:
            hist = np.array([1])
        else:
            values = np.arange(2**n, dtype=np.uint32)
            bits = np.unpackbits(values.view(np.uint8).reshape(-1, 4), axis=1, count=32)
            counts = bits.sum(axis=1)
            hist = np.bincount(counts, minlength=n + 1)
        for h in range(n + 1):
            u = n - h
            m = min(h, u)
            expected = min(1.0, 2.0 * float(hist[: m + 1].sum()) / 2**n)
            worst["mcnemar"] = max(worst["mcnemar"], abs(mcnemar_exact(h, u) - expected))
            assert mcnemar_exact(h, u) == pytest.approx(expected, abs=1e-12)

    # AUC vs pair counting on 100 random sets
    rng = np.random.default_rng(61)
    checked = 0
    while checked < 100:
        n = int(rng.integers(4, 40))
        scores = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, n).astype(bool)
        if labels.all() or not labels.any():
            continue
        pos = scores[labels]
        neg = scores[~labels]
        direct = sum(
            1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg
        ) / (len(pos) * len(neg))
        worst["auc"] = max(worst["auc"], abs(roc_auc(scores, labels) - direct))
        assert roc_auc(scores, labels) == pytest.approx(direct, abs=1e-12)
        checked += 1

    # ECE / Brier / NLL vs direct summation
    rng = np.random.default_rng(62)
    for _ in range(10):
        conf = rng.random(200)
        correct = rng.random(200) < conf
        ece, brier, nll = calibration_metrics(CalibrationSet(conf, correct), n_bins=10)
        n_bins, n = 10, 200
        bins = np.minimum((conf * n_bins).astype(int), n_bins - 1)
        ece_o = sum(
            (bins == b).sum() / n
            * abs(correct[bins == b].mean() - conf[bins == b].mean())
            for b in range(n_bins)
            if (bins == b).any()
        )
        brier_o = float(np.mean((conf - correct.astype(float)) ** 2))
        nll_o = float(np.mean(-np.log(np.maximum(np.where(correct, conf, 1 - conf), 1e-12))))
        worst["ece/brier/nll"] = max(worst["ece/brier/nll"], abs(ece - ece_o), abs(brier - brier_o), abs(nll - nll_o))
        assert ece == pytest.approx(ece_o, abs=1e-12)
        assert brier == pytest.approx(brier_o, abs=1e-12)
        assert nll == pytest.approx(nll_o, abs=1e-12)

    # randomization test vs exhaustive permutation, groups of size <= 6
    rng = np.random.default_rng(63)
    for _ in range(8):
        n_a = int(rng.integers(2, 7))
        n_b = int(rng.integers(2, 7))
        hit = rng.integers(-1, 2, n_a).astype(float)
        non = rng.integers(-1, 2, n_b).astype(float)
        pool = np.concatenate([hit, non])
        observed = hit.mean() - non.mean()
        stats = []
        for combo in itertools.combinations(range(len(pool)), n_a):
            sel = set(combo)
            a = [pool[i] for i in sel]
            b = [pool[i] for i in range(len(pool)) if i not in sel]
            stats.append(np.mean(a) - np.mean(b))
        exact = np.mean([s >= observed for s in stats])
        mc = randomization_interaction_test(hit, non, n_permutations=40000, seed=64)
        worst["randomization"] = max(worst["randomization"], abs(mc - exact))
    for name, bound in (("mcnemar", 1e-12), ("auc", 1e-12), ("ece/brier/nll", 1e-12), ("randomization", 0.02)):
        margin(f"max {name} error", worst[name], "<=", bound)
    assert worst["randomization"] <= 0.02


@criterion("criterion 7 (ledger-check against published rows)")
def test_criterion_07_ledger_consistency():
    h, u, p = ledger_check(540, 0.0019, 1, 1.0)
    assert (h, u) == (1, 0) and p == 1.0
    h, u, p = ledger_check(600, 0.0700, 42, 9.67e-7)
    assert h - u == 42
    assert abs(p - 9.67e-7) / 9.67e-7 <= 0.05
    h, u, p = ledger_check(600, 0.0767, 46, 3.80e-11)
    assert h - u == 46
    assert abs(p - 3.80e-11) / 3.80e-11 <= 0.05


@criterion("criterion 8 (separability-driven gating pattern, >=80% of 50 seeds)")
def test_criterion_08_separability_gating():
    cm = ConfidenceModel(baseline_auc=0.55, second_auc_rule=0.85, second_auc_exemplar=0.25)
    joint = 0
    seeds = 50
    auc_a_values, auc_b_values = [], []
    for seed in range(seeds):
        spec = WorldSpec(
            n_examples=800,
            seed=5000 + seed,
            base_accuracy=0.6,
            applicability_rate=(("rule", 0.5), ("exemplar", 0.5)),
            help_prob_given_applicable=0.8,
            hurt_prob_given_inapplicable=0.8,
            confidence_model=cm,
            k_max=1,
        )
        world = generate_world(spec)
        snaps = world.snapshots()
        ids = list(range(800))
        acc = {}
        for bank in ("rule", "exemplar"):
            for mode in ("gate_only", "choose"):
                steps = evaluate_policy(
                    world,
                    PolicyConfig(tau=0.7, margin_m=0.0, bank_policy=mode, primary_bank=bank),
                    snaps,
                    ids,
                )
                acc[(bank, mode)] = steps.final_correct.mean()
        ok_a = acc[("rule", "choose")] > acc[("rule", "gate_only")]
        ok_b = acc[("exemplar", "choose")] <= acc[("exemplar", "gate_only")]
        joint += ok_a and ok_b
        if seed < 5:
            # verify the premise: realized help-vs-hurt separation per bank
            base, _ = world.baseline_pass(ids)
            for bank, store in (("rule", auc_a_values), ("exemplar", auc_b_values)):
                cols, filled, pairs = world.injected(ids, snaps, (bank,))
                correct, conf = world.second_pass(ids, cols, filled, pairs)
                flipped = filled.any(axis=1) & (correct != base)
                store.append(roc_auc(conf[flipped].tolist(), correct[flipped].tolist()))
    assert margin("mean rule help/hurt AUC", np.mean(auc_a_values), ">=", 0.8) >= 0.8
    assert margin("mean exemplar help/hurt AUC", np.mean(auc_b_values), "<=", 0.5) <= 0.5
    margin(f"gating pattern ({joint}/{seeds} seeds)", joint / seeds, ">=", 0.80)
    assert joint / seeds >= 0.80, f"gating pattern held on {joint}/{seeds} seeds"


@criterion("criterion 9 (control contracts over >=1e5 randomized steps)")
def test_criterion_09_control_contracts():
    rng = np.random.default_rng(90)
    total_steps = 0
    routed_gaps = []
    bank_policies = (
        "gate_only",
        "choose",
        "cascade_rule_then_exemplar",
        "cascade_exemplar_then_rule",
        "dual",
    )
    for trial in range(20):
        spec = WorldSpec(
            n_examples=2500,
            seed=9000 + trial,
            base_accuracy=float(rng.uniform(0.4, 0.9)),
            applicability_rate=(
                ("rule", float(rng.uniform(0.1, 0.9))),
                ("exemplar", float(rng.uniform(0.1, 0.9))),
            ),
            help_prob_given_applicable=float(rng.uniform(0.2, 0.9)),
            hurt_prob_given_inapplicable=float(rng.uniform(0.2, 0.9)),
            steps_per_episode=int(rng.integers(1, 30)),
            guard_pass_rate=(("format", float(rng.uniform(0.7, 1.0))),),
        )
        world = generate_world(spec)
        snaps = world.snapshots()
        ids = list(range(2500))
        tau_lo = float(rng.uniform(0.1, 0.5))
        tau_hi = tau_lo + float(rng.uniform(0.1, 0.5))
        budget = [None, 0, 1, 2, 5][int(rng.integers(0, 5))]
        policy = PolicyConfig(
            tau=tau_lo,
            margin_m=float(rng.uniform(-0.1, 0.2)),
            bank_policy=bank_policies[int(rng.integers(0, len(bank_policies)))],
            primary_bank=("rule", "exemplar")[int(rng.integers(0, 2))],
            budget_B=budget,
            cooldown=int(rng.integers(0, 4)),
        )
        run_lo = evaluate_policy(world, policy, snaps, ids)
        run_hi = evaluate_policy(world, replace(policy, tau=tau_hi), snaps, ids)

        counts_lo, counts_hi = (protocol._run_counts(steps) for steps in (run_lo, run_hi))
        for steps, counts in ((run_lo, counts_lo), (run_hi, counts_hi)):
            total_steps += len(steps.routed)
            assert counts.mean_calls == pytest.approx(1 + counts.routed_frac, abs=1e-12)  # one extra call per routed step
            if policy.budget_B is not None:
                assert np.bincount(steps.episode_ids[steps.routed], minlength=1).max() <= policy.budget_B
            # an unrouted step tries nothing; a step accepts at most one attempt, and only a routed one
            assert not steps.tried[~steps.routed].any()
            assert steps.accepted_attempt.sum(axis=1).max() <= 1
            assert not (steps.accepted & ~steps.routed).any()
            # the final answer is the accepted attempt's, else the baseline's (rollback safety)
            _, deciding_correct, _ = steps.deciding_pass()
            assert np.array_equal(steps.final_correct, np.where(steps.accepted, deciding_correct, steps.baseline_correct))
        # routing volume is nondecreasing in tau over the same trace set
        routed_gaps.append(counts_hi.routed_frac - counts_lo.routed_frac)
        assert counts_hi.routed_frac >= counts_lo.routed_frac

    margin("min routed-fraction rise with tau", min(routed_gaps), ">=", 0.0)
    margin("steps", total_steps, ">=", 100_000)
    assert total_steps >= 100_000, f"stress run covered only {total_steps} steps"

    # freeze / stage separation: tampering and fit-ops during test hard-fail
    world = generate_world(arith_shape_spec(seed=9999, n=200))
    manifest, _, _ = run_fit_stage(world, [PolicyConfig(tau=0.6).to_flat()])
    with pytest.raises(FreezeMismatch):
        protocol._test_seed(world, *protocol.frozen_inputs(world, tampered_policy(manifest, tau=0.9)), out_dir=None)
    protocol._test_seed(world, *protocol.frozen_inputs(world, manifest), out_dir=None)
    with pytest.raises(ProtocolViolation):
        world.banks["rule"].append_evidence("R000", [1.0])
    with pytest.raises(ProtocolViolation):
        world.banks["exemplar"].retirement_sweep()


@criterion("criterion 10 (counterfactual localization shape, >=90% of 20 seeds, <2 min)")
def test_criterion_10_localization_shape():
    started = time.time()
    successes = 0
    seeds = 20
    hit_counts = []
    for seed in range(seeds):
        spec = localization_shape_spec(seed=seed)
        world = generate_world(spec)
        grid = [PolicyConfig(tau=2.0, margin_m=0.0, bank_policy="choose", primary_bank="exemplar").to_flat()]
        manifest, _, snaps = run_fit_stage(world, grid, fit_fraction=0.2)  # 800 test rows, all routed
        edited = [
            e for e, p in zip(snaps["exemplar"].entry_ids, snaps["exemplar"].payloads)
            if p.endswith("topic 0")
        ][:4]
        rows, audit = run_counterfactual(world, manifest, edited, seed=seed)
        hit_counts.append(audit["n_hit"])
        assert audit["n_rows"] == 800
        assert audit["non_hit_dacc_fixed"] == 0.0  # exactly zero off the hit set
        if audit["hit_dacc_fixed"] > 0 and audit["interaction_p"] <= 0.01:
            successes += 1
    # shaped to ~105 target hits of 800 routed
    margin("mean target hits", np.mean(hit_counts), ">=", 60)
    margin("mean target hits", np.mean(hit_counts), "<=", 160)
    assert 60 <= np.mean(hit_counts) <= 160, f"hit counts off-shape: {hit_counts}"
    margin(f"localization ({successes}/{seeds} seeds)", successes / seeds, ">=", 0.90)
    assert successes / seeds >= 0.90, f"localization held on {successes}/{seeds} seeds"
    assert margin("seconds", time.time() - started, "<=", 120.0) < 120.0
