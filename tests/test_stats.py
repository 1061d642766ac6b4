"""Statistics against independent brute-force oracles."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gatedmem import stats
from gatedmem.errors import SignalUndefined
from gatedmem.stats import (
    CalibrationSet,
    PairedComparison,
    bootstrap_ci,
    calibration_metrics,
    mcnemar_exact,
    platt_apply,
    platt_fit,
    randomization_interaction_test,
    roc_auc,
)


# ---------------------------------------------------------------------------
# McNemar
# ---------------------------------------------------------------------------

def mcnemar_enumeration(h, u):
    """Oracle: enumerate all 2^(h+u) equally likely sign assignments."""
    n = h + u
    if n == 0:
        return 1.0
    m = min(h, u)
    count = sum(1 for bits in itertools.product((0, 1), repeat=n) if sum(bits) <= m)
    return min(1.0, 2.0 * count / 2**n)


def test_mcnemar_trivial_cases():
    assert mcnemar_exact(0, 0) == 1.0
    assert mcnemar_exact(1, 0) == 1.0  # single discordant pair cannot be significant
    assert mcnemar_exact(0, 1) == 1.0


def test_mcnemar_derived_value():
    # h=10, u=2: exact tail enumeration gives 158/4096
    assert mcnemar_exact(10, 2) == pytest.approx(158 / 4096, abs=0)


def test_mcnemar_symmetry():
    for h, u in [(3, 7), (0, 5), (12, 12)]:
        assert mcnemar_exact(h, u) == mcnemar_exact(u, h)


def test_mcnemar_matches_enumeration_small():
    for n in range(0, 13):
        for h in range(n + 1):
            u = n - h
            assert mcnemar_exact(h, u) == pytest.approx(mcnemar_enumeration(h, u), abs=1e-12)


def test_mcnemar_rejects_negative():
    with pytest.raises(ValueError):
        mcnemar_exact(-1, 0)


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------

def test_bootstrap_all_zero_diffs():
    lo, hi = bootstrap_ci(np.zeros(200), seed=0)
    assert lo == 0.0 and hi == 0.0


def test_bootstrap_constant_diffs():
    lo, hi = bootstrap_ci(np.full(50, 0.3), seed=1)
    assert lo == pytest.approx(0.3) and hi == pytest.approx(0.3)


def test_bootstrap_paper_shape_row():
    # net +42 over 600 with the 58/16 discordant split recovered by the exact
    # McNemar solver: mean 0.07, CI within +-0.005 of [0.043, 0.098]
    diffs = np.array([1.0] * 58 + [-1.0] * 16 + [0.0] * 526)
    lo, hi = bootstrap_ci(diffs, seed=0)
    assert np.mean(diffs) == pytest.approx(0.07)
    assert abs(lo - 0.043) <= 0.005
    assert abs(hi - 0.098) <= 0.005


def test_bootstrap_deterministic_and_validated():
    rng = np.random.default_rng(0)
    diffs = rng.normal(size=300)
    assert bootstrap_ci(diffs, seed=7) == bootstrap_ci(diffs, seed=7)
    assert bootstrap_ci(diffs, seed=7) != bootstrap_ci(diffs, seed=8)
    with pytest.raises(ValueError):
        bootstrap_ci(np.array([]))
    with pytest.raises(ValueError):
        bootstrap_ci(diffs, n_resamples=100)


def bootstrap_mean_distribution(values):
    """Oracle: exact law of the bootstrap mean, by enumerating every composition
    of n draws over the distinct values with its multinomial probability."""
    n = len(values)
    distinct = sorted(set(values))
    freqs = [Fraction(values.count(v), n) for v in distinct]
    law = {}
    for counts in itertools.product(range(n + 1), repeat=len(distinct)):
        if sum(counts) != n:
            continue
        prob = Fraction(math.factorial(n))
        for k, f in zip(counts, freqs):
            prob *= f**k / math.factorial(k)
        mean = sum(k * Fraction(v) for k, v in zip(counts, distinct)) / n
        law[mean] = law.get(mean, 0) + prob
    return sorted(law.items())


def test_bootstrap_matches_exact_distribution_small():
    cases = [
        [1.0, 1.0, 0.0, -1.0, 0.0],
        [1.0, 0.0, 0.0, 0.0, 0.0, -1.0, -1.0, 0.0],
        [0.5, 0.5, 2.0, 0.5, 2.0, 0.5],
        [-1.0, 1.0, 1.0, 1.0],
    ]
    for seed, values in enumerate(cases):
        means = stats._resample_means(np.array(values), 10000, seed)
        assert bootstrap_ci(values, seed=seed) == tuple(np.quantile(means, [0.025, 0.975]))
        cdf = Fraction(0)
        for atom, prob in bootstrap_mean_distribution(values):
            cdf += prob
            mc = np.mean(means <= float(atom) + 1e-12)
            assert abs(mc - float(cdf)) <= 0.02, (values, atom)


def test_resampling_memory_bounded():
    rng = np.random.default_rng(12)
    hit = np.array([1.0] * 14 + [-1.0] * 8 + [0.0] * 83)
    non_hit = rng.integers(-1, 2, 695).astype(float)
    calls = [
        (bootstrap_ci, (rng.integers(-1, 2, 6000).astype(float),)),
        (bootstrap_ci, (rng.normal(size=6000),)),  # all distinct: chunked draws
        (randomization_interaction_test, (hit, non_hit)),
    ]
    for fn, args in calls:
        tracemalloc.start()
        try:
            fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, (fn.__name__, peak)


def test_resampling_independent_of_chunk_size(monkeypatch):
    rng = np.random.default_rng(13)
    values = rng.normal(size=300)
    boot = stats._resample_means(values, 2000, 4)
    p = randomization_interaction_test(values[:40], values[40:90], n_permutations=2000, seed=4)
    monkeypatch.setattr(stats, "RESAMPLE_CHUNK_CELLS", 7)
    assert np.array_equal(stats._resample_means(values, 2000, 4), boot)
    assert randomization_interaction_test(values[:40], values[40:90], n_permutations=2000, seed=4) == p


# ---------------------------------------------------------------------------
# ROC AUC
# ---------------------------------------------------------------------------

def auc_pair_counting(scores, labels):
    """Oracle: direct O(n^2) positive/negative pair counting."""
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else 0.5 if p == q else 0.0
    return total / (len(pos) * len(neg))


def test_auc_perfect_separation():
    assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_auc_all_ties():
    assert roc_auc([0.5] * 8, [1, 0, 1, 0, 1, 0, 1, 0]) == 0.5


def test_auc_derived_example():
    assert roc_auc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == pytest.approx(0.75, abs=1e-15)


def test_auc_single_class_error():
    with pytest.raises(SignalUndefined):
        roc_auc([0.1, 0.2], [1, 1])


def test_auc_matches_pair_counting_random():
    rng = np.random.default_rng(0)
    for trial in range(100):
        n = int(rng.integers(4, 40))
        scores = np.round(rng.random(n), 2)  # coarse grid forces ties
        labels = rng.integers(0, 2, n).astype(bool)
        if labels.all() or not labels.any():
            continue
        assert roc_auc(scores, labels) == pytest.approx(
            auc_pair_counting(scores, labels), abs=1e-12
        )


# ---------------------------------------------------------------------------
# calibration metrics
# ---------------------------------------------------------------------------

def calibration_oracle(conf, correct, n_bins):
    """Oracle: direct per-item summation, no vectorization."""
    n = len(conf)
    bins = [min(int(c * n_bins), n_bins - 1) for c in conf]
    ece = 0.0
    for b in range(n_bins):
        members = [i for i in range(n) if bins[i] == b]
        if not members:
            continue
        acc = sum(1.0 for i in members if correct[i]) / len(members)
        avg_conf = sum(conf[i] for i in members) / len(members)
        ece += len(members) / n * abs(acc - avg_conf)
    brier = sum((conf[i] - (1.0 if correct[i] else 0.0)) ** 2 for i in range(n)) / n
    nll = 0.0
    for i in range(n):
        p = conf[i] if correct[i] else 1.0 - conf[i]
        nll -= math.log(max(p, 1e-12))
    return ece, brier, nll / n


def test_calibration_perfectly_calibrated_bins():
    # each confidence equals its bin's accuracy exactly
    conf = np.array([0.25] * 4 + [0.75] * 4)
    correct = np.array([True, False, False, False, True, True, True, False])
    ece, _, _ = calibration_metrics(CalibrationSet(conf, correct), n_bins=2)
    assert ece == pytest.approx(0.0, abs=1e-15)


def test_calibration_confident_correct_contributes_zero():
    ece, brier, nll = calibration_metrics(CalibrationSet(np.array([1.0]), np.array([True])))
    assert brier == 0.0
    assert nll == 0.0


def test_calibration_matches_direct_summation():
    rng = np.random.default_rng(3)
    conf = rng.random(200)
    correct = rng.random(200) < conf
    got = calibration_metrics(CalibrationSet(conf, correct), n_bins=10)
    want = calibration_oracle(conf.tolist(), correct.tolist(), 10)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=1e-12)


def test_calibration_empty_errors():
    with pytest.raises(ValueError):
        calibration_metrics(CalibrationSet(np.array([]), np.array([], bool)))


# ---------------------------------------------------------------------------
# Platt scaling
# ---------------------------------------------------------------------------

def test_platt_separable_positive_slope():
    conf = np.array([0.1, 0.2, 0.3, 0.7, 0.8, 0.9])
    correct = np.array([False, False, False, True, True, True])
    slope, _ = platt_fit(CalibrationSet(conf, correct))
    assert slope > 0


def test_platt_independent_labels_gives_base_rate():
    rng = np.random.default_rng(5)
    conf = rng.random(4000)
    correct = rng.random(4000) < 0.7  # independent of confidence
    slope, intercept = platt_fit(CalibrationSet(conf, correct))
    assert abs(slope) < 0.25
    base = correct.mean()
    pred = platt_apply(np.array([0.5]), slope, intercept)[0]
    assert pred == pytest.approx(base, abs=0.03)
    # closed form when slope is exactly zero: intercept = logit(base rate)
    assert slope * 0.5 + intercept == pytest.approx(math.log(base / (1 - base)), abs=0.1)


def test_platt_beats_best_constant_on_fit_split():
    rng = np.random.default_rng(6)
    conf = rng.random(500)
    correct = rng.random(500) < conf
    calset = CalibrationSet(conf, correct)
    slope, intercept = platt_fit(calset)
    p = np.clip(platt_apply(conf, slope, intercept), 1e-12, 1 - 1e-12)
    nll_platt = -np.mean(np.where(correct, np.log(p), np.log(1 - p)))
    base = np.clip(correct.mean(), 1e-12, 1 - 1e-12)
    nll_const = -np.mean(np.where(correct, np.log(base), np.log(1 - base)))
    assert nll_platt <= nll_const + 1e-12


def test_platt_single_class_error():
    with pytest.raises(SignalUndefined):
        platt_fit(CalibrationSet(np.array([0.2, 0.8]), np.array([True, True])))


# ---------------------------------------------------------------------------
# randomization interaction test
# ---------------------------------------------------------------------------

def interaction_exhaustive(hit, non_hit):
    """Oracle: enumerate every split of the pooled values into the two groups."""
    pool = list(hit) + list(non_hit)
    n_a = len(hit)
    observed = sum(hit) / n_a - sum(non_hit) / len(non_hit)
    count = 0
    total = 0
    for combo in itertools.combinations(range(len(pool)), n_a):
        group_a = [pool[i] for i in combo]
        rest = [pool[i] for i in range(len(pool)) if i not in set(combo)]
        stat = sum(group_a) / n_a - sum(rest) / len(rest)
        total += 1
        if stat >= observed:
            count += 1
    return count / total


def test_interaction_identical_groups_no_signal():
    rng = np.random.default_rng(9)
    values = rng.integers(-1, 2, 60).astype(float)
    p = randomization_interaction_test(values[:30], values[30:], n_permutations=4000, seed=0)
    assert p > 0.3


def test_interaction_strong_localized_signal():
    rng = np.random.default_rng(10)
    hit = np.array([1.0] * 14 + [-1.0] * 8 + [0.0] * 83)  # 14 helps, 8 hurts over 105 rows
    non_hit = np.zeros(695)
    p = randomization_interaction_test(hit, non_hit, n_permutations=10000, seed=1)
    assert p <= 0.01


def test_interaction_matches_exhaustive_small():
    cases = [
        ([1.0, 0.0, 1.0], [0.0, 0.0, -1.0]),  # 3 vs 3: all 20 splits
        ([1.0, 1.0, 0.0, -1.0], [0.0, 0.0]),
        ([2.0, 0.5], [0.0, -0.5, 1.0, 0.0]),
    ]
    for hit, non_hit in cases:
        exact = interaction_exhaustive(hit, non_hit)
        mc = randomization_interaction_test(hit, non_hit, n_permutations=40000, seed=2)
        assert abs(mc - exact) < 0.02


def test_interaction_constant_groups_tie_exactly():
    # every permutation ties the observed statistic, so p is exactly 1
    for value in (0.1, 1 / 3, 0.7):
        for n_hit, n_non in ((2, 9), (3, 7), (5, 11)):
            p = randomization_interaction_test(
                np.full(n_hit, value), np.full(n_non, value), n_permutations=2000, seed=0
            )
            assert p == 1.0, (value, n_hit, n_non)


def test_interaction_empty_group_errors():
    with pytest.raises(ValueError):
        randomization_interaction_test([], [1.0], n_permutations=10)


# ---------------------------------------------------------------------------
# paired comparison consistency
# ---------------------------------------------------------------------------

def test_paired_comparison_identity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 200))
        a = rng.integers(0, 2, n).astype(bool)
        b = rng.integers(0, 2, n).astype(bool)
        comp = PairedComparison(a, b)
        # delta_acc * n is exactly helps - hurts on integer outcome vectors
        assert comp.delta_acc() * comp.n == pytest.approx(comp.helps() - comp.hurts(), abs=1e-9)
        assert comp.diffs().sum() == comp.helps() - comp.hurts()


def test_paired_comparison_shape_errors():
    with pytest.raises(ValueError):
        PairedComparison(np.array([True]), np.array([True, False]))
