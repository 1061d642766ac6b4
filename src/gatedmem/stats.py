"""Paired statistics and calibration diagnostics.

All tests here are exact or resampling-based, never asymptotic: McNemar is
the exact two-sided binomial test on discordant pairs, confidence intervals
are seeded percentile bootstrap, and the interaction test is a seeded label
randomization. Everything is a pure function of its inputs plus an explicit
seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SignalUndefined
from .util import derive_seed

NLL_CLAMP = 1e-12
# resample rows x distinct values drawn at once: about 16 MB of counts and
# products, which bounds memory when the values are all distinct
RESAMPLE_CHUNK_CELLS = 1_000_000


@dataclass(frozen=True)
class CalibrationSet:
    confidences: np.ndarray
    correct: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.confidences, np.float64)
        y = np.asarray(self.correct, bool)
        if c.shape != y.shape or c.ndim != 1:
            raise ValueError("confidences and correct must be 1-d and equal length")
        if c.size and (c.min() < 0.0 or c.max() > 1.0):
            raise ValueError("confidences must lie in [0, 1]")
        object.__setattr__(self, "confidences", c)
        object.__setattr__(self, "correct", y)

    @property
    def n(self) -> int:
        return int(self.confidences.shape[0])


def mcnemar_exact(helps: int, hurts: int) -> float:
    """Exact two-sided binomial McNemar p on discordant pairs.

    p = min(1, 2 * P(X <= min(h, u))) with X ~ Binomial(h + u, 1/2);
    p = 1 when there are no discordant pairs.
    """
    if helps < 0 or hurts < 0:
        raise ValueError("helps and hurts must be >= 0")
    n = helps + hurts
    if n == 0:
        return 1.0
    tail = term = 1  # sum of C(n, k) for k <= min(h, u), by C(n, k + 1) = C(n, k) (n - k) / (k + 1), exact
    for k in range(min(helps, hurts)):
        term = term * (n - k) // (k + 1)
        tail += term
    return float(min(Fraction(1), 2 * Fraction(tail, 2**n)))


def _weighted_sums(counts: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per-row sum of counts * u: each row is summed on its own, so its rounding
    does not depend on how many rows are drawn at once."""
    return (counts * u).sum(axis=1)


def _resample_means(values: np.ndarray, n_resamples: int, seed: int) -> np.ndarray:
    """Bootstrap means of values, drawn as multinomial counts of its distinct values.

    A resample's mean depends only on how many times each distinct value is
    drawn, and those counts are Multinomial(n, empirical frequencies), so no
    (n_resamples x n) index matrix is built.
    """
    u, c = np.unique(values, return_counts=True)
    n = values.size
    rng = np.random.default_rng(derive_seed("bootstrap", seed))
    means = np.empty(n_resamples)
    rows = max(1, RESAMPLE_CHUNK_CELLS // u.size)
    for start in range(0, n_resamples, rows):
        stop = min(start + rows, n_resamples)
        means[start:stop] = _weighted_sums(rng.multinomial(n, c / n, size=stop - start), u) / n
    return means


def bootstrap_ci(
    diffs, n_resamples: int = 10000, alpha: float = 0.05, seed: int = 0
) -> tuple[float, float]:
    """Seeded percentile bootstrap interval for the mean of diffs."""
    values = np.asarray(diffs, np.float64)
    if values.size == 0:
        raise ValueError("empty diffs")
    if n_resamples < 1000:
        raise ValueError(f"n_resamples must be >= 1000, got {n_resamples}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    means = _resample_means(values, n_resamples, seed)
    means.sort()
    return _percentile(means, alpha / 2.0), _percentile(means, 1.0 - alpha / 2.0)


def _percentile(ordered: np.ndarray, q: float) -> float:
    """np.quantile(ordered, q) for ascending ordered and q in [0, 1], bit for bit.

    numpy's default `linear` rule: the virtual index (n - 1) q falls between
    ranks i and i + 1 at fraction t, and the value is a + (b - a) t, or
    b - (b - a)(1 - t) where t >= 0.5. np.quantile itself imports numpy.ma.
    """
    n = len(ordered)
    virtual = (n - 1) * q
    i = min(math.floor(virtual), n - 1)
    t = virtual - i
    a, b = float(ordered[i]), float(ordered[min(i + 1, n - 1)])
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


def roc_auc(scores, labels) -> float:
    """P(random positive outranks random negative), ties counted 1/2."""
    s = np.asarray(scores, np.float64)
    y = np.asarray(labels, bool)
    n_pos = int(y.sum())
    n_neg = int((~y).sum())
    if n_pos == 0 or n_neg == 0:
        raise SignalUndefined("AUC needs both classes present")
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(s.size, np.float64)
    ranks[order] = np.arange(1, s.size + 1)
    # average ranks within tie groups
    sorted_s = s[order]
    i = 0
    while i < s.size:
        j = i
        while j + 1 < s.size and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        if j > i:
            ranks[order[i : j + 1]] = 0.5 * (i + 1 + j + 1)
        i = j + 1
    rank_sum_pos = float(ranks[y].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def confidence_bins(conf: np.ndarray, n_bins: int) -> np.ndarray:
    """Equal-width bin of each confidence in [0, 1]; a confidence of 1.0 goes in the last bin."""
    return np.minimum((conf * n_bins).astype(np.int64), n_bins - 1)


def calibration_metrics(calset: CalibrationSet, n_bins: int = 10) -> tuple[float, float, float]:
    """(ECE, Brier, NLL) over equal-width confidence bins.

    ECE = sum over bins of (|bin|/n) * |bin accuracy - bin mean confidence|;
    Brier is mean squared error of confidence against correctness; NLL is
    mean negative log-likelihood with probabilities clamped at 1e-12.
    """
    if calset.n == 0:
        raise ValueError("empty calibration set")
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    conf = calset.confidences
    correct = calset.correct.astype(np.float64)
    bins = confidence_bins(conf, n_bins)
    count = np.bincount(bins, minlength=n_bins).astype(np.float64)
    conf_sum = np.bincount(bins, weights=conf, minlength=n_bins)
    acc_sum = np.bincount(bins, weights=correct, minlength=n_bins)
    nonempty = count > 0
    gaps = np.zeros(n_bins)
    gaps[nonempty] = np.abs(acc_sum[nonempty] / count[nonempty] - conf_sum[nonempty] / count[nonempty])
    ece = float(np.sum(count[nonempty] / calset.n * gaps[nonempty]))
    brier = float(np.mean((conf - correct) ** 2))
    p = np.where(calset.correct, conf, 1.0 - conf)
    nll = float(np.mean(-np.log(np.clip(p, NLL_CLAMP, None))))
    return ece, brier, nll


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def platt_fit(
    calset: CalibrationSet, max_iter: int = 100, grad_tol: float = 1e-8
) -> tuple[float, float]:
    """Logistic MLE of correctness on confidence, by damped Newton.

    Returns (slope, intercept) of p = sigmoid(slope * confidence + intercept).
    """
    y = calset.correct.astype(np.float64)
    x = calset.confidences
    if y.sum() == 0 or y.sum() == y.size:
        raise SignalUndefined("Platt fit needs both classes present")
    n = calset.n
    slope, intercept = 0.0, 0.0

    def nll(a, b):
        p = np.clip(_sigmoid(a * x + b), NLL_CLAMP, 1 - NLL_CLAMP)
        return -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))

    for _ in range(max_iter):
        p = _sigmoid(slope * x + intercept)
        residual = p - y
        grad = np.array([np.dot(residual, x) / n, residual.mean()])
        if np.linalg.norm(grad) < grad_tol:
            return float(slope), float(intercept)
        w = p * (1.0 - p)
        h11 = np.dot(w, x * x) / n
        h12 = np.dot(w, x) / n
        h22 = w.mean()
        det = h11 * h22 - h12 * h12
        if det <= 0:
            raise RuntimeError("Platt fit: singular Hessian")
        step_a = (h22 * grad[0] - h12 * grad[1]) / det
        step_b = (h11 * grad[1] - h12 * grad[0]) / det
        # damping: halve until the objective does not get worse
        current = nll(slope, intercept)
        scale = 1.0
        while scale > 1e-8 and nll(slope - scale * step_a, intercept - scale * step_b) > current + 1e-15:
            scale *= 0.5
        slope -= scale * step_a
        intercept -= scale * step_b
    raise RuntimeError(f"Platt fit did not converge in {max_iter} iterations")


def platt_apply(confidences, slope: float, intercept: float) -> np.ndarray:
    return _sigmoid(slope * np.asarray(confidences, np.float64) + intercept)


def randomization_interaction_test(
    hit_diffs, non_hit_diffs, n_permutations: int = 10000, seed: int = 0
) -> float:
    """One-sided label-randomization p for mean(hit) - mean(non_hit).

    Group labels are permuted uniformly; p is the plus-one-smoothed fraction
    of permutations whose statistic is >= the observed one. A permutation is
    drawn as the hit group's counts of each distinct pooled value, which are
    multivariate hypergeometric; the observed statistic goes through the same
    count formula, so ties at the observed value count exactly.
    """
    hit = np.asarray(hit_diffs, np.float64)
    non = np.asarray(non_hit_diffs, np.float64)
    if hit.size == 0 or non.size == 0:
        raise ValueError("both groups must be nonempty")
    if n_permutations < 1:
        raise ValueError("n_permutations must be >= 1")
    u, inverse, c = np.unique(
        np.concatenate([hit, non]), return_inverse=True, return_counts=True
    )
    total = float(c @ u)

    def statistic(counts: np.ndarray) -> np.ndarray:
        s = _weighted_sums(counts, u)
        return s / hit.size - (total - s) / non.size

    observed = statistic(np.bincount(inverse[: hit.size], minlength=u.size)[None, :])[0]
    rng = np.random.default_rng(derive_seed("interaction", seed))
    exceed = 0
    rows = max(1, RESAMPLE_CHUNK_CELLS // u.size)
    for start in range(0, n_permutations, rows):
        stop = min(start + rows, n_permutations)
        counts = rng.multivariate_hypergeometric(c, hit.size, size=stop - start)
        exceed += int(np.sum(statistic(counts) >= observed))
    return (1 + exceed) / (n_permutations + 1)
