"""Kept only for the benchmark harness; nothing in the package calls it.
perfbench/test_tracer.py checks that resample_means is the traced
resample_means_numpy, and perfbench/run.py's provenance reads USING_NUMBA."""

import numpy as np

USING_NUMBA = False


def resample_means_numpy(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Row means of values[idx]; idx is (B, n) resample indices."""
    return values[idx].sum(axis=1) / idx.shape[1]


resample_means = resample_means_numpy
