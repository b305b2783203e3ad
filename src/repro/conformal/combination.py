"""p-value combination methods for uncertainty-aware modality fusion.

The NOODLE fusion rule (Algorithm 1) treats each modality as a separate
hypothesis test: for a candidate class label, every modality produces a
p-value, and the per-modality p-values are combined into a single test
statistic for the joint hypothesis.  The combination functions implemented
here follow the comparative study of Balasubramanian et al. cited by the
paper; each takes a ``(N, n_modalities)`` array and returns ``(N,)``
combined p-values.

All methods are *valid* combiners (conservative under independence or in
the worst case), so the combined conformal predictor retains coverage
guarantees.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Union

import numpy as np
from scipy import special

CombinationFn = Callable[[np.ndarray], np.ndarray]

_EPS = 1e-12


def _validate(p_values: np.ndarray) -> np.ndarray:
    p_values = np.asarray(p_values, dtype=np.float64)
    if p_values.ndim == 1:
        p_values = p_values[:, None]
    if p_values.ndim != 2:
        raise ValueError("p-values must be a (N, n_modalities) array")
    if np.any(p_values < -1e-9) or np.any(p_values > 1 + 1e-9):
        raise ValueError("p-values must lie in [0, 1]")
    return np.clip(p_values, _EPS, 1.0)


def fisher_combination(p_values: np.ndarray) -> np.ndarray:
    """Fisher's method: ``-2 * sum(log p)`` is chi-squared with 2N dof.

    ``chdtrc`` is the chi-squared survival ufunc behind
    ``scipy.stats.chi2.sf``, which returns 1 for a statistic at or below 0;
    clamping at 0 gives the same bits without importing ``scipy.stats``.
    """
    p = _validate(p_values)
    statistic = -2.0 * np.log(p).sum(axis=1)
    return special.chdtrc(2 * p.shape[1], np.maximum(statistic, 0.0))


def stouffer_combination(p_values: np.ndarray) -> np.ndarray:
    """Stouffer's method: sum of z-scores, renormalised.

    ``-ndtri(q)`` and ``ndtr(-z)`` are the ufuncs behind
    ``scipy.stats.norm.isf`` and ``norm.sf``.
    """
    p = _validate(p_values)
    z = -special.ndtri(np.clip(p, _EPS, 1 - 1e-12))
    combined = z.sum(axis=1) / np.sqrt(p.shape[1])
    return special.ndtr(-combined)


def arithmetic_mean_combination(p_values: np.ndarray) -> np.ndarray:
    """Twice the arithmetic mean (valid combiner), capped at 1."""
    p = _validate(p_values)
    return np.minimum(1.0, 2.0 * p.mean(axis=1))


def geometric_mean_combination(p_values: np.ndarray) -> np.ndarray:
    """``e`` times the geometric mean (valid combiner), capped at 1."""
    p = _validate(p_values)
    geometric = np.exp(np.log(p).mean(axis=1))
    return np.minimum(1.0, np.e * geometric)


def minimum_combination(p_values: np.ndarray) -> np.ndarray:
    """Bonferroni: ``N * min(p)``, capped at 1."""
    p = _validate(p_values)
    return np.minimum(1.0, p.shape[1] * p.min(axis=1))


def maximum_combination(p_values: np.ndarray) -> np.ndarray:
    """Maximum p-value (conservative; equivalent to requiring all tests agree)."""
    p = _validate(p_values)
    return p.max(axis=1)


_COMBINERS: Dict[str, CombinationFn] = {
    "fisher": fisher_combination,
    "stouffer": stouffer_combination,
    "arithmetic": arithmetic_mean_combination,
    "geometric": geometric_mean_combination,
    "minimum": minimum_combination,
    "maximum": maximum_combination,
}


def get_combiner(spec: Union[str, CombinationFn]) -> CombinationFn:
    """Resolve a combination method by name or pass through a callable."""
    if callable(spec):
        return spec
    try:
        return _COMBINERS[spec]
    except KeyError as exc:
        known = ", ".join(sorted(_COMBINERS))
        raise ValueError(f"Unknown combination method {spec!r}; known: {known}") from exc


def available_combiners() -> List[str]:
    """Names accepted by :func:`get_combiner`."""
    return sorted(_COMBINERS)


def combine_p_value_matrices(
    per_modality: List[np.ndarray], method: Union[str, CombinationFn] = "fisher"
) -> np.ndarray:
    """Combine per-modality ``(N, n_classes)`` p-value matrices class-by-class.

    This is the matrix form of Algorithm 1: for each class label the
    modalities' p-values are combined into one, producing a fused
    ``(N, n_classes)`` p-value matrix.
    """
    if not per_modality:
        raise ValueError("at least one p-value matrix is required")
    shapes = {matrix.shape for matrix in map(np.asarray, per_modality)}
    if len(shapes) != 1:
        raise ValueError(f"p-value matrices must share a shape, got {shapes}")
    combiner = get_combiner(method)
    stacked = np.stack([np.asarray(m, dtype=np.float64) for m in per_modality], axis=2)
    n_samples, n_classes, n_modalities = stacked.shape
    if isinstance(method, str):
        # The built-in combiners are all row-wise, so one flattened call
        # covers every class at once instead of a Python loop per class.
        flat = stacked.reshape(n_samples * n_classes, n_modalities)
        return np.asarray(combiner(flat), dtype=np.float64).reshape(n_samples, n_classes)
    # User-supplied callables may use cross-row statistics within a class,
    # so they keep the historical one-call-per-class contract.
    combined = np.empty((n_samples, n_classes))
    for class_index in range(n_classes):
        combined[:, class_index] = combiner(stacked[:, class_index, :])
    return combined
