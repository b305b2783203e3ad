"""Differential tests: the ``math`` port of Fisher's chi-square tail.

``repro.conformal._chisq.chdtrc`` replaces ``scipy.special.chdtrc`` on
the scan and serve path.  Scan records carry the combined p-values, so
the port must return the same bits, not merely close values: every
comparison here is on ``.tobytes()``.  scipy is the golden reference and
is imported only by the tests.

Per ``k`` (2 to 20 modalities) the inputs total over 53k statistics, more
than a million across the module: Fisher statistics of uniform,
log-uniform, boundary and NaN p-values, raw special values, a linear
sweep, and the ``nextafter`` neighbours of every branch point of Cephes
``igamc`` and ``igam_fac``.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import special

from repro.conformal import _chisq, fisher_combination

HALF_DOFS = list(range(_chisq.MIN_HALF_DOF, _chisq.MAX_HALF_DOF + 1))
BOUNDARY_P = np.array([0.0, 1e-12, 0.5, 1 - 1e-12, 1.0])


def _scipy_fisher(p_values: np.ndarray) -> np.ndarray:
    """The Fisher combiner as written before the port: one scipy ufunc call."""
    p = np.clip(p_values, 1e-12, 1.0)
    statistic = -2.0 * np.log(p).sum(axis=1)
    return special.chdtrc(2 * p.shape[1], np.maximum(statistic, 0.0))


def _p_value_rows(k: int) -> np.ndarray:
    """Uniform, log-uniform, boundary and NaN-bearing rows of ``k`` p-values."""
    rng = np.random.default_rng(1000 + k)
    uniform = rng.uniform(size=(20_000, k))
    log_uniform = 10.0 ** -rng.uniform(0.0, 12.0, size=(20_000, k))
    boundary = BOUNDARY_P[rng.integers(0, len(BOUNDARY_P), size=(8_000, k))]
    mixed = rng.uniform(size=(4_000, k))
    mixed[rng.uniform(size=mixed.shape) < 0.5] = BOUNDARY_P[-1]
    with_nan = rng.uniform(size=(1_000, k))
    with_nan[rng.uniform(size=with_nan.shape) < 0.2] = np.nan
    return np.vstack([uniform, log_uniform, boundary, mixed, with_nan])


def _neighbours(value: float, ulps: int = 4) -> list:
    """``value`` and its ``ulps`` nearest floats on either side."""
    below, above, out = value, value, [value]
    for _ in range(ulps):
        below = np.nextafter(below, -np.inf)
        above = np.nextafter(above, np.inf)
        out.extend([below, above])
    return out


def _raw_statistics(k: int) -> np.ndarray:
    """Special values, a sweep, and the branch points of ``igamc(k, x/2)``."""
    a = float(k)
    special_values = [0.0, -0.0, 5e-324, 1e-300, 1e-20, np.inf, np.nan, -1.0]
    # x/2 = 1.1 and x/2 = a switch the series and the continued fraction;
    # |a - x/2| = 0.4 a switches igam_fac between its two branches.
    half_points = [1.1, 0.5, a, 0.6 * a, 1.4 * a, a - 0.4 * a, a + 0.4 * a]
    branch = [2.0 * h for point in half_points for h in _neighbours(point)]
    sweep = np.linspace(0.0, 8.0 * a, 2_000)
    far = np.geomspace(1e-6, 2_000.0, 500)
    return np.concatenate([special_values, branch, sweep, far])


@pytest.mark.parametrize("k", HALF_DOFS)
def test_fisher_port_matches_scipy_bitwise(k):
    p_values = _p_value_rows(k)
    assert fisher_combination(p_values).tobytes() == _scipy_fisher(p_values).tobytes()


@pytest.mark.parametrize("k", HALF_DOFS)
def test_chdtrc_port_matches_scipy_on_raw_statistics(k):
    statistics = _raw_statistics(k)
    ported = np.array([_chisq.chdtrc(2 * k, s) for s in statistics.tolist()])
    assert ported.tobytes() == special.chdtrc(2 * k, statistics).tobytes()


def test_differential_inputs_exceed_a_million_statistics():
    total = sum(len(_p_value_rows(k)) + len(_raw_statistics(k)) for k in HALF_DOFS)
    assert total >= 1_000_000


@pytest.mark.parametrize("k", [1, 21, 25])
def test_fisher_outside_the_port_calls_scipy(k):
    rng = np.random.default_rng(k)
    p_values = rng.uniform(size=(500, k))
    assert fisher_combination(p_values).tobytes() == _scipy_fisher(p_values).tobytes()


@pytest.mark.parametrize("df", [2, 3, 5, 42, 44])
def test_port_refuses_degrees_of_freedom_it_does_not_cover(df):
    with pytest.raises(ValueError, match="chdtrc port"):
        _chisq.chdtrc(df, 1.0)


def test_fisher_keeps_shape_and_order_with_repeated_statistics():
    # Conformal p-values repeat, so the port runs once per distinct
    # statistic; the result must still follow the input row order.
    base = np.array([[0.2, 0.4], [0.9, 0.1], [0.2, 0.4], [1.0, 1.0], [0.9, 0.1]])
    combined = fisher_combination(base)
    assert combined.shape == (5,)
    assert combined.tobytes() == _scipy_fisher(base).tobytes()
    assert fisher_combination(np.empty((0, 2))).shape == (0,)
