"""Chi-square upper tail for Fisher's method, without importing scipy.

``chdtrc(df, x)`` is the survival function of the chi-square distribution
with ``df`` degrees of freedom, the same quantity as
``scipy.special.chdtrc``.  This module ports, operation for operation, the
code paths of Cephes ``chdtr.c`` and ``igam.c`` (as shipped in scipy's
``special`` library) that ``chdtrc(2k, x) = igamc(k, x / 2)`` reaches for
an integer ``k`` in ``2 ... 20``:

* the returns of ``igamc`` for ``x`` negative (NaN), zero, infinite
  and NaN;
* ``1 - igam_series`` (the power series of DLMF 8.11.4) when
  ``x <= 1.1`` or ``x < k``;
* the continued fraction of DLMF 8.9.2 otherwise;
* ``igam_fac``, the prefactor ``x^a e^-x / Gamma(a)``, in both of its
  branches (``a log x - x - lgam(a)``, and the Lanczos approximation when
  ``x`` is near ``a``);
* ``lgam`` at the integers ``2 ... 20``.

Every float operation happens in Cephes' order, and every transcendental
goes through :mod:`math` (the platform libm that scipy calls too), so the
results match ``scipy.special.chdtrc`` bit for bit;
``tests/test_conformal_chisq.py`` pins that on over a million statistics.
numpy's own ``exp`` and ``log`` are vectorised differently and do not
round the same way.

What the port leaves out is unreachable for these arguments:
``igamc_series`` serves only ``a < 2`` below ``x = 1.1``, the
asymptotic series only ``a > 20``, and ``log1pmx`` only ``x >= 200``
inside the Lanczos branch, where ``|x - a| <= 0.4 a`` keeps ``x`` below
28.  :func:`chdtrc` refuses any other ``df``; callers fall back to scipy.
"""

from __future__ import annotations

import math

#: Smallest and largest ``df / 2`` the port reproduces exactly.
MIN_HALF_DOF = 2
MAX_HALF_DOF = 20

_MAXITER = 2000
_MACHEP = 1.11022302462515654042e-16  # 2**-53
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_BIG = 4.503599627370496e15
_BIGINV = 2.22044604925031308085e-16
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
# ``exp(1)``: the C compiler folds it to the correctly rounded constant.
_E = math.e

# Stirling series of log Gamma (Cephes gamma.c, ``A``), highest degree first.
_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)

# Lanczos approximation (g, N = 13) of Boost's ``lanczos13m53``, as in
# Cephes lanczos.h: coefficients lowest degree first.
_LANCZOS_G = 6.024680040776729583740234375
_LANCZOS_NUM = (
    0.006061842346248906525783753964555936883222,
    0.5098416655656676188125178644804694509993,
    19.51992788247617482847860966235652136208,
    449.9445569063168119446858607650988409623,
    6955.999602515376140356310115515198987526,
    75999.29304014542649875303443598909137092,
    601859.6171681098786670226533699352302507,
    3481712.15498064590882071018964774556468,
    14605578.08768506808414169982791359218571,
    43338889.32467613834773723740590533316085,
    86363131.28813859145546927288977868422342,
    103794043.1163445451906271053616070238554,
    56906521.91347156388090791033559122686859,
)
_LANCZOS_DENOM = (
    1.0,
    66.0,
    1925.0,
    32670.0,
    357423.0,
    2637558.0,
    13339535.0,
    45995730.0,
    105258076.0,
    150917976.0,
    120543840.0,
    39916800.0,
    0.0,
)


def _lgam(x: float) -> float:
    """Cephes ``lgam`` at an integer ``x`` in 2...20.

    Below 13 the product loop ends at ``u == 2`` for an integer, so
    Cephes returns ``log((x - 1)!)`` and never reaches its rational
    approximation, which is not ported.
    """
    if x < 13.0:
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        return math.log(z)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    p = 1.0 / (x * x)
    series = _STIRLING[0]
    for coefficient in _STIRLING[1:]:
        series = series * p + coefficient
    return q + series / x


def _lanczos_sum_expg_scaled(x: float) -> float:
    """Cephes ``ratevl`` of the Lanczos sum at ``x > 1`` (in powers of 1/x)."""
    y = 1.0 / x
    num = _LANCZOS_NUM[-1]
    for coefficient in reversed(_LANCZOS_NUM[:-1]):
        num = num * y + coefficient
    denom = _LANCZOS_DENOM[-1]
    for coefficient in reversed(_LANCZOS_DENOM[:-1]):
        denom = denom * y + coefficient
    # ratevl multiplies by pow(x, 0) = 1.0 here, which is exact.
    return num / denom


def _igam_fac(a: float, x: float) -> float:
    """``x^a e^-x / Gamma(a)``, Cephes ``igam_fac`` for ``a`` in 2...20."""
    if abs(a - x) > 0.4 * abs(a):
        ax = a * math.log(x) - x - _lgam(a)
        if ax < -_MAXLOG:
            return 0.0  # underflow
        return math.exp(ax)
    fac = a + _LANCZOS_G - 0.5
    res = math.sqrt(fac / _E) / _lanczos_sum_expg_scaled(a)
    # Here x <= 1.4 a <= 28, so Cephes always takes its a, x < 200 branch.
    res *= math.exp(a - x) * math.pow(x / fac, a)
    return res


def _igam_series(a: float, x: float) -> float:
    """Lower regularised gamma by the power series of DLMF 8.11.4."""
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    r = a
    c = 1.0
    ans = 1.0
    for _ in range(_MAXITER):
        r += 1.0
        c *= x / r
        ans += c
        if c <= _MACHEP * ans:
            break
    return ans * ax / a


def _igamc_continued_fraction(a: float, x: float) -> float:
    """Upper regularised gamma by the continued fraction of DLMF 8.9.2."""
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    y = 1.0 - a
    z = x + y + 1.0
    c = 0.0
    pkm2 = 1.0
    qkm2 = x
    pkm1 = x + 1.0
    qkm1 = z * x
    ans = pkm1 / qkm1
    for _ in range(_MAXITER):
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        pk = pkm1 * z - pkm2 * yc
        qk = qkm1 * z - qkm2 * yc
        if qk != 0:
            r = pk / qk
            t = abs((ans - r) / r)
            ans = r
        else:
            t = 1.0
        pkm2 = pkm1
        pkm1 = pk
        qkm2 = qkm1
        qkm1 = qk
        if abs(pk) > _BIG:
            pkm2 *= _BIGINV
            pkm1 *= _BIGINV
            qkm2 *= _BIGINV
            qkm1 *= _BIGINV
        if t <= _MACHEP:
            break
    return ans * ax


def _igamc(a: float, x: float) -> float:
    """Cephes ``igamc(a, x)`` for an integer ``a`` in 2...20."""
    if x < 0.0:
        return math.nan  # domain error
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    if math.isnan(x):
        return math.nan
    if x > 1.1 and x >= a:
        return _igamc_continued_fraction(a, x)
    # x <= 0.5, 0.5 < x <= 1.1 (where 1.1 x < 2 <= a) and 1.1 < x < a
    # all take the series.
    return 1.0 - _igam_series(a, x)


def chdtrc(df: int, x: float) -> float:
    """Chi-square survival function, bit-identical to ``scipy.special.chdtrc``.

    ``df`` must be an even integer in ``4 ... 40`` (Fisher's method over
    2 to 20 p-values); anything else raises :class:`ValueError`.
    """
    half, odd = divmod(df, 2)
    if odd or not MIN_HALF_DOF <= half <= MAX_HALF_DOF:
        raise ValueError(
            f"chdtrc port covers df = {2 * MIN_HALF_DOF}...{2 * MAX_HALF_DOF} "
            f"even, got {df!r}"
        )
    return _igamc(df / 2.0, x / 2.0)
