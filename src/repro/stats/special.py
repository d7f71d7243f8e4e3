"""The error function in numpy, bit for bit as ``scipy.special.erf``.

A port of the Cephes ``erf``/``erfc`` pair that scipy evaluates, so the
reuse-distance quadrature (:func:`repro.workloads.profiles.miss_ratios`)
keeps its exact bits without importing scipy:

* ``|x| <= 1``: ``x * T(x**2) / U(x**2)``;
* ``1 < |x| < 6``: ``1 - exp(-x**2) * P(|x|) / Q(|x|)``, signed;
* ``|x| >= 6``: exactly ``±1`` with no work (scipy's value already
  rounds to 1 from ``|x|`` ~ 5.92).

Every polynomial runs in Cephes's Horner order, one rounding per step,
so only ``exp`` can differ from scipy's: numpy's SIMD ``exp`` is 1 ulp
away from the C library's on a few percent of arguments on some hosts
(never more, in 10M probes on an AVX-512 host).  A rounding test makes
the result exact anyway.  ``p`` and ``q`` are positive, so the rounded
``1 - (e * p) / q`` never increases as ``e`` grows: where it rounds
alike for numpy's ``e`` moved down and up by ``_EXP_ULPS`` ulps, the C
library's ``e`` gives it too.  Only the other elements, about 8% of the
middle range, are recomputed with :func:`math.exp`.  Their number is
the ``analytic.erf_recomputes`` counter: a jump means numpy's ``exp``
drifted further from the C library's.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.obs import metrics as obs_metrics

__all__ = ["erf"]

# Cephes ndtr.c.  _U and _Q have an implied leading 1 (p1evl).
_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_U = (
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_Q = (
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)

#: From this ``|x|`` on, erf is exactly ``±1`` in double precision.
_SATURATION = 6.0

#: The vectorised exponential whose bits the rounding test checks.
_vector_exp = np.exp

#: How far, in ulps, the rounding test lets the vectorised ``exp`` sit
#: from the C library's: twice the largest gap measured.
_EXP_ULPS = 2


def erf(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Elementwise error function of a float array, equal to scipy's bits.

    ``out`` may be ``x`` itself.  ``±0`` keeps its sign, ``±inf`` gives
    ``±1`` and ``nan`` gives ``nan``.
    """
    x = np.asarray(x, dtype=float)
    # nan is not live: np.sign passes it through.
    live = np.abs(x) < _SATURATION
    values = _erf_unsaturated(x[live])
    out = np.sign(x, out=np.empty_like(x) if out is None else out)
    out[live] = values
    return out


def _erf_unsaturated(x: np.ndarray) -> np.ndarray:
    """erf of a 1-D array of ``|x| < 6`` and nan."""
    outer = np.abs(x) > 1.0
    inner = ~outer
    result = np.empty_like(x)
    xs = x[inner]
    z = xs * xs
    xs *= _polevl(z, _T)
    xs /= _p1evl(z, _U)
    result[inner] = xs
    xo = x[outer]
    result[outer] = np.copysign(_one_minus_erfc(np.abs(xo)), xo)
    return result


def _one_minus_erfc(a: np.ndarray) -> np.ndarray:
    """Cephes ``1 - erfc(a)`` for ``1 < a < 6``, with the C library's ``exp``."""
    exponent = a * a
    np.negative(exponent, out=exponent)
    p = _polevl(a, _P)
    q = _p1evl(a, _Q)
    e = _vector_exp(exponent)
    # e is a positive normal double, so moving it k ulps moves its bit
    # pattern by k.
    bits = e.view(np.int64)
    low = _one_minus_ratio((bits - _EXP_ULPS).view(np.float64), p, q)
    high = _one_minus_ratio((bits + _EXP_ULPS).view(np.float64), p, q)
    result = _one_minus_ratio(e, p, q)
    unsure = low != result
    unsure |= high != result
    recompute = np.flatnonzero(unsure)
    if recompute.size:
        obs_metrics.incr("analytic.erf_recomputes", recompute.size)
        exact = np.fromiter(
            map(math.exp, exponent[recompute].tolist()), float, recompute.size
        )
        result[recompute] = _one_minus_ratio(exact, p[recompute], q[recompute])
    return result


def _one_minus_ratio(e: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``1 - (e * p) / q`` in Cephes's rounding order, in place on ``e``."""
    e *= p
    e /= q
    return np.subtract(1.0, e, out=e)


def _polevl(x: np.ndarray, coef: Sequence[float]) -> np.ndarray:
    """Cephes ``polevl``: Horner's rule from the leading coefficient."""
    ans = np.full_like(x, coef[0])
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef: Sequence[float]) -> np.ndarray:
    """Cephes ``p1evl``: :func:`_polevl` with an implied leading 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans
