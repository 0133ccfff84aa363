"""Sampling statistics: trimming, confidence intervals, Welch tests and the
value-of-information stopping rule for sample allocation.

The t and normal quantiles and tail probabilities come from the
``scipy.special`` functions that ``scipy.stats`` evaluates them with
(``stdtr``, ``stdtrit``, ``ndtri``), which spares every process the import
of ``scipy.stats``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri, stdtr, stdtrit

from .errors import InsufficientDataError, ParameterError


def trim_samples(samples, k_per_tail: int):
    """Drop the k smallest and k largest values (sorted output)."""
    arr = np.sort(np.asarray(samples, dtype=float))
    k = int(k_per_tail)
    if k < 0:
        raise ParameterError("trim count must be >= 0")
    if arr.size <= 2 * k:
        raise ParameterError(
            f"cannot trim {k} per tail from {arr.size} samples")
    return arr[k:arr.size - k] if k else arr


def confidence_interval(samples, alpha: float = 0.05):
    """Mean and t-based half-width; returns ``(mean, half_width)``."""
    arr = np.asarray(samples, dtype=float)
    if arr.size < 2:
        raise InsufficientDataError("confidence interval needs n >= 2")
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1))
    t_crit = float(stdtrit(arr.size - 1, 1.0 - alpha / 2.0))
    return mean, t_crit * sd / math.sqrt(arr.size)


def t_test(a, b, alternative: str = "two-sided") -> float:
    """Welch two-sample test p-value.

    ``alternative`` is ``two-sided`` or ``less`` (mean of ``a`` below mean of
    ``b``). Identical zero-variance samples give t = 0 rather than NaN.
    """
    if alternative not in ("two-sided", "less"):
        raise ParameterError(f"unknown alternative {alternative!r}")
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.size < 2 or y.size < 2:
        raise InsufficientDataError("t-test needs n >= 2 per sample")
    vx = x.var(ddof=1) / x.size
    vy = y.var(ddof=1) / y.size
    se2 = vx + vy
    if se2 == 0.0:
        t_stat = 0.0 if x.mean() == y.mean() else math.copysign(math.inf,
                                                                x.mean() - y.mean())
        df = x.size + y.size - 2
    else:
        t_stat = (x.mean() - y.mean()) / math.sqrt(se2)
        df = se2 ** 2 / (vx ** 2 / (x.size - 1) + vy ** 2 / (y.size - 1))
    if alternative == "two-sided":
        return float(2.0 * stdtr(df, -abs(t_stat)))
    return float(stdtr(df, t_stat))


def ecvi_gain_limit(n_current: int, sample_std: float,
                    alpha: float = 0.05) -> float:
    """Expected reduction of the payoff-estimate error from all remaining
    information.

    Normal-model proxy: q more samples shrink the confidence half-width
    from z*s/sqrt(p) to z*s/sqrt(p+q); as q grows the gain tends to the
    whole of z*s/sqrt(p).
    """
    if n_current < 2:
        raise InsufficientDataError("need at least 2 samples to estimate gain")
    z = float(ndtri(1.0 - alpha / 2.0))
    return z * sample_std / math.sqrt(n_current)


def decide_sample_size(n_current: int, sample_std: float, gain_floor: float,
                       cap: int, batch: int = 10, alpha: float = 0.05) -> int:
    """Total sample size under the value-of-information stopping rule.

    Batches keep being added while the remaining information gain sits at or
    above ``gain_floor``; the total never exceeds ``cap``. A zero floor
    always exhausts the cap.
    """
    if n_current < 1:
        raise ParameterError("current sample count must be >= 1")
    if cap < n_current:
        raise ParameterError("cap must be at least the current sample count")
    if batch < 1:
        raise ParameterError("batch must be >= 1")
    total = n_current
    while total < cap:
        remaining = ecvi_gain_limit(max(total, 2), sample_std, alpha)
        if remaining < gain_floor:
            break
        total = min(total + batch, cap)
    return total
