"""Warm-up detection on a replication's daily series, which only the tests use."""

import numpy as np

from duogame.runner import COMPANIES, ReplicationOutput


def detect_warmup(rep: ReplicationOutput, rel_tol: float = 0.02,
                  stocks=("inv", "wip", "labor"), window: int = 5) -> int:
    """First day from which the monitored stocks stay within ``rel_tol`` of
    their terminal values.

    Series are smoothed with a trailing moving average first, the usual
    guard against day-level jitter in warm-up detection.
    """
    worst = 0
    kernel = np.ones(window) / window
    for name in stocks:
        arr = rep.series[name]
        for i in COMPANIES:
            x = np.convolve(arr[:, i], kernel, mode="valid")
            terminal = x[-1]
            scale = max(abs(terminal), 1e-12)
            dev = np.abs(x - terminal) / scale
            # last index that violates the band determines this series' warm-up
            bad = np.nonzero(dev > rel_tol)[0]
            first_ok = 0 if bad.size == 0 else int(bad[-1]) + window
            worst = max(worst, first_ok)
    return worst
