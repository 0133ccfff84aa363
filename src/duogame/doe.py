"""Experimental designs and main-effect significance screening.

Strategy sets are built from 16-run designs: a full two-level factorial up
to four factors, regular fractional factorials for five to eight two-level
factors, and an orthogonal array (strength 2, from the Galois-field
construction) for up to five four-level factors. Main effects are the
high-minus-low payoff contrast per factor, tested with a Welch statistic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DesignError
from .stats import t_test

# generators for 16-run two-level designs: extra columns as products of the
# four base columns (1-indexed into A, B, C, D)
_FRACTION_GENERATORS = {
    5: [(0, 1, 2, 3)],                       # E = ABCD
    6: [(0, 1, 2), (1, 2, 3)],               # E = ABC, F = BCD
    7: [(0, 1, 2), (1, 2, 3), (0, 2, 3)],
    8: [(0, 1, 2), (1, 2, 3), (0, 2, 3), (0, 1, 3)],
}


def two_level_design(k: int) -> np.ndarray:
    """Level codes in {0, 1}, one row per run, one column per factor.

    Full factorial while ``2**k`` fits in the 16 runs, so up to four
    factors; a regular 16-run fraction for five to eight factors.
    """
    if k < 1:
        raise DesignError("need at least one factor")
    if 2 ** k <= 16:
        rows = 1 << k
        design = np.zeros((rows, k), dtype=np.int8)
        for r in range(rows):
            for c in range(k):
                design[r, c] = (r >> (k - 1 - c)) & 1
        return design
    if k > 8:
        raise DesignError(
            f"{k} two-level factors exceed the 16-run design budget")
    base = two_level_design(4)
    cols = [base[:, i] for i in range(4)]
    for gen in _FRACTION_GENERATORS[k]:
        col = np.zeros(16, dtype=np.int8)
        for idx in gen:
            col ^= cols[idx]
        cols.append(col)
    return np.column_stack(cols)


def _gf4_mul(a: int, b: int) -> int:
    # GF(4) as {0, 1, x, x+1} with x^2 = x + 1, coded 0..3
    table = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))
    return table[a][b]


def four_level_design(k: int) -> np.ndarray:
    """16-run orthogonal array with up to five four-level columns.

    Columns are i, j, i+j, i+ax*j, i+ax^2*j over GF(4); every pair of
    columns hits each of the 16 level combinations exactly once.
    """
    if not 1 <= k <= 5:
        raise DesignError("four-level designs support 1 to 5 factors in 16 runs")
    if k == 1:
        return np.arange(4, dtype=np.int8).reshape(4, 1)
    rows = []
    for i in range(4):
        for j in range(4):
            row = [i, j, i ^ j, i ^ _gf4_mul(2, j), i ^ _gf4_mul(3, j)]
            rows.append(row[:k])
    return np.array(rows, dtype=np.int8)


def design_for(k: int, levels: int) -> np.ndarray:
    """Level codes for ``k`` factors at two or four levels: at most 16 runs,
    one per strategy."""
    if levels == 2:
        return two_level_design(k)
    if levels == 4:
        return four_level_design(k)
    raise DesignError(f"unsupported level count {levels}")


@dataclass
class FactorEffect:
    name: str
    effect: float          # mean(high) - mean(low)
    p_value: float
    significant: bool


def doe_significance(design, responses, alpha: float = 0.05,
                     factor_names=None) -> list:
    """Main effect and Welch significance per two-level factor.

    ``design`` holds level codes {0, 1} per observation and factor;
    ``responses`` one value per observation. Every factor must be observed
    at both levels.
    """
    design = np.asarray(design)
    responses = np.asarray(responses, dtype=float)
    if design.ndim != 2 or design.shape[0] != responses.size:
        raise DesignError("design and responses are misaligned")
    if design.shape[0] < 4:
        raise DesignError("too few observations for effect screening")
    n_factors = design.shape[1]
    if factor_names is None:
        factor_names = [f"f{i}" for i in range(n_factors)]
    out = []
    for j in range(n_factors):
        col = design[:, j]
        high = responses[col == col.max()]
        low = responses[col == col.min()]
        if col.max() == col.min() or high.size < 2 or low.size < 2:
            raise DesignError(
                f"factor {factor_names[j]} lacks two-level coverage")
        effect = float(high.mean() - low.mean())
        p = t_test(high, low)
        out.append(FactorEffect(name=factor_names[j], effect=effect,
                                p_value=p, significant=p < alpha))
    return out
