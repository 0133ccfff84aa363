"""The array form of the company and pricing steps, taken as
``runner._Rows`` takes it: the pairs of a pass stacked into one
:class:`PassParams` at one ``dt``, orders as (rows, 2) arrays, and each step
at the record's own ``p.dt`` under the numpy error state that ignores
floating-point errors, which a pass enters once."""

import numpy as np

from duogame.supply_chain import (
    ZERO_NOISE,
    PassParams,
    SDParams,
    step_company,
    step_pricing,
)


DT = 0.25


class ArrayPass:
    """The pass record ``p`` at ``DT`` of the company pairs ``pairs`` (pairs
    of :class:`SDParams`), one row per pair, and ``stacked``, the stacked
    :class:`SDParams` it was made from."""

    def __init__(self, pairs):
        self.stacked = SDParams.stacked(pairs, np.arange(len(pairs)))
        self.p = PassParams(self.stacked, DT)

    def step_company(self, state, orders, noise=ZERO_NOISE, ledger=None):
        """:func:`step_company` of the stacked ``state``; ``orders`` is
        broadcast to a (rows, 2) array."""
        orders = np.full(np.shape(state.wip), orders, dtype=float)
        with np.errstate(all="ignore"):
            return step_company(state, self.p, orders, noise, self.p.dt, ledger)

    def step_pricing(self, prices, mp, inv_covs, mp_bounds=None):
        """:func:`step_pricing` of (rows, 2) ``prices`` and ``inv_covs`` and
        (rows,) ``mp``, in place."""
        with np.errstate(all="ignore"):
            return step_pricing(prices, mp, self.p, inv_covs, self.p.dt, mp_bounds)
