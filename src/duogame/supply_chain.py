"""Discrete-time supply chain dynamics for one company.

One company's production, labor, logistics and pricing are modeled as a
stock-and-flow system integrated with forward Euler at a sub-daily step
(default dt = 0.25 days). Desired quantities are tracked with exponential
smoothing; actual rates are bottlenecked by workforce and raw-material
availability. Outflow rates are limited so that no stock can be driven
negative within a step, which keeps the bookkeeping identity

    stock(T) - stock(0) == sum over steps of dt * (inflow - outflow)

exact up to floating point.

:func:`step_company` and :func:`step_pricing` advance either one company
pair in plain floats (:class:`SDState`, :class:`SDParams`) or many pairs at
once (an :class:`SDState` from :meth:`SDState.stacked`, and
:class:`SDParamRows`), every quantity then a (rows, 2) array. The company
step has one body, :func:`_advance`, in two forms: it takes its clamps,
minima and choices as plain-float conditionals or as numpy calls, which
perform the same operations in the same order, so a row's numbers do not
depend on the form that computed them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from .errors import ParameterError, StateError

# Floor for inventory coverage before it enters the price multiplier, so a
# negative exponent never sees zero.
EPS_COVERAGE = 0.1


@dataclass
class SDParams:
    """All controllable and exogenous constants of one company's chain.

    Decision variables carry the ranges used in the experiments; the rest are
    documented defaults chosen so a zero-noise run settles within roughly
    40-50 days.
    """

    # manufacturing decision variables (days)
    vac_creation_time: float = 3.0      # smoothing time for vacancy adjustment
    layoff_time: float = 5.0            # average time to lay off labor
    labor_fulfillment_time: float = 8.0
    wip_fulfillment_time: float = 2.0

    # logistics decision variables (days)
    inv_fulfillment_time: float = 8.0
    rm_lead_time: float = 4.0           # raw material transportation lead time
    safety_stock_cov: float = 8.0
    rm_inventory_cov: float = 4.0

    # pricing decision variables
    price_sens_cost: float = 0.5        # in [0, 1]
    price_sens_invcov: float = -0.5     # in [-1, 0]
    mfg_price: float = 1.5              # manufacturer expected price, initial

    # expected times (days)
    cycle_time: float = 3.0             # manufacturing cycle time
    vac_fulfillment_time: float = 5.0   # average time to fill a vacancy
    employment_time: float = 200.0      # average employment duration
    order_processing_time: float = 2.0

    # workforce productivity
    labor_productivity: float = 0.5     # units per person-hour
    labor_hours: float = 8.0            # working hours per day

    # pricing constants
    unit_cost: float = 0.4              # unit production cost as seen by pricing
    max_inv_cov: float = 20.0           # inventory coverage capacity (days)
    mp_fulfillment_time: float = 20.0   # market expected price adjustment time
    # saturation band for the market expected price, as multiples of its
    # initial value; parameter corners whose pricing loop has no fixed point
    # would otherwise run away geometrically under inelastic total demand
    mp_floor_ratio: float = 0.2
    mp_cap_ratio: float = 5.0

    # exponential smoothing factors, in (0, 1]
    lam_wip: float = 0.5
    lam_prod: float = 0.5
    lam_labor: float = 0.5
    lam_vac: float = 0.5

    # noise standard deviations (units); zero disables the draw
    sigma_wip: float = 0.0
    sigma_prod: float = 0.0
    sigma_order: float = 0.0
    sigma_inv: float = 0.0

    # optional cap on the layoff rate (persons/day); None leaves it uncapped
    max_layoff_rate: float | None = None

    def validate(self):
        for name in ("vac_creation_time", "layoff_time", "labor_fulfillment_time",
                     "wip_fulfillment_time", "inv_fulfillment_time", "rm_lead_time",
                     "safety_stock_cov", "rm_inventory_cov", "cycle_time",
                     "vac_fulfillment_time", "employment_time", "order_processing_time",
                     "labor_productivity", "labor_hours", "max_inv_cov",
                     "mp_fulfillment_time"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be > 0, got {getattr(self, name)}")
        if not 0.0 <= self.price_sens_cost <= 1.0:
            raise ParameterError(f"price_sens_cost must be in [0, 1], got {self.price_sens_cost}")
        if not -1.0 <= self.price_sens_invcov <= 0.0:
            raise ParameterError(f"price_sens_invcov must be in [-1, 0], got {self.price_sens_invcov}")
        for name in ("lam_wip", "lam_prod", "lam_labor", "lam_vac"):
            lam = getattr(self, name)
            if not 0.0 < lam <= 1.0:
                raise ParameterError(f"{name} must be in (0, 1], got {lam}")
        for name in ("sigma_wip", "sigma_prod", "sigma_order", "sigma_inv"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0")
        if self.mfg_price <= 0:
            raise ParameterError("mfg_price must be > 0")
        if self.unit_cost < 0:
            raise ParameterError("unit_cost must be >= 0")
        if self.max_layoff_rate is not None and not self.max_layoff_rate >= 0:  # or NaN
            raise ParameterError("max_layoff_rate must be None or >= 0")
        return self

    @property
    def daily_capacity_per_worker(self) -> float:
        return self.labor_productivity * self.labor_hours


@dataclass
class NoiseDraws:
    """Per-day noise realizations added to desired quantities."""

    wip: float = 0.0
    prod: float = 0.0
    order: float = 0.0
    inv: float = 0.0


ZERO_NOISE = NoiseDraws()


@dataclass
class SDState:
    """What a company carries from one sub-step to the next: stocks,
    smoothed adjustments, the rates that are booked and the price inputs.

    Each field is a float for one company, or a (rows, 2) array, column
    ``i`` for company ``i``, for many replications' pairs
    (:meth:`stacked`).
    """

    # stocks
    wip: float = 0.0
    inv: float = 0.0
    labor: float = 0.0
    vac: float = 0.0
    backlog: float = 0.0
    rm_inv: float = 0.0          # raw material on hand
    rm_transit: float = 0.0      # raw material in transit from the supplier

    # exponentially smoothed adjustment terms (units/day, persons/day)
    a_wip: float = 0.0
    a_prod: float = 0.0
    a_labor: float = 0.0
    a_vac: float = 0.0

    # last computed rates (per day) and pricing inputs
    prod_br: float = 0.0
    ship_r: float = 0.0
    rm_order_r: float = 0.0
    inv_cov: float = 0.0
    price: float = 1.0

    STOCK_FIELDS = ("wip", "inv", "labor", "vac", "backlog", "rm_inv", "rm_transit")

    @classmethod
    def stacked(cls, pairs, index) -> "SDState":
        """The states of ``pairs``, a sequence of :class:`SDState` pairs, as
        one state of (rows, 2) arrays, one row per entry of ``index``."""
        return cls(**_tables(pairs, [f.name for f in fields(cls)], index))

    def stocks(self) -> dict:
        return {name: getattr(self, name) for name in self.STOCK_FIELDS}


@dataclass
class PricingState:
    """Market-level pricing co-state shared by the two companies."""

    mp: float                      # market expected price
    price_cr: float = 0.0          # last change rate of ``mp`` (per day)


@dataclass
class FlowLedger:
    """Accumulates dt*(inflow - outflow) per stock for bookkeeping checks."""

    flows: dict = field(default_factory=dict)

    def add(self, stock: str, net_rate: float, dt: float):
        self.flows[stock] = self.flows.get(stock, 0.0) + net_rate * dt


class SDParamRows:
    """:class:`SDParams` of many replications' company pairs, each field a
    (rows, 2) array; ``max_layoff_rate`` None is held as +inf, which never
    caps."""

    FIELDS = tuple(f.name for f in fields(SDParams))

    def __init__(self, pairs, index):
        """The parameters of ``pairs``, a sequence of :class:`SDParams`
        pairs, one row per entry of ``index``."""
        vars(self).update(_tables(pairs, self.FIELDS, index))
        # the coverage multiplier is a per-element C ``pow``: ``np.power``
        # rounds differently on a few percent of arguments
        self.invcov_exponents = self.price_sens_invcov.ravel().tolist()

    def truncate(self, rows: int) -> None:
        """Keep only the first ``rows`` rows."""
        for name in self.FIELDS:
            setattr(self, name, getattr(self, name)[:rows])
        self.invcov_exponents = self.invcov_exponents[:2 * rows]


def _tables(pairs, names, index) -> dict:
    """(len(index), 2) float arrays of the attributes ``names`` of the pairs
    ``pairs[index]``, None read as +inf."""
    def value(obj, name):
        v = getattr(obj, name)
        return math.inf if v is None else v
    return {name: np.array([[value(obj, name) for obj in pair] for pair in pairs],
                           dtype=float)[index]
            for name in names}


def step_company(state: SDState, p: SDParams, order_rate: float,
                 noise: NoiseDraws = ZERO_NOISE, dt: float = 0.25,
                 ledger: FlowLedger | None = None) -> SDState:
    """Advance ``state`` by one Euler sub-step of the full chain, in place.

    Every rate is computed from the start-of-step stocks, then all stocks
    are integrated together and checked, so one inadmissible stock raises
    :class:`StateError` on the sub-step that produced it. ``order_rate`` is
    the demand before noise; pricing is applied separately at the pair
    level by :func:`step_pricing`. ``p`` is trusted to be validated. Each
    adjuster closes its gap exponentially smoothed,
    ``lam * (desired - actual) / time + (1 - lam) * previous``, and
    shipments scale with the fulfillment ratio ``inv / d_inv`` clamped to
    [0, 1]. ``ledger`` books each stock's net flow. Returns ``state``.

    With an :class:`SDParamRows` ``p``, ``state`` is a stacked state and
    ``order_rate`` and the noise fields are (rows, 2) arrays (or scalars);
    every row advances, then the lowest inadmissible row raises with its
    own message and ``row`` set.
    """
    if dt <= 0:
        raise ParameterError(f"dt must be > 0, got {dt}")
    if isinstance(p, SDParamRows):
        with np.errstate(all="ignore"):
            flows = _advance(state, p, order_rate, noise, dt, _ARRAYS)
        _check_rows(state)
    else:
        flows = _advance(state, p, order_rate, noise, dt, _FLOATS)
        s = state
        if not (s.wip >= 0 and s.inv >= 0 and s.labor >= 0 and s.vac >= 0
                and s.backlog >= 0 and s.rm_inv >= 0 and s.rm_transit >= 0
                and math.isfinite(s.wip + s.inv + s.labor + s.vac + s.backlog
                                  + s.rm_inv + s.rm_transit)):
            raise _stock_error(state.stocks())
    if ledger is not None:
        for name, net in zip(SDState.STOCK_FIELDS, flows):
            ledger.add(name, net, dt)
    return state


class _Ops(NamedTuple):
    """The operations of :func:`_advance` whose form depends on whether it
    steps plain floats or (rows, 2) arrays; both forms give an element the
    same result, NaN included."""

    pos: Callable       # ``x if x > 0.0 else 0.0``
    lesser: Callable    # ``y if y < x else x``
    pick: Callable      # ``a if c else b``
    ratio: Callable     # ``a / b``, only where ``b == 0`` is not picked


_FLOATS = _Ops(pos=lambda x: x if x > 0.0 else 0.0,
               lesser=lambda x, y: y if y < x else x,
               pick=lambda c, a, b: a if c else b,
               ratio=lambda a, b: a / b if b else 0.0)
# ``fmax`` drops NaN for 0.0 and adding 0.0 turns its -0.0 into 0.0
_ARRAYS = _Ops(pos=lambda x: np.fmax(x, 0.0) + 0.0,
               lesser=lambda x, y: np.where(y < x, y, x),
               pick=np.where,
               ratio=operator.truediv)


def _advance(s: SDState, p, order_rate, noise: NoiseDraws, dt: float,
             ops: _Ops) -> tuple:
    """The body of :func:`step_company`, unchecked: writes the stepped state
    to ``s`` and returns the seven net flows in ``SDState.STOCK_FIELDS``
    order. Both branches of a choice are computed, so each element of the
    array form rounds as its plain-float counterpart does."""
    pos, lesser, pick, ratio = ops
    wip, inv, labor, vac = s.wip, s.inv, s.labor, s.vac
    backlog, rm_inv, rm_transit = s.backlog, s.rm_inv, s.rm_transit
    order_r = pos(order_rate + noise.order)

    # production: smoothed gap-closing toward desired inventory and WIP
    lam = p.lam_prod
    d_inv = pos((p.order_processing_time + p.safety_stock_cov) * order_r + noise.inv)
    a_prod = lam * (d_inv - inv) / p.inv_fulfillment_time + (1.0 - lam) * s.a_prod
    lam = p.lam_wip
    d_wip = pos((a_prod + order_r) * p.cycle_time + noise.wip)
    a_wip = lam * (d_wip - wip) / p.wip_fulfillment_time + (1.0 - lam) * s.a_wip
    d_prod_br = pos(a_wip + a_prod + order_r + noise.prod)

    # raw material sub-chain, mirroring finished-goods logistics with an
    # infinite upstream and a first-order transit delay
    rm_desired = p.rm_inventory_cov * d_prod_br
    rm_fulfill = pick(rm_desired > 0, lesser(1.0, pos(ratio(rm_inv, rm_desired))), 1.0)
    msr = lesser(d_prod_br * rm_fulfill, rm_inv / dt)
    rm_arrival_r = lesser(rm_transit / p.rm_lead_time, rm_transit / dt)

    per_worker = p.labor_productivity * p.labor_hours
    prod_br = pos(lesser(lesser(labor * per_worker, msr), d_prod_br))
    prod_cr = lesser(wip / p.cycle_time, wip / dt)
    # reorder to replace actual usage plus an inventory-gap correction
    rm_order_r = pos(prod_br + (rm_desired - rm_inv) / p.rm_lead_time)

    # labor chain
    lam = p.lam_labor
    a_labor = (lam * (d_prod_br / per_worker - labor) / p.labor_fulfillment_time
               + (1.0 - lam) * s.a_labor)
    d_vac = pos(p.vac_fulfillment_time * a_labor)
    lam = p.lam_vac
    a_vac = lam * (d_vac - vac) / p.vac_creation_time + (1.0 - lam) * s.a_vac
    vac_br = pos(a_labor + a_vac)
    hire_r = lesser(vac / p.vac_fulfillment_time, vac / dt)
    retire_r = labor / p.employment_time
    layoff_r = lesser(pos(-a_labor), labor / p.layoff_time)
    if p.max_layoff_rate is not None:     # the array form holds None as +inf
        layoff_r = lesser(layoff_r, p.max_layoff_rate)
    # the outflow may take at most the workforce on hand
    out = (retire_r + layoff_r) * dt
    over = out > labor
    scale = ratio(labor, out)
    retire_r = pick(over, retire_r * scale, retire_r)
    layoff_r = pick(over, layoff_r * scale, layoff_r)

    # shipments with backlog clearance, limited by on-hand inventory
    fulfill = pick(d_inv > 0, lesser(1.0, pos(ratio(inv, d_inv))),
                   pick(inv > 0, 1.0, 0.0))
    x = (order_r + backlog / p.order_processing_time) * fulfill
    ship_r = pos(lesser(lesser(x, inv / dt), order_r + backlog / dt))

    flows = (prod_br - prod_cr, prod_cr - ship_r, hire_r - retire_r - layoff_r,
             vac_br - hire_r, order_r - ship_r, rm_arrival_r - prod_br,
             rm_order_r - rm_arrival_r)
    s.wip = wip + dt * flows[0]
    s.inv = inv = inv + dt * flows[1]
    s.labor = labor + dt * flows[2]
    s.vac = vac + dt * flows[3]
    s.backlog = backlog + dt * flows[4]
    s.rm_inv = rm_inv + dt * flows[5]
    s.rm_transit = rm_transit + dt * flows[6]
    s.a_prod, s.a_wip, s.a_labor, s.a_vac = a_prod, a_wip, a_labor, a_vac
    s.prod_br, s.ship_r, s.rm_order_r = prod_br, ship_r, rm_order_r
    # idle line: coverage pegged to capacity
    s.inv_cov = pick(ship_r > 0, ratio(inv, ship_r), p.max_inv_cov)
    return flows


def _check_rows(s: SDState) -> None:
    """Raise :class:`StateError` for the lowest row of the stacked ``s``
    holding an inadmissible stock, with the row's own message and ``row``
    set."""
    with np.errstate(all="ignore"):
        ok = ((s.wip >= 0) & (s.inv >= 0) & (s.labor >= 0) & (s.vac >= 0)
              & (s.backlog >= 0) & (s.rm_inv >= 0) & (s.rm_transit >= 0)
              & np.isfinite(s.wip + s.inv + s.labor + s.vac + s.backlog
                            + s.rm_inv + s.rm_transit))
    if ok.all():
        return
    row, company = divmod(int(np.argmin(ok.ravel())), 2)
    raise _stock_error({name: float(getattr(s, name)[row, company])
                        for name in SDState.STOCK_FIELDS}, row=row)


def _stock_error(stocks: dict, row: int | None = None) -> StateError:
    """The error for the first non-finite or negative entry of ``stocks``."""
    for name, value in stocks.items():
        if not math.isfinite(value):
            return StateError(f"non-finite stock {name}: {value}", row=row)
        if value < 0:
            return StateError(f"negative stock {name}: {value}", row=row)
    return StateError("inadmissible state", row=row)


def step_pricing(prices: tuple, shared: PricingState, params: tuple,
                 inv_covs: tuple, dt: float = 0.25,
                 mp_bounds: tuple | None = None) -> tuple:
    """Update both prices and, in place, the market expected price.

    ``params`` and ``inv_covs`` are per-company pairs. A price is the
    market expected price times a cost multiplier (floored at 1e-9) and a
    coverage multiplier ``(cov / max_inv_cov) ** price_sens_invcov``, with
    ``cov`` floored at ``EPS_COVERAGE``. ``mp_bounds`` clips the market
    expected price into a saturation band. Returns ``(new_prices, shared)``
    and raises :class:`StateError` when a new price is not finite and
    positive.

    With :class:`SDParamRows` ``params``, ``prices`` and ``inv_covs`` are
    (rows, 2) arrays and ``shared.mp`` and both bounds (rows,) arrays;
    every row is updated, ``prices`` in place, then the lowest inadmissible
    row raises with its own message and ``row`` set.
    """
    if dt <= 0:
        raise ParameterError(f"dt must be > 0, got {dt}")
    if isinstance(params, SDParamRows):
        return _price_rows(prices, shared, params, inv_covs, dt, mp_bounds)
    mp = shared.mp
    if mp <= 0:
        raise StateError(f"market expected price must be > 0, got {mp}")
    new_prices = []
    for p, cov in zip(params, inv_covs):
        f_cost = 1.0 + p.price_sens_cost * (p.unit_cost / mp - 1.0)
        if f_cost < 1e-9:
            f_cost = 1e-9
        if cov < EPS_COVERAGE:
            cov = EPS_COVERAGE
        price = mp * f_cost * (cov / p.max_inv_cov) ** p.price_sens_invcov
        if not 0.0 < price < math.inf:
            raise StateError(f"inadmissible price: {price}")
        new_prices.append(price)
    price_cr = ((new_prices[0] + new_prices[1]) / 2.0 - mp) / params[0].mp_fulfillment_time
    mp = mp + dt * price_cr
    if mp_bounds is not None:
        if mp_bounds[0] > mp:
            mp = mp_bounds[0]
        if mp_bounds[1] < mp:
            mp = mp_bounds[1]
    shared.mp, shared.price_cr = mp, price_cr
    return tuple(new_prices), shared


def _price_rows(prices, shared: PricingState, p: SDParamRows, inv_covs,
                dt: float, mp_bounds) -> tuple:
    """:func:`step_pricing` over every row at once, in the scalar step's
    operations and order."""
    where = np.where
    mp = shared.mp
    with np.errstate(all="ignore"):
        m = mp[:, None]
        f_cost = 1.0 + p.price_sens_cost * (p.unit_cost / m - 1.0)
        f_cost = where(f_cost < 1e-9, 1e-9, f_cost)
        cov = where(inv_covs < EPS_COVERAGE, EPS_COVERAGE, inv_covs)
        base = (cov / p.max_inv_cov).ravel().tolist()
        f_invcov = np.array(list(map(pow, base, p.invcov_exponents)))
        new = m * f_cost * f_invcov.reshape(cov.shape)
        price_cr = ((new[:, 0] + new[:, 1]) / 2.0 - mp) / p.mp_fulfillment_time[:, 0]
        new_mp = mp + dt * price_cr
        if mp_bounds is not None:
            new_mp = where(mp_bounds[0] > new_mp, mp_bounds[0], new_mp)
            new_mp = where(mp_bounds[1] < new_mp, mp_bounds[1], new_mp)
        ok = (new > 0.0) & (new < math.inf)
    prices[...] = new
    shared.mp, shared.price_cr = new_mp, price_cr
    bad = (mp <= 0) | ~ok.all(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        if mp[row] <= 0:
            message = f"market expected price must be > 0, got {float(mp[row])}"
        else:
            message = f"inadmissible price: {float(new[row, int(np.argmin(ok[row]))])}"
        raise StateError(message, row=row)
    return prices, shared


def steady_state(p: SDParams, order_rate: float) -> SDState:
    """Exact fixed point of the chain under a constant noise-free order rate.

    The workforce bleeds through retirement, so the stationary solution keeps
    a small persistent production-desire margin and backlog; every stock and
    every smoothed adjuster is stationary under :func:`step_company`.
    """
    if order_rate <= 0:
        raise ParameterError("order_rate must be > 0")
    a = p.daily_capacity_per_worker
    labor = order_rate / a
    a_labor = labor / p.employment_time
    vac = p.vac_fulfillment_time * labor / p.employment_time

    margin = order_rate * p.labor_fulfillment_time / p.employment_time
    a_prod = margin * p.wip_fulfillment_time / (p.wip_fulfillment_time + p.cycle_time)
    a_wip = a_prod * p.cycle_time / p.wip_fulfillment_time
    d_prod_br = order_rate + margin

    d_inv = (p.order_processing_time + p.safety_stock_cov) * order_rate
    inv = d_inv - a_prod * p.inv_fulfillment_time
    if inv <= 0:
        raise ParameterError("no stationary inventory for these parameters "
                             "(adjustment margin exceeds desired inventory)")
    backlog = p.order_processing_time * order_rate * (d_inv - inv) / inv

    state = SDState(
        wip=order_rate * p.cycle_time,
        inv=inv,
        labor=labor,
        vac=vac,
        backlog=backlog,
        rm_inv=p.rm_inventory_cov * d_prod_br,
        rm_transit=order_rate * p.rm_lead_time,
        a_wip=a_wip, a_prod=a_prod, a_labor=a_labor, a_vac=0.0,
        prod_br=order_rate, ship_r=order_rate, rm_order_r=order_rate,
        inv_cov=inv / order_rate, price=p.mfg_price,
    )
    return state

