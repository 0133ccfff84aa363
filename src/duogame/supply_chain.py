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
once (:meth:`SDState.stacked`, :meth:`SDParams.stacked`), every quantity
then a (rows, 2) array. Each has one body, :func:`_advance` and
:func:`_price`, in two forms: its clamps, minima, choices and powers are
plain-float operations, fastest for one pair, or numpy calls, which perform
the same operations in the same order, so a row's numbers do not depend on
the form that computed them.
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

# A stock less than this below zero after a step is zero: an outflow capped at
# ``stock / dt`` empties the stock only in exact arithmetic, a few ulp of the
# flows off (-2.2e-16 from a backlog of 1.79); 1e-9 covers flows up to 1e6 a day.
ROUNDING_SLACK = 1e-9


def _stacked(cls, pairs, index):
    """``pairs``, a sequence of pairs of ``cls`` records (:class:`SDParams`
    or :class:`SDState`), as one record of (rows, 2) float arrays, one row
    per entry of ``index``. A field that is None (``max_layoff_rate``) in
    every record stays None; otherwise None is held as +inf, which never
    caps."""
    def column(name):
        values = [[getattr(obj, name) for obj in pair] for pair in pairs]
        if all(v is None for pair in values for v in pair):
            return None
        return np.array([[math.inf if v is None else v for v in pair] for pair in values],
                        dtype=float)[index]
    return cls(**{f.name: column(f.name) for f in fields(cls)})


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

    stacked = classmethod(_stacked)


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

    stacked = classmethod(_stacked)

    def stocks(self) -> dict:
        return {name: getattr(self, name) for name in self.STOCK_FIELDS}


@dataclass
class FlowLedger:
    """Accumulates dt*(inflow - outflow) per stock for bookkeeping checks."""

    flows: dict = field(default_factory=dict)

    def add(self, stock: str, net_rate: float, dt: float):
        self.flows[stock] = self.flows.get(stock, 0.0) + net_rate * dt


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

    With a stacked ``state`` and ``p`` (:meth:`SDState.stacked`,
    :meth:`SDParams.stacked`), ``order_rate`` and the noise fields are
    (rows, 2) arrays (or scalars); every row advances, then the lowest
    inadmissible row raises with its own message and ``row`` set; a 0-d
    array ``dt`` saves numpy a conversion per operation.
    """
    if dt <= 0:
        raise ParameterError(f"dt must be > 0, got {dt}")
    if isinstance(p.cycle_time, np.ndarray):
        with np.errstate(all="ignore"):
            flows = _advance(state, p, order_rate, noise, dt, _ARRAYS)
            ok = _admissible(state)
            if not ok.all():
                ok = _settle(state, np.where)
        if not ok.all():
            row, company = divmod(int(np.argmin(ok.ravel())), 2)
            raise _stock_error({name: float(getattr(state, name)[row, company])
                                for name in SDState.STOCK_FIELDS}, row=row)
    else:
        flows = _advance(state, p, order_rate, noise, dt, _FLOATS)
        if not (_admissible(state) or _settle(state, _FLOATS.pick)):
            raise _stock_error(state.stocks())
    if ledger is not None:
        for name, net in zip(SDState.STOCK_FIELDS, flows):
            ledger.add(name, net, dt)
    return state


class _Ops(NamedTuple):
    """The operations of :func:`_advance` and :func:`_price` whose form
    depends on whether they step plain floats or (rows, 2) arrays; both
    forms give an element the same result, NaN included."""

    pos: Callable       # ``x if x > 0.0 else 0.0``
    lesser: Callable    # ``y if y < x else x``
    pick: Callable      # ``a if c else b``
    ratio: Callable     # ``a / b``, only where ``b == 0`` is not picked
    share: Callable     # ``lesser(1.0, pos(a / b))``, a zero ``b`` included
    some: Callable      # whether the condition holds for any element
    at_least: Callable  # ``lo if x < lo else x`` for a constant ``lo`` > 0
    power: Callable     # C ``pow(x, y)`` of a positive ``x``, an overflow +inf


def _pow(x, y):
    try:
        return pow(x, y)
    except OverflowError:
        return math.inf


def _share(a, b):
    if not b:       # IEEE ``a / 0.0``, as numpy divides: +-inf or NaN
        return 1.0 if a * math.copysign(1.0, b) > 0.0 else 0.0
    x = a / b
    return x if 0.0 < x < 1.0 else (1.0 if x >= 1.0 else 0.0)


_FLOATS = _Ops(pos=lambda x: x if x > 0.0 else 0.0,
               lesser=lambda x, y: y if y < x else x,
               pick=lambda c, a, b: a if c else b,
               ratio=lambda a, b: a / b if b else 0.0,
               share=_share,
               some=bool,
               at_least=lambda x, lo: lo if x < lo else x,
               power=_pow)
# 0-d constants spare numpy a conversion per call. ``fmax`` drops NaN for
# 0.0 and adding 0.0 turns its -0.0 into 0.0. ``minimum`` and ``maximum``
# keep NaN and part from ``lesser`` only on NaN and ties of signed zeros:
# ``share`` takes neither from ``pos``, ``at_least`` no zero bound.
# ``float_power`` calls C ``pow`` per element, where ``np.power`` rounds
# differently on a few percent of them
_ZERO, _ONE = np.array(0.0), np.array(1.0)
_ARRAYS = _Ops(pos=lambda x: np.fmax(x, _ZERO) + _ZERO,
               lesser=lambda x, y: np.where(y < x, y, x),
               pick=np.where,
               ratio=operator.truediv,
               share=lambda a, b: np.minimum(np.fmax(a / b, _ZERO) + _ZERO, _ONE),
               some=np.count_nonzero,
               at_least=np.maximum,
               power=np.float_power)


def _advance(s: SDState, p, order_rate, noise: NoiseDraws, dt: float,
             ops: _Ops) -> tuple:
    """The body of :func:`step_company`, unchecked: writes the stepped state
    to ``s`` and returns the seven net flows in ``SDState.STOCK_FIELDS``
    order. Both branches of a choice are computed, so each element of the
    array form rounds as its plain-float counterpart does; a branch that
    changes no element (the outflow rescale, the layoff cap) is skipped
    when no element takes it."""
    pos, lesser, pick, ratio, share, some = ops[:6]
    wip, inv, labor, vac = s.wip, s.inv, s.labor, s.vac
    backlog, rm_inv, rm_transit = s.backlog, s.rm_inv, s.rm_transit
    # each draw is added inside ``pos``, which maps -0.0 and NaN as it maps
    # their sums with 0.0, so the zero draws of ``ZERO_NOISE`` are not added
    quiet = noise is ZERO_NOISE
    order_r = pos(order_rate if quiet else order_rate + noise.order)

    # production: smoothed gap-closing toward desired inventory and WIP
    lam = p.lam_prod
    d_inv = (p.order_processing_time + p.safety_stock_cov) * order_r
    d_inv = pos(d_inv if quiet else d_inv + noise.inv)
    a_prod = lam * (d_inv - inv) / p.inv_fulfillment_time + (1.0 - lam) * s.a_prod
    lam = p.lam_wip
    d_wip = (a_prod + order_r) * p.cycle_time
    d_wip = pos(d_wip if quiet else d_wip + noise.wip)
    a_wip = lam * (d_wip - wip) / p.wip_fulfillment_time + (1.0 - lam) * s.a_wip
    d_prod_br = a_wip + a_prod + order_r
    d_prod_br = pos(d_prod_br if quiet else d_prod_br + noise.prod)

    # raw material sub-chain, mirroring finished-goods logistics with an
    # infinite upstream and a first-order transit delay
    rm_desired = p.rm_inventory_cov * d_prod_br
    rm_fulfill = pick(rm_desired > 0, share(rm_inv, rm_desired), 1.0)
    msr = lesser(d_prod_br * rm_fulfill, rm_inv / dt)
    # a first-order outflow ``stock / max(time, dt)`` is ``lesser(stock /
    # time, stock / dt)`` for every stock >= 0, -0.0 and NaN: division by a
    # positive number is monotone
    rm_arrival_r = rm_transit / pick(dt > p.rm_lead_time, dt, p.rm_lead_time)

    per_worker = p.labor_productivity * p.labor_hours
    prod_br = pos(lesser(lesser(labor * per_worker, msr), d_prod_br))
    prod_cr = wip / pick(dt > p.cycle_time, dt, p.cycle_time)
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
    hire_r = vac / pick(dt > p.vac_fulfillment_time, dt, p.vac_fulfillment_time)
    retire_r = labor / p.employment_time
    layoff_r = lesser(pos(-a_labor), labor / p.layoff_time)
    if p.max_layoff_rate is not None:     # stacked: +inf where uncapped
        layoff_r = lesser(layoff_r, p.max_layoff_rate)
    # the outflow may take at most the workforce on hand
    out = (retire_r + layoff_r) * dt
    over = out > labor
    if some(over):
        scale = ratio(labor, out)
        retire_r = pick(over, retire_r * scale, retire_r)
        layoff_r = pick(over, layoff_r * scale, layoff_r)

    # shipments with backlog clearance, limited by on-hand inventory; with
    # nothing desired (``d_inv`` is +0.0) the share is 1 if any stock is on
    # hand, else 0 (0 / 0 is NaN, which ``pos`` maps to 0)
    fulfill = share(inv, d_inv)
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


def _admissible(s: SDState):
    """Whether every stock of ``s`` is finite and non-negative, per row and
    company of a stacked ``s``, checked on one (7, rows, 2) stack of them."""
    if isinstance(s.wip, np.ndarray):
        stocks = np.array([getattr(s, name) for name in SDState.STOCK_FIELDS])
        # an axis-0 reduce adds in field order, as the chained sum below does
        return (stocks >= 0).all(0) & (abs(np.add.reduce(stocks, axis=0)) < math.inf)
    return ((s.wip >= 0) & (s.inv >= 0) & (s.labor >= 0) & (s.vac >= 0)
            & (s.backlog >= 0) & (s.rm_inv >= 0) & (s.rm_transit >= 0)
            & (abs(s.wip + s.inv + s.labor + s.vac + s.backlog + s.rm_inv
                   + s.rm_transit) < math.inf))


def _settle(s: SDState, pick):
    """Set each stock of ``s`` less than ``ROUNDING_SLACK`` below zero to
    0.0 and return :func:`_admissible` of the result."""
    for name in SDState.STOCK_FIELDS:
        x = getattr(s, name)
        setattr(s, name, pick((x < 0) & (x >= -ROUNDING_SLACK), 0.0, x))
    return _admissible(s)


def _stock_error(stocks: dict, row: int | None = None) -> StateError:
    """The error for the first non-finite or negative entry of ``stocks``."""
    for name, value in stocks.items():
        if not math.isfinite(value):
            return StateError(f"non-finite stock {name}: {value}", row=row)
        if value < 0:
            return StateError(f"negative stock {name}: {value}", row=row)
    return StateError("inadmissible state", row=row)


def _price_error(mp, prices, row: int | None = None) -> StateError:
    """The error for a market expected price ``mp`` that is not positive,
    else for the first of ``prices`` that is not finite and positive."""
    if mp <= 0:
        return StateError(f"market expected price must be > 0, got {mp}", row=row)
    price = next(x for x in prices if not 0.0 < x < math.inf)
    return StateError(f"inadmissible price: {price}", row=row)


def step_pricing(prices, mp, params, inv_covs, dt: float = 0.25,
                 mp_bounds: tuple | None = None) -> tuple:
    """Both companies' new prices and the new market expected price ``mp``.

    ``params`` and ``inv_covs`` are per-company pairs. A price is the
    market expected price times a cost multiplier (floored at 1e-9) and a
    coverage multiplier ``(cov / max_inv_cov) ** price_sens_invcov``, with
    ``cov`` floored at ``EPS_COVERAGE``; ``mp`` then moves toward the mean
    of the two prices, and ``mp_bounds`` clips it into a saturation band.
    Returns ``(prices, mp)`` and raises :class:`StateError` when ``mp`` is
    not positive or a new price is not finite and positive.

    With stacked ``params`` (:meth:`SDParams.stacked`), ``prices`` and
    ``inv_covs`` are (rows, 2) arrays and ``mp`` and both bounds (rows,)
    arrays; every row is updated, ``prices`` and ``mp`` in place, then the
    lowest inadmissible row raises with its own message and ``row`` set.
    """
    if dt <= 0:
        raise ParameterError(f"dt must be > 0, got {dt}")
    if not isinstance(params, SDParams):
        if mp <= 0:     # before ``unit_cost / mp`` can divide by zero
            raise _price_error(mp, ())
        new = (_price(mp, params[0], inv_covs[0], _FLOATS),
               _price(mp, params[1], inv_covs[1], _FLOATS))
        if not (0.0 < new[0] < math.inf and 0.0 < new[1] < math.inf):
            raise _price_error(mp, new)
        return new, _market_price(mp, new, params[0].mp_fulfillment_time, dt,
                                  mp_bounds, _FLOATS)
    with np.errstate(all="ignore"):
        new = _price(mp[:, None], params, inv_covs, _ARRAYS)
        new_mp = _market_price(mp, new.T, params.mp_fulfillment_time[:, 0], dt,
                               mp_bounds, _ARRAYS)
        # a price is mp times positive multipliers: not positive if mp <= 0
        ok = (new > 0.0) & (new < math.inf)
    try:
        if not ok.all():    # a reduction over the pair axis is slow: only here
            row = int(np.argmin(ok.all(axis=1)))
            raise _price_error(float(mp[row]), new[row].tolist(), row)
    finally:
        prices[...], mp[...] = new, new_mp
    return prices, mp


def _price(mp, p: SDParams, cov, ops: _Ops):
    """The body of :func:`step_pricing`: a company's price, unchecked."""
    f_cost = 1.0 + p.price_sens_cost * (p.unit_cost / mp - 1.0)
    f_cost = ops.at_least(f_cost, 1e-9)
    cov = ops.at_least(cov, EPS_COVERAGE)
    return mp * f_cost * ops.power(cov / p.max_inv_cov, p.price_sens_invcov)


def _market_price(mp, prices, time: float, dt: float, mp_bounds, ops: _Ops):
    """``mp`` after one step toward the mean of the pair ``prices`` with
    adjustment time ``time``, clipped into ``mp_bounds``."""
    mp = mp + dt * (((prices[0] + prices[1]) / 2.0 - mp) / time)
    if mp_bounds is not None:
        mp = ops.pick(mp_bounds[0] > mp, mp_bounds[0], mp)
        mp = ops.pick(mp_bounds[1] < mp, mp_bounds[1], mp)
    return mp


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

