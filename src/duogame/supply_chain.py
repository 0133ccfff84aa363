"""Discrete-time supply chain dynamics for one company.

One company's production, labor, logistics and pricing are modeled as a
stock-and-flow system integrated with forward Euler at a sub-daily step
(default dt = 0.25 days). Desired quantities are tracked with exponential
smoothing; actual rates are bottlenecked by workforce and raw-material
availability. Outflow rates are limited so that no stock can be driven
negative within a step, which keeps the bookkeeping identity

    stock(T) - stock(0) == sum over steps of dt * (inflow - outflow)

exact up to floating point.

:func:`step_company` and :func:`step_pricing` take one of two forms: a
company pair in plain floats, each company an :class:`SDState` with its
:class:`SDParams`; or a pass's stacked :class:`SDState`
(:meth:`SDState.stacked`) with its :class:`PassParams`, every quantity a
(rows, 2) array, stepped at the record's own ``dt`` in the caller's numpy
error state. Each step has one body, :func:`_advance` and :func:`_price`,
whose clamps, minima, choices, powers and stock blocks are plain-float
operations, fastest for one pair, or numpy calls, which perform the same
operations in the same order, so a row's numbers do not depend on the form
that computed them.
"""

from __future__ import annotations

import math
import operator
import sys
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
            if not getattr(self, name) > 0:     # or NaN
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
            if not getattr(self, name) >= 0:
                raise ParameterError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.mfg_price > 0:
            raise ParameterError(f"mfg_price must be > 0, got {self.mfg_price}")
        if not self.unit_cost >= 0:
            raise ParameterError(f"unit_cost must be >= 0, got {self.unit_cost}")
        if self.max_layoff_rate is not None and not self.max_layoff_rate >= 0:  # or NaN
            raise ParameterError("max_layoff_rate must be None or >= 0")
        # the band clamps with ``maximum`` and ``minimum``, which agree with the
        # plain-float comparisons only for bounds that are positive, not NaN
        if not self.mp_floor_ratio > 0:
            raise ParameterError(f"mp_floor_ratio must be > 0, got {self.mp_floor_ratio}")
        if not self.mp_cap_ratio >= self.mp_floor_ratio:
            raise ParameterError(f"mp_cap_ratio must be >= mp_floor_ratio "
                                 f"({self.mp_floor_ratio}), got {self.mp_cap_ratio}")
        # an infinity here makes a stock or the price non-finite on day 0 or
        # 1, or leaves no steady state; the other times and rates run on
        for name in ("labor_fulfillment_time", "wip_fulfillment_time",
                     "inv_fulfillment_time", "rm_lead_time", "safety_stock_cov",
                     "rm_inventory_cov", "cycle_time", "vac_fulfillment_time",
                     "order_processing_time", "mfg_price", "unit_cost", "max_inv_cov",
                     "sigma_wip", "sigma_prod", "sigma_order", "sigma_inv"):
            if getattr(self, name) == math.inf:
                raise ParameterError(f"{name} must be finite, got inf")
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


class PassParams:
    """A stacked :class:`SDParams` (:meth:`SDParams.stacked`) made ready for
    the sub-steps of one pass at one ``dt``: the fields the array body reads,
    each a (rows, 2) array (``max_layoff_rate`` None when no row caps its
    layoffs), the terms that depend on the parameters and ``dt`` alone
    (:func:`_terms`), company 0's market-price adjustment time ``mp_time``,
    a (rows,) array, and ``dt``, a 0-d array.

    :func:`step_company` and :func:`step_pricing` step a pass record at its
    own ``dt`` (pass ``p.dt``) and in the caller's numpy error state, which
    is to ignore floating-point errors (``runner._run_rows`` enters that
    state once per pass).
    """

    FIELDS = ("lam_prod", "lam_wip", "lam_labor", "lam_vac", "inv_fulfillment_time",
              "cycle_time", "wip_fulfillment_time", "rm_inventory_cov", "rm_lead_time",
              "labor_fulfillment_time", "vac_fulfillment_time", "vac_creation_time",
              "layoff_time", "max_layoff_rate", "order_processing_time", "max_inv_cov",
              "price_sens_cost", "unit_cost", "price_sens_invcov")

    def __init__(self, p: SDParams, dt: float, index=slice(None)):
        """The record of rows ``index`` of ``p``: every array is formed on
        ``p``'s rows (one per distinct pair, for a pass) and taken to the
        pass's rows once."""
        if not dt > 0:
            raise ParameterError(f"dt must be > 0, got {dt}")
        for name in self.FIELDS:
            value = getattr(p, name)
            setattr(self, name, None if value is None else value[index])
        self.mp_time = p.mp_fulfillment_time[index, 0]
        # a 0-d array spares numpy converting a float in every operation
        self.dt = np.array(dt, dtype=float)
        *terms, delays = _terms(p, self.dt, np.where)
        self.terms = (*(term[index] for term in terms), np.array(delays)[:, index])


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

    With a stacked ``state`` (:meth:`SDState.stacked`) and a
    :class:`PassParams` ``p`` with ``dt`` its ``p.dt``, ``order_rate`` and
    the noise fields are (rows, 2) arrays; every row advances, then the
    lowest inadmissible row raises with its own message and ``row`` set.
    """
    if isinstance(p, PassParams):
        if dt is not p.dt:
            raise ParameterError("a pass record steps at its own dt, p.dt")
        stocks, flows = _advance(state, p, p.terms, order_rate, noise, dt, _ARRAYS)
        # one test of the whole block; the per-row mask only if it fails
        if not (stocks.min() >= 0.0 and stocks.max() < _SUM_BOUND):
            ok = _admissible(stocks)
            if not ok.all():
                ok = _settle(state, stocks)
                if not ok.all():
                    row, company = divmod(int(np.argmin(ok.ravel())), 2)
                    raise _stock_error({name: float(getattr(state, name)[row, company])
                                        for name in SDState.STOCK_FIELDS}, row=row)
    elif not dt > 0:    # NaN included
        raise ParameterError(f"dt must be > 0, got {dt}")
    else:
        stocks, flows = _advance(state, p, _terms(p, dt, _FLOATS.pick), order_rate,
                                 noise, dt, _FLOATS)
        if not (_admissible(stocks) or _settle(state, stocks)):
            raise _stock_error(state.stocks())
    if ledger is not None:
        for name, net in zip(_BLOCK, flows):
            ledger.add(name, net, dt)
    return state


# The order of a company's stocks in the blocks that :func:`_advance` divides,
# integrates and returns: first the three that a sub-step divides by ``dt``,
# then the four in its ``delays`` (:func:`_terms`)
_BLOCK = ("inv", "backlog", "rm_inv", "wip", "labor", "vac", "rm_transit")

# seven stocks in [0, _SUM_BOUND) have a finite sum, however it rounds
_SUM_BOUND = sys.float_info.max / 8


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
    at_least: Callable  # ``lo if x < lo else x`` for a bound ``lo`` > 0
    at_most: Callable   # ``hi if x > hi else x`` for a bound ``hi`` > 0
    neg_part: Callable  # ``pos(-x)``
    power: Callable     # C ``pow(x, y)`` of an ``x`` >= +0.0, an overflow +inf
    # a company's seven stocks in ``_BLOCK`` order to ``(stocks, per_day)``:
    # the stocks as one block, and the first three divided by ``dt``, the
    # last four by ``delays``
    per_day: Callable
    # the stocks and net flows ``ins - outs``, in ``_BLOCK`` order, to
    # ``(stocks + dt * flows, flows)``
    integrate: Callable


def _pow(x, y):
    try:
        return pow(x, y)
    except (OverflowError, ZeroDivisionError):  # C ``pow(0.0, y < 0)`` is +inf
        return math.inf


def _share(a, b):
    if not b:       # IEEE ``a / 0.0``, as numpy divides: +-inf or NaN
        return 1.0 if a * math.copysign(1.0, b) > 0.0 else 0.0
    x = a / b
    return x if 0.0 < x < 1.0 else (1.0 if x >= 1.0 else 0.0)


def _per_day(stocks, delays, dt):
    x0, x1, x2, x3, x4, x5, x6 = stocks
    d3, d4, d5, d6 = delays
    return stocks, (x0 / dt, x1 / dt, x2 / dt, x3 / d3, x4 / d4, x5 / d5, x6 / d6)


def _per_day_block(stocks, delays, dt):
    stocks = np.array(stocks)
    return stocks, (*(stocks[:3] / dt), *(stocks[3:] / delays))


def _integrate(stocks, ins, outs, dt):
    x0, x1, x2, x3, x4, x5, x6 = stocks
    a0, a1, a2, a3, a4, a5, a6 = ins
    b0, b1, b2, b3, b4, b5, b6 = outs
    f0, f1, f2, f3, f4, f5, f6 = flows = (a0 - b0, a1 - b1, a2 - b2, a3 - b3, a4 - b4,
                                          a5 - b5, a6 - b6)
    return (x0 + dt * f0, x1 + dt * f1, x2 + dt * f2, x3 + dt * f3, x4 + dt * f4,
            x5 + dt * f5, x6 + dt * f6), flows


def _integrate_block(stocks, ins, outs, dt):
    # in place, ``stocks`` (the sub-step's own copy) becoming the stepped
    # block, so that a sub-step allocates three (7, rows, 2) blocks, not five;
    # an IEEE sum or product does not depend on the order of its two terms
    flows, scratch = np.array(ins), np.array(outs)
    np.subtract(flows, scratch, out=flows)
    np.multiply(flows, dt, out=scratch)
    np.add(stocks, scratch, out=stocks)
    return stocks, flows


_FLOATS = _Ops(pos=lambda x: x if x > 0.0 else 0.0,
               lesser=lambda x, y: y if y < x else x,
               pick=lambda c, a, b: a if c else b,
               ratio=lambda a, b: a / b if b else 0.0,
               share=_share,
               some=bool,
               at_least=lambda x, lo: lo if x < lo else x,
               at_most=lambda x, hi: hi if x > hi else x,
               neg_part=lambda x: -x if -x > 0.0 else 0.0,
               power=_pow,
               per_day=_per_day,
               integrate=_integrate)
# 0-d constants spare numpy a conversion per call. ``fmax`` drops NaN for
# 0.0 and adding 0.0 turns its -0.0 into 0.0. ``minimum`` and ``maximum``
# keep NaN and part from ``lesser`` only on NaN and ties of signed zeros:
# ``share`` takes neither from ``pos``, ``at_least`` and ``at_most`` no zero
# or NaN bound. ``0.0 - fmin(x, 0.0)`` is +0.0 for x >= -0.0 and NaN, as
# ``pos(-x)`` is, and -x below. ``float_power`` calls C ``pow`` per element,
# where ``np.power`` rounds differently on a few percent of them.
# ``per_day`` and ``integrate`` take the element-wise float operations of
# the plain-float form on (7, rows, 2) blocks
_ZERO, _ONE = np.array(0.0), np.array(1.0)
_ARRAYS = _Ops(pos=lambda x: np.fmax(x, _ZERO) + _ZERO,
               lesser=lambda x, y: np.where(y < x, y, x),
               pick=np.where,
               ratio=operator.truediv,
               share=lambda a, b: np.minimum(np.fmax(a / b, _ZERO) + _ZERO, _ONE),
               some=np.count_nonzero,
               at_least=np.maximum,
               at_most=np.minimum,
               neg_part=lambda x: _ZERO - np.fmin(x, _ZERO),
               power=np.float_power,
               per_day=_per_day_block,
               integrate=_integrate_block)


def _terms(p, dt, pick) -> tuple:
    """The terms of :func:`_advance` that depend on ``p`` and ``dt`` alone:
    the four ``1 - lam``, the desired inventory cover, the daily capacity per
    worker, and ``delays``, what the WIP, labor, vacancy and raw-material
    transit stocks are divided by for their outflows."""
    # a first-order outflow ``stock / max(time, dt)`` is ``lesser(stock /
    # time, stock / dt)`` for every stock >= 0, -0.0 and NaN: division by a
    # positive number is monotone
    return (1.0 - p.lam_prod, 1.0 - p.lam_wip, 1.0 - p.lam_labor, 1.0 - p.lam_vac,
            p.order_processing_time + p.safety_stock_cov,
            p.labor_productivity * p.labor_hours,
            (pick(dt > p.cycle_time, dt, p.cycle_time), p.employment_time,
             pick(dt > p.vac_fulfillment_time, dt, p.vac_fulfillment_time),
             pick(dt > p.rm_lead_time, dt, p.rm_lead_time)))


def _advance(s: SDState, p, terms: tuple, order_rate, noise: NoiseDraws, dt: float,
             ops: _Ops) -> tuple:
    """The body of :func:`step_company`, unchecked: writes the stepped state
    to ``s`` and returns its seven stocks, as :func:`_admissible` takes
    them, and net flows, both in ``_BLOCK`` order. ``terms`` are
    :func:`_terms` of ``p`` and ``dt``. Both branches of a choice are
    computed, so each element of the array form rounds as its plain-float
    counterpart does; a branch that changes no element (the outflow rescale,
    the layoff cap) is skipped when no element takes it."""
    pos, lesser, pick, ratio, share, some = ops[:6]
    keep_prod, keep_wip, keep_labor, keep_vac, cover, per_worker, delays = terms
    wip, inv, labor, vac = s.wip, s.inv, s.labor, s.vac
    backlog, rm_inv, rm_transit = s.backlog, s.rm_inv, s.rm_transit
    stocks, per_day = ops.per_day((inv, backlog, rm_inv, wip, labor, vac, rm_transit),
                                  delays, dt)
    inv_dt, backlog_dt, rm_inv_dt, prod_cr, retire_r, hire_r, rm_arrival_r = per_day
    # each draw is added inside ``pos``, which maps -0.0 and NaN as it maps
    # their sums with 0.0, so the zero draws of ``ZERO_NOISE`` are not added
    quiet = noise is ZERO_NOISE
    order_r = pos(order_rate if quiet else order_rate + noise.order)

    # production: smoothed gap-closing toward desired inventory and WIP
    d_inv = cover * order_r
    d_inv = pos(d_inv if quiet else d_inv + noise.inv)
    a_prod = p.lam_prod * (d_inv - inv) / p.inv_fulfillment_time + keep_prod * s.a_prod
    d_wip = (a_prod + order_r) * p.cycle_time
    d_wip = pos(d_wip if quiet else d_wip + noise.wip)
    a_wip = p.lam_wip * (d_wip - wip) / p.wip_fulfillment_time + keep_wip * s.a_wip
    d_prod_br = a_wip + a_prod + order_r
    d_prod_br = pos(d_prod_br if quiet else d_prod_br + noise.prod)

    # raw material sub-chain, mirroring finished-goods logistics with an
    # infinite upstream and a first-order transit delay
    rm_desired = p.rm_inventory_cov * d_prod_br
    rm_fulfill = pick(rm_desired > 0, share(rm_inv, rm_desired), 1.0)
    msr = lesser(d_prod_br * rm_fulfill, rm_inv_dt)

    prod_br = pos(lesser(lesser(labor * per_worker, msr), d_prod_br))
    # reorder to replace actual usage plus an inventory-gap correction
    rm_order_r = pos(prod_br + (rm_desired - rm_inv) / p.rm_lead_time)

    # labor chain
    a_labor = (p.lam_labor * (d_prod_br / per_worker - labor) / p.labor_fulfillment_time
               + keep_labor * s.a_labor)
    d_vac = pos(p.vac_fulfillment_time * a_labor)
    a_vac = p.lam_vac * (d_vac - vac) / p.vac_creation_time + keep_vac * s.a_vac
    vac_br = pos(a_labor + a_vac)
    layoff_r = lesser(ops.neg_part(a_labor), labor / p.layoff_time)
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
    ship_r = pos(lesser(lesser(x, inv_dt), order_r + backlog_dt))

    # the net flows ``hire - retire - layoff`` and so on
    stocks, flows = ops.integrate(
        stocks,
        (prod_cr, order_r, rm_arrival_r, prod_br, hire_r - retire_r, vac_br, rm_order_r),
        (ship_r, ship_r, prod_br, prod_cr, layoff_r, hire_r, rm_arrival_r), dt)
    s.inv, s.backlog, s.rm_inv, s.wip, s.labor, s.vac, s.rm_transit = stocks
    s.a_prod, s.a_wip, s.a_labor, s.a_vac = a_prod, a_wip, a_labor, a_vac
    s.prod_br, s.ship_r, s.rm_order_r = prod_br, ship_r, rm_order_r
    # idle line: coverage pegged to capacity
    s.inv_cov = pick(ship_r > 0, ratio(s.inv, ship_r), p.max_inv_cov)
    return stocks, flows


def _admissible(stocks):
    """Whether every stock and the sum of the stocks in
    ``SDState.STOCK_FIELDS`` order are finite and non-negative: ``stocks``
    is one company's seven in ``_BLOCK`` order, or a (7, rows, 2) block of
    them, then checked per row and company."""
    inv, backlog, rm_inv, wip, labor, vac, rm_transit = stocks
    return ((wip >= 0) & (inv >= 0) & (labor >= 0) & (vac >= 0)
            & (backlog >= 0) & (rm_inv >= 0) & (rm_transit >= 0)
            & (abs(wip + inv + labor + vac + backlog + rm_inv + rm_transit) < math.inf))


def _settle(s: SDState, stocks):
    """Set each stock of ``s`` less than ``ROUNDING_SLACK`` below zero to
    0.0, from ``stocks``, its stocks as :func:`_admissible` takes them, and
    return :func:`_admissible` of the result."""
    if isinstance(stocks, np.ndarray):
        stocks = np.where((stocks < 0) & (stocks >= -ROUNDING_SLACK), 0.0, stocks)
    else:
        stocks = tuple(0.0 if -ROUNDING_SLACK <= x < 0 else x for x in stocks)
    s.inv, s.backlog, s.rm_inv, s.wip, s.labor, s.vac, s.rm_transit = stocks
    return _admissible(stocks)


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

    With a :class:`PassParams` ``params`` and ``dt`` its ``params.dt``,
    ``prices`` and ``inv_covs`` are (rows, 2) arrays and ``mp`` and both
    bounds (rows,) arrays; every row is updated, ``prices`` and ``mp`` in
    place, then the lowest inadmissible row raises with its own message and
    ``row`` set.
    """
    if isinstance(params, PassParams):
        if dt is not params.dt:
            raise ParameterError("a pass record steps at its own dt, params.dt")
    elif not dt > 0:    # NaN included
        raise ParameterError(f"dt must be > 0, got {dt}")
    else:
        if mp <= 0:     # before ``unit_cost / mp`` can divide by zero
            raise _price_error(mp, ())
        new = (_price(mp, params[0], inv_covs[0], _FLOATS),
               _price(mp, params[1], inv_covs[1], _FLOATS))
        if not (0.0 < new[0] < math.inf and 0.0 < new[1] < math.inf):
            raise _price_error(mp, new)
        return new, _market_price(mp, new, params[0].mp_fulfillment_time, dt,
                                  mp_bounds, _FLOATS)
    new = _price(mp[:, None], params, inv_covs, _ARRAYS)
    new_mp = _market_price(mp, new.T, params.mp_time, dt, mp_bounds, _ARRAYS)
    try:
        # a price is mp times positive multipliers: not positive if mp <= 0;
        # NaN fails both tests, and the per-row mask is built only on failure
        if not (new.min() > 0.0 and new.max() < math.inf):
            row = int(np.argmin(((new > 0.0) & (new < math.inf)).all(axis=1)))
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
        mp = ops.at_most(ops.at_least(mp, mp_bounds[0]), mp_bounds[1])
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

