"""Discrete-time supply chain dynamics for one company.

One company's production, labor, logistics and pricing are modeled as a
stock-and-flow system integrated with forward Euler at a sub-daily step
(default dt = 0.25 days). Desired quantities are tracked with exponential
smoothing; actual rates are bottlenecked by workforce and raw-material
availability. Outflow rates are limited so that no stock can be driven
negative within a step, which keeps the bookkeeping identity

    stock(T) - stock(0) == sum over steps of dt * (inflow - outflow)

exact up to floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    """Stocks, smoothed adjustments, last-computed rates and auxiliaries."""

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

    # last computed rates (per day)
    prod_br: float = 0.0
    prod_cr: float = 0.0
    ship_r: float = 0.0
    order_r: float = 0.0
    hire_r: float = 0.0
    retire_r: float = 0.0
    layoff_r: float = 0.0
    vac_br: float = 0.0
    msr: float = 0.0             # raw material supply rate available to production
    rm_order_r: float = 0.0
    rm_arrival_r: float = 0.0

    # last computed auxiliaries
    d_inv: float = 0.0
    d_wip: float = 0.0
    d_prod_br: float = 0.0
    fulfillment: float = 1.0
    inv_cov: float = 0.0
    price: float = 1.0

    STOCK_FIELDS = ("wip", "inv", "labor", "vac", "backlog", "rm_inv", "rm_transit")

    def stocks(self) -> dict:
        return {name: getattr(self, name) for name in self.STOCK_FIELDS}

    def check_finite(self):
        total = (self.wip + self.inv + self.labor + self.vac + self.backlog
                 + self.rm_inv + self.rm_transit)
        if math.isfinite(total) and self.wip >= 0 and self.inv >= 0 \
                and self.labor >= 0 and self.vac >= 0 and self.backlog >= 0 \
                and self.rm_inv >= 0 and self.rm_transit >= 0:
            if not math.isfinite(self.price) or self.price <= 0:
                raise StateError(f"inadmissible price: {self.price}")
            return
        for name in self.STOCK_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise StateError(f"non-finite stock {name}: {value}")
            if value < 0:
                raise StateError(f"negative stock {name}: {value}")
        raise StateError("inadmissible state")


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


def smooth_adjust(desired: float, actual: float, fulfill_time: float,
                  prev_adjust: float, lam: float) -> float:
    """Exponentially smoothed gap-closing rate toward a desired quantity."""
    if fulfill_time <= 0:
        raise ParameterError(f"fulfill_time must be > 0, got {fulfill_time}")
    if not 0.0 < lam <= 1.0:
        raise ParameterError(f"smoothing factor must be in (0, 1], got {lam}")
    return lam * (desired - actual) / fulfill_time + (1.0 - lam) * prev_adjust


def fulfillment_ratio(inv: float, desired_inv: float) -> float:
    """Fraction of demand that can ship, clamped to [0, 1]."""
    if desired_inv <= 0:
        raise ParameterError(f"desired inventory must be > 0, got {desired_inv}")
    return min(1.0, max(0.0, inv / desired_inv))


def step_company(state: SDState, p: SDParams, order_rate: float,
                 noise: NoiseDraws = ZERO_NOISE, dt: float = 0.25,
                 ledger: FlowLedger | None = None) -> SDState:
    """Advance ``state`` by one Euler sub-step of the full chain, in place.

    Every rate is computed from the start-of-step stocks, then all stocks
    are integrated together and checked, so one inadmissible stock raises
    :class:`StateError` on the sub-step that produced it. ``order_rate`` is
    the demand before noise; pricing is applied separately at the pair
    level by :func:`step_pricing`. ``p`` is trusted to be validated; the
    smoothing and fulfillment formulas are those of :func:`smooth_adjust`
    and :func:`fulfillment_ratio`. Returns ``state``.
    """
    if dt <= 0:
        raise ParameterError(f"dt must be > 0, got {dt}")
    # ``y if y < x else x`` is ``min(x, y)`` and ``x if x > 0.0 else 0.0`` is
    # ``max(0.0, x)``, NaN included, at a fraction of the call's cost
    wip, inv, labor, vac = state.wip, state.inv, state.labor, state.vac
    backlog, rm_inv, rm_transit = state.backlog, state.rm_inv, state.rm_transit
    x = order_rate + noise.order
    order_r = x if x > 0.0 else 0.0

    # production: smoothed gap-closing toward desired inventory and WIP
    lam = p.lam_prod
    x = (p.order_processing_time + p.safety_stock_cov) * order_r + noise.inv
    d_inv = x if x > 0.0 else 0.0
    a_prod = lam * (d_inv - inv) / p.inv_fulfillment_time + (1.0 - lam) * state.a_prod
    lam = p.lam_wip
    x = (a_prod + order_r) * p.cycle_time + noise.wip
    d_wip = x if x > 0.0 else 0.0
    a_wip = lam * (d_wip - wip) / p.wip_fulfillment_time + (1.0 - lam) * state.a_wip
    x = a_wip + a_prod + order_r + noise.prod
    d_prod_br = x if x > 0.0 else 0.0

    # raw material sub-chain, mirroring finished-goods logistics with an
    # infinite upstream and a first-order transit delay
    rm_desired = p.rm_inventory_cov * d_prod_br
    if rm_desired > 0:
        x = rm_inv / rm_desired
        x = x if x > 0.0 else 0.0
        rm_fulfill = x if x < 1.0 else 1.0
    else:
        rm_fulfill = 1.0
    x, y = d_prod_br * rm_fulfill, rm_inv / dt
    msr = y if y < x else x
    x, y = rm_transit / p.rm_lead_time, rm_transit / dt
    rm_arrival_r = y if y < x else x

    per_worker = p.labor_productivity * p.labor_hours
    x = labor * per_worker
    if msr < x:
        x = msr
    if d_prod_br < x:
        x = d_prod_br
    prod_br = x if x > 0.0 else 0.0
    x, y = wip / p.cycle_time, wip / dt
    prod_cr = y if y < x else x
    # reorder to replace actual usage plus an inventory-gap correction
    x = prod_br + (rm_desired - rm_inv) / p.rm_lead_time
    rm_order_r = x if x > 0.0 else 0.0

    # labor chain
    lam = p.lam_labor
    a_labor = (lam * (d_prod_br / per_worker - labor) / p.labor_fulfillment_time
               + (1.0 - lam) * state.a_labor)
    x = p.vac_fulfillment_time * a_labor
    d_vac = x if x > 0.0 else 0.0
    lam = p.lam_vac
    a_vac = lam * (d_vac - vac) / p.vac_creation_time + (1.0 - lam) * state.a_vac
    x = a_labor + a_vac
    vac_br = x if x > 0.0 else 0.0
    x, y = vac / p.vac_fulfillment_time, vac / dt
    hire_r = y if y < x else x
    retire_r = labor / p.employment_time
    x = -a_labor
    x = x if x > 0.0 else 0.0
    y = labor / p.layoff_time
    layoff_r = y if y < x else x
    if p.max_layoff_rate is not None and p.max_layoff_rate < layoff_r:
        layoff_r = p.max_layoff_rate
    labor_out = retire_r + layoff_r
    if labor_out * dt > labor:
        scale = labor / (labor_out * dt)
        retire_r *= scale
        layoff_r *= scale

    # shipments with backlog clearance, limited by on-hand inventory
    if d_inv > 0:
        x = inv / d_inv
        x = x if x > 0.0 else 0.0
        fulfill = x if x < 1.0 else 1.0
    else:
        fulfill = 1.0 if inv > 0 else 0.0
    x = (order_r + backlog / p.order_processing_time) * fulfill
    y = inv / dt
    if y < x:
        x = y
    y = order_r + backlog / dt
    if y < x:
        x = y
    ship_r = x if x > 0.0 else 0.0

    state.wip = wip = wip + dt * (prod_br - prod_cr)
    state.inv = inv = inv + dt * (prod_cr - ship_r)
    state.labor = labor = labor + dt * (hire_r - retire_r - layoff_r)
    state.vac = vac = vac + dt * (vac_br - hire_r)
    state.backlog = backlog = backlog + dt * (order_r - ship_r)
    state.rm_inv = rm_inv = rm_inv + dt * (rm_arrival_r - prod_br)
    state.rm_transit = rm_transit = rm_transit + dt * (rm_order_r - rm_arrival_r)
    if not (wip >= 0 and inv >= 0 and labor >= 0 and vac >= 0 and backlog >= 0
            and rm_inv >= 0 and rm_transit >= 0
            and math.isfinite(wip + inv + labor + vac + backlog + rm_inv
                              + rm_transit)):
        state.check_finite()

    state.a_prod, state.a_wip, state.a_labor, state.a_vac = a_prod, a_wip, a_labor, a_vac
    state.prod_br, state.prod_cr, state.ship_r, state.order_r = prod_br, prod_cr, ship_r, order_r
    state.hire_r, state.retire_r, state.layoff_r, state.vac_br = hire_r, retire_r, layoff_r, vac_br
    state.msr, state.rm_order_r, state.rm_arrival_r = msr, rm_order_r, rm_arrival_r
    state.d_inv, state.d_wip, state.d_prod_br = d_inv, d_wip, d_prod_br
    state.fulfillment = fulfill
    # idle line: coverage pegged to capacity
    state.inv_cov = inv / ship_r if ship_r > 0 else p.max_inv_cov

    if ledger is not None:
        ledger.add("wip", prod_br - prod_cr, dt)
        ledger.add("inv", prod_cr - ship_r, dt)
        ledger.add("labor", hire_r - retire_r - layoff_r, dt)
        ledger.add("vac", vac_br - hire_r, dt)
        ledger.add("backlog", order_r - ship_r, dt)
        ledger.add("rm_inv", rm_arrival_r - prod_br, dt)
        ledger.add("rm_transit", rm_order_r - rm_arrival_r, dt)
    return state


def price_multipliers(p: SDParams, mp: float, inv_cov: float) -> tuple:
    """Cost and coverage effects on price for one company."""
    if mp <= 0:
        raise StateError(f"market expected price must be > 0, got {mp}")
    f_cost = 1.0 + p.price_sens_cost * (p.unit_cost / mp - 1.0)
    f_cost = max(f_cost, 1e-9)
    cov = max(inv_cov, EPS_COVERAGE)
    f_invcov = (cov / p.max_inv_cov) ** p.price_sens_invcov
    return f_cost, f_invcov


def step_pricing(prices: tuple, shared: PricingState, params: tuple,
                 inv_covs: tuple, dt: float = 0.25,
                 mp_bounds: tuple | None = None) -> tuple:
    """Update both prices and, in place, the market expected price.

    ``params`` and ``inv_covs`` are per-company pairs; the multipliers are
    those of :func:`price_multipliers`. ``mp_bounds`` clips the market
    expected price into a saturation band. Returns ``(new_prices, shared)``
    and raises :class:`StateError` when a new price is not finite and
    positive.
    """
    if dt <= 0:
        raise ParameterError(f"dt must be > 0, got {dt}")
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
        prod_br=order_rate, prod_cr=order_rate, ship_r=order_rate,
        order_r=order_rate, hire_r=vac / p.vac_fulfillment_time,
        retire_r=labor / p.employment_time, layoff_r=0.0,
        vac_br=max(0.0, a_labor), msr=d_prod_br,
        rm_order_r=order_rate, rm_arrival_r=order_rate,
        d_inv=d_inv, d_wip=(a_prod + order_rate) * p.cycle_time,
        d_prod_br=d_prod_br, fulfillment=inv / d_inv,
        inv_cov=inv / order_rate, price=p.mfg_price,
    )
    return state


def stationary_market_price(p: SDParams, inv_cov: float) -> float:
    """Market expected price at which the pricing loop is stationary.

    Solves ``f_cost(mp) * f_invcov == 1`` for a fixed coverage. Raises when
    the cost sensitivity cannot balance the coverage effect.
    """
    _, f_invcov = price_multipliers(p, 1.0, inv_cov)
    denom = 1.0 / f_invcov - 1.0 + p.price_sens_cost
    if denom <= 0 or p.price_sens_cost <= 0:
        raise ParameterError("pricing loop has no stationary point for these parameters")
    return p.price_sens_cost * p.unit_cost / denom
