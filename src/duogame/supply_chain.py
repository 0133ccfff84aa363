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

import copy
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
    """Stocks, smoothed adjustments, last-computed rates and cost accumulators."""

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

    # cost / revenue accumulators (currency)
    total_revenue: float = 0.0
    cost_production: float = 0.0
    cost_raw: float = 0.0
    cost_inventory: float = 0.0
    cost_backlog: float = 0.0
    cost_transport: float = 0.0

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
    f_cost: tuple = (1.0, 1.0)     # cost-on-price multipliers, per company
    f_invcov: tuple = (1.0, 1.0)   # coverage-on-price multipliers, per company
    price_cr: float = 0.0


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


def _production_rates(state: SDState, p: SDParams, order_rate: float,
                      noise: NoiseDraws, dt: float) -> dict:
    """Compute every production-side rate from the previous-step state.

    Returns the new smoothed adjusters, desired quantities and rates without
    touching the state, so callers control when integration happens.
    """
    d_inv = max(0.0, (p.order_processing_time + p.safety_stock_cov) * order_rate + noise.inv)
    a_prod = smooth_adjust(d_inv, state.inv, p.inv_fulfillment_time, state.a_prod, p.lam_prod)
    d_wip = max(0.0, (a_prod + order_rate) * p.cycle_time + noise.wip)
    a_wip = smooth_adjust(d_wip, state.wip, p.wip_fulfillment_time, state.a_wip, p.lam_wip)
    d_prod_br = max(0.0, a_wip + a_prod + order_rate + noise.prod)

    # raw material sub-chain, mirroring finished-goods logistics with an
    # infinite upstream and a first-order transit delay
    rm_desired = p.rm_inventory_cov * d_prod_br
    if rm_desired > 0:
        rm_fulfill = fulfillment_ratio(state.rm_inv, rm_desired)
    else:
        rm_fulfill = 1.0
    msr = min(d_prod_br * rm_fulfill, state.rm_inv / dt)
    rm_arrival_r = min(state.rm_transit / p.rm_lead_time, state.rm_transit / dt)

    capacity = state.labor * p.daily_capacity_per_worker
    prod_br = max(0.0, min(capacity, msr, d_prod_br))
    prod_cr = min(state.wip / p.cycle_time, state.wip / dt)
    # reorder to replace actual usage plus an inventory-gap correction
    rm_order_r = max(0.0, prod_br + (rm_desired - state.rm_inv) / p.rm_lead_time)

    # labor chain
    d_labor = d_prod_br / p.daily_capacity_per_worker
    a_labor = smooth_adjust(d_labor, state.labor, p.labor_fulfillment_time,
                            state.a_labor, p.lam_labor)
    d_vac = max(0.0, p.vac_fulfillment_time * a_labor)
    a_vac = smooth_adjust(d_vac, state.vac, p.vac_creation_time, state.a_vac, p.lam_vac)
    vac_br = max(0.0, a_labor + a_vac)
    hire_r = min(state.vac / p.vac_fulfillment_time, state.vac / dt)
    retire_r = state.labor / p.employment_time
    layoff_r = min(max(0.0, -a_labor), state.labor / p.layoff_time)
    if p.max_layoff_rate is not None:
        layoff_r = min(layoff_r, p.max_layoff_rate)
    labor_out = retire_r + layoff_r
    if labor_out * dt > state.labor:
        scale = state.labor / (labor_out * dt)
        retire_r *= scale
        layoff_r *= scale

    return dict(d_inv=d_inv, a_prod=a_prod, d_wip=d_wip, a_wip=a_wip,
                d_prod_br=d_prod_br, msr=msr, rm_order_r=rm_order_r,
                rm_arrival_r=rm_arrival_r, prod_br=prod_br, prod_cr=prod_cr,
                a_labor=a_labor, a_vac=a_vac, vac_br=vac_br, hire_r=hire_r,
                retire_r=retire_r, layoff_r=layoff_r)


def _shipment_rates(state: SDState, p: SDParams, order_r: float, d_inv: float,
                    dt: float) -> tuple:
    """Shipment rate with backlog clearance, limited by on-hand inventory."""
    if d_inv > 0:
        fulfill = fulfillment_ratio(state.inv, d_inv)
    else:
        fulfill = 1.0 if state.inv > 0 else 0.0
    desired_ship = order_r + state.backlog / p.order_processing_time
    ship_r = desired_ship * fulfill
    ship_r = min(ship_r, state.inv / dt, order_r + state.backlog / dt)
    return max(0.0, ship_r), fulfill


def step_company(state: SDState, p: SDParams, order_rate: float,
                 noise: NoiseDraws = ZERO_NOISE, dt: float = 0.25,
                 ledger: FlowLedger | None = None) -> SDState:
    """One Euler sub-step of the full chain (production + logistics).

    ``order_rate`` is the demand before noise; pricing is applied separately
    at the pair level by :func:`step_pricing`.
    """
    if dt <= 0:
        raise ParameterError(f"dt must be > 0, got {dt}")
    state.check_finite()

    order_r = max(0.0, order_rate + noise.order)
    r = _production_rates(state, p, order_r, noise, dt)
    ship_r, fulfill = _shipment_rates(state, p, order_r, r["d_inv"], dt)

    new = copy.copy(state)
    new.order_r = order_r
    new.d_inv, new.d_wip, new.d_prod_br = r["d_inv"], r["d_wip"], r["d_prod_br"]
    new.a_prod, new.a_wip = r["a_prod"], r["a_wip"]
    new.a_labor, new.a_vac = r["a_labor"], r["a_vac"]
    new.prod_br, new.prod_cr = r["prod_br"], r["prod_cr"]
    new.msr, new.rm_order_r, new.rm_arrival_r = r["msr"], r["rm_order_r"], r["rm_arrival_r"]
    new.hire_r, new.retire_r = r["hire_r"], r["retire_r"]
    new.layoff_r, new.vac_br = r["layoff_r"], r["vac_br"]
    new.ship_r, new.fulfillment = ship_r, fulfill

    new.wip = state.wip + dt * (new.prod_br - new.prod_cr)
    new.inv = state.inv + dt * (new.prod_cr - new.ship_r)
    new.labor = state.labor + dt * (new.hire_r - new.retire_r - new.layoff_r)
    new.vac = state.vac + dt * (new.vac_br - new.hire_r)
    new.backlog = state.backlog + dt * (new.order_r - new.ship_r)
    new.rm_inv = state.rm_inv + dt * (new.rm_arrival_r - new.prod_br)
    new.rm_transit = state.rm_transit + dt * (new.rm_order_r - new.rm_arrival_r)

    if new.ship_r > 0:
        new.inv_cov = new.inv / new.ship_r
    else:
        new.inv_cov = p.max_inv_cov  # idle line: coverage pegged to capacity

    if ledger is not None:
        ledger.add("wip", new.prod_br - new.prod_cr, dt)
        ledger.add("inv", new.prod_cr - new.ship_r, dt)
        ledger.add("labor", new.hire_r - new.retire_r - new.layoff_r, dt)
        ledger.add("vac", new.vac_br - new.hire_r, dt)
        ledger.add("backlog", new.order_r - new.ship_r, dt)
        ledger.add("rm_inv", new.rm_arrival_r - new.prod_br, dt)
        ledger.add("rm_transit", new.rm_order_r - new.rm_arrival_r, dt)
    return new


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
    """Update both prices and the market expected price.

    ``params`` and ``inv_covs`` are per-company pairs. ``mp_bounds`` clips
    the market expected price into a saturation band. Returns
    ``(new_prices, new_shared)``.
    """
    if dt <= 0:
        raise ParameterError(f"dt must be > 0, got {dt}")
    if shared.mp <= 0:
        raise StateError(f"market expected price must be > 0, got {shared.mp}")
    f_cost = []
    f_invcov = []
    new_prices = []
    for p, cov in zip(params, inv_covs):
        fc, fi = price_multipliers(p, shared.mp, cov)
        f_cost.append(fc)
        f_invcov.append(fi)
        new_prices.append(shared.mp * fc * fi)
    price_cr = ((new_prices[0] + new_prices[1]) / 2.0 - shared.mp) / params[0].mp_fulfillment_time
    new_mp = shared.mp + dt * price_cr
    if mp_bounds is not None:
        new_mp = min(max(new_mp, mp_bounds[0]), mp_bounds[1])
    new_shared = PricingState(mp=new_mp,
                              f_cost=tuple(f_cost), f_invcov=tuple(f_invcov),
                              price_cr=price_cr)
    return tuple(new_prices), new_shared


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
