"""The company sub-step as it stood before its hoisted terms, skipped idle
branches and one-call clamps: :func:`reference_advance` and its two
operation tables, kept verbatim as the reference the current
``supply_chain._advance`` must match bit for bit on every state a run can
reach (stocks finite and >= 0 at the start of the sub-step)."""

import math
import operator
from typing import Callable, NamedTuple

import numpy as np


class RefOps(NamedTuple):
    pos: Callable       # ``x if x > 0.0 else 0.0``
    lesser: Callable    # ``y if y < x else x``
    pick: Callable      # ``a if c else b``
    ratio: Callable     # ``a / b``, only where ``b == 0`` is not picked
    power: Callable     # C ``pow(x, y)`` of a positive ``x``, an overflow +inf


def _pow(x, y):
    try:
        return pow(x, y)
    except OverflowError:
        return math.inf


REF_FLOATS = RefOps(pos=lambda x: x if x > 0.0 else 0.0,
                    lesser=lambda x, y: y if y < x else x,
                    pick=lambda c, a, b: a if c else b,
                    ratio=lambda a, b: a / b if b else 0.0,
                    power=_pow)
REF_ARRAYS = RefOps(pos=lambda x: np.fmax(x, 0.0) + 0.0,
                    lesser=lambda x, y: np.where(y < x, y, x),
                    pick=np.where,
                    ratio=operator.truediv,
                    power=np.float_power)


def reference_advance(s, p, order_rate, noise, dt: float, ops: RefOps) -> tuple:
    """One unchecked sub-step of ``s`` in place; returns the seven net flows.
    A stacked ``p`` may hold an all-None ``max_layoff_rate`` as None or as
    +inf: capping at +inf changes no element."""
    pos, lesser, pick, ratio, _ = ops
    wip, inv, labor, vac = s.wip, s.inv, s.labor, s.vac
    backlog, rm_inv, rm_transit = s.backlog, s.rm_inv, s.rm_transit
    order_r = pos(order_rate + noise.order)

    lam = p.lam_prod
    d_inv = pos((p.order_processing_time + p.safety_stock_cov) * order_r + noise.inv)
    a_prod = lam * (d_inv - inv) / p.inv_fulfillment_time + (1.0 - lam) * s.a_prod
    lam = p.lam_wip
    d_wip = pos((a_prod + order_r) * p.cycle_time + noise.wip)
    a_wip = lam * (d_wip - wip) / p.wip_fulfillment_time + (1.0 - lam) * s.a_wip
    d_prod_br = pos(a_wip + a_prod + order_r + noise.prod)

    rm_desired = p.rm_inventory_cov * d_prod_br
    rm_fulfill = pick(rm_desired > 0, lesser(1.0, pos(ratio(rm_inv, rm_desired))), 1.0)
    msr = lesser(d_prod_br * rm_fulfill, rm_inv / dt)
    rm_arrival_r = lesser(rm_transit / p.rm_lead_time, rm_transit / dt)

    per_worker = p.labor_productivity * p.labor_hours
    prod_br = pos(lesser(lesser(labor * per_worker, msr), d_prod_br))
    prod_cr = lesser(wip / p.cycle_time, wip / dt)
    rm_order_r = pos(prod_br + (rm_desired - rm_inv) / p.rm_lead_time)

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
    if p.max_layoff_rate is not None:
        layoff_r = lesser(layoff_r, p.max_layoff_rate)
    out = (retire_r + layoff_r) * dt
    over = out > labor
    scale = ratio(labor, out)
    retire_r = pick(over, retire_r * scale, retire_r)
    layoff_r = pick(over, layoff_r * scale, layoff_r)

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
    s.inv_cov = pick(ship_r > 0, ratio(inv, ship_r), p.max_inv_cov)
    return flows
