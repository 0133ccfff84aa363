import math
from dataclasses import replace

import numpy as np
import pytest

from duogame.errors import ParameterError, StateError
from duogame.factors import FACTORS, LEVEL_LABELS
from duogame.supply_chain import (
    _ARRAYS,
    _FLOATS,
    EPS_COVERAGE,
    ROUNDING_SLACK,
    FlowLedger,
    NoiseDraws,
    PassParams,
    SDParams,
    SDState,
    _pow,
    steady_state,
    step_company,
    step_pricing,
)
from pass_tools import ArrayPass

DT = 0.25


def random_params(rng):
    """Params with the decision variables drawn from the experiment ranges."""
    return SDParams(
        vac_creation_time=rng.uniform(1, 5),
        layoff_time=rng.uniform(3, 7),
        labor_fulfillment_time=rng.uniform(4, 12),
        wip_fulfillment_time=rng.uniform(1, 3),
        inv_fulfillment_time=rng.uniform(2, 14),
        rm_lead_time=rng.uniform(1, 7),
        safety_stock_cov=rng.uniform(2, 14),
        rm_inventory_cov=rng.uniform(1, 7),
        price_sens_cost=rng.uniform(0.1, 0.9),
        price_sens_invcov=rng.uniform(-0.9, -0.1),
        mfg_price=rng.uniform(1, 2),
    ).validate()


def stepped(p=None, order=100.0, **stocks):
    """One sub-step from a state holding only ``stocks`` (zero elsewhere)."""
    p = p or SDParams().validate()
    return step_company(SDState(**stocks), p, order_rate=order, dt=DT)


class TestSmoothAdjust:
    """The production adjuster ``a_prod`` closes the inventory gap with
    exponential smoothing; default specs want 10 days of orders, 1000."""

    def test_fixed_point_when_desired_equals_actual(self):
        assert stepped(inv=1000.0, a_prod=0.0).a_prod == 0.0

    def test_full_weight_discards_history(self):
        p = SDParams(lam_prod=1.0, inv_fulfillment_time=2.0).validate()
        assert stepped(p, inv=0.0, a_prod=99.0).a_prod == 500.0

    def test_half_weight_blends(self):
        # 0.5 * (1000 - 994) / 3 + 0.5 * 2 = 2.0
        p = SDParams(lam_prod=0.5, inv_fulfillment_time=3.0).validate()
        assert stepped(p, inv=994.0, a_prod=2.0).a_prod == pytest.approx(2.0)

    def test_nonpositive_fulfill_time_rejected(self):
        with pytest.raises(ParameterError):
            SDParams(inv_fulfillment_time=0.0).validate()
        with pytest.raises(ParameterError):
            SDParams(inv_fulfillment_time=-2.0).validate()


class TestFulfillmentRatio:
    """Shipments scale with on-hand over desired inventory (1000 here),
    clamped to [0, 1]: with no backlog, 100 ordered ship 100 times the
    ratio."""

    def test_full_coverage(self):
        assert stepped(inv=1000.0).ship_r == 100.0

    def test_empty(self):
        assert stepped(inv=0.0).ship_r == 0.0

    def test_partial(self):
        assert stepped(inv=400.0).ship_r == pytest.approx(40.0)

    def test_overfull_clamps(self):
        assert stepped(inv=5000.0).ship_r == 100.0

    def test_zero_desired_ships_from_stock(self):
        # no orders: nothing is desired, so any stock counts as covering it
        # and the backlog clears at 4 / order_processing_time = 2 a day
        assert stepped(order=0.0, inv=10.0, backlog=4.0).ship_r == 2.0
        assert stepped(order=0.0, inv=0.0, backlog=4.0).ship_r == 0.0


class TestFixedPoint:
    def test_steady_state_is_stationary_one_step(self):
        p = SDParams().validate()
        s0 = steady_state(p, order_rate=100.0)
        before_step = s0.stocks()
        s1 = step_company(s0, p, order_rate=100.0, dt=DT)
        for name, before in before_step.items():
            assert abs(getattr(s1, name) - before) <= 1e-9, name

    def test_steady_state_is_stationary_many_steps(self):
        p = SDParams().validate()
        s = steady_state(p, order_rate=80.0)
        ref = s.stocks()
        for _ in range(200):
            s = step_company(s, p, order_rate=80.0, dt=DT)
        for name, before in ref.items():
            assert abs(getattr(s, name) - before) <= 1e-7, name

    def test_all_desired_equal_actual_with_negligible_attrition(self):
        # with an effectively infinite employment time the stationary point
        # has every stock at its desired value and all adjusters at zero
        p = SDParams(employment_time=1e12).validate()
        s0 = steady_state(p, order_rate=100.0)
        assert s0.a_prod == pytest.approx(0.0, abs=1e-9)
        assert s0.a_wip == pytest.approx(0.0, abs=1e-9)
        d_inv = (p.order_processing_time + p.safety_stock_cov) * 100.0
        assert s0.inv == pytest.approx(d_inv, rel=1e-9)
        before_step = s0.stocks()
        s1 = step_company(s0, p, order_rate=100.0, dt=DT)
        for name, before in before_step.items():
            assert abs(getattr(s1, name) - before) <= 1e-9, name


class TestStepProduction:
    """Production-side branches of :func:`step_company`."""

    def test_zero_labor_means_zero_production(self):
        p = SDParams().validate()
        s = steady_state(p, 100.0)
        s.labor = 0.0
        s1 = step_company(s, p, order_rate=100.0, dt=DT)
        assert s1.prod_br == 0.0

    def test_material_rate_bottleneck(self):
        p = SDParams().validate()
        s = steady_state(p, 100.0)
        s.rm_inv = 7.0
        s1 = step_company(s, p, order_rate=100.0, dt=DT)
        # the supply rate is desired production times the raw-material
        # fulfillment 7 / (rm_inventory_cov * desired), far below the orders
        assert s1.prod_br == pytest.approx(7.0 / p.rm_inventory_cov)
        assert s1.prod_br < 100.0

    def test_dt_must_be_positive(self):
        p = SDParams().validate()
        s = steady_state(p, 100.0)
        with pytest.raises(ParameterError):
            step_company(s, p, 100.0, dt=0.0)

    @pytest.mark.parametrize("dt", [0.0, -0.25, math.nan], ids=["zero", "negative", "nan"])
    def test_bad_dt_is_parameter_error_in_both_forms(self, dt):
        # a NaN dt fails ``dt > 0`` as a zero one does, before any stock is
        # stepped: a parameter error, not an inadmissible state
        p = SDParams().validate()
        s = steady_state(p, 100.0)
        state = replace(s)
        calls = [lambda: step_company(state, p, 100.0, dt=dt),
                 lambda: PassParams(SDParams.stacked([(p, p)], [0]), dt),
                 lambda: step_pricing((1.5, 1.5), 1.5, (p, p), (10.0, 10.0), dt=dt)]
        for call in calls:
            with pytest.raises(ParameterError, match="dt must be > 0"):
                call()
        assert state == s

    def test_pass_record_steps_at_its_own_dt(self):
        # its terms were formed with its dt: another dt object is refused,
        # even of the same value
        p = SDParams().validate()
        s = steady_state(p, 100.0)
        record = PassParams(SDParams.stacked([(p, p)], [0]), DT)
        rows = SDState.stacked([(s, s)], [0])
        with pytest.raises(ParameterError, match="own dt"):
            step_company(rows, record, np.full((1, 2), 100.0), dt=DT)
        with pytest.raises(ParameterError, match="own dt"):
            step_pricing(rows.price, np.full(1, 1.5), record, rows.inv_cov, dt=np.array(DT))
        with np.errstate(all="ignore"):
            step_company(rows, record, np.full((1, 2), 100.0), dt=record.dt)
        expected = step_company(replace(s), p, 100.0, dt=DT)
        assert rows.wip.tolist() == [[expected.wip] * 2]

    def test_hand_computed_euler_step(self):
        """Straight-line re-evaluation of one sub-step from a documented seed state."""
        p = SDParams().validate()
        s = SDState(wip=200.0, inv=600.0, labor=20.0, vac=2.0, backlog=30.0,
                    rm_inv=500.0, rm_transit=400.0,
                    a_wip=1.0, a_prod=2.0, a_labor=0.5, a_vac=0.1,
                    prod_br=95.0, price=1.5)
        order = 100.0
        out = step_company(s, p, order_rate=order, dt=DT)

        # independent transcription of the update rules
        d_inv = (p.order_processing_time + p.safety_stock_cov) * order      # 10*100
        a_prod = 0.5 * (d_inv - 600.0) / 8.0 + 0.5 * 2.0                    # 26.0
        d_wip = (a_prod + order) * 3.0                                      # 378.0
        a_wip = 0.5 * (d_wip - 200.0) / 2.0 + 0.5 * 1.0                     # 45.0
        d_prod_br = a_wip + a_prod + order                                  # 171.0
        rm_desired = 4.0 * d_prod_br                                        # 684.0
        rm_f = min(1.0, 500.0 / rm_desired)
        msr = min(d_prod_br * rm_f, 500.0 / DT)
        capacity = 20.0 * 4.0                                               # 80.0
        prod_br = max(0.0, min(capacity, msr, d_prod_br))                   # 80.0
        prod_cr = min(200.0 / 3.0, 200.0 / DT)
        rm_order = max(0.0, prod_br + (rm_desired - 500.0) / 4.0)
        rm_arrival = min(400.0 / 4.0, 400.0 / DT)
        d_labor = d_prod_br / 4.0
        a_labor = 0.5 * (d_labor - 20.0) / 8.0 + 0.5 * 0.5
        d_vac = max(0.0, 5.0 * a_labor)
        a_vac = 0.5 * (d_vac - 2.0) / 3.0 + 0.5 * 0.1
        vac_br = max(0.0, a_labor + a_vac)
        hire = 2.0 / 5.0
        retire = 20.0 / 200.0
        layoff = min(max(0.0, -a_labor), 20.0 / 5.0)
        fulfill = min(1.0, 600.0 / d_inv)
        ship = (order + 30.0 / 2.0) * fulfill

        # the auxiliaries and the rates that are not kept show in the
        # adjusters, the carried rates and the stocks they integrate into
        assert out.a_prod == pytest.approx(a_prod)
        assert out.a_wip == pytest.approx(a_wip)
        assert out.prod_br == pytest.approx(prod_br)
        assert out.rm_order_r == pytest.approx(rm_order)
        assert out.a_labor == pytest.approx(a_labor)
        assert out.a_vac == pytest.approx(a_vac)
        assert out.ship_r == pytest.approx(ship)
        assert out.wip == pytest.approx(200.0 + DT * (prod_br - prod_cr))
        assert out.inv == pytest.approx(600.0 + DT * (prod_cr - ship))
        assert out.labor == pytest.approx(20.0 + DT * (hire - retire - layoff))
        assert out.vac == pytest.approx(2.0 + DT * (vac_br - hire))
        assert out.backlog == pytest.approx(30.0 + DT * (order - ship))
        assert out.rm_inv == pytest.approx(500.0 + DT * (rm_arrival - prod_br))
        assert out.rm_transit == pytest.approx(400.0 + DT * (rm_order - rm_arrival))


class TestStepLogistics:
    """Shipment-side branches of :func:`step_company`."""

    def test_no_orders_no_backlog_ships_nothing(self):
        p = SDParams().validate()
        s = steady_state(p, 100.0)
        s.backlog = 0.0
        inv, wip = s.inv, s.wip
        s1 = step_company(s, p, order_rate=0.0, dt=DT)
        assert s1.ship_r == 0.0
        prod_cr = min(wip / p.cycle_time, wip / DT)
        assert s1.inv == pytest.approx(inv + DT * prod_cr)

    def test_full_inventory_ships_orders(self):
        p = SDParams().validate()
        s = steady_state(p, 100.0)
        s.inv = (p.order_processing_time + p.safety_stock_cov) * 100.0 * 2.0
        s.backlog = 0.0
        s1 = step_company(s, p, order_rate=100.0, dt=DT)
        assert s1.ship_r == pytest.approx(100.0)

    def test_half_inventory_ships_half(self):
        p = SDParams().validate()
        s = steady_state(p, 100.0)
        d_inv = (p.order_processing_time + p.safety_stock_cov) * 100.0
        s.inv = 0.5 * d_inv
        s.backlog = 0.0
        s1 = step_company(s, p, order_rate=100.0, dt=DT)
        assert s1.ship_r == pytest.approx(50.0)

    def test_idle_line_coverage_pegged(self):
        p = SDParams().validate()
        s = steady_state(p, 100.0)
        s.backlog = 0.0
        s1 = step_company(s, p, order_rate=0.0, dt=DT)
        assert s1.inv_cov == p.max_inv_cov


class TestStepAdmissibility:
    def test_steps_in_place(self):
        p = SDParams().validate()
        s = steady_state(p, 100.0)
        backlog = s.backlog
        assert step_company(s, p, order_rate=120.0, dt=DT) is s
        assert s.backlog > backlog   # orders above the steady rate pile up

    def test_negative_stock_raises_on_the_step_that_made_it(self):
        p = SDParams().validate()
        s = steady_state(p, 100.0)
        s.inv = -1000.0
        with pytest.raises(StateError, match="negative stock inv"):
            step_company(s, p, order_rate=100.0, dt=DT)

    def test_vanishing_price_raises(self):
        # unbounded coverage drives the coverage multiplier to zero
        p = SDParams().validate()
        with pytest.raises(StateError, match="inadmissible price"):
            step_pricing((1.5, 1.5), 1.5, (p, p), (math.inf, 10.0), dt=DT)

    def test_layoff_cap_must_be_none_or_nonnegative(self):
        # a negative cap would hire through the layoff term, a NaN one caps nothing
        for cap in (-5.0, -1e-9, -math.inf, math.nan):
            with pytest.raises(ParameterError, match="max_layoff_rate"):
                SDParams(max_layoff_rate=cap).validate()
        for cap in (None, 0.0, 0.05, math.inf):
            SDParams(max_layoff_rate=cap).validate()

    @pytest.mark.parametrize("floor,cap,name", [
        (math.nan, 5.0, "mp_floor_ratio"), (0.0, 5.0, "mp_floor_ratio"),
        (-1.0, 5.0, "mp_floor_ratio"), (-math.inf, 5.0, "mp_floor_ratio"),
        (6.0, 5.0, "mp_cap_ratio"), (0.2, math.nan, "mp_cap_ratio"),
        (0.2, -1.0, "mp_cap_ratio"), (0.2, 0.1, "mp_cap_ratio")])
    def test_price_band_must_be_positive_and_ordered(self, floor, cap, name):
        # the band clamps with ``maximum`` and ``minimum``, exact only for
        # positive bounds that are not NaN
        with pytest.raises(ParameterError, match=name):
            SDParams(mp_floor_ratio=floor, mp_cap_ratio=cap).validate()

    def test_price_band_edges_accepted(self):
        # an infinite cap is "uncapped"; a one-point band is a fixed price
        for floor, cap in ((0.2, math.inf), (1.0, 1.0), (1e-300, 5.0)):
            SDParams(mp_floor_ratio=floor, mp_cap_ratio=cap).validate()


class TestStepPricing:
    def test_neutral_multipliers_give_market_price(self):
        p = SDParams(price_sens_cost=0.0).validate()
        prices, _ = step_pricing((1.5, 1.5), 1.5, (p, p),
                                 (p.max_inv_cov, p.max_inv_cov), dt=DT)
        assert prices[0] == pytest.approx(1.5)
        assert prices[1] == pytest.approx(1.5)

    def test_half_coverage_doubles_price(self):
        p = SDParams(price_sens_cost=0.0, price_sens_invcov=-1.0).validate()
        prices, _ = step_pricing((1.5, 1.5), 1.5, (p, p),
                                 (p.max_inv_cov / 2.0, p.max_inv_cov), dt=DT)
        assert prices[0] == pytest.approx(3.0)
        assert prices[1] == pytest.approx(1.5)

    def test_market_price_stationary_when_prices_match(self):
        # f_cost(mp) * f_invcov == 1 at a fixed coverage solves for mp
        p = SDParams().validate()
        cov = 10.0
        f_invcov = (cov / p.max_inv_cov) ** p.price_sens_invcov
        mp = p.price_sens_cost * p.unit_cost / (1.0 / f_invcov - 1.0 + p.price_sens_cost)
        prices, new_mp = step_pricing((mp, mp), mp, (p, p), (cov, cov), dt=DT)
        assert prices[0] == pytest.approx(mp)
        assert (new_mp - mp) / DT == pytest.approx(0.0, abs=1e-12)
        assert new_mp == pytest.approx(mp)

    def test_monotone_in_coverage_and_cost(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = random_params(rng)
            mp = rng.uniform(0.5, 3.0)
            covs = tuple(sorted(rng.uniform(EPS_COVERAGE, 40.0, size=2)))
            (low, high), _ = step_pricing((mp, mp), mp, (p, p), covs, dt=DT)
            # price non-increasing in coverage
            assert low >= high - 1e-12
            costs = sorted(rng.uniform(0.1, 2.0, size=2))
            p_low = SDParams(**{**p.__dict__, "unit_cost": costs[0]})
            p_high = SDParams(**{**p.__dict__, "unit_cost": costs[1]})
            (cheap, dear), _ = step_pricing((mp, mp), mp, (p_low, p_high),
                                            (covs[0], covs[0]), dt=DT)
            if p.price_sens_cost > 0:
                assert dear >= cheap - 1e-12


def both_forms(mp, params, covs, bounds=None):
    """``step_pricing`` of one pair in plain floats, checked bit for bit
    against the same pair as a one-row stack: ``(prices, mp)``."""
    prices, new_mp = step_pricing((mp, mp), mp, params, covs, dt=DT, mp_bounds=bounds)
    rows = np.array([[mp, mp]]), np.array([mp])
    ArrayPass([params]).step_pricing(
        *rows, np.array([covs]),
        None if bounds is None else tuple(np.array([b]) for b in bounds))
    assert rows[0].tolist() == [list(prices)] and rows[1].tolist() == [new_mp]
    return prices, new_mp


@pytest.mark.golden
class TestPricingEdges:
    def test_cost_multiplier_floor(self):
        # full cost sensitivity at zero unit cost: f_cost = 0, floored at 1e-9
        p = SDParams(price_sens_cost=1.0, unit_cost=0.0).validate()
        prices, _ = both_forms(1.5, (p, p), (p.max_inv_cov, p.max_inv_cov))
        assert prices == (1.5 * 1e-9, 1.5 * 1e-9)

    def test_coverage_floor(self):
        p = SDParams().validate()
        floored, _ = both_forms(1.5, (p, p), (EPS_COVERAGE, EPS_COVERAGE))
        for cov in (0.0, -3.0, EPS_COVERAGE / 2):
            assert both_forms(1.5, (p, p), (cov, cov))[0] == floored
        assert both_forms(1.5, (p, p), (0.2, 0.2))[0][0] < floored[0]

    def test_market_price_clamped_into_band(self):
        p = SDParams().validate()
        covs = (10.0, 12.0)
        prices, free = both_forms(1.5, (p, p), covs, bounds=(0.3, 7.5))
        assert free == 1.5 + DT * (((prices[0] + prices[1]) / 2.0 - 1.5)
                                   / p.mp_fulfillment_time)
        assert both_forms(1.5, (p, p), covs, bounds=(free * 2, 7.5))[1] == free * 2
        assert both_forms(1.5, (p, p), covs, bounds=(0.3, free / 2))[1] == free / 2
        assert both_forms(1.5, (p, p), covs)[1] == free

    def test_coverage_overflow_is_inadmissible(self):
        # (0.1 / 1e308) ** -1 overflows a float, and (0.1 / inf) ** -0.5 is
        # C pow(0.0, -0.5): either way the price is +inf in both forms (a
        # config cannot load an infinite max_inv_cov; a caller can build it)
        q = SDParams().validate()
        expected = step_pricing((1.5, 1.5), 1.5, (q, q), (0.05, 10.0), dt=DT)
        for p in (SDParams(max_inv_cov=1e308, price_sens_invcov=-1.0).validate(),
                  SDParams(max_inv_cov=math.inf)):
            with pytest.raises(StateError, match=r"^inadmissible price: inf$"):
                step_pricing((1.5, 1.5), 1.5, (p, p), (0.05, 10.0), dt=DT)
            prices, mp = np.full((3, 2), 1.5), np.full(3, 1.5)
            covs = np.array([[0.05, 10.0]] * 3)
            with pytest.raises(StateError) as err:
                ArrayPass([(q, q), (p, p), (q, q)]).step_pricing(prices, mp, covs)
            assert (err.value.row, str(err.value)) == (1, "inadmissible price: inf")
            for r in (0, 2):
                assert (tuple(prices[r]), mp[r]) == expected

    def test_array_power_is_c_pow(self):
        # the array form raises coverage ratios with C ``pow``, as the
        # plain-float form does (``np.power`` rounds differently on a few
        # percent of these draws)
        rng = np.random.default_rng(12)
        p = SDParams()
        levels = [FACTORS["price_sens_invcov"].level_value(label) for label in LEVEL_LABELS]
        ratio = np.exp(rng.uniform(np.log(EPS_COVERAGE / p.max_inv_cov), np.log(1e3), 20_000))
        exponent = np.concatenate([np.repeat(levels, 2_000), rng.uniform(-1.0, 0.0, 12_000)])
        edges = [(0.1 / 1e308, -1.0),           # a subnormal base that overflows to +inf
                 (5e-324, -0.5), (3e-310, -0.1),
                 (0.0, -0.5), (0.0, -1.0),      # +inf, where Python's pow raises
                 (0.3, 0.0), (0.3, -0.0), (5e-324, -0.0),
                 (math.nan, -0.5), (math.nan, 0.0), (0.3, math.nan), (1.0, math.nan)]
        x = np.concatenate([ratio, [b for b, _ in edges]]).reshape(-1, 2)
        y = np.concatenate([exponent, [e for _, e in edges]]).reshape(-1, 2)
        with np.errstate(all="ignore"):
            got = _ARRAYS.power(x, y)
        expected = np.array(list(map(_pow, x.ravel().tolist(), y.ravel().tolist())))
        assert got.shape == x.shape
        assert got.ravel().view(np.int64).tolist() == expected.view(np.int64).tolist()
        tail = expected[-len(edges):].tolist()
        assert tail[0] == tail[3] == tail[4] == math.inf and tail[1] == 2.0 ** 537
        assert tail[5:8] == [1.0] * 3 and tail[9] == tail[11] == 1.0
        assert math.isnan(tail[8]) and math.isnan(tail[10])


@pytest.mark.golden
def test_array_ops_match_plain_float_ops():
    # every element of the array form's clamps, minima and shares has the
    # bits of the plain-float operation, at signed zeros, subnormals,
    # infinities and NaN
    edges = [-math.inf, -1.5, -5e-324, -0.0, 0.0, 5e-324, 0.3, 1.0, 2.0, math.inf, math.nan]
    x, y = np.meshgrid(edges, edges)
    with np.errstate(all="ignore"):
        cases = [("pos", (x,)), ("lesser", (x, y)), ("share", (x, y)), ("neg_part", (x,)),
                 ("at_least", (x, np.full_like(x, 1e-9))),
                 ("at_least", (x, np.full_like(x, EPS_COVERAGE)))]
        # the price band: bounds positive and not NaN, an infinite cap included
        for bound in (5e-324, 0.3, 2.0, math.inf):
            cases += [("at_least", (x, np.full_like(x, bound))),
                      ("at_most", (x, np.full_like(x, bound)))]
        for name, args in cases:
            got = getattr(_ARRAYS, name)(*args)
            expected = list(map(getattr(_FLOATS, name), *(a.ravel().tolist() for a in args)))
            assert got.ravel().view(np.int64).tolist() == \
                np.array(expected, dtype=float).view(np.int64).tolist(), name


@pytest.mark.golden
def test_block_ops_match_plain_float_ops():
    # the array form divides and integrates a company's seven stocks as (7,
    # rows, 2) blocks: every element takes the plain-float form's division,
    # subtraction, product and add, at signed zeros, subnormals, infinities
    # and NaN
    edges = [-math.inf, -1.5, -5e-324, -0.0, 0.0, 5e-324, 0.3, 1.0, 1e308, math.inf, math.nan]
    rng = np.random.default_rng(17)
    rows = 60
    stocks, ins, outs = (rng.choice(edges, (7, rows, 2)) for _ in range(3))
    delays = rng.choice(edges[5:], (4, rows, 2))  # > 0 or NaN: what validation lets through
    dt = np.array(0.25)
    with np.errstate(all="ignore"):
        block, per_day = _ARRAYS.per_day(tuple(stocks), delays, dt)
        stepped, flows = _ARRAYS.integrate(block, tuple(ins), tuple(outs), dt)
    assert block.shape == stepped.shape == flows.shape == (7, rows, 2)
    for r in range(rows):
        for i in (0, 1):
            one = [tuple(float(x) for x in a[:, r, i]) for a in (stocks, ins, outs, delays)]
            _, expected_per_day = _FLOATS.per_day(one[0], one[3], 0.25)
            expected = _FLOATS.integrate(one[0], one[1], one[2], 0.25)
            for got, want in ((np.array(per_day)[:, r, i], expected_per_day),
                              (stepped[:, r, i], expected[0]), (flows[:, r, i], expected[1])):
                assert got.view(np.int64).tolist() == \
                    np.array(want, dtype=float).view(np.int64).tolist(), (r, i)


@pytest.mark.golden
class TestRoundingSlack:
    def test_drained_backlog_rounds_to_zero(self):
        # shipping ``order + backlog / dt`` clears a backlog of 1.42 to
        # -1.8e-15 in floats; both forms read it as zero
        p = SDParams(safety_stock_cov=0.5, order_processing_time=0.2).validate()
        s = replace(steady_state(p, 100.0), backlog=1.42, inv=1000.0)
        rows = SDState.stacked([(s, s)], [0])
        step_company(s, p, order_rate=100.0, dt=DT)
        ArrayPass([(p, p)]).step_company(rows, 100.0)
        assert s.backlog == 0.0 and rows.backlog.tolist() == [[0.0, 0.0]]

    def test_slack_bounds_the_rounding(self):
        # no production and no inflow: a stock's start value carries over
        p = SDParams().validate()
        base = replace(steady_state(p, 100.0), wip=0.0)
        for inv, message in ((-ROUNDING_SLACK / 2, None),
                             (-2 * ROUNDING_SLACK, "negative stock inv: -2e-09"),
                             (math.nan, "non-finite stock inv: nan")):
            s = replace(base, inv=inv)
            if message is None:
                assert step_company(s, p, order_rate=100.0, dt=DT).inv == 0.0
            else:
                with pytest.raises(StateError, match=f"^{message}$"):
                    step_company(s, p, order_rate=100.0, dt=DT)


class TestInvariants:
    def test_conservation_random_runs(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            p = random_params(rng)
            s = steady_state(p, 100.0)
            start = s.stocks()
            ledger = FlowLedger()
            for day in range(100):
                noise = NoiseDraws(wip=rng.normal(0, 5), prod=rng.normal(0, 5),
                                   order=rng.normal(0, 8), inv=rng.normal(0, 5))
                for _ in range(4):
                    s = step_company(s, p, order_rate=rng.uniform(50, 150),
                                     noise=noise, dt=DT, ledger=ledger)
            for name, x0 in start.items():
                xt = getattr(s, name)
                scale = max(abs(xt), abs(x0), 1.0)
                assert abs((xt - x0) - ledger.flows[name]) / scale < 1e-9, name

    def test_conservation_stacked_rows(self):
        # five company pairs stepped as (5, 2) arrays; the first company of
        # row 4 is idle (no orders, no backlog), so it never ships
        rng = np.random.default_rng(43)
        params = [(random_params(rng), random_params(rng)) for _ in range(5)]
        states = [tuple(steady_state(p, 100.0) for p in pair) for pair in params]
        states[4][0].backlog = 0.0
        busy = np.ones((5, 2))
        busy[4, 0] = 0.0
        run = ArrayPass(params)
        s = SDState.stacked(states, np.arange(5))
        start = s.stocks()
        ledger = FlowLedger()
        for day in range(100):
            noise = NoiseDraws(wip=rng.normal(0, 5, (5, 2)), prod=rng.normal(0, 5, (5, 2)),
                               order=busy * rng.normal(0, 8, (5, 2)),
                               inv=rng.normal(0, 5, (5, 2)))
            for _ in range(4):
                assert run.step_company(s, busy * rng.uniform(50, 150, (5, 2)), noise,
                                        ledger=ledger) is s
                assert s.ship_r[4, 0] == 0.0 and s.inv_cov[4, 0] == run.p.max_inv_cov[4, 0]
        for name, x0 in start.items():
            xt = getattr(s, name)
            scale = np.maximum(np.maximum(abs(xt), abs(x0)), 1.0)
            assert (abs((xt - x0) - ledger.flows[name]) / scale < 1e-9).all(), name

    def test_non_negativity_fuzz(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = random_params(rng)
            s = steady_state(p, 100.0)
            for _ in range(200):
                noise = NoiseDraws(wip=rng.normal(0, 20), prod=rng.normal(0, 20),
                                   order=rng.normal(0, 30), inv=rng.normal(0, 20))
                s = step_company(s, p, order_rate=rng.uniform(0, 200),
                                 noise=noise, dt=DT)
                for name, v in s.stocks().items():
                    assert v >= 0.0, name
                # the rates that are not kept are clamped at zero or are
                # ratios of the start-of-step stocks checked the step before
                for rate in (s.prod_br, s.ship_r, s.rm_order_r, s.inv_cov):
                    assert rate >= 0.0

    def test_bottleneck_bound(self):
        rng = np.random.default_rng(11)
        p = random_params(rng)
        s = steady_state(p, 100.0)
        for _ in range(400):
            labor_before, rm_before = s.labor, s.rm_inv
            order, noise = rng.uniform(0, 250), NoiseDraws(order=rng.normal(0, 30))
            s = step_company(s, p, order_rate=order, noise=noise, dt=DT)
            # rates are computed from beginning-of-step stocks; desired
            # production adds the new adjusters to the noisy order
            d_prod_br = max(0.0, s.a_wip + s.a_prod + max(0.0, order + noise.order))
            rm_fulfill = min(1.0, rm_before / (p.rm_inventory_cov * d_prod_br)) \
                if d_prod_br > 0 else 1.0
            assert s.prod_br <= labor_before * p.daily_capacity_per_worker + 1e-9
            assert s.prod_br <= min(d_prod_br * rm_fulfill, rm_before / DT) + 1e-9
            assert s.prod_br <= d_prod_br + 1e-9
