import math
import time
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from duogame import market, runner
from duogame.draws import RowStreams
from duogame.errors import ParameterError, ReplicationError, StateError
from duogame.factors import FACTOR_DEFS, LEVEL_LABELS, materialize
from duogame.market import MarketParams
from duogame.runner import (
    CompanySpec,
    CostRates,
    SimulationSettings,
    compute_payoff,
    estimate_payoffs,
    replication_seeds,
    run_replication,
)
from duogame.supply_chain import (
    EPS_COVERAGE,
    ZERO_NOISE,
    NoiseDraws,
    PassParams,
    SDParams,
    SDState,
    _BLOCK,
    _admissible,
    _settle,
    steady_state,
    step_company,
    step_pricing,
)
from pass_tools import ArrayPass
from step_reference import REF_ARRAYS, REF_FLOATS, reference_advance
from warmup_tools import detect_warmup


def default_specs():
    return (CompanySpec(), CompanySpec())


def pricing_asymmetric_specs():
    # strategies differ in a factor visible from day zero, so no motivation
    # ties ever occur and zero-noise runs are fully deterministic
    a = CompanySpec(sd=SDParams(mfg_price=1.0))
    b = CompanySpec(sd=SDParams(mfg_price=1.6))
    return (a, b)


class TestRunReplication:
    def test_symmetric_zero_noise_shares_near_half(self):
        settings = SimulationSettings(deterministic_marketing=True)
        for seed in (0, 1, 3):
            rep = run_replication(default_specs(), settings, seed=seed)
            ms = rep.series["ms"][settings.warmup_days:, 0]
            assert np.abs(ms - 0.5).max() <= 0.05

    def test_deterministic_given_seed(self):
        settings = SimulationSettings()
        a = run_replication(default_specs(), settings, seed=11)
        b = run_replication(default_specs(), settings, seed=11)
        for name in a.series:
            assert np.array_equal(a.series[name], b.series[name])
        assert np.array_equal(a.revenue, b.revenue)
        c = run_replication(default_specs(), settings, seed=12)
        assert not np.array_equal(a.series["ms"], c.series["ms"])

    def test_default_run_under_time_budget(self):
        settings = SimulationSettings()
        times = []
        for s in range(3):
            start = time.perf_counter()
            run_replication(default_specs(), settings, seed=s)
            times.append(time.perf_counter() - start)
        best = min(times)
        assert best < 0.050, f"replication took {best * 1e3:.1f} ms"

    def test_series_shapes(self):
        settings = SimulationSettings(run_length_days=30)
        rep = run_replication(default_specs(), settings, seed=2)
        for name in ("price", "inv", "backlog", "ship_r", "ms", "labor", "wip"):
            assert rep.series[name].shape == (30, 2)

    def test_accumulators_non_negative(self):
        settings = SimulationSettings()
        rep = run_replication(default_specs(), settings, seed=5)
        for arr in (rep.revenue, rep.units_produced, rep.units_purchased,
                    rep.units_shipped, rep.inv_unit_days, rep.backlog_unit_days,
                    rep.marketing_spend, rep.sunk_own):
            assert (np.asarray(arr) >= 0).all()
        assert rep.sunk_total >= 0

    def test_numeric_blowup_raises_with_day(self):
        # lift the price saturation band: an extreme coverage exponent then
        # drives the market expected price past float range
        bad = CompanySpec(sd=SDParams(price_sens_invcov=-0.9, max_inv_cov=1e9,
                                      mp_cap_ratio=float("inf")))
        settings = SimulationSettings()
        with np.errstate(over="ignore"), pytest.raises(ReplicationError) as err:
            run_replication((bad, bad), settings, seed=0)
        assert err.value.day is not None

    def test_price_band_contains_runaway_corners(self):
        # the same corner under the default band stays finite and bounded by
        # the capped market price times the worst coverage multiplier
        from duogame.supply_chain import EPS_COVERAGE

        corner = CompanySpec(sd=SDParams(price_sens_cost=0.1,
                                         price_sens_invcov=-0.9,
                                         safety_stock_cov=2.0))
        settings = SimulationSettings(deterministic_marketing=True)
        rep = run_replication((corner, corner), settings, seed=0)
        f_inv_max = (EPS_COVERAGE / corner.sd.max_inv_cov) ** corner.sd.price_sens_invcov
        bound = corner.sd.mp_cap_ratio * corner.sd.mfg_price * f_inv_max
        assert np.isfinite(rep.series["price"]).all()
        assert rep.series["price"].max() <= bound

    def test_bad_spec_rejected(self):
        settings = SimulationSettings()
        with pytest.raises(ParameterError):
            run_replication((CompanySpec(mb_pct=1.5), CompanySpec()), settings, 0)

    def test_no_seeds_rejected(self):
        with pytest.raises(ParameterError, match="replications must be >= 1"):
            run_replication(default_specs(), SimulationSettings(), [])

    @pytest.mark.parametrize("seeds,bad", [(-1, -1), (1 << 128, 1 << 128),
                                           ([3, -(1 << 32)], -(1 << 32)),
                                           ([5, (1 << 130) + 5], (1 << 130) + 5)],
                             ids=["negative", "2**128", "negative-in-list", "2**130-in-list"])
    def test_seed_outside_range_rejected(self, seeds, bad):
        # named as given, not wrapped through a uint32 or uint64 cast
        with pytest.raises(ParameterError, match=rf"replication seed {bad} is outside"):
            run_replication(default_specs(), SimulationSettings(run_length_days=2), seeds)

    def test_largest_seed_runs(self):
        settings = SimulationSettings(run_length_days=2)
        rep = run_replication(default_specs(), settings, (1 << 128) - 1)
        assert rep.seed == (1 << 128) - 1

    def test_mirrored_runs_swap_exactly(self):
        a, b = pricing_asymmetric_specs()
        a.sd.sigma_order = 5.0
        b.sd.sigma_order = 5.0
        settings = SimulationSettings()
        base = run_replication((a, b), settings, seed=21)
        mirrored = run_replication((b, a), settings, seed=21, mirror=True)
        for name in base.series:
            assert np.array_equal(base.series[name][:, 0], mirrored.series[name][:, 1])
            assert np.array_equal(base.series[name][:, 1], mirrored.series[name][:, 0])
        assert base.revenue[0] == mirrored.revenue[1]
        rates = CostRates()
        assert compute_payoff(base, rates)[0] == compute_payoff(mirrored, rates)[1]


def diverging_specs(price_sens_invcov):
    # without the price band, a large coverage capacity lets the market
    # price run away; order noise makes the day of divergence seed-dependent
    bad = CompanySpec(sd=SDParams(price_sens_invcov=price_sens_invcov,
                                  max_inv_cov=1e6, mp_cap_ratio=float("inf"),
                                  sigma_order=20.0))
    return (bad, bad)


def replay_error(specs, settings, seed):
    with pytest.raises(ReplicationError) as err:
        run_replication(specs, settings, seed)
    return err.value


class TestReplicationFailures:
    # under these specs seeds 4, 5, 7 and 10 diverge on day 56 of 57 and
    # seeds 0-3 and 6 run to the end
    SETTINGS = SimulationSettings(run_length_days=57)

    def test_block_reports_replication_three_of_five(self):
        specs = diverging_specs(-0.7)
        seeds = [0, 1, 2, 4, 6]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ReplicationError) as err:
                estimate_payoffs(specs, self.SETTINGS, CostRates(), 5, seeds)
            alone = replay_error(specs, self.SETTINGS, 4)
        assert (err.value.index, err.value.seed, err.value.day) == (3, 4, 56)
        assert (alone.index, alone.seed, alone.day) == (0, 4, 56)

    def test_index_counts_across_blocks(self):
        specs = diverging_specs(-0.7)
        seeds = [0, 1, 2, 3, 6] * 7 + [5]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ReplicationError) as err:
                run_replication(specs, self.SETTINGS, seeds)
        assert (err.value.index, err.value.seed, err.value.day) == (35, 5, 56)

    def test_lowest_index_wins_over_earliest_day(self):
        # seed 1 diverges on day 31, seed 0 already on day 30
        specs = diverging_specs(-0.9)
        settings = SimulationSettings(run_length_days=32)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ReplicationError) as err:
                run_replication(specs, settings, [1, 0])
            alone = replay_error(specs, settings, 1)
        assert (err.value.index, err.value.seed, err.value.day) == (0, 1, 31)
        assert alone.day == 31

    def test_error_survives_pickling(self):
        import pickle

        err = ReplicationError("replication diverged on day 3: x", day=3,
                               seed=17, index=2)
        back = pickle.loads(pickle.dumps(err))
        assert (str(back), back.day, back.seed, back.index) == (str(err), 3, 17, 2)


ACCUMULATORS = ("revenue", "units_produced", "units_purchased", "units_shipped",
                "inv_unit_days", "backlog_unit_days", "marketing_spend", "sunk_own",
                "sunk_total")


class TestMixedBlocks:
    def test_rows_equal_lone_runs(self):
        # the runaway corner saturates the price band and ties agents;
        # the noisy pair draws all four noises; 36 rows cross a block
        corner = CompanySpec(sd=SDParams(price_sens_cost=0.1, price_sens_invcov=-0.9,
                                         safety_stock_cov=2.0))
        noisy = CompanySpec(sd=SDParams(sigma_wip=2.0, sigma_prod=3.0,
                                        sigma_order=5.0, sigma_inv=4.0))
        pairs = [default_specs(), (corner, corner), pricing_asymmetric_specs(),
                 (noisy, CompanySpec())]
        settings = SimulationSettings(deterministic_marketing=True)
        seeds = replication_seeds(105, 0, 36)
        specs = [pairs[j % len(pairs)] for j in range(len(seeds))]
        block = run_replication(specs, settings, seeds)
        for j, seed in enumerate(seeds):
            alone = run_replication(specs[j], settings, seed)
            assert block[j].seed == seed
            for name, series in alone.series.items():
                assert np.array_equal(block[j].series[name], series), (j, name)
            for name in ACCUMULATORS:
                assert np.array_equal(getattr(block[j], name),
                                      getattr(alone, name)), (j, name)

    @pytest.mark.parametrize("deterministic", [False, True])
    def test_exact_scores_are_never_asked_for_no_agent(self, monkeypatch,
                                                        deterministic):
        # the runaway corner's prices raise the day's largest bound for every
        # row; the other rows' agents are still decided by their own bounds,
        # so no slice asks the exact scores for an empty selection. Under
        # random marketing no agent needs exact scores; under pinned
        # marketing every agent of the symmetric first day does, and no other
        seen = []
        exact = market.ConsumerMarket._exact

        def spy(self, rows, agents, *rest):
            assert rows.size > 0
            seen.append(rows.size)
            return exact(self, rows, agents, *rest)

        monkeypatch.setattr(market.ConsumerMarket, "_exact", spy)
        corner = CompanySpec(sd=SDParams(price_sens_cost=0.1, price_sens_invcov=-0.9,
                                         safety_stock_cov=2.0))
        width = 72
        specs = [(corner, corner) if j % 4 == 1 else default_specs()
                 for j in range(width)]
        settings = SimulationSettings(deterministic_marketing=deterministic)
        run_replication(specs, settings, replication_seeds(105, 0, width),
                        series=False)
        assert sum(seen) == (width * settings.n_agents if deterministic else 0)

    def test_pair_count_must_match_seeds(self):
        with pytest.raises(ParameterError):
            run_replication([default_specs()] * 2, SimulationSettings(), [1, 2, 3])


def same(a, b) -> bool:
    """Bit-identical floats, any NaN matching any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.array_equal(np.isnan(a), np.isnan(b))
                and np.array_equal(a[~np.isnan(a)].view(np.uint64),
                                   b[~np.isnan(b)].view(np.uint64)))


def random_company(rng):
    """Parameters drawn wide, including layoff times below one sub-step, and
    a state around their steady state with some stocks emptied."""
    p = SDParams(
        vac_creation_time=rng.uniform(1, 5), layoff_time=rng.uniform(0.1, 7),
        labor_fulfillment_time=rng.uniform(4, 12),
        wip_fulfillment_time=rng.uniform(1, 3),
        inv_fulfillment_time=rng.uniform(2, 14), rm_lead_time=rng.uniform(1, 7),
        safety_stock_cov=rng.uniform(2, 14), rm_inventory_cov=rng.uniform(1, 7),
        price_sens_cost=rng.uniform(0, 1), price_sens_invcov=rng.uniform(-1, 0),
        mfg_price=rng.uniform(1, 2), lam_wip=rng.uniform(0.1, 1),
        lam_prod=rng.uniform(0.1, 1), lam_labor=rng.uniform(0.1, 1),
        lam_vac=rng.uniform(0.1, 1), mp_fulfillment_time=rng.uniform(10, 30),
        max_layoff_rate=None if rng.random() < 0.5 else rng.uniform(0.01, 3)).validate()
    s = steady_state(p, 100.0)
    for name in SDState.STOCK_FIELDS:
        setattr(s, name, getattr(s, name) * (0.0 if rng.random() < 0.15
                                             else rng.uniform(0, 2)))
    for name in ("a_wip", "a_prod", "a_labor", "a_vac"):
        setattr(s, name, rng.normal(0, 30))
    s.price = rng.uniform(0.5, 3)
    order = 0.0 if rng.random() < 0.2 else rng.uniform(0, 200)
    noise = NoiseDraws()
    if rng.random() < 0.5:
        noise = NoiseDraws(*rng.normal(0, 40, 4).tolist())
    return p, s, order, noise


def special_companies():
    """(params, state, order, noise) rows that force the step's branches."""
    p = SDParams().validate()
    base = steady_state(p, 100.0)
    quiet = NoiseDraws()
    layoffs = replace(base, labor=2.0, a_labor=-40.0)
    return [
        # no production wanted, so no raw material wanted: rm_desired == 0
        (p, replace(base, inv=5000.0, wip=5000.0, a_prod=-500.0), 0.0, quiet),
        # nothing ordered or desired: d_inv == 0 with and without stock
        (p, replace(base, inv=0.0, backlog=0.0), 0.0, quiet),
        (p, replace(base, backlog=3.0), 0.0, NoiseDraws(inv=-50.0)),
        # outflow over the workforce within a sub-step is rescaled
        (SDParams(layoff_time=0.1).validate(), layoffs, 100.0, quiet),
        # a capped layoff rate
        (SDParams(max_layoff_rate=0.05).validate(), layoffs, 100.0, quiet),
        # idle line: nothing ships, coverage pegged to capacity
        (p, replace(base, backlog=0.0), 0.0, quiet),
        # NaN in an adjuster, an order rate and a noise draw, stocks finite
        (p, replace(base, a_prod=math.nan), 100.0, quiet),
        (p, base, math.nan, quiet),
        (p, base, 100.0, NoiseDraws(prod=math.nan)),
        # inadmissible: negative, non-finite and overflowing stocks
        (p, replace(base, inv=-1000.0), 100.0, quiet),
        (p, replace(base, wip=math.nan), 100.0, quiet),
        (p, replace(base, **{n: 1e308 for n in SDState.STOCK_FIELDS}), 100.0, quiet),
        # unbounded coverage drives the price to zero
        (p, replace(base, inv=math.inf, backlog=0.0), 0.0, quiet),
        # a NaN layoff cap caps nothing: the one NaN that reaches the second
        # argument of ``y if y < x else x`` in an admissible step
        (SDParams(max_layoff_rate=math.nan), layoffs, 100.0, quiet),
    ]


def scalar_step(row, dt=0.25):
    """One sub-step of a row in plain floats: the new states (prices
    included) and market expected price, or the error message."""
    params, states, orders, noises, mp, bounds = row
    states = [replace(s) for s in states]
    try:
        for i in (0, 1):
            step_company(states[i], params[i], orders[i], noises[i], dt)
        prices, mp = step_pricing((states[0].price, states[1].price), mp, params,
                                  (states[0].inv_cov, states[1].inv_cov),
                                  dt=dt, mp_bounds=bounds)
    except StateError as exc:
        return str(exc)
    for s, price in zip(states, prices):
        s.price = price
    return states, mp


def array_step(rows):
    """One array sub-step of ``rows``: the rows' state, market expected
    prices and the error of the lowest failing row (None if none failed)."""
    run = ArrayPass([row[0] for row in rows])
    state = SDState.stacked([row[1] for row in rows], np.arange(len(rows)))
    orders = np.array([row[2] for row in rows], dtype=float)
    noise = NoiseDraws(*np.array([[[getattr(n, f) for n in row[3]]
                                   for row in rows]
                                  for f in ("wip", "prod", "order", "inv")]))
    mp = np.array([row[4] for row in rows])
    bounds = tuple(np.array([row[5][k] for row in rows]) for k in (0, 1))
    error = None
    try:
        run.step_company(state, orders, noise)
    except StateError as exc:
        error = exc
    try:
        run.step_pricing(state.price, mp, state.inv_cov, bounds)
    except StateError as exc:
        if error is None or exc.row < error.row:
            error = exc
    return state, mp, error


def pricing_rows():
    """Rows that take pricing to its edges: the cost multiplier's floor, the
    coverage floor, each bound of the market-price band and an overflowing
    coverage multiplier."""
    p = SDParams().validate()
    base = steady_state(p, 100.0)
    # nothing in production and a backlog to clear: the inventory ships out
    drained = replace(base, wip=0.0, inv=1.0, backlog=1e5)

    def row(first=p, state=base, bounds=(0.3, 7.5)):
        return ((first, p), (state, base), (100.0, 100.0),
                (NoiseDraws(), NoiseDraws()), 1.5, bounds)
    return [row(SDParams(price_sens_cost=1.0, unit_cost=0.0).validate()),
            row(state=drained), row(bounds=(3.0, 7.5)), row(bounds=(0.3, 1.0)),
            row(SDParams(max_inv_cov=1e308, price_sens_invcov=-1.0).validate(),
                state=drained)]


@pytest.mark.golden
class TestArrayStep:
    def rows(self):
        rng = np.random.default_rng(2024)
        companies = [random_company(rng) for _ in range(300)] + special_companies()
        rows = []
        for j, first in enumerate(companies):
            second = companies[(7 * j + 3) % len(companies)]
            pair = (first, second) if j % 2 else (second, first)
            mp = rng.uniform(0.2, 4)
            bounds = (mp * rng.uniform(0.1, 1), mp * rng.uniform(1, 6))
            rows.append(tuple(tuple(c[k] for c in pair) for k in range(4))
                        + (mp, bounds))
        # pricing failures ahead of the first stock failure: an infinite
        # price and a market price that is not positive
        rows[5] = rows[5][:4] + (math.inf, (0.0, math.inf))
        rows[6] = rows[6][:4] + (-1.0, (-2.0, 0.0))
        return rows + pricing_rows()

    def test_matches_plain_float_step(self):
        rows = self.rows()
        with np.errstate(all="ignore"):
            expected = [scalar_step(row) for row in rows]
            state, mp, error = array_step(rows)
        failed = [r for r, e in enumerate(expected) if isinstance(e, str)]
        assert failed and len(failed) < len(rows)
        assert (error.row, str(error)) == (failed[0], expected[failed[0]])
        for r, result in enumerate(expected):
            if isinstance(result, str):
                continue
            states, row_mp = result
            for name in (f.name for f in fields(SDState)):
                got = getattr(state, name)[r]
                assert same(got, [getattr(s, name) for s in states]), (r, name)
            assert same(mp[r], row_mp), r

    def test_every_failure_message_matches(self):
        rows = self.rows()
        with np.errstate(all="ignore"):
            for r, row in enumerate(rows):
                expected = scalar_step(row)
                if isinstance(expected, str):
                    error = array_step([row])[2]
                    assert (error.row, str(error)) == (0, expected), r

    def test_branches_reached(self):
        p = SDParams().validate()
        cases = special_companies()
        states = [step_company(replace(s), p_, o, n) for p_, s, o, n in cases[:9]]
        # no order and no noise: desired production is max(0, a_wip + a_prod)
        assert states[0].a_wip + states[0].a_prod <= 0.0
        # nothing desired: an empty stock ships nothing, any stock ships the
        # backlog clearance in full
        assert states[1].ship_r == 0.0
        assert states[2].ship_r == 3.0 / p.order_processing_time
        # the workforce outflow is rescaled to exactly the 2 workers on hand,
        # then capped at 0.05 layoffs a day
        hire = min(cases[3][1].vac / p.vac_fulfillment_time, cases[3][1].vac / 0.25)
        assert states[3].labor == pytest.approx(0.25 * hire)
        retire = 2.0 / p.employment_time
        assert states[4].labor == pytest.approx(2.0 + 0.25 * (hire - retire - 0.05))
        assert states[5].ship_r == 0.0 and states[5].inv_cov == p.max_inv_cov
        assert math.isnan(states[6].a_prod) and math.isfinite(states[6].inv)

    def test_pricing_edges_reached(self):
        cost, cover, floor, cap, overflow = map(scalar_step, pricing_rows())
        assert cost[0][0].price < 1.5 * 1e-8
        assert cover[0][0].inv_cov < EPS_COVERAGE
        assert (floor[1], cap[1]) == (3.0, 1.0)
        assert overflow == "inadmissible price: inf"


def mixed_pairs():
    corner = CompanySpec(sd=SDParams(price_sens_cost=0.1, price_sens_invcov=-0.9,
                                     safety_stock_cov=2.0))
    noisy = CompanySpec(sd=SDParams(sigma_wip=2.0, sigma_prod=3.0,
                                    sigma_order=5.0, sigma_inv=4.0))
    a, b = pricing_asymmetric_specs()
    return [default_specs(), (corner, corner), (noisy, CompanySpec()),
            (CompanySpec(), noisy), (a, b), (b, a)]


@pytest.mark.golden
class TestKernelWidths:
    SETTINGS = SimulationSettings(run_length_days=14)

    @pytest.mark.parametrize("width,mirror", [(1, False), (31, False), (33, False),
                                              (70, False), (101, False),
                                              (33, True)])
    def test_rows_equal_lone_runs(self, width, mirror):
        pairs = mixed_pairs()
        seeds = replication_seeds(width, 0, width)
        specs = [pairs[j % len(pairs)] for j in range(width)]
        together = run_replication(specs, self.SETTINGS, seeds, mirror=mirror)
        for j, seed in enumerate(seeds):
            alone = run_replication(specs[j], self.SETTINGS, seed, mirror=mirror)
            for name, series in alone.series.items():
                assert same(together[j].series[name], series), (j, name)
            for name in ACCUMULATORS:
                assert same(getattr(together[j], name), getattr(alone, name)), (j, name)

    @pytest.mark.parametrize("changes", [
        {"fixed_share_split": 0.3}, {"warmup_days": 12, "truncate_warmup": True},
        {"dt": 0.5}, {"dt": 1.0}, {"marketing_period": 3}])
    def test_settings_agree_across_kernels(self, changes, monkeypatch):
        settings = replace(self.SETTINGS, run_length_days=25, **changes)
        pairs = mixed_pairs()
        seeds = replication_seeds(5, 1, 40)
        specs = [pairs[j % len(pairs)] for j in range(40)]
        runs = []
        for wide in (len(seeds) + 1, 1):
            monkeypatch.setattr(runner, "WIDE", wide)
            runs.append(run_replication(specs, settings, seeds))
        for j, (narrow, wide) in enumerate(zip(*runs)):
            for name, series in narrow.series.items():
                assert same(wide.series[name], series), (j, name)
            for name in ACCUMULATORS:
                assert same(getattr(wide, name), getattr(narrow, name)), (j, name)

    def test_both_kernels_reached(self, monkeypatch):
        # each sub-step body runs on its own side of WIDE, once a day
        calls = []
        for name in ("_float_steps", "_array_steps"):
            def record(self, *args, _body=getattr(runner._Rows, name), _name=name):
                calls.append((_name, self.rows))
                return _body(self, *args)
            monkeypatch.setattr(runner._Rows, name, record)
        days = self.SETTINGS.run_length_days
        run_replication(default_specs(), self.SETTINGS, [1] * (runner.WIDE - 1))
        assert calls == [("_float_steps", runner.WIDE - 1)] * days
        calls.clear()
        run_replication(default_specs(), self.SETTINGS, [1] * runner.WIDE)
        assert calls == [("_array_steps", runner.WIDE)] * days


def reference_step(state, p, order_rate, noise=ZERO_NOISE, dt=0.25):
    """``state`` after one sub-step of the reference body (``step_reference``),
    settled and checked as ``step_company`` does, and its per-row (array) or
    whole (float) admissibility; ``state`` itself is left as it was."""
    ref = replace(state)
    arrays = isinstance(p.cycle_time, np.ndarray)
    with np.errstate(all="ignore"):
        reference_advance(ref, p, order_rate, noise, dt, REF_ARRAYS if arrays else REF_FLOATS)
        stocks = tuple(getattr(ref, name) for name in _BLOCK)
        ok = _admissible(np.array(stocks) if arrays else stocks)
        if not np.all(ok):
            ok = _settle(ref, np.array(stocks) if arrays else stocks)
    return ref, ok


def assert_steps_as_reference(state, p, order_rate, noise=ZERO_NOISE, dt=0.25, ref_p=None):
    """Step ``state`` in place with ``step_company`` and check every field
    against :func:`reference_step` (of ``ref_p``, by default ``p``), and the
    error, if any, against the reference's lowest inadmissible row."""
    expected, ok = reference_step(state, p if ref_p is None else ref_p, order_rate, noise, dt)
    error = None
    try:
        step_company(state, p, order_rate, noise, dt)
    except StateError as exc:
        error = exc
    for f in fields(SDState):
        assert same(getattr(state, f.name), getattr(expected, f.name)), f.name
    if isinstance(p.cycle_time, np.ndarray):
        failed = np.flatnonzero(~np.all(ok, axis=1))
        assert (error is None) == (failed.size == 0)
        assert error is None or error.row == failed[0]
    else:
        assert (error is None) == bool(ok)
    return error


def edge_rows():
    """(params, state, order, noise) rows at the edges of the step's
    preconditions, each admissible: zero stocks of either sign, nothing
    wanted (``rm_desired == 0``), ``d_inv == 0`` with and without stock,
    delays shorter than a sub-step, an outflow over the workforce on hand,
    capped and uncapped layoffs, NaN outside the stocks; and smoothing
    factors and capacities that differ from the default company's, so that
    a term taken from one company's column shows."""
    p = SDParams().validate()
    base = steady_state(p, 100.0)
    quiet = NoiseDraws()
    short = SDParams(cycle_time=0.1, rm_lead_time=0.2, vac_fulfillment_time=0.05).validate()
    own = SDParams(lam_wip=0.3, lam_prod=0.7, lam_labor=0.9, lam_vac=0.2, labor_hours=7.0,
                   labor_productivity=0.7, order_processing_time=1.5).validate()
    zero = SDState(price=1.5)
    negative_zero = SDState(**{name: -0.0 for name in SDState.STOCK_FIELDS}, price=1.5)
    layoffs = replace(base, labor=2.0, a_labor=-40.0)
    return [row for row in special_companies() if row[1].wip >= 0 and row[1].inv >= 0
            and math.isfinite(sum(row[1].stocks().values()))] + [
        (p, zero, 100.0, quiet), (p, zero, 0.0, quiet), (p, negative_zero, 100.0, quiet),
        (p, negative_zero, 0.0, NoiseDraws(inv=-50.0)), (short, base, 100.0, quiet),
        (short, replace(base, wip=5000.0, rm_transit=1e-300, vac=7.0), 0.0, quiet),
        (SDParams(layoff_time=0.1, max_layoff_rate=1e9).validate(), layoffs, 0.0, quiet),
        (SDParams(layoff_time=0.05).validate(), replace(layoffs, labor=1e-300), 100.0, quiet),
        (own, base, 100.0, quiet), (own, replace(base, a_labor=-40.0, a_prod=30.0), 50.0, quiet),
    ]


@pytest.mark.golden
class TestStepAgainstReference:
    """The company sub-step gives every element the bits of its reference
    copy (``tests/step_reference.py``) on every state a run reaches: stocks
    finite and >= 0 at the start of each sub-step."""

    SETTINGS = SimulationSettings(run_length_days=12)

    def test_edge_rows_plain_float(self):
        for r, (p, state, order, noise) in enumerate(edge_rows()):
            assert assert_steps_as_reference(replace(state), p, order, noise) is None, r

    @pytest.mark.parametrize("quiet", [True, False])
    def test_edge_rows_array(self, quiet):
        rows = edge_rows()
        rows = [(rows[j][0], rows[(j + 3) % len(rows)][0], rows[j][1],
                 rows[(j + 3) % len(rows)][1], rows[j][2], rows[(j + 3) % len(rows)][2],
                 rows[j][3], rows[(j + 3) % len(rows)][3]) for j in range(len(rows))]
        run = ArrayPass([row[:2] for row in rows])
        state = SDState.stacked([row[2:4] for row in rows], np.arange(len(rows)))
        orders = np.array([row[4:6] for row in rows])
        noise = ZERO_NOISE if quiet else NoiseDraws(*np.array(
            [[[getattr(n, f) for n in row[6:]] for row in rows]
             for f in ("wip", "prod", "order", "inv")]))
        for _ in range(3):
            with np.errstate(all="ignore"):
                assert assert_steps_as_reference(state, run.p, orders, noise, run.p.dt,
                                                 ref_p=run.stacked) is None

    def test_layoff_cap_none_in_every_row_is_kept_none(self):
        capped = SDParams(max_layoff_rate=0.5)
        assert SDParams.stacked([(SDParams(), SDParams())], [0]).max_layoff_rate is None
        assert SDParams.stacked([(capped, SDParams())], [0]).max_layoff_rate.tolist() == \
            [[0.5, math.inf]]

    @pytest.mark.parametrize("case", ["default", "corner", "noisy", "layoff-cap",
                                      "factor-levels", "deterministic", "mirror"])
    def test_every_substep_of_a_pass(self, case, monkeypatch):
        corner = CompanySpec(sd=SDParams(price_sens_cost=0.1, price_sens_invcov=-0.9,
                                         safety_stock_cov=2.0))
        noisy = CompanySpec(sd=SDParams(sigma_wip=2.0, sigma_prod=3.0,
                                        sigma_order=5.0, sigma_inv=4.0))
        capped = CompanySpec(sd=SDParams(max_layoff_rate=0.05, layoff_time=0.5))
        rng = np.random.default_rng(31)

        def drawn():
            return materialize({f.name: LEVEL_LABELS[rng.integers(4)] for f in FACTOR_DEFS})
        pairs = {"default": [default_specs()], "corner": [(corner, corner)],
                 "noisy": [(noisy, noisy), (noisy, CompanySpec())],
                 "layoff-cap": [(capped, CompanySpec()), (capped, capped)],
                 "factor-levels": [(drawn(), drawn()) for _ in range(6)]}.get(case, mixed_pairs())
        settings = replace(self.SETTINGS, deterministic_marketing=case == "deterministic")
        forms = []

        def checked(state, p, order_rate, noise=ZERO_NOISE, dt=0.25, ledger=None):
            forms.append(isinstance(p, PassParams))
            # a pass record holds only what the array body reads: the
            # reference steps the stacked records of the pass's pairs
            error = assert_steps_as_reference(state, p, order_rate, noise, dt,
                                              ref_p=stacked if forms[-1] else p)
            if error is not None:
                raise error
            return state

        monkeypatch.setattr(runner, "step_company", checked)
        for width in (3, runner.WIDE + 2):
            specs = [pairs[j % len(pairs)] for j in range(width)]
            stacked = SDParams.stacked([(a.sd, b.sd) for a, b in specs], np.arange(width))
            run_replication(specs, settings, replication_seeds(9, 2, width),
                            mirror=case == "mirror", series=False)
        substeps = settings.run_length_days * 4
        assert forms.count(True) == substeps and forms.count(False) == 3 * 2 * substeps


class TestWideDivergence:
    def test_drain_rounded_below_zero_runs_at_every_width(self):
        # seed 7 clears a backlog of 1.79 to -2.2e-16 on day 0
        specs = (CompanySpec(sd=SDParams(safety_stock_cov=0.5, order_processing_time=0.2)),
                 CompanySpec())
        settings = SimulationSettings(run_length_days=5)
        alone = run_replication(specs, settings, 7)
        for width in (8, runner.WIDE):
            row = run_replication(specs, settings, list(range(width)))[7]
            for name, series in alone.series.items():
                assert same(row.series[name], series), (width, name)

    def test_failure_in_second_market_block_matches_replay(self):
        # 40 rows: the diverging row sits in the second market sub-block
        settings = SimulationSettings(run_length_days=57)
        bad = diverging_specs(-0.7)
        specs = [default_specs()] * 40
        specs[37] = bad
        seeds = list(range(100, 140))
        seeds[37] = 4
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ReplicationError) as err:
                run_replication(specs, settings, seeds)
            alone = replay_error(bad, settings, 4)
        assert (err.value.index, err.value.seed, err.value.day) == (37, 4, 56)
        assert str(err.value) == str(alone)

    def test_lowest_index_wins_over_earlier_day(self):
        # seed 1 diverges on day 31 at row 34, seed 0 on day 30 at row 38
        settings = SimulationSettings(run_length_days=32)
        bad = diverging_specs(-0.9)
        specs = [default_specs()] * 40
        specs[34] = specs[38] = bad
        seeds = list(range(100, 140))
        seeds[34], seeds[38] = 1, 0
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ReplicationError) as err:
                estimate_payoffs(specs, settings, CostRates(), 40, seeds)
            alone = replay_error(bad, settings, 1)
        assert (err.value.index, err.value.seed, err.value.day) == (34, 1, 31)
        assert str(err.value) == str(alone)

    def test_stock_failure_outranks_price_failure_of_its_row(self):
        # an infinite initial WIP makes both the WIP stock and the coverage,
        # hence the price, inadmissible on the first sub-step; the
        # plain-float kernel stops at the stock check
        specs = (CompanySpec(sd=SDParams(cycle_time=1e308)), CompanySpec())
        settings = SimulationSettings(run_length_days=3)
        with np.errstate(all="ignore"):
            with pytest.raises(ReplicationError) as err:
                run_replication(specs, settings, list(range(runner.WIDE)))
            alone = replay_error(specs, settings, 0)
        assert str(alone) == "replication diverged on day 0: non-finite stock wip: nan"
        assert (err.value.index, err.value.day, str(err.value)) == (0, 0, str(alone))

class TestComputePayoff:
    def make_rep(self, **kw):
        base = dict(seed=0, run_length=3, series={},
                    revenue=np.array([100.0, 80.0]),
                    units_produced=np.array([50.0, 40.0]),
                    units_purchased=np.array([30.0, 20.0]),
                    units_shipped=np.array([5.0, 4.0]),
                    inv_unit_days=np.array([20.0, 10.0]),
                    backlog_unit_days=np.array([10.0, 5.0]),
                    marketing_spend=np.array([7.0, 6.0]),
                    sunk_own=np.array([2.0, 1.0]),
                    sunk_total=3.0)
        base.update(kw)
        from duogame.runner import ReplicationOutput
        return ReplicationOutput(**base)

    def test_zero_rates_gives_revenue_minus_marketing_and_sunk(self):
        rep = self.make_rep(marketing_spend=np.zeros(2), sunk_total=0.0)
        rates = CostRates(0, 0, 0, 0, 0)
        assert compute_payoff(rep, rates) == pytest.approx([100.0, 80.0])

    def test_zero_demand_is_pure_loss(self):
        rep = self.make_rep(revenue=np.zeros(2), units_shipped=np.zeros(2))
        pay = compute_payoff(rep, CostRates(1, 1, 1, 1, 1))
        assert (pay < 0).all()

    def test_unit_rate_hand_trace(self):
        rep = self.make_rep()
        pay = compute_payoff(rep, CostRates(1, 1, 1, 1, 1))
        # player 1: 100 - (50 + 30 + 20 + 10 + 5 + 7 + 3) = -25
        # player 2: 80 - (40 + 20 + 10 + 5 + 4 + 6 + 3) = -8
        assert pay == pytest.approx([-25.0, -8.0])

    def test_own_sunk_cost_attribution(self):
        rep = self.make_rep()
        total = compute_payoff(rep, CostRates(1, 1, 1, 1, 1), sunk_cost_mode="total")
        own = compute_payoff(rep, CostRates(1, 1, 1, 1, 1), sunk_cost_mode="own")
        assert own[0] - total[0] == pytest.approx(3.0 - 2.0)
        assert own[1] - total[1] == pytest.approx(3.0 - 1.0)

    def test_integrated_accumulators_match_trace(self):
        settings = SimulationSettings(run_length_days=20)
        rep = run_replication(default_specs(), settings, seed=9)
        # shipments integrated from the daily series cannot exceed what the
        # accumulator saw, and both stay close (series samples day ends)
        assert rep.units_shipped[0] == pytest.approx(
            rep.series["ship_r"][:, 0].sum(), rel=0.2)


class TestEstimatePayoffs:
    def test_single_replication_mean(self):
        settings = SimulationSettings(run_length_days=25)
        seeds = replication_seeds(7, 0, 1)
        payoffs = estimate_payoffs(pricing_asymmetric_specs(), settings, CostRates(),
                                   n=1, seeds=seeds)
        rep = run_replication(pricing_asymmetric_specs(), settings, seeds[0])
        assert payoffs.shape == (1, 2)
        assert np.array_equal(payoffs[0], compute_payoff(rep, CostRates()))

    def test_zero_noise_zero_variance(self):
        settings = SimulationSettings(run_length_days=25, deterministic_marketing=True)
        seeds = replication_seeds(7, 1, 4)
        payoffs = estimate_payoffs(pricing_asymmetric_specs(), settings, CostRates(),
                                   n=4, seeds=seeds)
        variance = payoffs.var(axis=0, ddof=1)
        assert variance[0] == pytest.approx(0.0, abs=1e-18)
        assert variance[1] == pytest.approx(0.0, abs=1e-18)

    def test_run_order_permutation_same_multiset(self):
        settings = SimulationSettings(run_length_days=20)
        seeds = replication_seeds(3, 2, 3)
        fwd = estimate_payoffs(default_specs(), settings, CostRates(), 3, seeds)
        rev = estimate_payoffs(default_specs(), settings, CostRates(), 3, seeds[::-1])
        assert sorted(fwd[:, 0]) == pytest.approx(sorted(rev[:, 0]))

    def test_passes_agree_across_jobs_and_report_global_index(self, executor):
        # more than two passes' worth of short rows: four passes at jobs 2
        settings = SimulationSettings(run_length_days=3)
        n = 2 * runner.PASS_ROWS + 50
        pairs = mixed_pairs()
        specs = [pairs[j % len(pairs)] for j in range(n)]
        seeds = replication_seeds(11, 0, n)
        one, two = (estimate_payoffs(specs, settings, CostRates(), n, seeds, jobs=jobs,
                                     executor=executor)
                    for jobs in (1, 2))
        assert np.array_equal(one, two)
        # an infinite initial WIP diverges on day 0, here in the last pass
        j = n - 7
        specs[j] = (CompanySpec(sd=SDParams(cycle_time=1e308)), CompanySpec())
        for jobs in (1, 2):
            with np.errstate(all="ignore"):
                with pytest.raises(ReplicationError) as err:
                    estimate_payoffs(specs, settings, CostRates(), n, seeds, jobs=jobs,
                                     executor=executor)
            assert (err.value.index, err.value.seed, err.value.day) == (j, seeds[j], 0)

    def test_pass_holds_no_daily_series(self):
        # a 128-row pass holds no per-agent float state across days and no
        # daily series, which alone would take 100 x 7 x 128 x 2 x 8 B =
        # 1.4 MB; numpy reports its buffers to tracemalloc
        settings = SimulationSettings()
        rows = 128
        seeds = replication_seeds(5, 0, rows)
        estimate_payoffs(default_specs(), settings, CostRates(), 1, seeds)  # population
        series = settings.run_length_days * len(runner.SERIES) * rows * 2 * 8
        tracemalloc.start()
        try:
            estimate_payoffs(default_specs(), settings, CostRates(), rows, seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < series, f"peak {peak} B"


@pytest.mark.golden
class TestPayoffModes:
    # a pass prices its rows' stacked accumulators in one call, ``sunk_total``
    # broadcast as a column; each row must equal its lone replication's
    # payoff. The default market holds every co-state at -inter_cap, which
    # books no sunk cost, so this one drives co-states positive.
    MARKET = MarketParams(delta1=-0.5, delta2=0.5, w1=4.0, w2=4.0)

    @pytest.mark.parametrize("width", [runner.WIDE - 1, 2 * runner.WIDE + 3])
    @pytest.mark.parametrize("mirror,changes", [
        (False, {}), (True, {}), (False, {"sunk_cost_mode": "own"}),
        (False, {"warmup_days": 12, "truncate_warmup": True}),
        (False, {"fixed_share_split": 0.3})],
        ids=["default", "mirror", "own", "truncate", "fixed_share"])
    def test_rows_equal_lone_payoffs(self, width, mirror, changes):
        settings = SimulationSettings(run_length_days=25, market=self.MARKET, **changes)
        rates = CostRates()
        pairs = mixed_pairs()
        specs = [pairs[j % len(pairs)] for j in range(width)]
        seeds = replication_seeds(width, 3, width)
        rows = run_replication(specs, settings, seeds, mirror=mirror, series=False)
        payoffs = compute_payoff(rows, rates, settings.sunk_cost_mode)
        assert payoffs.shape == (width, 2)
        sunk = []
        for j, seed in enumerate(seeds):
            alone = run_replication(specs[j], settings, seed, mirror=mirror)
            lone = compute_payoff(alone, rates, settings.sunk_cost_mode)
            assert same(payoffs[j], lone), j
            sunk.append(alone.sunk_total)
        assert np.count_nonzero(sunk) > 0


class TestWarmup:
    def test_zero_noise_warmup_in_band(self):
        settings = SimulationSettings(deterministic_marketing=True,
                                      fixed_share_split=0.5)
        rep = run_replication(default_specs(), settings, seed=0)
        wu = detect_warmup(rep)
        assert 30 <= wu <= 60

    def test_truncation_shrinks_accumulators(self):
        full = SimulationSettings(deterministic_marketing=True, fixed_share_split=0.5)
        trunc = SimulationSettings(deterministic_marketing=True, fixed_share_split=0.5,
                                   truncate_warmup=True)
        a = run_replication(default_specs(), full, seed=0)
        b = run_replication(default_specs(), trunc, seed=0)
        assert b.revenue[0] < a.revenue[0]
        assert b.units_produced[0] < a.units_produced[0]


# the edges of numpy's split of a seed into uint32 words, then seeds of every
# size from 1 to 128 bits
EDGE_SEEDS = [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128 - 1]


def stream_seeds(count=10_000):
    rng = np.random.default_rng(2026)
    bits = rng.integers(1, 129, count - len(EDGE_SEEDS))
    return EDGE_SEEDS + [int.from_bytes(rng.bytes(16), "little") >> (128 - int(b))
                         for b in bits]


@pytest.mark.golden
@pytest.mark.parametrize("mirror", [False, True])
def test_row_streams_match_numpy(mirror):
    # each row's company streams are children 1 and 2 of
    # SeedSequence(seed).spawn(3), swapped under mirror: the PCG64 state and
    # increment after seeding, then ten periods of ad and pm uniforms; the
    # tie generator is child 0
    seeds = stream_seeds()
    streams = RowStreams(seeds, mirror)
    children = [np.random.SeedSequence(seed).spawn(3) for seed in seeds]
    order = (2, 1) if mirror else (1, 2)
    rngs = [[np.random.default_rng(child[k]) for k in order] for child in children]

    def halves(high, low):
        return [[(int(h) << 64) | int(lo) for h, lo in zip(*row)]
                for row in zip(high.tolist(), low.tolist())]

    states = [[rng.bit_generator.state["state"] for rng in row] for row in rngs]
    assert halves(streams.hi, streams.lo) == [[s["state"] for s in row] for row in states]
    assert halves(streams.inc_hi, streams.inc_lo) == [[s["inc"] for s in row]
                                                      for row in states]
    for period in range(10):
        expected = np.array([[rng.random(2) for rng in row] for row in rngs])
        assert np.array_equal(streams.uniforms(), expected), period
    if not mirror:
        for r, child in enumerate(children):
            assert (streams.ties[r].bit_generator.state
                    == np.random.default_rng(child[0]).bit_generator.state), seeds[r]


@pytest.mark.golden
@pytest.mark.parametrize("master,tag,n,start", [
    (0, 0, 70, 0), (20240101, (1 << 19) + 3, 40, 0), (2**32, 5, 30, 7),
    (2**40 + 5, 2**32 - 1, 20, 500), (2**128, 3, 25, 0), (2**130 + 7, 0, 10, 3)])
def test_replication_seeds_match_numpy(master, tag, n, start):
    def spawned(tag):
        ss = np.random.SeedSequence(master, spawn_key=(tag,))
        return [int(child.generate_state(1)[0] & 0x7FFFFFFF)
                for child in ss.spawn(start + n)[start:]]

    assert replication_seeds(master, tag, n, start=start) == spawned(tag)
    tags = [tag, tag // 2, 1]
    assert (replication_seeds(master, tags, n, start=start)
            == [seed for t in tags for seed in spawned(t)])


@pytest.mark.parametrize("tag,start", [(-1, 0), (1 << 32, 0), (0, -1), (0, (1 << 32) - 2)])
def test_replication_seeds_reject_wide_spawn_keys(tag, start):
    with pytest.raises(ParameterError, match="must lie in"):
        replication_seeds(1, tag, 3, start=start)


class CountedArray(np.ndarray):
    """An array whose every numpy call is counted in ``CALLS`` by name, then
    run on plain arrays, so a call made inside another is not counted; every
    array it returns is counted too."""

    CALLS: dict = {}

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        self._count(f"{ufunc.__name__}.{method}")
        if "out" in kwargs:
            kwargs["out"] = tuple(map(_plain, kwargs["out"]))
        return _counted(getattr(ufunc, method)(*map(_plain, inputs), **kwargs))

    def __array_function__(self, func, types, args, kwargs):
        self._count(func.__name__)
        return _counted(func(*map(_plain, args), **{k: _plain(v) for k, v in kwargs.items()}))

    @classmethod
    def _count(cls, name):
        cls.CALLS[name] = cls.CALLS.get(name, 0) + 1


def _plain(x):
    if isinstance(x, (list, tuple)):
        return type(x)(map(_plain, x))
    return x.view(np.ndarray) if isinstance(x, CountedArray) else x


def _counted(x):
    return x.view(CountedArray) if type(x) is np.ndarray else x


class TestArraySubStepCalls:
    """The array sub-step's fixed cost is its numpy calls, each well under a
    microsecond of work at a few hundred rows: their count is pinned, so a
    structural regression fails without any timing."""

    # company step with its stock check, booking and pricing on a quiet pass
    BUDGET = {"step_company": 99, "_book": 5, "step_pricing": 20}

    def test_quiet_pass_call_budget(self, monkeypatch):
        settings = SimulationSettings()
        rows = 70
        setups = [runner._setup(default_specs(), settings)]
        chain = runner._Rows(setups, np.zeros(rows, dtype=int), replication_seeds(1, 0, rows),
                             settings, False, False)
        for record in (chain.s, chain.p):
            for name, value in vars(record).items():
                value = tuple(map(_counted, value)) if isinstance(value, tuple) else value
                setattr(record, name, _counted(value))
        for name in ("totals", "period_revenue", "mp", "bounds", "prices"):
            setattr(chain, name, _counted(getattr(chain, name)))
        chain.dt = chain.p.dt
        orders = _counted(settings.total_order_rate * np.full((rows, 2), 0.5))
        calls = dict.fromkeys(self.BUDGET, 0)
        make_array = np.array

        def array(*args, **kwargs):
            CountedArray._count("array")
            return _counted(make_array(*args, **kwargs))

        def tallied(name, function):
            def call(*args, **kwargs):
                before = sum(CountedArray.CALLS.values())
                try:
                    return function(*args, **kwargs)
                finally:
                    calls[name] += sum(CountedArray.CALLS.values()) - before
            return call

        for name in self.BUDGET:
            monkeypatch.setattr(runner, name, tallied(name, getattr(runner, name)))
        monkeypatch.setattr(CountedArray, "CALLS", {})
        monkeypatch.setattr(np, "array", array)
        with np.errstate(all="ignore"):
            assert chain._array_steps(orders, None) is None
        monkeypatch.setattr(np, "array", make_array)
        per_substep = {name: count / chain.substeps for name, count in calls.items()}
        assert per_substep == self.BUDGET, CountedArray.CALLS
        assert sum(CountedArray.CALLS.values()) == sum(self.BUDGET.values()) * chain.substeps
        # the pass was stepped: every row booked and priced
        assert chain.totals[1].min() > 0 and chain.period_revenue.min() > 0


@pytest.mark.golden
def test_block_booking_matches_float_booking():
    # the array form books its income and quantities as one (6, rows, 2)
    # product and add: every element takes the plain-float form's product
    # and add, at signed zeros, subnormals, infinities and NaN
    edges = [0.0, -0.0, 5e-324, 0.3, 1.7, 1e308, math.inf, math.nan]
    rng = np.random.default_rng(5)
    rows = 40
    fields_ = ("ship_r", "prod_br", "rm_order_r", "inv", "backlog")
    state = SDState(**{name: rng.choice(edges, (rows, 2)) for name in fields_})
    price = rng.choice(edges, (rows, 2))
    start = rng.choice(edges, (8, rows, 2))
    totals, revenue = start.copy(), start[0].copy()
    dt = np.array(0.25)
    with np.errstate(all="ignore"):
        runner._book(totals, revenue, ..., state, price, dt)
    expected = start.transpose(1, 2, 0).tolist()
    expected_revenue = start[0].tolist()
    for r in range(rows):
        for i in (0, 1):
            one = SDState(**{name: float(getattr(state, name)[r, i]) for name in fields_})
            runner._book(expected[r][i], expected_revenue[r], i, one, float(price[r, i]),
                         0.25)
    assert same(totals, np.array(expected).transpose(2, 0, 1))
    assert same(revenue, np.array(expected_revenue))
