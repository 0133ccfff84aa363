"""Replications of the coupled duopoly simulation.

Each simulated day the consumer market splits total demand between the two
companies, then each company's supply chain advances in sub-daily Euler
steps and prices are re-set at the market level. Physical quantities
(units produced, shipped, unit-days of inventory, ...) are accumulated so
payoffs can be priced with any cost-rate vector afterwards.

All replications of a call run in lockstep, one day at a time. One market
call advances every row each day. The supply chains and pricing advance the
whole call together, at one of two widths: from ``WIDE`` rows on, both
companies of every row are one stacked :class:`SDState` of (rows, 2)
arrays, stepped by one array step and one array pricing step per sub-step;
below it, where the array step's fixed cost of 100-200 us per sub-step
outweighs the 2.6 us of a plain-float company step, each replication steps
its two companies and its pricing in plain floats. Both kernels perform the
same float operations in the same order. Replications share nothing but
the population, so every output depends on its pair and seed alone; results
do not depend on the sample count ``n``, the width or the kernel.

Seed discipline: the population and social network derive from a dedicated
population seed shared by every replication of a configuration, while each
replication's seed spawns separate streams for tie-breaking and for each
company's noise. Mirrored runs swap the two company streams and flip the
tie-break labels, which makes the strategy-swapped replication an exact
mirror of the original.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ParameterError, ReplicationError, StateError
from .market import ConsumerMarket, MarketParams, sunk_cost
from .network import generate_ba_network
from .supply_chain import (
    ZERO_NOISE,
    NoiseDraws,
    PricingState,
    SDParamRows,
    SDParams,
    SDState,
    steady_state,
    step_company,
    step_pricing,
)

COMPANIES = (0, 1)


@dataclass
class CostRates:
    """Unit cost rates applied to the accumulated physical quantities."""

    unit_production: float = 0.4
    unit_raw: float = 0.1
    inventory_per_unit_day: float = 0.01
    backlog_per_unit_day: float = 0.05
    transport_per_unit: float = 0.02

    def validate(self):
        for name in ("unit_production", "unit_raw", "inventory_per_unit_day",
                     "backlog_per_unit_day", "transport_per_unit"):
            if getattr(self, name) < 0:
                raise ParameterError(f"cost rate {name} must be >= 0")
        return self


@dataclass
class CompanySpec:
    """One company's strategy, fully materialized into parameters."""

    sd: SDParams = field(default_factory=SDParams)
    mb_pct: float = 0.10                 # marketing budget as share of revenue
    ad_range: tuple = (0.25, 0.35)       # advertising intensity, uniform draw
    pm_range: tuple = (0.25, 0.35)       # promotion depth, uniform draw

    def validate(self):
        self.sd.validate()
        if not 0.0 <= self.mb_pct <= 1.0:
            raise ParameterError(f"mb_pct must be in [0, 1], got {self.mb_pct}")
        for name in ("ad_range", "pm_range"):
            lo, hi = getattr(self, name)
            if not (0.0 < lo <= hi < 1.0):
                raise ParameterError(f"{name} must satisfy 0 < low <= high < 1")
        return self


@dataclass
class SimulationSettings:
    """Scenario-level knobs shared by both companies."""

    run_length_days: int = 100
    dt: float = 0.25
    n_agents: int = 200
    network_m0: int = 5
    network_m: int = 3
    population_seed: int = 20_000
    per_capita_demand: float = 1.0       # units per agent per day
    marketing_period: int = 10           # days per marketing budget cycle
    market: MarketParams = field(default_factory=MarketParams)
    initial_stock_fraction: float = 0.4
    deterministic_marketing: bool = False   # pin ad/pm draws at range midpoints
    fixed_share_split: float | None = None  # bypass the agent market with a
                                            # constant demand split (fluid limit)
    sunk_cost_mode: str = "total"           # "total" or "own"
    warmup_days: int = 50
    truncate_warmup: bool = False           # drop warm-up from accumulators

    def validate(self):
        if self.run_length_days < 1:
            raise ParameterError("run_length_days must be >= 1")
        if not 0 < self.dt <= 1:
            raise ParameterError("dt must be in (0, 1]")
        # a day runs round(1/dt) sub-steps of length dt
        if abs(round(1 / self.dt) * self.dt - 1) > 1e-9:
            raise ParameterError(f"dt must divide a day, got {self.dt}")
        if self.n_agents < 2:
            raise ParameterError("n_agents must be >= 2")
        if self.marketing_period < 1:
            raise ParameterError("marketing_period must be >= 1")
        if self.sunk_cost_mode not in ("total", "own"):
            raise ParameterError(f"unknown sunk_cost_mode {self.sunk_cost_mode!r}")
        if not 0 < self.initial_stock_fraction <= 1:
            raise ParameterError("initial_stock_fraction must be in (0, 1]")
        if self.truncate_warmup and self.warmup_days >= self.run_length_days:
            raise ParameterError("run length must exceed the warm-up")
        if self.fixed_share_split is not None and not 0.0 <= self.fixed_share_split <= 1.0:
            raise ParameterError("fixed_share_split must be in [0, 1]")
        self.market.validate()
        return self

    @property
    def total_order_rate(self) -> float:
        return self.n_agents * self.per_capita_demand


@dataclass
class ReplicationOutput:
    """Daily series plus physical and currency accumulators for one run."""

    seed: int
    run_length: int
    warmup: int
    series: dict           # name -> array of shape (days, 2)
    revenue: np.ndarray    # currency, per company
    units_produced: np.ndarray
    units_purchased: np.ndarray
    units_shipped: np.ndarray
    inv_unit_days: np.ndarray
    backlog_unit_days: np.ndarray
    marketing_spend: np.ndarray
    sunk_own: np.ndarray
    sunk_total: float


_network_cache: dict = {}

# Rows from which the supply chains step as (rows, 2) arrays, one array step
# per sub-step for the whole call; fewer rows step in plain floats, one
# company at a time. An array step costs 100-200 us whatever the width up to
# a few dozen rows, a plain-float company step about 2.6 us; at 20 rows the
# two kernels measured even per replication.
WIDE = 20

# Rows per kernel pass when only payoffs are wanted: bounds the daily series
# held at once, whatever the number of rows.
PASS_ROWS = 512

SERIES = ("price", "inv", "backlog", "ship_r", "ms", "labor", "wip")


def _population(settings: SimulationSettings):
    key = (settings.population_seed, settings.n_agents,
           settings.network_m0, settings.network_m)
    if key not in _network_cache:
        _network_cache[key] = generate_ba_network(
            settings.n_agents, settings.network_m0, settings.network_m,
            seed=settings.population_seed)
    return _network_cache[key]


def _period_draw(rng, lo, hi, deterministic):
    if deterministic:
        return (lo + hi) / 2.0
    return rng.uniform(lo, hi)


def _noise_draws(rng, p: SDParams) -> NoiseDraws:
    if not (p.sigma_wip > 0 or p.sigma_prod > 0 or p.sigma_order > 0 or p.sigma_inv > 0):
        return ZERO_NOISE
    return NoiseDraws(
        wip=rng.normal(0, p.sigma_wip) if p.sigma_wip > 0 else 0.0,
        prod=rng.normal(0, p.sigma_prod) if p.sigma_prod > 0 else 0.0,
        order=rng.normal(0, p.sigma_order) if p.sigma_order > 0 else 0.0,
        inv=rng.normal(0, p.sigma_inv) if p.sigma_inv > 0 else 0.0)


def _setup(specs, settings: SimulationSettings):
    """A validated spec pair's kernel inputs: the specs, their SD parameters,
    both companies' initial states and the market-price band."""
    specs = tuple(specs)
    if len(specs) != 2:
        raise ParameterError("exactly two company specs required")
    for s in specs:
        s.validate()
    tor = settings.total_order_rate
    params = (specs[0].sd, specs[1].sd)
    initial = []
    for spec in specs:
        base = steady_state(spec.sd, tor / 2.0)
        init = replace(base)
        for name in ("wip", "inv", "labor", "vac", "backlog", "rm_inv", "rm_transit"):
            setattr(init, name, getattr(base, name) * settings.initial_stock_fraction)
        init.a_wip = init.a_prod = init.a_labor = init.a_vac = 0.0
        init.price = spec.sd.mfg_price
        initial.append(init)
    mp0 = (params[0].mfg_price + params[1].mfg_price) / 2.0
    mp_bounds = (mp0 * min(params[0].mp_floor_ratio, params[1].mp_floor_ratio),
                 mp0 * max(params[0].mp_cap_ratio, params[1].mp_cap_ratio))
    return specs, params, initial, mp_bounds


def _streams(seed, mirror):
    """A replication's tie-break generator and its two company generators."""
    child = np.random.SeedSequence(seed).spawn(3)
    rngs = [np.random.default_rng(child[1]), np.random.default_rng(child[2])]
    if mirror:
        rngs.reverse()
    return np.random.default_rng(child[0]), rngs


def _truncate(obj, rows: int) -> None:
    """Keep only the first ``rows`` entries of every attribute of ``obj``."""
    for name, value in list(vars(obj).items()):
        setattr(obj, name, value[:rows])


class _Narrow:
    """The narrow kernel: each row's spec pair, RNG streams, two companies
    and pricing state in plain floats, and its accumulators. Every attribute
    holds one entry per row."""

    def __init__(self, rows, settings, mirror):
        self.specs = [setup[0] for setup, _ in rows]
        self.params = [setup[1] for setup, _ in rows]
        self.sd = [[replace(state) for state in setup[2]] for setup, _ in rows]
        self.bounds = [setup[3] for setup, _ in rows]
        self.seeds = [seed for _, seed in rows]
        streams = [_streams(seed, mirror) for seed in self.seeds]
        self.tie_rngs = [tie for tie, _ in streams]
        self.rngs = [rngs for _, rngs in streams]
        self.prices = [(specs[0].sd.mfg_price, specs[1].sd.mfg_price)
                       for specs in self.specs]
        self.pricing = [PricingState(mp=(p[0] + p[1]) / 2.0) for p in self.prices]
        # per company: revenue, units produced, purchased and shipped,
        # inventory and backlog unit-days, marketing spend, own sunk cost
        self.totals = [[[0.0] * 8 for _ in COMPANIES] for _ in rows]
        self.period_revenue = [[0.0, 0.0] for _ in rows]
        self.sunk_total = [0.0] * len(rows)
        days = settings.run_length_days
        self.daily = [np.empty((days, 2 * len(SERIES))) for _ in rows]  # SERIES order

    @property
    def rows(self) -> int:
        return len(self.seeds)

    def start_period(self, day, settings):
        """Budgets and advertising and promotion levels of a marketing period."""
        det = settings.deterministic_marketing
        mb, ad, pm = [], [], []
        for r, (specs, rngs) in enumerate(zip(self.specs, self.rngs)):
            if day == 0:
                mb.append([specs[i].mb_pct * self.prices[r][i] * settings.total_order_rate
                           * settings.marketing_period for i in COMPANIES])
            else:
                mb.append([specs[i].mb_pct * self.period_revenue[r][i] for i in COMPANIES])
            self.period_revenue[r] = [0.0, 0.0]
            ad.append([_period_draw(rngs[i], *specs[i].ad_range, det) for i in COMPANIES])
            pm.append([_period_draw(rngs[i], *specs[i].pm_range, det) for i in COMPANIES])
        return np.array(mb), np.array(ad), np.array(pm)

    def advance_day(self, day, shares, spend_rate, collect, tor, dt, substeps):
        """Every row through one day; returns ``(row, error)`` for the row
        that diverged, after dropping it and every later row, or None."""
        shares, spend_rate = shares.tolist(), spend_rate.tolist()
        for r, sd in enumerate(self.sd):
            params, prices, pricing = self.params[r], self.prices[r], self.pricing[r]
            totals, period_revenue, share = self.totals[r], self.period_revenue[r], shares[r]
            orders = (tor * share[0], tor * share[1])
            noises = [_noise_draws(self.rngs[r][i], params[i]) for i in COMPANIES]
            if collect:
                totals[0][6] += spend_rate[r][0]    # one day's worth
                totals[1][6] += spend_rate[r][1]
            try:
                for _ in range(substeps):
                    for i in COMPANIES:
                        s = step_company(sd[i], params[i], orders[i], noises[i], dt)
                        income = s.ship_r * prices[i] * dt
                        if collect:
                            t = totals[i]
                            t[0] += income
                            t[1] += s.prod_br * dt
                            t[2] += s.rm_order_r * dt
                            t[3] += s.ship_r * dt
                            t[4] += s.inv * dt
                            t[5] += s.backlog * dt
                        period_revenue[i] += income
                    prices, pricing = step_pricing(prices, pricing, params,
                                                   (sd[0].inv_cov, sd[1].inv_cov),
                                                   dt=dt, mp_bounds=self.bounds[r])
                    sd[0].price, sd[1].price = prices
            except StateError as exc:
                _truncate(self, r)
                return r, exc
            self.prices[r] = prices
            s0, s1 = sd
            self.daily[r][day] = (prices[0], prices[1], s0.inv, s1.inv, s0.backlog,
                                  s1.backlog, s0.ship_r, s1.ship_r, share[0], share[1],
                                  s0.labor, s1.labor, s0.wip, s1.wip)
        return None

    def close_period(self, mb, inter):
        """Sunk interaction cost of a finished marketing period."""
        for r, totals in enumerate(self.totals):
            self.sunk_total[r] += max(0.0, sunk_cost(mb[r], inter[r]))
            for i in COMPANIES:
                totals[i][7] += max(0.0, mb[r][i] * inter[r][i])

    def outputs(self, settings) -> list:
        outputs = []
        for r, seed in enumerate(self.seeds):
            daily = self.daily[r].reshape(len(self.daily[r]), len(SERIES), 2)
            t = np.array(self.totals[r]).T.copy()
            outputs.append(ReplicationOutput(
                seed=seed, run_length=settings.run_length_days,
                warmup=settings.warmup_days,
                series={name: daily[:, k] for k, name in enumerate(SERIES)},
                revenue=t[0], units_produced=t[1], units_purchased=t[2],
                units_shipped=t[3], inv_unit_days=t[4], backlog_unit_days=t[5],
                marketing_spend=t[6], sunk_own=t[7], sunk_total=self.sunk_total[r]))
        return outputs


class _Wide:
    """The wide kernel: both companies of every row held as (rows, 2) arrays
    and advanced by one array step and one array pricing step per sub-step.

    The noise and marketing draws stay per-row scalar calls on each row's
    own generators, in the narrow kernel's order.
    """

    def __init__(self, rows, settings, mirror):
        distinct = {}
        for setup, _ in rows:
            distinct.setdefault(id(setup), (len(distinct), setup))
        index = np.array([distinct[id(setup)][0] for setup, _ in rows])
        setups = [setup for _, setup in distinct.values()]
        self.p = SDParamRows([setup[1] for setup in setups], index)
        self.s = SDState.stacked([setup[2] for setup in setups], index)
        self.pricing = PricingState(mp=(self.s.price[:, 0] + self.s.price[:, 1]) / 2.0)
        bounds = np.array([setup[3] for setup in setups])[index]
        self.bounds = (bounds[:, 0], bounds[:, 1])
        self.specs = [setups[k][0] for k in index]
        self.mb_pct = np.array([[s.mb_pct for s in specs] for specs in self.specs])
        streams = [_streams(seed, mirror) for _, seed in rows]
        self.tie_rngs = [tie for tie, _ in streams]
        self.rngs = [rngs for _, rngs in streams]
        self.noisy = []     # (row, company, sigmas) of each noisy company
        for r, specs in enumerate(self.specs):
            for i, spec in enumerate(specs):
                sd = spec.sd
                sigmas = (sd.sigma_wip, sd.sigma_prod, sd.sigma_order, sd.sigma_inv)
                if any(sigma > 0 for sigma in sigmas):
                    self.noisy.append((r, i, sigmas))
        self.seeds = [seed for _, seed in rows]
        n = len(rows)
        self.totals = np.zeros((8, n, 2))     # the narrow kernel's totals order
        self.period_revenue = np.zeros((n, 2))
        self.sunk_total = [0.0] * n
        self.daily = np.empty((settings.run_length_days, len(SERIES), n, 2))

    @property
    def rows(self) -> int:
        return len(self.seeds)

    @property
    def prices(self):
        return self.s.price

    def truncate(self, rows: int) -> None:
        """Keep only the first ``rows`` rows."""
        _truncate(self.s, rows)
        self.p.truncate(rows)
        self.pricing.mp = self.pricing.mp[:rows]
        self.bounds = tuple(b[:rows] for b in self.bounds)
        for name in ("specs", "mb_pct", "tie_rngs", "rngs", "seeds",
                     "period_revenue", "sunk_total"):
            setattr(self, name, getattr(self, name)[:rows])
        self.noisy = [entry for entry in self.noisy if entry[0] < rows]
        self.totals = self.totals[:, :rows]
        self.daily = self.daily[:, :, :rows]

    def start_period(self, day, settings):
        if day == 0:
            mb = (self.mb_pct * self.s.price * settings.total_order_rate
                  * settings.marketing_period)
        else:
            mb = self.mb_pct * self.period_revenue
        self.period_revenue = np.zeros_like(self.period_revenue)
        det = settings.deterministic_marketing
        ad, pm = np.empty_like(mb), np.empty_like(mb)
        for r, (specs, rngs) in enumerate(zip(self.specs, self.rngs)):
            for i in COMPANIES:
                ad[r, i] = _period_draw(rngs[i], *specs[i].ad_range, det)
                pm[r, i] = _period_draw(rngs[i], *specs[i].pm_range, det)
        return mb, ad, pm

    def _noise(self):
        if not self.noisy:
            return None
        draws = np.zeros((4, self.rows, 2))     # NoiseDraws field order
        for r, i, sigmas in self.noisy:
            rng = self.rngs[r][i]
            for k, sigma in enumerate(sigmas):
                if sigma > 0:
                    draws[k, r, i] = rng.normal(0, sigma)
        return draws

    def advance_day(self, day, shares, spend_rate, collect, tor, dt, substeps):
        """Every row through one day; returns ``(row, error)`` for the lowest
        row that diverged, after dropping it and every later row, or None."""
        s, p = self.s, self.p
        orders = tor * shares
        draws = self._noise()
        if collect:
            self.totals[6] += spend_rate     # one day's worth
        failure = None
        for _ in range(substeps):
            noise = ZERO_NOISE if draws is None else NoiseDraws(*draws)
            failed = None
            try:
                step_company(s, p, orders, noise, dt)
            except StateError as exc:
                failed = exc
            income = s.ship_r * s.price * dt
            if collect:
                t = self.totals
                t[0] += income
                t[1] += s.prod_br * dt
                t[2] += s.rm_order_r * dt
                t[3] += s.ship_r * dt
                t[4] += s.inv * dt
                t[5] += s.backlog * dt
            self.period_revenue += income
            try:
                step_pricing(s.price, self.pricing, p, s.inv_cov, dt=dt,
                             mp_bounds=self.bounds)
            except StateError as exc:
                if failed is None or exc.row < failed.row:
                    failed = exc
            if failed is not None:
                row = failed.row
                failure = (row, failed)
                self.truncate(row)
                if not row:
                    return failure
                orders, shares = orders[:row], shares[:row]
                if draws is not None:
                    draws = draws[:, :row]
        d = self.daily[day]
        d[0], d[1], d[2], d[3] = s.price, s.inv, s.backlog, s.ship_r
        d[4], d[5], d[6] = shares, s.labor, s.wip
        return failure

    def close_period(self, mb, inter):
        for r in range(self.rows):
            self.sunk_total[r] += max(0.0, sunk_cost(mb[r], inter[r]))
        x = mb * inter
        self.totals[7] += np.where(x > 0.0, x, 0.0)

    def outputs(self, settings) -> list:
        t = self.totals
        return [ReplicationOutput(
            seed=seed, run_length=settings.run_length_days,
            warmup=settings.warmup_days,
            series={name: self.daily[:, k, r] for k, name in enumerate(SERIES)},
            revenue=t[0, r], units_produced=t[1, r], units_purchased=t[2, r],
            units_shipped=t[3, r], inv_unit_days=t[4, r], backlog_unit_days=t[5, r],
            marketing_spend=t[6, r], sunk_own=t[7, r], sunk_total=self.sunk_total[r])
            for r, seed in enumerate(self.seeds)]


def _run_rows(rows, settings: SimulationSettings, mirror: bool) -> list:
    """Replications of ``rows``, (setup, seed) pairs from :func:`_setup`, one
    lockstep day at a time.

    Rows may belong to different spec pairs: every input is per row. Each
    day one market call advances every row; then the supply chains and
    pricing of every row advance, as arrays from ``WIDE`` rows on and in
    plain floats below. A replication that diverges ends the run for itself
    and every later one; the call then raises for the lowest-index
    replication that diverged.
    """
    tor = settings.total_order_rate
    dt = settings.dt
    substeps = max(1, round(1.0 / dt))
    period = settings.marketing_period
    chain = (_Wide if len(rows) >= WIDE else _Narrow)(rows, settings, mirror)
    pop_rng = np.random.default_rng(np.random.SeedSequence(settings.population_seed + 1))
    market = ConsumerMarket(_population(settings), settings.market, pop_rng,
                            replications=len(rows))
    mk = market.marketing
    fixed = settings.fixed_share_split
    failure = None
    for day in range(settings.run_length_days):
        collect = not (settings.truncate_warmup and day < settings.warmup_days)
        if day % period == 0:
            mk.mb[:], mk.ad[:], mk.pm[:] = chain.start_period(day, settings)
        shares = market.step(chain.prices, chain.tie_rngs, mirror=mirror)
        if fixed is not None:
            shares[:] = (fixed, 1.0 - fixed)
        failed = chain.advance_day(day, shares, mk.spend_rate, collect, tor, dt, substeps)
        if failed is not None:
            r, exc = failed
            failure = (r, day, exc)
            market.truncate(r)
        if not chain.rows:
            break
        if collect and day % period == period - 1:
            chain.close_period(mk.mb, mk.inter)
    if failure is not None:
        r, day, exc = failure
        raise ReplicationError(f"replication diverged on day {day}: {exc}",
                               day=day, seed=rows[r][1], index=r) from exc
    return chain.outputs(settings)


def _per_seed(specs, n: int) -> list:
    """One spec pair per replication: ``specs`` is one pair of company specs,
    or a sequence of ``n`` such pairs."""
    specs = list(specs)
    if specs and isinstance(specs[0], CompanySpec):
        return [specs] * n
    if len(specs) != n:
        raise ParameterError(f"{len(specs)} spec pairs given for {n} replications")
    return specs


def run_replication(specs, settings: SimulationSettings, seed,
                    mirror: bool = False):
    """Simulate ``run_length_days`` and return the full replication record.

    ``specs`` is the pair of company strategies. ``seed`` is one seed, giving
    one :class:`ReplicationOutput`, or a sequence of seeds, giving a list of
    outputs in the same order; with a sequence of seeds ``specs`` may also be
    a sequence of pairs, one per seed. All replications run in lockstep,
    mixing pairs; each output depends on its pair and seed only, not on the
    other rows or on how many there are. A replication that diverges raises
    :class:`ReplicationError` carrying its day, seed and position ``index``;
    with several, the lowest position is reported.

    With ``mirror=True`` the company noise streams are transposed and
    tie-break labels flipped; running the swapped strategy pair that way
    reproduces the original replication with the two companies exchanged,
    bit for bit.
    """
    settings.validate()
    single = isinstance(seed, (int, np.integer))
    seeds = [seed] if single else list(seed)
    setups = {}     # one setup per distinct pair object
    rows = []
    for pair, s in zip(_per_seed(specs, len(seeds)), seeds):
        if id(pair) not in setups:
            setups[id(pair)] = _setup(pair, settings)
        rows.append((setups[id(pair)], s))
    outputs = _run_rows(rows, settings, mirror)
    return outputs[0] if single else outputs


def compute_payoff(rep: ReplicationOutput, rates: CostRates,
                   sunk_cost_mode: str = "total") -> np.ndarray:
    """Net profit per company: revenue minus all priced cost items."""
    cost = (rates.unit_production * rep.units_produced
            + rates.unit_raw * rep.units_purchased
            + rates.inventory_per_unit_day * rep.inv_unit_days
            + rates.backlog_per_unit_day * rep.backlog_unit_days
            + rates.transport_per_unit * rep.units_shipped
            + rep.marketing_spend)
    if sunk_cost_mode == "own":
        cost = cost + rep.sunk_own
    else:
        cost = cost + rep.sunk_total
    return rep.revenue - cost


@dataclass
class PayoffSampleSet:
    """Independent payoff replications for one strategy profile."""

    payoffs: np.ndarray          # shape (n, 2)
    seeds: list

    @property
    def n(self) -> int:
        return self.payoffs.shape[0]

    def mean(self, player=None):
        if player is None:
            return self.payoffs.mean(axis=0)
        return float(self.payoffs[:, player].mean())

    def variance(self, player: int) -> float:
        if self.n < 2:
            return 0.0
        return float(self.payoffs[:, player].var(ddof=1))

    def samples(self, player: int) -> np.ndarray:
        return self.payoffs[:, player].copy()


def replication_seeds(master_seed: int, profile_tag: int, n: int,
                      start: int = 0) -> list:
    """Deterministic per-replication seeds for a profile's sample stream."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(profile_tag,))
    return [int(s.generate_state(1)[0] & 0x7FFFFFFF)
            for s in ss.spawn(start + n)[start:]]


def _payoff_rows(specs, settings: SimulationSettings, rates: CostRates, seeds,
                 mirror: bool) -> np.ndarray:
    """Payoffs of one replication per seed, (len(seeds), 2), for one spec
    pair per seed, computed in even kernel passes of at most ``PASS_ROWS``
    rows so that only one pass's daily series are held."""
    n = len(seeds)
    passes = -(-n // PASS_ROWS)
    bounds = [n * k // passes for k in range(passes + 1)]
    payoffs = np.zeros((n, 2))
    for lo, hi in zip(bounds, bounds[1:]):
        try:
            reps = run_replication(specs[lo:hi], settings, seeds[lo:hi], mirror=mirror)
        except ReplicationError as exc:
            exc.index += lo
            raise
        for j, rep in enumerate(reps, lo):
            payoffs[j] = compute_payoff(rep, rates, settings.sunk_cost_mode)
        del reps    # the pass's series are not kept while the next one runs
    return payoffs


def estimate_payoffs(specs, settings: SimulationSettings, rates: CostRates,
                     n: int, seeds, mirror: bool = False,
                     jobs: int = 1) -> PayoffSampleSet:
    """Run ``n`` independent replications and collect both players' payoffs.

    ``specs`` is one spec pair for every replication, or a sequence of ``n``
    pairs, one per seed. Replications run in lockstep, mixing pairs; with
    ``jobs`` > 1 the rows are split into ``jobs`` contiguous chunks run by as
    many worker processes. The payoffs depend only on each row's pair and
    seed, not on ``n``, the chunking or ``jobs``. A diverging replication
    raises :class:`ReplicationError` with its position among the ``n`` rows
    as ``index``.
    """
    if n < 1:
        raise ParameterError("sample count must be >= 1")
    seeds = list(seeds)[:n]
    if len(seeds) < n:
        raise ParameterError("not enough seeds supplied")
    specs = _per_seed(specs, n)
    chunks = min(jobs, n)
    bounds = [n * c // chunks for c in range(chunks + 1)]
    parts = [(specs[lo:hi], settings, rates, seeds[lo:hi], mirror)
             for lo, hi in zip(bounds, bounds[1:])]
    done = []
    try:
        if chunks == 1:
            done.append(_payoff_rows(*parts[0]))
        else:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=chunks) as pool:
                for payoffs in pool.map(_payoff_rows, *zip(*parts)):
                    done.append(payoffs)
    except ReplicationError as exc:
        exc.index += bounds[len(done)]    # map yields in chunk order
        raise
    return PayoffSampleSet(payoffs=np.concatenate(done), seeds=seeds)


def detect_warmup(rep: ReplicationOutput, rel_tol: float = 0.02,
                  stocks=("inv", "wip", "labor"), window: int = 5) -> int:
    """First day from which the monitored stocks stay within ``rel_tol`` of
    their terminal values.

    Series are smoothed with a trailing moving average first, the usual
    guard against day-level jitter in warm-up detection.
    """
    worst = 0
    kernel = np.ones(window) / window
    for name in stocks:
        arr = rep.series[name]
        for i in COMPANIES:
            x = np.convolve(arr[:, i], kernel, mode="valid")
            terminal = x[-1]
            scale = max(abs(terminal), 1e-12)
            dev = np.abs(x - terminal) / scale
            # last index that violates the band determines this series' warm-up
            bad = np.nonzero(dev > rel_tol)[0]
            first_ok = 0 if bad.size == 0 else int(bad[-1]) + window
            worst = max(worst, first_ok)
    return worst


def time_replication(specs, settings: SimulationSettings, seed: int = 0) -> float:
    """Wall-clock seconds for a single replication (used by perf checks)."""
    start = time.perf_counter()
    run_replication(specs, settings, seed)
    return time.perf_counter() - start
