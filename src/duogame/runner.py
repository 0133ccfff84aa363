"""One full replication of the coupled duopoly simulation.

Each simulated day the consumer market splits total demand between the two
companies, then each company's supply chain advances in sub-daily Euler
steps and prices are re-set at the market level. Physical quantities
(units produced, shipped, unit-days of inventory, ...) are accumulated so
payoffs can be priced with any cost-rate vector afterwards.

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
    NoiseDraws,
    PricingState,
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


def run_replication(specs, settings: SimulationSettings, seed: int,
                    mirror: bool = False) -> ReplicationOutput:
    """Simulate ``run_length_days`` and return the full replication record.

    ``specs`` is the pair of company strategies. With ``mirror=True`` the
    company noise streams are transposed and tie-break labels flipped; running
    the swapped strategy pair that way reproduces the original replication
    with the two companies exchanged, bit for bit.
    """
    specs = tuple(specs)
    if len(specs) != 2:
        raise ParameterError("exactly two company specs required")
    for s in specs:
        s.validate()
    settings.validate()

    child = np.random.SeedSequence(seed).spawn(3)
    tie_rng = np.random.default_rng(child[0])
    company_rngs = [np.random.default_rng(child[1]), np.random.default_rng(child[2])]
    if mirror:
        company_rngs.reverse()

    network = _population(settings)
    pop_rng = np.random.default_rng(np.random.SeedSequence(settings.population_seed + 1))
    market = ConsumerMarket(network, settings.market, pop_rng)

    tor = settings.total_order_rate
    dt = settings.dt
    substeps = max(1, round(1.0 / dt))
    days = settings.run_length_days

    sd = []
    for spec in specs:
        base = steady_state(spec.sd, tor / 2.0)
        init = replace(base)
        for name in ("wip", "inv", "labor", "vac", "backlog", "rm_inv", "rm_transit"):
            setattr(init, name, getattr(base, name) * settings.initial_stock_fraction)
        init.a_wip = init.a_prod = init.a_labor = init.a_vac = 0.0
        init.price = spec.sd.mfg_price
        sd.append(init)
    prices = (specs[0].sd.mfg_price, specs[1].sd.mfg_price)
    mp0 = (prices[0] + prices[1]) / 2.0
    pricing = PricingState(mp=mp0)
    mp_bounds = (mp0 * min(specs[0].sd.mp_floor_ratio, specs[1].sd.mp_floor_ratio),
                 mp0 * max(specs[0].sd.mp_cap_ratio, specs[1].sd.mp_cap_ratio))

    series = {name: np.zeros((days, 2)) for name in
              ("price", "inv", "backlog", "ship_r", "ms", "labor", "wip")}
    revenue = np.zeros(2)
    units_produced = np.zeros(2)
    units_purchased = np.zeros(2)
    units_shipped = np.zeros(2)
    inv_unit_days = np.zeros(2)
    backlog_unit_days = np.zeros(2)
    marketing_spend = np.zeros(2)
    sunk_own = np.zeros(2)
    sunk_total = 0.0
    period_revenue = np.zeros(2)

    params = (specs[0].sd, specs[1].sd)
    try:
        for day in range(days):
            collect = not (settings.truncate_warmup and day < settings.warmup_days)

            if day % settings.marketing_period == 0:
                if day == 0:
                    mb = np.array([specs[i].mb_pct * prices[i] * tor *
                                   settings.marketing_period for i in COMPANIES])
                else:
                    mb = np.array([specs[i].mb_pct * period_revenue[i]
                                   for i in COMPANIES])
                period_revenue[:] = 0.0
                market.marketing.mb = mb
                market.marketing.ad = np.array([
                    _period_draw(company_rngs[i], *specs[i].ad_range,
                                 settings.deterministic_marketing)
                    for i in COMPANIES])
                market.marketing.pm = np.array([
                    _period_draw(company_rngs[i], *specs[i].pm_range,
                                 settings.deterministic_marketing)
                    for i in COMPANIES])

            if settings.fixed_share_split is None:
                shares = market.step(prices, tie_rng, mirror=mirror)
            else:
                market.step(prices, tie_rng, mirror=mirror)
                shares = np.array([settings.fixed_share_split,
                                   1.0 - settings.fixed_share_split])
            if collect:
                marketing_spend += market.marketing.spend_rate  # one day's worth

            noises = []
            for i in COMPANIES:
                p = params[i]
                rng = company_rngs[i]
                noises.append(NoiseDraws(
                    wip=rng.normal(0, p.sigma_wip) if p.sigma_wip > 0 else 0.0,
                    prod=rng.normal(0, p.sigma_prod) if p.sigma_prod > 0 else 0.0,
                    order=rng.normal(0, p.sigma_order) if p.sigma_order > 0 else 0.0,
                    inv=rng.normal(0, p.sigma_inv) if p.sigma_inv > 0 else 0.0))

            for _ in range(substeps):
                for i in COMPANIES:
                    sd[i] = step_company(sd[i], params[i], tor * shares[i],
                                         noise=noises[i], dt=dt)
                    if collect:
                        revenue[i] += sd[i].ship_r * prices[i] * dt
                        units_produced[i] += sd[i].prod_br * dt
                        units_purchased[i] += sd[i].rm_order_r * dt
                        units_shipped[i] += sd[i].ship_r * dt
                        inv_unit_days[i] += sd[i].inv * dt
                        backlog_unit_days[i] += sd[i].backlog * dt
                    period_revenue[i] += sd[i].ship_r * prices[i] * dt
                prices, pricing = step_pricing(
                    prices, pricing, params, (sd[0].inv_cov, sd[1].inv_cov),
                    dt=dt, mp_bounds=mp_bounds)
                for i in COMPANIES:
                    sd[i].price = prices[i]

            if day % settings.marketing_period == settings.marketing_period - 1:
                if collect:
                    total = sunk_cost(market.marketing.mb, market.marketing.inter)
                    sunk_total += max(0.0, total)
                    for i in COMPANIES:
                        own = market.marketing.mb[i] * market.marketing.inter[i]
                        sunk_own[i] += max(0.0, own)

            for i in COMPANIES:
                sd[i].check_finite()
                series["price"][day, i] = prices[i]
                series["inv"][day, i] = sd[i].inv
                series["backlog"][day, i] = sd[i].backlog
                series["ship_r"][day, i] = sd[i].ship_r
                series["ms"][day, i] = shares[i]
                series["labor"][day, i] = sd[i].labor
                series["wip"][day, i] = sd[i].wip
    except StateError as exc:
        raise ReplicationError(f"replication diverged on day {day}: {exc}",
                               day=day, seed=seed) from exc

    return ReplicationOutput(
        seed=seed, run_length=days, warmup=settings.warmup_days, series=series,
        revenue=revenue, units_produced=units_produced,
        units_purchased=units_purchased, units_shipped=units_shipped,
        inv_unit_days=inv_unit_days, backlog_unit_days=backlog_unit_days,
        marketing_spend=marketing_spend, sunk_own=sunk_own, sunk_total=sunk_total)


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

    def merge(self, other: "PayoffSampleSet") -> "PayoffSampleSet":
        """Order-independent merge keyed by replication seed."""
        payoffs = np.vstack([self.payoffs, other.payoffs])
        seeds = self.seeds + other.seeds
        order = np.argsort(np.asarray(seeds, dtype=np.int64), kind="stable")
        return PayoffSampleSet(payoffs=payoffs[order],
                               seeds=[seeds[i] for i in order])


def replication_seeds(master_seed: int, profile_tag: int, n: int,
                      start: int = 0) -> list:
    """Deterministic per-replication seeds for a profile's sample stream."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(profile_tag,))
    return [int(s.generate_state(1)[0] & 0x7FFFFFFF)
            for s in ss.spawn(start + n)[start:]]


def estimate_payoffs(specs, settings: SimulationSettings, rates: CostRates,
                     n: int, seeds, mirror: bool = False) -> PayoffSampleSet:
    """Run ``n`` independent replications and collect both players' payoffs."""
    if n < 1:
        raise ParameterError("sample count must be >= 1")
    seeds = list(seeds)[:n]
    if len(seeds) < n:
        raise ParameterError("not enough seeds supplied")
    payoffs = np.zeros((n, 2))
    for j, seed in enumerate(seeds):
        rep = run_replication(specs, settings, seed, mirror=mirror)
        payoffs[j] = compute_payoff(rep, rates, settings.sunk_cost_mode)
    return PayoffSampleSet(payoffs=payoffs, seeds=seeds)


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
