"""Replications of the coupled duopoly simulation.

Each simulated day the consumer market splits total demand between the two
companies, then each company's supply chain advances in sub-daily Euler
steps and prices are re-set at the market level. Physical quantities
(units produced, shipped, unit-days of inventory, ...) are accumulated so
payoffs can be priced with any cost-rate vector afterwards.

All replications of a call run in lockstep, one day at a time, held by one
row-state class: every row's prices, market expected price and band, RNG
streams and accumulators are one list or array entry per row, whatever the
width. Each day one market call advances every row: one integer sparse
product counts every row's neighbors, then the agents are decided from
their score differences in slices of ``market.BLOCK`` rows with the agents
innermost. Then the supply chains and pricing of every row run the day's
sub-steps, whose body alone depends on the width: from ``WIDE`` rows on (8,
where the array body overtakes the float body), both companies of every row
are one stacked :class:`SDState` and one :class:`PassParams` of (rows, 2)
arrays, stepped by the company step and the pricing step in their array
form once per sub-step, under one numpy error state for the pass; below it
each replication runs both steps in their plain-float form. The
float body stays because the array body's fixed cost per sub-step is still
124 numpy calls of under 1 us each (99 in the company step with its stock
check, 5 in the booking, 20 in pricing): a one-row replication took 2.4
to 2.7 times as long on it as in plain floats (medians of 15 alternating
runs on a 2-core host: 46 against 19 ms in a fast phase, 82 against 30 ms
in a slow one). Both forms perform the same float
operations in the same order, and both bodies the same bookkeeping.
:func:`estimate_payoffs` splits its rows once, into passes of at most
``PASS_ROWS`` rows run in process or on a worker pool. Its passes record no
daily series: a pass prices its rows' accumulators in one call, so what it
holds per row is mainly the market's adoption and neighbor counts (3 B per
agent at int8) and 78 B of company streams, plus about 0.9 KB for a tie
generator on a row that has had a tie. Replications share nothing but the
population, so every output depends on its pair and seed alone; results do
not depend on the sample count ``n``, the width, the body or the passes, nor
does the replication that a divergence reports (:func:`_run_rows`).

Seed discipline: the population and social network derive from a dedicated
population seed shared by every replication of a configuration, while each
replication's seed in [0, 2**128) spawns separate streams, as
``SeedSequence(seed).spawn(3)`` does: child 0 for tie-breaking and one child
for each company's marketing levels and noise. :class:`draws.RowStreams`
seeds and steps the company streams of every row as arrays, bit for bit as
numpy's generators would; a row's tie generator is made only on its first
tie, and a noisy company keeps a numpy generator. Mirrored runs swap the two
company streams and flip the tie-break labels, which makes the
strategy-swapped replication an exact mirror of the original.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .draws import RowStreams, entropy_words, spawn_state
from .errors import ParameterError, ReplicationError, StateError
from .market import ConsumerMarket, MarketParams, sunk_cost
from .network import generate_ba_network
from .supply_chain import (
    ZERO_NOISE,
    NoiseDraws,
    PassParams,
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
            if not 0 <= getattr(self, name) < math.inf:    # or NaN
                raise ParameterError(f"cost rate {name} must be >= 0 and finite, "
                                     f"got {getattr(self, name)}")
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
            if len(getattr(self, name)) != 2:
                raise ParameterError(f"{name} must be two numbers, low and high")
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
        # as generate_ba_network requires, and numpy of a seed
        if not 1 <= self.network_m <= self.network_m0 <= self.n_agents:
            raise ParameterError(f"network m and m0 must satisfy 1 <= m <= m0 <= agents, got "
                                 f"m={self.network_m}, m0={self.network_m0}, "
                                 f"agents={self.n_agents}")
        if self.population_seed < 0:
            raise ParameterError(f"population_seed must be >= 0, got {self.population_seed}")
        if not 0 < self.per_capita_demand < math.inf:     # or NaN
            raise ParameterError(f"per_capita_demand must be > 0 and finite, "
                                 f"got {self.per_capita_demand}")
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
    """Daily series plus physical and currency accumulators for one run, or
    the accumulators of several stacked (see :func:`run_replication`): then
    ``seed`` lists their seeds, ``series`` is empty, every array has one row
    per run and ``sunk_total`` is a (rows, 1) column."""

    seed: int | list
    run_length: int
    series: dict           # name -> array of shape (days, 2)
    revenue: np.ndarray    # currency, per company
    units_produced: np.ndarray
    units_purchased: np.ndarray
    units_shipped: np.ndarray
    inv_unit_days: np.ndarray
    backlog_unit_days: np.ndarray
    marketing_spend: np.ndarray
    sunk_own: np.ndarray
    sunk_total: float | np.ndarray


_network_cache: dict = {}

# Rows from which the supply chains and pricing step as (rows, 2) arrays, one
# company step and one pricing step per sub-step for the whole call; fewer
# rows step in plain floats, one company at a time. An array sub-step costs
# 80-110 us whatever the width up to 136 rows (160 us at 430), a plain-float
# company step about 4 us. Per replication the array body took 0.91-0.97
# times the float body's time at 8 rows and 0.63-0.90 at 9 to 14, but
# 0.97-1.14 at 7 and 1.12-1.15 at 6 (medians of fifteen default passes per
# width, both bodies alternating, two sets, 2-core host).
WIDE = 8

# Rows per kernel pass of :func:`estimate_payoffs`: bounds what a process
# holds at once per row, whatever the number of rows. A pass records no daily
# series, so that is mainly the market's adoption and neighbor counts (3 B
# per agent at int8) and 78 B of company streams (tracemalloc at 512 rows),
# plus about 0.9 KB for the tie generator of a row that has tied.
PASS_ROWS = 512

# Replication seeds lie below 2**128: numpy's run entropy of such a seed is
# four uint32 words once padded, so every row's streams seed in one array hash
SEED_LIMIT = 1 << 128

SERIES = ("price", "inv", "backlog", "ship_r", "ms", "labor", "wip")


def _population(settings: SimulationSettings):
    """The population's social network, adjacency and all, built once per
    process and shared by every kernel pass."""
    key = (settings.population_seed, settings.n_agents,
           settings.network_m0, settings.network_m)
    if key not in _network_cache:
        _network_cache[key] = generate_ba_network(
            settings.n_agents, settings.network_m0, settings.network_m,
            seed=settings.population_seed)
    return _network_cache[key]


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
        for name in SDState.STOCK_FIELDS:
            setattr(init, name, getattr(base, name) * settings.initial_stock_fraction)
        init.a_wip = init.a_prod = init.a_labor = init.a_vac = 0.0
        initial.append(init)
    mp0 = (params[0].mfg_price + params[1].mfg_price) / 2.0
    mp_bounds = (mp0 * min(params[0].mp_floor_ratio, params[1].mp_floor_ratio),
                 mp0 * max(params[0].mp_cap_ratio, params[1].mp_cap_ratio))
    return specs, params, initial, mp_bounds


class _Rows:
    """Every row of a kernel pass: its RNG streams, marketing ranges, prices,
    market expected price and band, noisy companies and accumulators, each
    one list or array entry per row, plus the two companies' supply chains.

    Only a day's sub-steps depend on the width, fixed for the pass: the
    array body from ``WIDE`` rows on, the plain-float body below it.
    """

    def __init__(self, setups, index, seeds, settings, mirror, series):
        n = len(seeds)
        self.streams = RowStreams(seeds, mirror)
        pairs = [setups[k][0] for k in index]
        self.mb_pct = np.array([[spec.mb_pct for spec in specs] for specs in pairs])
        self.ranges = np.array([[(spec.ad_range, spec.pm_range) for spec in specs]
                                for specs in pairs])
        self.prices = np.array([[spec.sd.mfg_price for spec in specs] for specs in pairs])
        self.mp = (self.prices[:, 0] + self.prices[:, 1]) / 2.0
        self.bounds = np.array([setup[3] for setup in setups])[index]
        # (row, company, sigmas, generator) of each noisy company: its own
        # generator draws its period levels and its noise
        self.noisy = []
        for r, specs in enumerate(pairs):
            for i, spec in enumerate(specs):
                sd = spec.sd
                sigmas = (sd.sigma_wip, sd.sigma_prod, sd.sigma_order, sd.sigma_inv)
                if any(sigma > 0 for sigma in sigmas):
                    self.noisy.append((r, i, sigmas, self.streams.generator(r, i)))
        # per company: revenue, units produced, purchased and shipped,
        # inventory and backlog unit-days, marketing spend, own sunk cost
        self.totals = np.zeros((8, n, 2))
        self.period_revenue = np.zeros((n, 2))
        self.sunk_total = np.zeros(n)
        self.daily = (np.empty((settings.run_length_days, len(SERIES), n, 2))
                      if series else None)
        self.wide = n >= WIDE
        self.substeps = max(1, round(1.0 / settings.dt))
        if self.wide:
            pairs = [setup[1] for setup in setups]
            self.p = PassParams(SDParams.stacked(pairs, np.arange(len(pairs))), settings.dt,
                                index)
            self.dt = self.p.dt
            self.s = SDState.stacked([setup[2] for setup in setups], index)
            self.s.price = self.prices     # stepped in place by the array pricing
        else:
            self.dt = settings.dt
            self.params = [setups[k][1] for k in index]
            self.sd = [[replace(state) for state in setups[k][2]] for k in index]

    @property
    def rows(self) -> int:
        return len(self.streams.seeds)

    def start_period(self, day, settings):
        """Budgets and advertising and promotion levels of a marketing period;
        each company stream draws ad, then pm, as ``Generator.uniform`` would,
        a noisy company's from its own generator."""
        if day == 0:
            mb = (self.mb_pct * self.prices * settings.total_order_rate
                  * settings.marketing_period)
        else:
            mb = self.mb_pct * self.period_revenue
        self.period_revenue = np.zeros_like(self.period_revenue)
        lo, hi = self.ranges[..., 0], self.ranges[..., 1]   # (rows, company, ad|pm)
        if settings.deterministic_marketing:
            levels = (lo + hi) / 2.0
        else:
            u = self.streams.uniforms()
            for r, i, _, rng in self.noisy:
                u[r, i] = rng.random(2)
            levels = lo + (hi - lo) * u
        return mb, levels[..., 0], levels[..., 1]

    def _noise(self):
        """The day's noise draws, (4, rows, 2) in :class:`NoiseDraws` field
        order, or None when no company is noisy."""
        if not self.noisy:
            return None
        draws = np.zeros((4, self.rows, 2))
        for r, i, sigmas, rng in self.noisy:
            for k, sigma in enumerate(sigmas):
                if sigma > 0:
                    draws[k, r, i] = rng.normal(0, sigma)
        return draws

    def advance_day(self, day, shares, spend_rate, collect, tor):
        """Every row through one day. A row that diverges stops the day and
        raises its :class:`StateError` with ``row`` set: the array body's
        lowest such row on the first sub-step that has one, the float body's
        lowest such row."""
        if collect:
            self.totals[6] += spend_rate     # one day's worth
        body = self._array_steps if self.wide else self._float_steps
        body(day, tor * shares, shares, self._noise(), collect)

    def _array_steps(self, day, orders, shares, draws, collect):
        """A day's sub-steps of every row at once, then, when the pass records
        them, the day's ``SERIES``."""
        s, p, dt = self.s, self.p, self.dt
        noise = ZERO_NOISE if draws is None else NoiseDraws(*draws)
        for _ in range(self.substeps):
            step_company(s, p, orders, noise, dt)
            _book(self.totals, self.period_revenue, ..., s, s.price, dt, collect)
            step_pricing(s.price, self.mp, p, s.inv_cov, dt=dt, mp_bounds=self.bounds.T)
        if self.daily is not None:
            self.daily[day] = (s.price, s.inv, s.backlog, s.ship_r, shares, s.labor, s.wip)

    def _float_steps(self, day, orders, shares, draws, collect):
        """As :meth:`_array_steps`, one row at a time in plain floats read
        from and written back to the row arrays."""
        dt = self.dt
        orders, shares, bounds = orders.tolist(), shares.tolist(), self.bounds.tolist()
        if draws is None:
            noises = [(ZERO_NOISE, ZERO_NOISE)] * self.rows
        else:
            noises = [[NoiseDraws(*d) for d in row]
                      for row in np.moveaxis(draws, 0, -1).tolist()]
        prices, mps = self.prices.tolist(), self.mp.tolist()
        record = self.daily is not None
        totals = self.totals.transpose(1, 2, 0).tolist()
        revenue = self.period_revenue.tolist()
        ends = []
        for r, (sd, params) in enumerate(zip(self.sd, self.params)):
            price, mp, period_revenue = prices[r], mps[r], revenue[r]
            try:
                for _ in range(self.substeps):
                    for i in COMPANIES:
                        s = step_company(sd[i], params[i], orders[r][i], noises[r][i], dt)
                        _book(totals[r][i], period_revenue, i, s, price[i], dt, collect)
                    price, mp = step_pricing(price, mp, params,
                                             (sd[0].inv_cov, sd[1].inv_cov),
                                             dt=dt, mp_bounds=bounds[r])
            except StateError as exc:
                exc.row = r
                raise
            prices[r], mps[r] = price, mp
            if record:
                s0, s1 = sd
                ends.append((price, (s0.inv, s1.inv), (s0.backlog, s1.backlog),
                             (s0.ship_r, s1.ship_r), shares[r], (s0.labor, s1.labor),
                             (s0.wip, s1.wip)))
        self.prices[:] = prices
        self.mp[:] = mps
        self.totals.transpose(1, 2, 0)[:] = totals
        self.period_revenue[:] = revenue
        if record:
            self.daily[day].transpose(1, 0, 2)[:] = ends

    def close_period(self, mb, inter):
        """Sunk interaction cost of a finished marketing period."""
        cost = sunk_cost(mb, inter)
        self.sunk_total += np.where(cost > 0.0, cost, 0.0)
        x = mb * inter
        self.totals[7] += np.where(x > 0.0, x, 0.0)

    def outputs(self, settings) -> list:
        """One output per row or, when the pass records no series, one
        output stacking every row's accumulators."""
        seeds = self.streams.seeds
        if self.daily is None:
            entries = [(seeds, {}, slice(None), self.sunk_total[:, None])]
        else:
            entries = [(seed, {name: self.daily[:, k, r] for k, name in enumerate(SERIES)},
                     r, float(self.sunk_total[r])) for r, seed in enumerate(seeds)]
        t = self.totals
        return [ReplicationOutput(
            seed=seed, run_length=settings.run_length_days, series=series,
            revenue=t[0, r], units_produced=t[1, r], units_purchased=t[2, r],
            units_shipped=t[3, r], inv_unit_days=t[4, r], backlog_unit_days=t[5, r],
            marketing_spend=t[6, r], sunk_own=t[7, r], sunk_total=sunk)
            for seed, series, r, sunk in entries]


def _book(totals, revenue, key, s: SDState, price, dt: float, collect: bool) -> None:
    """Book one sub-step of ``s``: its income ``ship_r * price * dt`` into
    ``revenue[key]`` and, when ``collect``, its income and quantities times
    ``dt`` into ``totals[0]`` to ``totals[5]``. Either one company's plain
    floats (``totals`` its list, ``key`` its column) or every row's arrays
    (``key`` is ``...``), their products and adds taken as one block."""
    if key is not ... or not collect:
        income = s.ship_r * price * dt
        if collect:
            totals[0] += income
            totals[1] += s.prod_br * dt
            totals[2] += s.rm_order_r * dt
            totals[3] += s.ship_r * dt
            totals[4] += s.inv * dt
            totals[5] += s.backlog * dt
    else:
        booked = np.array((s.ship_r * price, s.prod_br, s.rm_order_r, s.ship_r, s.inv,
                           s.backlog))
        booked *= dt
        totals[:6] += booked
        income = booked[0]
    revenue[key] += income


def _run_rows(setups, index, seeds, settings: SimulationSettings,
              mirror: bool, series: bool) -> _Rows:
    """Replications of ``seeds``, row ``r`` under ``setups[index[r]]`` (from
    :func:`_setup`), one lockstep day at a time; returns the row state, its
    daily series recorded only when ``series`` is set.

    Each day one market call advances every row, then the supply chains and
    pricing of every row advance. A pass keeps all its rows until it ends or
    first meets a divergence, at row ``r`` on day ``d``. A lower row may
    still diverge later, so the rows before ``r`` run again as a pass of
    their own, which raises for the lowest of them that diverges; if none
    does, row ``r`` is reported. That costs at most one further, narrower
    pass per diverging row.
    """
    tor = settings.total_order_rate
    period = settings.marketing_period
    pop_rng = np.random.default_rng(np.random.SeedSequence(settings.population_seed + 1))
    market = ConsumerMarket(_population(settings), settings.market, pop_rng,
                            replications=len(seeds))
    chain = _Rows(setups, index, seeds, settings, mirror, series)
    mk = market.marketing
    fixed = settings.fixed_share_split
    # the array sub-step steps its pass record in this error state (see
    # ``PassParams``): a diverging row's overflow and NaN are its stock or
    # price check's to report, not warnings
    with np.errstate(all="ignore"):
        for day in range(settings.run_length_days):
            collect = not (settings.truncate_warmup and day < settings.warmup_days)
            if day % period == 0:
                mk.mb[:], mk.ad[:], mk.pm[:] = chain.start_period(day, settings)
            shares = market.step(chain.prices, chain.streams.ties, mirror=mirror)
            if fixed is not None:
                shares[:] = (fixed, 1.0 - fixed)
            try:
                chain.advance_day(day, shares, mk.spend_rate, collect, tor)
            except StateError as exc:
                r = exc.row
                if r:
                    _run_rows(setups, index[:r], seeds[:r], settings, mirror, False)
                raise ReplicationError(f"replication diverged on day {day}: {exc}",
                                       day=day, seed=seeds[r], index=r) from exc
            if collect and day % period == period - 1:
                chain.close_period(mk.mb, mk.inter)
    return chain


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
                    mirror: bool = False, *, series: bool = True):
    """Simulate ``run_length_days`` and return the full replication record.

    ``specs`` is the pair of company strategies. ``seed`` is one seed, giving
    one :class:`ReplicationOutput`, or a sequence of seeds, giving a list of
    outputs in the same order; with a sequence of seeds ``specs`` may also be
    a sequence of pairs, one per seed. All replications run in lockstep,
    mixing pairs; each output depends on its pair and seed only, not on the
    other rows or on how many there are. A replication that diverges raises
    :class:`ReplicationError` carrying its day, seed and position ``index``;
    with several, the lowest position is reported, whatever the days
    (:func:`_run_rows`).

    With ``mirror=True`` the company noise streams are transposed and
    tie-break labels flipped; running the swapped strategy pair that way
    reproduces the original replication with the two companies exchanged,
    bit for bit.

    With ``series=False``, as :func:`estimate_payoffs` runs its passes, no
    daily series are recorded and the call returns one output for all the
    seeds: ``seed`` is their list, ``series`` is empty, every accumulator is
    a (rows, 2) array and ``sunk_total`` a (rows, 1) column, which
    :func:`compute_payoff` prices row by row.

    Every seed must lie in [0, ``SEED_LIMIT``).
    """
    settings.validate()
    single = isinstance(seed, (int, np.integer))
    seeds = [operator.index(s) for s in ([seed] if single else seed)]
    for s in seeds:
        if not 0 <= s < SEED_LIMIT:
            raise ParameterError(f"replication seed {s} is outside [0, 2**128)")
    setups, index, known = [], [], {}     # one setup per distinct pair object
    for pair in _per_seed(specs, len(seeds)):
        if id(pair) not in known:
            known[id(pair)] = len(setups)
            setups.append(_setup(pair, settings))
        index.append(known[id(pair)])
    outputs = _run_rows(setups, np.array(index), seeds, settings, mirror,
                        series).outputs(settings)
    return outputs[0] if single or not series else outputs


def compute_payoff(rep: ReplicationOutput, rates: CostRates,
                   sunk_cost_mode: str = "total") -> np.ndarray:
    """Net profit per company: revenue minus all priced cost items.

    ``rep`` is one replication's output, giving a (2,) array, or the stacked
    output of ``run_replication(..., series=False)``, giving (rows, 2); each
    element takes the same float operations in the same order either way.
    """
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


def replication_seeds(master_seed: int, profile_tag, n: int,
                      start: int = 0) -> list:
    """Deterministic per-replication seeds of a profile's sample stream: the
    first state word, less its top bit, of children ``start`` to ``start +
    n`` of ``SeedSequence(master_seed, spawn_key=(profile_tag,))``.

    ``profile_tag`` is one tag or a sequence of tags, giving ``n`` seeds per
    tag, tag by tag, from one array hash (:func:`draws.spawn_state`). Tags
    and child indices must be below 2**32, one spawn-key word each."""
    tags = [profile_tag] if isinstance(profile_tag, (int, np.integer)) else list(profile_tag)
    if not (0 <= start and start + n <= 1 << 32 and all(0 <= t < 1 << 32 for t in tags)):
        raise ParameterError(f"profile tags and replication indices must lie in "
                             f"[0, 2**32), got tags {tags}, start {start}, n {n}")
    run = entropy_words(master_seed)
    run += [0] * (4 - len(run))   # a spawned child's run entropy
    entropy = np.empty((len(tags), n, len(run) + 2), dtype=np.uint32)
    entropy[..., :-2] = run
    entropy[..., -2] = np.array(tags, dtype=np.uint32)[:, None]
    entropy[..., -1] = np.arange(start, start + n, dtype=np.uint32)
    words = spawn_state(entropy.reshape(-1, len(run) + 2), 1)[:, 0]
    return (words & 0x7FFFFFFF).tolist()


def _pass_payoffs(specs, settings: SimulationSettings, rates: CostRates,
                  seeds) -> np.ndarray:
    """Payoffs of one kernel pass, (len(seeds), 2)."""
    rows = run_replication(specs, settings, seeds, series=False)
    return compute_payoff(rows, rates, settings.sunk_cost_mode)


def estimate_payoffs(specs, settings: SimulationSettings, rates: CostRates,
                     n: int, seeds, jobs: int = 1, executor=None) -> np.ndarray:
    """Run ``n`` independent replications and return both players' payoffs,
    shape (n, 2), row ``j`` for ``seeds[j]``.

    ``specs`` is one spec pair for every replication, or a sequence of ``n``
    pairs, one per seed. The rows are split once into even contiguous kernel
    passes of at most ``PASS_ROWS`` rows, a multiple of ``jobs`` of them, so
    that only one pass's row state is held per process; they are mapped on
    ``executor``, or run in process for one pass, ``jobs`` 1 or no executor.
    Each pass runs its replications in lockstep, mixing pairs, records no
    daily series and prices its accumulators in one :func:`compute_payoff`
    call. The payoffs depend only on each row's pair and seed, not on ``n``,
    the passes or ``jobs``. A diverging replication raises
    :class:`ReplicationError` with its position among the ``n`` rows as
    ``index``, the lowest if several diverge.
    """
    if n < 1:
        raise ParameterError("sample count must be >= 1")
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    seeds = list(seeds)[:n]
    if len(seeds) < n:
        raise ParameterError("not enough seeds supplied")
    specs = _per_seed(specs, n)
    passes = min(n, jobs * -(-n // (jobs * PASS_ROWS)))
    bounds = [n * k // passes for k in range(passes + 1)]
    parts = [(specs[lo:hi], settings, rates, seeds[lo:hi])
             for lo, hi in zip(bounds, bounds[1:])]
    done = []
    try:
        run = map if jobs == 1 or passes == 1 or executor is None else executor.map
        for payoffs in run(_pass_payoffs, *zip(*parts)):
            done.append(payoffs)
    except ReplicationError as exc:
        exc.index += bounds[len(done)]    # passes finish in order
        raise
    return np.concatenate(done)

