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
sub-steps, whose body alone depends on the width: from ``WIDE`` rows on (14, where the array body
overtakes the float body), both companies of every row are one stacked
:class:`SDState` and :class:`SDParams` of (rows, 2) arrays, stepped by the
company step and the pricing step in their array form once per sub-step;
below it each replication runs both steps in their plain-float form. The
float body stays because the array body's fixed cost per sub-step
is some 200 numpy calls of about 1 us each: a one-row replication took 47 ms
on it and 11.5 ms in plain floats (minima of nine runs, 2-core host). Both
forms perform the same float operations in the same order, and both bodies
the same bookkeeping.
:func:`estimate_payoffs` splits its rows once, into passes of at most
``PASS_ROWS`` rows run in process or on a worker pool. Its passes record no
daily series: a pass prices its rows' accumulators in one call, so what it
holds per row is mainly the market's period caches (24 B per agent) and
about 2.5 KB of RNG streams. Replications share nothing but the population,
so every output depends on its pair and seed alone; results do not depend
on the sample count ``n``, the width, the body or the passes.

Seed discipline: the population and social network derive from a dedicated
population seed shared by every replication of a configuration, while each
replication's seed spawns separate streams for tie-breaking and for each
company's marketing levels and noise. Mirrored runs swap the two company
streams and flip the tie-break labels, which makes the strategy-swapped
replication an exact mirror of the original.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ParameterError, ReplicationError, StateError
from .market import ConsumerMarket, MarketParams, sunk_cost
from .network import generate_ba_network
from .supply_chain import (
    ZERO_NOISE,
    NoiseDraws,
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
# 100-200 us whatever the width up to a few dozen rows, a plain-float company
# step about 5 us. Per replication the array body took 1.03 times the float
# body's time at 13 rows, 0.96-0.97 at 14, 0.93 at 15 and 0.88 at 16 (medians
# of eleven and fifteen runs, both bodies alternating, 2-core host).
WIDE = 14

# Rows per kernel pass of :func:`estimate_payoffs`: bounds what a process
# holds at once per row, whatever the number of rows. A pass records no daily
# series, so that is mainly the market's period caches (24 B per agent) and
# about 2.5 KB of RNG streams.
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


class _Rows:
    """Every row of a kernel pass: its RNG streams, marketing ranges, prices,
    market expected price and band, noisy companies and accumulators, each
    one list or array entry per row, plus the two companies' supply chains.

    Only a day's sub-steps depend on the width, fixed for the pass: the
    array body from ``WIDE`` rows on, the plain-float body below it.
    """

    def __init__(self, setups, index, seeds, settings, mirror, series):
        n = len(seeds)
        self.seeds = list(seeds)
        pairs = [setups[k][0] for k in index]
        streams = [_streams(seed, mirror) for seed in seeds]
        self.tie_rngs = [tie for tie, _ in streams]
        self.rngs = [rngs for _, rngs in streams]
        self.mb_pct = np.array([[spec.mb_pct for spec in specs] for specs in pairs])
        self.ranges = np.array([[(spec.ad_range, spec.pm_range) for spec in specs]
                                for specs in pairs])
        self.prices = np.array([[spec.sd.mfg_price for spec in specs] for specs in pairs])
        self.mp = (self.prices[:, 0] + self.prices[:, 1]) / 2.0
        self.bounds = np.array([setup[3] for setup in setups])[index]
        self.noisy = []     # (row, company, sigmas) of each noisy company
        for r, specs in enumerate(pairs):
            for i, spec in enumerate(specs):
                sd = spec.sd
                sigmas = (sd.sigma_wip, sd.sigma_prod, sd.sigma_order, sd.sigma_inv)
                if any(sigma > 0 for sigma in sigmas):
                    self.noisy.append((r, i, sigmas))
        # per company: revenue, units produced, purchased and shipped,
        # inventory and backlog unit-days, marketing spend, own sunk cost
        self.totals = np.zeros((8, n, 2))
        self.period_revenue = np.zeros((n, 2))
        self.sunk_total = np.zeros(n)
        self.daily = (np.empty((settings.run_length_days, len(SERIES), n, 2))
                      if series else None)
        self.wide = n >= WIDE
        if self.wide:
            self.p = SDParams.stacked([setup[1] for setup in setups], index)
            self.s = SDState.stacked([setup[2] for setup in setups], index)
            self.s.price = self.prices     # stepped in place by the array pricing
        else:
            self.params = [setups[k][1] for k in index]
            self.sd = [[replace(state) for state in setups[k][2]] for k in index]

    @property
    def rows(self) -> int:
        return len(self.seeds)

    def truncate(self, rows: int) -> None:
        """Keep only the first ``rows`` rows."""
        for name in ("seeds", "tie_rngs", "rngs", "mb_pct", "ranges", "prices",
                     "mp", "bounds", "period_revenue", "sunk_total"):
            setattr(self, name, getattr(self, name)[:rows])
        self.noisy = [entry for entry in self.noisy if entry[0] < rows]
        self.totals = self.totals[:, :rows]
        if self.daily is not None:
            self.daily = self.daily[:, :, :rows]
        if self.wide:
            for record in (self.s, self.p):
                for name, value in list(vars(record).items()):
                    setattr(record, name, value[:rows])
        else:
            self.sd, self.params = self.sd[:rows], self.params[:rows]

    def start_period(self, day, settings):
        """Budgets and advertising and promotion levels of a marketing period;
        each company stream draws ad, then pm, as ``Generator.uniform`` would."""
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
            u = np.array([[rng.random(2) for rng in rngs] for rngs in self.rngs])
            levels = lo + (hi - lo) * u
        return mb, levels[..., 0], levels[..., 1]

    def _noise(self):
        """The day's noise draws, (4, rows, 2) in :class:`NoiseDraws` field
        order, or None when no company is noisy."""
        if not self.noisy:
            return None
        draws = np.zeros((4, self.rows, 2))
        for r, i, sigmas in self.noisy:
            rng = self.rngs[r][i]
            for k, sigma in enumerate(sigmas):
                if sigma > 0:
                    draws[k, r, i] = rng.normal(0, sigma)
        return draws

    def advance_day(self, day, shares, spend_rate, collect, tor, dt, substeps):
        """Every row through one day; returns ``(row, error)`` for the lowest
        row that diverged, after dropping it and every later row, or None."""
        if collect:
            self.totals[6] += spend_rate     # one day's worth
        body = self._array_steps if self.wide else self._float_steps
        return body(day, tor * shares, shares, self._noise(), collect, dt, substeps)

    def _array_steps(self, day, orders, shares, draws, collect, dt, substeps):
        """A day's sub-steps of every row at once, then, when the pass records
        them, the day's ``SERIES`` of the rows left; returns the failure as
        :meth:`advance_day`."""
        s, p = self.s, self.p
        failure = None
        for _ in range(substeps):
            noise = ZERO_NOISE if draws is None else NoiseDraws(*draws)
            failed = None
            try:
                step_company(s, p, orders, noise, dt)
            except StateError as exc:
                failed = exc
            _book(self.totals, self.period_revenue, ..., s, s.price, dt, collect)
            try:
                step_pricing(s.price, self.mp, p, s.inv_cov, dt=dt, mp_bounds=self.bounds.T)
            except StateError as exc:
                if failed is None or exc.row < failed.row:
                    failed = exc
            if failed is not None:
                row = failed.row
                failure = (row, failed)
                self.truncate(row)
                orders, shares = orders[:row], shares[:row]
                if draws is not None:
                    draws = draws[:, :row]
                if not row:
                    break
        if self.daily is not None:
            self.daily[day] = (s.price, s.inv, s.backlog, s.ship_r, shares, s.labor, s.wip)
        return failure

    def _float_steps(self, day, orders, shares, draws, collect, dt, substeps):
        """As :meth:`_array_steps`, one row at a time in plain floats read
        from and written back to the row arrays."""
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
        ends, failure = [], None
        for r, (sd, params) in enumerate(zip(self.sd, self.params)):
            price, mp, period_revenue = prices[r], mps[r], revenue[r]
            try:
                for _ in range(substeps):
                    for i in COMPANIES:
                        s = step_company(sd[i], params[i], orders[r][i], noises[r][i], dt)
                        _book(totals[r][i], period_revenue, i, s, price[i], dt, collect)
                    price, mp = step_pricing(price, mp, params,
                                             (sd[0].inv_cov, sd[1].inv_cov),
                                             dt=dt, mp_bounds=bounds[r])
            except StateError as exc:
                failure = (r, exc)
                break
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
        if ends:    # the rows that finished the day
            self.daily[day].transpose(1, 0, 2)[:len(ends)] = ends
        if failure is not None:
            self.truncate(failure[0])
        return failure

    def close_period(self, mb, inter):
        """Sunk interaction cost of a finished marketing period."""
        cost = sunk_cost(mb, inter)
        self.sunk_total += np.where(cost > 0.0, cost, 0.0)
        x = mb * inter
        self.totals[7] += np.where(x > 0.0, x, 0.0)

    def outputs(self, settings) -> list:
        """One output per row or, when the pass records no series, one
        output stacking every row's accumulators."""
        if self.daily is None:
            entries = [(self.seeds, {}, slice(None), self.sunk_total[:, None])]
        else:
            entries = [(seed, {name: self.daily[:, k, r] for k, name in enumerate(SERIES)},
                     r, float(self.sunk_total[r])) for r, seed in enumerate(self.seeds)]
        t = self.totals
        return [ReplicationOutput(
            seed=seed, run_length=settings.run_length_days, series=series,
            revenue=t[0, r], units_produced=t[1, r], units_purchased=t[2, r],
            units_shipped=t[3, r], inv_unit_days=t[4, r], backlog_unit_days=t[5, r],
            marketing_spend=t[6, r], sunk_own=t[7, r], sunk_total=sunk)
            for seed, series, r, sunk in entries]


def _book(totals, revenue, key, s: SDState, price, dt: float, collect: bool) -> None:
    """Book one sub-step of ``s``: its income into ``revenue[key]`` and,
    when ``collect``, its income and quantities into ``totals[0]`` to
    ``totals[5]``. Either one company's plain floats (``totals`` its list,
    ``key`` its column) or every row's arrays (``key`` is ``...``)."""
    income = s.ship_r * price * dt
    if collect:
        totals[0] += income
        totals[1] += s.prod_br * dt
        totals[2] += s.rm_order_r * dt
        totals[3] += s.ship_r * dt
        totals[4] += s.inv * dt
        totals[5] += s.backlog * dt
    revenue[key] += income


def _run_rows(setups, index, seeds, settings: SimulationSettings,
              mirror: bool, series: bool) -> _Rows:
    """Replications of ``seeds``, row ``r`` under ``setups[index[r]]`` (from
    :func:`_setup`), one lockstep day at a time; returns the row state, its
    daily series recorded only when ``series`` is set.

    Each day one market call advances every row, then the supply chains and
    pricing of every row advance. A replication that diverges ends the run
    for itself and every later one; the call then raises for the
    lowest-index replication that diverged.
    """
    tor = settings.total_order_rate
    dt = settings.dt
    substeps = max(1, round(1.0 / dt))
    period = settings.marketing_period
    pop_rng = np.random.default_rng(np.random.SeedSequence(settings.population_seed + 1))
    market = ConsumerMarket(_population(settings), settings.market, pop_rng,
                            replications=len(seeds))
    chain = _Rows(setups, index, seeds, settings, mirror, series)
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
                               day=day, seed=seeds[r], index=r) from exc
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
    with several, the lowest position is reported.

    With ``mirror=True`` the company noise streams are transposed and
    tie-break labels flipped; running the swapped strategy pair that way
    reproduces the original replication with the two companies exchanged,
    bit for bit.

    With ``series=False``, as :func:`estimate_payoffs` runs its passes, no
    daily series are recorded and the call returns one output for all the
    seeds: ``seed`` is their list, ``series`` is empty, every accumulator is
    a (rows, 2) array and ``sunk_total`` a (rows, 1) column, which
    :func:`compute_payoff` prices row by row.
    """
    settings.validate()
    single = isinstance(seed, (int, np.integer))
    seeds = [seed] if single else list(seed)
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


def replication_seeds(master_seed: int, profile_tag: int, n: int,
                      start: int = 0) -> list:
    """Deterministic per-replication seeds for a profile's sample stream."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(profile_tag,))
    return [int(s.generate_state(1)[0] & 0x7FFFFFFF)
            for s in ss.spawn(start + n)[start:]]


def _pass_payoffs(specs, settings: SimulationSettings, rates: CostRates, seeds,
                  mirror: bool) -> np.ndarray:
    """Payoffs of one kernel pass, (len(seeds), 2)."""
    rows = run_replication(specs, settings, seeds, mirror=mirror, series=False)
    return compute_payoff(rows, rates, settings.sunk_cost_mode)


def estimate_payoffs(specs, settings: SimulationSettings, rates: CostRates,
                     n: int, seeds, mirror: bool = False,
                     jobs: int = 1) -> np.ndarray:
    """Run ``n`` independent replications and return both players' payoffs,
    shape (n, 2), row ``j`` for ``seeds[j]``.

    ``specs`` is one spec pair for every replication, or a sequence of ``n``
    pairs, one per seed. The rows are split once into even contiguous kernel
    passes of at most ``PASS_ROWS`` rows, a multiple of ``jobs`` of them, so
    that only one pass's row state is held per process; with ``jobs`` > 1 the
    passes run on as many worker processes. Each pass runs its replications
    in lockstep, mixing pairs, records no daily series and prices its
    accumulators in one :func:`compute_payoff` call. The payoffs depend only
    on each row's pair and seed, not on ``n``, the passes or ``jobs``. A
    diverging replication raises :class:`ReplicationError` with its position
    among the ``n`` rows as ``index``.
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
    parts = [(specs[lo:hi], settings, rates, seeds[lo:hi], mirror)
             for lo, hi in zip(bounds, bounds[1:])]
    done = []
    try:
        if jobs == 1 or passes == 1:
            for part in parts:
                done.append(_pass_payoffs(*part))
        else:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=min(jobs, passes)) as pool:
                for payoffs in pool.map(_pass_payoffs, *zip(*parts)):
                    done.append(payoffs)
    except ReplicationError as exc:
        exc.index += bounds[len(done)]    # passes finish in order
        raise
    return np.concatenate(done)

