"""Agent-based consumer market with two competing brands.

Each simulated day every agent scores both brands with a motivation value
built from price sensitivity, advertisement susceptibility, promotion
sensitivity and the adoption of network neighbors, then adopts the argmax
brand (ties broken uniformly at random). Marketing budgets drive spend,
a cross-company interaction co-state and per-brand marketing forces.

One :class:`ConsumerMarket` advances many replications in lockstep. Their
marketing and co-state arrays update together; agents are scored in slices
of at most ``BLOCK`` replications. The agents are the contiguous axis:
per-agent constants broadcast along it and per-(row, brand) terms enter as
(rows, 2, 1) columns, so every elementwise loop runs over the agents.

An agent's score for a brand is ``sens_p * price * (1 - pm) + sus_ad * ad +
sens_pm * pm + ft * inf`` taken left to right, where ``sens_p`` is its
socio-economic constant plus the brand's price response, each perception
(``sus_ad``, ``sens_pm``, ``ft``) its initial constant times the brand's
marketing force ``mf``, and ``inf`` its neighbors' share of the brand. The
terms ``(mf * i_ad) * ad``, ``(mf * i_pm) * pm`` and ``mf * i_ft`` change only
with the force and the levels, which stay bit-equal through a marketing
period once the co-state sits at its cap. They are held in three period
caches of (rows, 2, agents) floats, 48 B per row and agent (4.1 MB at 430
rows of 200 agents); a row's caches are refilled on its first day and
whenever its force, ad or pm changes bit-wise. The rest of a day's score is
formed in two (rows, 2, agents) scoring buffers per slice, allocated once per
call and filled in place. Every element takes the same operations in the
same order as the one-replication formula.

The neighbor shares come from one sparse product a day over every row,
counted in the narrowest integer that holds the network's largest degree
(int8 at the default 200 agents, 86 KB per brand at 430 rows); a slice
divides its rows' counts by the degrees. The counts are exact, so each share
has the bits of a float count's. An agent takes brand 0 where its brand-0
score is greater, read from the slice's two brand views, and ties where the
two are equal and finite: the signs of their difference, without forming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy import sparse

from .errors import ParameterError
from .network import SocialNetwork

NO_BRAND = -1

# The interaction co-state is positively unstable whenever the co-state
# factors and total force are positive, so forward integration saturates it
# at this bound to keep long runs finite; the default roughly offsets the
# advertisement and promotion force terms at their mid levels.
DEFAULT_INTER_CAP = 0.7

# Replications scored together. A slice works on five (BLOCK, 2, agents)
# float arrays, the two scoring buffers and its rows of the three period
# caches, and reads its rows of the day's integer neighbor counts. At 200
# agents each float array holds 100 KiB, so the buffers stay under the
# 128 KiB at which the C allocator hands out fresh memory maps, and all five
# fit a core's L2 cache. A 430-row day took 1.7-2.0 ms at 32-64 rows a slice
# and 2.4-2.5 ms at 16 (best of five 100-day runs, three trials each, 2-core
# host); the reference tests pick their widths around 32 to cross slice
# boundaries.
BLOCK = 32


def _narrowest(largest: int):
    """The narrowest signed integer dtype that holds ``largest``."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64)
                if np.iinfo(t).max >= largest)


def marketing_spend(mb, ad, pm, k, adj_time) -> tuple:
    """Advertisement spend, promotion spend and the combined spending rate.

    Works elementwise on per-brand arrays as well as scalars.
    """
    if adj_time <= 0:
        raise ParameterError(f"spending adjustment time must be > 0, got {adj_time}")
    ad_s = k * mb * ad
    pm_s = k * mb * pm
    return ad_s, pm_s, (ad_s + pm_s) / adj_time


def marketing_force(ad, pm, inter, w1, w2, w3):
    return w1 * ad + w2 * pm + w3 * ad * pm + inter


def update_costate(inter, rho, d1, d2, force, prices, pms, dt):
    """One Euler step of the 2x2 cross-company interaction system.

    ``inter``, ``prices`` and ``pms`` hold one brand pair in the last axis,
    with any leading replication axes; ``force`` has the leading shape. The
    coupling product is a stacked matrix-vector product, which rounds the
    same for one pair or many.
    """
    if dt <= 0:
        raise ParameterError(f"dt must be > 0, got {dt}")
    inter, prices, pms = (np.asarray(x, dtype=float) for x in (inter, prices, pms))
    force = np.asarray(force, dtype=float)[..., None]
    coupling = np.array([[d1, d1 * d2], [d2 * d1, d2]])
    drift = (coupling @ ((rho + force) * inter)[..., None])[..., 0] - prices * (1.0 - pms)
    return inter + dt * drift


def sunk_cost(mbs, inters):
    """Sunk interaction cost ``mb . inter`` of one brand pair, or of every row
    of stacked pairs (the pair is the last axis). The stacked matmul runs the
    dot loop of ``np.dot`` on each row, so a row costs the same bits alone or
    stacked; an elementwise sum rounds differently where that loop fuses."""
    mbs, inters = (np.asarray(x, dtype=float) for x in (mbs, inters))
    return (mbs[..., None, :] @ inters[..., :, None])[..., 0, 0]


def price_response(price, pm, price_sum, s):
    """A brand's exponential response to its promotion-adjusted price against the
    market reference; an agent's price sensitivity adds its own constant to it."""
    if s <= 1:
        raise ParameterError(f"price parameter s must be > 1, got {s}")
    return -np.power(s, price * (1.0 - pm) - price_sum)


@dataclass
class MarketParams:
    """Shared behavioral constants of the consumer market."""

    w1: float = 1.0
    w2: float = 1.0
    w3: float = 0.5
    rho: float = 0.1
    delta1: float = 0.2
    delta2: float = 0.2
    i_ad: float = 0.5        # mean initial susceptibility to advertisement
    i_pm: float = 0.5        # mean initial promotion sensitivity
    i_ft: float = 0.05       # mean initial follower tendency
    perception_spread: float = 0.4   # half-width of the per-agent uniform draw
    s: float = 2.0           # price response base, > 1
    m_low: float = 0.5       # socio-economic constant, uniform per agent
    m_high: float = 1.93     # upper end straddles the price-indifference point
    k: float = 1.0           # budget adjustment factor
    adj_time_ms: float = 10.0
    inter_cap: float = DEFAULT_INTER_CAP
    price_sum_mode: str = "average"  # "average" or literal "sum" price reference

    def validate(self):
        if self.s <= 1:
            raise ParameterError("price parameter s must be > 1")
        if self.adj_time_ms <= 0:
            raise ParameterError("adj_time_ms must be > 0")
        if self.m_low > self.m_high:
            raise ParameterError("m_low must not exceed m_high")
        if self.price_sum_mode not in ("sum", "average"):
            raise ParameterError(f"unknown price_sum_mode {self.price_sum_mode!r}")
        for name in ("inter_cap", "perception_spread", "i_ad", "i_pm", "i_ft"):
            if not getattr(self, name) >= 0:    # or NaN
                raise ParameterError(f"{name} must be >= 0, got {getattr(self, name)}")
        # NaN slips through every comparison above, and NaN or inf would run
        # on into wrong or overflowing scores
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ParameterError(f"{f.name} must be finite, got {value}")
        return self


@dataclass
class MarketingState:
    """Per-brand marketing levels plus the shared interaction co-state.

    Every array has one row per replication; the brand pair is the last axis.
    """

    mb: np.ndarray
    ad: np.ndarray
    pm: np.ndarray
    spend_rate: np.ndarray
    force: np.ndarray
    inter: np.ndarray
    total_force: np.ndarray   # shape (replications,)

    @classmethod
    def zeros(cls, replications: int) -> "MarketingState":
        pairs = [np.zeros((replications, 2)) for _ in range(6)]
        return cls(*pairs, total_force=np.zeros(replications))


class ConsumerMarket:
    """Population state plus the per-day market step, for replications that
    share one population and advance in lockstep.

    Adoption is held agent-major, as (agents, replications). Rows never
    interact: each replication has its own marketing state, prices and
    tie-break stream, so a row's trajectory does not depend on how many rows
    run beside it. The update is synchronous: every agent reads the previous
    day's adoption of its neighbors, so the result does not depend on agent
    order.
    """

    def __init__(self, network: SocialNetwork, params: MarketParams,
                 population_rng: np.random.Generator, replications: int = 1):
        if network.n == 0:
            raise ParameterError("empty network")
        if replications < 1:
            raise ParameterError(f"replications must be >= 1, got {replications}")
        self.network = network
        self.params = params
        self.n = network.n
        # per-agent constants, held as (n, 1, 1); :meth:`step` reads them as (n,)
        agents = (self.n, 1, 1)
        self.m_agent = population_rng.uniform(params.m_low, params.m_high, size=agents)
        # heterogeneous initial perceptions keep the population from acting in
        # lockstep; the spread is clipped so the configured mean is preserved
        def draw(center):
            half = min(params.perception_spread, center)
            return population_rng.uniform(center - half, center + half, size=agents)
        self.i_ad = draw(params.i_ad)
        self.i_pm = draw(params.i_pm)
        self.i_ft = draw(params.i_ft)
        self.adopted = np.full((self.n, replications), NO_BRAND, dtype=np.int8)
        self.marketing = MarketingState.zeros(replications)
        # a neighbor count never exceeds the agent's degree, and a day's tally
        # of brand-1 agents never exceeds n
        count = _narrowest(int(network.degrees.max()))
        self._adjacency = sparse.csr_matrix(
            (np.ones(network.indices.size, dtype=count), network.indices, network.indptr),
            shape=(self.n, self.n))
        self._degree = network.degrees.astype(count)
        self._divisor = np.maximum(network.degrees, 1).astype(float)
        self._tally = _narrowest(self.n)
        # period caches of each row: (mf * i_ad) * ad, (mf * i_pm) * pm and
        # mf * i_ft, and the force, ad and pm they were filled from
        self._terms = np.empty((3, replications, 2, self.n))
        self._key = None

    def truncate(self, replications: int) -> None:
        """Keep only the first ``replications`` rows."""
        self.adopted = self.adopted[:, :replications]
        mk = self.marketing
        for f in fields(mk):
            setattr(mk, f.name, getattr(mk, f.name)[:replications])
        self._terms = self._terms[:, :replications]
        if self._key is not None:
            self._key = self._key[:replications]

    def neighbor_influence(self) -> np.ndarray:
        """Each agent's count of neighbors adopting each brand in every
        replication, from the previous day's adoption: integers of the
        adjacency's dtype, shape (2, replications, agents).

        One sparse product a day counts them. Once every agent has a brand,
        ``adopted`` is itself the brand-1 indicator and a brand-0 count is the
        degree less the brand-1 count; while any agent has none, both brands
        are counted. Counts are sums of ones, so exact: a share formed from
        them keeps every bit of one formed from a float count."""
        adopted = self.adopted
        counts = np.empty((2,) + adopted.shape[::-1], dtype=self._degree.dtype)
        if adopted.min() > NO_BRAND:
            np.copyto(counts[1], (self._adjacency @ adopted).T)
            np.subtract(self._degree, counts[1], out=counts[0])
        else:
            for b in (0, 1):
                np.copyto(counts[b], (self._adjacency @ (adopted == b).view(np.int8)).T)
        return counts

    def neighbor_shares(self, counts: np.ndarray, rows: slice,
                        out: np.ndarray) -> np.ndarray:
        """Fraction of each agent's neighbors adopting each brand in the
        replications ``rows``, from the day's :meth:`neighbor_influence`
        counts, written to ``out``, shape (replications, 2, agents)."""
        return np.divide(counts[:, rows].transpose(1, 0, 2), self._divisor, out=out)

    def step(self, prices, rngs, mirror: bool = False) -> np.ndarray:
        """Advance every replication one day; returns the (replications, 2)
        market shares (each row sums to 1).

        ``prices`` has one brand pair per replication and ``rngs`` one
        tie-break generator per replication, drawn only for that row's tied
        agents. ``mirror`` flips the interpretation of tie-break draws, which
        is the documented label transposition that makes brand-swapped runs
        mirror exactly. Marketing updates for every row at once and one
        product counts every row's neighbors; agents are scored ``BLOCK``
        rows at a time, in two (rows, 2, agents) buffers, from the row's
        period caches, refilled first where its force, advertisement or
        promotion level changed.
        """
        p = self.params
        mk = self.marketing
        prices = np.asarray(prices, dtype=float)

        _, _, mk.spend_rate = marketing_spend(
            mk.mb, mk.ad, mk.pm, p.k, p.adj_time_ms)
        mk.force = marketing_force(mk.ad, mk.pm, mk.inter, p.w1, p.w2, p.w3)
        new_inter = update_costate(mk.inter, p.rho, p.delta1, p.delta2,
                                   mk.total_force, prices, mk.pm, dt=1.0)
        mk.inter = np.clip(new_inter, -p.inter_cap, p.inter_cap)
        mk.total_force = mk.force.sum(axis=1)
        price_sum = prices.sum(axis=1)
        if p.price_sum_mode == "average":
            price_sum = price_sum / 2

        response = price_response(prices, mk.pm, price_sum[:, None], p.s)
        # compared as bits: == would equate -0.0 with 0.0, and a NaN force
        # with nothing, itself included
        key = np.stack((mk.force, mk.ad, mk.pm), axis=1)
        if self._key is None:
            stale = np.ones(len(prices), dtype=bool)
        else:
            stale = (key.view(np.int64) != self._key.view(np.int64)).any(axis=(1, 2))
        self._key = key
        any_stale = stale.any()
        counts = self.neighbor_influence()
        # per-agent constants along the agent axis, per-(row, brand) terms
        # as (rows, 2, 1) columns
        m_agent, i_ad, i_pm, i_ft = (c.reshape(self.n) for c in (
            self.m_agent, self.i_ad, self.i_pm, self.i_ft))
        columns = [x[..., None] for x in (response, prices, 1.0 - mk.pm, mk.ad,
                                          mk.pm, mk.force)]
        width = min(len(prices), BLOCK)
        buffers = [np.empty((width, 2, self.n)) for _ in range(2)]
        flags = np.empty((2, width, self.n), dtype=bool)
        for lo in range(0, len(prices), BLOCK):
            block = slice(lo, lo + BLOCK)
            resp, price, paid, ad, pm, mf = (c[block] for c in columns)
            t1, t2, ft = self._terms[:, block]
            if any_stale:
                refill = np.flatnonzero(stale[block])
                if refill.size:
                    mf, ad, pm = mf[refill], ad[refill], pm[refill]
                    t1[refill] = mf * i_ad * ad
                    t2[refill] = mf * i_pm * pm
                    ft[refill] = mf * i_ft
            score, inf = (b[:len(price)] for b in buffers)
            # resp + m_agent as a broadcast copy and a contiguous add, 11 us a
            # 32-row slice; one add reading resp with stride 0 took 15 us
            np.copyto(score, resp)
            np.add(score, m_agent, out=score)
            np.multiply(score, price, out=score)
            np.multiply(score, paid, out=score)
            np.add(score, t1, out=score)
            np.add(score, t2, out=score)
            np.multiply(ft, self.neighbor_shares(counts, block, inf), out=inf)
            np.add(score, inf, out=score)
            # not(s0 > s1) and a tie s0 == s1 on finite scores are the signs
            # of s0 - s1 > 0 and s0 - s1 == 0: a NaN goes to brand 1, and so
            # does inf against inf, whose difference is NaN
            s0, s1 = score[:, 0], score[:, 1]
            choice, tied = flags[:, :len(price)]
            np.logical_not(np.greater(s0, s1, out=choice), out=choice)
            if np.equal(s0, s1, out=tied).any():
                tied &= np.isfinite(s0)
                for r in np.flatnonzero(tied.any(axis=1)):
                    draws = rngs[lo + r].integers(0, 2, size=int(tied[r].sum()))
                    choice[r, tied[r]] = 1 - draws if mirror else draws
            self.adopted[:, block] = choice.view(np.int8).T
        second = np.add.reduce(self.adopted, axis=0, dtype=self._tally)  # brand-1 agents
        return np.column_stack((self.n - second, second)) / self.n
