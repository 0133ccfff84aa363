"""Agent-based consumer market with two competing brands.

Each simulated day every agent scores both brands with a motivation value
built from price sensitivity, advertisement susceptibility, promotion
sensitivity and the adoption of network neighbors, then adopts the argmax
brand (ties broken uniformly at random). Marketing budgets drive spend,
a cross-company interaction co-state and per-brand marketing forces.

One :class:`ConsumerMarket` advances many replications in lockstep. Their
marketing and co-state arrays update together, and only where a row's
co-state, levels or budget changed; agents are decided in slices of at most
``BLOCK`` replications, with the agents as the contiguous axis.

An agent's score for a brand is ``sens_p * price * (1 - pm) + sus_ad * ad +
sens_pm * pm + ft * inf`` taken left to right, where ``sens_p`` is its
socio-economic constant ``m`` plus the brand's price response ``r``, each
perception (``sus_ad``, ``sens_pm``, ``ft``) its initial constant times the
brand's marketing force ``mf``, and ``inf`` its neighbors' share of the
brand, ``c / D`` for ``c`` neighbors of the brand among ``D`` (1 for an
isolated agent). Only the sign of the brand-0 less the brand-1 score
matters. With ``p`` the price, ``q = 1 - pm``, ``t1 = (mf * i_ad) * ad``,
``t2 = (mf * i_pm) * pm`` and ``ft = mf * i_ft``, in real arithmetic

    s0 - s1 = m a + b + K + F0 c0 - F1 c1,

with the day's row terms ``a = p0 q0 - p1 q1`` and ``b = r0 p0 q0 -
r1 p1 q1`` and the period terms ``K = (t1_0 + t2_0) - (t1_1 + t2_1)`` and
``F_b = ft_b / D`` of each row and agent. The period terms change only with
the force and the levels, which stay bit-equal through a marketing period
once the co-state sits at its cap. They are held in three period caches of
(rows, agents) floats, 24 B per row and agent (2.1 MB at 430 rows of 200
agents), refilled on a row's first day and whenever its co-state, ad, pm or
budget changes bit-wise. A slice forms the float value ``d`` of the sum,
``m a + b`` as one matrix product of its rows' ``(a, b)`` with ``[m; 1]``.
An agent with ``|d|`` above its row's bound takes brand 1 where ``d < 0``.
Every other agent (within the bound, NaN, or in a row whose bound is not
finite) is scored exactly: both scores in the one-replication operation
order, brand 0 only where its score is greater, equal finite scores a tie
drawn from the row's stream in agent order, an equal infinite pair or a NaN
brand 1.

The bound is ``2**-40 M``, with the row's size

    M = max_b (|r_b| + max|m| + 1)(|p_b| + 1)(|q_b| + 1)
        + max|t1| + max|t2| + max|ft|

(the last three over both brands and every agent). Let ``u = 2**-53``. Each
term of a score is at most ``M`` in size (a share is at most 1) and passes
through at most six rounded operations, so each exact score is within
``6.01 u M`` of its value in real arithmetic on the same inputs. Each term of
``d`` passes through at most seven, and its terms over both brands sum to at
most ``2 M``, so ``d`` is within ``14.02 u M`` of the real ``s0 - s1``.
Together the error is below ``27 u M < 2**-48 M``, a 256th of the bound: an
agent beyond the bound has a nonzero ``s0 - s1`` of ``d``'s sign, so the
exact rule gives it the same brand and no tie draw is skipped. The ``+ 1``
factors make ``M`` bound every intermediate product and every factor that
scales a rounding error, not only the terms. So nothing overflows while
``4 M`` is finite, and the bound is formed from ``4 M`` so that it is
infinite otherwise; an underflowing product errs by at most ``2**-1075``
times ``M`` or a neighbor count, far below the bound as ``M >= 1``; and a NaN
or infinite input gives an infinite or NaN bound, sending its row to the
exact scores. ``M`` is rounded itself, by a few ulps, which the margin
absorbs.

The neighbor counts come from one sparse product a day over every row,
counted in the narrowest integer that holds the network's largest degree
(int8 at the default 200 agents, 86 KB per brand at 430 rows). The counts
are exact, so each exact score's share has the bits of a float count's.
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

# Replications decided together. A slice works on two (BLOCK, agents) float
# buffers, its score differences and a scratch term, and its rows of the
# three period caches, and reads its rows of the day's integer neighbor
# counts. At 200 agents each buffer holds 100 KiB, under the 128 KiB at which
# the C allocator hands out fresh memory maps. A 430-row day with its caches
# filled took 1.07 ms at 64 rows a slice, 1.23 ms at 32 and 1.04 ms at 128
# (medians of fifteen alternating trials, 2-core host). The reference tests
# pick widths past 64 to cross slice boundaries.
BLOCK = 64


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
        # period caches of each row: K, F0 and F1 of every agent, the summed
        # largest sizes of t1, t2 and ft, and the co-state, levels and budget
        # they were filled from (module docstring)
        self._diff = np.empty((3, replications, self.n))
        self._size = np.empty(replications)
        self._key = None
        # [m; 1] and max|m| + 1, read with the perception constants when
        # caches are filled
        self._m_ones = np.ones((2, self.n))
        self._lift = math.nan

    def truncate(self, replications: int) -> None:
        """Keep only the first ``replications`` rows."""
        self.adopted = self.adopted[:, :replications]
        mk = self.marketing
        for f in fields(mk):
            setattr(mk, f.name, getattr(mk, f.name)[:replications])
        self._diff = self._diff[:, :replications]
        self._size = self._size[:replications]
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

    def step(self, prices, rngs, mirror: bool = False) -> np.ndarray:
        """Advance every replication one day; returns the (replications, 2)
        market shares (each row sums to 1).

        ``prices`` has one brand pair per replication and ``rngs`` one
        tie-break generator per replication, drawn only for that row's tied
        agents. ``mirror`` flips the interpretation of tie-break draws, which
        is the documented label transposition that makes brand-swapped runs
        mirror exactly. The co-state updates for every row at once, the
        force and spend rate where a row's co-state, levels or budget changed,
        and one product counts every row's neighbors. Agents are decided
        ``BLOCK`` rows at a time from their score difference, whose period
        terms come from the row's caches, refilled first where those inputs
        changed; agents the difference cannot decide are scored exactly
        (:meth:`_exact`).
        """
        p = self.params
        mk = self.marketing
        prices = np.asarray(prices, dtype=float)

        # a row's force, spend rate and period caches follow from its co-state,
        # levels and budget alone, so they are recomputed only where one of
        # those changed; compared as bits: == would equate -0.0 with 0.0, and
        # a NaN with nothing, itself included
        key = np.concatenate((mk.inter, mk.ad, mk.pm, mk.mb), axis=1)
        if self._key is None:
            stale = np.ones(len(prices), dtype=bool)
        else:
            stale = (key.view(np.int64) != self._key.view(np.int64)).any(axis=1)
        self._key = key
        any_stale = stale.any()
        if any_stale:
            _, _, mk.spend_rate = marketing_spend(
                mk.mb, mk.ad, mk.pm, p.k, p.adj_time_ms)
            mk.force = marketing_force(mk.ad, mk.pm, mk.inter, p.w1, p.w2, p.w3)
        new_inter = update_costate(mk.inter, p.rho, p.delta1, p.delta2,
                                   mk.total_force, prices, mk.pm, dt=1.0)
        mk.inter = np.clip(new_inter, -p.inter_cap, p.inter_cap)
        if any_stale:
            mk.total_force = mk.force.sum(axis=1)
        price_sum = prices.sum(axis=1)
        if p.price_sum_mode == "average":
            price_sum = price_sum / 2

        response = price_response(prices, mk.pm, price_sum[:, None], p.s)
        paid = 1.0 - mk.pm
        counts = self.neighbor_influence()
        if any_stale:
            # per-agent constants are read here: the rows [m; 1] that turn a
            # row's (a, b) into m a + b, and the largest |m| and perception
            # constants, which times a brand's levels give the largest size of
            # each period term over the agents, as rounding is monotone
            m_agent, i_ad, i_pm, i_ft = (c.reshape(self.n) for c in (
                self.m_agent, self.i_ad, self.i_pm, self.i_ft))
            self._m_ones[0] = m_agent
            reach = np.abs(np.stack((m_agent, i_ad, i_pm, i_ft))).max(axis=1)
            self._lift = reach[0] + 1.0
            mf, ad, pm = (np.abs(x[stale]) for x in (mk.force, mk.ad, mk.pm))
            sizes = np.stack((mf * reach[1] * ad, mf * reach[2] * pm, mf * reach[3]))
            self._size[stale] = sizes.max(axis=2).sum(axis=0)
        # the day's terms of the difference, a = p0 q0 - p1 q1 and
        # b = r0 p0 q0 - r1 p1 q1, and its rounding bound (module docstring)
        rows = len(prices)
        pq = prices * paid
        ab = np.empty((rows, 2))
        np.subtract(pq[:, 0], pq[:, 1], out=ab[:, 0])
        pq *= response
        np.subtract(pq[:, 0], pq[:, 1], out=ab[:, 1])
        size = np.abs(response) + self._lift
        size *= np.abs(prices) + 1.0
        size *= np.abs(paid) + 1.0
        bound = np.maximum(size[:, 0], size[:, 1]) + self._size
        bound *= 4.0            # inf where 4 M overflows
        bound *= 2.0 ** -42
        loose = bound.max()     # NaN if some row's is
        width = min(rows, BLOCK)
        diffs, parts = np.empty((2, width, self.n))
        flags = np.empty((2, width, self.n), dtype=bool)
        for lo in range(0, rows, BLOCK):
            block = slice(lo, lo + BLOCK)
            k, f0, f1 = self._diff[:, block]
            if any_stale:
                refill = np.flatnonzero(stale[block])
                if refill.size:
                    # one brand at a time, in the slice's two free buffers
                    mf, ad, pm = (x[lo + refill].T[..., None] for x in (mk.force, mk.ad, mk.pm))
                    sums = diffs[:refill.size], parts[:refill.size]
                    for b, total in enumerate(sums):
                        np.multiply(mf[b], i_ad, out=total)
                        total *= ad[b]
                        term = mf[b] * i_pm
                        term *= pm[b]
                        total += term
                    k[refill] = np.subtract(*sums, out=sums[0])
                    for b, f in enumerate((f0, f1)):
                        f[refill] = np.divide(np.multiply(mf[b], i_ft, out=sums[1]),
                                              self._divisor, out=sums[1])
            d, part = diffs[:len(k)], parts[:len(k)]
            np.matmul(ab[block], self._m_ones, out=d)
            d += k
            d += np.multiply(f0, counts[0, block], out=part)
            d -= np.multiply(f1, counts[1, block], out=part)
            choice, sure = flags[:, :len(k)]
            np.less(d, 0.0, out=choice)
            # every agent beyond the day's largest bound is decided; of the
            # others, those within their own row's bound are scored exactly
            if not np.greater(np.abs(d, out=part), loose, out=sure).all():
                near, agents = np.nonzero(~sure)
                keep = ~(part[near, agents] > bound[lo + near])
                near, agents = near[keep], agents[keep]
                choice[near, agents] = self._exact(lo + near, agents, response, prices,
                                                   paid, counts, rngs, mirror)
            self.adopted[:, block] = choice.view(np.int8).T
        tally = np.empty((rows, 2), dtype=self._tally)
        np.add.reduce(self.adopted, axis=0, out=tally[:, 1])    # brand-1 agents
        np.subtract(self.n, tally[:, 1], out=tally[:, 0])
        return tally / self.n

    def _exact(self, rows, agents, response, prices, paid, counts, rngs, mirror):
        """Whether each agent ``agents[j]`` of row ``rows[j]`` (pairs in
        row-then-agent order) takes brand 1, from both brands' scores formed
        in the one-replication operation order. Brand 0 wins only where its
        score is greater; equal finite scores tie and draw from the row's
        stream, and an equal infinite pair or a NaN goes to brand 1."""
        mk = self.marketing
        m, i_ad, i_pm, i_ft = (c.reshape(self.n)[agents, None] for c in (
            self.m_agent, self.i_ad, self.i_pm, self.i_ft))
        mf = mk.force[rows]
        score = response[rows] + m
        score *= prices[rows]
        score *= paid[rows]
        score += mf * i_ad * mk.ad[rows]
        score += mf * i_pm * mk.pm[rows]
        score += mf * i_ft * (counts[:, rows, agents].T / self._divisor[agents, None])
        s0, s1 = score.T
        brand1 = ~(s0 > s1)
        tied = (s0 == s1) & np.isfinite(s0)
        for r in np.unique(rows[tied]):
            at = tied & (rows == r)
            draws = rngs[r].integers(0, 2, size=int(at.sum()))
            brand1[at] = 1 - draws if mirror else draws
        return brand1
