"""Agent-based consumer market with two competing brands.

Each simulated day every agent scores both brands with a motivation value
built from price sensitivity, advertisement susceptibility, promotion
sensitivity and the adoption of network neighbors, then adopts the argmax
brand (ties broken uniformly at random). Marketing budgets drive spend,
a cross-company interaction co-state and per-brand marketing forces.

One :class:`ConsumerMarket` advances many replications in lockstep. Their
marketing and co-state arrays update together, the force, spend rate and
rounding size only on days where some row's co-state, levels or budget
changed bit-wise, and the per-agent constants are read on the first day;
agents are decided in slices of at most ``BLOCK`` replications, with the
agents as the contiguous axis. Nothing is kept per row and agent but the
adoption and the day's neighbor counts.

An agent's score for a brand is ``sens_p * price * (1 - pm) + sus_ad * ad +
sens_pm * pm + ft * inf`` taken left to right, where ``sens_p`` is its
socio-economic constant ``m`` plus the brand's price response ``r``, each
perception (``sus_ad``, ``sens_pm``, ``ft``) its initial constant (``i_ad``,
``i_pm``, ``i_ft``) times the brand's marketing force ``mf``, and ``inf``
its neighbors' share of the brand, ``c / D`` for ``c`` neighbors of the
brand among ``D`` (1 for an isolated agent). A run's market is in one of
two adoption states: before its first day no agent has a brand, and after
it every agent of every row has one, as a day decides every agent. Only the
sign of the brand-0 less the brand-1 score matters. With ``p`` the price
and ``q = 1 - pm``, and per agent ``g = i_ft / D`` and ``h = g deg`` for
its degree ``deg``, once every agent has a brand (so ``c0 = deg - c1``) in
real arithmetic

    s0 - s1 = [a, b, alpha, beta, mf0] . [m; 1; i_ad; i_pm; h] - sigma g c1,

with each row's day terms ``a = p0 q0 - p1 q1``, ``b = r0 p0 q0 - r1 p1
q1``, ``alpha = mf0 ad0 - mf1 ad1``, ``beta = mf0 pm0 - mf1 pm1`` and
``sigma = mf0 + mf1``. A slice forms its float value ``d`` as one (rows, 5)
by (5, agents) matrix product, less the outer product of ``sigma`` and ``g``
times ``c1``. On the first day every share is 0: the fifth coefficient is 0
and the product alone is ``d``. An agent with
``|d|`` above its row's bound takes brand 1 where ``d < 0``. Every other
agent (within the bound, NaN, or in a row whose bound is not finite) is
scored exactly: both scores in the one-replication operation order, brand 0
only where its score is greater, equal finite scores a tie drawn from the
row's stream in agent order, an equal infinite pair or a NaN brand 1. A
slice first compares ``|d|`` with the day's largest bound, one scalar that
decides every agent of most slices; only where it leaves some agent does the
slice compare ``|d|`` with each row's own bound, so a row whose bound is
large (a price at the top of its band) sends no other row's agents to the
exact scores.

The bound is ``2**-40 M``, with the row's size

    M = max_b (|r_b| + max|m| + 1)(|p_b| + 1)(|q_b| + 1)
        + max_b (|mf_b| + 1)(|ad_b| + |pm_b| + 1)(I + 1),

``I`` the largest of every agent's ``|i_ad|``, ``|i_pm|`` and ``|i_ft|``.
Let ``u = 2**-53`` and ``g_k = k u / (1 - k u)``, the bound on ``k``
rounded operations (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2002, section 3.1). The terms of a score sum in size to at
most ``M`` (a share is at most 1) and each passes through at most six
rounded operations, so each exact score is within ``g_6 M < 6.01 u M`` of
its value in real arithmetic on the same inputs. Expanded into products of
inputs, ``d``'s terms sum in size to at most ``3 M`` (``deg / D`` and ``c /
D`` are at most 1, so brand 0's follower terms count twice). Each passes
through at most nine rounded operations: three to form ``b``, five in the
product (``g_5`` bounds a five-term dot product summed in any order, fused
or not) and the one update after it. So ``d`` is within ``3 g_9 M < 27.01 u
M`` of the real ``s0 - s1``. Together the error is below ``34 u M < 2**-47
M``, a 128th of
the bound: an agent beyond the bound has a nonzero ``s0 - s1`` of ``d``'s
sign, so the exact rule gives it the same brand and no tie draw is skipped.
The ``+ 1`` factors make ``M`` bound every intermediate product (``mf0 ad0``
among them) and every factor that scales a rounding error, not only the
terms. So nothing overflows while ``4 M`` is finite, and the bound is formed
from ``4 M`` so that it is infinite otherwise; an underflowing product errs
by at most ``2**-1075`` times ``M`` and a neighbor count, far below the
bound as ``M >= 1``; and a NaN or infinite input gives an infinite or NaN
bound, sending its row to the exact scores. ``M`` is rounded itself, by a
few ulps, which the margin absorbs.

The neighbor counts come from one product a day over every row of the
network's adjacency, built once per population in the narrowest integer
that holds its largest degree (int8 at the default 200 agents, 86 KB per
brand at 430 rows), with the adoption, from the first day on which every
agent has a brand. The counts are exact, so each exact score's share has
the bits of a float count's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ParameterError
from .network import SocialNetwork, narrowest_int

NO_BRAND = -1

# The interaction co-state is positively unstable whenever the co-state
# factors and total force are positive, so forward integration saturates it
# at this bound to keep long runs finite; the default roughly offsets the
# advertisement and promotion force terms at their mid levels.
DEFAULT_INTER_CAP = 0.7

# Replications decided together. A slice works on two (BLOCK, agents) float
# buffers, its score differences and a scratch term, and two boolean ones, its
# choices and sure decisions, 100 KiB and 12.5 KiB each at 200 agents. A
# 430-row day took 0.72-0.88 ms at 64 rows a slice, 0.85-1.02 ms at 32 and
# 0.65-0.82 ms at 128 (medians of 300 interleaved days, two runs, 2-core
# host); 64 holds half of 128's buffers, and the reference tests pick widths
# past 64 to cross slice boundaries.
BLOCK = 64


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


def update_costate(inter, rho, d1, d2, force, pq, dt):
    """One Euler step of the 2x2 cross-company interaction system.

    ``inter`` and ``pq``, each brand's paid price ``price * (1 - pm)``, hold
    one brand pair in the last axis, with any leading replication axes;
    ``force`` has the leading shape. The coupling product is a stacked
    matrix-vector product, which rounds the same for one pair or many.
    """
    if dt <= 0:
        raise ParameterError(f"dt must be > 0, got {dt}")
    inter, pq = (np.asarray(x, dtype=float) for x in (inter, pq))
    force = np.asarray(force, dtype=float)[..., None]
    coupling = np.array([[d1, d1 * d2], [d2 * d1, d2]])
    drift = (coupling @ ((rho + force) * inter)[..., None])[..., 0] - pq
    return inter + dt * drift


def sunk_cost(mbs, inters):
    """Sunk interaction cost ``mb . inter`` of one brand pair, or of every row
    of stacked pairs (the pair is the last axis). The stacked matmul runs the
    dot loop of ``np.dot`` on each row, so a row costs the same bits alone or
    stacked; an elementwise sum rounds differently where that loop fuses."""
    mbs, inters = (np.asarray(x, dtype=float) for x in (mbs, inters))
    return (mbs[..., None, :] @ inters[..., :, None])[..., 0, 0]


def price_response(pq, price_sum, s):
    """A brand's exponential response to its paid price ``pq``, ``price * (1 -
    pm)``, against the market reference; an agent's price sensitivity adds
    its own constant to it."""
    if s <= 1:
        raise ParameterError(f"price parameter s must be > 1, got {s}")
    return -np.power(s, pq - price_sum)


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
        self.m_agent = population_rng.uniform(params.m_low, params.m_high, size=self.n)
        # heterogeneous initial perceptions keep the population from acting in
        # lockstep; the spread is clipped so the configured mean is preserved
        def draw(center):
            half = min(params.perception_spread, center)
            return population_rng.uniform(center - half, center + half, size=self.n)
        self.i_ad = draw(params.i_ad)
        self.i_pm = draw(params.i_pm)
        self.i_ft = draw(params.i_ft)
        self.adopted = np.full((self.n, replications), NO_BRAND, dtype=np.int8)
        self.marketing = MarketingState.zeros(replications)
        # a neighbor count never exceeds the agent's degree, which the
        # adjacency's dtype holds, and a day's tally of brand-1 agents never
        # exceeds n
        self._degree = network.degrees.astype(network.adjacency.dtype)
        self._divisor = np.maximum(network.degrees, 1).astype(float)
        self._tally = narrowest_int(self.n)
        # read on the first day (module docstring): the agents' rows [m; 1;
        # i_ad; i_pm; h] of the score difference's product and their g,
        # max|m| + 1 and the largest perception constant plus 1; and each
        # row's perception size, formed with the force
        self._basis = np.ones((5, self.n))
        self._follow = np.empty(self.n)
        self._lift = self._reach = math.nan
        self._size = self._key = None

    def neighbor_influence(self) -> np.ndarray:
        """Each agent's count of neighbors adopting each brand in every
        replication, from the previous day's adoption, in which every agent
        has a brand: integers of the adjacency's dtype, shape (2,
        replications, agents).

        ``adopted`` is itself the brand-1 indicator, so one sparse product
        counts brand 1, and a brand-0 count is the degree less the brand-1
        count. Counts are sums of ones, so exact: a share formed from them
        keeps every bit of one formed from a float count."""
        counts = np.empty((2,) + self.adopted.shape[::-1], dtype=self._degree.dtype)
        np.copyto(counts[1], (self.network.adjacency @ self.adopted).T)
        np.subtract(self._degree, counts[1], out=counts[0])
        return counts

    def step(self, prices, rngs, mirror: bool = False) -> np.ndarray:
        """Advance every replication one day; returns the (replications, 2)
        market shares (each row sums to 1).

        ``prices`` has one brand pair per replication and ``rngs[r]`` is
        row ``r``'s tie-break generator, read and drawn only for that row's
        tied agents. ``mirror`` flips the interpretation of tie-break draws, which
        is the documented label transposition that makes brand-swapped runs
        mirror exactly. The co-state updates for every row at once, the
        force, spend rate and size on days where some row's co-state, levels
        or budget changed, and one product counts every row's neighbors
        once every agent has a brand. Agents are decided ``BLOCK`` rows at a
        time from their score difference, one matrix product and one
        outer-product term; agents the difference cannot decide are scored
        exactly (:meth:`_exact`).
        """
        p = self.params
        mk = self.marketing
        prices = np.asarray(prices, dtype=float)
        paid = 1.0 - mk.pm
        pq = prices * paid

        # the rows' forces, spend rates and sizes follow from their co-states,
        # levels and budgets alone, so they are recomputed only on days where
        # one of those changed; compared as bits: == would equate -0.0 with
        # 0.0, and a NaN with nothing, itself included
        key = np.stack((mk.inter, mk.ad, mk.pm, mk.mb)).view(np.int64)
        first = self._key is None
        any_stale = first or not np.array_equal(key, self._key)
        self._key = key
        if first:
            # per-agent constants are read on the first day, with the largest
            # |m| and perception constant, which bound the terms (module
            # docstring)
            basis = self._basis
            basis[0], basis[2], basis[3] = self.m_agent, self.i_ad, self.i_pm
            np.divide(self.i_ft, self._divisor, out=self._follow)
            np.multiply(self._follow, self._degree, out=basis[4])
            self._lift = np.abs(self.m_agent).max() + 1.0
            self._reach = np.max([np.abs(c).max()
                                  for c in (self.i_ad, self.i_pm, self.i_ft)]) + 1.0
        if any_stale:
            _, _, mk.spend_rate = marketing_spend(
                mk.mb, mk.ad, mk.pm, p.k, p.adj_time_ms)
            mk.force = marketing_force(mk.ad, mk.pm, mk.inter, p.w1, p.w2, p.w3)
            size = np.abs(mk.ad) + np.abs(mk.pm) + 1.0
            size *= np.abs(mk.force) + 1.0
            self._size = np.maximum(size[:, 0], size[:, 1]) * self._reach
        new_inter = update_costate(mk.inter, p.rho, p.delta1, p.delta2,
                                   mk.total_force, pq, dt=1.0)
        mk.inter = np.clip(new_inter, -p.inter_cap, p.inter_cap)
        # the pair sums start from +0.0 as numpy's sum does, so a pair of
        # -0.0 sums to +0.0; a reduction over a length-2 axis is slow
        if any_stale:
            mk.total_force = (0.0 + mk.force[:, 0]) + mk.force[:, 1]
        price_sum = (0.0 + prices[:, 0]) + prices[:, 1]
        if p.price_sum_mode == "average":
            price_sum = price_sum / 2

        response = price_response(pq, price_sum[:, None], p.s)
        rows = len(prices)
        # on the first day no agent has a brand and every count is 0; after
        # it every agent has one (module docstring)
        settled = self.adopted.min() > NO_BRAND
        counts = (self.neighbor_influence() if settled
                  else np.zeros((2, rows, self.n), dtype=self._degree.dtype))
        # each row's coefficients of the score difference, a = p0 q0 - p1 q1,
        # b = r0 p0 q0 - r1 p1 q1, alpha, beta and mf0 (0 on the first day),
        # and its rounding bound (module docstring)
        coef = np.empty((rows, 5))
        pairs = (pq, pq * response, mk.force * mk.ad, mk.force * mk.pm)
        for j, pair in enumerate(pairs):
            np.subtract(pair[:, 0], pair[:, 1], out=coef[:, j])
        coef[:, 4] = mk.force[:, 0] if settled else 0.0
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
            terms = coef[block]
            d, part = diffs[:len(terms)], parts[:len(terms)]
            np.matmul(terms, self._basis, out=d)
            if settled:
                # einsum forms an outer product faster than a broadcast
                # multiply: 10-14 us against 18-22 us a slice (2-core host)
                np.einsum("i,j->ij", mk.total_force[block], self._follow, out=part)
                part *= counts[1, block]
                d -= part
            choice, sure = flags[:, :len(d)]
            np.less(d, 0.0, out=choice)
            # the day's largest bound decides most slices in one compare, at
            # under half the cost of the per-row column (5.5 against 13.2 us a
            # 64-row slice, 2-core host); where it leaves some agent, each
            # row's own bound decides, and only agents within it (or NaN)
            # are scored exactly
            np.abs(d, out=part)
            if not (np.greater(part, loose, out=sure).all()
                    or np.greater(part, bound[block, None], out=sure).all()):
                near, agents = np.nonzero(~sure)
                choice[near, agents] = self._exact(lo + near, agents, response, prices,
                                                   paid, counts, rngs, mirror)
            self.adopted[:, block] = choice.view(np.int8).T
        ones = np.add.reduce(self.adopted, axis=0, dtype=self._tally)  # brand-1 agents
        return np.stack((self.n - ones, ones), axis=1) / self.n

    def _exact(self, rows, agents, response, prices, paid, counts, rngs, mirror):
        """Whether each agent ``agents[j]`` of row ``rows[j]`` (pairs in
        row-then-agent order) takes brand 1, from both brands' scores formed
        in the one-replication operation order. Brand 0 wins only where its
        score is greater; equal finite scores tie and draw from the row's
        stream, and an equal infinite pair or a NaN goes to brand 1."""
        mk = self.marketing
        m, i_ad, i_pm, i_ft = (c[agents, None] for c in (
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
