import numpy as np
import pytest

from duogame.errors import ParameterError
from duogame.market import (
    BLOCK,
    ConsumerMarket,
    MarketParams,
    marketing_force,
    marketing_spend,
    price_response,
    sunk_cost,
    update_costate,
)
from duogame.network import generate_ba_network
from network_tools import from_edges


class TestMarketingSpend:
    def test_ad_spend(self):
        ad_s, _, _ = marketing_spend(100.0, 0.2, 0.0, 1.0, 10.0)
        assert ad_s == pytest.approx(20.0)

    def test_zero_budget(self):
        assert marketing_spend(0.0, 0.3, 0.2, 2.0, 5.0) == (0.0, 0.0, 0.0)

    def test_spending_rate(self):
        _, _, rate = marketing_spend(50.0, 0.3, 0.1, 2.0, 4.0)
        assert rate == pytest.approx(10.0)  # (30 + 10) / 4

    def test_adjustment_time_positive(self):
        with pytest.raises(ParameterError):
            marketing_spend(10.0, 0.1, 0.1, 1.0, 0.0)


class TestMarketingForce:
    def test_plain_sum(self):
        assert marketing_force(0.3, 0.2, 0.0, 1, 1, 0) == pytest.approx(0.5)

    def test_interaction_only(self):
        assert marketing_force(0.0, 0.0, 0.7, 1, 1, 0.5) == pytest.approx(0.7)

    def test_with_cross_term(self):
        # 2*0.4 + 1*0.2 + 0.5*0.4*0.2 + 0.1 = 1.14
        assert marketing_force(0.4, 0.2, 0.1, 2, 1, 0.5) == pytest.approx(1.14)


def pair_market(**params):
    """Two linked agents with unit socio-economic constants, perception
    constants of 0.5, no spread and the summed price reference; at prices
    (1.0, 1.4) the price terms are 0.6211 and 0.7000."""
    params = MarketParams(**{"m_low": 1.0, "m_high": 1.0, "price_sum_mode": "sum",
                             "i_ad": 0.5, "i_pm": 0.5, "i_ft": 0.5,
                             "perception_spread": 0.0, **params}).validate()
    return ConsumerMarket(from_edges(2, [(0, 1)]), params, np.random.default_rng(0))


def pair_shares(ad, inter, **params):
    """Day-one shares of :func:`pair_market` at prices (1.0, 1.4), no
    promotion, brand 0's advertisement ``ad`` and both co-states ``inter``."""
    market = pair_market(**params)
    market.marketing.ad = np.array([[ad, 0.0]])
    market.marketing.inter = np.array([[inter, inter]])
    return market.step([(1.0, 1.4)], [np.random.default_rng(0)])[0].tolist()


class TestPerceptions:
    """Each perception is its initial constant scaled by the brand's force;
    with w1 = w2 = w3 = 0 the force is the co-state."""

    def test_zero_force(self):
        # without force the perception constants cannot change a choice
        choices = []
        for scale in (0.0, 1.0, 3.0):
            market = make_market(seed=3, params=MarketParams(w1=0.0, w2=0.0, w3=0.0))
            for name in ("i_ad", "i_pm", "i_ft"):
                setattr(market, name, getattr(market, name) * scale)
            market.marketing.ad[:] = (0.3, 0.2)
            market.marketing.pm[:] = (0.1, 0.35)
            market.adopted[:] = np.arange(market.n)[:, None] % 2
            market.step([(1.5, 1.45)], [np.random.default_rng(8)])
            choices.append(market.adopted.tolist())
        assert choices[0] == choices[1] == choices[2]

    def test_unit_force_returns_initials(self):
        # brand 0: 0.6211 + 0.5 * ad against brand 1's 0.7000
        zero = dict(w1=0.0, w2=0.0, w3=0.0)
        assert pair_shares(0.2, 1.0, **zero) == [1.0, 0.0]      # 0.7211
        assert pair_shares(0.1, 1.0, **zero) == [0.0, 1.0]      # 0.6711

    def test_scaling(self):
        # a force of 2 doubles the advertisement term: 0.6211 + 2 * 0.5 * 0.1
        zero = dict(w1=0.0, w2=0.0, w3=0.0)
        assert pair_shares(0.1, 2.0, **zero) == [1.0, 0.0]      # 0.7211
        assert pair_shares(0.1, 0.5, **zero) == [0.0, 1.0]      # 0.6461


class TestCostate:
    def test_decoupled_decay(self):
        out = update_costate((0.5, 0.4), rho=0.3, d1=0.0, d2=0.0, force=1.0,
                             prices=(2.0, 3.0), pms=(0.0, 0.0), dt=0.1)
        assert out == pytest.approx([0.5 - 0.2, 0.4 - 0.3])

    def test_origin_is_equilibrium_of_homogeneous_system(self):
        out = update_costate((0.0, 0.0), rho=0.2, d1=0.3, d2=0.4, force=1.0,
                             prices=(0.0, 0.0), pms=(0.0, 0.0), dt=0.5)
        assert out == pytest.approx([0.0, 0.0])

    def test_hand_computed_step(self):
        # coupling [[1,1],[1,1]], (rho+F)=1: drift = (2,2) - (1,1) = (1,1)
        out = update_costate((1.0, 1.0), rho=0.5, d1=1.0, d2=1.0, force=0.5,
                             prices=(1.0, 1.0), pms=(0.0, 0.0), dt=0.1)
        assert out == pytest.approx([1.1, 1.1])


class TestSunkCost:
    def test_zero_interaction(self):
        assert sunk_cost((100.0, 100.0), (0.0, 0.0)) == 0.0

    def test_weighted_sum(self):
        assert sunk_cost((100.0, 100.0), (0.1, 0.2)) == pytest.approx(30.0)

    def test_one_sided(self):
        assert sunk_cost((0.0, 50.0), (5.0, 0.2)) == pytest.approx(10.0)

    def test_stacked_rows_match_one_pair_dot(self):
        # the per-replication form was np.dot of one pair; stacked rows keep
        # its rounding, which an elementwise product and sum does not
        rng = np.random.default_rng(21)
        mbs = rng.uniform(0.0, 500.0, (2000, 2))
        inters = rng.uniform(-0.7, 0.7, (2000, 2))
        expected = [float(np.dot(mb, inter)) for mb, inter in zip(mbs, inters)]
        assert sunk_cost(mbs, inters).tolist() == expected


class TestPriceSensitivity:
    """An agent's price sensitivity is its socio-economic constant plus the
    brand's price response."""

    def test_direct_evaluation(self):
        assert price_response(1.0, 0.0, 2.0, 2.0) + 1.0 == pytest.approx(0.5)

    def test_zero_exponent(self):
        # effective price equals the reference sum
        assert price_response(2.0, 0.0, 2.0, 3.0) + 0.7 == pytest.approx(-0.3)

    def test_expensive_brand(self):
        assert price_response(3.0, 0.0, 2.0, 2.0) + 0.0 == pytest.approx(-2.0)

    def test_s_must_exceed_one(self):
        with pytest.raises(ParameterError):
            price_response(1.0, 0.0, 2.0, 1.0)


class TestMotivation:
    """A brand's score is its price term plus the advertisement, promotion
    and neighbor terms, compared across the two brands."""

    def test_all_zero(self):
        # free brands without force score 0 for every agent: all tie, and the
        # row's stream decides each choice
        market = pair_market(w1=0.0, w2=0.0, w3=0.0)
        market.step([(0.0, 0.0)], [np.random.default_rng(4)])
        draws = np.random.default_rng(4).integers(0, 2, size=2)
        assert market.adopted[:, 0].tolist() == draws.tolist()

    def test_two_terms(self):
        # force = ad under w1 = 1, so brand 0's advertisement term is
        # 0.5 * ad**2 on top of its price term 0.6211, against 0.7000
        only_ad = dict(w1=1.0, w2=0.0, w3=0.0)
        assert pair_shares(0.5, 0.0, **only_ad) == [1.0, 0.0]    # 0.7461
        assert pair_shares(0.35, 0.0, **only_ad) == [0.0, 1.0]   # 0.6824

    def test_symmetry(self):
        # swapping every brand-indexed level and the prices swaps the choices
        base, swapped = make_market(seed=4), make_market(seed=4)
        levels = {"ad": (0.3, 0.26), "pm": (0.27, 0.33), "inter": (0.1, -0.2)}
        for name, pair in levels.items():
            setattr(base.marketing, name, np.array([pair]))
            setattr(swapped.marketing, name, np.array([pair[::-1]]))
        rng_a, rng_b = np.random.default_rng(12), np.random.default_rng(12)
        for _ in range(12):
            s_a = base.step([(1.45, 1.5)], [rng_a])[0]
            s_b = swapped.step([(1.5, 1.45)], [rng_b], mirror=True)[0]
            assert s_a.tolist() == s_b[::-1].tolist()
            assert np.array_equal(base.adopted, 1 - swapped.adopted)


def interleaved_day(market, adopted, prices, rngs, mirror):
    """The day's choices, shares, tie count and (agents, rows) score
    differences, scored as one (agents, 2 * rows) array with column
    ``2 * r + b`` for brand ``b`` of row ``r``, each term in the original
    operation order, from the adoption before the step and the marketing it
    updated."""
    p, mk, net = market.params, market.marketing, market.network
    n, rows = adopted.shape
    prices = np.asarray(prices, dtype=float)
    price_sum = prices.sum(axis=1)
    if p.price_sum_mode == "average":
        price_sum = price_sum / 2
    flat_prices = prices.ravel()
    pm, ad, mf = mk.pm.ravel(), mk.ad.ravel(), mk.force.ravel()
    m_agent, i_ad, i_pm, i_ft = (c[:, :, 0] for c in (market.m_agent, market.i_ad,
                                                      market.i_pm, market.i_ft))
    sens_p = -np.power(p.s, flat_prices * (1.0 - pm) - np.repeat(price_sum, 2)) + m_agent
    sus_ad, sens_pm, ft = mf * i_ad, mf * i_pm, mf * i_ft
    inf = np.empty((n, 2 * rows))
    for a in range(n):
        neighbors = adopted[net.indices[net.indptr[a]:net.indptr[a + 1]]]
        counts = (neighbors[:, :, None] == np.arange(2)).sum(axis=0).ravel()
        inf[a] = counts / max(net.degrees[a], 1)
    scores = sens_p * flat_prices * (1.0 - pm) + sus_ad * ad + sens_pm * pm + ft * inf
    diff = scores[:, 0::2] - scores[:, 1::2]
    choice = np.where(diff > 0, 0, 1).astype(np.int8)
    tied = diff == 0
    for r in np.flatnonzero(tied.any(axis=0)):
        draws = rngs[r].integers(0, 2, size=int(tied[:, r].sum())).astype(np.int8)
        choice[tied[:, r], r] = 1 - draws if mirror else draws
    first = np.count_nonzero(choice == 0, axis=0)
    shares = np.stack([first / n, (n - first) / n], axis=1)
    return choice, shares, int(tied.sum()), diff


def make_market(seed=0, n=200, params=None, replications=1):
    net = generate_ba_network(n, m0=5, m=3, seed=seed)
    params = params or MarketParams().validate()
    return ConsumerMarket(net, params, np.random.default_rng(seed + 1000),
                          replications=replications)


def neighbor_shares(market, counts, rows, out):
    """Each agent's share of neighbors adopting each brand in the replications
    ``rows``, (replications, 2, agents), from the day's counts over the
    agent's degree (1 for an isolated agent), as the market forms a share."""
    divisor = np.maximum(market.network.degrees, 1).astype(float)
    return np.divide(counts[:, rows].transpose(1, 0, 2), divisor, out=out)


@pytest.mark.golden
class TestNeighborInfluence:
    """The neighbor shares against the two-brand count, bit for bit: once a
    slice has no ``NO_BRAND`` agent, brand 1 is counted as the degree less
    brand 0; while it has one, both brands are counted."""

    def reference(self, market, adopted):
        n, rows = adopted.shape
        expected = np.zeros((rows, 2, n))
        for a in range(n):
            neighbors = adopted[market.network.neighbors(a)]
            for b in (0, 1):
                expected[:, b, a] = (neighbors == b).sum(axis=0) / max(len(neighbors), 1)
        return expected

    def test_one_and_two_brand_counts_match_reference(self):
        # agent 7 is isolated, agent 0 a hub, agents 4-6 a triangle
        net = from_edges(8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (4, 5), (5, 6),
                             (4, 6)])
        market = ConsumerMarket(net, MarketParams().validate(),
                                np.random.default_rng(0), replications=6)
        market.adopted[:] = np.random.default_rng(1).integers(0, 2, (8, 6))
        rows = slice(1, 5)
        one_brand = neighbor_shares(market, market.neighbor_influence(), rows,
                                    np.full((4, 2, 8), np.nan))
        expected = self.reference(market, market.adopted[:, rows])
        assert one_brand.view(np.int64).tolist() == expected.view(np.int64).tolist()
        assert one_brand[:, :, 7].tolist() == [[0.0, 0.0]] * 4

        market.adopted[2, 3] = -1
        two_brand = neighbor_shares(market, market.neighbor_influence(), rows,
                                    np.full((4, 2, 8), np.nan))
        expected = self.reference(market, market.adopted[:, rows])
        assert two_brand.view(np.int64).tolist() == expected.view(np.int64).tolist()
        assert two_brand[2, :, 0].sum() == 0.75         # the hub sees one agent unset
        assert two_brand[:, :, 7].tolist() == [[0.0, 0.0]] * 4

    @pytest.mark.parametrize("width", [1, 33, 70])
    def test_hub_counts_match_reference(self, width):
        # a star of 300 agents with a few leaf pairs: the hub's 299 neighbors
        # overflow an int8 count, in every row and both brands
        n = 300
        edges = [(0, a) for a in range(1, n)] + [(a, a + 1) for a in range(1, n - 1, 7)]
        market = ConsumerMarket(from_edges(n, edges), MarketParams().validate(),
                                np.random.default_rng(0), replications=width)
        twin = np.random.default_rng(width)
        market.adopted[:] = twin.integers(0, 2, (n, width))
        market.adopted[1:, 0] = 1                 # the hub sees 299 of brand 1
        market.adopted[1:, -1] = 0                # ... and 299 of brand 0
        market.adopted[1:, width // 2] = np.arange(1, n) % 2
        for unset in (0.0, 0.3):
            market.adopted[twin.random((n, width)) < unset] = -1
            counts = market.neighbor_influence()
            assert counts.dtype == np.int16
            expected = self.reference(market, market.adopted)
            for b in (0, 1):
                assert counts[b, :, 0].tolist() == (market.adopted[1:] == b).sum(axis=0).tolist()
            shares = neighbor_shares(market, counts, slice(0, width),
                                     np.full((width, 2, n), np.nan))
            assert shares.view(np.int64).tolist() == expected.view(np.int64).tolist()
            for lo in range(0, width, 32):
                rows = slice(lo, lo + 32)
                part = neighbor_shares(market, counts, rows,
                                       np.full_like(shares[rows], np.nan))
                assert part.view(np.int64).tolist() == expected[rows].view(np.int64).tolist()
        assert (market.adopted == -1).any() and (market.adopted[:, 0] == -1).any()

    @pytest.mark.parametrize("leaves, dtype", [(127, np.int8), (128, np.int16),
                                               (32767, np.int16), (32768, np.int32)])
    def test_count_dtype_holds_the_largest_degree(self, leaves, dtype):
        # the narrowest integer that holds the hub's degree, so a count of
        # every neighbor does not wrap
        net = from_edges(leaves + 1, [(0, a) for a in range(1, leaves + 1)])
        market = ConsumerMarket(net, MarketParams().validate(), np.random.default_rng(0))
        market.adopted[:] = 1
        counts = market.neighbor_influence()
        assert counts.dtype == dtype
        assert counts[:, 0, 0].tolist() == [0, leaves]
        market.adopted[:] = 0
        assert market.neighbor_influence()[:, 0, 0].tolist() == [leaves, 0]


@pytest.mark.golden
class TestStepMarket:
    def test_shares_sum_to_one(self):
        market = make_market()
        rng = np.random.default_rng(5)
        for _ in range(10):
            shares = market.step([(1.5, 1.4)], [rng])[0]
            assert shares.sum() == pytest.approx(1.0)
            assert 0.0 <= shares[0] <= 1.0

    def test_symmetric_inputs_mean_share_near_half(self):
        vals = []
        for seed in range(50):
            market = make_market(seed=seed)
            rng = np.random.default_rng(seed)
            shares = market.step([(1.5, 1.5)], [rng])[0]
            vals.append(shares[0])
        assert 0.45 <= float(np.mean(vals)) <= 0.55

    def test_dominant_brand_takes_all(self):
        market = make_market()
        rng = np.random.default_rng(1)
        market.marketing.ad = np.array([[0.9, 0.0]])
        market.marketing.pm = np.array([[0.0, 0.0]])
        market.marketing.inter = np.array([[1.0, 0.0]])
        shares = market.step([(1.0, 1.0)], [rng])[0]
        assert shares[0] == 1.0

    def test_three_agent_path_hand_enumeration(self):
        # agents 0-1-2 on a path; every case uses a fresh market because the
        # interaction co-state evolves across steps
        def fresh():
            net = from_edges(3, [(0, 1), (1, 2)])
            # hand numbers use the summed price reference and constant
            # perceptions of 0.5 for every agent
            params = MarketParams(m_low=1.0, m_high=1.0, price_sum_mode="sum",
                                  i_ad=0.5, i_pm=0.5, i_ft=0.5,
                                  perception_spread=0.0).validate()
            return ConsumerMarket(net, params, np.random.default_rng(0))

        prices = (1.0, 1.4)
        # case 1: no marketing at all; force is 0 so only the price term acts:
        #   brand0: (-2**(1.0-2.4) + 1) * 1.0 = 0.6211
        #   brand1: (-2**(1.4-2.4) + 1) * 1.4 = 0.7000  -> brand 1 sweeps
        market = fresh()
        shares = market.step([prices], [np.random.default_rng(3)])[0]
        assert shares[1] == 1.0

        # case 2: promotion on brand 0 only; force = w2*pm = (0.5, 0),
        # sens_pm = (0.25, 0):
        #   brand0: (-2**(0.5-2.4) + 1) * 0.5 + 0.25*0.5 = 0.4910
        #   brand1: 0.7000 -> brand 1 still sweeps
        market = fresh()
        market.marketing.pm = np.array([[0.5, 0.0]])
        shares = market.step([prices], [np.random.default_rng(3)])[0]
        assert shares[1] == 1.0

        # case 3: neighbor influence splits the path; adoption [0, 0, 1] gives
        # inf_0 = (1, 0.5, 1) toward brand 0, ft = 0.31*0.5 = 0.155:
        #   agents 0, 2: 0.6211 + 0.155  = 0.7761 > 0.7 -> brand 0
        #   agent 1:     0.6211 + 0.0775 = 0.6986 < 0.7 -> brand 1
        market = fresh()
        market.adopted = np.array([[0], [0], [1]], dtype=np.int8)
        market.marketing.inter = np.array([[0.31, 0.0]])
        shares = market.step([prices], [np.random.default_rng(3)])[0]
        assert shares[0] == pytest.approx(2.0 / 3.0)
        assert list(market.adopted[:, 0]) == [0, 1, 0]

    def test_determinism(self):
        runs = []
        for _ in range(2):
            market = make_market(seed=9)
            rng = np.random.default_rng(99)
            traj = [market.step([(1.5, 1.5)], [rng])[0, 0] for _ in range(20)]
            runs.append(traj)
        assert runs[0] == runs[1]

    def test_swap_symmetry_exact_mirror(self):
        base = make_market(seed=4)
        swapped = make_market(seed=4)
        rng_a = np.random.default_rng(123)
        rng_b = np.random.default_rng(123)
        prices = (1.3, 1.7)
        for _ in range(15):
            s_a = base.step([prices], [rng_a])[0]
            s_b = swapped.step([prices[::-1]], [rng_b], mirror=True)[0]
            assert s_a[0] == s_b[1]
            assert s_a[1] == s_b[0]
            assert np.array_equal(base.adopted, 1 - swapped.adopted)

    def test_block_rows_equal_single_markets(self):
        # each row of a lockstep block follows its own prices, marketing and
        # tie-break stream exactly as a one-replication market does, also
        # across the market's internal slices of BLOCK rows (width 70)
        base_prices = [(1.5, 1.5), (1.3, 1.7), (1.6, 1.2), (1.5, 1.5), (1.4, 1.45)]
        base_ad = [[0.3, 0.3], [0.25, 0.35], [0.3, 0.28], [0.3, 0.3], [0.33, 0.26]]
        for width in (5, 33, 70):
            prices = [base_prices[r % 5] for r in range(width)]
            ad = np.array([base_ad[r % 5] for r in range(width)])
            block = make_market(seed=6, replications=width)
            block.marketing.mb[:] = 100.0
            block.marketing.ad[:] = ad
            block.marketing.pm[:] = 0.3
            singles = []
            for r in range(width):
                single = make_market(seed=6)
                single.marketing.mb[:] = 100.0
                single.marketing.ad[:] = ad[r]
                single.marketing.pm[:] = 0.3
                singles.append(single)
            block_rngs = [np.random.default_rng(40 + r) for r in range(width)]
            single_rngs = [np.random.default_rng(40 + r) for r in range(width)]
            for _ in range(15):
                shares = block.step(prices, block_rngs, mirror=True)
                for r, single in enumerate(singles):
                    alone = single.step([prices[r]], [single_rngs[r]], mirror=True)
                    assert np.array_equal(shares[r], alone[0]), (width, r)
                    assert np.array_equal(block.adopted[:, r], single.adopted[:, 0])
                    assert np.array_equal(block.marketing.inter[r],
                                          single.marketing.inter[0])

    @pytest.mark.parametrize("width", [1, 31, 33, 70])
    @pytest.mark.parametrize("mode", ["sum", "average"])
    @pytest.mark.parametrize("mirror", [False, True])
    def test_step_matches_interleaved_reference(self, width, mode, mirror):
        # hand-set states: rows alternate symmetric brand pairs (exact ties
        # wherever an agent's neighbors split evenly, e.g. all still
        # NO_BRAND) with asymmetric ones, some rows start with agents that
        # have not chosen yet, and the last of several rows scores NaN
        params = MarketParams(price_sum_mode=mode).validate()
        market = make_market(seed=7, params=params, replications=width)
        twin = np.random.default_rng(width)
        symmetric = np.arange(width) % 3 != 1
        mk = market.marketing
        mk.mb[:] = twin.uniform(50.0, 150.0, (width, 1))
        for name, lo, hi in (("ad", 0.25, 0.35), ("pm", 0.25, 0.35), ("inter", -0.2, 0.2)):
            level = twin.uniform(lo, hi, (width, 2))
            level[symmetric, 1] = level[symmetric, 0]
            setattr(mk, name, level)
        prices = twin.uniform(1.2, 1.8, (width, 2))
        prices[symmetric, 1] = prices[symmetric, 0]
        if width > 1:
            prices[-1] = np.nan
        unset = twin.random((market.n, width)) < np.linspace(0.0, 1.0, width)
        market.adopted[:] = np.where(unset, -1, twin.integers(0, 2, (market.n, width)))

        rngs = [np.random.default_rng(300 + r) for r in range(width)]
        reference_rngs = [np.random.default_rng(300 + r) for r in range(width)]
        ties = 0
        for _ in range(3):
            before = market.adopted.copy()
            with np.errstate(invalid="ignore"):
                shares = market.step(prices, rngs, mirror=mirror)
                choice, expected, tied, _ = interleaved_day(market, before, prices,
                                                            reference_rngs, mirror)
            ties += tied
            assert np.array_equal(market.adopted, choice)
            assert np.array_equal(shares, expected)
        assert ties > 0

    @pytest.mark.parametrize("mirror", [False, True])
    def test_decision_rule_on_equal_infinite_and_nan_scores(self, mirror):
        # brand 0 wins only where s0 > s1; an equal finite pair is a tie and
        # draws from the row's stream, an equal infinite pair or a NaN goes to
        # brand 1 without a draw, as the sign of s0 - s1 decides. Rows are
        # symmetric except every fourth; agents 1::7 follow no neighbor, so
        # they tie in every symmetric row, and agents 0::7, 3::7 and 5::7
        # score +inf, -inf and NaN for both brands, in both slices of 64 + 6
        # rows
        width = 70
        market = make_market(seed=8, replications=width)
        mk = market.marketing
        mk.mb[:] = 100.0
        mk.ad[:] = 0.3
        mk.pm[:] = 0.3
        prices = np.full((width, 2), 1.5)
        prices[1::4, 1] = 1.6
        market.i_ft[1::7] = 0.0
        for start, value in ((0, np.inf), (3, -np.inf), (5, np.nan)):
            market.m_agent[start::7] = value
        twin = np.random.default_rng(2)
        market.adopted[:] = np.where(twin.random((market.n, width)) < 0.1, -1,
                                     twin.integers(0, 2, (market.n, width)))

        rngs = [np.random.default_rng(700 + r) for r in range(width)]
        reference_rngs = [np.random.default_rng(700 + r) for r in range(width)]
        ties = 0
        for _ in range(3):
            before = market.adopted.copy()
            with np.errstate(invalid="ignore"):
                shares = market.step(prices, rngs, mirror=mirror)
                choice, expected, tied, _ = interleaved_day(market, before, prices,
                                                            reference_rngs, mirror)
            ties += tied
            assert np.array_equal(market.adopted, choice)
            assert np.array_equal(shares, expected)
            for rng, reference in zip(rngs, reference_rngs):
                assert rng.bit_generator.state == reference.bit_generator.state
            for start in (0, 3, 5):
                assert (market.adopted[start::7] == 1).all()
        assert ties > 0
        drawn = market.adopted[1::7, np.arange(width) % 4 != 1]
        assert 0 < drawn.sum() < drawn.size       # the ties went both ways

    @pytest.mark.parametrize("mirror", [False, True])
    def test_one_ulp_apart_brands_match_interleaved_reference(self, mirror):
        # brands equal but for one ulp of brand 1's advertisement (rows 0::4),
        # promotion (1::4) or price (2::4); rows 3::4 are ordinary. Agents
        # whose neighbors split evenly, every agent on the first day, score
        # the two brands equal or a few ulps apart: the score difference
        # cannot decide them, so they must be scored exactly, ties drawn in
        # agent order, in every slice of BLOCK + BLOCK + 6 rows
        width = 2 * BLOCK + 6
        market = make_market(seed=12, replications=width)
        mk = market.marketing
        twin = np.random.default_rng(9)
        mk.mb[:] = 100.0
        for name, lo, hi in (("ad", 0.2, 0.4), ("pm", 0.2, 0.4), ("inter", -0.2, 0.2)):
            setattr(mk, name, twin.uniform(lo, hi, (width, 1)).repeat(2, axis=1))
        prices = twin.uniform(1.3, 1.7, (width, 1)).repeat(2, axis=1)
        kind = np.arange(width) % 4
        mk.ad[kind == 0, 1] = np.nextafter(mk.ad[kind == 0, 0], np.inf)
        mk.pm[kind == 1, 1] = np.nextafter(mk.pm[kind == 1, 0], -np.inf)
        prices[kind == 2, 1] = np.nextafter(prices[kind == 2, 0], np.inf)
        mk.ad[kind == 3] = twin.uniform(0.2, 0.4, (np.count_nonzero(kind == 3), 2))

        rngs = [np.random.default_rng(900 + r) for r in range(width)]
        reference_rngs = [np.random.default_rng(900 + r) for r in range(width)]
        ties, near = np.zeros(width, dtype=int), np.zeros(width, dtype=int)
        for _ in range(4):
            before = market.adopted.copy()
            shares = market.step(prices, rngs, mirror=mirror)
            choice, expected, _, diff = interleaved_day(market, before, prices,
                                                        reference_rngs, mirror)
            assert np.array_equal(market.adopted, choice)
            assert np.array_equal(shares, expected)
            for rng, reference in zip(rngs, reference_rngs):
                assert rng.bit_generator.state == reference.bit_generator.state
            ties += (diff == 0).sum(axis=0)
            near += ((diff != 0) & (np.abs(diff) < 1e-13)).sum(axis=0)
        # each kind of one-ulp row, in every slice, has exact ties and scores
        # a few ulps apart
        for lo in range(0, width, BLOCK):
            block = np.arange(lo, min(lo + BLOCK, width))
            for k in (0, 1, 2):
                rows = block[block % 4 == k]
                assert ties[rows].sum() > 0 and near[rows].sum() > 0, (lo, k)

    def test_period_caches_follow_force_and_levels(self):
        # the step reuses a row's advertisement, promotion and follower terms
        # while its co-state, ad, pm and budget stay bit-equal. Under
        # w1 = w2 = w3 = 0 the force is the co-state: every third row sits at
        # the cap, the others move below it every day, in both slices of
        # 64 + 6 rows. The brands swap their ad on day 5 and their pm on day
        # 7, which leaves the capped forces bit-equal; on day 8 the market
        # drops to 67 rows.
        width = 70
        market = make_market(seed=11, replications=width,
                             params=MarketParams(w1=0.0, w2=0.0, w3=0.0).validate())
        mk = market.marketing
        twin = np.random.default_rng(5)
        capped = np.arange(width) % 3 == 0
        mk.mb[:] = 100.0
        mk.ad, mk.pm = twin.uniform(0.1, 0.6, (2, width, 2))
        # the others start low enough that none reaches the cap in 12 days
        mk.inter = np.where(capped[:, None], -market.params.inter_cap,
                            twin.uniform(-0.3, 0.25, (width, 2)))
        prices = np.where(capped[:, None], twin.uniform(1.3, 1.7, (width, 2)),
                          twin.uniform(0.04, 0.1, (width, 2)))
        market.adopted[:] = twin.integers(0, 2, (market.n, width))

        rngs = [np.random.default_rng(500 + r) for r in range(width)]
        reference_rngs = [np.random.default_rng(500 + r) for r in range(width)]
        force = None
        for day in range(12):
            if day == 5:
                mk.ad = mk.ad[:, ::-1].copy()
            if day == 7:
                mk.pm = mk.pm[:, ::-1].copy()
            if day == 8:
                width = 67
                market.truncate(width)
                prices, capped, force = prices[:width], capped[:width], force[:width]
                rngs, reference_rngs = rngs[:width], reference_rngs[:width]
            before = market.adopted.copy()
            shares = market.step(prices, rngs)
            choice, expected, _, _ = interleaved_day(market, before, prices,
                                                     reference_rngs, False)
            assert np.array_equal(market.adopted, choice), day
            assert np.array_equal(shares, expected), day
            if force is not None:
                same = (mk.force.view(np.int64) == force.view(np.int64)).all(axis=1)
                assert np.array_equal(same, capped), day
            force = mk.force.copy()

    def test_truncate_keeps_leading_rows(self):
        market = make_market(seed=2, n=50, replications=4)
        market.marketing.ad[:] = [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8]]
        market.truncate(2)
        assert market.adopted.shape == (50, 2)
        assert market.marketing.ad.tolist() == [[0.1, 0.2], [0.3, 0.4]]
        assert market.marketing.total_force.shape == (2,)
        shares = market.step([(1.5, 1.4), (1.4, 1.5)],
                             [np.random.default_rng(0), np.random.default_rng(1)])
        assert shares.shape == (2, 2)

    def test_raising_ad_never_lowers_motivation(self):
        # with a non-negative force every term of brand 0's score rises with
        # its advertisement, so no agent leaves brand 0 for brand 1
        width = 200
        rng = np.random.default_rng(17)
        adopted = rng.integers(0, 2, (200, width))
        levels = {name: rng.uniform(0, 1, (width, 2)) for name in ("ad", "pm", "inter")}
        prices = rng.uniform(0.5, 2.5, (width, 2))
        raised_ad = levels["ad"].copy()
        raised_ad[:, 0] += rng.uniform(0, 1, width)
        chosen = []
        for ad in (levels["ad"], raised_ad):
            market = make_market(seed=17, replications=width)
            market.adopted[:] = adopted
            for name, level in {**levels, "ad": ad}.items():
                setattr(market.marketing, name, level)
            market.step(prices, [np.random.default_rng(r) for r in range(width)])
            chosen.append(market.adopted == 0)
        assert np.all(chosen[1] >= chosen[0])
        assert np.any(chosen[1] > chosen[0])

    def test_empty_network_rejected(self):
        net = from_edges(0, [])
        with pytest.raises(ParameterError):
            ConsumerMarket(net, MarketParams(), np.random.default_rng(0))
