import numpy as np
import pytest

from duogame.errors import ConfigError, ParameterError, ReplicationError
from duogame.factors import (
    FACTORS,
    FactorPlan,
    PlanFactor,
    materialize,
    refine_plan,
)
from duogame.doe import FactorEffect
from duogame.draws import IndexDraws
from duogame.game import EmpiricalGame, StrategySpace
from duogame.gsa import (
    GsaSettings,
    SamplingPolicy,
    SimulationPayoffSource,
    StabilityClass,
    _replay_labels,
    _simulate_profile,
    build_empirical_game,
    neighbor_strictness_test,
    profile_tag,
    run_gsa,
    stability_analysis,
)
from duogame.runner import (
    CostRates,
    SimulationSettings,
    estimate_payoffs,
    replication_seeds,
    run_replication,
)
from duogame.stats import confidence_interval, decide_sample_size, trim_samples
from duogame.supply_chain import SDParams

PD_U1 = np.array([[3.0, 0.0], [5.0, 1.0]])
MP_U1 = np.array([[1.0, -1.0], [-1.0, 1.0]])


def effect(name, value, significant):
    return FactorEffect(name=name, effect=value, p_value=0.01 if significant else 0.9,
                        significant=significant)


class TestFactorCatalog:
    def test_level_values_match_experiment_table(self):
        assert FACTORS["vac_creation_time"].level_value("L") == 1.0
        assert FACTORS["vac_creation_time"].level_value("H") == 5.0
        assert FACTORS["inv_fulfillment_time"].level_value("ML") == 6.0
        assert FACTORS["rm_lead_time"].level_value("MH") == 5.0
        assert FACTORS["price_sens_invcov"].level_value("L") == -0.1
        assert FACTORS["promotion_depth"].level_value("H") == (0.4, 0.5)

    def test_interpolated_levels_for_two_level_rows(self):
        v = FACTORS["layoff_time"].level_value("ML")
        assert v == pytest.approx(3.0 + 4.0 / 3.0)

    def test_materialize_aggregated(self):
        spec = materialize({"logistics": "H", "pricing": "L"})
        assert spec.sd.inv_fulfillment_time == 14.0
        assert spec.sd.safety_stock_cov == 14.0
        assert spec.sd.price_sens_cost == 0.1
        assert spec.sd.mfg_price == 1.0

    def test_materialize_baseline_then_strategy(self):
        spec = materialize({"safety_stock_cov": "H"}, baseline={"logistics": "L"})
        assert spec.sd.safety_stock_cov == 14.0     # strategy wins
        assert spec.sd.rm_lead_time == 1.0          # baseline applies
        assert spec.sd.vac_creation_time == 3.0     # untouched default

    def test_marketing_slots(self):
        spec = materialize({"marketing": "H"})
        assert spec.mb_pct == 0.15
        assert spec.ad_range == (0.4, 0.5)
        assert spec.pm_range == (0.4, 0.5)

    def test_unknown_factor_rejected(self):
        with pytest.raises(ConfigError):
            materialize({"availability": "H"})


class TestFactorPlan:
    def test_initial_plan_combinatorics(self):
        plan = FactorPlan([PlanFactor(n) for n in
                           ("manufacturing", "logistics", "pricing", "marketing")])
        labels = plan.strategy_labels()
        assert len(labels) == 16
        assert labels[0] == {"manufacturing": "L", "logistics": "L",
                             "pricing": "L", "marketing": "L"}

    def test_six_factor_fraction(self):
        plan = FactorPlan([PlanFactor(n) for n in
                           ("inv_fulfillment_time", "rm_lead_time",
                            "safety_stock_cov", "rm_inventory_cov",
                            "promotion_depth", "advertising_intensity")])
        assert len(plan.strategy_labels()) == 16

    def test_four_level_plan(self):
        plan = FactorPlan([PlanFactor(n, ("L", "ML", "MH", "H")) for n in
                           ("inv_fulfillment_time", "rm_lead_time",
                            "safety_stock_cov", "rm_inventory_cov")], g=2)
        labels = plan.strategy_labels()
        assert len(labels) == 16
        seen = {l["inv_fulfillment_time"] for l in labels}
        assert seen == {"L", "ML", "MH", "H"}


class TestRefinePlan:
    def test_significant_aggregate_decomposes(self):
        plan = FactorPlan([PlanFactor("manufacturing"), PlanFactor("logistics")])
        effects = [effect("manufacturing", 1.0, False),
                   effect("logistics", 30.0, True)]
        out = refine_plan(plan, effects)
        assert out.names() == ["inv_fulfillment_time", "rm_lead_time",
                               "safety_stock_cov", "rm_inventory_cov"]
        assert out.g == 1

    def test_all_insignificant_keeps_strongest(self):
        plan = FactorPlan([PlanFactor("manufacturing"), PlanFactor("pricing")])
        effects = [effect("manufacturing", -8.0, False),
                   effect("pricing", 2.0, False)]
        out = refine_plan(plan, effects)
        assert out.names() == [
            "vac_creation_time", "layoff_time", "labor_fulfillment_time",
            "wip_fulfillment_time"]

    def test_detailed_only_plan_moves_to_phase_two(self):
        plan = FactorPlan([PlanFactor("safety_stock_cov"),
                           PlanFactor("rm_lead_time")])
        effects = [effect("safety_stock_cov", 10.0, True),
                   effect("rm_lead_time", 9.0, True)]
        out = refine_plan(plan, effects)
        assert out.g == 2
        assert out.names() == ["safety_stock_cov", "rm_lead_time"]

    def test_phase_two_densifies_then_terminates(self):
        plan = FactorPlan([PlanFactor("safety_stock_cov")], g=2)
        out = refine_plan(plan, [])
        assert out.factors[0].levels == ("L", "ML", "MH", "H")
        assert refine_plan(out, []) is None


def stub_source_factory(coef=None, sigma=0.5):
    coef = coef or {}

    def source(labels_a, labels_b, baseline, n, tags, start=0):
        def score(lbl):
            total = 0.0
            for name, label in lbl.items():
                lv = {"L": 0.0, "ML": 1.0, "MH": 2.0, "H": 3.0}[label]
                total += coef.get(name, 1.0) * lv
            return total
        out = []
        for row, col, tag in zip(labels_a, labels_b, tags):
            rng = np.random.default_rng((tag, start))
            base = np.array([score(row), score(col)])
            out.append(base[None, :] + rng.normal(0, sigma, size=(n, 2)))
        return np.array(out)

    return source


class TestRunGsa:
    def test_single_factor_smoke(self):
        plan = FactorPlan([PlanFactor("pricing")])
        policy = SamplingPolicy(initial_n=6, trim_per_tail=1, cap=6,
                                ecvi_floor=1e9)
        settings = GsaSettings(stability_steps=20, tolerance_grid=(0.0, 1.0),
                               max_iterations=1)
        res = run_gsa(plan, policy, stub_source_factory(), gsa=settings)
        assert len(res.reports) == 1
        report = res.reports[0]
        assert report.n_strategies == 2
        assert report.n_profiles == 3
        assert report.stability is not None
        total = sum(report.stability["ratios"].values())
        assert total == pytest.approx(1.0)

    def test_deterministic_stub_equilibria_reproducible(self):
        plan = FactorPlan([PlanFactor("pricing"), PlanFactor("marketing")])
        policy = SamplingPolicy(initial_n=4, trim_per_tail=0, cap=4,
                                ecvi_floor=1e9)
        settings = GsaSettings(stability_steps=20, tolerance_grid=(0.0,),
                               max_iterations=2)
        runs = [run_gsa(plan, policy, stub_source_factory(sigma=0.0),
                        gsa=settings) for _ in range(2)]
        eq0 = [r.equilibria for r in runs[0].reports]
        eq1 = [r.equilibria for r in runs[1].reports]
        assert eq0 == eq1

    def test_schedule_mode_runs_each_entry(self):
        schedule = [
            FactorPlan([PlanFactor("manufacturing"), PlanFactor("logistics"),
                        PlanFactor("pricing"), PlanFactor("marketing")]),
            FactorPlan([PlanFactor("safety_stock_cov"),
                        PlanFactor("rm_lead_time")]),
        ]
        policy = SamplingPolicy(initial_n=4, trim_per_tail=0, cap=4,
                                ecvi_floor=1e9)
        settings = GsaSettings(stability_steps=20, tolerance_grid=(0.0,))
        res = run_gsa(schedule[0], policy, stub_source_factory(),
                      gsa=settings, schedule=schedule)
        assert len(res.reports) == 2
        assert res.reports[0].n_strategies == 16
        assert res.reports[1].n_strategies == 4

    def test_iteration_budget_truncation_marked(self):
        plan = FactorPlan([PlanFactor("pricing"), PlanFactor("marketing")])
        policy = SamplingPolicy(initial_n=4, trim_per_tail=0, cap=4,
                                ecvi_floor=1e9)
        settings = GsaSettings(stability_steps=20, tolerance_grid=(0.0,),
                               max_iterations=1, run_stability=False)
        res = run_gsa(plan, policy, stub_source_factory(), gsa=settings)
        assert len(res.reports) == 1
        assert res.reports[0].truncated  # refinement had more to do

    def test_baseline_freezes_dropped_factors(self):
        # logistics dominates payoffs; after iteration 0 the baseline must
        # hold every factor at the solution levels
        coef = {"logistics": 50.0,
                "inv_fulfillment_time": 20.0, "rm_lead_time": 20.0,
                "safety_stock_cov": 20.0, "rm_inventory_cov": 20.0}
        plan = FactorPlan([PlanFactor("manufacturing"), PlanFactor("logistics"),
                           PlanFactor("pricing"), PlanFactor("marketing")])
        policy = SamplingPolicy(initial_n=6, trim_per_tail=1, cap=6,
                                ecvi_floor=1e9)
        settings = GsaSettings(stability_steps=20, tolerance_grid=(0.0,),
                               max_iterations=2, run_stability=False)
        res = run_gsa(plan, policy, stub_source_factory(coef), gsa=settings)
        assert len(res.reports) == 2
        frozen = res.baselines[1]
        assert frozen  # solution levels recorded for every active factor
        assert set(frozen) >= {"vac_creation_time", "price_sens_cost"}


class TestNeighborTest:
    def game_with_tie(self):
        u1 = np.array([[10.0, 4.0, 10.0], [2.0, 3.0, 1.0], [6.0, 2.0, 0.0]])
        space_game = EmpiricalGame.from_payoff_matrices(u1)
        # re-insert samples with spread so the tests are defined
        rng = np.random.default_rng(0)
        for p in space_game.profiles():
            m1 = space_game.payoff(p, 0)
            m2 = space_game.payoff(p, 1)
            space_game.set_samples(p, m1 + rng.normal(0, 0.05, 30),
                                   m2 + rng.normal(0, 0.05, 30))
        return space_game

    def test_zero_neighbors_empty(self):
        game = self.game_with_tie()
        assert neighbor_strictness_test(game, (0, 0), 0, 0) == []

    def test_far_equilibrium_all_significant(self):
        game = self.game_with_tie()
        ps = neighbor_strictness_test(game, (2, 2), 0, 3)  # payoff 0 vs others
        assert all(p < 0.05 for p in ps)

    def test_tied_neighbor_large_p(self):
        game = self.game_with_tie()
        # (0, 0) and (0, 2) both pay 10 to player 1
        ps = neighbor_strictness_test(game, (0, 0), 0, 1)
        assert ps[0] > 0.2


class TestStability:
    def test_strict_equilibrium_fully_stable(self):
        game = EmpiricalGame.from_payoff_matrices(PD_U1)
        report = stability_analysis(game, (1, 1), epsilon=0.5, steps=50,
                                    noise="none")
        assert report.ratios[StabilityClass.ASYMPTOTICALLY_STABLE.value] == 1.0

    def test_matching_pennies_fully_instable(self):
        game = EmpiricalGame.from_payoff_matrices(MP_U1, -MP_U1)
        report = stability_analysis(game, (0, 0), epsilon=0.5, steps=50,
                                    noise="none")
        assert report.ratios[StabilityClass.INSTABLE.value] == 1.0

    def test_ratios_partition(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            u1 = rng.integers(-5, 6, size=(4, 4)).astype(float)
            game = EmpiricalGame.from_payoff_matrices(u1)
            sol = game.min_regret_profile()
            report = stability_analysis(game, sol, epsilon=2.0, steps=40,
                                        noise="none", seed=7)
            assert sum(report.ratios.values()) == pytest.approx(1.0)

    def test_marginal_band(self):
        # second-best basin sits within epsilon of the solution payoff
        u1 = np.array([[5.0, 0.0], [0.0, 4.8]])
        game = EmpiricalGame.from_payoff_matrices(u1)
        report = stability_analysis(game, (0, 0), epsilon=1.0, steps=40,
                                    noise="none")
        assert report.ratios[StabilityClass.MARGINALLY_STABLE.value] > 0.0
        assert report.ratios[StabilityClass.INSTABLE.value] == 0.0

    def test_negative_epsilon_rejected(self):
        game = EmpiricalGame.from_payoff_matrices(PD_U1)
        with pytest.raises(ParameterError, match="epsilon"):
            stability_analysis(game, (1, 1), epsilon=-0.5, steps=20)

    def test_resample_noise_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        u1 = rng.normal(0, 1, size=(3, 3))
        game = EmpiricalGame.from_payoff_matrices(u1)
        for p in game.profiles():
            game.set_samples(p, game.payoff(p, 0) + rng.normal(0, 0.3, 20),
                             game.payoff(p, 1) + rng.normal(0, 0.3, 20))
        a = stability_analysis(game, (0, 0), 1.0, steps=60, seed=5)
        b = stability_analysis(game, (0, 0), 1.0, steps=60, seed=5)
        assert a.ratios == b.ratios

    def test_alternating_matches_exhaustive_enumeration(self):
        # independent oracle: walk deterministic alternating best response
        # by hand over all 4 starts of the stag-hunt shaped game
        u1 = np.array([[4.0, 0.0], [3.0, 2.0]])
        game = EmpiricalGame.from_payoff_matrices(u1)

        def enumerate_path(a, b, steps=40):
            for step in range(steps):
                if step % 2 == 0:
                    col = [u1[s, b] for s in range(2)]
                    a = int(np.argmax(col))  # unique maxima in this game
                else:
                    row = [u1[b_, a] for b_ in range(2)]  # symmetric payoffs
                    b = int(np.argmax(row))
            return a, b

        report = stability_analysis(game, (0, 0), epsilon=0.5, steps=40,
                                    noise="none")
        for (a0, b0), cls in report.classes.items():
            final = enumerate_path(a0, b0)
            expect_as = final == (0, 0)
            assert (cls is StabilityClass.ASYMPTOTICALLY_STABLE) == expect_as


@pytest.mark.golden
def test_index_draws_match_numpy_integers():
    # successive calls on one stream with every offset 0: ragged shapes,
    # one-sample cells (no draw), odd draw counts that keep a word's high
    # half for the next call, the full 32-bit range, and ranges from 2**31
    # on, where up to half the draws are rejected
    shapes = np.random.default_rng(41)
    seed = np.random.SeedSequence(12)
    draws, reference = IndexDraws(seed), np.random.default_rng(seed)
    for call in range(60):
        shape = tuple(shapes.integers(1, 9, int(shapes.integers(1, 3))).tolist())
        lows, highs = ((1, 3), (1, 60), (2**31, 2**32), (1, 2**32))[call % 4]
        high = shapes.integers(lows, highs, shape)
        if call % 3 == 0:
            high.flat[::2] = 1
        expected = reference.integers(0, high)
        top = int(high.max()) if high.min() > 1 else None
        got = draws.folded(high.astype(np.uint64), top)
        assert got.dtype == expected.dtype and got.shape == expected.shape, call
        assert got.tolist() == expected.tolist(), call


@pytest.mark.golden
def test_folded_draws_match_integers_plus_offsets():
    # successive calls on one stream, each count under a bank offset that
    # leaves offset + count below 2**32: ragged shapes, one-sample cells (no
    # draw), odd draw counts that keep a word's high half for the next call,
    # and counts from 2**31 on, where up to half the draws are rejected and
    # the call goes to numpy's own draw, kept half and all
    shapes = np.random.default_rng(41)
    seed = np.random.SeedSequence(12)
    draws, reference = IndexDraws(seed), np.random.default_rng(seed)
    through_numpy, expected_through = [], []
    to_numpy = draws._numpy
    draws._numpy = lambda cells, words: through_numpy.append(call) or to_numpy(cells, words)
    for call in range(60):
        shape = tuple(shapes.integers(1, 9, int(shapes.integers(1, 3))).tolist())
        lows, highs = ((1, 3), (1, 60), (2**31, 2**32))[call % 3]
        high = shapes.integers(lows, highs, shape)
        if call % 4 == 0:
            high.flat[::2] = 1
        offsets = shapes.integers(0, 2**32 - high)
        cells = offsets.astype(np.uint64) << np.uint64(32) | high.astype(np.uint64)
        top = int(high.max()) if high.min() > 1 else None
        if high.max() >= 2**31:
            expected_through.append(call)
        expected = reference.integers(0, high) + offsets
        got = draws.folded(cells, top)
        assert got.dtype == np.int64 and got.shape == expected.shape, call
        assert got.tolist() == expected.tolist(), call
    assert through_numpy == expected_through and len(through_numpy) > 10


@pytest.mark.golden
def test_stability_rejects_banks_of_2_32_samples(monkeypatch):
    # the game's bank as a zero-stride view of 2**32 samples, which holds
    # no memory
    game = EmpiricalGame.from_payoff_matrices(PD_U1)
    monkeypatch.setattr(game, "_bank", np.broadcast_to(game.bank[:1], (2**32,)))
    assert game.bank.size == 2**32
    with pytest.raises(ParameterError, match="2\\*\\*32"):
        stability_analysis(game, (1, 1), epsilon=0.5, steps=20)


def sample_bank(game):
    """Every stored sample in one flat array and the (2, n, n) offsets of
    each cell's samples, built from ``samples()`` in ``profiles()`` order;
    a symmetric game's transposed cells point at the same samples with the
    players swapped. The form stability analysis read before the game kept
    its own bank."""
    cells = [(player, a, b) for a, b in game.profiles() for player in (0, 1)]
    parts = [game.samples((a, b), player) for player, a, b in cells]
    offsets = np.zeros((2, game.n, game.n), dtype=np.int64)
    starts = np.cumsum([0] + [s.size for s in parts[:-1]])
    offsets[tuple(np.array(cells).T)] = starts
    if game.space.symmetric:
        rows, cols = np.tril_indices(game.n, -1)
        offsets[:, rows, cols] = offsets[::-1, cols, rows]
    return np.concatenate(parts), offsets


def lockstep_stability(game, solution, epsilon, steps, noise, update, seed):
    """The lockstep loop before the folded draw: each move gathers the
    counts and the bank offsets apart, draws through numpy's own
    ``Generator.integers`` and adds, on a bank rebuilt by
    :func:`sample_bank`. Kept as a bit-for-bit oracle of
    ``stability_analysis``; returns its classes and ratios."""
    n = game.n
    u = game.mean
    sol_samples = game.samples(solution, 0)
    if sol_samples.size >= 2 and sol_samples.std(ddof=1) > 0:
        as_tol = max(confidence_interval(sol_samples)[1],
                     confidence_interval(game.samples(solution, 1))[1])
    else:
        as_tol = 1e-9
    sol_pay = u[:, solution[0], solution[1], None]
    means = (u[0], u[1].T)
    resample = noise == "resample"
    root = np.random.SeedSequence(seed)

    def child(i):
        return np.random.SeedSequence(root.entropy, spawn_key=(i,),
                                      pool_size=root.pool_size)

    if resample:
        flat, offsets = sample_bank(game)
        offsets = (offsets[0], offsets[1].T)
        sizes = (game.count[0], game.count[1].T)
        draws = np.random.default_rng(child(n * n))
    nan_free = not np.isnan(flat if resample else u).any()
    tie_rngs = {}
    a, b = np.divmod(np.arange(n * n), n)
    window = max(1, steps // 10)
    worst = np.zeros(n * n)
    for step in range(steps):
        movers = ((step % 2,) if update == "alternating" else (0, 1))
        picks = {}
        for player in movers:
            opp = b if player == 0 else a
            if resample:
                vals = flat[draws.integers(0, sizes[player][:, opp])
                            + offsets[player][:, opp]]
            else:
                vals = means[player][:, opp]
            tied = vals == vals.max(axis=0)
            pick = tied.argmax(axis=0)
            if not (nan_free and np.count_nonzero(tied) == n * n):
                for r in np.flatnonzero(tied.sum(axis=0) > 1):
                    if r not in tie_rngs:
                        tie_rngs[r] = np.random.default_rng(child(r))
                    pick[r] = tie_rngs[r].choice(np.flatnonzero(tied[:, r]))
            picks[player] = pick
        a, b = picks.get(0, a), picks.get(1, b)
        if step >= steps - window:
            worst = np.maximum(worst, np.abs(u[:, a, b] - sol_pay).max(axis=0))
    order = list(StabilityClass)
    codes = np.where(worst <= as_tol, 0, np.where(worst <= epsilon, 1, 2)).tolist()
    classes = {divmod(i, n): order[c] for i, c in enumerate(codes)}
    ratios = {c.value: codes.count(k) / len(codes) for k, c in enumerate(order)}
    return classes, ratios


def integer_sample_game(seed, n, fewest, most, symmetric=True, nan=False):
    """A game whose samples are small integers, so resampled payoffs tie
    often, with fewest to most - 1 samples a cell; ``nan`` puts a NaN
    among one cell's samples."""
    rng = np.random.default_rng(seed)
    game = EmpiricalGame(StrategySpace([{"i": i} for i in range(n)],
                                       symmetric=symmetric))
    for a, b in game.profiles():
        k = int(rng.integers(fewest, most))
        game.set_samples((a, b), rng.integers(-2, 3, k).astype(float),
                         rng.integers(-2, 3, k).astype(float))
    if nan:
        samples = game.samples((0, 1), 0)
        samples[-1] = np.nan
    return game


@pytest.mark.golden
@pytest.mark.parametrize("update", ["alternating", "simultaneous"])
@pytest.mark.parametrize("n, fewest, most, symmetric, nan", [
    pytest.param(4, 2, 9, True, False, id="ties"),
    pytest.param(5, 2, 7, True, False, id="odd-n"),
    pytest.param(3, 2, 6, False, False, id="general-odd-n"),
    pytest.param(4, 1, 4, True, False, id="one-sample-cells"),
    pytest.param(6, 2, 40, False, False, id="general"),
    pytest.param(4, 2, 9, True, True, id="nan-sample")])
def test_stability_matches_lockstep_oracle(update, n, fewest, most, symmetric, nan):
    for seed in range(4):
        game = integer_sample_game(seed, n, fewest, most, symmetric, nan)
        if fewest == 1:
            assert (game.count == 1).any() and (game.count > 1).any()
        solution = game.min_regret_profile()
        for steps in (10, 41):
            report = stability_analysis(game, solution, 1.0, steps=steps,
                                        update=update, seed=seed)
            assert (report.classes, report.ratios) == lockstep_stability(
                game, solution, 1.0, steps, "resample", update, seed), seed


def reference_stability(game, solution, epsilon, steps, noise, update, seed):
    """The per-start loop stability analysis ran before it advanced all
    starts in lockstep: one generator per start draws its resamples and
    breaks its ties. Kept as an oracle for the lockstep version."""
    n = game.n
    u = game.mean
    sol_samples = game.samples(solution, 0)
    if sol_samples.size >= 2 and sol_samples.std(ddof=1) > 0:
        as_tol = max(confidence_interval(sol_samples)[1],
                     confidence_interval(game.samples(solution, 1))[1])
    else:
        as_tol = 1e-9
    sol_pay = np.array([u[0, solution[0], solution[1]],
                        u[1, solution[0], solution[1]]])
    counts = game.count
    bank = np.zeros((2, n, n, max(1, int(counts.max()))))
    for a in range(n):
        for b in range(n):
            for pl in (0, 1):
                s = game.samples((a, b), pl)
                bank[pl, a, b, :s.size] = s
    window = max(1, steps // 10)
    classes = {}
    starts = [(a, b) for a in range(n) for b in range(n)]
    for (a0, b0), child in zip(starts, np.random.SeedSequence(seed).spawn(n * n)):
        rng = np.random.default_rng(child)
        a, b = a0, b0
        deviations = []
        for step in range(steps):
            movers = ((step % 2,) if update == "alternating" else (0, 1))
            next_a, next_b = a, b
            for player in movers:
                if player == 0:
                    rows, cols = np.arange(n), np.full(n, b)
                else:
                    rows, cols = np.full(n, a), np.arange(n)
                if noise == "resample":
                    idx = rng.integers(0, counts[player, rows, cols])
                    vals = bank[player, rows, cols, idx]
                else:
                    vals = u[player, rows, cols]
                best = np.flatnonzero(vals == vals.max())
                pick = int(best[0]) if best.size == 1 else int(rng.choice(best))
                if player == 0:
                    next_a = pick
                else:
                    next_b = pick
            a, b = next_a, next_b
            if step >= steps - window:
                deviations.append(float(np.max(np.abs(u[:, a, b] - sol_pay))))
        worst = max(deviations)
        if worst <= as_tol:
            classes[(a0, b0)] = StabilityClass.ASYMPTOTICALLY_STABLE
        elif worst <= epsilon:
            classes[(a0, b0)] = StabilityClass.MARGINALLY_STABLE
        else:
            classes[(a0, b0)] = StabilityClass.INSTABLE
    return classes


class TestStabilityAgainstReference:
    def test_none_noise_classes_match_exactly(self):
        # small integer payoffs tie often: ties must draw from the same
        # per-start streams as the reference
        rng = np.random.default_rng(2024)
        games_with_ties, seen = 0, set()
        for trial in range(240):
            n = int(rng.integers(2, 7))
            u1 = rng.integers(-2, 3, size=(n, n)).astype(float)
            if trial % 2:
                game = EmpiricalGame.from_payoff_matrices(u1)
            else:
                u2 = rng.integers(-2, 3, size=(n, n)).astype(float)
                game = EmpiricalGame.from_payoff_matrices(u1, u2)
            games_with_ties += any(
                np.count_nonzero(col == col.max()) > 1
                for col in np.concatenate([game.mean[0].T, game.mean[1]]))
            solution = (int(rng.integers(n)), int(rng.integers(n)))
            epsilon = float(rng.integers(0, 3))
            update = ("alternating", "simultaneous")[(trial // 2) % 2]
            steps = int(rng.integers(10, 40))
            seed = int(rng.integers(1 << 30))
            report = stability_analysis(game, solution, epsilon, steps=steps,
                                        noise="none", update=update, seed=seed)
            assert report.classes == reference_stability(
                game, solution, epsilon, steps, "none", update, seed), trial
            seen.update(report.classes.values())
        assert games_with_ties > 150 and seen == set(StabilityClass)

    def test_resample_class_ratios_match_in_distribution(self):
        # three strict equilibria, 0.4 and 2.0 below the solution, with
        # samples noisy enough that trajectories leave the third one's basin
        rng = np.random.default_rng(11)
        u1 = np.array([[5.0, 0.0, 1.5], [0.0, 4.6, 1.5], [1.5, 1.5, 3.0]])
        game = EmpiricalGame.from_payoff_matrices(u1)
        for a, b in game.profiles():
            k = int(rng.integers(8, 15))
            game.set_samples((a, b), u1[a, b] + rng.normal(0, 0.6, k),
                             u1[b, a] + rng.normal(0, 0.6, k))
        new, old = [], []
        for seed in range(120):
            report = stability_analysis(game, (0, 0), 0.8, steps=40, seed=seed)
            new.append(list(report.ratios.values()))
            classes = reference_stability(game, (0, 0), 0.8, 40, "resample",
                                          "alternating", seed)
            old.append([sum(v is c for v in classes.values()) / len(classes)
                        for c in StabilityClass])
        new, old = np.array(new), np.array(old)
        assert np.all(old.mean(axis=0) > 0.05)  # every class occurs
        assert np.all(old.std(axis=0) > 0.05)  # and varies with the seed
        spread = np.sqrt(new.var(axis=0, ddof=1) / len(new)
                         + old.var(axis=0, ddof=1) / len(old))
        assert np.all(np.abs(new.mean(axis=0) - old.mean(axis=0)) < 4 * spread)


def test_simulate_profile_failure_names_profile_and_tag():
    def source(labels_a, labels_b, baseline, n, tags, start=0):
        raise ReplicationError("replication diverged on day 7: x", day=7,
                               seed=1234, index=2)

    labels = [{"pricing": "L"}, {"pricing": "H"}]
    with pytest.raises(ReplicationError) as err:
        _simulate_profile(source, labels, 0, 1, {}, SamplingPolicy(), 77)
    assert (err.value.day, err.value.seed, err.value.index) == (7, 1234, 2)
    assert str(err.value).startswith(
        "profile (0, 1), tag 77, replication 2 (seed 1234), "
        'strategies {"pricing": "L"} vs {"pricing": "H"}: ')


def reference_build(plan, source, policy, iteration):
    """The game built one profile at a time: each profile's initial batch,
    its top-up target and its top-up through ``estimate_payoffs`` alone."""
    labels = plan.strategy_labels()
    game = EmpiricalGame(StrategySpace(labels))
    sizes = {}
    for a in range(len(labels)):
        for b in range(a, len(labels)):
            specs = source.specs_for(labels[a], labels[b], {})
            tag = profile_tag(iteration, a, b)

            def run(n, start):
                seeds = replication_seeds(source.master_seed, tag, n, start=start)
                return estimate_payoffs(specs, source.settings, source.rates, n,
                                        seeds)

            payoffs = run(policy.initial_n, 0)
            total = policy.initial_n
            if total >= 2 and policy.cap > total:
                spread = max(payoffs[:, 0].std(ddof=1), payoffs[:, 1].std(ddof=1))
                target = decide_sample_size(total, float(spread), policy.ecvi_floor,
                                            policy.cap, policy.batch, policy.alpha)
                if target > total:
                    payoffs = np.vstack([payoffs, run(target - total, total)])
            sizes[f"{a},{b}"] = payoffs.shape[0]
            p1, p2 = payoffs[:, 0], payoffs[:, 1]
            if payoffs.shape[0] > 2 * policy.trim_per_tail:
                p1 = trim_samples(p1, policy.trim_per_tail)
                p2 = trim_samples(p2, policy.trim_per_tail)
            game.set_samples((a, b), p1, p2)
    return game, sizes


class TestBatchedBuild:
    PLAN = FactorPlan([PlanFactor("pricing"), PlanFactor("marketing")])

    def source(self, jobs=1, executor=None):
        settings = SimulationSettings(run_length_days=30, warmup_days=10, n_agents=50)
        return SimulationPayoffSource(settings, CostRates(), 11, jobs=jobs,
                                      executor=executor)

    def assert_same_game(self, built, reference):
        (game, sizes), (ref, ref_sizes) = built, reference
        assert sizes == ref_sizes
        for name in ("mean", "count", "var"):
            assert np.array_equal(getattr(game, name), getattr(ref, name)), name

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_equals_per_profile_reference(self, jobs, executor):
        # 10 profiles of 2 replications: 20 rows, not a multiple of 3
        policy = SamplingPolicy(initial_n=2, trim_per_tail=0, cap=2)
        source = self.source(jobs, executor)
        self.assert_same_game(
            build_empirical_game(self.PLAN, source, {}, policy, 1),
            reference_build(self.PLAN, source, policy, 1))

    def test_zero_jobs_rejected(self):
        # a worker count below one is a parameter error, raised before any
        # replication runs
        source = self.source(jobs=0)
        with pytest.raises(ParameterError, match="jobs must be >= 1, got 0"):
            source([{}], [{}], {}, 2, [profile_tag(0, 0, 0)])

    def test_topups_equal_per_profile_reference(self, executor):
        policy = SamplingPolicy(initial_n=4, trim_per_tail=1, cap=12, batch=2,
                                ecvi_floor=20.0)
        source = self.source(jobs=2, executor=executor)
        built = build_empirical_game(self.PLAN, source, {}, policy, 0)
        # no top-up, and top-ups of more than one extra count
        assert len(set(built[1].values()) - {policy.initial_n}) >= 2
        assert policy.initial_n in built[1].values()
        self.assert_same_game(built, reference_build(self.PLAN, source, policy, 0))


def test_divergence_in_second_pool_chunk_names_profile_and_seed(executor):
    # without the price band these profiles run away; at 55 days, replications
    # 4 and 5 of profile (2, 3) diverge and every other one runs to the end
    settings = SimulationSettings(run_length_days=55)
    sd = SDParams(max_inv_cov=1e6, mp_cap_ratio=float("inf"), sigma_order=20.0,
                  price_sens_invcov=-0.7)
    source = SimulationPayoffSource(settings, CostRates(), 3, sd_defaults=sd, jobs=2,
                                    executor=executor)
    labels = [{"logistics": "L"}, {"logistics": "H"},
              {"manufacturing": "L"}, {"manufacturing": "H"}]
    a, b = [1, 1, 2, 2], [1, 2, 3, 2]
    tags = [profile_tag(0, x, y) for x, y in zip(a, b)]
    policy = SamplingPolicy(initial_n=6, trim_per_tail=1, cap=6)
    # 24 rows in two chunks of 12; replication 4 of (2, 3) is row 16, inside
    # the second chunk's block of rows from (2, 3) and (2, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ReplicationError) as err:
            _simulate_profile(source, labels, a, b, {}, policy, tags)
        seed = replication_seeds(3, tags[2], 1, start=4)[0]
        with pytest.raises(ReplicationError) as alone:
            run_replication(source.specs_for(labels[2], labels[3], {}), settings, seed)
    assert (err.value.index, err.value.seed, err.value.day) == (4, seed, alone.value.day)
    assert str(err.value) == (
        f"profile (2, 3), tag {tags[2]}, replication 4 (seed {seed}), "
        'strategies {"manufacturing": "L"} vs {"manufacturing": "H"}: '
        f"{alone.value}")


def test_replay_labels_materialize_as_labels_over_baseline():
    # the baseline holds a child of an active aggregated factor, which sorts
    # after it, and a factor the labels leave alone
    baseline = {"rm_lead_time": "H", "inv_fulfillment_time": "H", "mfg_price": "H"}
    labels = {"logistics": "L", "marketing": "H"}
    replay = _replay_labels(labels, baseline)
    assert replay == {"mfg_price": "H", "logistics": "L", "marketing": "H"}
    in_key_order = dict(sorted(replay.items()))
    assert materialize(in_key_order) == materialize(labels, baseline)
