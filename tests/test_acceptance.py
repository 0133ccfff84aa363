"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. The two heavyweight end-to-end runs are shared by the last
criteria through a module-scoped fixture."""

import json
import time
import warnings

import numpy as np
import pytest

from duogame.cli import main
from duogame.doe import doe_significance, two_level_design
from duogame.game import symmetric_profile_count
from duogame.gsa import StabilityClass, stability_analysis
from duogame.market import MarketParams
from duogame.network import generate_ba_network
from duogame.runner import (
    CompanySpec,
    SimulationSettings,
    run_replication,
)
from duogame.stats import confidence_interval, trim_samples
from duogame.supply_chain import (
    FlowLedger,
    NoiseDraws,
    SDParams,
    steady_state,
    step_company,
)
from game_tools import game_from_matrices
from network_tools import degree_ccdf_slope
from warmup_tools import detect_warmup

DT = 0.25


def report(number, name):
    print(f"ACCEPTANCE {number:02d} ({name}): PASS")


def random_sd_params(rng):
    return SDParams(
        vac_creation_time=rng.uniform(1, 5),
        layoff_time=rng.uniform(3, 7),
        labor_fulfillment_time=rng.uniform(4, 12),
        wip_fulfillment_time=rng.uniform(1, 3),
        inv_fulfillment_time=rng.uniform(2, 14),
        rm_lead_time=rng.uniform(1, 7),
        safety_stock_cov=rng.uniform(2, 14),
        rm_inventory_cov=rng.uniform(1, 7),
        price_sens_cost=rng.uniform(0.1, 0.9),
        price_sens_invcov=rng.uniform(-0.9, -0.1),
        mfg_price=rng.uniform(1, 2),
    ).validate()


def test_c01_profile_combinatorics():
    expected = {2: 3, 4: 10, 8: 36, 16: 136, 32: 528, 64: 2080, 128: 8256,
                256: 32896, 512: 131328, 1024: 524800}
    for s, count in expected.items():
        assert symmetric_profile_count(s) == count
    report(1, "profile combinatorics")


def test_c02_trimming():
    assert trim_samples(np.arange(70.0), 10).size == 50
    report(2, "trimming 70 -> 50")


def _brute_force_nash(u1, u2, epsilon=0.0):
    n = u1.shape[0]
    out = []
    for a in range(n):
        for b in range(n):
            ok = all(u1[s, b] <= u1[a, b] + epsilon for s in range(n))
            ok = ok and all(u2[a, s] <= u2[a, b] + epsilon for s in range(n))
            if ok:
                out.append((a, b))
    return out


def _random_games(count=200, seed=2024):
    rng = np.random.default_rng(seed)
    games = []
    for _ in range(count):
        n = int(rng.integers(2, 9))
        u1 = rng.integers(-50, 51, size=(n, n)).astype(float)
        games.append((game_from_matrices(u1), u1))
    return games


def test_c03_nash_oracle_equivalence():
    start = time.monotonic()
    mismatches = 0
    for game, u1 in _random_games():
        mine = set(game.pure_nash(0.0))
        oracle = {(a, b) for a, b in _brute_force_nash(u1, u1.T) if a <= b}
        mismatches += mine != oracle
    elapsed = time.monotonic() - start
    assert mismatches == 0
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.1f}s"
    report(3, "equilibrium oracle equivalence, 200 games")


def test_c04_monotonicity_and_regret():
    rng = np.random.default_rng(7)
    for game, _ in _random_games():
        eps_small, eps_big = sorted(rng.uniform(0, 40, size=2))
        small = set(game.pure_nash(eps_small))
        big = set(game.pure_nash(eps_big))
        assert small <= big
        eq = set(game.pure_nash(eps_small))
        for profile in game.profiles():
            assert (game.regret(profile) <= eps_small) == (profile in eq)
    report(4, "epsilon monotonicity and regret characterization")


def test_c05_sd_conservation():
    start = time.monotonic()
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = random_sd_params(rng)
        s = steady_state(p, 100.0)
        begin = s.stocks()
        ledger = FlowLedger()
        for _day in range(100):
            noise = NoiseDraws(wip=rng.normal(0, 5), prod=rng.normal(0, 5),
                               order=rng.normal(0, 8), inv=rng.normal(0, 5))
            for _ in range(4):
                s = step_company(s, p, order_rate=rng.uniform(50, 150),
                                 noise=noise, dt=DT, ledger=ledger)
        for name, x0 in begin.items():
            xt = getattr(s, name)
            scale = max(abs(xt), abs(x0), 1.0)
            assert abs((xt - x0) - ledger.flows[name]) / scale < 1e-9, name
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"conservation sweep took {elapsed:.1f}s"
    report(5, "stock bookkeeping identity, 50 random draws")


def test_c06_sd_fixed_point():
    p = SDParams().validate()
    s0 = steady_state(p, order_rate=100.0)
    before_step = s0.stocks()
    s1 = step_company(s0, p, order_rate=100.0, dt=DT)
    for name, before in before_step.items():
        assert abs(getattr(s1, name) - before) <= 1e-9, name
    report(6, "zero-noise steady state is a fixed point")


def test_c07_warmup_timing():
    settings = SimulationSettings(deterministic_marketing=True,
                                  fixed_share_split=0.5)
    rep = run_replication((CompanySpec(), CompanySpec()), settings, seed=0)
    warmup = detect_warmup(rep, rel_tol=0.02)
    assert 30 <= warmup <= 60, f"warm-up detected at day {warmup}"
    assert warmup <= 50
    report(7, f"warm-up detected at day {warmup}")


def test_c08_market_symmetry():
    settings = SimulationSettings()
    means = []
    for seed in range(50):
        rep = run_replication((CompanySpec(), CompanySpec()), settings, seed=seed)
        means.append(rep.series["ms"][:, 0].mean())
    grand = float(np.mean(means))
    assert 0.45 <= grand <= 0.55, grand

    # swapped-brand mirror: exact trajectory exchange
    a = CompanySpec(sd=SDParams(mfg_price=1.2))
    b = CompanySpec(sd=SDParams(mfg_price=1.7))
    base = run_replication((a, b), settings, seed=5)
    mirrored = run_replication((b, a), settings, seed=5, mirror=True)
    assert np.array_equal(base.series["ms"][:, 0], mirrored.series["ms"][:, 1])
    assert np.array_equal(base.series["ms"][:, 1], mirrored.series["ms"][:, 0])
    report(8, f"market symmetry, mean share {grand:.3f}")


def test_c09_network_properties():
    for n, m0, m in [(100, 5, 3), (500, 5, 3), (300, 8, 8), (64, 4, 1)]:
        net = generate_ba_network(n, m0, m, seed=n)
        assert len(net.edges) == m0 * (m0 - 1) // 2 + m * (n - m0)
    slopes = [degree_ccdf_slope(generate_ba_network(1000, 5, 3, seed=s))
              for s in range(20)]
    mean_slope = float(np.mean(slopes))
    assert -3.5 <= mean_slope <= -1.5, mean_slope
    report(9, f"scale-free network, tail slope {mean_slope:.2f}")


def test_c10_ci_shrinkage():
    rng = np.random.default_rng(2)
    wins = 0
    for _ in range(100):
        draws = rng.normal(0, 100, size=500)
        hw50 = confidence_interval(draws[:50])[1]
        hw500 = confidence_interval(draws)[1]
        wins += hw500 < hw50
    assert wins >= 95, wins

    ratios = [confidence_interval(rng.normal(0, 10, 50))[1]
              / confidence_interval(rng.normal(0, 10, 200))[1]
              for _ in range(100)]
    mean_ratio = float(np.mean(ratios))
    assert 1.9 <= mean_ratio <= 2.2, mean_ratio
    report(10, f"CI shrinkage, {wins}/100 and ratio {mean_ratio:.2f}")


def test_c11_doe_recovery():
    rng = np.random.default_rng(3)
    correct = 0
    for _ in range(50):
        design = np.repeat(two_level_design(2), 8, axis=0)
        y = design @ np.array([10.0, 0.0]) + rng.normal(0, 0.1, design.shape[0])
        active, inert = doe_significance(design, y, alpha=0.05)
        correct += active.significant
        correct += not inert.significant
    assert correct >= 95, correct
    report(11, f"factor screening, {correct}/100 correct")


def test_c12_stability_oracle():
    pd_game = game_from_matrices(np.array([[3.0, 0.0], [5.0, 1.0]]))
    pd = stability_analysis(pd_game, (1, 1), epsilon=0.5, steps=50, noise="none")
    assert pd.ratios[StabilityClass.ASYMPTOTICALLY_STABLE.value] == 1.0
    assert sum(pd.ratios.values()) == pytest.approx(1.0)

    # exhaustive alternating best-response enumeration for every start
    u1 = np.array([[3.0, 0.0], [5.0, 1.0]])
    for (a0, b0), cls in pd.classes.items():
        a, b = a0, b0
        for step in range(50):
            if step % 2 == 0:
                a = int(np.argmax([u1[s, b] for s in range(2)]))
            else:
                b = int(np.argmax([u1[s, a] for s in range(2)]))
        assert (a, b) == (1, 1)
        assert cls is StabilityClass.ASYMPTOTICALLY_STABLE

    mp_u1 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    mp_game = game_from_matrices(mp_u1, -mp_u1)
    mp = stability_analysis(mp_game, (0, 0), epsilon=0.5, steps=50, noise="none")
    assert mp.ratios[StabilityClass.INSTABLE.value] == 1.0
    assert sum(mp.ratios.values()) == pytest.approx(1.0)
    report(12, "stability matches exhaustive enumeration")


DESK_CONFIG = {
    "master_seed": 20240101,
    "sampling": {"initial_n": 10, "trim_per_tail": 1, "cap": 10,
                 "ecvi_floor": 1e9},
}


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("desk_gsa")
    config_path = base / "config.json"
    config_path.write_text(json.dumps(DESK_CONFIG))
    outs, elapsed = [], []
    for name in ("run_a", "run_b"):
        out = base / name
        t0 = time.monotonic()
        code = main(["gsa", "--config", str(config_path), "--out", str(out)])
        elapsed.append(time.monotonic() - t0)
        assert code == 0
        outs.append(out)
    return outs, elapsed


def _load_reports(out_dir):
    files = sorted(out_dir.glob("iteration_*.json"))
    return [json.loads(f.read_text())["report"] for f in files]


@pytest.mark.slow
def test_c13_end_to_end_desk_scale(desk_runs):
    outs, elapsed = desk_runs
    for t in elapsed:
        assert t < 15 * 60, f"run took {t / 60:.1f} minutes"

    reports_a = _load_reports(outs[0])
    reports_b = _load_reports(outs[1])
    assert len(reports_a) == len(reports_b) == 5
    for r in reports_a:
        assert r["n_strategies"] == 16
        assert r["n_profiles"] == 136
        for key in ("equilibria", "solution", "stability", "tolerance_curve",
                    "neighbor_p_values", "factors"):
            assert key in r
        assert sum(r["stability"]["ratios"].values()) == pytest.approx(1.0)

    # bit-reproducibility: identical content, wall time aside
    for ra, rb in zip(reports_a, reports_b):
        ra = dict(ra)
        rb = dict(rb)
        ra.pop("runtime_seconds")
        rb.pop("runtime_seconds")
        assert ra == rb
    assert (outs[0] / "summary.json").read_bytes() == \
        (outs[1] / "summary.json").read_bytes()
    for k in range(5):
        name = f"payoff_matrix_{k:02d}.csv"
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    report(13, f"desk-scale loop, {elapsed[0] / 60:.1f} min, reproducible")


@pytest.mark.slow
def test_c14_payoff_trend_soft(desk_runs):
    outs, _ = desk_runs
    reports = _load_reports(outs[0])
    first = float(np.mean(reports[0]["solution"]["mean"]))
    last = float(np.mean(reports[-1]["solution"]["mean"]))
    increasing = last > first
    if not increasing:
        warnings.warn(
            f"solution payoff did not increase across iterations "
            f"({first:.0f} -> {last:.0f}); recorded, not enforced",
            UserWarning)
    report(14, f"payoff trend {first:.0f} -> {last:.0f} "
               f"({'up' if increasing else 'down, warned'})")
