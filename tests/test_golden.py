"""Golden pins of the replication kernel, the market day, the stability
analysis and a small ``gsa`` run.

The sha256 of ``estimate_payoffs`` payoff arrays is pinned for cases that
cover the kernel's branches: a market sub-block boundary, a co-state that
never reaches its cap, the saturated price band with tie-breaks, all four
noise draws, mirrored runs with fixed and with drawn marketing levels (one
``run_replication`` pass each, priced as ``estimate_payoffs`` prices one),
and one pass mixing quiet and noisy companies over a cut-short marketing
period;
each pin holds for the plain-float and the array sub-step body alike. A
market day whose brand forces and prices are pairs of -0.0 pins the sign of
their sums. The stability classes of seeded games pin the ``resample``
stream: alternating and simultaneous updates, an odd strategy count with
one-sample cells, and ``duogame stability`` on a re-read matrix.
``tests/golden/`` holds the config and output hashes (payoff matrix,
iteration report, solution trace) of a one-iteration ``gsa`` run on four
two-level factors, run in process and through both process entries, the
console script and ``python -m duogame.cli``; the hashes of every file a
two-iteration run that tops up writes, whole or resumed after an interrupt
at any of its six source calls; and those of every file the shipped
five-iteration ``duogame gsa --jobs 2`` run writes. A pin may change only
for a stated reason, such as a changed RNG protocol.
"""

import gc
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from duogame import runner
from duogame.cli import main
from duogame.game import EmpiricalGame, StrategySpace
from duogame.gsa import SimulationPayoffSource, stability_analysis
from duogame.market import ConsumerMarket, MarketParams, marketing_force
from duogame.network import generate_ba_network
from duogame.reporting import write_payoff_matrix
from duogame.runner import (
    CompanySpec,
    CostRates,
    SimulationSettings,
    compute_payoff,
    estimate_payoffs,
    replication_seeds,
    run_replication,
)
from duogame.supply_chain import SDParams

pytestmark = pytest.mark.golden


def digest(payoffs) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(payoffs, dtype="<f8").tobytes()).hexdigest()


def corner_specs():
    corner = CompanySpec(sd=SDParams(price_sens_cost=0.1, price_sens_invcov=-0.9,
                                     safety_stock_cov=2.0))
    return (corner, corner)


def noisy_specs():
    a = CompanySpec(sd=SDParams(sigma_wip=2.0, sigma_prod=3.0, sigma_order=5.0,
                                sigma_inv=4.0))
    b = CompanySpec(sd=SDParams(mfg_price=1.6, sigma_wip=1.0, sigma_prod=1.0,
                                sigma_order=8.0, sigma_inv=2.0))
    return (a, b)


def mirror_specs():
    sd = SDParams(sigma_order=5.0)
    return (CompanySpec(sd=sd), CompanySpec(sd=sd))


def quiet_mirror_specs():
    # no noise and unequal ranges, so every period draw of both company
    # streams moves the payoffs
    return (CompanySpec(ad_range=(0.2, 0.4)),
            CompanySpec(sd=SDParams(mfg_price=1.6), pm_range=(0.1, 0.5)))


def mixed_noise_specs():
    # 20 rows cycling through quiet, half-noisy and fully noisy pairs, so one
    # pass draws its period levels from both kinds of company stream
    noisy_a, noisy_b = noisy_specs()
    quiet = CompanySpec(pm_range=(0.2, 0.45))
    cycle = [(CompanySpec(), CompanySpec()), (noisy_a, quiet),
             (quiet, noisy_b), (noisy_a, noisy_b), (quiet, quiet)]
    return [cycle[r % len(cycle)] for r in range(20)]


# name -> (specs, settings, n, master seed, mirror, sha256 of the payoffs)
CASES = {
    "default_n70": (lambda: (CompanySpec(), CompanySpec()),
                    SimulationSettings(), 70, 101, False,
                    "13c3023912b04fdc01901d5778c9a51bebb521a4590885b9fd92704565d0dcff"),
    "uncapped_n70": (lambda: (CompanySpec(), CompanySpec()),
                     SimulationSettings(market=MarketParams(inter_cap=1000.0)),
                     70, 105, False,
                     "32ddae8b5fb9a3e24dbd63ae18b8006f2f41dcbc16b013ad2e7162029f912b7f"),
    "runaway_corner": (corner_specs,
                       SimulationSettings(deterministic_marketing=True),
                       6, 102, False,
                       "72483ec4796e2cb991e5c50647eafbaefcef78ab75c8f3f094639ee0d8f3976e"),
    "all_noise": (noisy_specs, SimulationSettings(), 6, 103, False,
                  "3a8a013beaf54c2eb136feeb8fa4ac7b579d5927eb5c00bb447a0486a99f6e81"),
    "mirror": (mirror_specs, SimulationSettings(deterministic_marketing=True),
               6, 104, True,
               "2be800e36fce4b89219884e3ec56066d213ecafcbb4606bdbcf9fc286808ec3d"),
    "mirror_random_n70": (quiet_mirror_specs, SimulationSettings(), 70, 106, True,
                          "e9e1849ff21a6d27c6e3a4324032b46e70046baeb499b4f4b2b141f828ea96cb"),
    # 25 days: the last marketing period is cut short
    "mixed_noise_n20": (mixed_noise_specs, SimulationSettings(run_length_days=25),
                        20, 107, False,
                        "7f9c37812e2d1345f5c75f6a3c27e9c671334c7f7ad75e5404409cb080113384"),
}


def check_payoff_pin(name):
    make_specs, settings, n, master, mirror, pin = CASES[name]
    seeds = replication_seeds(master, 0, n)
    if mirror:
        rows = run_replication(make_specs(), settings, seeds, mirror=True, series=False)
        payoffs = compute_payoff(rows, CostRates(), settings.sunk_cost_mode)
    else:
        payoffs = estimate_payoffs(make_specs(), settings, CostRates(), n, seeds)
    assert digest(payoffs) == pin


@pytest.mark.parametrize("name", sorted(CASES))
def test_payoff_pin(name):
    check_payoff_pin(name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_payoff_pin_other_kernel(name, monkeypatch):
    # the same pins through the sub-step body that the row count does not
    # pick: plain floats for the wide cases, arrays for the 6-row ones
    n = CASES[name][2]
    monkeypatch.setattr(runner, "WIDE", n + 1 if n >= runner.WIDE else 1)
    check_payoff_pin(name)


def test_batch_rows_equal_single_replications():
    settings = SimulationSettings()
    rates = CostRates()
    specs = (CompanySpec(), CompanySpec())
    seeds = replication_seeds(101, 0, 70)
    payoffs = estimate_payoffs(specs, settings, rates, 70, seeds)
    block = run_replication(specs, settings, seeds)
    assert len(block) == 70
    for j, seed in enumerate(seeds):
        alone = run_replication(specs, settings, seed)
        assert np.array_equal(payoffs[j],
                              compute_payoff(alone, rates, settings.sunk_cost_mode))
        assert block[j].seed == seed
        for name, series in alone.series.items():
            assert np.array_equal(block[j].series[name], series), (j, name)


def class_digest(report) -> str:
    """sha256 of a stability report's "a,b,class" lines, row-major."""
    text = "\n".join(f"{a},{b},{cls.value}"
                     for (a, b), cls in sorted(report.classes.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def noisy_game(seed, n, fewest, most):
    """A symmetric game of mean payoffs about 5000 with two boosted diagonal
    cells and fewest to most - 1 normal samples per profile."""
    rng = np.random.default_rng(seed)
    u = rng.normal(5000.0, 800.0, (n, n))
    for s in (3, 9):
        u[s, s] = u[:, s].max() + 400.0
    game = EmpiricalGame(StrategySpace([{"i": i} for i in range(n)]))
    for a in range(n):
        for b in range(a, n):
            k = int(rng.integers(fewest, most))
            game.set_samples((a, b), rng.normal(u[a, b], 100.0, k),
                             rng.normal(u[b, a], 100.0, k))
    return game


# class digests of resample runs: alternating updates with 5-59 samples a
# cell, simultaneous updates, and an odd n with one-sample cells, which
# draw nothing, and odd draw counts per move
STABILITY_PIN = "63c3e866a8b62cd6cb1d0d2a8c4524d06b228df041ae54889b16b1f83b477c51"
SIMULTANEOUS_PIN = "5bc088476d4794037e961879a5aff1093b7bceb72d9e9be70a46a2d23b1aed9d"
ODD_N_PIN = "f348772bd777bff9068832c8edb0dc224e44048ea4c422ab5d88ce07021c269f"
# sha256 of the JSON ``duogame stability`` writes for a written and re-read
# matrix, whose cells come back as synthetic two-point sample sets
MATRIX_STABILITY_PIN = (
    "792a23f419607c41e4b2225db50108ed280af28089a49c621eb42cf8b55b2b45")


def test_stability_resample_pin():
    game = noisy_game(16, 16, 5, 60)
    report = stability_analysis(game, game.min_regret_profile(), 300.0,
                                steps=400, seed=3)
    assert len(set(report.classes.values())) == 3
    assert class_digest(report) == STABILITY_PIN


def test_stability_simultaneous_pin():
    game = noisy_game(17, 12, 5, 60)
    report = stability_analysis(game, game.min_regret_profile(), 300.0,
                                steps=300, update="simultaneous", seed=4)
    assert class_digest(report) == SIMULTANEOUS_PIN


def test_stability_odd_n_one_sample_pin():
    game = noisy_game(18, 11, 1, 3)
    assert (game.count == 1).any() and (game.count > 1).any()
    report = stability_analysis(game, game.min_regret_profile(), 300.0,
                                steps=101, seed=5)
    assert class_digest(report) == ODD_N_PIN


def test_stability_cli_matrix_pin(tmp_path):
    # two samples a cell, so every index is drawn below 2; at 20 steps the
    # ratios still move with the seed
    game = noisy_game(19, 10, 2, 3)
    write_payoff_matrix(game, tmp_path / "m.csv")
    assert main(["stability", "--game", str(tmp_path / "m.csv"), "--steps",
                 "20", "--seed", "6", "--epsilon", "300",
                 "--out", str(tmp_path / "s.json")]) == 0
    digest = hashlib.sha256((tmp_path / "s.json").read_bytes()).hexdigest()
    assert digest == MATRIX_STABILITY_PIN


MARKET_ZERO_PIN = "16b8277dd06454b09577399aef77c2657158de688c0b1da330a247398516585c"


def test_market_negative_zero_sums_pin():
    # a row whose brand forces and prices are pairs of -0.0: the pair sums
    # start from +0.0, as numpy's sum does, so the total force is +0.0, not
    # -0.0; the shares, co-states and total forces of three days are pinned
    # bit for bit
    width = 3
    params = MarketParams(w3=-0.5).validate()
    net = generate_ba_network(60, m0=5, m=3, seed=2)
    market = ConsumerMarket(net, params, np.random.default_rng(8),
                            replications=width)
    mk = market.marketing
    mk.mb[:] = 100.0
    mk.ad[:] = [[-0.0, -0.0], [0.3, 0.25], [-0.0, 0.2]]
    mk.pm[:] = [[-0.0, -0.0], [0.2, 0.3], [0.1, -0.0]]
    mk.inter[:] = [[-0.0, -0.0], [0.1, -0.1], [-0.0, 0.0]]
    market.adopted[:] = np.random.default_rng(9).integers(0, 2, (60, width))
    prices = np.array([[-0.0, -0.0], [1.5, 1.4], [1.3, -0.0]])
    rngs = [np.random.default_rng(50 + r) for r in range(width)]
    assert np.signbit(marketing_force(mk.ad, mk.pm, mk.inter, params.w1,
                                      params.w2, params.w3)[0]).all()
    bits = []
    for day in range(3):
        shares = market.step(prices, rngs)
        if day == 0:
            assert not np.signbit(mk.total_force[0])
        for x in (shares, mk.inter, mk.total_force):
            bits.append(np.ascontiguousarray(x, dtype="<f8").tobytes())
    assert hashlib.sha256(b"".join(bits)).hexdigest() == MARKET_ZERO_PIN


GOLDEN = Path(__file__).parent / "golden"


def check_small_gsa_run(out, *args):
    frozen = gc.get_freeze_count()
    assert main(["gsa", "--config", str(GOLDEN / "small_gsa_config.json"),
                 "--out", str(out), *args]) == 0
    # main() given its argv leaves the caller's heap unfrozen
    assert gc.get_freeze_count() == frozen
    check_small_gsa_outputs(out)


def check_small_gsa_outputs(out):
    pins = json.loads((GOLDEN / "small_gsa_hashes.json").read_text())
    report = json.loads((out / "iteration_00.json").read_text())
    report["report"].pop("runtime_seconds")
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    # the solution trace is one replication, the only output of the
    # plain-float sub-step body whose daily series are pinned
    for name in ("payoff_matrix_00.csv", "solution_trace_00.csv"):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == pins[name]
    assert hashlib.sha256(text.encode()).hexdigest() == pins["iteration_00.json"]


def test_small_gsa_run_pin(tmp_path):
    check_small_gsa_run(tmp_path / "g")


@pytest.fixture(scope="module")
def small_gsa_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("small") / "g"
    check_small_gsa_run(out)
    return out


# a field of a checkpoint, made with this run's fingerprint, missing or
# malformed
CHECKPOINT_FAULTS = {
    "no-labels": lambda c: c.pop("labels"),
    "no-samples": lambda c: c.pop("samples"),
    "no-report": lambda c: c.pop("report"),
    "no-baseline": lambda c: c.pop("baseline"),
    "labels-not-a-list": lambda c: c.update(labels="LHLH"),
    "samples-not-an-object": lambda c: c.update(samples=[]),
    "samples-without-a-profile": lambda c: c["samples"].pop("0,1"),
    "samples-profile-out-of-range": lambda c: c["samples"].update({"0,16": [[1.0], [1.0]]}),
    "samples-not-numbers": lambda c: c["samples"].update({"0,0": [["x"], [1.0]]}),
    "report-not-an-object": lambda c: c.update(report=[]),
    "report-without-a-field": lambda c: c["report"].pop("epsilon"),
    "report-with-an-unknown-field": lambda c: c["report"].update(extra=1),
    "baseline-not-an-object": lambda c: c.update(baseline=["H"]),
}


@pytest.mark.parametrize("fault", CHECKPOINT_FAULTS.values(), ids=CHECKPOINT_FAULTS)
def test_small_gsa_run_recomputes_a_checkpoint_with_a_bad_field(
        small_gsa_run, tmp_path, capsys, fault):
    # reported on one stderr line, recomputed, and every pinned file of the
    # uninterrupted run written
    out = tmp_path / "g"
    shutil.copytree(small_gsa_run, out)
    checkpoint = out / "checkpoints" / "iteration_00.json"
    payload = json.loads(checkpoint.read_text())
    fault(payload)
    checkpoint.write_text(json.dumps(payload, sort_keys=True) + "\n")
    capsys.readouterr()
    check_small_gsa_run(out)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"unreadable checkpoint {checkpoint}: ")
    assert err[0].endswith("; recomputing")


def test_small_gsa_run_pin_two_jobs(tmp_path):
    check_small_gsa_run(tmp_path / "g", "--jobs", "2")


# the two ways a process enters the CLI, each calling main() with no argv;
# the console script's form reports the freeze count it exits with
ENTRY_FORMS = {
    "module": ["-m", "duogame.cli"],
    "console-script": [
        "-c", "import atexit, gc, sys; "
              "atexit.register(lambda: print('freeze count', gc.get_freeze_count(), "
              "file=sys.stderr)); "
              "sys.argv[0] = 'duogame'; from duogame.cli import main; sys.exit(main())"],
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("form", sorted(ENTRY_FORMS))
def test_small_gsa_run_pin_process_entry(tmp_path, form, jobs):
    out = tmp_path / "g"
    proc = subprocess.run(
        [sys.executable, *ENTRY_FORMS[form], "gsa",
         "--config", str(GOLDEN / "small_gsa_config.json"), "--out", str(out),
         "--jobs", jobs],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src")),
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    check_small_gsa_outputs(out)
    if form == "console-script":
        # the process entry froze the import-time heap
        assert int(re.search(r"freeze count (\d+)", proc.stderr).group(1)) > 0


def run_digests(out) -> dict:
    """sha256 of each file a ``gsa`` run wrote, by its path under ``out``;
    the JSON files re-dumped with their sorted keys, less the run's timings
    and its output directory."""
    digests = {}
    for path in sorted(out.rglob("*")):
        if path.is_dir():
            continue
        data = path.read_bytes()
        if path.suffix == ".json":
            obj = json.loads(data)
            obj.pop("out_dir", None)
            if isinstance(obj.get("report"), dict):
                obj["report"].pop("runtime_seconds", None)
            data = json.dumps(obj, sort_keys=True).encode()
        digests[path.relative_to(out).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.mark.parametrize("jobs", [1, 2])
def test_topup_gsa_run_pin(tmp_path, jobs):
    # two iterations of small replications, 126 rows in six source calls:
    # two initial batches and four value-of-information top-ups of 4, 6 and
    # 12 rows a profile; every file the run writes
    assert main(["gsa", "--config", str(GOLDEN / "topup_gsa_config.json"),
                 "--out", str(tmp_path), "--jobs", str(jobs)]) == 0
    pins = json.loads((GOLDEN / "topup_gsa_hashes.json").read_text())
    assert run_digests(tmp_path) == pins[f"jobs_{jobs}"]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("call", range(6))
def test_topup_gsa_run_resumed_after_interrupt_at_each_call(tmp_path, monkeypatch,
                                                            call, jobs):
    # the run is interrupted as its call-th source call starts, then run
    # again: it restores the iteration it finished, if any, recomputes the
    # rest and writes every file of the uninterrupted run
    args = ["gsa", "--config", str(GOLDEN / "topup_gsa_config.json"),
            "--out", str(tmp_path), "--jobs", str(jobs)]
    made, stop = [], call + 1     # the call to interrupt, counted from 1
    source_call = SimulationPayoffSource.__call__

    def counted(self, *args, **kwargs):
        made.append(None)
        if len(made) == stop:
            raise KeyboardInterrupt
        return source_call(self, *args, **kwargs)

    monkeypatch.setattr(SimulationPayoffSource, "__call__", counted)
    with pytest.raises(KeyboardInterrupt):
        main(args)
    assert len(made) == stop
    made.clear()
    stop = None
    assert main(args) == 0
    # iteration 0 makes the first two calls, iteration 1 the other four
    assert len(made) == (6 if call < 2 else 4)
    pins = json.loads((GOLDEN / "topup_gsa_hashes.json").read_text())
    assert run_digests(tmp_path) == pins[f"jobs_{jobs}"]


def test_topup_gsa_run_recomputes_a_checkpoint_that_is_not_an_object(tmp_path,
                                                                      capsys):
    # valid JSON but no checkpoint: reported on one stderr line, recomputed,
    # and every file of the uninterrupted run written
    args = ["gsa", "--config", str(GOLDEN / "topup_gsa_config.json"),
            "--out", str(tmp_path), "--jobs", "1"]
    assert main(args) == 0
    checkpoint = tmp_path / "checkpoints" / "iteration_00.json"
    checkpoint.write_text("[]\n")
    capsys.readouterr()
    assert main(args) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"unreadable checkpoint {checkpoint}: ")
    assert err[0].endswith("; recomputing")
    pins = json.loads((GOLDEN / "topup_gsa_hashes.json").read_text())
    assert run_digests(tmp_path) == pins["jobs_1"]


@pytest.mark.slow
def test_paper_scale_gsa_run_pin(tmp_path, capsys):
    # the shipped default config at two jobs: five iterations whose
    # value-of-information top-ups sample most profiles to the cap of 500,
    # and whose stability analyses draw from banks of up to 480 samples a
    # cell; every payoff matrix, trace, figure table, report and checkpoint
    t0 = time.perf_counter()
    assert main(["gsa", "--jobs", "2", "--out", str(tmp_path)]) == 0
    wall = time.perf_counter() - t0
    with capsys.disabled():
        print(f"\npaper-scale gsa run: {wall:.1f} s wall")
    pins = json.loads((GOLDEN / "paper_gsa_hashes.json").read_text())
    assert run_digests(tmp_path) == pins
