"""Differential fuzz of the replication kernel.

Strategy pairs are drawn with a seeded generator from the levels of
``factors.FACTOR_DEFS``, quiet, with noise (``sigma_*`` > 0 on some
companies) or under ``deterministic_marketing``, each with a drawn
replication seed. Every drawn (pair, seed) must give the same payoff bytes
however it is computed: alone, in a pass of 15 rows or of 70, on either
sub-step body, split into passes of either body at one or two ``jobs``,
with every market agent scored exactly, and exactly swapped under
``mirror`` with the pair swapped; and every company's stocks must move by
exactly what its ``FlowLedger`` booked. Diverging pairs planted among
drawn rows at seeded positions must report the same row, seed, day and
message at every width, on either body and at every ``jobs``, as the lone
replay of that row. Every path shares each day's noise draws, so those
alone are checked against numpy's own generators. The one-row replays, the
largest share of the module's time, are marked ``slow``.

Mutations of a copy of the package, and what the module makes of them:
- a row stream off by one (row ``r`` given row ``r + 1``'s company
  streams): 12 failures, in the alone, both-bodies and pass-split checks;
- ``np.power`` in place of C ``pow`` in the array pricing: 12 failures, in
  the same checks;
- a swapped noise order (each day's normals drawn in reverse field order):
  caught only by the check against numpy, on the noisy and deterministic
  draws;
- a market rounding bound of ``2**-50 M`` in place of ``2**-40 M``: not
  caught. No drawn agent's float score difference errs by more than
  ``2**-50 M``, so the exact scores agree; ``test_market.py``'s agents
  planted within a row's bound catch it.
"""

from dataclasses import replace

import numpy as np
import pytest

from duogame import market, runner
from duogame.errors import ReplicationError
from duogame.factors import FACTOR_DEFS, LEVEL_LABELS, materialize
from duogame.runner import (
    CompanySpec,
    CostRates,
    SimulationSettings,
    estimate_payoffs,
    run_replication,
    step_company,
)
from duogame.supply_chain import ZERO_NOISE, FlowLedger, SDParams, SDState

ROWS = 70
SETTINGS = SimulationSettings(run_length_days=60)
RATES = CostRates()
SIGMAS = ("sigma_wip", "sigma_prod", "sigma_order", "sigma_inv")
VARIANTS = {"quiet": 401, "noisy": 402, "deterministic": 403}


def draw(variant):
    """``ROWS`` drawn spec pairs, their seeds and the settings they run under."""
    rng = np.random.default_rng(VARIANTS[variant])

    def spec():
        spec = materialize({f.name: LEVEL_LABELS[rng.integers(4)] for f in FACTOR_DEFS})
        if variant != "quiet" and rng.random() < 0.5:
            sigmas = {name: float(rng.uniform(0.5, 8.0)) for name in SIGMAS
                      if rng.random() < 0.6}
            spec.sd = replace(spec.sd, **(sigmas or {"sigma_order": 4.0}))
        return spec

    pairs = [(spec(), spec()) for _ in range(ROWS)]
    # seeds of every size up to 2**128
    seeds = [int.from_bytes(rng.bytes(16), "little") >> int(rng.integers(0, 128))
             for _ in range(ROWS)]
    settings = replace(SETTINGS, deterministic_marketing=variant == "deterministic")
    return pairs, seeds, settings


def payoffs(pairs, seeds, settings, mirror=False):
    return estimate_payoffs(pairs, settings, RATES, len(seeds), seeds, mirror=mirror)


@pytest.fixture(scope="module", params=list(VARIANTS))
def drawn(request):
    pairs, seeds, settings = draw(request.param)
    noisy = [any(getattr(spec.sd, name) for name in SIGMAS) for pair in pairs for spec in pair]
    assert any(noisy) == (request.param != "quiet") and not all(noisy)
    return pairs, seeds, settings, payoffs(pairs, seeds, settings)


@pytest.mark.slow
def test_rows_alone_and_at_width_15(drawn):
    pairs, seeds, settings, together = drawn
    for j in range(ROWS):
        alone = payoffs(pairs[j:j + 1], seeds[j:j + 1], settings)
        assert alone.tobytes() == together[j:j + 1].tobytes(), j
    for lo in (0, 15, 30, 45, ROWS - 15):
        part = payoffs(pairs[lo:lo + 15], seeds[lo:lo + 15], settings)
        assert part.tobytes() == together[lo:lo + 15].tobytes(), lo


@pytest.mark.slow
def test_both_sub_step_bodies(drawn, monkeypatch):
    pairs, seeds, settings, together = drawn
    monkeypatch.setattr(runner, "WIDE", ROWS + 1)      # 70 rows in plain floats
    assert payoffs(pairs, seeds, settings).tobytes() == together.tobytes()
    monkeypatch.setattr(runner, "WIDE", 1)             # one row as arrays
    for j in range(0, ROWS, 7):
        alone = payoffs(pairs[j:j + 1], seeds[j:j + 1], settings)
        assert alone.tobytes() == together[j:j + 1].tobytes(), j


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("pass_rows, widths", [(6, {5, 6}), (16, {11, 12, 14})],
                         ids=["float-passes", "array-passes"])
def test_rows_split_into_passes(drawn, monkeypatch, pass_rows, widths, jobs, executor):
    # the 70 rows split into passes of 5-6 rows, run in plain floats, or of
    # 11-14, run as arrays, in process or on two workers
    pairs, seeds, settings, together = drawn
    monkeypatch.setattr(runner, "PASS_ROWS", pass_rows)
    calls = []
    run_rows = runner._run_rows

    def recorded(setups, index, pass_seeds, *args):
        calls.append(len(pass_seeds))
        return run_rows(setups, index, pass_seeds, *args)

    monkeypatch.setattr(runner, "_run_rows", recorded)
    split = estimate_payoffs(pairs, settings, RATES, ROWS, seeds, jobs=jobs,
                             executor=executor)
    assert split.tobytes() == together.tobytes()
    if jobs == 1:       # the workers' calls are not seen here
        assert sum(calls) == ROWS and set(calls) <= widths and len(calls) > 1
        assert {width >= runner.WIDE for width in calls} == {pass_rows == 16}


def test_noise_drawn_in_field_order(drawn, monkeypatch):
    # every path above shares the day's noise draws, so they are checked
    # against numpy: a noisy company's own stream draws its period levels,
    # then each day one normal per nonzero sigma in NoiseDraws field order
    pairs, seeds, settings, together = drawn
    days = []
    noise = runner._Rows._noise

    def recorded(self):
        draws = noise(self)
        days.append(draws)
        return draws

    monkeypatch.setattr(runner._Rows, "_noise", recorded)
    assert payoffs(pairs, seeds, settings).tobytes() == together.tobytes()
    expected = np.zeros((settings.run_length_days, 4, ROWS, 2))
    for r, pair in enumerate(pairs):
        for i, spec in enumerate(pair):
            sigmas = [getattr(spec.sd, name) for name in SIGMAS]
            if not any(sigmas):
                continue
            rng = np.random.default_rng(np.random.SeedSequence(seeds[r], spawn_key=(i + 1,)))
            for day in range(settings.run_length_days):
                if day % settings.marketing_period == 0 and not settings.deterministic_marketing:
                    rng.random(2)
                for k, sigma in enumerate(sigmas):
                    if sigma > 0:
                        expected[day, k, r, i] = rng.normal(0, sigma)
    if expected.any():
        assert np.array(days).tobytes() == expected.tobytes()
    else:
        assert days == [None] * settings.run_length_days


def test_mirror_swaps_exactly(drawn):
    pairs, seeds, settings, together = drawn
    swapped = payoffs([(b, a) for a, b in pairs], seeds, settings, mirror=True)
    assert swapped.tobytes() == np.ascontiguousarray(together[:, ::-1]).tobytes()


class _NothingSure:
    """numpy, as the market module calls it, but with no agent's score
    difference beyond its rounding bound."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def greater(a, b, out):
        out[...] = False
        return out


def test_every_agent_scored_exactly(drawn, monkeypatch):
    # with every agent of every row-day sent to the exact scores, each
    # decision, and so each payoff, is the one the score difference made
    pairs, seeds, settings, together = drawn
    stepped, scored = [], []
    step, exact = market.ConsumerMarket.step, market.ConsumerMarket._exact

    def counted_step(self, prices, *rest, **options):
        stepped.append(len(prices) * self.n)
        return step(self, prices, *rest, **options)

    def counted_exact(self, rows, *rest):
        scored.append(rows.size)
        return exact(self, rows, *rest)

    monkeypatch.setattr(market, "np", _NothingSure())
    monkeypatch.setattr(market.ConsumerMarket, "step", counted_step)
    monkeypatch.setattr(market.ConsumerMarket, "_exact", counted_exact)
    assert payoffs(pairs, seeds, settings).tobytes() == together.tobytes()
    assert sum(scored) == sum(stepped) > 0


@pytest.mark.parametrize("wide", [True, False], ids=["array", "float"])
def test_stocks_conserved_through_ledger(drawn, monkeypatch, wide):
    # each stepped state (one per pass in arrays, one per company in plain
    # floats) books every sub-step's net flows: its stocks end where their
    # start plus the booked flows puts them
    pairs, seeds, settings, _ = drawn
    books = {}

    def ledgered(state, p, order_rate, noise=ZERO_NOISE, dt=0.25, ledger=None):
        if id(state) not in books:
            books[id(state)] = (state, {name: np.copy(value)
                                        for name, value in state.stocks().items()},
                                FlowLedger())
        return step_company(state, p, order_rate, noise, dt, books[id(state)][2])

    monkeypatch.setattr(runner, "step_company", ledgered)
    monkeypatch.setattr(runner, "WIDE", 1 if wide else ROWS + 1)
    rows = 20
    payoffs(pairs[:rows], seeds[:rows], settings)
    assert len(books) == (1 if wide else 2 * rows)
    for state, start, ledger in books.values():
        for name in SDState.STOCK_FIELDS:
            end = np.asarray(getattr(state, name))
            assert end.shape == start[name].shape
            scale = np.maximum(np.maximum(abs(end), abs(start[name])), 1.0)
            drift = abs((end - start[name]) - ledger.flows[name]) / scale
            assert drift.max() < 1e-9, (name, drift.max())


# without the price band a large coverage capacity lets the market price run
# away, and order noise makes the day seed-dependent: in 32 days seed 0
# diverges on day 30 and seed 1 on day 31
BAD = (CompanySpec(sd=SDParams(price_sens_invcov=-0.9, max_inv_cov=1e6,
                               mp_cap_ratio=float("inf"), sigma_order=20.0)),) * 2
DIVERGING = replace(SETTINGS, run_length_days=32)


@pytest.fixture(scope="module")
def lone_failure():
    with np.errstate(all="ignore"), pytest.raises(ReplicationError) as err:
        run_replication(BAD, DIVERGING, 1)
    return err.value


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("width", [1, runner.WIDE - 1, runner.WIDE, ROWS],
                         ids=["one", "below-WIDE", "WIDE", str(ROWS)])
def test_divergence_reported_alike_at_every_width(width, jobs, lone_failure, monkeypatch,
                                                   executor):
    # BAD with seed 1 at the lower of two seeded positions (the only one at
    # width 1), with seed 0 at the higher: a pass meets the higher row first,
    # on day 30, and must re-run the rows before it to find the lower one,
    # on day 31
    pairs, seeds, _ = draw("quiet")
    pairs, seeds = pairs[:width], seeds[:width]
    clean_seeds = list(seeds)
    calls = []
    run_rows = runner._run_rows

    def recorded(setups, index, pass_seeds, *args):
        calls.append(list(pass_seeds))
        return run_rows(setups, index, pass_seeds, *args)

    monkeypatch.setattr(runner, "_run_rows", recorded)
    clean = estimate_payoffs(pairs, DIVERGING, RATES, width, seeds, jobs=jobs,
                             executor=executor)
    assert np.isfinite(clean).all()
    spots = sorted(np.random.default_rng(width).choice(width, min(2, width),
                                                       replace=False).tolist())
    for spot, seed in zip(spots, (1, 0)):
        pairs[spot], seeds[spot] = BAD, seed
    with np.errstate(all="ignore"), pytest.raises(ReplicationError) as err:
        estimate_payoffs(pairs, DIVERGING, RATES, width, seeds, jobs=jobs,
                         executor=executor)
    assert ((err.value.index, err.value.seed, err.value.day, str(err.value))
            == (spots[0], 1, 31, str(lone_failure)))
    if jobs == 1:
        # one pass when clean; failing, only the rows below each failure again
        assert calls == [clean_seeds, seeds] + [seeds[:spot] for spot in spots[::-1] if spot]
