"""Game solving and analysis: the iterative refine-sample-solve-evaluate loop.

Each iteration builds a strategy set from the factor plan, estimates the
symmetric payoff matrix by simulation (with value-of-information top-ups and
tail trimming), solves for pure tolerance equilibria, screens factor
significance, refines the plan (or follows an explicit schedule), and
evaluates equilibrium strictness and stability.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from .doe import FactorEffect, doe_significance
from .draws import IndexDraws
from .errors import ParameterError, ReplicationError
from .factors import (
    FactorPlan,
    detailed_children,
    materialize,
    refine_plan,
)
from .game import EmpiricalGame, StrategySpace, symmetric_profile_count
from .runner import (
    CostRates,
    SimulationSettings,
    estimate_payoffs,
    replication_seeds,
)
from .stats import confidence_interval, decide_sample_size, t_test, trim_samples


class StabilityClass(Enum):
    ASYMPTOTICALLY_STABLE = "asymptotically_stable"
    MARGINALLY_STABLE = "marginally_stable"
    INSTABLE = "instable"


@dataclass
class SamplingPolicy:
    initial_n: int = 70
    trim_per_tail: int = 10
    cap: int = 500
    ecvi_floor: float = 50.0
    confidence: float = 0.95
    batch: int = 10

    def validate(self):
        if self.initial_n < 1:
            raise ParameterError("initial_n must be >= 1")
        if self.trim_per_tail < 0:
            raise ParameterError(f"trim_per_tail must be >= 0, got {self.trim_per_tail}")
        if 2 * self.trim_per_tail >= self.initial_n:
            raise ParameterError("trim must leave samples behind: 2*trim < n")
        if self.cap < self.initial_n:
            raise ParameterError("cap must be >= initial_n")
        # a profile's replication indices are one spawn-key word each
        # (runner.replication_seeds)
        if self.cap > 1 << 32:
            raise ParameterError(f"sampling.cap must be at most 2**32, got {self.cap}")
        if not 0.0 < self.confidence < 1.0:
            raise ParameterError("confidence must be in (0, 1)")
        if self.batch < 1:
            raise ParameterError("batch must be >= 1")
        if not self.ecvi_floor >= 0:    # or NaN
            raise ParameterError(f"ecvi_floor must be >= 0, got {self.ecvi_floor}")
        return self

    @property
    def alpha(self) -> float:
        return 1.0 - self.confidence


STABILITY_NOISE = ("resample", "none")
STABILITY_UPDATE = ("alternating", "simultaneous")


@dataclass
class GsaSettings:
    """Loop-level knobs independent of the simulation scenario."""

    epsilon_solve: float = 0.0
    epsilon_stability: float = 1500.0
    stability_steps: int = 2000
    stability_noise: str = "resample"      # one of STABILITY_NOISE
    stability_update: str = "alternating"  # one of STABILITY_UPDATE
    neighbor_count: int = 10
    alpha: float = 0.05
    max_iterations: int = 10
    tolerance_grid: tuple = tuple(float(x) for x in np.linspace(0, 3000, 13))
    run_stability: bool = True

    def validate(self):
        if self.stability_steps < 10:
            raise ParameterError("stability_steps must be >= 10")
        if self.stability_noise not in STABILITY_NOISE:
            raise ParameterError(
                f"stability_noise must be one of {', '.join(STABILITY_NOISE)}")
        if self.stability_update not in STABILITY_UPDATE:
            raise ParameterError(
                f"stability_update must be one of {', '.join(STABILITY_UPDATE)}")
        if not (self.epsilon_solve >= 0 and self.epsilon_stability >= 0):  # or NaN
            raise ParameterError("epsilon_solve and epsilon_stability must be >= 0")
        if not all(eps >= 0 for eps in self.tolerance_grid):
            raise ParameterError("tolerance_grid points must be >= 0")
        if self.neighbor_count < 0:
            raise ParameterError("neighbor_count must be >= 0")
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError("alpha must be in (0, 1)")
        if self.max_iterations < 1:
            raise ParameterError("max_iterations must be >= 1")
        return self


@dataclass
class GsaIterationReport:
    index: int
    g: int
    factors: dict                  # name -> list of level labels
    n_strategies: int
    n_profiles: int
    sample_sizes: dict             # profile tag -> total replications
    effects: list                  # per-factor dicts (two-level iterations)
    equilibria: list               # dicts with profile, labels, means, half-widths
    solution: dict                 # the profile used for evaluation
    epsilon: float
    tolerance_curve: list          # (epsilon, fraction, n_symmetric, n_other)
    neighbor_p_values: dict        # player -> list of p-values
    cross_iteration_p: dict        # earlier index -> one-sided p-value
    stability: dict | None
    runtime_seconds: float
    truncated: bool = False


@dataclass
class GsaResult:
    reports: list
    games: list
    baselines: list


def profile_tag(iteration: int, a: int, b: int) -> int:
    return (iteration << 20) | (a << 10) | b


class SimulationPayoffSource:
    """Default payoff source: the coupled simulator behind a seed protocol,
    its passes split for ``jobs`` workers of ``executor``."""

    def __init__(self, settings: SimulationSettings, rates: CostRates,
                 master_seed: int, sd_defaults=None, spec_defaults=None,
                 jobs: int = 1, executor=None):
        self.settings = settings
        self.rates = rates
        self.master_seed = master_seed
        self.sd_defaults = sd_defaults
        self.spec_defaults = spec_defaults
        self.jobs, self.executor = jobs, executor

    def specs_for(self, labels_a: dict, labels_b: dict, baseline: dict):
        spec_a = materialize(labels_a, baseline, self.sd_defaults, self.spec_defaults)
        spec_b = materialize(labels_b, baseline, self.sd_defaults, self.spec_defaults)
        return spec_a, spec_b

    def __call__(self, labels_a, labels_b, baseline, n, tags, start=0):
        """Payoffs of replications ``start`` to ``start + n`` of each profile,
        shape (profiles, n, 2), for equal-length sequences of row labels,
        column labels and profile tags, simulated together. Each distinct
        strategy, its labels in key order, is materialized once."""
        made = {}

        def spec(labels):
            key = tuple(labels.items())
            if key not in made:
                made[key] = materialize(labels, baseline, self.sd_defaults,
                                        self.spec_defaults)
            return made[key]

        pairs = [(spec(la), spec(lb)) for la, lb in zip(labels_a, labels_b)]
        specs = [pair for pair in pairs for _ in range(n)]
        seeds = replication_seeds(self.master_seed, tags, n, start=start)
        payoffs = estimate_payoffs(specs, self.settings, self.rates, len(seeds),
                                   seeds, jobs=self.jobs, executor=self.executor)
        return payoffs.reshape(len(pairs), n, 2)


def _replay_labels(labels: dict, baseline: dict) -> dict:
    """One strategy's labels over the baseline as the single mapping that
    ``duogame simulate --profile`` takes: baseline entries the labels
    override are left out, so the key order does not matter."""
    covered = {child for name in labels for child in detailed_children(name)}
    kept = {name: label for name, label in baseline.items() if name not in covered}
    return {**kept, **labels}


def _simulate_profile(source, labels, a, b, baseline, policy, tag):
    """Initial batch plus value-of-information top-up for one profile, or for
    equal-length sequences ``a``, ``b`` and ``tag`` of profiles together;
    returns the (n, 2) payoffs of one profile, or a list of them.

    Both phases go through ``sample``: replications ``start`` to ``start +
    counts[k]`` of each profile ``k``, one source call per distinct nonzero
    count, the smallest first. A diverging replication is re-raised, mapped
    through its call's group, with the profile, its tag, the replication's
    index in the profile's stream and both strategies' factor labels over
    the baseline (as JSON, the form ``duogame simulate --profile`` and
    ``--opponent`` take); those and the error's seed replay it.
    """
    single = isinstance(tag, (int, np.integer))
    if single:
        a, b, tag = [a], [b], [tag]

    def sample(counts, start):
        drawn = {}
        for n in sorted(set(counts) - {0}):
            group = [k for k, count in enumerate(counts) if count == n]
            try:
                drawn.update(zip(group, source(
                    [labels[a[k]] for k in group], [labels[b[k]] for k in group],
                    baseline, n, [tag[k] for k in group], start=start)))
            except ReplicationError as exc:
                k, j = group[exc.index // n], start + exc.index % n
                row, col = (json.dumps(_replay_labels(labels[x], baseline), sort_keys=True)
                            for x in (a[k], b[k]))
                raise ReplicationError(
                    f"profile ({a[k]}, {b[k]}), tag {tag[k]}, replication {j} "
                    f"(seed {exc.seed}), strategies {row} vs {col}: {exc}",
                    day=exc.day, seed=exc.seed, index=j) from exc
        return drawn

    n = policy.initial_n
    payoffs = sample([n] * len(tag), 0)
    # the top-up rule: each profile's extra count from its initial payoffs
    extra = [0 if n < 2 or policy.cap <= n else decide_sample_size(
        n, float(max(p[:, 0].std(ddof=1), p[:, 1].std(ddof=1))), policy.ecvi_floor,
        policy.cap, policy.batch, policy.alpha) - n for p in payoffs.values()]
    more = sample(extra, n)
    payoffs = [np.vstack([p, more[k]]) if k in more else p for k, p in payoffs.items()]
    return payoffs[0] if single else payoffs


def build_empirical_game(plan: FactorPlan, source, baseline: dict,
                         policy: SamplingPolicy, iteration: int):
    """Simulate every profile of ``game.profiles()`` for the plan's strategy
    set and store each player's samples trimmed by ``policy.trim_per_tail``
    per tail; returns the game and each profile's replication count.

    All profiles are sampled together by ``_simulate_profile``: every initial
    batch in one source call, the top-ups in one call per distinct extra
    count, run in lockstep blocks on the source's worker processes.
    """
    labels = plan.strategy_labels()
    game = EmpiricalGame(StrategySpace(labels))
    profiles = game.profiles()
    rows, cols = zip(*profiles)
    tags = [profile_tag(iteration, a, b) for a, b in profiles]
    results = _simulate_profile(source, labels, rows, cols, baseline, policy,
                                tags)
    sizes = {}
    for (a, b), payoffs in zip(profiles, results):
        sizes[f"{a},{b}"] = int(payoffs.shape[0])
        game.set_samples((a, b), trim_samples(payoffs[:, 0], policy.trim_per_tail),
                         trim_samples(payoffs[:, 1], policy.trim_per_tail))
    return game, sizes


def screen_effects(game: EmpiricalGame, plan: FactorPlan, alpha: float):
    """Main-effect significance of each factor on the own payoff.

    One observation per (profile, player role): the player's own factor
    levels against the trimmed mean payoff. Only defined for two-level
    iterations.
    """
    if plan.level_count() != 2:
        return []
    labels = plan.strategy_labels()
    names = plan.names()
    rows = []
    responses = []
    for (a, b) in game.profiles():
        for player, own in ((0, a), (1, b)):
            strat = labels[own]
            rows.append([0 if strat[nm] == "L" else 1 for nm in names])
            responses.append(game.payoff((a, b), player))
    return doe_significance(np.array(rows), np.array(responses), alpha,
                            factor_names=names)


def tolerance_sweep(game: EmpiricalGame, epsilons):
    out = []
    profiles = game.profiles()
    for eps in epsilons:
        eq = game.pure_nash(float(eps))
        sym = sum(1 for a, b in eq if a == b)
        out.append({"epsilon": float(eps),
                    "fraction": len(eq) / len(profiles),
                    "n_symmetric": sym, "n_other": len(eq) - sym})
    return out


def neighbor_strictness_test(game: EmpiricalGame, profile, player: int,
                             k_neighbors: int, alpha: float = 0.05):
    """P-values of the solution payoff against its nearest payoff neighbors."""
    if k_neighbors == 0:
        return []
    here_samples = game.samples(profile, player)
    others = [p for p in game.profiles() if p != profile]
    rows, cols = np.array(others, dtype=int).reshape(-1, 2).T
    distance = np.abs(game.mean[player, rows, cols] - here_samples.mean())
    # a stable sort keeps profiles() order among equal distances
    nearest = np.argsort(distance, kind="stable")[:k_neighbors]
    return [t_test(here_samples, game.samples(others[i], player)) for i in nearest]


@dataclass
class StabilityReport:
    ratios: dict
    classes: dict = field(repr=False)
    epsilon: float = 0.0
    steps: int = 0

    def as_dict(self):
        return {"ratios": dict(self.ratios), "epsilon": self.epsilon,
                "steps": self.steps}


def stability_analysis(game: EmpiricalGame, solution, epsilon: float,
                       steps: int = 2000, noise: str = "resample",
                       update: str = "alternating",
                       seed: int = 0) -> StabilityReport:
    """Classify every initial profile by its noisy best-response trajectory.

    From each ordered initial profile the players repeatedly best-respond,
    re-drawing stored payoff samples each move under the ``resample`` noise
    model. The final tenth of the trajectory decides the class: payoffs
    pinned to the solution payoff are asymptotically stable, payoffs inside
    the tolerance band are marginally stable, anything else is instable.

    All n² trajectories advance together. Under ``resample`` each move draws
    the sample indices of every start at once: they are exactly those of
    ``default_rng(child).integers(0, counts)`` on child n² of
    ``SeedSequence(seed)``. Child i breaks the ties of start i (row-major),
    and only those.

    A move gathers the mover's (n, n²) cells, each the game's ``offset``
    into its sample ``bank`` packed above a ``count``, draws bank positions
    by ``draws.IndexDraws.folded`` (from the raw PCG64 words, the offset
    added inside Lemire's product; numpy itself draws the rare move the
    product cannot vouch for), gathers the samples and best-responds.
    ``test_folded_draws_match_integers_plus_offsets`` in tests/test_gsa.py
    guards the draw, and ``lockstep_stability`` there is the loop's
    bit-for-bit oracle.
    """
    if noise not in STABILITY_NOISE:
        raise ParameterError(f"unknown noise model {noise!r}")
    if update not in STABILITY_UPDATE:
        raise ParameterError(f"unknown update rule {update!r}")
    if steps < 10:
        raise ParameterError("steps must be >= 10")
    if not epsilon >= 0:
        raise ParameterError("epsilon must be >= 0")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    game._require_complete()
    n = game.n
    u = game.mean

    sol_samples = game.samples(solution, 0)
    if sol_samples.size >= 2 and sol_samples.std(ddof=1) > 0:
        as_tol = max(confidence_interval(sol_samples)[1],
                     confidence_interval(game.samples(solution, 1))[1])
    else:
        as_tol = 1e-9
    # the largest payoff distance from the solution at each profile
    dist = np.abs(u - u[:, solution[0], solution[1], None, None]).max(axis=0)

    # column k of a player's table: its n candidates against opponent
    # strategy k; a move gathers one (n, n²) block, a column per start
    means = (u[0], u[1].T)
    resample = noise == "resample"
    root = np.random.SeedSequence(seed)

    def child(i):
        """Child i of ``root.spawn``, made only when it is used."""
        return np.random.SeedSequence(root.entropy, spawn_key=(i,),
                                      pool_size=root.pool_size)

    if resample:
        flat = game.bank
        if flat.size >= 2**32:
            raise ParameterError(f"cannot resample from {flat.size} stored "
                                 f"samples: at most 2**32 - 1")
        # one gather gives a cell's offset and count; a one-sample cell takes
        # no draw, so in a game with one the draw first gathers the others
        cells = (game.offset.astype(np.uint64) << np.uint64(32)
                 | game.count.astype(np.uint64))
        cells = (cells[0], cells[1].T)
        top = int(game.count.max()) if game.count.min() > 1 else None
        draws = IndexDraws(child(n * n))
    # without NaN payoffs every column holds a maximum, so n² maxima in all
    # mean that no column ties
    nan_free = not np.isnan(flat if resample else u).any()
    tie_rngs = {}

    a, b = np.divmod(np.arange(n * n), n)
    window = max(1, steps // 10)
    worst = np.zeros(n * n)  # worst payoff distance from the solution
    for step in range(steps):
        movers = ((step % 2,) if update == "alternating" else (0, 1))
        picks = [a, b]
        for player in movers:
            opp = b if player == 0 else a
            if resample:
                vals = flat.take(draws.folded(cells[player].take(opp, axis=1),
                                              top))
            else:
                vals = means[player].take(opp, axis=1)
            tied = vals == vals.max(axis=0)
            pick = tied.argmax(axis=0)
            if not (nan_free and np.count_nonzero(tied) == n * n):
                for r in np.flatnonzero(tied.sum(axis=0) > 1):
                    if r not in tie_rngs:
                        tie_rngs[r] = np.random.default_rng(child(r))
                    pick[r] = tie_rngs[r].choice(np.flatnonzero(tied[:, r]))
            picks[player] = pick
        a, b = picks
        if step >= steps - window:
            worst = np.maximum(worst, dist[a, b])

    order = list(StabilityClass)
    codes = np.where(worst <= as_tol, 0, np.where(worst <= epsilon, 1, 2)).tolist()
    classes = {divmod(i, n): order[c] for i, c in enumerate(codes)}
    ratios = {c.value: codes.count(k) / len(codes) for k, c in enumerate(order)}
    return StabilityReport(ratios=ratios, classes=classes, epsilon=epsilon,
                           steps=steps)


def _solution_profile(game: EmpiricalGame, equilibria):
    """Evaluation anchor: first symmetric equilibrium, else the best-payoff
    equilibrium, else the minimum-regret profile."""
    if equilibria:
        symmetric = [p for p in equilibria if p[0] == p[1]]
        if symmetric:
            return symmetric[0]
        return max(equilibria,
                   key=lambda p: game.payoff(p, 0) + game.payoff(p, 1))
    return game.min_regret_profile()


def run_gsa(plan: FactorPlan, policy: SamplingPolicy, source,
            gsa: GsaSettings | None = None, schedule=None,
            stability_seed: int = 1, checkpoints=None) -> GsaResult:
    """Execute the full loop and return per-iteration reports.

    With ``schedule`` given (a list of factor plans), refinement follows it
    verbatim; otherwise the adaptive rule drives the loop until level
    densification is exhausted. Factors leaving the active set are frozen at
    the latest solution's levels through a baseline that starts empty. An
    iteration runs (saved to the ``checkpoints`` store if one is given) or
    is restored from that store: its game, report and next baseline; the
    rest of it is one path. The worker count is the ``source``'s.
    """
    gsa = (gsa or GsaSettings()).validate()
    policy.validate()
    baseline = {}
    reports, games, baselines = [], [], []
    solution_samples = []         # pooled per-iteration solution payoffs

    iteration = 0
    current = plan
    while current is not None and iteration < gsa.max_iterations:
        restored = checkpoints.load(iteration) if checkpoints is not None else None
        if restored is not None:
            game, report, frozen = restored
        else:
            t0 = time.perf_counter()
            game, sizes = build_empirical_game(current, source, baseline, policy,
                                               iteration)
            labels = current.strategy_labels()
            equilibria = game.pure_nash(gsa.epsilon_solve)
            solution = _solution_profile(game, equilibria)
            effects = screen_effects(game, current, gsa.alpha)

            eq_entries = []
            for p in equilibria:
                entry = {"profile": list(p),
                         "labels": [labels[p[0]], labels[p[1]]],
                         "mean": [game.payoff(p, 0), game.payoff(p, 1)],
                         "half_width": [], "n": [game.sample_count(p, 0),
                                                 game.sample_count(p, 1)]}
                for player in (0, 1):
                    s = game.samples(p, player)
                    entry["half_width"].append(
                        confidence_interval(s, gsa.alpha)[1] if s.size >= 2 else 0.0)
                eq_entries.append(entry)

            neighbor_p = {str(player): neighbor_strictness_test(
                game, solution, player, gsa.neighbor_count, gsa.alpha)
                for player in (0, 1)}

            pooled = _pooled(game, solution)
            cross = {}
            for j, earlier in enumerate(solution_samples):
                if earlier.size >= 2 and pooled.size >= 2:
                    cross[str(j)] = t_test(earlier, pooled, alternative="less")

            stability = None
            if gsa.run_stability:
                stability = stability_analysis(
                    game, solution, gsa.epsilon_stability, gsa.stability_steps,
                    noise=gsa.stability_noise, update=gsa.stability_update,
                    seed=stability_seed + iteration).as_dict()

            report = GsaIterationReport(
                index=iteration, g=current.g,
                factors={f.name: list(f.levels) for f in current.factors},
                n_strategies=len(labels),
                n_profiles=symmetric_profile_count(len(labels)),
                sample_sizes=sizes,
                effects=[asdict(e) for e in effects],
                equilibria=eq_entries,
                solution={"profile": list(solution),
                          "labels": [labels[solution[0]], labels[solution[1]]],
                          "mean": [game.payoff(solution, 0),
                                   game.payoff(solution, 1)]},
                epsilon=gsa.epsilon_solve,
                tolerance_curve=tolerance_sweep(game, gsa.tolerance_grid),
                neighbor_p_values=neighbor_p,
                cross_iteration_p=cross,
                stability=stability,
                runtime_seconds=time.perf_counter() - t0)

            # freeze every active factor at the solution's row-strategy level
            frozen = dict(baseline)
            for name, label in labels[solution[0]].items():
                for child in detailed_children(name):
                    frozen[child] = label

            if checkpoints is not None:
                checkpoints.save(iteration, game, report, frozen)
        reports.append(report)
        games.append(game)
        baselines.append(baseline)
        solution_samples.append(_pooled(game, tuple(report.solution["profile"])))
        baseline = frozen
        iteration += 1
        if schedule is not None:
            current = schedule[iteration] if iteration < len(schedule) else None
        else:
            current = refine_plan(current, [FactorEffect(**e) for e in report.effects])

    if current is not None and reports:
        # the iteration budget ran out before refinement finished
        reports[-1].truncated = True

    return GsaResult(reports=reports, games=games, baselines=baselines)


def _pooled(game: EmpiricalGame, solution) -> np.ndarray:
    """Both players' samples at the solution, pooled for the cross-iteration test."""
    return np.concatenate([game.samples(solution, 0), game.samples(solution, 1)])
