"""Command line entry points.

Subcommands: simulate | estimate | solve | gsa | stability | report.
Exit codes: 0 on success, 2 for configuration/validation problems and for
an input file that cannot be read or an output path that cannot be written,
3 for runtime or numeric failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .config import default_config, load_config, save_config
from .errors import (
    ConfigError,
    DesignError,
    DuogameError,
    ParameterError,
    ReplicationError,
)
from .factors import validate_profile_values
from .game import symmetric_profile_count
from .gsa import (
    STABILITY_NOISE,
    STABILITY_UPDATE,
    SimulationPayoffSource,
    run_gsa,
    stability_analysis,
)
from .reporting import (
    CheckpointStore,
    parse_json_object,
    read_json_object,
    read_payoff_matrix,
    read_text,
    write_figure_data,
    write_iteration_report,
    write_json,
    write_payoff_matrix,
    write_trace_csv,
)
from .runner import (
    PASS_ROWS,
    SEED_LIMIT,
    compute_payoff,
    replication_seeds,
    run_replication,
)

VALIDATION_ERRORS = (ConfigError, ParameterError, DesignError, OSError)


def _config_from_args(args):
    """The config file's, or the default, config with the command line's
    overrides, validated together."""
    if getattr(args, "config", None):
        config = load_config(args.config)
    else:
        config = default_config()
    if getattr(args, "seed", None) is not None:
        config.master_seed = args.seed
    if getattr(args, "jobs", None) is not None:
        config.jobs = args.jobs
    if getattr(args, "out", None):
        config.out_dir = args.out
    return config.validate()


def _load_profile(raw: str | None) -> dict:
    """A profile given as a JSON object, or as the name of a file holding one."""
    if not raw:
        return {}
    text = raw if raw.lstrip().startswith("{") else read_text(raw, "profile")
    profile = parse_json_object(text, "profile")
    validate_profile_values(profile)
    return profile


@contextmanager
def _pool(jobs: int):
    """A run's one worker pool, or None at one job. Its workers start on the
    first task and serve every payoff call and solution trace of the run. On
    any exit, an error or an interrupt too, its queued work is cancelled, so
    the run waits only for the tasks already running."""
    if jobs == 1:
        yield None
        return
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(jobs)
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def _source(config, executor=None):
    return SimulationPayoffSource(config.settings, config.cost_rates,
                                  config.master_seed,
                                  sd_defaults=config.sd_defaults,
                                  spec_defaults=config.spec_defaults,
                                  jobs=config.jobs, executor=executor)


def _solution_trace(task) -> None:
    """Run one iteration's solution replication and write its daily trace;
    ``task`` is (specs, settings, seed, path)."""
    specs, settings, seed, path = task
    write_trace_csv(run_replication(specs, settings, seed), path)


def cmd_simulate(args) -> int:
    if args.n < 1:
        raise ParameterError(f"--n must be >= 1, got {args.n}")
    if args.replication_seed is not None and not 0 <= args.replication_seed < SEED_LIMIT:
        raise ParameterError(f"--replication-seed must be in [0, 2**128), "
                             f"got {args.replication_seed}")
    config = _config_from_args(args)
    profile = _load_profile(args.profile) or dict(config.default_profile)
    opponent = _load_profile(args.opponent) or profile
    source = _source(config)
    specs = source.specs_for(profile, opponent, baseline={})
    if args.replication_seed is None:
        seeds = replication_seeds(config.master_seed, 0, args.n)
    elif args.n == 1:
        seeds = [args.replication_seed]
    else:
        raise ParameterError("--replication-seed runs one replication; drop --n")
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    payoffs = []
    try:
        # in passes, so that one pass's daily series are held at a time
        for lo in range(0, len(seeds), PASS_ROWS):
            reps = run_replication(specs, config.settings, seeds[lo:lo + PASS_ROWS])
            for j, rep in enumerate(reps, lo):
                pay = compute_payoff(rep, config.cost_rates,
                                     config.settings.sunk_cost_mode)
                payoffs.append({"seed": rep.seed,
                                "payoff": [float(pay[0]), float(pay[1])]})
                if args.trace:
                    write_trace_csv(rep, out_dir / f"trace_{j:03d}.csv")
            del reps, rep
    except ReplicationError as exc:
        exc.index += lo
        raise
    means = np.mean([p["payoff"] for p in payoffs], axis=0)
    record = {"profile": profile, "n": args.n, "replications": payoffs,
              "mean": [float(means[0]), float(means[1])]}
    if opponent != profile:
        record["opponent"] = opponent
    write_json(record, out_dir / "payoffs.json")
    print(f"simulated {args.n} replications -> {out_dir / 'payoffs.json'}")
    return 0


def cmd_estimate(args) -> int:
    config = _config_from_args(args)
    plan = config.first_plan()
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    from .gsa import build_empirical_game, sample_sizes
    with _pool(config.jobs) as pool:
        game = build_empirical_game(plan, _source(config, pool), {},
                                    config.sampling, iteration=0)
    write_payoff_matrix(game, out_dir / "payoff_matrix.csv")
    write_json({"strategies": plan.strategy_labels(),
                "sample_sizes": sample_sizes(game, config.sampling)},
               out_dir / "strategies.json")
    print(f"estimated {game.n} strategies, "
          f"{symmetric_profile_count(game.n)} profiles -> {out_dir}")
    return 0


def cmd_solve(args) -> int:
    game = read_payoff_matrix(args.game)
    equilibria = game.pure_nash(args.epsilon)
    result = {
        "epsilon": args.epsilon,
        "equilibria": [{"profile": list(p),
                        "payoff": [game.payoff(p, 0), game.payoff(p, 1)],
                        "regret": game.regret(p)}
                       for p in equilibria],
        "min_regret_profile": list(game.min_regret_profile()),
    }
    write_json(result, args.out)
    return 0


def cmd_gsa(args) -> int:
    config = _config_from_args(args)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_config(config, out_dir / "config.json")

    with _pool(config.jobs) as pool:
        source = _source(config, pool)
        result = run_gsa(config.first_plan(), config.sampling, source,
                         gsa=config.gsa, schedule=config.schedule,
                         stability_seed=config.master_seed + 1,
                         checkpoints=CheckpointStore(out_dir, config.fingerprint()))
        tasks = []
        for report, baseline in zip(result.reports, result.baselines):
            solution = dict(report.solution["labels"][0])
            seed = replication_seeds(config.master_seed, (1 << 19) + report.index, 1)[0]
            tasks.append((source.specs_for(solution, solution, baseline),
                          config.settings, seed,
                          out_dir / f"solution_trace_{report.index:02d}.csv"))
        # one task per iteration, on the pool while the reports are written
        traces = (pool.map if pool else map)(_solution_trace, tasks)
        for report, game in zip(result.reports, result.games):
            write_iteration_report(report, out_dir / f"iteration_{report.index:02d}.json")
            write_payoff_matrix(game, out_dir / f"payoff_matrix_{report.index:02d}.csv")
        for _ in traces:
            pass

    write_figure_data(result.reports, out_dir)
    write_json(_summary([dataclasses.asdict(r) for r in result.reports]),
               out_dir / "summary.json")
    print(f"{len(result.reports)} iterations -> {out_dir}")
    return 0


def cmd_stability(args) -> int:
    game = read_payoff_matrix(args.game)
    if args.solution:
        try:
            a, b = (int(x) for x in args.solution.split(","))
        except ValueError:
            raise ParameterError(f"--solution must be two strategy indices "
                                 f"'a,b', got {args.solution!r}") from None
        solution = (a, b)
    else:
        solution = game.min_regret_profile()
    report = stability_analysis(game, solution, epsilon=args.epsilon,
                                steps=args.steps, seed=args.seed or 0,
                                noise=args.noise, update=args.update)
    write_json({"solution": list(solution), **report.as_dict()}, args.out)
    return 0


def _summary(rows) -> dict:
    """A run's summary from its iteration reports, as dicts."""
    return {
        "iterations": len(rows),
        "solution_payoffs": [r["solution"]["mean"] for r in rows],
        "equilibrium_counts": [len(r["equilibria"]) for r in rows],
        "stability": [r["stability"]["ratios"] if r["stability"] else None
                      for r in rows],
    }


def cmd_report(args) -> int:
    src = Path(args.dir)
    report_files = sorted(src.glob("iteration_*.json"))
    if not report_files:
        raise ConfigError(f"no iteration reports under {src}")
    rows = [read_json_object(f, "iteration report") for f in report_files]
    try:
        rows = [row["report"] for row in rows]
        summary = {
            **_summary(rows),
            "factors": [list(r["factors"]) for r in rows],
            "payoff_trend_increasing":
                rows[-1]["solution"]["mean"][0] > rows[0]["solution"]["mean"][0],
        }
    except (KeyError, IndexError, TypeError) as exc:
        raise ConfigError(f"an iteration report under {src} lacks a field the "
                          f"summary reads ({type(exc).__name__}: {exc})") from None
    write_json(summary, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duogame",
        description="Duopoly supply-chain market game: simulate, estimate, "
                    "solve and analyze.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (defaults ship built in)")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out", help="output directory or file")

    p = sub.add_parser("simulate", help="run replications of one profile")
    common(p)
    p.add_argument("--profile", help="JSON mapping of factor to level label")
    p.add_argument("--opponent",
                   help="the column player's labels, as --profile (default: --profile)")
    p.add_argument("--n", type=int, default=1, help="replication count")
    p.add_argument("--replication-seed", type=int,
                   help="run the one replication with this seed, such as one "
                        "a gsa failure names")
    p.add_argument("--trace", action="store_true",
                   help="write per-replication daily trace CSVs")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="estimate the first-iteration payoff matrix")
    common(p)
    p.add_argument("--jobs", type=int, help="parallel worker processes")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("solve", help="find pure tolerance equilibria of a matrix")
    p.add_argument("--game", required=True, help="payoff matrix CSV")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gsa", help="run the full solving-and-analysis loop")
    common(p)
    p.add_argument("--jobs", type=int, help="parallel worker processes")
    p.set_defaults(func=cmd_gsa)

    p = sub.add_parser("stability", help="best-response stability of a matrix")
    p.add_argument("--game", required=True, help="payoff matrix CSV")
    p.add_argument("--epsilon", type=float, default=1500.0)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--seed", type=int)
    p.add_argument("--noise", choices=STABILITY_NOISE, default="resample")
    p.add_argument("--update", choices=STABILITY_UPDATE, default="alternating",
                   help="best-response update rule, as the gsa config's "
                        "stability_update")
    p.add_argument("--solution", help="profile as 'a,b'; defaults to min regret")
    p.add_argument("--out")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("report", help="summarize a finished run directory")
    p.add_argument("--dir", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    """Run one subcommand. With ``argv`` None (the console script, ``python
    -m duogame.cli``) this is the process entry and freezes the import-time
    heap first; with ``argv`` given it leaves the interpreter's state alone."""
    if argv is None:
        # The imports leave about 43,000 objects, 19-38 ms a full collection.
        # Frozen, the interpreter's exit collections skip them (exit took
        # 119 ms median, then 30 ms), as do forked workers'. Callers with
        # argv live on in long processes, where frozen cycles are never freed.
        gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DuogameError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
