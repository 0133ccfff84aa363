"""Worker process: set up duogame, run one workload's units, check outputs.

``run.py`` spawns this file once per measured run and a few more times with
``--setup-only`` to time set-up in fresh processes. The worker writes its
result as JSON to the file named by ``--result``; its own standard output
carries only what the program prints.

Units:
- sample: one first-iteration profile sampled under the paper policy
  through ``duogame.gsa._simulate_profile`` (the step the game build runs
  per profile, in process or in its pool), then trimmed.
- analyze: the per-iteration analysis sequence on one synthetic game, then a
  matrix round trip and the same solve and stability on the imported game.
- gsa_loop: ``python -m duogame.cli gsa`` in a subprocess, then the same
  command again on the same ``--out``, which resumes from its checkpoints.

An untraced run records the host speed beside its units (``probe.py``).
A traced run (``--trace 1``) runs its first unit twice at one worker
process: once unwrapped, then with the span recorder installed. ``gsa_loop``
runs both passes in process at ``--jobs 1`` so that every span is recorded,
plus the untraced subprocess unit for the pool's CPU utilisation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import probe
import spans

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PINS = Path(__file__).resolve().parent / "pins.json"
MAX_PROBES = 8
WORK_NICENESS = 10

# wrappers that must record calls on each workload's traced run
EXPECTED_CALLS = {
    "sample": ["config.load_config", "network.generate_ba_network",
               "gsa.simulate_profile", "gsa.source_call",
               "runner.estimate_payoffs", "runner.run_replication",
               "runner.compute_payoff", "supply_chain.steady_state",
               "supply_chain.step_company", "supply_chain.step_pricing",
               "market.step", "market.neighbor_influence",
               "factors.materialize", "stats.decide_sample_size",
               "stats.trim_samples"],
    "analyze": ["config.load_config", "network.generate_ba_network",
                "game.pure_nash", "game.min_regret_profile", "game.payoff",
                "gsa.screen_effects", "doe.doe_significance",
                "gsa.tolerance_sweep", "gsa.neighbor_strictness_test",
                "stats.t_test", "stats.confidence_interval",
                "gsa.stability_analysis", "reporting.write_payoff_matrix",
                "reporting.read_payoff_matrix"],
    "gsa_loop": ["cli.main", "config.load_config", "config.save_config",
                 "network.generate_ba_network", "gsa.run_gsa",
                 "gsa.build_empirical_game", "gsa.simulate_profile",
                 "gsa.source_call", "runner.estimate_payoffs",
                 "runner.run_replication", "runner.compute_payoff",
                 "supply_chain.step_company", "supply_chain.step_pricing",
                 "market.step", "market.neighbor_influence",
                 "factors.materialize", "stats.trim_samples", "stats.t_test",
                 "stats.confidence_interval", "game.pure_nash", "game.payoff",
                 "gsa.screen_effects", "doe.doe_significance",
                 "gsa.tolerance_sweep", "gsa.neighbor_strictness_test",
                 "gsa.stability_analysis", "reporting.save_checkpoint",
                 "reporting.load_checkpoint", "reporting.write_payoff_matrix",
                 "reporting.write_trace_csv",
                 "reporting.write_iteration_report",
                 "reporting.write_figure_data"],
}


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_array(array) -> str:
    import numpy as np
    return digest_bytes(np.ascontiguousarray(array, dtype="<f8").tobytes())


def check(name, ok, detail=""):
    return {"name": name, "ok": bool(ok), "detail": str(detail)}


def load_pins(size):
    return json.loads(PINS.read_text()).get(size, {}) if PINS.exists() else {}


# -- probes: numbers a wrapper extracts from a call --------------------------

def _estimate_probe(arguments, result):
    return {"n": arguments["n"]}


def _source_probe(arguments, result):
    n = arguments["n"]
    return {"n": n, "topup_n": n if arguments["start"] > 0 else 0}


def _trim_probe(arguments, result):
    return {"in": len(arguments["samples"]), "kept": len(result)}


def _stability_probe(arguments, result):
    n = arguments["game"].n
    movers = 1 if arguments["update"] == "alternating" else 2
    return {"moves": n * n * arguments["steps"] * movers}


def _checkpoint_probe(arguments, result):
    from duogame.reporting import checkpoint_path
    path = checkpoint_path(arguments["out_dir"], arguments["iteration"])
    return {"bytes": path.stat().st_size}


PROBES = {
    "runner.estimate_payoffs": _estimate_probe,
    "gsa.source_call": _source_probe,
    "stats.trim_samples": _trim_probe,
    "gsa.stability_analysis": _stability_probe,
    "reporting.save_checkpoint": _checkpoint_probe,
}


# -- set-up ------------------------------------------------------------------

class Context:
    """What a unit needs: the loaded config and the run's parameters."""

    def __init__(self, args, config, import_s):
        self.workload = args.workload
        self.seed = args.seed
        self.size = args.size
        self.config_path = Path(args.config).resolve()
        self.work = Path(args.work).resolve()
        self.config = config
        self.import_s = import_s


def setup(args, recorder):
    """Import the program, load and validate the config, build the network.

    Returns the context and the monotonic time at which set-up ended.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import duogame.cli  # noqa: F401  (the CLI imports every layer)
    import_s = time.perf_counter() - start
    if recorder is not None:
        recorder.install()
    import duogame.config
    import duogame.network
    config = duogame.config.load_config(args.config)
    s = config.settings
    duogame.network.generate_ba_network(s.n_agents, s.network_m0, s.network_m,
                                        seed=s.population_seed)
    return Context(args, config, import_s), time.monotonic()


# -- units ---------------------------------------------------------------------

def sample_unit(ctx, index, **_):
    import numpy as np
    gsa = sys.modules["duogame.gsa"]
    stats = sys.modules["duogame.stats"]
    cfg = ctx.config
    entry = inputs.sample_entry(index)
    a, b = entry["profile"]
    policy = cfg.sampling
    source = gsa.SimulationPayoffSource(cfg.settings, cfg.cost_rates,
                                        entry["master_seed"],
                                        sd_defaults=cfg.sd_defaults,
                                        spec_defaults=cfg.spec_defaults)
    labels = cfg.first_plan().strategy_labels()

    start = time.monotonic()
    payoffs = gsa._simulate_profile(source, labels, a, b, {}, policy,
                                    gsa.profile_tag(0, a, b))
    kept = [stats.trim_samples(payoffs[:, p], policy.trim_per_tail)
            for p in (0, 1)]
    end = time.monotonic()

    n = int(payoffs.shape[0])
    outputs = {"n": n, "sha256": digest_array(payoffs)}
    pin = load_pins(ctx.size).get("sample", {}).get(str(index))
    topped_up = n == policy.cap or (n - policy.initial_n) % policy.batch == 0
    checks = [
        check("sample.pinned_payoffs", pin is not None and pin == outputs,
              f"entry {index}: {outputs} vs pin {pin}"),
        check("sample.count_in_policy", policy.initial_n <= n <= policy.cap
              and topped_up, f"n={n}"),
        check("sample.trimmed_sizes",
              all(k.size == n - 2 * policy.trim_per_tail for k in kept)),
        check("sample.finite", bool(np.isfinite(payoffs).all())),
    ]
    return {"index": index, "window": [start, end], "wall_s": end - start,
            "replications": n, "operations": n, "outputs": outputs,
            "checks": checks}


def _solution(equilibria, min_regret):
    return next((p for p in equilibria if p[0] == p[1]), min_regret)


def _oracle(samples, n):
    """Equilibria and minimum-regret profile from the generated samples,
    computed independently of ``duogame.game``."""
    import numpy as np
    u = np.empty((2, n, n))
    for (a, b), (p1, p2) in samples.items():
        u[0, b, a], u[1, b, a] = float(p2.mean()), float(p1.mean())
        u[0, a, b], u[1, a, b] = float(p1.mean()), float(p2.mean())
    canonical = [(a, b) for a in range(n) for b in range(a, n)]
    nash = [(a, b) for a, b in canonical
            if u[0, a, b] >= u[0, :, b].max() and u[1, a, b] >= u[1, a, :].max()]
    regrets = []
    for a, b in canonical:
        dev0 = np.delete(u[0, :, b], a).max() - u[0, a, b]
        dev1 = np.delete(u[1, a, :], b).max() - u[1, a, b]
        regrets.append(max(dev0, dev1))
    return nash, canonical[int(np.argmin(regrets))]


def _stability_ok(ratios):
    values = list(ratios.values())
    return (len(values) == 3 and all(0.0 <= v <= 1.0 for v in values)
            and abs(sum(values) - 1.0) < 1e-9)


def analyze_unit(ctx, index, **_):
    game_mod = sys.modules["duogame.game"]
    gsa = sys.modules["duogame.gsa"]
    reporting = sys.modules["duogame.reporting"]
    cfg = ctx.config
    g = cfg.gsa
    plan = cfg.first_plan()
    labels = plan.strategy_labels()
    samples, planted = inputs.synthetic_game(ctx.seed, index, ctx.size,
                                             n=len(labels))
    game = game_mod.EmpiricalGame(game_mod.StrategySpace(
        labels, labels=[f"s{i}" for i in range(len(labels))]))
    for profile, (p1, p2) in samples.items():
        game.set_samples(profile, p1, p2)
    written = ctx.work / f"matrix-{index}.csv"
    rewritten = ctx.work / f"matrix-{index}-again.csv"
    stability_seed = ctx.seed * 1000 + index

    start = time.monotonic()
    equilibria = game.pure_nash(g.epsilon_solve)
    min_regret = game.min_regret_profile()
    effects = gsa.screen_effects(game, plan, g.alpha)
    sweep = gsa.tolerance_sweep(game, g.tolerance_grid)
    solution = _solution(equilibria, min_regret)
    neighbors = [gsa.neighbor_strictness_test(game, solution, player,
                                              g.neighbor_count, g.alpha)
                 for player in (0, 1)]
    stability = gsa.stability_analysis(
        game, solution, g.epsilon_stability, g.stability_steps,
        noise=g.stability_noise, update=g.stability_update, seed=stability_seed)
    reporting.write_payoff_matrix(game, written)
    imported = reporting.read_payoff_matrix(written)
    imported_equilibria = imported.pure_nash(g.epsilon_solve)
    imported_stability = gsa.stability_analysis(
        imported, solution, g.epsilon_stability, g.stability_steps,
        noise=g.stability_noise, update=g.stability_update, seed=stability_seed)
    end = time.monotonic()

    reporting.write_payoff_matrix(imported, rewritten)
    oracle_nash, oracle_min_regret = _oracle(samples, len(labels))
    fractions = [point["fraction"] for point in sweep]
    p_values = [p for ps in neighbors for p in ps] + [e.p_value for e in effects]
    checks = [
        check("analyze.nash_matches_oracle", equilibria == oracle_nash,
              f"{equilibria} vs {oracle_nash}"),
        check("analyze.planted_equilibria_found",
              all((s, s) in equilibria for s in planted), f"planted {planted}"),
        check("analyze.min_regret_matches_oracle",
              min_regret == oracle_min_regret,
              f"{min_regret} vs {oracle_min_regret}"),
        check("analyze.sweep_consistent",
              fractions[0] == len(equilibria) / len(game.profiles())
              and fractions == sorted(fractions)),
        check("analyze.screen_and_neighbor_p_values",
              len(effects) == len(plan.factors)
              and all(len(ps) == g.neighbor_count for ps in neighbors)
              and all(0.0 <= p <= 1.0 for p in p_values)),
        check("analyze.matrix_roundtrip_bytes",
              written.read_bytes() == rewritten.read_bytes()),
        check("analyze.imported_equilibria", imported_equilibria == equilibria,
              f"{imported_equilibria} vs {equilibria}"),
        check("analyze.stability_ratios", _stability_ok(stability.ratios)
              and _stability_ok(imported_stability.ratios),
              f"{stability.ratios} / {imported_stability.ratios}"),
    ]
    written.unlink()
    rewritten.unlink()
    return {"index": index, "window": [start, end], "wall_s": end - start,
            "replications": 0, "operations": 0, "checks": checks}


def _artifacts(out: Path):
    """Digest of every artifact, JSON with ``runtime_seconds`` removed."""
    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items()
                    if k != "runtime_seconds"}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.suffix == ".json":
            data = json.dumps(strip(json.loads(data)), sort_keys=True).encode()
        digests[str(path.relative_to(out))] = digest_bytes(data)
    return digests


def _checkpoint_stats(out: Path):
    return {p.name: (p.stat().st_mtime_ns, p.stat().st_size, p.stat().st_ino)
            for p in sorted((out / "checkpoints").glob("*.json"))}


def gsa_loop_unit(ctx, index, jobs=inputs.GSA_JOBS, in_process=False, tag=""):
    entry = inputs.gsa_entry(index)
    out = ctx.work / f"gsa-{index}{tag}"
    argv = ["gsa", "--config", str(ctx.config_path),
            "--seed", str(entry["master_seed"]), "--out", str(out),
            "--jobs", str(jobs)]
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def invoke():
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.monotonic()
        if in_process:
            code = sys.modules["duogame.cli"].main(argv)
        else:
            code = subprocess.run([sys.executable, "-m", "duogame.cli", *argv],
                                  env=env, stdout=subprocess.DEVNULL).returncode
        end = time.monotonic()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - usage.ru_utime) + (after.ru_stime - usage.ru_stime)
        return code, [start, end], cpu

    code, window, cpu = invoke()
    fresh = _artifacts(out) if code == 0 else {}
    checkpoints = _checkpoint_stats(out) if code == 0 else {}
    resume_code, resume_window, _ = invoke()
    resumed = _artifacts(out) if resume_code == 0 else {}

    reports = sorted(out.glob("iteration_*.json"))
    replications = sum(sum(json.loads(p.read_text())["report"]["sample_sizes"].values())
                       for p in reports)
    pins = load_pins(ctx.size).get("gsa_loop", {}).get(str(index))
    matrices = {p.name: digest_bytes(p.read_bytes())
                for p in sorted(out.glob("payoff_matrix_*.csv"))}
    summary = json.loads((out / "summary.json").read_text()) \
        if (out / "summary.json").exists() else {"stability": []}
    checks = [
        check("gsa_loop.exit_codes", code == 0 and resume_code == 0,
              f"fresh {code}, resume {resume_code}"),
        check("gsa_loop.pinned_matrices", pins is not None and matrices == pins,
              f"entry {index}: {matrices} vs pin {pins}"),
        check("gsa_loop.resume_identical", fresh and resumed == fresh),
        check("gsa_loop.resume_hit_checkpoints",
              len(checkpoints) == len(reports) > 0
              and _checkpoint_stats(out) == checkpoints),
        check("gsa_loop.stability_ratios",
              summary["stability"] and all(r is not None and _stability_ok(r)
                                           for r in summary["stability"])),
    ]
    return {"index": index, "window": window, "wall_s": window[1] - window[0],
            "resume_window": resume_window,
            "resume_s": resume_window[1] - resume_window[0], "cpu_s": cpu,
            "jobs": jobs, "replications": replications,
            "operations": replications + 2, "outputs": matrices,
            "checks": checks}


UNITS = {"sample": sample_unit, "analyze": analyze_unit,
         "gsa_loop": gsa_loop_unit}


# -- runs ----------------------------------------------------------------------

def run_untraced(ctx, seconds):
    """Units from the seed's pool position until the next would overrun,
    each with the host speed over its timed windows.

    ``sample`` and ``analyze`` run in this process, pinned to one CPU with
    one probe beside it; ``gsa_loop`` runs in CLI processes on every CPU,
    so it gets one probe per CPU and no pinning. The work then lowers its
    own priority (the CLI processes inherit it), so that a probe burst runs
    as soon as it is due instead of waiting behind the work for its CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if ctx.workload == "gsa_loop":
        cpus = cpus[:MAX_PROBES]
    else:
        cpus = cpus[:1]
        os.sched_setaffinity(0, cpus)
    unit = UNITS[ctx.workload]
    results, elapsed = [], []
    host = probe.HostProbe(cpus, ctx.work)
    os.nice(WORK_NICENESS)
    try:
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            results.append(unit(ctx, inputs.pool_index(ctx.seed, len(results))))
            elapsed.append(time.monotonic() - t0)
            if time.monotonic() - start + statistics.median(elapsed) > seconds:
                break
    finally:
        host.stop()
    for result in results:
        for key in ("", "resume_"):
            if key + "window" in result:
                speed, bursts = host.speed(*result[key + "window"])
                result[key + "speed"] = speed
                result[key + "probe_bursts"] = bursts
    return results


def _percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(rec, ctx, untraced, traced, pool):
    def stat(name, i):
        return rec.stats.get(name, [0, 0.0, 0.0])[i]

    def total(name, key):
        return rec.totals.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    replications_ms = [d * 1e3 for d in rec.durations("runner.run_replication")]
    profiles_s = rec.durations("gsa.simulate_profile")
    metrics = {
        "supply_chain.step_company.calls": (stat("supply_chain.step_company", 0), "count"),
        "supply_chain.step_company.self_s": (stat("supply_chain.step_company", 2), "s"),
        "supply_chain.step_pricing.calls": (stat("supply_chain.step_pricing", 0), "count"),
        "supply_chain.step_pricing.self_s": (stat("supply_chain.step_pricing", 2), "s"),
        "market.step.calls": (stat("market.step", 0), "count"),
        "market.step.self_s": (stat("market.step", 2), "s"),
        "market.neighbor_influence.self_s": (stat("market.neighbor_influence", 2), "s"),
        "network.generate_ba_network.s": (stat("network.generate_ba_network", 1), "s"),
        "config.load_config.s": (stat("config.load_config", 1), "s"),
        "cli.import_s": (ctx.import_s, "s"),
        "runner.run_replication.calls": (stat("runner.run_replication", 0), "count"),
        "runner.run_replication.self_s": (stat("runner.run_replication", 2), "s"),
        "runner.replication_p50_ms": (_percentile(replications_ms, 50), "ms"),
        "runner.replication_p99_ms": (_percentile(replications_ms, 99), "ms"),
        "runner.estimate_payoffs.calls": (stat("runner.estimate_payoffs", 0), "count"),
        "runner.estimate_payoffs.replications_per_call": (
            ratio(total("runner.estimate_payoffs", "n"),
                  stat("runner.estimate_payoffs", 0)), "count"),
        "stats.topup_share": (ratio(total("gsa.source_call", "topup_n"),
                                    total("gsa.source_call", "n")), "ratio"),
        "stats.trim_kept_ratio": (ratio(total("stats.trim_samples", "kept"),
                                        total("stats.trim_samples", "in")), "ratio"),
        "game.payoff.calls": (stat("game.payoff", 0), "count"),
        "game.pure_nash.s": (stat("game.pure_nash", 1), "s"),
        "game.min_regret_profile.s": (stat("game.min_regret_profile", 1), "s"),
        "gsa.stability_analysis.s": (stat("gsa.stability_analysis", 1), "s"),
        "gsa.stability.moves_per_s": (ratio(total("gsa.stability_analysis", "moves"),
                                            stat("gsa.stability_analysis", 1)), "1/s"),
        "gsa.tolerance_sweep.s": (stat("gsa.tolerance_sweep", 1), "s"),
        "gsa.neighbor_strictness_test.s": (stat("gsa.neighbor_strictness_test", 1), "s"),
        "gsa.screen_effects.s": (stat("gsa.screen_effects", 1), "s"),
        "doe.doe_significance.s": (stat("doe.doe_significance", 1), "s"),
        "gsa.build_empirical_game.s": (stat("gsa.build_empirical_game", 1), "s"),
        "gsa.profile_p50_s": (_percentile(profiles_s, 50), "s"),
        "gsa.profile_p90_s": (_percentile(profiles_s, 90), "s"),
        "gsa.pool_cpu_util": (ratio(pool["cpu_s"], pool["wall_s"] * pool["jobs"])
                              if pool else 0.0, "ratio"),
        "reporting.save_checkpoint.s": (stat("reporting.save_checkpoint", 1), "s"),
        "reporting.save_checkpoint.bytes": (total("reporting.save_checkpoint", "bytes"),
                                            "B"),
        "reporting.load_checkpoint.s": (stat("reporting.load_checkpoint", 1), "s"),
        "reporting.write_payoff_matrix.s": (stat("reporting.write_payoff_matrix", 1), "s"),
        "reporting.read_payoff_matrix.s": (stat("reporting.read_payoff_matrix", 1), "s"),
        "reporting.write_trace_csv.s": (stat("reporting.write_trace_csv", 1), "s"),
        "trace.overhead_frac": ((traced["wall_s"] - untraced["wall_s"])
                                / untraced["wall_s"], "ratio"),
    }
    absent = {name: f"no calls to {source} on this workload"
              for name, source in ((name, _source(name)) for name in metrics)
              if source and rec.calls(source) == 0}
    if pool is None:
        absent["gsa.pool_cpu_util"] = "no process pool on this workload"
    notes = {"runner.replication_samples": len(replications_ms),
             "gsa.profile_samples": len(profiles_s),
             "not_exercised": absent}
    return metrics, notes


# per-layer metrics not named after the wrapper they are read from
_SOURCES = {
    "cli.import_s": None, "gsa.pool_cpu_util": None, "trace.overhead_frac": None,
    "runner.replication_p50_ms": "runner.run_replication",
    "runner.replication_p99_ms": "runner.run_replication",
    "stats.topup_share": "gsa.source_call",
    "stats.trim_kept_ratio": "stats.trim_samples",
    "gsa.stability.moves_per_s": "gsa.stability_analysis",
    "gsa.profile_p50_s": "gsa.simulate_profile",
    "gsa.profile_p90_s": "gsa.simulate_profile",
}


def _source(metric):
    return _SOURCES.get(metric, metric.rsplit(".", 1)[0])


def run_traced(ctx, recorder):
    """The seed's first unit unwrapped, then wrapped; per-layer metrics."""
    unit = UNITS[ctx.workload]
    index = inputs.pool_index(ctx.seed, 0)
    in_process = {"jobs": 1, "in_process": True} if ctx.workload == "gsa_loop" else {}
    recorder.uninstall()
    untraced = unit(ctx, index, tag="-untraced", **in_process)
    recorder.install()
    try:
        traced = unit(ctx, index, tag="-traced", **in_process)
    finally:
        recorder.uninstall()
    pool = unit(ctx, index, tag="-pool") if ctx.workload == "gsa_loop" else None
    metrics, notes = layer_metrics(recorder, ctx, untraced, traced, pool)
    silent = [name for name in EXPECTED_CALLS[ctx.workload]
              if recorder.calls(name) == 0]
    nesting = spans.nesting_errors(recorder.spans)
    checks = [check("trace.wrappers_fired", not silent,
                    f"no calls: {silent}; unresolved: {recorder.missing}"),
              check("trace.spans_nest", not nesting, "; ".join(nesting[:5]))]
    units = [u for u in (untraced, traced, pool) if u is not None]
    return units, checks, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(UNITS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=inputs.SIZES, default="full")
    parser.add_argument("--config", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    recorder = spans.Recorder(PROBES) if args.trace else None
    ctx, ready = setup(args, recorder)
    result = {"ready": ready, "import_s": ctx.import_s}
    if not args.setup_only:
        if args.trace:
            units, checks, metrics, notes = run_traced(ctx, recorder)
            result.update(layers=metrics, notes=notes, trace=recorder.as_dict())
        else:
            units, checks = run_untraced(ctx, args.seconds), []
        result.update(units=units, checks=checks)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["children_maxrss_kb"] = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
