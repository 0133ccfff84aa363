"""File formats: payoff matrices, daily traces, iteration reports, figure
data and per-iteration checkpoints.

Payoff matrix CSV: one row per row-player strategy, one column per
column-player strategy, each cell ``mean;n;variance|mean;n;variance`` for
the two players. Floats are written with ``repr`` so a read-back reproduces
them exactly.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .game import EmpiricalGame, StrategySpace
from .runner import SERIES

TRACE_HEADER = ["day", "company", "price", "inv", "backlog", "shipR", "MS",
                "labor", "wip"]


def write_payoff_matrix(game: EmpiricalGame, path) -> None:
    game._require_complete()
    # Python numbers, whose repr is the bare float under any numpy
    mean, count, var = (arr.tolist() for arr in (game.mean, game.count, game.var))
    labels = game.space.labels
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strategy", *labels])
        for a in range(game.n):
            writer.writerow([labels[a]] + [
                "|".join(f"{mean[p][a][b]!r};{count[p][a][b]};{var[p][a][b]!r}"
                         for p in (0, 1))
                for b in range(game.n)])


def read_payoff_matrix(path) -> EmpiricalGame:
    """Rebuild a symmetric game from a matrix CSV.

    Cell (b, a) must be the mirror of cell (a, b), the two players'
    statistics swapped. Only summary statistics survive the round trip;
    each profile comes back as a synthetic sample set with exactly the
    stored mean, count and variance (two-point representation), which
    keeps solving, confidence intervals and resampling workable.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"payoff matrix not found: {path}")
    with path.open() as fh:
        rows = list(csv.reader(fh))
    if not rows or len(rows) < 2:
        raise ConfigError(f"payoff matrix {path} is empty")
    labels = rows[0][1:]
    n = len(labels)
    if len(rows) != n + 1:
        raise ConfigError(f"payoff matrix {path} has {len(rows) - 1} rows for "
                          f"{n} strategies")
    game = EmpiricalGame(StrategySpace([{"index": i} for i in range(n)],
                                       labels=labels))
    stats = {}
    for a, row in enumerate(rows[1:]):
        if len(row) != n + 1:
            raise ConfigError(f"malformed payoff row {a} in {path}")
        for b, cell in enumerate(row[1:]):
            try:
                stats[(a, b)] = _cell_stats(cell)
            except ValueError:
                raise ConfigError(f"malformed payoff cell {cell!r} at row {a}, "
                                  f"column {b} in {path}") from None
    for (a, b), per_player in stats.items():
        if a > b:
            continue
        if a < b and stats[(b, a)] != per_player[::-1]:
            raise ConfigError(
                f"payoff cell at row {b}, column {a} is not the mirror of row "
                f"{a}, column {b} in {path}: a matrix holds a symmetric game")
        p1, p2 = (_synthetic_samples(*stat) for stat in per_player)
        game.set_samples((a, b), p1, p2, stats=per_player)
    return game


def _cell_stats(cell: str) -> list:
    """Both players' ``(mean, n, variance)`` in a matrix cell; raises
    ValueError when the cell is malformed or holds what no sample set of
    payoffs has: a count below 1, a mean that is not finite, or a variance
    that is negative or not finite."""
    parts = [part.split(";") for part in cell.split("|")]
    if len(parts) != 2 or any(len(part) != 3 for part in parts):
        raise ValueError(cell)
    stats = [(float(mean), int(count), float(var)) for mean, count, var in parts]
    if any(count < 1 or not math.isfinite(mean) or not 0.0 <= var < math.inf
           for mean, count, var in stats):
        raise ValueError(cell)
    return stats


def _synthetic_samples(mean: float, count: int, variance: float) -> np.ndarray:
    if count <= 1 or variance <= 0:
        return np.full(max(count, 1), mean)
    # symmetric two-point set reproducing the mean and ddof=1 variance; an
    # odd count leaves its middle sample at the mean
    k = count // 2
    spread = np.sqrt(variance * (count - 1) / (2 * k))
    out = np.full(count, mean)
    out[:k] += spread
    out[count - k:] -= spread
    return out


def write_trace_csv(rep, path) -> None:
    path = Path(path)
    columns = [rep.series[name] for name in SERIES]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for day in range(rep.run_length):
            for company in (0, 1):
                writer.writerow([day, company + 1] + [
                    repr(float(column[day, company])) for column in columns])


def report_to_dict(report) -> dict:
    return dataclasses.asdict(report)


def write_json(data, path=None) -> None:
    """``data`` as indented JSON with sorted keys: into the file ``path``,
    or on stdout when no path is given."""
    text = json.dumps(data, indent=2, sort_keys=True)
    if path:
        Path(path).write_text(text + "\n")
    else:
        print(text)


def write_iteration_report(report, path) -> None:
    write_json({"schema_version": 1, "report": report_to_dict(report)}, path)


def write_figure_data(reports, out_dir) -> None:
    """Plot-ready CSVs: tolerance curves, neighbor p-values, cross-iteration
    p-values."""
    out_dir = Path(out_dir)
    with (out_dir / "equilibrium_share_vs_tolerance.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "epsilon", "fraction", "n_symmetric",
                         "n_other"])
        for r in reports:
            for point in r.tolerance_curve:
                writer.writerow([r.index, point["epsilon"], point["fraction"],
                                 point["n_symmetric"], point["n_other"]])
    with (out_dir / "neighbor_p_values.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "player", "p_value"])
        for r in reports:
            for player, ps in r.neighbor_p_values.items():
                for p in ps:
                    writer.writerow([r.index, int(player) + 1, p])
    with (out_dir / "cross_iteration_p_values.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["earlier_iteration", "later_iteration", "p_value"])
        for r in reports:
            for earlier, p in r.cross_iteration_p.items():
                writer.writerow([earlier, r.index, p])


# -- checkpoints -------------------------------------------------------------

def checkpoint_path(out_dir, iteration: int) -> Path:
    return Path(out_dir) / "checkpoints" / f"iteration_{iteration:02d}.json"


def save_checkpoint(out_dir, iteration: int, fingerprint: str, game,
                    report, baseline: dict) -> None:
    path = checkpoint_path(out_dir, iteration)
    path.parent.mkdir(parents=True, exist_ok=True)
    samples = {}
    for (a, b) in game.profiles():
        samples[f"{a},{b}"] = [game.samples((a, b), 0).tolist(),
                               game.samples((a, b), 1).tolist()]
    payload = {
        "schema_version": 1,
        "fingerprint": fingerprint,
        "iteration": iteration,
        "labels": game.space.strategies,
        "baseline": baseline,
        "samples": samples,
        "report": report_to_dict(report),
    }
    # written beside and renamed, so an interrupt leaves the old file or the
    # new one, never half of one; the temporary name does not match *.json
    partial = path.with_name(path.name + ".partial")
    partial.write_text(json.dumps(payload, sort_keys=True) + "\n")
    os.replace(partial, path)


def load_checkpoint(out_dir, iteration: int, fingerprint: str):
    """Return ``(game, report_dict, baseline)`` or None when absent, stale
    or unreadable.

    A stale checkpoint, written under another config fingerprint, or one
    that does not parse, is reported on stderr; the caller then recomputes
    and overwrites it.
    """
    path = checkpoint_path(out_dir, iteration)
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:
        print(f"unreadable checkpoint {path}: {exc}; recomputing", file=sys.stderr)
        return None
    found = payload.get("fingerprint")
    if found != fingerprint:
        print(f"stale checkpoint for iteration {iteration}: fingerprint {found}, "
              f"this run {fingerprint}; recomputing", file=sys.stderr)
        return None
    game = EmpiricalGame(StrategySpace(payload["labels"]))
    for key, (p1, p2) in payload["samples"].items():
        a, b = (int(x) for x in key.split(","))
        game.set_samples((a, b), p1, p2)
    return game, payload["report"], payload["baseline"]


class CheckpointStore:
    """Per-iteration resume files, keyed by the config fingerprint."""

    def __init__(self, out_dir, fingerprint: str):
        self.out_dir = Path(out_dir)
        self.fingerprint = fingerprint
        self.saved = 0  # iterations computed, not restored, in this run

    def load(self, iteration: int):
        return load_checkpoint(self.out_dir, iteration, self.fingerprint)

    def save(self, iteration: int, game, report, baseline: dict) -> None:
        save_checkpoint(self.out_dir, iteration, self.fingerprint, game,
                        report, baseline)
        self.saved += 1
