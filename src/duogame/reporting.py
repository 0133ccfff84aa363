"""File formats: payoff matrices, daily traces, iteration reports, figure
data and per-iteration checkpoints, and the one reader every input file goes
through.

A file that cannot be read as UTF-8 text, or that should hold a JSON object
and does not, raises :class:`ConfigError` naming what was read and its path.

Payoff matrix CSV: one row per row-player strategy, one column per
column-player strategy, each cell ``mean;n;variance|mean;n;variance`` for
the two players. Floats are written with ``repr`` so a read-back reproduces
them exactly.
"""

from __future__ import annotations

import csv
import dataclasses
import io
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


def read_text(path, what: str) -> str:
    """The UTF-8 text of the file ``path``, ``what`` naming it in the error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{what} {path}: "
                          f"{getattr(exc, 'strerror', None) or exc}") from None


def parse_json_object(text: str, what: str) -> dict:
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"{what}: not JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{what}: not a JSON object")
    return data


def read_json_object(path, what: str) -> dict:
    return parse_json_object(read_text(path, what), f"{what} {path}")


def _write_csv(path, header, rows) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_payoff_matrix(game: EmpiricalGame, path) -> None:
    game._require_complete()
    # Python numbers, whose repr is the bare float under any numpy
    mean, count, var = (arr.tolist() for arr in (game.mean, game.count, game.var))
    labels = game.space.labels
    _write_csv(path, ["strategy", *labels], (
        [labels[a]] + ["|".join(f"{mean[p][a][b]!r};{count[p][a][b]};{var[p][a][b]!r}"
                                for p in (0, 1))
                       for b in range(game.n)]
        for a in range(game.n)))


def read_payoff_matrix(path) -> EmpiricalGame:
    """Rebuild a symmetric game from a matrix CSV.

    Cell (b, a) must be the mirror of cell (a, b), the two players'
    statistics swapped. Only summary statistics survive the round trip;
    each profile comes back as a synthetic sample set with exactly the
    stored mean, count and variance (two-point representation), which
    keeps solving, confidence intervals and resampling workable.
    """
    text = read_text(path, "payoff matrix")
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:    # a field over csv's size limit, say
        raise ConfigError(f"payoff matrix {path}: {exc}") from None
    if len(rows) < 2:
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
    columns = [rep.series[name] for name in SERIES]
    _write_csv(path, TRACE_HEADER, (
        [day, company + 1] + [repr(float(column[day, company])) for column in columns]
        for day in range(rep.run_length) for company in (0, 1)))


def write_json(data, path=None) -> None:
    """``data`` as indented JSON with sorted keys: into the file ``path``,
    or on stdout when no path is given."""
    text = json.dumps(data, indent=2, sort_keys=True)
    if path:
        Path(path).write_text(text + "\n")
    else:
        print(text)


def write_iteration_report(report, path) -> None:
    write_json({"schema_version": 1, "report": dataclasses.asdict(report)}, path)


def write_figure_data(reports, out_dir) -> None:
    """Plot-ready CSVs: tolerance curves, neighbor p-values, cross-iteration
    p-values."""
    out_dir = Path(out_dir)
    _write_csv(out_dir / "equilibrium_share_vs_tolerance.csv",
               ["iteration", "epsilon", "fraction", "n_symmetric", "n_other"],
               ([r.index, point["epsilon"], point["fraction"], point["n_symmetric"],
                 point["n_other"]] for r in reports for point in r.tolerance_curve))
    _write_csv(out_dir / "neighbor_p_values.csv", ["iteration", "player", "p_value"],
               ([r.index, int(player) + 1, p] for r in reports
                for player, ps in r.neighbor_p_values.items() for p in ps))
    _write_csv(out_dir / "cross_iteration_p_values.csv",
               ["earlier_iteration", "later_iteration", "p_value"],
               ([earlier, r.index, p] for r in reports
                for earlier, p in r.cross_iteration_p.items()))


# -- checkpoints -------------------------------------------------------------

def checkpoint_path(out_dir, iteration: int) -> Path:
    return Path(out_dir) / "checkpoints" / f"iteration_{iteration:02d}.json"


def save_checkpoint(out_dir, iteration: int, fingerprint: str, game,
                    report, baseline: dict) -> None:
    """Write the checkpoint of ``iteration``. Its report and next baseline
    are kept for readers of the file; a resume reads back only the labels,
    the samples and the report's ``runtime_seconds``."""
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
        "report": dataclasses.asdict(report),
    }
    # written beside and renamed, so an interrupt leaves the old file or the
    # new one, never half of one; the temporary name does not match *.json
    partial = path.with_name(path.name + ".partial")
    partial.write_text(json.dumps(payload, sort_keys=True) + "\n")
    os.replace(partial, path)


def load_checkpoint(out_dir, iteration: int, fingerprint: str, labels: list):
    """Return ``(game, runtime_seconds)`` or None when absent, stale or
    unreadable.

    A resume reads only the game and the run time a checkpoint stores; the
    rest of an iteration is a function of its game and is derived again. A
    stale checkpoint, written under another config fingerprint, or an
    unreadable one (:func:`_restore`) is reported on stderr; the caller then
    recomputes and overwrites it.
    """
    path = checkpoint_path(out_dir, iteration)
    if not path.exists():
        return None
    try:
        payload = read_json_object(path, "checkpoint")
        found = payload.get("fingerprint")
        if found != fingerprint:
            print(f"stale checkpoint for iteration {iteration}: fingerprint {found}, "
                  f"this run {fingerprint}; recomputing", file=sys.stderr)
            return None
        return _restore(payload, path, labels)
    except ConfigError as exc:
        print(f"unreadable {exc}; recomputing", file=sys.stderr)
        return None


def _restore(payload: dict, path, labels: list):
    """The game and run time of a checkpoint's ``payload``; raises
    ConfigError unless its labels are ``labels``, its samples are two
    equally long lists of finite numbers for each profile of that game and
    for no other, and its ``report.runtime_seconds`` is a number in
    [0, inf)."""
    try:
        if payload["labels"] != labels:
            raise ValueError("labels are not those of this iteration's plan")
        samples = payload["samples"]
        game = EmpiricalGame(StrategySpace(labels))
        profiles = {f"{a},{b}": (a, b) for a, b in game.profiles()}
        if not (isinstance(samples, dict) and samples.keys() == profiles.keys()):
            raise ValueError("samples are not one entry per profile of the game")
        for key, pair in samples.items():
            pair = np.array(pair, dtype=float)
            if not (pair.ndim == 2 and len(pair) == 2 and pair.size
                    and np.isfinite(pair).all()):
                raise ValueError(f"samples of profile {key} are not two equally "
                                 f"long lists of finite numbers")
            game.set_samples(profiles[key], *pair)
        runtime = payload["report"]["runtime_seconds"]
        if not (type(runtime) in (int, float) and 0 <= runtime < math.inf):
            raise ValueError(f"runtime_seconds {runtime!r} is not a number in [0, inf)")
        return game, float(runtime)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"checkpoint {path}: {type(exc).__name__}: {exc}") from None


class CheckpointStore:
    """Per-iteration resume files, keyed by the config fingerprint."""

    def __init__(self, out_dir, fingerprint: str):
        self.out_dir = Path(out_dir)
        self.fingerprint = fingerprint

    def load(self, iteration: int, labels: list):
        return load_checkpoint(self.out_dir, iteration, self.fingerprint, labels)

    def save(self, iteration: int, game, report, baseline: dict) -> None:
        save_checkpoint(self.out_dir, iteration, self.fingerprint, game,
                        report, baseline)
