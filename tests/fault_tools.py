"""A replication that diverges by its seed alone, for run-level failure
tests: patched into the test's process, and into the spawned workers of the
CLI's pools by their initializer."""

import concurrent.futures
import multiprocessing

from duogame import runner
from duogame.errors import StateError

DAY = 2


def faulty_advance(seed: int):
    """``runner._Rows.advance_day`` with the replication of ``seed`` failing
    its stock check on day ``DAY``: its pass stops there and re-runs the rows
    before it, as for any diverging row."""
    advance = runner._Rows.advance_day

    def faulty(self, day, *args):
        if day == DAY and seed in self.streams.seeds:
            raise StateError("injected fault", row=self.streams.seeds.index(seed))
        return advance(self, day, *args)

    return faulty


def install(seed: int) -> None:
    """Pool initializer: the fault of ``seed`` in a worker process."""
    runner._Rows.advance_day = faulty_advance(seed)


def diverge(monkeypatch, seed: int) -> None:
    """Make the replication of ``seed`` diverge in this process and in the
    workers of every pool the CLI opens."""
    base = concurrent.futures.ProcessPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda jobs: base(
        jobs, mp_context=multiprocessing.get_context("spawn"),
        initializer=install, initargs=(seed,)))
    monkeypatch.setattr(runner._Rows, "advance_day", faulty_advance(seed))
