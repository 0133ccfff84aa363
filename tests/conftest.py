"""Fixtures shared across the test modules."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest


@pytest.fixture(scope="module")
def executor():
    """A two-worker pool for the tests that map passes on workers, as one
    ``duogame gsa`` run does. Its workers are spawned, fresh interpreters
    that import the package anew, so no test's monkeypatch reaches them."""
    pool = ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn"))
    yield pool
    pool.shutdown(cancel_futures=True)
