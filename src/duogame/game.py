"""Empirical normal-form game over sampled payoffs.

Two players share a strategy list (symmetric game) or carry separate payoff
tables (general game). A symmetric game stores each unordered profile once,
(S^2 - S)/2 + S in total.

Every reader takes one array form of the game: four (2, S, S) arrays
``mean``, ``count``, ``var`` and ``offset`` indexed ``[player, row, col]``,
and one flat ``bank`` of raw payoff samples, where cell ``(player, row,
col)`` holds ``bank[offset:offset + count]``. Storing a symmetric profile
fills both of its orders, the transposed one with the players swapped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IncompleteGameError, ParameterError


def symmetric_profile_count(n_strategies: int) -> int:
    """Unordered profile count: off-diagonal pairs halve, diagonal stays."""
    if n_strategies < 1:
        raise ParameterError("strategy count must be >= 1")
    return (n_strategies * n_strategies - n_strategies) // 2 + n_strategies


@dataclass
class StrategySpace:
    """Ordered strategies; each is a mapping of factor name to level value."""

    strategies: list
    labels: list | None = None
    symmetric: bool = True

    def __post_init__(self):
        if self.labels is None:
            self.labels = [f"s{i}" for i in range(len(self.strategies))]
        seen = set()
        for s in self.strategies:
            key = tuple(sorted(s.items())) if isinstance(s, dict) else s
            if key in seen:
                raise ParameterError(f"duplicate strategy {s!r}")
            seen.add(key)

    def __len__(self):
        return len(self.strategies)


class EmpiricalGame:
    """Payoff samples per profile with symmetric or general storage.

    Profiles are ordered pairs ``(row, col)`` of strategy indices. In the
    symmetric case samples are stored once per unordered pair and the
    transposed profile's cells point at them with the player roles swapped.
    """

    def __init__(self, space: StrategySpace):
        self.space = space
        self.n = n = len(space)
        self.mean = np.full((2, n, n), np.nan)
        self.count = np.zeros((2, n, n), dtype=np.int64)
        self.var = np.full((2, n, n), np.nan)
        self.offset = np.zeros((2, n, n), dtype=np.int64)
        # samples stored since the bank was last read, joined on the next
        # read: one copy per read, not one per store
        self._bank = np.empty(0)
        self._parts = []
        self._size = 0

    @property
    def bank(self) -> np.ndarray:
        """Every stored sample in one flat array."""
        if self._parts:
            self._bank = np.concatenate([self._bank, *self._parts])
            self._parts = []
        return self._bank

    # -- construction ------------------------------------------------------

    def _canonical(self, profile):
        a, b = profile
        if not (0 <= a < self.n and 0 <= b < self.n):
            raise ParameterError(f"profile {profile} out of range")
        if self.space.symmetric and a > b:
            return (b, a), True
        return (a, b), False

    def set_samples(self, profile, samples_p1, samples_p2, stats=None):
        """Store one profile's samples and its per-player summary.

        ``stats`` gives ``((mean, n, var), (mean, n, var))`` per player to
        store in place of the sample statistics, so that a matrix import
        keeps the written numbers bit for bit.
        """
        (a, b), swapped = self._canonical(profile)
        p1 = np.asarray(samples_p1, dtype=float)
        p2 = np.asarray(samples_p2, dtype=float)
        if p1.size == 0 or p2.size == 0:
            raise ParameterError("empty sample set")
        if stats is None:
            stats = [(float(s.mean()), s.size,
                      float(s.var(ddof=1)) if s.size > 1 else 0.0)
                     for s in (p1, p2)]
        if swapped:
            p1, p2 = p2, p1
            stats = stats[::-1]
        for player, (samples, (mean, count, var)) in enumerate(zip((p1, p2), stats)):
            self.mean[player, a, b] = mean
            self.count[player, a, b] = count
            self.var[player, a, b] = var
            self.offset[player, a, b] = self._size
            self._parts.append(samples.ravel())
            self._size += samples.size
        if self.space.symmetric and a != b:
            # the transposed profile swaps the player roles; the diagonal
            # keeps its own player order
            for arr in (self.mean, self.count, self.var, self.offset):
                arr[:, b, a] = arr[::-1, a, b]

    # -- queries -----------------------------------------------------------

    def profiles(self):
        """Canonical profiles covering the whole game."""
        if self.space.symmetric:
            return [(a, b) for a in range(self.n) for b in range(a, self.n)]
        return [(a, b) for a in range(self.n) for b in range(self.n)]

    def missing_profiles(self):
        return [p for p in self.profiles() if not self.count[(0, *p)]]

    def _stored(self, profile):
        """Raise unless the profile is in range and was simulated."""
        self._canonical(profile)
        if not self.count[(0, *profile)]:
            raise IncompleteGameError(f"profile {profile} was never simulated",
                                      missing=[profile])

    def samples(self, profile, player: int) -> np.ndarray:
        self._stored(profile)
        start = self.offset[(player, *profile)]
        return self.bank[start:start + self.count[(player, *profile)]]

    def payoff(self, profile, player: int) -> float:
        self._stored(profile)
        return float(self.mean[(player, *profile)])

    def sample_count(self, profile, player: int) -> int:
        self._stored(profile)
        return int(self.count[(player, *profile)])

    # -- equilibrium machinery ----------------------------------------------

    def regret(self, profile) -> float:
        """Best unilateral improvement over the profile payoff.

        Positive values mean some player gains by deviating; strict
        equilibria report negative regret because the profile itself is
        excluded from the deviation candidates.
        """
        regrets = self._regrets()
        a, b = profile
        self._canonical(profile)  # range check: the table wraps negatives
        return float(regrets[a, b])

    def _regrets(self) -> np.ndarray:
        """Every ordered profile's :meth:`regret` in one (n, n) table, the
        larger of the two players' as builtin ``max`` picks it."""
        if self.n < 2:
            raise ParameterError("regret needs at least two strategies")
        self._require_complete()
        u0, u1 = self.mean
        r0 = _best_deviation(u0) - u0
        r1 = _best_deviation(u1.T).T - u1
        # builtin max's order: the second only when it is greater
        return np.where(r1 > r0, r1, r0)

    def _require_complete(self):
        missing = self.missing_profiles()
        if missing:
            raise IncompleteGameError(
                f"game is missing {len(missing)} profiles", missing=missing)

    def pure_nash(self, epsilon: float = 0.0):
        """All profiles no player can improve on by more than ``epsilon``.

        Every profile gets a full deviation check: the row player's payoff
        must be within ``epsilon`` of its column maximum and the column
        player's of its row maximum. Iterative best-response search can miss
        equilibria under payoff noise.
        """
        if not epsilon >= 0:
            raise ParameterError("epsilon must be >= 0")
        self._require_complete()
        u0, u1 = self.mean
        stable = ((u0.max(axis=0)[None, :] <= u0 + epsilon)
                  & (u1.max(axis=1)[:, None] <= u1 + epsilon))
        return [p for p in self.profiles() if stable[p]]

    def min_regret_profile(self):
        """The profile of least :meth:`regret`, the first in ``profiles()``
        order among equals (a NaN regret, as ``np.argmin`` takes it, counts
        as least), from one array pass over the game."""
        regrets = self._regrets()
        profiles = self.profiles()
        rows, cols = np.array(profiles).T
        return profiles[int(np.argmin(regrets[rows, cols]))]


def _best_deviation(u: np.ndarray) -> np.ndarray:
    """Cell (a, b): the largest ``u[a', b]`` over a' != a, NaN if one of
    them is, as ``np.delete(u[:, b], a).max()`` gives it; row a of the
    (n, n, n) stack holds u with row a masked to -inf."""
    own = np.eye(u.shape[0], dtype=bool)[:, :, None]
    return np.where(own, -np.inf, u).max(axis=1)
