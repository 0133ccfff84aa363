"""Games built from mean payoff matrices, which only the tests use."""

import numpy as np

from duogame.game import EmpiricalGame, StrategySpace


def game_from_matrices(u1, u2=None) -> EmpiricalGame:
    """A game with one sample per cell, from mean payoff matrices.

    With only ``u1`` given, the game is symmetric with
    ``u2[a, b] = u1[b, a]``; with both, it is a general game.
    """
    u1 = np.asarray(u1, dtype=float)
    symmetric = u2 is None
    u2 = u1.T if symmetric else np.asarray(u2, dtype=float)
    space = StrategySpace([{"index": i} for i in range(u1.shape[0])],
                          symmetric=symmetric)
    game = EmpiricalGame(space)
    for a, b in game.profiles():
        game.set_samples((a, b), [u1[a, b]], [u2[a, b]])
    return game
