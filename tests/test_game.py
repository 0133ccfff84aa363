import numpy as np
import pytest

from duogame.errors import IncompleteGameError, ParameterError
from duogame.game import EmpiricalGame, StrategySpace, symmetric_profile_count
from duogame.gsa import GsaIterationReport
from duogame.reporting import (
    _synthetic_samples,
    load_checkpoint,
    read_payoff_matrix,
    save_checkpoint,
    write_payoff_matrix,
)
from game_tools import game_from_matrices

# 2x2 symmetric game in prisoner's-dilemma shape: rows/cols are (C, D),
# row payoffs u1 = [[3, 0], [5, 1]]
PD_U1 = np.array([[3.0, 0.0], [5.0, 1.0]])

# matching pennies, not symmetric: u2 = -u1
MP_U1 = np.array([[1.0, -1.0], [-1.0, 1.0]])


def brute_force_nash(u1, u2, epsilon=0.0):
    """Independent oracle: direct inequality check over the full matrix."""
    n = u1.shape[0]
    result = []
    for a in range(n):
        for b in range(n):
            ok = all(u1[s, b] <= u1[a, b] + epsilon for s in range(n))
            ok = ok and all(u2[a, s] <= u2[a, b] + epsilon for s in range(n))
            if ok:
                result.append((a, b))
    return result


def random_symmetric_game(rng, n):
    u1 = rng.integers(-20, 21, size=(n, n)).astype(float)
    return game_from_matrices(u1), u1


def checkpoint_report(index=0):
    """An iteration report with every field, as a checkpoint restores one."""
    return GsaIterationReport(
        index=index, g=1, factors={}, n_strategies=0, n_profiles=0,
        sample_sizes={}, effects=[], equilibria=[], solution={}, epsilon=0.0,
        tolerance_curve=[], neighbor_p_values={}, cross_iteration_p={},
        stability=None, runtime_seconds=0.0)


class TestProfileCount:
    def test_experiment_scale(self):
        assert symmetric_profile_count(16) == 136

    def test_small_sizes(self):
        assert symmetric_profile_count(1) == 1
        assert symmetric_profile_count(2) == 3
        assert symmetric_profile_count(4) == 10
        assert symmetric_profile_count(8) == 36

    def test_storage_matches_count(self):
        game, _ = random_symmetric_game(np.random.default_rng(0), 5)
        assert len(game.profiles()) == symmetric_profile_count(5)


class TestRegret:
    def test_prisoners_dilemma_cooperate(self):
        game = game_from_matrices(PD_U1)
        assert game.regret((0, 0)) == pytest.approx(2.0)  # defect gains 5 - 3

    def test_strict_equilibrium_negative_regret(self):
        game = game_from_matrices(PD_U1)
        assert game.regret((1, 1)) < 0

    def test_single_strategy_rejected(self):
        game = game_from_matrices(np.array([[1.0]]))
        with pytest.raises(ParameterError):
            game.regret((0, 0))

    def test_incomplete_game_rejected(self):
        space = StrategySpace([{"x": 0}, {"x": 1}])
        game = EmpiricalGame(space)
        game.set_samples((0, 0), [1.0], [1.0])
        with pytest.raises(IncompleteGameError) as err:
            game.regret((0, 0))
        assert err.value.missing


class TestPureNash:
    def test_prisoners_dilemma(self):
        game = game_from_matrices(PD_U1)
        assert game.pure_nash(0.0) == [(1, 1)]

    def test_matching_pennies_empty(self):
        game = game_from_matrices(MP_U1, -MP_U1)
        assert game.pure_nash(0.0) == []

    def test_epsilon_relaxation_is_monotone(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            game, _ = random_symmetric_game(rng, int(rng.integers(2, 7)))
            tight = set(game.pure_nash(0.0))
            loose = set(game.pure_nash(1500.0))
            assert tight <= loose

    def test_oracle_equivalence_random_games(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            game, u1 = random_symmetric_game(rng, n)
            mine = set(game.pure_nash(0.0))
            oracle = {(a, b) for a, b in brute_force_nash(u1, u1.T) if a <= b}
            assert mine == oracle

    def test_regret_characterizes_equilibria(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            game, _ = random_symmetric_game(rng, n)
            eps = float(rng.uniform(0, 10))
            eq = set(game.pure_nash(eps))
            for profile in game.profiles():
                assert (game.regret(profile) <= eps) == (profile in eq)

    def test_positive_affine_invariance(self):
        rng = np.random.default_rng(3)
        game, u1 = random_symmetric_game(rng, 5)
        a, b = 2.5, 17.0
        scaled = game_from_matrices(a * u1 + b)
        eps = 4.0
        assert game.pure_nash(eps) == scaled.pure_nash(a * eps)

    def test_incomplete_game_lists_missing(self):
        space = StrategySpace([{"x": 0}, {"x": 1}])
        game = EmpiricalGame(space)
        game.set_samples((0, 0), [1.0], [1.0])
        with pytest.raises(IncompleteGameError) as err:
            game.pure_nash(0.0)
        assert (0, 1) in err.value.missing


class TestStorage:
    def test_symmetric_transposed_query(self):
        space = StrategySpace([{"x": 0}, {"x": 1}])
        game = EmpiricalGame(space)
        game.set_samples((0, 1), [10.0, 12.0], [3.0, 5.0])
        game.set_samples((0, 0), [1.0], [7.0])
        game.set_samples((1, 1), [2.0], [8.0])
        assert game.payoff((0, 1), 0) == pytest.approx(11.0)
        assert game.payoff((1, 0), 1) == pytest.approx(11.0)
        assert game.payoff((1, 0), 0) == pytest.approx(4.0)
        # the diagonal is its own transpose and keeps the player order
        assert game.payoff((0, 0), 0) == 1.0
        assert game.payoff((0, 0), 1) == 7.0
        assert game.payoff((1, 1), 0) == 2.0
        assert game.payoff((1, 1), 1) == 8.0

    def test_sample_bookkeeping(self):
        space = StrategySpace([{"x": 0}, {"x": 1}])
        game = EmpiricalGame(space)
        game.set_samples((0, 1), [10.0, 12.0, 14.0], [3.0, 5.0, 7.0])
        assert game.sample_count((0, 1), 0) == 3
        assert game.var[0, 0, 1] == pytest.approx(4.0)

    @staticmethod
    def stored_in_random_order(rng, n, symmetric):
        """A game whose profiles hold 1 to 5 normal samples each, stored in
        a shuffled order, a symmetric off-diagonal profile now and then
        through its transpose, with reads between the stores; and the
        samples each canonical profile was given."""
        game = EmpiricalGame(StrategySpace([{"x": i} for i in range(n)],
                                           symmetric=symmetric))
        expected = {}
        for k in rng.permutation(len(game.profiles())):
            a, b = game.profiles()[k]
            p1, p2 = (rng.normal(size=int(rng.integers(1, 6))) for _ in (0, 1))
            expected[(a, b)] = (p1, p2)
            if a != b and symmetric and rng.random() < 0.5:
                game.set_samples((b, a), p2, p1)
            else:
                game.set_samples((a, b), p1, p2)
            if rng.random() < 0.3:
                game.samples((a, b), 0)
        return game, expected

    @staticmethod
    def assert_bank_slices(game, expected):
        """Every cell's samples are its ``bank[offset:offset + count]`` and
        the ones stored for it, the players swapped on a transposed cell."""
        for a in range(game.n):
            for b in range(game.n):
                for player in (0, 1):
                    start = game.offset[player, a, b]
                    got = game.samples((a, b), player)
                    assert got.tolist() == game.bank[
                        start:start + game.count[player, a, b]].tolist()
                    if game.space.symmetric and a > b:
                        want = expected[(b, a)][1 - player]
                    else:
                        want = expected[(a, b)][player]
                    assert got.tolist() == list(want), (a, b, player)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_samples_are_bank_slices(self, symmetric):
        rng = np.random.default_rng(3)
        for n in (1, 2, 5):
            self.assert_bank_slices(*self.stored_in_random_order(rng, n, symmetric))

    def test_loaded_samples_are_bank_slices(self, tmp_path):
        # checkpoints and payoff matrices hold symmetric games
        game, expected = self.stored_in_random_order(np.random.default_rng(4), 5, True)
        save_checkpoint(tmp_path, 0, "fp", game, checkpoint_report(), {})
        self.assert_bank_slices(load_checkpoint(tmp_path, 0, "fp")[0], expected)
        write_payoff_matrix(game, tmp_path / "m.csv")
        self.assert_bank_slices(read_payoff_matrix(tmp_path / "m.csv"), {
            p: [_synthetic_samples(game.mean[(player, *p)], game.count[(player, *p)],
                                   game.var[(player, *p)]) for player in (0, 1)]
            for p in game.profiles()})

    def test_interrupted_save_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        game = game_from_matrices(PD_U1)
        save_checkpoint(tmp_path, 0, "fp", game, checkpoint_report(), {})
        path = tmp_path / "checkpoints" / "iteration_00.json"
        before = path.read_bytes()

        def interrupt(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr("duogame.reporting.os.replace", interrupt)
        with pytest.raises(KeyboardInterrupt):
            save_checkpoint(tmp_path, 0, "fp", game, checkpoint_report(1), {"pricing": "H"})
        assert path.read_bytes() == before
        # the half-written file is not one a resume reads
        assert [p.name for p in path.parent.glob("*.json")] == [path.name]

    def test_duplicate_strategies_rejected(self):
        with pytest.raises(ParameterError):
            StrategySpace([{"x": 0}, {"x": 0}])

    def test_min_regret_profile(self):
        game = game_from_matrices(PD_U1)
        assert game.min_regret_profile() == (1, 1)

    def test_min_regret_profile_matches_per_profile_loop(self):
        # small integer payoffs tie often; NaN cells and infinite payoffs
        # test builtin max's order, np.delete's NaN and np.argmin's first
        # least (a NaN counts as least); the oracle is perfbench's
        rng = np.random.default_rng(8)
        for trial in range(300):
            n = int(rng.integers(2, 7))
            u1 = rng.integers(-2, 3, size=(n, n)).astype(float)
            u2 = rng.integers(-2, 3, size=(n, n)).astype(float)
            for u in (u1, u2):
                spots = rng.integers(0, n, size=(int(rng.integers(0, 3)), 2))
                u[tuple(spots.T)] = rng.choice([np.nan, np.inf, -np.inf],
                                               size=len(spots))
            game = game_from_matrices(u1, None if trial % 2 else u2)
            u = game.mean
            profiles = game.profiles()
            with np.errstate(invalid="ignore"):
                oracle = [max(np.delete(u[0, :, b], a).max() - u[0, a, b],
                              np.delete(u[1, a, :], b).max() - u[1, a, b])
                          for a, b in profiles]
                for p, want in zip(profiles, oracle):
                    got = game.regret(p)
                    assert got == want or (np.isnan(got) and np.isnan(want)), (trial, p)
                assert game.min_regret_profile() == profiles[int(np.argmin(oracle))], trial

    def test_min_regret_profile_needs_two_strategies(self):
        game = game_from_matrices(np.array([[1.0]]))
        with pytest.raises(ParameterError, match="two strategies"):
            game.min_regret_profile()
