import math

import numpy as np
import pytest

from duogame.errors import InsufficientDataError, ParameterError
from duogame.stats import (
    confidence_interval,
    decide_sample_size,
    ecvi_gain_limit,
    t_test,
    trim_samples,
)


class TestTrim:
    def test_experiment_sizes(self):
        out = trim_samples(np.arange(70.0), 10)
        assert out.size == 50

    def test_zero_is_identity(self):
        out = trim_samples([3.0, 1.0, 2.0], 0)
        assert list(out) == [1.0, 2.0, 3.0]

    def test_small_case(self):
        assert list(trim_samples([1, 2, 3, 4, 5], 1)) == [2, 3, 4]

    def test_count_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(3, 200))
            k = int(rng.integers(0, (n - 1) // 2))
            assert trim_samples(rng.normal(size=n), k).size == n - 2 * k

    def test_over_trim_rejected(self):
        with pytest.raises(ParameterError):
            trim_samples([1, 2, 3, 4], 2)

    def test_extremes_removed(self):
        out = trim_samples([100.0, 1.0, 2.0, 3.0, -50.0], 1)
        assert out.min() == 1.0 and out.max() == 3.0


class TestConfidenceInterval:
    def test_constant_samples(self):
        mean, hw = confidence_interval([4.0] * 10)
        assert mean == 4.0
        assert hw == 0.0

    def test_textbook_case(self):
        mean, hw = confidence_interval([2, 4, 4, 4, 5, 5, 7, 9], alpha=0.05)
        assert mean == pytest.approx(5.0)
        # t(0.025, 7) = 2.365, s = 2.138: hw = 2.365 * 2.138 / sqrt(8)
        assert hw == pytest.approx(1.788, abs=2e-3)

    def test_root_n_shrinkage(self):
        rng = np.random.default_rng(1)
        ratios = []
        for _ in range(100):
            small = rng.normal(0, 10, size=50)
            big = rng.normal(0, 10, size=200)
            ratios.append(confidence_interval(small)[1] / confidence_interval(big)[1])
        assert 1.9 <= float(np.mean(ratios)) <= 2.2

    def test_needs_two(self):
        with pytest.raises(InsufficientDataError):
            confidence_interval([1.0])


class TestTTest:
    def test_identical_samples(self):
        a = [5.0, 5.0, 5.0]
        assert t_test(a, a) == pytest.approx(1.0)

    def test_identical_distributions(self):
        a = [1.0, 2.0, 3.0]
        assert t_test(a, list(a)) == pytest.approx(1.0)

    def test_huge_shift_tiny_p(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0, 1, size=30)
        b = rng.normal(10, 1, size=30)
        assert t_test(a, b) < 1e-6

    def test_published_welch_pair(self):
        # the classic two-drug sleep-gain data; the unequal-variance test on
        # it is reported everywhere as t = -1.8608, df = 17.776, p = 0.0794
        a = [0.7, -1.6, -0.2, -1.2, -0.1, 3.4, 3.7, 0.8, 0.0, 2.0]
        b = [1.9, 0.8, 1.1, 0.1, -0.1, 4.4, 5.5, 1.6, 4.6, 3.4]
        assert t_test(a, b) == pytest.approx(0.0794, abs=1e-3)

    def test_against_quadrature_oracle(self):
        # independent oracle: integrate the t density tail numerically
        from scipy.integrate import quad

        def tail(t_stat, df):
            c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi)
                                            * math.gamma(df / 2))
            dens = lambda u: c * (1 + u * u / df) ** (-(df + 1) / 2)
            return quad(dens, abs(t_stat), math.inf)[0]

        a = [0.7, -1.6, -0.2, -1.2, -0.1, 3.4, 3.7, 0.8, 0.0, 2.0]
        b = [1.9, 0.8, 1.1, 0.1, -0.1, 4.4, 5.5, 1.6, 4.6, 3.4]
        x, y = np.asarray(a), np.asarray(b)
        vx, vy = x.var(ddof=1) / x.size, y.var(ddof=1) / y.size
        t_stat = (x.mean() - y.mean()) / math.sqrt(vx + vy)
        df = (vx + vy) ** 2 / (vx ** 2 / (x.size - 1) + vy ** 2 / (y.size - 1))
        assert t_test(a, b) == pytest.approx(2 * tail(t_stat, df), abs=1e-9)

    def test_one_sided_direction(self):
        rng = np.random.default_rng(3)
        low = rng.normal(0, 1, size=40)
        high = rng.normal(1, 1, size=40)
        assert t_test(low, high, alternative="less") < 0.01
        assert t_test(high, low, alternative="less") > 0.9

    def test_unknown_alternative(self):
        with pytest.raises(ParameterError):
            t_test([1, 2], [1, 2], alternative="greater?")


class TestEcvi:
    def test_no_noise_no_value(self):
        assert ecvi_gain_limit(50, 0.0) == 0.0

    def test_direct_evaluation(self):
        # 1.96 * 100 / sqrt(50)
        assert ecvi_gain_limit(50, 100.0) == pytest.approx(27.72, abs=0.01)

    def test_monotonicity(self):
        assert ecvi_gain_limit(50, 200.0) > ecvi_gain_limit(50, 100.0) > 0
        assert ecvi_gain_limit(100, 100.0) < ecvi_gain_limit(50, 100.0)

    def test_needs_two_current(self):
        with pytest.raises(InsufficientDataError):
            ecvi_gain_limit(1, 10.0)


class TestDecideSampleSize:
    def test_zero_noise_stops_immediately(self):
        assert decide_sample_size(70, 0.0, gain_floor=1.0, cap=500) == 70

    def test_zero_floor_exhausts_cap(self):
        assert decide_sample_size(70, 50.0, gain_floor=0.0, cap=500) == 500

    def test_scripted_stopping_oracle(self):
        # step through the rule by hand: remaining gain z*s/sqrt(n) with
        # z = 1.96, s = 100 is 27.7 at n=50, 19.6 at n=100, 16.0 at n=150;
        # the first batch total where it drops below 19 is 150
        out = decide_sample_size(50, 100.0, gain_floor=19.0, cap=500, batch=50)
        assert out == 150
        assert 50 < out <= 500

    def test_cap_respected(self):
        out = decide_sample_size(50, 1000.0, gain_floor=1.0, cap=120, batch=50)
        assert out == 120

    def test_bad_inputs(self):
        with pytest.raises(ParameterError):
            decide_sample_size(0, 1.0, 1.0, 10)
        with pytest.raises(ParameterError):
            decide_sample_size(50, 1.0, 1.0, 10)


class TestScipySpecialParity:
    """``duogame.stats`` evaluates t and normal distributions with the
    ``scipy.special`` functions instead of importing ``scipy.stats``."""

    QS = [1e-12, 0.001, 0.025, 0.1, 0.5, 0.9, 0.95, 0.975, 0.995, 1 - 1e-12]
    DFS = [1.0, 1.5, 2.0, 3.0, 7.3, 30.0, 98.0, 498.0, 1e4, 1e6]
    XS = [-math.inf, -1e3, -12.5, -2.0, -0.3, -0.0, 0.0, 0.3, 1.96, 4.0, 50.0,
          math.inf]

    def test_bit_identical_to_scipy_stats(self):
        from scipy import special
        from scipy import stats as sps

        q, df = np.meshgrid(self.QS, self.DFS)
        np.testing.assert_array_equal(special.stdtrit(df, q), sps.t.ppf(q, df))
        x, df = np.meshgrid(self.XS, self.DFS)
        np.testing.assert_array_equal(special.stdtr(df, -x), sps.t.sf(x, df))
        np.testing.assert_array_equal(special.stdtr(df, x), sps.t.cdf(x, df))
        q = np.array(self.QS)
        np.testing.assert_array_equal(special.ndtri(q), sps.norm.ppf(q))

    def test_cli_import_leaves_scipy_stats_out(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import duogame

        src = str(Path(duogame.__file__).resolve().parents[1])
        code = "import sys, duogame.cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"
