import math
import random

import numpy as np
import pytest

from tactsim import UsageError, gw_to_newtons, rmse


class TestGwToNewtons:
    def test_reference_weights(self):
        # 20, 50, 100 gw are quoted as 0.196, 0.49, 0.98 N
        assert gw_to_newtons(20) == pytest.approx(0.196, rel=1e-12)
        assert gw_to_newtons(50) == pytest.approx(0.49, rel=1e-12)
        assert gw_to_newtons(100) == pytest.approx(0.98, rel=1e-12)

    def test_zero(self):
        assert gw_to_newtons(0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gw_to_newtons(-1.0)

    def test_linearity(self):
        rng = random.Random(42)
        for _ in range(200):
            a = rng.uniform(0, 500)
            b = rng.uniform(0, 500)
            lhs = gw_to_newtons(a + b)
            rhs = gw_to_newtons(a) + gw_to_newtons(b)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestRmse:
    def test_identity_is_exactly_zero(self):
        assert rmse([0.5], [0.5]) == 0.0
        assert rmse([0.1, 0.2, 0.3], [0.1, 0.2, 0.3]) == 0.0

    def test_hand_computed_pair(self):
        assert rmse([0.0, 0.0], [0.1, 0.1]) == pytest.approx(0.1, rel=1e-12)

    def test_hand_computed_triple(self):
        # measured vs true forces of the three-weight accuracy experiment
        measured = [0.27, 0.63, 1.01]
        true = [0.196, 0.49, 0.98]
        expected = math.sqrt((0.074**2 + 0.14**2 + 0.03**2) / 3)
        value = rmse(measured, true)
        assert value == pytest.approx(expected, rel=1e-12)
        assert round(value, 4) == 0.0931

    def test_permutation_invariance_is_exact(self):
        rng = random.Random(7)
        x = [rng.uniform(0, 2) for _ in range(50)]
        y = [rng.uniform(0, 2) for _ in range(50)]
        baseline = rmse(x, y)
        for _ in range(20):
            perm = list(range(50))
            rng.shuffle(perm)
            assert rmse([x[i] for i in perm], [y[i] for i in perm]) == baseline

    def test_scaling(self):
        rng = random.Random(3)
        x = [rng.uniform(0, 2) for _ in range(30)]
        y = [rng.uniform(0, 2) for _ in range(30)]
        base = rmse(x, y)
        for k in (-3.5, -1.0, 0.25, 2.0, 10.0):
            scaled = rmse([k * v for v in x], [k * v for v in y])
            assert scaled == pytest.approx(abs(k) * base, rel=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(UsageError):
            rmse([1.0, 2.0], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            rmse([], [])

    # 1e200 squares past the largest float; 1.2e154 squares to 1.44e308,
    # so two of them overflow inside fsum's running sum.
    @pytest.mark.parametrize("force", (1e200, 1.2e154))
    @pytest.mark.parametrize("kind", (list, np.array))
    def test_overflowing_sum_of_squares_is_inf(self, force, kind):
        # Any warning fails the test, so this also checks that numpy
        # scalars raise none.
        assert rmse(kind([force, force]), kind([0.0, 0.0])) == math.inf
