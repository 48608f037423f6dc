import numpy as np
import pytest

from rsop.core import max_sensing_stages, remaining_times, upper_bound_throughput
from rsop.errors import InvalidTiming

T = 10e-3
TAU_H = 1e-7


class TestMaxSensingStages:
    def test_no_time_after_first_probe(self):
        assert max_sensing_stages(T, T, TAU_H, 5) == 1

    def test_capped_by_channel_count(self):
        # floor(9ms / 1.0001ms) = 8, min(8, 4) = 4
        assert max_sensing_stages(T, 1e-3, TAU_H, 5) == 5

    def test_capped_by_timing(self):
        assert max_sensing_stages(T, 1e-3, TAU_H, 20) == 9

    def test_invalid_tau(self):
        with pytest.raises(InvalidTiming):
            max_sensing_stages(T, 0.0, TAU_H, 5)
        with pytest.raises(InvalidTiming):
            max_sensing_stages(T, 1.1 * T, TAU_H, 5)

    def test_nonincreasing_in_tau(self):
        taus = np.linspace(1e-4, T, 80)
        deltas = [max_sensing_stages(T, float(t), TAU_H, 12) for t in taus]
        assert all(a >= b for a, b in zip(deltas, deltas[1:]))

    def test_array_matches_scalar(self):
        taus = np.concatenate([np.linspace(1e-5, T, 97), [T / 3, T / 2, 1e-3]])
        for n_pu in (1, 7, 100):
            deltas = max_sensing_stages(T, taus, TAU_H, n_pu)
            assert deltas.shape == taus.shape
            assert deltas.tolist() == [max_sensing_stages(T, float(t), TAU_H, n_pu)
                                       for t in taus]
        table = np.array([[1e-3, 2e-3], [6e-3, T]])
        assert max_sensing_stages(T, table, TAU_H, 20).tolist() == [[9, 4], [1, 1]]

    def test_array_rejects_any_bad_entry(self):
        for bad in (0.0, 1.1 * T, -1e-3, np.nan):
            with pytest.raises(InvalidTiming):
                max_sensing_stages(T, np.array([1e-3, bad, 2e-3]), TAU_H, 5)
        with pytest.raises(InvalidTiming):
            max_sensing_stages(T, np.nan, TAU_H, 5)

    def test_nondecreasing_in_n_pu(self):
        deltas = [max_sensing_stages(T, 1e-3, TAU_H, n) for n in range(1, 15)]
        assert all(a <= b for a, b in zip(deltas, deltas[1:]))
        assert all(1 <= d <= n for d, n in zip(deltas, range(1, 15)))


class TestRemainingTime:
    def test_first_stage(self):
        assert remaining_times(1, T, 2e-3, TAU_H)[0] == pytest.approx(T - 2e-3)

    def test_third_stage(self):
        # 10ms - 1ms - 2 * 1.0001ms = 6.9998 ms
        assert remaining_times(3, T, 1e-3, TAU_H)[2] == pytest.approx(6.9998e-3)

    def test_positive_at_last_stage(self):
        for tau in (1e-4, 1e-3, 3e-3, 4.9e-3):
            delta = max_sensing_stages(T, tau, TAU_H, 50)
            assert np.all(remaining_times(delta, T, tau, TAU_H) >= 0.0)

    def test_out_of_range(self):
        # no stage 0; stage 12 at tau = 1 ms ends after the slot does
        assert remaining_times(0, T, 1e-3, TAU_H).shape == (0,)
        assert remaining_times(12, T, 1e-3, TAU_H)[11] < 0.0
        assert max_sensing_stages(T, 1e-3, TAU_H, 50) < 12

    def test_constant_step(self):
        rts = remaining_times(6, T, 1e-3, TAU_H)
        steps = np.diff(rts)
        assert np.allclose(steps, -(1e-3 + TAU_H))
        assert np.all(np.diff(rts) < 0)


class TestUpperBound:
    def test_all_busy(self):
        assert upper_bound_throughput(5, np.ones(4)) == 0.0

    def test_channel_limited(self):
        assert upper_bound_throughput(5, [0.5] * 5) == pytest.approx(2.5)

    def test_su_limited(self):
        assert upper_bound_throughput(1, np.zeros(100)) == 1.0
