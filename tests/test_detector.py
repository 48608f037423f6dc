import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import default_qos, make_config
from rsop.detector import (
    detection_prob,
    false_alarm_prob,
    min_sensing_time,
    misdetection_prob,
    q_function,
    q_inverse,
    received_snr,
    sensing_time_floor,
    threshold_for_detection,
    threshold_for_false_alarm,
)
from rsop.errors import DegenerateSnr, TooFewSamples

F_S = 6.857e6


class TestFalseAlarmBits:
    """P_fa is the detector's tail at gamma = 0, to the bit of the direct
    formula Q((lambda - 1) sqrt(tau f_s))."""

    @staticmethod
    def direct(lam, tau):
        return q_function((np.asarray(lam) - 1.0) * np.sqrt(np.asarray(tau) * F_S))

    LAMS = np.array([0.5, 1.0, 1.0 + 1e-12, 1.0023456789, 1.01, 1.05, 1.3, 2.0])
    TAUS = np.geomspace(1.0 / F_S, 1e-2, 23)

    def test_array_tau(self):
        lam, tau = self.LAMS[:, None], self.TAUS[None, :]
        got = false_alarm_prob(lam, tau, F_S)
        assert got.shape == (self.LAMS.size, self.TAUS.size)
        assert got.tobytes() == self.direct(lam, tau).tobytes()

    def test_scalar_tau(self):
        for tau in self.TAUS:
            assert (false_alarm_prob(self.LAMS, float(tau), F_S).tobytes()
                    == self.direct(self.LAMS, float(tau)).tobytes())
            for lam in self.LAMS:
                got = false_alarm_prob(float(lam), float(tau), F_S)
                assert type(got) is np.float64
                assert got.tobytes() == self.direct(float(lam), float(tau)).tobytes()


class TestQFunction:
    def test_symmetry_point(self):
        assert q_function(0.0) == pytest.approx(0.5)

    def test_decile(self):
        assert q_function(1.2816) == pytest.approx(0.1, abs=1e-4)

    def test_two_sigma(self):
        assert q_function(2.0) == pytest.approx(0.02275, abs=1e-5)

    def test_reflection(self):
        x = np.linspace(-3, 3, 13)
        assert np.allclose(q_function(-x), 1.0 - q_function(x))

    def test_monotone_decreasing(self):
        x = np.linspace(-4, 4, 50)
        assert np.all(np.diff(q_function(x)) < 0)

    def test_inverse_roundtrip(self):
        p = np.linspace(0.01, 0.99, 25)
        assert np.allclose(q_function(q_inverse(p)), p, atol=1e-12)


    def test_shapes_and_scalar_types(self):
        for f in (q_function, q_inverse):
            assert type(f(0.3)) is np.float64
            assert type(f(np.array(0.3))) is np.float64
            assert f(np.full((2, 3), 0.3)).shape == (2, 3)
            assert f(np.empty((0, 4))).shape == (0, 4)

    def test_inverse_edges(self):
        # the limits of -ndtri: +inf at 0, -inf at 1, NaN off [0, 1]
        out = q_inverse(np.array([0.0, 1.0, np.nan, -0.1, 1.1, -np.inf]))
        assert out[0] == np.inf and out[1] == -np.inf
        assert np.isnan(out[2:]).all()
        assert q_inverse(0.0) == np.inf and np.isnan(q_inverse(np.nan))

    def test_matches_scipy_erfc(self):
        special = pytest.importorskip("scipy.special")
        # the two libraries differ in how they underflow below 1e-296 (x > 36)
        x = np.concatenate([np.linspace(-40.0, 36.0, 20001),
                            np.random.default_rng(0).uniform(-40.0, 36.0, 20000)])
        expect = 0.5 * special.erfc(x / np.sqrt(2.0))
        assert np.max(np.abs(q_function(x) - expect) / expect) <= 1e-13

    def test_inverse_matches_scipy_ndtri(self):
        special = pytest.importorskip("scipy.special")
        tail = np.geomspace(1e-9, 0.5, 10000)
        p = np.concatenate([np.linspace(1e-9, 1 - 1e-9, 20001), tail, 1 - tail])
        expect = -special.ndtri(p)
        ulps = np.abs(q_inverse(p) - expect) / np.spacing(np.abs(expect))
        assert ulps.max() <= 8


def test_import_loads_no_scipy():
    code = ("import sys, rsop, rsop.experiments; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], cwd=src,
                          stdout=subprocess.PIPE, text=True, timeout=120,
                          check=True)
    assert proc.stdout.strip() == "[]"


class TestFalseAlarm:
    def test_threshold_at_noise_level(self):
        for tau, fs in ((1e-3, F_S), (5e-4, 2e6)):
            assert false_alarm_prob(1.0, tau, fs) == pytest.approx(0.5)

    def test_hand_value(self):
        # lambda_norm=1.2, tau*fs=100 -> Q(2)
        assert false_alarm_prob(1.2, 100 / F_S, F_S) == pytest.approx(0.02275, abs=1e-5)

    def test_decreasing_in_tau_above_noise(self):
        taus = np.linspace(1e-4, 5e-3, 30)
        vals = false_alarm_prob(1.05, taus, F_S)
        assert np.all(np.diff(vals) < 0)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            false_alarm_prob(1.1, 1e-8, F_S)


class TestMisdetection:
    def test_half_at_signal_mean(self):
        gamma = 0.3
        assert misdetection_prob(1.0 + gamma, 1e-3, F_S, gamma) == pytest.approx(0.5)

    def test_zero_snr_is_false_alarm_complement(self):
        lam, tau = 1.07, 8e-4
        assert misdetection_prob(lam, tau, F_S, 0.0) == pytest.approx(
            1.0 - false_alarm_prob(lam, tau, F_S))

    def test_hand_value(self):
        # 1 - Q(-0.1 * 20 / sqrt(1.4))
        val = misdetection_prob(1.1, 400 / F_S, F_S, 0.2)
        assert val == pytest.approx(0.0455, abs=1e-3)

    def test_decreasing_in_tau_below_signal(self):
        taus = np.linspace(1e-4, 5e-3, 30)
        vals = misdetection_prob(1.05, taus, F_S, 0.2)
        # strictly decreasing until it underflows to exactly zero
        alive = vals > 0
        assert np.all(np.diff(vals[alive]) < 0)
        assert np.all(np.diff(vals) <= 0)

    def test_negative_snr_rejected(self):
        with pytest.raises(DegenerateSnr):
            misdetection_prob(1.1, 1e-3, F_S, -0.1)


class TestThresholdCalibration:
    def test_median_detection(self):
        assert threshold_for_detection(0.25, 1e-3, F_S, 0.5) == pytest.approx(1.25)

    @pytest.mark.parametrize("gamma,tau,target", [
        (0.1, 1e-4, 0.9), (0.05, 2e-3, 0.99), (1.0, 5e-4, 0.7),
    ])
    def test_roundtrip(self, gamma, tau, target):
        lam = threshold_for_detection(gamma, tau, F_S, target)
        assert misdetection_prob(lam, tau, F_S, gamma) == pytest.approx(
            1.0 - target, abs=1e-9)

    def test_hand_value(self):
        lam = threshold_for_detection(0.1, 685.7 / F_S, F_S, 0.9)
        assert lam == pytest.approx(1.0464, abs=1e-3)

    def test_false_alarm_roundtrip(self):
        lam = threshold_for_false_alarm(1e-3, F_S, 0.77)
        assert false_alarm_prob(lam, 1e-3, F_S) == pytest.approx(0.77, abs=1e-9)


class TestMinSensingTime:
    def test_vanishes_at_half_half(self):
        assert min_sensing_time(0.1, F_S, 0.5, 0.5) == pytest.approx(0.0, abs=1e-18)

    def test_hand_value(self):
        assert min_sensing_time(0.1, F_S, 0.1, 0.9) == pytest.approx(1.052e-4, rel=1e-3)

    def test_inverse_in_sampling_rate(self):
        assert min_sensing_time(0.1, 2 * F_S, 0.1, 0.9) == pytest.approx(
            min_sensing_time(0.1, F_S, 0.1, 0.9) / 2)

    def test_consistency_with_calibration(self):
        # at tau_min, pinning the false alarm at its cap leaves detection at
        # exactly its floor
        gamma, caps = 0.07, (0.1, 0.9)
        tau = min_sensing_time(gamma, F_S, *caps)
        lam = threshold_for_false_alarm(tau, F_S, caps[0])
        assert detection_prob(lam, tau, F_S, gamma) == pytest.approx(caps[1], abs=1e-9)

    def test_degenerate_snr(self):
        with pytest.raises(DegenerateSnr):
            min_sensing_time(0.0, F_S, 0.1, 0.9)

    @pytest.mark.parametrize("fs", [F_S, 49.0], ids=["6.857MHz", "49Hz"])
    def test_floor_is_at_least_one_sample(self, fs):
        # a strong PU meets both caps in under one sample (0.04 samples at
        # SNR 100), and 1/f_s rounds to just under one at 49 Hz
        qos = default_qos()
        config = make_config(pu_power=100.0, fs=fs)
        assert min_sensing_time(100.0, fs, 0.1, 0.9) * fs < 1.0
        floor = sensing_time_floor(config, qos)
        assert floor * fs >= 1.0 and floor <= 1.0 / fs * (1 + 1e-15)
        # a weak PU's floor is its minimum sensing time
        config = make_config(pu_power=0.02, fs=fs)
        assert sensing_time_floor(config, qos) == min_sensing_time(
            0.02, fs, 0.1, 0.9)


class TestStageSnr:
    """The paper's stage SNRs, gamma1 (the PU alone) and gamma2 (plus the
    mean-field stage-1 senders), through ``received_snr``."""

    def test_stage1_is_pu_only(self):
        config = make_config(n_su=20, n_pu=10, pu_power=0.3, noise=1.5)
        assert received_snr(config, 1.0, 0.0) == pytest.approx(0.2)

    def test_silent_sus(self):
        # N_s=2, N_p=2, p=0.8, q1=0.5: 0.4 mean stage-1 senders of no power
        config = make_config(presence=0.5, pu_power=0.1, su_power=1e-30)
        senders = (2 * 0.8 / 2) * (1 - 0.5)
        assert received_snr(config, 0.5, senders) == pytest.approx(0.5 * 0.1, rel=1e-6)

    def test_zero_access_probability(self):
        # p = 0: no SU ever starts transmitting, the PU alone at its presence
        config = make_config(presence=0.5, pu_power=0.1, su_power=0.4)
        senders = (2 * 0.0 / 2) * (1 - 0.5)
        assert received_snr(config, 0.5, senders) == pytest.approx(0.5 * 0.1)

    def test_hand_value(self):
        # N_s=20, N_p=10, p=0.8, equal powers, P=0.5, q1=0.5 -> 1.3 gamma1
        config = make_config(n_su=20, n_pu=10, presence=0.5, pu_power=0.1,
                             su_power=0.1)
        senders = (20 * 0.8 / 10) * (1 - 0.5)
        assert received_snr(config, 0.5, senders) == pytest.approx(1.3 * 0.1)

    def test_per_channel_arrays(self):
        config = make_config(n_su=20, n_pu=3, presence=[0.2, 0.5, 0.8],
                             pu_power=[0.1, 0.2, 0.3], su_power=0.4, noise=2.0)
        senders = np.array([0.3, 0.5, 0.7])
        g = received_snr(config, config.presence_prob, senders)
        assert g.shape == (3,)
        assert g == pytest.approx([(0.2 * 0.1 + 0.3 * 0.4) / 2.0,
                                   (0.5 * 0.2 + 0.5 * 0.4) / 2.0,
                                   (0.8 * 0.3 + 0.7 * 0.4) / 2.0])
        # realized (PU state, sender count) cells, the channel on the last axis
        table = received_snr(config, np.arange(2)[:, None, None],
                             np.arange(4)[:, None])
        assert table.shape == (2, 4, 3)
        assert table[1, 0] == pytest.approx(config.snr_stage1)
        assert table[0, :, 1] == pytest.approx(np.arange(4) * 0.4 / 2.0)
