"""Energy-detector mathematics: error probabilities, calibration, received SNR.

All probabilities use the Gaussian approximation of the accumulated energy
statistic over w = tau * f_s samples:

    P_fa = Q((lambda/sigma_z^2 - 1) sqrt(tau f_s))
    P_md = 1 - Q((lambda/sigma_z^2 - 1 - gamma) sqrt(tau f_s / (1 + 2 gamma)))

with Q the standard normal upper tail.  The false alarm never depends on the
signal, so it is identical at every sensing stage; detection improves (or
degrades) with the stage-dependent received SNR.  That SNR has one
implementation, :func:`received_snr`: the chain model evaluates it at mean
PU presence and mean-field sender counts, the simulator at realized ones.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erfc, ndtri

from .errors import DegenerateSnr, TooFewSamples


def q_function(x):
    """Standard normal upper-tail probability Q(x)."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def q_inverse(p):
    """Inverse of :func:`q_function` on (0, 1)."""
    return -ndtri(np.asarray(p, dtype=float))


def _check_samples(tau, f_s):
    # method-form reductions: these checks run once per simulated stage
    if (np.asarray(tau) * f_s < 1.0).any():
        raise TooFewSamples(f"tau*f_s={np.min(np.asarray(tau) * f_s)} < 1 sample")


def false_alarm_prob(lambda_norm, tau, f_s):
    """False-alarm probability; stage-independent for a fixed threshold."""
    _check_samples(tau, f_s)
    return q_function((np.asarray(lambda_norm) - 1.0) * np.sqrt(np.asarray(tau) * f_s))


def misdetection_prob(lambda_norm, tau, f_s, gamma):
    """Misdetection probability at received SNR ``gamma`` (linear)."""
    g = np.asarray(gamma, dtype=float)
    if (g < 0).any():
        raise DegenerateSnr("gamma must be nonnegative")
    _check_samples(tau, f_s)
    arg = (np.asarray(lambda_norm) - 1.0 - g) * np.sqrt(
        np.asarray(tau) * f_s / (1.0 + 2.0 * g)
    )
    return 1.0 - q_function(arg)


def detection_prob(lambda_norm, tau, f_s, gamma):
    """P_d = 1 - P_md."""
    return 1.0 - misdetection_prob(lambda_norm, tau, f_s, gamma)


def threshold_for_detection(gamma, tau, f_s, p_d_target: float):
    """Normalized threshold giving detection probability ``p_d_target``.

    Inverts the misdetection formula:
    lambda/sigma_z^2 = 1 + gamma + Q^{-1}(p_d) sqrt((1 + 2 gamma)/(tau f_s)).
    """
    if not 0 < p_d_target < 1:
        raise DegenerateSnr(f"p_d_target={p_d_target} must lie in (0, 1)")
    _check_samples(tau, f_s)
    g = np.asarray(gamma, dtype=float)
    return 1.0 + g + q_inverse(p_d_target) * np.sqrt(
        (1.0 + 2.0 * g) / (np.asarray(tau) * f_s)
    )


def threshold_for_false_alarm(tau, f_s, p_fa_target: float):
    """Normalized threshold giving false-alarm probability ``p_fa_target``."""
    if not 0 < p_fa_target < 1:
        raise DegenerateSnr(f"p_fa_target={p_fa_target} must lie in (0, 1)")
    _check_samples(tau, f_s)
    return 1.0 + q_inverse(p_fa_target) / np.sqrt(np.asarray(tau) * f_s)


def min_sensing_time(gamma, f_s, p_fa_max: float, p_d_min: float):
    """Shortest sensing time meeting both error caps simultaneously.

    tau_min = (Q^{-1}(P_fa_max) - Q^{-1}(P_d_min) sqrt(1 + 2 gamma))^2
              / (gamma^2 f_s)

    Below this tau no threshold can achieve P_fa <= P_fa_max and
    P_d >= P_d_min at SNR ``gamma`` at the same time.
    """
    g = np.asarray(gamma, dtype=float)
    if np.any(g <= 0):
        raise DegenerateSnr("tau_min is unbounded at gamma = 0")
    if not 0 < p_fa_max < 1 or not 0 < p_d_min < 1:
        raise DegenerateSnr("error caps must lie in (0, 1)")
    root = q_inverse(p_fa_max) - q_inverse(p_d_min) * np.sqrt(1.0 + 2.0 * g)
    out = root**2 / (g**2 * f_s)
    return float(out) if np.isscalar(gamma) or np.ndim(gamma) == 0 else out


def sensing_time_floor(config, qos) -> float:
    """Max over channels of :func:`min_sensing_time` at the stage-1 SNR."""
    return float(np.max(min_sensing_time(config.snr_stage1, config.sampling_freq,
                                         qos.p_fa_max, qos.p_d_min)))


def received_snr(config, pu_present, senders, channels=slice(None)):
    """Received SNR (pu_present sigma_p^2 + senders sigma_s^2) / sigma_z^2.

    ``pu_present`` is the PU's presence (0/1, or its probability P_m1) and
    ``senders`` the number of SUs transmitting on the channel (realized, or a
    mean-field count); both broadcast with the channel on the last axis,
    which holds the channels ``channels`` index (default: all)."""
    return ((pu_present * config.pu_power[channels] + senders * config.su_power)
            / config.noise_power)
