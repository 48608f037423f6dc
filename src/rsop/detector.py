"""Energy-detector mathematics: error probabilities, calibration, received SNR.

All probabilities use the Gaussian approximation of the accumulated energy
statistic over w = tau * f_s samples:

    P_fa = Q((lambda/sigma_z^2 - 1) sqrt(tau f_s))
    P_md = 1 - Q((lambda/sigma_z^2 - 1 - gamma) sqrt(tau f_s / (1 + 2 gamma)))

that is, one tail :func:`exceed_prob` at gamma = 0 and its complement at
gamma (its tau-free factors are :func:`tail_terms`, their value at tau
:func:`tail_at`), with Q the standard normal upper tail, taken from the
standard library: Q(x) = erfc(x / sqrt 2) / 2 with :func:`math.erfc`, and
Q^{-1} from :meth:`statistics.NormalDist.inv_cdf` (Wichura's AS241
algorithm, Applied Statistics 37, 1988).  The false alarm never depends on
the signal, so it is identical at every sensing stage; detection improves
(or degrades) with the stage-dependent received SNR.  That SNR has one
implementation, :func:`received_snr`: the chain model evaluates it at mean
PU presence and mean-field sender counts, the simulator at realized ones.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .errors import DegenerateSnr, TooFewSamples


_STANDARD_NORMAL = NormalDist()
_SQRT2 = math.sqrt(2.0)


def _elementwise(func, x) -> np.ndarray:
    """``func`` of every entry of the float array ``x``, in its shape."""
    return np.fromiter(map(func, x.ravel().tolist()), float,
                       count=x.size).reshape(x.shape)


def _q_inverse(p: float) -> float:
    if 0.0 < p < 1.0:
        return -_STANDARD_NORMAL.inv_cdf(p)
    if p == 0.0:
        return math.inf
    if p == 1.0:
        return -math.inf
    return math.nan  # NaN, or outside [0, 1]


def q_function(x):
    """Standard normal upper-tail probability Q(x), entry by entry."""
    return 0.5 * _elementwise(math.erfc, np.asarray(x, dtype=float) / _SQRT2)


def q_inverse(p):
    """Inverse of :func:`q_function`, entry by entry: +inf at 0, -inf at 1,
    and NaN for NaN or outside [0, 1]."""
    # [()] makes a 0-d result a scalar, as q_function's product does
    return _elementwise(_q_inverse, np.asarray(p, dtype=float))[()]


def _samples(tau, f_s):
    """tau f_s, the samples of a probe of length tau; fewer than one is an
    error."""
    w = np.asarray(tau) * f_s
    # method-form reductions: this check runs once per adaptive frame
    if (w < 1.0).any():
        raise TooFewSamples(f"tau*f_s={w.min()} < 1 sample")
    return w


def tail_terms(lambda_norm, gamma):
    """The tau-free factors of :func:`exceed_prob` at received SNR ``gamma``:
    (lambda - 1 - gamma, 1 + 2 gamma), broadcast against each other.  A
    caller that evaluates the tail at many tau for fixed (lambda, gamma)
    computes them once and passes them to :func:`tail_at`."""
    g = np.asarray(gamma, dtype=float)
    if (g < 0).any():
        raise DegenerateSnr("gamma must be nonnegative")
    return np.asarray(lambda_norm) - 1.0 - g, 1.0 + 2.0 * g


def tail_at(terms, tau, f_s):
    """:func:`exceed_prob` from its ``tail_terms`` (shift, spread):
    Q(shift sqrt(tau f_s / spread))."""
    shift, spread = terms
    return q_function(shift * np.sqrt(_samples(tau, f_s) / spread))


def exceed_prob(lambda_norm, tau, f_s, gamma):
    """Probability that the energy statistic exceeds the threshold at received
    SNR ``gamma`` (linear): Q((lambda - 1 - gamma) sqrt(tau f_s / (1 + 2 gamma))).

    P_fa at gamma = 0, where lambda - 1 - 0 and tau f_s / 1 are exact, so it
    is the false-alarm formula to the bit; the detection probability at
    gamma > 0, whose complement is the misdetection."""
    return tail_at(tail_terms(lambda_norm, gamma), tau, f_s)


def false_alarm_prob(lambda_norm, tau, f_s):
    """False-alarm probability; stage-independent for a fixed threshold."""
    return exceed_prob(lambda_norm, tau, f_s, 0.0)


def misdetection_prob(lambda_norm, tau, f_s, gamma):
    """Misdetection probability at received SNR ``gamma`` (linear)."""
    return 1.0 - exceed_prob(lambda_norm, tau, f_s, gamma)


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
    w = _samples(tau, f_s)
    g = np.asarray(gamma, dtype=float)
    return 1.0 + g + q_inverse(p_d_target) * np.sqrt((1.0 + 2.0 * g) / w)


def threshold_for_false_alarm(tau, f_s, p_fa_target: float):
    """Normalized threshold giving false-alarm probability ``p_fa_target``."""
    if not 0 < p_fa_target < 1:
        raise DegenerateSnr(f"p_fa_target={p_fa_target} must lie in (0, 1)")
    return 1.0 + q_inverse(p_fa_target) / np.sqrt(_samples(tau, f_s))


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
    """Max over channels of :func:`min_sensing_time` at the stage-1 SNR, and
    at least one sample: a strong PU meets both caps in less than one."""
    return max(float(np.max(min_sensing_time(config.snr_stage1, config.sampling_freq,
                                             qos.p_fa_max, qos.p_d_min))),
               config.one_sample)


def received_snr(config, pu_present, senders, channels=slice(None)):
    """Received SNR (pu_present sigma_p^2 + senders sigma_s^2) / sigma_z^2.

    ``pu_present`` is the PU's presence (0/1, or its probability P_m1) and
    ``senders`` the number of SUs transmitting on the channel (realized, or a
    mean-field count); both broadcast with the channel on the last axis,
    which holds the channels ``channels`` index (default: all)."""
    return ((pu_present * config.pu_power[channels] + senders * config.su_power)
            / config.noise_power)
