"""Slot timing arithmetic and the ideal throughput bound."""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidTiming


def max_sensing_stages(slot_duration: float, tau: float, handoff_time: float,
                       n_pu: int) -> int:
    """Maximum number of channels an SU can sense in one slot.

    delta = 1 + min(floor((T - tau) / (tau + tau_h)), N_p - 1); always in
    [1, N_p].  The first probe costs tau, every further probe costs a handoff
    plus another sensing period.
    """
    if tau <= 0 or tau > slot_duration:
        raise InvalidTiming(f"tau={tau} outside (0, T={slot_duration}]")
    if handoff_time < 0:
        raise InvalidTiming(f"handoff_time={handoff_time} must be nonnegative")
    if n_pu < 1:
        raise InvalidTiming(f"n_pu={n_pu} must be at least 1")
    extra = math.floor((slot_duration - tau) / (tau + handoff_time))
    return 1 + min(extra, n_pu - 1)


def remaining_times(n_stages: int, slot_duration: float, tau: float,
                    handoff_time: float) -> np.ndarray:
    """Transmission time left after each probe ends, for n = 1..n_stages.

    RT_n = T - tau - (n - 1)(tau + tau_h); it is nonnegative for every stage
    n <= delta (``max_sensing_stages``).
    """
    n = np.arange(1, n_stages + 1)
    return slot_duration - tau - (n - 1) * (tau + handoff_time)


def upper_bound_throughput(n_su: int, presence_prob) -> float:
    """Ideal network throughput bound: min(N_s, sum_m (1 - P_m1)).

    No sensing overhead, no errors, no collisions: limited only by the number
    of SUs and the mean number of vacant channels.
    """
    free = float(np.sum(1.0 - np.asarray(presence_prob, dtype=float)))
    return min(float(n_su), free)
