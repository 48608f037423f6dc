"""Exact Markov-chain performance model of the random sensing-order policy.

One SU per slot walks a finite chain: from handoff state HO_n it skips with
probability 1-p or probes a uniformly chosen channel; a probe ends in a
transmission state T_n (free channel, no false alarm), an interference state
I_n (busy channel sensed free), or the next handoff state.  After the last
stage the walker parks in the terminate state TE.  HO_1 is a zero-duration
formal state: every slot starts there.

The model is mean-field: channel occupancy grows stage by stage with the
average number of SUs that started transmitting earlier, and every SU sees
the same stage-dependent occupancy and error probabilities.  Detection is
evaluated at :func:`rsop.detector.received_snr` of the PU presence
probability and that mean count of earlier senders.  One recursion
over the stages yields occupancy, sensing counts and the handoff population;
every other table is array algebra over its output.  Throughput and
interference follow from per-state occupation probabilities plus the
probability a competitor never transmits on a given channel from a given
stage on (the disposition total of a chain pruned of that channel's exits,
in closed form).  An array ``params.p`` evaluates a tau row (tau, p_i) at
once: tables gain a leading point axis (``...`` below), metrics are arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DetectorSpec, NetworkConfig, QosConstraints, SensingParams
from .core import max_sensing_stages, remaining_times
from .detector import (
    detection_prob,
    false_alarm_prob,
    received_snr,
    threshold_for_detection,
    threshold_for_false_alarm,
)
from .errors import RsopError, ScenarioError

_CLAMP_TOL = 1e-9


def _clamp01(x, what: str):
    """Clamp probabilities to [0, 1]; drift beyond 1e-9 or NaN is a real bug."""
    # method-form reductions: this check runs several times per analyzed point
    x = np.asarray(x, dtype=float)
    worst = max(float(x.max(initial=0.0)) - 1.0, -float(x.min(initial=1.0)))
    if not worst <= _CLAMP_TOL:  # also true for NaN, which max propagates
        raise RsopError(f"{what} left [0,1] by {worst:.3e}")
    return x.clip(0.0, 1.0)


# ---------------------------------------------------------------------------
# Detector resolution and stage profiles
# ---------------------------------------------------------------------------

@dataclass
class ResolvedDetector:
    """Detector with the threshold pinned; shared by analyzer and simulator."""

    mode: str                                # "energy" | "explicit"
    lambda_norm: np.ndarray | None = None    # per-channel normalized threshold
    p_fa: float | None = None                # explicit mode
    p_d_stages: np.ndarray | None = None     # explicit mode, indexed by stage
    per_stage_snr: bool = False

    def explicit_p_d(self, stage):
        """Explicit-mode detection probability at 1-based ``stage`` (or array
        of stages); stages past the listed ones repeat the last entry."""
        return self.p_d_stages[np.minimum(stage, len(self.p_d_stages)) - 1]


def resolve_detector(config: NetworkConfig, detector: DetectorSpec,
                     qos: QosConstraints | None,
                     nominal_tau: float) -> ResolvedDetector:
    """Fix the detector threshold once for a scenario.

    Energy mode calibrates lambda/sigma_z^2 per channel at ``calibrate_tau``
    (default: the nominal tau) against the stage-1 SNR so that either the
    stage-1 detection hits ``qos.p_d_min`` or the false alarm hits
    ``qos.p_fa_max``; the threshold is then held fixed for every (tau, p)
    evaluated afterwards.
    """
    if detector.mode == "explicit":
        p_d = np.atleast_1d(np.asarray(detector.p_d, dtype=float))
        return ResolvedDetector(mode="explicit", p_fa=float(detector.p_fa),
                                p_d_stages=p_d)
    if detector.threshold is not None:
        lam = np.full(config.n_pu, float(detector.threshold))
        return ResolvedDetector(mode="energy", lambda_norm=lam,
                                per_stage_snr=detector.per_stage_snr)
    if qos is None:
        raise ScenarioError("energy-detector calibration needs QoS targets")
    cal_tau = detector.calibrate_tau if detector.calibrate_tau is not None else nominal_tau
    if detector.calibration == "pd_min":
        lam = threshold_for_detection(config.snr_stage1, cal_tau,
                                      config.sampling_freq, qos.p_d_min)
    else:
        lam = np.full(
            config.n_pu,
            float(threshold_for_false_alarm(cal_tau, config.sampling_freq,
                                            qos.p_fa_max)),
        )
    return ResolvedDetector(mode="energy", lambda_norm=np.atleast_1d(lam),
                            per_stage_snr=detector.per_stage_snr)


@dataclass
class StageProfiles:
    """Per-channel, per-stage sensing error probabilities and mean SNRs."""

    p_fa: np.ndarray       # (n_pu,) stage-constant false alarm, p-independent
                           # ((..., n_pu) when tau is an array)
    p_d: np.ndarray        # (..., n_pu, n_stages) detection probability
    gamma: np.ndarray      # (..., n_pu, n_stages) mean SNR; zeros in explicit mode
    n_stages: int

    @property
    def p_md(self) -> np.ndarray:
        return 1.0 - self.p_d


@dataclass
class OccupancyTable:
    """Stage-by-stage mean-field channel state.

    occ[m, n-1]  occupancy of channel m at the start of stage n
    l[n-1]       mean number of SUs sensing each channel at stage n
    n_ho[n-1]    mean number of SUs in handoff state n
    q[m, n-1]    probability a probe of channel m at stage n ends in handoff
    """

    occ: np.ndarray
    l: np.ndarray
    n_ho: np.ndarray
    q: np.ndarray


def stage_profiles(config: NetworkConfig, params: SensingParams,
                   resolved: ResolvedDetector, n_stages: int) -> StageProfiles:
    """Error probabilities for every (channel, stage) at the given (tau, p).

    Stage 1 evaluates the detector at the lone-PU SNR; stage 2 at the mean
    SNR including the expected stage-1 SU transmitters; stages >= 3 reuse the
    stage-2 value (detection saturates) unless ``per_stage_snr`` keeps
    accumulating transmitters stage by stage; p enters only through those.
    ``params.tau`` is a scalar, or an array aligned with ``params.p`` (one
    point per entry, e.g. per SU); an array tau gives ``p_fa`` a leading
    point axis too.
    """
    npu, ns = config.n_pu, n_stages
    points = np.shape(params.p)
    if resolved.mode == "explicit":
        p_d = resolved.explicit_p_d(np.arange(1, ns + 1))
        return StageProfiles(p_fa=np.full(npu, resolved.p_fa),
                             p_d=np.tile(p_d, points + (npu, 1)),
                             gamma=np.zeros(points + (npu, ns)), n_stages=ns)

    lam = resolved.lambda_norm
    f_s = config.sampling_freq
    tau = np.asarray(params.tau)[..., None]  # against the per-channel lambda
    p_fa = _clamp01(false_alarm_prob(lam, tau, f_s), "p_fa")
    gamma = np.zeros(points + (npu, ns))
    p_d = np.zeros(points + (npu, ns))
    profiles = StageProfiles(p_fa=p_fa, p_d=p_d, gamma=gamma, n_stages=ns)

    def detect(i, snr):
        gamma[..., i] = snr
        p_d[..., i] = _clamp01(detection_prob(lam, tau, f_s, snr), "p_d")

    detect(0, config.snr_stage1)
    presence = config.presence_prob
    if ns > 1 and resolved.per_stage_snr:
        # Exact per-stage extension: each stage sees every earlier transmitter.
        _walk(config, params, profiles, lambda i, senders: detect(
            i, received_snr(config, presence, senders)))
    elif ns > 1:
        # gamma2: the mean-field count of stage-1 transmitters,
        # (N_s p / N_p)(1 - q_m1), with p as a column against the per-channel q1
        q1 = _handoff_prob(presence, p_fa, p_d[..., 0])
        p = np.asarray(params.p)[..., None]
        detect(1, received_snr(config, presence,
                               (config.n_su * p / config.n_pu) * (1.0 - q1)))
        gamma[..., 2:] = gamma[..., 1:2]
        p_d[..., 2:] = p_d[..., 1:2]
    return profiles


def _handoff_prob(occ, p_fa, p_d):
    """Probability q that a probe hands off: false alarm if free, detection if busy."""
    return (1.0 - occ) * p_fa + occ * p_d


# ---------------------------------------------------------------------------
# Occupancy recursion
# ---------------------------------------------------------------------------

def occupancy_evolution(config: NetworkConfig, params: SensingParams,
                        profiles: StageProfiles) -> OccupancyTable:
    """Stage-by-stage channel occupancy under the mean-field recursion.

    occ^(1) = P_m1 and

        occ^(n) = occ^(n-1)
                  + P_m0 * Pfa^(L^(1)+...+L^(n-2)) * U^(n-1)
        U^(n)   = 1 - Pfa^(L^(n))
        L^(n)   = (p / N_p) * N_HO^(n)
        N_HO^(n)= [(1-p) + (p/N_p) sum_m q_m^(n-1)] * N_HO^(n-1)

    with q_m^(n) = P_m0^(n) Pfa + P_m1^(n) P_d^(n) evaluated at the stage-n
    occupancy and detection probability.  Mean counts enter the false-alarm
    powers as real exponents, with 0**0 = 1 (no sensors, no effect).
    """
    return _walk(config, params, profiles)


def _walk(config: NetworkConfig, params: SensingParams, profiles: StageProfiles,
          detect=None) -> OccupancyTable:
    """The one stage recursion of the model (see ``occupancy_evolution``).

    ``detect(i, senders)``, when given, fills the detection column of 0-based
    stage i >= 1 in ``profiles`` before that stage's q is formed, from the
    mean number of SUs per channel that started transmitting earlier,
    senders = sum_{k<i} L^(k) (1 - q^(k)).  Range checks run on the finished tables.
    """
    npu, ns = config.n_pu, profiles.n_stages
    vacant = 1.0 - config.presence_prob
    p_fa = profiles.p_fa
    p = np.asarray(params.p, dtype=float)
    share = p / npu
    occ, q = np.empty((2,) + p.shape + (npu, ns))
    l, n_ho = np.empty((2,) + p.shape + (ns,))

    occ[..., 0] = config.presence_prob
    n_ho[..., 0] = config.n_su
    exponent = np.zeros(p.shape + (1,))
    senders = np.zeros(p.shape + (npu,))
    for i in range(ns):
        if i > 0:
            l_prev = l[..., i - 1, None]
            occ[..., i] = (occ[..., i - 1] + vacant * np.power(p_fa, exponent)
                           * (1.0 - np.power(p_fa, l_prev)))
            n_ho[..., i] = ((1.0 - p) + share * q[..., i - 1].sum(axis=-1)) * n_ho[..., i - 1]
            exponent = exponent + l_prev
            if detect is not None:
                senders = senders + l_prev * (1.0 - q[..., i - 1])
                detect(i, senders)
        l[..., i] = share * n_ho[..., i]
        q[..., i] = _handoff_prob(occ[..., i], p_fa, profiles.p_d[..., i])
    return OccupancyTable(occ=_clamp01(occ, "occupancy"), l=l, n_ho=n_ho,
                          q=_clamp01(q, "q"))


# ---------------------------------------------------------------------------
# State-occupation probabilities
# ---------------------------------------------------------------------------

@dataclass
class ChainDistribution:
    """Per-state occupation probabilities of one SU's chain walk."""

    pi_ho: np.ndarray       # (..., n_stages) probability of reaching HO_n
    pi_channel: np.ndarray  # (..., n_pu, n_stages) probability of probing m at stage n
    p_t: np.ndarray         # (..., n_pu, n_stages) entry into T_n through channel m
    p_i: np.ndarray         # (..., n_pu, n_stages) entry into I_n through channel m
    pi_t: np.ndarray        # (..., n_stages) transmission-state entry probability
    pi_i: np.ndarray        # (..., n_stages) interference-state entry probability
    pi_te: float | np.ndarray  # probability of terminating without transmitting

    def disposition_total(self) -> float | np.ndarray:
        return self.pi_te + self.pi_t.sum(axis=-1) + self.pi_i.sum(axis=-1)


def state_distribution(config: NetworkConfig, params: SensingParams,
                       profiles: StageProfiles,
                       occupancy: OccupancyTable) -> ChainDistribution:
    """Occupation probabilities of HO_n, m^(n), T_n, I_n and TE.

    An SU reaches HO_n with the handoff population's share N_HO^(n) / N_s and
    probes each channel with probability p / N_p from there.  A probe enters
    T_n when the channel is free and no false alarm fires, I_n when it is
    busy and missed; what reaches the last stage and does not leave there
    terminates.
    """
    pi_ho = occupancy.n_ho / config.n_su
    share = np.asarray(params.p, dtype=float)[..., None] / config.n_pu
    pi_ch = np.tile((share * pi_ho)[..., None, :], (config.n_pu, 1))
    p_t = pi_ch * (1.0 - occupancy.occ) * (1.0 - profiles.p_fa)[:, None]
    p_i = pi_ch * occupancy.occ * (1.0 - profiles.p_d)
    pi_te = pi_ho[..., -1] - np.sum(p_t[..., -1] + p_i[..., -1], axis=-1)
    return ChainDistribution(pi_ho=pi_ho, pi_channel=pi_ch, p_t=p_t, p_i=p_i,
                             pi_t=p_t.sum(axis=-2), pi_i=p_i.sum(axis=-2),
                             pi_te=pi_te)


def _no_tx_matrix(dist: ChainDistribution) -> np.ndarray:
    """Y_{m,n}: probability one SU never transmits on channel m at stages
    n..delta, for every (channel, stage) in one pass.

    A chain pruned of m's T/I exits from stage n on differs from the full
    chain only in which exits are counted, so its disposition total is
    Y_{m,n} = 1 - sum_{i>=n} (p_T + p_I)[m,i].  The test suite's pruned-chain
    walker is the reference; tests pin the equality.
    """
    exit_prob = dist.p_t + dist.p_i
    tail = np.cumsum(exit_prob[..., ::-1], axis=-1)[..., ::-1]
    return _clamp01(1.0 - tail, "no-tx probability")


# ---------------------------------------------------------------------------
# Performance metrics
# ---------------------------------------------------------------------------

@dataclass
class ChainResult:
    """Everything the analytic model says about one (tau, p) point or row."""

    params: SensingParams
    n_stages: int
    profiles: StageProfiles
    occupancy: OccupancyTable
    dist: ChainDistribution
    no_tx: np.ndarray          # Y_{m,n}, (..., n_pu, n_stages)
    success: np.ndarray        # Q_{T_n,m}, (..., n_pu, n_stages)
    no_interf: np.ndarray      # Z_{I_n,m}, (..., n_pu, n_stages)
    throughput: float          # r, per-SU, in units of C_R
    network_throughput: float  # N_s * r
    interference: float        # t_I, normalized by T * N_p
    p_md_max: float            # max over (m, n) of misdetection


def avg_throughput(config: NetworkConfig, params: SensingParams,
                   success: np.ndarray) -> float:
    """Average per-SU throughput r = (1/T) sum_{m,n} Q_{T_n,m} RT_n C_R."""
    rt = remaining_times(success.shape[-1], config.slot_duration, params.tau,
                         config.handoff_time)
    return (np.sum(success * rt, axis=(-2, -1)) * config.tx_rate
            / config.slot_duration)


def avg_interference(config: NetworkConfig, params: SensingParams,
                     no_interf: np.ndarray) -> float:
    """Normalized interference t_I = sum_{m,n} (1 - Z_{I_n,m}) RT_n / (T N_p)."""
    rt = remaining_times(no_interf.shape[-1], config.slot_duration, params.tau,
                         config.handoff_time)
    return (np.sum((1.0 - no_interf) * rt, axis=(-2, -1))
            / (config.slot_duration * config.n_pu))


def analyze(config: NetworkConfig, params: SensingParams,
            resolved: ResolvedDetector,
            n_stages: int | None = None) -> ChainResult:
    """Full analytic evaluation of one (tau, p) point or row (deterministic)."""
    params.validate(config.slot_duration)
    if n_stages is None:
        n_stages = max_sensing_stages(config.slot_duration, params.tau,
                                      config.handoff_time, config.n_pu)
    profiles = stage_profiles(config, params, resolved, n_stages)
    occupancy = occupancy_evolution(config, params, profiles)
    dist = state_distribution(config, params, profiles, occupancy)
    leak = np.max(np.abs(dist.disposition_total() - 1.0))
    if leak > _CLAMP_TOL:
        raise RsopError(f"chain disposition leaks {leak:.3e} of probability mass")

    no_tx = _no_tx_matrix(dist)
    success = dist.p_t * no_tx ** (config.n_su - 1)
    no_interf = (1.0 - dist.p_i) ** config.n_su

    r = avg_throughput(config, params, success)
    t_i = avg_interference(config, params, no_interf)
    return ChainResult(
        params=params,
        n_stages=n_stages,
        profiles=profiles,
        occupancy=occupancy,
        dist=dist,
        no_tx=no_tx,
        success=success,
        no_interf=no_interf,
        throughput=r,
        network_throughput=config.n_su * r,
        interference=t_i,
        p_md_max=np.max(profiles.p_md, axis=(-2, -1)),
    )


def analyze_scenario(scenario, tau: float | None = None,
                     p: float | None = None) -> ChainResult:
    """Analyze a scenario at its nominal point or at an override (tau, p)."""
    sc = scenario.with_params(tau=tau, p=p)
    resolved = resolve_detector(sc.config, sc.detector, sc.qos, scenario.params.tau)
    return analyze(sc.config, sc.params, resolved)
