"""Exact Markov-chain performance model of the random sensing-order policy.

One SU per slot walks a finite chain: from handoff state HO_n it skips with
probability 1-p or probes a uniformly chosen channel; a probe ends in a
transmission state T_n (free channel, no false alarm), an interference state
I_n (busy channel sensed free), or the next handoff state.  After the last
stage the walker parks in the terminate state TE.  HO_1 is a zero-duration
formal state: every slot starts there.

The model is mean-field: channel occupancy grows stage by stage with the
average number of SUs that started transmitting earlier, and every SU sees
the same stage-dependent occupancy and error probabilities.  Stage-1
detection is evaluated at the lone-PU SNR, and every later stage at
:func:`rsop.detector.received_snr` of the PU presence probability and the
mean count of stage-1 senders.  One recursion
over the stages yields occupancy, sensing counts and the handoff population;
every other table is array algebra over its output.  Throughput and
interference follow from per-state occupation probabilities plus the
probability a competitor never transmits on a given channel from a given
stage on (the disposition total of a chain pruned of that channel's exits,
in closed form).  Aligned arrays ``params.tau`` and ``params.p`` evaluate
many points (tau_i, p_i) at once, each of its own stage budget delta(tau)
(an array ``p`` with a scalar ``tau`` is a tau row): tables gain a leading
point axis (``...`` below) and run to the longest budget, metrics are arrays.
The walk is elementwise per point, so each point's first delta stages are
those of a call at its budget alone; every reduction over stages stops at the
point's own delta, and a point's stages past it hold no probes and no exits.

Channels meet only in sums: the handoff population's sum over channels of q,
and the sums over (channel, stage) in r and t_I.  Channels with equal
(P_m1, sigma_p^2, lambda_m) therefore have equal tables (they are lumpable),
and the chain runs at channel-class resolution: the classes are fixed once
per resolved detector (:class:`ChannelClasses`), and every recursion and
table is computed once per class.  Where channels meet, each class enters
the sum once, weighted by its channel count.  The channel axis is expanded
with the class index only where a caller reads a per-channel table (``p_d``,
``occ``, ``success``, ...; built on first read).
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
    tail_terms,
    threshold_for_detection,
    threshold_for_false_alarm,
)
from .errors import RsopError, ScenarioError

_CLAMP_TOL = 1e-9


def _clamp01(x, what: str):
    """Clamp probabilities to [0, 1], in place for a float array (the chain
    passes only tables it has just built); drift beyond 1e-9 or NaN is a real
    bug."""
    # method-form reductions: this check runs several times per analyzed point
    x = np.asarray(x, dtype=float)
    lo, hi = float(x.min(initial=1.0)), float(x.max(initial=0.0))
    if lo > 0.0 and hi <= 1.0:  # clip() would change nothing (not even -0.0)
        return x
    worst = max(hi - 1.0, -lo)
    if not worst <= _CLAMP_TOL:  # also true for NaN, which max propagates
        raise RsopError(f"{what} left [0,1] by {worst:.3e}")
    return x.clip(0.0, 1.0, out=x)


# ---------------------------------------------------------------------------
# Channel classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelClasses:
    """Channels grouped by equal (P_m1, sigma_p^2, lambda_m).

    The chain evaluates each class once, at its representative channel."""

    rep: np.ndarray   # (n_classes,) representative channel of each class
    of: np.ndarray    # (n_pu,) class of each channel
    size: np.ndarray  # (n_classes,) channels per class, as float weights

    @classmethod
    def of_channels(cls, config: NetworkConfig,
                    lambda_norm=None) -> "ChannelClasses":
        """Classes of ``config``'s channels under the per-channel threshold
        ``lambda_norm`` (explicit detectors have none)."""
        lam = np.zeros(config.n_pu) if lambda_norm is None else lambda_norm
        key = np.stack([config.presence_prob, config.pu_power,
                        np.broadcast_to(lam, (config.n_pu,))], axis=1)
        _, rep, of, size = np.unique(key, axis=0, return_index=True,
                                     return_inverse=True, return_counts=True)
        return cls(rep=rep, of=of.ravel(), size=size.astype(float))

    def expand(self, table, axis: int = -2) -> np.ndarray:
        """Per-channel table from a class table whose class axis is ``axis``."""
        return np.take(table, self.of, axis=axis)


class _OnFirstRead:
    """An attribute that ``build(owner)`` makes on its first read, kept for
    later reads: the chain's per-channel views (``_per_channel``), and the
    ``SlotBatch`` fields ``simulate_slots`` leaves unset (None).  A value
    set by hand is never built.  Read on the class it is None, the default
    of a dataclass field."""

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return None
        value = obj.__dict__.get(self.name)
        if value is None:
            value = obj.__dict__[self.name] = self.build(obj)
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


def _per_channel(name: str, axis: int = -2) -> _OnFirstRead:
    """Per-channel view of the owner's class table ``class_<name>`` (class
    axis ``axis``), expanded through its ``classes``."""
    return _OnFirstRead(lambda obj: obj.classes.expand(
        getattr(obj, "class_" + name), axis))


# ---------------------------------------------------------------------------
# Detector resolution and stage profiles
# ---------------------------------------------------------------------------

@dataclass
class ResolvedDetector:
    """Threshold-pinned detector of one network; shared by analyzer and simulator."""

    mode: str                                # "energy" | "explicit"
    classes: ChannelClasses                  # the chain's channel classes
    lambda_norm: np.ndarray | None = None    # per-channel normalized threshold
    # energy mode: detector.tail_terms at the realized SNR of every (PU
    # present, SUs transmitting there 0..N_s, class), the simulator's cells
    realized: tuple[np.ndarray, np.ndarray] | None = None
    p_fa: float | None = None                # explicit mode
    p_d_stages: np.ndarray | None = None     # explicit mode, indexed by stage

    def explicit_p_d(self, stage):
        """Explicit-mode detection probability at 1-based ``stage`` (or array
        of stages); stages past the listed ones repeat the last entry."""
        return self.p_d_stages[np.minimum(stage, len(self.p_d_stages)) - 1]

    def check_network(self, config: NetworkConfig):
        """Raise ``ScenarioError`` unless ``config`` has the channels and, for
        the energy detector's realized table, the SUs resolved for."""
        if self.classes.of.size != config.n_pu:
            raise ScenarioError(f"detector resolved for {self.classes.of.size} "
                                f"channels, network has {config.n_pu}")
        n_su = None if self.realized is None else self.realized[0].shape[1] - 1
        if n_su not in (None, config.n_su):
            raise ScenarioError(f"detector resolved for {n_su} SUs, network "
                                f"has {config.n_su}")


def resolve_detector(config: NetworkConfig, detector: DetectorSpec,
                     qos: QosConstraints | None,
                     nominal_tau: float) -> ResolvedDetector:
    """Fix the detector threshold once for a scenario.

    Energy mode calibrates lambda/sigma_z^2 per channel at ``calibrate_tau``
    (default: the nominal tau) against the stage-1 SNR so that either the
    stage-1 detection hits ``qos.p_d_min`` or the false alarm hits
    ``qos.p_fa_max``; the threshold is then held fixed for every (tau, p)
    evaluated afterwards.  The channel classes are fixed here too, and the
    energy detector's tail terms at every realized SNR the simulator meets.
    """
    if detector.mode == "explicit":
        p_d = np.atleast_1d(np.asarray(detector.p_d, dtype=float))
        return ResolvedDetector(mode="explicit",
                                classes=ChannelClasses.of_channels(config),
                                p_fa=float(detector.p_fa), p_d_stages=p_d)
    if detector.threshold is not None:
        lam = np.full(config.n_pu, float(detector.threshold))
    elif qos is None:
        raise ScenarioError("energy-detector calibration needs QoS targets")
    else:
        cal_tau = (detector.calibrate_tau if detector.calibrate_tau is not None
                   else nominal_tau)
        if detector.calibration == "pd_min":
            lam = threshold_for_detection(config.snr_stage1, cal_tau,
                                          config.sampling_freq, qos.p_d_min)
        else:
            lam = np.full(
                config.n_pu,
                float(threshold_for_false_alarm(cal_tau, config.sampling_freq,
                                                qos.p_fa_max)),
            )
        lam = np.atleast_1d(lam)
    classes = ChannelClasses.of_channels(config, lam)
    gamma = received_snr(config, np.arange(2)[:, None, None],
                         np.arange(config.n_su + 1)[:, None], classes.rep)
    return ResolvedDetector(mode="energy", classes=classes, lambda_norm=lam,
                            realized=tail_terms(lam[classes.rep], gamma))


@dataclass
class StageProfiles:
    """Per-class, per-stage sensing error probabilities.

    ``p_fa`` and ``p_d`` are the per-channel views, with n_pu in place of
    n_classes."""

    class_p_fa: np.ndarray   # (n_classes,) stage-constant false alarm,
                             # p-independent ((..., n_classes) when tau is an array)
    class_p_d: np.ndarray    # (..., n_classes, n_stages) detection probability
    n_stages: int
    classes: ChannelClasses

    p_fa = _per_channel("p_fa", axis=-1)
    p_d = _per_channel("p_d")


@dataclass
class OccupancyTable:
    """Stage-by-stage mean-field channel state.

    occ[m, n-1]  occupancy of channel m at the start of stage n
    l[n-1]       mean number of SUs sensing each channel at stage n
    n_ho[n-1]    mean number of SUs in handoff state n
    q[m, n-1]    probability a probe of channel m at stage n ends in handoff

    ``occ`` and ``q`` are per-channel views of ``class_occ`` and ``class_q``.
    """

    class_occ: np.ndarray
    l: np.ndarray
    n_ho: np.ndarray
    class_q: np.ndarray
    classes: ChannelClasses

    occ = _per_channel("occ")
    q = _per_channel("q")


def stage_profiles(config: NetworkConfig, params: SensingParams,
                   resolved: ResolvedDetector, n_stages: int) -> StageProfiles:
    """Error probabilities for every (channel, stage) at the given (tau, p).

    Stage 1 evaluates the detector at the lone-PU SNR, stage 2 at the mean
    SNR that adds the expected stage-1 SU transmitters
    (``stage2_detection``), and stages >= 3 reuse the stage-2 value
    (detection saturates); p enters only through stage 2.  ``params.tau``
    is a scalar, or an array aligned with ``params.p`` (one point per
    entry, e.g. per SU); an array tau gives ``p_fa`` a leading point axis
    too.  The tau-only terms (P_fa and the stage-1 P_d) are evaluated once
    per run of equal consecutive tau, e.g. once per tau row of a grid.  Each
    class is evaluated at its representative channel; the finished tables
    are range-checked once.
    """
    resolved.check_network(config)
    classes = resolved.classes
    nc, ns = classes.rep.size, n_stages
    points = np.shape(params.p)
    if resolved.mode == "explicit":
        p_d = resolved.explicit_p_d(np.arange(1, ns + 1))
        # a read-only view: every point and class has the same table
        return StageProfiles(class_p_fa=np.full(nc, resolved.p_fa),
                             class_p_d=np.broadcast_to(p_d, points + (nc, ns)),
                             n_stages=ns, classes=classes)

    rep = classes.rep
    lam = resolved.lambda_norm[rep]
    f_s = config.sampling_freq
    tau_rows, row_of = _tau_runs(params.tau)
    tau_rows = tau_rows[..., None]  # against the per-class lambda
    p_fa = false_alarm_prob(lam, tau_rows, f_s)[row_of]
    p_d = np.zeros(points + (nc, ns))
    p_d[..., 0] = detection_prob(lam, tau_rows, f_s, config.snr_stage1[rep])[row_of]
    if ns > 1:
        p_d[..., 1:] = stage2_detection(config, resolved, params.tau, params.p,
                                        p_fa, p_d[..., 0])[..., None]
    return StageProfiles(class_p_fa=_clamp01(p_fa, "p_fa"),
                         class_p_d=_clamp01(p_d, "p_d"), n_stages=ns,
                         classes=classes)


def stage2_detection(config: NetworkConfig, resolved: ResolvedDetector, tau,
                     p, p_fa, p_d1):
    """Mean-field stage-2 detection probability of the energy detector
    ``resolved``'s channel classes, from their stage-1 P_fa and P_d (arrays
    of shape (..., n_classes)) at sensing time ``tau`` and sensing
    probability ``p`` (shape (...)).

    The detector is evaluated at the mean SNR gamma2, which adds the
    mean-field count of stage-1 transmitters, (N_s p / N_p)(1 - q_m1), with
    tau and p as columns against the per-class terms."""
    rep = resolved.classes.rep
    presence = config.presence_prob[rep]
    q1 = _handoff_prob(presence, p_fa, p_d1)
    p = np.asarray(p)[..., None]
    gamma2 = received_snr(config, presence,
                          (config.n_su * p / config.n_pu) * (1.0 - q1), rep)
    return detection_prob(resolved.lambda_norm[rep], np.asarray(tau)[..., None],
                          config.sampling_freq, gamma2)


def _tau_runs(tau):
    """The first tau of each run of equal consecutive entries of ``tau``, and
    an index that gives every entry (in ``tau``'s shape) its run."""
    tau = np.asarray(tau, dtype=float)
    flat = tau.ravel()
    starts = flat[1:] != flat[:-1]
    if starts.all():  # no repeats, a single point or a scalar
        return tau, ...
    starts = np.concatenate(([True], starts))
    return flat[starts], (starts.cumsum() - 1).reshape(tau.shape)


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
    powers as real exponents, with 0**0 = 1 (no sensors, no effect).  Tables
    are per class; the sum of q over the channels weights each class by its
    channel count.  Range checks run on the finished tables.
    """
    classes, ns = profiles.classes, profiles.n_stages
    nc = classes.rep.size
    presence = config.presence_prob[classes.rep]
    vacant = 1.0 - presence
    p_fa = profiles.class_p_fa
    p = np.asarray(params.p, dtype=float)
    share = p / config.n_pu
    occ, q = np.empty((2,) + p.shape + (nc, ns))
    l, n_ho = np.empty((2,) + p.shape + (ns,))

    occ[..., 0] = presence
    n_ho[..., 0] = config.n_su
    exponent = np.zeros(p.shape + (1,))
    for i in range(ns):
        if i > 0:
            l_prev = l[..., i - 1, None]
            occ[..., i] = (occ[..., i - 1] + vacant * np.power(p_fa, exponent)
                           * (1.0 - np.power(p_fa, l_prev)))
            q_sum = (q[..., i - 1] * classes.size).sum(axis=-1)
            n_ho[..., i] = ((1.0 - p) + share * q_sum) * n_ho[..., i - 1]
            exponent = exponent + l_prev
        l[..., i] = share * n_ho[..., i]
        q[..., i] = _handoff_prob(occ[..., i], p_fa, profiles.class_p_d[..., i])
    return OccupancyTable(class_occ=_clamp01(occ, "occupancy"), l=l, n_ho=n_ho,
                          class_q=_clamp01(q, "q"), classes=classes)


# ---------------------------------------------------------------------------
# State-occupation probabilities
# ---------------------------------------------------------------------------

@dataclass
class ChainDistribution:
    """Per-state occupation probabilities of one SU's chain walk.

    ``pi_channel``, ``p_t`` and ``p_i`` are the per-channel views, with n_pu
    in place of n_classes."""

    pi_ho: np.ndarray             # (..., n_stages) probability of reaching HO_n
    class_pi_channel: np.ndarray  # (..., n_classes, n_stages) probability of
                                  # probing a channel of the class at stage n
    class_p_t: np.ndarray   # (..., n_classes, n_stages) entry into T_n through a channel
    class_p_i: np.ndarray   # (..., n_classes, n_stages) entry into I_n through a channel
    pi_t: np.ndarray        # (..., n_stages) transmission-state entry probability
    pi_i: np.ndarray        # (..., n_stages) interference-state entry probability
    pi_te: float | np.ndarray  # probability of terminating without transmitting
    classes: ChannelClasses

    pi_channel = _per_channel("pi_channel")
    p_t = _per_channel("p_t")
    p_i = _per_channel("p_i")

    def disposition_total(self) -> float | np.ndarray:
        return self.pi_te + self.pi_t.sum(axis=-1) + self.pi_i.sum(axis=-1)


def state_distribution(config: NetworkConfig, params: SensingParams,
                       profiles: StageProfiles, occupancy: OccupancyTable,
                       deltas) -> ChainDistribution:
    """Occupation probabilities of HO_n, m^(n), T_n, I_n and TE.

    An SU reaches HO_n with the handoff population's share N_HO^(n) / N_s and
    probes each channel with probability p / N_p from there.  A probe enters
    T_n when the channel is free and no false alarm fires, I_n when it is
    busy and missed; what reaches the last stage and does not leave there
    terminates.  The stage totals weight each class by its channel count.
    ``deltas``, each point's stage budget (one for a tau row), ends a
    point's walk where its budget does, which may be before the tables end:
    its stages past delta probe nothing, and it terminates from HO_delta.
    """
    classes = occupancy.classes
    pi_ho = occupancy.n_ho / config.n_su
    deltas = np.broadcast_to(deltas, pi_ho.shape[:-1])
    share = np.asarray(params.p, dtype=float)[..., None] / config.n_pu
    probe = share * pi_ho
    probe[np.arange(pi_ho.shape[-1]) >= deltas[..., None]] = 0.0
    occ = occupancy.class_occ
    # a read-only view: every class is probed alike
    pi_ch = np.broadcast_to(probe[..., None, :], occ.shape)
    p_t = pi_ch * (1.0 - occ) * (1.0 - profiles.class_p_fa)[..., None]
    p_i = pi_ch * occ * (1.0 - profiles.class_p_d)
    size = classes.size[:, None]
    pi_t, pi_i = (size * p_t).sum(axis=-2), (size * p_i).sum(axis=-2)
    # numpy adds the classes of a one-stage table pairwise (from 8 classes
    # on), not in turn as in a stage column of a longer one: one-stage
    # points sum as a call of their budget alone does
    lone = deltas == 1
    pi_t[lone, :1], pi_i[lone, :1] = ((size * t[lone][..., :1]).sum(axis=-2)
                                      for t in (p_t, p_i))
    last = deltas[..., None] - 1
    pi_te = (np.take_along_axis(pi_ho, last, -1)
             - np.take_along_axis(pi_t, last, -1)
             - np.take_along_axis(pi_i, last, -1))[..., 0]
    return ChainDistribution(pi_ho=pi_ho, class_pi_channel=pi_ch, class_p_t=p_t,
                             class_p_i=p_i, pi_t=pi_t, pi_i=pi_i, pi_te=pi_te,
                             classes=classes)


def worst_misdetection(p_md: np.ndarray, deltas):
    """Max over classes and each point's first ``deltas`` stages of a
    (..., n_classes, n_stages) misdetection table; stages past a point's
    delta do not enter its max."""
    in_budget = np.arange(p_md.shape[-1]) < np.asarray(deltas)[..., None, None]
    return p_md.max(axis=(-2, -1), where=in_budget, initial=0.0)


def _no_tx_matrix(dist: ChainDistribution) -> np.ndarray:
    """Y_{m,n}: probability one SU never transmits on channel m at stages
    n..delta, for every (class, stage) in one pass.

    A chain pruned of m's T/I exits from stage n on differs from the full
    chain only in which exits are counted, so its disposition total is
    Y_{m,n} = 1 - sum_{i>=n} (p_T + p_I)[m,i].  The test suite's pruned-chain
    walker is the reference; tests pin the equality.
    """
    exit_prob = dist.class_p_t + dist.class_p_i
    tail = np.cumsum(exit_prob[..., ::-1], axis=-1)[..., ::-1]
    return _clamp01(1.0 - tail, "no-tx probability")


# ---------------------------------------------------------------------------
# Performance metrics
# ---------------------------------------------------------------------------

@dataclass
class ChainResult:
    """Everything the analytic model says about one (tau, p) point or a batch
    of points.

    ``no_tx``, ``success`` and ``no_interf`` are the per-channel views,
    (..., n_pu, n_stages)."""

    params: SensingParams
    n_stages: int              # table length: the longest budget of the points
    delta: int | np.ndarray    # each point's stage budget delta(tau)
    profiles: StageProfiles
    occupancy: OccupancyTable
    dist: ChainDistribution
    class_no_tx: np.ndarray      # Y_{m,n}, (..., n_classes, n_stages)
    class_success: np.ndarray    # Q_{T_n,m}, (..., n_classes, n_stages)
    class_no_interf: np.ndarray  # Z_{I_n,m}, (..., n_classes, n_stages)
    throughput: float          # r, per-SU, in units of C_R
    network_throughput: float  # N_s * r
    interference: float        # t_I, normalized by T * N_p
    p_md_max: float            # max over (m, n) of misdetection
    classes: ChannelClasses

    no_tx = _per_channel("no_tx")
    success = _per_channel("success")
    no_interf = _per_channel("no_interf")


def _channel_sum(table: np.ndarray, classes: ChannelClasses):
    """Sum over (channel, stage) of a (..., n_classes, n_stages) class table,
    each class weighted by its channel count."""
    return (classes.size[:, None] * table).sum(axis=(-2, -1))


def _remaining_times(config: NetworkConfig, params: SensingParams,
                     n_stages: int) -> np.ndarray:
    """RT_n against a (..., n_classes, n_stages) table, per point of ``params``."""
    return remaining_times(n_stages, config.slot_duration,
                           np.asarray(params.tau)[..., None, None],
                           config.handoff_time)


def avg_throughput(config: NetworkConfig, params: SensingParams,
                   success: np.ndarray, classes: ChannelClasses) -> float:
    """Average per-SU throughput r = (1/T) sum_{m,n} Q_{T_n,m} RT_n C_R, from
    the class table ``success``."""
    rt = _remaining_times(config, params, success.shape[-1])
    return (_channel_sum(success * rt, classes) * config.tx_rate
            / config.slot_duration)


def avg_interference(config: NetworkConfig, params: SensingParams,
                     no_interf: np.ndarray, classes: ChannelClasses) -> float:
    """Normalized interference t_I = sum_{m,n} (1 - Z_{I_n,m}) RT_n / (T N_p),
    from the class table ``no_interf``."""
    rt = _remaining_times(config, params, no_interf.shape[-1])
    return (_channel_sum((1.0 - no_interf) * rt, classes)
            / (config.slot_duration * config.n_pu))


def analyze(config: NetworkConfig, params: SensingParams,
            resolved: ResolvedDetector) -> ChainResult:
    """Full analytic evaluation of one (tau, p) point, a tau row, or aligned
    (tau, p) arrays of mixed stage budget delta(tau) (deterministic).

    One stage walk serves every point, to the longest budget; each point's
    metrics equal those of a call at its budget alone, bit for bit."""
    params.validate(config.slot_duration)
    if np.ndim(params.tau) and np.shape(params.tau) != np.shape(params.p):
        raise ScenarioError(f"tau of shape {np.shape(params.tau)} is not "
                            f"aligned with p of shape {np.shape(params.p)}")
    deltas = max_sensing_stages(config.slot_duration, params.tau,
                                config.handoff_time, config.n_pu)
    n_stages = int(np.max(deltas))
    profiles = stage_profiles(config, params, resolved, n_stages)
    occupancy = occupancy_evolution(config, params, profiles)
    dist = state_distribution(config, params, profiles, occupancy, deltas)
    leak = np.max(np.abs(dist.disposition_total() - 1.0))
    if leak > _CLAMP_TOL:
        raise RsopError(f"chain disposition leaks {leak:.3e} of probability mass")

    no_tx = _no_tx_matrix(dist)
    success = dist.class_p_t * no_tx ** (config.n_su - 1)
    no_interf = (1.0 - dist.class_p_i) ** config.n_su
    r, t_i = _metrics_by_budget(config, params, deltas, success, no_interf,
                                dist.classes)
    return ChainResult(
        params=params,
        n_stages=n_stages,
        delta=deltas,
        profiles=profiles,
        occupancy=occupancy,
        dist=dist,
        class_no_tx=no_tx,
        class_success=success,
        class_no_interf=no_interf,
        throughput=r,
        network_throughput=config.n_su * r,
        interference=t_i,
        p_md_max=worst_misdetection(1.0 - profiles.class_p_d, deltas),
        classes=dist.classes,
    )


def _metrics_by_budget(config: NetworkConfig, params: SensingParams, deltas,
                       success: np.ndarray, no_interf: np.ndarray,
                       classes: ChannelClasses):
    """r and t_I of every point (a tau row's tau and budget hold for each of
    its points), one budget group at a time over a contiguous copy of its
    first delta stages, so each sum adds as in a call at that budget alone."""
    shape = np.shape(params.p)
    tau, p, flat = (np.broadcast_to(a, shape).ravel()
                    for a in (params.tau, params.p, deltas))
    success, no_interf = (t.reshape((-1,) + t.shape[-2:])
                          for t in (success, no_interf))
    r, t_i = np.empty((2, flat.size))
    # the distinct deltas; np.unique would import numpy.ma on first use
    for delta in np.flatnonzero(np.bincount(flat)).tolist():
        idx = np.flatnonzero(flat == delta)
        group = SensingParams(tau[idx], p[idx])
        r[idx] = avg_throughput(config, group, success[idx, :, :delta], classes)
        t_i[idx] = avg_interference(config, group, no_interf[idx, :, :delta],
                                    classes)
    return r.reshape(shape)[()], t_i.reshape(shape)[()]


def analyze_scenario(scenario, tau: float | None = None,
                     p: float | None = None) -> ChainResult:
    """Analyze a scenario at its nominal point or at an override (tau, p)."""
    sc = scenario.with_params(tau=tau, p=p)
    resolved = resolve_detector(sc.config, sc.detector, sc.qos, scenario.params.tau)
    return analyze(sc.config, sc.params, resolved)
