"""Distributed per-SU adaptation of (tau, p) by sign-feedback subgradients.

Each SU runs frames of ``n_ep`` slots.  After a frame it compares its ACK-based
throughput estimate with the previous frame, checks the interference and
misdetection caps, and nudges tau and p by a diminishing step in the direction
suggested by the comparison (coarse tuning).  The fine-tuning variant
additionally tilts the per-stage schedule inside each slot: later stages sense
a little shorter and more eagerly.  No messages pass between SUs.

The SUs update independently and in lockstep, so the closed loop holds their
state as (N_s,) arrays: each frame makes one simulator call, one
``stage_profiles`` call for every SU's misdetection check (each SU masked to
its own delta(tau) stages), one estimate, one update and, for fine tuning,
one broadcast of the per-stage tables.  Called with one SU's floats, the
same functions give that SU's view.

The update is a projected stochastic subgradient step, so the classic
square-summable step-size machinery applies; the diagnostics here implement
its norm identity, convergence bound, and a Monte Carlo check that the mean
update direction at a point aligns with the (numerical) gradient of the
analytic objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import (
    ResolvedDetector,
    analyze,
    resolve_detector,
    stage_profiles,
)
from .config import NetworkConfig, QosConstraints, SensingParams
from .core import max_sensing_stages
from .detector import min_sensing_time
from .errors import InvalidSchedule, ScenarioError, ShortFrame
from .simulator import SlotBatch, SuSchedules, simulate_slots


# ---------------------------------------------------------------------------
# Step-size schedules
# ---------------------------------------------------------------------------

def harmonic_alpha(k: int) -> float:
    """The default diminishing step size, alpha_k = 1/k."""
    return 1.0 / k


def check_step_schedule(alphas) -> None:
    """Sanity-check a finite prefix of a step-size schedule.

    Steps must be nonnegative and decay fast enough that the square sum looks
    convergent while the plain sum keeps growing; a finite prefix can only be
    screened heuristically, which is all this does."""
    a = np.asarray(alphas, dtype=float)
    if a.ndim != 1 or a.size < 2:
        raise InvalidSchedule("schedule prefix must be a 1-D array with >= 2 entries")
    if np.any(a < 0):
        raise InvalidSchedule("step sizes must be nonnegative")
    half = a.size // 2
    if np.sum(a[half:] ** 2) >= np.sum(a[:half] ** 2):
        raise InvalidSchedule("square sum does not look convergent")


# ---------------------------------------------------------------------------
# Per-SU state and the coarse update
# ---------------------------------------------------------------------------

@dataclass
class AdaptiveConfig:
    """Algorithm constants shared by every SU."""

    n_ep: int = 50                 # slots per frame
    delta_tau: float = 1e-4        # coarse tau increment (seconds); 0.01 T default
    delta_p: float = 0.025         # coarse p increment
    delta_tau_fine: float = 1e-4   # per-stage tau decrement (fine tuning)
    delta_p_fine: float = 0.025    # per-stage p increment (fine tuning)
    tau_floor: float = 0.0         # projection floor for tau (tau_min)
    slot_duration: float = 0.01    # projection ceiling for tau
    alpha: object = harmonic_alpha  # diminishing step-size schedule k -> alpha_k

    def __post_init__(self):
        if self.n_ep < 1:
            raise ScenarioError("n_ep must be >= 1")


@dataclass
class AdaptiveState:
    """Every SU's view of the adaptation: current point, previous point and
    last throughput estimate as (N_s,) arrays, and the shared frame index k.

    Floats in place of the arrays make the one-SU view; every function here
    takes either."""

    tau: np.ndarray
    p: np.ndarray
    prev_tau: np.ndarray
    prev_p: np.ndarray
    prev_r_est: np.ndarray
    k: int = 1

    @classmethod
    def initial(cls, tau1: float, p1: float, tau_min: float,
                n_su: int) -> "AdaptiveState":
        """Algorithm start: (tau^0, p^0) = (tau_min, 0) and a zero throughput
        baseline, so the first comparison treats any throughput as progress."""
        def full(value):
            return np.full(n_su, float(value))
        return cls(tau=full(tau1), p=full(p1), prev_tau=full(tau_min),
                   prev_p=full(0.0), prev_r_est=full(0.0))


@dataclass
class FrameEstimate:
    """What the SUs learn from one frame (arrays over SUs, or one SU's floats)."""

    r_est: np.ndarray    # mean ACKed throughput over the frame
    t_i_est: float       # mean normalized interference time over the frame
    p_md: np.ndarray     # analytic misdetection at the SU's current tau (worst stage)


@dataclass
class UpdateRecord:
    """Events and the raw subgradient of one coarse update, per SU."""

    k: int
    improved: np.ndarray  # event A
    tau_grew: np.ndarray  # event B
    p_grew: np.ndarray    # event C
    flip_tau: np.ndarray  # event D = XOR(A, B)
    flip_p: np.ndarray    # event E = XOR(A, C)
    g_tau: np.ndarray     # +-delta_tau, before step size and projection
    g_p: np.ndarray       # +-delta_p


def frame_estimate(batch: SlotBatch, su, n_ep: int, p_md) -> FrameEstimate:
    """Fold one frame of slot outcomes into the SUs' estimates.

    ``su`` is one SU's index (float estimates) or an index array or slice of
    SUs (arrays in that order), with ``p_md`` to match.  Throughput comes
    from each SU's own ACKs.  The interference estimate is the frame mean of
    the network interference sample; an SU cannot observe PU overlap on its
    own, so the simulator acts as the reporting oracle (the per-SU caused
    share is also in the batch for diagnostics).
    """
    if batch.throughput.shape[0] < n_ep:
        raise ShortFrame(f"frame has {batch.throughput.shape[0]} < {n_ep} slots")
    # one contiguous row per SU, so each mean is that of a 1-D array
    acks = np.ascontiguousarray(batch.throughput[:n_ep].T[su])
    return FrameEstimate(
        r_est=acks.mean(axis=-1),
        t_i_est=float(batch.network_interference[:n_ep].mean()),
        p_md=p_md,
    )


def _improved(r_est, prev_r_est, t_i_est, p_md, qos: QosConstraints):
    """Event A: throughput did not drop and both caps held.

    Ties (>=) count as improvement.  Works elementwise on arrays too."""
    return ((r_est >= prev_r_est) & (t_i_est <= qos.t_i_max)
            & (p_md <= qos.p_md_max))


def _raw_step(improved, grew, delta: float):
    """(flip, g): a coordinate keeps its last direction on improvement and
    reverses otherwise, so flip = XOR(improved, grew) and the step subtracted
    from it is g = +-delta.  Works elementwise on arrays too."""
    flip = improved != grew
    return flip, delta * (2 * flip - 1)


def alg1_update(state: AdaptiveState, est: FrameEstimate, qos: QosConstraints,
                cfg: AdaptiveConfig) -> tuple[AdaptiveState, UpdateRecord]:
    """One coarse update of every SU's (tau, p) from frame-k estimates.

    Each coordinate moves by alpha_k times its raw step (``_raw_step``), then
    is projected onto the box.
    """
    improved = _improved(est.r_est, state.prev_r_est, est.t_i_est, est.p_md, qos)
    tau_grew = state.tau >= state.prev_tau
    p_grew = state.p >= state.prev_p
    flip_tau, g_tau = _raw_step(improved, tau_grew, cfg.delta_tau)
    flip_p, g_p = _raw_step(improved, p_grew, cfg.delta_p)

    alpha = cfg.alpha(state.k)
    tau_next = np.minimum(np.maximum(state.tau - g_tau * alpha, cfg.tau_floor),
                          cfg.slot_duration)
    p_next = np.minimum(np.maximum(state.p - g_p * alpha, 0.0), 1.0)

    record = UpdateRecord(k=state.k, improved=improved, tau_grew=tau_grew,
                          p_grew=p_grew, flip_tau=flip_tau, flip_p=flip_p,
                          g_tau=g_tau, g_p=g_p)
    new_state = AdaptiveState(tau=tau_next, p=p_next, prev_tau=state.tau,
                              prev_p=state.p, prev_r_est=est.r_est,
                              k=state.k + 1)
    return new_state, record


def alg2_stage_schedule(state: AdaptiveState, delta,
                        cfg: AdaptiveConfig) -> tuple[np.ndarray, np.ndarray]:
    """Fine-tuned per-stage schedule for the current frame.

    tau decreases linearly toward its floor and p increases linearly toward 1
    as the stage index grows; stage 1 uses the frame-level point, so zero fine
    increments reproduce the coarse algorithm exactly.  One SU with budget
    ``delta`` gets (delta,) arrays; (N_s,) states and budgets get
    (N_s, max delta) tables, each SU padded with its own last stage."""
    delta = np.asarray(delta)
    if (delta < 1).any():
        raise ScenarioError("delta must be >= 1")
    n = np.minimum(np.arange(delta.max()), delta[..., None] - 1)
    tau = np.maximum(cfg.tau_floor,
                     np.asarray(state.tau)[..., None] - n * cfg.delta_tau_fine)
    p = np.minimum(1.0, np.asarray(state.p)[..., None] + n * cfg.delta_p_fine)
    return tau, p


# ---------------------------------------------------------------------------
# Convergence diagnostics
# ---------------------------------------------------------------------------

def convergence_constants(n_su: int, slot_duration: float, delta_tau: float,
                          delta_p: float) -> tuple[float, float]:
    """(G^2, R^2) for the subgradient bound.

    The stacked subgradient always has squared norm exactly
    N_s (delta_tau^2 + delta_p^2) because every coordinate moves by its full
    increment each step; the start-distance bound uses the box diameter."""
    g2 = n_su * (delta_tau**2 + delta_p**2)
    r2 = n_su * (slot_duration**2 + 1.0)
    return g2, r2


def _alpha_sums(alpha, k: int) -> tuple[float, float]:
    """(sum_{i<=k} alpha_i, sum_{i=1..inf} alpha_i^2) for a schedule spec.

    ``alpha`` is either the string "harmonic" (exact tail pi^2/6) or a
    sequence of at least k nonnegative steps together with a convergent
    square-sum estimated from the given prefix."""
    if isinstance(alpha, str):
        if alpha != "harmonic":
            raise InvalidSchedule(f"unknown schedule {alpha!r}")
        partial = float(np.sum(1.0 / np.arange(1, k + 1)))
        return partial, math.pi**2 / 6.0
    a = np.asarray(alpha, dtype=float)
    if a.size < k:
        raise InvalidSchedule(f"schedule prefix shorter than k={k}")
    check_step_schedule(a)
    return float(np.sum(a[:k])), float(np.sum(a**2))


def convergence_bound(g2: float, r2: float, alpha, k: int) -> float:
    """Bound on E|f_best^k - f*|: (R^2 + G^2 sum alpha_i^2) / (2 sum_{i<=k} alpha_i)."""
    if k < 1:
        raise InvalidSchedule("k must be >= 1")
    partial, total_sq = _alpha_sums(alpha, k)
    return (r2 + g2 * total_sq) / (2.0 * partial)


def corollary_check(g2: float, epsilon: float, alpha, k: int) -> bool:
    """Whether sum_{i<=k} alpha_i (2 eps - G^2 alpha_i) >= 0.

    This is the parameter condition under which the convergence bound can be
    pushed below ``epsilon``."""
    if epsilon <= 0:
        raise InvalidSchedule("epsilon must be positive")
    if isinstance(alpha, str):
        if alpha != "harmonic":
            raise InvalidSchedule(f"unknown schedule {alpha!r}")
        a = 1.0 / np.arange(1, k + 1)
    else:
        a = np.asarray(alpha, dtype=float)[:k]
        if a.size < k:
            raise InvalidSchedule(f"schedule prefix shorter than k={k}")
    return bool(np.sum(a * (2.0 * epsilon - g2 * a)) >= 0.0)


# ---------------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------------

@dataclass
class FrameLog:
    """One frame of the closed loop (arrays indexed by SU)."""

    k: int
    tau: np.ndarray
    p: np.ndarray
    r_est: np.ndarray
    t_i_est: float
    improved: np.ndarray
    flip_tau: np.ndarray
    flip_p: np.ndarray
    g_norm_sq: float            # ||stacked subgradient||^2 this frame
    network_throughput: float   # frame-mean simulated network throughput
    interference: float         # frame-mean simulated network interference
    f_visited: float = float("nan")  # analyzer objective -r at the visited point
    f_best: float = float("nan")     # running best feasible objective


@dataclass
class AdaptiveRun:
    """Closed-loop result: the trajectory plus converged-window summaries."""

    frames: list[FrameLog]
    converged_network_throughput: float
    converged_interference: float
    se_network_throughput: float
    se_interference: float
    final_tau: np.ndarray
    final_p: np.ndarray


def _adaptive_cfg(scenario, resolved: ResolvedDetector) -> AdaptiveConfig:
    ad = scenario.adaptive
    cfg = scenario.config
    t = cfg.slot_duration
    if ad.tau_min is not None:
        floor = ad.tau_min
    elif resolved.mode == "energy":
        floor = float(np.max(min_sensing_time(cfg.snr_stage1, cfg.sampling_freq,
                                              scenario.qos.p_fa_max,
                                              scenario.qos.p_d_min)))
    else:
        floor = 1.0 / cfg.sampling_freq  # tau has no sensing effect; one sample
    return AdaptiveConfig(
        n_ep=ad.n_ep,
        delta_tau=ad.delta_tau if ad.delta_tau is not None else 0.01 * t,
        delta_p=ad.delta_p,
        delta_tau_fine=ad.delta_tau_fine if ad.delta_tau_fine is not None else 0.01 * t,
        delta_p_fine=ad.delta_p_fine,
        tau_floor=min(floor, t),
        slot_duration=t,
    )


def _analytic_p_md(config: NetworkConfig, resolved: ResolvedDetector, tau, p):
    """Worst-stage misdetection each SU computes locally for its current tau:
    the ``p_md_max`` of ``analyze``, over the same delta(tau) stages.

    Scalars give one SU's value.  Aligned (N_s,) arrays give every SU's value
    from one ``stage_profiles`` call over the longest budget; the stages past
    an SU's own delta are masked out before its max (p_md >= 0)."""
    deltas = max_sensing_stages(config.slot_duration, tau, config.handoff_time,
                                config.n_pu)
    prof = stage_profiles(config, SensingParams(tau=tau, p=p), resolved,
                          int(np.max(deltas)))
    beyond = np.arange(prof.n_stages) >= np.expand_dims(deltas, -1)
    return np.max(np.where(beyond[..., None, :], 0.0, prof.p_md), axis=(-2, -1))


def _standard_error(samples: np.ndarray) -> float:
    """Standard error of the mean; NaN for fewer than two samples."""
    if samples.size < 2:
        return float("nan")
    return float(samples.std(ddof=1) / np.sqrt(samples.size))


def run_adaptive(scenario, algorithm: int = 1, n_frames: int = 500,
                 seed=0, track_objective: bool = False) -> AdaptiveRun:
    """Run the closed loop: simulate frames, update every SU, log the path.

    ``algorithm`` 1 adapts a single (tau, p) per SU per frame; 2 additionally
    spreads a per-stage schedule inside each slot.  Updates are synchronous at
    frame boundaries and SUs share nothing but the air, so each frame runs
    the misdetection check, the estimate and the update once, as arrays over
    the SUs.  With ``track_objective`` every visited point is also scored by
    the analyzer (feasible points only) to maintain the running-best
    objective that the convergence bound speaks about.
    """
    if algorithm not in (1, 2):
        raise ScenarioError("algorithm must be 1 or 2")
    if n_frames < 1:
        raise ScenarioError(f"n_frames must be >= 1, got {n_frames}")
    config, qos = scenario.config, scenario.qos
    resolved = resolve_detector(config, scenario.detector, qos, scenario.params.tau)
    cfg = _adaptive_cfg(scenario, resolved)
    ad = scenario.adaptive
    tau1 = ad.initial_tau if ad.initial_tau is not None else scenario.params.tau
    p1 = ad.initial_p if ad.initial_p is not None else scenario.params.p
    state = AdaptiveState.initial(tau1, p1, cfg.tau_floor, config.n_su)
    rng = np.random.default_rng(seed)

    analyze_cache: dict[tuple, tuple[float, bool]] = {}

    def objective(tau: float, p: float) -> tuple[float, bool]:
        key = (round(tau, 15), round(p, 15))
        if key not in analyze_cache:
            res = analyze(config, SensingParams(tau=tau, p=p), resolved)
            feas = (res.interference <= qos.t_i_max
                    and res.p_md_max <= qos.p_md_max)
            analyze_cache[key] = (-res.throughput, feas)
        return analyze_cache[key]

    frames: list[FrameLog] = []
    f_best = math.inf
    for _ in range(n_frames):
        if algorithm == 2:
            deltas = max_sensing_stages(config.slot_duration, state.tau,
                                        config.handoff_time, config.n_pu)
            schedules = SuSchedules.from_stage_table(
                config, *alg2_stage_schedule(state, deltas, cfg))
        else:
            schedules = SuSchedules.from_per_su(config, state.tau, state.p)

        batch = simulate_slots(config, schedules, resolved, cfg.n_ep, rng)
        p_md = _analytic_p_md(config, resolved, state.tau, state.p)
        est = frame_estimate(batch, slice(None), cfg.n_ep, p_md)

        f_visited = float("nan")
        if track_objective:
            vals = [f_val for f_val, feas in map(objective, state.tau, state.p)
                    if feas]
            if vals:
                f_visited = float(np.mean(vals))
                f_best = min(f_best, f_visited)

        new_state, rec = alg1_update(state, est, qos, cfg)
        frames.append(FrameLog(
            k=rec.k,
            tau=state.tau,
            p=state.p,
            r_est=est.r_est,
            t_i_est=est.t_i_est,
            improved=rec.improved,
            flip_tau=rec.flip_tau,
            flip_p=rec.flip_p,
            # summed in SU order
            g_norm_sq=float(sum(rec.g_tau**2 + rec.g_p**2)),
            network_throughput=float(batch.throughput.sum(axis=1).mean()),
            interference=est.t_i_est,  # the frame is the whole batch
            f_visited=f_visited,
            f_best=f_best if f_best < math.inf else float("nan"),
        ))
        state = new_state

    window = frames[(3 * len(frames)) // 4:]
    net = np.array([f.network_throughput for f in window])
    interf = np.array([f.interference for f in window])
    return AdaptiveRun(
        frames=frames,
        converged_network_throughput=float(net.mean()),
        converged_interference=float(interf.mean()),
        se_network_throughput=_standard_error(net),
        se_interference=_standard_error(interf),
        final_tau=state.tau,
        final_p=state.p,
    )


# ---------------------------------------------------------------------------
# Mean update-direction field (Monte Carlo subgradient verification)
# ---------------------------------------------------------------------------

@dataclass
class FieldPoint:
    tau: float
    p: float
    mean_g: np.ndarray    # E[(g_tau, g_p)] over SUs and realizations
    grad_f: np.ndarray    # numerical gradient of -r at (tau, p)
    inner: float          # <mean_g, grad_f>
    aligned: bool         # inner >= 0


def subgradient_field(scenario, taus, ps, n_realizations: int = 5000,
                      seed=0, n_ep: int | None = None) -> list[FieldPoint]:
    """Estimate the mean update direction at each (tau, p) probe point.

    Each realization runs one coarse-update cycle: a frame at the point, a
    unit step in a random diagonal direction, a frame at the stepped point,
    then the event logic of the update rule.  Averaging the resulting raw
    subgradients over SUs and realizations gives the field, which should
    align with the gradient of the analytic objective f = -r wherever the
    point is away from the optimum.
    """
    config, qos = scenario.config, scenario.qos
    resolved = resolve_detector(config, scenario.detector, qos, scenario.params.tau)
    cfg = _adaptive_cfg(scenario, resolved)
    if n_ep is None:
        n_ep = cfg.n_ep
    per_quadrant = max(1, n_realizations // 4)
    rng = np.random.default_rng(seed)

    def analyzer_r(tau: float, p: float | np.ndarray):
        return analyze(config, SensingParams(tau=tau, p=p), resolved).throughput

    def frame_means(tau: float, p: float, count: int):
        """Per-realization (r per SU, interference) from one big batch."""
        schedules = SuSchedules.from_per_su(
            config, np.full(config.n_su, tau), np.full(config.n_su, p))
        batch = simulate_slots(config, schedules, resolved, count * n_ep, rng)
        r = batch.throughput.reshape(count, n_ep, config.n_su).mean(axis=1)
        t = batch.network_interference.reshape(count, n_ep).mean(axis=1)
        return r, t

    out = []
    for tau, p in zip(np.atleast_1d(taus), np.atleast_1d(ps)):
        tau, p = float(tau), float(p)
        g_samples = []
        for s_tau in (1.0, -1.0):
            for s_p in (1.0, -1.0):
                alpha0 = cfg.alpha(1)
                tau2 = min(max(tau + s_tau * cfg.delta_tau * alpha0,
                               cfg.tau_floor), cfg.slot_duration)
                p2 = min(max(p + s_p * cfg.delta_p * alpha0, 0.0), 1.0)
                r_a, _ = frame_means(tau, p, per_quadrant)
                r_b, t_b = frame_means(tau2, p2, per_quadrant)
                p_md = _analytic_p_md(config, resolved, tau2, p2)
                improved = _improved(r_b, r_a, t_b[:, None], p_md, qos)
                _, g_tau = _raw_step(improved, tau2 >= tau, cfg.delta_tau)
                _, g_p = _raw_step(improved, p2 >= p, cfg.delta_p)
                g_samples.append(np.stack([g_tau.mean(axis=1), g_p.mean(axis=1)],
                                          axis=1))
        mean_g = np.concatenate(g_samples, axis=0).mean(axis=0)

        h_tau, h_p = cfg.delta_tau, cfg.delta_p
        df_dtau = -(analyzer_r(tau + h_tau, p) - analyzer_r(tau - h_tau, p)) / (2 * h_tau)
        df_dp = -np.subtract(*analyzer_r(tau, np.array([p + h_p, p - h_p]))) / (2 * h_p)
        grad_f = np.array([df_dtau, df_dp])
        inner = float(mean_g @ grad_f)
        out.append(FieldPoint(tau=tau, p=p, mean_g=mean_g, grad_f=grad_f,
                              inner=inner, aligned=inner >= 0.0))
    return out
