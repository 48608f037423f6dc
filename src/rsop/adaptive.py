"""Distributed per-SU adaptation of (tau, p) by sign-feedback subgradients.

Each SU runs frames of ``n_ep`` slots.  After a frame it compares its ACK-based
throughput estimate with the previous frame, checks the interference and
misdetection caps, and nudges tau and p by a diminishing step in the direction
suggested by the comparison (coarse tuning).  The fine-tuning variant
additionally tilts the per-stage schedule inside each slot: later stages sense
a little shorter and more eagerly.  No messages pass between SUs.

The SUs update independently and in lockstep, so the closed loop holds their
state as (N_s,) arrays: each frame makes one simulator call, one
misdetection check for every SU (each SU masked to its own delta(tau)
stages), one estimate, one update and, for fine tuning, one broadcast of the
per-stage tables.  The check reads the threshold table the simulator has
just built at the same tau, so with the energy detector a frame evaluates
Q in two passes: the table and the check's mean-field stage 2.

The update is a projected stochastic subgradient step with the harmonic
step alpha_k = 1/k (square-summable, not summable).  The diagnostics here
implement its norm identity, the subgradient-method bound at that step
(Boyd, Xiao and Mutapcic, *Subgradient Methods*, 2003), and a Monte Carlo
check that the mean update direction at a point aligns with the (numerical)
gradient of the analytic objective.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np
import numpy.random  # loaded here, not lazily on the first generator

from .chain import (
    ResolvedDetector,
    _clamp01,
    analyze,
    resolve_detector,
    stage2_detection,
    worst_misdetection,
)
from .config import AdaptiveConfig, NetworkConfig, QosConstraints, SensingParams
from .core import max_sensing_stages
from .detector import sensing_time_floor
from .errors import InvalidSchedule, ScenarioError, ShortFrame
from .optimizer import evaluate_points
from .simulator import BLOCK_SLOTS, SlotBatch, StageBuffers, SuSchedules, simulate_slots


# ---------------------------------------------------------------------------
# Step size
# ---------------------------------------------------------------------------

def harmonic_alpha(k):
    """The loop's diminishing step size, alpha_k = 1/k (entrywise for an
    array of k)."""
    return 1.0 / k


_HARMONIC_SQUARE_SUM = math.pi**2 / 6.0  # sum_{i>=1} alpha_i^2


# ---------------------------------------------------------------------------
# Per-SU state and the coarse update
# ---------------------------------------------------------------------------

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


def frame_estimate(batch: SlotBatch, n_ep: int, p_md) -> FrameEstimate:
    """Fold one frame of slot outcomes into every SU's estimates, in SU
    order, with ``p_md`` one entry per SU.

    Throughput comes from each SU's own ACKs.  The interference estimate is
    the frame mean of the network interference sample; an SU cannot observe
    PU overlap on its own, so the simulator acts as the reporting oracle.
    """
    if n_ep < 1:
        raise ScenarioError(f"n_ep must be >= 1, got {n_ep}")
    if batch.throughput.shape[0] < n_ep:
        raise ShortFrame(f"frame has {batch.throughput.shape[0]} < {n_ep} slots")
    # one contiguous row per SU, so each mean is that of a 1-D array; a
    # mean is sum / n, written out to skip np.mean's wrapper
    acks = np.ascontiguousarray(batch.throughput[:n_ep].T)
    return FrameEstimate(
        r_est=acks.sum(axis=-1) / n_ep,
        t_i_est=float(batch.network_interference[:n_ep].sum() / n_ep),
        p_md=p_md,
    )


def _project(tau, p, tau_min: float, slot_duration: float):
    """Projection of (tau, p) onto the box [tau_min, T] x [0, 1]."""
    return (np.minimum(np.maximum(tau, tau_min), slot_duration),
            np.minimum(np.maximum(p, 0.0), 1.0))


def alg1_update(state: AdaptiveState, est: FrameEstimate, qos: QosConstraints,
                cfg: AdaptiveConfig, slot_duration: float
                ) -> tuple[AdaptiveState, UpdateRecord]:
    """One coarse update of every SU's (tau, p) from frame-k estimates.

    Event A: throughput did not drop (ties count) and both caps held.  A
    coordinate keeps its last direction on A and reverses otherwise, so its
    flip is XOR(A, grew) and its raw step g = +-delta; it moves by -alpha_k g,
    alpha_k = 1/k, and is projected onto the box [tau_min, T] x [0, 1].
    Arrays of any shapes that broadcast together work elementwise.
    """
    improved = ((est.r_est >= state.prev_r_est) & (est.t_i_est <= qos.t_i_max)
                & (est.p_md <= qos.p_md_max))
    tau_grew = state.tau >= state.prev_tau
    p_grew = state.p >= state.prev_p
    flip_tau = improved != tau_grew
    flip_p = improved != p_grew
    g_tau = cfg.delta_tau * (2 * flip_tau - 1)
    g_p = cfg.delta_p * (2 * flip_p - 1)

    alpha = harmonic_alpha(state.k)
    tau_next, p_next = _project(state.tau - g_tau * alpha, state.p - g_p * alpha,
                                cfg.tau_min, slot_duration)

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
    tau = np.maximum(cfg.tau_min,
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


def _harmonic_steps(k) -> np.ndarray:
    """alpha_1..alpha_k, for ``k`` a whole number >= 1."""
    if not (isinstance(k, numbers.Real) and float(k).is_integer() and k >= 1):
        raise InvalidSchedule(f"k must be a whole number >= 1, got {k!r}")
    return harmonic_alpha(np.arange(1, int(k) + 1))


def _check_constant(name: str, value) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise InvalidSchedule(f"{name} must be finite and >= 0, got {value!r}")


def convergence_bound(g2: float, r2: float, k: int) -> float:
    """Bound on E|f_best^k - f*| after ``k`` harmonic steps:
    (R^2 + G^2 sum_{i>=1} alpha_i^2) / (2 sum_{i<=k} alpha_i)."""
    _check_constant("g2", g2)
    _check_constant("r2", r2)
    a = _harmonic_steps(k)
    return (r2 + g2 * _HARMONIC_SQUARE_SUM) / (2.0 * float(np.sum(a)))


def corollary_check(g2: float, epsilon: float, k: int) -> bool:
    """Whether sum_{i<=k} alpha_i (2 eps - G^2 alpha_i) >= 0 at the harmonic
    step.

    This is the parameter condition under which the convergence bound can be
    pushed below ``epsilon``."""
    _check_constant("g2", g2)
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise InvalidSchedule(f"epsilon must be finite and > 0, got {epsilon!r}")
    a = _harmonic_steps(k)
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
    t_i_est: float              # frame-mean simulated network interference
    improved: np.ndarray
    flip_tau: np.ndarray
    flip_p: np.ndarray
    g_norm_sq: float            # ||stacked subgradient||^2 this frame
    network_throughput: float   # frame-mean simulated network throughput
    f_visited: float = float("nan")  # mean analyzer -r over the feasible points
    f_best: float = float("nan")     # running best f_visited


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


def _adaptive_cfg(scenario) -> AdaptiveConfig:
    """The scenario's adaptive constants with every ``None`` filled in: both
    tau increments 0.01 T; the floor ``tau_min`` the QoS minimum sensing time
    of an energy detector, one sample of an explicit one (tau has no sensing
    effect), and never above T; the start the nominal (tau, p), projected
    onto the decision box, as every later point is.  The scenario's own
    section is left as loaded."""
    ad, config = scenario.adaptive, scenario.config
    t = config.slot_duration
    tau_min = ad.tau_min
    if tau_min is None:
        floor = (sensing_time_floor(config, scenario.qos)
                 if scenario.detector.mode == "energy" else config.one_sample)
        tau_min = min(floor, t)
    tau1, p1 = _project(
        ad.initial_tau if ad.initial_tau is not None else scenario.params.tau,
        ad.initial_p if ad.initial_p is not None else scenario.params.p,
        tau_min, t)
    return replace(
        ad,
        delta_tau=ad.delta_tau if ad.delta_tau is not None else 0.01 * t,
        delta_tau_fine=ad.delta_tau_fine if ad.delta_tau_fine is not None else 0.01 * t,
        initial_tau=float(tau1), initial_p=float(p1), tau_min=tau_min,
    )


def _analytic_p_md(config: NetworkConfig, resolved: ResolvedDetector, tau, p,
                   deltas, thresholds):
    """Worst-stage misdetection each SU computes locally for its current tau:
    the ``p_md_max`` of ``analyze``, over the same ``deltas`` = delta(tau) stages.

    ``thresholds`` is the class table (``simulator._threshold_table``) of
    a frame simulated at ``tau`` and ``p`` (scalars or one entry per SU);
    the result holds every SU's value.  An explicit detector's rows are its
    listed stages, so the check is the max of the lone-PU cells over each
    SU's first delta rows.  An energy detector's row 0 is stage 1, and every
    later stage repeats the mean-field stage 2, which takes one detector
    pass through ``stage2_detection``, as in the chain analyzer, to the
    same bits.
    """
    deltas = np.asarray(deltas)
    # (row, SU, class) P_md of a lone PU: the PU present, no earlier sender
    p_md = thresholds[:, :, 1, 0]
    if resolved.mode == "energy":
        p_md = p_md[:1]
        if deltas.max() > 1:
            # row 0's idle cell holds P_fa, its lone-PU cell P_md = 1 - P_d
            p_d2 = stage2_detection(config, resolved, tau, p,
                                    thresholds[0, :, 0, 0], 1.0 - p_md[0])
            p_md = np.stack([p_md[0], 1.0 - p_d2])
    # (SU, class, row), a view; range-checked once, as the chain analyzer
    # checks its tables
    return _clamp01(worst_misdetection(p_md.transpose(1, 2, 0), deltas), "p_md")


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
    the SUs.  With ``track_objective`` each frame's objective, the mean -r of
    its feasible points (``optimizer.evaluate_points``), and its running best,
    the objective the convergence bound speaks about, are logged too.
    """
    if algorithm not in (1, 2):
        raise ScenarioError("algorithm must be 1 or 2")
    if n_frames < 1:
        raise ScenarioError(f"n_frames must be >= 1, got {n_frames}")
    config, qos = scenario.config, scenario.qos
    resolved = resolve_detector(config, scenario.detector, qos, scenario.params.tau)
    cfg = _adaptive_cfg(scenario)
    state = AdaptiveState.initial(cfg.initial_tau, cfg.initial_p, cfg.tau_min,
                                  config.n_su)
    rng = np.random.default_rng(seed)
    buffers = StageBuffers()  # every frame's batch is read before the next

    frames: list[FrameLog] = []
    f_best = math.nan  # until a frame has a feasible point
    for _ in range(n_frames):
        # delta(tau), once per frame; alg2's schedule budgets its stage 1,
        # which is tau
        if algorithm == 2:
            deltas = max_sensing_stages(config.slot_duration, state.tau,
                                        config.handoff_time, config.n_pu)
            tau_table, p_table = alg2_stage_schedule(state, deltas, cfg)
            schedules = SuSchedules.from_stage_table(config, tau_table, p_table,
                                                     deltas)
        else:
            schedules = SuSchedules.from_per_su(config, state.tau, state.p)
            deltas = schedules.delta

        batch = simulate_slots(config, schedules, resolved, cfg.n_ep, rng, buffers=buffers)
        # the check reads the frame's threshold table, whose stage-1 row is
        # at the SUs' tau
        p_md = _analytic_p_md(config, resolved, state.tau, state.p, deltas,
                              batch._loop.thresholds)
        est = frame_estimate(batch, cfg.n_ep, p_md)

        f_visited = math.nan
        if track_objective:
            cols = evaluate_points(config, state.tau, state.p, qos, resolved)
            if cols["feasible"].any():
                f_visited = float(np.mean(-cols["r"][cols["feasible"]]))
        f_best = float(np.fmin(f_best, f_visited))

        new_state, rec = alg1_update(state, est, qos, cfg, config.slot_duration)
        frames.append(FrameLog(
            k=rec.k,
            tau=state.tau,
            p=state.p,
            r_est=est.r_est,
            t_i_est=est.t_i_est,
            improved=rec.improved,
            flip_tau=rec.flip_tau,
            flip_p=rec.flip_p,
            # summed in SU order, over Python floats
            g_norm_sq=sum((rec.g_tau**2 + rec.g_p**2).tolist()),
            network_throughput=float(batch.throughput.sum(axis=1).sum()
                                     / cfg.n_ep),  # the mean over the frame
            f_visited=f_visited,
            f_best=f_best,
        ))
        state = new_state

    window = frames[(3 * len(frames)) // 4:]
    net = np.array([f.network_throughput for f in window])
    interf = np.array([f.t_i_est for f in window])
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
                      seed=0) -> list[FieldPoint]:
    """Estimate the mean update direction at each (tau, p) probe point.

    Each realization runs one coarse-update cycle: a frame at the point, a
    unit step in a random diagonal direction, a frame at the stepped point,
    then the event logic of the update rule.  Averaging the resulting raw
    subgradients over SUs and realizations gives the field, which should
    align with the gradient of the analytic objective f = -r wherever the
    point is away from the optimum.
    """
    if n_realizations < 4:  # at least one per step quadrant
        raise ScenarioError(f"n_realizations must be >= 4, got {n_realizations}")
    taus, ps = np.atleast_1d(taus), np.atleast_1d(ps)
    if len(taus) != len(ps):
        raise ScenarioError(
            f"subgradient-field needs one p per tau, got {len(taus)} taus "
            f"and {len(ps)} ps")
    config, qos = scenario.config, scenario.qos
    resolved = resolve_detector(config, scenario.detector, qos, scenario.params.tau)
    cfg = _adaptive_cfg(scenario)
    per_quadrant = n_realizations // 4
    frames_per_block = max(1, BLOCK_SLOTS // cfg.n_ep)
    rng = np.random.default_rng(seed)

    def analyzer_r(tau, p):
        return analyze(config, SensingParams(tau=tau, p=p), resolved).throughput

    def frame_means(tau: float, p: float, count: int):
        """Per-realization (r per SU, interference), simulated in blocks of
        whole frames of at most BLOCK_SLOTS slots, so memory is bounded, and
        the last block's stage-loop state (``_LoopState``), whose threshold
        table is at (tau, p)."""
        schedules = SuSchedules.from_per_su(config, tau, p)
        r, t = [], []
        for start in range(0, count, frames_per_block):
            frames = min(frames_per_block, count - start)
            batch = simulate_slots(config, schedules, resolved,
                                   frames * cfg.n_ep, rng)
            r.append(batch.throughput.reshape(frames, cfg.n_ep, config.n_su)
                     .mean(axis=1))
            t.append(batch.network_interference.reshape(frames, cfg.n_ep)
                     .mean(axis=1))
        return np.concatenate(r), np.concatenate(t), batch._loop

    out = []
    for tau, p in zip(taus, ps):
        tau, p = float(tau), float(p)
        g_samples = []
        for s_tau in (1.0, -1.0):
            for s_p in (1.0, -1.0):
                tau2, p2 = _project(tau + s_tau * cfg.delta_tau,
                                    p + s_p * cfg.delta_p, cfg.tau_min,
                                    config.slot_duration)
                r_a, _, _ = frame_means(tau, p, per_quadrant)
                r_b, t_b, loop = frame_means(tau2, p2, per_quadrant)
                p_md = _analytic_p_md(config, resolved, tau2, p2, loop.delta,
                                      loop.thresholds)
                # one update per (realization, SU): frame a before the
                # step, frame b after it
                _, rec = alg1_update(AdaptiveState(tau2, p2, tau, p, r_a),
                                     FrameEstimate(r_b, t_b[:, None], p_md),
                                     qos, cfg, config.slot_duration)
                g_samples.append(np.stack([rec.g_tau.mean(axis=1),
                                           rec.g_p.mean(axis=1)], axis=1))
        mean_g = np.concatenate(g_samples, axis=0).mean(axis=0)

        h_tau, h_p = cfg.delta_tau, cfg.delta_p
        # the two tau of a central difference may differ in stage budget
        df_dtau = -np.subtract(*analyzer_r(np.array([tau + h_tau, tau - h_tau]),
                                           np.array([p, p]))) / (2 * h_tau)
        df_dp = -np.subtract(*analyzer_r(tau, np.array([p + h_p, p - h_p]))) / (2 * h_p)
        grad_f = np.array([df_dtau, df_dp])
        inner = float(mean_g @ grad_f)
        out.append(FieldPoint(tau=tau, p=p, mean_g=mean_g, grad_f=grad_f,
                              inner=inner, aligned=inner >= 0.0))
    return out
