"""Per-SU reference implementation of the adaptive closed loop.

``run_adaptive`` holds every SU's state as arrays and runs the misdetection
check, the frame estimate and the update once per frame for all SUs.  This
module runs the same loop the plain way: one state per SU, one
``stage_profiles`` call over that SU's own delta(tau) stages, one frame
estimate and one scalar update per SU, and a per-SU fine-tuning schedule
padded with its last stage.  It draws the same random stream, so the two
must agree exactly, field by field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rsop.adaptive import AdaptiveRun, FrameLog, _adaptive_cfg
from rsop.chain import analyze, resolve_detector, stage_profiles
from rsop.config import SensingParams
from rsop.core import max_sensing_stages
from rsop.simulator import SuSchedules, simulate_slots


@dataclass
class SuState:
    tau: float
    p: float
    prev_tau: float
    prev_p: float
    prev_r_est: float


def p_md_of_su(config, resolved, tau: float, p: float) -> float:
    """Worst-stage misdetection over the SU's own delta(tau) stages."""
    stages = max_sensing_stages(config.slot_duration, float(tau),
                                config.handoff_time, config.n_pu)
    prof = stage_profiles(config, SensingParams(tau=float(tau), p=float(p)),
                          resolved, stages)
    return float(np.max(prof.p_md))


def stage_schedule_of_su(s: SuState, delta: int, cfg):
    """One SU's fine-tuned schedule over its own delta stages."""
    n = np.arange(delta)
    tau = np.maximum(cfg.tau_floor, s.tau - n * cfg.delta_tau_fine)
    p = np.minimum(1.0, s.p + n * cfg.delta_p_fine)
    return tau, p


def update_su(s: SuState, k: int, r_est: float, t_i_est: float, p_md: float,
              qos, cfg):
    """One SU's coarse update: (new state, improved, flip_tau, flip_p, g_tau, g_p)."""
    improved = (r_est >= s.prev_r_est and t_i_est <= qos.t_i_max
                and p_md <= qos.p_md_max)
    flip_tau = improved != (s.tau >= s.prev_tau)
    flip_p = improved != (s.p >= s.prev_p)
    g_tau = cfg.delta_tau * (1 if flip_tau else -1)
    g_p = cfg.delta_p * (1 if flip_p else -1)
    alpha = cfg.alpha(k)
    new = SuState(tau=min(max(s.tau - g_tau * alpha, cfg.tau_floor), cfg.slot_duration),
                  p=min(max(s.p - g_p * alpha, 0.0), 1.0),
                  prev_tau=s.tau, prev_p=s.p, prev_r_est=r_est)
    return new, improved, flip_tau, flip_p, g_tau, g_p


def run_adaptive_per_su(scenario, algorithm: int = 1, n_frames: int = 500,
                        seed=0, track_objective: bool = False) -> AdaptiveRun:
    config, qos = scenario.config, scenario.qos
    resolved = resolve_detector(config, scenario.detector, qos, scenario.params.tau)
    cfg = _adaptive_cfg(scenario, resolved)
    ad = scenario.adaptive
    tau1 = ad.initial_tau if ad.initial_tau is not None else scenario.params.tau
    p1 = ad.initial_p if ad.initial_p is not None else scenario.params.p
    states = [SuState(tau1, p1, cfg.tau_floor, 0.0, 0.0) for _ in range(config.n_su)]
    rng = np.random.default_rng(seed)
    cache: dict[tuple, tuple[float, bool]] = {}

    def objective(tau, p):
        key = (round(tau, 15), round(p, 15))
        if key not in cache:
            res = analyze(config, SensingParams(tau=tau, p=p), resolved)
            cache[key] = (-res.throughput, res.interference <= qos.t_i_max
                          and res.p_md_max <= qos.p_md_max)
        return cache[key]

    frames = []
    f_best = math.inf
    for k in range(1, n_frames + 1):
        taus = np.array([s.tau for s in states])
        ps = np.array([s.p for s in states])
        if algorithm == 2:
            deltas = [max_sensing_stages(config.slot_duration, s.tau,
                                         config.handoff_time, config.n_pu)
                      for s in states]
            stages = max(deltas)
            tau_table = np.empty((config.n_su, stages))
            p_table = np.empty((config.n_su, stages))
            for j, s in enumerate(states):
                tj, pj = stage_schedule_of_su(s, deltas[j], cfg)
                tau_table[j] = tj[-1]
                p_table[j] = pj[-1]
                tau_table[j, :deltas[j]] = tj
                p_table[j, :deltas[j]] = pj
            schedules = SuSchedules.from_stage_table(config, tau_table, p_table)
        else:
            schedules = SuSchedules.from_per_su(config, taus, ps)
        batch = simulate_slots(config, schedules, resolved, cfg.n_ep, rng)
        t_i_est = float(batch.network_interference[:cfg.n_ep].mean())

        f_visited = float("nan")
        if track_objective:
            vals = [f for f, feas in (objective(s.tau, s.p) for s in states) if feas]
            if vals:
                f_visited = float(np.mean(vals))
                f_best = min(f_best, f_visited)

        outcomes = []
        for j, s in enumerate(states):
            r_est = float(batch.throughput[:cfg.n_ep, j].mean())
            p_md = p_md_of_su(config, resolved, s.tau, s.p)
            outcomes.append((r_est, *update_su(s, k, r_est, t_i_est, p_md, qos, cfg)))
        r_est, new_states, improved, flip_tau, flip_p, g_tau, g_p = zip(*outcomes)
        frames.append(FrameLog(
            k=k, tau=taus, p=ps, r_est=np.array(r_est), t_i_est=t_i_est,
            improved=np.array(improved), flip_tau=np.array(flip_tau),
            flip_p=np.array(flip_p),
            g_norm_sq=float(sum(a**2 + b**2 for a, b in zip(g_tau, g_p))),
            network_throughput=float(batch.throughput.sum(axis=1).mean()),
            interference=float(batch.network_interference.mean()),
            f_visited=f_visited,
            f_best=f_best if f_best < math.inf else float("nan"),
        ))
        states = list(new_states)

    window = frames[(3 * len(frames)) // 4:]
    net = np.array([f.network_throughput for f in window])
    interf = np.array([f.interference for f in window])

    def se(x):
        return float(x.std(ddof=1) / np.sqrt(len(x))) if len(x) > 1 else float("nan")

    return AdaptiveRun(
        frames=frames,
        converged_network_throughput=float(net.mean()),
        converged_interference=float(interf.mean()),
        se_network_throughput=se(net), se_interference=se(interf),
        final_tau=np.array([s.tau for s in states]),
        final_p=np.array([s.p for s in states]),
    )
