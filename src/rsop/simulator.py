"""Slot-level Monte Carlo simulation of the random sensing-order policy.

Unlike the chain model, the simulator tracks ground truth: a channel is busy
for a sensing SU when its PU is present or when another SU started
transmitting there at an *earlier* stage (same-stage starters sense in
parallel and collide).  Sensing decisions are Bernoulli draws at the analytic
error probabilities, with detection evaluated at the realized accumulated
signal power when the energy detector is in use.

Slots are i.i.d., so the whole batch is simulated as vectorized arrays with a
short loop over sensing stages.  Replications are embarrassingly parallel
with independent seeded streams and order-independent aggregation.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chain import ResolvedDetector, resolve_detector
from .config import NetworkConfig, SensingParams
from .core import max_sensing_stages
from .detector import false_alarm_prob, misdetection_prob
from .errors import ScenarioError


@dataclass
class SuSchedules:
    """Per-SU, per-stage sensing time and sensing probability.

    Every SU's stage budget comes from its own stage-1 sensing time; stage
    boundaries inside a slot are aligned to the longest sensing duration among
    the SUs still searching at that stage.
    """

    tau: np.ndarray    # (n_su, n_stages) seconds
    p: np.ndarray      # (n_su, n_stages)
    delta: np.ndarray  # (n_su,) per-SU stage budget

    @property
    def max_stages(self) -> int:
        return int(np.max(self.delta))

    @classmethod
    def homogeneous(cls, config: NetworkConfig, params: SensingParams) -> "SuSchedules":
        """Every SU at the same (tau, p)."""
        return cls.from_stage_table(config, np.full((config.n_su, 1), params.tau),
                                    np.full((config.n_su, 1), params.p))

    @classmethod
    def from_per_su(cls, config: NetworkConfig, taus, ps) -> "SuSchedules":
        """One scalar (tau, p) per SU, constant across stages."""
        return cls.from_stage_table(config, np.reshape(taus, (-1, 1)),
                                    np.reshape(ps, (-1, 1)))

    @classmethod
    def from_stage_table(cls, config: NetworkConfig, tau_table, p_table) -> "SuSchedules":
        """Full per-SU, per-stage tables (fine-tuning mode).

        The stage budget uses each SU's stage-1 sensing time; later stages may
        shorten the probe, which only adds slack.  Tables shorter than the
        longest budget repeat their last stage."""
        tau_table = np.asarray(tau_table, dtype=float)
        p_table = np.asarray(p_table, dtype=float)
        if tau_table.shape != p_table.shape or tau_table.shape[0] != config.n_su:
            raise ScenarioError("stage tables must be (n_su, n_stages) and congruent")
        delta = np.array([
            max_sensing_stages(config.slot_duration, t, config.handoff_time,
                               config.n_pu)
            for t in tau_table[:, 0]
        ])
        cols = np.minimum(np.arange(np.max(delta)), tau_table.shape[1] - 1)
        return cls(tau=tau_table[:, cols], p=p_table[:, cols], delta=delta)


@dataclass
class SlotBatch:
    """Raw per-slot outcomes of one replication (arrays indexed [slot, su])."""

    throughput: np.ndarray          # ACKed normalized throughput
    success: np.ndarray             # bool
    transmitted: np.ndarray         # bool, entered a transmit/interfere state
    interfered_entry: np.ndarray    # bool, started transmitting on a busy channel
    collided: np.ndarray            # bool, overlapped another SU
    tx_stage: np.ndarray            # int, 0 when the SU never transmitted
    tx_channel: np.ndarray          # int, -1 when the SU never transmitted
    network_interference: np.ndarray  # (n_slots,) per-slot normalized t_I sample
    su_interference: np.ndarray     # per-SU caused interference sample
    overhead: np.ndarray            # channels actually sensed
    handoffs: np.ndarray            # stage boundaries crossed
    delay: np.ndarray               # seconds before transmission (T if none)
    pu_busy_fraction: float         # realized PU duty cycle (diagnostic)


def _pu_presence(config: NetworkConfig, n_slots: int, rng: np.random.Generator,
                 model: str, hold_slots: float) -> np.ndarray:
    """Per-slot, per-channel PU presence.

    "iid" draws each slot independently (the model the analyzer assumes).
    "onoff" runs a two-state chain per channel with the same stationary
    presence probability and mean busy holding time ``hold_slots``; it exists
    for robustness studies only.
    """
    presence = config.presence_prob
    if model == "iid":
        return rng.random((n_slots, config.n_pu)) < presence[None, :]
    if model != "onoff":
        raise ScenarioError(f"unknown PU model {model!r}")
    if hold_slots < 1:
        raise ScenarioError("onoff hold_slots must be >= 1")
    p_down = np.minimum(1.0, 1.0 / hold_slots)  # busy -> free
    with np.errstate(divide="ignore", invalid="ignore"):
        p_up = np.where(presence < 1.0,
                        np.minimum(1.0, presence * p_down / (1.0 - presence)),
                        1.0)
    out = np.empty((n_slots, config.n_pu), dtype=bool)
    state = rng.random(config.n_pu) < presence
    for s in range(n_slots):
        u = rng.random(config.n_pu)
        state = np.where(state, u >= p_down, u < p_up)
        out[s] = state
    return out


def simulate_slots(config: NetworkConfig, schedules: SuSchedules,
                   resolved: ResolvedDetector, n_slots: int,
                   rng: np.random.Generator, protocol: str = "modified",
                   pu_model: str = "iid", pu_hold_slots: float = 10.0) -> SlotBatch:
    """Simulate ``n_slots`` independent slots for all SUs.

    The random stream is consumed in a fixed order independent of outcomes,
    so equal seeds give bit-identical batches.  The modified protocol flips
    Bernoulli(p) *before* sensing and skips the probe on failure; the
    conventional protocol always senses and gates only the transmit decision.
    Both consume the same draws, so at equal seeds they produce identical
    transmission trajectories and differ only in sensing overhead.
    """
    if protocol not in ("modified", "conventional"):
        raise ScenarioError(f"unknown protocol {protocol!r}")
    S, NS, NP = n_slots, config.n_su, config.n_pu
    T = config.slot_duration

    pu = _pu_presence(config, S, rng, pu_model, pu_hold_slots)

    searching = np.ones((S, NS), dtype=bool)
    su_count = np.zeros((S, NP), dtype=np.int32)   # transmitters from earlier stages
    tx_channel = np.full((S, NS), -1, dtype=np.int32)
    tx_stage = np.zeros((S, NS), dtype=np.int32)
    tx_rt = np.zeros((S, NS))
    interfered_entry = np.zeros((S, NS), dtype=bool)
    overhead = np.zeros((S, NS), dtype=np.int32)
    net_interf = np.zeros(S)
    su_interf = np.zeros((S, NS))
    elapsed = np.zeros(S)

    for n in range(1, schedules.max_stages + 1):
        in_budget = schedules.delta >= n
        active = searching & in_budget[None, :]
        # Draws happen for the full (S, NS) grid every stage to keep the
        # stream layout independent of the realized trajectories.
        u_gate = rng.random((S, NS))
        ch = rng.integers(0, NP, size=(S, NS))
        u_sense = rng.random((S, NS))
        if not active.any():
            break
        tau_n = schedules.tau[:, n - 1]
        p_n = schedules.p[:, n - 1]

        # stage timing: longest sensing duration among SUs still searching
        dur = np.max(np.where(active, tau_n[None, :], 0.0), axis=1)
        if n >= 2:
            elapsed += np.where(dur > 0, config.handoff_time, 0.0)
        elapsed += dur
        rt = np.maximum(T - elapsed, 0.0)

        if protocol == "modified":
            senses = active & (u_gate < p_n[None, :])
        else:
            senses = active

        pu_here = np.take_along_axis(pu, ch, axis=1)
        count_here = np.take_along_axis(su_count, ch, axis=1)
        busy = pu_here | (count_here > 0)

        if resolved.mode == "explicit":
            p_fa_here = np.full((S, NS), resolved.p_fa)
            p_md_here = np.full((S, NS), 1.0 - resolved.explicit_p_d(n))
        else:
            lam_here = resolved.lambda_norm[ch]
            f_s = config.sampling_freq
            p_fa_here = false_alarm_prob(lam_here, tau_n[None, :], f_s)
            gamma = (pu_here * config.pu_power[ch]
                     + count_here * config.su_power) / config.noise_power
            p_md_here = misdetection_prob(lam_here, tau_n[None, :], f_s, gamma)

        decided_free = np.where(busy, u_sense < p_md_here, u_sense >= p_fa_here)
        if protocol == "conventional":
            will_tx = senses & decided_free & (u_gate < p_n[None, :])
        else:
            will_tx = senses & decided_free

        overhead += senses
        new_tx = will_tx & (rt > 0.0)[:, None]
        rows, cols = np.nonzero(new_tx)
        picked = ch[rows, cols]
        tx_channel[rows, cols] = picked
        tx_stage[rows, cols] = n
        tx_rt[rows, cols] = rt[rows]

        started_busy = new_tx & busy
        interfered_entry |= started_busy
        b_rows, b_cols = np.nonzero(started_busy)
        if b_rows.size:
            su_interf[b_rows, b_cols] += rt[b_rows] / (T * NP)
            ev = np.zeros((S, NP), dtype=bool)
            ev[b_rows, ch[b_rows, b_cols]] = True
            net_interf += ev.sum(axis=1) * rt / (T * NP)

        # SUs that decided to transmit but ran out of slot time just stop.
        searching &= ~will_tx
        np.add.at(su_count, (rows, picked), 1)

    transmitted = tx_stage > 0
    pu_at_tx = np.zeros((S, NS), dtype=bool)
    count_at_tx = np.zeros((S, NS), dtype=np.int32)
    rows, cols = np.nonzero(transmitted)
    pu_at_tx[rows, cols] = pu[rows, tx_channel[rows, cols]]
    count_at_tx[rows, cols] = su_count[rows, tx_channel[rows, cols]]
    success = transmitted & ~pu_at_tx & (count_at_tx == 1)
    collided = transmitted & (count_at_tx >= 2)
    throughput = np.where(success, tx_rt * config.tx_rate / T, 0.0)
    delay = np.where(transmitted, T - tx_rt, T)
    stages_entered = np.where(transmitted, tx_stage, schedules.delta[None, :])
    handoffs = stages_entered - 1

    return SlotBatch(
        throughput=throughput,
        success=success,
        transmitted=transmitted,
        interfered_entry=interfered_entry,
        collided=collided,
        tx_stage=tx_stage,
        tx_channel=tx_channel,
        network_interference=net_interf,
        su_interference=su_interf,
        overhead=overhead,
        handoffs=handoffs,
        delay=delay,
        pu_busy_fraction=float(np.mean(pu)),
    )


@dataclass
class RunMetrics:
    """Aggregated Monte Carlo outcomes (means are per slot)."""

    n_slots: int
    n_reps: int
    throughput: float              # per-SU mean ACKed throughput (units of C_R)
    network_throughput: float      # summed over SUs
    per_su_throughput: np.ndarray  # (n_su,)
    interference: float            # normalized network interference time
    su_caused_interference: float  # per-SU mean caused interference
    sensing_overhead: float        # channels sensed per SU per slot
    handoffs: float                # stage boundaries crossed per SU per slot
    delay: float                   # seconds before first transmission
    success_rate: float            # P(an SU transmits successfully in a slot)
    collision_rate: float          # P(an SU's transmission overlaps another SU)
    interference_entry_rate: float  # P(an SU starts transmitting on a busy channel)
    ci_network_throughput: float = float("nan")  # 1.96 SE over replications
    ci_interference: float = float("nan")
    se_network_throughput: float = float("nan")  # SE of the mean
    se_interference: float = float("nan")


# RunMetrics fields that are plain per-slot means, and the SlotBatch arrays
# they average.
_BATCH_MEANS = {
    "interference": "network_interference",
    "su_caused_interference": "su_interference",
    "sensing_overhead": "overhead",
    "handoffs": "handoffs",
    "delay": "delay",
    "success_rate": "success",
    "collision_rate": "collided",
    "interference_entry_rate": "interfered_entry",
}


def _error_fields(net_samples: np.ndarray, interf_samples: np.ndarray) -> dict:
    """Standard errors of the mean and 1.96-SE half-widths of the network
    throughput and interference, from per-slot or per-replication samples."""
    out = {}
    for name, x in (("network_throughput", net_samples),
                    ("interference", interf_samples)):
        se = float(x.std(ddof=1) / np.sqrt(len(x))) if len(x) > 1 else float("nan")
        out[f"se_{name}"] = se
        out[f"ci_{name}"] = 1.96 * se
    return out


def _metrics_from_batch(batch: SlotBatch) -> RunMetrics:
    per_su = batch.throughput.mean(axis=0)
    return RunMetrics(
        n_slots=batch.throughput.shape[0],
        n_reps=1,
        throughput=float(per_su.mean()),
        network_throughput=float(per_su.sum()),
        per_su_throughput=per_su,
        **{f: float(getattr(batch, a).mean()) for f, a in _BATCH_MEANS.items()},
        **_error_fields(batch.throughput.sum(axis=1), batch.network_interference),
    )


def run_replication(config: NetworkConfig, schedules: SuSchedules,
                    resolved: ResolvedDetector, protocol: str, n_slots: int,
                    seed, pu_model: str = "iid",
                    pu_hold_slots: float = 10.0) -> RunMetrics:
    """One seeded replication; deterministic given the seed."""
    if n_slots < 1:
        raise ScenarioError("n_slots must be >= 1")
    rng = np.random.default_rng(seed)
    batch = simulate_slots(config, schedules, resolved, n_slots, rng,
                           protocol=protocol, pu_model=pu_model,
                           pu_hold_slots=pu_hold_slots)
    return _metrics_from_batch(batch)


def monte_carlo(config: NetworkConfig, schedules: SuSchedules,
                resolved: ResolvedDetector, protocol: str, n_slots: int,
                n_reps: int, base_seed, n_jobs: int = 1,
                pu_model: str = "iid", pu_hold_slots: float = 10.0) -> RunMetrics:
    """Replicated Monte Carlo with deterministic seeding.

    Replication seeds are spawned from ``base_seed``; aggregation runs in
    replication order, so the result is identical for any ``n_jobs``.
    """
    if n_reps < 1:
        raise ScenarioError("n_reps must be >= 1")
    seeds = np.random.SeedSequence(base_seed).spawn(n_reps)

    def one(seq):
        return run_replication(config, schedules, resolved, protocol, n_slots,
                               seq, pu_model=pu_model, pu_hold_slots=pu_hold_slots)

    if n_jobs > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            reps = list(pool.map(one, seeds))
    else:
        reps = [one(s) for s in seeds]

    if n_reps == 1:
        return reps[0]

    def samples(field):
        return np.array([getattr(r, field) for r in reps])

    return RunMetrics(
        n_slots=n_slots,
        n_reps=n_reps,
        per_su_throughput=np.mean([r.per_su_throughput for r in reps], axis=0),
        **{f: float(samples(f).mean())
           for f in ("throughput", "network_throughput", *_BATCH_MEANS)},
        **_error_fields(samples("network_throughput"), samples("interference")),
    )


def simulate_scenario(scenario, n_slots: int, seed, protocol: str = "modified",
                      n_reps: int = 1, n_jobs: int = 1,
                      tau: float | None = None, p: float | None = None,
                      pu_model: str = "iid") -> RunMetrics:
    """Scenario-level convenience wrapper around :func:`monte_carlo`."""
    sc = scenario.with_params(tau=tau, p=p)
    resolved = resolve_detector(sc.config, sc.detector, sc.qos, scenario.params.tau)
    schedules = SuSchedules.homogeneous(sc.config, sc.params)
    return monte_carlo(sc.config, schedules, resolved, protocol, n_slots,
                       n_reps, seed, n_jobs=n_jobs, pu_model=pu_model)
