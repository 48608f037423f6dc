"""Slot-level Monte Carlo simulation of the random sensing-order policy.

Unlike the chain model, the simulator tracks ground truth: a channel is busy
for a sensing SU when its PU is present or when another SU started
transmitting there at an *earlier* stage (same-stage starters sense in
parallel and collide).  Sensing decisions are Bernoulli draws at the analytic
error probabilities, with detection evaluated at the realized accumulated
signal power when the energy detector is in use.  P_fa depends only on the
SU's tau and the channel, P_md only on those, the PU state and the number of
earlier SU transmitters, so each call evaluates :mod:`rsop.detector` once on
a table of those cells for every stage and every probe reads its threshold
with one gather.

Slots are i.i.d., so a batch is simulated as vectorized (slot, SU) arrays with
a short loop over sensing stages.  A replication runs as consecutive batches
of at most ``BLOCK_SLOTS`` (8192) slots on one generator, folded into one
(count, mean, M2) reducer, so its memory is bounded by the block size and not
by the number of slots.  Replications are embarrassingly parallel with
independent seeded streams and order-independent aggregation.
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

# Slots per simulate_slots call in a replication; a longer run is streamed.
BLOCK_SLOTS = 8192


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
        delta = max_sensing_stages(config.slot_duration, tau_table[:, 0],
                                   config.handoff_time, config.n_pu)
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


def _threshold_table(config: NetworkConfig, resolved: ResolvedDetector,
                     tau: np.ndarray) -> np.ndarray:
    """Sensing thresholds of every stage, shape (M, N_s, N_p, 2, N_s + 1), by
    (stage, SU, channel, PU present, SUs transmitting there from earlier
    stages), for the (N_s, M) per-stage sensing times ``tau``.

    A probe decides "free" when the channel is busy and u < P_md, or idle and
    u >= P_fa, that is when (u < table[n - 1][cell]) == busy at stage n.  So
    the busy cells hold P_md at the cell's SNR and the idle cell (PU absent,
    count 0) holds P_fa.
    """
    ns, m = tau.shape
    if resolved.mode == "explicit":
        p_md = 1.0 - resolved.explicit_p_d(np.arange(1, m + 1))
        table = np.tile(p_md[:, None, None, None, None],
                        (1, ns, config.n_pu, 2, ns + 1))
        table[:, :, :, 0, 0] = resolved.p_fa
        return table
    lam, f_s = resolved.lambda_norm, config.sampling_freq
    gamma = (np.arange(2)[:, None] * config.pu_power[:, None, None]
             + np.arange(ns + 1) * config.su_power) / config.noise_power
    tau_sn = tau.T[:, :, None]  # (stage, SU, 1), against the per-channel lambda
    table = misdetection_prob(lam[:, None, None], tau_sn[..., None, None],
                              f_s, gamma)
    table[:, :, :, 0, 0] = false_alarm_prob(lam, tau_sn, f_s)
    return table


def simulate_slots(config: NetworkConfig, schedules: SuSchedules,
                   resolved: ResolvedDetector, n_slots: int,
                   rng: np.random.Generator,
                   protocol: str = "modified") -> SlotBatch:
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
    K = NS + 1  # earlier transmitters on a channel: 0..N_s

    pu = rng.random((S, NP)) < config.presence_prob[None, :]
    # flat (slot, channel) state code pu * K + (SUs transmitting there): 0 is
    # idle; ``mark`` is scratch space over the same index
    cell = (pu * K).ravel()
    mark = np.empty(S * NP, dtype=np.intp)
    slot_base = np.arange(S)[:, None] * NP      # flat (slot, channel) index
    su_base = np.arange(NS) * (NP * 2 * K)      # threshold-table row of each SU

    searching = np.ones((S, NS), dtype=bool)
    tx_channel = np.full((S, NS), -1, dtype=np.int32)
    tx_stage = np.zeros((S, NS), dtype=np.int32)
    interfered_entry = np.zeros((S, NS), dtype=bool)
    overhead = np.zeros((S, NS), dtype=np.int32)
    net_interf = np.zeros(S)
    elapsed = np.zeros(S)
    M = schedules.max_stages
    thresholds = _threshold_table(config, resolved, schedules.tau)
    rt_at = np.zeros((S, M + 1))   # remaining time after stage n; 0 at n = 0
    # per stage, SUs by descending tau; index NS (tau 0) means "none active"
    by_tau = np.argsort(-schedules.tau, axis=0, kind="stable")
    tau_desc = np.vstack([schedules.tau[by_tau, np.arange(M)], np.zeros(M)])

    for n in range(1, M + 1):
        in_budget = schedules.delta >= n
        active = searching & in_budget[None, :]
        # Draws happen for the full (S, NS) grid every stage to keep the
        # stream layout independent of the realized trajectories.
        u_gate = rng.random((S, NS))
        ch = rng.integers(0, NP, size=(S, NS))
        u_sense = rng.random((S, NS))
        if not active.any():
            break
        p_n = schedules.p[:, n - 1]

        # stage timing: longest sensing duration among SUs still searching
        ordered = active[:, by_tau[:, n - 1]]
        dur = tau_desc[np.where(ordered.any(axis=1), ordered.argmax(axis=1), NS),
                       n - 1]
        if n >= 2:
            elapsed += np.where(dur > 0, config.handoff_time, 0.0)
        elapsed += dur
        rt = np.maximum(T - elapsed, 0.0)
        rt_at[:, n] = rt

        if protocol == "modified":
            senses = active & (u_gate < p_n[None, :])
        else:
            senses = active

        flat = slot_base + ch
        state = np.take(cell, flat)
        busy = state != 0
        code = ch * (2 * K)
        code += su_base
        code += state
        decided_free = (u_sense < np.take(thresholds[n - 1], code)) == busy
        if protocol == "conventional":
            will_tx = senses & decided_free & (u_gate < p_n[None, :])
        else:
            will_tx = senses & decided_free

        overhead += senses
        new_tx = will_tx & (rt > 0.0)[:, None]
        np.copyto(tx_channel, ch, where=new_tx)
        np.copyto(tx_stage, n, where=new_tx)

        started_busy = new_tx & busy
        if started_busy.any():
            interfered_entry |= started_busy
            # busy channels entered, once per (slot, channel): of repeated
            # indices, only the one whose mark survives is counted
            hit = flat[started_busy]
            k = np.arange(hit.size)
            mark[hit] = k
            entered = np.bincount(hit[mark[hit] == k] // NP, minlength=S)
            net_interf += entered * rt / (T * NP)

        # SUs that decided to transmit but ran out of slot time just stop.
        searching &= ~will_tx
        np.add.at(cell, flat[new_tx], 1)

    transmitted = tx_stage > 0
    tx_rt = np.take(rt_at, np.arange(S)[:, None] * (M + 1) + tx_stage)
    # state of the channel each SU transmitted on (masked where it did not)
    at_tx = np.take(cell, slot_base + tx_channel)
    success = transmitted & (at_tx == 1)   # PU absent and the SU alone
    collided = transmitted & (at_tx % K >= 2)
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
        su_interference=np.where(interfered_entry, tx_rt / (T * NP), 0.0),
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
# The scalar means a _Moments vector holds, before the per-SU throughput, and
# the rows of those whose standard error is reported.
_MEAN_FIELDS = ("throughput", "network_throughput", *_BATCH_MEANS)
_SPREAD = ("network_throughput", "interference")
_SPREAD_ROWS = [_MEAN_FIELDS.index(f) for f in _SPREAD]


@dataclass
class _Moments:
    """Sample count, means and sums of squared deviations (M2) of a run.

    ``mean`` holds the _MEAN_FIELDS, then the per-SU throughput; ``m2`` the
    spread of the _SPREAD samples (per slot within a replication, per
    replication across them).  Blocks merge with the pairwise update of Chan,
    Golub and LeVeque (Welford's update when one side is a single sample), so
    a run of any length keeps one block of slots in memory.
    """

    n: int
    mean: np.ndarray
    m2: np.ndarray

    @classmethod
    def _of(cls, mean: np.ndarray, spread: np.ndarray) -> "_Moments":
        centered = spread - spread.mean(axis=1, keepdims=True)
        return cls(spread.shape[1], mean, (centered * centered).sum(axis=1))

    @classmethod
    def of_batch(cls, batch: SlotBatch) -> "_Moments":
        per_su = batch.throughput.mean(axis=0)
        means = [per_su.mean(), per_su.sum(),
                 *(getattr(batch, a).mean() for a in _BATCH_MEANS.values())]
        return cls._of(np.concatenate([means, per_su]),
                       np.stack([batch.throughput.sum(axis=1),
                                 batch.network_interference]))

    @classmethod
    def of_replications(cls, reps: list["RunMetrics"]) -> "_Moments":
        # one contiguous row per field, so each mean is that of a 1-D array
        samples = np.array([[*(getattr(r, f) for f in _MEAN_FIELDS),
                             *r.per_su_throughput] for r in reps]).T.copy()
        return cls._of(samples.mean(axis=1), samples[_SPREAD_ROWS])

    def merge(self, other: "_Moments") -> "_Moments":
        n = self.n + other.n
        delta = other.mean - self.mean
        d = delta[_SPREAD_ROWS]
        return _Moments(n, self.mean + delta * (other.n / n),
                        self.m2 + other.m2 + d * d * (self.n * other.n / n))

    def metrics(self, n_slots: int, n_reps: int) -> "RunMetrics":
        """Means, standard errors of the mean and 1.96-SE half-widths."""
        se = ([float(v) for v in np.sqrt(self.m2 / (self.n - 1)) / np.sqrt(self.n)]
              if self.n > 1 else [float("nan")] * len(_SPREAD))
        k = len(_MEAN_FIELDS)
        return RunMetrics(
            n_slots=n_slots,
            n_reps=n_reps,
            per_su_throughput=self.mean[k:],
            **{f: float(v) for f, v in zip(_MEAN_FIELDS, self.mean[:k])},
            **{f"se_{f}": v for f, v in zip(_SPREAD, se)},
            **{f"ci_{f}": 1.96 * v for f, v in zip(_SPREAD, se)},
        )


def run_replication(config: NetworkConfig, schedules: SuSchedules,
                    resolved: ResolvedDetector, protocol: str, n_slots: int,
                    seed) -> RunMetrics:
    """One seeded replication; deterministic given the seed.

    The slots run as consecutive ``simulate_slots`` calls of at most
    BLOCK_SLOTS slots on one generator, folded into one reducer, so memory
    is bounded by the block size.  A run of at most BLOCK_SLOTS slots is one
    call, and its metrics are those of that batch."""
    if n_slots < 1:
        raise ScenarioError("n_slots must be >= 1")
    rng = np.random.default_rng(seed)
    total = None
    for start in range(0, n_slots, BLOCK_SLOTS):
        # ``batch`` keeps the previous block alive until the next one exists:
        # freed first, it lets malloc trim the heap, and each block then
        # faults its pages in afresh (6x the page faults, 1.5x the time).
        batch = simulate_slots(config, schedules, resolved,
                               min(BLOCK_SLOTS, n_slots - start), rng,
                               protocol=protocol)
        block = _Moments.of_batch(batch)
        total = block if total is None else total.merge(block)
    return total.metrics(n_slots, 1)


def monte_carlo(config: NetworkConfig, schedules: SuSchedules,
                resolved: ResolvedDetector, protocol: str, n_slots: int,
                n_reps: int, base_seed, n_jobs: int = 1) -> RunMetrics:
    """Replicated Monte Carlo with deterministic seeding.

    Replication seeds are spawned from ``base_seed``; aggregation runs in
    replication order, so the result is identical for any ``n_jobs``.
    """
    if n_reps < 1:
        raise ScenarioError("n_reps must be >= 1")
    seeds = np.random.SeedSequence(base_seed).spawn(n_reps)

    def one(seq):
        return run_replication(config, schedules, resolved, protocol, n_slots,
                               seq)

    if n_jobs > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            reps = list(pool.map(one, seeds))
    else:
        reps = [one(s) for s in seeds]

    if n_reps == 1:
        return reps[0]
    return _Moments.of_replications(reps).metrics(n_slots, n_reps)


def simulate_scenario(scenario, n_slots: int, seed, protocol: str = "modified",
                      n_reps: int = 1, n_jobs: int = 1,
                      tau: float | None = None,
                      p: float | None = None) -> RunMetrics:
    """Scenario-level convenience wrapper around :func:`monte_carlo`."""
    sc = scenario.with_params(tau=tau, p=p)
    resolved = resolve_detector(sc.config, sc.detector, sc.qos, scenario.params.tau)
    schedules = SuSchedules.homogeneous(sc.config, sc.params)
    return monte_carlo(sc.config, schedules, resolved, protocol, n_slots,
                       n_reps, seed, n_jobs=n_jobs)
