"""Reference copy of the slot simulator's one-batch step.

``simulate_slots`` and ``_threshold_table`` exactly as they stood before the
per-call set-up, stage loop and output block were trimmed: every stage
evaluates the full (slot, SU) arrays and the batch is built whole.  The
package's ``simulate_slots`` must return the same ``SlotBatch``, field by
field and dtype by dtype, and leave the generator at the same point.
"""

from __future__ import annotations

import numpy as np

from rsop.chain import ResolvedDetector
from rsop.config import NetworkConfig
from rsop.detector import false_alarm_prob, misdetection_prob, received_snr
from rsop.errors import ScenarioError
from rsop.simulator import SlotBatch, SuSchedules


def _threshold_table(config: NetworkConfig, resolved: ResolvedDetector,
                     tau: np.ndarray, n_stages: int) -> np.ndarray:
    """Sensing thresholds of every stage, shape (M, N_s, N_p, 2, N_s + 1), by
    (stage, SU, channel, PU present, SUs transmitting there from earlier
    stages), for M = ``n_stages`` stages whose (N_s, C) sensing times ``tau``
    give the first C stages; the later ones repeat stage C.  The energy
    detector is evaluated once per column of ``tau`` and channel class, as
    channels of one class share their thresholds.

    A probe decides "free" when the channel is busy and u < P_md, or idle and
    u >= P_fa, that is when (u < table[n - 1][cell]) == busy at stage n.  So
    the busy cells hold P_md at the cell's SNR and the idle cell (PU absent,
    count 0) holds P_fa.
    """
    ns, n_cols = tau.shape
    if resolved.mode == "explicit":
        p_md = 1.0 - resolved.explicit_p_d(np.arange(1, n_stages + 1))
        table = np.tile(p_md[:, None, None, None, None],
                        (1, ns, config.n_pu, 2, ns + 1))
        table[:, :, :, 0, 0] = resolved.p_fa
        return table
    rep, f_s = resolved.classes.rep, config.sampling_freq
    lam = resolved.lambda_norm[rep]
    # (class, 2, N_s + 1)
    gamma = received_snr(config, np.arange(2)[:, None, None],
                         np.arange(ns + 1)[:, None], rep).transpose(2, 0, 1)
    tau_sn = tau.T[:, :, None]  # (column, SU, 1), against the per-class lambda
    table = misdetection_prob(lam[:, None, None], tau_sn[..., None, None],
                              f_s, gamma)
    table[:, :, :, 0, 0] = false_alarm_prob(lam, tau_sn, f_s)
    # (stage, SU, channel) from (column, SU, class); take() makes it
    # C-contiguous, so each stage's flat gather reads it without a copy
    return (np.take(table, resolved.classes.of, axis=2)
            .take(np.minimum(np.arange(n_stages), n_cols - 1), axis=0))


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
    thresholds = _threshold_table(config, resolved, schedules.tau, M)
    # the schedule's columns padded to M stages with its last one
    cols = np.minimum(np.arange(M), schedules.n_cols - 1)
    tau, p = schedules.tau[:, cols], schedules.p[:, cols]
    rt_at = np.zeros((S, M + 1))   # remaining time after stage n; 0 at n = 0
    # per stage, SUs by descending tau; index NS (tau 0) means "none active"
    by_tau = np.argsort(-tau, axis=0, kind="stable")
    tau_desc = np.vstack([tau[by_tau, np.arange(M)], np.zeros(M)])

    for n in range(1, M + 1):
        in_budget = schedules.delta >= n
        active = searching & in_budget[None, :]
        # Draws happen for the full (S, NS) grid every stage to keep the
        # stream layout independent of the realized trajectories.
        u_gate = rng.random((S, NS))
        ch = rng.integers(NP, size=(S, NS))  # the stream of integers(0, NP)
        u_sense = rng.random((S, NS))
        if not active.any():
            break
        p_n = p[:, n - 1]

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
    # the last stage's (S, N_s) temporaries go before the batch is built
    u_gate = ch = u_sense = flat = state = code = busy = active = None
    ordered = senses = decided_free = will_tx = new_tx = started_busy = None

    transmitted = tx_stage > 0
    tx_rt = np.take(rt_at, np.arange(S)[:, None] * (M + 1) + tx_stage)
    # state of the channel each SU transmitted on (masked where it did not)
    at_tx = np.take(cell, slot_base + tx_channel)
    success = transmitted & (at_tx == 1)   # PU absent and the SU alone
    collided = transmitted & (at_tx % K >= 2)
    throughput = np.where(success, tx_rt * config.tx_rate / T, 0.0)
    delay = np.where(transmitted, T - tx_rt, T)
    stages_entered = np.where(transmitted, tx_stage,
                              schedules.delta.astype(np.int32)[None, :])
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
        overhead=overhead,
        handoffs=handoffs,
        delay=delay,
        pu_busy_fraction=np.count_nonzero(pu) / pu.size,
    )
