"""Independent brute-force oracles for the chain model.

Each SU is an independent walker over the sensing stages with the same
per-(channel, stage) transition probabilities the mean-field tables supply.
This module enumerates every joint outcome of all walkers explicitly - every
combination of terminal signatures, probability-weighted - and reads off
throughput and interference directly from the success/overlap definitions,
without the occupation-probability algebra, the closed-form no-tx table, or
the power-of-counts shortcuts used by the analyzer.  Feasible for small
networks (n_su <= 3, few stages); the analyzer must match it to float
accuracy.

It also holds the pruned-chain construction of the no-tx probability, the
stage-by-stage definition the analyzer's closed form must reproduce.
"""

from __future__ import annotations

import numpy as np

from rsop.chain import ChainDistribution, OccupancyTable, StageProfiles
from rsop.config import NetworkConfig, SensingParams
from rsop.core import remaining_times

TE, T_STATE, I_STATE = 0, 1, 2


def signature_distribution(config: NetworkConfig, params: SensingParams,
                           profiles: StageProfiles,
                           occupancy: OccupancyTable):
    """Distribution of one walker's terminal signature.

    A signature is (kind, channel, stage): the walker either transmitted on a
    free channel (T), transmitted on a busy channel (I), or terminated without
    transmitting (TE).  Found by exhaustive depth-first expansion of the
    per-stage skip / probe / outcome tree.
    """
    acc: dict[tuple[int, int, int], float] = {}

    def add(key, prob):
        acc[key] = acc.get(key, 0.0) + prob

    def walk(stage: int, prob: float):
        if prob == 0.0:
            return
        if stage > profiles.n_stages:
            add((TE, -1, 0), prob)
            return
        walk(stage + 1, prob * (1.0 - params.p))
        for m in range(config.n_pu):
            base = prob * params.p / config.n_pu
            occ = occupancy.occ[m, stage - 1]
            p_fa = profiles.p_fa[m]
            p_d = profiles.p_d[m, stage - 1]
            add((T_STATE, m, stage), base * (1.0 - occ) * (1.0 - p_fa))
            add((I_STATE, m, stage), base * occ * (1.0 - p_d))
            walk(stage + 1, base * (occ * p_d + (1.0 - occ) * p_fa))

    walk(1, 1.0)
    keys = sorted(acc)
    kind = np.array([k[0] for k in keys])
    chan = np.array([k[1] for k in keys])
    stage = np.array([k[2] for k in keys])
    prob = np.array([acc[k] for k in keys])
    assert abs(prob.sum() - 1.0) < 1e-12
    return kind, chan, stage, prob


def enumerate_metrics(config: NetworkConfig, params: SensingParams,
                      profiles: StageProfiles,
                      occupancy: OccupancyTable) -> tuple[float, float]:
    """(per-SU throughput, normalized interference) by joint enumeration.

    A transmission succeeds when it landed on an actually free channel and no
    other walker transmitted on that channel at the same or a later stage.
    Interference accrues once per (channel, stage) where at least one walker
    entered the interference state.
    """
    kind, chan, stage, prob = signature_distribution(config, params, profiles,
                                                     occupancy)
    n_sig = len(prob)
    n_su = config.n_su
    rt = remaining_times(profiles.n_stages, config.slot_duration, params.tau,
                         config.handoff_time)

    grids = np.meshgrid(*[np.arange(n_sig)] * n_su, indexing="ij")
    idx = np.stack([g.ravel() for g in grids])          # (n_su, n_sig**n_su)
    joint_prob = prob[idx].prod(axis=0)

    # Tagged walker 0: credit RT_n * C_R when it reached a T state and nobody
    # else transmitted (T or I) on its channel at stage >= its start stage.
    k0 = idx[0]
    tagged_t = kind[k0] == T_STATE
    blocked = np.zeros_like(tagged_t)
    for j in range(1, n_su):
        kj = idx[j]
        blocked |= ((kind[kj] != TE) & (chan[kj] == chan[k0])
                    & (stage[kj] >= stage[k0]))
    credit = np.where(tagged_t & ~blocked,
                      rt[np.maximum(stage[k0] - 1, 0)] * config.tx_rate, 0.0)
    throughput = float(np.sum(credit * joint_prob)) / config.slot_duration

    interference = 0.0
    for mm in range(config.n_pu):
        for nn in range(1, profiles.n_stages + 1):
            hit = np.zeros(idx.shape[1], dtype=bool)
            for j in range(n_su):
                kj = idx[j]
                hit |= (kind[kj] == I_STATE) & (chan[kj] == mm) & (stage[kj] == nn)
            interference += float(np.sum(hit * joint_prob)) * rt[nn - 1]
    interference /= config.slot_duration * config.n_pu
    return throughput, interference


def pruned_walk(config: NetworkConfig, params: SensingParams,
                profiles: StageProfiles, occupancy: OccupancyTable,
                m0: int, n0: int) -> tuple[float, float]:
    """(kept, blocked) probability mass of one walker on a pruned chain.

    The pruned chain deletes the edges from channel ``m0``'s probe states
    (0-based) to T_n and I_n at every stage n >= ``n0`` (1-based); the deleted
    mass is not rerouted.  ``kept`` is the disposition total of what remains,
    which is the probability the walker never transmits on m0 at stages
    n0..delta while otherwise following the unmodified dynamics; ``blocked``
    is the deleted mass, so the two sum to one.
    """
    reach = 1.0  # probability of reaching the current handoff state
    kept = blocked = 0.0
    for stage in range(1, profiles.n_stages + 1):
        stay = 1.0 - params.p
        for m in range(config.n_pu):
            probe = params.p / config.n_pu
            occ = occupancy.occ[m, stage - 1]
            p_fa = profiles.p_fa[m]
            p_d = profiles.p_d[m, stage - 1]
            exits = reach * probe * ((1.0 - occ) * (1.0 - p_fa) + occ * (1.0 - p_d))
            if m == m0 and stage >= n0:
                blocked += exits
            else:
                kept += exits
            stay += probe * (occ * p_d + (1.0 - occ) * p_fa)
        reach *= stay
    return kept + reach, blocked


def pruned_no_tx_prob(config: NetworkConfig, params: SensingParams,
                      profiles: StageProfiles, occupancy: OccupancyTable,
                      m: int, n: int) -> float:
    """Y_{m,n}: probability one SU never transmits on channel ``m`` (0-based)
    at stages ``n``..delta, via the pruned chain's disposition total."""
    return pruned_walk(config, params, profiles, occupancy, m, n)[0]


def success_prob(config: NetworkConfig, profiles: StageProfiles,
                 occupancy: OccupancyTable, dist: ChainDistribution,
                 m: int, n: int, no_tx: float) -> float:
    """Q_{T_n,m}: one SU transmits on free channel ``m`` at stage ``n`` and no
    competitor transmits there at any stage >= n."""
    i = n - 1
    p_t = dist.pi_channel[m, i] * (1.0 - occupancy.occ[m, i]) * (1.0 - profiles.p_fa[m])
    return float(p_t * no_tx ** (config.n_su - 1))
