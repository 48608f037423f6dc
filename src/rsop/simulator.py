"""Slot-level Monte Carlo simulation of the random sensing-order policy.

Unlike the chain model, the simulator tracks ground truth: a channel is busy
for a sensing SU when its PU is present or when another SU started
transmitting there at an *earlier* stage (same-stage starters sense in
parallel and collide).  Sensing decisions are Bernoulli draws at the analytic
error probabilities, with detection evaluated at the realized accumulated
signal power (the chain model's :func:`rsop.detector.received_snr`, at the
realized PU state and count of earlier SU transmitters) when the energy
detector is in use.  P_fa depends only on the SU's tau and the channel, P_md
only on those, the PU state and that count, so each call evaluates the
detector's tail in one pass over a table of those cells, for every distinct
stage column of the schedule and channel class: the idle cell (PU absent, no
earlier sender) is the cell at SNR 0, whose tail is P_fa, and the busy cells
take its complement, P_md.  The tail's tau-free factors at the cells'
realized SNRs are built once, when the detector is resolved for the network
(``rsop.chain.ResolvedDetector.realized``), so a call evaluates only their
value at its taus (:func:`rsop.detector.tail_at`).  The class table is
expanded to the channels once per call, so every probe reads its threshold
with one gather; the adaptive loop's misdetection check reads the class
table's lone-PU cells.

Each (slot, channel) cell carries a state code (pu * (N_s + 1) + SUs
transmitting there) * N_p + channel: the channel is idle below N_p, and the
code plus the SU's row offset is the probe's place in the threshold table.
Stages inside a slot are aligned: a stage lasts the longest tau among the
SUs still searching in that slot, or the column's tau when every SU shares
it, and every stage after the first adds the handoff time.  A per-schedule
bound, the handoffs and each stage column's longest tau added in the same
order as the slot clocks, tells when no slot can have run out of time
(IEEE addition is monotone), and until then transmissions start without a
time mask.

Slots are i.i.d., so a batch is simulated as vectorized (slot, SU) arrays with
a short loop over sensing stages.  Each stage finds the cells that start
transmitting (a quarter to two thirds at stage 1, 1-18% later) once, as a
flat index, and records their (slot, channel) cell, stage, interference and
occupancy by index rather than with masked passes over the whole grid.  A
replication's consecutive batches of at most ``BLOCK_SLOTS`` (8192) slots
share a generator and one ``StageBuffers`` set and fold into one (count,
mean, M2) reducer of the means ``RunMetrics`` reports, so its memory is
bounded by the block size and its heap keeps its pages.

Which draws are made is known before the outcomes that use them: a stage
that has SUs searching is followed, within the budget, by one more stage's
draws, and each block opens with the same four.  So the loop asks for every
draw as soon as it knows it will be made.  A replication run alone, in a
process that may use more than one CPU, whose first block holds at least
``DRAW_AHEAD_CELLS`` (slot, SU) cells, has one worker thread make them
(numpy releases the interpreter lock while it fills), in the stream's
order, while the loop works on another core: every output bit is the same
as with the draws made in the loop.  Replications are embarrassingly
parallel with independent seeded streams and order-independent
aggregation; ``monte_carlo(n_jobs > 1)`` runs them on ``n_jobs`` threads,
which make their own draws.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np
import numpy.random  # loaded here, not lazily on the first generator

from .chain import ResolvedDetector, _OnFirstRead, resolve_detector
from .config import NetworkConfig
from .core import max_sensing_stages
from .detector import tail_at
from .errors import ScenarioError

# Slots per simulate_slots call in a replication; a longer run is streamed.
BLOCK_SLOTS = 8192
# (slot, SU) cells of a replication's first block from which its draws are
# made ahead on a worker thread: on a 2-CPU VM, fresh processes unpinned,
# blocks of 82k-123k cells broke even and 164k-cell ones ran 10-41% faster.
DRAW_AHEAD_CELLS = 2**17


@dataclass
class SuSchedules:
    """Per-SU, per-stage sensing time and sensing probability.

    Every SU's stage budget comes from its own stage-1 sensing time; stage
    boundaries inside a slot are aligned to the longest sensing duration among
    the SUs still searching at that stage in that slot, so an SU whose own
    budget is not spent can still run out of slot time.  An SU takes part
    in stage n while n <= its delta; stage n reads column min(n, n_cols) - 1
    of the tables, so an energy detector's threshold table has one row per
    column.
    """

    tau: np.ndarray    # (n_su, n_cols) seconds
    p: np.ndarray      # (n_su, n_cols)
    delta: np.ndarray  # (n_su,) per-SU stage budget

    @property
    def max_stages(self) -> int:
        return int(self.delta.max())

    @property
    def n_cols(self) -> int:
        """Stage columns held; the stages past them repeat the last one."""
        return self.tau.shape[1]

    @classmethod
    def from_per_su(cls, config: NetworkConfig, taus, ps) -> "SuSchedules":
        """One (tau, p) per SU, constant across stages; a scalar tau or p is
        every SU's value."""
        def column(values):  # (n_su, 1)
            if np.ndim(values) == 0:
                return np.full((config.n_su, 1), values, dtype=float)
            return np.reshape(values, (-1, 1))
        return cls.from_stage_table(config, column(taus), column(ps))

    @classmethod
    def from_stage_table(cls, config: NetworkConfig, tau_table, p_table,
                         delta=None) -> "SuSchedules":
        """Full per-SU, per-stage tables (fine-tuning mode).

        The stage budget uses each SU's stage-1 sensing time; later stages may
        shorten the probe, which only adds slack.  ``delta``, when given, is
        that budget, delta(tau_table[:, 0]), as the caller has computed it.
        Tables shorter than the longest budget are kept as they are, their
        last stage standing for the later ones; longer ones are cut to it.
        Every tau must lie in (0, T] and every p in [0, 1]."""
        tau_table = np.asarray(tau_table, dtype=float)
        p_table = np.asarray(p_table, dtype=float)
        if tau_table.shape != p_table.shape or tau_table.shape[0] != config.n_su:
            raise ScenarioError("stage tables must be (n_su, n_stages) and congruent")
        T = config.slot_duration
        # one reduction pair each, once per frame of the adaptive loop; NaN
        # fails both
        if not (tau_table.min() > 0.0 and tau_table.max() <= T):
            _reject_entry("tau", tau_table, (tau_table > 0.0) & (tau_table <= T),
                          f"(0, T={T}]")
        if not (p_table.min() >= 0.0 and p_table.max() <= 1.0):
            _reject_entry("p", p_table, (p_table >= 0.0) & (p_table <= 1.0),
                          "[0, 1]")
        if delta is None:
            delta = max_sensing_stages(T, tau_table[:, 0], config.handoff_time,
                                       config.n_pu)
        n_stages = int(delta.max())
        return cls(tau=tau_table[:, :n_stages], p=p_table[:, :n_stages],
                   delta=delta)


def _reject_entry(name: str, table: np.ndarray, valid: np.ndarray,
                  interval: str):
    """Raise ``ScenarioError`` naming the first (SU, stage) entry of the
    (N_s, stages) ``table`` that is not ``valid``, on one line."""
    su, stage = np.argwhere(~valid)[0]
    raise ScenarioError(f"{name}={table[su, stage]} of SU {su} at stage "
                        f"{stage + 1} outside {interval}")


class StageBuffers:
    """Named arrays ``simulate_slots`` writes into (stage-loop state and
    temporaries, batch arrays); a call with fewer slots takes the first rows.
    A set serves one run (a replication, an adaptive run) and one thread,
    but for the run's draw worker (see ``_Draws``), which writes the draw
    buffers ``u_pu``, ``u_gate`` and ``u_sense``, each once the loop is done
    with it; no batch field lies in them.  See ``SlotBatch``.  A call given
    none makes its own."""

    def __call__(self, name: str, shape: tuple, dtype=float, fill=None):
        array = self.__dict__.get(name)
        if array is None or array.shape != shape:
            if (array is None or len(array) < shape[0]
                    or array.shape[1:] != shape[1:]):
                array = self.__dict__[name] = np.empty(shape, dtype)
            else:
                array = array[:shape[0]]
        if fill is not None:
            array.fill(fill)
        return array


def _made(draw):
    """A draw made on the spot is its own handle."""
    return draw


class _Draws:
    """A replication's generator calls, queued on its one-thread ``pool``.

    ``random`` and ``integers`` take the generator's arguments and return a
    future of the draw, which runs while the caller works; ``get`` waits
    for it and raises its error.  The generator sees the calls in the order
    they are asked for, so a caller that asks in the stream's order gets
    the same stream, bit for bit.  ``opening`` holds the futures of the
    next ``simulate_slots`` call's opening draws (``_open_block``), which
    the replication asks for before the call."""

    get = staticmethod(Future.result)

    def __init__(self, rng: np.random.Generator, pool: ThreadPoolExecutor):
        self.random = partial(pool.submit, rng.random)
        self.integers = partial(pool.submit, rng.integers)
        self.opening = None


def _open_block(draws, buf: StageBuffers, n_slots: int, n_su: int,
                n_pu: int) -> tuple:
    """Ask ``draws`` (a generator or ``_Draws``) for the draws every block
    opens with, into ``buf``'s draw buffers: the (slot, channel) PU states,
    then stage 1's gate, channel and sensing variates.  Returns them, or
    their futures."""
    grid = (n_slots, n_su)
    return (draws.random((n_slots, n_pu), np.float64, buf("u_pu", (n_slots, n_pu))),
            draws.random(grid, np.float64, buf("u_gate", grid)),
            draws.integers(n_pu, size=grid, dtype=np.int32),  # same draw as int64
            draws.random(grid, np.float64, buf("u_sense", grid)))


class _LoopState(NamedTuple):
    """What ``simulate_slots``' stage loop leaves for the fields built on
    first read, and its threshold table by channel class, which the
    adaptive loop's misdetection check reads.  The first-read fields and
    ``means`` share its definitions; those given an ``out`` write into it."""

    # (slot, SU) final state code (pu * (N_s + 1) + SUs there) * N_p of the
    # channel the SU transmitted on; garbage where it did not.  In the
    # call's ``code`` buffer.
    at_tx: np.ndarray
    tx_rt: np.ndarray    # (slot, SU) time left after the transmit stage; 0 if none
    pu: np.ndarray       # (slot, channel) PU present
    delta: np.ndarray    # (SU,) stage budget
    thresholds: np.ndarray  # the schedule's ``_threshold_table``, by class
    slot: float          # T
    n_pu: int
    n_su: int
    buffers: StageBuffers  # the call's set

    def alone(self, tx, pu: int, out=None):
        """The SUs of ``tx`` alone on their channel, whose PU is absent
        (``pu`` 0) or present (1): state code (pu * (N_s + 1) + 1) * N_p."""
        code = (pu * (self.n_su + 1) + 1) * self.n_pu
        return np.logical_and(np.equal(self.at_tx, code, out), tx, out)

    def handoffs(self, tx, tx_stage):
        """Stage boundaries crossed: the transmit stage, or the budget where
        the SU never transmitted (not ``tx``), less one."""
        return np.where(tx, tx_stage, self.delta.astype(np.int32)) - 1

    def delay(self, out=None):
        return np.subtract(self.slot, self.tx_rt, out)

    def means(self, b: "SlotBatch") -> dict:
        """The first-read fields' means, from counts and integer sums
        (``mean()``'s bits, exact below 2**53), none of them allocated."""
        grid, size, buf = b.tx_stage.shape, b.tx_stage.size, self.buffers
        tx = np.greater(b.tx_stage, 0, buf("busy", grid, bool))  # transmitted
        success, alone_busy = (np.count_nonzero(self.alone(
            tx, pu, buf("free", grid, bool))) for pu in (0, 1))
        return {"success": success / size,  # collided: transmitted, not alone
                "collided": (np.count_nonzero(tx) - success - alone_busy) / size,
                # the sum of ``handoffs`` by SU: building them takes 3x as long
                "handoffs": (int((len(tx) - np.count_nonzero(tx, axis=0)) @ self.delta)
                             + int(b.tx_stage.sum()) - size) / size,
                "delay": self.delay(buf("delay", grid)).mean()}


@dataclass(kw_only=True)
class SlotBatch:
    """Raw per-slot outcomes of one replication (arrays indexed [slot, su]).

    ``simulate_slots`` fills the throughput, the interference sample and
    the stage loop's own arrays, and leaves the ``_OnFirstRead`` fields as
    None: each is built from the loop's final state when first read.  A
    batch given every field (blocks joined by hand, say) builds none.  With
    ``buffers``, a batch and its first-read fields last to the set's next call."""

    throughput: np.ndarray          # ACKed normalized throughput
    success: np.ndarray = _OnFirstRead(  # bool; alone on the channel, PU absent
        lambda b: b._loop.alone(b.transmitted, 0))
    transmitted: np.ndarray = _OnFirstRead(  # bool, entered a transmit/interfere state
        lambda b: b.tx_stage > 0)
    interfered_entry: np.ndarray    # bool, started transmitting on a busy channel
    collided: np.ndarray = _OnFirstRead(  # bool, overlapped another SU
        # transmitted and not alone: the alone sets lie in it, apart
        lambda b: b.transmitted ^ b.success ^ b._loop.alone(b.transmitted, 1))
    tx_stage: np.ndarray            # int, 0 when the SU never transmitted
    tx_channel: np.ndarray          # int, -1 when the SU never transmitted
    network_interference: np.ndarray  # (n_slots,) per-slot normalized t_I sample
    overhead: np.ndarray            # channels actually sensed
    handoffs: np.ndarray = _OnFirstRead(  # stage boundaries crossed
        lambda b: b._loop.handoffs(b.transmitted, b.tx_stage))
    delay: np.ndarray = _OnFirstRead(  # seconds before transmission (T if none)
        lambda b: b._loop.delay())
    pu_busy_fraction: float = _OnFirstRead(  # realized PU duty cycle (diagnostic)
        lambda b: np.count_nonzero(b._loop.pu) / b._loop.pu.size)


def _threshold_table(config: NetworkConfig, resolved: ResolvedDetector,
                     tau: np.ndarray, n_stages: int) -> np.ndarray:
    """Sensing thresholds, shape (L, N_s, 2, N_s + 1, classes), by (stage
    row, SU, PU present, SUs transmitting there from earlier stages,
    channel class); stage n reads row min(n, L) - 1.  Channels of one class
    share their thresholds, so ``resolved.classes.of`` expands the table to
    the channels.

    The energy detector has one row per column of the (N_s, C) sensing
    times ``tau`` (a schedule's stages past C repeat stage C).  The
    explicit detector has one row per listed stage, at most ``n_stages``.

    A probe decides "free" when the channel is busy and u < P_md, or idle and
    u >= P_fa, that is when (u < row[cell]) == busy.  So the busy cells hold
    P_md at the cell's SNR and the idle cell (PU absent, count 0) holds P_fa.
    """
    resolved.check_network(config)
    ns = tau.shape[0]
    if resolved.mode == "explicit":
        p_md = 1.0 - resolved.p_d_stages[:n_stages]
        table = np.empty((p_md.size, ns, 2, ns + 1, resolved.classes.rep.size))
        table[...] = p_md[:, None, None, None, None]
        table[:, :, 0, 0] = resolved.p_fa
        return table
    # one tail over every cell, from the detector's per-class terms at the
    # realized SNR of every state (built at resolution): the idle cell's
    # gamma is 0, so its tail is P_fa; the busy cells take its complement
    tail = tail_at(resolved.realized, tau.T[:, :, None, None, None],
                   config.sampling_freq)
    table = 1.0 - tail
    table[:, :, 0, 0] = tail[:, :, 0, 0]
    return table


def simulate_slots(config: NetworkConfig, schedules: SuSchedules,
                   resolved: ResolvedDetector, n_slots: int,
                   rng: np.random.Generator, protocol: str = "modified",
                   buffers: StageBuffers | None = None) -> SlotBatch:
    """Simulate ``n_slots`` independent slots for all SUs.

    Every stage the loop enters draws its variates for the full (slot, SU)
    grid, whatever the outcomes, and the loop stops after the first stage
    at which no SU is still searching; so outcomes steer the stream only
    through that last stage, and equal seeds give bit-identical batches.
    The modified protocol flips Bernoulli(p) *before* sensing and skips the
    probe on failure; the conventional protocol always senses and gates only
    the transmit decision.  Both consume the same draws, so at equal seeds
    they produce identical transmission trajectories and differ only in
    sensing overhead.  The batch fields nothing in the adaptive loop reads
    are built on first read (see ``SlotBatch``, also for ``buffers``).
    ``run_replication`` passes a ``_Draws`` as ``rng`` when it has a draw
    worker.
    """
    if protocol not in ("modified", "conventional"):
        raise ScenarioError(f"unknown protocol {protocol!r}")
    if n_slots < 1:
        raise ScenarioError(f"n_slots must be >= 1, got {n_slots}")
    S, NS, NP = n_slots, config.n_su, config.n_pu
    T = config.slot_duration
    K = NS + 1  # earlier transmitters on a channel: 0..N_s
    M = schedules.max_stages
    C = schedules.n_cols
    modified = protocol == "modified"
    buf = StageBuffers() if buffers is None else buffers
    # handles of the draws asked for, the next stage's in the loop: a bare
    # generator makes each on the spot, a replication's ``_Draws`` queues
    # it, and the replication may have asked for this block's opening ones
    if isinstance(rng, _Draws):
        get, opening, rng.opening = rng.get, rng.opening, None
    else:
        get, opening = _made, None
    u_pu, u_gate, ch, u_sense = opening or _open_block(rng, buf, S, NS, NP)
    # the draws alone write these, each once the loop is done with it
    u_gate_o, u_sense_o = buf("u_gate", (S, NS)), buf("u_sense", (S, NS))

    pu = np.less(get(u_pu), config.presence_prob, buf("pu", (S, NP), bool))
    # flat (slot, channel) cell code (pu * K + SUs transmitting there) * N_p
    # + channel: below N_p is idle, and the code is the cell's offset in an
    # SU's threshold row.  ``mark`` is scratch space over the same index.
    cell = np.multiply(pu, K * NP, buf("cell", (S, NP), np.intp))
    cell = np.add(cell, np.arange(NP), cell).ravel()
    mark = buf("mark", (S * NP,), np.int32)
    # flat (slot, channel) index; a flat cell fits in tx_channel's int32
    slot_base = np.arange(0, S * NP, NP, dtype=np.int32)[:, None]
    su_base = np.arange(0, NS * 2 * K * NP, 2 * K * NP)  # threshold row of each SU
    class_table = _threshold_table(config, resolved, schedules.tau, M)
    # by channel; take() makes it C-contiguous, so each stage's flat gather
    # reads it without a copy
    thresholds = class_table.take(resolved.classes.of, axis=-1)
    L = len(thresholds)

    searching = buf("searching", (S, NS), bool, True)
    # the flat (slot, channel) cell each SU transmitted on, -1 where it did
    # not: made the channels after the loop
    tx_cell = buf("tx_channel", (S, NS), np.int32, -1)
    tx_stage = buf("tx_stage", (S, NS), np.int32, 0)
    interfered_entry = buf("interfered_entry", (S, NS), bool, False)
    overhead = buf("overhead", (S, NS), np.int32, 0)
    net_interf = buf("net_interf", (S,), float, 0.0)
    # every slot's clock: one float while every stage so far lasted a tau
    # shared by all SUs, an (S,) array from the first stage that did not
    elapsed = 0.0
    rt_at = buf("rt_at", (S, M + 1), float, 0.0)  # time left after stage n
    # temporaries; free's takes will_tx too, active's new_tx, and tx_rt's,
    # written after the loop, each stage's thresholds
    tx_rt_o = buf("tx_rt", (S, NS))
    flat_o, code_o = buf("flat", (S, NS), np.intp), buf("code", (S, NS), np.intp)
    active_o, ordered_o, gate_o, senses_o, busy_o, free_o = (buf(name, (S, NS), bool)
        for name in ("active", "ordered", "gate", "senses", "busy", "free"))
    every_su = int(schedules.delta.min())  # stages every SU's budget reaches
    if every_su < M:  # row n - 1: delta >= n
        in_budget = schedules.delta > np.arange(M)[:, None]
    p_by_stage = schedules.p.T
    # per stage column, the SUs by descending tau and their taus; a column
    # whose SUs share one tau lasts that tau in every slot
    by_tau = (-schedules.tau).argsort(axis=0, kind="stable").T
    tau_desc = np.sort(schedules.tau.T, axis=1)[:, ::-1]
    shared_tau = tau_desc[:, 0] == tau_desc[:, -1]
    # no slot's clock passes ``bound``: the handoffs and each column's
    # largest tau, added in the order of ``elapsed`` (IEEE addition is
    # monotone), so while T - bound > 0 every slot has time left
    bound = 0.0

    for n in range(1, M + 1):
        active = (searching if n <= every_su
                  else np.bitwise_and(searching, in_budget[n - 1], active_o))
        # Every stage entered draws for the full (S, NS) grid, so the stream
        # depends on the realized trajectories only through the last stage:
        # stage n + 1's draws are asked for once stage n has SUs searching.
        if not np.count_nonzero(active):  # cheaper than .any() at this size
            for made in (u_gate, ch, u_sense):  # read, so a failed draw raises
                get(made)
            break
        col = min(n, C) - 1
        gate = np.less(get(u_gate), p_by_stage[col], gate_o)
        flat = np.add(slot_base, get(ch), flat_o)  # the channels probed
        ch = None  # freed before the next one is drawn
        if n < M:
            u_gate = rng.random((S, NS), np.float64, u_gate_o)
            ch = rng.integers(NP, size=(S, NS), dtype=np.int32)

        # Stage timing: longest sensing duration among SUs still searching.
        # A slot with none (argmax 0: the longest tau) has finished for good,
        # as searching and the budget only shrink, so its clock is never
        # read again and may run on.  (A masked max over the (slot, SU) grid
        # gives the same durations, but with numpy 2.4 a float max along
        # rows of N_s takes about 3x as long as this argmax.)
        if n >= 2:
            elapsed += config.handoff_time
            bound += config.handoff_time
        if shared_tau[col]:
            elapsed += tau_desc[col, 0]
        else:
            ordered = active.take(by_tau[col], 1, ordered_o, "clip")
            elapsed += tau_desc[col].take(ordered.argmax(axis=1))
        bound += tau_desc[col, 0]
        in_time = T - bound > 0.0
        rt = rt_at[:, n]
        np.subtract(T, elapsed, rt)
        if not in_time:
            np.maximum(rt, 0.0, out=rt)

        senses = np.bitwise_and(active, gate, senses_o) if modified else active
        code = cell.take(flat, None, code_o, "clip")  # every index in range
        busy = np.greater_equal(code, NP, busy_o)
        code += su_base
        row = thresholds[min(n, L) - 1].take(code, None, tx_rt_o, "clip")
        decided_free = np.equal(np.less(get(u_sense), row, free_o), busy, free_o)
        if n < M:
            u_sense = rng.random((S, NS), np.float64, u_sense_o)
        will_tx = np.bitwise_and(senses, decided_free, free_o)
        if not modified:
            will_tx &= gate

        overhead += senses
        new_tx = (will_tx if in_time
                  else np.bitwise_and(will_tx, (rt > 0.0)[:, None], active_o))
        # the flat (slot, SU) cells that start transmitting, in row-major
        # order, written by index
        starts = new_tx.ravel().nonzero()[0]
        tx_stage.put(starts, n)
        entered_at = flat.take(starts)  # their flat (slot, channel) cells
        tx_cell.put(starts, entered_at)

        started_busy = busy.take(starts)
        if np.count_nonzero(started_busy):
            interfered_entry.put(starts.compress(started_busy), True)
            # busy channels entered, once per (slot, channel): of repeated
            # indices, only the one whose mark survives is counted
            hit = entered_at.compress(started_busy)
            k = np.arange(hit.size, dtype=np.int32)
            mark.put(hit, k)
            entered = np.bincount(hit.compress(mark.take(hit) == k) // NP,
                                  minlength=S)
            net_interf += entered * rt / (T * NP)

        # SUs that decided to transmit stop searching, also those that ran
        # out of slot time; will_tx lies inside searching, so ^= clears it.
        searching ^= will_tx
        np.add.at(cell, entered_at, NP)
        # freed before the next stage: piled up at the heap top, a stage's
        # arrays would let malloc trim it and the next stage fault it back in
        starts = entered_at = started_busy = hit = k = None

    at_rt = np.add(np.arange(0, S * (M + 1), M + 1)[:, None], tx_stage, flat_o)
    tx_rt = rt_at.take(at_rt, None, tx_rt_o, "clip")
    # state code of the channel each SU transmitted on, N_p when the PU was
    # absent and the SU alone; garbage where it did not transmit, but there
    # tx_rt is 0, so the throughput is 0.0 all the same (tx_rate >= 0)
    at_tx = cell.take(tx_cell, None, code_o, "wrap")
    # where none transmitted, -1 - slot_base <= -1: clipped back to -1
    tx_channel = np.maximum(np.subtract(tx_cell, slot_base, tx_cell), -1, out=tx_cell)
    at_tx -= tx_channel
    throughput = np.multiply(tx_rt, config.tx_rate, buf("throughput", (S, NS)))
    throughput /= T
    throughput *= np.equal(at_tx, NP, busy_o)
    batch = SlotBatch(
        throughput=throughput,
        interfered_entry=interfered_entry,
        tx_stage=tx_stage,
        tx_channel=tx_channel,
        network_interference=net_interf,
        overhead=overhead,
    )
    batch._loop = _LoopState(at_tx=at_tx, tx_rt=tx_rt, pu=pu,
                             delta=schedules.delta, thresholds=class_table,
                             slot=T, n_pu=NP, n_su=NS, buffers=buf)
    return batch


@dataclass
class RunMetrics:
    """Aggregated Monte Carlo outcomes (means are per slot)."""

    n_slots: int
    n_reps: int
    throughput: float              # per-SU mean ACKed throughput (units of C_R)
    network_throughput: float      # summed over SUs
    interference: float            # normalized network interference time
    sensing_overhead: float        # channels sensed per SU per slot
    handoffs: float                # stage boundaries crossed per SU per slot
    delay: float                   # seconds before first transmission
    success_rate: float            # P(an SU transmits successfully in a slot)
    collision_rate: float          # P(an SU's transmission overlaps another SU)
    ci_network_throughput: float = float("nan")  # 1.96 SE over replications
    ci_interference: float = float("nan")
    se_network_throughput: float = float("nan")  # SE of the mean
    se_interference: float = float("nan")


# RunMetrics fields that are plain per-slot means, and the SlotBatch arrays
# they average.
_BATCH_MEANS = {
    "interference": "network_interference",
    "sensing_overhead": "overhead",
    "handoffs": "handoffs",
    "delay": "delay",
    "success_rate": "success",
    "collision_rate": "collided",
}
# The means a _Moments vector holds, and the rows of those whose standard
# error is reported.
_MEAN_FIELDS = ("throughput", "network_throughput", *_BATCH_MEANS)
_SPREAD = ("network_throughput", "interference")
_SPREAD_ROWS = [_MEAN_FIELDS.index(f) for f in _SPREAD]


@dataclass
class _Moments:
    """Sample count, means and sums of squared deviations (M2) of a run.

    ``mean`` holds the _MEAN_FIELDS; ``m2`` the spread of the _SPREAD
    samples (per slot within a replication, per replication across them).
    Blocks merge with the pairwise update of Chan, Golub and LeVeque
    (Welford's update when one side is a single sample), so a run of any
    length keeps one block of slots in memory.
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
        loop = getattr(batch, "_loop", None)
        unbuilt = loop.means(batch) if loop else {}
        means = [per_su.mean(), per_su.sum(),
                 *(unbuilt[a] if a in unbuilt else getattr(batch, a).mean()
                   for a in _BATCH_MEANS.values())]
        return cls._of(np.array(means),
                       np.stack([batch.throughput.sum(axis=1),
                                 batch.network_interference]))

    @classmethod
    def of_replications(cls, reps: list["RunMetrics"]) -> "_Moments":
        # one contiguous row per field, so each mean is that of a 1-D array
        samples = np.array([[getattr(r, f) for f in _MEAN_FIELDS]
                            for r in reps]).T.copy()
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
        return RunMetrics(
            n_slots=n_slots,
            n_reps=n_reps,
            **{f: float(v) for f, v in zip(_MEAN_FIELDS, self.mean)},
            **{f"se_{f}": v for f, v in zip(_SPREAD, se)},
            **{f"ci_{f}": 1.96 * v for f, v in zip(_SPREAD, se)},
        )


def run_replication(config: NetworkConfig, schedules: SuSchedules,
                    resolved: ResolvedDetector, protocol: str, n_slots: int,
                    seed, draw_thread: bool = True) -> RunMetrics:
    """One seeded replication; deterministic given the seed.

    The slots run as consecutive ``simulate_slots`` calls of at most
    BLOCK_SLOTS slots on one generator and one ``StageBuffers`` set, folded
    into one reducer, so memory is bounded by the block size.  A run of at
    most BLOCK_SLOTS slots is one call, with that batch's metrics.  With
    ``draw_thread``, in a process that may use more than one CPU, when the
    first block holds at least DRAW_AHEAD_CELLS (slot, SU) cells, one
    worker thread, which lives for the call, makes the generator's draws
    ahead of the loop (see ``_Draws``), in the same order;
    ``monte_carlo`` clears it when it runs replications on threads of its
    own."""
    if n_slots < 1:
        raise ScenarioError("n_slots must be >= 1")
    blocks = [min(BLOCK_SLOTS, n_slots - start)
              for start in range(0, n_slots, BLOCK_SLOTS)]
    rng = np.random.default_rng(seed)
    buffers = StageBuffers()
    ahead = (draw_thread and blocks[0] * config.n_su >= DRAW_AHEAD_CELLS
             and _cpus() > 1)
    total = None
    with ThreadPoolExecutor(1, "rsop-draws") if ahead else nullcontext() as pool:
        draws = rng if pool is None else _Draws(rng, pool)
        for size, following in zip(blocks, blocks[1:] + [0]):
            batch = simulate_slots(config, schedules, resolved, size, draws,
                                   protocol=protocol, buffers=buffers)
            if pool and following:  # made while this block is reduced
                draws.opening = _open_block(draws, buffers, following,
                                            config.n_su, config.n_pu)
            block = _Moments.of_batch(batch)
            total = block if total is None else total.merge(block)
    return total.metrics(n_slots, 1)


def _cpus() -> int:
    """CPUs this process may run on (all of the machine's where the
    platform cannot tell)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def monte_carlo(config: NetworkConfig, schedules: SuSchedules,
                resolved: ResolvedDetector, protocol: str, n_slots: int,
                n_reps: int, base_seed, n_jobs: int = 1) -> RunMetrics:
    """Replicated Monte Carlo with deterministic seeding.

    Replication seeds are spawned from ``base_seed``; aggregation runs in
    replication order, so the result is identical for any ``n_jobs``.  A
    replication has a draw worker (see ``run_replication``) only with
    ``n_jobs`` 1: on threads of their own, the replications already fill
    the cores.
    """
    if n_reps < 1:
        raise ScenarioError("n_reps must be >= 1")
    if n_jobs < 1:
        raise ScenarioError(f"n_jobs must be >= 1, got {n_jobs}")
    seeds = np.random.SeedSequence(base_seed).spawn(n_reps)

    def one(seq):
        return run_replication(config, schedules, resolved, protocol, n_slots,
                               seq, draw_thread=n_jobs == 1)

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
    schedules = SuSchedules.from_per_su(sc.config, sc.params.tau, sc.params.p)
    return monte_carlo(sc.config, schedules, resolved, protocol, n_slots,
                       n_reps, seed, n_jobs=n_jobs)
