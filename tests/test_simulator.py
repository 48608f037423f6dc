import dataclasses
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rsop.simulator
import simulator_reference
from conftest import explicit_detector, make_config
from rsop.chain import analyze, resolve_detector
from rsop.config import (
    DetectorSpec,
    bundled_scenarios,
    load_bundled,
    load_scenario,
)
from rsop.detector import false_alarm_prob, misdetection_prob, received_snr
from rsop.errors import ScenarioError
from rsop.simulator import (
    BLOCK_SLOTS,
    DRAW_AHEAD_CELLS,
    RunMetrics,
    SlotBatch,
    StageBuffers,
    SuSchedules,
    _Moments,
    _threshold_table,
    monte_carlo,
    run_replication,
    simulate_slots,
)

T = 10e-3
# every bundled scenario and the test scenario
ALL_SCENARIOS = sorted(
    list(bundled_scenarios().values())
    + [str(p) for p in (Path(__file__).parent / "scenarios").glob("*.yaml")])
# the bundled energy-detector scenarios, and one of several channel classes
ENERGY_SCENARIOS = sorted(
    [path for path in bundled_scenarios().values()
     if load_scenario(path).detector.mode == "energy"]
    + [str(p) for p in (Path(__file__).parent / "scenarios").glob("*.yaml")])


def setup(config, tau, p, p_fa, p_d):
    resolved = resolve_detector(config, explicit_detector(p_fa, p_d), None, tau)
    schedules = SuSchedules.from_per_su(config, tau, p)
    return schedules, resolved


class TestSingleSlotSemantics:
    def test_lone_su_always_succeeds(self):
        config = make_config(n_su=1, n_pu=1, presence=0.0)
        schedules, resolved = setup(config, 2e-3, 1.0, 0.0, 0.9)
        batch = simulate_slots(config, schedules, resolved, 500,
                               np.random.default_rng(0))
        assert np.all(batch.success)
        assert np.allclose(batch.throughput, (T - 2e-3) / T)
        assert np.all(batch.tx_stage == 1)

    def test_idle_network(self):
        config = make_config(n_su=3, n_pu=4)
        schedules, resolved = setup(config, 1e-3, 0.0, 0.1, 0.9)
        batch = simulate_slots(config, schedules, resolved, 300,
                               np.random.default_rng(1))
        assert not batch.transmitted.any()
        assert batch.overhead.sum() == 0
        assert batch.network_interference.sum() == 0.0
        assert np.allclose(batch.delay, T)

    def test_perfect_detection_zero_interference(self):
        config = make_config(n_su=5, n_pu=3, presence=0.7)
        schedules, resolved = setup(config, 1e-3, 0.9, 0.1, 1.0)
        batch = simulate_slots(config, schedules, resolved, 2000,
                               np.random.default_rng(2))
        assert batch.network_interference.sum() == 0.0
        assert not batch.interfered_entry.any()

    def test_overhead_capped_by_stage_budget(self):
        config = make_config(n_su=4, n_pu=3, presence=0.9)
        schedules, resolved = setup(config, 1e-3, 1.0, 0.0, 1.0)
        batch = simulate_slots(config, schedules, resolved, 400,
                               np.random.default_rng(3))
        assert batch.overhead.max() <= schedules.max_stages


class TestDeterminismContracts:
    def test_same_seed_bit_identical(self):
        config = make_config(n_su=4, n_pu=5, presence=0.4)
        schedules, resolved = setup(config, 8e-4, 0.7, 0.15, 0.85)
        a = run_replication(config, schedules, resolved, "modified", 600, 42)
        b = run_replication(config, schedules, resolved, "modified", 600, 42)
        assert a.network_throughput == b.network_throughput
        assert a.interference == b.interference
        assert a.throughput == b.throughput

    def test_protocols_share_transmission_trajectories(self):
        # equal seeds: the conventional variant senses more but transmits
        # identically, because the p-gate and the sensing outcome commute
        config = make_config(n_su=3, n_pu=4, presence=0.5)
        schedules, resolved = setup(config, 1e-3, 0.6, 0.1, 0.9)
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        mod = simulate_slots(config, schedules, resolved, 800, rng_a,
                             protocol="modified")
        conv = simulate_slots(config, schedules, resolved, 800, rng_b,
                              protocol="conventional")
        assert np.array_equal(mod.throughput, conv.throughput)
        assert np.array_equal(mod.tx_channel, conv.tx_channel)
        assert conv.overhead.sum() > mod.overhead.sum()

    def test_parallel_aggregation_identical(self):
        config = make_config(n_su=3, n_pu=3, presence=0.5)
        schedules, resolved = setup(config, 1e-3, 0.8, 0.1, 0.9)
        serial = monte_carlo(config, schedules, resolved, "modified", 300, 8,
                             base_seed=5, n_jobs=1)
        threaded = monte_carlo(config, schedules, resolved, "modified", 300, 8,
                               base_seed=5, n_jobs=8)
        assert serial.network_throughput == threaded.network_throughput
        assert serial.interference == threaded.interference

    def test_single_rep_reduces_to_replication(self):
        config = make_config(n_su=2, n_pu=3)
        schedules, resolved = setup(config, 1e-3, 0.5, 0.1, 0.9)
        seq = np.random.SeedSequence(11).spawn(1)[0]
        direct = run_replication(config, schedules, resolved, "modified", 200, seq)
        mc = monte_carlo(config, schedules, resolved, "modified", 200, 1,
                         base_seed=11)
        assert mc.network_throughput == direct.network_throughput

    def test_replicated_aggregation_pins_every_field(self):
        config = make_config(n_su=3, n_pu=3, presence=0.4)
        schedules, resolved = setup(config, 1e-3, 0.7, 0.1, 0.9)
        reps = [run_replication(config, schedules, resolved, "modified", 250, seq)
                for seq in np.random.SeedSequence(13).spawn(3)]
        mc = monte_carlo(config, schedules, resolved, "modified", 250, 3,
                         base_seed=13)
        assert (mc.n_slots, mc.n_reps) == (250, 3)
        for field in ("throughput", "network_throughput", "interference",
                      "sensing_overhead", "handoffs", "delay", "success_rate",
                      "collision_rate"):
            assert getattr(mc, field) == pytest.approx(
                np.mean([getattr(r, field) for r in reps]), rel=1e-12, abs=0.0)
        for se_field, field in (("se_network_throughput", "network_throughput"),
                                ("se_interference", "interference")):
            samples = np.array([getattr(r, field) for r in reps])
            se = samples.std(ddof=1) / np.sqrt(3)
            assert getattr(mc, se_field) == pytest.approx(se, rel=1e-12)
            ci_field = "ci_" + se_field[3:]
            assert getattr(mc, ci_field) == pytest.approx(1.96 * se, rel=1e-12)


class TestThresholdTable:
    def test_energy_cells_are_the_detector_formulas(self):
        config = make_config(n_su=3, n_pu=4, presence=[0.2, 0.5, 0.8, 0.4],
                             pu_power=[0.05, 0.1, 0.4, 1.5], su_power=0.3)
        resolved = resolve_detector(
            config, DetectorSpec(mode="energy", threshold=1.02), None, 1e-3)
        # heterogeneous per-stage tau: every (stage, SU) cell differs
        tau = np.array([[1e-4, 2e-4], [3e-4, 5e-4], [7e-4, 6e-4]])
        table = _threshold_table(config, resolved, tau, 2).take(
            resolved.classes.of, axis=-1)
        assert table.shape == (2, 3, 2, 4, 4)
        lam, f_s = resolved.lambda_norm, config.sampling_freq
        for n, j, pu, count, m in np.ndindex(table.shape):
            if pu == 0 and count == 0:
                expect = false_alarm_prob(lam[m], tau[j, n], f_s)
            else:
                gamma = ((pu * config.pu_power[m] + count * config.su_power)
                         / config.noise_power)
                expect = misdetection_prob(lam[m], tau[j, n], f_s, gamma)
            assert table[n, j, pu, count, m] == expect

    @pytest.mark.parametrize("path", ENERGY_SCENARIOS,
                             ids=lambda path: Path(path).stem)
    def test_equals_the_per_stage_su_evaluation(self, path):
        # evaluated once per stage column and channel class, against every
        # (stage, SU) row evaluated on its own; stage n reads row and column
        # min(n, n_cols) - 1
        sc = load_scenario(path)
        config, ns = sc.config, sc.config.n_su
        resolved = resolve_detector(config, sc.detector, sc.qos, sc.params.tau)
        lam, f_s = resolved.lambda_norm, config.sampling_freq
        gamma = received_snr(config, np.arange(2)[:, None, None],
                             np.arange(ns + 1)[:, None])
        rng = np.random.default_rng(5)
        tau = sc.params.tau * rng.uniform(0.5, 1.5, (ns, 3))
        for sched in (SuSchedules.from_per_su(config, sc.params.tau, sc.params.p),
                      SuSchedules.from_per_su(config, tau[:, 0], np.full(ns, 0.5)),
                      SuSchedules.from_stage_table(config, tau, np.full((ns, 3), 0.5))):
            table = _threshold_table(config, resolved, sched.tau,
                                     sched.max_stages).take(
                                         resolved.classes.of, axis=-1)
            assert table.shape == (sched.n_cols, ns, 2, ns + 1, config.n_pu)
            for n, j in np.ndindex(sched.max_stages, ns):
                col = min(n + 1, sched.n_cols) - 1
                row = misdetection_prob(lam, sched.tau[j, col], f_s, gamma)
                row[0, 0] = false_alarm_prob(lam, sched.tau[j, col], f_s)
                assert np.array_equal(table[col, j], row)

    def test_explicit_cells_follow_the_stage(self):
        config = make_config(n_su=2, n_pu=3)
        resolved = resolve_detector(
            config, explicit_detector(0.15, [0.6, 0.8, 0.95]), None, 1e-3)
        # one row per listed stage; stage n reads row min(n, 3) - 1
        table = _threshold_table(config, resolved, np.full((2, 5), 1e-3),
                                 5).take(resolved.classes.of, axis=-1)
        assert table.shape == (3, 2, 2, 3, 3)
        for n, p_d in ((1, 0.6), (2, 0.8), (3, 0.95), (4, 0.95), (5, 0.95)):
            for j, pu, count, m in np.ndindex(table.shape[1:]):
                expect = 0.15 if pu == 0 and count == 0 else 1.0 - p_d
                assert table[min(n, 3) - 1, j, pu, count, m] == expect
        # no more rows than stages
        assert len(_threshold_table(config, resolved, np.full((2, 1), 1e-3), 2)) == 2


class TestStreaming:
    def test_one_block_is_the_batch_metrics(self):
        config = make_config(n_su=3, n_pu=4, presence=0.4)
        schedules, resolved = setup(config, 1e-3, 0.7, 0.1, 0.9)
        for n_slots in (1, 500, BLOCK_SLOTS):
            run = run_replication(config, schedules, resolved, "modified",
                                  n_slots, 8)
            batch = simulate_slots(config, schedules, resolved, n_slots,
                                   np.random.default_rng(8))
            direct = _Moments.of_batch(batch).metrics(n_slots, 1)
            for field in dataclasses.fields(run):
                a, b = getattr(run, field.name), getattr(direct, field.name)
                assert a == b or (np.isnan(a) and np.isnan(b))

    def test_blocks_merge_like_one_batch(self):
        # three full blocks plus a remainder against the concatenated batch
        config = make_config(n_su=2, n_pu=3, presence=0.3)
        schedules, resolved = setup(config, 1e-3, 0.8, 0.1, 0.7)
        n_slots = 3 * BLOCK_SLOTS + 1000
        run = run_replication(config, schedules, resolved, "modified",
                              n_slots, 4)
        rng = np.random.default_rng(4)
        parts = [simulate_slots(config, schedules, resolved,
                                min(BLOCK_SLOTS, n_slots - s), rng)
                 for s in range(0, n_slots, BLOCK_SLOTS)]
        assert len(parts) == 4
        whole = SlotBatch(**{
            f.name: (np.concatenate([getattr(b, f.name) for b in parts])
                     if f.name != "pu_busy_fraction" else 0.0)
            for f in dataclasses.fields(SlotBatch)})
        direct = _Moments.of_batch(whole).metrics(n_slots, 1)
        assert run.n_slots == direct.n_slots == n_slots
        for field in ("throughput", "network_throughput", "interference",
                      "sensing_overhead", "handoffs", "delay", "success_rate",
                      "collision_rate", "se_network_throughput",
                      "se_interference", "ci_network_throughput",
                      "ci_interference"):
            assert getattr(run, field) == pytest.approx(
                getattr(direct, field), rel=1e-12, abs=0.0)


def _built(batch: SlotBatch) -> SlotBatch:
    """A copy of ``batch`` with every field built, which ``_Moments.of_batch``
    reduces field by field, as it does any batch joined by hand."""
    return SlotBatch(**{
        f.name: np.copy(getattr(batch, f.name))
        if f.name != "pu_busy_fraction" else batch.pu_busy_fraction
        for f in dataclasses.fields(SlotBatch)})


def _assert_same_batch(got: SlotBatch, want: SlotBatch, at=None):
    for field in dataclasses.fields(SlotBatch):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert np.asarray(a).dtype == np.asarray(b).dtype, (at, field.name)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (at, field.name)


class TestStageBuffers:
    """A replication's blocks write into one ``StageBuffers`` set and reduce
    their first-read fields unbuilt; calls without a set own their arrays."""

    @staticmethod
    def setup_dense(tau_factor=1.0):
        sc = load_bundled("dense_ns20_np5")
        resolved = resolve_detector(sc.config, sc.detector, sc.qos, sc.params.tau)
        schedules = SuSchedules.from_per_su(sc.config, sc.params.tau * tau_factor,
                                            sc.params.p)
        return sc.config, schedules, resolved

    @pytest.mark.parametrize("protocol", ["modified", "conventional"])
    @pytest.mark.parametrize("kind", ["homogeneous", "mixed-tau"])
    @pytest.mark.parametrize("name", ["dense_ns20_np5", "false_alarm_np5"])
    def test_replication_equals_fresh_blocks_reduced_by_field(self, name, kind,
                                                              protocol):
        # energy and explicit detector; three blocks, the last one partial
        sc = load_bundled(name)
        resolved = resolve_detector(sc.config, sc.detector, sc.qos, sc.params.tau)
        sched = TestAgainstReference.schedule_kinds(sc)[kind]
        n_slots = 2 * BLOCK_SLOTS + 123
        got = run_replication(sc.config, sched, resolved, protocol, n_slots, 21)
        rng = np.random.default_rng(21)
        total = None
        for start in range(0, n_slots, BLOCK_SLOTS):
            block = _Moments.of_batch(_built(simulate_slots(
                sc.config, sched, resolved, min(BLOCK_SLOTS, n_slots - start),
                rng, protocol=protocol)))
            total = block if total is None else total.merge(block)
        want = total.metrics(n_slots, 1)
        for field in dataclasses.fields(RunMetrics):
            assert getattr(got, field.name) == getattr(want, field.name), field.name

    def test_one_set_serves_schedules_of_other_stage_counts(self):
        config, five, resolved = self.setup_dense()
        _, two, _ = self.setup_dense(tau_factor=4.0)
        assert (five.max_stages, two.max_stages) == (5, 2)
        buffers = StageBuffers()
        for sched, n_slots, seed in ((five, 300, 1), (two, 500, 2),
                                     (two, 120, 3), (five, 300, 4)):
            got = simulate_slots(config, sched, resolved, n_slots,
                                 np.random.default_rng(seed), buffers=buffers)
            want = simulate_slots(config, sched, resolved, n_slots,
                                  np.random.default_rng(seed))
            a, b = _Moments.of_batch(got), _Moments.of_batch(want)
            assert a.n == b.n and a.mean.tobytes() == b.mean.tobytes()
            assert a.m2.tobytes() == b.m2.tobytes()
            _assert_same_batch(got, want, (n_slots, seed))

    def test_batch_without_a_set_is_unchanged_by_later_calls(self):
        config, sched, resolved = self.setup_dense()
        want = _built(simulate_slots(config, sched, resolved, 700,
                                     np.random.default_rng(6)))
        batch = simulate_slots(config, sched, resolved, 700,
                               np.random.default_rng(6))
        # later calls of every kind, before any of its fields is built
        simulate_slots(config, sched, resolved, 700, np.random.default_rng(7))
        simulate_slots(config, sched, resolved, 700, np.random.default_rng(8),
                       buffers=StageBuffers())
        run_replication(config, sched, resolved, "modified", 900, 9)
        _assert_same_batch(batch, want)

    def test_replication_memory_is_one_block_of_buffers(self):
        # numpy reports its data allocations to tracemalloc; in units of one
        # float64 (slot, SU) block, fresh temporaries every block peaked at
        # 15.1, and one set with the stage's index arrays peaks at 11.7
        config, sched, resolved = self.setup_dense()
        tracemalloc.start()
        try:
            run_replication(config, sched, resolved, "modified",
                            3 * BLOCK_SLOTS + 123, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = BLOCK_SLOTS * config.n_su * 8
        assert 5 * block < peak < 13.5 * block


class _DrawFailed(Exception):
    pass


class _RecordingGenerator:
    """Forwards ``random`` and ``integers`` to a generator and records the
    thread of every call; call number ``fail_at`` raises ``_DrawFailed``."""

    def __init__(self, gen, fail_at=None):
        self.gen, self.fail_at = gen, fail_at
        self.threads, self.raised = [], None

    def _call(self, fn, *args, **kwargs):
        self.threads.append(threading.current_thread())
        if len(self.threads) == self.fail_at:
            self.raised = _DrawFailed(self.fail_at)
            raise self.raised
        return fn(*args, **kwargs)

    def random(self, *args, **kwargs):
        return self._call(self.gen.random, *args, **kwargs)

    def integers(self, *args, **kwargs):
        return self._call(self.gen.integers, *args, **kwargs)


def _replicate_recorded(monkeypatch, config, sched, resolved, protocol,
                        n_slots, seed, fail_at=None, made=None):
    """``run_replication`` on a recording generator, also appended to
    ``made``; returns its metrics, every block's batch built and copied as
    the call returns, and the generator.  Building the batch while the next
    block's draws are made ahead checks that no field shares their buffers."""
    made = [] if made is None else made
    batches = []
    default_rng, simulate = np.random.default_rng, simulate_slots

    def recording_rng(*args):
        made.append(_RecordingGenerator(default_rng(*args), fail_at))
        return made[-1]

    def copying(*args, **kwargs):
        batches.append(_built(simulate(*args, **kwargs)))
        return batches[-1]

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", recording_rng)
        patch.setattr(rsop.simulator, "simulate_slots", copying)
        got = run_replication(config, sched, resolved, protocol, n_slots, seed)
    (gen,) = made
    return got, batches, gen


def _assert_same_metrics(got: RunMetrics, want: RunMetrics):
    for field in dataclasses.fields(RunMetrics):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert np.float64(a).tobytes() == np.float64(b).tobytes(), field.name


class TestDrawAhead:
    """From DRAW_AHEAD_CELLS cells a block, a replication's draws are made
    on a worker thread ahead of its stage loop: every bit equals the
    reference replication, whose draws are made in the loop, and the
    generator ends at the same point."""

    @staticmethod
    def stops_at_stage_2():
        # every probe finds its channel free and every gate passes, so
        # every SU transmits at stage 1 and stage 2 finds none searching
        config = make_config(n_su=16, n_pu=4, presence=0.5)
        schedules, resolved = setup(config, 1e-3, 1.0, 0.0, 0.0)
        assert schedules.max_stages == 4
        return config, schedules, resolved

    @pytest.mark.parametrize("protocol", ["modified", "conventional"])
    def test_blocks_equal_the_reference_replication(self, monkeypatch,
                                                    protocol):
        sc = load_bundled("dense_ns20_np5")
        resolved = resolve_detector(sc.config, sc.detector, sc.qos, sc.params.tau)
        sched = SuSchedules.from_per_su(sc.config, sc.params.tau, sc.params.p)
        n_slots = 2 * BLOCK_SLOTS + 1000  # the last block is partial
        want, blocks, rng = simulator_reference.run_replication(
            sc.config, sched, resolved, protocol, n_slots, 31)
        got, batches, gen = _replicate_recorded(
            monkeypatch, sc.config, sched, resolved, protocol, n_slots, 31)
        assert threading.main_thread() not in gen.threads
        assert len(batches) == len(blocks) == 3
        for i, (batch, block) in enumerate(zip(batches, blocks)):
            _assert_same_batch(batch, block, i)
        _assert_same_metrics(got, want)
        assert gen.gen.bit_generator.state == rng.bit_generator.state

    def test_loop_that_stops_before_its_budget(self, monkeypatch):
        # stage 2 of 4 is entered, draws all three variates and breaks
        config, sched, resolved = self.stops_at_stage_2()
        n_slots = 2 * BLOCK_SLOTS + 1000
        assert BLOCK_SLOTS * config.n_su >= DRAW_AHEAD_CELLS
        want, blocks, rng = simulator_reference.run_replication(
            config, sched, resolved, "modified", n_slots, 5)
        got, batches, gen = _replicate_recorded(
            monkeypatch, config, sched, resolved, "modified", n_slots, 5)
        assert all((b.tx_stage == 1).all() for b in batches)
        # per block: the PU states and two stages of three draws
        assert len(gen.threads) == 3 * 7
        assert threading.main_thread() not in gen.threads
        for i, (batch, block) in enumerate(zip(batches, blocks)):
            _assert_same_batch(batch, block, i)
        _assert_same_metrics(got, want)
        assert gen.gen.bit_generator.state == rng.bit_generator.state

    def test_monte_carlo_threads_equal_the_reference(self):
        sc = load_bundled("dense_ns20_np5")
        resolved = resolve_detector(sc.config, sc.detector, sc.qos, sc.params.tau)
        sched = SuSchedules.from_per_su(sc.config, sc.params.tau, sc.params.p)
        n_slots, seeds = BLOCK_SLOTS + 500, np.random.SeedSequence(17).spawn(4)
        want = _Moments.of_replications([
            simulator_reference.run_replication(
                sc.config, sched, resolved, "modified", n_slots, seed)[0]
            for seed in seeds]).metrics(n_slots, 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the interpreter lock over often
        try:
            # 4 jobs: replications and their draw threads outnumber the cores
            for n_jobs in (1, 2, 4):
                got = monte_carlo(sc.config, sched, resolved, "modified",
                                  n_slots, 4, 17, n_jobs=n_jobs)
                _assert_same_metrics(got, want)
        finally:
            sys.setswitchinterval(interval)

    def test_small_blocks_draw_on_the_calling_thread(self, monkeypatch):
        config = make_config(n_su=3, n_pu=4, presence=0.4)
        schedules, resolved = setup(config, 1e-3, 0.7, 0.1, 0.9)
        assert BLOCK_SLOTS * config.n_su < DRAW_AHEAD_CELLS
        before = threading.active_count()
        want, _, rng = simulator_reference.run_replication(
            config, schedules, resolved, "modified", BLOCK_SLOTS + 10, 2)
        got, _, gen = _replicate_recorded(
            monkeypatch, config, schedules, resolved, "modified",
            BLOCK_SLOTS + 10, 2)
        assert set(gen.threads) == {threading.current_thread()}
        _assert_same_metrics(got, want)
        assert gen.gen.bit_generator.state == rng.bit_generator.state
        assert threading.active_count() == before

    def test_one_cpu_draws_on_the_calling_thread(self, monkeypatch):
        config, sched, resolved = self.stops_at_stage_2()
        monkeypatch.setattr(rsop.simulator.os, "sched_getaffinity",
                            lambda pid: {0})
        _, _, gen = _replicate_recorded(monkeypatch, config, sched, resolved,
                                        "modified", BLOCK_SLOTS + 10, 3)
        assert set(gen.threads) == {threading.current_thread()}

    def test_monte_carlo_jobs_make_their_own_draws(self, monkeypatch):
        # with n_jobs > 1 each replication draws on the thread it runs on
        config, sched, resolved = self.stops_at_stage_2()
        made, default_rng = [], np.random.default_rng

        def recording_rng(*args):
            made.append(_RecordingGenerator(default_rng(*args)))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        monte_carlo(config, sched, resolved, "modified", BLOCK_SLOTS + 10, 3,
                    5, n_jobs=2)
        assert len(made) == 3
        for gen in made:
            (thread,) = set(gen.threads)
            assert thread is not threading.main_thread()
            assert not thread.name.startswith("rsop-draws")

    # per block of the schedule: u_pu, then stages 1 and 2 of (u_gate, ch,
    # u_sense); 7 is the u_sense of the stage the loop breaks at, 8 and 9
    # are the second block's, asked for once the first one's call returns
    @pytest.mark.parametrize("fail_at", [1, 2, 3, 5, 7, 8, 9, 14, None])
    def test_no_thread_outlives_a_replication(self, monkeypatch, fail_at):
        config, sched, resolved = self.stops_at_stage_2()
        before = threading.active_count()
        if fail_at is None:
            _, _, gen = _replicate_recorded(monkeypatch, config, sched,
                                            resolved, "modified",
                                            BLOCK_SLOTS + 10, 3)
            assert len(gen.threads) == 14
        else:
            made = []
            with pytest.raises(_DrawFailed) as raised:
                _replicate_recorded(monkeypatch, config, sched, resolved,
                                    "modified", BLOCK_SLOTS + 10, 3, fail_at,
                                    made)
            assert raised.value is made[0].raised
        assert threading.active_count() == before


class TestStatistics:
    def test_matches_exact_pair_collision_value(self):
        # N_s=2, N_p=2, one stage, perfect sensing of free channels:
        # per-SU mean throughput = 0.5 (T - tau)/T
        config = make_config(n_su=2, n_pu=2, presence=0.0)
        schedules, resolved = setup(config, 5.2e-3, 1.0, 0.0, 0.9)
        m = monte_carlo(config, schedules, resolved, "modified", 4000, 10,
                        base_seed=17)
        expect = 0.5 * (T - 5.2e-3) / T
        assert m.throughput == pytest.approx(expect, abs=4 * m.se_network_throughput / 2)

    def test_ci_shrinks_with_replications(self):
        config = make_config(n_su=3, n_pu=3, presence=0.5)
        schedules, resolved = setup(config, 1e-3, 0.8, 0.1, 0.9)
        small = monte_carlo(config, schedules, resolved, "modified", 200, 8,
                            base_seed=3)
        large = monte_carlo(config, schedules, resolved, "modified", 200, 128,
                            base_seed=3)
        ratio = small.ci_network_throughput / large.ci_network_throughput
        assert ratio == pytest.approx(4.0, rel=0.5)  # sqrt(128/8) = 4

    def test_modified_senses_less_on_average(self):
        config = make_config(n_su=4, n_pu=5, presence=0.5)
        schedules, resolved = setup(config, 8e-4, 0.6, 0.1, 0.9)
        mod = run_replication(config, schedules, resolved, "modified", 4000, 21)
        conv = run_replication(config, schedules, resolved, "conventional", 4000, 22)
        assert mod.sensing_overhead < 0.9 * conv.sensing_overhead


class TestSchedules:
    def test_per_su_budgets(self):
        config = make_config(n_su=3, n_pu=10)
        sched = SuSchedules.from_per_su(config, [1e-3, 2e-3, 4e-3], [0.5, 0.5, 0.5])
        assert sched.delta.tolist() == [9, 4, 2]
        assert sched.tau.shape == sched.p.shape == (3, 1)  # not padded

    def test_stage_table_padding(self):
        config = make_config(n_su=2, n_pu=10)
        tau = [[1e-3, 0.5e-3], [2e-3, 1e-3]]
        p = [[0.5, 0.6], [0.5, 0.6]]
        sched = SuSchedules.from_stage_table(config, tau, p)
        assert sched.max_stages == 9
        # stages 3..9 read the last column; no padded copy is stored
        assert sched.n_cols == 2
        assert sched.tau.tolist() == tau and sched.p.tolist() == p

    def test_one_column_equals_the_column_padded_by_hand(self):
        sc = load_scenario(bundled_scenarios()["dense_ns20_np5"])
        config, ns = sc.config, sc.config.n_su
        resolved = resolve_detector(config, sc.detector, sc.qos, sc.params.tau)
        rng = np.random.default_rng(4)
        tau = sc.params.tau * rng.uniform(0.5, 1.5, ns)
        p = rng.uniform(0.2, 1.0, ns)
        one = SuSchedules.from_per_su(config, tau, p)
        stages = one.max_stages
        padded = SuSchedules.from_stage_table(
            config, np.repeat(tau[:, None], stages, axis=1),
            np.repeat(p[:, None], stages, axis=1))
        assert (one.n_cols, padded.n_cols) == (1, stages) and stages > 2
        a = simulate_slots(config, one, resolved, 500, np.random.default_rng(9))
        b = simulate_slots(config, padded, resolved, 500,
                           np.random.default_rng(9))
        assert a.tx_stage.max() > 2
        for field in dataclasses.fields(SlotBatch):
            x, y = getattr(a, field.name), getattr(b, field.name)
            assert np.asarray(x).dtype == np.asarray(y).dtype, field.name
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), field.name

    def test_heterogeneous_taus_align_to_longest(self):
        # one slow sensor stretches everyone's stage; the fast SU still gets
        # credit only for the time actually left
        config = make_config(n_su=2, n_pu=1, presence=0.0)
        sched = SuSchedules.from_per_su(config, [1e-3, 3e-3], [1.0, 0.0])
        resolved = resolve_detector(config, explicit_detector(0.0, 1.0), None, 1e-3)
        batch = simulate_slots(config, sched, resolved, 10,
                               np.random.default_rng(0))
        # SU 0 transmits at stage 1, which lasted max(1e-3, 3e-3) = 3e-3
        assert np.allclose(batch.throughput[:, 0], (T - 3e-3) / T)

    def test_rejects_bad_shapes(self):
        config = make_config(n_su=3, n_pu=2)
        with pytest.raises(ScenarioError):
            SuSchedules.from_per_su(config, [1e-3, 1e-3], [0.5, 0.5])

    @pytest.mark.parametrize("taus, ps", [(2e-3, 0.4), (2e-3, [0.4] * 3),
                                          ([2e-3] * 3, 0.4)])
    def test_a_scalar_is_every_sus_value(self, taus, ps):
        config = make_config(n_su=3, n_pu=5)
        got = SuSchedules.from_per_su(config, taus, ps)
        want = SuSchedules.from_per_su(config, np.full(3, 2e-3), np.full(3, 0.4))
        for field in dataclasses.fields(SuSchedules):
            x, y = getattr(got, field.name), getattr(want, field.name)
            assert x.dtype == y.dtype and x.shape == y.shape, field.name
            assert x.tobytes() == y.tobytes(), field.name

    @pytest.mark.parametrize("taus, ps", [([2e-3] * 2, 0.4), (2e-3, [0.4] * 4),
                                          ([2e-3], [0.4])])
    def test_a_list_of_the_wrong_length_is_rejected(self, taus, ps):
        config = make_config(n_su=3, n_pu=5)
        with pytest.raises(ScenarioError):
            SuSchedules.from_per_su(config, taus, ps)

    @pytest.mark.parametrize("bad", [1.5, -0.1, np.nan, np.inf])
    def test_rejects_p_outside_unit_interval(self, bad):
        # p = 1.5 used to act as p = 1, and NaN as p = 0
        config = make_config(n_su=3, n_pu=4)
        with pytest.raises(ScenarioError):
            SuSchedules.from_per_su(config, [1e-3] * 3, [0.5, bad, 0.5])
        table = np.full((3, 2), 0.5)
        table[2, 1] = bad
        with pytest.raises(ScenarioError):
            SuSchedules.from_stage_table(config, np.full((3, 2), 1e-3), table)

    @pytest.mark.parametrize("bad", [np.nan, 0.0, -1e-3, T + 1e-6])
    def test_rejects_tau_outside_the_slot_in_any_column(self, bad):
        # only column 1 was checked: NaN in column 2 simulated as tau = 1 s
        config = make_config(n_su=3, n_pu=4)
        tau = np.full((3, 2), 1e-3)
        tau[1, 1] = bad
        with pytest.raises(ScenarioError):
            SuSchedules.from_stage_table(config, tau, np.full((3, 2), 0.5))
        with pytest.raises(ScenarioError):
            SuSchedules.from_per_su(config, tau[:, 1], [0.5] * 3)

    def test_errors_name_the_first_bad_entry(self):
        config = make_config(n_su=3, n_pu=4)
        tau = np.full((3, 2), 1e-3)
        tau[1, 1] = tau[2, 0] = 2 * T
        with pytest.raises(ScenarioError) as exc:
            SuSchedules.from_stage_table(config, tau, np.full((3, 2), 0.5))
        assert str(exc.value) == f"tau={2 * T} of SU 1 at stage 2 outside (0, T={T}]"
        p = np.full((3, 2), 0.5)
        p[2, 0] = np.nan
        with pytest.raises(ScenarioError) as exc:
            SuSchedules.from_stage_table(config, np.full((3, 2), 1e-3), p)
        assert str(exc.value) == "p=nan of SU 2 at stage 1 outside [0, 1]"

    def test_accepts_tau_of_a_whole_slot(self):
        config = make_config(n_su=2, n_pu=4)
        sched = SuSchedules.from_stage_table(config, [[1e-3, T], [T, T]],
                                             np.full((2, 2), 0.5))
        assert sched.delta.tolist() == [4, 1]

    def test_accepts_the_ends_of_the_unit_interval(self):
        config = make_config(n_su=2, n_pu=4)
        sched = SuSchedules.from_per_su(config, [1e-3, 1e-3], [0.0, 1.0])
        assert sched.p[:, 0].tolist() == [0.0, 1.0]

    def test_tables_longer_than_the_budget_are_cut(self):
        config = make_config(n_su=2, n_pu=3)
        tau = np.full((2, 6), 1e-3)
        sched = SuSchedules.from_stage_table(config, tau, np.full((2, 6), 0.5))
        assert sched.max_stages == sched.n_cols == 3
        assert sched.tau.shape == sched.p.shape == (2, 3)


class TestSimulateSlotsInput:
    @pytest.mark.parametrize("n_slots", [0, -3])
    def test_rejects_fewer_than_one_slot(self, n_slots):
        # 0 slots used to give a NaN pu_busy_fraction, -3 numpy's ValueError
        config = make_config(n_su=2, n_pu=3)
        schedules, resolved = setup(config, 1e-3, 0.5, 0.1, 0.9)
        with pytest.raises(ScenarioError):
            simulate_slots(config, schedules, resolved, n_slots,
                           np.random.default_rng(0))

    def test_fields_built_on_first_read_are_kept(self):
        config = make_config(n_su=3, n_pu=4, presence=0.3)
        schedules, resolved = setup(config, 1e-3, 0.7, 0.1, 0.9)
        batch = simulate_slots(config, schedules, resolved, 40,
                               np.random.default_rng(2))
        assert batch.delay is batch.delay
        assert batch.success is batch.success
        assert isinstance(batch.pu_busy_fraction, float)

    @pytest.mark.parametrize("name, cut", [
        ("dense_ns20_np5", {"n_su": 5}),
        ("dense_ns20_np5", {"n_pu": 4}),
        ("validation_ns2_np5", {"n_pu": 4}),
    ], ids=["energy-other-n-su", "energy-other-n-pu", "explicit-other-n-pu"])
    def test_detector_of_another_network_is_rejected(self, name, cut):
        # an energy detector's realized-SNR table has a row per count of SUs
        # of the network it was resolved for, and every detector's channel
        # classes a channel index; a cut network must not read them
        sc = load_bundled(name)
        resolved = resolve_detector(sc.config, sc.detector, sc.qos, sc.params.tau)
        n_pu = cut.get("n_pu", sc.config.n_pu)
        config = dataclasses.replace(
            sc.config, **cut, presence_prob=sc.config.presence_prob[:n_pu],
            pu_power=sc.config.pu_power[:n_pu])
        schedules = SuSchedules.from_per_su(config, sc.params.tau, sc.params.p)
        with pytest.raises(ScenarioError, match="detector resolved for"):
            simulate_slots(config, schedules, resolved, 10,
                           np.random.default_rng(0))
        with pytest.raises(ScenarioError, match="detector resolved for"):
            analyze(config, sc.params, resolved)


def simulate_like_reference(config, sched, resolved, n_slots, protocol,
                            where=()) -> SlotBatch:
    """``simulate_slots`` at seed ``n_slots``, checked against the reference
    copy: every field with ==, its dtype and its bytes (which tell 0.0 from
    -0.0 and one NaN from another), and the generator's next draw."""
    rng_a = np.random.default_rng(n_slots)
    rng_b = np.random.default_rng(n_slots)
    got = simulate_slots(config, sched, resolved, n_slots, rng_a,
                         protocol=protocol)
    want = simulator_reference.simulate_slots(config, sched, resolved, n_slots,
                                              rng_b, protocol=protocol)
    for field in dataclasses.fields(SlotBatch):
        a = getattr(got, field.name)
        b = getattr(want, field.name)
        at = (where, n_slots, field.name)
        assert type(a) is type(b), at
        assert np.asarray(a).dtype == np.asarray(b).dtype, at
        assert np.shape(a) == np.shape(b), at
        assert np.array_equal(a, b), at
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), at
    assert rng_a.random() == rng_b.random(), (where, n_slots)
    return got


class TestAgainstReference:
    """The package's simulate_slots against the reference copy: every field
    with ==, its dtype and its bytes (which tell 0.0 from -0.0 and one NaN
    from another), and the generator's next draw."""

    @staticmethod
    def schedule_kinds(sc):
        config, ns = sc.config, sc.config.n_su
        rng = np.random.default_rng(3)
        tau = sc.params.tau * rng.uniform(0.5, 1.5, (ns, 3))
        p = rng.uniform(0.0, 1.0, (ns, 3))
        # stage 2 shared by every SU, stages 1 and 3 not: one call times
        # its stages both from the shared tau and from the searching SUs
        mixed = tau.copy()
        mixed[:, 1] = sc.params.tau
        return {
            "homogeneous": SuSchedules.from_per_su(config, sc.params.tau, sc.params.p),
            "per-su": SuSchedules.from_per_su(config, tau[:, 0], p[:, 0]),
            "per-stage": SuSchedules.from_stage_table(config, tau, p),
            "mixed-tau": SuSchedules.from_stage_table(config, mixed, p),
        }

    @pytest.mark.parametrize("protocol", ["modified", "conventional"])
    @pytest.mark.parametrize("path", ALL_SCENARIOS,
                             ids=lambda path: Path(path).stem)
    def test_batches_equal_the_reference(self, path, protocol):
        sc = load_scenario(path)
        config = sc.config
        resolved = resolve_detector(config, sc.detector, sc.qos, sc.params.tau)
        for kind, sched in self.schedule_kinds(sc).items():
            for n_slots in (1, 50, 3000):
                simulate_like_reference(config, sched, resolved, n_slots,
                                        protocol, kind)

    def test_mixed_tau_kind_times_stages_both_ways(self):
        # the shared-tau stage 2 lies between stages of distinct taus, and
        # one call enters all three
        sc = load_scenario(bundled_scenarios()["dense_ns20_np5"])
        sched = self.schedule_kinds(sc)["mixed-tau"]
        assert (np.ptp(sched.tau[:, :3], axis=0) > 0).tolist() == [True, False, True]
        resolved = resolve_detector(sc.config, sc.detector, sc.qos, sc.params.tau)
        batch = simulate_slots(sc.config, sched, resolved, 50,
                               np.random.default_rng(50))
        assert batch.tx_stage.max() >= 3


def _stage2_tau_landing_on(end, t1, handoff):
    """A stage-2 sensing time whose slot clock after stage 2, summed as the
    simulator sums it, (t1 + handoff) + tau, is exactly ``end``."""
    tau = end - (t1 + handoff)
    for _ in range(8):
        clock = (t1 + handoff) + tau
        if clock == end:
            return tau
        tau = float(np.nextafter(tau, np.inf if clock < end else -np.inf))
    raise AssertionError(f"no tau lands on {end!r}")


class TestSlotTimeBound:
    """Schedules around the per-stage bound on every slot's clock, below
    which no slot runs out of time: the batches equal the reference copy,
    which masks every start with rt > 0."""

    @staticmethod
    def two_stage(end):
        # every SU shares each stage's tau, so a slot still searching at
        # stage 2 ends it at exactly ``end``
        config = make_config(n_su=4, n_pu=2, presence=0.5)
        t1 = 4e-3
        t2 = _stage2_tau_landing_on(end, t1, config.handoff_time)
        sched = SuSchedules.from_stage_table(
            config, np.tile([t1, t2], (4, 1)), np.ones((4, 2)))
        assert sched.delta.tolist() == [2] * 4
        resolved = resolve_detector(config, explicit_detector(0.3, 0.9), None, t1)
        return config, sched, resolved

    @pytest.mark.parametrize("protocol", ["modified", "conventional"])
    def test_bound_exactly_at_the_slot_end(self, protocol):
        # stage 2 leaves rt = 0, so its probes may decide "free" but start
        # nothing
        config, sched, resolved = self.two_stage(T)
        batch = simulate_like_reference(config, sched, resolved, 3000, protocol)
        assert (batch.overhead == 2).any()
        assert not (batch.tx_stage == 2).any()

    @pytest.mark.parametrize("protocol", ["modified", "conventional"])
    def test_bound_one_ulp_below_the_slot_end(self, protocol):
        # one ulp of time left: stage 2 starts transmissions
        config, sched, resolved = self.two_stage(float(np.nextafter(T, 0.0)))
        batch = simulate_like_reference(config, sched, resolved, 3000, protocol)
        assert (batch.tx_stage == 2).any()
        assert (batch.delay[batch.tx_stage == 2] < T).all()

    @pytest.mark.parametrize("protocol", ["modified", "conventional"])
    def test_bound_past_the_slot_end_in_some_slots(self, protocol):
        # SU 1 (3 ms, 3 stages) stretches the stages of the slots where it
        # searches: there SU 0 (1 ms, 9 stages) probes stage 4 after the
        # slot's end, elsewhere it still starts transmissions at stage 4
        config = make_config(n_su=2, n_pu=10, presence=0.6)
        sched = SuSchedules.from_per_su(config, [1e-3, 3e-3], [1.0, 1.0])
        assert sched.delta.tolist() == [9, 3]
        resolved = resolve_detector(config, explicit_detector(0.3, 0.9), None, 1e-3)
        batch = simulate_like_reference(config, sched, resolved, 3000, protocol)
        su1_searched_3 = (batch.tx_stage[:, 1] == 0) | (batch.tx_stage[:, 1] == 3)
        late_probe = (batch.overhead[:, 0] >= 4) & (batch.tx_stage[:, 0] == 0)
        assert (su1_searched_3 & late_probe).any()
        assert ((batch.tx_stage[:, 0] >= 4) & (batch.throughput[:, 0] > 0)).any()

    @pytest.mark.parametrize("protocol", ["modified", "conventional"])
    def test_mixed_tau_stages_with_finished_slots(self, protocol):
        # stage 1 shared, stages 2 and 3 not: those stages last the longest
        # tau of the SUs still searching, and slots where every SU started
        # at stage 1 have none left
        config = make_config(n_su=3, n_pu=5, presence=0.3)
        tau = [[2e-3, 1e-3, 1.5e-3], [2e-3, 2e-3, 1e-3], [2e-3, 5e-4, 1e-3]]
        sched = SuSchedules.from_stage_table(config, tau, np.full((3, 3), 0.8))
        assert (np.ptp(sched.tau[:, :3], axis=0) > 0).tolist() == [False, True, True]
        resolved = resolve_detector(config, explicit_detector(0.1, 0.9), None, 2e-3)
        batch = simulate_like_reference(config, sched, resolved, 3000, protocol)
        finished = (batch.tx_stage == 1).all(axis=1)
        assert finished.any() and (batch.tx_stage >= 2).any()
