import numpy as np
import pytest

from conftest import explicit_detector, make_config
from rsop.chain import resolve_detector
from rsop.config import SensingParams
from rsop.errors import ScenarioError
from rsop.simulator import (
    SuSchedules,
    monte_carlo,
    run_replication,
    simulate_slots,
)

T = 10e-3


def setup(config, tau, p, p_fa, p_d):
    resolved = resolve_detector(config, explicit_detector(p_fa, p_d), None, tau)
    schedules = SuSchedules.homogeneous(config, SensingParams(tau=tau, p=p))
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
        assert np.array_equal(a.per_su_throughput, b.per_su_throughput)

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
                      "su_caused_interference", "sensing_overhead", "handoffs",
                      "delay", "success_rate", "collision_rate",
                      "interference_entry_rate"):
            assert getattr(mc, field) == pytest.approx(
                np.mean([getattr(r, field) for r in reps]), rel=1e-12, abs=0.0)
        assert np.allclose(mc.per_su_throughput,
                           np.mean([r.per_su_throughput for r in reps], axis=0),
                           rtol=1e-12, atol=0.0)
        for se_field, field in (("se_network_throughput", "network_throughput"),
                                ("se_interference", "interference")):
            samples = np.array([getattr(r, field) for r in reps])
            se = samples.std(ddof=1) / np.sqrt(3)
            assert getattr(mc, se_field) == pytest.approx(se, rel=1e-12)
            ci_field = "ci_" + se_field[3:]
            assert getattr(mc, ci_field) == pytest.approx(1.96 * se, rel=1e-12)


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

    def test_onoff_pu_model_keeps_stationary_presence(self):
        config = make_config(n_su=1, n_pu=3, presence=[0.2, 0.5, 0.8])
        schedules, resolved = setup(config, 1e-3, 0.5, 0.1, 0.9)
        rng = np.random.default_rng(6)
        batch = simulate_slots(config, schedules, resolved, 20000, rng,
                               pu_model="onoff", pu_hold_slots=8)
        assert batch.pu_busy_fraction == pytest.approx(0.5, abs=0.02)


class TestSchedules:
    def test_per_su_budgets(self):
        config = make_config(n_su=3, n_pu=10)
        sched = SuSchedules.from_per_su(config, [1e-3, 2e-3, 4e-3], [0.5, 0.5, 0.5])
        assert sched.delta.tolist() == [9, 4, 2]
        assert sched.tau.shape == (3, 9)

    def test_stage_table_padding(self):
        config = make_config(n_su=2, n_pu=10)
        tau = [[1e-3, 0.5e-3], [2e-3, 1e-3]]
        p = [[0.5, 0.6], [0.5, 0.6]]
        sched = SuSchedules.from_stage_table(config, tau, p)
        assert sched.max_stages == 9
        assert sched.tau[0, -1] == 0.5e-3  # edge padded

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
