from dataclasses import replace

import numpy as np
import pytest

from conftest import default_qos, explicit_detector, make_config, make_scenario
from enumeration import pruned_no_tx_prob, pruned_walk, success_prob
from rsop import chain, optimizer
from rsop.chain import (
    StageProfiles,
    _clamp01,
    _no_tx_matrix,
    analyze,
    analyze_scenario,
    occupancy_evolution,
    resolve_detector,
    stage_profiles,
    state_distribution,
)
from rsop.config import (
    DetectorSpec,
    SensingParams,
    bundled_scenario_path,
    bundled_scenarios,
    load_scenario,
)
from rsop.core import upper_bound_throughput
from rsop.errors import RsopError
from rsop.optimizer import GridSpec, brute_force_optimize, evaluate_point

T = 10e-3


def tables(config, tau, p, p_fa, p_d, n_stages):
    params = SensingParams(tau=tau, p=p)
    resolved = resolve_detector(config, explicit_detector(p_fa, p_d), None, tau)
    profiles = stage_profiles(config, params, resolved, n_stages)
    occupancy = occupancy_evolution(config, params, profiles)
    return params, profiles, occupancy


class TestOccupancy:
    def test_idle_network_never_fills(self):
        config = make_config(n_su=4, n_pu=3, presence=[0.2, 0.5, 0.8])
        _, _, occ = tables(config, 1e-3, 0.0, 0.1, 0.9, 5)
        assert np.allclose(occ.occ, config.presence_prob[:, None])
        assert np.allclose(occ.l, 0.0)

    def test_certain_false_alarm_freezes_occupancy(self):
        config = make_config(n_su=5, n_pu=2, presence=0.4)
        _, _, occ = tables(config, 1e-3, 0.9, 1.0, 0.9, 4)
        assert np.allclose(occ.occ, 0.4)

    def test_two_su_single_channel_hand_value(self):
        # p=1, Pfa=0.5, free channel: L1=2, U1=0.75, occ2=0.75
        config = make_config(n_su=2, n_pu=1, presence=0.0)
        _, _, occ = tables(config, 4e-3, 1.0, 0.5, 0.9, 2)
        assert occ.l[0] == pytest.approx(2.0)
        assert occ.u[0, 0] == pytest.approx(0.75)
        assert occ.occ[0, 1] == pytest.approx(0.75)

    def test_monotone_in_stage(self):
        config = make_config(n_su=6, n_pu=4, presence=[0.1, 0.4, 0.6, 0.9])
        _, _, occ = tables(config, 5e-4, 0.7, 0.15, 0.85, 5)
        assert np.all(np.diff(occ.occ, axis=1) >= -1e-12)
        assert np.all(occ.occ >= 0) and np.all(occ.occ <= 1)
        assert np.all(occ.n_ho >= 0) and np.all(occ.n_ho <= 6)
        assert occ.n_ho[0] == 6

    def test_closed_form_identity(self):
        # occ^(n) = 1 - P0 * Pfa^(L1+...+L(n-1)) when detection is imperfect
        config = make_config(n_su=3, n_pu=2, presence=0.3)
        _, _, occ = tables(config, 1e-3, 0.8, 0.2, 0.9, 5)
        cum = np.concatenate([[0.0], np.cumsum(occ.l)])
        for n in range(5):
            expect = 1.0 - 0.7 * 0.2 ** cum[n]
            assert occ.occ[0, n] == pytest.approx(expect, abs=1e-12)


class TestStateDistribution:
    def test_idle_all_terminate(self):
        config = make_config(n_su=3, n_pu=2)
        params, prof, occ = tables(config, 1e-3, 0.0, 0.1, 0.9, 3)
        dist = state_distribution(config, params, prof, occ)
        assert dist.pi_te == pytest.approx(1.0)
        assert np.allclose(dist.pi_t, 0) and np.allclose(dist.pi_i, 0)

    def test_single_free_channel_perfect_sensing(self):
        config = make_config(n_su=1, n_pu=1, presence=0.0)
        for p in (0.3, 0.7, 1.0):
            params, prof, occ = tables(config, 5.2e-3, p, 0.0, 0.9, 1)
            dist = state_distribution(config, params, prof, occ)
            assert dist.pi_t[0] == pytest.approx(p)

    def test_two_channel_stage1_hand_value(self):
        config = make_config(n_su=2, n_pu=2, presence=0.5)
        params, prof, occ = tables(config, 3e-3, 1.0, 0.1, 0.9, 2)
        dist = state_distribution(config, params, prof, occ)
        assert dist.pi_t[0] == pytest.approx(0.45)
        assert dist.pi_ho[0] == 1.0

    def test_disposition_completeness(self):
        config = make_config(n_su=4, n_pu=3, presence=[0.2, 0.5, 0.9])
        params, prof, occ = tables(config, 8e-4, 0.65, 0.2, 0.8, 6)
        dist = state_distribution(config, params, prof, occ)
        assert dist.disposition_total() == pytest.approx(1.0, abs=1e-9)
        # pruned chains conserve mass only together with the blocked share
        for m in range(3):
            for n in range(1, 7):
                kept, blocked = pruned_walk(config, params, prof, occ, m, n)
                assert kept + blocked == pytest.approx(1.0, abs=1e-9)
                assert blocked > 0


    def test_entry_tables_carry_the_stage_totals(self):
        config = make_config(n_su=4, n_pu=3, presence=[0.2, 0.5, 0.9])
        params, prof, occ = tables(config, 8e-4, 0.65, 0.2, (0.8, 0.9, 0.95), 6)
        dist = state_distribution(config, params, prof, occ)
        assert np.array_equal(dist.pi_t, dist.p_t.sum(axis=0))
        assert np.array_equal(dist.pi_i, dist.p_i.sum(axis=0))
        # T and I entries are exactly the probes that do not hand off
        exits = dist.pi_channel * (1.0 - occ.q)
        assert np.max(np.abs(dist.p_t + dist.p_i - exits)) <= 1e-15


class TestInvariants:
    def test_clamp_tolerates_rounding_and_rejects_drift(self):
        assert _clamp01(np.array([-1e-12, 0.5, 1.0 + 1e-12]), "x").tolist() == \
            [0.0, 0.5, 1.0]
        for bad in (1.0 + 2e-9, -2e-9):
            with pytest.raises(RsopError, match="x left"):
                _clamp01(np.array([0.5, bad]), "x")

    def test_clamp_rejects_nan(self):
        for values in ([np.nan, 0.5], [0.5, np.nan], [np.nan]):
            with pytest.raises(RsopError, match="x left"):
                _clamp01(np.array(values), "x")

    def test_disposition_leak_raises(self, monkeypatch):
        def leaky(*args):
            dist = state_distribution(*args)
            dist.pi_te += 1e-6
            return dist

        monkeypatch.setattr(chain, "state_distribution", leaky)
        config = make_config(n_su=3, n_pu=2)
        resolved = resolve_detector(config, explicit_detector(0.1, 0.9), None, 1e-3)
        with pytest.raises(RsopError, match="disposition"):
            analyze(config, SensingParams(1e-3, 0.5), resolved)

    def test_walk_checks_every_point_of_the_finished_table(self):
        # P_fa > 1 drives occupancy below 0 from stage 2 on, but only where
        # SUs sense: the p = 0 point keeps occupancy 0, the p = 0.5 one drifts
        config = make_config(n_su=4, n_pu=2, presence=0.0)
        profiles = StageProfiles(p_fa=np.full(2, 1.5), p_d=np.full((2, 2, 4), 0.9),
                                 gamma=np.zeros((2, 2, 4)), n_stages=4)
        with pytest.raises(RsopError, match=r"occupancy left \[0,1\]"):
            occupancy_evolution(config, SensingParams(1e-3, np.array([0.0, 0.5])),
                                profiles)


class TestPrunedNoTx:
    def test_idle_walker_never_transmits(self):
        config = make_config(n_su=2, n_pu=2)
        params, prof, occ = tables(config, 1e-3, 0.0, 0.1, 0.9, 3)
        assert pruned_no_tx_prob(config, params, prof, occ, 0, 1) == pytest.approx(1.0)

    def test_two_channel_hand_enumeration(self):
        # p=1, Pfa=0, free channels: the walker avoids channel 1 from stage 1
        # iff it picks channel 2 first and transmits there
        config = make_config(n_su=2, n_pu=2, presence=0.0)
        params, prof, occ = tables(config, 3e-3, 1.0, 0.0, 0.9, 2)
        assert pruned_no_tx_prob(config, params, prof, occ, 0, 1) == pytest.approx(0.5)

    def test_always_transmitting_walker(self):
        # single channel, p=1, perfect sensing of a free channel: the walker
        # transmits at stage 1 with certainty, so it never avoids the channel
        config = make_config(n_su=2, n_pu=1, presence=0.0)
        params, prof, occ = tables(config, 4e-3, 1.0, 0.0, 0.9, 2)
        assert pruned_no_tx_prob(config, params, prof, occ, 0, 1) == pytest.approx(0.0)

    def test_matches_fast_path(self):
        config = make_config(n_su=5, n_pu=4, presence=[0.1, 0.45, 0.7, 0.95])
        params, prof, occ = tables(config, 6e-4, 0.55, 0.25, 0.85, 7)
        dist = state_distribution(config, params, prof, occ)
        fast = _no_tx_matrix(dist)
        for m in range(4):
            for n in range(1, 8):
                assert fast[m, n - 1] == pytest.approx(
                    pruned_no_tx_prob(config, params, prof, occ, m, n), abs=1e-12)


class TestSuccessAndMetrics:
    def test_lone_su_has_no_competition(self):
        config = make_config(n_su=1, n_pu=2, presence=0.5)
        params, prof, occ = tables(config, 3e-3, 0.8, 0.1, 0.9, 2)
        dist = state_distribution(config, params, prof, occ)
        p_t = dist.pi_channel[0, 0] * 0.5 * 0.9
        assert success_prob(config, prof, occ, dist, 0, 1, no_tx=0.123) == \
            pytest.approx(p_t)

    def test_blocked_competitors_kill_success(self):
        config = make_config(n_su=3, n_pu=2, presence=0.5)
        params, prof, occ = tables(config, 3e-3, 0.8, 0.1, 0.9, 2)
        dist = state_distribution(config, params, prof, occ)
        assert success_prob(config, prof, occ, dist, 0, 1, no_tx=0.0) == 0.0

    def test_pair_collision_hand_case(self):
        # two SUs, two free channels, one stage, perfect sensing: success iff
        # the rival picked the other channel
        config = make_config(n_su=2, n_pu=2, presence=0.0)
        params, prof, occ = tables(config, 5.2e-3, 1.0, 0.0, 0.9, 1)
        dist = state_distribution(config, params, prof, occ)
        y = pruned_no_tx_prob(config, params, prof, occ, 0, 1)
        q = success_prob(config, prof, occ, dist, 0, 1, y)
        assert y == pytest.approx(0.5)
        assert q == pytest.approx(0.25)
        res = analyze(config, params,
                      resolve_detector(config, explicit_detector(0.0, 0.9), None, 5.2e-3))
        assert res.throughput == pytest.approx(0.5 * (T - 5.2e-3) / T)

    def test_idle_network_zero_throughput(self):
        config = make_config(n_su=3, n_pu=3)
        res = analyze(config, SensingParams(1e-3, 0.0),
                      resolve_detector(config, explicit_detector(0.1, 0.9), None, 1e-3))
        assert res.throughput == 0.0
        assert res.interference == 0.0

    def test_lone_su_free_channel_full_credit(self):
        config = make_config(n_su=1, n_pu=1, presence=0.0)
        res = analyze(config, SensingParams(2e-3, 1.0),
                      resolve_detector(config, explicit_detector(0.0, 0.9), None, 2e-3))
        assert res.throughput == pytest.approx((T - 2e-3) / T)

    def test_perfect_detection_no_interference(self):
        config = make_config(n_su=4, n_pu=3, presence=0.6)
        res = analyze(config, SensingParams(1e-3, 0.9),
                      resolve_detector(config, explicit_detector(0.1, 1.0), None, 1e-3))
        assert res.interference == 0.0

    def test_lone_su_busy_channel_hand_interference(self):
        # always-busy single channel, misdetection 0.1: t_I = 0.1 (T - tau)/T
        config = make_config(n_su=1, n_pu=1, presence=1.0)
        res = analyze(config, SensingParams(5.2e-3, 1.0),
                      resolve_detector(config, explicit_detector(0.1, 0.9), None, 5.2e-3))
        assert res.interference == pytest.approx(0.1 * (T - 5.2e-3) / T)

    def test_throughput_bounds(self):
        config = make_config(n_su=6, n_pu=4, presence=0.5)
        resolved = resolve_detector(config, explicit_detector(0.1, 0.9), None, 1e-3)
        bound = upper_bound_throughput(6, config.presence_prob)
        for tau in (5e-4, 1.5e-3, 4e-3):
            for p in (0.2, 0.6, 1.0):
                res = analyze(config, SensingParams(tau, p), resolved)
                assert 0.0 <= res.throughput <= (T - tau) / T + 1e-12
                assert res.network_throughput <= bound + 1e-9
                assert 0.0 <= res.interference <= 1.0

    def test_deterministic(self):
        scenario_args = dict(n_su=5, n_pu=3, presence=[0.3, 0.5, 0.7])
        config = make_config(**scenario_args)
        resolved = resolve_detector(config, explicit_detector(0.2, 0.85), None, 1e-3)
        a = analyze(config, SensingParams(7e-4, 0.6), resolved)
        b = analyze(make_config(**scenario_args), SensingParams(7e-4, 0.6), resolved)
        assert a.throughput == b.throughput
        assert a.interference == b.interference
        assert np.array_equal(a.no_tx, b.no_tx)


class TestEnergyProfiles:
    def test_false_alarm_stage_constant_and_calibration(self):
        config = make_config(n_su=20, n_pu=10, presence=0.5, pu_power=0.1,
                             su_power=0.1)
        det = DetectorSpec(mode="energy", calibration="pd_min", calibrate_tau=1e-3)
        resolved = resolve_detector(config, det, default_qos(), 1e-3)
        prof = stage_profiles(config, SensingParams(1e-3, 0.8), resolved, 5)
        # detection pinned at the floor at stage 1, identical false alarm at
        # every stage by construction (it never enters the stage axis)
        assert np.allclose(prof.p_d[:, 0], 0.9, atol=1e-12)
        assert prof.p_fa.shape == (10,)
        # stage-2 detection beats stage 1 in a dense network and stages >= 3
        # reuse it
        assert np.all(prof.p_d[:, 1] > prof.p_d[:, 0])
        assert np.allclose(prof.p_d[:, 2:], prof.p_d[:, 1:2])

    def test_per_stage_mode_keeps_accumulating(self):
        config = make_config(n_su=20, n_pu=10, presence=0.5, pu_power=0.1,
                             su_power=0.1)
        det = DetectorSpec(mode="energy", calibration="pd_min",
                           calibrate_tau=1e-3, per_stage_snr=True)
        resolved = resolve_detector(config, det, default_qos(), 1e-3)
        prof = stage_profiles(config, SensingParams(1e-3, 0.8), resolved, 5)
        assert np.all(np.diff(prof.gamma[0, 1:]) > 0)
        assert np.all(np.diff(prof.p_d[0]) >= -1e-12)

    def test_per_stage_snr_counts_earlier_transmitters(self):
        config = make_config(n_su=20, n_pu=10, presence=[0.2, 0.5] * 5,
                             pu_power=0.1, su_power=0.1)
        det = DetectorSpec(mode="energy", calibration="pd_min",
                           calibrate_tau=1e-3, per_stage_snr=True)
        resolved = resolve_detector(config, det, default_qos(), 1e-3)
        params = SensingParams(1e-3, 0.8)
        prof = stage_profiles(config, params, resolved, 6)
        occ = occupancy_evolution(config, params, prof)
        senders = np.concatenate(
            [np.zeros((10, 1)), np.cumsum(occ.l * (1.0 - occ.q), axis=1)[:, :-1]],
            axis=1)
        expect = ((config.presence_prob * config.pu_power)[:, None]
                  + senders * config.su_power) / config.noise_power
        assert np.allclose(prof.gamma[:, 0], config.snr_stage1, rtol=0, atol=0)
        assert np.allclose(prof.gamma[:, 1:], expect[:, 1:], rtol=1e-12, atol=0)

    def test_scenario_entry_point(self):
        config = make_config(n_su=3, n_pu=7, presence=0.5, pu_power=0.1,
                             su_power=0.4)
        sc = make_scenario(config, 1.052e-4,
                           0.8, DetectorSpec(mode="energy", calibration="pd_min"))
        res = analyze_scenario(sc)
        assert res.n_stages == 7
        assert 0 < res.throughput < 1
        override = analyze_scenario(sc, p=0.0)
        assert override.throughput == 0.0


class TestBatchedRow:
    """One call over the points (tau, p_i) of a row matches the points
    evaluated one at a time."""

    @staticmethod
    def assert_row_matches(config, tau, ps, resolved):
        row = analyze(config, SensingParams(tau, ps), resolved)
        for k, p in enumerate(ps):
            one = analyze(config, SensingParams(tau, float(p)), resolved)
            for name in ("throughput", "interference", "p_md_max"):
                assert abs(getattr(row, name)[k] - getattr(one, name)) <= 1e-12, name
            for name in ("no_tx", "success", "no_interf"):
                diff = getattr(row, name)[k] - getattr(one, name)
                assert np.max(np.abs(diff)) <= 1e-12, name
        return row

    @pytest.mark.parametrize("name", sorted(bundled_scenarios()))
    def test_every_bundled_scenario_on_its_default_grid(self, name):
        sc = load_scenario(bundled_scenario_path(name))
        resolved = resolve_detector(sc.config, sc.detector, sc.qos, sc.params.tau)
        grid = GridSpec.default_for(sc.config, sc.qos, tau_steps=16, p_steps=16)
        for tau in grid.tau_values():
            self.assert_row_matches(sc.config, tau, grid.p_values(), resolved)

    def test_p_zero_in_a_row(self):
        config = make_config(n_su=5, n_pu=3, presence=[0.3, 0.5, 0.7])
        resolved = resolve_detector(config, explicit_detector(0.2, 0.85), None, 1e-3)
        row = self.assert_row_matches(config, 7e-4, np.array([0.0, 0.4, 1.0]),
                                      resolved)
        assert row.throughput[0] == 0.0 and row.interference[0] == 0.0

    def test_per_stage_snr(self):
        sc = load_scenario(bundled_scenario_path("dense_ns20_np5"))
        detector = replace(sc.detector, per_stage_snr=True)
        resolved = resolve_detector(sc.config, detector, sc.qos, sc.params.tau)
        assert resolved.per_stage_snr and resolved.mode == "energy"
        row = self.assert_row_matches(sc.config, sc.params.tau,
                                      np.linspace(0.0, 1.0, 7), resolved)
        assert row.n_stages > 2

    def test_row_split_across_chunks(self, monkeypatch):
        config = make_config(n_su=4, n_pu=3, presence=0.5)
        resolved = resolve_detector(config, explicit_detector(0.1, 0.9), None, 1e-3)
        grid = GridSpec(tau_lo=5e-4, tau_hi=4e-3, tau_steps=3, p_lo=0.0,
                        p_hi=1.0, p_steps=7)
        # 3 channels x 2 or 3 stages: chunks of 2 or 4 points, never a whole row
        monkeypatch.setattr(optimizer, "_CHUNK_CELLS", 24)
        res = brute_force_optimize(config, grid, default_qos(), resolved=resolved)
        assert len(res.table) == 21
        for pt in res.table:
            one = evaluate_point(config, pt.tau, pt.p, default_qos(), resolved)
            assert (pt.tau, pt.p, pt.feasible) == (one.tau, one.p, one.feasible)
            assert abs(pt.r - one.r) <= 1e-12
            assert abs(pt.t_i - one.t_i) <= 1e-12
