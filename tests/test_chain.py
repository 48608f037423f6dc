from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import default_qos, explicit_detector, make_config, make_scenario
from enumeration import pruned_no_tx_prob, pruned_walk, success_prob
from rsop import chain, optimizer
from rsop.chain import (
    ChannelClasses,
    StageProfiles,
    _clamp01,
    _no_tx_matrix,
    analyze,
    analyze_scenario,
    occupancy_evolution,
    resolve_detector,
    stage_profiles,
    state_distribution,
    worst_misdetection,
)
from rsop.config import (
    DetectorSpec,
    SensingParams,
    bundled_scenario_path,
    bundled_scenarios,
    load_scenario,
)
from rsop.core import max_sensing_stages, upper_bound_throughput
from rsop.detector import detection_prob, received_snr
from rsop.errors import RsopError, ScenarioError
from rsop.optimizer import (
    GridSpec,
    brute_force_optimize,
    evaluate_point,
    optimize_scenario,
)

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
        dist = state_distribution(config, params, prof, occ, prof.n_stages)
        assert dist.pi_te == pytest.approx(1.0)
        assert np.allclose(dist.pi_t, 0) and np.allclose(dist.pi_i, 0)

    def test_single_free_channel_perfect_sensing(self):
        config = make_config(n_su=1, n_pu=1, presence=0.0)
        for p in (0.3, 0.7, 1.0):
            params, prof, occ = tables(config, 5.2e-3, p, 0.0, 0.9, 1)
            dist = state_distribution(config, params, prof, occ, prof.n_stages)
            assert dist.pi_t[0] == pytest.approx(p)

    def test_two_channel_stage1_hand_value(self):
        config = make_config(n_su=2, n_pu=2, presence=0.5)
        params, prof, occ = tables(config, 3e-3, 1.0, 0.1, 0.9, 2)
        dist = state_distribution(config, params, prof, occ, prof.n_stages)
        assert dist.pi_t[0] == pytest.approx(0.45)
        assert dist.pi_ho[0] == 1.0

    def test_disposition_completeness(self):
        config = make_config(n_su=4, n_pu=3, presence=[0.2, 0.5, 0.9])
        params, prof, occ = tables(config, 8e-4, 0.65, 0.2, 0.8, 6)
        dist = state_distribution(config, params, prof, occ, prof.n_stages)
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
        dist = state_distribution(config, params, prof, occ, prof.n_stages)
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
        classes = ChannelClasses.of_channels(config)  # both channels in one class
        profiles = StageProfiles(class_p_fa=np.full(1, 1.5),
                                 class_p_d=np.full((2, 1, 4), 0.9),
                                 n_stages=4, classes=classes)
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
        dist = state_distribution(config, params, prof, occ, prof.n_stages)
        fast = dist.classes.expand(_no_tx_matrix(dist))
        for m in range(4):
            for n in range(1, 8):
                assert fast[m, n - 1] == pytest.approx(
                    pruned_no_tx_prob(config, params, prof, occ, m, n), abs=1e-12)


class TestSuccessAndMetrics:
    def test_lone_su_has_no_competition(self):
        config = make_config(n_su=1, n_pu=2, presence=0.5)
        params, prof, occ = tables(config, 3e-3, 0.8, 0.1, 0.9, 2)
        dist = state_distribution(config, params, prof, occ, prof.n_stages)
        p_t = dist.pi_channel[0, 0] * 0.5 * 0.9
        assert success_prob(config, prof, occ, dist, 0, 1, no_tx=0.123) == \
            pytest.approx(p_t)

    def test_blocked_competitors_kill_success(self):
        config = make_config(n_su=3, n_pu=2, presence=0.5)
        params, prof, occ = tables(config, 3e-3, 0.8, 0.1, 0.9, 2)
        dist = state_distribution(config, params, prof, occ, prof.n_stages)
        assert success_prob(config, prof, occ, dist, 0, 1, no_tx=0.0) == 0.0

    def test_pair_collision_hand_case(self):
        # two SUs, two free channels, one stage, perfect sensing: success iff
        # the rival picked the other channel
        config = make_config(n_su=2, n_pu=2, presence=0.0)
        params, prof, occ = tables(config, 5.2e-3, 1.0, 0.0, 0.9, 1)
        dist = state_distribution(config, params, prof, occ, prof.n_stages)
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

    def test_stage2_snr_at_mean_field_senders(self):
        # P_d at gamma2 = received_snr(P_m1, (N_s p / N_p)(1 - q_m1)), then
        # saturates; p = 0 in the row leaves the PU alone at its presence
        # probability
        config = make_config(n_su=20, n_pu=3, presence=[0.2, 0.5, 0.8],
                             pu_power=[0.1, 0.2, 0.3], su_power=0.4)
        det = DetectorSpec(mode="energy", calibration="pd_min", calibrate_tau=1e-3)
        resolved = resolve_detector(config, det, default_qos(), 1e-3)
        presence = config.presence_prob

        def p_d_at(snr):
            return detection_prob(resolved.lambda_norm, 1e-3,
                                  config.sampling_freq, snr)

        for p in (0.8, np.array([0.0, 0.3, 0.8])):
            prof = stage_profiles(config, SensingParams(1e-3, p), resolved, 4)
            q1 = (1.0 - presence) * prof.p_fa + presence * prof.p_d[..., 0]
            senders = (config.n_su * np.asarray(p)[..., None] / config.n_pu) * (1.0 - q1)
            assert np.array_equal(prof.p_d[..., 1],
                                  p_d_at(received_snr(config, presence, senders)))
            assert np.array_equal(prof.p_d[..., 2:],
                                  np.repeat(prof.p_d[..., 1:2], 2, axis=-1))
        assert np.array_equal(prof.p_d[0, :, 1], p_d_at(
            presence * config.pu_power / config.noise_power))

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


MIXED = Path(__file__).with_name("scenarios") / "mixed_ns8_np6.yaml"


# lumped against unlumped results, past the first channel sum: about 450
# float64 eps, fixed from eps (the largest difference seen is a few eps)
LUMPED_RTOL = 1e-13


def singleton_classes(n_pu):
    """Every channel its own class, in channel order: the unlumped chain."""
    return ChannelClasses(rep=np.arange(n_pu), of=np.arange(n_pu),
                          size=np.ones(n_pu))


class TestChannelClasses:
    """Channels of equal (P_m1, sigma_p^2, lambda_m) are evaluated once.  The
    lumped chain's detector tables equal the unlumped ones exactly; what
    follows a channel sum, where each class enters once weighted by its
    size, agrees to ``LUMPED_RTOL``."""

    EXACT = ("p_fa", "p_d")
    PER_CHANNEL = {"profiles": EXACT,
                   "occupancy": ("occ", "q", "l", "n_ho"),
                   "dist": ("pi_ho", "pi_channel", "p_t", "p_i"),
                   "": ("no_tx", "success", "no_interf", "throughput",
                        "interference", "p_md_max")}

    def test_mixed_channels_form_four_classes(self):
        sc = load_scenario(MIXED)
        classes = resolve_detector(sc.config, sc.detector, sc.qos,
                                   sc.params.tau).classes
        assert classes.rep.size == 4 and classes.size.sum() == 6
        key = np.stack([sc.config.presence_prob, sc.config.pu_power], axis=1)
        for m in range(6):
            same = [n for n in range(6) if (key[n] == key[m]).all()]
            assert np.flatnonzero(classes.of == classes.of[m]).tolist() == same
            assert (key[classes.rep[classes.of[m]]] == key[m]).all()
        # an explicit detector groups by presence and power alone
        explicit = resolve_detector(make_config(n_pu=4, presence=[0.1, 0.3, 0.1, 0.1]),
                                    explicit_detector(0.1, 0.9), None, 1e-3)
        assert explicit.classes.of.tolist() == [0, 1, 0, 0]
        assert explicit.classes.size.tolist() == [3.0, 1.0]

    @pytest.mark.parametrize("path", [
        MIXED, bundled_scenario_path("validation_ns5_np10"),
        bundled_scenario_path("dense_ns20_np5"),
        bundled_scenario_path("false_alarm_np5"),
    ], ids=["mixed", "validation_ns5_np10", "dense_ns20_np5", "false_alarm_np5"])
    def test_lumped_equals_unlumped(self, path):
        sc = load_scenario(path)
        lumped = resolve_detector(sc.config, sc.detector, sc.qos, sc.params.tau)
        unlumped = replace(lumped, classes=singleton_classes(sc.config.n_pu))
        grid = GridSpec.default_for(sc.config, sc.qos, tau_steps=5, p_steps=9)
        for tau in grid.tau_values():
            for p in (grid.p_values(), 0.55):
                a = analyze(sc.config, SensingParams(tau, p), lumped)
                b = analyze(sc.config, SensingParams(tau, p), unlumped)
                for part, names in self.PER_CHANNEL.items():
                    for name in names:
                        x, y = (getattr(getattr(r, part) if part else r, name)
                                for r in (a, b))
                        assert np.shape(x) == np.shape(y), name
                        if name in self.EXACT:
                            assert np.array_equal(x, y), name
                        else:
                            np.testing.assert_allclose(
                                x, y, rtol=LUMPED_RTOL, atol=0, err_msg=name)

    @pytest.mark.parametrize("path", [
        bundled_scenario_path("validation_ns5_np100"), MIXED,
    ], ids=["validation_ns5_np100", "mixed"])
    def test_metrics_sum_classes_by_weight(self, path, monkeypatch):
        sc = load_scenario(path)
        resolved = resolve_detector(sc.config, sc.detector, sc.qos, sc.params.tau)
        # the first tau of the default grid has the largest stage budget
        tau = GridSpec.default_for(sc.config, sc.qos).tau_lo
        params = SensingParams(tau, np.linspace(0.0, 1.0, 5))
        calls = []
        expand = ChannelClasses.expand
        monkeypatch.setattr(ChannelClasses, "expand",
                            lambda self, *a: calls.append(1) or expand(self, *a))
        lumped = analyze(sc.config, params, resolved)
        assert lumped.n_stages > 2 and calls == []
        assert lumped.success.shape[-2] == sc.config.n_pu and len(calls) == 1
        unlumped = analyze(sc.config, params, replace(
            resolved, classes=singleton_classes(sc.config.n_pu)))
        for name in ("throughput", "interference"):
            np.testing.assert_allclose(getattr(lumped, name),
                                       getattr(unlumped, name),
                                       rtol=LUMPED_RTOL, atol=0, err_msg=name)

    @pytest.mark.parametrize("owner, name, axis", [
        ("profiles", "p_fa", -1), ("profiles", "p_d", -2),
        ("occupancy", "occ", -2), ("occupancy", "q", -2),
        ("dist", "pi_channel", -2), ("dist", "p_t", -2), ("dist", "p_i", -2),
        (None, "no_tx", -2), (None, "success", -2), (None, "no_interf", -2),
    ])
    def test_per_channel_views_are_built_once(self, owner, name, axis):
        # two classes of unequal presence, PU power and threshold: every view
        # must expand its own class table along its own axis
        config = make_config(n_su=3, n_pu=4, presence=[0.2, 0.5, 0.2, 0.5],
                             pu_power=[0.1, 0.3, 0.1, 0.3])
        detector = DetectorSpec(mode="energy", calibration="pd_min",
                                calibrate_tau=1e-3)
        resolved = resolve_detector(config, detector, default_qos(), 1e-3)
        res = analyze(config, SensingParams(1e-3, 0.6), resolved)
        obj = res if owner is None else getattr(res, owner)
        table = getattr(obj, "class_" + name)
        assert table.shape[axis] == 2
        view = getattr(obj, name)
        assert view.shape[axis] == 4
        assert np.array_equal(view, res.classes.expand(table, axis))
        assert getattr(obj, name) is view

    def test_worst_misdetection_ignores_stages_past_delta(self):
        p_md = np.zeros((2, 3, 4))
        p_md[0, 1, 2] = 0.9   # the first stage past point 0's delta of 2
        p_md[0, 2, 1] = 0.4
        p_md[1, 0, 3] = 0.7   # within point 1's delta of 4
        got = worst_misdetection(p_md, np.array([2, 4]))
        assert got.tolist() == [0.4, 0.7]
        assert worst_misdetection(p_md[0], 2) == 0.4

    @pytest.mark.parametrize("shape", [(3, 5), (6, 3, 5), (2, 4, 3, 9)])
    def test_worst_misdetection_matches_the_masked_product(self, shape):
        # the earlier form: stages past delta multiplied to +0.0, then the
        # max over (class, stage)
        rng = np.random.default_rng(len(shape))
        p_md = rng.random(shape)
        deltas = rng.integers(1, shape[-1] + 1, size=shape[:-2])
        masked = p_md * (np.arange(shape[-1]) < deltas[..., None, None])
        want = masked.reshape(shape[:-2] + (-1,)).max(axis=-1)
        assert worst_misdetection(p_md, deltas).tobytes() == want.tobytes()
        # the adaptive check's layout: a transposed (stage-first) view
        staged = np.ascontiguousarray(np.moveaxis(p_md, -1, 0))
        view = np.moveaxis(staged, 0, -1)
        assert worst_misdetection(view, deltas).tobytes() == want.tobytes()

    def test_detector_of_another_network_is_rejected(self):
        resolved = resolve_detector(make_config(n_pu=3), explicit_detector(0.1, 0.9),
                                    None, 1e-3)
        with pytest.raises(ScenarioError, match="resolved for 3 channels"):
            analyze(make_config(n_pu=4), SensingParams(1e-3, 0.5), resolved)


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

    def test_row_split_across_chunks(self, monkeypatch):
        config = make_config(n_su=4, n_pu=3, presence=0.5)
        resolved = resolve_detector(config, explicit_detector(0.1, 0.9), None, 1e-3)
        grid = GridSpec(tau_lo=5e-4, tau_hi=4e-3, tau_steps=3, p_lo=0.0,
                        p_hi=1.0, p_steps=7)
        # 1 channel class x 2 or 3 stages: chunks of 2 or 4 points, never a
        # whole row
        monkeypatch.setattr(optimizer, "_CHUNK_CELLS", 8)
        res = brute_force_optimize(config, grid, default_qos(), resolved=resolved)
        assert len(res.table) == 21
        for pt in res.table:
            one = evaluate_point(config, pt.tau, pt.p, default_qos(), resolved)
            assert (pt.tau, pt.p, pt.feasible) == (one.tau, one.p, one.feasible)
            assert abs(pt.r - one.r) <= 1e-12
            assert abs(pt.t_i - one.t_i) <= 1e-12


def class_tables(res):
    """Every class table, point table and metric of an ``analyze`` result."""
    return {
        "class_p_fa": res.profiles.class_p_fa,
        "class_p_d": res.profiles.class_p_d,
        "class_occ": res.occupancy.class_occ,
        "l": res.occupancy.l,
        "n_ho": res.occupancy.n_ho,
        "class_q": res.occupancy.class_q,
        "pi_ho": res.dist.pi_ho,
        "class_pi_channel": res.dist.class_pi_channel,
        "class_p_t": res.dist.class_p_t,
        "class_p_i": res.dist.class_p_i,
        "pi_t": res.dist.pi_t,
        "pi_i": res.dist.pi_i,
        "pi_te": res.dist.pi_te,
        "class_no_tx": res.class_no_tx,
        "class_success": res.class_success,
        "class_no_interf": res.class_no_interf,
        "throughput": res.throughput,
        "network_throughput": res.network_throughput,
        "interference": res.interference,
        "p_md_max": res.p_md_max,
    }


class TestAlignedPoints:
    """One call over aligned (tau_i, p_i) of one stage budget equals the
    points evaluated one at a time, with ``==``."""

    @pytest.mark.parametrize("path", [
        bundled_scenario_path("validation_ns5_np20"),
        bundled_scenario_path("dense_ns20_np5"),
        bundled_scenario_path("false_alarm_np5"),
        MIXED,
    ], ids=["validation_ns5_np20", "dense_ns20_np5", "false_alarm_np5",
            "mixed"])
    def test_every_budget_group_equals_scalar_calls(self, path):
        sc = load_scenario(path)
        config = sc.config
        resolved = resolve_detector(config, sc.detector, sc.qos, sc.params.tau)
        grid = GridSpec.default_for(config, sc.qos, tau_steps=16, p_steps=5)
        tau = np.repeat(grid.tau_values(), 5)
        p = np.tile(grid.p_values(), 16)
        deltas = max_sensing_stages(config.slot_duration, tau,
                                    config.handoff_time, config.n_pu)
        assert len(np.unique(deltas)) > 1
        for delta in np.unique(deltas):
            idx = np.flatnonzero(deltas == delta)
            group = class_tables(analyze(config, SensingParams(tau[idx], p[idx]),
                                         resolved))
            for k, i in enumerate(idx):
                one = class_tables(analyze(
                    config, SensingParams(float(tau[i]), float(p[i])), resolved))
                for name, table in group.items():
                    # explicit mode keeps p_fa without a point axis
                    got = table if np.ndim(table) == np.ndim(one[name]) else table[k]
                    assert np.shape(got) == np.shape(one[name]), name
                    assert np.array_equal(got, one[name]), name

    def test_misaligned_arrays_are_rejected(self):
        config = make_config(n_su=3, n_pu=3, presence=0.5)
        resolved = resolve_detector(config, explicit_detector(0.1, 0.9), None, 1e-3)
        params = SensingParams(np.array([1e-3, 1.1e-3]), np.array([0.2, 0.4, 0.6]))
        with pytest.raises(ScenarioError, match="aligned"):
            analyze(config, params, resolved)


# the tables with a stage axis; a mixed-budget call runs them to its longest
# budget, and each point's first delta stages are compared
STAGED = {"class_p_d", "class_occ", "l", "n_ho", "class_q",
          "pi_ho", "class_pi_channel", "class_p_t", "class_p_i", "pi_t", "pi_i",
          "class_no_tx", "class_success", "class_no_interf"}


def assert_one_call_equals_one_call_per_budget(config, resolved, tau, p):
    """``analyze`` over aligned (tau, p) of several budgets equals one call per
    budget, with ``==``, on each point's own stages and on every metric; past
    its budget a point holds no probes and no exits."""
    deltas = max_sensing_stages(config.slot_duration, tau, config.handoff_time,
                                config.n_pu)
    assert len(np.unique(deltas)) > 1
    whole = analyze(config, SensingParams(tau, p), resolved)
    assert whole.n_stages == deltas.max()
    assert np.array_equal(whole.delta, deltas)
    mixed = class_tables(whole)
    for delta in np.unique(deltas):
        idx = np.flatnonzero(deltas == delta)
        group = class_tables(analyze(config, SensingParams(tau[idx], p[idx]),
                                     resolved))
        for name, table in group.items():
            got = mixed[name]
            # explicit mode's p_fa has no point axis
            if name != "class_p_fa" or resolved.mode != "explicit":
                got = got[idx]
            if name in STAGED:
                got = got[..., :delta]
            assert np.shape(got) == np.shape(table), name
            assert np.array_equal(got, table), name

    beyond = np.arange(whole.n_stages) >= deltas[:, None]
    for name in ("class_pi_channel", "class_p_t", "class_p_i", "class_success"):
        assert (mixed[name][np.broadcast_to(beyond[:, None, :],
                                            mixed[name].shape)] == 0).all()
    assert (whole.class_no_tx[np.broadcast_to(
        beyond[:, None, :], whole.class_no_tx.shape)] == 1).all()


class TestMixedBudgets:
    """One call over aligned points of several stage budgets equals one call
    per budget."""

    @pytest.mark.parametrize("path,p_steps", [
        (bundled_scenario_path("validation_ns5_np100"), 2),
        (bundled_scenario_path("false_alarm_np5"), 3),
        (MIXED, 3),
    ], ids=["validation_ns5_np100", "false_alarm_np5", "mixed"])
    def test_one_call_equals_one_call_per_budget(self, path, p_steps):
        sc = load_scenario(path)
        resolved = resolve_detector(sc.config, sc.detector, sc.qos, sc.params.tau)
        grid = GridSpec.default_for(sc.config, sc.qos, tau_steps=16,
                                    p_steps=p_steps)
        tau = np.repeat(grid.tau_values(), p_steps)
        p = np.tile(grid.p_values(), 16)
        # interleave the budgets, so no budget group is a slice of the block
        order = np.random.default_rng(0).permutation(len(tau))
        assert_one_call_equals_one_call_per_budget(sc.config, resolved,
                                                   tau[order], p[order])

    def test_many_channel_classes(self):
        # 12 classes: numpy sums 8 or more terms pairwise, so the class sums
        # would show a change of summation order
        config = make_config(n_su=6, n_pu=12, presence=np.linspace(0.05, 0.9, 12))
        resolved = resolve_detector(config, explicit_detector(0.1, 0.9), None, 1e-3)
        assert resolved.classes.rep.size == 12
        assert_one_call_equals_one_call_per_budget(
            config, resolved, np.linspace(0.4e-3, 5e-3, 40),
            np.linspace(0.1, 1.0, 40))

    def test_budgets_span_the_whole_range(self):
        # the block above on validation_ns5_np100 runs from 94 stages to 1
        sc = load_scenario(bundled_scenario_path("validation_ns5_np100"))
        grid = GridSpec.default_for(sc.config, sc.qos, tau_steps=16, p_steps=2)
        deltas = max_sensing_stages(sc.config.slot_duration, grid.tau_values(),
                                    sc.config.handoff_time, sc.config.n_pu)
        assert (deltas.min(), deltas.max()) == (1, 94)

    def test_pair_of_budgets_equals_scalar_calls(self):
        sc = load_scenario(bundled_scenario_path("adapt_ns3_np7"))
        resolved = resolve_detector(sc.config, sc.detector, sc.qos, sc.params.tau)
        # delta(2.5 ms) = 3, delta(4 ms) = 2
        res = analyze(sc.config, SensingParams(np.array([2.5e-3, 4e-3]),
                                               np.array([0.8, 0.8])), resolved)
        assert res.n_stages == 3 and res.delta.tolist() == [3, 2]
        for k, tau in enumerate((2.5e-3, 4e-3)):
            one = analyze(sc.config, SensingParams(tau, 0.8), resolved)
            assert one.delta == one.n_stages
            assert res.throughput[k] == one.throughput
            assert res.interference[k] == one.interference
            assert res.p_md_max[k] == one.p_md_max


class TestStageBudget:
    """``analyze`` always evaluates delta(tau) stages, so nothing credits
    transmission time beyond the slot."""

    def test_adapt_point_beyond_its_budget(self):
        # a 5-stage evaluation at (tau, p) = (4 ms, 0.5), where delta = 2,
        # once gave t_I = -0.0097 and r = 0.174
        sc = load_scenario(bundled_scenario_path("adapt_ns3_np7"))
        resolved = resolve_detector(sc.config, sc.detector, sc.qos, sc.params.tau)
        params = SensingParams(4e-3, 0.5)
        with pytest.raises(TypeError):
            analyze(sc.config, params, resolved, n_stages=5)
        res = analyze(sc.config, params, resolved)
        assert res.n_stages == 2
        assert res.interference >= 0.0
        assert res.throughput == pytest.approx(0.251, abs=5e-4)

    @pytest.mark.parametrize("name", sorted(bundled_scenarios()))
    def test_no_negative_metric_on_the_default_grid(self, name):
        sc = load_scenario(bundled_scenario_path(name))
        res = optimize_scenario(sc, tau_steps=16, p_steps=16)
        assert (res.columns["t_i"] >= 0.0).all()
        assert (res.columns["r"] >= 0.0).all()
