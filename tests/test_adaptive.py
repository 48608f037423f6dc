import math
import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from adaptive_reference import run_adaptive_per_su
from conftest import default_qos, explicit_detector, make_config, make_scenario
from rsop.adaptive import (
    AdaptiveState,
    FrameEstimate,
    _analytic_p_md,
    alg1_update,
    alg2_stage_schedule,
    convergence_bound,
    convergence_constants,
    corollary_check,
    frame_estimate,
    run_adaptive,
    subgradient_field,
)
import rsop.adaptive
import rsop.core
import rsop.detector
from rsop.chain import (analyze, resolve_detector, stage_profiles,
                        worst_misdetection)
from rsop.config import AdaptiveConfig, DetectorSpec, SensingParams, load_bundled
from rsop.core import max_sensing_stages
from rsop.detector import sensing_time_floor
from rsop.errors import InvalidSchedule, ScenarioError, ShortFrame
from rsop.simulator import SuSchedules, _threshold_table, simulate_slots

T = 10e-3


def cfg(**overrides):
    values = dict(n_ep=10, delta_tau=1e-4, delta_p=0.025, delta_tau_fine=1e-4,
                  delta_p_fine=0.025, tau_min=0.0)
    values.update(overrides)
    return AdaptiveConfig(**values)


def estimate(r=0.5, t_i=0.0, p_md=0.05):
    return FrameEstimate(r_est=r, t_i_est=t_i, p_md=p_md)


class TestCoarseUpdate:
    def test_zero_step_is_inert(self):
        c = cfg(delta_tau=0.0, delta_p=0.0)
        state = AdaptiveState(tau=1e-3, p=0.5, prev_tau=9e-4, prev_p=0.4,
                              prev_r_est=0.3)
        new, _ = alg1_update(state, estimate(r=0.1), default_qos(), c, T)
        assert (new.tau, new.p) == (1e-3, 0.5)

    def test_improvement_keeps_direction(self):
        # throughput rose after tau increased -> increase tau again
        c = cfg()
        state = AdaptiveState(tau=1e-3, p=0.5, prev_tau=9e-4, prev_p=0.5,
                              prev_r_est=0.3, k=1)
        new, rec = alg1_update(state, estimate(r=0.4), default_qos(), c, T)
        assert rec.improved and rec.tau_grew and not rec.flip_tau
        assert new.tau == pytest.approx(1e-3 + 1e-4)

    def test_loss_reverses_direction(self):
        c = cfg()
        state = AdaptiveState(tau=1e-3, p=0.5, prev_tau=9e-4, prev_p=0.5,
                              prev_r_est=0.3, k=1)
        new, rec = alg1_update(state, estimate(r=0.2), default_qos(), c, T)
        assert not rec.improved and rec.flip_tau
        assert new.tau == pytest.approx(1e-3 - 1e-4)

    def test_tie_counts_as_improvement(self):
        c = cfg()
        state = AdaptiveState(tau=1e-3, p=0.5, prev_tau=9e-4, prev_p=0.5,
                              prev_r_est=0.3, k=1)
        _, rec = alg1_update(state, estimate(r=0.3), default_qos(), c, T)
        assert rec.improved

    def test_constraint_violation_negates_improvement(self):
        c = cfg()
        state = AdaptiveState(tau=1e-3, p=0.5, prev_tau=9e-4, prev_p=0.5,
                              prev_r_est=0.3, k=1)
        _, rec = alg1_update(state, estimate(r=0.4, t_i=0.2), default_qos(), c, T)
        assert not rec.improved
        _, rec = alg1_update(state, estimate(r=0.4, p_md=0.9), default_qos(), c, T)
        assert not rec.improved

    def test_projection_at_ceiling(self):
        c = cfg()
        state = AdaptiveState(tau=T, p=1.0, prev_tau=T - 1e-4, prev_p=0.9,
                              prev_r_est=0.1, k=1)
        new, _ = alg1_update(state, estimate(r=0.2), default_qos(), c, T)
        assert new.tau == T
        assert new.p == 1.0

    def test_projection_at_floor(self):
        c = cfg(tau_min=5e-4)
        state = AdaptiveState(tau=5e-4, p=0.0, prev_tau=6e-4, prev_p=0.1,
                              prev_r_est=0.5, k=1)
        new, _ = alg1_update(state, estimate(r=0.1), default_qos(), c, T)
        assert new.tau >= 5e-4
        assert new.p >= 0.0

    def test_step_scales_with_alpha(self):
        c = cfg()
        state = AdaptiveState(tau=1e-3, p=0.5, prev_tau=9e-4, prev_p=0.5,
                              prev_r_est=0.3, k=4)
        new, _ = alg1_update(state, estimate(r=0.4), default_qos(), c, T)
        assert new.tau == pytest.approx(1e-3 + 1e-4 / 4)


class TestFineSchedule:
    def test_zero_increments_reduce_to_coarse(self):
        c = cfg(delta_tau_fine=0.0, delta_p_fine=0.0)
        state = AdaptiveState(tau=1.2e-3, p=0.4, prev_tau=1e-3, prev_p=0.4,
                              prev_r_est=0.0)
        tau, p = alg2_stage_schedule(state, 6, c)
        assert np.allclose(tau, 1.2e-3) and np.allclose(p, 0.4)

    def test_floor_active_everywhere(self):
        c = cfg(tau_min=1e-3)
        state = AdaptiveState(tau=1e-3, p=0.4, prev_tau=1e-3, prev_p=0.4,
                              prev_r_est=0.0)
        tau, _ = alg2_stage_schedule(state, 5, c)
        assert np.allclose(tau, 1e-3)

    def test_hand_schedule(self):
        c = cfg(delta_tau_fine=1e-4, tau_min=5e-4)
        state = AdaptiveState(tau=1e-3, p=0.2, prev_tau=1e-3, prev_p=0.2,
                              prev_r_est=0.0)
        tau, p = alg2_stage_schedule(state, 8, c)
        assert np.allclose(tau, [1.0e-3, 0.9e-3, 0.8e-3, 0.7e-3, 0.6e-3,
                                 0.5e-3, 0.5e-3, 0.5e-3])
        assert p[0] == 0.2 and np.all(np.diff(p) >= 0) and p.max() <= 1.0

    def test_stage1_matches_frame_point(self):
        c = cfg()
        state = AdaptiveState(tau=2e-3, p=0.7, prev_tau=2e-3, prev_p=0.7,
                              prev_r_est=0.0)
        tau, p = alg2_stage_schedule(state, 4, c)
        assert tau[0] == 2e-3 and p[0] == 0.7

    def test_rejects_bad_delta(self):
        with pytest.raises(ScenarioError):
            alg2_stage_schedule(AdaptiveState(1e-3, 0.5, 1e-3, 0.5, 0.0), 0, cfg())


class TestConvergenceMath:
    def test_constants_vanish_without_steps(self):
        g2, _ = convergence_constants(20, T, 0.0, 0.0)
        assert g2 == 0.0

    def test_constants_hand_values(self):
        g2, r2 = convergence_constants(20, T, 1e-4, 0.025)
        assert g2 == pytest.approx(1.25002e-2)
        assert r2 == pytest.approx(20.002)

    def test_bound_hand_value(self):
        # G=R=1, harmonic steps, k=1: (1 + pi^2/6) / 2
        val = convergence_bound(1.0, 1.0, 1)
        assert val == pytest.approx((1 + math.pi**2 / 6) / 2)
        assert val == pytest.approx(1.3225, abs=1e-4)

    def test_bound_vanishes_in_k(self):
        vals = [convergence_bound(1.0, 1.0, k)
                for k in (1, 10, 1000, 100000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.25

    def test_bound_linear_in_r2(self):
        lo = convergence_bound(0.0, 1.0, 5)
        hi = convergence_bound(0.0, 2.0, 5)
        assert hi == pytest.approx(2 * lo)

    @pytest.mark.parametrize("g2, r2", [(math.nan, 1.0), (-5.0, 1.0),
                                        (math.inf, 1.0), (1.0, math.nan),
                                        (1.0, -1.0), (1.0, math.inf)],
                             ids=["g2-nan", "g2-negative", "g2-inf", "r2-nan",
                                  "r2-negative", "r2-inf"])
    def test_rejects_bad_constants(self, g2, r2):
        with pytest.raises(InvalidSchedule, match="must be finite and >= 0"):
            convergence_bound(g2, r2, 3)

    @pytest.mark.parametrize("k", [0, -1, 2.5, math.nan, math.inf, "3"],
                             ids=["zero", "negative", "fraction", "nan", "inf",
                                  "string"])
    def test_rejects_bad_step_count(self, k):
        with pytest.raises(InvalidSchedule, match="k must be a whole number"):
            convergence_bound(1.0, 1.0, k)

    def test_whole_float_step_count(self):
        assert convergence_bound(1.0, 1.0, 3.0) == convergence_bound(1.0, 1.0, 3)


class TestCorollary:
    def test_zero_increments_always_hold(self):
        g2, _ = convergence_constants(20, T, 0.0, 0.0)
        assert corollary_check(g2, 1e-9, 1)

    def test_huge_epsilon_holds(self):
        g2, _ = convergence_constants(20, T, 1e-4, 0.025)
        assert corollary_check(g2, 100.0, 3)

    def test_partial_sum_crossover(self):
        # term 1 = 2e-3 - 1.25e-2 < 0, so false at k=1; the harmonic sum
        # eventually dominates the square sum
        g2, _ = convergence_constants(20, T, 1e-4, 0.025)
        assert not corollary_check(g2, 1e-3, 1)
        assert corollary_check(g2, 1e-3, 60_000)

    @pytest.mark.parametrize("epsilon", [math.nan, 0.0, -1e-3, math.inf],
                             ids=["nan", "zero", "negative", "inf"])
    def test_rejects_bad_epsilon(self, epsilon):
        with pytest.raises(InvalidSchedule, match="epsilon must be finite and > 0"):
            corollary_check(1.0, epsilon, 3)

    @pytest.mark.parametrize("g2", [math.nan, -5.0, math.inf],
                             ids=["nan", "negative", "inf"])
    def test_rejects_bad_g2(self, g2):
        with pytest.raises(InvalidSchedule, match="g2 must be finite and >= 0"):
            corollary_check(g2, 1e-3, 3)

    @pytest.mark.parametrize("k", [0, 2.5], ids=["zero", "fraction"])
    def test_rejects_bad_step_count(self, k):
        with pytest.raises(InvalidSchedule, match="k must be a whole number"):
            corollary_check(1.0, 1e-3, k)


class TestClosedLoop:
    def scenario(self, **adaptive):
        config = make_config(n_su=2, n_pu=3, presence=0.1)
        defaults = dict(n_ep=20, initial_tau=2e-3, initial_p=0.5)
        defaults.update(adaptive)
        return make_scenario(config, 2e-3, 0.5, explicit_detector(0.1, 0.9),
                             adaptive=AdaptiveConfig(**defaults))

    def test_iterates_stay_in_box(self):
        run = run_adaptive(self.scenario(), algorithm=1, n_frames=60, seed=0)
        for fl in run.frames:
            assert np.all(fl.tau >= 0) and np.all(fl.tau <= T)
            assert np.all(fl.p >= 0) and np.all(fl.p <= 1)

    def test_subgradient_norm_identity(self):
        run = run_adaptive(self.scenario(), algorithm=1, n_frames=40, seed=1)
        g2, _ = convergence_constants(2, T, 1e-4, 0.025)
        for fl in run.frames:
            assert fl.g_norm_sq == pytest.approx(g2, abs=1e-15)

    def test_fine_tuning_with_zero_increments_matches_coarse(self):
        base = self.scenario(delta_tau_fine=0.0, delta_p_fine=0.0)
        a = run_adaptive(base, algorithm=1, n_frames=50, seed=7)
        b = run_adaptive(base, algorithm=2, n_frames=50, seed=7)
        for fa, fb in zip(a.frames, b.frames):
            assert np.array_equal(fa.tau, fb.tau)
            assert np.array_equal(fa.p, fb.p)
            assert fa.network_throughput == fb.network_throughput

    def test_objective_tracking_monotone_best(self):
        run = run_adaptive(self.scenario(), algorithm=1, n_frames=50, seed=3,
                           track_objective=True)
        best = [fl.f_best for fl in run.frames if not math.isnan(fl.f_best)]
        assert best, "no feasible visited points recorded"
        assert all(a >= b - 1e-15 for a, b in zip(best, best[1:]))


RESOLVER_DETECTORS = {
    "energy": DetectorSpec(mode="energy", calibration="pd_min", calibrate_tau=1e-3),
    "explicit": explicit_detector(0.1, 0.9),
}
GIVEN = dict(delta_tau=2e-4, delta_tau_fine=3e-5, tau_min=5e-4,
             initial_tau=2e-3, initial_p=0.3)


class TestResolver:
    """``_adaptive_cfg`` fills every ``None`` of the scenario's adaptive
    section and leaves the section as loaded."""

    @staticmethod
    def resolve(detector, pu_power=0.1, **adaptive):
        config = make_config(n_su=2, n_pu=3, pu_power=pu_power)
        sc = make_scenario(config, 1e-3, 0.6, RESOLVER_DETECTORS[detector],
                           adaptive=AdaptiveConfig(**adaptive))
        loaded = replace(sc.adaptive)
        cfg = rsop.adaptive._adaptive_cfg(sc)
        assert sc.adaptive == loaded
        assert None not in [getattr(cfg, f.name) for f in fields(cfg)]
        return sc, cfg

    @pytest.mark.parametrize("detector", list(RESOLVER_DETECTORS))
    @pytest.mark.parametrize("key", list(GIVEN))
    @pytest.mark.parametrize("given", [True, False], ids=["given", "none"])
    def test_each_key(self, detector, key, given):
        sc, cfg = self.resolve(detector, **({key: GIVEN[key]} if given else {}))
        floor = (sensing_time_floor(sc.config, sc.qos) if detector == "energy"
                 else sc.config.one_sample)
        # a given value differs from its default, and both floors lie under
        # the nominal start
        assert floor < GIVEN["tau_min"] < sc.params.tau
        default = {"delta_tau": 0.01 * T, "delta_tau_fine": 0.01 * T,
                   "tau_min": floor, "initial_tau": 1e-3, "initial_p": 0.6}
        want = {**default, key: GIVEN[key]} if given else default
        assert {k: getattr(cfg, k) for k in GIVEN} == want
        # the keys with a default of their own come through as they are
        assert (cfg.n_ep, cfg.delta_p, cfg.delta_p_fine) == (50, 0.025, 0.025)

    @pytest.mark.parametrize("detector", list(RESOLVER_DETECTORS))
    def test_start_below_the_floor_is_projected(self, detector):
        _, cfg = self.resolve(detector, tau_min=5e-4, initial_tau=1e-4)
        assert (cfg.tau_min, cfg.initial_tau) == (5e-4, 5e-4)

    def test_floor_above_t_is_capped(self):
        # at SNR 1e-3 both error caps need about 0.96 s of sensing: the floor
        # and the start (nominal tau 1 ms) are both T
        sc, cfg = self.resolve("energy", pu_power=1e-3)
        assert sensing_time_floor(sc.config, sc.qos) > T
        assert (cfg.tau_min, cfg.initial_tau) == (T, T)


DETECTORS = [
    explicit_detector(0.1, (0.9, 0.5)),
    DetectorSpec(mode="energy", calibration="pd_min", calibrate_tau=1e-3),
    DetectorSpec(mode="energy", calibration="pfa_max", calibrate_tau=1e-3),
]
DETECTOR_IDS = ["explicit-list", "saturating", "pfa-max"]


def p_md_of_frame(config, resolved, taus, ps):
    """``_analytic_p_md`` of SUs at ``taus`` and ``ps`` from the threshold
    table of a frame simulated there, over their own delta(tau) stages."""
    deltas = max_sensing_stages(T, taus, config.handoff_time, config.n_pu)
    table = _threshold_table(config, resolved, np.reshape(taus, (-1, 1)),
                             deltas.max())
    return _analytic_p_md(config, resolved, taus, ps, deltas, table)


def analyzer_p_md(config, resolved, taus, ps):
    """``analyze``'s p_md_max at each SU's point, one scalar call each."""
    return [analyze(config, SensingParams(float(tau), float(p)),
                    resolved).p_md_max for tau, p in zip(taus, ps)]


class TestAnalyticMisdetection:
    @pytest.mark.parametrize("detector", DETECTORS, ids=DETECTOR_IDS)
    def test_matches_the_analyzer(self, detector):
        # 6 ms leaves room for one probe, 1 ms for nine: the local check must
        # look at exactly the stages the optimizer's analyzer looks at
        config = make_config(n_su=20, n_pu=10, presence=0.5)
        resolved = resolve_detector(config, detector, default_qos(), 1e-3)
        for tau in (6e-3, 3e-3, 1e-3):
            for p in (0.3, 0.9):
                expect = analyze(config, SensingParams(tau, p), resolved).p_md_max
                got = p_md_of_frame(config, resolved, np.full(20, tau),
                                    np.full(20, p))
                assert got.tolist() == [expect] * 20

    @pytest.mark.parametrize("detector", DETECTORS, ids=DETECTOR_IDS)
    def test_arrays_match_the_analyzer_per_point(self, detector):
        # one call over SUs whose budgets range from one stage (6 ms) to nine
        config = make_config(n_su=20, n_pu=10, presence=0.5)
        resolved = resolve_detector(config, detector, default_qos(), 1e-3)
        taus = np.array([6e-3, 1e-3, 3e-3, 6e-3, 1.5e-3, 1e-3])
        ps = np.array([0.3, 0.9, 0.5, 0.9, 0.1, 0.3])
        deltas = max_sensing_stages(T, taus, config.handoff_time, config.n_pu)
        assert deltas.min() == 1 and deltas.max() == 9
        got = p_md_of_frame(config, resolved, taus, ps)
        assert got.tolist() == analyzer_p_md(config, resolved, taus, ps)

    @pytest.mark.parametrize("detector", DETECTORS, ids=DETECTOR_IDS)
    @pytest.mark.parametrize("taus", [[6e-3, 1e-3, 3e-3, 6e-3, 1.5e-3, 1e-3],
                                      [6e-3, 7e-3, 6e-3]],
                             ids=["budgets-1-to-9", "one-stage"])
    def test_threshold_table_gives_the_same_bits(self, detector, taus):
        # stage 1 read from the frame's threshold table, stage 2 evaluated
        # anew: the bits of the chain's own stage profiles
        config = make_config(n_su=20, n_pu=10, presence=0.5)
        resolved = resolve_detector(config, detector, default_qos(), 1e-3)
        taus = np.array(taus)
        ps = np.linspace(0.1, 0.9, taus.size)
        deltas = max_sensing_stages(T, taus, config.handoff_time, config.n_pu)
        prof = stage_profiles(config, SensingParams(taus, ps), resolved,
                              deltas.max())
        want = worst_misdetection(1.0 - prof.class_p_d, deltas)
        got = p_md_of_frame(config, resolved, taus, ps)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("algorithm", [1, 2])
    @pytest.mark.parametrize("name", ["adapt_ns3_np7", "sparse_ns3_np7",
                                      "false_alarm_np5", "below-floor"])
    def test_every_frame_matches_the_analyzer(self, monkeypatch, name,
                                              algorithm):
        # sparse_ns3_np7 starts its tau 6e-20 s below the floor, and
        # below-floor starts at half the floor: both starts are projected
        # onto the floor, so the first frame's table is at the SUs' tau too;
        # false_alarm_np5 has an explicit detector over several stages
        if name == "below-floor":
            sc = load_bundled("adapt_ns3_np7")
            floor = sensing_time_floor(sc.config, sc.qos)
            sc = replace(sc, adaptive=replace(sc.adaptive, initial_tau=floor / 2))
        else:
            sc = load_bundled(name)
        checked = []

        def check(config, resolved, tau, p, deltas, thresholds):
            got = _analytic_p_md(config, resolved, tau, p, deltas, thresholds)
            checked.append(got.tolist() == analyzer_p_md(config, resolved,
                                                         tau, p))
            return got

        monkeypatch.setattr(rsop.adaptive, "_analytic_p_md", check)
        run_adaptive(sc, algorithm, n_frames=10, seed=2)
        assert checked == [True] * 10

    @pytest.mark.parametrize("name", ["adapt_ns3_np7", "false_alarm_np5"])
    def test_probe_check_matches_the_analyzer(self, monkeypatch, name):
        # the check at each probe's stepped point reads the table of the
        # frames simulated there, one value per SU
        sc = load_bundled(name)
        stepped = []

        def check(config, resolved, tau, p, deltas, thresholds):
            got = _analytic_p_md(config, resolved, tau, p, deltas, thresholds)
            n_su = config.n_su
            want = analyzer_p_md(config, resolved, [tau] * n_su, [p] * n_su)
            stepped.append((tau, p, got.tolist() == want))
            return got

        monkeypatch.setattr(rsop.adaptive, "_analytic_p_md", check)
        subgradient_field(sc, [3e-3], [0.5], n_realizations=8, seed=1)
        cfg = rsop.adaptive._adaptive_cfg(sc)
        assert sorted(stepped) == sorted(
            (3e-3 + s_tau * cfg.delta_tau, 0.5 + s_p * cfg.delta_p, True)
            for s_tau in (1, -1) for s_p in (1, -1))

    @pytest.mark.parametrize("algorithm", [1, 2])
    def test_start_below_the_floor_is_projected(self, algorithm):
        # a start at half the floor used to log, simulate and check frame 1
        # outside the decision box
        sc = load_bundled("adapt_ns3_np7")
        floor = sensing_time_floor(sc.config, sc.qos)
        sc = replace(sc, adaptive=replace(sc.adaptive, initial_tau=floor / 2))
        run = run_adaptive(sc, algorithm, n_frames=1, seed=2)
        assert run.frames[0].tau.tolist() == [floor] * sc.config.n_su


class TestFrameEstimate:
    def test_short_frame_rejected(self):
        config = make_config(n_su=2, n_pu=2)
        resolved = resolve_detector(config, explicit_detector(0.1, 0.9), None, 1e-3)
        sched = SuSchedules.from_per_su(config, 1e-3, 0.5)
        batch = simulate_slots(config, sched, resolved, 5,
                               np.random.default_rng(0))
        with pytest.raises(ShortFrame):
            frame_estimate(batch, 10, p_md=np.full(2, 0.1))

    @pytest.mark.parametrize("n_ep", [0, -2])
    def test_empty_frame_rejected(self, n_ep):
        # an empty frame has no mean; it used to give NaN estimates
        config = make_config(n_su=2, n_pu=2)
        resolved = resolve_detector(config, explicit_detector(0.1, 0.9), None, 1e-3)
        sched = SuSchedules.from_per_su(config, 1e-3, 0.5)
        batch = simulate_slots(config, sched, resolved, 5,
                               np.random.default_rng(0))
        with pytest.raises(ScenarioError):
            frame_estimate(batch, n_ep, p_md=np.zeros(2))

    def test_all_failures_give_zero(self):
        config = make_config(n_su=3, n_pu=2, presence=1.0)  # everything busy
        resolved = resolve_detector(config, explicit_detector(0.1, 1.0), None, 1e-3)
        sched = SuSchedules.from_per_su(config, 1e-3, 1.0)
        batch = simulate_slots(config, sched, resolved, 30,
                               np.random.default_rng(0))
        est = frame_estimate(batch, 30, p_md=np.zeros(3))
        assert est.r_est.tolist() == [0.0] * 3

    def test_every_slot_success_at_stage1(self):
        config = make_config(n_su=1, n_pu=1, presence=0.0)
        resolved = resolve_detector(config, explicit_detector(0.0, 0.9), None, 2e-3)
        sched = SuSchedules.from_per_su(config, 2e-3, 1.0)
        batch = simulate_slots(config, sched, resolved, 25,
                               np.random.default_rng(0))
        est = frame_estimate(batch, 25, p_md=np.full(1, 0.1))
        assert est.r_est == pytest.approx([(T - 2e-3) / T])


def _batch(n_su=4, n_pu=3, slots=30, seed=0):
    config = make_config(n_su=n_su, n_pu=n_pu, presence=0.3)
    resolved = resolve_detector(config, explicit_detector(0.1, 0.9), None, 1e-3)
    sched = SuSchedules.from_per_su(config, np.linspace(5e-4, 2e-3, n_su),
                                    np.linspace(0.3, 0.9, n_su))
    return simulate_slots(config, sched, resolved, slots,
                          np.random.default_rng(seed))


class TestArrayViews:
    """The array entry points equal their one-SU views, SU by SU."""

    def test_frame_estimate(self):
        # entry j is SU j's own frame mean; the interference is the network's
        batch = _batch()
        p_md = np.array([0.1, 0.2, 0.3, 0.4])
        every = frame_estimate(batch, 25, p_md)
        for j in range(4):
            acks = np.ascontiguousarray(batch.throughput[:25, j])
            assert every.r_est[j] == acks.sum() / 25
            assert every.p_md[j] == p_md[j]
        assert every.t_i_est == batch.network_interference[:25].sum() / 25

    def test_alg1_update(self):
        c = cfg()
        state = AdaptiveState(tau=np.array([1e-3, 9e-4, T, 2e-4]),
                              p=np.array([0.5, 0.5, 1.0, 0.0]),
                              prev_tau=np.array([9e-4, 1e-3, T - 1e-4, 3e-4]),
                              prev_p=np.array([0.5, 0.6, 0.9, 0.1]),
                              prev_r_est=np.array([0.3, 0.3, 0.1, 0.5]), k=3)
        est = FrameEstimate(r_est=np.array([0.4, 0.2, 0.3, 0.5]), t_i_est=0.01,
                            p_md=np.array([0.05, 0.05, 0.5, 0.1]))
        new, rec = alg1_update(state, est, default_qos(), c, T)
        for j in range(4):
            one_state = AdaptiveState(*(float(getattr(state, f)[j]) for f in
                                        ("tau", "p", "prev_tau", "prev_p",
                                         "prev_r_est")), k=3)
            one_est = FrameEstimate(float(est.r_est[j]), est.t_i_est,
                                    float(est.p_md[j]))
            one_new, one_rec = alg1_update(one_state, one_est, default_qos(), c, T)
            for f in ("tau", "p", "prev_tau", "prev_p", "prev_r_est"):
                assert getattr(new, f)[j] == getattr(one_new, f), f
            for f in ("improved", "tau_grew", "p_grew", "flip_tau", "flip_p",
                      "g_tau", "g_p"):
                assert getattr(rec, f)[j] == getattr(one_rec, f), f
            assert new.k == one_new.k == 4 and rec.k == one_rec.k == 3

    def test_alg2_stage_tables_pad_each_su_with_its_last_stage(self):
        c = cfg(tau_min=5e-4)
        state = AdaptiveState(tau=np.array([1e-3, 6e-4, 2e-3]),
                              p=np.array([0.2, 0.98, 0.5]),
                              prev_tau=np.zeros(3), prev_p=np.zeros(3),
                              prev_r_est=np.zeros(3))
        deltas = np.array([5, 2, 3])
        tau, p = alg2_stage_schedule(state, deltas, c)
        assert tau.shape == p.shape == (3, 5)
        for j in range(3):
            one = AdaptiveState(float(state.tau[j]), float(state.p[j]), 0.0, 0.0, 0.0)
            tj, pj = alg2_stage_schedule(one, deltas[j], c)
            assert np.array_equal(tau[j, :deltas[j]], tj)
            assert np.array_equal(p[j, :deltas[j]], pj)
            assert np.all(tau[j, deltas[j]:] == tj[-1])
            assert np.all(p[j, deltas[j]:] == pj[-1])


def _assert_runs_equal(got, want):
    def same(a, b):
        if isinstance(b, float) and math.isnan(b):
            return math.isnan(a)
        return np.array_equal(a, b)

    assert len(got.frames) == len(want.frames)
    for fa, fb in zip(got.frames, want.frames):
        for f in fields(fb):
            assert same(getattr(fa, f.name), getattr(fb, f.name)), (fa.k, f.name)
    for f in fields(want):
        if f.name != "frames":
            assert same(getattr(got, f.name), getattr(want, f.name)), f.name


class TestAgainstPerSuReference:
    """The array loop reproduces the per-SU loop of tests/adaptive_reference.py
    exactly, every FrameLog field of every frame."""

    @pytest.mark.parametrize("algorithm", [1, 2])
    # sparse_ns3_np7 starts its tau just below the floor, which both loops
    # project onto it
    @pytest.mark.parametrize("name", ["adapt_ns3_np7", "dense_ns20_np5",
                                      "sparse_ns3_np7", "validation_ns5_np100"])
    def test_bundled_scenarios(self, name, algorithm):
        sc = load_bundled(name)
        _assert_runs_equal(run_adaptive(sc, algorithm, n_frames=40, seed=2),
                           run_adaptive_per_su(sc, algorithm, n_frames=40, seed=2))

    @pytest.mark.parametrize("algorithm", [1, 2])
    @pytest.mark.parametrize("detector", DETECTORS[:2],
                             ids=DETECTOR_IDS[:2])
    def test_detectors(self, detector, algorithm):
        # near tau = 5 ms the budget is one stage above and two below, so
        # large tau steps leave SUs with different budgets in one frame
        sc = replace(load_bundled("adapt_ns3_np7"), detector=detector)
        sc = replace(sc, adaptive=replace(sc.adaptive, initial_tau=5.4e-3,
                                          delta_tau=2e-3))
        got = run_adaptive(sc, algorithm, n_frames=40, seed=5)
        _assert_runs_equal(got, run_adaptive_per_su(sc, algorithm, n_frames=40,
                                                    seed=5))
        c = sc.config
        budgets = [max_sensing_stages(T, fl.tau, c.handoff_time, c.n_pu)
                   for fl in got.frames]
        assert any(b.min() == 1 and b.max() > 1 for b in budgets)

    @pytest.mark.parametrize("algorithm", [1, 2])
    def test_track_objective(self, algorithm):
        # an explicit and an energy detector; the reference scores each SU's
        # point by its own scalar analyze call
        for sc in (TestClosedLoop().scenario(), load_bundled("adapt_ns3_np7")):
            got = run_adaptive(sc, algorithm, n_frames=30, seed=3,
                               track_objective=True)
            want = run_adaptive_per_su(sc, algorithm, n_frames=30, seed=3,
                                       track_objective=True)
            assert not math.isnan(want.frames[-1].f_best)
            _assert_runs_equal(got, want)


class TestDetectorPasses:
    """Q passes per adaptive frame, counted through ``detector.q_function``:
    an energy detector's frame evaluates its threshold table in one pass and
    the check's mean-field stage 2 in one more, as the check reads stage 1
    from the table; an explicit detector's frame evaluates none."""

    @pytest.mark.parametrize("algorithm", [1, 2])
    @pytest.mark.parametrize("detector, passes",
                             [(None, 2), (DETECTORS[0], 0)],
                             ids=["energy", "explicit-list"])
    def test_passes_per_frame(self, monkeypatch, algorithm, detector, passes):
        sc = load_bundled("adapt_ns3_np7")
        if detector is not None:
            sc = replace(sc, detector=detector)
        calls = []
        q_function = rsop.detector.q_function

        def counted(x):
            calls.append(1)
            return q_function(x)

        monkeypatch.setattr(rsop.detector, "q_function", counted)
        run_adaptive(sc, algorithm, n_frames=20, seed=0)
        assert len(calls) == 20 * passes


class TestFrameInvariantWork:
    """Work that does not change from frame to frame is done once."""

    @staticmethod
    def wrap_everywhere(monkeypatch, fn, wrapper):
        """Rebind ``fn`` to ``wrapper`` in every rsop module that binds it."""
        for mod in [m for n, m in sys.modules.items()
                    if n == "rsop" or n.startswith("rsop.")]:
            for attr in [a for a, v in vars(mod).items() if v is fn]:
                monkeypatch.setattr(mod, attr, wrapper)

    def test_one_stage_budget_per_frame(self, monkeypatch):
        # alg2 used to compute delta(tau) twice per frame: for the check and
        # again for its schedule, whose stage-1 tau is the same
        calls = []
        budget = rsop.core.max_sensing_stages

        def counted(*args):
            calls.append(1)
            return budget(*args)

        self.wrap_everywhere(monkeypatch, budget, counted)
        sc = load_bundled("adapt_ns3_np7")
        for algorithm in (1, 2):
            run_adaptive(sc, algorithm, n_frames=700, seed=0)
        assert len(calls) == 1400

    @pytest.mark.parametrize("algorithm", [1, 2])
    def test_realized_snr_never_evaluated_in_a_frame(self, monkeypatch,
                                                     algorithm):
        # the threshold table's realized SNR and tail factors depend on
        # neither tau nor p, so resolve_detector builds them before the first
        # frame; the check's mean-field stage 2 evaluates the SNR anew every
        # frame, outside the simulator
        frame, inside, calls = [0], [False], []
        snr, simulate = rsop.detector.received_snr, rsop.adaptive.simulate_slots

        def counted_snr(*args):
            if inside[0]:
                calls.append(frame[0])
            return snr(*args)

        def framed(*args, **kwargs):
            inside[0] = True
            try:
                return simulate(*args, **kwargs)
            finally:
                inside[0] = False
                frame[0] += 1

        self.wrap_everywhere(monkeypatch, snr, counted_snr)
        monkeypatch.setattr(rsop.adaptive, "simulate_slots", framed)
        run_adaptive(load_bundled("adapt_ns3_np7"), algorithm, n_frames=20,
                     seed=0)
        assert frame[0] == 20
        assert calls == []


def test_subgradient_field_rejects_unequal_probe_lengths():
    # zip would drop the second tau
    with pytest.raises(ScenarioError, match="one p per tau"):
        subgradient_field(load_bundled("adapt_ns3_np7"), [1e-3, 2e-3], [0.5],
                          n_realizations=4)


class TestShortRun:
    def test_one_frame_window_has_nan_standard_errors(self):
        # 3 frames leave one frame in the converged window: no spread to
        # estimate, and no numpy warning on the way
        sc = TestClosedLoop().scenario()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run = run_adaptive(sc, algorithm=1, n_frames=3, seed=0)
        assert math.isnan(run.se_network_throughput)
        assert math.isnan(run.se_interference)
        assert run.converged_network_throughput == run.frames[-1].network_throughput
