import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from adaptive_reference import run_adaptive_per_su
from conftest import default_qos, explicit_detector, make_config, make_scenario
from rsop.adaptive import (
    AdaptiveConfig,
    AdaptiveState,
    FrameEstimate,
    _analytic_p_md,
    alg1_update,
    alg2_stage_schedule,
    check_step_schedule,
    convergence_bound,
    convergence_constants,
    corollary_check,
    frame_estimate,
    run_adaptive,
)
from rsop.chain import analyze, resolve_detector
from rsop.config import AdaptiveDefaults, DetectorSpec, SensingParams, load_bundled
from rsop.core import max_sensing_stages
from rsop.errors import InvalidSchedule, ScenarioError, ShortFrame
from rsop.simulator import SuSchedules, simulate_slots

T = 10e-3


def cfg(**overrides):
    values = dict(n_ep=10, delta_tau=1e-4, delta_p=0.025, delta_tau_fine=1e-4,
                  delta_p_fine=0.025, tau_floor=0.0, slot_duration=T)
    values.update(overrides)
    return AdaptiveConfig(**values)


def estimate(r=0.5, t_i=0.0, p_md=0.05):
    return FrameEstimate(r_est=r, t_i_est=t_i, p_md=p_md)


class TestCoarseUpdate:
    def test_zero_step_is_inert(self):
        c = cfg(alpha=lambda k: 0.0)
        state = AdaptiveState(tau=1e-3, p=0.5, prev_tau=9e-4, prev_p=0.4,
                              prev_r_est=0.3)
        new, _ = alg1_update(state, estimate(r=0.1), default_qos(), c)
        assert (new.tau, new.p) == (1e-3, 0.5)

    def test_improvement_keeps_direction(self):
        # throughput rose after tau increased -> increase tau again
        c = cfg()
        state = AdaptiveState(tau=1e-3, p=0.5, prev_tau=9e-4, prev_p=0.5,
                              prev_r_est=0.3, k=1)
        new, rec = alg1_update(state, estimate(r=0.4), default_qos(), c)
        assert rec.improved and rec.tau_grew and not rec.flip_tau
        assert new.tau == pytest.approx(1e-3 + 1e-4)

    def test_loss_reverses_direction(self):
        c = cfg()
        state = AdaptiveState(tau=1e-3, p=0.5, prev_tau=9e-4, prev_p=0.5,
                              prev_r_est=0.3, k=1)
        new, rec = alg1_update(state, estimate(r=0.2), default_qos(), c)
        assert not rec.improved and rec.flip_tau
        assert new.tau == pytest.approx(1e-3 - 1e-4)

    def test_tie_counts_as_improvement(self):
        c = cfg()
        state = AdaptiveState(tau=1e-3, p=0.5, prev_tau=9e-4, prev_p=0.5,
                              prev_r_est=0.3, k=1)
        _, rec = alg1_update(state, estimate(r=0.3), default_qos(), c)
        assert rec.improved

    def test_constraint_violation_negates_improvement(self):
        c = cfg()
        state = AdaptiveState(tau=1e-3, p=0.5, prev_tau=9e-4, prev_p=0.5,
                              prev_r_est=0.3, k=1)
        _, rec = alg1_update(state, estimate(r=0.4, t_i=0.2), default_qos(), c)
        assert not rec.improved
        _, rec = alg1_update(state, estimate(r=0.4, p_md=0.9), default_qos(), c)
        assert not rec.improved

    def test_projection_at_ceiling(self):
        c = cfg()
        state = AdaptiveState(tau=T, p=1.0, prev_tau=T - 1e-4, prev_p=0.9,
                              prev_r_est=0.1, k=1)
        new, _ = alg1_update(state, estimate(r=0.2), default_qos(), c)
        assert new.tau == T
        assert new.p == 1.0

    def test_projection_at_floor(self):
        c = cfg(tau_floor=5e-4)
        state = AdaptiveState(tau=5e-4, p=0.0, prev_tau=6e-4, prev_p=0.1,
                              prev_r_est=0.5, k=1)
        new, _ = alg1_update(state, estimate(r=0.1), default_qos(), c)
        assert new.tau >= 5e-4
        assert new.p >= 0.0

    def test_step_scales_with_alpha(self):
        c = cfg()
        state = AdaptiveState(tau=1e-3, p=0.5, prev_tau=9e-4, prev_p=0.5,
                              prev_r_est=0.3, k=4)
        new, _ = alg1_update(state, estimate(r=0.4), default_qos(), c)
        assert new.tau == pytest.approx(1e-3 + 1e-4 / 4)


class TestFineSchedule:
    def test_zero_increments_reduce_to_coarse(self):
        c = cfg(delta_tau_fine=0.0, delta_p_fine=0.0)
        state = AdaptiveState(tau=1.2e-3, p=0.4, prev_tau=1e-3, prev_p=0.4,
                              prev_r_est=0.0)
        tau, p = alg2_stage_schedule(state, 6, c)
        assert np.allclose(tau, 1.2e-3) and np.allclose(p, 0.4)

    def test_floor_active_everywhere(self):
        c = cfg(tau_floor=1e-3)
        state = AdaptiveState(tau=1e-3, p=0.4, prev_tau=1e-3, prev_p=0.4,
                              prev_r_est=0.0)
        tau, _ = alg2_stage_schedule(state, 5, c)
        assert np.allclose(tau, 1e-3)

    def test_hand_schedule(self):
        c = cfg(delta_tau_fine=1e-4, tau_floor=5e-4)
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
        val = convergence_bound(1.0, 1.0, "harmonic", 1)
        assert val == pytest.approx((1 + math.pi**2 / 6) / 2)
        assert val == pytest.approx(1.3225, abs=1e-4)

    def test_bound_vanishes_in_k(self):
        vals = [convergence_bound(1.0, 1.0, "harmonic", k)
                for k in (1, 10, 1000, 100000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.25

    def test_bound_linear_in_r2(self):
        lo = convergence_bound(0.0, 1.0, "harmonic", 5)
        hi = convergence_bound(0.0, 2.0, "harmonic", 5)
        assert hi == pytest.approx(2 * lo)

    def test_custom_schedule(self):
        alphas = 1.0 / np.arange(1, 2001) ** 0.75
        val = convergence_bound(1.0, 1.0, alphas, 100)
        assert val > 0

    def test_invalid_schedules(self):
        with pytest.raises(InvalidSchedule):
            convergence_bound(1.0, 1.0, np.ones(50), 10)  # square sum diverges
        with pytest.raises(InvalidSchedule):
            convergence_bound(1.0, 1.0, "geometric", 10)
        with pytest.raises(InvalidSchedule):
            check_step_schedule(np.array([0.5, -0.1, 0.2]))


class TestCorollary:
    def test_zero_increments_always_hold(self):
        g2, _ = convergence_constants(20, T, 0.0, 0.0)
        assert corollary_check(g2, 1e-9, "harmonic", 1)

    def test_huge_epsilon_holds(self):
        g2, _ = convergence_constants(20, T, 1e-4, 0.025)
        assert corollary_check(g2, 100.0, "harmonic", 3)

    def test_partial_sum_crossover(self):
        # term 1 = 2e-3 - 1.25e-2 < 0, so false at k=1; the harmonic sum
        # eventually dominates the square sum
        g2, _ = convergence_constants(20, T, 1e-4, 0.025)
        assert not corollary_check(g2, 1e-3, "harmonic", 1)
        assert corollary_check(g2, 1e-3, "harmonic", 60_000)


class TestClosedLoop:
    def scenario(self, **adaptive):
        config = make_config(n_su=2, n_pu=3, presence=0.1)
        defaults = dict(n_ep=20, initial_tau=2e-3, initial_p=0.5)
        defaults.update(adaptive)
        return make_scenario(config, 2e-3, 0.5, explicit_detector(0.1, 0.9),
                             adaptive=AdaptiveDefaults(**defaults))

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


DETECTORS = [
    explicit_detector(0.1, (0.9, 0.5)),
    DetectorSpec(mode="energy", calibration="pd_min", calibrate_tau=1e-3),
    DetectorSpec(mode="energy", calibration="pd_min", calibrate_tau=1e-3,
                 per_stage_snr=True),
]
DETECTOR_IDS = ["explicit-list", "saturating", "per-stage-snr"]


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
                assert _analytic_p_md(config, resolved, tau, p) == expect

    @pytest.mark.parametrize("detector", DETECTORS, ids=DETECTOR_IDS)
    def test_arrays_match_the_analyzer_per_point(self, detector):
        # one call over SUs whose budgets range from one stage (6 ms) to nine
        config = make_config(n_su=20, n_pu=10, presence=0.5)
        resolved = resolve_detector(config, detector, default_qos(), 1e-3)
        taus = np.array([6e-3, 1e-3, 3e-3, 6e-3, 1.5e-3, 1e-3])
        ps = np.array([0.3, 0.9, 0.5, 0.9, 0.1, 0.3])
        deltas = max_sensing_stages(T, taus, config.handoff_time, config.n_pu)
        assert deltas.min() == 1 and deltas.max() == 9
        got = _analytic_p_md(config, resolved, taus, ps)
        assert got.shape == taus.shape
        for tau, p, value in zip(taus, ps, got):
            assert value == analyze(config, SensingParams(tau, p), resolved).p_md_max


class TestFrameEstimate:
    def test_short_frame_rejected(self):
        config = make_config(n_su=2, n_pu=2)
        from rsop.chain import resolve_detector
        from rsop.config import SensingParams
        from rsop.simulator import SuSchedules, simulate_slots
        resolved = resolve_detector(config, explicit_detector(0.1, 0.9), None, 1e-3)
        sched = SuSchedules.homogeneous(config, SensingParams(1e-3, 0.5))
        batch = simulate_slots(config, sched, resolved, 5,
                               np.random.default_rng(0))
        with pytest.raises(ShortFrame):
            frame_estimate(batch, 0, 10, p_md=0.1)

    def test_all_failures_give_zero(self):
        config = make_config(n_su=3, n_pu=2, presence=1.0)  # everything busy
        from rsop.chain import resolve_detector
        from rsop.config import SensingParams
        from rsop.simulator import SuSchedules, simulate_slots
        resolved = resolve_detector(config, explicit_detector(0.1, 1.0), None, 1e-3)
        sched = SuSchedules.homogeneous(config, SensingParams(1e-3, 1.0))
        batch = simulate_slots(config, sched, resolved, 30,
                               np.random.default_rng(0))
        est = frame_estimate(batch, 0, 30, p_md=0.0)
        assert est.r_est == 0.0

    def test_every_slot_success_at_stage1(self):
        config = make_config(n_su=1, n_pu=1, presence=0.0)
        from rsop.chain import resolve_detector
        from rsop.config import SensingParams
        from rsop.simulator import SuSchedules, simulate_slots
        resolved = resolve_detector(config, explicit_detector(0.0, 0.9), None, 2e-3)
        sched = SuSchedules.homogeneous(config, SensingParams(2e-3, 1.0))
        batch = simulate_slots(config, sched, resolved, 25,
                               np.random.default_rng(0))
        est = frame_estimate(batch, 0, 25, p_md=0.1)
        assert est.r_est == pytest.approx((T - 2e-3) / T)


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
        batch = _batch()
        p_md = np.array([0.1, 0.2, 0.3, 0.4])
        every = frame_estimate(batch, slice(None), 25, p_md)
        for j in range(4):
            one = frame_estimate(batch, j, 25, p_md[j])
            assert every.r_est[j] == one.r_est
            assert every.t_i_est == one.t_i_est
            assert every.p_md[j] == one.p_md

    def test_alg1_update(self):
        c = cfg()
        state = AdaptiveState(tau=np.array([1e-3, 9e-4, T, 2e-4]),
                              p=np.array([0.5, 0.5, 1.0, 0.0]),
                              prev_tau=np.array([9e-4, 1e-3, T - 1e-4, 3e-4]),
                              prev_p=np.array([0.5, 0.6, 0.9, 0.1]),
                              prev_r_est=np.array([0.3, 0.3, 0.1, 0.5]), k=3)
        est = FrameEstimate(r_est=np.array([0.4, 0.2, 0.3, 0.5]), t_i_est=0.01,
                            p_md=np.array([0.05, 0.05, 0.5, 0.1]))
        new, rec = alg1_update(state, est, default_qos(), c)
        for j in range(4):
            one_state = AdaptiveState(*(float(getattr(state, f)[j]) for f in
                                        ("tau", "p", "prev_tau", "prev_p",
                                         "prev_r_est")), k=3)
            one_est = FrameEstimate(float(est.r_est[j]), est.t_i_est,
                                    float(est.p_md[j]))
            one_new, one_rec = alg1_update(one_state, one_est, default_qos(), c)
            for f in ("tau", "p", "prev_tau", "prev_p", "prev_r_est"):
                assert getattr(new, f)[j] == getattr(one_new, f), f
            for f in ("improved", "tau_grew", "p_grew", "flip_tau", "flip_p",
                      "g_tau", "g_p"):
                assert getattr(rec, f)[j] == getattr(one_rec, f), f
            assert new.k == one_new.k == 4 and rec.k == one_rec.k == 3

    def test_alg2_stage_tables_pad_each_su_with_its_last_stage(self):
        c = cfg(tau_floor=5e-4)
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
    @pytest.mark.parametrize("name", ["adapt_ns3_np7", "dense_ns20_np5",
                                      "validation_ns5_np100"])
    def test_bundled_scenarios(self, name, algorithm):
        sc = load_bundled(name)
        _assert_runs_equal(run_adaptive(sc, algorithm, n_frames=40, seed=2),
                           run_adaptive_per_su(sc, algorithm, n_frames=40, seed=2))

    @pytest.mark.parametrize("algorithm", [1, 2])
    @pytest.mark.parametrize("detector", DETECTORS[0::2],
                             ids=["explicit-list", "per-stage-snr"])
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
        sc = TestClosedLoop().scenario()
        got = run_adaptive(sc, algorithm, n_frames=30, seed=3, track_objective=True)
        want = run_adaptive_per_su(sc, algorithm, n_frames=30, seed=3,
                                   track_objective=True)
        assert not math.isnan(want.frames[-1].f_best)
        _assert_runs_equal(got, want)


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
