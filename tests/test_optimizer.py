from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from conftest import default_qos, explicit_detector, make_config, make_scenario
from rsop import optimizer
from rsop.chain import analyze, resolve_detector
from rsop.config import (
    DetectorSpec,
    bundled_scenario_path,
    bundled_scenarios,
    load_scenario,
)
from rsop.detector import min_sensing_time
from rsop.errors import EmptyGrid
from rsop.optimizer import (
    GridSpec,
    PointEval,
    brute_force_optimize,
    _evaluate_row,
    evaluate_point,
    optimize_scenario,
)

T = 10e-3


def stub_evaluator(r_fn, feasible_fn=None):
    def ev(tau, p):
        feas = True if feasible_fn is None else feasible_fn(tau, p)
        return PointEval(tau=tau, p=p, r=r_fn(tau, p), t_i=0.0, p_md_max=0.0,
                         feasible=feas)
    return ev


class TestBruteForce:
    def test_monotone_stub_picks_corner(self):
        grid = GridSpec(tau_lo=1e-4, tau_hi=1e-3, tau_steps=2, p_lo=0.1,
                        p_hi=1.0, p_steps=2)
        res = brute_force_optimize(make_config(), grid, default_qos(),
                                   evaluator=stub_evaluator(lambda t, p: t * p))
        assert (res.tau_star, res.p_star) == (1e-3, 1.0)
        assert res.feasible

    def test_single_feasible_point_wins(self):
        grid = GridSpec(tau_lo=1e-4, tau_hi=1e-3, tau_steps=3, p_lo=0.1,
                        p_hi=1.0, p_steps=3)
        target = (1e-4, 0.55)
        res = brute_force_optimize(
            make_config(), grid, default_qos(),
            evaluator=stub_evaluator(lambda t, p: 1.0,
                                     lambda t, p: (t, p) == target))
        assert (res.tau_star, res.p_star) == target

    def test_tie_breaks_toward_small_tau_then_small_p(self):
        grid = GridSpec(tau_lo=1e-4, tau_hi=1e-3, tau_steps=3, p_lo=0.1,
                        p_hi=1.0, p_steps=3)
        res = brute_force_optimize(make_config(), grid, default_qos(),
                                   evaluator=stub_evaluator(lambda t, p: 7.0))
        assert res.tau_star == 1e-4
        assert res.p_star == 0.1

    def test_all_infeasible_reports_best_r(self):
        grid = GridSpec(tau_lo=1e-4, tau_hi=1e-3, tau_steps=2, p_lo=0.1,
                        p_hi=1.0, p_steps=2)
        res = brute_force_optimize(
            make_config(), grid, default_qos(),
            evaluator=stub_evaluator(lambda t, p: t + p, lambda t, p: False))
        assert not res.feasible
        assert (res.tau_star, res.p_star) == (1e-3, 1.0)

    def test_grid_refinement_never_loses(self):
        config = make_config(n_su=4, n_pu=3, presence=0.5)
        resolved = resolve_detector(config, explicit_detector(0.1, 0.9), None, 1e-3)
        qos = default_qos()
        coarse = GridSpec(tau_lo=5e-4, tau_hi=4e-3, tau_steps=5, p_lo=0.1,
                          p_hi=1.0, p_steps=5)
        fine = GridSpec(tau_lo=5e-4, tau_hi=4e-3, tau_steps=9, p_lo=0.1,
                        p_hi=1.0, p_steps=9)  # 2n-1 points: superset
        a = brute_force_optimize(config, coarse, qos, resolved=resolved)
        b = brute_force_optimize(config, fine, qos, resolved=resolved)
        assert b.r_star >= a.r_star - 1e-15

    def test_invalid_grid(self):
        with pytest.raises(EmptyGrid):
            GridSpec(tau_lo=1e-3, tau_hi=1e-3, tau_steps=4)
        with pytest.raises(EmptyGrid):
            GridSpec(tau_lo=1e-4, tau_hi=1e-3, tau_steps=1)

    def test_parallel_matches_serial(self):
        config = make_config(n_su=3, n_pu=3, presence=0.5)
        resolved = resolve_detector(config, explicit_detector(0.1, 0.9), None, 1e-3)
        grid = GridSpec(tau_lo=5e-4, tau_hi=4e-3, tau_steps=6, p_lo=0.1,
                        p_hi=1.0, p_steps=6)
        a = brute_force_optimize(config, grid, default_qos(), resolved=resolved)
        b = brute_force_optimize(config, grid, default_qos(), resolved=resolved,
                                 n_jobs=4)
        assert (a.tau_star, a.p_star, a.r_star) == (b.tau_star, b.p_star, b.r_star)

    def test_pool_runs_a_supplied_evaluator(self):
        grid = GridSpec(tau_lo=1e-4, tau_hi=1e-3, tau_steps=5, p_lo=0.1,
                        p_hi=1.0, p_steps=7)
        ev = stub_evaluator(lambda t, p: -(t - 4e-4) ** 2 - (p - 0.6) ** 2,
                            lambda t, p: p < 0.9)
        a = brute_force_optimize(make_config(), grid, default_qos(), evaluator=ev)
        b = brute_force_optimize(make_config(), grid, default_qos(), evaluator=ev,
                                 n_jobs=3)
        assert a.table == b.table
        assert (a.tau_star, a.p_star) == (b.tau_star, b.p_star)


class TestEvaluatePoint:
    def test_idle_point(self):
        config = make_config(n_su=3, n_pu=3, presence=0.5)
        resolved = resolve_detector(config, explicit_detector(0.1, 0.9), None, 1e-3)
        pt = evaluate_point(config, 1e-3, 0.0, default_qos(), resolved)
        assert pt.r == 0.0 and pt.t_i == 0.0
        assert pt.feasible  # misdetection 0.1 <= 0.15 cap

    def test_vacuous_caps_always_feasible(self):
        config = make_config(n_su=5, n_pu=2, presence=0.9)
        resolved = resolve_detector(config, explicit_detector(0.3, 0.6), None, 1e-3)
        qos = default_qos(t_i_max=1.0, p_md_max=1.0)
        pt = evaluate_point(config, 1e-3, 1.0, qos, resolved)
        assert pt.feasible

    def test_short_probe_violates_misdetection_cap(self):
        # with the false alarm pinned at its cap, probes below the minimum
        # sensing time cannot reach the detection floor (single-stage network
        # so only the stage-1 detector is in play)
        config = make_config(n_su=2, n_pu=1, presence=0.5, pu_power=0.1)
        qos = default_qos(p_md_max=1.0 - 0.9)
        tau_min = min_sensing_time(0.1, config.sampling_freq, qos.p_fa_max,
                                   qos.p_d_min)
        for frac in (0.4, 0.7):
            tau = frac * tau_min
            det = DetectorSpec(mode="energy", calibration="pfa_max",
                               calibrate_tau=tau)
            resolved = resolve_detector(config, det, qos, tau)
            pt = evaluate_point(config, tau, 0.8, qos, resolved)
            assert not pt.feasible
            assert pt.p_md_max > qos.p_md_max
        det = DetectorSpec(mode="energy", calibration="pfa_max",
                           calibrate_tau=1.01 * tau_min)
        resolved = resolve_detector(config, det, qos, 1.01 * tau_min)
        pt = evaluate_point(config, 1.01 * tau_min, 0.8, qos, resolved)
        assert pt.p_md_max <= qos.p_md_max + 1e-9


class TestRowMatchesPoints:
    """A tau row evaluated in batched calls equals ``evaluate_point`` at each
    p, field for field and bit for bit."""

    @staticmethod
    def assert_row_matches(sc, rows, p_steps):
        resolved = resolve_detector(sc.config, sc.detector, sc.qos, sc.params.tau)
        grid = GridSpec.default_for(sc.config, sc.qos, tau_steps=64,
                                    p_steps=p_steps)
        ps = grid.p_values()
        for tau in grid.tau_values()[rows]:
            row = _evaluate_row(sc.config, tau, ps, sc.qos, resolved)
            assert len(row) == len(ps)
            for pt, p in zip(row, ps):
                one = evaluate_point(sc.config, tau, p, sc.qos, resolved)
                assert astuple(pt) == astuple(one)

    @pytest.mark.parametrize("name", sorted(bundled_scenarios()))
    def test_one_analyzer_call_per_row(self, name, monkeypatch):
        # the first row has the most stages; 64 points fit one call
        sc = load_scenario(bundled_scenario_path(name))
        resolved = resolve_detector(sc.config, sc.detector, sc.qos, sc.params.tau)
        grid = GridSpec.default_for(sc.config, sc.qos)
        calls = []
        monkeypatch.setattr(optimizer, "analyze",
                            lambda *args: calls.append(args) or analyze(*args))
        _evaluate_row(sc.config, grid.tau_lo, grid.p_values(), sc.qos, resolved)
        assert len(calls) == 1

    def test_first_row_of_validation_ns5_np100(self):
        # 94 stages x 100 channels at the smallest tau
        sc = load_scenario(bundled_scenario_path("validation_ns5_np100"))
        self.assert_row_matches(sc, slice(0, 1), 64)

    @pytest.mark.parametrize("path", [
        bundled_scenario_path("dense_ns20_np5"),
        bundled_scenario_path("adapt_ns3_np7"),
        str(Path(__file__).with_name("scenarios") / "mixed_ns8_np6.yaml"),
        str(Path(__file__).with_name("scenarios")
            / "mixed_ns8_np6_per_stage.yaml"),
    ], ids=["dense_ns20_np5", "adapt_ns3_np7", "mixed_ns8_np6",
            "mixed_ns8_np6_per_stage"])
    def test_rows_of_the_default_grid(self, path):
        self.assert_row_matches(load_scenario(path), slice(None, None, 8), 16)


class TestScenarioOptimize:
    @pytest.mark.parametrize("kwargs,tau,p", [
        (dict(n_su=20, n_pu=5, presence=0.5, pu_power=0.1, su_power=0.1),
         1e-3, 0.8),
        (dict(n_su=3, n_pu=7, presence=0.05, pu_power=0.02, su_power=0.02),
         2.4428e-3, 0.8),
    ])
    def test_empirically_unimodal_surface(self, kwargs, tau, p):
        # no strictly interior grid point is a 2-D local max worth less than
        # 0.999 r* on the default testbeds
        config = make_config(**kwargs)
        sc = make_scenario(config, tau, p,
                           DetectorSpec(mode="energy", calibration="pd_min"))
        res = optimize_scenario(sc, tau_steps=10, p_steps=14)
        taus = sorted({pt.tau for pt in res.table})
        ps = sorted({pt.p for pt in res.table})
        t_idx = {t: i for i, t in enumerate(taus)}
        p_idx = {q: i for i, q in enumerate(ps)}
        surface = np.full((len(taus), len(ps)), np.nan)
        for pt in res.table:
            surface[t_idx[pt.tau], p_idx[pt.p]] = pt.r
        r_star = np.nanmax(surface)
        for i in range(1, len(taus) - 1):
            for j in range(1, len(ps) - 1):
                v = surface[i, j]
                is_peak = (v > surface[i - 1, j] and v > surface[i + 1, j]
                           and v > surface[i, j - 1] and v > surface[i, j + 1])
                if is_peak:
                    assert v >= 0.999 * r_star
