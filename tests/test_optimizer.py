from dataclasses import astuple, fields
from pathlib import Path

import numpy as np
import pytest

from conftest import default_qos, explicit_detector, make_config, make_scenario
from rsop import chain, optimizer
from rsop.chain import analyze, resolve_detector
from rsop.config import (
    DetectorSpec,
    bundled_scenario_path,
    bundled_scenarios,
    load_scenario,
)
from rsop.core import max_sensing_stages
from rsop.detector import min_sensing_time
from rsop.errors import EmptyGrid, ScenarioError
from rsop.optimizer import (
    GridSpec,
    PointEval,
    brute_force_optimize,
    evaluate_point,
    evaluate_points,
    optimize_scenario,
)

T = 10e-3


def stub_points(monkeypatch, r_fn, feasible_fn=None):
    """Make ``brute_force_optimize`` read columns of ``r_fn(tau, p)`` and
    ``feasible_fn(tau, p)`` (every point when None) in place of the
    analyzer's."""
    def evaluate(config, tau, p, qos, resolved):
        return {"tau": tau, "p": p,
                "r": np.array([r_fn(t, q) for t, q in zip(tau, p)]),
                "t_i": np.zeros(len(tau)), "p_md_max": np.zeros(len(tau)),
                "feasible": np.array([True if feasible_fn is None
                                      else feasible_fn(t, q)
                                      for t, q in zip(tau, p)])}
    monkeypatch.setattr(optimizer, "evaluate_points", evaluate)


class TestBruteForce:
    def test_monotone_stub_picks_corner(self, monkeypatch):
        grid = GridSpec(tau_lo=1e-4, tau_hi=1e-3, tau_steps=2, p_lo=0.1,
                        p_hi=1.0, p_steps=2)
        stub_points(monkeypatch, lambda t, p: t * p)
        res = brute_force_optimize(make_config(), grid, default_qos(), None)
        assert (res.tau_star, res.p_star) == (1e-3, 1.0)
        assert res.feasible

    def test_single_feasible_point_wins(self, monkeypatch):
        grid = GridSpec(tau_lo=1e-4, tau_hi=1e-3, tau_steps=3, p_lo=0.1,
                        p_hi=1.0, p_steps=3)
        target = (1e-4, 0.55)
        stub_points(monkeypatch, lambda t, p: 1.0, lambda t, p: (t, p) == target)
        res = brute_force_optimize(make_config(), grid, default_qos(), None)
        assert (res.tau_star, res.p_star) == target

    def test_tie_breaks_toward_small_tau_then_small_p(self, monkeypatch):
        grid = GridSpec(tau_lo=1e-4, tau_hi=1e-3, tau_steps=3, p_lo=0.1,
                        p_hi=1.0, p_steps=3)
        stub_points(monkeypatch, lambda t, p: 7.0)
        res = brute_force_optimize(make_config(), grid, default_qos(), None)
        assert res.tau_star == 1e-4
        assert res.p_star == 0.1

    def test_all_infeasible_reports_best_r(self, monkeypatch):
        grid = GridSpec(tau_lo=1e-4, tau_hi=1e-3, tau_steps=2, p_lo=0.1,
                        p_hi=1.0, p_steps=2)
        stub_points(monkeypatch, lambda t, p: t + p, lambda t, p: False)
        res = brute_force_optimize(make_config(), grid, default_qos(), None)
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
        a = brute_force_optimize(config, coarse, qos, resolved)
        b = brute_force_optimize(config, fine, qos, resolved)
        assert b.r_star >= a.r_star - 1e-15

    def test_invalid_grid(self):
        with pytest.raises(EmptyGrid):
            GridSpec(tau_lo=1e-3, tau_hi=1e-3, tau_steps=4)
        with pytest.raises(EmptyGrid):
            GridSpec(tau_lo=1e-4, tau_hi=1e-3, tau_steps=1)


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


def grid_points(grid, rows=slice(None)):
    """Aligned (tau, p) arrays of the grid's tau rows ``rows``, tau-major."""
    taus, ps = grid.tau_values()[rows], grid.p_values()
    return np.repeat(taus, len(ps)), np.tile(ps, len(taus))


def assert_points_match(sc, tau, p):
    """``evaluate_points`` equals ``evaluate_point`` at every point, field
    for field and bit for bit."""
    resolved = resolve_detector(sc.config, sc.detector, sc.qos, sc.params.tau)
    cols = evaluate_points(sc.config, tau, p, sc.qos, resolved)
    assert list(cols) == [f.name for f in fields(PointEval)]
    assert all(len(c) == len(tau) for c in cols.values())
    for i in range(len(tau)):
        one = evaluate_point(sc.config, tau[i], p[i], sc.qos, resolved)
        assert tuple(c[i].item() for c in cols.values()) == astuple(one)


class TestRowMatchesPoints:
    """Grid rows evaluated in batched calls equal ``evaluate_point`` at each
    point, field for field and bit for bit."""

    @staticmethod
    def assert_row_matches(sc, rows, p_steps):
        grid = GridSpec.default_for(sc.config, sc.qos, tau_steps=64,
                                    p_steps=p_steps)
        assert_points_match(sc, *grid_points(grid, rows))

    @pytest.mark.parametrize("name", sorted(bundled_scenarios()))
    def test_one_analyzer_call_per_row(self, name, monkeypatch):
        # the first row has the most stages; 64 points fit one call
        sc = load_scenario(bundled_scenario_path(name))
        resolved = resolve_detector(sc.config, sc.detector, sc.qos, sc.params.tau)
        grid = GridSpec.default_for(sc.config, sc.qos)
        calls = []
        monkeypatch.setattr(optimizer, "analyze",
                            lambda *args: calls.append(args) or analyze(*args))
        ps = grid.p_values()
        evaluate_points(sc.config, np.full(len(ps), grid.tau_lo), ps, sc.qos,
                         resolved)
        assert len(calls) == 1

    def test_first_row_of_validation_ns5_np100(self):
        # 94 stages x 100 channels at the smallest tau
        sc = load_scenario(bundled_scenario_path("validation_ns5_np100"))
        self.assert_row_matches(sc, slice(0, 1), 64)

    @pytest.mark.parametrize("path", [
        bundled_scenario_path("dense_ns20_np5"),
        bundled_scenario_path("adapt_ns3_np7"),
        str(Path(__file__).with_name("scenarios") / "mixed_ns8_np6.yaml"),
    ], ids=["dense_ns20_np5", "adapt_ns3_np7", "mixed_ns8_np6"])
    def test_rows_of_the_default_grid(self, path):
        self.assert_row_matches(load_scenario(path), slice(None, None, 8), 16)


MIXED_DIR = Path(__file__).with_name("scenarios")


class TestStageBudgetGroups:
    """The whole grid is evaluated in blocks of mixed delta(tau)."""

    @pytest.mark.parametrize("path", [
        bundled_scenario_path("validation_ns5_np20"),
        bundled_scenario_path("false_alarm_np5"),
        str(MIXED_DIR / "mixed_ns8_np6.yaml"),
    ], ids=["validation_ns5_np20", "false_alarm_np5", "mixed_ns8_np6"])
    def test_full_grid_equals_points(self, path):
        sc = load_scenario(path)
        grid = GridSpec.default_for(sc.config, sc.qos, tau_steps=16, p_steps=16)
        tau, p = grid_points(grid)
        deltas = max_sensing_stages(sc.config.slot_duration, tau,
                                    sc.config.handoff_time, sc.config.n_pu)
        assert len(np.unique(deltas)) > 1
        assert_points_match(sc, tau, p)

    @pytest.mark.parametrize("name,calls,stages", [
        ("validation_ns5_np100", 4, 148), ("dense_ns20_np5", 2, 7)])
    def test_calls_per_default_grid(self, name, calls, stages, monkeypatch):
        # 1 channel class each; the cell cap cuts the points, longest budget
        # first, into blocks of 94, 38, 12 and 4 stages (validation_ns5_np100,
        # budgets 94 down to 1) and of 5 and 2 stages (dense_ns20_np5).
        # ``stages`` counts the stage walk's iterations.
        sc = load_scenario(bundled_scenario_path(name))
        seen, walked = [], []
        monkeypatch.setattr(optimizer, "analyze",
                            lambda *args: seen.append(args) or analyze(*args))
        walk = chain.occupancy_evolution
        monkeypatch.setattr(chain, "occupancy_evolution",
                            lambda config, params, profiles:
                            walked.append(profiles.n_stages)
                            or walk(config, params, profiles))
        res = optimize_scenario(sc)
        assert len(seen) == calls
        assert sum(walked) == stages
        assert len(res.table) == 64 * 64

    def test_blocks_stay_under_the_cell_cap(self, monkeypatch):
        # shuffled points: a block is cut by its longest budget wherever
        # that point sits
        sc = load_scenario(bundled_scenario_path("validation_ns5_np100"))
        grid = GridSpec.default_for(sc.config, sc.qos, tau_steps=16, p_steps=64)
        tau, p = grid_points(grid)
        order = np.random.default_rng(1).permutation(len(tau))
        resolved = resolve_detector(sc.config, sc.detector, sc.qos, sc.params.tau)
        cells = []

        def recording(config, params, resolved):
            res = analyze(config, params, resolved)
            cells.append(np.size(params.p) * res.n_stages)  # 1 channel class
            return res

        monkeypatch.setattr(optimizer, "analyze", recording)
        evaluate_points(sc.config, tau[order], p[order], sc.qos, resolved)
        assert len(cells) > 1 and max(cells) <= optimizer._CHUNK_CELLS

    def test_points_keep_input_order(self):
        sc = load_scenario(bundled_scenario_path("dense_ns20_np5"))
        grid = GridSpec.default_for(sc.config, sc.qos, tau_steps=8, p_steps=5)
        tau, p = grid_points(grid)
        order = np.random.default_rng(0).permutation(len(tau))
        resolved = resolve_detector(sc.config, sc.detector, sc.qos, sc.params.tau)
        whole = evaluate_points(sc.config, tau, p, sc.qos, resolved)
        shuffled = evaluate_points(sc.config, tau[order], p[order], sc.qos,
                                    resolved)
        for name in whole:
            assert np.array_equal(shuffled[name], whole[name][order]), name

    def test_outside_the_box_is_rejected(self):
        config = make_config(n_su=3, n_pu=3, presence=0.5)
        resolved = resolve_detector(config, explicit_detector(0.1, 0.9), None, 1e-3)
        for tau, p in ((np.array([1e-3, 2 * T]), np.array([0.5, 0.5])),
                       (np.array([1e-3, np.nan]), np.array([0.5, 0.5])),
                       (np.array([1e-3, 2e-3]), np.array([0.5, 1.5]))):
            with pytest.raises(ScenarioError):
                evaluate_points(config, tau, p, default_qos(), resolved)


class TestOptResultColumns:
    def test_table_is_built_from_the_columns(self):
        config = make_config(n_su=4, n_pu=3, presence=0.5)
        resolved = resolve_detector(config, explicit_detector(0.1, 0.9), None, 1e-3)
        grid = GridSpec(tau_lo=5e-4, tau_hi=4e-3, tau_steps=4, p_lo=0.1,
                        p_hi=1.0, p_steps=3)
        res = brute_force_optimize(config, grid, default_qos(), resolved)
        assert res.table is res.table
        assert [pt.tau for pt in res.table] == res.columns["tau"].tolist()
        assert [pt.feasible for pt in res.table] == res.columns["feasible"].tolist()
        assert all(type(pt.feasible) is bool for pt in res.table)
        best = max(res.table, key=lambda pt: (pt.feasible, pt.r, -pt.tau, -pt.p))
        assert (res.tau_star, res.p_star, res.r_star, res.t_i_at_star,
                res.feasible) == (best.tau, best.p, best.r, best.t_i, best.feasible)
        assert type(res.feasible) is bool


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
