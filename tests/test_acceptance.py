"""Acceptance suite: one test per shipping criterion, in order.

Each test prints a PASS line (visible under ``pytest -s``) and enforces its
stated tolerance.  Scenario constants live in the bundled files; every
simulated throughput produced here is also checked against the ideal bound in
the final test.
"""

import time

import numpy as np
import pytest

from conftest import explicit_detector, make_config
from enumeration import enumerate_metrics
from rsop.adaptive import (
    convergence_bound,
    convergence_constants,
    corollary_check,
    run_adaptive,
    subgradient_field,
)
from rsop.chain import analyze, analyze_scenario, resolve_detector
from rsop.config import SensingParams, bundled_scenarios, load_bundled
from rsop.core import upper_bound_throughput
from rsop.detector import min_sensing_time
from rsop.optimizer import optimize_scenario
from rsop.simulator import simulate_scenario

T = 10e-3
F_S = 6.857e6

# every network throughput produced by criteria 2-7 and 11 lands here as
# (label, value, bound) and is checked by criterion 11
_PRODUCED: list[tuple[str, float, float]] = []


def _track(label, value, scenario):
    bound = upper_bound_throughput(scenario.config.n_su,
                                   scenario.config.presence_prob)
    _PRODUCED.append((label, value, bound))
    return value


def _report(num, text):
    print(f"\nACCEPTANCE {num:2d}: PASS - {text}")


def test_criterion_01_bruteforce_equivalence():
    """Analyzer matches exhaustive joint enumeration to 1e-6."""
    t0 = time.time()
    p_fa_grid = [0.0, 0.1, 0.3, 0.5, 0.9]
    p_d_grid = [0.55, 0.7, 0.85, 0.95, 1.0]
    worst = 0.0
    checked = 0
    for n_su in (1, 2, 3):
        for n_pu in (1, 2, 3):
            presences = [[0.5] * n_pu, [0.25, 0.55, 0.85][:n_pu]]
            for presence in presences:
                config = make_config(n_su=n_su, n_pu=n_pu, presence=presence)
                for p_fa in p_fa_grid:
                    for p_d in p_d_grid:
                        params = SensingParams(tau=4e-3, p=0.7)
                        resolved = resolve_detector(
                            config, explicit_detector(p_fa, p_d), None, 4e-3)
                        res = analyze(config, params, resolved)
                        assert res.n_stages == min(2, n_pu)
                        r_ref, ti_ref = enumerate_metrics(
                            config, params, res.profiles, res.occupancy)
                        worst = max(worst, abs(res.throughput - r_ref),
                                    abs(res.interference - ti_ref))
                        checked += 1
                        assert res.throughput == pytest.approx(r_ref, abs=1e-6)
                        assert res.interference == pytest.approx(ti_ref, abs=1e-6)
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(1, f"{checked} configurations, worst |analyzer - enumeration| = "
               f"{worst:.2e} (< 1e-6), {elapsed:.1f}s")


def test_criterion_02_simulator_analyzer_agreement():
    """Simulated throughput within max(3 SE, 5%) of the analyzer."""
    t0 = time.time()
    rows = []
    for n_su in (2, 5):
        for n_pu in (5, 10, 20, 50, 100):
            sc = load_bundled(f"validation_ns{n_su}_np{n_pu}")
            ana = analyze_scenario(sc)
            sim = simulate_scenario(sc, n_slots=500, n_reps=20, seed=2024)
            _track(f"c2 ns{n_su} np{n_pu}", sim.network_throughput, sc)
            gap = abs(sim.network_throughput - ana.network_throughput)
            tol = max(3 * sim.se_network_throughput,
                      0.05 * ana.network_throughput)
            rows.append(gap / ana.network_throughput)
            assert gap <= tol, (n_su, n_pu, gap, tol)
    elapsed = time.time() - t0
    assert elapsed < 600
    _report(2, f"10 network shapes, worst relative gap "
               f"{max(rows):.2%} (tolerance 5%), {elapsed:.1f}s")


def test_criterion_03_sensing_time_tradeoff():
    """Throughput peaks at an interior sensing time; interference never rises."""
    sc = load_bundled("tradeoff_ns3_np7")
    tau_min = min_sensing_time(float(sc.config.snr_stage1[0]), F_S,
                               sc.qos.p_fa_max, sc.qos.p_d_min)
    taus = np.concatenate([np.linspace(tau_min, 10 * tau_min, 25),
                           np.linspace(11 * tau_min, 0.5 * T, 15)])
    results = [analyze_scenario(sc, tau=float(t)) for t in taus]
    rs = np.array([r.network_throughput for r in results])
    tis = np.array([r.interference for r in results])
    i = int(np.argmax(rs))
    assert 0 < i < len(taus) - 1
    assert rs[i] > rs[0] and rs[i] > rs[-1]
    assert np.all(np.diff(tis) <= 1e-12)
    _report(3, f"r(tau) peaks at tau = {taus[i]:.2e}s "
               f"({rs[i]:.3f} vs ends {rs[0]:.3f}/{rs[-1]:.3f}); "
               f"t_I falls {tis[0]:.4f} -> {tis[-1]:.4f}")


def test_criterion_04_access_probability_tradeoff():
    """Both model and simulation peak at an interior sensing probability."""
    sc = load_bundled("dense_ns20_np5")
    ps = np.round(np.arange(0.05, 1.0001, 0.05), 10)
    ana = np.array([analyze_scenario(sc, p=float(p)).network_throughput
                    for p in ps])
    ia = int(np.argmax(ana))
    assert 0 < ia < len(ps) - 1 and ana[ia] > ana[0] and ana[ia] > ana[-1]

    sims = [simulate_scenario(sc, n_slots=6000, seed=77, p=float(p)) for p in ps]
    sim = np.array([m.network_throughput for m in sims])
    ses = np.array([m.se_network_throughput for m in sims])
    for p, m in zip(ps, sims):
        _track(f"c4 p={p}", m.network_throughput, sc)
    im = int(np.argmax(sim))
    assert 0 < im < len(ps) - 1
    assert sim[im] > sim[0] + 3 * np.hypot(ses[im], ses[0])
    assert sim[im] > sim[-1] + 3 * np.hypot(ses[im], ses[-1])
    _report(4, f"interior maxima: analyzer p* = {ps[ia]} "
               f"({ana[ia]:.3f}), simulator p* = {ps[im]} ({sim[im]:.3f})")


def test_criterion_05_false_alarm_paradox():
    """More false alarms help a dense secondary network."""
    sc = load_bundled("false_alarm_np5")
    from dataclasses import replace
    out = {}
    for n_su in (20, 50):
        for p_fa in (0.01, 0.3):
            config = replace(sc.config, n_su=n_su)
            det = replace(sc.detector, p_fa=p_fa)
            sc2 = replace(sc, config=config, detector=det)
            m = simulate_scenario(sc2, n_slots=10_000, seed=31)
            _track(f"c5 ns{n_su} pfa{p_fa}", m.network_throughput, sc2)
            out[(n_su, p_fa)] = m
    hi = out[(50, 0.3)].network_throughput
    lo = out[(50, 0.01)].network_throughput
    se = np.hypot(out[(50, 0.3)].se_network_throughput,
                  out[(50, 0.01)].se_network_throughput)
    assert hi > lo + 4 * se
    gain50 = hi / lo - 1.0
    gain20 = (out[(20, 0.3)].network_throughput
              / out[(20, 0.01)].network_throughput - 1.0)
    assert gain50 > gain20
    _report(5, f"P_fa 0.01 -> 0.3 lifts throughput by {gain20:+.1%} at N_s=20 "
               f"and {gain50:+.1%} at N_s=50")


def test_criterion_06_adaptive_vs_optimal():
    """Closed loops track (and fine tuning beats) the static benchmark."""
    t0 = time.time()
    lines = []
    for shape in ((3, 7), (5, 7), (7, 3), (7, 5)):
        sc = load_bundled(f"adapt_ns{shape[0]}_np{shape[1]}")
        opt = optimize_scenario(sc, tau_steps=48, p_steps=48)
        assert opt.feasible
        net_rstar = sc.config.n_su * opt.r_star
        # paired design: both algorithms face the same slot randomness
        run1 = run_adaptive(sc, algorithm=1, n_frames=700, seed=21)
        run2 = run_adaptive(sc, algorithm=2, n_frames=700, seed=21)
        a1 = _track(f"c6 alg1 {shape}", run1.converged_network_throughput, sc)
        a2 = _track(f"c6 alg2 {shape}", run2.converged_network_throughput, sc)
        assert a1 >= 0.95 * net_rstar, (shape, a1, net_rstar)
        assert a2 >= 0.99 * a1, (shape, a2, a1)
        assert a2 >= 0.99 * net_rstar, (shape, a2, net_rstar)
        for run in (run1, run2):
            assert run.converged_interference <= (
                sc.qos.t_i_max + 2 * run.se_interference), shape
        lines.append(f"{shape}: alg1/r*={a1 / net_rstar:.2f} "
                     f"alg2/r*={a2 / net_rstar:.2f}")
    elapsed = time.time() - t0
    assert elapsed < 900
    _report(6, "; ".join(lines) + f"; {elapsed:.0f}s")


def test_criterion_07_p_persistent_comparison():
    """Skipping probes saves >= 10% sensing at < 1% throughput cost."""
    for shape in ((3, 7), (5, 7), (7, 3), (7, 5)):
        sc = load_bundled(f"adapt_ns{shape[0]}_np{shape[1]}")
        conv = simulate_scenario(sc, n_slots=150_000, seed=101,
                                 protocol="conventional")
        mod = simulate_scenario(sc, n_slots=150_000, seed=202,
                                protocol="modified")
        _track(f"c7 conv {shape}", conv.network_throughput, sc)
        _track(f"c7 mod {shape}", mod.network_throughput, sc)
        saving = 1.0 - mod.sensing_overhead / conv.sensing_overhead
        rel_diff = abs(mod.network_throughput - conv.network_throughput) \
            / conv.network_throughput
        assert saving >= 0.10, (shape, saving)
        assert rel_diff < 0.01, (shape, rel_diff)
    _report(7, f"last shape {shape}: overhead saving {saving:.1%}, "
               f"throughput difference {rel_diff:.2%}")


def test_criterion_08_convergence_machinery():
    """Norm identity, running-best bound, and the step-size corollary."""
    sc = load_bundled("adapt_ns3_np7")
    opt = optimize_scenario(sc, tau_steps=48, p_steps=48)
    run = run_adaptive(sc, algorithm=1, n_frames=300, seed=5,
                       track_objective=True)

    # (a) every logged step has the exact stacked subgradient norm
    g2, r2 = convergence_constants(sc.config.n_su, T, 1e-4, 0.025)
    for fl in run.frames:
        assert fl.g_norm_sq == pytest.approx(g2, abs=1e-15)

    # (b) running best objective obeys the harmonic-step bound against the
    # benchmark optimum at every logged frame
    f_star = -opt.r_star
    checked = 0
    for fl in run.frames:
        if np.isnan(fl.f_best):
            continue
        bound = convergence_bound(g2, r2, fl.k)
        assert abs(fl.f_best - f_star) <= bound, (fl.k, fl.f_best, f_star, bound)
        checked += 1
    assert checked > 250

    # (c) corollary partial sums match hand arithmetic
    assert corollary_check(0.0, 1e-9, 1)
    assert corollary_check(convergence_constants(20, T, 1e-4, 0.025)[0],
                           100.0, 3)
    g2_dense = convergence_constants(20, T, 1e-4, 0.025)[0]
    assert not corollary_check(g2_dense, 1e-3, 1)
    assert corollary_check(g2_dense, 1e-3, 60_000)
    _report(8, f"norm identity on {len(run.frames)} frames; bound held at "
               f"{checked} frames; corollary arithmetic verified")


def test_criterion_09_subgradient_field():
    """Mean update direction aligns with the analytic gradient off-optimum."""
    t0 = time.time()
    sc = load_bundled("field_ns5_np5")
    taus, ps = np.meshgrid([5.7e-3, 6.5e-3, 7.5e-3, 8.5e-3],
                           [0.25, 0.45, 0.7, 0.9])
    points = subgradient_field(sc, taus.ravel(), ps.ravel(),
                               n_realizations=5000, seed=88)
    aligned = sum(pt.aligned for pt in points)
    elapsed = time.time() - t0
    assert aligned >= 0.9 * len(points)
    assert elapsed < 600
    _report(9, f"{aligned}/{len(points)} probe points aligned "
               f"(need 90%), {elapsed:.0f}s")


def test_criterion_10_stage_detection_monotonicity():
    """Detection improves across stages and saturates; false alarm is flat."""
    sc = load_bundled("detection_stages_ns20_np10")
    res = analyze_scenario(sc)
    p_d = res.profiles.p_d
    assert np.all(np.diff(p_d, axis=1) >= -1e-12)
    inc_12 = p_d[:, 1] - p_d[:, 0]
    inc_23 = p_d[:, 2] - p_d[:, 1]
    assert np.all(inc_12 > inc_23)
    # false alarm never enters the stage axis at all
    assert res.profiles.p_fa.shape == (sc.config.n_pu,)
    _report(10, f"P_d rises {p_d[0, 0]:.3f} -> {p_d[0, 1]:.5f} then saturates; "
                f"stage-constant P_fa = {res.profiles.p_fa[0]:.2e}")


def test_criterion_11_upper_bound_dominance():
    """No produced throughput exceeds min(N_s, sum of vacancies).

    The criterion makes its own values, the analyzer's largest over every
    bundled scenario's default grid (the bound is one number per scenario)
    and a short simulation of each at its nominal point, and re-checks
    whatever criteria 2-7 produced in this session."""
    n_before = len(_PRODUCED)
    for name in bundled_scenarios():
        sc = load_bundled(name)
        grid = optimize_scenario(sc).columns
        k = int(np.argmax(grid["r"]))
        _track(f"c11 {name} tau={grid['tau'][k]:.3e} p={grid['p'][k]:.3f}",
               sc.config.n_su * grid["r"][k], sc)
        sim = simulate_scenario(sc, n_slots=2000, seed=11)
        _track(f"c11 {name} simulated", sim.network_throughput, sc)
    own = _PRODUCED[n_before:]
    assert len(own) >= 30
    worst = min(bound - value for _, value, bound in _PRODUCED)
    for label, value, bound in _PRODUCED:
        assert value <= bound + 1e-9, (label, value, bound)
    _report(11, f"{len(_PRODUCED)} throughput values ({len(own)} of its own), "
                f"smallest bound margin {worst:.3f}")
