"""Batch experiment front end: runs a study, emits tidy CSV plus a manifest.

Output files carry comment headers (tool version, scenario hash, seed) and are
byte-identical across reruns of the same spec.  Plots are not rendered here;
every figure-style experiment produces the data behind it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .adaptive import run_adaptive, subgradient_field
from .chain import analyze_scenario, resolve_detector
from .config import Scenario
from .core import upper_bound_throughput
from .errors import ScenarioError
from .optimizer import optimize_scenario
from .simulator import SuSchedules, simulate_scenario, simulate_slots


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, meta: dict, columns: list[str], rows) -> Path:
    """Write a schema-checked CSV with reproducible comment headers."""
    lines = [f"# rsop {__version__}"]
    for key in sorted(meta):
        lines.append(f"# {key}: {meta[key]}")
    lines.append(",".join(columns))
    for row in rows:
        if len(row) != len(columns):
            raise ScenarioError(
                f"row width {len(row)} != declared columns {len(columns)}")
        lines.append(",".join(_fmt(v) for v in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def _meta(scenario: Scenario, seed, **extra) -> dict:
    meta = {"scenario": scenario.name, "scenario_hash": scenario.content_hash(),
            "seed": seed}
    meta.update(extra)
    return meta


@dataclass
class ExperimentOutput:
    files: list[Path]
    summary: dict

    def manifest(self, out_dir: Path, name: str) -> Path:
        path = Path(out_dir) / f"{name}.manifest.json"
        doc = {"tool": f"rsop {__version__}",
               "files": [str(f.name) for f in self.files],
               "summary": self.summary}
        path.write_text(json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n")
        self.files.append(path)
        return path


def chain_detail_rows(result) -> list[tuple]:
    """Per-(channel, stage) analyzer tables as flat CSV rows."""
    rows = []
    tau, p = result.params.tau, result.params.p
    for m in range(result.occupancy.occ.shape[0]):
        for n in range(result.n_stages):
            rows.append((
                tau, p, m + 1, n + 1,
                result.occupancy.occ[m, n], result.profiles.p_fa[m],
                result.profiles.p_d[m, n], result.dist.pi_channel[m, n],
                result.success[m, n], result.no_tx[m, n],
                result.no_interf[m, n],
            ))
    return rows


_DETAIL_COLUMNS = ["tau", "p", "channel", "stage", "occupancy", "p_fa", "p_d",
                   "pi_channel", "success_prob", "no_tx_prob",
                   "no_interf_prob"]


def run_analyze(scenario: Scenario, out_dir, axis: str = "p",
                values=None, seed=0) -> ExperimentOutput:
    """Analyzer sweep over p (default; one batched call at the nominal tau) or
    tau; the data behind the tradeoff figures.  Also writes the per-(channel,
    stage) tables at the nominal point."""
    out_dir = Path(out_dir)
    if values is None:
        if axis == "p":
            values = np.round(np.arange(0.05, 1.0001, 0.05), 10)
        elif axis == "tau":
            lo = scenario.params.tau
            values = np.linspace(lo, 0.5 * scenario.config.slot_duration, 40)
        else:
            raise ScenarioError(f"unknown sweep axis {axis!r}")
    results = ([analyze_scenario(scenario, p=np.asarray(values, dtype=float))]
               if axis == "p" else
               [analyze_scenario(scenario, tau=float(v)) for v in values])
    rows = [tuple(row) for res in results for row in np.column_stack(np.broadcast_arrays(
        res.params.tau, res.params.p, res.throughput, res.network_throughput,
        res.interference, res.p_md_max))]
    path = write_csv(out_dir / f"analyze_{axis}.csv",
                     _meta(scenario, seed, axis=axis),
                     ["tau", "p", "r", "network_r", "t_i", "p_md_max"], rows)
    detail = write_csv(out_dir / "chain_detail.csv", _meta(scenario, seed),
                       _DETAIL_COLUMNS, chain_detail_rows(analyze_scenario(scenario)))
    best = max(rows, key=lambda r: r[3])
    out = ExperimentOutput([path, detail], {
        "axis": axis, "best_network_r": best[3], "best_tau": best[0],
        "best_p": best[1],
    })
    out.manifest(out_dir, f"analyze_{axis}")
    return out


def run_simulate(scenario: Scenario, out_dir, axis: str | None = None,
                 values=None, n_slots: int = 10_000, n_reps: int = 1,
                 seed=0, protocol: str = "modified", n_jobs: int = 1,
                 trace_rows: int = 0) -> ExperimentOutput:
    """Monte Carlo at the nominal point, or swept along one axis.

    ``trace_rows`` > 0 additionally dumps up to that many per-slot, per-SU
    outcome rows from a dedicated replication (debugging aid)."""
    out_dir = Path(out_dir)
    if axis is not None and (values is None or len(values) == 0):
        raise ScenarioError(f"a sweep along {axis!r} needs values")
    if axis is None and values is not None:
        raise ScenarioError("sweep values need an axis (p or tau)")
    rows = []
    sweep = [(None, None)]
    if axis == "p":
        sweep = [(None, float(v)) for v in values]
    elif axis == "tau":
        sweep = [(float(v), None) for v in values]
    elif axis is not None:
        raise ScenarioError(f"unknown sweep axis {axis!r}")
    for tau_v, p_v in sweep:
        m = simulate_scenario(scenario, n_slots=n_slots, seed=seed,
                              protocol=protocol, n_reps=n_reps, n_jobs=n_jobs,
                              tau=tau_v, p=p_v)
        rows.append((
            tau_v if tau_v is not None else scenario.params.tau,
            p_v if p_v is not None else scenario.params.p,
            m.throughput, m.network_throughput, m.interference,
            m.sensing_overhead, m.handoffs, m.delay, m.success_rate,
            m.collision_rate, m.se_network_throughput,
        ))
    name = f"simulate_{axis or 'point'}"
    path = write_csv(out_dir / f"{name}.csv",
                     _meta(scenario, seed, protocol=protocol, n_slots=n_slots,
                           n_reps=n_reps),
                     ["tau", "p", "r", "network_r", "t_i", "overhead",
                      "handoffs", "delay", "success_rate", "collision_rate",
                      "se_network_r"], rows)
    files = [path]
    if trace_rows > 0:
        files.append(_write_trace(scenario, out_dir, seed, protocol,
                                  trace_rows))
    out = ExperimentOutput(files, {"points": len(rows)})
    out.manifest(out_dir, name)
    return out


def _write_trace(scenario: Scenario, out_dir: Path, seed, protocol: str,
                 cap: int) -> Path:
    """Per-slot, per-SU outcome rows from one short replication, capped."""
    resolved = resolve_detector(scenario.config, scenario.detector,
                                scenario.qos, scenario.params.tau)
    schedules = SuSchedules.homogeneous(scenario.config, scenario.params)
    n_su = scenario.config.n_su
    n_slots = max(1, (cap + n_su - 1) // n_su)
    batch = simulate_slots(scenario.config, schedules, resolved, n_slots,
                           np.random.default_rng(seed), protocol=protocol)
    rows = []
    for s in range(n_slots):
        for j in range(n_su):
            if len(rows) >= cap:
                break
            rows.append((s, j, batch.transmitted[s, j], batch.success[s, j],
                         batch.collided[s, j], batch.interfered_entry[s, j],
                         int(batch.tx_channel[s, j]) + 1,
                         int(batch.tx_stage[s, j]), batch.throughput[s, j],
                         batch.overhead[s, j], batch.delay[s, j]))
    return write_csv(out_dir / "trace.csv",
                     _meta(scenario, seed, protocol=protocol, row_cap=cap),
                     ["slot", "su", "transmitted", "success", "collided",
                      "interfered", "channel", "stage", "throughput",
                      "overhead", "delay"], rows)


def run_optimize(scenario: Scenario, out_dir, tau_steps: int = 64,
                 p_steps: int = 64, seed=0, n_jobs: int = 1) -> ExperimentOutput:
    """Brute-force grid; writes the full surface and the optimum."""
    out_dir = Path(out_dir)
    result = optimize_scenario(scenario, tau_steps=tau_steps, p_steps=p_steps,
                               n_jobs=n_jobs)
    rows = [(pt.tau, pt.p, pt.r, scenario.config.n_su * pt.r, pt.t_i,
             pt.p_md_max, pt.feasible) for pt in result.table]
    path = write_csv(out_dir / "grid.csv",
                     _meta(scenario, seed, tau_steps=tau_steps, p_steps=p_steps),
                     ["tau", "p", "r", "network_r", "t_i", "p_md_max",
                      "feasible"], rows)
    summary = {
        "tau_star": result.tau_star, "p_star": result.p_star,
        "r_star": result.r_star,
        "network_r_star": scenario.config.n_su * result.r_star,
        "t_i_at_star": result.t_i_at_star, "feasible": result.feasible,
    }
    out = ExperimentOutput([path], summary)
    out.manifest(out_dir, "optimize")
    return out


def run_adapt(scenario: Scenario, out_dir, algorithm: int = 1,
              n_frames: int = 500, seed=0) -> ExperimentOutput:
    """Closed-loop adaptation; writes the per-SU trajectory."""
    out_dir = Path(out_dir)
    run = run_adaptive(scenario, algorithm=algorithm, n_frames=n_frames,
                       seed=seed)
    rows = []
    for fl in run.frames:
        for j in range(scenario.config.n_su):
            rows.append((fl.k, j, fl.tau[j], fl.p[j], fl.r_est[j], fl.t_i_est,
                         fl.improved[j], fl.flip_tau[j], fl.flip_p[j]))
    path = write_csv(out_dir / f"adapt_alg{algorithm}.csv",
                     _meta(scenario, seed, algorithm=algorithm,
                           n_frames=n_frames),
                     ["k", "su", "tau", "p", "r_est", "t_i_est", "improved",
                      "flip_tau", "flip_p"], rows)
    summary = {
        "algorithm": algorithm,
        "converged_network_throughput": run.converged_network_throughput,
        "converged_interference": run.converged_interference,
        "final_tau_mean": float(run.final_tau.mean()),
        "final_p_mean": float(run.final_p.mean()),
    }
    out = ExperimentOutput([path], summary)
    out.manifest(out_dir, f"adapt_alg{algorithm}")
    return out


def run_false_alarm_sweep(scenario: Scenario, out_dir,
                          p_fa_values=(0.01, 0.1, 0.3),
                          n_su_values=(20, 50), n_slots: int = 10_000,
                          seed=0) -> ExperimentOutput:
    """Throughput against the false-alarm probability for several network
    densities (detection held fixed via the explicit detector)."""
    if len(p_fa_values) == 0 or len(n_su_values) == 0:
        raise ScenarioError("false-alarm sweep needs at least one p_fa and one n_su")
    out_dir = Path(out_dir)
    rows = []
    for n_su in n_su_values:
        for p_fa in p_fa_values:
            config = replace(scenario.config, n_su=int(n_su))
            det = replace(scenario.detector, mode="explicit",
                          p_fa=float(p_fa),
                          p_d=scenario.detector.p_d
                          if scenario.detector.p_d is not None
                          else scenario.qos.p_d_min)
            sc = replace(scenario, config=config, detector=det,
                         name=f"{scenario.name}_ns{n_su}_pfa{p_fa}")
            m = simulate_scenario(sc, n_slots=n_slots, seed=seed)
            rows.append((int(n_su), float(p_fa), m.throughput,
                         m.network_throughput, m.interference,
                         m.se_network_throughput))
    path = write_csv(out_dir / "false_alarm_sweep.csv",
                     _meta(scenario, seed, n_slots=n_slots),
                     ["n_su", "p_fa", "r", "network_r", "t_i",
                      "se_network_r"], rows)
    out = ExperimentOutput([path], {"points": len(rows)})
    out.manifest(out_dir, "false_alarm_sweep")
    return out


def run_ppersistent_compare(scenario: Scenario, out_dir, n_slots: int = 60_000,
                            seed=0) -> ExperimentOutput:
    """Modified vs conventional p-persistent access at the nominal point."""
    out_dir = Path(out_dir)
    rows = []
    stats = {}
    for idx, protocol in enumerate(("conventional", "modified")):
        m = simulate_scenario(scenario, n_slots=n_slots, seed=seed + idx,
                              protocol=protocol)
        rows.append((protocol, m.throughput, m.network_throughput,
                     m.sensing_overhead, m.interference,
                     m.se_network_throughput))
        stats[protocol] = m
    path = write_csv(out_dir / "ppersistent.csv",
                     _meta(scenario, seed, n_slots=n_slots),
                     ["protocol", "r", "network_r", "overhead", "t_i",
                      "se_network_r"], rows)
    conv, mod = stats["conventional"], stats["modified"]
    summary = {
        "overhead_reduction": 1.0 - mod.sensing_overhead / conv.sensing_overhead,
        "throughput_rel_diff": abs(mod.network_throughput - conv.network_throughput)
        / conv.network_throughput,
    }
    out = ExperimentOutput([path], summary)
    out.manifest(out_dir, "ppersistent")
    return out


def run_subgradient_field(scenario: Scenario, out_dir, taus=None, ps=None,
                          n_realizations: int = 5000, seed=0) -> ExperimentOutput:
    """Mean update-direction field against the analytic gradient."""
    out_dir = Path(out_dir)
    if taus is None or ps is None:
        raise ScenarioError("subgradient-field needs explicit probe points")
    if len(taus) != len(ps):
        raise ScenarioError(
            f"subgradient-field needs one p per tau, got {len(taus)} taus "
            f"and {len(ps)} ps")
    points = subgradient_field(scenario, taus, ps,
                               n_realizations=n_realizations, seed=seed)
    rows = [(pt.tau, pt.p, pt.mean_g[0], pt.mean_g[1], pt.grad_f[0],
             pt.grad_f[1], pt.inner, pt.aligned) for pt in points]
    path = write_csv(out_dir / "subgradient_field.csv",
                     _meta(scenario, seed, n_realizations=n_realizations),
                     ["tau", "p", "g_tau", "g_p", "grad_f_tau", "grad_f_p",
                      "inner", "aligned"], rows)
    aligned = sum(pt.aligned for pt in points)
    out = ExperimentOutput([path], {"points": len(points),
                                    "aligned": aligned,
                                    "aligned_fraction": aligned / len(points)})
    out.manifest(out_dir, "subgradient_field")
    return out


def run_upper_bound(scenario: Scenario, out_dir, seed=0) -> ExperimentOutput:
    """The ideal throughput bound for the scenario."""
    out_dir = Path(out_dir)
    bound = upper_bound_throughput(scenario.config.n_su,
                                   scenario.config.presence_prob)
    path = write_csv(out_dir / "upper_bound.csv", _meta(scenario, seed),
                     ["n_su", "n_pu", "upper_bound"],
                     [(scenario.config.n_su, scenario.config.n_pu, bound)])
    out = ExperimentOutput([path], {"upper_bound": bound})
    out.manifest(out_dir, "upper_bound")
    return out
