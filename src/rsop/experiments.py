"""Batch experiment front end: runs a study, emits tidy CSV plus a manifest.

Output files carry comment headers (tool version, scenario hash, seed) and are
byte-identical across reruns of the same spec.  Every writer hands
:func:`write_csv` its table as columns, which are formatted one column at a
time, in blocks of rows; a float column's text is made once per distinct
value in the block and then gathered.  Plots are not rendered here; every
figure-style experiment produces the data behind it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import numpy.random  # loaded here, not lazily on the first generator

from . import __version__
from .adaptive import run_adaptive, subgradient_field
from .chain import analyze, resolve_detector
from .config import DetectorSpec, Scenario
from .core import upper_bound_throughput
from .errors import ScenarioError
from .optimizer import GridSpec, evaluate_points, optimize_scenario
from .simulator import SuSchedules, simulate_scenario, simulate_slots


# rows formatted and written per block; bounds the text held at once
_BLOCK_ROWS = 1024


def _format_column(column: np.ndarray) -> list[str]:
    """Text of every entry, by dtype: bool as 1/0, float as its shortest
    round-trip repr, anything else (int, str) as ``str``.

    A float column is formatted once per distinct bit pattern, then the
    text is gathered: grid and per-SU columns repeat their values, and
    ``repr`` is most of the writer's time.  Keying on bits keeps 0.0 and
    -0.0 apart, and NaN payloads too."""
    if column.dtype == bool:
        return ["1" if v else "0" for v in column.tolist()]
    if column.dtype.kind == "f":
        bits = column.astype(float, copy=False).view(np.int64)
        distinct, inverse = np.unique(bits, return_inverse=True)
        text = np.array(list(map(repr, distinct.view(float).tolist())),
                        dtype=object)
        return text[inverse].tolist()
    return list(map(str, column.tolist()))


def write_csv(path: Path, meta: dict, columns: dict) -> Path:
    """Write a CSV with reproducible comment headers from ``columns``, a
    mapping from column name to a 1-D sequence; all columns have one length."""
    cols = [np.asarray(c) for c in columns.values()]
    lengths = {c.shape for c in cols}
    if len(lengths) > 1 or any(c.ndim != 1 for c in cols):
        raise ScenarioError(f"columns {list(columns)} are not 1-D of one "
                            f"length: shapes {sorted(lengths)}")
    n_rows = len(cols[0]) if cols else 0
    header = ([f"# rsop {__version__}"]
              + [f"# {key}: {meta[key]}" for key in sorted(meta)]
              + [",".join(columns)])
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write("\n".join(header) + "\n")
        for lo in range(0, n_rows, _BLOCK_ROWS):
            block = [_format_column(c[lo:lo + _BLOCK_ROWS]) for c in cols]
            f.write("\n".join(map(",".join, zip(*block))) + "\n")
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


def _finish(out_dir: Path, name: str, files: list[Path],
            summary: dict) -> ExperimentOutput:
    """Write ``<name>.manifest.json``, which names ``files`` and holds the
    summary, and return the study's output, the manifest listed last."""
    path = out_dir / f"{name}.manifest.json"
    doc = {"tool": f"rsop {__version__}",
           "files": [str(f.name) for f in files], "summary": summary}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n")
    return ExperimentOutput([*files, path], summary)


def chain_detail_columns(result) -> dict[str, np.ndarray]:
    """Per-(channel, stage) analyzer tables of one point as CSV columns, one
    row per (channel, stage), channel-major."""
    n_pu, n_stages = result.occupancy.occ.shape
    cells = n_pu * n_stages
    return {
        "tau": np.full(cells, result.params.tau),
        "p": np.full(cells, result.params.p),
        "channel": np.repeat(np.arange(1, n_pu + 1), n_stages),
        "stage": np.tile(np.arange(1, n_stages + 1), n_pu),
        "occupancy": result.occupancy.occ.ravel(),
        "p_fa": np.repeat(result.profiles.p_fa, n_stages),
        "p_d": result.profiles.p_d.ravel(),
        "pi_channel": result.dist.pi_channel.ravel(),
        "success_prob": result.success.ravel(),
        "no_tx_prob": result.no_tx.ravel(),
        "no_interf_prob": result.no_interf.ravel(),
    }


def _sweep_points(scenario: Scenario, axis, values) -> tuple[np.ndarray, np.ndarray]:
    """Aligned (tau, p) arrays for ``values`` along ``axis`` ("p" or "tau"),
    the other coordinate at its nominal value."""
    if axis not in ("p", "tau"):
        raise ScenarioError(f"a sweep needs an axis (p or tau), got {axis!r}")
    if values is None or len(values) == 0:
        raise ScenarioError(f"a sweep along {axis!r} needs values")
    values = np.asarray(values, dtype=float)
    tau = np.full(len(values), float(scenario.params.tau))
    p = np.full(len(values), float(scenario.params.p))
    return (values, p) if axis == "tau" else (tau, values)


def run_analyze(scenario: Scenario, out_dir, axis: str = "p",
                values=None, seed=0) -> ExperimentOutput:
    """Analyzer sweep over p (default) or tau at the other's nominal value;
    the data behind the tradeoff figures.  The default tau values are the
    optimizer's tau axis, 40 steps.  The points are evaluated in batched
    calls of mixed stage budget, under one resolved detector.  Also writes
    the per-(channel, stage) tables at the nominal point."""
    out_dir = Path(out_dir)
    config = scenario.config
    if values is None and axis == "p":
        values = np.round(np.arange(0.05, 1.0001, 0.05), 10)
    elif values is None and axis == "tau":
        values = GridSpec.default_for(config, scenario.qos,
                                      tau_steps=40).tau_values()
    tau, p = _sweep_points(scenario, axis, values)
    resolved = resolve_detector(config, scenario.detector, scenario.qos,
                                scenario.params.tau)
    cols = evaluate_points(config, tau, p, scenario.qos, resolved)
    network_r = config.n_su * cols["r"]
    path = write_csv(out_dir / f"analyze_{axis}.csv",
                     _meta(scenario, seed, axis=axis),
                     {"tau": tau, "p": p, "r": cols["r"], "network_r": network_r,
                      "t_i": cols["t_i"], "p_md_max": cols["p_md_max"]})
    nominal_point = analyze(config, scenario.params, resolved)
    detail = write_csv(out_dir / "chain_detail.csv", _meta(scenario, seed),
                       chain_detail_columns(nominal_point))
    best = int(np.argmax(network_r))
    return _finish(out_dir, f"analyze_{axis}", [path, detail], {
        "axis": axis, "best_network_r": network_r[best].item(),
        "best_tau": tau[best].item(), "best_p": p[best].item(),
    })


# simulation CSV columns and the RunMetrics field each one reads
_SIMULATE_COLUMNS = {
    "r": "throughput", "network_r": "network_throughput", "t_i": "interference",
    "overhead": "sensing_overhead", "handoffs": "handoffs", "delay": "delay",
    "success_rate": "success_rate", "collision_rate": "collision_rate",
    "se_network_r": "se_network_throughput",
}


def _metric_columns(runs, names) -> dict[str, list]:
    """Columns ``names`` (keys of ``_SIMULATE_COLUMNS``), one row per run."""
    return {name: [getattr(m, _SIMULATE_COLUMNS[name]) for m in runs]
            for name in names}


def run_simulate(scenario: Scenario, out_dir, axis: str | None = None,
                 values=None, n_slots: int = 10_000, n_reps: int = 1,
                 seed=0, protocol: str = "modified", n_jobs: int = 1,
                 trace_rows: int = 0) -> ExperimentOutput:
    """Monte Carlo at the nominal point, or swept along one axis.

    ``trace_rows`` > 0 additionally dumps up to that many per-slot, per-SU
    outcome rows from a dedicated replication (debugging aid)."""
    if trace_rows < 0:
        raise ScenarioError(f"trace_rows must be >= 0, got {trace_rows}")
    out_dir = Path(out_dir)
    name = f"simulate_{axis or 'point'}"
    if axis is None and values is None:  # the nominal point alone
        axis, values = "p", [scenario.params.p]
    tau, p = _sweep_points(scenario, axis, values)
    runs = [simulate_scenario(scenario, n_slots=n_slots, seed=seed,
                              protocol=protocol, n_reps=n_reps, n_jobs=n_jobs,
                              tau=tau_v, p=p_v)
            for tau_v, p_v in zip(tau.tolist(), p.tolist())]
    path = write_csv(out_dir / f"{name}.csv",
                     _meta(scenario, seed, protocol=protocol, n_slots=n_slots,
                           n_reps=n_reps),
                     {"tau": tau, "p": p,
                      **_metric_columns(runs, _SIMULATE_COLUMNS)})
    files = [path]
    if trace_rows > 0:
        files.append(_write_trace(scenario, out_dir, seed, protocol,
                                  trace_rows))
    return _finish(out_dir, name, files, {"points": len(runs)})


def _write_trace(scenario: Scenario, out_dir: Path, seed, protocol: str,
                 cap: int) -> Path:
    """Per-slot, per-SU outcome rows from one short replication, capped."""
    resolved = resolve_detector(scenario.config, scenario.detector,
                                scenario.qos, scenario.params.tau)
    schedules = SuSchedules.from_per_su(scenario.config, scenario.params.tau,
                                        scenario.params.p)
    n_su = scenario.config.n_su
    n_slots = max(1, (cap + n_su - 1) // n_su)
    batch = simulate_slots(scenario.config, schedules, resolved, n_slots,
                           np.random.default_rng(seed), protocol=protocol)

    def flat(table):  # (slot, su) table as rows, slot-major, capped
        return table.reshape(-1)[:cap]

    return write_csv(out_dir / "trace.csv",
                     _meta(scenario, seed, protocol=protocol, row_cap=cap),
                     {"slot": np.arange(cap) // n_su,
                      "su": np.arange(cap) % n_su,
                      "transmitted": flat(batch.transmitted),
                      "success": flat(batch.success),
                      "collided": flat(batch.collided),
                      "interfered": flat(batch.interfered_entry),
                      "channel": flat(batch.tx_channel) + 1,
                      "stage": flat(batch.tx_stage),
                      "throughput": flat(batch.throughput),
                      "overhead": flat(batch.overhead),
                      "delay": flat(batch.delay)})


def run_optimize(scenario: Scenario, out_dir, tau_steps: int = 64,
                 p_steps: int = 64, seed=0, n_jobs: int = 1) -> ExperimentOutput:
    """Brute-force grid; writes the full surface and the optimum."""
    # n_jobs does nothing; perfbench/workloads.py still passes it
    out_dir = Path(out_dir)
    result = optimize_scenario(scenario, tau_steps=tau_steps, p_steps=p_steps)
    cols = result.columns
    path = write_csv(out_dir / "grid.csv",
                     _meta(scenario, seed, tau_steps=tau_steps, p_steps=p_steps),
                     {"tau": cols["tau"], "p": cols["p"], "r": cols["r"],
                      "network_r": scenario.config.n_su * cols["r"],
                      "t_i": cols["t_i"], "p_md_max": cols["p_md_max"],
                      "feasible": cols["feasible"]})
    summary = {
        "tau_star": result.tau_star, "p_star": result.p_star,
        "r_star": result.r_star,
        "network_r_star": scenario.config.n_su * result.r_star,
        "t_i_at_star": result.t_i_at_star, "feasible": result.feasible,
    }
    return _finish(out_dir, "optimize", [path], summary)


def run_adapt(scenario: Scenario, out_dir, algorithm: int = 1,
              n_frames: int = 500, seed=0) -> ExperimentOutput:
    """Closed-loop adaptation; writes the per-SU trajectory."""
    out_dir = Path(out_dir)
    run = run_adaptive(scenario, algorithm=algorithm, n_frames=n_frames,
                       seed=seed)
    n_su = scenario.config.n_su

    def per_su(name):  # one row per (frame, SU), frame-major
        return np.concatenate([getattr(fl, name) for fl in run.frames])

    def per_frame(name):
        return np.repeat([getattr(fl, name) for fl in run.frames], n_su)

    path = write_csv(out_dir / f"adapt_alg{algorithm}.csv",
                     _meta(scenario, seed, algorithm=algorithm,
                           n_frames=n_frames),
                     {"k": per_frame("k"),
                      "su": np.tile(np.arange(n_su), len(run.frames)),
                      "tau": per_su("tau"), "p": per_su("p"),
                      "r_est": per_su("r_est"), "t_i_est": per_frame("t_i_est"),
                      "improved": per_su("improved"),
                      "flip_tau": per_su("flip_tau"),
                      "flip_p": per_su("flip_p")})
    summary = {
        "algorithm": algorithm,
        "converged_network_throughput": run.converged_network_throughput,
        "converged_interference": run.converged_interference,
        "final_tau_mean": float(run.final_tau.mean()),
        "final_p_mean": float(run.final_p.mean()),
    }
    return _finish(out_dir, f"adapt_alg{algorithm}", [path], summary)


def run_false_alarm_sweep(scenario: Scenario, out_dir,
                          p_fa_values=(0.01, 0.1, 0.3),
                          n_su_values=(20, 50), n_slots: int = 10_000,
                          seed=0) -> ExperimentOutput:
    """Throughput against the false-alarm probability for several network
    densities (detection held fixed via the explicit detector)."""
    if len(p_fa_values) == 0 or len(n_su_values) == 0:
        raise ScenarioError("false-alarm sweep needs at least one p_fa and one n_su")
    out_dir = Path(out_dir)
    points, runs = [], []
    for n_su in n_su_values:
        for p_fa in p_fa_values:
            config = replace(scenario.config, n_su=int(n_su))
            det = DetectorSpec(mode="explicit", p_fa=float(p_fa),
                               p_d=scenario.detector.p_d
                               if scenario.detector.p_d is not None
                               else scenario.qos.p_d_min)
            sc = replace(scenario, config=config, detector=det,
                         name=f"{scenario.name}_ns{n_su}_pfa{p_fa}")
            points.append((int(n_su), float(p_fa)))
            runs.append(simulate_scenario(sc, n_slots=n_slots, seed=seed))
    n_sus, p_fas = zip(*points)
    path = write_csv(out_dir / "false_alarm_sweep.csv",
                     _meta(scenario, seed, n_slots=n_slots),
                     {"n_su": n_sus, "p_fa": p_fas,
                      **_metric_columns(runs, ["r", "network_r", "t_i",
                                               "se_network_r"])})
    return _finish(out_dir, "false_alarm_sweep", [path], {"points": len(runs)})


def run_ppersistent_compare(scenario: Scenario, out_dir, n_slots: int = 60_000,
                            seed=0) -> ExperimentOutput:
    """Modified vs conventional p-persistent access at the nominal point."""
    out_dir = Path(out_dir)
    protocols = ("conventional", "modified")
    conv, mod = runs = [simulate_scenario(scenario, n_slots=n_slots,
                                          seed=seed + idx, protocol=protocol)
                        for idx, protocol in enumerate(protocols)]
    path = write_csv(out_dir / "ppersistent.csv",
                     _meta(scenario, seed, n_slots=n_slots),
                     {"protocol": protocols,
                      **_metric_columns(runs, ["r", "network_r", "overhead",
                                               "t_i", "se_network_r"])})
    conv_r = conv.network_throughput
    summary = {
        "overhead_reduction": 1.0 - mod.sensing_overhead / conv.sensing_overhead,
        # null where the conventional network delivered nothing
        "throughput_rel_diff": (abs(mod.network_throughput - conv_r) / conv_r
                                if conv_r > 0 else None),
    }
    return _finish(out_dir, "ppersistent", [path], summary)


def run_subgradient_field(scenario: Scenario, out_dir, taus=None, ps=None,
                          n_realizations: int = 5000, seed=0) -> ExperimentOutput:
    """Mean update-direction field against the analytic gradient."""
    out_dir = Path(out_dir)
    if taus is None or ps is None:
        raise ScenarioError("subgradient-field needs explicit probe points")
    points = subgradient_field(scenario, taus, ps,
                               n_realizations=n_realizations, seed=seed)
    g = np.reshape([pt.mean_g for pt in points], (-1, 2))
    grad = np.reshape([pt.grad_f for pt in points], (-1, 2))
    path = write_csv(out_dir / "subgradient_field.csv",
                     _meta(scenario, seed, n_realizations=n_realizations),
                     {"tau": [pt.tau for pt in points],
                      "p": [pt.p for pt in points],
                      "g_tau": g[:, 0], "g_p": g[:, 1],
                      "grad_f_tau": grad[:, 0], "grad_f_p": grad[:, 1],
                      "inner": [pt.inner for pt in points],
                      "aligned": [pt.aligned for pt in points]})
    aligned = sum(pt.aligned for pt in points)
    return _finish(out_dir, "subgradient_field", [path],
                   {"points": len(points), "aligned": aligned,
                    "aligned_fraction": aligned / len(points)})


def run_upper_bound(scenario: Scenario, out_dir, seed=0) -> ExperimentOutput:
    """The ideal throughput bound for the scenario."""
    out_dir = Path(out_dir)
    bound = upper_bound_throughput(scenario.config.n_su,
                                   scenario.config.presence_prob)
    path = write_csv(out_dir / "upper_bound.csv", _meta(scenario, seed),
                     {"n_su": [scenario.config.n_su],
                      "n_pu": [scenario.config.n_pu], "upper_bound": [bound]})
    return _finish(out_dir, "upper_bound", [path], {"upper_bound": bound})
