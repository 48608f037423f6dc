"""Output checks against reference values recorded with ``make_reference.py``.

* ``grid`` is deterministic: the optimum (tau*, p*, r*) and every row of each
  ``grid.csv`` must match the reference to 1e-9 relative (1e-12 absolute near
  zero); the ``feasible`` column must match exactly.
* ``mc_dense`` and ``adapt_loop`` are Monte Carlo: network throughput and
  interference (the converged-window values for ``adapt_loop``) must lie
  within ``Z_MAX`` combined standard errors of the reference mean, using the
  run's own standard error and that of the reference.  The reference is a
  mean over seeds, so the check holds for any seed and for any layout of the
  random stream, and fails when a result moves by several standard errors.
  Every (tau, p) the adaptive loop visits, and its final mean point, must lie
  inside the decision box.

The simulator is compared with its own reference, never with the analyzer:
the two disagree by -88% on ``dense_ns20_np5``.

Each function returns a list of ``(name, ok, detail)`` tuples; one tuple is
one check attempted.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REF_DIR = HERE / "reference"
REFERENCE = REF_DIR / "reference.json"

REL_TOL = 1e-9
ABS_TOL = 1e-12
# The adaptive loop's window standard error understates the spread across
# seeds by about 1.3x (its frames are correlated), so 5 standard errors keep
# a false failure near 1 in 5,000 checks.
Z_MAX = 5.0


def load_reference(path=REFERENCE) -> dict:
    return json.loads(Path(path).read_text())


def read_csv(text: str) -> tuple[list[str], list[list[str]]]:
    """Column names and rows of an rsop CSV, skipping the comment header."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    return rows[0], rows[1:]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


def check_grid(outputs: dict, ref: dict) -> list[tuple]:
    results = []
    for sc_name, ref_sc in ref["grid"].items():
        got = outputs[sc_name]
        summary = got["summary"]
        bad = [k for k in ("tau_star", "p_star", "r_star")
               if not _close(float(summary[k]), ref_sc[k])]
        results.append((f"{sc_name}.optimum", not bad,
                        f"differs in {', '.join(bad)}" if bad else ""))

        ref_text = gzip.decompress(
            (REF_DIR / ref_sc["rows_file"]).read_bytes()).decode()
        ref_cols, ref_rows = read_csv(ref_text)
        cols, rows = read_csv(Path(got["csv"]).read_text())
        if cols != ref_cols or len(rows) != len(ref_rows):
            results.append((f"{sc_name}.rows", False,
                            f"shape {len(cols)}x{len(rows)} != "
                            f"{len(ref_cols)}x{len(ref_rows)}"))
            continue
        for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
            ok = all(
                a == b if col == "feasible" else _close(float(a), float(b))
                for col, a, b in zip(cols, row, ref_row))
            results.append((f"{sc_name}.row{i}", ok,
                            "" if ok else f"{row} != {ref_row}"))
    return results


def _within(name: str, value: float, se: float, ref: dict) -> tuple:
    tol = Z_MAX * math.hypot(se, ref["se"])
    ok = math.isfinite(value) and abs(value - ref["mean"]) <= tol
    return (name, ok, f"{value:.6g} vs reference {ref['mean']:.6g} "
                      f"+- {tol:.3g} ({Z_MAX:g} combined SE)")


def check_mc_dense(outputs: dict, ref: dict) -> list[tuple]:
    cols, rows = read_csv(Path(outputs["csv"]).read_text())
    row = dict(zip(cols, rows[0]))
    ref = ref["mc_dense"]
    return [
        _within("network_r", float(row["network_r"]),
                float(row["se_network_r"]), ref["network_r"]),
        _within("t_i", float(row["t_i"]), outputs["se_interference"],
                ref["t_i"]),
    ]


def adapt_window(csv_text: str) -> dict:
    """Converged-window values and visited points from an ``adapt_alg*.csv``.

    Mirrors ``AdaptiveRun``: the window is the last quarter of the frames, a
    frame's network throughput is the sum of the SUs' ACK estimates, and its
    interference is the frame-mean network sample every SU sees."""
    cols, rows = read_csv(csv_text)
    idx = {c: i for i, c in enumerate(cols)}
    by_frame: dict[int, list] = {}
    for row in rows:
        by_frame.setdefault(int(row[idx["k"]]), []).append(row)
    frames = [by_frame[k] for k in sorted(by_frame)]
    window = frames[(3 * len(frames)) // 4:]
    net = np.array([sum(float(r[idx["r_est"]]) for r in fr) for fr in window])
    interf = np.array([float(fr[0][idx["t_i_est"]]) for fr in window])
    n = len(window)
    return {
        "network_r": float(net.mean()),
        "se_network_r": float(net.std(ddof=1) / math.sqrt(n)),
        "t_i": float(interf.mean()),
        "se_t_i": float(interf.std(ddof=1) / math.sqrt(n)),
        "tau": [float(r[idx["tau"]]) for r in rows],
        "p": [float(r[idx["p"]]) for r in rows],
    }


def decision_box(scenario) -> tuple[float, float]:
    """(tau_lo, tau_hi) of the adaptive decision box; p always lies in [0, 1].

    The floor is the scenario's ``tau_min`` or, for an energy detector, the
    shortest sensing time meeting both error caps at the weakest stage-1 SNR
    (explicit detectors sense nothing, so one sample)."""
    from rsop.detector import min_sensing_time

    cfg, t = scenario.config, scenario.config.slot_duration
    if scenario.adaptive.tau_min is not None:
        floor = scenario.adaptive.tau_min
    elif scenario.detector.mode == "energy":
        floor = float(np.max(min_sensing_time(
            cfg.snr_stage1, cfg.sampling_freq, scenario.qos.p_fa_max,
            scenario.qos.p_d_min)))
    else:
        floor = 1.0 / cfg.sampling_freq
    return min(floor, t), t


def check_adapt_loop(outputs: dict, ref: dict, scenario) -> list[tuple]:
    tau_lo, tau_hi = decision_box(scenario)
    results = []
    for alg, got in outputs.items():
        win = adapt_window(Path(got["csv"]).read_text())
        ref_alg = ref["adapt_loop"][alg]
        results.append(_within(f"{alg}.network_r", win["network_r"],
                               win["se_network_r"], ref_alg["network_r"]))
        results.append(_within(f"{alg}.t_i", win["t_i"], win["se_t_i"],
                               ref_alg["t_i"]))
        s = got["summary"]
        taus = win["tau"] + [float(s["final_tau_mean"])]
        ps = win["p"] + [float(s["final_p_mean"])]
        eps = 1e-12
        inside = (all(tau_lo - eps <= x <= tau_hi + eps for x in taus)
                  and all(-eps <= x <= 1.0 + eps for x in ps))
        results.append((f"{alg}.in_box", inside,
                        f"tau in [{min(taus):.6g}, {max(taus):.6g}] vs box "
                        f"[{tau_lo:.6g}, {tau_hi:.6g}], p in "
                        f"[{min(ps):.6g}, {max(ps):.6g}]"))
    return results


def check(name: str, outputs: dict, ref: dict, scenarios: list) -> list[tuple]:
    if name == "grid":
        return check_grid(outputs, ref)
    if name == "mc_dense":
        return check_mc_dense(outputs, ref)
    return check_adapt_loop(outputs, ref, scenarios[0])
