"""Record the reference values the output checks compare against.

    python3 perfbench/make_reference.py

Run from the root of a checkout.  Writes ``perfbench/reference/``:
``reference.json`` and, per size and grid scenario, the gzipped ``grid.csv``.
The Monte Carlo references are means over ``REF_SEEDS`` with the standard
error of that mean; the mean per slot does not depend on the slot count, so
both sizes of ``mc_dense`` share the full-size reference.  Re-record only
when a change is meant to alter results, and say so with the change.
"""

from __future__ import annotations

import gzip
import json
import math
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import import_rsop  # noqa: E402

REF_SEEDS = range(1001, 1013)


def mean_se(values: list[float]) -> dict:
    return {"mean": statistics.fmean(values),
            "se": statistics.stdev(values) / math.sqrt(len(values))}


def record(rsop, size: str, tmp: Path) -> dict:
    ref = {}
    scenarios = workloads.setup(rsop, "grid")
    _, outputs = workloads.run(rsop, "grid", scenarios, tmp / "grid", 0, size)
    ref["grid"] = {}
    for sc_name, out in outputs.items():
        rows_file = f"grid_{size}_{sc_name}.csv.gz"
        text = Path(out["csv"]).read_text()
        body = "".join(ln + "\n" for ln in text.splitlines()
                       if not ln.startswith("#"))
        (checks.REF_DIR / rows_file).write_bytes(
            gzip.compress(body.encode(), mtime=0))
        s = out["summary"]
        ref["grid"][sc_name] = {"tau_star": float(s["tau_star"]),
                                "p_star": float(s["p_star"]),
                                "r_star": float(s["r_star"]),
                                "rows_file": rows_file}

    scenarios = workloads.setup(rsop, "adapt_loop")
    per_alg: dict[str, dict[str, list]] = {}
    for seed in REF_SEEDS:
        _, outputs = workloads.run(rsop, "adapt_loop", scenarios,
                                   tmp / f"adapt{seed}", seed, size)
        for alg, out in outputs.items():
            win = checks.adapt_window(Path(out["csv"]).read_text())
            d = per_alg.setdefault(alg, {"network_r": [], "t_i": []})
            d["network_r"].append(win["network_r"])
            d["t_i"].append(win["t_i"])
    ref["adapt_loop"] = {alg: {k: mean_se(v) for k, v in d.items()}
                         for alg, d in per_alg.items()}
    return ref


def record_mc_dense(rsop, tmp: Path) -> dict:
    scenarios = workloads.setup(rsop, "mc_dense")
    vals: dict[str, list] = {"network_r": [], "t_i": []}
    for seed in REF_SEEDS:
        _, out = workloads.run(rsop, "mc_dense", scenarios, tmp / f"mc{seed}",
                               seed, "full")
        cols, rows = checks.read_csv(Path(out["csv"]).read_text())
        row = dict(zip(cols, rows[0]))
        for k in vals:
            vals[k].append(float(row[k]))
    return {k: mean_se(v) for k, v in vals.items()}


def main() -> None:
    rsop = import_rsop()
    checks.REF_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        doc = {size: record(rsop, size, Path(tmp) / size)
               for size in workloads.SIZES}
        mc = record_mc_dense(rsop, Path(tmp) / "mc")
    for size in doc:
        doc[size]["mc_dense"] = mc
    doc["recorded_with"] = {"rsop": rsop.__version__,
                            "seeds": [REF_SEEDS.start, REF_SEEDS.stop - 1]}
    checks.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(json.dumps({s: {k: v for k, v in doc[s].items() if k != "grid"}
                      for s in workloads.SIZES}, indent=1))


if __name__ == "__main__":
    main()
