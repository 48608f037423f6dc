"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes about a minute.  It checks that

1. every workload runs at the tiny size, untraced and traced, and prints
   every metric ``BENCHMARK.json`` declares, by name and with its unit;
2. a perturbed reference value makes the output checks fail, so the printed
   ``fail_ratio`` is nonzero;
3. without ``src/``, i.e. in a directory holding only ``BENCHMARK.json`` and
   ``perfbench/``, the benchmark exits nonzero without printing a result;
4. at full size, the Monte Carlo checks pass on five seeds not used for the
   reference, still pass when ``simulate_slots`` consumes its random stream
   in 8192-slot blocks (a change of stream layout), and fail on a wrong
   result: throughput 5% high, or interference 5% high (``mc_dense``) or
   three times too high (``adapt_loop``, where interference is rare).
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import import_rsop  # noqa: E402

FAILURES: list[str] = []

# Wrong results the Monte Carlo checks must catch at full size.  The adaptive
# loop's interference is a rare event (about 0.0017 with a standard error of
# about 0.00014 per run, which grows with the value), so only an error of
# about a factor of two is detectable.
WRONG = {"mc_dense": {"network_r": 1.05, "t_i": 1.05},
         "adapt_loop": {"r_est": 1.05, "t_i_est": 3.0}}


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def last_json(proc) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def test_metrics_printed(declared: dict) -> None:
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(workload, trace)
            doc = last_json(proc)
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = ({k: v.get("unit") for k, v in doc["metrics"].items()}
                   if doc else None)
            expect(proc.returncode == 0 and doc is not None
                   and set(doc) == {"correct", "attempted", "failed",
                                    "metrics"}
                   and got == want and doc["correct"] and doc["failed"] == 0
                   and all(isinstance(v["value"], (int, float))
                           for v in doc["metrics"].values()),
                   f"{workload} trace {trace}: every {key} metric printed "
                   f"with its unit, all checks pass")
            if trace == 0:
                rate = workloads.WORKLOADS[workload].rate_name
                expect(f"fail_ratio       0 " in proc.stdout
                       and rate in proc.stdout and "seed 3" in proc.stdout,
                       f"{workload}: summary prints seed, {rate} and "
                       f"fail_ratio 0")


def test_perturbed_reference(tmp: Path) -> None:
    ref = checks.load_reference()
    tiny = ref["tiny"]
    for sc in tiny["grid"].values():
        sc["r_star"] *= 1 + 1e-6
    tiny["mc_dense"]["network_r"]["mean"] *= 1.5
    tiny["adapt_loop"]["alg1"]["network_r"]["mean"] *= 1.5
    path = tmp / "perturbed.json"
    path.write_text(json.dumps(ref))
    for workload in workloads.WORKLOADS:
        proc = bench(workload, 0, "--reference", str(path))
        doc = last_json(proc)
        expect(proc.returncode == 0 and doc is not None
               and not doc["correct"] and doc["failed"] > 0
               and "fail_ratio       0 " not in proc.stdout,
               f"{workload}: a perturbed reference makes fail_ratio nonzero")


def test_without_source(tmp: Path) -> None:
    bare = tmp / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("grid", 0, cwd=bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without src/ the benchmark exits nonzero and prints no result")


def blocked(simulate_slots, block: int = 8192):
    """``simulate_slots`` over consecutive blocks of at most ``block`` slots,
    which changes how the random stream maps onto slots."""
    def run(config, schedules, resolved, n_slots, rng, **kwargs):
        parts = [simulate_slots(config, schedules, resolved,
                                min(block, n_slots - s), rng, **kwargs)
                 for s in range(0, n_slots, block)]
        merged = {f.name: np.concatenate([getattr(p, f.name) for p in parts])
                  for f in dataclasses.fields(parts[0])
                  if f.name != "pu_busy_fraction"}
        sizes = [p.throughput.shape[0] for p in parts]
        merged["pu_busy_fraction"] = float(np.average(
            [p.pu_busy_fraction for p in parts], weights=sizes))
        return type(parts[0])(**merged)
    return run


def scale_csv(path: Path, columns: dict[str, float]) -> None:
    """Rewrite an rsop CSV with some columns scaled (a wrong result)."""
    lines = path.read_text().splitlines()
    head = [ln for ln in lines if ln.startswith("#")]
    cols, rows = checks.read_csv("\n".join(lines))
    for row in rows:
        for c, f in columns.items():
            row[cols.index(c)] = repr(float(row[cols.index(c)]) * f)
    path.write_text("\n".join(head + [",".join(cols)]
                              + [",".join(r) for r in rows]) + "\n")


def test_monte_carlo_checks(tmp: Path) -> None:
    rsop = import_rsop()
    ref = checks.load_reference()["full"]
    for workload in ("mc_dense", "adapt_loop"):
        scenarios = workloads.setup(rsop, workload)
        for seed in range(1, 6):
            _, out = workloads.run(rsop, workload, scenarios,
                                   tmp / f"{workload}{seed}", seed, "full")
            res = checks.check(workload, out, ref, scenarios)
            expect(all(ok for _, ok, _ in res),
                   f"{workload} seed {seed} passes: "
                   + "; ".join(d for _, _, d in res if d and "box" not in d))

        for col, factor in WRONG[workload].items():
            csvs = [Path(g["csv"]) for g in
                    ([out] if workload == "mc_dense" else out.values())]
            for path in csvs:
                scale_csv(path, {col: factor})
            res = checks.check(workload, out, ref, scenarios)
            expect(not all(ok for _, ok, _ in res),
                   f"{workload}: {col} times {factor:g} fails the check")
            for path in csvs:
                scale_csv(path, {col: 1 / factor})

    sim = rsop.simulator
    original = sim.simulate_slots
    sim.simulate_slots = blocked(original)
    try:
        scenarios = workloads.setup(rsop, "mc_dense")
        _, out = workloads.run(rsop, "mc_dense", scenarios, tmp / "blocked", 1,
                               "full")
    finally:
        sim.simulate_slots = original
    res = checks.check("mc_dense", out, ref, scenarios)
    expect(all(ok for _, ok, _ in res),
           "mc_dense in 8192-slot blocks passes: "
           + "; ".join(d for _, _, d in res))


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=tmp_root))
    try:
        test_metrics_printed(declared)
        test_perturbed_reference(tmp)
        test_without_source(tmp)
        test_monte_carlo_checks(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
