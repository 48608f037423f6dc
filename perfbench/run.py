"""rsop benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each repetition is a fresh interpreter
(``worker.py``) that imports ``rsop`` from ``src/``, runs the workload once and
checks its outputs; repetitions run back to back while the next one is
expected to end within ``--seconds``.  With ``--trace 0`` the last line of
standard output is a JSON object holding every end-to-end metric of
``BENCHMARK.json``, each the median over repetitions.  With ``--trace 1``
untraced and traced repetitions alternate, and the JSON holds every
per-layer metric (medians over the traced repetitions) plus the tracing
overhead against the untraced ones.  The lines before it are a readable
summary, including the seed, the rate as measured and the share of failed
output checks.

Reported times are at a nominal machine speed: a probe inside each worker
(``probe.py``) measures how fast the machine runs that process while the
workload runs, and the worker scales its times by that.  On a shared machine
this removes most of the drift in available speed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 120

sys.path.insert(0, str(HERE))
from workloads import SIZES, WORKLOADS  # noqa: E402


def run_worker(workload: str, seed: int, size: str, traced: bool,
               out_dir: Path, reference: Path | None) -> dict | None:
    """One repetition in a fresh interpreter; None when it failed."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--out", str(out_dir),
           "--trace", str(int(traced)), "--spawned", repr(time.monotonic())]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: repetition timed out after {WORKER_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: repetition exited with {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="problem size; 'tiny' is for the self-test")
    ap.add_argument("--reference", type=Path, default=None,
                    help="reference values to check against (self-test)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rsop" / "__init__.py").is_file():
        print(f"perfbench: no rsop package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    start = time.monotonic()
    reps: list[tuple[bool, dict | None]] = []
    try:
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            rep_start = time.monotonic()
            doc = run_worker(args.workload, args.seed, args.size, traced,
                             tmp / f"rep{len(reps)}", args.reference)
            reps.append((traced, doc))
            now = time.monotonic()
            # Start no repetition that would likely end past the deadline.
            enough = not args.trace or len(reps) >= 2
            if enough and now + (now - rep_start) - start > args.seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:  # not empty: another run is using it
            pass
    elapsed = time.monotonic() - start

    attempted = failed = 0
    for _, doc in reps:
        if doc is None:  # a crashed repetition counts as one failed check
            attempted += 1
            failed += 1
            continue
        attempted += len(doc["checks"])
        for name, ok, detail in doc["checks"]:
            if not ok:
                failed += 1
                print(f"perfbench: check {name} failed: {detail}",
                      file=sys.stderr)
    plain = [d for t, d in reps if d is not None and not t]
    traced = [d for t, d in reps if d is not None and t]
    if not plain or (args.trace and not traced):
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1

    rates = [d["items"] / d["wall_s"] for d in plain]
    if args.trace:
        values = {name: statistics.median(d["layers"][name] for d in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_s"] = (
            statistics.median(d["work_s"] for d in traced)
            - statistics.median(d["work_s"] for d in plain))
        wanted = declared["per_layer"]
    else:
        values = {
            "work_per_s": statistics.median(d["items"] / d["work_s"]
                                            for d in plain),
            "setup_s": statistics.median(d["setup_s"] for d in plain),
            "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in plain),
        }
        wanted = declared["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    lo, hi = quartiles(rates)
    print(f"rsop benchmark: workload {args.workload}, seed {args.seed}, size "
          f"{args.size}, trace {args.trace}: {len(plain)} untraced and "
          f"{len(traced)} traced repetitions in {elapsed:.1f} s")
    print(f"  {wl.rate_name:<16} {statistics.median(rates):.6g} {wl.item}/s "
          f"as measured (median of {len(rates)}; quartiles {lo:.6g} to "
          f"{hi:.6g}); setup {statistics.median(d['setup_wall_s'] for d in plain):.3f} s "
          f"as measured")
    print("  metrics (times at nominal speed):")
    for name, m in metrics.items():
        print(f"  {name:<16} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':<16} {failed / attempted:.6g} "
          f"({failed} of {attempted} output checks failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
