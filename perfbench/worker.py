"""One benchmark repetition in a fresh interpreter.

Imports ``rsop`` from the checkout's ``src/``, sets the workload up, runs it
once (traced or not) under the speed probe (``probe.py``), checks its outputs
and prints one JSON line:

    {"items": ..., "wall_s": ..., "setup_wall_s": ...,   # as measured
     "work_s": ..., "setup_s": ...,                      # at nominal speed
     "peak_rss_mb": ..., "checks": [[name, ok, detail], ...],
     "layers": {...}}                # only when traced; times at nominal speed

The set-up time runs from ``--spawned``, the parent's ``time.monotonic()``
just before it started this interpreter, to the moment the workload is ready.

``run.py`` starts one worker per repetition, so set-up time and peak RSS
belong to that repetition alone.  Usage (normally only from ``run.py``):

    python3 perfbench/worker.py --workload grid --seed 1 --size full \
        --out .perfbench_tmp/rep0 --trace 0 --spawned T [--reference FILE]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def import_rsop():
    """Import the checkout's rsop, never an installed copy."""
    if not (SRC / "rsop" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rsop package under {SRC}")
    sys.path.insert(0, str(SRC))
    import rsop
    import rsop.experiments  # noqa: F401  (loads every layer)

    if Path(rsop.__file__).resolve().parent != SRC / "rsop":
        sys.exit(f"perfbench: imported rsop from {rsop.__file__}, not {SRC}")
    return rsop


def peak_rss_mb_now() -> float:
    """Peak RSS of this process so far, from ``VmHWM``.

    Unlike ``ru_maxrss``, ``VmHWM`` does not keep the peak of the parent's
    image that this process replaced at exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", type=Path, default=None)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() when the parent started this run")
    args = ap.parse_args(argv)

    import probe
    import spans
    import workloads

    speed = probe.SpeedProbe()
    speed.start()
    speed.take()
    rsop = import_rsop()
    rec = None
    if args.trace:
        rec = spans.Recorder()
        spans.install(rec)
    scenarios = workloads.setup(rsop, args.workload)
    ready = time.monotonic()

    start = time.perf_counter()
    setup_probe = speed.take()
    if rec is None:
        items, outputs = workloads.run(rsop, args.workload, scenarios,
                                       args.out, args.seed, args.size)
    else:
        items, outputs = rec.call(
            spans.ROOT, workloads.run,
            (rsop, args.workload, scenarios, args.out, args.seed, args.size))
    speed.stop()
    wall = time.perf_counter() - start
    work_probe = speed.take()
    peak_rss_mb = peak_rss_mb_now()

    import checks

    ref = checks.load_reference(args.reference or checks.REFERENCE)[args.size]
    results = checks.check(args.workload, outputs, ref, scenarios)
    setup = ready - args.spawned
    doc = {"items": items, "wall_s": wall, "setup_wall_s": setup,
           "work_s": probe.nominal_seconds(wall, work_probe),
           "setup_s": probe.nominal_seconds(setup, setup_probe),
           "peak_rss_mb": peak_rss_mb,
           "checks": [list(r) for r in results]}
    if rec is not None:
        scale = doc["work_s"] / wall
        doc["layers"] = {name: value * scale if name.endswith("_s") else value
                         for name, value in spans.layer_metrics(rec).items()}
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
