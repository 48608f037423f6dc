"""Alternating benchmark pairs of a base revision and the working tree.

Exports ``--base`` (a git revision) with ``git archive`` into a temporary
directory, then runs ``perfbench/run.py`` untraced, once in that tree and
once in the checkout, ``--pairs`` times per workload: one seed per pair
(``--first-seed``, then the next ones), identical arguments on both sides,
and the side that runs first flipped from one pair to the next.  For every
workload and end-to-end metric of ``BENCHMARK.json``, and for the rate as
measured (``measured_per_s``: the harness reports ``work_per_s`` at a
nominal machine speed and prints the unscaled rate in its summary), it
writes each run's value, both sides' medians and quartiles, the change's wins (ties count
for neither) and three verdicts (``summarize``) to ``--out``, with the base
commit, run length, Python version and core count of that workload's runs;
workloads already in that file and not run again are kept with their own.
Stops with exit status 1 at the first run that fails or reports a failed
output check.  Stopped by SIGTERM
or Ctrl-C, it kills the run in progress with its workers and removes its
exported tree, as it does on any other exit.  Run from anywhere:

    python3 tools/bench_pairs.py --base HEAD~1 --workload mc_dense \\
        --pairs 10 --first-seed 9101 --seconds 8 --out BENCH.json
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import quartiles  # noqa: E402  (the harness's own quartiles)

# the harness's summary line of the rate as measured, before scaling
_MEASURED = re.compile(r"^\s+\S+\s+(\S+) \S+/s as measured", re.MULTILINE)


def summarize(pairs: list[dict], declared: list[dict]) -> dict:
    """Per end-to-end metric: every run's value, each side's median and
    quartiles, the pairs in which the change reads better, and three
    verdicts:

    - ``gain``: the change wins at least 9/10 of the pairs, and its median
      is better than the base's by more than the base's quartile spread;
    - ``beyond_bound``: the change's median is worse than the base's by
      more than the relative ``bound``;
    - ``unresolved``: the base's quartile spread exceeds ``bound`` times its
      median, and not every change run beats every base run.

    ``pairs`` holds one dict per pair with the metric values of each side
    under ``"base"`` and ``"change"``; ``declared`` is ``BENCHMARK.json``'s
    ``end_to_end`` list, whose ``better`` says which direction wins.  A
    ``measured_per_s`` every run holds is summarized as ``work_per_s`` is."""
    out = {}
    rate = next((m for m in declared if m["name"] == "work_per_s"), None)
    if rate and all("measured_per_s" in p[side] for p in pairs
                    for side in ("base", "change")):
        declared = [*declared, {**rate, "name": "measured_per_s"}]
    for metric in declared:
        name, higher = metric["name"], metric["better"] == "higher"
        base = [p["base"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        wins = sum((c > b) if higher else (c < b)
                   for b, c in zip(base, change))
        base_median, change_median = (statistics.median(base),
                                      statistics.median(change))
        low, high = quartiles(base)
        # how much better the change's median reads, in the metric's unit
        better = (change_median - base_median) * (1 if higher else -1)
        limit = metric["bound"] * abs(base_median)
        beats_all = (min(change) > max(base) if higher
                     else max(change) < min(base))
        out[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "base": base, "change": change,
            "base_median": base_median, "change_median": change_median,
            "base_quartiles": [low, high],
            "change_quartiles": list(quartiles(change)),
            "wins": wins, "pairs": len(pairs),
            "gain": 10 * wins >= 9 * len(pairs) and better > high - low,
            "beyond_bound": -better > limit,
            "unresolved": high - low > limit and not beats_all,
        }
    return out


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    # a process group of its own: the harness runs each repetition in a
    # worker process, which must stop with it
    with subprocess.Popen(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    result = None
    if proc.returncode == 0 and stdout.strip():
        result = json.loads(stdout.strip().splitlines()[-1])
    if result is None or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} in {tree} did not pass:\n"
                           f"{stdout}{stderr}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    measured = _MEASURED.search(stdout)
    if measured:
        values["measured_per_s"] = float(measured.group(1))
    return values


def export(rev: str, dest: Path) -> str:
    """Extract ``rev`` of this repository into ``dest``; its commit hash."""
    commit = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                            stdout=subprocess.PIPE, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                         stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return commit


def _exit_on_signal(signum, frame):
    """SIGTERM as ``SystemExit``: ``run_once`` kills its run and the
    ``finally`` in ``main`` runs, where the default action would skip both."""
    sys.exit(128 + signum)


def _positive(kind):
    """An argparse type: ``kind`` of the text, rejected unless > 0."""
    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    # checked before the export: no pairs leaves nothing to summarize
    ap.add_argument("--pairs", type=_positive(int), required=True)
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--seconds", type=_positive(float), required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--base", required=True,
                    help="git revision to compare the working tree against")
    args = ap.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    previous = signal.signal(signal.SIGTERM, _exit_on_signal)
    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        commit = export(args.base, tmp)
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(tmp if side == "base" else ROOT,
                                          workload, seed, args.seconds)
                pairs.append(pair)
                print(json.dumps({"workload": workload, **pair}), flush=True)
            doc.setdefault("workloads", {})[workload] = {
                "base": commit, "seconds": args.seconds,
                "python": platform.python_version(), "cpus": os.cpu_count(),
                "seeds": [p["seed"] for p in pairs],
                "first": [p["first"] for p in pairs],
                "metrics": summarize(pairs, declared)}
    except RuntimeError as err:
        print(f"bench_pairs: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        signal.signal(signal.SIGTERM, previous)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
