"""Command-line front end: ``rsop <kind> --scenario FILE --out DIR ...``."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import bundled_scenario_path, bundled_scenarios, load_scenario
from .errors import RsopError, ScenarioError
from .experiments import (
    run_adapt,
    run_analyze,
    run_false_alarm_sweep,
    run_optimize,
    run_ppersistent_compare,
    run_simulate,
    run_subgradient_field,
    run_upper_bound,
)


def _load(arg: str):
    """Scenario from a path, or from a bundled name."""
    if Path(arg).exists():
        return load_scenario(arg)
    return load_scenario(bundled_scenario_path(arg))


def _add_common(sp):
    sp.add_argument("--scenario", required=True,
                    help="scenario file path or bundled scenario name")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default="out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsop",
        description="Random sensing-order policy experiments: analytic model, "
                    "slot simulation, grid optimization, distributed adaptation.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)

    sp = sub.add_parser("analyze", help="analytic sweep over p or tau")
    _add_common(sp)
    sp.add_argument("--axis", choices=("p", "tau"), default="p")

    sp = sub.add_parser("simulate", help="Monte Carlo at the nominal point or a sweep")
    _add_common(sp)
    sp.add_argument("--axis", choices=("p", "tau"), default=None)
    sp.add_argument("--values", type=float, nargs="*", default=None)
    sp.add_argument("--slots", type=int, default=10_000)
    sp.add_argument("--reps", type=int, default=1)
    sp.add_argument("--protocol", choices=("modified", "conventional"),
                    default="modified")
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--trace", type=int, default=0,
                    help="also dump up to N per-slot trace rows")

    sp = sub.add_parser("optimize", help="brute-force (tau, p) grid benchmark")
    _add_common(sp)
    sp.add_argument("--grid", type=int, nargs=2, metavar=("TAU_STEPS", "P_STEPS"),
                    default=(64, 64))
    sp.add_argument("--jobs", type=int, default=1)

    sp = sub.add_parser("adapt", help="closed-loop distributed adaptation")
    _add_common(sp)
    sp.add_argument("--algorithm", type=int, choices=(1, 2), default=1)
    sp.add_argument("--frames", type=int, default=500)

    sp = sub.add_parser("sweep", help="false-alarm sweep across network densities")
    _add_common(sp)
    sp.add_argument("--p-fa", type=float, nargs="*", default=(0.01, 0.1, 0.3))
    sp.add_argument("--n-su", type=int, nargs="*", default=(20, 50))
    sp.add_argument("--slots", type=int, default=10_000)

    sp = sub.add_parser("ppersistent-compare",
                        help="modified vs conventional p-persistent access")
    _add_common(sp)
    sp.add_argument("--slots", type=int, default=60_000)

    sp = sub.add_parser("subgradient-field",
                        help="mean update direction vs analytic gradient")
    _add_common(sp)
    sp.add_argument("--taus", type=float, nargs="+", required=True)
    sp.add_argument("--ps", type=float, nargs="+", required=True)
    sp.add_argument("--realizations", type=int, default=5000)

    sp = sub.add_parser("upper-bound", help="ideal throughput bound")
    _add_common(sp)

    sub.add_parser("scenarios", help="list bundled scenarios")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.kind == "scenarios":
            for name, path in bundled_scenarios().items():
                print(f"{name}\t{path}")
            return 0
        if args.seed < 0:
            raise ScenarioError(f"--seed must be >= 0, got {args.seed}")
        scenario = _load(args.scenario)
        out = Path(args.out)
        if args.kind == "analyze":
            result = run_analyze(scenario, out, axis=args.axis, seed=args.seed)
        elif args.kind == "simulate":
            result = run_simulate(scenario, out, axis=args.axis,
                                  values=args.values, n_slots=args.slots,
                                  n_reps=args.reps, seed=args.seed,
                                  protocol=args.protocol, n_jobs=args.jobs,
                                  trace_rows=args.trace)
        elif args.kind == "optimize":
            result = run_optimize(scenario, out, tau_steps=args.grid[0],
                                  p_steps=args.grid[1], seed=args.seed,
                                  n_jobs=args.jobs)
        elif args.kind == "adapt":
            result = run_adapt(scenario, out, algorithm=args.algorithm,
                               n_frames=args.frames, seed=args.seed)
        elif args.kind == "sweep":
            result = run_false_alarm_sweep(scenario, out, p_fa_values=args.p_fa,
                                           n_su_values=args.n_su,
                                           n_slots=args.slots, seed=args.seed)
        elif args.kind == "ppersistent-compare":
            result = run_ppersistent_compare(scenario, out, n_slots=args.slots,
                                             seed=args.seed)
        elif args.kind == "subgradient-field":
            result = run_subgradient_field(scenario, out, taus=args.taus,
                                           ps=args.ps,
                                           n_realizations=args.realizations,
                                           seed=args.seed)
        elif args.kind == "upper-bound":
            result = run_upper_bound(scenario, out, seed=args.seed)
        else:  # pragma: no cover
            parser.error(f"unhandled kind {args.kind}")
    except RsopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for key, value in sorted(result.summary.items()):
        print(f"{key}: {value}")
    for f in result.files:
        print(f"wrote {f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
