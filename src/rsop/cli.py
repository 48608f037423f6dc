"""Command-line front end: ``rsop <kind> --scenario FILE --out DIR ...``."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import bundled_scenarios, load_bundled, load_scenario
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
    return load_bundled(arg)


def _add_kind(sub, name: str, run, help: str):
    """A subcommand that loads a scenario and calls ``run``.  Each option's
    ``dest`` is a parameter of ``run``; an option left out takes that
    parameter's default."""
    sp = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
    sp.set_defaults(run=run)
    sp.add_argument("--scenario", required=True,
                    help="scenario file path or bundled scenario name")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", dest="out_dir", default="out",
                    help="output directory")
    return sp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsop",
        description="Random sensing-order policy experiments: analytic model, "
                    "slot simulation, grid optimization, distributed adaptation.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)

    sp = _add_kind(sub, "analyze", run_analyze, "analytic sweep over p or tau")
    sp.add_argument("--axis", choices=("p", "tau"))

    sp = _add_kind(sub, "simulate", run_simulate,
                   "Monte Carlo at the nominal point or a sweep")
    sp.add_argument("--axis", choices=("p", "tau"))
    sp.add_argument("--values", type=float, nargs="*")
    sp.add_argument("--slots", dest="n_slots", type=int)
    sp.add_argument("--reps", dest="n_reps", type=int)
    sp.add_argument("--protocol", choices=("modified", "conventional"))
    sp.add_argument("--jobs", dest="n_jobs", type=int)
    sp.add_argument("--trace", dest="trace_rows", type=int,
                    help="also dump up to N per-slot trace rows")

    sp = _add_kind(sub, "optimize", run_optimize,
                   "brute-force (tau, p) grid benchmark")
    sp.add_argument("--grid", type=int, nargs=2, metavar=("TAU_STEPS", "P_STEPS"))

    sp = _add_kind(sub, "adapt", run_adapt, "closed-loop distributed adaptation")
    sp.add_argument("--algorithm", type=int, choices=(1, 2))
    sp.add_argument("--frames", dest="n_frames", type=int)

    sp = _add_kind(sub, "sweep", run_false_alarm_sweep,
                   "false-alarm sweep across network densities")
    sp.add_argument("--p-fa", dest="p_fa_values", type=float, nargs="*")
    sp.add_argument("--n-su", dest="n_su_values", type=int, nargs="*")
    sp.add_argument("--slots", dest="n_slots", type=int)

    sp = _add_kind(sub, "ppersistent-compare", run_ppersistent_compare,
                   "modified vs conventional p-persistent access")
    sp.add_argument("--slots", dest="n_slots", type=int)

    sp = _add_kind(sub, "subgradient-field", run_subgradient_field,
                   "mean update direction vs analytic gradient")
    sp.add_argument("--taus", type=float, nargs="+", required=True)
    sp.add_argument("--ps", type=float, nargs="+", required=True)
    sp.add_argument("--realizations", dest="n_realizations", type=int)

    _add_kind(sub, "upper-bound", run_upper_bound, "ideal throughput bound")

    sub.add_parser("scenarios", help="list bundled scenarios").set_defaults(run=None)
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    del args["kind"]
    run = args.pop("run")
    if run is None:  # the scenarios listing
        for name, path in bundled_scenarios().items():
            print(f"{name}\t{path}")
        return 0
    try:
        if args["seed"] < 0:
            raise ScenarioError(f"--seed must be >= 0, got {args['seed']}")
        args["scenario"] = _load(args["scenario"])
        if "grid" in args:
            args["tau_steps"], args["p_steps"] = args.pop("grid")
        result = run(**args)
    except (RsopError, OSError) as exc:  # OSError: an --out path unfit to write
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for key, value in sorted(result.summary.items()):
        print(f"{key}: {value}")
    for f in result.files:
        print(f"wrote {f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
