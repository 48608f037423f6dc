"""The three benchmark workloads and their problem sizes.

Each workload drives the package through ``rsop.experiments.run_*``, the same
functions the command line calls, so CSV and manifest writing stay on the
measured path.  Every ``n_jobs`` stays at 1: the thread pools in the
optimizer and the simulator are bound by the interpreter lock.

* ``grid``: ``run_optimize`` over a 64x64 (tau, p) grid on two scenarios that
  pull the chain analyzer in opposite directions.  ``validation_ns5_np100``
  has 100 channels and up to 94 stages, so the per-stage Python loops
  dominate; ``dense_ns20_np5`` has at most 5 stages and an energy detector,
  so per-call numpy dispatch and erfc dominate.  No simulator call.
* ``mc_dense``: ``run_simulate`` on ``dense_ns20_np5``, one replication of
  200,000 slots: one large ``simulate_slots`` call, per-element work and
  memory dominate.  No chain ``analyze`` call.
* ``adapt_loop``: ``run_adapt`` with algorithm 1, then 2, for 700 frames each
  on ``adapt_ns3_np7``: 1400 tiny ``simulate_slots`` calls and 4200 scalar
  ``stage_profiles`` calls, so per-call overhead dominates.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# Problem sizes.  "full" is what the benchmark measures; "tiny" exists for
# the harness self-test and has its own reference values.
SIZES = {
    "full": {"grid_steps": 64, "mc_slots": 200_000, "adapt_frames": 700},
    "tiny": {"grid_steps": 8, "mc_slots": 2_000, "adapt_frames": 40},
}


@dataclass(frozen=True)
class Workload:
    scenarios: tuple[str, ...]
    item: str       # what one unit of work is, for the printed rate
    rate_name: str  # the rate's name in the printed summary


WORKLOADS = {
    "grid": Workload(("validation_ns5_np100", "dense_ns20_np5"),
                     "points", "points_per_s"),
    "mc_dense": Workload(("dense_ns20_np5",), "slot*SU", "slot_steps_per_s"),
    "adapt_loop": Workload(("adapt_ns3_np7",), "frames", "frames_per_s"),
}


def setup(rsop, name: str) -> list:
    """Load the workload's scenarios and resolve each detector once.

    Looks every function up on the module at call time, so a traced run sees
    the wrapped versions."""
    scenarios = []
    for sc_name in WORKLOADS[name].scenarios:
        sc = rsop.config.load_scenario(rsop.config.bundled_scenario_path(sc_name))
        rsop.chain.resolve_detector(sc.config, sc.detector, sc.qos, sc.params.tau)
        scenarios.append(sc)
    return scenarios


def run(rsop, name: str, scenarios: list, out_dir: Path, seed: int,
        size: str) -> tuple[int, dict]:
    """Run one repetition; returns (work items done, outputs to check)."""
    sizes = SIZES[size]
    ex = rsop.experiments
    if name == "grid":
        steps = sizes["grid_steps"]
        outputs = {}
        for sc in scenarios:
            out = ex.run_optimize(sc, out_dir / sc.name, tau_steps=steps,
                                  p_steps=steps, seed=seed, n_jobs=1)
            outputs[sc.name] = {"summary": out.summary,
                                "csv": str(out.files[0])}
        return steps * steps * len(scenarios), outputs

    if name == "mc_dense":
        (sc,) = scenarios
        n_slots = sizes["mc_slots"]
        captured = []
        original = ex.simulate_scenario

        def capturing(*args, **kwargs):
            # run_simulate writes no standard error for the interference; the
            # check takes it from the RunMetrics the simulator returns.
            metrics = original(*args, **kwargs)
            captured.append(metrics)
            return metrics

        ex.simulate_scenario = capturing
        try:
            out = ex.run_simulate(sc, out_dir, n_slots=n_slots, n_reps=1,
                                  seed=seed, n_jobs=1)
        finally:
            ex.simulate_scenario = original
        return n_slots * sc.config.n_su, {
            "csv": str(out.files[0]),
            "se_interference": float(captured[0].se_interference)}

    if name == "adapt_loop":
        (sc,) = scenarios
        frames = sizes["adapt_frames"]
        outputs = {}
        for alg in (1, 2):
            out = ex.run_adapt(sc, out_dir, algorithm=alg, n_frames=frames,
                               seed=seed)
            outputs[f"alg{alg}"] = {"summary": out.summary,
                                    "csv": str(out.files[0])}
        return 2 * frames, outputs

    raise ValueError(f"unknown workload {name!r}")
