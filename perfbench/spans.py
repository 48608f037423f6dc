"""Per-layer spans recorded from outside the package.

Each layer's public functions are wrapped.  The package imports functions by
name (``from .chain import analyze``), so a wrapper replaces the function
object under every name any ``rsop`` module binds it to, e.g.
``rsop.optimizer.analyze``, ``rsop.adaptive.stage_profiles`` and
``rsop.simulator.q_function``.  The seeded ``numpy.random.Generator`` is
wrapped in a timing proxy, which draws exactly the same numbers.

A span's self time is its duration minus the time its child spans cover.
Spans are aggregated per name as they close, as a call count and a self
time.  Counters read off arguments and results (hooks) run outside every
span and are charged to no span's self time; their cost shows only in
``trace.overhead_s``.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# Wrapped functions by layer.  Private helpers stay unwrapped, so their time
# is self time of the public function that calls them (``_no_tx_matrix`` in
# ``analyze``, ``_analytic_p_md`` in ``run_adaptive``).
LAYERS = {
    "config": ["load_scenario"],
    "core": ["max_sensing_stages", "remaining_times"],
    "detector": ["q_function", "false_alarm_prob", "detection_prob",
                 "threshold_for_detection", "min_sensing_time"],
    "chain": ["resolve_detector", "analyze", "stage_profiles",
              "occupancy_evolution", "state_distribution", "avg_throughput",
              "avg_interference"],
    "simulator": ["simulate_scenario", "monte_carlo", "run_replication",
                  "simulate_slots"],
    "optimizer": ["optimize_scenario", "brute_force_optimize"],
    "adaptive": ["run_adaptive", "alg1_update", "frame_estimate"],
    "experiments": ["run_optimize", "run_simulate", "run_adapt", "write_csv"],
}

ROOT = "workload"


class Recorder:
    """Aggregated spans and counters of one traced run."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._open: list[float] = []  # child time covered, per open span

    def call(self, name: str, fn, args=(), kwargs=None, hook=None):
        kwargs = kwargs or {}
        self._open.append(0.0)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = perf_counter() - start
            child = self._open.pop()
            self.calls[name] += 1
            self.self_s[name] += dur - child
            if self._open:
                self._open[-1] += dur
        if hook is not None:
            start = perf_counter()
            hook(self.counts, args, result)
            if self._open:
                self._open[-1] += perf_counter() - start
        return result


def _count_cells(counts, args, result):
    counts["chain.cells"] += result.occupancy.occ.size


def _count_slots(counts, args, batch):
    schedules = args[1]
    slots, n_su = batch.throughput.shape
    # simulate_slots draws for every (slot, SU) at each stage it enters and
    # stops after the first stage where no SU is still searching.
    last_active = int(batch.handoffs.max()) + 1
    drawn = min(schedules.max_stages, last_active + 1)
    counts["simulator.slot_su"] += slots * n_su
    counts["simulator.sensed"] += int(batch.overhead.sum())
    counts["simulator.drawn"] += slots * n_su * drawn


def _count_points(counts, args, result):
    counts["optimizer.points"] += len(result.table)
    counts["optimizer.feasible"] += sum(pt.feasible for pt in result.table)


def _count_bytes(counts, args, path):
    counts["experiments.csv_bytes"] += Path(path).stat().st_size


HOOKS = {
    "chain.analyze": _count_cells,
    "simulator.simulate_slots": _count_slots,
    "optimizer.brute_force_optimize": _count_points,
    "experiments.write_csv": _count_bytes,
}


class _TimedGenerator:
    """Forwards to a ``numpy.random.Generator``, timing every draw."""

    def __init__(self, rec: Recorder, gen):
        self._rec = rec
        self._gen = gen

    def random(self, *args, **kwargs):
        return self._rec.call("simulator.rng", self._gen.random, args, kwargs)

    def integers(self, *args, **kwargs):
        return self._rec.call("simulator.rng", self._gen.integers, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _wrapper(rec: Recorder, name: str, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return rec.call(name, fn, args, kwargs, hook)
    return traced


def install(rec: Recorder) -> None:
    """Wrap every function in ``LAYERS`` wherever an rsop module binds it.

    Meant for a process that runs one traced workload and exits; nothing is
    restored."""
    for layer in LAYERS:
        importlib.import_module(f"rsop.{layer}")
    modules = [m for n, m in sys.modules.items()
               if n == "rsop" or n.startswith("rsop.")]
    for layer, names in LAYERS.items():
        defining = sys.modules[f"rsop.{layer}"]
        for fname in names:
            fn = getattr(defining, fname)
            span = f"{layer}.{fname}"
            traced = _wrapper(rec, span, fn, HOOKS.get(span))
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is fn]:
                    setattr(mod, attr, traced)

    default_rng = np.random.default_rng
    np.random.default_rng = (
        lambda *args, **kwargs: _TimedGenerator(rec, default_rng(*args, **kwargs)))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """The per-layer metrics of one traced repetition (``trace.overhead_s``
    needs an untraced run and is added by the caller)."""
    s, c, n = rec.self_s, rec.calls, rec.counts
    return {
        "chain.analyze.calls": c["chain.analyze"],
        "chain.analyze.self_s": s["chain.analyze"],
        "chain.stage_profiles.self_s": s["chain.stage_profiles"],
        "chain.occupancy_evolution.self_s": s["chain.occupancy_evolution"],
        "chain.state_distribution.self_s": s["chain.state_distribution"],
        "chain.metrics.self_s": (s["chain.avg_throughput"]
                                 + s["chain.avg_interference"]),
        "chain.cells_per_point": _ratio(n["chain.cells"], c["chain.analyze"]),
        "detector.q_function.calls": c["detector.q_function"],
        "detector.q_function.self_s": s["detector.q_function"],
        "detector.detection_prob.self_s": s["detector.detection_prob"],
        "detector.false_alarm_prob.self_s": s["detector.false_alarm_prob"],
        "simulator.simulate_slots.calls": c["simulator.simulate_slots"],
        "simulator.simulate_slots.self_s": s["simulator.simulate_slots"],
        "simulator.rng.self_s": s["simulator.rng"],
        "simulator.aggregate.self_s": (s["simulator.run_replication"]
                                       + s["simulator.monte_carlo"]),
        "simulator.slot_su_per_call": _ratio(n["simulator.slot_su"],
                                             c["simulator.simulate_slots"]),
        "simulator.sense_ratio": _ratio(n["simulator.sensed"],
                                        n["simulator.drawn"]),
        "optimizer.brute_force_optimize.self_s":
            s["optimizer.brute_force_optimize"],
        "optimizer.points": n["optimizer.points"],
        "optimizer.feasible_ratio": _ratio(n["optimizer.feasible"],
                                           n["optimizer.points"]),
        "adaptive.run_adaptive.self_s": s["adaptive.run_adaptive"],
        "adaptive.alg1_update.self_s": s["adaptive.alg1_update"],
        "adaptive.frame_estimate.self_s": s["adaptive.frame_estimate"],
        "experiments.write_csv.self_s": s["experiments.write_csv"],
        "experiments.csv_bytes": n["experiments.csv_bytes"],
        "config.load_scenario.self_s": s["config.load_scenario"],
        "core.max_sensing_stages.calls": c["core.max_sensing_stages"],
        "trace.unattributed_s": s[ROOT],
    }
