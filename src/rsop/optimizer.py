"""Brute-force benchmark: maximize throughput over (tau, p) under QoS caps.

The decision space is two-dimensional and box-bounded regardless of network
size, so an exhaustive grid evaluated through the chain analyzer is the
reference solution the distributed algorithms are judged against.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .chain import _CHUNK_CELLS, ResolvedDetector, analyze, resolve_detector
from .config import NetworkConfig, QosConstraints, SensingParams
from .core import max_sensing_stages
from .detector import sensing_time_floor
from .errors import EmptyGrid, ScenarioError


@dataclass
class GridSpec:
    """Rectangular (tau, p) grid."""

    tau_lo: float
    tau_hi: float
    tau_steps: int
    p_lo: float = 0.01
    p_hi: float = 1.0
    p_steps: int = 64

    def __post_init__(self):
        if self.tau_steps < 2 or self.p_steps < 2:
            raise EmptyGrid("grid needs at least 2 steps per axis")
        if not (self.tau_lo < self.tau_hi and self.p_lo < self.p_hi):
            raise EmptyGrid("grid ranges must be nonempty")

    def tau_values(self) -> np.ndarray:
        return np.linspace(self.tau_lo, self.tau_hi, self.tau_steps)

    def p_values(self) -> np.ndarray:
        return np.linspace(self.p_lo, self.p_hi, self.p_steps)

    @classmethod
    def default_for(cls, config: NetworkConfig, qos: QosConstraints,
                    tau_steps: int = 64, p_steps: int = 64) -> "GridSpec":
        """tau from the minimum sensing time at the weakest stage-1 SNR up to
        half the slot; p over (0, 1]."""
        # keep the grid nonempty when the minimum sensing time crowds the slot
        tau_lo = min(sensing_time_floor(config, qos), 0.45 * config.slot_duration)
        return cls(tau_lo=tau_lo, tau_hi=0.5 * config.slot_duration,
                   tau_steps=tau_steps, p_steps=p_steps)


@dataclass
class PointEval:
    """One grid point: metrics plus constraint verdict."""

    tau: float
    p: float
    r: float               # per-SU throughput
    t_i: float
    p_md_max: float
    feasible: bool


@dataclass
class OptResult:
    tau_star: float
    p_star: float
    r_star: float            # per-SU throughput at the optimum
    t_i_at_star: float
    feasible: bool           # False when no grid point satisfies the caps
    table: list[PointEval] = field(repr=False, default_factory=list)


def evaluate_point(config: NetworkConfig, tau: float, p: float,
                   qos: QosConstraints, resolved: ResolvedDetector) -> PointEval:
    """Analyze one (tau, p) point and check the interference and misdetection
    caps (the box constraints hold by construction)."""
    return _evaluate_row(config, tau, np.array([p]), qos, resolved)[0]


def _evaluate_row(config: NetworkConfig, tau: float, ps: np.ndarray,
                  qos: QosConstraints, resolved: ResolvedDetector) -> list[PointEval]:
    """:func:`evaluate_point` at every p in ``ps``, in batched analyzer calls
    of at most ``_CHUNK_CELLS`` (channel class x stage) cells each."""
    if not (0 <= tau <= config.slot_duration and 0 <= np.min(ps) <= np.max(ps) <= 1):
        raise ScenarioError("evaluate_point called outside the decision box")
    n_stages = max_sensing_stages(config.slot_duration, tau, config.handoff_time, config.n_pu)
    chunk = max(1, _CHUNK_CELLS // (resolved.classes.rep.size * n_stages))
    table = []
    for lo in range(0, len(ps), chunk):
        res = analyze(config, SensingParams(tau, ps[lo:lo + chunk]), resolved, n_stages)
        cols = (res.params.p, res.throughput, res.interference, res.p_md_max,
                (res.interference <= qos.t_i_max) & (res.p_md_max <= qos.p_md_max))
        table += [PointEval(tau, *pt) for pt in zip(*(c.tolist() for c in cols))]
    return table


def brute_force_optimize(config: NetworkConfig, grid: GridSpec,
                         qos: QosConstraints, resolved: ResolvedDetector = None,
                         evaluator=None, n_jobs: int = 1) -> OptResult:
    """Exhaustive grid search.

    Returns the feasible point with maximum throughput; ties break toward
    smaller tau, then smaller p, so the result does not depend on evaluation
    order.  When nothing is feasible the best-throughput infeasible point is
    reported with ``feasible=False``.  The analyzer runs row by row, batched;
    ``evaluator(tau, p)`` may replace it, and only it runs on ``n_jobs`` threads.
    """
    if n_jobs < 1:
        raise ScenarioError(f"n_jobs must be >= 1, got {n_jobs}")
    taus, ps = grid.tau_values(), grid.p_values()
    if evaluator is None:
        if resolved is None:
            raise ScenarioError("brute_force_optimize needs a resolved detector "
                                "or an explicit evaluator")
        table = [pt for tau in taus for pt in _evaluate_row(config, tau, ps, qos, resolved)]
    elif n_jobs > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            table = list(pool.map(evaluator, np.repeat(taus, len(ps)),
                                  np.tile(ps, len(taus))))
    else:
        table = [evaluator(tau, p) for tau in taus for p in ps]

    def key(pt: PointEval):
        # feasibility first, then throughput, then small tau, then small p
        return (pt.feasible, pt.r, -pt.tau, -pt.p)

    best = max(table, key=key)
    return OptResult(tau_star=best.tau, p_star=best.p, r_star=best.r,
                     t_i_at_star=best.t_i, feasible=best.feasible, table=table)


def optimize_scenario(scenario, grid: GridSpec | None = None,
                      tau_steps: int = 64, p_steps: int = 64,
                      n_jobs: int = 1) -> OptResult:
    """Grid-optimize a scenario with its own QoS and calibrated detector."""
    resolved = resolve_detector(scenario.config, scenario.detector, scenario.qos,
                                scenario.params.tau)
    if grid is None:
        grid = GridSpec.default_for(scenario.config, scenario.qos,
                                    tau_steps=tau_steps, p_steps=p_steps)
    return brute_force_optimize(scenario.config, grid, scenario.qos,
                                resolved=resolved, n_jobs=n_jobs)
