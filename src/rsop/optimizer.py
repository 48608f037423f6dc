"""Brute-force benchmark: maximize throughput over (tau, p) under QoS caps.

The decision space is two-dimensional and box-bounded regardless of network
size, so an exhaustive grid evaluated through the chain analyzer is the
reference solution the distributed algorithms are judged against.  The grid
points are evaluated longest stage budget delta(tau) first, in a few batched
analyzer calls of mixed budget for the whole grid, and the result keeps them
as columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .chain import ResolvedDetector, analyze, resolve_detector
from .config import NetworkConfig, QosConstraints, SensingParams
from .core import max_sensing_stages
from .detector import sensing_time_floor
from .errors import EmptyGrid

# channel class x stage cells per batched analyzer call of the point
# evaluation; caps table memory
_CHUNK_CELLS = 1 << 14


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


_FIELDS = tuple(f.name for f in fields(PointEval))


def _point_evals(columns: dict[str, np.ndarray]) -> list[PointEval]:
    """``PointEval``s of columns keyed by ``PointEval`` field."""
    return [PointEval(*pt)
            for pt in zip(*(columns[name].tolist() for name in _FIELDS))]


@dataclass
class OptResult:
    tau_star: float
    p_star: float
    r_star: float            # per-SU throughput at the optimum
    t_i_at_star: float
    feasible: bool           # False when no grid point satisfies the caps
    # every evaluated point in grid order (tau-major), one array per
    # PointEval field
    columns: dict[str, np.ndarray] = field(repr=False, default_factory=dict)

    @cached_property
    def table(self) -> list[PointEval]:
        """The evaluated points as ``PointEval``s, built on first read."""
        return _point_evals(self.columns)


def evaluate_point(config: NetworkConfig, tau: float, p: float,
                   qos: QosConstraints, resolved: ResolvedDetector) -> PointEval:
    """Analyze one (tau, p) point and check the interference and misdetection
    caps (the box constraints hold by construction)."""
    return _point_evals(evaluate_points(config, np.array([tau]), np.array([p]),
                                        qos, resolved))[0]


def evaluate_points(config: NetworkConfig, tau: np.ndarray, p: np.ndarray,
                    qos: QosConstraints,
                    resolved: ResolvedDetector) -> dict[str, np.ndarray]:
    """:func:`evaluate_point` at every aligned (tau[i], p[i]), as columns in
    input order, one per ``PointEval`` field.

    The points run longest stage budget delta(tau) first, in batched analyzer
    calls of mixed budget; a block holds at most ``_CHUNK_CELLS`` cells,
    counted as points x its longest delta x channel classes."""
    SensingParams(tau, p).validate(config.slot_duration)
    deltas = max_sensing_stages(config.slot_duration, tau, config.handoff_time,
                                config.n_pu)
    order = np.argsort(-deltas, kind="stable")
    r, t_i, p_md_max = np.empty((3, len(tau)))
    lo = 0
    while lo < len(order):
        longest = int(deltas[order[lo]])
        idx = order[lo:lo + max(1, _CHUNK_CELLS
                                // (resolved.classes.rep.size * longest))]
        res = analyze(config, SensingParams(tau[idx], p[idx]), resolved)
        r[idx], t_i[idx], p_md_max[idx] = (res.throughput, res.interference,
                                           res.p_md_max)
        del res  # free this block's tables before the next block's are built
        lo += len(idx)
    feasible = (t_i <= qos.t_i_max) & (p_md_max <= qos.p_md_max)
    return {"tau": tau, "p": p, "r": r, "t_i": t_i, "p_md_max": p_md_max,
            "feasible": feasible}


def brute_force_optimize(config: NetworkConfig, grid: GridSpec,
                         qos: QosConstraints,
                         resolved: ResolvedDetector) -> OptResult:
    """Exhaustive grid search.

    Returns the feasible point with maximum throughput; ties break toward
    smaller tau, then smaller p, so the result does not depend on evaluation
    order.  When nothing is feasible the best-throughput infeasible point is
    reported with ``feasible=False``.  The whole grid is evaluated by
    :func:`evaluate_points`.
    """
    taus, ps = grid.tau_values(), grid.p_values()
    cols = evaluate_points(config, np.repeat(taus, len(ps)),
                           np.tile(ps, len(taus)), qos, resolved)
    # feasibility first, then throughput, then small tau, then small p
    best = np.lexsort((cols["p"], cols["tau"], -cols["r"], ~cols["feasible"]))[0]
    star = {name: col[best].item() for name, col in cols.items()}
    return OptResult(tau_star=star["tau"], p_star=star["p"], r_star=star["r"],
                     t_i_at_star=star["t_i"], feasible=star["feasible"],
                     columns=cols)


def optimize_scenario(scenario, tau_steps: int = 64,
                      p_steps: int = 64) -> OptResult:
    """Grid-optimize a scenario over its default grid, with its own QoS and
    calibrated detector."""
    resolved = resolve_detector(scenario.config, scenario.detector, scenario.qos,
                                scenario.params.tau)
    grid = GridSpec.default_for(scenario.config, scenario.qos,
                                tau_steps=tau_steps, p_steps=p_steps)
    return brute_force_optimize(scenario.config, grid, scenario.qos, resolved)
