"""Random sensing-order policy (RSOP) toolkit for cognitive radio networks.

A secondary network of N_s users opportunistically senses and accesses N_p
licensed channels, probing a fresh uniformly random channel order every slot
under a modified p-persistent MAC.  The package provides four cross-validated
views of the same system:

* an exact Markov-chain performance model (:mod:`rsop.chain`),
* a slot-level Monte Carlo simulator (:mod:`rsop.simulator`),
* a constrained brute-force benchmark optimizer (:mod:`rsop.optimizer`),
* distributed per-user adaptation of the sensing time / sensing probability
  with convergence diagnostics (:mod:`rsop.adaptive`).

Scenario files and the experiment front end live in :mod:`rsop.config` and
:mod:`rsop.experiments`.
"""

from .config import (
    AdaptiveConfig,
    NetworkConfig,
    SensingParams,
    QosConstraints,
    DetectorSpec,
    Scenario,
    load_scenario,
    bundled_scenarios,
    bundled_scenario_path,
)
from .core import (
    max_sensing_stages,
    upper_bound_throughput,
)
from .detector import (
    q_function,
    q_inverse,
    false_alarm_prob,
    misdetection_prob,
    detection_prob,
    received_snr,
    threshold_for_detection,
    min_sensing_time,
)
from .chain import analyze, ChainResult
from .simulator import run_replication, monte_carlo, RunMetrics
from .optimizer import (
    GridSpec,
    evaluate_point,
    evaluate_points,
    brute_force_optimize,
    OptResult,
)
from .adaptive import (
    AdaptiveState,
    alg1_update,
    alg2_stage_schedule,
    convergence_constants,
    convergence_bound,
    corollary_check,
    run_adaptive,
    subgradient_field,
)

__version__ = "0.1.0"

__all__ = [
    "NetworkConfig",
    "SensingParams",
    "QosConstraints",
    "DetectorSpec",
    "Scenario",
    "load_scenario",
    "bundled_scenarios",
    "bundled_scenario_path",
    "max_sensing_stages",
    "upper_bound_throughput",
    "q_function",
    "q_inverse",
    "false_alarm_prob",
    "misdetection_prob",
    "detection_prob",
    "received_snr",
    "threshold_for_detection",
    "min_sensing_time",
    "analyze",
    "ChainResult",
    "run_replication",
    "monte_carlo",
    "RunMetrics",
    "GridSpec",
    "evaluate_point",
    "evaluate_points",
    "brute_force_optimize",
    "OptResult",
    "AdaptiveConfig",
    "AdaptiveState",
    "alg1_update",
    "alg2_stage_schedule",
    "convergence_constants",
    "convergence_bound",
    "corollary_check",
    "run_adaptive",
    "subgradient_field",
    "__version__",
]
