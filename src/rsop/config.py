"""Scenario configuration: domain types, unit-aware YAML loading, bundled files.

A scenario file is a small key/value tree with four mandatory sections
(``network``, ``sensing``, ``qos``, ``detector``) and an optional ``adaptive``
section.  Durations and frequencies may carry unit suffixes ("10 ms",
"6.857 MHz"); everything is normalized to seconds / Hz on load.  Unknown keys
anywhere in the tree are rejected.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .errors import ScenarioError

_TIME_UNITS = {
    "s": 1.0,
    "ms": 1e-3,
    "us": 1e-6,
    "µs": 1e-6,  # µs
    "μs": 1e-6,  # μs (greek mu)
    "ns": 1e-9,
}
_FREQ_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}

_QUANTITY_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*([a-zA-Zµμ]*)\s*$")


def _parse_quantity(value, units: dict, kind: str) -> float:
    """Parse a number with an optional unit suffix into base units."""
    if isinstance(value, (int, float)):
        return float(value)
    if not isinstance(value, str):
        raise ScenarioError(f"cannot parse {kind} value {value!r}")
    m = _QUANTITY_RE.match(value)
    if not m:
        raise ScenarioError(f"cannot parse {kind} value {value!r}")
    number, suffix = m.groups()
    if not suffix:
        return float(number)
    key = suffix if suffix in units else suffix.lower()
    if key not in units:
        raise ScenarioError(f"unknown {kind} unit {suffix!r} in {value!r}")
    return float(number) * units[key]


def parse_time(value) -> float:
    """Duration in seconds from e.g. ``"10 ms"``, ``"0.1 us"`` or a bare number."""
    return _parse_quantity(value, _TIME_UNITS, "time")


def parse_freq(value) -> float:
    """Frequency in Hz from e.g. ``"6.857 MHz"`` or a bare number."""
    return _parse_quantity(value, _FREQ_UNITS, "frequency")


@dataclass
class NetworkConfig:
    """Static scenario description of the primary and secondary networks."""

    n_su: int                    # number of secondary users N_s
    n_pu: int                    # number of primary users / channels N_p
    slot_duration: float         # T, seconds
    handoff_time: float          # tau_h, seconds
    sampling_freq: float         # f_s, Hz
    tx_rate: float               # C_R, bit/s/Hz, identical across SUs
    presence_prob: np.ndarray    # per-channel PU presence probability
    pu_power: np.ndarray         # per-channel PU power at the SU receiver (linear)
    su_power: float              # SU power at a sensing receiver (linear)
    noise_power: float           # noise power (linear)

    def __post_init__(self):
        self.presence_prob = np.broadcast_to(
            np.asarray(self.presence_prob, dtype=float), (self.n_pu,)
        ).copy()
        self.pu_power = np.broadcast_to(
            np.asarray(self.pu_power, dtype=float), (self.n_pu,)
        ).copy()
        self.validate()

    def validate(self):
        if self.n_su < 1 or self.n_pu < 1:
            raise ScenarioError("n_su and n_pu must be positive")
        if self.slot_duration <= 0:
            raise ScenarioError("slot_duration must be positive")
        if self.handoff_time < 0:
            raise ScenarioError("handoff_time must be nonnegative")
        if self.sampling_freq <= 0:
            raise ScenarioError("sampling_freq must be positive")
        if self.tx_rate < 0:
            raise ScenarioError("tx_rate must be nonnegative")
        if np.any(self.presence_prob < 0) or np.any(self.presence_prob > 1):
            raise ScenarioError("presence_prob entries must lie in [0, 1]")
        if np.any(self.pu_power <= 0) or self.su_power <= 0 or self.noise_power <= 0:
            raise ScenarioError("all powers must be positive")

    @property
    def snr_stage1(self) -> np.ndarray:
        """Per-channel received SNR when only the PU occupies the channel."""
        return self.pu_power / self.noise_power


@dataclass
class SensingParams:
    """Decision variables: sensing time tau (s) and sensing probability p."""

    tau: float | np.ndarray  # an array, aligned with p, is one point per entry
                             # (``chain.stage_profiles`` only)
    p: float | np.ndarray  # an array is a tau row for the batched chain analyzer

    def validate(self, slot_duration: float):
        if not 0 <= self.tau <= slot_duration:
            raise ScenarioError(f"tau={self.tau} outside [0, T={slot_duration}]")
        if not 0 <= np.min(self.p) <= np.max(self.p) <= 1:
            raise ScenarioError(f"p={self.p} outside [0, 1]")


@dataclass
class QosConstraints:
    """QoS caps: interference time, misdetection, false alarm, detection floor."""

    t_i_max: float       # max normalized interference time (fraction of T)
    p_md_max: float      # max misdetection probability, any channel/stage
    p_fa_max: float      # max false-alarm probability
    p_d_min: float       # min detection probability

    def __post_init__(self):
        for name in ("t_i_max", "p_md_max", "p_fa_max", "p_d_min"):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise ScenarioError(f"{name}={v} outside [0, 1]")


@dataclass
class DetectorSpec:
    """How sensing-error probabilities are produced.

    mode="energy": Gaussian-approximated energy detector.  The normalized
    threshold lambda/sigma_z^2 is either given (``threshold``) or calibrated
    once per scenario at ``calibrate_tau`` so that the stage-1 detection
    probability equals ``qos.p_d_min`` (calibration="pd_min") or the false
    alarm equals ``qos.p_fa_max`` (calibration="pfa_max").  The threshold is
    then held fixed while tau and p vary.

    mode="explicit": the per-channel false-alarm and detection probabilities
    are given directly and do not depend on tau; ``p_d`` may be a scalar or a
    per-stage list.
    """

    mode: str = "energy"
    calibration: str = "pd_min"          # "pd_min" | "pfa_max"
    calibrate_tau: float | None = None   # defaults to the scenario's nominal tau
    threshold: float | None = None       # normalized lambda/sigma_z^2, overrides calibration
    p_fa: float | None = None            # explicit mode only
    p_d: tuple | float | None = None     # explicit mode: scalar or per-stage sequence
    per_stage_snr: bool = False          # energy mode: exact per-stage SNR instead of
                                         # reusing the stage-2 value for stages >= 3

    def __post_init__(self):
        if self.mode not in ("energy", "explicit"):
            raise ScenarioError(f"unknown detector mode {self.mode!r}")
        if self.calibration not in ("pd_min", "pfa_max"):
            raise ScenarioError(f"unknown calibration rule {self.calibration!r}")
        if self.mode == "explicit":
            if self.p_fa is None or self.p_d is None:
                raise ScenarioError("explicit detector needs p_fa and p_d")
            if not 0 <= self.p_fa <= 1:
                raise ScenarioError("p_fa outside [0, 1]")
            pd = np.atleast_1d(np.asarray(self.p_d, dtype=float))
            if np.any(pd < 0) or np.any(pd > 1):
                raise ScenarioError("p_d outside [0, 1]")
        elif self.threshold is not None and self.threshold <= 0:
            raise ScenarioError("threshold must be positive")


@dataclass
class AdaptiveDefaults:
    """Per-scenario defaults for the distributed adaptation algorithms."""

    n_ep: int = 50                  # slots per frame (estimation period)
    delta_tau: float | None = None  # coarse tau increment, defaults to 0.01 T
    delta_p: float = 0.025          # coarse p increment
    delta_tau_fine: float | None = None  # per-stage tau decrement (Algorithm 2)
    delta_p_fine: float = 0.025          # per-stage p increment (Algorithm 2)
    initial_tau: float | None = None     # tau^1; defaults to the nominal tau
    initial_p: float | None = None       # p^1; defaults to the nominal p
    tau_min: float | None = None         # floor; defaults to the Eq.-style minimum
                                         # sensing time for the stage-1 SNR


@dataclass
class Scenario:
    """A fully specified scenario: network + nominal sensing + QoS + detector."""

    name: str
    config: NetworkConfig
    params: SensingParams
    qos: QosConstraints
    detector: DetectorSpec
    adaptive: AdaptiveDefaults = field(default_factory=AdaptiveDefaults)
    notes: str = ""

    def __post_init__(self):
        self.params.validate(self.config.slot_duration)
        if (
            self.detector.mode == "energy"
            and self.detector.threshold is None
            and self.detector.calibrate_tau is None
        ):
            self.detector = replace(self.detector, calibrate_tau=self.params.tau)

    def with_params(self, tau: float | None = None, p: float | None = None) -> "Scenario":
        """Copy of the scenario with the nominal (tau, p) replaced."""
        params = SensingParams(
            tau=self.params.tau if tau is None else tau,
            p=self.params.p if p is None else p,
        )
        params.validate(self.config.slot_duration)
        return replace(self, params=params)

    def content_hash(self) -> str:
        """Stable hash of the scenario contents, embedded in output headers."""
        c = self.config
        parts = [
            self.name, c.n_su, c.n_pu, c.slot_duration, c.handoff_time,
            c.sampling_freq, c.tx_rate, c.presence_prob.tolist(),
            c.pu_power.tolist(), c.su_power, c.noise_power,
            self.params.tau, self.params.p,
            self.qos.t_i_max, self.qos.p_md_max, self.qos.p_fa_max, self.qos.p_d_min,
            self.detector.mode, self.detector.calibration, self.detector.calibrate_tau,
            self.detector.threshold, self.detector.p_fa,
            None if self.detector.p_d is None else np.atleast_1d(self.detector.p_d).tolist(),
            self.detector.per_stage_snr,
        ]
        return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


_NETWORK_KEYS = {
    "n_su", "n_pu", "slot_duration", "handoff_time", "sampling_freq",
    "tx_rate", "presence_prob", "pu_power", "su_power", "noise_power",
}
_SENSING_KEYS = {"tau", "p"}
_QOS_KEYS = {"t_i_max", "p_md_max", "p_fa_max", "p_d_min"}
_DETECTOR_KEYS = {
    "mode", "calibration", "calibrate_tau", "threshold", "p_fa", "p_d",
    "per_stage_snr",
}
_ADAPTIVE_KEYS = {
    "n_ep", "delta_tau", "delta_p", "delta_tau_fine", "delta_p_fine",
    "initial_tau", "initial_p", "tau_min",
}
_TOP_KEYS = {"name", "notes", "network", "sensing", "qos", "detector", "adaptive"}


def _check_keys(section: dict, allowed: set, where: str):
    unknown = set(section) - allowed
    if unknown:
        raise ScenarioError(f"unknown key(s) {sorted(unknown)} in section '{where}'")
    return section


def _require(section: dict, keys, where: str):
    missing = [k for k in keys if k not in section]
    if missing:
        raise ScenarioError(f"missing key(s) {missing} in section '{where}'")


def scenario_from_dict(doc: dict, name: str = "<inline>") -> Scenario:
    """Build a :class:`Scenario` from a parsed key/value tree."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a mapping")
    _check_keys(doc, _TOP_KEYS, "<top level>")
    for sec in ("network", "sensing", "qos", "detector"):
        if sec not in doc:
            raise ScenarioError(f"missing section '{sec}'")

    net = _check_keys(dict(doc["network"]), _NETWORK_KEYS, "network")
    _require(net, _NETWORK_KEYS, "network")
    config = NetworkConfig(
        n_su=int(net["n_su"]),
        n_pu=int(net["n_pu"]),
        slot_duration=parse_time(net["slot_duration"]),
        handoff_time=parse_time(net["handoff_time"]),
        sampling_freq=parse_freq(net["sampling_freq"]),
        tx_rate=float(net["tx_rate"]),
        presence_prob=net["presence_prob"],
        pu_power=net["pu_power"],
        su_power=float(net["su_power"]),
        noise_power=float(net["noise_power"]),
    )

    sen = _check_keys(dict(doc["sensing"]), _SENSING_KEYS, "sensing")
    _require(sen, _SENSING_KEYS, "sensing")
    params = SensingParams(tau=parse_time(sen["tau"]), p=float(sen["p"]))

    qos_sec = _check_keys(dict(doc["qos"]), _QOS_KEYS, "qos")
    _require(qos_sec, _QOS_KEYS, "qos")
    qos = QosConstraints(**{k: float(qos_sec[k]) for k in _QOS_KEYS})

    det_sec = _check_keys(dict(doc["detector"]), _DETECTOR_KEYS, "detector")
    det_kwargs = dict(det_sec)
    if "calibrate_tau" in det_kwargs and det_kwargs["calibrate_tau"] is not None:
        det_kwargs["calibrate_tau"] = parse_time(det_kwargs["calibrate_tau"])
    if "p_d" in det_kwargs and isinstance(det_kwargs["p_d"], list):
        det_kwargs["p_d"] = tuple(float(x) for x in det_kwargs["p_d"])
    detector = DetectorSpec(**det_kwargs)

    adaptive = AdaptiveDefaults()
    if "adaptive" in doc:
        ad = _check_keys(dict(doc["adaptive"]), _ADAPTIVE_KEYS, "adaptive")
        kwargs = dict(ad)
        for key in ("delta_tau", "delta_tau_fine", "initial_tau", "tau_min"):
            if kwargs.get(key) is not None:
                kwargs[key] = parse_time(kwargs[key])
        if "n_ep" in kwargs:
            kwargs["n_ep"] = int(kwargs["n_ep"])
        adaptive = AdaptiveDefaults(**kwargs)

    return Scenario(
        name=str(doc.get("name", name)),
        config=config,
        params=params,
        qos=qos,
        detector=detector,
        adaptive=adaptive,
        notes=str(doc.get("notes", "")),
    )


def load_scenario(path) -> Scenario:
    """Load and validate a scenario file.  Rejects unknown keys."""
    path = Path(path)
    try:
        doc = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: parse error: {exc}") from exc
    try:
        return scenario_from_dict(doc, name=path.stem)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def bundled_scenarios() -> dict[str, str]:
    """Names and paths of the scenario files shipped with the package."""
    base = resources.files("rsop").joinpath("scenarios")
    out = {}
    for entry in sorted(base.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".yaml"):
            out[entry.name[: -len(".yaml")]] = str(entry)
    return out


def bundled_scenario_path(name: str) -> str:
    """Path of one bundled scenario; raises ScenarioError if absent."""
    table = bundled_scenarios()
    if name not in table:
        raise ScenarioError(
            f"no bundled scenario {name!r}; available: {', '.join(sorted(table))}"
        )
    return table[name]


def load_bundled(name: str) -> Scenario:
    return load_scenario(bundled_scenario_path(name))
