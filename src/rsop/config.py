"""Scenario configuration: domain types, unit-aware YAML loading, bundled files.

A scenario file is a small key/value tree with four mandatory sections
(``network``, ``sensing``, ``qos``, ``detector``) and an optional ``adaptive``
section.  Durations and frequencies may carry unit suffixes ("10 ms",
"6.857 MHz"); everything is normalized to seconds / Hz on load.  The keys of
each section are the fields of its dataclass below; unknown keys anywhere in
the tree, and keys given twice in one mapping, are rejected.
"""

from __future__ import annotations

import functools
import hashlib
import math
import re
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
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


def _real(value) -> float:
    """A finite number; a bool is not one."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a number")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not finite")
    return number


def _count(value) -> int:
    """A whole number; a bool is not one."""
    number = _real(value)
    if not number.is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return int(number)


def _numbers(value) -> tuple:
    """A scalar or a list as a nonempty tuple of finite numbers."""
    numbers = tuple(map(_real, np.atleast_1d(value).tolist()))
    if not numbers:
        raise ValueError("needs at least one number")
    return numbers


def _parse_quantity(value, units: dict, kind: str) -> float:
    """Parse a finite number with an optional unit suffix into base units."""
    number, scale = value, 1.0
    if isinstance(value, str):
        m = _QUANTITY_RE.match(value)
        if not m:
            raise ScenarioError(f"cannot parse {kind} value {value!r}")
        number, suffix = m.groups()
        if suffix:
            key = suffix if suffix in units else suffix.lower()
            if key not in units:
                raise ScenarioError(f"unknown {kind} unit {suffix!r} in {value!r}")
            scale = units[key]
    try:
        return _real(number) * scale
    except (TypeError, ValueError):
        raise ScenarioError(f"cannot parse {kind} value {value!r}") from None


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
        # every range check below is a comparison, which NaN passes
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)).all():
                raise ScenarioError(f"{f.name} must be finite, got "
                                    f"{getattr(self, f.name)}")
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
    def one_sample(self) -> float:
        """The shortest sensing time: 1/f_s, moved up one ulp where it
        rounds to just under one sample."""
        one = 1.0 / self.sampling_freq
        if one * self.sampling_freq < 1.0:
            one = float(np.nextafter(one, np.inf))
        return one

    @property
    def snr_stage1(self) -> np.ndarray:
        """Per-channel received SNR when only the PU occupies the channel."""
        return self.pu_power / self.noise_power


@dataclass
class SensingParams:
    """Decision variables: sensing time tau (s) and sensing probability p."""

    tau: float | np.ndarray  # an array, aligned with p, is one point per entry
    p: float | np.ndarray  # an array with a scalar tau is a tau row

    def validate(self, slot_duration: float):
        """Range-check every entry; NaN is out of range."""
        tau = np.asarray(self.tau, dtype=float)
        if not ((tau > 0) & (tau <= slot_duration)).all():
            raise ScenarioError(f"tau={self.tau} outside (0, T={slot_duration}]")
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
        for f in fields(self):
            v = getattr(self, f.name)
            if not 0 <= v <= 1:
                raise ScenarioError(f"{f.name}={v} outside [0, 1]")


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

    A key of the other mode is rejected, not ignored.  ``calibration`` has a
    default, so it is not checked.
    """

    mode: str = "energy"
    calibration: str = "pd_min"          # "pd_min" | "pfa_max"
    calibrate_tau: float | None = None   # defaults to the scenario's nominal tau
    threshold: float | None = None       # normalized lambda/sigma_z^2, overrides calibration
    p_fa: float | None = None            # explicit mode only
    p_d: tuple | None = None             # explicit mode: one per stage; a scalar
                                         # is stored as one stage

    def __post_init__(self):
        if self.mode not in ("energy", "explicit"):
            raise ScenarioError(f"unknown detector mode {self.mode!r}")
        other = (("threshold", "calibrate_tau") if self.mode == "explicit"
                 else ("p_fa", "p_d"))
        for key in other:
            if getattr(self, key) is not None:
                raise ScenarioError(f"{key} is not a key of the "
                                    f"{self.mode} detector")
        if self.calibration not in ("pd_min", "pfa_max"):
            raise ScenarioError(f"unknown calibration rule {self.calibration!r}")
        if self.p_d is not None:
            self.p_d = _numbers(self.p_d)
        if self.mode == "explicit":
            if self.p_fa is None or self.p_d is None:
                raise ScenarioError("explicit detector needs p_fa and p_d")
            if not 0 <= self.p_fa <= 1:
                raise ScenarioError("p_fa outside [0, 1]")
            if not 0 <= min(self.p_d) <= max(self.p_d) <= 1:
                raise ScenarioError("p_d outside [0, 1]")
        elif self.threshold is not None and self.threshold <= 0:
            raise ScenarioError("threshold must be positive")


@dataclass
class AdaptiveConfig:
    """Constants of the distributed adaptation algorithms, shared by every SU.

    A loaded scenario keeps its ``None``s; ``adaptive._adaptive_cfg`` fills
    them in.  The step size is the fixed harmonic alpha_k = 1/k."""

    n_ep: int = 50                  # slots per frame (estimation period)
    delta_tau: float | None = None  # coarse tau increment, defaults to 0.01 T
    delta_p: float = 0.025          # coarse p increment
    delta_tau_fine: float | None = None  # per-stage tau decrement (Algorithm 2)
    delta_p_fine: float = 0.025          # per-stage p increment (Algorithm 2)
    initial_tau: float | None = None     # tau^1; defaults to the nominal tau
    initial_p: float | None = None       # p^1; defaults to the nominal p
    tau_min: float | None = None         # floor in [one sample, T]; defaults to the
                                         # QoS minimum sensing time (energy mode)

    def validate(self, config: NetworkConfig):
        """Range-check every given value; NaN is out of range."""
        t = config.slot_duration
        if not self.n_ep >= 1:
            raise ScenarioError(f"n_ep={self.n_ep} must be >= 1")
        for key in ("delta_tau", "delta_p", "delta_tau_fine", "delta_p_fine"):
            value = getattr(self, key)
            if value is not None and not value >= 0:
                raise ScenarioError(f"{key}={value} must be >= 0")
        if self.initial_tau is not None and not 0 < self.initial_tau <= t:
            raise ScenarioError(f"initial_tau={self.initial_tau} outside (0, T={t}]")
        # a floor under one sample would stop the run at its first frame
        if self.tau_min is not None and not config.one_sample <= self.tau_min <= t:
            raise ScenarioError(f"tau_min={self.tau_min} outside "
                                f"[one sample={config.one_sample}, T={t}]")
        if self.initial_p is not None and not 0 <= self.initial_p <= 1:
            raise ScenarioError(f"initial_p={self.initial_p} outside [0, 1]")


@dataclass
class Scenario:
    """A fully specified scenario: network + nominal sensing + QoS + detector."""

    name: str
    config: NetworkConfig
    params: SensingParams
    qos: QosConstraints
    detector: DetectorSpec
    adaptive: AdaptiveConfig = field(default_factory=AdaptiveConfig)
    notes: str = ""

    def __post_init__(self):
        self.params.validate(self.config.slot_duration)
        self.adaptive.validate(self.config)
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
        return replace(self, params=params)  # __post_init__ checks them

    def content_hash(self) -> str:
        """Stable hash of the name and of every field of the network, sensing,
        QoS and detector sections, embedded in output headers."""
        parts = [self.name]
        for section in (self.config, self.params, self.qos, self.detector):
            for f in fields(section):
                value = getattr(section, f.name)
                if isinstance(value, (np.ndarray, tuple)):
                    value = np.asarray(value).tolist()
                parts.append(value)
        return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


# file key of each Scenario field whose key in a scenario file differs
_FILE_KEYS = {"config": "network", "params": "sensing"}
# keys that may carry a unit, each with its parser
_UNIT_KEYS = {"sampling_freq": parse_freq, **dict.fromkeys((
    "slot_duration", "handoff_time", "tau", "calibrate_tau", "delta_tau",
    "delta_tau_fine", "initial_tau", "tau_min"), parse_time)}
# converter of each field kind; the kind of a union is its first member
_CONVERTERS = {int: _count, float: _real, str: str,
               np.ndarray: _numbers, tuple: _numbers}
_type_hints = functools.cache(typing.get_type_hints)


def _build(cls, doc, where: str):
    """An instance of the dataclass ``cls`` from the mapping ``doc``, whose
    keys are its fields; a field without a default is required."""
    place = f"section '{where}'" if where else "the top level"
    if not isinstance(doc, dict):
        raise ScenarioError(f"{place} must be a mapping")
    by_key = {_FILE_KEYS.get(f.name, f.name): f for f in fields(cls)}
    unknown = sorted(set(doc) - set(by_key), key=str)
    if unknown:
        raise ScenarioError(f"unknown key(s) {unknown} in {place}")
    missing = [key for key, f in by_key.items() if key not in doc
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ScenarioError(f"missing key(s) {missing} in {place}")
    kwargs = {}
    for key, value in doc.items():
        f, path = by_key[key], f"{where}.{key}" if where else key
        kind = _type_hints(cls)[f.name]
        if isinstance(kind, types.UnionType):
            kind = typing.get_args(kind)[0]
        if is_dataclass(kind):
            kwargs[f.name] = _build(kind, value, path)
        elif value is None and f.default is None:
            kwargs[f.name] = None
        else:
            convert = _UNIT_KEYS.get(key) or _CONVERTERS[kind]
            try:
                kwargs[f.name] = convert(value)
            except (TypeError, ValueError, ScenarioError) as exc:
                raise ScenarioError(f"{path}: {exc}") from None
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{place}: {exc}") from None


def scenario_from_dict(doc: dict, name: str = "<inline>") -> Scenario:
    """Build a :class:`Scenario` from a parsed key/value tree."""
    if isinstance(doc, dict):
        doc = {"name": name, **doc}
    return _build(Scenario, doc, "")


class _UniqueKeyLoader(yaml.SafeLoader):
    """PyYAML's safe loader, but a key given twice in one mapping is an error."""

    def construct_mapping(self, node, deep=False):
        # the mapping's own keys: a merged key ("<<") may be overridden
        own = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep)
        keys = [self.construct_object(key) for key in own]
        again = [i for i, key in enumerate(keys) if key in keys[:i]]
        if again:
            twice = list(dict.fromkeys(keys[i] for i in again))
            raise yaml.constructor.ConstructorError(
                None, None, f"duplicate key(s) {twice}", own[again[0]].start_mark)
        return mapping


def load_scenario(path) -> Scenario:
    """Load and validate a scenario file; rejects unknown and repeated keys."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: cannot read: {exc}") from exc
    try:
        doc = yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        # one line: the problem and its place, without PyYAML's excerpt
        mark = getattr(exc, "problem_mark", None)
        what = (f" at line {mark.line + 1}, column {mark.column + 1}: {exc.problem}"
                if mark else ": " + " ".join(str(exc).split()))
        raise ScenarioError(f"{path}: parse error{what}") from exc
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
