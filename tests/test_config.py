from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from rsop.config import (
    DetectorSpec,
    NetworkConfig,
    QosConstraints,
    SensingParams,
    bundled_scenario_path,
    bundled_scenarios,
    load_bundled,
    load_scenario,
    parse_freq,
    parse_time,
    scenario_from_dict,
)
from rsop.errors import ScenarioError

GOOD = {
    "name": "demo",
    "network": {
        "n_su": 3, "n_pu": 2, "slot_duration": "10 ms",
        "handoff_time": "0.1 us", "sampling_freq": "6.857 MHz",
        "tx_rate": 1.0, "presence_prob": [0.2, 0.6], "pu_power": 0.1,
        "su_power": 0.1, "noise_power": 1.0,
    },
    "sensing": {"tau": "1 ms", "p": 0.8},
    "qos": {"t_i_max": 0.05, "p_md_max": 0.15, "p_fa_max": 0.1, "p_d_min": 0.9},
    "detector": {"mode": "explicit", "p_fa": 0.1, "p_d": 0.9},
}


def deep(doc):
    import copy
    return copy.deepcopy(doc)


class TestUnits:
    @pytest.mark.parametrize("text,expect", [
        ("10 ms", 10e-3), ("0.1 us", 1e-7), ("1.5s", 1.5), ("250ns", 2.5e-7),
        ("0.1 µs", 1e-7), (3.5, 3.5), ("2e-3", 2e-3),
    ])
    def test_time(self, text, expect):
        assert parse_time(text) == pytest.approx(expect)

    @pytest.mark.parametrize("text,expect", [
        ("6.857 MHz", 6.857e6), ("10 kHz", 1e4), ("2GHz", 2e9), (100.0, 100.0),
    ])
    def test_freq(self, text, expect):
        assert parse_freq(text) == pytest.approx(expect)

    def test_unknown_unit(self):
        with pytest.raises(ScenarioError):
            parse_time("10 parsecs")


class TestSchema:
    def test_good_document_loads(self):
        sc = scenario_from_dict(deep(GOOD))
        assert sc.config.n_su == 3
        assert sc.config.slot_duration == pytest.approx(10e-3)
        assert sc.params.tau == pytest.approx(1e-3)
        assert sc.config.presence_prob.tolist() == [0.2, 0.6]

    def test_unknown_top_key_rejected(self):
        doc = deep(GOOD)
        doc["extra"] = 1
        with pytest.raises(ScenarioError, match="extra"):
            scenario_from_dict(doc)

    def test_unknown_nested_key_rejected(self):
        doc = deep(GOOD)
        doc["network"]["bandwidth"] = 5
        with pytest.raises(ScenarioError, match="bandwidth"):
            scenario_from_dict(doc)

    def test_missing_section_rejected(self):
        doc = deep(GOOD)
        del doc["qos"]
        with pytest.raises(ScenarioError, match="qos"):
            scenario_from_dict(doc)

    def test_missing_field_rejected(self):
        doc = deep(GOOD)
        del doc["network"]["noise_power"]
        with pytest.raises(ScenarioError, match="noise_power"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("section,key,value", [
        ("network", "n_su", "three"), ("network", "presence_prob", "abc"),
        ("sensing", "p", "abc"), ("qos", "t_i_max", [1]),
        ("detector", "threshold", "big"), ("adaptive", "n_ep", "many"),
        ("network", "n_pu", 7.9), ("network", "n_su", True),
        ("network", "su_power", float("nan")), ("sensing", "tau", "1.2.3 ms"),
        ("detector", "p_d", []),
    ])
    def test_malformed_value_names_its_key(self, section, key, value):
        doc = deep(GOOD)
        doc.setdefault(section, {})[key] = value
        with pytest.raises(ScenarioError, match=f"^{section}.{key}: "):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("section", ["network", "qos", "adaptive"])
    def test_section_must_be_a_mapping(self, section):
        doc = deep(GOOD)
        doc[section] = [1, 2]
        with pytest.raises(ScenarioError, match=f"section '{section}' must be a mapping"):
            scenario_from_dict(doc)

    def test_every_key_of_every_section_loads(self):
        # each mode's keys in a document of that mode
        doc = deep(GOOD)
        doc["detector"] = {"mode": "energy", "calibration": "pfa_max",
                           "calibrate_tau": "2 ms", "threshold": 3}
        sc = scenario_from_dict(doc)
        assert sc.detector.calibrate_tau == pytest.approx(2e-3)
        assert sc.detector.calibration == "pfa_max"
        assert sc.detector.threshold == 3.0
        doc = deep(GOOD)
        doc["detector"]["p_d"] = [0.9, 0.95]
        doc["adaptive"] = {"n_ep": 20.0, "delta_tau": "0.1 ms", "delta_p": 0.05,
                           "delta_tau_fine": "50 us", "delta_p_fine": 0.01,
                           "initial_tau": "2 ms", "initial_p": 0.5,
                           "tau_min": "0.2 ms"}
        doc["notes"] = "all keys"
        sc = scenario_from_dict(doc)
        assert sc.detector.p_fa == 0.1 and sc.detector.p_d == (0.9, 0.95)
        ad = sc.adaptive
        assert ad.n_ep == 20 and isinstance(ad.n_ep, int)
        assert (ad.delta_tau, ad.delta_tau_fine, ad.initial_tau, ad.tau_min) == \
            pytest.approx((1e-4, 5e-5, 2e-3, 2e-4))
        assert (ad.delta_p, ad.delta_p_fine, ad.initial_p) == (0.05, 0.01, 0.5)
        assert sc.notes == "all keys"

    @pytest.mark.parametrize("mode,key,value", [
        ("energy", "p_fa", 0.3), ("energy", "p_d", [0.5, 0.6]),
        ("explicit", "threshold", 2.0), ("explicit", "calibrate_tau", "1 ms"),
    ])
    def test_key_of_the_other_detector_mode_rejected(self, mode, key, value):
        doc = deep(GOOD)
        if mode == "energy":
            doc["detector"] = {"mode": "energy"}
        doc["detector"][key] = value
        with pytest.raises(ScenarioError,
                           match=f"^{key} is not a key of the {mode} detector$"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("key,value", [
        ("n_ep", 0), ("n_ep", -2), ("delta_tau", "-1 ms"), ("delta_p", -0.1),
        ("delta_tau_fine", "-1 us"), ("delta_p_fine", -0.5),
        ("tau_min", 1.0), ("tau_min", 0), ("initial_tau", "11 ms"),
        ("initial_tau", "-1 ms"), ("initial_p", 1.5), ("initial_p", -0.1),
    ])
    def test_adaptive_value_out_of_range_names_its_key(self, key, value):
        doc = deep(GOOD)
        doc["adaptive"] = {key: value}
        with pytest.raises(ScenarioError, match=f"^{key}="):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("adaptive", [
        {"tau_min": "10 ns"},
        {"tau_min": "10 ns", "initial_tau": "10 ns"},
    ], ids=["floor", "floor-and-start"])
    def test_energy_tau_min_under_one_sample_names_its_key(self, adaptive):
        # an energy detector senses for tau f_s samples, so a floor under one
        # sample used to load and stop the run at its first frame
        doc = deep(GOOD)
        doc["detector"] = {"mode": "energy"}
        doc["adaptive"] = adaptive
        with pytest.raises(ScenarioError, match=r"^tau_min=.* outside "
                           r"\[one sample=1\.45836\d*e-07, T=0\.01\]$"):
            scenario_from_dict(doc)

    def test_tau_min_may_be_one_sample(self):
        # the edge is the clamped one sample, which at 49 Hz is one ulp above
        # the rounded 1/f_s
        for f_s in (6.857e6, 49.0):
            doc = deep(GOOD)
            doc["network"]["sampling_freq"] = f_s
            doc["network"]["slot_duration"] = 1.0
            doc["sensing"]["tau"] = 0.5
            one = scenario_from_dict(doc).config.one_sample
            assert one * f_s >= 1.0 and one <= 1.0 / f_s * (1 + 1e-15)
            doc["adaptive"] = {"tau_min": one}
            assert scenario_from_dict(doc).adaptive.tau_min == one
            doc["adaptive"] = {"tau_min": float(np.nextafter(one, 0.0))}
            with pytest.raises(ScenarioError, match="^tau_min="):
                scenario_from_dict(doc)

    def test_adaptive_range_edges_load(self):
        # zero increments switch a step off; tau may reach T, p either end
        doc = deep(GOOD)
        doc["adaptive"] = {"n_ep": 1, "delta_tau": 0, "delta_p": 0,
                           "delta_tau_fine": 0, "delta_p_fine": 0,
                           "tau_min": "10 ms", "initial_tau": "10 ms",
                           "initial_p": 0}
        assert scenario_from_dict(doc).adaptive.initial_tau == pytest.approx(1e-2)
        doc["adaptive"]["initial_p"] = 1
        assert scenario_from_dict(doc).adaptive.initial_p == 1.0

    def test_adaptive_checked_on_replace(self):
        sc = load_bundled("adapt_ns3_np7")
        with pytest.raises(ScenarioError, match="^delta_p_fine="):
            replace(sc, adaptive=replace(sc.adaptive, delta_p_fine=-0.5))

    def test_parse_error_carries_path(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("network: [unclosed")
        with pytest.raises(ScenarioError, match="bad.yaml"):
            load_scenario(path)

    def test_parse_error_is_one_line_naming_its_place(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("network: [1, 2\nsensing: {\n")
        with pytest.raises(ScenarioError) as exc:
            load_scenario(path)
        assert str(exc.value) == (f"{path}: parse error at line 2, column 8: "
                                  "expected ',' or ']', but got ':'")

    def test_parse_error_without_a_place_is_one_line(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text('name: "\x01"\n')  # PyYAML's message has two lines
        with pytest.raises(ScenarioError, match="parse error: unacceptable") as exc:
            load_scenario(path)
        assert "\n" not in str(exc.value)

    def test_key_given_twice_rejected(self, tmp_path):
        # the safe loader alone keeps the last value, p = 0.8
        path = tmp_path / "twice.yaml"
        text = yaml.safe_dump(GOOD, sort_keys=False)
        path.write_text(text.replace("  p: 0.8\n", "  p: 0.7\n  p: 0.8\n"))
        line = text.splitlines().index("  p: 0.8") + 2  # the second p, 1-based
        with pytest.raises(ScenarioError, match=rf"parse error at line {line}, "
                           r"column 3: duplicate key\(s\) \['p'\]$"):
            load_scenario(path)

    def test_merged_key_may_be_overridden(self, tmp_path):
        # YAML's merge key: the mapping's own p overrides the merged one
        path = tmp_path / "merged.yaml"
        text = yaml.safe_dump(GOOD, sort_keys=False)
        path.write_text(text.replace("  tau: 1 ms\n  p: 0.8\n",
                                     "  <<: {tau: 1 ms, p: 0.5}\n  p: 0.8\n"))
        assert load_scenario(path).params == SensingParams(1e-3, 0.8)


class TestInvariants:
    def test_probability_ranges(self):
        with pytest.raises(ScenarioError):
            NetworkConfig(n_su=1, n_pu=1, slot_duration=1e-2, handoff_time=0,
                          sampling_freq=1e6, tx_rate=1.0, presence_prob=1.2,
                          pu_power=0.1, su_power=0.1, noise_power=1.0)

    def test_positive_powers(self):
        with pytest.raises(ScenarioError):
            NetworkConfig(n_su=1, n_pu=1, slot_duration=1e-2, handoff_time=0,
                          sampling_freq=1e6, tx_rate=1.0, presence_prob=0.5,
                          pu_power=0.0, su_power=0.1, noise_power=1.0)

    @pytest.mark.parametrize("field", [
        "slot_duration", "handoff_time", "sampling_freq", "tx_rate",
        "presence_prob", "pu_power", "su_power", "noise_power"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_values_rejected(self, field, value):
        # built in code and by replace(), not only through the loader
        good = load_bundled("adapt_ns3_np7").config
        with pytest.raises(ScenarioError, match=field):
            replace(good, **{field: value})
        with pytest.raises(ScenarioError, match=field):
            NetworkConfig(**{**{f.name: getattr(good, f.name)
                                for f in fields(good)}, field: value})

    def test_sensing_box(self):
        with pytest.raises(ScenarioError):
            SensingParams(tau=2e-2, p=0.5).validate(1e-2)
        with pytest.raises(ScenarioError):
            SensingParams(tau=1e-3, p=1.5).validate(1e-2)

    def test_sensing_box_on_arrays(self):
        # aligned tau arrays are checked entry by entry, NaN included
        sc = load_bundled("adapt_ns3_np7")
        t = sc.config.slot_duration
        p = np.full(3, 0.5)
        SensingParams(tau=np.array([1e-9, 4e-3, t]), p=p).validate(t)
        for bad in ([1e-3, 2 * t, 4e-3], [1e-3, -1e-9, 4e-3], [1e-3, 0.0, 4e-3],
                    [1e-3, np.nan, 4e-3], [np.nan] * 3):
            with pytest.raises(ScenarioError, match="outside"):
                SensingParams(tau=np.array(bad), p=p).validate(t)
        with pytest.raises(ScenarioError):
            SensingParams(tau=float("nan"), p=0.5).validate(t)

    def test_zero_sensing_time_does_not_load(self):
        # no sample is taken in tau = 0, so every run would fail later
        doc = deep(GOOD)
        doc["sensing"]["tau"] = 0
        with pytest.raises(ScenarioError, match=r"tau=0.* outside \(0, T="):
            scenario_from_dict(doc)

    def test_qos_box(self):
        with pytest.raises(ScenarioError):
            QosConstraints(t_i_max=0.05, p_md_max=1.5, p_fa_max=0.1, p_d_min=0.9)

    def test_detector_explicit_needs_probs(self):
        with pytest.raises(ScenarioError):
            DetectorSpec(mode="explicit")
        with pytest.raises(ScenarioError):
            DetectorSpec(mode="sorcery")


class TestBundled:
    def test_all_bundled_scenarios_load(self):
        table = bundled_scenarios()
        assert len(table) >= 15
        for name in table:
            sc = load_bundled(name)
            assert sc.config.n_su >= 1

    def test_expected_shapes_present(self):
        table = bundled_scenarios()
        sc = load_bundled("tradeoff_ns3_np7")
        assert (sc.config.n_su, sc.config.n_pu) == (3, 7)
        sc = load_bundled("dense_ns20_np5")
        assert (sc.config.n_su, sc.config.n_pu) == (20, 5)
        assert sc.params.tau == pytest.approx(1e-3)  # 0.1 of the slot
        sc = load_bundled("detection_stages_ns20_np10")
        assert (sc.config.n_su, sc.config.n_pu) == (20, 10)
        assert np.allclose(sc.config.pu_power, sc.config.su_power)
        for shape in ((3, 7), (5, 7), (7, 3), (7, 5)):
            sc = load_bundled(f"adapt_ns{shape[0]}_np{shape[1]}")
            assert (sc.config.n_su, sc.config.n_pu) == shape
        for n_su in (2, 5):
            for n_pu in (5, 10, 20, 50, 100):
                assert f"validation_ns{n_su}_np{n_pu}" in table

    def test_unknown_name(self):
        with pytest.raises(ScenarioError, match="no bundled scenario"):
            bundled_scenario_path("does_not_exist")

    def test_hash_stable_and_sensitive(self):
        a = load_bundled("tradeoff_ns3_np7")
        b = load_bundled("tradeoff_ns3_np7")
        assert a.content_hash() == b.content_hash()
        assert a.with_params(p=0.31).content_hash() != a.content_hash()

    def test_hash_pinned(self):
        # literals recorded when the detector section lost its per-stage SNR
        # option; a per-stage p_d list and an energy detector are hashed
        doc = yaml.safe_load(Path(bundled_scenario_path("validation_ns5_np20"))
                             .read_text())
        doc["detector"]["p_d"] = [0.9, 0.95]
        assert scenario_from_dict(doc).content_hash() == "433d61a1f0044ce4"
        sc = load_scenario(Path(__file__).with_name("scenarios")
                           / "mixed_ns8_np6.yaml")
        assert sc.content_hash() == "6a84535d084bdb3b"
