import argparse
import builtins
import inspect
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import explicit_detector, make_config, make_scenario
from rsop.cli import build_parser, main
from rsop.config import bundled_scenario_path, load_bundled
from rsop.core import max_sensing_stages
from rsop.errors import ScenarioError
from rsop import __version__, experiments
from rsop.experiments import (
    _BLOCK_ROWS,
    _format_column,
    run_analyze,
    run_ppersistent_compare,
    run_simulate,
    run_upper_bound,
    write_csv,
)


@pytest.fixture
def small_scenario():
    config = make_config(n_su=2, n_pu=3, presence=0.1)
    return make_scenario(config, 5.1e-3, 0.3, explicit_detector(0.1, 0.9),
                         name="small")


def _fmt(value) -> str:
    """Reference formatting of one CSV value (the former row-by-row writer)."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def reference_csv(meta: dict, columns: dict) -> str:
    """The file ``write_csv`` must produce, built one value at a time."""
    lines = [f"# rsop {__version__}"]
    lines += [f"# {key}: {meta[key]}" for key in sorted(meta)]
    lines.append(",".join(columns))
    lines += [",".join(_fmt(v) for v in row) for row in zip(*columns.values())]
    return "\n".join(lines) + "\n"


SPECIAL_COLUMNS = {
    "bool": [True, False, True],
    "np_bool": [np.bool_(False), np.bool_(True), np.bool_(False)],
    "int": [0, -7, 2**40],
    "np_int32": np.array([3, -2, 2**31 - 1], dtype=np.int32),
    "special": [float("nan"), float("inf"), -float("inf")],
    "tiny": [-0.0, 1e16, 5e-324],
    "float32": np.array([0.1, -2.5, 3e-8], dtype=np.float32),
    "str": ["modified", "conventional", "x"],
}


def _nan_payloads() -> np.ndarray:
    """Three NaNs with distinct bit patterns: two quiet payloads and a
    negative one."""
    bits = np.array([0x7FF8000000000001, 0x7FF8000000000002,
                     0xFFF8000000000000], dtype=np.uint64)
    return np.frombuffer(bits.tobytes(), dtype=np.float64)


# float columns whose repeats the deduping formatter must keep apart or merge
DEDUPE_COLUMNS = {
    "signed_zeros": np.array([0.0, -0.0, 0.0, -0.0, 1.0]),
    "nan_payloads": np.concatenate([_nan_payloads(), _nan_payloads(), [1.0]]),
    "extremes": np.array([np.inf, -np.inf, 5e-324, 1e16, -5e-324, 1e16,
                          np.inf, 5e-324]),
    "float32_repeats": np.array([0.1, 0.1, -2.5, 3e-8, -2.5],
                                dtype=np.float32),
    "all_equal": np.full(_BLOCK_ROWS, 0.1),
    "all_distinct": np.random.default_rng(3).standard_normal(_BLOCK_ROWS),
}


class TestCsvWriter:
    def test_schema_mismatch_rejected(self, tmp_path):
        with pytest.raises(ScenarioError):
            write_csv(tmp_path / "x.csv", {}, {"a": [1, 2], "b": [1, 2, 3]})
        with pytest.raises(ScenarioError):
            write_csv(tmp_path / "y.csv", {}, {"a": np.zeros((2, 2))})

    def test_headers_and_layout(self, tmp_path):
        path = write_csv(tmp_path / "x.csv", {"seed": 5},
                         {"a": [1, 3], "b": [2.5, 0.125]})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# rsop ")
        assert "# seed: 5" in lines
        assert lines[2] == "a,b"
        assert lines[3] == "1,2.5"
        assert lines[4] == "3,0.125"

    @pytest.mark.parametrize("name", sorted(SPECIAL_COLUMNS)
                             + sorted(DEDUPE_COLUMNS))
    def test_column_formatter_equals_fmt(self, name):
        values = {**SPECIAL_COLUMNS, **DEDUPE_COLUMNS}[name]
        assert _format_column(np.asarray(values)) == [_fmt(v) for v in values]

    def test_file_equals_the_row_reference(self, tmp_path):
        path = write_csv(tmp_path / "x.csv", {"seed": 1, "a": "b"},
                         SPECIAL_COLUMNS)
        assert path.read_text() == reference_csv({"seed": 1, "a": "b"},
                                                 SPECIAL_COLUMNS)

    def test_blocks_join_seamlessly(self, tmp_path):
        n = 2 * _BLOCK_ROWS + 3
        rng = np.random.default_rng(5)
        columns = {"i": np.arange(n), "x": rng.standard_normal(n),
                   "ok": rng.random(n) < 0.5}
        path = write_csv(tmp_path / "x.csv", {}, columns)
        assert path.read_text() == reference_csv({}, columns)

    def test_repeats_straddling_blocks(self, tmp_path):
        n = 2 * _BLOCK_ROWS + 3
        rng = np.random.default_rng(8)
        columns = {
            "run": np.repeat(rng.standard_normal(n // 100 + 1), 100)[:n],
            "grid": np.repeat(np.linspace(1e-3, 1e-2, 64), 64)[:n],
            "zero": np.where(np.arange(n) % 3 == 0, -0.0, 0.0),
            "cycle": np.tile(np.concatenate([_nan_payloads(), [np.inf]]),
                             n // 4 + 1)[:n],
        }
        path = write_csv(tmp_path / "x.csv", {}, columns)
        assert path.read_text() == reference_csv({}, columns)

    def test_repr_runs_once_per_distinct_pattern_per_block(
            self, tmp_path, monkeypatch):
        tau = np.repeat(np.linspace(1e-3, 1e-2, 64), 64)  # tau-major grid
        calls = []

        def counting_repr(value):
            calls.append(value)
            return builtins.repr(value)

        monkeypatch.setattr(experiments, "repr", counting_repr, raising=False)
        write_csv(tmp_path / "x.csv", {}, {"tau": tau})
        expected = sum(len(np.unique(tau[lo:lo + _BLOCK_ROWS].view(np.int64)))
                       for lo in range(0, len(tau), _BLOCK_ROWS))
        assert len(tau) == 4096 and expected == 64
        assert len(calls) == expected

    def test_no_rows(self, tmp_path):
        path = write_csv(tmp_path / "x.csv", {}, {"a": [], "b": []})
        assert path.read_text().splitlines()[-1] == "a,b"


class TestReproducibility:
    def test_byte_identical_reruns(self, tmp_path, small_scenario):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_simulate(small_scenario, out_a, n_slots=300, seed=9)
        run_simulate(small_scenario, out_b, n_slots=300, seed=9)
        fa = (out_a / "simulate_point.csv").read_bytes()
        fb = (out_b / "simulate_point.csv").read_bytes()
        assert fa == fb

    def test_seed_changes_file(self, tmp_path, small_scenario):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_simulate(small_scenario, out_a, n_slots=300, seed=9)
        run_simulate(small_scenario, out_b, n_slots=300, seed=10)
        assert (out_a / "simulate_point.csv").read_bytes() != \
            (out_b / "simulate_point.csv").read_bytes()

    def test_headers_carry_scenario_hash(self, tmp_path, small_scenario):
        out = run_analyze(small_scenario, tmp_path, axis="p",
                          values=[0.2, 0.5], seed=1)
        text = out.files[0].read_text()
        assert f"# scenario_hash: {small_scenario.content_hash()}" in text
        manifest = json.loads((tmp_path / "analyze_p.manifest.json").read_text())
        assert "summary" in manifest


class TestKinds:
    def test_trace_export_capped(self, tmp_path, small_scenario):
        out = run_simulate(small_scenario, tmp_path, n_slots=100, seed=4,
                           trace_rows=17)
        trace = [f for f in out.files if f.name == "trace.csv"][0]
        lines = [l for l in trace.read_text().splitlines()
                 if not l.startswith("#")]
        assert len(lines) - 1 <= 17  # header + capped rows
        assert lines[0].startswith("slot,su,transmitted")

    def test_simulate_sweep_takes_a_list_or_an_array(self, tmp_path,
                                                     small_scenario):
        csv = []
        for name, values in (("list", [0.3, 0.6]),
                             ("array", np.array([0.3, 0.6]))):
            run_simulate(small_scenario, tmp_path / name, axis="p",
                         values=values, n_slots=200, seed=3)
            csv.append((tmp_path / name / "simulate_p.csv").read_bytes())
        assert csv[0] == csv[1]
        for empty in (None, [], np.array([])):
            with pytest.raises(ScenarioError, match="needs values"):
                run_simulate(small_scenario, tmp_path / "empty", axis="p",
                             values=empty)

    def test_default_tau_sweep_crosses_stage_budgets(self, tmp_path):
        # the optimizer's tau axis, not nominal tau (5.1 ms) to T/2
        sc = load_bundled("validation_ns5_np20")
        run_analyze(sc, tmp_path, axis="tau")
        rows = [line for line in (tmp_path / "analyze_tau.csv").read_text()
                .splitlines() if not line.startswith("#")][1:]
        tau = np.array([float(row.split(",")[0]) for row in rows])
        c = sc.config
        budgets = max_sensing_stages(c.slot_duration, tau, c.handoff_time,
                                     c.n_pu)
        assert len(tau) == 40 and tau[-1] == 0.5 * c.slot_duration
        assert len(set(np.atleast_1d(budgets).tolist())) > 1

    def test_chain_detail_shape(self, tmp_path, small_scenario):
        out = run_analyze(small_scenario, tmp_path, axis="p", values=[0.3],
                          seed=1)
        detail = [f for f in out.files if f.name == "chain_detail.csv"][0]
        rows = [l for l in detail.read_text().splitlines()
                if not l.startswith("#")]
        n_stages = 1  # tau = 5.1 ms leaves no room for a second probe
        assert len(rows) - 1 == small_scenario.config.n_pu * n_stages

    def test_upper_bound_value(self, tmp_path):
        config = make_config(n_su=5, n_pu=5, presence=0.5)
        sc = make_scenario(config, 1e-3, 0.8, explicit_detector(0.1, 0.9))
        out = run_upper_bound(sc, tmp_path)
        assert out.summary["upper_bound"] == pytest.approx(2.5)

    def test_ppersistent_compare_summary(self, tmp_path, small_scenario):
        out = run_ppersistent_compare(small_scenario, tmp_path, n_slots=4000,
                                      seed=2)
        assert 0.0 < out.summary["overhead_reduction"] < 1.0
        assert out.summary["throughput_rel_diff"] < 0.2

    def test_ppersistent_compare_over_busy_channels(self, tmp_path):
        # no conventional throughput to compare with: null, not a crash
        config = make_config(n_su=2, n_pu=3, presence=1.0)
        sc = make_scenario(config, 5.1e-3, 0.3, explicit_detector(0.1, 0.9))
        out = run_ppersistent_compare(sc, tmp_path, n_slots=200)
        assert out.summary["throughput_rel_diff"] is None
        manifest = json.loads(out.files[-1].read_text())
        assert manifest["summary"]["throughput_rel_diff"] is None
        assert out.files[-1].name == "ppersistent.manifest.json"


class TestCli:
    def test_analyze_subcommand(self, tmp_path, capsys):
        rc = main(["analyze", "--scenario", "validation_ns2_np5",
                   "--out", str(tmp_path), "--axis", "p"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "best_network_r" in captured.out
        assert (tmp_path / "analyze_p.csv").exists()

    def test_upper_bound_subcommand(self, tmp_path, capsys):
        rc = main(["upper-bound", "--scenario", "dense_ns20_np5",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert "upper_bound: 2.5" in capsys.readouterr().out

    def test_scenarios_listing(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "dense_ns20_np5" in out

    def test_unknown_scenario_fails_cleanly(self, tmp_path, capsys):
        rc = main(["analyze", "--scenario", "nope", "--out", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--scenario", "validation_ns2_np5", "--seed", "-1"],
        ["simulate", "--scenario", "validation_ns2_np5", "--axis", "p"],
        ["subgradient-field", "--scenario", "adapt_ns3_np7",
         "--taus", "0.001", "0.002", "--ps", "0.5"],
        ["adapt", "--scenario", "adapt_ns3_np7", "--frames", "0"],
        ["subgradient-field", "--scenario", "adapt_ns3_np7",
         "--taus", "0.002", "--ps", "0.5", "--realizations", "0"],
        ["simulate", "--scenario", "validation_ns2_np5", "--values", "0.1", "0.2"],
        ["simulate", "--scenario", "validation_ns2_np5", "--jobs", "0"],
        ["simulate", "--scenario", "validation_ns2_np5", "--trace", "-1"],
        ["sweep", "--scenario", "false_alarm_np5", "--p-fa", "--slots", "100"],
        ["sweep", "--scenario", "false_alarm_np5", "--n-su", "--slots", "100"],
        ["subgradient-field", "--scenario", "field_ns5_np5",
         "--taus", "0.02", "--ps", "0.5"],
        ["subgradient-field", "--scenario", "field_ns5_np5",
         "--taus", "0.002", "--ps", "1.5"],
        ["analyze", "--scenario", "{in}"],
        ["analyze", "--scenario", "{in}/latin1.yaml"],
        ["upper-bound", "--scenario", "validation_ns2_np5", "--out", "{in}/file"],
        ["upper-bound", "--scenario", "validation_ns2_np5",
         "--out", "{in}/file/sub"],
        ["analyze", "--scenario", "{in}/malformed.yaml"],
        ["analyze", "--scenario", "{in}/duplicate.yaml"],
    ], ids=["negative-seed", "axis-without-values", "taus-ps-mismatch",
            "zero-frames", "zero-realizations", "values-without-axis",
            "zero-jobs", "negative-trace", "sweep-no-p-fa", "sweep-no-n-su",
            "field-tau-past-slot", "field-p-past-one", "scenario-is-a-directory",
            "scenario-not-utf8", "out-is-a-file", "out-under-a-file",
            "scenario-malformed", "scenario-duplicate-key"])
    def test_bad_input_exits_2_with_one_line(self, tmp_path, capsys, argv):
        # "{in}" is a directory holding a Latin-1 scenario file, a malformed
        # one, one that gives p twice and an empty file; a later --out
        # overrides the default one
        inputs, out = tmp_path / "in", tmp_path / "out"
        inputs.mkdir()
        (inputs / "latin1.yaml").write_bytes("name: caf\xe9\n".encode("latin-1"))
        (inputs / "malformed.yaml").write_text("network: [1, 2\nsensing: {\n")
        nominal = Path(bundled_scenario_path("validation_ns2_np5")).read_text()
        (inputs / "duplicate.yaml").write_text(
            nominal.replace("  p: 0.3\n", "  p: 0.7\n  p: 0.3\n"))
        (inputs / "file").write_text("")
        argv = [arg.replace("{in}", str(inputs)) for arg in argv]
        rc = main(argv[:1] + ["--out", str(out)] + argv[1:])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not out.exists()
        assert sorted(f.name for f in inputs.iterdir()) == [
            "duplicate.yaml", "file", "latin1.yaml", "malformed.yaml"]

    @pytest.mark.parametrize("jobs", ["0", "-3"],
                             ids=["zero-jobs", "negative-jobs"])
    def test_optimize_rejects_jobs(self, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--scenario", "adapt_ns3_np7", "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err


def _subcommands():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices


class TestCliOptions:
    @pytest.mark.parametrize("kind", sorted(_subcommands()))
    def test_every_dest_is_a_run_parameter(self, kind):
        sp = _subcommands()[kind]
        run = sp.get_default("run")
        if run is None:  # the scenarios listing takes no options
            assert kind == "scenarios"
            return
        params = set(inspect.signature(run).parameters)
        for action in sp._actions:
            if action.dest == "help":
                continue
            dests = ({"tau_steps", "p_steps"} if action.dest == "grid"
                     else {action.dest})
            assert dests <= params, (kind, action.option_strings)

    @pytest.mark.parametrize("kind", sorted(_subcommands()))
    def test_help_exits_0(self, kind, capsys):
        with pytest.raises(SystemExit) as exc:
            main([kind, "--help"])
        assert exc.value.code == 0
        assert f"rsop {kind}" in capsys.readouterr().out

    def test_malformed_scenario_exits_2(self, tmp_path, capsys):
        doc = yaml.safe_load(Path(bundled_scenario_path("adapt_ns3_np7"))
                             .read_text())
        doc["detector"]["threshold"] = "big"
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        rc = main(["adapt", "--scenario", str(path), "--frames", "2",
                   "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {path}: detector.threshold: could not convert string to "
            "float: 'big'"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name,section,key,value,message", [
        ("adapt_ns3_np7", "detector", "p_fa", 0.3,
         "p_fa is not a key of the energy detector"),
        ("adapt_ns3_np7", "detector", "p_d", [0.5, 0.6],
         "p_d is not a key of the energy detector"),
        ("validation_ns5_np20", "detector", "threshold", 2.0,
         "threshold is not a key of the explicit detector"),
        ("validation_ns5_np20", "detector", "calibrate_tau", "1 ms",
         "calibrate_tau is not a key of the explicit detector"),
        ("validation_ns5_np20", "adaptive", "n_ep", 0, "n_ep=0 must be >= 1"),
    ], ids=["energy-p_fa", "energy-p_d", "explicit-threshold",
            "explicit-calibrate_tau", "adaptive-n_ep"])
    def test_scenario_key_rejected_by_analyze(self, tmp_path, capsys, name,
                                              section, key, value, message):
        doc = yaml.safe_load(Path(bundled_scenario_path(name)).read_text())
        doc.setdefault(section, {})[key] = value
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        rc = main(["analyze", "--scenario", str(path),
                   "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.splitlines() == [f"error: {path}: {message}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["optimize", "--grid", "8", "8"], ["analyze", "--axis", "tau"],
        ["adapt", "--frames", "5"]], ids=["optimize", "analyze-tau", "adapt"])
    def test_high_snr_floor_is_one_sample(self, tmp_path, argv):
        # at SNR 10 both error caps hold in half a sample, so the default tau
        # grid and the adaptive floor start at one sample; the adaptive
        # start lies below it and is projected onto it
        doc = yaml.safe_load(Path(bundled_scenario_path("adapt_ns3_np7"))
                             .read_text())
        doc["network"]["pu_power"] = 10
        doc["adaptive"]["initial_tau"] = 1e-7
        path = tmp_path / "strong.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert main([argv[0], "--scenario", str(path), *argv[1:],
                     "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("key,value,message", [
        ("delta_tau", "-1 ms", "delta_tau=-0.001 must be >= 0"),
        ("delta_p_fine", -0.5, "delta_p_fine=-0.5 must be >= 0"),
        ("tau_min", 1.0,
         "tau_min=1.0 outside [one sample=1.4583637159107482e-07, T=0.01]"),
        # under one sample: it used to load and stop the run at frame 1
        ("tau_min", 1e-8,
         "tau_min=1e-08 outside [one sample=1.4583637159107482e-07, T=0.01]"),
    ])
    def test_adaptive_value_out_of_range_stops_adapt(self, tmp_path, capsys,
                                                     key, value, message):
        doc = yaml.safe_load(Path(bundled_scenario_path("adapt_ns3_np7"))
                             .read_text())
        doc["adaptive"][key] = value
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        rc = main(["adapt", "--scenario", str(path), "--algorithm", "2",
                   "--frames", "2", "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.splitlines() == [f"error: {path}: {message}"]
        assert not (tmp_path / "out").exists()


# every study kind at tiny sizes; --scenario and --out are added per run
_TINY_RUNS = {
    "analyze": [],
    "simulate": ["--slots", "200"],
    "optimize": ["--grid", "4", "4"],
    "adapt": ["--frames", "4"],
    "sweep": ["--slots", "200", "--p-fa", "0.1", "--n-su", "3"],
    "ppersistent-compare": ["--slots", "200"],
    "subgradient-field": ["--taus", "0.003", "--ps", "0.5",
                          "--realizations", "8"],
    "upper-bound": [],
}


@pytest.mark.parametrize("kind", sorted(_TINY_RUNS))
@pytest.mark.parametrize("presence", [0.0, 1.0], ids=["idle", "busy"])
@pytest.mark.parametrize("name", ["adapt_ns3_np7", "validation_ns2_np5"],
                         ids=["energy", "explicit"])
def test_every_kind_runs_on_always_idle_and_always_busy_channels(
        tmp_path, capsys, kind, presence, name):
    # no PU ever present, or every PU always present: a study either has a
    # number to give or writes null, never NaN
    assert set(_TINY_RUNS) == set(_subcommands()) - {"scenarios"}
    doc = yaml.safe_load(Path(bundled_scenario_path(name)).read_text())
    doc["network"]["presence_prob"] = presence
    path = tmp_path / "edge.yaml"
    path.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert main([kind, "--scenario", str(path), "--out", str(out),
                 *_TINY_RUNS[kind]]) == 0
    assert "nan" not in capsys.readouterr().out.lower()
    files = sorted(out.iterdir())
    assert files
    for f in files:
        assert "nan" not in f.read_text().lower(), f.name
