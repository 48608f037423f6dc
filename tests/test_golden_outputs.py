"""Golden outputs: the CLI's CSVs and manifests must stay byte-identical.

Each case runs one small ``rsop`` command in-process and compares the sha256
of every file it writes with ``golden_outputs.json``.  A refactor that keeps
the numbers keeps these hashes; a change that moves any output byte fails
here.

To record cases that ``golden_outputs.json`` does not hold yet, run

    PYTHONPATH=src python tests/test_golden_outputs.py

which leaves every recorded hash as it is.  To re-record after a deliberate
output change, name the cases on the command line,

    PYTHONPATH=src python tests/test_golden_outputs.py CASE [CASE ...]

and explain in CHANGES.md which outputs moved and why.  Every re-record must
be explained there.  To see how far the numbers moved, run the cases on both
trees into two directories (``run_case`` with a fresh ``out_dir`` per case)
and compare them with

    python tests/csv_diff.py DIR_A DIR_B

which reports, per file, the cells that differ, any non-float cell among
them and the largest relative float difference.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from rsop.cli import main

GOLDEN = Path(__file__).with_name("golden_outputs.json")
# channels of two presence values and two PU powers, in four channel classes
MIXED = str(Path(__file__).with_name("scenarios") / "mixed_ns8_np6.yaml")

CASES = {
    "analyze_p_adapt_ns3_np7": ["analyze", "--scenario", "adapt_ns3_np7"],
    "analyze_p_dense_ns20_np5": ["analyze", "--scenario", "dense_ns20_np5"],
    "analyze_p_validation_ns5_np20": ["analyze", "--scenario",
                                      "validation_ns5_np20"],
    "analyze_p_mixed_ns8_np6": ["analyze", "--scenario", MIXED],
    "optimize_8x8_adapt_ns3_np7": ["optimize", "--scenario", "adapt_ns3_np7",
                                   "--grid", "8", "8"],
    "optimize_8x8_dense_ns20_np5": ["optimize", "--scenario", "dense_ns20_np5",
                                    "--grid", "8", "8"],
    "optimize_8x8_mixed_ns8_np6": ["optimize", "--scenario", MIXED,
                                   "--grid", "8", "8"],
    "simulate_dense_ns20_np5": ["simulate", "--scenario", "dense_ns20_np5",
                                "--slots", "2000", "--trace", "5"],
    # three streamed blocks of BLOCK_SLOTS slots or fewer
    "simulate_dense_ns20_np5_20000": ["simulate", "--scenario",
                                      "dense_ns20_np5", "--slots", "20000"],
    "simulate_validation_ns5_np20": ["simulate", "--scenario",
                                     "validation_ns5_np20", "--slots", "2000",
                                     "--trace", "5"],
    "adapt_alg1_adapt_ns3_np7": ["adapt", "--scenario", "adapt_ns3_np7",
                                 "--algorithm", "1", "--frames", "40"],
    "adapt_alg2_adapt_ns3_np7": ["adapt", "--scenario", "adapt_ns3_np7",
                                 "--algorithm", "2", "--frames", "40"],
    # an explicit detector over multi-stage budgets: the misdetection check
    # takes stage_profiles, and every SU its own budget
    "adapt_alg2_false_alarm_np5": ["adapt", "--scenario", "false_alarm_np5",
                                   "--algorithm", "2", "--frames", "40"],
    "subgradient_field_adapt_ns3_np7": ["subgradient-field", "--scenario",
                                        "adapt_ns3_np7", "--taus", "0.002",
                                        "--ps", "0.5", "--realizations", "200"],
    # many stage-budget groups along tau
    "optimize_16x16_validation_ns5_np20": ["optimize", "--scenario",
                                           "validation_ns5_np20", "--grid",
                                           "16", "16"],
    "analyze_tau_validation_ns5_np20": ["analyze", "--scenario",
                                        "validation_ns5_np20", "--axis", "tau"],
    # tau sweeps that cross several stage budgets
    "analyze_tau_dense_ns20_np5": ["analyze", "--scenario", "dense_ns20_np5",
                                   "--axis", "tau"],
    "analyze_tau_mixed_ns8_np6": ["analyze", "--scenario", MIXED,
                                  "--axis", "tau"],
    "analyze_tau_false_alarm_np5": ["analyze", "--scenario", "false_alarm_np5",
                                    "--axis", "tau"],
    "sweep_false_alarm_np5": ["sweep", "--scenario", "false_alarm_np5",
                              "--slots", "2000"],
    "ppersistent_compare_adapt_ns3_np7": ["ppersistent-compare", "--scenario",
                                          "adapt_ns3_np7", "--slots", "2000"],
    "upper_bound_validation_ns5_np20": ["upper-bound", "--scenario",
                                        "validation_ns5_np20"],
    # three replications, merged across replications
    "simulate_validation_ns5_np20_reps3": ["simulate", "--scenario",
                                           "validation_ns5_np20", "--slots",
                                           "2000", "--reps", "3"],
    # an explicit detector: the stepped point's misdetection check
    "subgradient_field_false_alarm_np5": ["subgradient-field", "--scenario",
                                          "false_alarm_np5", "--taus", "0.002",
                                          "--ps", "0.3", "--realizations",
                                          "200"],
    "adapt_alg1_false_alarm_np5": ["adapt", "--scenario", "false_alarm_np5",
                                   "--algorithm", "1", "--frames", "40"],
    # a p sweep: one scenario per value, each SU given the same p
    "simulate_p_dense_ns20_np5": ["simulate", "--scenario", "dense_ns20_np5",
                                  "--axis", "p", "--values", "0.3", "0.6",
                                  "--slots", "2000"],
    "simulate_conventional_dense_ns20_np5": ["simulate", "--scenario",
                                             "dense_ns20_np5", "--protocol",
                                             "conventional", "--slots",
                                             "2000"],
}


def run_case(name: str, out_dir: Path) -> dict[str, str]:
    """Run one case into ``out_dir``; sha256 of every file it wrote, by name."""
    assert main(CASES[name] + ["--out", str(out_dir)]) == 0
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden(name, tmp_path):
    expected = json.loads(GOLDEN.read_text())[name]
    assert run_case(name, tmp_path) == expected


if __name__ == "__main__":
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    names = sys.argv[1:] or sorted(set(CASES) - set(golden))
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(unknown)}")
    with tempfile.TemporaryDirectory() as tmp:
        golden.update({name: run_case(name, Path(tmp) / name) for name in names})
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(names)} case(s) in {GOLDEN}: {', '.join(names)}",
          file=sys.stderr)
