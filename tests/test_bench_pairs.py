"""The summary and the ways out of ``tools/bench_pairs.py``, on synthetic
pairs and a fake harness; the benchmark harness itself is not run here."""

import importlib.util
import os
import signal
import time
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DECLARED = [{"name": "work_per_s", "unit": "items/s", "better": "higher",
             "bound": 0.25},
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
             "bound": 0.05}]


def pairs_of(base, change):
    return [{"seed": i, "base": b, "change": c}
            for i, (b, c) in enumerate(zip(base, change))]


def test_summary_keeps_every_run_and_counts_wins_by_direction():
    base = [{"work_per_s": w, "peak_rss_mb": m}
            for w, m in ((10.0, 60.0), (12.0, 61.0), (11.0, 59.0), (9.0, 60.5))]
    change = [{"work_per_s": w, "peak_rss_mb": m}
              for w, m in ((11.0, 55.0), (12.0, 61.0), (10.0, 55.5), (13.0, 56.0))]
    got = bench_pairs.summarize(pairs_of(base, change), DECLARED)
    work, rss = got["work_per_s"], got["peak_rss_mb"]
    assert work["base"] == [10.0, 12.0, 11.0, 9.0]
    assert work["change"] == [11.0, 12.0, 10.0, 13.0]
    # higher is better; the tie in the second pair counts for neither side
    assert (work["wins"], work["pairs"]) == (2, 4)
    # lower is better; again a tie in the second pair
    assert (rss["wins"], rss["pairs"]) == (3, 4)
    assert work["base_median"] == 10.5 and work["change_median"] == 11.5
    assert rss["base_median"] == 60.25 and rss["change_median"] == 55.75
    assert (work["unit"], rss["better"]) == ("items/s", "lower")


def test_quartiles_are_those_perfbench_reports():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 6.0, 7.0, 8.0]
    got = bench_pairs.summarize(
        pairs_of([{"work_per_s": v, "peak_rss_mb": v} for v in values],
                 [{"work_per_s": 2 * v, "peak_rss_mb": v} for v in values]),
        DECLARED)["work_per_s"]
    # statistics.quantiles' exclusive method: (n + 1) p-th order statistic
    assert got["base_quartiles"] == pytest.approx([2.25, 6.75])
    assert got["change_quartiles"] == pytest.approx([4.5, 13.5])
    one = bench_pairs.summarize(pairs_of([{"work_per_s": 3.0, "peak_rss_mb": 1.0}],
                                         [{"work_per_s": 4.0, "peak_rss_mb": 1.0}]),
                                DECLARED)
    assert one["work_per_s"]["base_quartiles"] == [3.0, 3.0]
    assert one["peak_rss_mb"]["wins"] == 0


def test_the_rate_as_measured_is_summarized_beside_the_declared_ones():
    summary = """rsop benchmark: workload mc_dense, seed 1, size full, trace 0: 3 untraced and 0 traced repetitions in 2.5 s
  slot_steps_per_s 7.92295e+06 slot*SU/s as measured (median of 3; quartiles 6.873e+06 to 8.29622e+06); setup 0.261 s as measured
  metrics (times at nominal speed):
  work_per_s       6.22535e+06 items/s
"""
    assert float(bench_pairs._MEASURED.search(summary).group(1)) == 7.92295e6
    got = bench_pairs.summarize(pairs_of(
        [{"work_per_s": 1.0, "peak_rss_mb": 1.0, "measured_per_s": v}
         for v in (4.0, 5.0)],
        [{"work_per_s": 1.0, "peak_rss_mb": 1.0, "measured_per_s": v}
         for v in (6.0, 3.0)]), DECLARED)
    measured = got["measured_per_s"]
    assert (measured["wins"], measured["better"], measured["unit"]) == (1, "higher", "items/s")
    assert measured["change"] == [6.0, 3.0]
    # runs without the rate (a fake harness) leave it out
    assert "measured_per_s" not in bench_pairs.summarize(
        pairs_of([{"work_per_s": 1.0, "peak_rss_mb": 1.0}],
                 [{"work_per_s": 1.0, "peak_rss_mb": 1.0}]), DECLARED)


def verdicts(base, change, name="work_per_s"):
    """The verdicts of one metric, the other reading the same on both sides."""
    got = bench_pairs.summarize(pairs_of(
        [{"work_per_s": v, "peak_rss_mb": v} for v in base],
        [{"work_per_s": v, "peak_rss_mb": v} for v in change]), DECLARED)[name]
    return {k: got[k] for k in ("gain", "beyond_bound", "unresolved")}


# ten base runs of median 100.25 and quartile spread 101.0 - 99.875 = 1.125
STEADY = [100.0, 101.0, 99.0, 102.0, 100.0, 101.0, 99.5, 100.5, 101.0, 100.0]


def test_gain_needs_nine_wins_in_ten_beyond_the_base_spread():
    ahead = [v + 2.0 for v in STEADY]  # 10/10 wins, medians 2.0 apart
    assert verdicts(STEADY, ahead) == {"gain": True, "beyond_bound": False,
                                       "unresolved": False}
    nine = ahead[:9] + [STEADY[9] - 1.0]
    assert verdicts(STEADY, nine)["gain"]
    eight = ahead[:8] + [v - 1.0 for v in STEADY[8:]]
    assert not verdicts(STEADY, eight)["gain"]
    # every pair won, but by less than the base's own spread
    near = [v + 0.4 for v in STEADY]
    assert not verdicts(STEADY, near)["gain"]
    # lower is better: the same runs are a gain in memory the other way round
    assert verdicts(ahead, STEADY, "peak_rss_mb")["gain"]
    assert not verdicts(STEADY, ahead, "peak_rss_mb")["gain"]


def test_beyond_bound_is_relative_to_the_base_median():
    # work_per_s may lose 25% of its median, peak_rss_mb 5%
    assert verdicts(STEADY, [v * 0.70 for v in STEADY])["beyond_bound"]
    assert not verdicts(STEADY, [v * 0.80 for v in STEADY])["beyond_bound"]
    assert verdicts(STEADY, [v * 1.06 for v in STEADY],
                    "peak_rss_mb")["beyond_bound"]
    assert not verdicts(STEADY, [v * 1.04 for v in STEADY],
                        "peak_rss_mb")["beyond_bound"]
    assert not verdicts(STEADY, [v * 0.70 for v in STEADY],
                        "peak_rss_mb")["beyond_bound"]


def test_unresolved_where_the_base_spreads_wider_than_the_bound():
    # memory's bound is 5% of the median: a spread of 1.125 is within it
    assert not verdicts(STEADY, STEADY, "peak_rss_mb")["unresolved"]
    wide = [90.0, 110.0, 95.0, 105.0, 100.0, 92.0, 108.0, 97.0, 103.0, 100.0]
    assert verdicts(wide, wide, "peak_rss_mb")["unresolved"]
    # unless every change run beats every base run
    assert not verdicts(wide, [v - 30.0 for v in wide],
                        "peak_rss_mb")["unresolved"]
    assert verdicts(wide, [v - 15.0 for v in wide], "peak_rss_mb")["unresolved"]


def test_each_workload_keeps_the_base_and_length_of_its_own_runs(
        tmp_path, monkeypatch):
    # no harness runs and no export: a fake run reads its side in the value
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: f"commit-{rev}")
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda tree, workload, seed, seconds: {
                            m["name"]: float(tree == bench_pairs.ROOT)
                            for m in bench_pairs.json.loads(
                                (bench_pairs.ROOT / "BENCHMARK.json")
                                .read_text())["end_to_end"]})
    out = tmp_path / "pairs.json"
    common = ["--pairs", "2", "--first-seed", "5", "--out", str(out)]
    assert bench_pairs.main(["--base", "A", "--workload", "grid",
                             "--seconds", "8", *common]) == 0
    assert bench_pairs.main(["--base", "B", "--workload", "mc_dense",
                             "--seconds", "1", *common]) == 0
    got = bench_pairs.json.loads(out.read_text())["workloads"]
    assert (got["grid"]["base"], got["grid"]["seconds"]) == ("commit-A", 8.0)
    assert (got["mc_dense"]["base"], got["mc_dense"]["seconds"]) == ("commit-B", 1.0)
    assert got["grid"]["first"] == ["base", "change"]
    assert got["mc_dense"]["metrics"]["work_per_s"]["change"] == [1.0, 1.0]


def test_base_is_required():
    with pytest.raises(SystemExit):
        bench_pairs.main(["--workload", "grid", "--pairs", "1",
                          "--first-seed", "1", "--seconds", "1",
                          "--out", "unused.json"])


def test_sigterm_removes_the_exported_tree(tmp_path, monkeypatch):
    # SIGTERM during the export: main's handler turns it into SystemExit,
    # whose way out removes the tree, and the previous handler comes back
    trees = []

    def terminated(rev, dest):
        trees.append(dest)
        (dest / "perfbench").mkdir()
        signal.getsignal(signal.SIGTERM)(signal.SIGTERM, None)

    before = signal.getsignal(signal.SIGTERM)
    monkeypatch.setattr(bench_pairs, "export", terminated)
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main(["--base", "HEAD", "--workload", "grid", "--pairs", "1",
                          "--first-seed", "1", "--seconds", "1",
                          "--out", str(tmp_path / "pairs.json")])
    assert stop.value.code == 128 + signal.SIGTERM
    assert trees and not trees[0].exists()
    assert not (tmp_path / "pairs.json").exists()
    assert signal.getsignal(signal.SIGTERM) is before


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs: neither gone nor a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_a_stopped_run_takes_its_worker_with_it(tmp_path):
    # a fake harness that starts a worker and waits on it, as perfbench's
    # does; a worker left running would write into a tree being removed
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import subprocess, sys\n"
        "worker = subprocess.Popen([sys.executable, '-c',"
        " 'import time; time.sleep(60)'])\n"
        "open('worker.pid', 'w').write(str(worker.pid))\n"
        "worker.wait()\n")

    def stop(signum, frame):
        raise SystemExit(1)

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(SystemExit):
            bench_pairs.run_once(tmp_path, "grid", 1, 1.0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    pid = int((tmp_path / "worker.pid").read_text())
    try:
        for _ in range(50):  # SIGKILL is delivered, not awaited
            if not _alive(pid):
                break
            time.sleep(0.1)
        assert not _alive(pid)
    finally:
        if _alive(pid):
            os.kill(pid, signal.SIGKILL)


@pytest.mark.parametrize("option, value", [("--pairs", "0"), ("--pairs", "-2"),
                                           ("--seconds", "0"),
                                           ("--seconds", "-1.5"),
                                           ("--seconds", "nan")])
def test_no_pairs_or_no_run_time_is_rejected_before_the_export(
        tmp_path, monkeypatch, capsys, option, value):
    # --pairs 0 used to export the base tree, then fail in summarize
    exported = []
    monkeypatch.setattr(bench_pairs, "export",
                        lambda rev, dest: exported.append(dest))
    args = {"--pairs": "1", "--seconds": "1", option: value}
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main(["--base", "HEAD", "--workload", "grid",
                          "--first-seed", "1", "--out", str(tmp_path / "p.json"),
                          *(a for item in args.items() for a in item)])
    assert stop.value.code == 2
    assert f"{option}: must be > 0, got {value}" in capsys.readouterr().err
    assert exported == [] and not (tmp_path / "p.json").exists()
