"""The bench recorder's parsing and aggregation, on canned benchmark output; no benchmark runs."""

import importlib.util
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

BETTER = {"wall_s": "lower", "peak_rss_mb": "lower", "setup_s": "lower"}


def _stdout(wall, rss, correct=True, failed=0):
    """A benchmark run's standard output: report lines, then the JSON result line."""
    result = {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {
            "setup_s": {"value": 0.015, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }
    return f"workload verify-exact: seed 7, 1 pass(es)\n  wall_s = {wall} s\n{json.dumps(result)}\n"


def test_parse_result_reads_the_last_line():
    parsed = bench_record.parse_result(_stdout(4.0, 24.5))
    assert parsed["metrics"]["wall_s"] == {"value": 4.0, "unit": "s"}
    assert parsed["correct"] is True


def test_summary_gives_inclusive_quartiles():
    assert bench_record.summary([4.0, 1.0, 3.0, 2.0]) == {
        "median": 2.5,
        "q1": 1.75,
        "q3": 3.25,
        "values": [4.0, 1.0, 3.0, 2.0],
    }
    assert bench_record.summary([5.0]) == {"median": 5.0, "q1": 5.0, "q3": 5.0, "values": [5.0]}


def test_aggregate_pairs_the_runs_by_position():
    tree = [bench_record.parse_result(_stdout(w, r)) for w, r in ((3.2, 25.0), (3.4, 24.0), (3.3, 24.9), (4.5, 24.8))]
    against = [bench_record.parse_result(_stdout(w, r)) for w, r in ((4.0, 24.8), (4.2, 24.8), (4.1, 24.8), (4.1, 24.8))]
    record = bench_record.aggregate({"tree": tree, "against": against}, BETTER)
    wall = record["metrics"]["wall_s"]
    assert wall["unit"] == "s" and wall["better"] == "lower"
    assert wall["tree"]["median"] == pytest.approx(3.35)
    assert wall["against"]["median"] == pytest.approx(4.1)
    assert (wall["against"]["q1"], wall["against"]["q3"]) == pytest.approx((4.075, 4.125))
    assert wall["wins"] == 3
    # equal values are no win
    assert record["metrics"]["peak_rss_mb"]["wins"] == 1
    assert record["metrics"]["setup_s"]["wins"] == 0
    assert (record["correct"], record["attempted"], record["failed"]) == (True, 80, 0)


def test_aggregate_of_one_side_has_no_wins_and_reports_failures():
    runs = [bench_record.parse_result(_stdout(4.0, 24.5)), bench_record.parse_result(_stdout(4.2, 24.5, False, 1))]
    record = bench_record.aggregate({"tree": runs}, BETTER)
    assert set(record["metrics"]["wall_s"]) == {"unit", "tree"}
    assert (record["correct"], record["failed"]) == (False, 1)


def test_aggregate_summarizes_a_one_sided_metric_for_its_side_alone():
    # Each side runs its own layer script, so a layer may exist on one side only.
    tree, against = _runs([3.0, 3.2]), _runs([3.1, 3.3])
    for result in tree:
        result["metrics"]["new_s"] = {"value": 0.5, "unit": "s"}
    for result in against:
        del result["metrics"]["setup_s"]
    record = bench_record.aggregate({"tree": tree, "against": against}, {**BETTER, "new_s": "lower"})
    assert record["metrics"]["new_s"] == {"unit": "s", "tree": bench_record.summary([0.5, 0.5])}
    assert record["metrics"]["setup_s"] == {"unit": "s", "tree": bench_record.summary([0.015, 0.015])}
    assert record["metrics"]["wall_s"]["wins"] == 2


def _runs(walls):
    return [bench_record.parse_result(_stdout(wall, 24.5)) for wall in walls]


def _paired(tree_walls, against_walls):
    return bench_record.aggregate({"tree": _runs(tree_walls), "against": _runs(against_walls)}, BETTER)


def test_aggregate_resolves_a_gain_won_in_nine_of_ten_pairs_beyond_the_spread():
    against = [3.0, 3.1, 3.2, 3.0, 3.1, 3.2, 3.0, 3.1, 3.2, 3.1]
    tree = [2.5, 2.6, 2.7, 2.5, 2.6, 2.7, 2.5, 2.6, 2.7, 3.3]
    wall = _paired(tree, against)["metrics"]["wall_s"]
    assert wall["wins"] == 9
    assert wall["ratio"] == pytest.approx(2.6 / 3.1)
    assert wall["resolved"] is True


def test_aggregate_leaves_a_gain_inside_the_spread_unresolved():
    # Won in every pair, but the medians differ by 0.2 and the against side's
    # quartiles lie 0.6 apart.
    against = [4.0, 5.5, 4.2, 5.3, 4.4, 5.1, 4.6, 4.9, 4.8, 4.7]
    tree = [value - 0.2 for value in against]
    wall = _paired(tree, against)["metrics"]["wall_s"]
    assert wall["wins"] == 10
    assert wall["against"]["q3"] - wall["against"]["q1"] == pytest.approx(0.6)
    assert wall["resolved"] is False


def test_aggregate_leaves_a_gain_won_in_eight_of_ten_pairs_unresolved():
    against = [3.0] * 10
    tree = [2.0] * 8 + [3.5, 3.0]
    record = _paired(tree, against)
    wall = record["metrics"]["wall_s"]
    assert (wall["wins"], wall["ratio"], wall["resolved"]) == (8, pytest.approx(2.0 / 3.0), False)
    # equal runs: no win, a ratio of 1, unresolved
    rss = record["metrics"]["peak_rss_mb"]
    assert (rss["wins"], rss["ratio"], rss["resolved"]) == (0, 1.0, False)


def test_aggregate_resolves_a_higher_is_better_gain():
    record = bench_record.aggregate({"tree": _runs([2.0] * 10), "against": _runs([1.0] * 10)}, {"wall_s": "higher"})
    wall = record["metrics"]["wall_s"]
    assert (wall["wins"], wall["ratio"], wall["resolved"]) == (10, 2.0, True)
    assert "ratio" not in record["metrics"]["peak_rss_mb"]


def test_only_root_bench_files_leave_the_tree_clean():
    # ``git status --porcelain`` lines, as the recorder reads them after ``strip``
    assert not bench_record.is_dirty("")
    assert not bench_record.is_dirty("M BENCH_verify-exact.json\n M BENCH_layers.json")
    assert not bench_record.is_dirty("R  BENCH_old.json -> BENCH_new.json")
    assert bench_record.is_dirty("M BENCH_verify-exact.json\n M src/dyckshift/verification.py")
    assert bench_record.is_dirty("M  tools/bench_record.py")
    assert bench_record.is_dirty(" M perfbench/BENCH_notes.json")
    assert bench_record.is_dirty("R  BENCH_old.json -> notes.json")


def _report(pass_extras):
    """A run report as ``perfbench/run.py`` writes it: raw times beside the rescaled ones, and each pass."""
    return {
        "metrics": {
            "wall_s": {"value": 2.5, "unit": "s"},
            "wall_raw_s": {"value": 2.1, "unit": "s"},
            "setup_raw_s": {"value": 0.006, "unit": "s"},
            "machine_speed": {"value": 0.84, "unit": "ratio"},
        },
        "pass_results": [{"speed": speed, "extra": extra} for speed, extra in pass_extras],
    }


def test_raw_times_come_from_the_run_report(tmp_path):
    out = tmp_path / "perfbench" / "out"
    out.mkdir(parents=True)
    # Each verify pass times its checks; the recorder keeps their median, rescaled as wall_s is.
    passes = [
        (0.8, {"per_check_s": {"cylinder-consistency": 1.5, "balanced-law": 0.1}}),
        (1.2, {"per_check_s": {"cylinder-consistency": 1.1, "balanced-law": 0.2}}),
    ]
    (out / "verify-exact-seed921-trace0.json").write_text(json.dumps(_report(passes)))
    raw = bench_record.raw_times(tmp_path, "verify-exact", 921)
    assert raw == {
        "wall_raw_s": {"value": 2.1, "unit": "s"},
        "setup_raw_s": {"value": 0.006, "unit": "s"},
        "verification.cylinder-consistency.s": {"value": pytest.approx((1.5 * 0.8 + 1.1 * 1.2) / 2), "unit": "s"},
        "verification.balanced-law.s": {"value": pytest.approx((0.1 * 0.8 + 0.2 * 1.2) / 2), "unit": "s"},
    }
    # A workload that runs no check adds the raw times alone.
    (out / "exact-scale-seed921-trace0.json").write_text(json.dumps(_report([(0.9, {}), (1.1, {"horizon": 6366})])))
    assert list(bench_record.raw_times(tmp_path, "exact-scale", 921)) == list(bench_record.RAW_TIMES)
    result = bench_record.parse_result(_stdout(2.5, 24.5))
    result["metrics"].update(raw)
    record = bench_record.aggregate(
        {"tree": [result], "against": [result]}, {**BETTER, **dict.fromkeys(bench_record.RAW_TIMES, "lower")}
    )
    assert record["metrics"]["wall_raw_s"]["better"] == "lower"
    assert record["metrics"]["setup_raw_s"]["tree"]["median"] == 0.006


def _fake_runs(monkeypatch):
    """Each command and environment ``run_once`` passes to ``subprocess.run``, which runs nothing."""
    seen = []

    def fake_run(cmd, cwd, env, stdout, text, check):
        seen.append((cmd, env))
        return type("Done", (), {"stdout": _stdout(2.5, 24.5)})()

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    return seen


def test_a_bench_run_lasts_the_benchmarks_run_seconds(monkeypatch, tmp_path):
    seen = _fake_runs(monkeypatch)
    bench_record.run_once(tmp_path, "verify-exact", 921, tmp_path / "pycache")
    assert json.loads((bench_record.ROOT / "BENCHMARK.json").read_text())["run_seconds"] == 5
    # The value is read from the file, not fixed in the recorder.
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [], "run_seconds": 2.5}))
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    bench_record.run_once(tmp_path, "exact-scale", 922, tmp_path / "pycache")
    assert [cmd[1:] for cmd, _ in seen] == [
        ["perfbench/run.py", "--workload", "verify-exact", "--seed", "921", "--seconds", "5", "--trace", "0"],
        ["perfbench/run.py", "--workload", "exact-scale", "--seed", "922", "--seconds", "2.5", "--trace", "0"],
    ]


def test_only_layer_runs_get_the_shared_bytecode_prefix(monkeypatch, tmp_path):
    # A prefix set by hand would reach the bench's run.py alone; the layer runs share the recorder's own.
    seen = _fake_runs(monkeypatch)
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", "/elsewhere")
    pycache = tmp_path / "pycache"
    bench_record.run_once(tmp_path, "verify-exact", 921, pycache)
    bench_record.run_once(tmp_path, bench_record.LAYERS, 921, pycache)
    (_, bench), (_, layers) = seen
    assert "PYTHONPYCACHEPREFIX" not in bench
    assert layers["PYTHONPYCACHEPREFIX"] == str(pycache)
    assert layers["PYTHONPATH"] == str(tmp_path / "src")


def test_each_side_runs_its_own_layer_script(monkeypatch, tmp_path):
    seen = _fake_runs(monkeypatch)
    against, bare = tmp_path / "against", tmp_path / "bare"
    (against / "tools").mkdir(parents=True)
    (against / "tools" / "layer_bench.py").write_text("")
    bench_record.run_once(against, bench_record.LAYERS, 921, tmp_path / "pycache")
    bench_record.run_once(bare, bench_record.LAYERS, 921, tmp_path / "pycache")
    assert [cmd[1] for cmd, _ in seen] == [
        str(against / "tools" / "layer_bench.py"),
        str(bench_record.ROOT / "tools" / "layer_bench.py"),
    ]


# A recording of HEAD whose runs hang: it says when its export is in place, then sleeps.
_HANGING_RECORDING = """
import importlib.util, sys, time
spec = importlib.util.spec_from_file_location("bench_record", sys.argv[1])
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

def run_once(*args):
    print("running", flush=True)
    time.sleep(60)

bench_record.run_once = run_once
bench_record.main(["--workload", "verify-exact", "--runs", "1", "--against", "HEAD"])
"""


def test_sigterm_removes_the_export(tmp_path):
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    argv = [sys.executable, "-c", _HANGING_RECORDING, str(_PATH)]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True) as child:
        try:
            assert child.stdout.readline() == "running\n"
            (export,) = tmp_path.glob("bench-record-*")
            assert (export / "against" / "pyproject.toml").is_file()
            child.send_signal(signal.SIGTERM)
            assert child.wait(timeout=30) == 128 + signal.SIGTERM == 143
        finally:
            child.kill()
    assert list(tmp_path.glob("bench-record-*")) == []
