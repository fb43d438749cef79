"""Smoke test of the benchmark itself: every workload at a tiny size.

Checks that each run prints, as its last line, a result carrying every
metric BENCHMARK.json names, each with its declared unit, and that no
operation failed.  Runs in about half a minute:

    python3 -m pytest perfbench/test_smoke.py -q
    python3 perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "0",
         "--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_workloads_match_the_spec():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def test_every_metric_is_reported_with_its_unit():
    spec = _spec()
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        units = {m["name"]: m["unit"] for m in declared}
        for workload in workloads.WORKLOADS:
            result = _run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, (workload, trace)
            assert result["attempted"] >= 1
            assert result["failed"] == 0, (workload, trace)  # ops_failed_frac is 0
            assert set(result["metrics"]) == set(units), (workload, trace)
            for name, metric in result["metrics"].items():
                assert metric["unit"] == units[name], (workload, trace, name)
                assert isinstance(metric["value"], (int, float)), (workload, trace, name)
            if trace == 0:
                assert all(metric["value"] > 0 for metric in result["metrics"].values()), workload


if __name__ == "__main__":
    test_workloads_match_the_spec()
    test_every_metric_is_reported_with_its_unit()
    print("benchmark smoke test passed")
