"""Record a benchmark workload over several seeds and write ``BENCH_<workload>.json``.

Stdlib only.  Run from the root of a checkout:

    python3 tools/bench_record.py --workload verify-exact --runs 10
    python3 tools/bench_record.py --workload verify-exact --runs 10 --against HEAD~1
    python3 tools/bench_record.py --workload layers --runs 10 --against HEAD~1

A run is one ``perfbench/run.py --workload W --seed S --seconds R --trace 0``,
unchanged, with R ``BENCHMARK.json``'s ``run_seconds``, on its own seed from
``FIRST_SEED`` up.  The report it writes to ``perfbench/out/`` adds the times
before rescaling, ``wall_raw_s`` and ``setup_raw_s``, and for each check that
a verify pass timed ``verification.<key>.s``: the median over the run's passes
of its time, rescaled as ``wall_s`` is.  All are better lower.
The workload ``layers`` is instead one call of the side's own
``tools/layer_bench.py --seed S`` with its ``src/`` on ``PYTHONPATH``, so that
no side's layers call another side's private names; a side without the script
runs this working tree's.  Every layer time is better lower, and a layer that
only one side reports is summarized for that side alone.
Bytecode is kept alike on both sides: no run inherits
``PYTHONPYCACHEPREFIX``, and the layer runs of both sides share one fresh,
empty one (see :func:`run_once`); the file's ``command`` says which.
With ``--against REV``, revision REV is exported
with ``git archive`` into a temporary directory and run there, in pairs with
the working tree on the same seed; the order within a pair alternates, so that
a drift in machine speed favours neither side.  The directory is removed at
the end, also when the recorder is stopped by SIGTERM (exit code 143).

The file holds, for each end-to-end metric and each side, the median and the
quartiles over the runs, the raw values, and (with ``--against``) in how many
pairs the working tree was better, the ratio of the two medians (tree over
against) and whether the gain is resolved: won in at least nine tenths of the
pairs, with medians further apart than the against side's quartiles; plus the
number of runs, the seeds, both revisions, the Python version and the
platform.  The tree side is named ``<commit>+dirty`` when a tracked file
other than a ``BENCH_*.json`` at the root differs from the commit.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 921


LAYERS = "layers"
# Bench metrics that the run's last line leaves out; its report file holds them.
RAW_TIMES = ("wall_raw_s", "setup_raw_s")


def run_once(tree: Path, workload: str, seed: int, pycache: Path) -> str:
    """Standard output of one run in ``tree``: of the bench's ``workload``, or of the layer script.

    The bench's ``run.py`` gives its passes no ``PYTHON*`` variable, so each side's
    passes write bytecode beside its source on their first, untimed import.  A
    prefix would reach ``run.py`` alone and make it compile its own imports, and a
    pass's ``peak_rss_mb`` starts from ``run.py``'s footprint, since a process's
    high-water mark survives ``exec``; so the bench runs get none.  The layer script
    imports the package itself, so every layer run takes ``pycache`` as its prefix:
    neither side reads the working tree's ``__pycache__``.
    """
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPYCACHEPREFIX"}
    if workload == LAYERS:
        own = tree / "tools" / "layer_bench.py"
        cmd = [sys.executable, str(own if own.is_file() else ROOT / "tools" / "layer_bench.py"), "--seed", str(seed)]
        env.update(PYTHONPATH=str(tree / "src"), PYTHONPYCACHEPREFIX=str(pycache))
    else:
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
        cmd += ["--seconds", _bench_spec()[1], "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return done.stdout


def parse_result(stdout: str) -> dict:
    """The JSON result that ends a benchmark run's standard output."""
    return json.loads(stdout.strip().splitlines()[-1])


def raw_times(tree: Path, workload: str, seed: int) -> dict:
    """``RAW_TIMES`` and each timed check's seconds, from the report of the bench run of ``workload`` at ``seed`` in ``tree``."""
    report = json.loads((tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
    passes = report["pass_results"]
    metrics = {name: report["metrics"][name] for name in RAW_TIMES}
    for key in passes[0]["extra"].get("per_check_s", {}):
        seconds = statistics.median(p["extra"]["per_check_s"][key] * p["speed"] for p in passes)
        metrics[f"verification.{key}.s"] = {"value": seconds, "unit": "s"}
    return metrics


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; a single value is its own quartiles)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def aggregate(sides: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """Per-metric summaries of each side's parsed results.

    ``sides`` maps a side's name to its results, run by run; a metric is
    summarized for each side that reports it.  With two sides reporting it
    the runs pair up by position, and ``wins`` counts the pairs where the
    first side is better by each metric's direction in ``better``.  ``ratio``
    is the first side's median over the second's, and ``resolved`` says
    whether the first side won at least nine tenths of the pairs and its
    median lies further from the second's than the second's quartiles lie
    from each other.
    """
    units = {name: m["unit"] for results in sides.values() for name, m in results[0]["metrics"].items()}
    metrics = {}
    for name, unit in units.items():
        entry: dict = {"unit": unit}
        values = {
            side: [r["metrics"][name]["value"] for r in results]
            for side, results in sides.items()
            if name in results[0]["metrics"]
        }
        for side, vals in values.items():
            entry[side] = summary(vals)
        if len(values) == 2 and name in better:
            entry["better"] = better[name]
            mine, theirs = values.values()
            sign = 1 if better[name] == "lower" else -1
            entry["wins"] = sum(sign * (b - a) > 0 for a, b in zip(mine, theirs))
            ours, base = (entry[side] for side in values)
            entry["ratio"] = ours["median"] / base["median"]
            entry["resolved"] = (
                10 * entry["wins"] >= 9 * len(mine)
                and abs(ours["median"] - base["median"]) > base["q3"] - base["q1"]
            )
        metrics[name] = entry
    runs = [r for results in sides.values() for r in results]
    return {
        "correct": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "metrics": metrics,
    }


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout.strip()


def is_dirty(porcelain: str) -> bool:
    """Whether ``git status --porcelain`` output names a file other than a ``BENCH_*.json`` at the root.

    A re-recorded bench file is itself a tracked change, so it alone leaves
    the tree clean.  A rename counts by its new path.
    """
    paths = (line.split(maxsplit=1)[1].split(" -> ")[-1] for line in porcelain.splitlines() if line.strip())
    return any(not re.fullmatch(r"BENCH_[^/]*\.json", path) for path in paths)


def _export(rev: str, into: Path) -> None:
    """The files of revision ``rev`` under ``into``, as ``git archive`` gives them."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, stdout=subprocess.PIPE, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        # The "data" filter, where this Python has it, refuses links and paths out of ``into``.
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def _bench_spec() -> tuple[dict[str, str], str]:
    """``BENCHMARK.json``'s end-to-end metric directions, and its ``run_seconds`` as a command argument."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["better"] for metric in spec["end_to_end"]}, str(spec["run_seconds"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help=f"a workload of perfbench/run.py, or {LAYERS}")
    parser.add_argument("--runs", type=int, default=10, help="seeds, one run (or pair) each")
    parser.add_argument("--against", metavar="REV", help="also run this revision, in alternating pairs")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    seeds = list(range(FIRST_SEED, FIRST_SEED + args.runs))
    head = _git("rev-parse", "HEAD")
    revisions = {"tree": head + ("+dirty" if is_dirty(_git("status", "--porcelain", "--untracked-files=no")) else "")}
    sides: dict[str, list[dict]] = {"tree": []}
    # SIGTERM unwinds like an exit: the running child is killed and the directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with tempfile.TemporaryDirectory(prefix="bench-record-") as scratch:
        trees = {"tree": ROOT}
        pycache = Path(scratch, "pycache")
        pycache.mkdir()
        if args.against:
            revisions["against"] = _git("rev-parse", args.against)
            trees["against"] = Path(scratch, "against")
            _export(revisions["against"], trees["against"])
            sides["against"] = []
        for i, seed in enumerate(seeds):
            order = list(trees) if i % 2 == 0 else list(trees)[::-1]
            for side in order:
                result = parse_result(run_once(trees[side], args.workload, seed, pycache))
                if args.workload != LAYERS:
                    result["metrics"].update(raw_times(trees[side], args.workload, seed))
                sides[side].append(result)
                shown = {name: round(m["value"], 6) for name, m in result["metrics"].items()}
                print(f"seed {seed} {side}: correct={result['correct']} {shown}", file=sys.stderr)
    if args.workload == LAYERS:
        command = (
            "PYTHONPATH=<side>/src PYTHONPYCACHEPREFIX=<one fresh directory> tools/layer_bench.py --seed S"
            " (each side's own script; the working tree's where a side has none)"
        )
        better = dict.fromkeys(sides["tree"][0]["metrics"], "lower")
    else:
        directions, seconds = _bench_spec()
        command = f"perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0 (PYTHONPYCACHEPREFIX unset)"
        better = {**dict.fromkeys(sides["tree"][0]["metrics"], "lower"), **directions}
    record = {
        "workload": args.workload,
        "runs": args.runs,
        "seeds": seeds,
        "revisions": revisions,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "command": command,
        **aggregate(sides, better),
    }
    out = ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
