"""dyckshift benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (stdlib only, nothing to build):

    python3 perfbench/run.py --workload verify-exact --seed 7 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all                  # every workload in turn

Every pass of a workload runs in a fresh, single-threaded interpreter that
imports ``dyckshift`` from this checkout's ``src/``, so ``run_check``'s result
cache and the entropy ``lru_cache`` start cold, as they do for a user.  A run
repeats whole passes until ``--seconds`` have passed (at least one pass; a
pass is never cut short) and reports medians.

Pass times are rescaled to a reference machine speed, sampled while they
are measured (see speed.py); the raw times are printed beside them.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs one untraced and one traced pass side by side and reports
the per-layer metrics, including the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  A fuller report, with provenance, goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 11
RUN_LIMIT_S = 170.0  # a run must end well inside 180 s
SAMPLERS = ("sample_tilde", "sample_plus", "sample_minus")
CHECK_KEYS = (
    "cylinder-consistency",
    "balanced-law",
    "block-swap-exact",
    "entropy-identity",
    "entropy-limit-gap",
    "entropy-below-topological",
    "balanced-counts",
    "growth-rate",
    "extension-mass",
    "sampler-formula",
    "shift-invariance",
    "plus-invariance",
    "index-coincidence",
)


class BenchError(Exception):
    """The benchmark cannot produce a result (no source, a crashed pass)."""


def _env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _deadline_left(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 1.0:
        raise BenchError("run time limit reached")
    return left


def _check_source() -> None:
    if not (SRC / "dyckshift" / "__init__.py").is_file():
        raise BenchError(f"no dyckshift package under {SRC}; run from the root of a source checkout")


# A fresh interpreter times its own import of dyckshift; interpreter start-up
# is the same for every version of the package, and only adds noise.  It then
# times a fixed set of stdlib imports that dyckshift does not need, as the
# machine's speed for this kind of work at that moment (the reference loop of
# speed.py follows import work too loosely).
_SETUP_CHILD = """
import time
start = time.perf_counter()
import dyckshift, dyckshift.cli
middle = time.perf_counter()
import calendar, configparser, difflib, logging, xml.dom.minidom, zipfile
end = time.perf_counter()
print(dyckshift.__file__)
print(middle - start, end - middle)
"""
# Rescaled set-up times are seconds on a machine where those stdlib imports take this long.
REFERENCE_IMPORT_S = 0.02


def measure_setup(deadline: float) -> list[tuple[float, float]]:
    """(dyckshift import, reference import) seconds in fresh interpreters."""
    times = []
    # The first import writes bytecode caches, which a user pays once; it is not timed.
    for attempt in range(SETUP_REPEATS + 1):
        try:
            done = subprocess.run(
                [sys.executable, "-c", _SETUP_CHILD], stdout=subprocess.PIPE, env=_env(), cwd=ROOT, text=True,
                timeout=_deadline_left(deadline),
            )
        except subprocess.TimeoutExpired:
            raise BenchError("importing dyckshift did not finish within the run limit") from None
        lines = done.stdout.split("\n")
        if done.returncode != 0 or not Path(lines[0]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"importing dyckshift from {SRC} failed")
        if attempt:
            own, reference = map(float, lines[1].split())
            times.append((own, reference))
    return times


def run_passes(workload: str, seed: int, scale: str, traced: tuple[bool, ...], deadline: float) -> list[dict]:
    """Run one pass per entry of ``traced``, side by side, each in its own fresh interpreter."""
    procs = []
    try:
        for with_trace in traced:
            cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), scale, str(int(with_trace))]
            if with_trace:
                cmd.append(str(OUT / f"spans-{workload}-seed{seed}.jsonl"))
            procs.append(subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), cwd=ROOT, text=True))
        outputs = []
        for proc in procs:
            try:
                out, _ = proc.communicate(timeout=_deadline_left(deadline))
            except subprocess.TimeoutExpired:
                raise BenchError(f"{workload} pass did not finish within the run limit") from None
            if proc.returncode != 0:
                raise BenchError(f"{workload} pass exited with code {proc.returncode}")
            outputs.append(out)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    results = [json.loads(out.strip().splitlines()[-1]) for out in outputs]
    for result in results:
        if not Path(result["dyckshift_file"]).is_relative_to(SRC.resolve()):
            raise BenchError(f"pass imported dyckshift from {result['dyckshift_file']}, not {SRC}")
    return results


def end_to_end(setup: list[tuple[float, float]], passes: list[dict]) -> dict[str, tuple[float, str]]:
    """Both times are rescaled to a reference machine speed (see speed.py and _SETUP_CHILD)."""
    return {
        "setup_s": (statistics.median(own * REFERENCE_IMPORT_S / ref for own, ref in setup), "s"),
        "wall_s": (statistics.median(p["wall_s"] * p["speed"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def window_figures(workload: str, untraced: list[dict]) -> dict[str, tuple[float, str]]:
    """Window throughput, latency (rescaled like wall_s) and truncation, where the workload draws windows."""
    windows = untraced[0]["extra"].get("windows", 0)
    if not windows:
        return {}
    wall = statistics.median(p["wall_s"] * p["speed"] for p in untraced)
    out = {"windows_per_s": (windows / wall, "1/s")}
    if workload == "wide-windows":
        for q in ("p50", "p99"):
            latency = statistics.median(p["extra"][f"latency_{q}_ms"] * p["speed"] for p in untraced)
            out[f"window_latency_{q}_ms"] = (latency, "ms")
        out["truncated_frac"] = (untraced[0]["extra"]["truncated"] / windows, "ratio")
    return out


def per_layer(workload: str, untraced: dict, traced: dict) -> dict[str, tuple[float, str]]:
    """Layer counts and times from the traced pass; times rescaled like wall_s."""
    layers = traced["layers"]

    def stat(name: str, key: str) -> float:
        value = layers.get(name, {}).get(key, 0)
        return value * traced["speed"] if key == "self_s" else value

    out: dict[str, tuple[float, str]] = {}
    for name, count_key in (
        ("words.reduce_codes", "calls"),
        ("measures.cylinder_value_from_codes", "calls"),
        ("words.iter_language_stats", "items"),
        ("words.enumerate_balanced", "items"),
        ("measures.tilde_cylinder_value", "calls"),
        ("measures.entropy_report", "calls"),
        ("measures.minimal_extension_mass", "rows"),
        ("words.count_language", "calls"),
        ("coding.rng_setup", "calls"),
        ("analysis.empirical_cylinder", "calls"),
        ("analysis.match_index_coincidence", "calls"),
        ("analysis.matching_times", "calls"),
        ("analysis.classify_window", "calls"),
    ):
        label = "words" if count_key == "items" else count_key
        out[f"{name}.{label}"] = (stat(name, count_key), "count")
        out[f"{name}.self_s"] = (stat(name, "self_s"), "s")
    out["measures.mass_length_for_residual.self_s"] = (stat("measures.mass_length_for_residual", "self_s"), "s")

    drawn = truncated = 0
    for sampler in SAMPLERS:
        name = f"coding.{sampler}"
        out[f"{name}.windows"] = (stat(name, "windows"), "count")
        out[f"{name}.letters"] = (stat(name, "letters"), "count")
        out[f"{name}.self_s"] = (stat(name, "self_s"), "s")
        drawn += stat(name, "windows")
        truncated += stat(name, "truncated")
    out["coding.truncated_frac"] = (truncated / drawn if drawn else 0.0, "ratio")

    trials = excluded_truncated = excluded_unresolved = 0
    for name in ("analysis.empirical_cylinder", "analysis.match_index_coincidence"):
        trials += stat(name, "trials")
        excluded_truncated += stat(name, "excluded_truncated")
        excluded_unresolved += stat(name, "excluded_unresolved")
    scanned = trials + excluded_truncated + excluded_unresolved
    out["analysis.resolution_rate"] = (trials / scanned if scanned else 0.0, "ratio")
    out["analysis.excluded_truncated"] = (excluded_truncated, "count")
    out["analysis.excluded_unresolved"] = (excluded_unresolved, "count")

    # Checks are timed from outside run_check, on the untraced pass.
    check_s = untraced["extra"].get("per_check_s", {})
    for key in CHECK_KEYS:
        out[f"verification.{key}.s"] = (check_s.get(key, 0.0) * untraced["speed"], "s")

    windows = dict(window_figures(workload, [untraced]))
    out["windows_per_s"] = windows.get("windows_per_s", (0.0, "1/s"))
    out["window_latency_p50_ms"] = windows.get("window_latency_p50_ms", (0.0, "ms"))
    out["window_latency_p99_ms"] = windows.get("window_latency_p99_ms", (0.0, "ms"))
    overhead = (traced["wall_s"] * traced["speed"]) / (untraced["wall_s"] * untraced["speed"]) - 1.0
    out["trace_overhead_frac"] = (overhead, "ratio")
    return out


def _git_revision() -> str:
    """The checked-out commit, read from .git without running git (unknown outside a repository)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance(workload: str, seed: int, scale: str, passes: list[dict]) -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "python": passes[0]["python"],
        "implementation": platform.python_implementation(),
        "git_revision": _git_revision(),
        "nproc": usable,
        "seed": seed,
        "workload": workload,
        "why": workloads.WHY[workload],
        "scale": scale,
        "sizes": workloads.SIZES[scale][workload],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    _check_source()
    setup = [] if trace else measure_setup(deadline)
    if not trace:
        measure_start = time.perf_counter()
        passes = run_passes(workload, seed, scale, (False,), deadline)
        while time.perf_counter() - measure_start < seconds:
            if time.perf_counter() + 1.5 * passes[-1]["wall_s"] + 5 > deadline:
                break
            passes += run_passes(workload, seed, scale, (False,), deadline)
    else:
        # The untraced reference pass runs beside the traced one, on the other
        # core, so that a traced run of a verify workload stays short; each
        # pass is rescaled by its own core's speed before they are compared.
        passes = run_passes(workload, seed, scale, (False, True), deadline)
        untraced, traced = passes

    digests = {p["digest"] for p in passes}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0 and len(digests) == 1
    if trace:
        metrics = per_layer(workload, untraced, traced)
        shown = dict(metrics)
    else:
        metrics = end_to_end(setup, passes)
        shown = {
            **metrics,
            "wall_raw_s": (statistics.median(p["wall_s"] for p in passes), "s"),
            "setup_raw_s": (statistics.median(own for own, _ in setup), "s"),
            "machine_speed": (statistics.median(p["speed"] for p in passes), "ratio"),
            **window_figures(workload, passes),
        }
    shown["ops_failed_frac"] = (failed / attempted if attempted else 0.0, "ratio")

    report = {
        "provenance": provenance(workload, seed, scale, passes),
        "trace": trace,
        "seconds": seconds,
        "passes": len(passes),
        "setup_s_samples": setup,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": [f for p in passes for f in p["failures"]],
        "digests_agree": len(digests) == 1,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in shown.items()},
        "pass_results": passes,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1, sort_keys=True))

    print(f"workload {workload}: seed {seed}, {len(passes)} pass(es), trace {int(trace)}, scale {scale}")
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    for name, (value, unit) in shown.items():
        print(f"  {name} = {value:.6g} {unit}")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")
    if len(digests) != 1:
        print("  FAILED: passes with the same seed produced different outputs")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full")
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace), args.scale) for name in names
        }
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
