"""Time dyckshift's layers over fixed inputs and print one JSON result line.

Stdlib only.  Run from the root of a checkout, with the ``src/`` to time on
``PYTHONPATH``:

    PYTHONPATH=src python3 tools/layer_bench.py --seed 7

One run is one pass in a fresh interpreter.  Times are raw wall-clock
seconds, not rescaled to a reference machine as ``perfbench/run.py``
rescales its own.  The layers:

* ``verification.<key>.s``: each exact check, through ``run_check``;
* ``verification._swap_sweep.s``: block-swap-exact's sweep (a) alone, at
  its scope (m = 2, blocks to length 8, contexts to length 4), its shared
  class keys collected beforehand and not timed;
* ``words.residue.s``: ``residue`` of every word of the m = 2 language to
  length 10, the walk that lists them not timed;
* ``words.advance.s``: ``advance`` of that language's distinct
  ``(length, residue)`` classes by each letter.

The last line of standard output is one JSON object shaped like
``perfbench/run.py``'s: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Each layer is one attempt.  It fails when it raises, when a
check's verdict is not the stated one (three exact checks fail on purpose),
when the sweep finds a mismatch, or when a language word reduces to zero.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
import traceback

from dyckshift import verification, words

# The exact checks that fail on purpose.
EXPECTED_FAILURES = frozenset({"entropy-limit-gap", "entropy-below-topological", "growth-rate"})
# Words reduced between two clock reads by the ``words.residue`` layer.
_BATCH = 4096


def _check(key: str, seed: int) -> tuple[float, bool]:
    result = verification.run_check(key, seed)
    return result.elapsed, result.ok == (key not in EXPECTED_FAILURES)


def _sweep() -> tuple[float, bool]:
    m, n_max = 2, 8
    contexts = [codes for n in range(5) for codes, _, _ in words.iter_language_stats(n, m)]
    shared = verification._shared_keys(n_max, m)
    start = time.perf_counter()
    failure = verification._swap_sweep(contexts, n_max, m, shared)[1]
    return time.perf_counter() - start, failure is None


def _language(n_max: int, m: int):
    """The language to length ``n_max``, by length, in batches of ``_BATCH`` words."""
    for n in range(n_max + 1):
        walk = words.iter_language_stats(n, m)
        while batch := [codes for codes, _, _ in itertools.islice(walk, _BATCH)]:
            yield batch


def residue_layer(n_max: int = 10, m: int = 2) -> tuple[float, bool]:
    seconds, ok = 0.0, True
    for batch in _language(n_max, m):
        start = time.perf_counter()
        found = [words.residue(codes) for codes in batch]
        seconds += time.perf_counter() - start
        ok = ok and None not in found
    return seconds, ok


def advance_layer(n_max: int = 10, m: int = 2) -> tuple[float, bool]:
    states = [r for _, r in {(len(codes), words.residue(codes)) for batch in _language(n_max, m) for codes in batch}]
    start = time.perf_counter()
    for code in (*range(1, m + 1), *range(-m, 0)):
        words.advance(states, code)
    return time.perf_counter() - start, None not in states


def layers(seed: int) -> dict:
    """Each layer's name, with a callable giving its seconds and whether its outcome is right."""
    timed = {f"verification.{key}.s": (lambda key=key: _check(key, seed)) for key in verification.SUITES["exact"]}
    timed["verification._swap_sweep.s"] = _sweep
    timed["words.residue.s"] = residue_layer
    timed["words.advance.s"] = advance_layer
    return timed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=verification.DEFAULT_SEED)
    args = parser.parse_args(argv)
    metrics, failed = {}, 0
    for name, run in layers(args.seed).items():
        try:
            seconds, ok = run()
        except Exception:
            traceback.print_exc()
            seconds, ok = float("nan"), False
        failed += not ok
        metrics[name] = {"value": seconds, "unit": "s"}
        print(f"  {name} = {seconds:.6g} s{'' if ok else '  FAILED'}")
    print(json.dumps({"correct": failed == 0, "attempted": len(metrics), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
