"""Time dyckshift's layers over fixed inputs and print one JSON result line.

Stdlib only.  Run from the root of a checkout, with the ``src/`` to time on
``PYTHONPATH``:

    PYTHONPATH=src python3 tools/layer_bench.py --seed 7

One run is one pass in a fresh interpreter, which times each layer
``REPEATS`` times in a row, collecting garbage before each, and reports the
least, so that no layer pays for what the ones before it left behind.
Times are raw wall-clock seconds, not rescaled to a reference machine as
``perfbench/run.py`` rescales its own; the checks' times come from the
bench's verify passes (see ``tools/bench_record.py``).  The layers:

* ``verification._swap_sweep.s``: block-swap-exact's sweep (a) alone, at
  its scope (m = 2, blocks to length 8, contexts to length 4), the walk
  that lists the contexts not timed;
* ``words.residue.s``: ``residue`` of every word of the m = 2 language to
  length 10, the walk that lists them not timed;
* ``words.advance.s``: ``advance`` of that language's distinct
  ``(length, residue)`` classes by each letter;
* ``words.count_language.s``: ``count_language``'s by-parts loop at the
  ``exact-scale`` workload's lengths, 0 to 1500 in steps of 300, at m = 2
  and 3, each count then checked, untimed, against the pattern-term sum
  over ``pattern_counts``;
* ``measures.cylinder_mass.s``: ``cylinder_mass`` of every word of the
  m = 2 language to length 8 under each of the three measures, the walk
  that lists them not timed;
* ``measures.entropy_table.s``: ``entropy_table(256, 2)``;
* ``measures.mass_length_for_residual.s``: the completion horizon of
  ``a1 a2`` at 1/50;
* ``coding._tilde_window_codes.s`` and ``coding._plus_window_codes.s``:
  each sampler's window body at m = 2 over 2,000 windows of 1,001 letters
  and 50,000 windows of 2 letters, the clock read around each body call,
  so that seeding the window's stream is not timed.

The last line of standard output is one JSON object shaped like
``perfbench/run.py``'s: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Each layer is one attempt.  It fails when any repetition
raises, or gives a wrong outcome: a mismatch in the sweep, a language
word that reduces to zero or has no mass, a count off its pattern-term
sum, an entropy row off the two-branch mixture, a horizon no longer than
the word, or a sampled window that is not a language word.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import random
import sys
import time
import traceback
from fractions import Fraction
from typing import Callable

from dyckshift import coding, measures, verification, words

# Words reduced between two clock reads by the ``words.residue`` layer.
_BATCH = 4096
# Timings of each layer within one run; the least is reported.
REPEATS = 3


def _sweep(n_max: int = 8, m: int = 2) -> tuple[float, bool]:
    contexts = [codes for n in range(5) for codes, _, _ in words.iter_language_stats(n, m)]
    start = time.perf_counter()
    failure = verification._swap_sweep(contexts, n_max, m)[1]
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


def count_layer(lengths: range = range(0, 1501, 300), alphabets: tuple[int, ...] = (2, 3)) -> tuple[float, bool]:
    start = time.perf_counter()
    found = [words.count_language(n, m) for m in alphabets for n in lengths]
    seconds = time.perf_counter() - start
    terms = [
        sum((n - 2 * p + 1) * count * m ** (n - p) for p, count in enumerate(words.pattern_counts(n)))
        for m in alphabets
        for n in lengths
    ]
    return seconds, found == terms


def mass_layer(n_max: int = 8, m: int = 2) -> tuple[float, bool]:
    seconds, ok = 0.0, True
    for batch in _language(n_max, m):
        start = time.perf_counter()
        masses = [measures.cylinder_mass(codes, m, measure) for measure in ("tilde", "plus", "minus") for codes in batch]
        seconds += time.perf_counter() - start
        ok = ok and min(masses) > 0
    return seconds, ok


def entropy_layer(n_max: int = 256, m: int = 2) -> tuple[float, bool]:
    start = time.perf_counter()
    table = measures.entropy_table(n_max, m)
    seconds = time.perf_counter() - start
    return seconds, len(table) == n_max + 1 and all(r.step == r.decomposition_step() for r in table)


def horizon_layer(text: str = "a1 a2", ratio: Fraction = Fraction(1, 50)) -> tuple[float, bool]:
    word = words.Word.parse(text, 2)
    start = time.perf_counter()
    horizon = measures.mass_length_for_residual(word, ratio)
    return time.perf_counter() - start, horizon > len(word)


def window_layer(
    body: Callable, seed: int, sizes: tuple[tuple[int, int], ...] = ((2000, 1001), (50000, 2))
) -> tuple[float, bool]:
    """``body`` at m = 2 on ``count`` windows of ``width`` letters, each ``(count, width)`` of ``sizes``."""
    rng = random.Random()
    seconds, ok = 0.0, True
    for count, width in sizes:
        for index in range(count):
            rng.seed(f"{seed}:{index}")
            start = time.perf_counter()
            codes = body(2, width, rng.getrandbits)
            seconds += time.perf_counter() - start
            ok = ok and words.residue(codes) is not None
    return seconds, ok


def best_of(run: Callable[[], tuple[float, bool]]) -> tuple[float, bool]:
    """The least of ``REPEATS`` timings of ``run``, each after a garbage collection, and whether every outcome was right."""
    results = []
    for _ in range(REPEATS):
        gc.collect()
        results.append(run())
    return min(seconds for seconds, _ in results), all(ok for _, ok in results)


def layers(seed: int) -> dict:
    """Each layer's name, with a callable giving its seconds and whether its outcome is right."""
    timed = {"verification._swap_sweep.s": _sweep}
    timed["words.residue.s"] = residue_layer
    timed["words.advance.s"] = advance_layer
    timed["words.count_language.s"] = count_layer
    timed["measures.cylinder_mass.s"] = mass_layer
    timed["measures.entropy_table.s"] = entropy_layer
    timed["measures.mass_length_for_residual.s"] = horizon_layer
    for body in (coding._tilde_window_codes, coding._plus_window_codes):
        timed[f"coding.{body.__name__}.s"] = lambda body=body: window_layer(body, seed)
    return timed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=verification.DEFAULT_SEED)
    args = parser.parse_args(argv)
    metrics, failed = {}, 0
    for name, run in layers(args.seed).items():
        try:
            seconds, ok = best_of(run)
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
