"""The four benchmark workloads, each run once per fresh interpreter (one pass).

Every workload calls dyckshift's public API through module attributes looked
up at call time, so that a traced pass sees the tracer's wrappers.  Each
pass returns its wall time (output checks excluded), the operations it
attempted and failed, and a digest of its outputs: passes with the same seed
must agree on the digest, traced or not.

What counts as one failed operation:

* verify workloads: a check whose verdict differs from the one recorded
  below, or that raises;
* exact-scale: a call that raises or disagrees with an independent route;
* wide-windows: a sampler or analysis call that raises, or a resolved window
  that ``is_in_language`` rejects (truncation is reported, not failed).
"""

from __future__ import annotations

import hashlib
import math
import time
from array import array
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from typing import Any, Callable, Iterator

# Verdicts of the exact checks: three fail on purpose, with their thresholds
# kept (see the README's "known-failing checks").
EXPECTED_EXACT_FAILURES = frozenset({"entropy-limit-gap", "entropy-below-topological", "growth-rate"})

# The sampling checks are 3-sigma gates, so a few seeds fail by chance.  Their
# verdicts were recorded for workload seeds 0..23 before any optimisation: all
# pass except plus-invariance at workload seed 17 (its seed 19 shows an
# exchange gap of 3.13 sigma).  The workload seed is --seed modulo 24, so every
# run has a recorded verdict to compare with.
SAMPLING_SEEDS = 24
EXPECTED_SAMPLING_FAILURES = {17: frozenset({"plus-invariance"})}

# Windows each sampling check draws; a traced pass checks them, so a change
# that shrinks a check's sample count shows up as an incorrect run.
SAMPLING_WINDOWS = {
    "sampler-formula": 100_000,
    "shift-invariance": 50_000,
    "plus-invariance": 100_000,
    "index-coincidence": 20_000,
}

WHY = {
    "verify-exact": "the nine exact checks: word reduction, enumeration and Fraction masses dominate; no sampler runs",
    "verify-sampling": "the four sampling checks: about 270k short windows stress per-sample stream setup, "
    "window validation, the leftward walk and the estimators; no enumeration",
    "exact-scale": "exact paths at large size: entropy patterns up to length 20, long-length language counts, "
    "a completion horizon of about 6366",
    "wide-windows": "6000 streamed 1001-letter windows from all three samplers with per-window analysis; "
    "window body outweighs setup",
}

# Sizes per scale.  "full" is the benchmark; "smoke" only checks that the
# benchmark itself still runs and reports every metric.
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "verify-exact": {"checks": "all exact checks"},
        "verify-sampling": {"checks": "all sampling checks"},
        "exact-scale": {
            "entropy_n": [1, 19],
            "count_lengths": [0, 300, 600, 900, 1200, 1500],
            "count_m": [2, 3],
            "residual_word": "a1 a2",
            "residual_ratio": "1/50",
        },
        "wide-windows": {"m": 2, "lo": -500, "hi": 500, "count_per_sampler": 2000, "j_max": 10},
    },
    "smoke": {
        "verify-exact": {"checks": ["balanced-law", "entropy-identity", "entropy-limit-gap", "growth-rate"]},
        "verify-sampling": {"checks": ["plus-invariance"]},
        "exact-scale": {
            "entropy_n": [1, 8],
            "count_lengths": [0, 30],
            "count_m": [2, 3],
            "residual_word": "a1 a2",
            "residual_ratio": "1/20",
        },
        "wide-windows": {"m": 2, "lo": -20, "hi": 20, "count_per_sampler": 20, "j_max": 10},
    },
}

# |L(14)| for m = 2, as the README states it.
LANGUAGE_14 = 18_083_712


class Pass:
    """Counters, timings and the output digest of one workload pass."""

    def __init__(self, tracer: Any = None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.check_s = 0.0
        self.extra: dict[str, Any] = {}
        self._digest = hashlib.blake2b(digest_size=16)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    @contextmanager
    def checking(self) -> Iterator[None]:
        """Output checks: excluded from wall time and from the trace."""
        start = time.perf_counter()
        try:
            with self.tracer.suspended() if self.tracer else nullcontext():
                yield
        finally:
            self.check_s += time.perf_counter() - start

    def record(self, *parts: Any) -> None:
        self._digest.update(repr(parts).encode())

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def _run_checks(p: Pass, seed: int, keys: list[str], expected_ok: Callable[[str], bool]) -> None:
    from dyckshift import verification

    check_s: dict[str, float] = {}
    for key in keys:
        p.attempted += 1
        start = time.perf_counter()
        try:
            with p.span(f"verification.{key}"):
                result = verification.run_check(key, seed)
        except Exception as exc:  # noqa: BLE001 - a raising check is a failed operation
            p.fail(f"{key} raised {exc!r}")
            continue
        finally:
            check_s[key] = time.perf_counter() - start
        p.record(key, result.ok, result.observed, tuple(result.detail))
        if result.ok != expected_ok(key):
            verdict = "pass" if result.ok else "fail"
            p.fail(f"{key}: verdict {verdict}, recorded verdict the opposite ({result.observed})")
    p.extra["per_check_s"] = check_s


def verify_exact(p: Pass, seed: int, size: dict) -> None:
    from dyckshift import verification

    keys = list(verification.SUITES["exact"]) if size["checks"] == "all exact checks" else size["checks"]
    _run_checks(p, seed, keys, lambda key: key not in EXPECTED_EXACT_FAILURES)


def verify_sampling(p: Pass, seed: int, size: dict) -> None:
    from dyckshift import verification

    keys = list(verification.SUITES["sampling"]) if size["checks"] == "all sampling checks" else size["checks"]
    seed %= SAMPLING_SEEDS
    expected_failures = EXPECTED_SAMPLING_FAILURES.get(seed, frozenset())
    _run_checks(p, seed, keys, lambda key: key not in expected_failures)
    p.extra["windows"] = sum(SAMPLING_WINDOWS[k] for k in keys)


def exact_scale(p: Pass, seed: int, size: dict) -> None:
    # Exact work: the seed changes nothing here.
    from dyckshift import measures, words

    lo_n, hi_n = size["entropy_n"]
    calls: list[tuple[str, Any]] = [("entropy", n) for n in range(lo_n, hi_n + 1)]
    calls += [("count", (n, m)) for m in size["count_m"] for n in size["count_lengths"]]
    calls.append(("count", (14, 2)))
    calls.append(("residual", (size["residual_word"], Fraction(size["residual_ratio"]))))

    for kind, arg in calls:
        p.attempted += 1
        try:
            if kind == "entropy":
                rep = measures.entropy_report(arg, 2)
                with p.checking():
                    p.record(kind, arg, rep.step, rep.p_nonneg)
                    if rep.step != rep.decomposition_step():
                        p.fail(f"entropy n={arg}: step {rep.step} != mixture {rep.decomposition_step()}")
                    elif rep.p_nonneg != Fraction(math.comb(arg, arg // 2), 2**arg):
                        p.fail(f"entropy n={arg}: p_nonneg {rep.p_nonneg} != C(n, n/2)/2^n")
            elif kind == "count":
                n, m = arg
                total = words.count_language(n, m)
                with p.checking():
                    p.record(kind, n, m, total)
                    if (n, m) == (14, 2) and total != LANGUAGE_14:
                        p.fail(f"count_language(14, 2) = {total}, expected {LANGUAGE_14}")
                    elif total < 1:
                        p.fail(f"count_language({n}, {m}) = {total}")
            else:
                text, ratio = arg
                a = words.Word.parse(text, 2)
                horizon = measures.mass_length_for_residual(a, ratio)
                with p.checking():
                    _check_horizon(p, a, ratio, horizon)
        except Exception as exc:  # noqa: BLE001 - a raising call is a failed operation
            p.fail(f"{kind} {arg!r} raised {exc!r}")


def _check_horizon(p: Pass, a: Any, ratio: Fraction, horizon: int) -> None:
    """The returned horizon is the first completion length whose residual is within the ratio.

    Independent route: a word with k loose letters has C_k(f) = k/(2f+k) * C(2f+k, f)
    minimal completions with f added pairs, and each carries 4^-f 2^-k of the
    word's mass, so the completion mass is partial + residual by construction
    and the residual is within the ratio once sum_{f<=F} C_k(f) 4^-f >= (1 - ratio) 2^k.
    """
    p.record("residual", a.codes, ratio, horizon)
    p.extra["horizon"] = horizon
    depth = loose_closers = 0
    for c in a.codes:
        if c > 0:
            depth += 1
        elif depth:
            depth -= 1
        else:
            loose_closers += 1
    k = depth + loose_closers
    # Compare denominator * sum >= (denominator - numerator) * 2^k in integers.
    lhs_scale, rhs_scale = ratio.denominator, (ratio.denominator - ratio.numerator) << k
    ways, scaled, pow4, f = 1, 0, 1, 0  # ways = C_k(f); scaled = sum_{g<=f} C_k(g) 4^(f-g)
    while True:
        scaled = 4 * scaled + ways
        if lhs_scale * scaled >= rhs_scale * pow4:
            break
        # C_k(f+1) / C_k(f) = (2f+k)(2f+k+1) / ((f+1)(f+k+1)); zero beyond f = 0 when k = 0
        ways = ways * (2 * f + k) * (2 * f + k + 1) // ((f + 1) * (f + k + 1))
        pow4 *= 4
        f += 1
    expected = len(a.codes) + k + 2 * f
    if horizon != expected:
        p.fail(f"horizon {horizon} for ratio {ratio}; the completion sum first gets within it at {expected}")


def wide_windows(p: Pass, seed: int, size: dict) -> None:
    from dyckshift import analysis, coding, words

    m, lo, hi, count, j_max = size["m"], size["lo"], size["hi"], size["count_per_sampler"], size["j_max"]
    latency = array("d")
    truncated = 0
    for offset, name in enumerate(("sample_tilde", "sample_plus", "sample_minus")):
        sampler = getattr(coding, name)
        stream = iter(sampler(m, lo, hi, seed=seed + offset, count=count))
        for index in range(count):
            p.attempted += 1
            start = time.perf_counter()
            try:
                x = next(stream)
                times = analysis.matching_times(x, j_max)
                diag = analysis.classify_window(x)
            except Exception as exc:  # noqa: BLE001 - a raising call is a failed operation
                p.fail(f"{name} window {index} raised {exc!r}")
                break
            latency.append(time.perf_counter() - start)
            with p.checking():
                cut = bool(getattr(x, "truncated", False))
                truncated += cut
                p.record(name, hash(x.codes), cut, times.forward, times.backward, diag.forward_label, diag.backward_label)
                if (x.lo, x.hi, len(x.codes)) != (lo, hi, hi - lo + 1):
                    p.fail(f"{name} window {index} has bounds [{x.lo}, {x.hi}]")
                elif not cut and not words.is_in_language(x.word()):
                    p.fail(f"{name} window {index} is resolved but not in the language")
    ordered = sorted(latency)
    p.extra.update(
        windows=len(latency),
        truncated=truncated,
        latency_p50_ms=_quantile(ordered, 0.50) * 1e3,
        latency_p99_ms=_quantile(ordered, 0.99) * 1e3,
        latency_max_ms=ordered[-1] * 1e3 if ordered else 0.0,
    )


def _quantile(ordered: list[float], q: float) -> float:
    """Nearest-rank quantile of a sorted list (0 for an empty one)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


WORKLOADS: dict[str, Callable[[Pass, int, dict], None]] = {
    "verify-exact": verify_exact,
    "verify-sampling": verify_sampling,
    "exact-scale": exact_scale,
    "wide-windows": wide_windows,
}
