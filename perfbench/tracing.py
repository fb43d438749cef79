"""Span tracing of dyckshift's public functions, installed from outside ``src/``.

The tracer replaces each target function, in every ``dyckshift`` module
namespace that holds it (and in module-level dicts such as
``coding.SAMPLERS``), with a wrapper that records one span per call.  A
function that returns an iterator gets one span for the call and one span
for every ``next()``, so generator work is charged to the layer that yields
it, not to whoever consumes the items.

Self time is derived the usual way: a span's duration minus the durations of
its direct child spans.  It is accumulated online for every span, because
the exact checks make tens of millions of calls; the raw spans (id, name,
start, end, parent id) are kept in memory only up to ``span_cap`` and
written out at the end.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator


@dataclass(frozen=True)
class Target:
    """One function to trace: the metric prefix, where it is defined, and what to count."""

    name: str
    module: str
    attr: str
    iterator: bool = False
    # Extra counters derived from the result (calls) or from each yielded item (iterators).
    counters: tuple[tuple[str, Callable[[Any], int]], ...] = ()


def _one(_: Any) -> int:
    return 1


def _letters(window: Any) -> int:
    return len(window.codes)


def _truncated(window: Any) -> int:
    return int(bool(getattr(window, "truncated", False)))


def _rows(rows: Any) -> int:
    return len(rows)


def _estimate_counters() -> tuple[tuple[str, Callable[[Any], int]], ...]:
    # getattr: a later estimator without truncation would simply count 0 here.
    return tuple(
        (key, lambda est, key=key: getattr(est, key, 0))
        for key in ("trials", "excluded_truncated", "excluded_unresolved")
    )


TARGETS: tuple[Target, ...] = (
    Target("words.reduce_codes", "dyckshift.words", "reduce_codes"),
    Target("words.iter_language_stats", "dyckshift.words", "iter_language_stats", True, (("words", _one),)),
    Target("words.enumerate_balanced", "dyckshift.words", "enumerate_balanced", True, (("words", _one),)),
    Target("words.count_language", "dyckshift.words", "count_language"),
    Target("measures.cylinder_value_from_codes", "dyckshift.measures", "cylinder_value_from_codes"),
    Target("measures.tilde_cylinder_value", "dyckshift.measures", "tilde_cylinder_value"),
    Target("measures.entropy_report", "dyckshift.measures", "entropy_report"),
    Target("measures.mass_length_for_residual", "dyckshift.measures", "mass_length_for_residual"),
    Target("measures.minimal_extension_mass", "dyckshift.measures", "minimal_extension_mass", False, (("rows", _rows),)),
    # The per-sample stream constructor, timed apart from the window body.
    Target("coding.rng_setup", "dyckshift.coding", "_sample_rng"),
    *(
        Target(
            f"coding.{sampler}",
            "dyckshift.coding",
            sampler,
            True,
            (("windows", _one), ("letters", _letters), ("truncated", _truncated)),
        )
        for sampler in ("sample_tilde", "sample_plus", "sample_minus")
    ),
    Target("analysis.empirical_cylinder", "dyckshift.analysis", "empirical_cylinder", False, _estimate_counters()),
    Target(
        "analysis.match_index_coincidence", "dyckshift.analysis", "match_index_coincidence", False, _estimate_counters()
    ),
    Target("analysis.matching_times", "dyckshift.analysis", "matching_times"),
    Target("analysis.classify_window", "dyckshift.analysis", "classify_window"),
)


@dataclass
class LayerStats:
    calls: int = 0
    items: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Collects spans and per-name totals while installed."""

    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.stats: dict[str, LayerStats] = {}
        self.missing: list[str] = []
        self.span_count = 0
        self._suspended = 0
        # Each frame is [child time so far, span id]; the root frame has id -1.
        self._stack: list[list] = [[0.0, -1]]
        self._restore: list[tuple[Any, Any, Any]] = []

    # -- span bookkeeping -------------------------------------------------

    def _open(self) -> list:
        frame = [0.0, self.span_count]
        self.span_count += 1
        self._stack.append(frame)
        return frame

    def _close(self, name: str, stats: LayerStats, frame: list, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        parent = stack[-1]
        duration = end - start
        stats.self_s += duration - frame[0]
        stats.total_s += duration
        parent[0] += duration
        if len(self.spans) < self.span_cap:
            self.spans.append((frame[1], name, start, end, parent[1]))

    def layer(self, name: str) -> LayerStats:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = LayerStats()
        return stats

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code (e.g. one check)."""
        stats = self.layer(name)
        frame = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, stats, frame, start, time.perf_counter())
            stats.calls += 1

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Calls made inside this block (the benchmark's output checks) are not traced."""
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    # -- wrappers ----------------------------------------------------------

    def _wrap_call(self, target: Target, fn: Callable) -> Callable:
        # The span bookkeeping of _open/_close is inlined here: this wrapper runs
        # millions of times per pass and its cost is the tracing overhead.
        name, stats, counters = target.name, self.layer(target.name), target.counters
        perf = time.perf_counter
        tracer, stack, spans, cap = self, self._stack, self.spans, self.span_cap

        def traced(*args, **kwargs):
            if tracer._suspended:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [0.0, tracer.span_count]
            tracer.span_count += 1
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                stats.self_s += duration - frame[0]
                stats.total_s += duration
                stats.calls += 1
                parent[0] += duration
                if len(spans) < cap:
                    spans.append((frame[1], name, start, end, parent[1]))
            for key, count in counters:
                stats.counts[key] = stats.counts.get(key, 0) + count(result)
            return result

        return traced

    def _wrap_iterator(self, target: Target, fn: Callable) -> Callable:
        name, stats, counters = target.name, self.layer(target.name), target.counters
        perf = time.perf_counter
        tracer = self

        def timed_items(it: Iterator) -> Iterator:
            step = it.__next__
            while True:
                frame = tracer._open()
                start = perf()
                try:
                    item = step()
                except StopIteration:
                    tracer._close(name, stats, frame, start, perf())
                    return
                except BaseException:
                    tracer._close(name, stats, frame, start, perf())
                    raise
                tracer._close(name, stats, frame, start, perf())
                stats.items += 1
                for key, count in counters:
                    stats.counts[key] = stats.counts.get(key, 0) + count(item)
                yield item

        def traced(*args, **kwargs):
            if tracer._suspended:
                return fn(*args, **kwargs)
            frame = tracer._open()
            start = perf()
            try:
                it = iter(fn(*args, **kwargs))
            finally:
                tracer._close(name, stats, frame, start, perf())
                stats.calls += 1
            return timed_items(it)

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every target at each module name and dict slot that holds it."""
        namespaces = [
            vars(module)
            for mod_name, module in sorted(sys.modules.items())
            if module is not None and (mod_name == "dyckshift" or mod_name.startswith("dyckshift."))
        ]
        namespaces += [value for ns in list(namespaces) for value in ns.values() if type(value) is dict]
        for target in TARGETS:
            original = getattr(sys.modules.get(target.module), target.attr, None)
            if original is None:
                self.missing.append(target.name)
                continue
            self.layer(target.name)
            wrap = self._wrap_iterator if target.iterator else self._wrap_call
            traced = wrap(target, original)
            for ns in namespaces:
                for key in [k for k, v in ns.items() if v is original]:
                    self._restore.append((ns, key, original))
                    ns[key] = traced

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._restore):
            ns[key] = original
        self._restore.clear()

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span_id, name, start, end, parent in self.spans:
                out.write(json.dumps([span_id, name, start, end, parent]) + "\n")

    def summary(self) -> dict[str, dict]:
        return {
            name: {
                "calls": s.calls,
                "items": s.items,
                "self_s": s.self_s,
                "total_s": s.total_s,
                **s.counts,
            }
            for name, s in sorted(self.stats.items())
        }
