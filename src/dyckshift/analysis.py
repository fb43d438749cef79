"""Window diagnostics: matching times and empirical estimators.

Everything here consumes :class:`~dyckshift.coding.PointWindow` streams from
the samplers (or hand-built windows) and stays deliberately finite: matching
times that fall outside a window are reported as ``None`` rather than
extended, events a window cannot resolve are excluded from it but counted,
and the tail classifier is labeled as the finite-window heuristic it is.

The estimators make one pass over a sample stream for any number of events:
:func:`empirical_cylinders` tallies each window's block once per needed
coordinate and length, and :func:`match_index_coincidences` scans each
window's matching times once, to the deepest depth any event needs.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .coding import PointWindow
from .words import DyckError, Word

if TYPE_CHECKING:
    from fractions import Fraction


class InsufficientData(DyckError):
    """No usable samples survived exclusion; estimate undefined."""


class MatchingTimes(NamedTuple):
    """First forward and last backward visits of each depth ``-j``.

    ``forward[j-1]`` is the least ``k >= 0`` with ``H_{k+1} = -j`` (the time
    the walk first dips to depth ``j`` looking rightward from the origin) and
    ``backward[j-1]`` the greatest ``k < 0`` with ``H_k = -j``.  ``None``
    means the window ended before that depth was seen — unresolved, not an
    error.
    """

    forward: tuple[int | None, ...]
    backward: tuple[int | None, ...]


def _first_dips(codes: Sequence[int], up: bool, j_max: int) -> list[int | None]:
    """Steps at which a walk first reaches depths ``1 .. j_max`` below its start.

    Each letter code steps the walk up when its opener-ness equals ``up``
    and down otherwise.  Unit steps reach depth ``j + 1`` only after depth
    ``j``, so the scan stops at depth ``j_max``.
    """
    dips: list[int | None] = [None] * j_max
    h = reached = 0
    for i, c in enumerate(codes):
        if (c > 0) == up:
            h += 1
        else:
            h -= 1
            if h < -reached:
                dips[reached] = i
                reached += 1
                if reached == j_max:
                    break
    return dips


def matching_times(x: PointWindow, j_max: int) -> MatchingTimes:
    if j_max < 1:
        raise ValueError("j_max must be at least 1")
    origin = -x.lo
    # Forward, H_{k+1} = -j first at letter k; backward, H_k = -j is read
    # from the origin outward, where openers step down.
    forward = _first_dips(x.codes[origin:], True, j_max)
    backward = _first_dips(x.codes[origin - 1 :: -1] if origin else (), False, j_max)
    return MatchingTimes(
        tuple(forward), tuple(None if i is None else -1 - i for i in backward)
    )


class EmpiricalEstimate(NamedTuple):
    """A counted event over a sample stream, with its exclusions on record.

    ``sigma_distance`` measures the gap to a hypothesised probability in
    binomial standard deviations computed *under that hypothesis* — the
    natural scale for the agreement checks, and well-defined even when the
    empirical rate is 0 or 1.
    """

    event: str
    hits: int
    trials: int
    excluded_unresolved: int = 0

    @property
    def scanned(self) -> int:
        return self.trials + self.excluded_unresolved

    @property
    def estimate(self) -> Fraction:
        if self.trials == 0:
            raise InsufficientData(f"no usable samples for {self.event}")
        from fractions import Fraction

        return Fraction(self.hits, self.trials)

    @property
    def stderr(self) -> float:
        p = float(self.estimate)
        return math.sqrt(p * (1.0 - p) / self.trials)

    @property
    def resolution_rate(self) -> float:
        if self.scanned == 0:
            raise InsufficientData(f"no samples scanned for {self.event}")
        return self.trials / self.scanned

    def sigma_distance(self, target: Fraction | float) -> float:
        p0 = float(target)
        if not 0.0 < p0 < 1.0:
            raise ValueError("target probability must be strictly between 0 and 1")
        sigma = math.sqrt(p0 * (1.0 - p0) / self.trials) if self.trials else math.inf
        return abs(float(self.estimate) - p0) / sigma


def empirical_cylinders(
    samples: Iterable[PointWindow], cylinders: Sequence[tuple[Word, int]]
) -> list[EmpiricalEstimate]:
    """Fraction of windows showing each ``w`` at its coordinate ``k``.

    One pass: every window's block at each needed ``(k, |w|)`` is tallied
    once, and each ``(w, k)`` reads its hits from the tally.  A window that
    does not cover some ``[k, k+|w|)`` is a caller error and raises.
    """
    cylinders = list(cylinders)
    spans = sorted({(k, len(w)) for w, k in cylinders})
    tally: Counter[tuple[int, tuple[int, ...]]] = Counter()
    trials = 0
    for x in samples:
        trials += 1
        codes, lo, hi = x.codes, x.lo, x.hi
        for k, n in spans:
            if k < lo or k + n - 1 > hi:
                raise ValueError(f"cylinder [{k}, {k + n - 1}] outside window [{lo}, {hi}]")
            tally[k, codes[k - lo : k - lo + n]] += 1
    return [EmpiricalEstimate(f"[{w.text()}]_{k}", tally[k, w.codes], trials) for w, k in cylinders]


def match_index_coincidences(
    samples: Iterable[PointWindow], events: Sequence[tuple[int, Sequence[int]]]
) -> list[EmpiricalEstimate]:
    """Empirical probabilities that backward matching letters repeat their type.

    Each event ``(offset, js)`` is that the letters at the backward times
    ``b_j`` and ``b_{j+offset}`` carry equal types for every ``j`` in ``js``.
    Windows too short to resolve every time an event needs are excluded
    from it and counted separately.  Each window's matching times are
    scanned once, to the deepest depth any event needs; the first dips to
    shallower depths are the same in that one scan.
    """
    events = [(offset, tuple(js)) for offset, js in events]
    for offset, js in events:
        if offset < 1:
            raise ValueError("offset must be at least 1")
        if not js or any(j < 1 for j in js):
            raise ValueError("js must be non-empty positive depths")
    needs = [max(js) + offset for offset, js in events]
    j_need = max(needs, default=1)
    hits = [0] * len(events)
    trials = [0] * len(events)
    unresolved = [0] * len(events)
    for x in samples:
        codes, lo = x.codes, x.lo
        types = [None if t is None else codes[t - lo] for t in matching_times(x, j_need).backward]
        for e, (offset, js) in enumerate(events):
            # A walk reaches depth j + 1 only after depth j, so an event is
            # resolved exactly when its deepest time is.
            if types[needs[e] - 1] is None:
                unresolved[e] += 1
                continue
            trials[e] += 1
            if all(types[j - 1] == types[j + offset - 1] for j in js):
                hits[e] += 1
    return [
        EmpiricalEstimate(
            "type match at b_{j},b_{j+%d} for j in {%s}" % (offset, ",".join(map(str, js))),
            hits[e],
            trials[e],
            unresolved[e],
        )
        for e, (offset, js) in enumerate(events)
    ]


class WindowDiagnostics(NamedTuple):
    """Finite-window tail read-out.  Heuristic by construction: a
    finite-window drift score, not a tail determination.

    Each half-window gets a drift score ``H_end / sqrt(half length)``, so a
    half's end height is its score times that root.  A score of at least
    ``UP_THRESHOLD`` reads as an upward-transient direction; one of at most
    ``DOWN_THRESHOLD`` as recurrent-or-descending, which in this family
    means the walk's liminf in that direction is ``-inf``; in between the
    half-window is left undecided.
    """

    forward_label: str
    backward_label: str
    forward_score: float | None
    backward_score: float | None


UP_THRESHOLD, DOWN_THRESHOLD = 2.0, 1.0


def _drift_label(score: float | None) -> str:
    if score is None or DOWN_THRESHOLD < score < UP_THRESHOLD:
        return "undecided"
    return "plus-infinity-like" if score >= UP_THRESHOLD else "minus-infinity-like"


def classify_window(x: PointWindow) -> WindowDiagnostics:
    """Label each half of a window by where its depth walk seems headed."""
    origin = -x.lo
    # H_{hi+1} is the forward half's openers minus its closers; H_lo is
    # minus the same count over the backward half.
    forward, backward = x.codes[origin:], x.codes[:origin]
    f_end = 2 * len([c for c in forward if c > 0]) - len(forward)
    b_end = len(backward) - 2 * len([c for c in backward if c > 0])
    f_score = f_end / math.sqrt(x.hi) if x.hi >= 1 else None
    b_score = b_end / math.sqrt(-x.lo) if x.lo <= -1 else None
    return WindowDiagnostics(_drift_label(f_score), _drift_label(b_score), f_score, b_score)
