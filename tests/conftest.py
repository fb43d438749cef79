"""Shared strategies and oracles for the test suite."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from dyckshift.analysis import EmpiricalEstimate, MatchingTimes, WindowDiagnostics, _drift_label, matching_times
from dyckshift.coding import SAMPLERS, PointWindow
from dyckshift.measures import ExtensionMassRow, _ballot_ways, cylinder_mass
from dyckshift.verification import DEFAULT_SEED, SUITES, CheckResult, run_check
from dyckshift.words import (
    NotInLanguage,
    Word,
    is_balanced,
    iter_language_stats,
    minimal_balanced_extensions,
    pattern_counts,
    residue,
)

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=60,
)
settings.load_profile("suite")


def balanced_codes_exact(draw, m: int, pairs: int) -> tuple[int, ...]:
    """Draw a random balanced word with exactly ``pairs`` matched pairs."""
    n = 2 * pairs
    codes: list[int] = []
    stack: list[int] = []
    while len(codes) < n:
        remaining = n - len(codes)
        can_open = remaining >= len(stack) + 2
        if stack and (not can_open or draw(st.booleans())):
            codes.append(-stack.pop())
        else:
            t = draw(st.integers(1, m))
            stack.append(t)
            codes.append(t)
    return tuple(codes)


def balanced_codes(draw, m: int, max_pairs: int) -> tuple[int, ...]:
    """Draw a uniform-ish random balanced word as raw codes."""
    return balanced_codes_exact(draw, m, draw(st.integers(0, max_pairs)))


@st.composite
def balanced_words(draw, m: int = 2, max_pairs: int = 5) -> Word:
    return Word(m, balanced_codes(draw, m, max_pairs))


@st.composite
def language_words(draw, m: int = 2, max_len: int = 12) -> Word:
    """Random language word: a legal walk that never annihilates."""
    n = draw(st.integers(0, max_len))
    codes: list[int] = []
    stack: list[int] = []
    for _ in range(n):
        close = draw(st.booleans())
        if close and stack:
            codes.append(-stack.pop())
        elif close:
            codes.append(-draw(st.integers(1, m)))  # joins the loose-closer run
        else:
            t = draw(st.integers(1, m))
            stack.append(t)
            codes.append(t)
    return Word(m, tuple(codes))


@st.composite
def raw_words(draw, m: int = 2, max_len: int = 10) -> Word:
    """Arbitrary words, most of which annihilate — parser/reducer fodder."""
    codes = draw(
        st.lists(
            st.integers(1, m).flatmap(lambda t: st.sampled_from([t, -t])),
            max_size=max_len,
        )
    )
    return Word(m, tuple(codes))


@st.composite
def equivalent_word_pairs(draw, m: int = 2, max_total: int = 12) -> tuple[Word, Word]:
    """Two same-length words with the same irreducible residue.

    Built generatively from the residue outward: every word with residue
    ``b.. b.. a.. a..`` is that letter skeleton with balanced fillers slotted
    between (and around) the loose letters, so drawing two filler tuples with
    equal total size yields an equivalent pair without ever invoking the
    reducer under test.
    """
    closers = draw(st.lists(st.integers(1, m), max_size=2))
    openers = draw(st.lists(st.integers(1, m), max_size=2))
    slots = len(closers) + len(openers) + 1
    budget = max(0, (max_total - len(closers) - len(openers)) // 2)
    total = draw(st.integers(0, budget))

    def build() -> tuple[int, ...]:
        fillers = []
        left = total
        for slot in range(slots):
            pairs = left if slot == slots - 1 else draw(st.integers(0, left))
            fillers.append(balanced_codes_exact(draw, m, pairs))
            left -= pairs
        codes: list[int] = list(fillers[0])
        for i, c in enumerate(closers):
            codes.append(-c)
            codes.extend(fillers[1 + i])
        for i, o in enumerate(openers):
            codes.append(o)
            codes.extend(fillers[1 + len(closers) + i])
        return tuple(codes)

    return Word(m, build()), Word(m, build())


def rewrite_oracle(
    codes: tuple[int, ...], rng: random.Random
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Reduce by randomly ordered adjacent rewrites; confluence oracle.

    Picks any adjacent opener-closer pair, cancels it if the types match and
    annihilates everything otherwise, until no such pair remains.  The final
    letters are then loose closers followed by loose openers, returned as
    ``residue`` returns them: ``(closer types, opener types)``, or ``None``
    for zero.
    """
    work = list(codes)
    while True:
        redexes = [
            i for i in range(len(work) - 1) if work[i] > 0 and work[i + 1] < 0
        ]
        if not redexes:
            break
        i = rng.choice(redexes)
        if work[i] != -work[i + 1]:
            return None
        del work[i : i + 2]
    split = next((i for i, c in enumerate(work) if c > 0), len(work))
    return tuple(-c for c in work[:split]), tuple(work[split:])


def pairwise_swap_comparisons(contexts: Sequence[tuple[int, ...]], n_max: int, m: int) -> int | None:
    """Sweep (a) of block-swap-exact one (block, context) pair at a time.

    Oracle for the trie walk: every block of length <= ``n_max`` whose
    ``(length, *residue)`` class holds another block is reduced from scratch
    under every context and compared with the class's first block.  Returns
    the number of comparisons, or ``None`` at the first mismatch.
    """
    buckets: dict[tuple, list[tuple[int, ...]]] = {}
    for n in range(n_max + 1):
        for codes, _, _ in iter_language_stats(n, m):
            buckets.setdefault((n, *residue(codes)), []).append(codes)
    comparisons = 0
    for rep, *others in buckets.values():
        base = [residue(s + rep) for s in contexts]
        for w in others:
            for s, expect in zip(contexts, base):
                comparisons += 1
                if residue(s + w) != expect:
                    return None
    return comparisons


def pattern_tally(n: int) -> Counter[tuple[int, int]]:
    """Brute force over all ``2^n`` opener/closer patterns of length ``n``.

    Counts patterns by ``(matched pairs, leading loose closers)``; bit ``pos``
    set means an opener at position ``pos``.
    """
    tally: Counter[tuple[int, int]] = Counter()
    for bits in range(1 << n):
        depth = pairs = loose_closers = 0
        for pos in range(n):
            if (bits >> pos) & 1:
                depth += 1
            elif depth:
                depth -= 1
                pairs += 1
            else:
                loose_closers += 1
        tally[pairs, loose_closers] += 1
    return tally


def pattern_sum(n: int, m: int) -> int:
    """Independent oracle: types integrate out to m^(pairs+loose) per skeleton."""
    return sum(count * m ** (n - pairs) for (pairs, _), count in pattern_tally(n).items())


def enumerated_pattern_stats(length: int) -> tuple[int, int]:
    """Oracle for ``measures._pattern_stats``: walk all ``2^length`` patterns.

    Returns ``(total matched pairs, number of patterns every one of whose
    suffixes has at least as many openers as closers)``.
    """
    total_pairs = 0
    suffix_nonneg = 0
    for bits in range(1 << length):
        depth = 0
        pairs = 0
        for pos in range(length):
            if (bits >> pos) & 1:
                depth += 1
            elif depth:
                depth -= 1
                pairs += 1
        total_pairs += pairs
        running = 0
        for pos in range(length):
            running += 1 if (bits >> pos) & 1 else -1
            if running < 0:
                break
        else:
            suffix_nonneg += 1
        # NB: scanning bit positions 0..length-1 walks the *reversed* word,
        # which is exactly the suffix direction the nonnegativity condition
        # wants; the pair total is reversal-blind because reversal permutes
        # the pattern set.
    return total_pairs, suffix_nonneg


def depth_dp_counts(n_max: int, m: int) -> list[int]:
    """Oracle: ``|L(n)|`` for ``n = 0..n_max`` by DP over the open-opener stack depth.

    From depth ``d`` a word can open any of ``m`` types (depth ``d+1``), close
    the unique matching type when ``d > 0`` (depth ``d-1``), or emit any of
    ``m`` unmatched closers when ``d = 0`` (the closer joins the left residue
    and never constrains the future).
    """
    counts = [1] + [0] * n_max
    totals = [1]
    for _ in range(n_max):
        nxt = [0] * (n_max + 1)
        for d, v in enumerate(counts):
            if not v:
                continue
            if d < n_max:
                nxt[d + 1] += v * m
            if d > 0:
                nxt[d - 1] += v
            else:
                nxt[0] += v * m
        counts = nxt
        totals.append(sum(counts))
    return totals


def power_sum_count(n: int, m: int) -> int:
    """Oracle for ``count_language``: each pattern term with its own power of ``m``, summed."""
    return sum((n - 2 * p + 1) * count * m ** (n - p) for p, count in enumerate(pattern_counts(n)))


def stepped_horizon(a: Word, ratio: Fraction) -> int:
    """Oracle for ``mass_length_for_residual``: partial sum and ``4^f`` scale stepped side by side.

    A different route from the product's, which counts the residual by the
    reflection principle in one binomial window: this one walks the ballot
    numbers class by class.  With ``k`` loose letters the residual after
    ``f`` added pairs is within ``ratio`` of the target once ``den *
    Σ_{g<=f} C_k(g) 4^(f-g) >= (den - num) 2^k 4^f``; both sides are kept
    as separate integers.
    """
    found = residue(a.codes)
    k = len(found[0]) + len(found[1])
    need = (ratio.denominator - ratio.numerator) << k
    reached, scale, total_len = 0, 1, len(a) + k  # scale = 4^f
    for ways in _ballot_ways(k):
        reached = 4 * reached + ways
        if ratio.denominator * reached >= need * scale:
            return total_len
        scale *= 4
        total_len += 2


def first_row_within(rows: Sequence[ExtensionMassRow], target: Fraction, ratio: Fraction) -> int | None:
    """Oracle: length of the first completion row whose residual is within ``ratio`` of ``target``."""
    return next((row.total_len for row in rows if row.residual <= ratio * target), None)


def extension_additivity(w: Word, measure: str = "tilde", side: str = "right") -> tuple[Fraction, Fraction]:
    """Cylinder mass of ``w`` versus the sum over its one-letter extensions.

    ``side`` says where the letter goes: ``"right"`` sums ``w a``, ``"left"``
    sums ``a w``.  Returns ``(lhs, rhs)`` for the caller to assert equal;
    both are exact.  Extensions that fall out of the language contribute
    zero to the sum.
    """
    if residue(w.codes) is None:
        raise NotInLanguage(f"{w.text()!r} reduces to zero")
    total = Fraction(0)
    for code in (*range(1, w.m + 1), *range(-w.m, 0)):
        extended = w.codes + (code,) if side == "right" else (code,) + w.codes
        total += cylinder_mass(extended, w.m, measure)
    return cylinder_mass(w.codes, w.m, measure), total


def plus_law(n: int, m: int) -> dict[tuple[int, ...], Fraction]:
    """Oracle for the plus cylinder masses: the law of ``n`` letters of the plus construction.

    Enumerates every string of ``n`` collapsed letters (``m`` typed openers
    and one anonymous closer, each with probability ``1/(m+1)``), retypes
    each closer matched inside the string from its opener with a stack of
    its own, and gives each loose closer, whose opener lies to the left of
    the string, every type with weight ``1/m``.  Words missing from the
    returned mapping have mass 0.
    """
    law: dict[tuple[int, ...], Fraction] = {}
    for letters in itertools.product(range(m + 1), repeat=n):  # 0 is the anonymous closer
        codes = [0] * n
        stack: list[int] = []
        loose: list[int] = []
        for i, v in enumerate(letters):
            if v:
                codes[i] = v
                stack.append(v)
            elif stack:
                codes[i] = -stack.pop()
            else:
                loose.append(i)
        weight = Fraction(1, (m + 1) ** n * m ** len(loose))
        for types in itertools.product(range(1, m + 1), repeat=len(loose)):
            for i, t in zip(loose, types):
                codes[i] = -t
            law[tuple(codes)] = law.get(tuple(codes), Fraction(0)) + weight
    return law


def match_left(bits: Sequence[int], n: int) -> int | None:
    """The coding map's matching rule: the offset of the opener that the closer at ``n`` matches.

    Bits are letter kinds (1 = opener), the walk steps up on 1 and down on 0,
    and the opener is literally the largest ``l < n`` whose walk height does
    not exceed the height just after ``n``.  ``None`` when no offset in the
    window qualifies: the opener lies left of the window.
    """
    profile = [0]
    for b in bits:
        profile.append(profile[-1] + (1 if b else -1))
    target = profile[n + 1]
    return next((l for l in range(n - 1, -1, -1) if profile[l] <= target), None)


def coding_slots(bits: Sequence[int]) -> list[int]:
    """The slot of the shared type sequence that each letter of a bit window at the origin reads.

    An opener at offset ``n`` reads the slot of the running bit count over
    ``[0, n]``, so openers read distinct slots from 1 up.  A closer reads the
    slot of the opener that :func:`match_left` finds.  A closer whose opener
    lies left of the window reads that opener's slot, which no letter of the
    window shares; its value depends on bits left of the window, so it is
    named ``-1, -2, ...`` in order of appearance.
    """
    slots: list[int] = []
    fresh = 0
    for n, b in enumerate(bits):
        if b:
            slots.append(sum(bits[: n + 1]))
        elif (opener := match_left(bits, n)) is not None:
            slots.append(slots[opener])
        else:
            fresh -= 1
            slots.append(fresh)
    return slots


def tilde_law(n: int, m: int) -> dict[tuple[int, ...], Fraction]:
    """Oracle for the tilde cylinder masses: the law of ``n`` letters of the coding map.

    Enumerates every string of ``n`` fair bits (1 = opener), assigns each
    letter its :func:`coding_slots` slot and gives the used slots i.i.d.
    uniform types, so each typing weighs ``2^-n m^-slots``.  An opener takes
    its slot's type and a closer minus it.  Words missing from the returned
    mapping have mass 0.
    """
    law: dict[tuple[int, ...], Fraction] = {}
    for bits in itertools.product((0, 1), repeat=n):
        slots = coding_slots(bits)
        used = sorted(set(slots))
        weight = Fraction(1, 2**n * m ** len(used))
        for types in itertools.product(range(1, m + 1), repeat=len(used)):
            typed = dict(zip(used, types))
            codes = tuple(typed[s] if b else -typed[s] for b, s in zip(bits, slots))
            law[codes] = law.get(codes, Fraction(0)) + weight
    return law


def catalan_convolution(parts: int, pairs: int) -> int:
    """Number of ``parts``-tuples of balanced nesting shapes totaling ``pairs`` pairs.

    Closed form ``parts/(2*pairs+parts) * C(2*pairs+parts, pairs)`` (a ballot
    number), checked against an explicit convolution of Catalan numbers.
    """
    if parts < 0 or pairs < 0:
        raise ValueError("arguments must be nonnegative")
    if parts == 0:
        return 1 if pairs == 0 else 0
    top = 2 * pairs + parts
    return parts * math.comb(top, pairs) // top


def fraction_extension_rows(a: Word, max_len: int) -> list[ExtensionMassRow]:
    """Oracle for ``minimal_extension_mass``: the count route with Fraction partial sums.

    Each length class is priced as its ballot-number count of completions
    times the balanced law, and added to a running Fraction row by row.  The
    loose letters are counted by the order-free rewriting oracle.
    """
    found = rewrite_oracle(a.codes, random.Random(0))
    if found is None:
        raise NotInLanguage(f"{a.text()!r} reduces to zero")
    loose = len(found[0]) + len(found[1])
    target = cylinder_mass(a.codes, a.m)
    base = len(a) + loose
    rows: list[ExtensionMassRow] = []
    partial = Fraction(0)
    for total in range(base, max_len + 1, 2):
        fill = (total - base) // 2
        count = catalan_convolution(loose, fill) * a.m**fill
        if count == 0:
            continue
        added = count * Fraction(1, 2**total * a.m ** (total // 2))
        partial += added
        rows.append(ExtensionMassRow(total, count, added, partial, target - partial))
    return rows


def walked_extension_rows(a: Word, max_len: int) -> list[ExtensionMassRow]:
    """Oracle for ``minimal_extension_mass``: a literal walk over the completions.

    Every completion ``l a r`` that ``minimal_balanced_extensions`` lists
    must balance.  Each length class is priced as its number of completions
    times the balanced law ``2^-n m^-(n/2)``, and added to a running Fraction.
    """
    by_len: Counter[int] = Counter()
    for left, right in minimal_balanced_extensions(a, max_len):
        whole = Word(a.m, left.codes + a.codes + right.codes)
        assert is_balanced(whole), f"{whole.text()!r} does not balance"
        by_len[len(whole)] += 1
    target = cylinder_mass(a.codes, a.m)
    rows: list[ExtensionMassRow] = []
    partial = Fraction(0)
    for total in sorted(by_len):
        added = by_len[total] * Fraction(1, 2**total * a.m ** (total // 2))
        partial += added
        rows.append(ExtensionMassRow(total, by_len[total], added, partial, target - partial))
    return rows


def height_cocycle(x: PointWindow) -> tuple[int, ...]:
    """Bracket-depth walk ``H_i`` for ``i`` in ``[lo, hi+1]``, with ``H_0 = 0``.

    Each opener steps up one and each closer down one, and the walk is
    anchored at the origin, so behind the origin the signs read flipped.
    """
    profile = [0]
    for c in x.codes:
        profile.append(profile[-1] + (1 if c > 0 else -1))
    origin = profile[-x.lo]
    return tuple(h - origin for h in profile)


def scan_matching_times(x: PointWindow, j_max: int) -> MatchingTimes:
    """Oracle for ``analysis.matching_times``: scan the whole height walk on each side."""
    heights = height_cocycle(x)
    forward: list[int | None] = [None] * j_max
    for k in range(0, x.hi + 1):
        h = heights[k + 1 - x.lo]
        if -j_max <= h <= -1 and forward[-h - 1] is None:
            forward[-h - 1] = k
    backward: list[int | None] = [None] * j_max
    for k in range(-1, x.lo - 1, -1):
        h = heights[k - x.lo]
        if -j_max <= h <= -1 and backward[-h - 1] is None:
            backward[-h - 1] = k
    return MatchingTimes(tuple(forward), tuple(backward))


def cocycle_window_diagnostics(x: PointWindow) -> WindowDiagnostics:
    """Oracle for ``analysis.classify_window``: scores read off the
    re-anchored ``height_cocycle`` tuple."""
    heights = height_cocycle(x)
    f_score = heights[-1] / math.sqrt(x.hi) if x.hi >= 1 else None  # H_{hi+1}
    b_score = heights[0] / math.sqrt(-x.lo) if x.lo <= -1 else None  # H_lo
    return WindowDiagnostics(
        forward_label=_drift_label(f_score),
        backward_label=_drift_label(b_score),
        forward_score=f_score,
        backward_score=b_score,
    )


def rescan_empirical_cylinder(samples: Iterable[PointWindow], w: Word, k: int) -> EmpiricalEstimate:
    """Oracle for ``analysis.empirical_cylinders``: one pass over the samples per cylinder."""
    hits = trials = 0
    for x in samples:
        trials += 1
        if x.codes[k - x.lo : k - x.lo + len(w)] == w.codes:
            hits += 1
    return EmpiricalEstimate(f"[{w.text()}]_{k}", hits, trials)


def rescan_match_index_coincidence(
    samples: Iterable[PointWindow], offset: int, js: Sequence[int]
) -> EmpiricalEstimate:
    """Oracle for ``analysis.match_index_coincidences``: one event per pass, each
    window's matching times scanned to that event's own depth."""
    js = tuple(js)
    j_need = max(js) + offset
    hits = trials = unresolved = 0
    for x in samples:
        times = matching_times(x, j_need)
        needed = [(times.backward[j - 1], times.backward[j + offset - 1]) for j in js]
        if any(t is None or u is None for t, u in needed):
            unresolved += 1
            continue
        trials += 1
        if all(x.codes[t - x.lo] == x.codes[u - x.lo] for t, u in needed):
            hits += 1
    event = "type match at b_{j},b_{j+%d} for j in {%s}" % (offset, ",".join(map(str, js)))
    return EmpiricalEstimate(event, hits, trials, unresolved)


class _BitStream:
    """Buffered fair bits from one RNG, read LSB-first from 32-bit words."""

    __slots__ = ("_rng", "_buf", "_left")

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._buf = 0
        self._left = 0

    def take(self) -> int:
        if not self._left:
            self._buf = self._rng.getrandbits(32)
            self._left = 32
        bit = self._buf & 1
        self._buf >>= 1
        self._left -= 1
        return bit


def _close_loose(m: int, codes: list[int], loose: list[int], rng: random.Random) -> None:
    """Type each loose closer, leftmost first, with one ``randrange`` call."""
    for off in loose:
        codes[off] = -(rng.randrange(m) + 1)


def bitwise_tilde_window(m: int, lo: int, hi: int, rng: random.Random) -> PointWindow:
    """Oracle for ``sample_tilde``'s window drawn from ``rng``.

    The height walk one bit at a time, then one ``randrange`` per opener, in
    order of appearance, and one per loose closer; built through
    ``PointWindow``'s validation.
    """
    stream = _BitStream(rng)
    bits = [stream.take() for _ in range(hi - lo + 1)]
    codes = [0] * len(bits)
    stack: list[int] = []  # offsets of openers still open, innermost last
    loose: list[int] = []  # offsets of closers whose opener is left of the window
    for off, b in enumerate(bits):
        if b:
            codes[off] = rng.randrange(m) + 1
            stack.append(off)
        elif stack:
            codes[off] = -codes[stack.pop()]
        else:
            loose.append(off)
    _close_loose(m, codes, loose, rng)
    return PointWindow(m, lo, hi, tuple(codes))


def per_draw_plus_window(m: int, lo: int, hi: int, rng: random.Random) -> PointWindow:
    """Oracle for ``sample_plus``'s window drawn from ``rng``.

    One ``randrange`` per letter, then one per loose closer; built through
    ``PointWindow``'s validation.
    """
    letters = [rng.randrange(m + 1) for _ in range(hi - lo + 1)]  # 0 = anonymous closer
    codes = [0] * len(letters)
    stack: list[int] = []
    loose: list[int] = []
    for off, v in enumerate(letters):
        if v:
            codes[off] = v
            stack.append(v)
        elif stack:
            codes[off] = -stack.pop()
        else:
            loose.append(off)
    _close_loose(m, codes, loose, rng)
    return PointWindow(m, lo, hi, tuple(codes))


GOLDEN_WINDOWS = ((0, 0), (0, 1), (-1, 0), (-7, 0), (0, 31), (-16, 16), (-200, 0), (0, 200))


def golden_grid_windows() -> Iterator[PointWindow]:
    """The windows behind the golden stream digest: every sampler at m = 1, 2, 3
    on each of ``GOLDEN_WINDOWS``, at seeds 0 and 1, eight samples each."""
    for name in sorted(SAMPLERS):
        for m in (1, 2, 3):
            for lo, hi in GOLDEN_WINDOWS:
                for seed in (0, 1):
                    yield from SAMPLERS[name](m, lo, hi, seed=seed, count=8)


@pytest.fixture(scope="session")
def exact_check_results() -> dict[str, CheckResult]:
    """Every exact check, run once per session at the default seed."""
    return {key: run_check(key, DEFAULT_SEED) for key in SUITES["exact"]}


@pytest.fixture(scope="session")
def sampling_check_results() -> dict[str, CheckResult]:
    """Every sampling check, run once per session at the default seed."""
    return {key: run_check(key, DEFAULT_SEED) for key in SUITES["sampling"]}
