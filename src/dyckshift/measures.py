"""Exact cylinder masses for the tilde, plus and minus measures, and entropy.

Every quantity here is exact: cylinder masses are rationals of the shapes
``2^-a * m^-c`` (tilde) and ``(m+1)^-a * m^-c`` (plus and minus), and
one rule, :func:`mass_denominator`, prices every measure from a word's
length and its residue's counts of loose closers and openers.  Block
entropies of the tilde measure are kept as rational combinations
``p*log(2) + q*log(m)`` and only turned into floats at the reporting
boundary.  Nothing in this module samples anything.

The completion horizon is exact too.  By the reflection principle, the
mass a word with ``k`` loose letters still misses after its completions of
walk length ``L`` is the share ``2^-L Σ C(L, j)``, over ``(L-k)/2 < j <=
(L+k)/2``, of its cylinder mass.  Floats locate the horizon; one binomial,
a product of prime powers by Legendre's formula, and ratio steps certify it
in integers.

``fractions`` loads with the first rational, not at import: every rational
here comes from :func:`_fraction`, which imports ``Fraction`` on its first
call and rebinds itself to it, so later calls reach the class directly.
"""

from __future__ import annotations

import bisect
import math
from itertools import islice
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .words import (
    BudgetExceeded,
    Word,
    _binomial,
    _check_letters,
    completion_needs,
    pattern_counts,
    residue,
)

if TYPE_CHECKING:
    from fractions import Fraction


def _fraction(*args) -> Fraction:
    """``Fraction(*args)``; the first call imports the class and rebinds this name to it."""
    global _fraction
    from fractions import Fraction as _fraction

    return _fraction(*args)


def mass_denominator(measure: str, m: int, n: int, closers: int, openers: int) -> int:
    """The pricing rule: ``1/mass`` of a language word of length ``n`` under ``measure``.

    ``closers`` and ``openers`` count the loose letters of the word's residue; a shape
    that fits no word of length ``n`` raises ``ValueError``.  ``tilde`` gives ``2^n *
    m^(pairs + loose)`` = ``2^n * m^((n + closers + openers)/2)``; ``plus`` ``(m+1)^n *
    m^closers``; ``minus``, its mirror, ``(m+1)^n * m^openers``.
    """
    if (n + closers + openers) % 2:
        raise ValueError(f"a residue with {closers + openers} loose letters fits no word of length {n}")
    if measure == "tilde":
        return 2**n * m ** ((n + closers + openers) // 2)
    if measure == "plus":
        return (m + 1) ** n * m**closers
    if measure == "minus":
        return (m + 1) ** n * m**openers
    raise ValueError(f"unknown measure {measure!r}; expected tilde, plus or minus")


def cylinder_mass(codes: Sequence[int], m: int, measure: str = "tilde") -> Fraction:
    """Exact mass of the cylinder fixing the letters ``codes``, under ``measure``.

    A language word is priced from its length and its residue's shape by
    :func:`mass_denominator`.  Words that reduce to zero have empty cylinders and
    mass 0.  No measure depends on where the cylinder starts: all three are shift
    invariant.  ``m`` and the codes go through :class:`Word`'s own check.
    """
    if measure not in ("tilde", "plus", "minus"):
        raise ValueError(f"unknown measure {measure!r}; expected tilde, plus or minus")
    _check_letters(m, codes)
    found = residue(codes)
    if found is None:
        return _fraction(0)
    closers, openers = found
    return _fraction(1, mass_denominator(measure, m, len(codes), len(closers), len(openers)))


def _ballot_ways(k: int) -> Iterator[int]:
    """``C_k(f)`` for ``f = 0, 1, ...``, stepped by its ratio recurrence.

    ``C_k(f) = k/(2f+k) * C(2f+k, f)`` (a ballot number, 1 when ``k = f =
    0``) counts the ``k``-tuples of balanced nesting shapes with ``f`` pairs
    in all: the filler shapes of a completion that adds ``f`` pairs to a
    word with ``k`` loose letters.
    """
    ways, f = 1, 0
    while True:
        yield ways
        ways = ways * (2 * f + k) * (2 * f + k + 1) // ((f + 1) * (f + k + 1))
        f += 1


class ExtensionMassRow(NamedTuple):
    """One length class of minimal balanced completions of a word.

    ``count`` completions of total length ``total_len`` each carry the same
    balanced-law mass; ``partial`` accumulates and ``residual`` is the exact
    distance still missing from the target cylinder value.
    """

    total_len: int
    count: int
    added: Fraction
    partial: Fraction
    residual: Fraction


def minimal_extension_mass(a: Word, max_len: int) -> list[ExtensionMassRow]:
    """Partial sums of balanced-law mass over minimal completions of ``a``.

    Each length class is priced with the ballot-number count of filler
    shapes, stepped by its ratio recurrence, so lengths in the tens of
    thousands are cheap; the tests check it against a literal walk over the
    completions of :func:`~dyckshift.words.minimal_balanced_extensions`.
    Rows appear only for lengths that contribute, so partial sums strictly
    increase.  :func:`~dyckshift.words.completion_needs` refuses the query.
    """
    k = sum(map(len, completion_needs(a, max_len)))
    base = len(a) + k
    classes = (max_len - base) // 2 + 1 if max_len >= base else 0
    # Class f holds C_k(f) completions per typing of its f added pairs and
    # adds C_k(f) / (unit 4^f), with unit the tilde price of a balanced word
    # of length base; the target is 2^k / unit.  Partial sums stay integers
    # over unit 4^f, and Fractions are built only for the rows.
    rows: list[ExtensionMassRow] = []
    den = mass_denominator("tilde", a.m, base, 0, 0)
    reached, whole_mass, types = 0, 1 << k, 1
    for f, count in enumerate(islice(_ballot_ways(k), classes)):
        reached = 4 * reached + count
        if count:
            rows.append(
                ExtensionMassRow(
                    base + 2 * f,
                    count * types,
                    _fraction(count, den),
                    _fraction(reached, den),
                    _fraction(whole_mass - reached, den),
                )
            )
        den *= 4
        whole_mass *= 4
        types *= a.m
    return rows


# Completion lengths past this raise BudgetExceeded; floats may rule out
# the cap only when their horizon lies this many pairs beyond it.
_MAX_TOTAL_LEN = 1 << 20
_FLOAT_MARGIN = 8


def _log_residual(walk: int, k: int) -> float:
    """Float log of ``2^-walk Σ C(walk, j)`` over ``(walk-k)/2 < j <= (walk+k)/2``.

    Each term comes straight from ``math.lgamma``.  The range holds the peak
    term ``j = ceil(walk/2)``, the largest of ``walk + 1`` terms that sum to
    1, so it is at least ``1/(walk+1)``: the sum never underflows to 0.
    """
    log_top = math.lgamma(walk + 1) - walk * math.log(2)
    terms = range((walk - k) // 2 + 1, (walk + k) // 2 + 1)
    return math.log(math.fsum(math.exp(log_top - math.lgamma(j + 1) - math.lgamma(walk - j + 1)) for j in terms))


def mass_length_for_residual(a: Word, ratio: Fraction) -> int:
    """Smallest completion length whose residual drops below ``ratio`` of the target.

    The length class with ``f`` added pairs carries ``C_k(f) 2^-(k+2f)`` of
    the cylinder value for every ``m``, where ``k`` counts loose letters and
    ``C_k`` is the ballot number of :func:`_ballot_ways`: the chance that a
    fair ±1 walk started at height ``k`` first hits 0 at step ``k + 2f``.
    So the residual after walk length ``L = k + 2f`` is the chance that the
    walk has not hit 0 by step ``L``, which the reflection principle gives
    as ``R(L) = 2^-L Σ C(L, j)`` over the ``k`` values ``(L-k)/2 < j <=
    (L+k)/2``.  ``R`` strictly decreases in ``L``.

    Locate, in floats: ``bisect`` over ``f`` for the first ``L`` with ``log
    R(L) <= log num - log den``, where ``ratio = num/den``.  Certify,
    exactly: one :func:`~dyckshift.words._binomial`, a product of prime
    powers, gives the first binomial at that ``L``; ratio steps give the
    other ``k - 1`` and move ``L`` by ±2, until ``den Σ C(L, j) <= num 2^L``
    holds at ``L`` and fails at ``L - 2`` (or ``L = k``).
    The answer is exact whatever the float error.  It returns ``|a| + L``,
    the row that :func:`minimal_extension_mass` would reach first, and
    raises ``BudgetExceeded`` when that length passes ``2^20``.
    """
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    k = sum(map(len, completion_needs(a)))
    base = len(a) + k
    if k == 0:
        return base
    num, den = ratio.numerator, ratio.denominator
    f_cap = max(0, (_MAX_TOTAL_LEN - base) // 2 + 1)  # pairs at the first length past the cap
    budget = f"no convergence below {ratio} by length {base + 2 * f_cap}"
    log_ratio = math.log(num) - math.log(den)

    def located(f: int) -> bool:
        return _log_residual(k + 2 * f, k) <= log_ratio

    f = bisect.bisect_left(range(f_cap + _FLOAT_MARGIN + 1), True, key=located)
    if f > f_cap + _FLOAT_MARGIN:
        raise BudgetExceeded(budget)
    f = min(f, f_cap)
    walk = k + 2 * f
    first = _binomial(walk, f + 1)  # j = (walk - k)/2 + 1

    def within() -> bool:
        total, term = 0, first
        for j in range(f + 1, f + k + 1):
            total += term
            term = term * (walk - j) // (j + 1)
        return den * total <= num << walk

    if within():
        while f:
            # C(walk-2, j-1) = C(walk, j) j (walk-j) / (walk (walk-1))
            first = first * (f + 1) * (walk - f - 1) // (walk * (walk - 1))
            f, walk = f - 1, walk - 2
            if not within():
                return base + 2 * f + 2
        return base
    while True:
        if f >= f_cap:
            raise BudgetExceeded(budget)
        # C(walk+2, j+1) = C(walk, j) (walk+1) (walk+2) / ((j+1) (walk-j+1))
        first = first * (walk + 1) * (walk + 2) // ((f + 2) * (walk - f))
        f, walk = f + 1, walk + 2
        if within():
            return base + 2 * f


class LogPair(NamedTuple):
    """Exact value ``log2_coeff * log(2) + logm_coeff * log(m)``."""

    log2_coeff: Fraction
    logm_coeff: Fraction

    def __sub__(self, other: "LogPair") -> "LogPair":
        return LogPair(self.log2_coeff - other.log2_coeff, self.logm_coeff - other.logm_coeff)

    def nats(self, m: int) -> float:
        return float(self.log2_coeff) * math.log(2) + float(self.logm_coeff) * math.log(m)


def _pattern_stats(length: int) -> tuple[int, int]:
    """Aggregate over all opener/closer patterns of the given length.

    Returns ``(total matched pairs, number of patterns every one of whose
    suffixes has at least as many openers as closers)``.  Patterns are the
    type-forgetting skeletons of words; both aggregates are what the exact
    entropy formulas consume.

    Both are short sums, folded in one pass over :func:`pattern_counts`:
    the ``length - 2p + 1`` loose splits of ``p`` pairs each hold
    ``S(length, p)`` patterns.  The split with no loose closer holds the
    patterns none of whose prefixes runs a closer surplus, and reversal
    maps them one-to-one onto the suffix-nonnegative ones.
    """
    total_pairs = nonneg = 0
    for p, count in enumerate(pattern_counts(length)):
        total_pairs += p * (length - 2 * p + 1) * count
        nonneg += count
    return total_pairs, nonneg


class EntropyReport(NamedTuple):
    """Exact block and step entropy at one length, plus the branch weight.

    ``step`` is the conditional entropy of the next letter given an
    ``n``-letter past; ``p_nonneg`` is the exact probability that this past,
    read outward from the origin, never runs a closer surplus — the event
    that makes the next letter uniform over all ``2m`` letters.
    """

    n: int
    m: int
    block: LogPair
    step: LogPair
    p_nonneg: Fraction

    def decomposition_step(self) -> LogPair:
        """The step entropy predicted by the two-branch mixture, exactly."""
        return LogPair(_fraction(1), (1 + self.p_nonneg) / 2)


def _entropy_rows(first: int, last: int, m: int) -> list[EntropyReport]:
    """Exact entropy rows for ``n = first .. last``, one pattern pass per length.

    A length-``n`` pattern is hit with probability ``2^-n`` whatever ``m`` (the type
    choices integrate out), so block ``n`` is ``n log(2) + (n - T_n / 2^n) log(m)``, with
    ``T_n`` the total pairs of :func:`_pattern_stats`.  Step ``n`` is block ``n + 1`` less
    block ``n``, one integer numerator over ``2^(n+1)``.  So each length's statistics are
    computed once, and each coefficient is built as one rational.
    """
    if min(first, last) < 0:
        raise ValueError("block length must be >= 0")
    _check_letters(m, ())
    stats = [_pattern_stats(n) for n in range(first, last + 2)]
    one, rows = _fraction(1), []
    for n, (pairs, nonneg), (pairs_after, _) in zip(range(first, last + 1), stats, stats[1:]):
        scale = 1 << n
        block = LogPair(_fraction(n), _fraction(n * scale - pairs, scale))
        step = LogPair(one, _fraction(2 * scale - pairs_after + 2 * pairs, 2 * scale))
        rows.append(EntropyReport(n=n, m=m, block=block, step=step, p_nonneg=_fraction(nonneg, scale)))
    return rows


def entropy_report(n: int, m: int = 2) -> EntropyReport:
    """Exact entropy data at the one block length ``n``.

    The one-length route: two pattern passes, at lengths ``n`` and ``n + 1``.
    For several lengths use :func:`entropy_table`, which counts each once.
    """
    return _entropy_rows(n, n, m)[0]


def entropy_table(n_max: int, m: int = 2) -> list[EntropyReport]:
    """:func:`entropy_report` for ``n = 0 .. n_max``, one pattern pass per length."""
    return _entropy_rows(0, n_max, m)
