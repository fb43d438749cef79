"""Exact cylinder masses for the tilde, plus and minus measures, and entropy.

Every quantity here is exact: cylinder masses are rationals of the shapes
``2^-a * m^-c`` (tilde) and ``(m+1)^-a * m^-c`` (plus and minus), block
entropies of the tilde measure are kept as rational combinations
``p*log(2) + q*log(m)`` and only turned into floats at the reporting
boundary.  Nothing in this module samples anything.

The completion horizon is exact too.  By the reflection principle, the
mass a word with ``k`` loose letters still misses after its completions of
walk length ``L`` is the share ``2^-L Σ C(L, j)``, over ``(L-k)/2 < j <=
(L+k)/2``, of its cylinder mass.  Floats locate the horizon; one binomial
and ratio steps certify it in integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from typing import Iterator, NamedTuple, Sequence

from .words import (
    BudgetExceeded,
    Word,
    completion_needs,
    pattern_counts,
    residue,
)


def residue_m_exponent(found: tuple[tuple[int, ...], tuple[int, ...]] | None, length: int) -> int | None:
    """The tilde pricing rule: the m-exponent of a word from its length and residue.

    A language word of length ``n`` has tilde mass ``2^-n * m^-e``, where
    ``e`` counts matched pairs plus loose letters.  ``found`` is the word's
    :func:`~dyckshift.words.residue`, however it was scanned; ``None``
    (zero) prices to ``None``.  A residue whose loose letters leave an odd
    number for the pairs belongs to no word of that length, and raises
    ``ValueError``.
    """
    if found is None:
        return None
    closers, openers = found
    # pairs + loose, with pairs = (length - loose) / 2
    paired = length + len(closers) + len(openers)
    if paired % 2:
        raise ValueError(f"a residue with {paired - length} loose letters fits no word of length {length}")
    return paired // 2


def cylinder_mass(codes: Sequence[int], m: int, measure: str = "tilde") -> Fraction:
    """Exact mass of the cylinder fixing the letters ``codes``, under ``measure``.

    A language word of length ``n`` is priced from its residue: ``tilde``
    gives ``2^-n * m^-(pairs + loose)``, ``plus`` gives ``(m+1)^-n *
    m^-(loose closers)`` and ``minus``, the mirror of plus, gives ``(m+1)^-n
    * m^-(loose openers)``.  Words that reduce to zero have empty cylinders
    and mass 0.  No measure depends on where the cylinder starts: all three
    are shift invariant.  ``m`` and the codes are checked as in :class:`Word`.
    """
    if measure not in ("tilde", "plus", "minus"):
        raise ValueError(f"unknown measure {measure!r}; expected tilde, plus or minus")
    found = residue(Word(m, tuple(codes)).codes)
    if found is None:
        return Fraction(0)
    n = len(codes)
    if measure == "tilde":
        return Fraction(1, 2**n * m ** residue_m_exponent(found, n))
    closers, openers = found
    return Fraction(1, (m + 1) ** n * m ** len(closers if measure == "plus" else openers))


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
    # adds C_k(f) / (unit 4^f) with unit = 2^base m^(base/2); the target is
    # 2^k / unit.  Partial sums stay integers over unit 4^f, and Fractions
    # are built only for the rows.
    rows: list[ExtensionMassRow] = []
    den = 2**base * a.m ** (base // 2)
    reached, whole_mass, types = 0, 1 << k, 1
    for f, count in enumerate(islice(_ballot_ways(k), classes)):
        reached = 4 * reached + count
        if count:
            rows.append(
                ExtensionMassRow(
                    base + 2 * f,
                    count * types,
                    Fraction(count, den),
                    Fraction(reached, den),
                    Fraction(whole_mass - reached, den),
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

    The peak term ``j = ceil(walk/2)`` lies in the range; it comes from
    ``math.lgamma`` and the others from ratio steps outward, each at most 1,
    so nothing overflows at any length.
    """
    peak = (walk + 1) // 2
    total = term = 1.0
    for j in range(peak, (walk + k) // 2):  # C(walk, j+1) / C(walk, j)
        term *= (walk - j) / (j + 1)
        total += term
    term = 1.0
    for j in range(peak, (walk - k) // 2 + 1, -1):  # C(walk, j-1) / C(walk, j)
        term *= j / (walk - j + 1)
        total += term
    log_peak = math.lgamma(walk + 1) - math.lgamma(peak + 1) - math.lgamma(walk - peak + 1)
    return log_peak + math.log(total) - walk * math.log(2)


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

    Locate, in floats: gallop and bisect over ``f`` for the first ``L`` with
    ``log R(L) <= log num - log den``, where ``ratio = num/den``.  Certify,
    exactly: one ``math.comb`` gives the first binomial at that ``L``, ratio
    steps give the other ``k - 1`` and move ``L`` by ±2, until ``den Σ C(L,
    j) <= num 2^L`` holds at ``L`` and fails at ``L - 2`` (or ``L = k``).
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

    f_top = f_cap + _FLOAT_MARGIN
    fail, f = -1, 0
    while not located(f):
        if f == f_top:
            raise BudgetExceeded(budget)
        fail, f = f, min(2 * f + 1, f_top)
    while f - fail > 1:
        mid = (fail + f) // 2
        if located(mid):
            f = mid
        else:
            fail = mid

    f = min(f, f_cap)
    walk = k + 2 * f
    first = math.comb(walk, f + 1)  # j = (walk - k)/2 + 1

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

    def json_dict(self) -> dict[str, str]:
        return {"log2": str(self.log2_coeff), "logm": str(self.logm_coeff)}


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


def _block_and_p_nonneg(n: int) -> tuple[LogPair, Fraction]:
    """Exact block entropy and ``p_nonneg`` at length ``n``, from one pass of pattern counts.

    The block entropy is that of the length-``n`` block distribution, in
    the two-log form.  A length-``n`` pattern is hit with probability
    ``2^-n`` regardless of ``m`` (the type choices integrate out), so the
    ``log(m)`` coefficient is a pure pattern statistic and the ``log(2)``
    coefficient is ``n``.  The pattern statistic is a sum of ``n/2 + 1``
    terms, so any length is exact and cheap.
    """
    if n < 0:
        raise ValueError("block length must be >= 0")
    total_pairs, nonneg = _pattern_stats(n)
    return LogPair(Fraction(n), n - Fraction(total_pairs, 2**n)), Fraction(nonneg, 2**n)


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
        return LogPair(Fraction(1), (1 + self.p_nonneg) / 2)

    def json_dict(self) -> dict:
        return {
            "n": self.n,
            "H_n": self.block.json_dict(),
            "h_n": self.step.json_dict(),
            "p_nonneg": str(self.p_nonneg),
            "h_n_nats": self.step.nats(self.m),
        }


def entropy_report(n: int, m: int = 2) -> EntropyReport:
    """Exact entropy data at the one block length ``n``.

    The one-length route: two pattern passes, at lengths ``n`` and ``n + 1``.
    For several lengths use :func:`entropy_table`, which counts each once.
    """
    here, p_nonneg = _block_and_p_nonneg(n)
    after = _block_and_p_nonneg(n + 1)[0]
    return EntropyReport(n=n, m=m, block=here, step=after - here, p_nonneg=p_nonneg)


def entropy_table(n_max: int, m: int = 2) -> list[EntropyReport]:
    """:func:`entropy_report` for ``n = 0 .. n_max``, one pattern pass per length.

    The only multi-length route.  Row ``n`` needs the block entropy of
    length ``n + 1``, which is row ``n + 1``'s own, so each length's
    pattern statistics are computed once.
    """
    if n_max < 0:
        raise ValueError("block length must be >= 0")
    stats = [_block_and_p_nonneg(n) for n in range(n_max + 2)]
    return [
        EntropyReport(n=n, m=m, block=here, step=after - here, p_nonneg=p_nonneg)
        for n, ((here, p_nonneg), (after, _)) in enumerate(zip(stats, stats[1:]))
    ]
