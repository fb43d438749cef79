"""Bracket words over ``m`` matched pair types and their monoid reduction.

The alphabet has ``m`` opener letters ``a1 .. am`` and ``m`` closer letters
``b1 .. bm``.  Two rewrite rules generate everything in this module: an
adjacent pair ``ai bi`` of equal type cancels, and an adjacent pair ``ai bj``
of unequal types annihilates the whole word (the absorbing zero).  A word is
*in the language* when it does not annihilate; it is *balanced* when it
cancels away completely.

Words are immutable; letters are stored as signed integer codes (``+i`` for
``a<i>``, ``-i`` for ``b<i>``), which keeps the hot loops — reduction,
enumeration, matching — on plain ints.

Reduction is one left-to-right stack scan.  :func:`residue` runs it over a
whole word from scratch; :func:`advance` is the same scan's one-letter step,
taken for a batch of words at once, so callers that extend many words by a
shared letter (a trie walk, the one-letter extensions of a cylinder) scan
each prefix once.  The rewrite system is confluent, so the scan order cannot
change the outcome (the tests check this against an order-free rewriting
oracle).  A word's residue — loose closers then loose openers, or ``None``
for zero — is its normal form, and :func:`residue_text` renders it.

The language of one length is walked once, head by head, by a letter rule
of its own (:func:`_steps`): a word's last few letters depend only on the
innermost open types of its head, so their endings are listed once per such
top.  :func:`iter_language_stats` walks the heads (:func:`_heads`) and
yields every word with its statistics; :func:`loose_counts` steps the same
rule over head counts by state and only tallies them, building no word.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from typing import Iterator, Sequence


class DyckError(Exception):
    """Base class for every error this package raises on purpose."""


class ParseError(DyckError, ValueError):
    """Malformed word text.  ``position`` is the character offset, if known."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at character {position})"
        super().__init__(message)
        self.position = position


class NotInLanguage(DyckError):
    """The word reduces to zero, so the requested operation is undefined."""


class BudgetExceeded(DyckError):
    """A search passed its hard length cap without finding what it looks for.

    Raised by :func:`~dyckshift.measures.mass_length_for_residual` when no
    completion length up to about ``2^20`` letters brings the residual mass
    below the requested ratio.
    """


_TOKEN_RE = re.compile(r"([ab])([1-9][0-9]*)\Z")


def parse_codes(text: str, m: int) -> tuple[int, ...]:
    """Parse word text (``"a1 b2"`` style) into a tuple of signed codes."""
    codes: list[int] = []
    for match in re.finditer(r"\S+", text):
        token = match.group(0)
        parsed = _TOKEN_RE.match(token)
        if parsed is None:
            raise ParseError(f"bad token {token!r}", match.start())
        index = int(parsed.group(2))
        if index > m:
            raise ParseError(f"type index {index} exceeds m={m}", match.start())
        codes.append(index if parsed.group(1) == "a" else -index)
    return tuple(codes)


class Word:
    """An immutable finite word over the 2m-letter bracket alphabet.

    A slotted class rather than a tuple, so that iterating a word walks its
    letters.  Words compare and hash by ``(m, codes)``.
    """

    __slots__ = ("m", "codes")
    m: int
    codes: tuple[int, ...]

    def __init__(self, m: int, codes: Sequence[int]) -> None:
        codes = tuple(codes)  # checked and stored as one immutable value; a tuple passes through
        _check_letters(m, codes)
        _set_word_m(self, m)
        _set_word_codes(self, codes)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.m == other.m and self.codes == other.codes

    def __hash__(self) -> int:
        return hash((self.m, self.codes))

    def __repr__(self) -> str:
        return f"Word(m={self.m!r}, codes={self.codes!r})"

    def __reduce__(self) -> tuple:
        return Word, (self.m, self.codes)

    @classmethod
    def parse(cls, text: str, m: int) -> "Word":
        return cls(m, parse_codes(text, m))

    def text(self) -> str:
        return " ".join(code_text(c) for c in self.codes)

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Word(self.m, self.codes[item])
        return self.codes[item]

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text() or "(empty)"


def _check_letters(m: int, codes: Sequence[int]) -> None:
    """Refuse ``m < 1`` and any letter code outside ``±1 .. ±m``, naming the first bad one."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    for c in codes:
        if c == 0 or abs(c) > m:
            raise ValueError(f"letter code {c} out of range for m={m}")


# The slots' own setters: ``Word.__init__`` fills the slots through them,
# past the ``__setattr__`` that refuses every assignment.
_set_word_m = Word.m.__set__
_set_word_codes = Word.codes.__set__


def code_text(code: int) -> str:
    return f"a{code}" if code > 0 else f"b{-code}"


def lex_key(w: Word) -> tuple[tuple[int, int], ...]:
    """Sort key realizing the declared letter order a1 < .. < am < b1 < .. < bm."""
    return tuple((0, c) if c > 0 else (1, -c) for c in w.codes)


_Residue = tuple[tuple[int, ...], tuple[int, ...]]


def residue(codes: Sequence[int]) -> _Residue | None:
    """Stack reduction of raw signed codes: ``(closer types, opener types)``.

    The one stack-matching core of the package.  Returns ``None`` when the
    word annihilates, otherwise the type indices of the residue's loose
    closers and loose openers, each in order of appearance.
    """
    closers: list[int] = []
    stack: list[int] = []
    for c in codes:
        if c > 0:
            stack.append(c)
        elif stack:
            if stack.pop() != -c:
                return None
        else:
            closers.append(-c)
    return tuple(closers), tuple(stack)


def advance(states: Sequence[_Residue | None], code: int) -> list[_Residue | None]:
    """One letter of :func:`residue`'s scan, taken for a batch of words.

    ``states`` holds ``residue`` values; the result holds the residues of
    the same words followed by the letter ``code``, so that
    ``advance([residue(u)], c) == [residue(u + (c,))]``.  ``None`` stays
    ``None``: zero is absorbing.
    """
    if code > 0:
        pushed = (code,)
        return [None if s is None else (s[0], s[1] + pushed) for s in states]
    t = -code
    loose = (t,)
    # A closer is loose when nothing is open, cancels an innermost opener of
    # its own type and annihilates one of another type.
    return [
        None if s is None
        else (s[0] + loose, ()) if not s[1]
        else (s[0], s[1][:-1]) if s[1][-1] == t
        else None
        for s in states
    ]


def is_in_language(w: Word) -> bool:
    return residue(w.codes) is not None


def is_balanced(w: Word) -> bool:
    return residue(w.codes) == ((), ())


def residue_text(found: _Residue | None) -> str:
    """The text of a :func:`residue`: ``0`` for zero, ``Λ`` for the identity, else ``b.. a..``."""
    if found is None:
        return "0"
    closers, openers = found
    return " ".join([f"b{i}" for i in closers] + [f"a{i}" for i in openers]) or "Λ"


def iter_language_stats(n: int, m: int) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Depth-first walk of the length-``n`` language in lexicographic order.

    Yields ``(codes, pairs, loose)`` where ``pairs`` counts matched opener
    positions and ``loose`` counts unmatched letters.  Dead prefixes are
    pruned exactly: a prefix only dies by annihilation, which the open-type
    stack detects locally, and zero is absorbing.  A word's last
    ``_TAIL`` letters depend only on the top ``_TAIL`` or fewer open types
    of its prefix, so each walk lists those endings once per such top and
    appends them to every head of :func:`_heads` with that top.
    """
    if n < 0:
        raise ValueError("word length must be >= 0")
    _check_letters(m, ())
    return _walk_language(n, m)


def loose_counts(n: int, m: int) -> dict[int, int]:
    """How many length-``n`` language words have each number of loose letters.

    The tally of :func:`iter_language_stats`' ``loose`` statistic, by the
    same letter rule and table of endings, without building a word: head
    counts by state, ``(open types, matched pairs)``, step each distinct
    state by :func:`_steps` once per letter, and each state's top open
    types fix its endings, counted by the pairs they close.  Keys run
    upwards; absent keys count no word.
    """
    if n < 0:
        raise ValueError("word length must be >= 0")
    _check_letters(m, ())
    tail = min(n, _TAIL)
    states: Counter[tuple[tuple[int, ...], int]] = Counter({((), 0): 1})
    for _ in range(n - tail):
        stepped: Counter[tuple[tuple[int, ...], int]] = Counter()
        for (opens, pairs), heads in states.items():
            for _, after, closed in _steps(opens, m):
                stepped[after, pairs + closed] += heads
        states = stepped
    closes: dict[tuple[int, ...], Counter[int]] = {}
    tally: Counter[int] = Counter()
    for (opens, pairs), heads in states.items():
        top = opens[-tail:]
        if top not in closes:
            closes[top] = Counter(more for _, more in _endings(top, tail, m))
        for more, ends in closes[top].items():
            tally[n - 2 * (pairs + more)] += heads * ends
    return dict(sorted(tally.items()))


# Letters that the language walk takes from its table of endings.
_TAIL = 3


def _steps(opens: tuple[int, ...], m: int) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """The walk's one-letter rule: ``(letter, open types after it, pairs it closes)``, in letter order.

    Every opener pushes its type.  Only the closer of the innermost open
    type survives, and pops it (every other closer annihilates); when
    nothing is open, every closer is loose.
    """
    for i in range(1, m + 1):
        yield i, opens + (i,), 0
    if opens:
        yield -opens[-1], opens[:-1], 1
    else:
        for j in range(1, m + 1):
            yield -j, opens, 0


def _endings(opens: tuple[int, ...], k: int, m: int) -> list[tuple[tuple[int, ...], int]]:
    """Every ``k``-letter ending after open types ``opens``, with the pairs it closes, in letter order."""
    if k == 0:
        return [((), 0)]
    return [
        ((c, *end), closed + more)
        for c, after, closed in _steps(opens, m)
        for end, more in _endings(after, k - 1, m)
    ]


def _heads(n: int, m: int) -> Iterator[tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """The one head walk of the language: depth-first by :func:`_steps` to ``n - _TAIL`` letters.

    Yields each head's ``(codes, matched pairs, top open types)`` in letter
    order.  The top is the innermost ``_TAIL`` open types (all of them when
    fewer are open): an ending of ``_TAIL`` letters pops no deeper, so the
    top alone fixes which endings follow and what they close.
    """
    tail = min(n, _TAIL)
    head = n - tail
    # Prefixes still to extend, as (codes, open opener types innermost last,
    # matched pairs), the lexicographically next one on top.
    pending: list[tuple[tuple[int, ...], tuple[int, ...], int]] = [((), (), 0)]
    pop, extend = pending.pop, pending.extend
    while pending:
        codes, opens, pairs = pop()
        if len(codes) < head:
            extend(reversed([(codes + (c,), after, pairs + closed) for c, after, closed in _steps(opens, m)]))
        else:
            yield codes, pairs, opens[-tail:]


def _walk_language(n: int, m: int) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Each head of :func:`_heads` followed by every ending of its top, from a table built as tops turn up."""
    tail = min(n, _TAIL)
    endings: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    for codes, pairs, top in _heads(n, m):
        ends = endings.get(top)
        if ends is None:
            ends = endings[top] = _endings(top, tail, m)
        loose = n - 2 * pairs
        for end, more in ends:
            yield codes + end, pairs + more, loose - 2 * more


def pattern_counts(n: int) -> Iterator[int]:
    """Opener/closer patterns of length ``n`` by matched pairs, per loose split.

    Yields ``S(n, p) = C(n, p) - C(n, p - 1)`` for ``p = 0 .. n // 2``: the
    number of patterns with ``p`` matched pairs whose ``n - 2p`` loose
    letters split one fixed way into leading loose closers and trailing
    loose openers.  Every one of the ``n - 2p + 1`` splits has this same
    count, so the entries with their split counts tally all ``2^n``
    patterns.  The binomials come from their ratio recurrence, stepped
    lazily, so ``measures._pattern_stats`` folds the entries as they come
    and holds no list; :func:`count_language` steps the binomials itself.
    """
    if n < 0:
        raise ValueError("word length must be >= 0")
    return _step_pattern_counts(n)


def _step_pattern_counts(n: int) -> Iterator[int]:
    below, comb = 0, 1  # C(n, p - 1), C(n, p)
    for p in range(n // 2 + 1):
        yield comb - below
        below, comb = comb, comb * (n - p) // (p + 1)


def count_language(n: int, m: int) -> int:
    """|L(n)| by parts, in one Horner loop over the binomials ``C(n, p)``.

    A pattern with ``p`` matched pairs carries ``m^(n - p)`` words, and its ``n - 2p + 1``
    loose splits share each count ``S(n, p) = C(n, p) - C(n, p - 1)`` of
    :func:`pattern_counts`.  With ``P = n // 2``, summing ``Σ_p (n - 2p + 1) S(n, p)
    m^(P - p)`` by parts gives ``Σ_{p<P} C(n, p) ((n - 2p + 1) m - (n - 2p - 1)) m^(P - 1 - p)
    + (n - 2P + 1) C(n, P)``, whose coefficient falls by ``2(m - 1)`` a step, and
    ``|L(n)|`` is ``m^(n - P)`` times it.
    """
    _check_letters(m, ())
    if n < 0:
        raise ValueError("word length must be >= 0")
    folded, comb = 0, 1  # C(n, p)
    for p, coefficient in zip(range(n // 2), itertools.count(n * (m - 1) + m + 1, 2 - 2 * m)):
        folded = folded * m + comb * coefficient
        comb = comb * (n - p) // (p + 1)
    return (folded + (n % 2 + 1) * comb) * m ** (n - n // 2)


def _binomial(n: int, k: int) -> int:
    """``C(n, k)`` for ``0 <= k <= n``, as a product of prime powers.

    Each prime ``p <= n``, from a ``bytearray`` sieve, enters with Legendre's
    exponent ``Σ_i (⌊n/p^i⌋ - ⌊k/p^i⌋ - ⌊(n-k)/p^i⌋)``.  The powers are
    multiplied pairwise, level by level, so that the big products meet
    operands of like size; ``math.prod`` would multiply left to right.
    Past ``n`` near 3,000 this beats the standard library's binomial,
    which the tests keep as its oracle.
    """
    sieve = bytearray(2) + bytearray([1]) * (n - 1)
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    factors = []
    for p in itertools.compress(range(n + 1), sieve):
        exponent, power = 0, p
        while power <= n:
            exponent += n // power - k // power - (n - k) // power
            power *= p
        if exponent:
            factors.append(p**exponent)
    while len(factors) > 1:
        pairs = iter(factors)
        factors = [x * y for x, y in zip(pairs, pairs)] + factors[len(factors) & ~1 :]
    return factors[0] if factors else 1


def count_balanced(pair_count: int, m: int) -> int:
    """Number of balanced words with ``pair_count`` matched pairs.

    Catalan(pair_count) nesting shapes, one free type per pair.
    """
    if pair_count < 0:
        raise ValueError("pair count must be >= 0")
    _check_letters(m, ())
    catalan = _binomial(2 * pair_count, pair_count) // (pair_count + 1)
    return catalan * m**pair_count


def enumerate_balanced(pair_count: int, m: int) -> Iterator[Word]:
    """All balanced words of length ``2 * pair_count``, lexicographic."""
    if pair_count < 0:
        raise ValueError("pair count must be >= 0")
    _check_letters(m, ())
    return _walk_balanced(2 * pair_count, m)


def _walk_balanced(n: int, m: int) -> Iterator[Word]:
    """Depth-first over one shared word, by an explicit stack rather than a generator per letter.

    Its own rule: an opener while the letters left can still close it and
    all that is open, and the closer of the innermost open type.
    """
    word: list[int] = []
    opens: list[int] = []
    # (word length before the letter, letter), the lexicographically next on top.
    pending: list[tuple[int, int]] = []
    while True:
        depth = len(word)
        if depth == n:
            yield Word(m, tuple(word))
        else:
            if opens:
                pending.append((depth, -opens[-1]))
            if n - depth >= len(opens) + 2:
                pending.extend((depth, i) for i in range(m, 0, -1))
        if not pending:
            return
        depth, code = pending.pop()
        while len(word) > depth:
            dropped = word.pop()
            if dropped > 0:
                opens.pop()
            else:
                opens.append(-dropped)
        word.append(code)
        if code > 0:
            opens.append(code)
        else:
            opens.pop()


def completion_needs(a: Word, max_len: int | None = None) -> _Residue:
    """``a``'s :func:`residue`: the letters that its completions must match.

    The one refusal of a completion query.  A ``max_len`` shorter than
    ``a`` raises ``ValueError`` first; a word that reduces to zero raises
    NotInLanguage.
    """
    if max_len is not None and max_len < len(a):
        raise ValueError(f"max_len={max_len} is shorter than the word ({len(a)})")
    found = residue(a.codes)
    if found is None:
        raise NotInLanguage(f"{a.text()!r} reduces to zero")
    return found


def minimal_balanced_extensions(
    a: Word, max_len: int
) -> Iterator[tuple[Word, Word]]:
    """All minimal two-sided completions of ``a`` to a balanced word.

    A completion is a pair ``(l, r)`` with ``l·a·r`` balanced such that no
    proper suffix of ``l`` together with a prefix of ``r`` already balances
    ``a``.  Structurally: ``l`` supplies one opener per unmatched closer of
    ``a`` (in reverse order of appearance, so they nest), ``r`` supplies one
    closer per unmatched opener likewise, and arbitrary balanced filler may
    sit after each supplied opener and before each supplied closer.  The
    needs are the two halves of :func:`completion_needs`, which refuses
    the query.

    Yields groups of increasing total length ``|l·a·r| <= max_len``; within a
    length group the order is lexicographic in ``(l, r)``.
    """
    left_needs, right_needs = completion_needs(a, max_len)
    slots = len(left_needs) + len(right_needs)
    base = len(a) + slots

    def assemble(fillers: tuple[Word, ...]) -> tuple[Word, Word]:
        left: list[int] = []
        for pos, t in enumerate(reversed(left_needs)):
            left.append(t)
            left.extend(fillers[pos].codes)
        right: list[int] = []
        for pos, t in enumerate(reversed(right_needs)):
            right.extend(fillers[len(left_needs) + pos].codes)
            right.append(-t)
        return Word(a.m, tuple(left)), Word(a.m, tuple(right))

    for total in range(base, max_len + 1, 2):
        budget = (total - base) // 2
        if slots == 0:
            if budget == 0:
                yield Word(a.m, ()), Word(a.m, ())
            continue
        group: list[tuple[Word, Word]] = []
        # stars and bars: each split of the budget over the slots is the gaps
        # between slots - 1 bars among budget + slots - 1 places
        places = budget + slots - 1
        for bars in itertools.combinations(range(places), slots - 1):
            split = [j - i - 1 for i, j in zip((-1, *bars), (*bars, places))]
            parts = [list(enumerate_balanced(q, a.m)) for q in split]
            for fillers in itertools.product(*parts):
                group.append(assemble(fillers))
        group.sort(key=lambda pair: (lex_key(pair[0]), lex_key(pair[1])))
        yield from group

