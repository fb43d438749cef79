"""Windowed points of the bracket subshift and their seeded samplers.

Bi-infinite points are handled through finite coordinate windows ``[lo, hi]``
containing the origin, plus on-demand leftward extension where matching needs
it.  Three seeded samplers emit such windows:

* ``sample_tilde`` — the bit/type coding map: fair coin bits choose
  opener/closer, a shared i.i.d. uniform type sequence (addressed through
  the signed running bit count) types every bracket, closers copying the
  type of the opener they match.  ``tilde_law`` in ``tests/conftest.py``
  enumerates that map over every bit string of a window, and the tests
  check its law against :func:`~dyckshift.measures.cylinder_mass`.
* ``sample_plus`` — i.i.d. uniform letters over the m+1-letter collapsed
  alphabet (typed openers, one anonymous closer), closers re-typed from the
  opener they match.
* ``sample_minus`` — the order-reversing mirror of ``sample_plus``.

Matching may reach left of any finite window.  Samplers extend the hidden
sequence leftward up to ``max_extension`` extra letters; windows that still
have unresolved closers are emitted with their provenance flagged truncated
(estimators exclude them and report the rate).  Unresolved letters keep
their opener/closer kind but an unknown type, rendered ``a?``/``b?``.

The leftward walks take many bits or letters per step.  The tilde walk's
count of unmatched fresh closers is a walk reflected at 0 (a closer steps
+1, an opener -1), and its matches with pending closers fall exactly at
that walk's new minima.  Below 8 unmatched closers it steps by chunks of up
to 8 bits that are already buffered, looking each up in two 512-entry
tables (see :func:`_chunk_tables`) and drawing the types of a chunk's
matches in one block; from 8 on, it applies that many bits at once by
their popcount, since no match can fall among them, and fetches the words
they span in one call.  The plus walk draws as many letters as it has
needs in one block, since each letter cancels at most one need.  Either
way the walk reads the same words and draws in the same order as one bit
or letter at a time: a chunk's draws follow bits already buffered, a run's
words are words that walk reads before its next draw, and a plus block
holds letters that walk draws before it can stop.

Type and letter draws are rejection-sampled from ``getrandbits`` exactly as
CPython's ``randrange`` draws them (see :func:`_below`).  Inside a window
they come in blocks (see :func:`_draws`): a tilde window's opener types and
a plus window's letters are each read from whole-word blocks in one rule,
which returns the same values and leaves the same generator state as one
draw at a time, so every seeded stream and every generator state after a
window is unchanged.  Sampled windows are built without re-validation,
because the samplers emit language words (or flagged truncated windows) by
construction.
"""

from __future__ import annotations

import functools
import operator
import random
from typing import Callable, Iterator, NamedTuple

from .words import DyckError, NotInLanguage, Word, code_text, residue


class Provenance(NamedTuple):
    """Which sampler produced a window, from which seed stream, and whether
    the leftward extension cap was hit before every letter resolved.
    """

    sampler: str
    seed: int
    index: int
    truncated: bool = False


# The package's records are named tuples.  A record with checks declares its
# fields in a private named tuple and checks them in a subclass's ``__new__``
# (a named tuple's own body cannot define ``__new__``).  ``_replace`` and
# ``_make`` build through ``tuple.__new__`` and skip those checks.
class _PointWindowFields(NamedTuple):
    m: int
    lo: int
    hi: int
    codes: tuple[int, ...]
    provenance: Provenance | None


class PointWindow(_PointWindowFields):
    """Letters of one point on the coordinate window ``[lo, hi]`` (0 inside).

    Codes are signed types as in :class:`~dyckshift.words.Word`; additionally
    ``±(m+1)`` marks a letter of known kind but unresolved type, which only
    truncated samples may contain.  A fully resolved window is checked to be
    a language word on construction — and a window word is in the language
    exactly when all its sub-blocks are, since annihilation is absorbing.
    The samplers build their windows through a trusted constructor that
    skips these checks; ``tests/test_coding.py`` re-validates every window
    of the golden-digest grid through this public constructor.
    """

    __slots__ = ()

    def __new__(
        cls, m: int, lo: int, hi: int, codes: tuple[int, ...], provenance: Provenance | None = None
    ) -> "PointWindow":
        if not lo <= 0 <= hi:
            raise ValueError(f"window [{lo}, {hi}] must contain the origin")
        if len(codes) != hi - lo + 1:
            raise ValueError("window length does not match its bounds")
        unknown = False
        for c in codes:
            if 1 <= abs(c) <= m:
                continue
            if abs(c) == m + 1:
                unknown = True
                continue
            raise ValueError(f"letter code {c} out of range for m={m}")
        if unknown and not (provenance is not None and provenance.truncated):
            raise ValueError("only truncated samples may carry unresolved letters")
        if not unknown and residue(codes) is None:
            raise NotInLanguage("window letters annihilate; not a point of the subshift")
        return tuple.__new__(cls, (m, lo, hi, codes, provenance))

    @property
    def truncated(self) -> bool:
        return self.provenance is not None and self.provenance.truncated

    def word(self) -> Word:
        """The whole window as a Word; refuses windows with unresolved letters."""
        if any(abs(c) > self.m for c in self.codes):
            raise DyckError("truncated window has unresolved letters")
        return Word(self.m, self.codes)

    def text(self) -> str:
        return " ".join(
            ("a?" if c > 0 else "b?") if abs(c) == self.m + 1 else code_text(c)
            for c in self.codes
        )


def _sample_rng(seed: int, index: int, rng: random.Random | None = None) -> random.Random:
    """The generator of sample ``index`` of ``seed``: ``rng`` reseeded, or a new one.

    One independent, platform-stable stream per sample: string seeding
    hashes via sha512, so sample i of seed s never depends on how many
    samples ran before it or on which worker drew it.  Reseeding a
    generator in place leaves the same state as building a new one from
    the same string, so each sampler keeps one generator for its stream.
    """
    if rng is None:
        return random.Random(f"{seed}:{index}")
    rng.seed(f"{seed}:{index}")
    return rng


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform draw from ``range(n)``, consuming the stream as ``randrange(n)`` does.

    CPython's ``Random.randrange(n)`` draws ``getrandbits(n.bit_length())``
    and redraws while the value is at least ``n``; calling that rule
    directly skips ``randrange``'s argument handling and leaves the same
    generator state.  Draws inside a window come in blocks from
    :func:`_draws`, which returns the same values and leaves the same state.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


@functools.cache
def _draw_table(n: int, base: int) -> tuple[bytes, bytes]:
    """``bytes.translate`` arguments that read one draw from a word's top byte.

    ``getrandbits(k)`` with ``k <= 8`` is the top ``k`` bits of one 32-bit
    word, so the top byte ``x`` draws ``x >> (8 - k)``: the table maps it to
    that value plus ``base``, and the deleted bytes are the rejected values.
    """
    shift = 8 - n.bit_length()
    table = bytes((x >> shift) + base if x >> shift < n else 0 for x in range(256))
    rejected = bytes(x for x in range(256) if x >> shift >= n)
    return table, rejected


# Below this many draws still needed, one ``_below`` call per draw is
# cheaper than another round of ``_draws``; the two read the same words.
_ROUND_MIN = 8


def _draws(getrandbits: Callable[[int], int], n: int, count: int, base: int = 0) -> list[int]:
    """``count`` draws of :func:`_below` plus ``base``, read in whole-word blocks.

    Each round asks ``getrandbits`` for one 32-bit word per draw still
    needed, in one call whose words come least significant first, in stream
    order.  Every accepted draw takes at least one word, so no word is read
    that ``count`` calls of ``_below`` would not read: the values and the
    generator state afterwards are the same.  The last few draws, and draws
    that a top byte cannot hold (``n > 255``), go through ``_below``;
    ``base`` is 0 or 1, so every value of a round fits a byte.
    """
    drawn: list[int] = []
    if n <= 255 and count > _ROUND_MIN:
        table, rejected = _draw_table(n, base)
        while (need := count - len(drawn)) > _ROUND_MIN:
            drawn += getrandbits(32 * need).to_bytes(4 * need, "little")[3::4].translate(table, rejected)
    for _ in range(count - len(drawn)):
        drawn.append(_below(getrandbits, n) + base)
    return drawn


@functools.cache
def _chunk_tables() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Net step and depth of every chunk of at most 8 leftward-walk bits.

    Entry ``1 << k | bits`` describes ``k`` bits read least significant
    first, where a closer (0) steps +1 and an opener (1) steps -1: ``net``
    is the sum of the steps and ``depth`` is minus the least prefix sum,
    the empty prefix included.  From ``anon`` unmatched closers the walk
    reflected at 0 makes ``max(0, depth - anon)`` matches over the chunk,
    one at each new minimum, and ends at ``net + max(anon, depth)``.
    """
    net = [0] * 512
    depth = [0] * 512
    for k in range(9):
        for bits in range(1 << k):
            h = low = 0
            for i in range(k):
                h += -1 if bits >> i & 1 else 1
                low = min(low, h)
            net[1 << k | bits] = h
            depth[1 << k | bits] = -low
    return tuple(net), tuple(depth)


def _trusted_window(
    m: int, lo: int, hi: int, codes: tuple[int, ...], provenance: Provenance
) -> PointWindow:
    """A sampler's window, built without ``PointWindow``'s validation.

    The samplers match every resolved closer to an opener of its type, so
    their windows are language words (or flagged truncated) by construction.
    """
    return tuple.__new__(PointWindow, (m, lo, hi, codes, provenance))


def _check_window(m: int, lo: int, hi: int, max_extension: int) -> None:
    if m < 1:
        raise ValueError(f"alphabet size m={m} must be at least 1")
    if not lo <= 0 <= hi:
        raise ValueError(f"sampling window [{lo}, {hi}] must contain the origin")
    if max_extension < 0:
        raise ValueError(f"max_extension={max_extension} must be at least 0")


def _tilde_window(
    m: int, lo: int, hi: int, rng: random.Random, max_extension: int, seed: int, index: int
) -> PointWindow:
    width = hi - lo + 1
    getrandbits = rng.getrandbits
    # Fair bits are read LSB-first from 32-bit words; one getrandbits call
    # for whole words draws the same words in the same order.
    words = (width + 31) // 32
    pool = getrandbits(32 * words)
    # LSB first, "1" = opener; the sentinel bit above the pool keeps its leading zeros
    bits = bin(pool | 1 << 32 * words)[: -width - 1 : -1]
    buf, left = pool >> width, 32 * words - width

    # Every opener owns a fresh slot of the shared type sequence (the signed
    # running bit count never repeats), so its type is drawn when it appears
    # and its closer copies it.  No other draw falls between the openers'
    # type draws, so they come in one block, in order of appearance.
    types = iter(_draws(getrandbits, m, bits.count("1"), 1))
    codes = [0] * width
    stack: list[int] = []  # types of openers still open, innermost last
    pending: list[int] = []  # offsets of closers whose opener is left of the window
    for off, b in enumerate(bits):
        if b == "1":
            t = next(types)
            codes[off] = t
            stack.append(t)
        elif stack:
            codes[off] = -stack.pop()
        else:
            pending.append(off)

    truncated = False
    if pending:
        # Walk leftward.  A fresh opener matches the closest unmatched closer
        # to its right and every fresh closer becomes the new closest need,
        # so the needs are ``anon`` anonymous out-of-window closers on top of
        # the pending closers ``pending[j:]``.  ``anon`` is the walk that
        # steps +1 per closer and -1 per opener, reflected at 0, and an
        # opener matches a pending closer exactly when that walk would go
        # below 0: at each of its new minima (see :func:`_chunk_tables`).
        net, depth = _chunk_tables()
        j = anon = 0
        need = len(pending)
        room = max_extension
        while j < need and room:
            if anon < 8:
                # A chunk of at most 8 buffered bits: one table lookup.  Its
                # matches' types are drawn together, capped at the pending
                # closers still open; the chunk's bits are already buffered,
                # so no word is read among these draws.
                if not left:
                    buf, left = getrandbits(32), 32
                k = 8 if left > 8 else left
                if k > room:
                    k = room
                chunk = buf & ((1 << k) - 1) | 1 << k
                low = depth[chunk]
                if low > anon:
                    for t in _draws(getrandbits, m, min(low - anon, need - j), 1):
                        codes[pending[j]] = -t
                        j += 1
                    anon = low
                anon += net[chunk]
            else:
                # No match can fall among the next ``anon`` bits, so they are
                # applied at once by their popcount.  The walk reads every
                # word they span, and the missing ones come in one call.
                k = anon if anon < room else room
                if k > left:
                    more = (k - left + 31) // 32
                    buf |= getrandbits(32 * more) << left
                    left += 32 * more
                anon += k - 2 * (buf & ((1 << k) - 1)).bit_count()
            buf >>= k
            left -= k
            room -= k
        if j < need:
            truncated = True
            unknown = -(m + 1)
            for off in pending[j:]:
                codes[off] = unknown
    return _trusted_window(m, lo, hi, tuple(codes), Provenance("tilde", seed, index, truncated))


def _plus_codes(
    m: int, width: int, getrandbits: Callable[[int], int], max_extension: int
) -> tuple[list[int], bool]:
    """The codes of a plus window of ``width`` letters, and whether it is truncated."""
    letters = _draws(getrandbits, m + 1, width)  # 0 = anonymous closer
    codes = [0] * width
    stack: list[int] = []
    pending: list[int] = []
    for off, v in enumerate(letters):
        if v:
            codes[off] = v
            stack.append(v)
        elif stack:
            codes[off] = -stack.pop()
        else:
            pending.append(off)
    if not pending:
        return codes, False
    # Walk leftward: ``anon`` fresh out-of-window closers sit on top of the
    # pending closers ``needs``, the earliest last.  Each letter cancels at
    # most one need, so the walk draws at least as many more letters as
    # there are needs, and they come in one block of that size.
    needs = pending[::-1]
    anon = 0
    room = max_extension
    while room and (block := anon + len(needs)):
        if block > room:
            block = room
        room -= block
        for v in _draws(getrandbits, m + 1, block):
            if not v:
                anon += 1
            elif anon:
                anon -= 1
            else:
                codes[needs.pop()] = -v
    if not needs:
        return codes, False
    unknown = -(m + 1)
    for off in needs:
        codes[off] = unknown
    return codes, True


def _plus_window(
    m: int, lo: int, hi: int, rng: random.Random, max_extension: int, seed: int, index: int
) -> PointWindow:
    codes, truncated = _plus_codes(m, hi - lo + 1, rng.getrandbits, max_extension)
    return _trusted_window(m, lo, hi, tuple(codes), Provenance("plus", seed, index, truncated))


def sample_tilde(
    m: int, lo: int, hi: int, *, seed: int, count: int, max_extension: int = 10_000
) -> Iterator[PointWindow]:
    """Seeded stream of windows distributed as the coding measure.

    Fair bits pick kinds; types come from one shared i.i.d. uniform sequence
    addressed by the signed running bit count, so matched pairs agree by
    construction.  Closer lookback has a heavy tail — samples whose matching
    is still open after ``max_extension`` leftward letters come out flagged.
    The leftward walk matches a pending closer at each new minimum of its
    reflected walk: it steps by table lookups of 8-bit chunks below 8
    unmatched closers and by popcount runs of that many bits, across words,
    above; it reads the same words and makes the same draws in the same
    order as a bit-at-a-time walk, so every seeded stream is unchanged.
    Raises ``ValueError`` for ``m < 1``, a window without the origin or a
    negative ``max_extension``.
    """
    _check_window(m, lo, hi, max_extension)
    rng = random.Random()
    for index in range(count):
        yield _tilde_window(m, lo, hi, _sample_rng(seed, index, rng), max_extension, seed, index)


def sample_plus(
    m: int, lo: int, hi: int, *, seed: int, count: int, max_extension: int = 10_000
) -> Iterator[PointWindow]:
    """Seeded stream of windows from the typed-opener product construction.

    Letters are i.i.d. uniform over the m+1 collapsed letters, so openers
    outnumber closers and the leftward matching walk has positive drift —
    truncation is essentially a non-event at the default cap.  Each letter
    of that walk cancels at most one need, so it draws its letters in
    blocks of as many as it has needs: letters a one-at-a-time walk would
    draw too, which leaves every seeded stream unchanged.  Arguments are
    checked as in :func:`sample_tilde`.
    """
    _check_window(m, lo, hi, max_extension)
    rng = random.Random()
    for index in range(count):
        yield _plus_window(m, lo, hi, _sample_rng(seed, index, rng), max_extension, seed, index)


def sample_minus(
    m: int, lo: int, hi: int, *, seed: int, count: int, max_extension: int = 10_000
) -> Iterator[PointWindow]:
    """Mirror twin of :func:`sample_plus`: typed closers, anonymous openers.

    Implemented by sampling the plus construction on the mirrored window and
    reflecting each result, which swaps kinds and reverses coordinates; a
    letterwise swap alone would not stay inside the language.
    """
    _check_window(m, lo, hi, max_extension)
    rng = random.Random()
    for index in range(count):
        getrandbits = _sample_rng(seed, index, rng).getrandbits
        codes, truncated = _plus_codes(m, hi - lo + 1, getrandbits, max_extension)
        mirrored = tuple(map(operator.neg, reversed(codes)))
        yield _trusted_window(m, lo, hi, mirrored, Provenance("minus", seed, index, truncated))


SAMPLERS: dict[str, Callable[..., Iterator[PointWindow]]] = {
    "tilde": sample_tilde,
    "plus": sample_plus,
    "minus": sample_minus,
}
