"""Windowed points of the bracket subshift and their seeded samplers.

Bi-infinite points are handled through finite coordinate windows ``[lo, hi]``
containing the origin, as ``(m, lo, hi, codes)``.  Three seeded samplers emit them:

* ``sample_tilde`` — the bit/type coding map: fair coin bits choose
  opener/closer, a shared i.i.d. uniform type sequence (addressed through
  the signed running bit count) types every bracket, closers copying the
  type of the opener they match.
* ``sample_plus`` — i.i.d. uniform letters over the m+1-letter collapsed
  alphabet (typed openers, one anonymous closer), closers re-typed from the
  opener they match.
* ``sample_minus`` — the order-reversing mirror of ``sample_plus``.

A window is drawn exactly, from draws inside it alone.  The lemma: under
tilde and plus, a closer left unmatched inside the window (a loose closer)
matches, almost surely, an opener left of the window, and distinct loose
closers match distinct openers.  Such an opener sits at a fresh type slot:
under tilde a slot of the shared sequence that no letter of the window
reads, under plus an i.i.d. letter outside the window.  So the loose
closers' types are i.i.d. uniform and independent of the window, and each
is one fresh uniform draw; minus follows by the mirror.  Each window body is
a pure function of its draws (:func:`_tilde_codes`, :func:`_plus_codes`),
and the exact check ``sampler-law-exact`` enumerates every draw through
them against :func:`~dyckshift.measures.cylinder_mass`.

Type and letter draws are rejection-sampled from ``getrandbits`` exactly as
CPython's ``randrange`` draws them (see :func:`_below`).  Inside a window
they come in blocks (see :func:`_draws`): a tilde window's opener types and
a plus window's letters are each read from whole-word blocks in one rule,
which returns the same values and leaves the same generator state as one
draw at a time.  The loose closers' types follow, one draw each.  Sampled
windows are built without re-validation, because the samplers emit
language words by construction.
"""

from __future__ import annotations

import functools
import operator
import random
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .words import NotInLanguage, Word, code_text, residue


# The package's records are named tuples.  A record with checks declares its
# fields in a private named tuple and checks them in a subclass's ``__new__``
# (a named tuple's own body cannot define ``__new__``).  ``_replace`` and
# ``_make`` build through ``tuple.__new__`` and skip those checks.
class _PointWindowFields(NamedTuple):
    m: int
    lo: int
    hi: int
    codes: tuple[int, ...]


class PointWindow(_PointWindowFields):
    """Letters of one point on the coordinate window ``[lo, hi]`` (0 inside).

    Codes are signed types as in :class:`~dyckshift.words.Word`.  A window
    is checked to be a language word on construction — and a window word is
    in the language exactly when all its sub-blocks are, since annihilation
    is absorbing.  The samplers build their windows through a trusted
    constructor that skips these checks; ``tests/test_coding.py``
    re-validates every window of the golden-digest grid through this public
    constructor.
    """

    __slots__ = ()

    def __new__(cls, m: int, lo: int, hi: int, codes: tuple[int, ...]) -> "PointWindow":
        if not lo <= 0 <= hi:
            raise ValueError(f"window [{lo}, {hi}] must contain the origin")
        if len(codes) != hi - lo + 1:
            raise ValueError("window length does not match its bounds")
        for c in codes:
            if not 1 <= abs(c) <= m:
                raise ValueError(f"letter code {c} out of range for m={m}")
        if residue(codes) is None:
            raise NotInLanguage("window letters annihilate; not a point of the subshift")
        return tuple.__new__(cls, (m, lo, hi, codes))

    def word(self) -> Word:
        """The whole window as a Word."""
        return Word(self.m, self.codes)

    def text(self) -> str:
        return " ".join(map(code_text, self.codes))


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
    that a top byte cannot hold (``n > 255``), go through ``_below``'s rule;
    ``base`` is 0 or 1, so every value of a round fits a byte.
    """
    drawn: list[int] = []
    if n <= 255 and count > _ROUND_MIN:
        table, rejected = _draw_table(n, base)
        while (need := count - len(drawn)) > _ROUND_MIN:
            drawn += getrandbits(32 * need).to_bytes(4 * need, "little")[3::4].translate(table, rejected)
    # ``_below``'s rule inlined, so a window's few draws pay no call set-up
    k = n.bit_length()
    for _ in range(count - len(drawn)):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        drawn.append(r + base)
    return drawn


def _trusted_window(m: int, lo: int, hi: int, codes: tuple[int, ...]) -> PointWindow:
    """A sampler's window, built without ``PointWindow``'s validation.

    The samplers match every closer to an opener of its type, inside the
    window or fresh left of it, so their windows are language words by
    construction.
    """
    return tuple.__new__(PointWindow, (m, lo, hi, codes))


def _loose_types(getrandbits: Callable[[int], int], m: int) -> Iterator[int]:
    """Fresh uniform types for loose closers, one :func:`_below` draw each as it is read.

    A body reads them after its block of opener types or letters: the draws
    of one ``_draws(getrandbits, m, loose, 1)`` after it, and none if it has
    no loose closer.
    """
    while True:
        yield _below(getrandbits, m) + 1


def _tilde_codes(bits: str, types: Iterator[int], loose: Iterator[int]) -> list[int]:
    """The codes of a tilde window, a pure function of its draws.

    ``bits`` are the window's fair bits, "1" an opener; ``types`` gives the
    openers' types in order of appearance, and ``loose`` the types of the
    closers whose opener lies left of the window, leftmost first.  A closer
    matched inside the window copies its opener's type.
    """
    codes: list[int] = []
    append = codes.append
    stack: list[int] = []  # types of openers still open, innermost last
    for b in bits:
        if b == "1":
            t = next(types)
            append(t)
            stack.append(t)
        elif stack:
            append(-stack.pop())
        else:
            append(-next(loose))
    return codes


def _plus_codes(letters: Iterable[int], loose: Iterator[int]) -> list[int]:
    """The codes of a plus window, a pure function of its draws.

    ``letters`` are the window's collapsed letters, 0 the anonymous closer
    and ``t`` the opener of type ``t``; ``loose`` is read as in
    :func:`_tilde_codes`.
    """
    codes: list[int] = []
    append = codes.append
    stack: list[int] = []
    for v in letters:
        if v:
            append(v)
            stack.append(v)
        elif stack:
            append(-stack.pop())
        else:
            append(-next(loose))
    return codes


def _mirror(codes: Sequence[int]) -> tuple[int, ...]:
    """The order-reversing mirror: coordinates reversed and kinds swapped."""
    return tuple(map(operator.neg, reversed(codes)))


def _tilde_window_codes(m: int, width: int, getrandbits: Callable[[int], int]) -> list[int]:
    # Fair bits, "1" = opener, are read LSB-first from whole 32-bit words in
    # one call; the sentinel bit above the pool keeps its leading zeros.
    words = (width + 31) // 32
    bits = bin(getrandbits(32 * words) | 1 << 32 * words)[: -width - 1 : -1]
    # Each opener owns a fresh slot of the shared type sequence (the signed
    # running bit count never repeats), so the openers' types are i.i.d. and
    # come in one block, in order of appearance; their closers copy them.
    types = iter(_draws(getrandbits, m, bits.count("1"), 1))
    return _tilde_codes(bits, types, _loose_types(getrandbits, m))


def _plus_window_codes(m: int, width: int, getrandbits: Callable[[int], int]) -> list[int]:
    letters = _draws(getrandbits, m + 1, width)  # 0 = anonymous closer
    return _plus_codes(letters, _loose_types(getrandbits, m))


def _windows(sampler: str, m: int, lo: int, hi: int, seed: int, count: int) -> Iterator[PointWindow]:
    """The one sampler core: each window's own stream, its body, and minus's mirror.

    Window ``index`` of ``seed`` reads ``random.Random(f"{seed}:{index}")``'s
    stream: platform-stable (string seeds hash via sha512), independent of
    earlier windows, and the same when one generator is reseeded in place.
    """
    if m < 1:
        raise ValueError(f"alphabet size m={m} must be at least 1")
    if not lo <= 0 <= hi:
        raise ValueError(f"sampling window [{lo}, {hi}] must contain the origin")
    if count < 0:
        raise ValueError(f"sample count {count} must be non-negative")
    body = _tilde_window_codes if sampler == "tilde" else _plus_window_codes
    finish = _mirror if sampler == "minus" else tuple
    rng = random.Random()
    for index in range(count):
        rng.seed(f"{seed}:{index}")
        yield _trusted_window(m, lo, hi, finish(body(m, hi - lo + 1, rng.getrandbits)))


def sample_tilde(m: int, lo: int, hi: int, *, seed: int, count: int) -> Iterator[PointWindow]:
    """Seeded stream of windows distributed as the coding measure.

    Fair bits pick kinds; types come from one shared i.i.d. uniform sequence
    addressed by the signed running bit count, so matched pairs agree by
    construction, and each loose closer takes a fresh uniform type.
    Raises ``ValueError`` for ``m < 1``, a window without the origin or a
    negative count.
    """
    return _windows("tilde", m, lo, hi, seed, count)


def sample_plus(m: int, lo: int, hi: int, *, seed: int, count: int) -> Iterator[PointWindow]:
    """Seeded stream of windows from the typed-opener product construction.

    Letters are i.i.d. uniform over the m+1 collapsed letters; a closer
    matched inside the window is re-typed from its opener, and each loose
    closer takes a fresh uniform type.  Arguments are checked as in
    :func:`sample_tilde`.
    """
    return _windows("plus", m, lo, hi, seed, count)


def sample_minus(m: int, lo: int, hi: int, *, seed: int, count: int) -> Iterator[PointWindow]:
    """Mirror twin of :func:`sample_plus`: typed closers, anonymous openers.

    Implemented by sampling the plus construction on the mirrored window and
    reflecting each result through :func:`_mirror`, which swaps kinds and
    reverses coordinates; a letterwise swap alone would not stay inside the
    language.
    """
    return _windows("minus", m, lo, hi, seed, count)


SAMPLERS: dict[str, Callable[..., Iterator[PointWindow]]] = {
    "tilde": sample_tilde,
    "plus": sample_plus,
    "minus": sample_minus,
}
