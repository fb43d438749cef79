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

Every type and letter draw comes from one rule, :func:`_draws`, which
rejection-samples ``getrandbits`` exactly as CPython's ``randrange`` draws
one value at a time, in whole-word blocks that return the same values and
leave the same generator state.  A window takes its opener types or its
letters in one block, then, after its walk, its loose closers' types in a
second.  Sampled windows are built without re-validation, because the
samplers match every closer to an opener of its type, inside the window or
fresh left of it, and so emit language words by construction.
"""

from __future__ import annotations

import functools
import operator
import random
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .words import NotInLanguage, Word, _check_letters, code_text, residue


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
    is absorbing.  The samplers build their windows with ``tuple.__new__``,
    which skips these checks; ``tests/test_coding.py``
    re-validates every window of the golden-digest grid through this public
    constructor.
    """

    __slots__ = ()

    def __new__(cls, m: int, lo: int, hi: int, codes: Sequence[int]) -> "PointWindow":
        codes = tuple(codes)  # checked and stored as one immutable value, as in Word
        if not lo <= 0 <= hi:
            raise ValueError(f"window [{lo}, {hi}] must contain the origin")
        if len(codes) != hi - lo + 1:
            raise ValueError("window length does not match its bounds")
        _check_letters(m, codes)
        if residue(codes) is None:
            raise NotInLanguage("window letters annihilate; not a point of the subshift")
        return tuple.__new__(cls, (m, lo, hi, codes))

    def word(self) -> Word:
        """The whole window as a Word."""
        return Word(self.m, self.codes)

    def text(self) -> str:
        return " ".join(map(code_text, self.codes))


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


# Below this many draws still needed, one draw at a time is cheaper than
# another round of whole-word blocks; the two read the same words.
_ROUND_MIN = 8


def _draws(getrandbits: Callable[[int], int], n: int, count: int, base: int = 0) -> list[int]:
    """``count`` uniform draws from ``range(n)``, each plus ``base``, as ``randrange(n)`` draws them.

    CPython's ``Random.randrange(n)`` draws ``getrandbits(n.bit_length())``
    and redraws while the value is at least ``n``.  Here each round asks
    ``getrandbits`` for one 32-bit word per draw still needed, in one call
    whose words come least significant first, in stream order.  Every
    accepted draw takes at least one word, so no word is read that
    ``count`` calls of ``randrange`` would not read: the values and the
    generator state afterwards are the same.  The last few draws, and draws
    that a top byte cannot hold (``n > 255``), follow ``randrange``'s rule
    one at a time; ``base`` is 0 or 1, so every value of a round fits a byte.
    """
    drawn: list[int] = []
    if n <= 255 and count > _ROUND_MIN:
        table, rejected = _draw_table(n, base)
        while (need := count - len(drawn)) > _ROUND_MIN:
            drawn += getrandbits(32 * need).to_bytes(4 * need, "little")[3::4].translate(table, rejected)
    # one draw at a time, as ``randrange`` reads them
    k = n.bit_length()
    for _ in range(count - len(drawn)):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        drawn.append(r + base)
    return drawn


def _tilde_codes(bits: str, types: Iterator[int], loose: Callable[[int], Sequence[int]]) -> list[int]:
    """The codes of a tilde window, a pure function of its draws.

    ``bits`` are the window's fair bits, "1" an opener; ``types`` gives the
    openers' types in order of appearance.  A closer matched inside the
    window copies its opener's type.  The ``k`` closers whose opener lies
    left of the window take, leftmost first, the types of one ``loose(k)``
    call after the walk, made only when ``k > 0``.
    """
    codes: list[int] = []
    append = codes.append
    stack: list[int] = []  # types of openers still open, innermost last
    holes: list[int] = []  # where the loose closers stand
    for b in bits:
        if b == "1":
            t = next(types)
            append(t)
            stack.append(t)
        elif stack:
            append(-stack.pop())
        else:
            holes.append(len(codes))
            append(0)
    if holes:
        for i, t in zip(holes, loose(len(holes))):
            codes[i] = -t
    return codes


def _plus_codes(letters: Iterable[int], loose: Callable[[int], Sequence[int]]) -> list[int]:
    """The codes of a plus window, a pure function of its draws.

    ``letters`` are the window's collapsed letters, 0 the anonymous closer
    and ``t`` the opener of type ``t``; loose closers are typed from
    ``loose`` as in :func:`_tilde_codes`.
    """
    codes: list[int] = []
    append = codes.append
    stack: list[int] = []
    holes: list[int] = []
    for v in letters:
        if v:
            append(v)
            stack.append(v)
        elif stack:
            append(-stack.pop())
        else:
            holes.append(len(codes))
            append(0)
    if holes:
        for i, t in zip(holes, loose(len(holes))):
            codes[i] = -t
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
    return _tilde_codes(bits, types, lambda k: _draws(getrandbits, m, k, 1))


def _plus_window_codes(m: int, width: int, getrandbits: Callable[[int], int]) -> list[int]:
    letters = _draws(getrandbits, m + 1, width)  # 0 = anonymous closer
    return _plus_codes(letters, lambda k: _draws(getrandbits, m, k, 1))


# The seed of ``sample`` and ``verify`` when none is given.
DEFAULT_SEED = 7


def _windows(sampler: str, m: int, lo: int, hi: int, seed: int, count: int) -> Iterator[PointWindow]:
    """The one sampler core: each window's own stream, its body, and minus's mirror.

    Window ``index`` of ``seed`` reads ``random.Random(f"{seed}:{index}")``'s
    stream: platform-stable (string seeds hash via sha512), independent of
    earlier windows, and the same when one generator is reseeded in place.
    """
    _check_letters(m, ())
    if not lo <= 0 <= hi:
        raise ValueError(f"sampling window [{lo}, {hi}] must contain the origin")
    if count < 0:
        raise ValueError(f"sample count {count} must be non-negative")
    body = _tilde_window_codes if sampler == "tilde" else _plus_window_codes
    finish = _mirror if sampler == "minus" else tuple
    rng = random.Random()
    getrandbits, width = rng.getrandbits, hi - lo + 1
    for index in range(count):
        rng.seed(f"{seed}:{index}")
        # built without validation: sampled windows are language words
        yield tuple.__new__(PointWindow, (m, lo, hi, finish(body(m, width, getrandbits))))


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
