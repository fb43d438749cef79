import hashlib
import itertools
import random
import types
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, strategies as st

from dyckshift.analysis import matching_times
from dyckshift.coding import (
    SAMPLERS,
    PointWindow,
    _draws,
    _plus_codes,
    _plus_window_codes,
    _tilde_codes,
    _tilde_window_codes,
    sample_minus,
    sample_plus,
    sample_tilde,
)
from dyckshift.verification import _sampler_laws
from dyckshift.words import NotInLanguage, Word, residue

from conftest import (
    GOLDEN_WINDOWS,
    bitwise_tilde_window,
    coding_slots,
    golden_grid_windows,
    height_cocycle,
    match_left,
    per_draw_plus_window,
    plus_law,
    tilde_law,
)


def window_of(text: str, lo: int, m: int = 2) -> PointWindow:
    w = Word.parse(text, m)
    return PointWindow(m, lo, lo + len(w) - 1, w.codes)


# ------------------------------------------------------------- PointWindow


def test_window_must_contain_origin():
    with pytest.raises(ValueError, match="origin"):
        PointWindow(2, 1, 3, (1, 1, 1))
    with pytest.raises(ValueError, match="origin"):
        PointWindow(2, -3, -1, (1, 1, 1))


def test_window_length_checked():
    with pytest.raises(ValueError, match="length"):
        PointWindow(2, 0, 2, (1, 1))


def test_window_code_range_checked():
    with pytest.raises(ValueError, match="out of range"):
        PointWindow(2, 0, 0, (4,))


def test_window_rejects_annihilating_letters():
    with pytest.raises(NotInLanguage):
        PointWindow(2, 0, 1, (1, -2))  # a1 b2


def test_window_accessors():
    x = window_of("a1 b1 a2", -1)
    assert x.word() == Word(2, (1, -1, 2))
    assert x.text() == "a1 b1 a2"


# ----------------------------------------------- height walks and matching


def test_height_profile_of_openers_is_linear():
    x = PointWindow(2, -2, 2, (1, 1, 1, 1, 1))
    assert height_cocycle(x) == (-2, -1, 0, 1, 2, 3)


def test_height_steps_track_letter_kinds():
    x = window_of("b1 a1 a2 b2", -2)
    profile = height_cocycle(x)
    assert profile[-x.lo] == 0  # H_0 = 0 by convention
    for i, c in enumerate(x.codes):
        assert profile[i + 1] - profile[i] == (1 if c > 0 else -1)


def test_match_left_examples():
    bits = (1, 1, 0, 0)
    assert match_left(bits, 2) == 1
    assert match_left(bits, 3) == 0
    assert match_left((0, 1), 0) is None


@given(st.lists(st.integers(0, 1), min_size=1, max_size=40), st.integers(0, 39))
def test_match_left_agrees_with_stack_matching(bits, pos):
    """The height-scan definition equals plain bracket matching."""
    if pos >= len(bits) or bits[pos] == 1:
        return
    stack = []
    expected = None
    for i, b in enumerate(bits[: pos + 1]):
        if i == pos:
            expected = stack[-1] if stack else None
        elif b:
            stack.append(i)
        elif stack:
            stack.pop()
    assert match_left(bits, pos) == expected


# ---------------------------------------------------------- the coding map


def test_coding_pairs_share_one_type():
    assert coding_slots((1, 0)) == [1, 1]
    law = tilde_law(2, 2)
    assert law[(2, -2)] == Fraction(1, 8)
    assert (2, -1) not in law


def test_coding_nested_example():
    assert coding_slots((1, 1, 0, 0)) == [1, 2, 2, 1]
    # closers whose openers lie left of the window read slots of their own
    assert coding_slots((0, 1, 0, 0)) == [-1, 1, 1, -2]
    assert tilde_law(4, 2)[(1, 2, -2, -1)] == Fraction(1, 64)


def test_sampled_pairs_agree_by_the_matching_relation():
    """A closer's type equals its opener's, read back independently."""
    for x in sample_tilde(2, -6, 6, seed=19, count=150):
        bits = [1 if c > 0 else 0 for c in x.codes]
        for n, c in enumerate(x.codes):
            if c > 0:
                continue
            opener = match_left(bits, n)
            if opener is None:
                continue  # resolved beyond the window; not checkable here
            assert c == -x.codes[opener]


# ------------------------------------------------------------------ samplers


def test_registry_names():
    assert set(SAMPLERS) == {"tilde", "plus", "minus"}


def test_sampler_window_must_contain_origin():
    with pytest.raises(ValueError):
        list(sample_tilde(2, 1, 3, seed=0, count=1))


def test_samplers_are_deterministic():
    for name, sampler in SAMPLERS.items():
        a = [x.codes for x in sampler(2, -4, 4, seed=5, count=20)]
        b = [x.codes for x in sampler(2, -4, 4, seed=5, count=20)]
        assert a == b, name


def test_sample_streams_are_indexed_not_sequential():
    """Sample i depends on (seed, i) only, not on how many precede it."""
    long = [x.codes for x in sample_tilde(2, -3, 3, seed=9, count=12)]
    short = [x.codes for x in islice(sample_tilde(2, -3, 3, seed=9, count=100), 12)]
    assert long == short


def test_seed_changes_the_stream():
    a = [x.codes for x in sample_tilde(2, 0, 6, seed=1, count=10)]
    b = [x.codes for x in sample_tilde(2, 0, 6, seed=2, count=10)]
    assert a != b


def test_first_tilde_sample_frozen():
    x = next(sample_tilde(2, -3, 3, seed=7, count=1))
    assert x.text() == "b2 b2 b2 a1 b1 a2 a2"


def test_first_plus_sample_frozen():
    x = next(sample_plus(2, 0, 5, seed=7, count=1))
    assert x.text() == "a2 a2 b2 a1 a1 a2"


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_samples_are_valid_windows(name, m):
    for x in SAMPLERS[name](m, -5, 5, seed=13, count=60):
        assert (x.lo, x.hi, x.m) == (-5, 5, m)
        x.word()  # the samplers emit language words; must not raise


def test_sampler_streams_are_byte_stable():
    """Digest of every sampler's windows and their matching times over a grid of
    alphabets, windows and seeds; a change means the streams changed."""
    h = hashlib.blake2b(digest_size=16)
    for x in golden_grid_windows():
        t = matching_times(x, 6)
        h.update(repr((x.codes, t.forward, t.backward)).encode())
    assert h.hexdigest() == "162e3030030f45ef7bf212bed5b11298"


def test_sampled_windows_pass_public_validation():
    """The samplers skip ``PointWindow`` validation; every golden-grid window
    must pass it and come out equal."""
    for x in golden_grid_windows():
        checked = PointWindow(x.m, x.lo, x.hi, x.codes)
        assert type(x) is PointWindow and checked == x


def test_bodies_type_loose_closers_from_fresh_draws():
    """A closer matched inside the window copies its opener; loose ones take the fresh types, leftmost first."""
    assert _tilde_codes("0101", iter([2, 1]), lambda k: [1]) == [-1, 2, -2, 1]
    assert _tilde_codes("001", iter([2]), lambda k: [2, 1]) == [-2, -1, 2]
    assert _plus_codes([0, 1, 0, 0], lambda k: [2, 1]) == [-2, 1, -1, -1]


def _logged(draws, log):
    """``draws`` one at a time, noting each read and the end in ``log``."""
    for d in draws:
        log.append("draw")
        yield d
    log.append("end")


@pytest.mark.parametrize("width", range(8))
def test_each_body_asks_loose_once_after_its_walk(width):
    """Each body calls ``loose`` once, after its walk, with its number of loose closers, and never without one."""
    for bits in itertools.product("01", repeat=width):
        k = len(residue([1 if b == "1" else -1 for b in bits])[0])
        tilde_log, plus_log = [], []
        _tilde_codes(_logged(bits, tilde_log), iter([2] * width), lambda n: tilde_log.append(("loose", n)) or [1] * n)
        _plus_codes(_logged(map(int, bits), plus_log), lambda n: plus_log.append(("loose", n)) or [1] * n)
        for log in (tilde_log, plus_log):
            assert log == ["draw"] * width + ["end"] + ([("loose", k)] if k else []), bits


@pytest.mark.parametrize("m, width", [(1, 6), (2, 6), (3, 5)])
def test_window_bodies_have_the_construction_laws(m, width):
    """Every draw through the tilde and plus bodies gives the laws of the coding
    map and of the plus construction, as their own oracles enumerate them."""
    laws = {name: (scale, law) for name, scale, law in _sampler_laws(m, width)}
    assert laws["minus"][0] == laws["plus"][0]
    for name, oracle, draws in (("tilde", tilde_law, 2), ("plus", plus_law, m + 1)):
        scale, law = laws[name]
        assert scale == draws**width * m**width, name  # the number of equally likely draw sequences
        assert {codes: Fraction(mass, scale) for codes, mass in law.items()} == oracle(width, m), name


ORACLE_WIDTHS = (1, 2, 7, 8, 31, 32, 33, 201)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 7, 8, 9, 31, 32, 33, 40, 65, 257, 4000, 100_000])
@pytest.mark.parametrize("m", [1, 2, 3, 255, 256])
def test_tilde_walk_equals_the_bitwise_walk(m, seed):
    """Window by window, and generator state after it, the same as one bit
    and one ``randrange`` per type at a time."""
    for width in ORACLE_WIDTHS:
        for lo, hi in ((0, width - 1), (1 - width, 0)):
            for index, x in enumerate(sample_tilde(m, lo, hi, seed=seed, count=6)):
                fast_rng, slow_rng = random.Random(f"{seed}:{index}"), random.Random(f"{seed}:{index}")
                fast = _tilde_window_codes(m, width, fast_rng.getrandbits)
                slow = bitwise_tilde_window(m, lo, hi, slow_rng)
                assert x == slow and tuple(fast) == slow.codes, (width, lo, index)
                assert fast_rng.getstate() == slow_rng.getstate()


PLUS_ORACLE_WIDTHS = (1, 2, 7, 33, 201, 1001)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 7, 9, 33, 4000, 100_000])
@pytest.mark.parametrize("m", [1, 2, 3, 254, 300])
def test_plus_window_equals_the_per_draw_window(m, seed):
    """Window by window, and generator state after it, the same as one ``randrange`` per draw."""
    for width in PLUS_ORACLE_WIDTHS:
        for lo, hi in ((0, width - 1), (1 - width, 0)):
            for index, x in enumerate(sample_plus(m, lo, hi, seed=seed, count=6)):
                fast_rng, slow_rng = random.Random(f"{seed}:{index}"), random.Random(f"{seed}:{index}")
                fast = _plus_window_codes(m, width, fast_rng.getrandbits)
                slow = per_draw_plus_window(m, lo, hi, slow_rng)
                assert x == slow and tuple(fast) == slow.codes, (width, lo, index)
                assert fast_rng.getstate() == slow_rng.getstate()


def _refuse_streams(monkeypatch) -> None:
    def no_stream(*args) -> random.Random:
        raise AssertionError("a stream was made before the arguments were checked")

    monkeypatch.setattr("dyckshift.coding.random", types.SimpleNamespace(Random=no_stream))


@pytest.mark.parametrize("name", sorted(SAMPLERS))
@pytest.mark.parametrize(
    "m, lo, hi, cap", [(0, 0, 40, 10), (-1, 0, 40, 10), (0, 0, 1, 0), (2, 0, 1, -1), (2, -3, 0, -1)]
)
def test_samplers_reject_empty_alphabets_and_negative_caps(monkeypatch, name, m, lo, hi, cap):
    """m < 1 would loop forever in ``_draws`` or emit codes outside the
    alphabet, and no sampler takes a leftward cap any more; both are refused
    before any stream is drawn."""
    _refuse_streams(monkeypatch)
    with pytest.raises(TypeError, match="max_extension"):
        SAMPLERS[name](m, lo, hi, seed=0, count=1, max_extension=cap)
    if m < 1:
        with pytest.raises(ValueError, match=f"need m >= 1, got {m}"):
            next(SAMPLERS[name](m, lo, hi, seed=0, count=1))


@pytest.mark.parametrize("name", sorted(SAMPLERS))
@pytest.mark.parametrize("lo, hi", [(1, 3), (-3, -1)])
def test_samplers_reject_windows_without_the_origin(monkeypatch, name, lo, hi):
    _refuse_streams(monkeypatch)
    with pytest.raises(ValueError, match="origin"):
        next(SAMPLERS[name](2, lo, hi, seed=0, count=1))


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_samplers_reject_negative_counts(monkeypatch, name):
    _refuse_streams(monkeypatch)
    with pytest.raises(ValueError, match="count -1"):
        next(SAMPLERS[name](2, -1, 1, seed=0, count=-1))


@pytest.mark.parametrize("seed", [-1, 0, 7])
def test_reseeded_sample_streams_equal_fresh_ones(seed):
    """A sampler reseeds one generator per sample; each state, and each window, is a fresh generator's."""
    reused = random.Random()
    for index in range(301):
        reused.seed(f"{seed}:{index}")
        assert reused.getstate() == random.Random(f"{seed}:{index}").getstate(), index
        reused.getrandbits(32 * (index % 5) + index % 3)  # the next reseed starts from a drawn state
        reused.gauss(0.0, 1.0)  # and from a cached second normal variate
    for sampler, body in ((sample_tilde, _tilde_window_codes), (sample_plus, _plus_window_codes)):
        for index, x in enumerate(sampler(2, -4, 4, seed=seed, count=301)):
            assert x.codes == tuple(body(2, 9, random.Random(f"{seed}:{index}").getrandbits)), index


@pytest.mark.parametrize("n", range(1, 10))
def test_draws_consume_the_stream_as_randrange(n):
    """One draw per call, 300 calls: values and generator state as ``randrange``."""
    for seed in (0, 1, 2024):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert [_draws(ours.getrandbits, n, 1, 0)[0] for _ in range(300)] == [theirs.randrange(n) for _ in range(300)]
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("n", [*range(1, 10), 127, 128, 254, 255, 256, 300])
def test_block_draws_equal_per_draw_calls(n):
    """Values and generator state, block by block on one stream, as ``randrange`` one draw at a time."""
    for seed in (0, 1, 2024):
        for base in (0, 1):
            ours, theirs = random.Random(seed), random.Random(seed)
            for count in (0, 1, 2, 8, 9, 31, 300, 1000):
                drawn = _draws(ours.getrandbits, n, count, base)
                assert drawn == [theirs.randrange(n) + base for _ in range(count)], count
                assert ours.getstate() == theirs.getstate()


def test_plus_letters_drift_upward():
    # i.i.d. letters with m opener types and one closer type walk up at rate
    # (m-1)/(m+1) = 1/3 per letter; 61 letters from 2000 samples put the
    # sample mean within 4 sigma ~ 0.66 of 61/3.
    total = 0
    for x in sample_plus(2, 0, 60, seed=11, count=2000):
        total += height_cocycle(x)[-1]
    assert abs(total / 2000 - 61 / 3) < 0.66


def test_minus_is_the_mirror_of_plus():
    minus = [x.codes for x in sample_minus(2, -5, 2, seed=21, count=30)]
    plus = [x.codes for x in sample_plus(2, -2, 5, seed=21, count=30)]
    mirrored = [tuple(-c for c in reversed(codes)) for codes in plus]
    assert minus == mirrored


def test_minus_heights_climb_leftward():
    # mirrored drift: heights fall at rate 1/3 moving right, so the left
    # edge of [-60, 0] sits 60/3 = 20 above the origin on average
    total = 0
    for x in sample_minus(2, -60, 0, seed=11, count=2000):
        total += height_cocycle(x)[0]
    assert abs(total / 2000 - 20) < 0.66
