import itertools
import math
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from dyckshift import words
from dyckshift.measures import entropy_report, entropy_table
from dyckshift.words import (
    advance,
    NotInLanguage,
    ParseError,
    Word,
    count_balanced,
    count_language,
    enumerate_balanced,
    is_balanced,
    is_in_language,
    iter_language_stats,
    lex_key,
    loose_counts,
    minimal_balanced_extensions,
    parse_codes,
    pattern_counts,
    residue,
    residue_text,
)

from conftest import (
    balanced_words,
    depth_dp_counts,
    equivalent_word_pairs,
    language_words,
    pattern_sum,
    pattern_tally,
    power_sum_count,
    raw_words,
    rewrite_oracle,
)


# ---------------------------------------------------------------- parsing


def test_parse_round_trip():
    w = Word.parse("a1 b2  a3", 3)
    assert w.codes == (1, -2, 3)
    assert w.text() == "a1 b2 a3"


def test_parse_empty_is_empty_word():
    assert len(Word.parse("", 2)) == 0
    assert len(Word.parse("   ", 2)) == 0


@pytest.mark.parametrize("bad", ["a0", "c1", "a", "1", "a-1", "a01", "b12x"])
def test_parse_rejects_malformed_tokens(bad):
    with pytest.raises(ParseError):
        parse_codes(bad, 3)


def test_parse_rejects_type_out_of_range():
    with pytest.raises(ParseError):
        Word.parse("a3", 2)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        Word.parse("a1 b0", 2)
    assert exc.value.position == 3


# ---------------------------------------------------------------- reduction


REDUCE_CASES = [
    ("", 2, "Λ"),
    ("a1 b1", 2, "Λ"),
    ("a1 b2", 2, "0"),
    ("b2 a1 a1", 2, "b2 a1 a1"),
    ("a1 a2 b2 b1 b1", 2, "b1"),
    ("b1 b1 a2 b2 a1", 2, "b1 b1 a1"),
    ("a3 b3 a2 a1 b1", 3, "a2"),
    ("a1 a1 b1 b1 a2 b2", 2, "Λ"),
]


@pytest.mark.parametrize("text,m,expected", REDUCE_CASES)
def test_reduce_examples(text, m, expected):
    assert residue_text(residue(Word.parse(text, m).codes)) == expected


def test_zero_is_absorbing_in_concatenation():
    dead = Word.parse("a1 b2", 2).codes
    assert residue(dead + Word.parse("a1", 2).codes) is None
    assert residue(Word.parse("b1", 2).codes + dead) is None


@given(raw_words(m=2), st.integers(0, 2**32))
def test_reduce_agrees_with_random_order_rewriting(w, seed):
    """The one-pass stack reducer matches a rewrite-to-fixpoint oracle.

    The oracle cancels adjacent matched pairs in random order (annihilating
    on the first mismatched adjacency), so agreement across random orders is
    exactly confluence.
    """
    assert residue(w.codes) == rewrite_oracle(w.codes, random.Random(seed))


@given(raw_words(m=3, max_len=8), st.integers(0, 2**32))
def test_reduce_oracle_agreement_three_types(w, seed):
    assert residue(w.codes) == rewrite_oracle(w.codes, random.Random(seed))


def residue_codes(codes: tuple[int, ...]) -> tuple[int, ...] | None:
    """The letters of a word's residue, loose closers then loose openers (None for zero)."""
    found = residue(codes)
    return None if found is None else tuple(-t for t in found[0]) + found[1]


@given(raw_words(m=2, max_len=8), raw_words(m=2, max_len=8))
def test_reduction_is_a_monoid_homomorphism(u, v):
    """reduce(uv) factors through the residues of u and v, and zero absorbs."""
    left, right = residue_codes(u.codes), residue_codes(v.codes)
    if left is None or right is None:
        assert residue(u.codes + v.codes) is None
    else:
        assert residue(u.codes + v.codes) == residue(left + right)


@given(raw_words(m=2))
def test_mirror_conjugates_the_residue(w):
    # the mirror reverses the word and swaps opener and closer roles
    mirrored = residue(tuple(-c for c in reversed(w.codes)))
    found = residue(w.codes)
    if found is None:
        assert mirrored is None
    else:
        assert mirrored == (found[1][::-1], found[0][::-1])


@given(equivalent_word_pairs(m=2))
def test_generated_equivalent_pairs_are_equivalent(pair):
    w, w2 = pair
    assert len(w) == len(w2)
    assert residue(w.codes) == residue(w2.codes) is not None


# ---------------------------------------------------------------- heights


@given(language_words(m=2))
def test_loose_closer_count_is_minus_min_height(w):
    """Loose closers count the deepest dip of the running opener-minus-closer height."""
    lowest = min(itertools.accumulate((1 if c > 0 else -1 for c in w.codes), initial=0))
    assert len(residue(w.codes)[0]) == -lowest


# ---------------------------------------------------------------- counting


LANGUAGE_COUNTS_M2 = [1, 4, 14, 48, 160, 528, 1720, 5568, 17888, 57216, 182080,
                      577536, 1825152, 5753088, 18083712]
LANGUAGE_COUNTS_M3 = [1, 6, 30, 144, 666, 3024, 13500, 59616, 260658]


@pytest.mark.parametrize("n", range(15))
def test_language_counts_two_types(n):
    assert count_language(n, 2) == LANGUAGE_COUNTS_M2[n] == pattern_sum(n, 2)


@pytest.mark.parametrize("n", range(9))
def test_language_counts_three_types(n):
    assert count_language(n, 3) == LANGUAGE_COUNTS_M3[n] == pattern_sum(n, 3)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_language_counts_equal_depth_dp(m):
    assert [count_language(n, m) for n in range(151)] == depth_dp_counts(150, m)


@pytest.mark.parametrize("m", [1, 2, 3, 7])
@pytest.mark.parametrize("n", [*range(61), 151, 777, 1500, 2001])
def test_language_counts_equal_power_sum(n, m):
    """The by-parts loop over binomials gives the sum of one power per pattern term.

    Every length to 60 takes both parities of the loop's last step; the
    longer ones are real-load lengths.
    """
    assert count_language(n, m) == power_sum_count(n, m)


def test_count_language_rejects_negative_length():
    with pytest.raises(ValueError):
        count_language(-1, 2)


def test_binomial_equals_math_comb_on_a_grid():
    """``math.comb`` is the oracle: every ``k`` to ``n = 300``, then central and off-central ``k`` far out."""
    for n in range(301):
        assert [words._binomial(n, k) for k in range(n + 1)] == [math.comb(n, k) for k in range(n + 1)], n
    for n in (6364, 20000, 101860):
        for k in (0, 1, 2, 17, n // 3, n // 2 - 1, n // 2, n // 2 + 1, n - 3, n):
            assert words._binomial(n, k) == math.comb(n, k), (n, k)


@pytest.mark.parametrize("n", range(13))
def test_pattern_counts_equal_brute_force_tally(n):
    """Every loose split of p pairs holds S(n, p) patterns, and nothing else occurs."""
    expected = {
        (p, closers): count
        for p, count in enumerate(pattern_counts(n))
        for closers in range(n - 2 * p + 1)
    }
    assert pattern_tally(n) == expected


# Every m reaches lengths past the walk's table of endings, so some words
# take their endings under a non-empty prefix.
WALK_SCOPES = [(n, 1) for n in range(11)] + [(n, 2) for n in range(9)] + [(n, 3) for n in range(7)] + [
    (n, 4) for n in range(6)
]


def test_walk_scopes_reach_past_the_table_of_endings():
    assert all(max(n for n, k in WALK_SCOPES if k == m) > words._TAIL for m in range(1, 5))


@pytest.mark.parametrize("n,m", WALK_SCOPES)
def test_enumeration_matches_count(n, m):
    assert sum(1 for _ in iter_language_stats(n, m)) == count_language(n, m)


def test_enumeration_is_lexicographic_and_clean():
    words = [Word(2, codes) for codes, _, _ in iter_language_stats(3, 2)]
    keys = [lex_key(w) for w in words]
    assert keys == sorted(keys)
    assert len(set(w.codes for w in words)) == len(words)
    assert words[0].text() == "a1 a1 a1"
    assert words[-1].text() == "b2 b2 b2"
    assert all(is_in_language(w) for w in words)


def test_iter_language_stats_matches_reducer():
    for codes, pairs, loose in iter_language_stats(7, 2):
        found = residue(codes)
        assert found is not None
        assert len(found[0]) + len(found[1]) == loose
        assert 2 * pairs + loose == 7


def language_stats_oracle(n: int, m: int) -> list[tuple[tuple[int, ...], int, int]]:
    """Brute force: every word in letter order, filtered and priced by the reducer."""
    letters = tuple(range(1, m + 1)) + tuple(range(-1, -m - 1, -1))
    out = []
    for codes in itertools.product(letters, repeat=n):
        found = residue(codes)
        if found is not None:
            loose = len(found[0]) + len(found[1])
            out.append((codes, (n - loose) // 2, loose))
    return out


@pytest.mark.parametrize("n,m", WALK_SCOPES)
def test_iter_language_stats_equals_brute_force(n, m):
    # pins completeness, lexicographic order and the pair/loose statistics
    assert list(iter_language_stats(n, m)) == language_stats_oracle(n, m)


def test_iter_language_stats_rejects_negative_length():
    with pytest.raises(ValueError):
        iter_language_stats(-1, 2)


@pytest.mark.parametrize("n,m", WALK_SCOPES)
def test_loose_counts_tally_the_brute_force_walk(n, m):
    tally = loose_counts(n, m)
    expected: dict[int, int] = {}
    for _, _, loose in language_stats_oracle(n, m):
        expected[loose] = expected.get(loose, 0) + 1
    assert tally == expected
    assert sum(tally.values()) == count_language(n, m)


@pytest.mark.parametrize("m,n_max", [(2, 10), (3, 8)])
def test_loose_counts_tally_the_language_walk_at_full_scope(m, n_max):
    # Past the brute-force oracle's reach, at every length of balanced-counts'
    # m = 3 scope and to 10 at m = 2: against the walk that the oracle pins.
    for n in range(n_max + 1):
        tally = loose_counts(n, m)
        assert tally == Counter(loose for _, _, loose in iter_language_stats(n, m)), n
        assert list(tally) == sorted(tally)


def test_loose_counts_steps_each_distinct_state_once_per_letter(monkeypatch):
    # At (12, 2) the nine head letters step 1,329 distinct (open types,
    # matched pairs) states and the table of endings takes 203 steps: 1,532
    # calls, against 26,134 when the head walk stepped every prefix of its
    # 57,216 heads.
    calls = []
    real = words._steps
    monkeypatch.setattr(words, "_steps", lambda opens, m: calls.append(opens) or real(opens, m))
    assert sum(loose_counts(12, 2).values()) == count_language(12, 2)
    assert len(calls) == 1532


def test_loose_counts_holds_two_letters_of_states():
    # At most 1,359 states per letter: the first call in a fresh process
    # peaked at 333 KiB (the tuples it frees stay on the interpreter's free
    # lists), later calls at about 80 KiB.
    tracemalloc.start()
    try:
        loose_counts(12, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 2**10


def test_loose_counts_rejects_negative_length():
    with pytest.raises(ValueError, match="word length must be >= 0"):
        loose_counts(-1, 2)


# Every counting route, called (not iterated) at a valid size.
COUNTING_ROUTES = {
    "count_language": lambda m: count_language(3, m),
    "count_balanced": lambda m: count_balanced(3, m),
    "enumerate_balanced": lambda m: enumerate_balanced(1, m),
    "iter_language_stats": lambda m: iter_language_stats(2, m),
    "loose_counts": lambda m: loose_counts(2, m),
    "entropy_report": lambda m: entropy_report(4, m),
    "entropy_table": lambda m: entropy_table(4, m),
}


@pytest.mark.parametrize("m", [0, -2])
@pytest.mark.parametrize("route", COUNTING_ROUTES)
def test_counting_routes_refuse_an_empty_alphabet(route, m):
    with pytest.raises(ValueError) as info:
        COUNTING_ROUTES[route](m)
    assert str(info.value) == f"need m >= 1, got {m}"


def test_residue_agrees_with_reducers_exhaustively():
    rng = random.Random(5)
    for n in range(7):
        for codes in itertools.product((1, 2, -1, -2), repeat=n):
            assert residue(codes) == rewrite_oracle(codes, rng)


@pytest.mark.parametrize("m", [2, 3])
def test_advance_steps_like_residue_from_every_context(m):
    # Every language block of length <= 6, letter by letter, from every
    # language context of length <= 3: a preorder walk of the block trie
    # checks each prefix once, so every step of every block is checked.
    contexts = [codes for n in range(4) for codes, _, _ in iter_language_stats(n, m)]
    letters = tuple(range(1, m + 1)) + tuple(range(-1, -m - 1, -1))
    pending = [((), [residue(s) for s in contexts])]
    steps = mixed = 0
    while pending:
        block, states = pending.pop()
        for c in letters:
            child = block + (c,)
            if residue(child) is None:
                continue
            stepped = advance(states, c)
            assert stepped == [residue(s + child) for s in contexts], (child, c)
            steps += 1
            mixed += None in stepped and any(stepped)
            if len(child) < 6:
                pending.append((child, stepped))
    assert steps == sum(count_language(n, m) for n in range(1, 7))
    assert mixed  # lists mixing annihilated and live states were stepped


def test_advance_keeps_zero_and_empty_batches():
    assert advance([], 1) == [] and advance([], -1) == []
    assert advance([None], 2) == [None] and advance([None], -2) == [None]
    states = [((), ()), ((1,), (2,)), ((), (1, 2)), None]
    assert advance(states, -2) == [((2,), ()), ((1,), ()), ((), (1,)), None]
    assert advance(states, -1) == [((1,), ()), None, None, None]
    assert advance(states, 3) == [((), (3,)), ((1,), (2, 3)), ((), (1, 2, 3)), None]


BALANCED_COUNTS_M2 = [1, 2, 8, 40, 224, 1344, 8448]


@pytest.mark.parametrize("pairs", range(7))
def test_balanced_counts(pairs):
    assert count_balanced(pairs, 2) == BALANCED_COUNTS_M2[pairs]


@pytest.mark.parametrize("pairs,m", [(p, 2) for p in range(6)] + [(p, 3) for p in range(5)])
def test_balanced_enumeration_matches_formula(pairs, m):
    listed = list(enumerate_balanced(pairs, m))
    assert len(listed) == count_balanced(pairs, m)
    assert all(is_balanced(w) for w in listed)
    assert len(set(w.codes for w in listed)) == len(listed)
    assert listed == sorted(listed, key=lex_key)


def test_balanced_enumeration_walks_long_words():
    # One letter per step of an explicit stack, not one nested generator per letter.
    assert next(enumerate_balanced(600, 2)).codes == (1,) * 600 + (-1,) * 600


def test_balanced_enumeration_refuses_a_negative_pair_count_at_the_call():
    with pytest.raises(ValueError, match=r"^pair count must be >= 0$"):
        enumerate_balanced(-1, 2)


@given(balanced_words(m=3))
def test_generated_balanced_words_balance(w):
    assert is_balanced(w)
    assert len(w) % 2 == 0


# ------------------------------------------------- minimal completions


def completions(text: str, m: int, max_len: int):
    return list(minimal_balanced_extensions(Word.parse(text, m), max_len))


def test_completions_reject_zero_words():
    with pytest.raises(NotInLanguage, match=r"^'a1 b2' reduces to zero$"):
        completions("a1 b2", 2, 6)


def test_completions_of_single_opener():
    got = [(l.text(), r.text()) for l, r in completions("a1", 2, 4)]
    assert got == [("", "b1"), ("", "a1 b1 b1"), ("", "a2 b2 b1")]


def test_completions_of_mixed_residue():
    got = [(l.text(), r.text()) for l, r in completions("b1 a2", 2, 6)]
    assert got == [
        ("a1", "b2"),
        ("a1", "a1 b1 b2"),
        ("a1", "a2 b2 b2"),
        ("a1 a1 b1", "b2"),
        ("a1 a2 b2", "b2"),
    ]


def test_completions_of_balanced_word_are_just_the_empty_pair():
    # any non-empty completion of an already balanced word embeds the empty
    # one, so minimality leaves exactly one pair
    got = completions("a1 b1", 2, 8)
    assert [(l.text(), r.text()) for l, r in got] == [("", "")]


def test_completion_length_cap_validated():
    with pytest.raises(ValueError):
        completions("a1 a2", 2, 1)


@given(language_words(m=2, max_len=6), st.integers(0, 3))
def test_completions_balance_and_are_minimal(w, extra):
    """Every emitted pair balances the word, and no pair embeds another.

    Minimality: a smaller completion sitting inside a bigger one (left part a
    suffix, right part a prefix) would mean the bigger pair wraps an already
    balanced word — exactly what the construction must never emit.
    """
    pairs = list(minimal_balanced_extensions(w, len(w) + 2 * extra))
    seen = set()
    for left, right in pairs:
        assert is_balanced(Word(w.m, left.codes + w.codes + right.codes))
        assert (left.codes, right.codes) not in seen
        seen.add((left.codes, right.codes))
    for l1, r1 in pairs:
        for l2, r2 in pairs:
            if (l1.codes, r1.codes) == (l2.codes, r2.codes):
                continue
            embeds = (
                len(l1) <= len(l2)
                and (len(l1) == 0 or l2.codes[-len(l1) :] == l1.codes)
                and r2.codes[: len(r1)] == r1.codes
            )
            assert not embeds


def test_completions_group_sorted_by_length_then_lex():
    pairs = completions("a1", 2, 8)
    lengths = [len(l) + len(r) for l, r in pairs]
    assert lengths == sorted(lengths)


# ---------------------------------------------------------------- word API


def test_word_slicing_and_indexing():
    w = Word.parse("a1 b1 a2", 2)
    assert w[0] == 1 and w[-1] == 2
    assert w[1:].text() == "b1 a2"
