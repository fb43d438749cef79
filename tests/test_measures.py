import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dyckshift import measures
from dyckshift.measures import (
    LogPair,
    _ballot_ways,
    _pattern_stats,
    cylinder_mass,
    entropy_report,
    entropy_table,
    mass_denominator,
    mass_length_for_residual,
    minimal_extension_mass,
)
from dyckshift.words import (
    BudgetExceeded,
    NotInLanguage,
    Word,
    enumerate_balanced,
    iter_language_stats,
    minimal_balanced_extensions,
    residue,
)

from conftest import (
    catalan_convolution,
    enumerated_pattern_stats,
    extension_additivity,
    first_row_within,
    fraction_extension_rows,
    language_words,
    plus_law,
    rewrite_oracle,
    stepped_horizon,
    tilde_law,
    walked_extension_rows,
)

MEASURES = ("tilde", "plus", "minus")
SIDES = ("right", "left")


# ----------------------------------------------------------- cylinder values


@pytest.mark.parametrize(
    "text,m,expected",
    [
        ("", 2, Fraction(1)),
        ("a1", 2, Fraction(1, 4)),
        ("b2", 2, Fraction(1, 4)),
        ("a1 b1", 2, Fraction(1, 8)),
        ("a1 b2", 2, Fraction(0)),
        ("b2 a1 a1", 2, Fraction(1, 64)),
        ("b1 a1", 2, Fraction(1, 16)),
        ("a1 b1", 3, Fraction(1, 12)),
        ("a3 b3 a1", 3, Fraction(1, 8 * 9)),
    ],
)
def test_cylinder_value_examples(text, m, expected):
    assert cylinder_mass(Word.parse(text, m).codes, m) == expected


@pytest.mark.parametrize(
    "text,m,plus,minus",
    [
        ("", 2, Fraction(1), Fraction(1)),
        ("a1 b1", 2, Fraction(1, 9), Fraction(1, 9)),
        ("b1", 2, Fraction(1, 6), Fraction(1, 3)),
        ("a1", 2, Fraction(1, 3), Fraction(1, 6)),
        ("b2 b1 a1", 2, Fraction(1, 108), Fraction(1, 54)),
        ("a1 b2", 2, Fraction(0), Fraction(0)),
        ("b3 a1 b1", 3, Fraction(1, 192), Fraction(1, 64)),
    ],
)
def test_plus_and_minus_examples(text, m, plus, minus):
    codes = Word.parse(text, m).codes
    assert (cylinder_mass(codes, m, "plus"), cylinder_mass(codes, m, "minus")) == (plus, minus)


def test_unknown_measure_is_refused():
    for codes in ((1, -1), (1, -2)):
        with pytest.raises(ValueError, match="unknown measure 'both'"):
            cylinder_mass(codes, 2, "both")


@pytest.mark.parametrize(
    "codes, m, message",
    [((3,), 2, "letter code 3 out of range for m=2"), ((0,), 2, "letter code 0"), ((1,), 0, "need m >= 1")],
)
def test_cylinder_mass_checks_letters_as_words_do(codes, m, message):
    with pytest.raises(ValueError, match=message):
        cylinder_mass(codes, m)


def test_rationals_come_from_fraction_itself_after_the_first_call():
    # The first call rebinds the helper to the class, so the hot path pays no import.
    assert cylinder_mass((1, -1), 2) == Fraction(1, 8)
    assert measures._fraction is Fraction
    for measure in ("tilde", "plus", "minus"):
        assert type(cylinder_mass((1, -2), 2, measure)) is Fraction  # annihilates: mass 0
        assert type(cylinder_mass((-1, 2), 2, measure)) is Fraction
    assert type(entropy_report(5, 2).p_nonneg) is Fraction


def test_monomial_exponents_exposed():
    codes = Word.parse("a1 a2 b2", 2).codes
    # one matched pair and one loose opener: m-exponent 2 under tilde
    assert mass_denominator("tilde", 2, len(codes), 0, 1) == 2**3 * 2**2
    assert cylinder_mass(codes, 2) == Fraction(1, 32)
    assert [mass_denominator(measure, 2, 3, 0, 1) for measure in MEASURES] == [32, 27, 54]
    with pytest.raises(ValueError, match="unknown measure 'both'"):
        mass_denominator("both", 2, 3, 0, 1)


def test_m_exponents_agree_with_masses_exhaustively():
    # one rule prices every measure: each m = 2 word to length 6, shape from the oracle
    rng = random.Random(0)
    for n in range(7):
        for codes in itertools.product((1, 2, -1, -2), repeat=n):
            found = rewrite_oracle(codes, rng)
            for measure in MEASURES:
                value = cylinder_mass(codes, 2, measure)
                if found is None:
                    assert value == 0
                    continue
                closers, openers = len(found[0]), len(found[1])
                assert value == Fraction(1, mass_denominator(measure, 2, n, closers, openers))
                if measure == "tilde":
                    exponent = (n - closers - openers) // 2 + closers + openers
                    assert value == Fraction(1, 2**n * 2**exponent)


def test_pricing_refuses_a_residue_that_fits_no_word_of_its_length():
    assert mass_denominator("tilde", 2, 4, 0, 2) == 2**4 * 2**3
    for (closers, openers), length in [((0, 3), 4), ((1, 0), 0), ((1, 2), 6)]:
        for measure in MEASURES:
            with pytest.raises(ValueError, match="fits no word"):
                mass_denominator(measure, 2, length, closers, openers)


def assert_additive(w: Word) -> None:
    for measure in MEASURES:
        for side in SIDES:
            lhs, rhs = extension_additivity(w, measure, side)
            assert lhs == rhs, (measure, side)


@given(language_words(m=2, max_len=12))
def test_one_letter_additivity(w):
    """Extending by one letter, on either side, splits a cylinder's mass exactly."""
    assert_additive(w)


@given(language_words(m=3, max_len=9))
def test_one_letter_additivity_three_types(w):
    assert_additive(w)


def test_additivity_exhaustive_short_words():
    for n in range(6):
        for codes, _, _ in iter_language_stats(n, 2):
            assert_additive(Word(2, codes))


def test_additivity_rejects_zero_words():
    with pytest.raises(NotInLanguage):
        extension_additivity(Word.parse("a1 b2", 2))


@pytest.mark.parametrize("m,n_max", [(2, 8), (3, 6)])
def test_language_masses_sum_to_one(m, n_max):
    for n in range(n_max + 1):
        words = [codes for codes, _, _ in iter_language_stats(n, m)]
        for measure in MEASURES:
            total = sum((cylinder_mass(codes, m, measure) for codes in words), Fraction(0))
            assert total == 1, f"{measure} level n={n} sums to {total}"


# The scopes of the plus and minus checks: every word to length 6 at m = 2
# and to length 4 at m = 3.
PLUS_SCOPES = [(2, 6), (3, 4)]


@pytest.mark.parametrize("m,n_max", PLUS_SCOPES)
def test_plus_masses_equal_the_plus_construction(m, n_max):
    """Every word, in the language or not, against the enumerated plus law."""
    letters = (*range(1, m + 1), *range(-m, 0))
    for n in range(n_max + 1):
        law = plus_law(n, m)
        assert sum(law.values()) == 1
        for codes in itertools.product(letters, repeat=n):
            assert cylinder_mass(codes, m, "plus") == law.get(codes, 0), codes


@pytest.mark.parametrize("m,n_max", [(2, 6), (3, 5)])
def test_tilde_masses_equal_the_coding_construction(m, n_max):
    """Every word, in the language or not, against the enumerated coding map."""
    letters = (*range(1, m + 1), *range(-m, 0))
    for n in range(n_max + 1):
        law = tilde_law(n, m)
        assert set(law) == {codes for codes, _, _ in iter_language_stats(n, m)}
        assert sum(law.values()) == 1
        for codes in itertools.product(letters, repeat=n):
            assert cylinder_mass(codes, m) == law.get(codes, 0), codes


def mirror(codes: tuple[int, ...]) -> tuple[int, ...]:
    """Reverse the word and swap openers with closers."""
    return tuple(-c for c in reversed(codes))


@pytest.mark.parametrize("m,n_max,language,asymmetric", [(2, 6, 2475, 2012), (3, 4, 847, 654)])
def test_mirror_relations(m, n_max, language, asymmetric):
    """Minus mirrors plus, tilde is its own mirror, and plus is not."""
    words = [codes for n in range(n_max + 1) for codes, _, _ in iter_language_stats(n, m)]
    assert len(words) == language
    for codes in words:
        plus = cylinder_mass(codes, m, "plus")
        assert cylinder_mass(mirror(codes), m, "minus") == plus
        assert cylinder_mass(mirror(codes), m) == cylinder_mass(codes, m)
    differ = sum(cylinder_mass(mirror(codes), m, "plus") != cylinder_mass(codes, m, "plus") for codes in words)
    assert differ == asymmetric


def test_bit_pattern_marginal_is_fair_coin():
    """Summing word masses within one opener/closer skeleton gives 2^-n.

    This is the marginal that makes the whole construction tick: the type
    choices integrate out exactly, for any number of types.
    """
    for m in (2, 3):
        for n in range(7):
            per_pattern: dict[tuple[bool, ...], Fraction] = {}
            for codes, _, _ in iter_language_stats(n, m):
                pattern = tuple(c > 0 for c in codes)
                per_pattern[pattern] = per_pattern.get(pattern, Fraction(0)) + cylinder_mass(codes, m)
            assert len(per_pattern) == 2**n
            assert all(mass == Fraction(1, 2**n) for mass in per_pattern.values())


# ----------------------------------------------------------- balanced law


@pytest.mark.parametrize("m", [2, 3])
def test_balanced_law_agrees_with_general_formula(m):
    for pairs in range(5):
        for w in enumerate_balanced(pairs, m):
            assert cylinder_mass(w.codes, m) == Fraction(1, 2 ** len(w) * m ** (len(w) // 2))


def test_balanced_law_closed_form():
    # (1/(2*sqrt(2)))^4 = 1/64
    assert cylinder_mass(Word.parse("a1 a2 b2 b1", 2).codes, 2) == Fraction(1, 64)


# ------------------------------------------------------ completion masses


def _catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def conv_oracle(parts: int, pairs: int) -> int:
    """Explicit Catalan convolution, the slow way."""
    if parts == 0:
        return 1 if pairs == 0 else 0
    ways = [_catalan(k) for k in range(pairs + 1)]
    for _ in range(parts - 1):
        ways = [
            sum(ways[j] * _catalan(k - j) for j in range(k + 1)) for k in range(pairs + 1)
        ]
    return ways[pairs]


@pytest.mark.parametrize("parts", range(7))
@pytest.mark.parametrize("pairs", range(9))
def test_catalan_convolution_closed_form(parts, pairs):
    assert catalan_convolution(parts, pairs) == conv_oracle(parts, pairs)
    assert next(itertools.islice(_ballot_ways(parts), pairs, None)) == conv_oracle(parts, pairs)


def test_catalan_convolution_validates():
    with pytest.raises(ValueError):
        catalan_convolution(-1, 0)


A1_MASS_ROWS = [
    # (total_len, count, added, partial, residual) for the word a1
    (2, 1, "1/8", "1/8", "1/8"),
    (4, 2, "1/32", "5/32", "3/32"),
    (6, 8, "1/64", "11/64", "5/64"),
    (8, 40, "5/512", "93/512", "35/512"),
    (10, 224, "7/1024", "193/1024", "63/1024"),
]

A1A2_MASS_ROWS = [
    (4, 1, "1/64", "1/64", "3/64"),
    (6, 4, "1/128", "3/128", "5/128"),
    (8, 20, "5/1024", "29/1024", "35/1024"),
    (10, 112, "7/2048", "65/2048", "63/2048"),
    (12, 672, "21/8192", "281/8192", "231/8192"),
]


@pytest.mark.parametrize(
    "text,cap,expected",
    [("a1", 10, A1_MASS_ROWS), ("a1 a2", 12, A1A2_MASS_ROWS)],
)
def test_completion_mass_tables(text, cap, expected):
    rows = minimal_extension_mass(Word.parse(text, 2), cap)
    got = [
        (r.total_len, r.count, str(r.added), str(r.partial), str(r.residual)) for r in rows
    ]
    assert got == expected


def test_completion_mass_of_balanced_word_closes_immediately():
    rows = minimal_extension_mass(Word.parse("a1 b1", 2), 8)
    assert len(rows) == 1
    assert rows[0].partial == Fraction(1, 8)
    assert rows[0].residual == 0


def test_mirrored_words_share_mass_tables():
    a = minimal_extension_mass(Word.parse("a1", 2), 12)
    b = minimal_extension_mass(Word.parse("b1", 2), 12)
    assert [(r.total_len, r.count, r.added) for r in a] == [
        (r.total_len, r.count, r.added) for r in b
    ]


@pytest.mark.parametrize("text", ["a1", "b1", "a1 a2", "a1 b1", "b1 a2", "b2 a1 a1"])
def test_mass_accounting_routes_agree(text):
    """Priced length classes equal a literal walk over the completions."""
    w = Word.parse(text, 2)
    cap = len(w) + 10
    assert minimal_extension_mass(w, cap) == walked_extension_rows(w, cap)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("text", ["a1", "b1", "a1 a2", "b2 b1 a1", "a1 b1"])
def test_mass_rows_equal_the_fraction_sums(text, m):
    """Integer partial sums give the rows of a Fraction-accumulating loop."""
    w = Word.parse(text, m)
    assert minimal_extension_mass(w, 2000) == fraction_extension_rows(w, 2000)


def test_mass_rows_conserve_and_increase():
    w = Word.parse("a1 a2", 2)
    target = cylinder_mass(w.codes, 2)
    rows = minimal_extension_mass(w, 16)
    previous = Fraction(-1)
    for row in rows:
        assert row.partial + row.residual == target
        assert row.partial > previous
        previous = row.partial


@pytest.mark.parametrize(
    "text,ratio,expected",
    [
        ("a1", Fraction(1, 2), 2),
        ("a1", Fraction(1, 4), 10),
        ("a1", Fraction(1, 20), 256),
        ("b1", Fraction(1, 20), 256),
        ("a1 a2", Fraction(1, 20), 1020),
        # values of the ballot-number walk, conftest's stepped_horizon
        ("a1 a2", Fraction(1, 50), 6366),
        ("a1 a2", Fraction(1, 200), 101860),
    ],
)
def test_residual_horizons(text, ratio, expected):
    assert mass_length_for_residual(Word.parse(text, 2), ratio) == expected


HORIZON_RATIOS = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 20), Fraction(1, 50))


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize(
    "text,ratios",
    [
        ("a1", HORIZON_RATIOS),
        ("b1", HORIZON_RATIOS),
        ("a1 a2", HORIZON_RATIOS),
        # at 1/50 the rows run to length 14324, about 4.5 s per alphabet
        ("b2 b1 a1", HORIZON_RATIOS[:3]),
        ("a1 b1", HORIZON_RATIOS),
    ],
    ids=["a1", "b1", "a1 a2", "b2 b1 a1", "a1 b1"],
)
def test_residual_horizon_is_the_first_row_within_ratio(text, ratios, m):
    """The certified horizon equals the first qualifying row of the Fraction table."""
    a = Word.parse(text, m)
    target = cylinder_mass(a.codes, m)
    rows = minimal_extension_mass(a, mass_length_for_residual(a, min(ratios)))
    for ratio in ratios:
        assert mass_length_for_residual(a, ratio) == first_row_within(rows, target, ratio), ratio


# one word for each count k = 0..5 of loose letters
LOOSE_WORDS = ("a1 b1", "b2", "a1 a2", "b2 b1 a1", "b1 a2 b2 b2 a1 a1", "b2 b1 a1 a2 b2 a1 a2")
WALK_RATIOS = tuple(map(Fraction, ("2", "1", "1/2", "1/3", "3/7", "1/20", "1/50")))


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("k", range(6))
def test_residual_horizon_walk_equals_stepped_loop(k, m):
    """The reflection-count horizon returns the stepped ballot walk's for every ratio."""
    a = Word.parse(LOOSE_WORDS[k], m)
    assert sum(map(len, residue(a.codes))) == k
    for ratio in WALK_RATIOS:
        assert mass_length_for_residual(a, ratio) == stepped_horizon(a, ratio), ratio


def reflection_residual(walk: int, k: int) -> Fraction:
    """``R(walk) = 2^-walk Σ C(walk, j)`` over ``(walk-k)/2 < j <= (walk+k)/2``."""
    return Fraction(sum(math.comb(walk, j) for j in range((walk - k) // 2 + 1, (walk + k) // 2 + 1)), 2**walk)


def test_log_residual_equals_the_exact_residual():
    """The float residual that locates the horizon is ``log R(walk)`` to 1e-9."""
    for k in range(1, 31):
        for walk in range(k, 3001, 106):  # k's parity
            exact = math.log(reflection_residual(walk, k))
            assert measures._log_residual(walk, k) == pytest.approx(exact, abs=1e-9), (walk, k)


@pytest.mark.parametrize("k", [1, 2, 25])
def test_log_residual_is_finite_at_the_cap(k):
    """Just past the 2^20 cap the peak term keeps the sum from underflowing."""
    value = measures._log_residual(measures._MAX_TOTAL_LEN + 2 - k % 2, k)
    assert math.isfinite(value) and value < 0


@pytest.mark.parametrize("walk", [2, 10, 100, 1000])
def test_residual_horizon_certificate_splits_ties(walk):
    """Ratios 2^-(walk+60) either side of ``R(walk)`` land on neighbouring lengths.

    Floats cannot tell the three apart; the exact certificate must.
    """
    a = Word.parse("a1 a2", 2)  # k = 2
    exact = reflection_residual(walk, 2)
    nudge = Fraction(1, 2 ** (walk + 60))
    for ratio, expected in ((exact, walk), (exact - nudge, walk + 2), (exact + nudge, walk)):
        assert stepped_horizon(a, ratio) - len(a) == expected
        assert mass_length_for_residual(a, ratio) - len(a) == expected, (ratio, expected)


def test_residual_horizon_with_many_loose_letters():
    a = Word.parse(" ".join(["b1"] * 13 + ["a2"] * 12), 2)
    assert sum(map(len, residue(a.codes))) == 25
    assert mass_length_for_residual(a, Fraction(1, 2)) == stepped_horizon(a, Fraction(1, 2))


def test_residual_horizon_takes_one_binomial_per_query(monkeypatch):
    """One ``math.comb`` per certified query; everything else is ratio steps."""
    calls = []
    real = math.comb
    monkeypatch.setattr(math, "comb", lambda n, j: calls.append((n, j)) or real(n, j))
    queries = [(text, ratio) for text in ("a1", "a1 a2", "b2 b1 a1") for ratio in HORIZON_RATIOS[:3]]
    queries += [("a1 a2", Fraction(1, 50)), ("a1 a2", Fraction(3)), ("a1 b1", Fraction(1, 50))]
    for text, ratio in queries:
        mass_length_for_residual(Word.parse(text, 2), ratio)
    assert len(calls) == len(queries) - 1  # "a1 b1" has no loose letter and needs no certificate


@pytest.mark.parametrize("ratio", [Fraction(1, 10**6), Fraction(1, 10**400)])
def test_residual_horizon_past_the_cap_raises_from_floats(ratio, monkeypatch):
    """Far past the 2^20 cap the float horizon decides alone: no binomial, no underflow."""
    calls = []
    monkeypatch.setattr(math, "comb", lambda n, j: calls.append((n, j)))
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=r"no convergence below 1/10+ by length 1048578$"):
        mass_length_for_residual(Word.parse("a1 a2", 2), ratio)
    assert time.perf_counter() - start < 1.0
    assert calls == []


def test_residual_horizon_near_the_cap_is_certified(monkeypatch):
    """Within a few steps of the cap the exact certificate decides both ways."""
    monkeypatch.setattr(measures, "_MAX_TOTAL_LEN", 1000)
    a = Word.parse("a1 a2", 2)  # the first total length past 1000 is 1002, walk 1000
    exact = reflection_residual(1000, 2)
    assert mass_length_for_residual(a, exact) == 1002
    with pytest.raises(BudgetExceeded, match=r"by length 1002$"):
        mass_length_for_residual(a, exact - Fraction(1, 2**1060))


def test_short_max_len_is_refused_by_both_completion_routes():
    a = Word.parse("a1 a2", 2)
    message = r"max_len=1 is shorter than the word \(2\)"
    with pytest.raises(ValueError, match=message):
        minimal_extension_mass(a, 1)
    with pytest.raises(ValueError, match=message):
        next(minimal_balanced_extensions(a, 1))
    # as long as the word but too short to complete it: no rows, no completions
    assert minimal_extension_mass(a, 3) == [] == list(minimal_balanced_extensions(a, 3))


def test_residual_horizon_rejects_zero_words():
    with pytest.raises(NotInLanguage):
        mass_length_for_residual(Word.parse("a1 b2", 2), Fraction(1, 20))


@pytest.mark.parametrize("ratio", [Fraction(0), Fraction(-1, 20)])
def test_residual_horizon_rejects_a_ratio_that_is_not_positive(ratio):
    with pytest.raises(ValueError, match="ratio must be positive"):
        mass_length_for_residual(Word.parse("a1", 2), ratio)


# ----------------------------------------------------------------- entropy


def test_block_entropy_small_values():
    assert entropy_report(0, 2).block == LogPair(Fraction(0), Fraction(0))
    assert entropy_report(1, 2).block == LogPair(Fraction(1), Fraction(1))  # log 2m
    assert entropy_report(2, 2).block == LogPair(Fraction(2), Fraction(7, 4))


def test_block_entropy_is_m_independent():
    for n in range(11):
        assert entropy_report(n, 2).block == entropy_report(n, 3).block == entropy_report(n, 7).block


def test_step_entropy_beyond_enumeration_matches_closed_form():
    """No length cap: n = 21..300 against the branch mixture built with math.comb."""
    for n in range(21, 301):
        p = Fraction(math.comb(n, n // 2), 2**n)
        rep = entropy_report(n, 2)
        assert (rep.step, rep.p_nonneg) == (LogPair(Fraction(1), (1 + p) / 2), p), n
    with pytest.raises(ValueError):
        entropy_report(-1, 2)


@pytest.mark.parametrize("m", [2, 3])
def test_entropy_table_rows_equal_single_reports(m):
    assert entropy_table(30, m) == [entropy_report(n, m) for n in range(31)]
    assert entropy_table(0, m) == [entropy_report(0, m)]
    with pytest.raises(ValueError):
        entropy_table(-1, m)


@pytest.mark.parametrize("route", [entropy_report, entropy_table])
def test_entropy_routes_check_the_length_before_the_alphabet(route):
    with pytest.raises(ValueError) as info:
        route(-1, 0)
    assert str(info.value) == "block length must be >= 0"


@pytest.mark.parametrize("length", range(17))
def test_pattern_stats_equal_enumeration(length):
    assert _pattern_stats(length) == enumerated_pattern_stats(length)


P_NONNEG = [
    Fraction(1),
    Fraction(1, 2), Fraction(1, 2),
    Fraction(3, 8), Fraction(3, 8),
    Fraction(5, 16), Fraction(5, 16),
    Fraction(35, 128), Fraction(35, 128),
    Fraction(63, 256), Fraction(63, 256),
    Fraction(231, 1024),
]


@pytest.mark.parametrize("n", range(12))
def test_branch_weight_equals_central_binomial(n):
    """p_nonneg(n) = C(n, floor(n/2)) / 2^n — the closed-form oracle."""
    rep = entropy_report(n, 2)
    assert rep.p_nonneg == P_NONNEG[n]
    assert rep.p_nonneg == Fraction(math.comb(n, n // 2), 2**n)


def test_branch_weight_ties_in_pairs_not_strictly_decreasing():
    # p(2k-1) == p(2k): the sequence is nonincreasing but never injective
    assert P_NONNEG[1] == P_NONNEG[2]
    assert P_NONNEG[9] == P_NONNEG[10]
    assert all(P_NONNEG[i] >= P_NONNEG[i + 1] for i in range(11))


@pytest.mark.parametrize("n", range(14))
def test_step_entropy_equals_branch_mixture_exactly(n):
    rep = entropy_report(n, 2)
    assert rep.step == rep.decomposition_step()


def test_step_entropy_value_at_eleven():
    rep = entropy_report(11, 2)
    assert rep.step == LogPair(Fraction(1), Fraction(1255, 2048))
    # with m = 2 both logs coincide: h_11 = (3303/2048) log 2
    assert rep.step.log2_coeff + rep.step.logm_coeff == Fraction(3303, 2048)
    assert rep.step.nats(2) == pytest.approx(1.117903, abs=1e-6)


def test_step_entropy_nonincreasing():
    values = [entropy_report(n, 2).step.nats(2) for n in range(13)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_log_pair_arithmetic():
    a = LogPair(Fraction(1), Fraction(1, 2))
    b = LogPair(Fraction(2), Fraction(1, 4))
    assert b - a == LogPair(Fraction(1), Fraction(-1, 4))
    assert LogPair(Fraction(3), Fraction(3, 4)).nats(2) == pytest.approx(3.75 * math.log(2))
