"""The verify runner, the wording of check results, and faults the checks must catch."""

import hashlib
import re
import tracemalloc
from fractions import Fraction

import pytest

from dyckshift import coding, verification
from dyckshift.measures import LogPair, cylinder_mass, mass_denominator
from dyckshift.verification import run_check
from dyckshift.words import Word, advance, count_language, iter_language_stats, residue

from conftest import pairwise_swap_comparisons, residue_classes


def test_run_check_runs_afresh_on_every_call():
    first = run_check("growth-rate")
    second = run_check("growth-rate")
    assert first is not second
    assert (first.ok, first.observed, first.expected, first.detail) == (
        second.ok,
        second.observed,
        second.expected,
        second.detail,
    )


# Each check's claim, the ``expected`` of every result it gives.
CLAIMS = {
    "cylinder-consistency": "sum of one-letter extension masses equals each cylinder mass; levels sum to 1",
    "balanced-law": "(1/(2*sqrt(m)))^|w| equals the general cylinder mass on balanced words",
    "block-swap-exact": "swapping equivalent length-matched blocks preserves every cylinder mass",
    "entropy-identity": "h_n = log 2 + ((1 + p_nonneg)/2) log m with exact rational coefficients for n <= 256",
    "entropy-limit-gap": "within 0.03 nats of log(2) + (1/2) log(2) = 1.039721 nats",
    "entropy-below-topological": "h_n < log 3 = 1.098612 nats for all n <= 11",
    "balanced-counts": "Catalan(N) * m^N balanced words, by formula, enumeration, and language scan",
    "growth-rate": "log|L(14)|/14 within 5% of log 3 = 1.098612",
    "extension-mass": "completion masses converge to each cylinder mass with residual <= 5% first at the horizon",
    "sampler-law-exact": "every draw of the tilde and plus window bodies, and the minus mirror, gives each window "
    "its cylinder mass; no mass off the language",
    "sampler-formula": "at most 2 of 18 events beyond 3 sigma; forbidden patterns absent",
    "shift-invariance": "every length-2 cylinder frequency equal at coordinates 0 and 5 within 3 sigma",
    "plus-invariance": "type-swapped cylinder pairs agree within 3 sigma and match their exact masses",
    "index-coincidence": "matching-type coincidence probability equals 2^-|J| within 3 sigma",
}


def test_each_result_states_its_registry_claim(exact_check_results, sampling_check_results):
    assert {key: claim for key, _, _, claim, _ in verification._CHECKS} == CLAIMS
    for key, result in {**exact_check_results, **sampling_check_results}.items():
        assert result.expected == CLAIMS[key], key


def test_sampler_formula_claim_counts_its_cylinders(sampling_check_results):
    # the claim's event count is a literal; the observed count is len(_language_words(2, 2))
    result = sampling_check_results["sampler-formula"]
    events = re.search(r"at most 2 of (\d+) events", result.expected).group(1)
    cylinders = re.search(r"across (\d+) cylinders", result.observed).group(1)
    assert events == cylinders == "18"


def _results_digest(results):
    h = hashlib.blake2b(digest_size=16)
    for key, r in results.items():
        h.update(repr((key, r.ok, r.observed, r.expected, r.detail)).encode())
    return h.hexdigest()


def test_exact_results_are_byte_stable(exact_check_results):
    """Digest of every exact check's verdict and wording; a change means ``verify``'s output changed."""
    assert _results_digest(exact_check_results) == "7af5182b8eb917840dcf86ea507bb114"


def test_sampling_results_are_byte_stable(sampling_check_results):
    """Digest of every sampling check's verdict and wording at the default seed."""
    assert _results_digest(sampling_check_results) == "ab243c70907ad30e7bc6d354ac6a0232"


def test_below_topological_counts_lengths_when_only_some_are_above(monkeypatch):
    real = verification.entropy_table

    def fake(n_max, m=2):
        # from n = 6 on, pretend h_n = log 2 < log 3
        return [rep if rep.n < 6 else rep._replace(step=LogPair(Fraction(1), Fraction(0))) for rep in real(n_max, m)]

    monkeypatch.setattr(verification, "entropy_table", fake)
    result = run_check("entropy-below-topological")
    assert not result.ok
    assert "every" not in result.observed
    assert "6 of the 12 lengths n <= 11" in result.observed


def test_below_topological_says_every_when_all_lengths_are_above():
    result = run_check("entropy-below-topological")
    assert not result.ok
    assert "for every n <= 11" in result.observed


def test_limit_gap_prints_the_branch_weight_from_the_report():
    result = run_check("entropy-limit-gap")
    assert "p_nonneg(11) = 231/1024 is still 0.2256" in " ".join(result.detail)


def test_exact_sweeps_keep_their_scope(exact_check_results):
    # A faster route must make the same comparisons: these counts are the scope.
    consistency = exact_check_results["cylinder-consistency"]
    assert consistency.observed == "602872 cylinders additively exact; all 20 levels sum to 1"
    assert consistency.detail == ("scopes: m=2 lengths 0..10, m=3 lengths 0..8",)
    assert exact_check_results["block-swap-exact"].observed == (
        "exact block-swap invariance across 4748386 reductions, "
        "562799 exhaustive and 20000 randomized mass evaluations"
    )


@pytest.mark.parametrize("m,n_max,context_len", [(2, 6, 3), (3, 5, 2), (1, 10, 4)])
def test_swap_sweep_makes_the_pairwise_comparisons(m, n_max, context_len):
    contexts = [codes for n in range(context_len + 1) for codes, _, _ in iter_language_stats(n, m)]
    expected = pairwise_swap_comparisons(contexts, n_max, m)
    assert expected
    assert verification._swap_sweep(contexts, n_max, m) == (expected, None)


@pytest.mark.parametrize("n_max,m", [(8, 2), (6, 3)])
def test_blocks_with_a_matched_pair_are_the_shared_classes(n_max, m):
    # The counting route: group every block by class and keep the classes of
    # two or more.  Retyping a matched pair keeps a block's class, so at
    # m >= 2 the pair rule finds the same keys, members and order.
    shared = {key: blocks for key, blocks in residue_classes(n_max, m).items() if len(blocks) > 1}
    assert list(verification._shared_classes(n_max, m).items()) == list(shared.items())


def test_at_one_type_the_pair_rule_adds_only_the_lone_pair():
    # At m = 1 a matched pair has no other type, so a1 b1 is alone in its
    # class; the sweep scans that class but compares nothing in it.
    shared = {key: blocks for key, blocks in residue_classes(10, 1).items() if len(blocks) > 1}
    found = verification._shared_classes(10, 1)
    assert found.pop((2, (), ())) == [(1, -1)]
    assert list(found.items()) == list(shared.items())
    # At m = 2 that class is a1 b1 ~ a2 b2, the one shared class of blocks to length 2.
    assert {key for key, blocks in residue_classes(2, 2).items() if len(blocks) > 1} == {(2, (), ())}


def test_swap_sweep_compares_in_every_context(monkeypatch):
    # Blocks to length 2 at m = 2 form one shared class, a1 b1 ~ a2 b2, so a
    # misreduced context + a1 b1 is seen in exactly that context, whichever
    # place in its group the context takes.
    contexts = [codes for n in (1, 2, 3) for codes, _, _ in iter_language_stats(n, 2)]
    for context in contexts:
        target = context + (1, -1)
        monkeypatch.setattr(
            verification, "residue", lambda codes, target=target: None if codes == target else residue(codes)
        )
        failure = verification._swap_sweep(contexts, 2, 2)[1]
        assert failure == f"context {' '.join(map(str, context))} sees 2 -2 != 1 -1"


def test_swap_sweep_names_the_first_failing_context_in_context_order(monkeypatch):
    # The representative 1 -1 misreduces after 2 1 and after 2 -2.  The
    # residue group of 2 -2 is led by 1 -1, so it comes before the group of
    # 2 1, which stands alone; 2 1 comes first in context order.
    contexts = [codes for n in (1, 2, 3) for codes, _, _ in iter_language_stats(n, 2)]
    assert contexts.index((1, -1)) < contexts.index((2, 1)) < contexts.index((2, -2))
    faulty = {(2, 1, 1, -1), (2, -2, 1, -1)}
    monkeypatch.setattr(verification, "residue", lambda codes: None if codes in faulty else residue(codes))
    assert verification._swap_sweep(contexts, 2, 2)[1] == "context 2 1 sees 2 -2 != 1 -1"


def test_swap_sweep_walks_the_block_trie_once(monkeypatch):
    # 227 context keys, one key per trie node (25,931 blocks and 6,242 dead
    # children pruned) and 227 scans for each of the 916 shared classes:
    # each node is reduced from scratch once.
    m = 2
    contexts = [codes for n in range(5) for codes, _, _ in iter_language_stats(n, m)]
    calls = []
    monkeypatch.setattr(verification, "residue", lambda codes: calls.append(None) or residue(codes))
    assert verification._swap_sweep(contexts, 8, m) == (4748386, None)
    assert len(calls) == 240332


def test_swap_sweep_steps_each_verified_class_once(monkeypatch):
    # A verified member's children take their class's scans once the same
    # (class, letter) step has been verified: 8,046 advance batches, against
    # 25,930 when every trie edge is advanced, for the same comparisons.
    m = 2
    contexts = [codes for n in range(5) for codes, _, _ in iter_language_stats(n, m)]
    calls = []
    monkeypatch.setattr(verification, "advance", lambda states, code: calls.append(None) or advance(states, code))
    assert verification._swap_sweep(contexts, 8, m) == (4748386, None)
    assert len(calls) == 8046


def test_interned_scans_share_one_object_and_their_tuples():
    # Scans built afresh by residue, as the sweep builds them: b2 a1 a1 in
    # the class of length 3, and again as b2 a1 a2 b2 a1 in that of length 5.
    table: dict = {}
    first = verification._interned(residue((-2, 1)), table)
    assert first == ((2,), (1,))
    again = verification._interned(residue((-2, 1, 1)), table)
    later = verification._interned(residue((-2, 1, 2, -2, 1)), table)
    assert later == again == ((2,), (1, 1))
    assert later is again
    assert later[0] is again[0] is first[0]
    assert later[1] is again[1]
    # an inner tuple met in the other place of a scan is shared there too
    swapped = verification._interned(residue((-1, 2)), table)
    assert swapped[0] is first[1] and swapped[1] is first[0]
    for passing in (None, verification._SPLIT):
        assert verification._interned(passing, table) is passing
    assert None not in table and verification._SPLIT not in table


def test_swap_sweep_holds_its_scans_hash_consed():
    # The parent's scans, each of its own tuples, peaked at 2.44 MiB here.
    m = 2
    contexts = [codes for n in range(5) for codes, _, _ in iter_language_stats(n, m)]
    tracemalloc.start()
    try:
        assert verification._swap_sweep(contexts, 7, m)[1] is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.8 * 2**20


# Planted faults.  Each is patched into ``verification`` alone, so it reaches
# exactly the routes that the checks take there.


def _misstep(states, code):
    """``advance``, except that ``b2`` meeting three open openers, ``a2`` innermost, annihilates."""
    stepped = advance(states, code)
    if code != -2:
        return stepped
    return [
        None if state is not None and len(state[1]) == 3 and state[1][-1] == 2 else out
        for state, out in zip(states, stepped)
    ]


# A context before a representative in sweep (a), three ways (a1 a1 a1 a1 +
# a1 a1 a1 b1 b1 b1, and likewise after a1 a1 a1 and a1 a1), and a word that
# cylinder-consistency walks at m = 2, n = 10.
MISREDUCED = (1, 1, 1, 1, 1, 1, 1, -1, -1, -1)


def _misreduce(codes):
    """``residue``, except that ``MISREDUCED`` loses one of its four loose openers."""
    return ((), (1, 1, 1)) if codes == MISREDUCED else residue(codes)


def _misprice(fault):
    """The pricing rule, with tilde's denominator of five loose openers at length 5 passed through ``fault``."""

    def rule(measure, m, n, closers, openers):
        priced = mass_denominator(measure, m, n, closers, openers)
        return fault(priced, m) if (measure, n, closers, openers) == ("tilde", 5, 0, 5) else priced

    return rule


def _ignore_b2(states, code):
    """``advance``, except that ``b2`` meeting three open openers, ``a2`` innermost, leaves the state as it was."""
    stepped = advance(states, code)
    if code != -2:
        return stepped
    return [
        state if state is not None and len(state[1]) == 3 and state[1][-1] == 2 else out
        for state, out in zip(states, stepped)
    ]


def _codes(text):
    return () if text == "(empty)" else tuple(map(int, text.split()))


def _swap_failure(result):
    """The (context, block, representative) that a failed block-swap-exact names."""
    assert not result.ok
    found = re.fullmatch(r"context (.+) sees (.+) != (.+)", result.observed)
    assert found, result.observed
    return tuple(_codes(part) for part in found.groups())


def _consistency_failures(result):
    """The (m, word) pairs that a failed cylinder-consistency names."""
    assert not result.ok
    named = [(int(m), _codes(text)) for m, text in re.findall(r"m=(\d+) word=([-\d ]*):", result.observed)]
    assert named, result.observed
    return named


def test_faulty_step_fails_both_checks(monkeypatch):
    monkeypatch.setattr(verification, "advance", _misstep)
    context, block, rep = _swap_failure(run_check("block-swap-exact"))
    # the named block really crosses the fault, and really is the representative's equal
    scan = [residue(context)]
    for c in block:
        scan = _misstep(scan, c)
    assert scan != [residue(context + block)]
    assert residue(context + block) == residue(context + rep) and len(block) == len(rep)
    for m, word in _consistency_failures(run_check("cylinder-consistency")):
        letters = [*range(1, m + 1), *range(-m, 0)]
        assert any(_misstep([residue(word)], c) != [residue(word + (c,))] for c in letters)


# A residue that many words of the first m = 2, n = 10 batch of
# cylinder-consistency share; before that batch, only the word a1^8 has it.
PLANTED = ((), (1,) * 8)


def _misstep_planted(states, code):
    """``advance``, except that ``b1`` annihilates the eight open ``a1`` of ``PLANTED``."""
    stepped = advance(states, code)
    return [None if code == -1 and state == PLANTED else out for state, out in zip(states, stepped)]


def test_stepping_each_residue_once_still_names_every_faulty_word(monkeypatch):
    # Each distinct residue is stepped once per batch, yet every word that
    # shares the faulty state is named, in walk order, as a word-by-word
    # route names them: a1^8, then the first four words of length 10.
    monkeypatch.setattr(verification, "advance", _misstep_planted)
    walk = [codes for n in range(11) for codes, _, _ in iter_language_stats(n, 2)]
    expected = [codes for codes in walk if residue(codes) == PLANTED][:5]
    assert _consistency_failures(run_check("cylinder-consistency")) == [(2, codes) for codes in expected]
    tens = [codes for codes, _, _ in iter_language_stats(10, 2)]
    assert [len(codes) for codes in expected] == [8, 10, 10, 10, 10]
    assert {tens.index(codes) // verification._WORD_BATCH for codes in expected[1:]} == {0}


def test_a_failing_batch_is_named_from_its_own_prices(monkeypatch):
    # No word is stepped again to name it: 2m steps per batch of each length,
    # and the only single-state steps are those of the empty word's batch.
    calls = []

    def counted(states, code):
        calls.append(states[0] if len(states) == 1 else len(states))
        return _misstep_planted(states, code)

    monkeypatch.setattr(verification, "advance", counted)
    named = _consistency_failures(run_check("cylinder-consistency"))
    walk = [codes for n in range(11) for codes, _, _ in iter_language_stats(n, 2)]
    assert named == [(2, codes) for codes in walk if residue(codes) == PLANTED][:5]
    batches = {
        m: sum(-(-count_language(n, m) // verification._WORD_BATCH) for n in range(n_max + 1))
        for m, n_max in verification._CYLINDER_SCOPES
    }
    assert len(calls) == sum(2 * m * count for m, count in batches.items())
    assert [c for c in calls if not isinstance(c, int)] == [((), ())] * (2 * 2 + 2 * 3)


# What block-swap-exact says under each planted fault when every trie edge
# is advanced: reusing verified steps must name the same context and blocks.
@pytest.mark.parametrize(
    "name,fault,observed",
    [
        ("advance", _misstep, "context (empty) sees 1 1 1 1 -1 -1 2 -2 != 1 1 1 1 1 -1 -1 -1"),
        ("advance", _ignore_b2, "context (empty) sees 1 1 1 1 -1 -1 2 -2 != 1 1 1 1 1 -1 -1 -1"),
        ("advance", _misstep_planted, "context 1 1 sees 1 1 1 1 1 1 -1 1 != 1 1 1 1 1 1 1 -1"),
        ("residue", _misreduce, "context 1 1 sees 1 1 1 1 2 -2 -1 -1 != 1 1 1 1 1 -1 -1 -1"),
    ],
)
def test_reused_steps_mask_no_planted_fault(monkeypatch, name, fault, observed):
    monkeypatch.setattr(verification, name, fault)
    result = run_check("block-swap-exact")
    assert (result.ok, result.observed, result.detail) == (False, observed, ())


def test_misreduced_word_fails_both_checks(monkeypatch):
    monkeypatch.setattr(verification, "residue", _misreduce)
    context, _, rep = _swap_failure(run_check("block-swap-exact"))
    assert context + rep == MISREDUCED
    assert _consistency_failures(run_check("cylinder-consistency")) == [(2, MISREDUCED)]


def test_two_sided_sweep_scans_each_left_context_with_each_block(monkeypatch):
    # Planted once the classes are collected, so that sweep (a) and the
    # classes see the true residue and only sweep (b)'s from-scratch scans of
    # s + w meet it: a1 + a2 b2 keeps a2 open, which b1 then annihilates.
    collect = verification._shared_classes

    def collect_then_plant(*args):
        classes = collect(*args)
        monkeypatch.setattr(
            verification, "residue", lambda codes: ((), (2,)) if codes == (1, 2, -2) else residue(codes)
        )
        return classes

    monkeypatch.setattr(verification, "_shared_classes", collect_then_plant)
    result = run_check("block-swap-exact")
    assert not result.ok
    assert result.observed == "mass of s+2 -2+t differs from the representative's"


def test_dropped_balanced_word_fails_balanced_counts(monkeypatch):
    # The scan route's tally loses one balanced word of length 6 at m = 3;
    # formula and enumeration still agree, so the failure names that scope.
    real = verification.loose_counts

    def drop_one(n, m):
        tally = real(n, m)
        if (n, m) == (6, 3):
            tally[0] -= 1
        return tally

    monkeypatch.setattr(verification, "loose_counts", drop_one)
    result = run_check("balanced-counts")
    assert not result.ok
    assert result.observed == "m=3 pairs=3: formula 135, enumerated 135, scanned 134"


def test_mispriced_extension_fails_cylinder_consistency(monkeypatch, exact_check_results):
    # A price goes by shape, so the fault reaches every length-4 word of
    # shape (0, 4), named in walk order.  One power of m too high leaves a
    # price that the scale does not divide; it stays exact, not rounded down.
    fours = [codes for codes, _, _ in iter_language_stats(4, 2) if residue(codes) == ((), codes)]
    for fault, sum_ in ((lambda den, m: den // m, "3/512"), (lambda den, m: den * m, "3/1024")):
        monkeypatch.setattr(verification, "mass_denominator", _misprice(fault))
        result = run_check("cylinder-consistency")
        assert _consistency_failures(result) == [(2, codes) for codes in fours[:5]]
        assert result.observed.startswith(f"m=2 word=1 1 1 1: 1/256 != sum {sum_}; m=2 word=1 1 1 2:")
        assert result.expected == exact_check_results["cylinder-consistency"].expected


def test_step_that_ignores_a_closer_fails_cylinder_consistency(monkeypatch):
    # The stale state keeps one loose letter too many, which no word of the
    # extended length has; the parity must not be floored away.
    monkeypatch.setattr(verification, "advance", _ignore_b2)
    result = run_check("cylinder-consistency")
    for m, word in _consistency_failures(result):
        assert _ignore_b2([residue(word)], -2) != [residue(word + (-2,))], (m, word)
    assert "fits no word of length" in result.observed


@pytest.mark.parametrize("shift,fragment", [(2, "already within 5% at length 256, before horizon 258"), (-2, "above 5% of 1/4 at length 254")])
def test_off_by_one_horizon_fails_extension_mass(monkeypatch, exact_check_results, shift, fragment):
    # a horizon one class late is within 5% but not the smallest; one class early is not within
    real = verification.mass_length_for_residual
    monkeypatch.setattr(verification, "mass_length_for_residual", lambda a, ratio: real(a, ratio) + shift)
    result = run_check("extension-mass")
    assert not result.ok
    assert fragment in result.observed
    assert result.expected == exact_check_results["extension-mass"].expected


def _law_failure(result):
    """The (measure, m, window codes, law) that a failed sampler-law-exact names."""
    assert not result.ok
    found = re.fullmatch(r"(\w+) m=(\d+): (?:window )?([-\d ]+?) (?:has law|is off the language with law) (\S+).*", result.observed)
    assert found, result.observed
    measure, m, codes, law = found.groups()
    return measure, int(m), _codes(codes), Fraction(law)


def test_sampler_law_keeps_its_scope(exact_check_results):
    # A faster route must make the same comparisons; the check takes about
    # 0.1 s, and a guard far above that catches a runaway enumeration.
    result = exact_check_results["sampler-law-exact"]
    assert result.ok
    assert result.observed.startswith("sampled window laws equal the cylinder masses on all 4744 language windows")
    assert result.detail == ("scopes: m=2 width 6, m=3 width 5",)
    assert min(run_check("sampler-law-exact").elapsed for _ in range(3)) < 1.0


def test_loose_closers_typed_over_too_few_types_fail_sampler_law(monkeypatch):
    # loose closers drawn over m - 1 types: no loose closer of the top type
    real = verification._tilde_codes
    monkeypatch.setattr(
        verification,
        "_tilde_codes",
        lambda bits, types, loose: real(bits, types, lambda k: [min(t, 1) for t in loose(k)]),
    )
    measure, m, codes, law = _law_failure(run_check("sampler-law-exact"))
    assert (measure, m) == ("tilde", 2)
    assert law != cylinder_mass(codes, m, "tilde")
    assert residue(codes)[0]  # the named window has loose closers


def _outermost_plus_codes(letters, loose):
    """The plus body with closers typed from the outermost open opener."""
    codes, stack, holes = [], [], []
    for v in letters:
        if v:
            codes.append(v)
            stack.append(v)
        elif stack:
            codes.append(-stack.pop(0))
        else:
            holes.append(len(codes))
            codes.append(0)
    for i, t in zip(holes, loose(len(holes)) if holes else ()):
        codes[i] = -t
    return codes


def test_closers_matched_to_the_wrong_opener_fail_sampler_law(monkeypatch):
    monkeypatch.setattr(verification, "_plus_codes", _outermost_plus_codes)
    measure, m, codes, law = _law_failure(run_check("sampler-law-exact"))
    assert (measure, m) == ("plus", 2)
    assert law != cylinder_mass(codes, m, "plus")


def test_minus_law_goes_through_the_samplers_mirror(monkeypatch):
    assert verification._mirror is coding._mirror  # the reflection sample_minus applies
    monkeypatch.setattr(verification, "_mirror", lambda codes: tuple(-c for c in codes))
    measure, m, codes, law = _law_failure(run_check("sampler-law-exact"))
    assert (measure, m) == ("minus", 2)
    assert law != cylinder_mass(codes, m, "minus")


def _drop_first_word(real):
    """``iter_language_stats``, except that the first word of length 3 and of length 6 at m = 2 is lost."""

    def stats(n, m):
        walk = real(n, m)
        if (n, m) in ((3, 2), (6, 2)):
            next(walk)
        return walk

    return stats


@pytest.mark.parametrize(
    "key,observed",
    [
        # each level sums its compared left sides, so it misses the lost word's mass
        ("cylinder-consistency", "m=2 n=3: level mass 63/64 != 1; m=2 n=6: level mass 4095/4096 != 1"),
        # the law still gives a1^6 its mass, which no language window now claims
        ("sampler-law-exact", "tilde m=2: 1 1 1 1 1 1 is off the language with law 1/4096"),
    ],
    ids=["cylinder-consistency", "sampler-law-exact"],
)
def test_a_lost_language_word_fails_the_level_and_the_law(monkeypatch, key, observed):
    monkeypatch.setattr(verification, "iter_language_stats", _drop_first_word(verification.iter_language_stats))
    result = run_check(key)
    assert (result.ok, result.observed, result.detail) == (False, observed, ())


def _cut_long_words_at_a2_b2(codes):
    """``residue``, except that a word of more than 12 letters holding ``a2 b2`` reduces to zero."""
    if len(codes) > 12 and any(codes[i : i + 2] == (2, -2) for i in range(len(codes) - 1)):
        return None
    return residue(codes)


def test_a_fault_only_long_words_meet_fails_the_random_sweep(monkeypatch):
    # Sweeps (a) and (b) reduce at most 12 letters, so only sweep (c)'s triples meet it.
    monkeypatch.setattr(verification, "residue", _cut_long_words_at_a2_b2)
    result = run_check("block-swap-exact", 7)
    assert (result.ok, result.detail) == (False, ())
    assert result.observed == "random triple separated -2 -2 -2 2 1 1 -1 2 from -2 -2 -2 2 2 -2 1 2"


def test_a_misweighted_entropy_row_fails_entropy_identity(monkeypatch):
    real = verification.entropy_table

    def raised(n_max, m=2):
        return [rep._replace(p_nonneg=rep.p_nonneg + 1) if rep.n == 5 else rep for rep in real(n_max, m)]

    monkeypatch.setattr(verification, "entropy_table", raised)
    result = run_check("entropy-identity")
    rep = raised(5)[5]
    assert (result.ok, result.detail) == (False, ())
    assert result.observed == f"n=5: step {rep.step} but mixture predicts {rep.decomposition_step()}"
    assert rep.step != rep.decomposition_step()


def test_the_plus_sampler_fails_sampler_formula(monkeypatch):
    # plus puts 1/3 on each opener where tilde puts 1/4: every cylinder is off
    monkeypatch.setattr(verification, "sample_tilde", coding.sample_plus)
    result = run_check("sampler-formula")
    assert not result.ok
    assert "; 18 above 3 sigma; out-of-language patterns seen: 0" in result.observed
    assert len(result.detail) == 1 + 18
    assert result.detail[1].startswith("[a1]_0: 0.33218 vs 0.25000 (")


def test_an_unbalanced_word_fails_balanced_law(monkeypatch):
    real = verification.enumerate_balanced

    def with_a_stranger(pairs, m):
        if (pairs, m) == (1, 2):
            yield Word.parse("a1 a1", 2)
        yield from real(pairs, m)

    monkeypatch.setattr(verification, "enumerate_balanced", with_a_stranger)
    result = run_check("balanced-law")
    assert (result.ok, result.observed, result.detail) == (False, "'a1 a1' prices differently under the two forms", ())


@pytest.mark.parametrize(
    "edit,observed",
    [
        (
            lambda rows: [rows[0]._replace(residual=rows[0].residual + 1), *rows[1:]],
            "'a1': length 2 books 1/8 + 9/8 != 1/4",
        ),
        (lambda rows: [rows[0], *rows], "'a1': partial mass not strictly increasing at length 2"),
        (lambda rows: [], "'a1': no completions found"),
    ],
    ids=["residual-off", "flat-row", "no-rows"],
)
def test_broken_completion_rows_fail_extension_mass(monkeypatch, edit, observed):
    real = verification.minimal_extension_mass
    monkeypatch.setattr(verification, "minimal_extension_mass", lambda a, max_len: edit(real(a, max_len)))
    result = run_check("extension-mass")
    assert (result.ok, result.observed, result.detail) == (False, observed, ())


def test_an_unknown_check_is_refused_with_the_known_ones():
    with pytest.raises(ValueError) as refused:
        run_check("nope")
    assert str(refused.value) == f"unknown check 'nope'; known: {', '.join(verification.SUITES['all'])}"
