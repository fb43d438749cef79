"""The runnable verification suite behind ``dyckshift verify``.

Fourteen named checks: ten exact (enumeration against closed forms) and
four statistical (seeded sampler runs against exact values, gated at three
binomial standard deviations).  One exact check reads the seed:
block-swap-exact also compares, exactly, the masses of 20,000 triples drawn
from ``random.Random(f"{seed}:block-swap")``, and its detail names the seed.
Each check's claim lives once, in its row of ``_CHECKS``, and becomes the
``expected`` of every :class:`CheckResult` it gives, pass or fail; the check
itself returns its verdict, what it observed, and enough detail to audit a
failure.  The suite never weakens a bound to pass.

Three checks are expected to fail and are kept honest rather than tuned;
each tests a finite-size reading that is exactly false at its stated length:

* ``entropy-limit-gap``: ``h_11 = (3303/2048) log 2`` is 0.078182 nats above
  the limit ``1.5 log 2``, not within 0.03.  The gap is ``(p_n/2) log 2``
  with ``p_n = C(n, n//2) / 2^n``, which decays like ``1/sqrt(n)`` and first
  reaches 0.03 nats at n = 85.
* ``entropy-below-topological``: ``h_n`` decreases from ``h_0 = 2 log 2``
  and is still 1.117903 nats at n = 11, above ``log 3 = 1.098612``; it
  first falls below ``log 3`` at n = 21.
* ``growth-rate``: ``|L(14)| = 18083712``, so ``log|L(14)|/14 = 1.193609``
  is 8.65% above ``log 3``, outside the 5% band.  The subexponential
  prefactor inflates the per-letter reading; the successive-ratio reading
  ``log(|L(14)|/|L(13)|)`` is 4.25% above.

Their results spell out these numbers; see the README for discussion.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .analysis import EmpiricalEstimate, empirical_cylinders, match_index_coincidences
from .coding import DEFAULT_SEED, _mirror, _plus_codes, _tilde_codes, sample_plus, sample_tilde
from .measures import (
    cylinder_mass,
    entropy_table,
    mass_denominator,
    mass_length_for_residual,
    minimal_extension_mass,
)
from .words import (
    Word,
    advance,
    count_balanced,
    count_language,
    enumerate_balanced,
    iter_language_stats,
    loose_counts,
    residue,
)


class CheckResult(NamedTuple):
    key: str
    title: str
    ok: bool
    observed: str
    expected: str
    elapsed: float
    detail: tuple[str, ...] = ()


# A check's verdict, what it observed, and its detail lines.
_Outcome = tuple[bool, str, tuple[str, ...]]


_CYLINDER_SCOPES = ((2, 10), (3, 8))
# Words of one length whose distinct residues are stepped together (2,048 and
# 8,192 were slower and held more).
_WORD_BATCH = 512


def _check_cylinder_consistency(seed: int) -> _Outcome:
    """One-letter extension additivity plus per-length normalization.

    The left side of each comparison comes from enumeration statistics (the
    depth-first walk tracks pairs/loose counts incrementally).  The right
    side reduces each walked word from scratch with ``residue``, never
    reusing the walk's state.  The words of one length go through in
    batches of ``_WORD_BATCH``; an extension's mass depends only on the
    length and the residue's shape, so each distinct residue of a batch
    takes one ``advance`` step for each of the ``2m`` extension letters
    (annihilating ones included, at mass 0), every other result is priced
    from a per-length table that :func:`mass_denominator` fills, and the
    sums go back to every word of that residue.  Both sides are masses at
    length ``n`` scaled by ``2^(n+1) m^(n+1)``.  The two routes share no
    state, so agreement is meaningful.  Every disagreeing word is named, in
    walk order and at most five, from its own residue's prices; an extension
    whose shape no word of its length has prices to ``None``.
    """
    del seed
    bad: list[str] = []
    checked = 0
    for m, n_max in _CYLINDER_SCOPES:
        ext = tuple(range(1, m + 1)) + tuple(range(-1, -m - 1, -1))
        for n in range(n_max + 1):
            top = n + 1
            m_pow = [m**k for k in range(n + 2)]
            scale = 2**top * m_pow[top]  # masses at lengths n and top scale by 2^top m^top
            prices = {}  # the scaled mass of each (loose closers, loose openers) of a length-top word, kept exact
            for loose in range(top % 2, top + 1, 2):
                for closers in range(loose + 1):
                    price = Fraction(scale, mass_denominator("tilde", m, top, closers, loose - closers))
                    prices[closers, loose - closers] = price if price.denominator > 1 else price.numerator
            level = 0  # the sum of the left sides: the level's mass at the scale
            stats = iter_language_stats(n, m)
            while batch := list(itertools.islice(stats, _WORD_BATCH)):
                lhs = [2 * m_pow[top - pairs - loose] for _, pairs, loose in batch]  # m-exponent pairs + loose
                level += sum(lhs)
                found = [residue(codes) for codes, _, _ in batch]
                # each distinct residue once: places[i] is word i's among them
                distinct: dict = {}
                places = [distinct.setdefault(s, len(distinct)) for s in found]
                states = list(distinct)
                columns = [
                    [0 if s is None else prices.get((len(s[0]), len(s[1]))) for s in advance(states, c)] for c in ext
                ]
                sums = [None if None in row else sum(row) for row in zip(*columns)]
                rhs = [sums[i] for i in places]
                checked += len(batch)
                if rhs == lhs:
                    continue
                for (codes, _, _), place, left, right in zip(batch, places, lhs, rhs):
                    if right == left:
                        continue
                    if len(bad) >= 5:
                        break
                    if right is None:
                        i = [col[place] for col in columns].index(None)
                        why = f"extension {ext[i]}: its residue's shape fits no word of length {top}"
                    else:
                        why = f"{Fraction(left, scale)} != sum {Fraction(right, scale)}"
                    bad.append(f"m={m} word={' '.join(map(str, codes))}: {why}")
            if level != scale:
                bad.append(f"m={m} n={n}: level mass {Fraction(level, scale)} != 1")
    if bad:
        return False, "; ".join(bad), ()
    levels = sum(n_max + 1 for _, n_max in _CYLINDER_SCOPES)
    return (
        True,
        f"{checked} cylinders additively exact; all {levels} levels sum to 1",
        ("scopes: " + ", ".join(f"m={m} lengths 0..{n_max}" for m, n_max in _CYLINDER_SCOPES),),
    )


def _check_balanced_law(seed: int) -> _Outcome:
    """Balanced words must price identically under both closed forms."""
    del seed
    checked = 0
    for m, n_max in ((2, 5), (3, 5)):
        for pairs in range(n_max + 1):
            # every word here has length 2 * pairs
            closed_form = Fraction(1, 2 ** (2 * pairs) * m**pairs)
            for w in enumerate_balanced(pairs, m):
                if cylinder_mass(w.codes, m) != closed_form:
                    return False, f"{w.text()!r} prices differently under the two forms", ()
                checked += 1
    return True, f"{checked} balanced words agree exactly", ("scopes: m in {2,3}, up to 5 matched pairs",)


def _shared_classes(n_max: int, m: int) -> dict[tuple, list[tuple[int, ...]]]:
    """The classes that :func:`_swap_sweep` compares, each with its blocks by length, then lexicographically."""
    classes: dict[tuple, list[tuple[int, ...]]] = {}
    for n in range(n_max + 1):
        for codes, pairs, _ in iter_language_stats(n, m):
            if pairs:
                classes.setdefault((n, *residue(codes)), []).append(codes)
    return classes


def _shape(found) -> tuple[int, int] | None:
    """A residue's ``(loose closers, loose openers)``, or ``None`` for zero."""
    return None if found is None else (len(found[0]), len(found[1]))


def _codes_text(codes: tuple[int, ...]) -> str:
    return " ".join(map(str, codes)) or "(empty)"


# A group's representative scan when its contexts' scans differ: equal to no state.
_SPLIT = object()


def _interned(scan, table: dict):
    """``scan`` as ``table`` first met it: its closers, its openers, then the pair.

    ``None`` and ``_SPLIT`` come back unchanged.
    """
    if scan is None or scan is _SPLIT:
        return scan
    closers, openers = scan
    pair = (table.setdefault(closers, closers), table.setdefault(openers, openers))
    return table.setdefault(pair, pair)


def _swap_sweep(contexts: Sequence[tuple[int, ...]], n_max: int, m: int) -> tuple[int, str | None]:
    """Every block of length <= ``n_max`` against its class representative, in every context.

    A block's class is its ``(length, *residue)`` key; only classes whose
    blocks have a matched pair are compared.  Contexts are
    grouped by their own ``residue``, reduced from scratch: the scan of
    ``s + w`` depends on ``s`` only through it.  One preorder walk over the
    trie of language blocks advances one state per group by one letter
    along each trie edge, so the states at block ``w`` are
    ``residue(s + w)`` for the contexts ``s`` of each group.  A class's
    representative is its first block in preorder, the lexicographically
    first; its scans ``residue(s + rep)`` are reduced from scratch for
    every context, and each later member's states are compared with them as
    one list (a group whose contexts' scans differ matches no state).  A
    member whose states equal its class's scans is verified and passes those
    scans on to its children.  A child of a verified member of class ``P``
    along letter ``c`` that is itself verified, as class ``K``, records the
    step ``(P, c) -> K``; a later such child whose own key is ``K`` takes
    ``K``'s scans without an ``advance``, since ``advance`` is a function of
    its input values.  So each ``(P, c)`` step is advanced at most twice:
    once if its first child is a member, twice if that child was ``K``'s
    representative.  Every other block is advanced from its parent's
    states.  The scans of every class are held until the walk ends,
    hash-consed by :func:`_interned`, since most slots repeat a few
    distinct scans.  Comparisons are counted per context.  When a block fails,
    the first context in context order whose scan of the representative
    differs from its group's state at the block is named; one always does,
    since the state is that context's own scan of the block.  Blocks are keyed and
    pruned by their own ``residue``, also from scratch.

    Returns the number of (block, context) comparisons and, at the first
    mismatch, a message naming the context and both blocks (else ``None``).
    """
    # Pushed in reverse, so the walk pops a1 < .. < am < b1 < .. < bm.
    letters = tuple(range(-m, 0)) + tuple(range(m, 0, -1))
    groups: dict = {}
    for s in contexts:
        groups.setdefault(residue(s), []).append(s)
    comparisons = 0
    reps: dict[tuple, tuple[tuple[int, ...], list]] = {}
    interned: dict = {}
    stepped: dict[tuple[tuple, int], tuple] = {}
    # Each entry: block, its last letter, its parent's states, and the parent's
    # class key when the parent was a verified member (else None).
    pending: list[tuple[tuple[int, ...], int, list, tuple | None]] = [((), 0, list(groups), None)]
    while pending:
        w, code, states, parent = pending.pop()
        found = residue(w)
        if found is None:
            continue
        key = (len(w), *found)
        if parent is not None and stepped.get((parent, code)) == key:
            states = reps[key][1]
        elif code:
            states = advance(states, code)
        verified = None
        # p >= 1 matched pairs retype to m^p >= 2 blocks of w's key (at m >= 2); a pairless w is alone
        if len(w) > len(found[0]) + len(found[1]):
            rep = reps.get(key)
            if rep is None:
                scans = [
                    _interned(one.pop() if len(one) == 1 else _SPLIT, interned)
                    for one in ({residue(s + w) for s in members} for members in groups.values())
                ]
                reps[key] = (w, scans)
            else:
                comparisons += len(contexts)
                if states != rep[1]:
                    state_of = {s: state for state, members in zip(states, groups.values()) for s in members}
                    s = next(s for s in contexts if residue(s + rep[0]) != state_of[s])
                    return comparisons, f"context {_codes_text(s)} sees {_codes_text(w)} != {_codes_text(rep[0])}"
                if parent is not None:
                    stepped[parent, code] = key
                states, verified = rep[1], key
        if len(w) < n_max:
            pending.extend((w + (c,), c, states, verified) for c in letters)
    return comparisons, None


def _check_block_swap(seed: int) -> _Outcome:
    """Swapping equivalent same-length blocks never changes a cylinder mass.

    Three sweeps: (a) every word of length <= 8 against its equivalence-class
    representative under every left context of length <= 4, compared by
    stack reduction (:func:`_swap_sweep`): the representative's scans are
    reduced from scratch in every context, every other block's are advanced
    one letter per edge of a single trie walk, one state per group of contexts
    with equal residues, and a verified member's children step from its
    class's scans, so each (class, letter) step is advanced at most twice;
    (b) exhaustive two-sided contexts of length <= 2 around every word of
    length <= 6, compared by mass: for each left context ``s`` every block's ``residue(s + w)`` is reduced from scratch
    once, stepped through each right context ``t`` by :func:`advance`
    (``t``'s one-letter prefix stepped first and shared); (c) seeded random
    two-sided triples at the full stated sizes, each reduced by
    :func:`residue` from scratch.  Sweeps (b) and (c) compare masses by
    residue shape: the words compared have equal lengths, and by
    :func:`mass_denominator` length and shape fix the mass under every
    measure.  Checking members against one representative covers all pairs,
    since equality of masses is transitive.  Sweep (a) compares whole
    residues, and a residue fixes every later one, so it covers each
    measure that prices a word by its length and residue.
    """
    m = 2
    contexts4: list[tuple[int, ...]] = []
    for n in range(5):
        contexts4.extend(codes for codes, _, _ in iter_language_stats(n, m))
    stack_comparisons, failure = _swap_sweep(contexts4, 8, m)
    if failure is not None:
        return False, failure, ()
    # Collected after sweep (a), so the two never coexist.
    classes8 = _shared_classes(8, m)

    # Right contexts come shortest first, so each one's prefix is stepped before it.
    contexts2 = [c for c in contexts4 if len(c) <= 2]
    mass_comparisons = 0
    for key, members in classes8.items():
        if key[0] > 6:
            continue
        for s in contexts2:
            stepped = {(): [residue(s + w) for w in members]}
            for t in contexts2:
                if t:
                    stepped[t] = advance(stepped[t[:-1]], t[-1])
                shapes = list(map(_shape, stepped[t]))
                mass_comparisons += len(shapes) - 1
                if shapes.count(shapes[0]) != len(shapes):
                    odd = next(w for w, shape in zip(members, shapes) if shape != shapes[0])
                    return False, f"mass of s+{_codes_text(odd)}+t differs from the representative's", ()

    rng = random.Random(f"{seed}:block-swap")
    rich = list(classes8.values())
    random_comparisons = 20_000
    for _ in range(random_comparisons):
        s = rng.choice(contexts4)
        t = rng.choice(contexts4)
        members = rng.choice(rich)
        w = rng.choice(members)
        w2 = rng.choice(members)
        if _shape(residue(s + w + t)) != _shape(residue(s + w2 + t)):
            return False, f"random triple separated {_codes_text(w)} from {_codes_text(w2)}", ()
    return (
        True,
        f"exact block-swap invariance across {stack_comparisons} reductions, "
        f"{mass_comparisons} exhaustive and {random_comparisons} randomized mass evaluations",
        (
            "blocks to length 8, one-sided contexts to length 4 (reduction route)",
            "blocks to length 6, two-sided contexts to length 2 (direct-mass route)",
            f"randomized sweep seeded {seed}:block-swap",
            "the comparisons cover every measure that prices by length and residue (tilde, plus, minus)",
        ),
    )


_ENTROPY_SPAN = 11
# The three entropy checks read one table to this length; the limit gap and
# log 3 crossings they search for lie at n = 85 and n = 21.
_IDENTITY_SPAN = 256
_LIMIT_NATS = 1.5 * math.log(2)


def _check_entropy_identity(seed: int) -> _Outcome:
    """The two-branch mixture formula must reproduce every step entropy exactly."""
    del seed
    for rep in entropy_table(_IDENTITY_SPAN, 2):
        predicted = rep.decomposition_step()
        if rep.step != predicted:
            return False, f"n={rep.n}: step {rep.step} but mixture predicts {predicted}", ()
    return True, f"step entropy equals the branch mixture exactly for n = 0..{_IDENTITY_SPAN}", ()


def _check_entropy_limit_gap(seed: int) -> _Outcome:
    """|h_11 - limit| <= 0.03 nats, as stated.  It is not, and we say so."""
    del seed
    table = entropy_table(_IDENTITY_SPAN, 2)
    rep = table[_ENTROPY_SPAN]
    h11 = rep.step.nats(2)
    gap = abs(h11 - _LIMIT_NATS)
    coeff = rep.step.log2_coeff + rep.step.logm_coeff  # m = 2 folds both logs together
    # the gap is (p_n/2) log 2 with p_n the central binomial weight, which
    # tends to 0, so exact step entropies find where it first reaches 0.03
    first_within = next(r.n for r in table[_ENTROPY_SPAN:] if abs(r.step.nats(2) - _LIMIT_NATS) <= 0.03)
    detail = (
        f"h_11 = ({coeff}) log 2 = {h11:.6f} nats exactly",
        f"the gap decays like 1/sqrt(n) and first reaches 0.03 nats at n = {first_within}",
        f"p_nonneg(11) = {rep.p_nonneg} is still {float(rep.p_nonneg):.4f}, far from its slow power-law tail",
    )
    return gap <= 0.03, f"|h_11 - limit| = {gap:.6f} nats", detail


def _check_entropy_below_topological(seed: int) -> _Outcome:
    """h_n < log 3 for all n <= 11, as stated.  False at every such n."""
    del seed
    log3 = math.log(3)
    table = entropy_table(_IDENTITY_SPAN, 2)
    values = [(rep.n, rep.step.nats(2)) for rep in table[: _ENTROPY_SPAN + 1]]
    above = [(n, v) for n, v in values if not v < log3]
    # h_n tends to 1.5 log 2 < log 3, so exact step entropies find the crossing
    first_below = next(rep.n for rep in table[_ENTROPY_SPAN + 1 :] if rep.step.nats(2) < log3)
    detail = tuple(f"h_{n} = {v:.6f} nats" for n, v in values[-3:]) + (
        f"log 3 = {log3:.6f}; monotone decrease first crosses below it at n = {first_below}",
    )
    if above:
        n, v = above[0]
        if len(above) == len(values):
            which = f"every n <= {_ENTROPY_SPAN}"
        else:
            which = f"{len(above)} of the {len(values)} lengths n <= {_ENTROPY_SPAN}"
        return False, f"h_n >= log 3 for {which} (e.g. h_{n} = {v:.6f})", detail
    return True, "all step entropies below log 3", detail


def _check_balanced_counts(seed: int) -> _Outcome:
    """Catalan-times-types counting against two enumerations.

    The scan route walks the whole language of each length by the head
    walk of :func:`~dyckshift.words.iter_language_stats`, but tallies the
    words per head (:func:`~dyckshift.words.loose_counts`) instead of
    building each one, and reads the count with no loose letter.
    """
    del seed
    checked = []
    for m, max_pairs in ((2, 6), (3, 4)):
        for pairs in range(max_pairs + 1):
            formula = count_balanced(pairs, m)
            listed = sum(1 for _ in enumerate_balanced(pairs, m))
            scanned = loose_counts(2 * pairs, m).get(0, 0)
            if not formula == listed == scanned:
                return False, f"m={m} pairs={pairs}: formula {formula}, enumerated {listed}, scanned {scanned}", ()
            checked.append(formula)
    return (
        True,
        f"three routes agree on all {len(checked)} counts (largest {max(checked)})",
        ("scopes: m=2 to 6 pairs, m=3 to 4 pairs",),
    )


def _check_growth_rate(seed: int) -> _Outcome:
    """log|L(14)|/14 within 5% of log 3, as stated.  The finite-n reading is high."""
    del seed
    n = 14
    log3 = math.log(3)
    total_14 = count_language(n, 2)
    total_13 = count_language(n - 1, 2)
    rate = math.log(total_14) / n
    rel = abs(rate - log3) / log3
    ratio_rate = math.log(total_14 / total_13)
    detail = (
        f"|L(14)| = {total_14} exactly (by pattern counts; enumeration cross-checked in tests)",
        f"per-letter reading log|L(14)|/14 = {rate:.6f} nats",
        f"successive-ratio reading log(|L(14)|/|L(13)|) = {ratio_rate:.6f} nats "
        f"({abs(ratio_rate - log3) / log3:.2%} from log 3) — the prefactor, not the rate, is at fault",
    )
    return rel <= 0.05, f"relative gap {rel:.2%}", detail


def _sigma_summary(pairs: Iterable[tuple[EmpiricalEstimate, Fraction]]) -> tuple[float, list[str]]:
    worst = 0.0
    over: list[str] = []
    for est, target in pairs:
        sd = est.sigma_distance(target)
        worst = max(worst, sd)
        if sd > 3.0:
            over.append(f"{est.event}: {float(est.estimate):.5f} vs {float(target):.5f} ({sd:.2f} sigma)")
    return worst, over


def _gap_sigmas(a: EmpiricalEstimate, b: EmpiricalEstimate) -> float:
    """The gap between two estimates, in their combined standard error."""
    return abs(float(a.estimate) - float(b.estimate)) / math.hypot(a.stderr, b.stderr)


def _language_words(max_len: int, m: int) -> list[Word]:
    out = []
    for n in range(1, max_len + 1):
        out.extend(Word(m, codes) for codes, _, _ in iter_language_stats(n, m))
    return out


def _check_sampler_formula(seed: int) -> _Outcome:
    """Coin-flip sampler frequencies against exact cylinder masses.

    Every one- and two-letter cylinder at the origin, 100k samples, gated at
    3 sigma with at most two exceedances allowed across the 18 events (the
    expected number of chance exceedances is 0.05).  Out-of-language patterns
    must never occur at all.
    """
    count = 100_000
    samples = sample_tilde(2, 0, 1, seed=seed, count=count)
    words = _language_words(2, 2)
    dead = [Word(2, (1, -2)), Word(2, (2, -1))]
    ests = empirical_cylinders(samples, [(w, 0) for w in words + dead])
    live, forbidden = ests[: len(words)], ests[len(words) :]
    worst, over = _sigma_summary((est, cylinder_mass(w.codes, 2)) for w, est in zip(words, live))
    ghosts = [w.text() for w, est in zip(dead, forbidden) if est.hits]
    ok = len(over) <= 2 and not ghosts
    observed = (
        f"worst deviation {worst:.2f} sigma across {len(words)} cylinders; "
        f"{len(over)} above 3 sigma; out-of-language patterns seen: {len(ghosts)}"
    )
    detail = (
        f"seed {seed}, {count} samples on window [0, 1]",
        *over,
        *(f"forbidden pattern observed: {g}" for g in ghosts),
    )
    return ok, observed, detail


def _check_shift_invariance(seed: int) -> _Outcome:
    """The same cylinder at coordinates 0 and 5 must fill at the same rate."""
    count = 50_000
    samples = sample_tilde(2, 0, 6, seed=seed + 1, count=count)
    words = [w for w in _language_words(2, 2) if len(w) == 2]
    ests = empirical_cylinders(samples, [(w, k) for w in words for k in (0, 5)])
    pairs = list(zip(words, ests[::2], ests[1::2]))
    gaps = [_gap_sigmas(at0, at5) for _, at0, at5 in pairs]
    over = [
        f"[{w.text()}]: {float(at0.estimate):.5f} at 0 vs {float(at5.estimate):.5f} at 5 ({sd:.2f} sigma)"
        for (w, at0, at5), sd in zip(pairs, gaps)
        if sd > 3.0
    ]
    return (
        not over,
        f"worst origin-vs-shift gap {max(gaps):.2f} sigma across {len(words)} two-letter cylinders",
        (f"seed {seed + 1}, {count} samples on window [0, 6]", *over),
    )


def _check_plus_invariance(seed: int) -> _Outcome:
    """Type-exchange symmetry of the typed-opener sampler, plus exact marginals."""
    count = 100_000
    samples = sample_plus(2, 0, 2, seed=seed + 2, count=count)
    # two type-swapped pairs: the length-2 pair, then the length-3 pair
    words = [Word.parse(text, 2) for text in ("a1 b1", "a2 b2", "a1 a1 b1", "a1 a2 b2")]
    exact = [cylinder_mass(w.codes, 2, "plus") for w in words]
    ests = empirical_cylinders(samples, [(w, 0) for w in words])
    pairs = list(zip(ests[::2], ests[1::2]))
    gaps = [_gap_sigmas(e1, e2) for e1, e2 in pairs]
    over = [f"{e1.event} vs {e2.event}: {sd:.2f} sigma apart" for (e1, e2), sd in zip(pairs, gaps) if sd > 3.0]
    abs_worst, abs_over = _sigma_summary(zip(ests, exact))
    return (
        not over and not abs_over,
        f"exchange gap {max(gaps):.2f} sigma; worst marginal {abs_worst:.2f} sigma vs exact",
        (
            f"seed {seed + 2}, {count} samples on window [0, 2]",
            f"exact masses: {exact[0]} for the length-2 pair, {exact[2]} for the length-3 pair",
            *over,
            *abs_over,
        ),
    )


def _check_index_coincidence(seed: int) -> _Outcome:
    """Backward matching letters carry independent uniform types.

    P(types agree at b_j and b_{j+c} for all j in J) must be 2^-|J| for each
    offset c in {1, 2} and J in {1}, {1,2}, {1,2,3}.  Estimated on windows
    [-200, 0]; samples too short to resolve a needed matching time are
    excluded (the exclusion depends only on the opener/closer pattern, never
    on the types under test) and the resolution rate is reported.
    """
    count = 20_000
    samples = sample_tilde(2, -200, 0, seed=seed + 3, count=count)
    events = [(offset, js) for offset in (1, 2) for js in ((1,), (1, 2), (1, 2, 3))]
    ests = match_index_coincidences(samples, events)
    worst, over = _sigma_summary((est, Fraction(1, 2 ** len(js))) for (_, js), est in zip(events, ests))
    rates = [
        f"c={offset} J={{{','.join(map(str, js))}}}: resolution {est.resolution_rate:.3f}"
        for (offset, js), est in zip(events, ests)
    ]
    return (
        not over,
        f"worst coincidence deviation {worst:.2f} sigma across {len(events)} events",
        (
            f"seed {seed + 3}, {count} samples on window [-200, 0]",
            *rates,
            *over,
        ),
    )


def _check_extension_mass(seed: int) -> _Outcome:
    """Minimal balanced completions recover each cylinder's full mass.

    For each seed word the completion masses must increase strictly, conserve
    exactly (partial plus residual equals the cylinder mass at every row),
    and the residual must fall to 5% of the mass at the precomputed horizon
    and not before it.  The horizon comes from the reflection count of
    :func:`mass_length_for_residual` and the rows from the ballot numbers,
    so this checks the horizon's minimality by an independent route.
    """
    del seed
    ratio = Fraction(1, 20)
    rows_info = []
    for text in ("a1", "b1", "a1 a2"):
        a = Word.parse(text, 2)
        target = cylinder_mass(a.codes, 2)
        horizon = mass_length_for_residual(a, ratio)
        rows = minimal_extension_mass(a, horizon)
        if not rows:
            return False, f"{text!r}: no completions found", ()
        prev = Fraction(-1)
        for row in rows:
            if row.partial + row.residual != target:
                return False, f"{text!r}: length {row.total_len} books {row.partial} + {row.residual} != {target}", ()
            if not row.partial > prev:
                return False, f"{text!r}: partial mass not strictly increasing at length {row.total_len}", ()
            prev = row.partial
        last = rows[-1]
        if last.residual > ratio * target:
            return False, f"{text!r}: residual {last.residual} above 5% of {target} at length {horizon}", ()
        if len(rows) > 1 and rows[-2].residual <= ratio * target:
            before = rows[-2].total_len
            return False, f"{text!r}: residual already within 5% at length {before}, before horizon {horizon}", ()
        rows_info.append(f"{text!r}: horizon {horizon}, residual {float(last.residual / target):.4%} of mass")
    return (
        True,
        "mass conserved, strictly increasing, and first within 5% residual at the horizon for all three seed words",
        tuple(rows_info),
    )


# (m, window width): every draw of a window body is enumerated at these sizes.
_SAMPLER_LAW_SCOPES = ((2, 6), (3, 5))


def _sampler_laws(m: int, width: int) -> Iterator[tuple[str, int, Counter[tuple[int, ...]]]]:
    """The law of each sampler's window body on ``width`` letters, from every draw tuple.

    Tilde draws its bits, a type per opener and a type per loose closer
    (counted by the residue of the kinds); plus draws its letters and a type
    per loose closer.  Each law comes with its scale, the number of equally
    likely draw sequences: ``2^w m^w`` for tilde and ``(m+1)^w m^w`` for plus,
    so a tuple with ``d`` type draws weighs ``m^(w - d)``.  Minus is the plus
    law through ``sample_minus``'s mirror.  The laws come one at a time.
    """
    types = [tuple(itertools.product(range(1, m + 1), repeat=k)) for k in range(width + 1)]
    law: Counter[tuple[int, ...]] = Counter()
    for bits in map("".join, itertools.product("01", repeat=width)):
        openers, loose = bits.count("1"), len(residue([1 if b == "1" else -1 for b in bits])[0])
        for opener_types, loose_types in itertools.product(types[openers], types[loose]):
            law[tuple(_tilde_codes(bits, iter(opener_types), lambda k: loose_types))] += m ** (width - openers - loose)
    yield "tilde", 2**width * m**width, law
    law = Counter()
    for letters in itertools.product(range(m + 1), repeat=width):
        loose = len(residue([1 if v else -1 for v in letters])[0])
        for loose_types in types[loose]:
            law[tuple(_plus_codes(letters, lambda k: loose_types))] += m ** (width - loose)
    minus = Counter({_mirror(codes): mass for codes, mass in law.items()})
    scale = (m + 1) ** width * m**width
    yield "plus", scale, law
    yield "minus", scale, minus


def _check_sampler_law(seed: int) -> _Outcome:
    """The samplers' window bodies, enumerated over every draw, give the exact cylinder laws.

    Each law must total its scale, give each language word of the width the
    scale over its shape's :func:`mass_denominator` and nothing to any other
    word.  The bodies read their draws left to right, so a window's law on
    its first letters is the law of a shorter window: the widest covers them.
    """
    del seed
    words = 0
    for m, width in _SAMPLER_LAW_SCOPES:
        language = [(codes, _shape(residue(codes))) for codes, _, _ in iter_language_stats(width, m)]
        words += len(language)
        for measure, scale, law in _sampler_laws(m, width):
            if sum(law.values()) != scale:
                return False, f"{measure} m={m}: total mass {Fraction(sum(law.values()), scale)} != 1", ()
            for codes, shape in language:
                got, den = law.pop(codes, 0), mass_denominator(measure, m, width, *shape)
                if got * den != scale:
                    got, mass = Fraction(got, scale), Fraction(1, den)
                    return False, f"{measure} m={m}: window {_codes_text(codes)} has law {got} != mass {mass}", ()
            if law:
                codes = min(law)
                got = Fraction(law[codes], scale)
                return False, f"{measure} m={m}: {_codes_text(codes)} is off the language with law {got}", ()
            del law  # else its emptied table stays held while the next law is built
    return (
        True,
        f"sampled window laws equal the cylinder masses on all {words} language windows, for tilde, plus and minus",
        ("scopes: " + ", ".join(f"m={m} width {width}" for m, width in _SAMPLER_LAW_SCOPES),),
    )


# Each check's claim lives here, beside its title: it is the ``expected`` of every result the check gives.
_CHECKS: tuple[tuple[str, str, str, str, Callable[[int], _Outcome]], ...] = (
    ("cylinder-consistency", "exact", "one-letter additivity and normalization",
     "sum of one-letter extension masses equals each cylinder mass; levels sum to 1", _check_cylinder_consistency),
    ("balanced-law", "exact", "balanced-word law matches the general formula",
     "(1/(2*sqrt(m)))^|w| equals the general cylinder mass on balanced words", _check_balanced_law),
    ("block-swap-exact", "exact", "equivalent block swaps preserve masses",
     "swapping equivalent length-matched blocks preserves every cylinder mass", _check_block_swap),
    ("entropy-identity", "exact", "step entropy equals the branch mixture",
     f"h_n = log 2 + ((1 + p_nonneg)/2) log m with exact rational coefficients for n <= {_IDENTITY_SPAN}",
     _check_entropy_identity),
    ("entropy-limit-gap", "exact", "step entropy near its limit at n=11",
     "within 0.03 nats of log(2) + (1/2) log(2) = 1.039721 nats", _check_entropy_limit_gap),
    ("entropy-below-topological", "exact", "step entropies below log 3",
     "h_n < log 3 = 1.098612 nats for all n <= 11", _check_entropy_below_topological),
    ("balanced-counts", "exact", "balanced counting: formula vs enumerations",
     "Catalan(N) * m^N balanced words, by formula, enumeration, and language scan", _check_balanced_counts),
    ("growth-rate", "exact", "length-14 growth-rate reading near log 3",
     "log|L(14)|/14 within 5% of log 3 = 1.098612", _check_growth_rate),
    ("extension-mass", "exact", "completion masses converge to cylinder mass",
     "completion masses converge to each cylinder mass with residual <= 5% first at the horizon",
     _check_extension_mass),
    ("sampler-law-exact", "exact", "sampler window bodies induce the exact laws",
     "every draw of the tilde and plus window bodies, and the minus mirror, gives each window its cylinder mass; "
     "no mass off the language", _check_sampler_law),
    ("sampler-formula", "sampling", "coin-flip sampler matches exact masses",
     "at most 2 of 18 events beyond 3 sigma; forbidden patterns absent", _check_sampler_formula),
    ("shift-invariance", "sampling", "sampled frequencies are position independent",
     "every length-2 cylinder frequency equal at coordinates 0 and 5 within 3 sigma", _check_shift_invariance),
    ("plus-invariance", "sampling", "typed-opener sampler type-exchange symmetry",
     "type-swapped cylinder pairs agree within 3 sigma and match their exact masses", _check_plus_invariance),
    ("index-coincidence", "sampling", "matching types are independent uniforms",
     "matching-type coincidence probability equals 2^-|J| within 3 sigma", _check_index_coincidence),
)

SUITES: dict[str, tuple[str, ...]] = {
    "exact": tuple(k for k, s, *_ in _CHECKS if s == "exact"),
    "sampling": tuple(k for k, s, *_ in _CHECKS if s == "sampling"),
    "all": tuple(k for k, *_ in _CHECKS),
}

_BY_KEY = {key: (title, claim, fn) for key, _, title, claim, fn in _CHECKS}


def run_check(key: str, seed: int = DEFAULT_SEED) -> CheckResult:
    """Run one named check afresh; ``elapsed`` is this call's time."""
    try:
        title, expected, fn = _BY_KEY[key]
    except KeyError:
        raise ValueError(f"unknown check {key!r}; known: {', '.join(SUITES['all'])}") from None
    start = time.perf_counter()
    ok, observed, detail = fn(seed)
    return CheckResult(key, title, ok, observed, expected, time.perf_counter() - start, detail)
