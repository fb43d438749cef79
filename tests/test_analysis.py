from fractions import Fraction

import pytest
from hypothesis import given

from dyckshift.analysis import (
    EmpiricalEstimate,
    InsufficientData,
    MatchingTimes,
    classify_window,
    empirical_cylinders,
    match_index_coincidences,
    matching_times,
)
from dyckshift.coding import SAMPLERS, PointWindow, sample_minus, sample_plus, sample_tilde
from dyckshift.measures import cylinder_mass
from dyckshift.words import Word, iter_language_stats

from conftest import (
    cocycle_window_diagnostics,
    equivalent_word_pairs,
    golden_grid_windows,
    rescan_empirical_cylinder,
    rescan_match_index_coincidence,
    scan_matching_times,
)


def window_of(text: str, lo: int, m: int = 2) -> PointWindow:
    w = Word.parse(text, m)
    return PointWindow(m, lo, lo + len(w) - 1, w.codes)


# ---------------------------------------------------------------- block swaps


@given(equivalent_word_pairs(m=2, max_total=10))
def test_swaps_preserve_exact_window_mass(pair):
    """Swapping equivalent blocks never changes the cylinder mass, under any measure.

    The block is embedded with closer padding on the left and opener padding
    on the right, which can never annihilate against it.
    """
    w, w_prime = pair
    pad_l, pad_r = (-1, -2), (1,)
    x, y = pad_l + w.codes + pad_r, pad_l + w_prime.codes + pad_r
    for measure in SAMPLERS:
        assert cylinder_mass(y, 2, measure) == cylinder_mass(x, 2, measure), measure


# ------------------------------------------------------------- matching times


def test_matching_times_example():
    x = window_of("a1 b1 b2", -1)
    t = matching_times(x, 2)
    assert t == MatchingTimes(forward=(0, 1), backward=(-1, None))


def test_matching_times_of_left_openers():
    x = PointWindow(2, -3, 0, (1, 2, 1, 2))
    t = matching_times(x, 3)
    assert t.backward == (-1, -2, -3)
    assert t.forward == (None, None, None)


def test_matching_times_validates_depth():
    with pytest.raises(ValueError):
        matching_times(window_of("a1", 0), 0)


def test_matching_times_read_loose_closers():
    # closers whose openers lie left of the window are first dips forward
    x = PointWindow(2, 0, 1, (-2, -1))
    t = matching_times(x, 2)
    assert t.forward == (0, 1)


def test_backward_times_land_on_openers_and_forward_on_closers():
    for x in sample_tilde(2, -25, 25, seed=23, count=80):
        t = matching_times(x, 4)
        for b, a in zip(t.backward, t.forward):
            if b is not None:
                assert x.codes[b - x.lo] > 0  # depth records are set by openers
            if a is not None:
                assert x.codes[a - x.lo] < 0  # and first reached by closers


@pytest.mark.parametrize("window", [(-30, 30), (0, 40), (-40, 0), (0, 0), (-3, 9)])
@pytest.mark.parametrize("sampler", [sample_tilde, sample_plus, sample_minus])
def test_matching_times_equal_the_full_height_scan(sampler, window):
    """Early-exit scans agree with the whole-walk scan."""
    lo, hi = window
    for x in sampler(2, lo, hi, seed=31, count=60):
        for j_max in range(1, 13):
            assert matching_times(x, j_max) == scan_matching_times(x, j_max), (x.text(), j_max)


# ------------------------------------------------------------------ estimates


def test_estimate_requires_trials():
    est = EmpiricalEstimate("e", 0, 0, excluded_unresolved=3)
    with pytest.raises(InsufficientData):
        est.estimate
    assert est.scanned == 3
    assert est.resolution_rate == 0.0


def test_estimate_resolution_needs_scans():
    with pytest.raises(InsufficientData):
        EmpiricalEstimate("e", 0, 0).resolution_rate


def test_estimate_statistics():
    est = EmpiricalEstimate("e", 60, 100, excluded_unresolved=20)
    assert est.estimate == Fraction(3, 5)
    assert est.scanned == 120
    assert est.resolution_rate == pytest.approx(100 / 120)
    assert est.stderr == pytest.approx((0.6 * 0.4 / 100) ** 0.5)
    assert est.sigma_distance(Fraction(1, 2)) == pytest.approx(2.0)


def test_sigma_distance_rejects_degenerate_targets():
    est = EmpiricalEstimate("e", 1, 2)
    for bad in (0, 1, -0.1, 1.5):
        with pytest.raises(ValueError):
            est.sigma_distance(bad)


def test_empirical_cylinder_counts_every_window():
    samples = [window_of("a1 b1", 0), window_of("a2 b2", 0), window_of("b2 a1", 0)]
    (est,) = empirical_cylinders(samples, [(Word.parse("a1 b1", 2), 0)])
    assert est.event == "[a1 b1]_0"
    assert (est.hits, est.trials, est.excluded_unresolved) == (1, 3, 0)
    assert est.estimate == Fraction(1, 3)


def test_empirical_cylinder_rejects_uncovered_coordinates():
    with pytest.raises(ValueError):
        empirical_cylinders([window_of("a1 b1", 0)], [(Word.parse("a1 a1", 2), 1)])
    with pytest.raises(ValueError):
        empirical_cylinders([window_of("a1 b1", 0)], [(Word.parse("a1", 2), 0), (Word.parse("b1", 2), 5)])


# Two-letter dead patterns never occur in a resolved window.
DEAD = (Word(2, (1, -2)), Word(2, (2, -1)))


@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
def test_empirical_cylinders_equal_the_rescan_oracle(sampler):
    samples = list(SAMPLERS[sampler](2, -1, 6, seed=4, count=3000))
    words = [Word(2, codes) for n in (1, 2) for codes, _, _ in iter_language_stats(n, 2)]
    cylinders = [(w, k) for w in words + list(DEAD) for k in (-1, 0, 5)]
    tallied = empirical_cylinders(samples, cylinders)
    assert tallied == [rescan_empirical_cylinder(samples, w, k) for w, k in cylinders]
    assert all(est.hits == 0 for est, (w, _) in zip(tallied, cylinders) if w in DEAD)
    assert sum(est.hits for est in tallied) > 0


INDEX_EVENTS = [(offset, js) for offset in (1, 2) for js in ((1,), (1, 2), (1, 2, 3))]


@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
def test_match_index_coincidences_equal_the_per_event_oracle(sampler):
    samples = list(SAMPLERS[sampler](2, -40, 0, seed=6, count=1500))
    tallied = match_index_coincidences(samples, INDEX_EVENTS)
    assert tallied == [rescan_match_index_coincidence(samples, c, js) for c, js in INDEX_EVENTS]
    assert all(est.trials > 0 for est in tallied)
    # the deepest event is unresolved on some windows that resolve the shallowest
    assert tallied[-1].excluded_unresolved > tallied[0].excluded_unresolved


def test_estimators_accept_one_shot_generators():
    def stream():
        return sample_tilde(2, -40, 5, seed=2, count=400)

    samples = list(stream())
    cylinders = [(Word.parse("a1 b1", 2), 0), (Word.parse("b2", 2), 5)]
    assert empirical_cylinders(stream(), cylinders) == empirical_cylinders(samples, cylinders)
    assert empirical_cylinders(stream(), cylinders[:1]) == [rescan_empirical_cylinder(samples, *cylinders[0])]
    assert match_index_coincidences(stream(), INDEX_EVENTS) == match_index_coincidences(samples, INDEX_EVENTS)
    assert match_index_coincidences(stream(), [(2, (1, 2))]) == [rescan_match_index_coincidence(samples, 2, (1, 2))]


def test_match_index_coincidence_validates_arguments():
    with pytest.raises(ValueError):
        match_index_coincidences([], [(0, [1])])
    with pytest.raises(ValueError):
        match_index_coincidences([], [(1, [])])
    with pytest.raises(ValueError):
        match_index_coincidences([], [(1, [0])])


def test_match_index_coincidence_hand_examples():
    samples = [
        PointWindow(2, -2, 0, (1, 1, -1)),  # types at -2,-1: 1,1 -> hit
        PointWindow(2, -2, 0, (2, 1, -1)),  # types at -2,-1: 2,1 -> miss
        PointWindow(2, -2, 0, (-1, 1, 1)),  # depth 2 never reached -> excluded
    ]
    (est,) = match_index_coincidences(samples, [(1, [1])])
    assert (est.hits, est.trials, est.excluded_unresolved) == (1, 2, 1)
    assert est.scanned == 3


def test_match_index_coincidence_seeded_run():
    samples = list(sample_tilde(2, -200, 0, seed=3, count=500))
    single, double = match_index_coincidences(samples, [(1, [1]), (2, [1, 2])])
    assert single.scanned == double.scanned == 500
    # under the coding measure the repeated-type events are fair coin flips
    assert single.sigma_distance(Fraction(1, 2)) < 4
    assert double.sigma_distance(Fraction(1, 4)) < 4
    assert single.trials == 445  # resolution is well below 1 and reproducible


# ------------------------------------------------------------ window read-out


def test_classifier_on_a_pure_opener_window():
    x = PointWindow(2, -2, 2, (1, 1, 1, 1, 1))
    d = classify_window(x)
    assert d.forward_label == "plus-infinity-like"
    assert d.backward_label == "minus-infinity-like"
    assert d.forward_score == pytest.approx(3 / 2**0.5)
    assert d.backward_score == pytest.approx(-(2**0.5))


def test_classifier_equals_the_height_cocycle_route():
    """On every golden-grid window, each half's letter count gives
    the same diagnostics as the re-anchored height tuple."""
    for x in golden_grid_windows():
        assert classify_window(x) == cocycle_window_diagnostics(x), x


def test_classifier_leaves_short_windows_undecided():
    d = classify_window(PointWindow(2, 0, 0, (1,)))
    assert d.forward_label == d.backward_label == "undecided"
    assert d.forward_score is None and d.backward_score is None


def test_classifier_separates_the_drifting_samplers():
    plus_ok = sum(
        1
        for x in sample_plus(2, -300, 300, seed=1, count=200)
        for d in [classify_window(x)]
        if (d.forward_label, d.backward_label)
        == ("plus-infinity-like", "minus-infinity-like")
    )
    minus_ok = sum(
        1
        for x in sample_minus(2, -300, 300, seed=1, count=200)
        for d in [classify_window(x)]
        if (d.forward_label, d.backward_label)
        == ("minus-infinity-like", "plus-infinity-like")
    )
    assert plus_ok >= 180
    assert minus_ok >= 180


def test_classifier_reads_the_neutral_sampler_as_recurrent():
    both = sum(
        1
        for x in sample_tilde(2, -300, 300, seed=1, count=200)
        for d in [classify_window(x)]
        if d.forward_label == d.backward_label == "minus-infinity-like"
    )
    assert both / 200 >= 0.55
