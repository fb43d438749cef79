"""The acceptance gate: every verification criterion, one test each.

Each test reads one named check at the default seed from the session's
single run of its suite and prints a single PASS/FAIL line with the
observed value.  Eleven criteria are true and their tests assert that the
check passed.

The other three are finite-size readings of the entropy claims, and at the
stated lengths they are false: the step entropy at n = 11 is 0.078182 nats
above its limit (the gap is (p_n/2) log 2 and first reaches 0.03 at
n = 85), it stays above log 3 until n = 21, and the length-14 per-letter
growth reading is 8.65% above log 3.  For these the test works out the
stated inequality itself, by routes that share no code with the check (the
branch-mixture closed form with ``math.comb``, and the ``pattern_sum`` count
oracle), and asserts that the check's verdict equals that truth value and
that its observed value or detail lines report the same figures.  A widened
threshold or a wrong figure in a check therefore fails its test.
"""

import math
import re
from fractions import Fraction
from itertools import count

import pytest

from dyckshift.verification import SUITES

from conftest import pattern_sum

CRITERIA = (
    "cylinder-consistency",
    "balanced-law",
    "block-swap-exact",
    "entropy-identity",
    "entropy-limit-gap",
    "entropy-below-topological",
    "balanced-counts",
    "growth-rate",
    "extension-mass",
    "sampler-law-exact",
    "sampler-formula",
    "shift-invariance",
    "plus-invariance",
    "index-coincidence",
)

LOG2 = math.log(2)
LOG3 = math.log(3)


def step_entropy_nats(n: int) -> float:
    """h_n for m = 2 from the branch mixture: (1 + (1 + p_n)/2) log 2.

    ``p_n = C(n, floor(n/2)) / 2^n``; the identity with the enumerated step
    entropy is checked exactly in ``test_measures.py``.
    """
    p = Fraction(math.comb(n, n // 2), 2**n)
    return float(1 + (1 + p) / 2) * LOG2


def entropy_limit_gap_finding() -> tuple[bool, tuple[str, ...]]:
    """|h_11 - 1.5 log 2| <= 0.03, and the first n where the gap gets there."""
    h11 = step_entropy_nats(11)
    gap = abs(h11 - 1.5 * LOG2)
    first_within = next(
        n for n in count(11) if abs(step_entropy_nats(n) - 1.5 * LOG2) <= 0.03
    )
    return gap <= 0.03, (
        f"|h_11 - limit| = {gap:.6f} nats",
        f"log 2 = {h11:.6f} nats exactly",
        f"first reaches 0.03 nats at n = {first_within}",
    )


def entropy_below_topological_finding() -> tuple[bool, tuple[str, ...]]:
    """h_n < log 3 for every n <= 11, and the first n where it holds."""
    values = [step_entropy_nats(n) for n in range(12)]
    first_below = next(n for n in count() if step_entropy_nats(n) < LOG3)
    return all(v < LOG3 for v in values), (
        *(f"h_{n} = {values[n]:.6f} nats" for n in (9, 10, 11)),
        f"log 3 = {LOG3:.6f}; monotone decrease first crosses below it at n = {first_below}",
    )


def growth_rate_finding() -> tuple[bool, tuple[str, ...]]:
    """log|L(14)|/14 within 5% of log 3, and the successive-ratio reading."""
    total_14 = pattern_sum(14, 2)
    total_13 = pattern_sum(13, 2)
    rate = math.log(total_14) / 14
    rel = abs(rate - LOG3) / LOG3
    ratio_rate = math.log(total_14 / total_13)
    return rel <= 0.05, (
        f"relative gap {rel:.2%}",
        f"|L(14)| = {total_14} exactly",
        f"log|L(14)|/14 = {rate:.6f} nats",
        f"= {ratio_rate:.6f} nats ({abs(ratio_rate - LOG3) / LOG3:.2%} from log 3)",
    )


FINITE_SIZE_FINDINGS = {
    "entropy-limit-gap": entropy_limit_gap_finding,
    "entropy-below-topological": entropy_below_topological_finding,
    "growth-rate": growth_rate_finding,
}


def test_criteria_registry_is_complete():
    assert SUITES["all"] == CRITERIA


@pytest.mark.parametrize("key", CRITERIA)
def test_criterion(key, request):
    suite = "exact" if key in SUITES["exact"] else "sampling"
    result = request.getfixturevalue(f"{suite}_check_results")[key]
    status = "PASS" if result.ok else "FAIL"
    print(f"{status} {key}: {result.observed}")
    finding = FINITE_SIZE_FINDINGS.get(key)
    if finding is None:
        assert result.ok, (
            f"{key}: observed {result.observed} (expected {result.expected}); "
            + "; ".join(result.detail)
        )
        return
    truth, figures = finding()
    assert result.ok == truth, f"{key}: verdict {result.ok}, but the criterion is {truth}"
    reported = (result.observed, *result.detail)
    for figure in figures:
        # a figure must match whole: "n = 21" is not reported by "n = 210"
        pattern = re.escape(figure) + r"(?!\d)"
        assert any(re.search(pattern, line) for line in reported), (
            f"{key}: nothing reports {figure!r}; got {reported}"
        )
