"""The verify runner and the wording of check results."""

import dataclasses
from fractions import Fraction

from dyckshift import verification
from dyckshift.measures import LogPair
from dyckshift.verification import run_check


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


def test_below_topological_counts_lengths_when_only_some_are_above(monkeypatch):
    real = verification.entropy_report

    def fake(n, m=2):
        rep = real(n, m)
        # from n = 6 on, pretend h_n = log 2 < log 3
        return rep if n < 6 else dataclasses.replace(rep, step=LogPair(Fraction(1), Fraction(0)))

    monkeypatch.setattr(verification, "entropy_report", fake)
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
