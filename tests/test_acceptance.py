"""Acceptance gate: every headline criterion, one line each.

Criteria 6a and 6b assert a hand-derived skew for a lone delaying node.
The full-cycle solve provably cancels a symmetric delay (the solved
edge lands on truth, no pair mismatch), so those two stay expected
failures; strict xfail turns them into loud errors the day the claimed
behavior ever materializes.  Everything else must pass.
"""
import pytest

from gdbsim.acceptance import CRITERIA, format_table, run_suite, suite_ok
from gdbsim.proto import pairwise

EXPECTED_PASS = [c[0] for c in CRITERIA if c[3]]
EXPECTED_FAIL = [c[0] for c in CRITERIA if not c[3]]


@pytest.fixture(scope="module")
def suite():
    results = run_suite(quick=True)
    print()
    print(format_table(results))
    return {r.label: r for r in results}


def test_every_criterion_ran(suite):
    assert sorted(suite) == sorted(c[0] for c in CRITERIA)
    assert len(suite) == 11


@pytest.mark.parametrize("label", EXPECTED_PASS)
def test_criterion(suite, label):
    result = suite[label]
    print(result.line())
    assert result.passed, result.line()


@pytest.mark.parametrize("label", EXPECTED_FAIL)
@pytest.mark.xfail(
    strict=True,
    reason="symmetric single-node delay cancels in the full-cycle solve; "
    "the asserted skew and flag cannot occur (see the collusion variant 6c)",
)
def test_documented_gap(suite, label):
    result = suite[label]
    print(result.line())
    assert result.passed, result.line()


def test_suite_summary_is_honest(suite):
    results = list(suite.values())
    passed = sum(1 for r in results if r.passed)
    assert passed == len(EXPECTED_PASS) == 9
    # the verify command must NOT report success while any line is red
    assert suite_ok(results) is False
    footer = format_table(results).splitlines()[-1]
    assert footer == "9/11 criteria passed"


def test_passive_criteria_price_through_the_one_way_driver(monkeypatch):
    # every passive bound the one-way driver prices comes out 1 mm long
    priced = pairwise.passive_bounds

    def long_by_a_millimetre(ctx, row, watchers):
        others, best, rounds = priced(ctx, row, watchers)
        return others, best + 1e-3, rounds

    monkeypatch.setattr(pairwise, "passive_bounds", long_by_a_millimetre)
    results = run_suite(quick=True, labels=["3", "8"])
    assert [(r.label, r.passed) for r in results] == [("3", False), ("8", False)]
    assert not any(r.detail.startswith("raised") for r in results)
