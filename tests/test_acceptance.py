"""Acceptance gate: every numbered criterion at full size.

Each test runs one criterion end to end, prints a single pass/fail
line with its measured detail, and fails if the criterion does.  Run
with ``-s`` (or read the captured output on failure) to see the lines.
"""

import pytest

from artifact import provers
from artifact.acceptance import CRITERIA, criterion_6, run_criterion

# wall-clock cap in seconds; 5 s for every criterion not listed
TIME_CAPS = {1: 1.0}


@pytest.mark.parametrize(
    "number,title",
    [(num, title) for num, title, _ in CRITERIA],
    ids=[f"criterion_{num:02d}" for num, _, _ in CRITERIA])
def test_criterion(number, title, capsys):
    result = run_criterion(number)
    status = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(f"{status} {result.number:02d} {result.title} "
              f"[{result.seconds:.1f}s] {result.detail}")
    assert result.passed, f"criterion {number} failed: {result.detail}"
    cap = TIME_CAPS.get(number, 5.0)
    assert result.seconds < cap, (
        f"criterion {number} took {result.seconds:.1f}s, cap {cap:.0f}s")


def test_every_criterion_is_numbered_once():
    numbers = [num for num, _, _ in CRITERIA]
    assert numbers == list(range(1, 13))


def test_criterion_6_fails_when_the_engine_swaps_branch_probabilities(monkeypatch):
    branches = provers.TreeWalk.branches

    def swapped(self, v, label):
        for outcome, prob, walk in branches(self, v, label):
            yield outcome, 1.0 - prob, walk

    monkeypatch.setattr(provers.TreeWalk, "branches", swapped)
    passed, detail = criterion_6()
    assert not passed, detail
