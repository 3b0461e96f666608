"""End-to-end acceptance gate: one test per criterion, tolerances pinned."""

import pytest

from thin_gasket import acceptance
from thin_gasket.walks import commute_time_check

NUMBERS = [row[0] for row in acceptance._TABLE]
NAMES = {row[0]: row[1] for row in acceptance._TABLE}

# Criterion 10's full-size walks, pinned bit for bit: (empirical_mean, stderr)
# of commute_time_check on (5,) at depths 0-2, 1e5 trials, seed 17.
C10_WALKS = {0: (3.99028, 0.006262559174369063),
             1: (164.84713, 0.3287508630846933),
             2: (6832.07894, 13.68349441489559)}
C10_DETAIL = ("commute identity within 4 stderr at 1e5 trials; "
              "depth 0 z -1.55; depth 1 z -1.48; depth 2 z -0.12")


@pytest.mark.parametrize("number", NUMBERS,
                         ids=[f"{n:02d}-{NAMES[n].replace(' ', '-')}"
                              for n in NUMBERS])
def test_criterion(number, monkeypatch):
    reports = []

    def recorded(*args, **kwargs):
        reports.append(commute_time_check(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(acceptance, "commute_time_check", recorded)
    result = acceptance.criterion(number)
    print(result.line)
    assert result.passed, result.line
    if number == 10:
        assert result.detail == C10_DETAIL
        assert {r["depth"]: (r["empirical_mean"], r["stderr"]) for r in reports} == C10_WALKS


def test_run_all_aggregates():
    results = acceptance.run_all(numbers={1, 2}, out=None)
    assert acceptance.all_passed(results)
    payload = acceptance.results_json(results)
    assert payload["passed"] is True
    assert [c["number"] for c in payload["criteria"]] == [1, 2]
    for c in payload["criteria"]:
        assert set(c) == {"number", "name", "passed", "elapsed_s",
                         "budget_s", "detail"}
