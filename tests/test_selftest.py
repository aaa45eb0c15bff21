"""The acceptance registry: ``_criterion`` times, budgets and lists C01–C12."""

import time

from lipfree import selftest


def test_all_criteria_lists_c01_to_c12_in_order():
    assert [c.cid for c in selftest.ALL_CRITERIA] == [f"C{k:02d}" for k in range(1, 13)]
    for k, criterion in enumerate(selftest.ALL_CRITERIA, start=1):
        assert criterion.__name__.startswith(f"c{k:02d}_")
        assert getattr(selftest, criterion.__name__) is criterion
    result = selftest.ALL_CRITERIA[6](limit=1)  # C07, the quickest
    assert (result.cid, result.name, result.passed) == ("C07", "reflection identity", True)


def test_budget_fails_a_check_that_runs_over_it(monkeypatch):
    monkeypatch.setattr(selftest, "ALL_CRITERIA", [])

    def check(limit):
        time.sleep(0.001)
        return True, f"limit {limit}"

    over = selftest._criterion("X01", "over budget", budget=0)(check)
    free = selftest._criterion("X02", "no budget")(check)
    assert selftest.ALL_CRITERIA == [over, free]

    result = over()
    assert not result.passed and result.elapsed > 0
    assert result.detail == f"limit None; exceeded 0s budget ({result.elapsed:.1f}s)"
    result = free(limit=3)
    assert result.passed and result.detail == "limit 3"
    assert result.line() == "X02 no budget: PASS (limit 3)"
