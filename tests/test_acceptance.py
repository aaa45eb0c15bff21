"""Acceptance gate: every criterion at full scale, one pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines; the
same registry, ``selftest.ALL_CRITERIA``, backs the ``lipfree selftest``
CLI command, so a criterion registered there runs here too.
"""

import pytest

from lipfree import selftest


@pytest.mark.parametrize("criterion", selftest.ALL_CRITERIA, ids=lambda c: c.cid)
def test_criterion(criterion):
    result = criterion()
    print(result.line(include_elapsed=True))
    assert result.passed, result.line(include_elapsed=True)
