"""Acceptance suite: every criterion at its stated tolerance.

Each test prints its pass/fail line; the suite is the package's exit gate.
Deterministic seeds throughout.
"""

import pytest

from wpl import acceptance as acc


@pytest.mark.parametrize("name", list(acc.ALL_CHECKS))
def test_acceptance_criterion(name):
    (result,) = acc.run_checks([name])
    assert result.passed, result.line()
