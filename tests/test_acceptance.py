"""Acceptance suite: one test per check of full `framedlie verify`.

The checks and their exact expected values live in `checks.verify_checks`.
"""

import pytest

from framedlie.checks import verify_checks
from framedlie.liesolver import load_ledger

CHECKS = list(verify_checks(quick=False, records=load_ledger()))


@pytest.mark.parametrize("check", [fn for _, fn in CHECKS], ids=[name for name, _ in CHECKS])
def test_verify_check(check):
    check()
