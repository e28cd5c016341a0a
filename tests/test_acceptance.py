"""Acceptance gate: the ten numbered checks, one test and one printed
PASS/FAIL line per criterion.

Profile defaults to "standard"; set HILBLOC_ACCEPT_PROFILE=quick|standard|long
to change it.
"""

import os

import pytest

from hilbloc.verify import CHECKS, PROFILES, CheckResult
from record_oracle import assert_record

PROFILE = os.environ.get("HILBLOC_ACCEPT_PROFILE", "standard")

_results = {}


def _run(number, capsys):
    if number not in _results:
        res = CHECKS[number - 1](PROFILES[PROFILE])
        _results[number] = res
        with capsys.disabled():
            print("\n" + res.line(), flush=True)
    return _results[number]


@pytest.mark.parametrize(
    "number,name",
    [
        (1, "twist series vs printed tables"),
        (2, "K3 Chern numbers"),
        (3, "theorem 1: blowup vs P1xP1"),
        (4, "chi(L_n x E^r) binomial lemma"),
        (5, "chi_-y generating series"),
        (6, "phi_N,k generating series"),
        (7, "power-series lemma"),
        (8, "tautological chi"),
        (9, "engine self-consistency"),
        (10, "universal polynomial nonnegativity"),
    ],
)
def test_acceptance_criterion(number, name, capsys):
    res = _run(number, capsys)
    assert res.passed, f"criterion {number} ({name}): {res.detail}"


def test_check_results_and_profiles_are_records():
    a, b = CheckResult(4, "chi", True), CheckResult(4, "chi", True)
    assert a == b and a.warnings is not b.warnings
    a.warnings.append("w")
    a.detail = "changed"
    assert a != b and repr(a) == "CheckResult(number=4, name='chi', passed=True, detail='changed', warnings=['w'])"
    with pytest.raises(TypeError):
        hash(a)
    assert_record(PROFILES["quick"], "name twist_order k3_n thm1_n chiv_n phi_n chifn_n euler_n univ_n univ_warn_n",
                  PROFILES["standard"])
