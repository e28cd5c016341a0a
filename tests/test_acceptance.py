"""Acceptance gate: the ten numbered checks, one test and one printed
PASS/FAIL line per criterion.

Profile defaults to "standard"; set HILBLOC_ACCEPT_PROFILE=quick|standard|long
to change it.  The FAIL path of every check, and the exit code 1 of
`hilbloc verify` that follows, are pinned under the quick profile.
"""

import os
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from hilbloc import cli, verify
from hilbloc.localization import chern_numbers_hilb, enumerate_fixed_points, one_ps_ladder, tangent_weights
from hilbloc.toric import blowup, p1xp1, p2
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
    with pytest.raises(AttributeError):
        a.detail = "changed"
    assert a != b and repr(a) == "CheckResult(number=4, name='chi', passed=True, detail='', warnings=['w'])"
    with pytest.raises(TypeError):
        hash(a)
    assert_record(PROFILES["quick"], "name small_n order thm1_n euler_n univ_warn_n",
                  PROFILES["standard"])


def test_checks_3_and_9_share_their_chern_vectors():
    # check 9's xi side is check 3's call: P1xP1 and the blowup, n <= 3
    chern_numbers_hilb.cache_clear()
    verify.run_all("quick")
    assert chern_numbers_hilb.cache_info().hits >= 8


def _weight_multisets(model, n, spec):
    """The multiset, over the fixed points of Hilb^n, of each point's
    multiset of tangent weights at the 1-PS spec: all that a residue sum at
    spec reads."""
    return Counter(
        tuple(sorted(a * spec[0] + b * spec[1] for a, b in tangent_weights(model, fp)))
        for fp in enumerate_fixed_points(model, n)
    )


def test_check_9_compares_two_ladders_that_differ(monkeypatch):
    # on p2, p1xp1 and blowup:p2:0 swapping the coordinates is a symmetry of
    # the fan, so each eta 1-PS (B, 1) sums the weights of the xi 1-PS (1, B)
    # and comparing the ladders there catches only a fault that breaks the
    # swap; on blowup:blowup:p2:0:1 the two ladders sum different weights
    symmetric = (p2(), p1xp1(), blowup(p2(), 0))
    five_rays = blowup(blowup(p2(), 0), 1)
    for model in (*symmetric, five_rays):
        for n in (2, 3):
            pairs = zip(one_ps_ladder(model, n, "xi"), one_ps_ladder(model, n, "eta"))
            same = [_weight_multisets(model, n, xi) == _weight_multisets(model, n, eta) for xi, eta in pairs]
            assert same == [model in symmetric] * 2, (model.name, n)
    # and check 9 compares the ladders on that fan, at every n <= 3
    calls = []

    def recorded(model, n, ladder="xi"):
        calls.append((model.name, n, ladder))
        return chern_numbers_hilb(model, n, ladder)

    monkeypatch.setattr(verify, "chern_numbers_hilb", recorded)
    assert CHECKS[8](PROFILES["quick"]).passed
    assert [(n, ladder) for name, n, ladder in calls if name == five_rays.name] == [
        (n, ladder) for n in range(4) for ladder in ("xi", "eta")
    ]


_FALSE_IDENTITIES = dict.fromkeys(("f0_closed_form", "g_is_g1_pow_y", "f_is_g1_pow_y_times_f0", "g_prime"), False)

# check number -> (a name the check reads, a value that fails its first gate, the FAIL line)
FAILURES = {
    1: ("log_a_reference", lambda r, order: [Fraction(1)] * (order + 1),
        "FAIL   1 twist series: log A_-3 wrong at z^0"),
    2: ("K3_CHERN", {2: {(4,): 325}},
        "FAIL   2 K3 Chern numbers: n=2, (4,): 324 != 325"),
    3: ("blowup", lambda model, chart_index: model,
        "FAIL   3 Theorem 1 (blowup vs P1xP1): differ at n=1"),
    4: ("binomial", lambda a, b: -1,
        "FAIL   4 chi(L_n x E^r) lemma: n=1, k=0"),
    5: ("chi_y_hilb", lambda model, order, route: route,
        "FAIL   5 chi_-y generating series: routes differ for p2"),
    6: ("phi_nk_closed_form", lambda phi_s, order: None,
        "FAIL   6 phi_N,k generating series: (1, 0) on P2"),
    7: ("fg_identities", lambda a, ys, order: [_FALSE_IDENTITIES] * len(ys),
        "FAIL   7 power-series lemma: f_0,0 closed form"),
    8: ("integrate", lambda model, n, integrand: -1,
        "FAIL   8 tautological chi: n=1, k=0"),
    9: ("chern_numbers_hilb", lambda model, n, ladder="xi": ladder,
        "FAIL   9 engine self-consistency: ladders differ: p2, n=0"),
    10: ("universal_chern_poly", lambda n: SimpleNamespace(numbers=(((2,), -1),)),
         "FAIL  10 universal polynomial nonnegativity: negative coefficient in P_(2,), n=1"),
}


@pytest.mark.parametrize("number", sorted(FAILURES))
def test_a_failed_gate_prints_its_fail_line(number, monkeypatch):
    name, value, line = FAILURES[number]
    monkeypatch.setattr(verify, name, value)
    res = CHECKS[number - 1](PROFILES["quick"])
    assert not res.passed and res.warnings == [] and res.line() == line


def test_check_10_prints_its_warn_line(monkeypatch):
    # a negative coefficient at the warning pass's n only warns
    monkeypatch.setattr(
        verify, "universal_chern_poly", lambda n: SimpleNamespace(numbers=(((2,), -1 if n == 5 else 1),))
    )
    res = CHECKS[9](PROFILES["standard"])
    assert res.passed
    assert res.line() == (
        "PASS  10 universal polynomial nonnegativity: all P_la coefficients >= 0 for n <= 4\n"
        "      WARN P_(2,) has a negative coefficient at n=5"
    )


def test_verify_exits_1_on_a_failed_check(monkeypatch, capsys):
    name, value, line = FAILURES[7]
    monkeypatch.setattr(verify, name, value)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--profile", "quick"])
    assert exc.value.code == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[6] == line and len(lines) == 10
    assert [n for n, out in enumerate(lines, 1) if out.startswith("PASS ")] == [1, 2, 3, 4, 5, 6, 8, 9, 10]
