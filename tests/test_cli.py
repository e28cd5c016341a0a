import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hilbloc
from hilbloc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    return payload


def test_chern_p2_n2(capsys):
    payload = run_json(capsys, "chern", "--surface", "p2", "--n", "2")
    assert payload["numbers"]["4"] == "9"
    assert list(payload["numbers"]) == ["4", "3,1", "2,2", "2,1,1", "1,1,1,1"]


def test_chern_csv(capsys):
    code, out = run(capsys, "chern", "--surface", "p2", "--n", "1", "--csv")
    assert code == 0
    assert out.splitlines() == ["partition,value", "2,3", "1,1,9"]


def test_chern_deterministic(capsys):
    a = run_json(capsys, "chern", "--surface", "p1xp1", "--n", "2")
    b = run_json(capsys, "chern", "--surface", "p1xp1", "--n", "2")
    assert a == b


def test_twist_series_trivial(capsys):
    payload = run_json(capsys, "twist-series", "--r", "1", "--order", "5")
    assert all(c == "0" for c in payload["logA"])
    assert payload["B"] == ["1", "0", "0", "0", "0", "0"]
    assert "unverified_orders" not in payload


def test_twist_series_unverified_marker(capsys):
    payload = run_json(capsys, "twist-series", "--r", "0", "--order", "6")
    assert payload["unverified_orders"] == [6]


def test_chi(capsys):
    payload = run_json(capsys, "chi", "--surface", "p2", "--n", "3", "--k", "2", "--r", "1")
    assert payload["chi"] == "20"
    # --k on P1xP1 is a bidegree: h0(O(1,2)) = 2 * 3
    payload = run_json(capsys, "chi", "--surface", "p1xp1", "--n", "1", "--k", "1,2")
    assert payload["bundle"] == [1, 2, 0, 0]
    assert payload["chi"] == "6"


def test_chi_bundle_ray_coeffs(capsys):
    payload = run_json(
        capsys, "chi", "--surface", "blowup:p2:0", "--n", "1", "--bundle", "2,1,0,0"
    )
    assert payload["chi"] == "5"


def test_universal(capsys):
    payload = run_json(capsys, "universal", "--n", "1")
    assert payload["polynomials"]["2"] == {"c2": "1"}
    assert payload["polynomials"]["1,1"] == {"c1sq": "1"}


def test_betti(capsys):
    payload = run_json(capsys, "betti", "--model", "P2", "--n", "1")
    assert payload["betti"] == {"0": 1, "2": 1, "4": 1}


def test_genus_k3(capsys):
    payload = run_json(capsys, "genus", "--genus", "phi:2:1", "--k3", "--n", "2")
    assert [v["value"] for v in payload["values"]] == ["1", "2", "3"]


def test_series_id(capsys):
    payload = run_json(capsys, "series-id", "--a", "2", "--y", "-1", "--order", "10")
    assert payload["holds"] is True


def test_long_gate(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chern", "--surface", "p2", "--n", "6"])
    assert exc.value.code == 2


def test_invalid_surface(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chern", "--surface", "p5", "--n", "1"])
    assert exc.value.code == 2


def test_missing_bundle(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chi", "--surface", "p2", "--n", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["series-id", "--a", "1", "--y", "1/0"],
        ["series-id", "--a", "1", "--y", "half"],
        ["chi", "--surface", "p2", "--n", "1", "--k", "1,2,3,4,5"],
        ["chi", "--surface", "p2", "--n", "1", "--k", "1,2"],
        ["chi", "--surface", "p1xp1", "--n", "1", "--k", "1"],
        ["chi", "--surface", "blowup:p2:0", "--n", "1", "--k", "1"],
        ["chi", "--surface", "p2", "--n", "1", "--k", "one"],
        ["chi", "--surface", "p2", "--n", "1", "--bundle", "1,2"],
        ["series-id", "--a", "1", "--order", "0"],
        ["series-id", "--a", "1", "--order", "61"],
        ["series-id", "--a", "101"],
        ["series-id", "--a", "-1"],
        ["twist-series", "--r", "2", "--order", "11", "--long"],
        ["genus", "--genus", "phi:2:5", "--k3", "--n", "2"],
        ["genus", "--genus", "phi:2", "--k3", "--n", "2"],
    ],
)
def test_input_errors_exit_2(argv):
    proc = run_cli(argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr
    assert proc.stdout == ""


def run_cli(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(hilbloc.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "hilbloc.cli", *argv], capture_output=True, text=True, env=env
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["genus", "--genus", "phi:2:5", "--k3", "--n", "2"], "require 0 <= k <= N"),
        (["genus", "--genus", "phi:2", "--k3", "--n", "2"], "phi genus spec must be phi:N:k"),
        (["series-id", "--a", "1", "--order", "0"], "--order must be in 1..60"),
        (["series-id", "--a", "101"], "--a must be in 0..100"),
        (["twist-series", "--r", "2", "--order", "11", "--long"], "order > 10 is not supported"),
    ],
)
def test_input_error_messages(argv, message):
    proc = run_cli(argv)
    assert proc.returncode == 2
    assert message in proc.stderr


def test_series_id_order_one(capsys):
    payload = run_json(capsys, "series-id", "--a", "1", "--order", "1")
    assert payload["holds"] is True
