import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hilbloc
from hilbloc.cli import _COMMANDS, build_parser, main
from hilbloc.toric import build_model
from profile_counts import example_count


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
    assert out.splitlines() == ["partition,value", "2,3", '"1,1",9']


@pytest.mark.parametrize(
    "argv",
    [
        ["chern", "--surface", "p2", "--n", "2"],
        ["universal", "--n", "2"],
        ["betti", "--model", "P2", "--n", "2"],
        ["chi", "--surface", "p2", "--n", "2", "--k", "1", "--r", "1"],
        ["twist-series", "--r", "2", "--order", "3"],
        ["genus", "--genus", "todd", "--surface", "p1xp1", "--n", "2"],
        ["genus", "--genus", "chi_y", "--model", "P2", "--n", "2"],
        ["series-id", "--a", "1", "--y", "1/2", "--order", "5"],
    ],
)
def test_csv_rows_have_one_field_per_column(capsys, argv):
    code, out = run(capsys, *argv, "--csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert rows
    assert all(len(row) == len(header) for row in rows)


def test_chern_deterministic(capsys):
    a = run_json(capsys, "chern", "--surface", "p1xp1", "--n", "2")
    b = run_json(capsys, "chern", "--surface", "p1xp1", "--n", "2")
    assert a == b


def test_a_failed_fit_exits_3_as_a_consistency_error(capsys, monkeypatch):
    import hilbloc.cli as cli
    from hilbloc.localization import ConsistencyError
    from hilbloc.universal import FitError

    def fail(n):
        raise FitError("sixth-point consistency failed at order 2")

    assert issubclass(FitError, ConsistencyError)
    monkeypatch.setattr(cli, "universal_chern_poly", fail)
    assert main(["universal", "--n", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "internal inconsistency: sixth-point consistency failed at order 2\n"


def test_a_betti_count_the_ladder_disputes_exits_3(capsys, monkeypatch):
    from hilbloc.toric import p2
    from test_genera import flip_at_second_spec

    flip_at_second_spec(monkeypatch, p2(), 2)
    assert main(["betti", "--model", "P2", "--n", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal inconsistency: specializations ") and "disagree" in captured.err


@pytest.mark.parametrize("chart", range(3))
def test_chern_on_four_rays_runs_on_p1xp1(capsys, monkeypatch, chart):
    # F_1 has the class (8, 4) of P1xP1, so `chern` sums on P1xP1's fan, on
    # the ladder asked for, and echoes the surface as given; the numbers are
    # those of the residue sums on F_1's own fan
    import hilbloc.cli as cli
    from hilbloc.localization import chern_numbers_hilb
    from hilbloc.partitions import partition_key
    from hilbloc.rings import format_fraction
    from hilbloc.toric import p1xp1

    calls = []
    monkeypatch.setattr(cli, "chern_numbers_hilb", lambda *args: calls.append(args) or chern_numbers_hilb(*args))
    spec = f"blowup:p2:{chart}"
    for n in range(5):
        for ladder in ("xi", "eta"):
            payload = run_json(capsys, "chern", "--surface", spec, "--n", str(n), "--ladder", ladder)
            assert payload == {**run_json(capsys, "chern", "--surface", "p1xp1", "--n", str(n), "--ladder", ladder), "surface": spec}
            assert calls[-2:] == [(p1xp1(), n, ladder)] * 2
            own = chern_numbers_hilb(build_model(spec), n, ladder)
            assert payload["numbers"] == {partition_key(la): format_fraction(v) for la, v in own.numbers}


@pytest.mark.parametrize("spec", ["blowup:p1xp1:0", "blowup:blowup:p2:0:1", "blowup:blowup:blowup:p1xp1:0:0:0"])
def test_chern_on_five_to_seven_rays_reads_the_models_series(capsys, monkeypatch, spec):
    # (c1^2, c2) = (12 - e, e): `chern` reads the class back from H(S) of P2
    # and P1xP1, each pass on the ladder asked for, never walking the fan's
    # own fixed points; the numbers are those of the residue sums on the fan
    import hilbloc.cli as cli
    import hilbloc.localization as loc
    from hilbloc.partitions import partition_key
    from hilbloc.rings import format_fraction
    from hilbloc.toric import p1xp1, p2

    passes, run_pass = [], loc._monomial_sums

    def spy(model, n, order, ladder, *args, **kwargs):
        passes.append((model, ladder))
        return run_pass(model, n, order, ladder, *args, **kwargs)

    monkeypatch.setattr(loc, "_monomial_sums", spy)
    monkeypatch.setattr(cli, "chern_numbers_hilb", None)
    n = 3
    for ladder in ("xi", "eta"):
        for model in (p2(), p1xp1()):
            for m in range(n + 1):
                loc._hilb_betas.pop((model, m, ladder), None)
        passes.clear()
        payload = run_json(capsys, "chern", "--surface", spec, "--n", str(n), "--ladder", ladder)
        assert set(passes) == {(p2(), ladder), (p1xp1(), ladder)}
        own = loc.chern_numbers_hilb(build_model(spec), n, ladder)
        assert payload["numbers"] == {partition_key(la): format_fraction(v) for la, v in own.numbers}


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


def test_series_id_negative_fraction_after_equals_sign(capsys):
    # "--y -1/2" reads -1/2 as an option, so a negative p/q follows "="
    payload = run_json(capsys, "series-id", "--a", "1", "--y=-1/2", "--order", "5")
    assert payload["y"] == "-1/2" and payload["holds"] is True


def test_long_gate(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chern", "--surface", "p2", "--n", "6"])
    assert exc.value.code == 2


def test_invalid_surface(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chern", "--surface", "p5", "--n", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hilbloc")
    assert "error: --surface p5: unknown surface spec 'p5'" in err


def test_missing_bundle(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chi", "--surface", "p2", "--n", "1"])
    assert exc.value.code == 2


def numbered(k, argv, *message):
    """One input-error case with the fixed id argv<k>, then its message if
    it has one: a new case takes a new k and renames no other."""
    return pytest.param(argv, *message, id="-".join([f"argv{k}", *message]))


# p2 blown up four times, one level past the CLI bound
DEPTH_4 = "blowup:blowup:blowup:blowup:p2:0:0:0:0"


@pytest.mark.parametrize(
    "argv",
    [
        numbered(0, ["series-id", "--a", "1", "--y", "1/0"]),
        numbered(1, ["series-id", "--a", "1", "--y", "half"]),
        numbered(2, ["chi", "--surface", "p2", "--n", "1", "--k", "1,2,3,4,5"]),
        numbered(3, ["chi", "--surface", "p2", "--n", "1", "--k", "1,2"]),
        numbered(4, ["chi", "--surface", "p1xp1", "--n", "1", "--k", "1"]),
        numbered(5, ["chi", "--surface", "blowup:p2:0", "--n", "1", "--k", "1"]),
        numbered(6, ["chi", "--surface", "p2", "--n", "1", "--k", "one"]),
        numbered(7, ["chi", "--surface", "p2", "--n", "1", "--bundle", "1,2"]),
        numbered(8, ["series-id", "--a", "1", "--order", "0"]),
        numbered(9, ["series-id", "--a", "1", "--order", "61"]),
        numbered(10, ["series-id", "--a", "101"]),
        numbered(11, ["series-id", "--a", "-1"]),
        numbered(12, ["twist-series", "--r", "2", "--order", "11", "--long"]),
        numbered(13, ["genus", "--genus", "phi:2:5", "--k3", "--n", "2"]),
        numbered(14, ["genus", "--genus", "phi:2", "--k3", "--n", "2"]),
        numbered(15, ["series-id", "--a", "1", "--y", "9" * 41]),
        numbered(16, ["series-id", "--a", "1", "--y", "1/" + "7" * 41]),
        numbered(17, ["series-id", "--a", "1", "--y", "1e999999999"]),
        numbered(18, ["universal", "--n", "2", "--ladder", "eta"]),
        numbered(19, ["betti", "--model", "P2", "--n", "2", "--ladder", "eta"]),
        numbered(20, ["genus", "--genus", "todd", "--k3", "--n", "2", "--ladder", "eta"]),
        numbered(21, ["genus", "--genus", "euler", "--surface", "p2", "--k3", "--n", "2"]),
        numbered(22, ["genus", "--genus", "chi_y", "--model", "P2", "--surface", "p1xp1", "--n", "2"]),
        numbered(23, ["genus", "--genus", "todd", "--model", "P2", "--k3", "--n", "2"]),
        numbered(24, ["genus", "--genus", "todd", "--model", "P2", "--n", "3"]),
        numbered(25, ["genus", "--genus", "euler", "--n", "3"]),
        numbered(26, ["chi", "--surface", "p2", "--n", "2", "--k", "5", "--bundle", "1,0,0"]),
        numbered(27, ["twist-series", "--r", "9" * 41, "--order", "3"]),
        numbered(28, ["twist-series", "--r", "9" * 4001, "--order", "3"]),
        numbered(29, ["chi", "--surface", "p2", "--n", "1", "--k", "9" * 4001]),
        numbered(30, ["chi", "--surface", "p2", "--n", "1", "--k", "1", "--r", "-" + "9" * 41]),
        numbered(31, ["chi", "--surface", "p1xp1", "--n", "1", "--k", "1,-" + "9" * 41]),
        numbered(32, ["chi", "--surface", "p2", "--n", "1", "--bundle", "0,0," + "9" * 41]),
        numbered(33, ["genus", "--genus", "phi:" + "9" * 41 + ":1", "--surface", "p2", "--n", "1"]),
        numbered(34, ["genus", "--genus", "phi:2:-" + "9" * 41, "--k3", "--n", "1"]),
        numbered(35, ["genus", "--genus", "phi:" + "9" * 3000 + ":1", "--surface", "p2", "--n", "1"]),
        numbered(36, ["genus", "--genus", "phi:" + "9" * 5000 + ":1", "--k3", "--n", "1"]),
        numbered(37, ["chern", "--surface", DEPTH_4, "--n", "1"]),
        numbered(38, ["chi", "--surface", DEPTH_4, "--n", "1", "--bundle", "1,0,0,0,0,0,0"]),
        numbered(39, ["genus", "--genus", "todd", "--surface", DEPTH_4, "--n", "1"]),
        numbered(40, ["chern", "--surface", "blowup:" * 3000 + "p2" + ":0" * 3000, "--n", "1"]),
        numbered(41, ["genus", "--genus", "phi:0:0", "--surface", "p2", "--n", "2"]),
        # int() and Fraction() read these as 10, 1, 3, 10 and 1000; the CLI refuses them
        numbered(42, ["chi", "--surface", "p2", "--n", "1", "--k", "1", "--r", "1_0"]),
        numbered(43, ["chi", "--surface", "p2", "--n", "1", "--k", "\u0661"]),
        numbered(44, ["chern", "--surface", "p2", "--n", "\u0663"]),
        numbered(45, ["genus", "--genus", "phi:1_0:1", "--surface", "p2", "--n", "1"]),
        numbered(46, ["series-id", "--a", "1", "--y", "1_000"]),
        numbered(47, ["series-id", "--a", "1", "--y", "\u0661/\u0662"]),
        numbered(48, ["series-id", "--a", "1", "--y", " 1"]),
        numbered(49, ["chern", "--surface", "p2", "--n", " 1"]),
        numbered(50, ["twist-series", "--r", "2", "--order", "0_3"]),
        numbered(51, ["series-id", "--a", "1_0"]),
        numbered(52, ["chi", "--surface", "p2", "--n", "1", "--bundle", "1,0,0_0"]),
        numbered(53, ["genus", "--genus", "phi:2:\u0661", "--k3", "--n", "1"]),
        # one spelling per genus: int() reads these as phi:2:1
        numbered(54, ["genus", "--genus", "phi:02:+1", "--k3", "--n", "1"]),
        numbered(55, ["genus", "--genus", "phi:+2:01", "--surface", "p2", "--n", "1"]),
        # int() reads these chart indices as 1; build_model takes the digits 0-9 only
        numbered(56, ["chern", "--surface", "blowup:p2:0_1", "--n", "1"]),
        numbered(57, ["chern", "--surface", "blowup:p2: 1", "--n", "1"]),
        numbered(58, ["chern", "--surface", "blowup:p2:+1", "--n", "1"]),
        numbered(59, ["chern", "--surface", "blowup:p2:\u0661", "--n", "1"]),
        # surface names are lower case, without blanks
        numbered(60, ["chern", "--surface", " P2 ", "--n", "1"]),
        numbered(61, ["chern", "--surface", "P2", "--n", "1"]),
        numbered(62, ["chern", "--surface", "BLOWUP:P2:0", "--n", "1"]),
        # a chart index past the last chart of the fan
        numbered(63, ["chern", "--surface", "blowup:p2:3", "--n", "1"]),
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
        numbered(0, ["genus", "--genus", "phi:2:5", "--k3", "--n", "2"], "require 0 <= k <= N"),
        numbered(1, ["genus", "--genus", "phi:2", "--k3", "--n", "2"], "phi genus spec must be phi:N:k"),
        numbered(2, ["series-id", "--a", "1", "--order", "0"], "--order must be in 1..60"),
        numbered(3, ["series-id", "--a", "101"], "--a must be in 0..100"),
        numbered(4, ["twist-series", "--r", "2", "--order", "11", "--long"], "order > 10 is not supported"),
        numbered(5, ["series-id", "--a", "1", "--y", "9" * 41], "at most 40 digits"),
        numbered(6, ["twist-series", "--r", "9" * 4001, "--order", "3"], "--r must have at most 40 digits"),
        numbered(7, ["chi", "--surface", "p2", "--n", "1", "--k", "9" * 41], "each --k entry must have at most 40 digits"),
        numbered(
            8,
            ["genus", "--genus", "phi:" + "9" * 3000 + ":1", "--surface", "p2", "--n", "1"],
            "N in --genus phi:N:k must have at most 40 digits",
        ),
        numbered(
            9, ["genus", "--genus", "phi:2:" + "9" * 41, "--k3", "--n", "1"], "k in --genus phi:N:k must have at most 40 digits"
        ),
        numbered(10, ["chern", "--surface", DEPTH_4, "--n", "1"], "--surface nests at most 3 blowup: levels"),
        numbered(
            11,
            ["genus", "--genus", "phi:" + "9" * 5000 + ":1", "--k3", "--n", "1"],
            "N in --genus phi:N:k must have at most 40 digits",
        ),
        numbered(
            12, ["genus", "--genus", "phi:2:-" + "9" * 5000, "--k3", "--n", "1"], "k in --genus phi:N:k must have at most 40 digits"
        ),
        numbered(13, ["chi", "--surface", "p2", "--n", "1", "--k", "9" * 5000], "each --k entry must have at most 40 digits"),
        numbered(14, ["twist-series", "--r", "9" * 5000, "--order", "3"], "--r must have at most 40 digits"),
        numbered(15, ["chi", "--surface", "p2", "--n", "1", "--k", "1", "--r", "1_0"], "--r must be an integer"),
        numbered(16, ["chi", "--surface", "p2", "--n", "1", "--k", "\u0661"], "each --k entry must be an integer"),
        numbered(17, ["chi", "--surface", "p2", "--n", "1", "--bundle", "1,0,0_0"], "each --bundle entry must be an integer"),
        numbered(18, ["chern", "--surface", "p2", "--n", "\u0663"], "argument --n: invalid integer value"),
        numbered(19, ["twist-series", "--r", "2", "--order", "0_3"], "argument --order: invalid integer value"),
        numbered(20, ["series-id", "--a", "1_0"], "argument --a: invalid integer value"),
        numbered(21, ["genus", "--genus", "phi:1_0:1", "--surface", "p2", "--n", "1"], "N in --genus phi:N:k must be an integer"),
        numbered(22, ["genus", "--genus", "phi:2:\u0661", "--k3", "--n", "1"], "k in --genus phi:N:k must be an integer"),
        numbered(23, ["series-id", "--a", "1", "--y", "1_000"], "--y must be a rational number"),
        numbered(24, ["genus", "--genus", "phi:02:+1", "--k3", "--n", "1"], "--genus phi:02:+1 must be spelled phi:2:1"),
        numbered(25, ["genus", "--genus", "todd", "--model", "P2", "--n", "3"], "--model is only for --genus chi_y"),
        numbered(26, ["genus", "--genus", "euler", "--n", "3"], "--genus euler needs --surface or --k3"),
        numbered(27, ["twist-series", "--r", "2", "--order", "1"], "hilbloc: error: order must be >= 2"),
        numbered(28, ["twist-series", "--r", "2"], "hilbloc twist-series: error: the following arguments are required: --order"),
        numbered(29, ["twist"], "argument command: invalid choice: 'twist'"),
        numbered(30, [], "the following arguments are required: command"),
        numbered(31, ["chern", "--surface", "blowup:p2:00", "--n", "1"], "--surface blowup:p2:00 must be spelled blowup:p2:0"),
        numbered(32, ["chern", "--surface", "blowup:p2:3", "--n", "1"], "--surface blowup:p2:3: invalid chart index 3"),
        # a ValueError of the library prints as one of the command
        numbered(33, ["genus", "--genus", "phi:2:5", "--k3", "--n", "2"], "hilbloc: error: require 0 <= k <= N"),
        # --n, --order and --a share the digit bound of every other integer
        numbered(34, ["chern", "--surface", "p2", "--n", "9" * 41], "argument --n: invalid integer value"),
        numbered(35, ["betti", "--model", "p2", "--n", "2"], "argument --model: invalid choice: 'p2'"),
        numbered(36, ["twist-series", "--r", "2", "--order", "8"], "order > 7 requires --long"),
    ],
)
def test_input_error_messages(argv, message):
    proc = run_cli(argv)
    assert proc.returncode == 2
    assert message in proc.stderr


def test_twist_series_short_cap_is_its_own(capsys, monkeypatch):
    # twist-series --order has its own short cap: raising the --n cap of the
    # other commands does not let --order 8 run without --long
    import hilbloc.cli as cli

    monkeypatch.setattr(cli, "LONG_N_MAX", 10)
    with pytest.raises(SystemExit) as exc:
        main(["twist-series", "--r", "1", "--order", "8"])
    assert exc.value.code == 2
    assert "order > 7 requires --long" in capsys.readouterr().err


def test_a_library_value_error_prints_the_usage_line():
    # phi_nk_genus, not the CLI, rejects k > N
    proc = run_cli(["genus", "--genus", "phi:2:5", "--k3", "--n", "2"])
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: hilbloc")
    assert proc.stderr.splitlines()[-1] == "hilbloc: error: require 0 <= k <= N and N >= 1, got k=5, N=2"


# -- the parser of one command against the parser of all of them -------------------


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_parser_of_one_command_prints_as_the_full_parser(name, capsys, monkeypatch):
    # the top-level usage (every error of the top-level parser prints it) and
    # what the subparser prints; the top-level help, which lists one command
    # here, is never printed: every argument after the command goes to the
    # subparser
    monkeypatch.setenv("COLUMNS", "80")
    one, full = build_parser([name]), build_parser()
    assert one.format_usage() == full.format_usage()
    for argv in ([name, "--help"], [name, "--bogus"]):
        printed = []
        for parser in (one, full):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
            printed.append(capsys.readouterr())
        assert printed[0] == printed[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["twist-series", "--r", "2", "--order", "1"],  # raised inside the command, printed by the top-level parser
        ["genus", "--genus", "phi:2:5", "--k3", "--n", "2"],  # raised inside the library, printed by the same parser
        ["twist-series", "--r", "2"],
        ["chi", "--surface", "p2", "--n", "1"],
        ["twist"],
        [],
        ["--bogus"],
        ["--help"],
    ],
)
def test_main_prints_as_with_the_full_parser(argv, capsys, monkeypatch):
    # what main prints for argv against the full parser's output, which main
    # printed before it built the named command's subparser only
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        main(argv)
    got = capsys.readouterr()
    full = build_parser()
    with pytest.raises(SystemExit):
        args = full.parse_args(argv)
        try:
            args.fn(args)
        except ValueError as exc:
            full.error(str(exc))
    assert got == capsys.readouterr()


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["hilbloc", "series-id", "--a", "1", "--order", "1"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["holds"] is True


def test_series_id_order_one(capsys):
    payload = run_json(capsys, "series-id", "--a", "1", "--order", "1")
    assert payload["holds"] is True


def test_series_id_y_at_digit_bound(capsys):
    y = "1" + "0" * 39 + "/" + "3" * 40  # in lowest terms
    payload = run_json(capsys, "series-id", "--a", "1", "--order", "3", "--y", y)
    assert payload["y"] == y


def test_phi_genus_at_digit_bound(capsys):
    big = "9" * 40
    payload = run_json(capsys, "genus", "--genus", f"phi:{big}:{big}", "--surface", "p2", "--n", "1")
    assert [v["n"] for v in payload["values"]] == [0, 1]


def test_surface_at_blowup_depth_bound(capsys):
    depth_3 = "blowup:blowup:blowup:p2:0:0:0"
    payload = run_json(capsys, "chern", "--surface", depth_3, "--n", "1")
    assert payload["numbers"]["2"] == "6"  # e(S) = 6 rays
    payload = run_json(capsys, "chi", "--surface", depth_3, "--n", "1", "--bundle", "0,0,0,0,0,0")
    assert payload["chi"] == "1"
    assert run_json(capsys, "genus", "--genus", "euler", "--surface", depth_3, "--n", "1")["values"][1]["value"] == "6"
    # the bound is the CLI's: the library builds any depth
    assert len(build_model(DEPTH_4).rays) == 7


def test_integer_arguments_at_digit_bound(capsys):
    big = "9" * 40
    assert run_json(capsys, "twist-series", "--r", "-" + big, "--order", "2")["r"] == -int(big)
    payload = run_json(capsys, "chi", "--surface", "p2", "--n", "1", "--k", big, "--r", big)
    assert payload["bundle"] == [int(big), 0, 0]


# argv over every subcommand: cheap sizes (n <= 2, order <= 3) mixed with
# malformed values.  `verify` only gets malformed arguments: a valid profile
# runs the acceptance suite for seconds and prints a text report.  A value
# listed twice is drawn twice as often.
SURFACES = st.sampled_from(
    ["p2", "p1xp1", "blowup:p2:0", "p2", "p1xp1", "blowup:p2:9", "p5", "", "blowup:blowup:blowup:p2:0:0:0", DEPTH_4]
    + ["blowup:p2:0_1", "blowup:p2:\u0661", " P2 ", "P2", "BLOWUP:P2:0", "blowup:p2:00"]
)
# "1_0" and the Arabic-Indic digits below are integers to int(), not to the CLI
SMALL_INT = st.sampled_from(["0", "1", "2", "0", "1", "2", "-1", "x", "1.5", "99", "0_1", "\u0661", " 1"])
# --r at and past its 40-digit bound, and far past it
R_INT = st.one_of(SMALL_INT, st.sampled_from(["9" * 40, "-" + "9" * 40, "9" * 41, "-" + "9" * 41, "9" * 4001]))
Y = st.sampled_from(["-3", "0", "1", "5/2", "-1/3", "2.5", "1/0", "half", "1e5", "", "9" * 41, "1_0", "\u0665/2", ".5"])
FLAGS = st.lists(
    st.sampled_from(["--csv", "--long", "--ladder=eta", "--ladder=xi", "--ladder=zeta", "--bogus"]),
    max_size=2,
)
# phi:N:k with N and k at and past their 40-digit bound, and far past it
GENERA = st.sampled_from(
    ["todd", "euler", "signature", "phi:2:1", "phi:2:5", "phi:0:0", "phi:x", "chi_y", "a"]
    + ["phi:" + "9" * 40 + ":1", "phi:" + "9" * 41 + ":1", "phi:2:" + "9" * 41, "phi:" + "9" * 3000 + ":1"]
    + ["phi:" + "9" * 5000 + ":1", "phi:1_0:1", "phi:2:\u0661", "phi:02:+1", "phi:2:-0"]
)


def _req(flag, values):
    return values.map(lambda v: [f"{flag}={v}"])


def _opt(flag, values):
    return st.one_of(st.just([]), _req(flag, values))


ARGV = st.one_of(
    *[
        st.tuples(st.just([cmd]), *opts).map(lambda parts: [t for part in parts for t in part])
        for cmd, *opts in [
            ("chern", _req("--surface", SURFACES), _req("--n", SMALL_INT), FLAGS),
            ("universal", _req("--n", SMALL_INT), FLAGS),
            ("betti", _req("--model", st.sampled_from(["P2", "P1xP1", "K3"])), _req("--n", SMALL_INT), FLAGS),
            (
                "chi",
                _req("--surface", SURFACES),
                _req("--n", SMALL_INT),
                _opt(
                    "--k",
                    st.sampled_from(["1", "1,2", "-1", "one", "1,2,3,4,5", "9" * 40, "1," + "9" * 41, "1_0", "\u0661,2"]),
                ),
                _opt(
                    "--bundle",
                    st.sampled_from(["1,0,0", "2,1,0,0", "1,2", "a,b", "0,0,-" + "9" * 40, "0,0," + "9" * 41, "1,0,0_0"]),
                ),
                _opt("--r", R_INT),
                FLAGS,
            ),
            (
                "twist-series",
                _req("--r", R_INT),
                _req("--order", st.sampled_from(["2", "3", "2", "3", "0", "11", "x"])),
                st.sampled_from([[], ["--csv"], ["--long"], ["--bogus"]]),
            ),
            (
                "genus",
                _req("--genus", GENERA),
                st.sampled_from([["--k3"], ["--surface=p2"], ["--model=P2"], ["--model=K3"], []]),
                _req("--n", SMALL_INT),
                FLAGS,
            ),
            (
                "series-id",
                _req("--a", st.sampled_from(["0", "2", "0", "2", "-1", "101", "a"])),
                _opt("--y", Y),
                _opt("--order", st.sampled_from(["1", "3", "1", "3", "-1", "0", "61", "x"])),
                st.sampled_from([[], ["--csv"], ["--bogus"]]),
            ),
            ("verify", _req("--profile", st.sampled_from(["", "QUICK", "fast"]))),
        ]
    ]
)


@pytest.mark.ci_examples
@settings(max_examples=example_count(200), deadline=None)
@given(ARGV)
def test_cli_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3) or (code == 1 and argv[0] == "verify"), (code, err.getvalue())
    # never a silently reinterpreted number: no digit group separator, no non-ASCII digit
    assert code != 0 or not any(re.search(r"[0-9]_[0-9]", a) or not a.isascii() for a in argv), argv
    # nor a case-folded or stripped surface name, nor one that names its model in another spelling
    assert code != 0 or not any(a.startswith("--surface=") and a != a.strip().lower() for a in argv), argv
    surfaces = [a[len("--surface="):] for a in argv if a.startswith("--surface=")]
    assert code != 0 or all(build_model(s).name == s for s in surfaces), argv
    # nor a phi:N:k genus in any but its one spelling
    canonical_phi = re.compile(r"--genus=phi:(0|[1-9][0-9]*):(0|[1-9][0-9]*)")
    assert code != 0 or not any(a.startswith("--genus=phi:") and not canonical_phi.fullmatch(a) for a in argv), argv
    # every JSON output opens with the schema-1 envelope; --csv prints a header line instead
    if code == 0 and "--csv" not in argv:
        payload = json.loads(out.getvalue())
        assert list(payload)[:2] == ["schema", "command"], list(payload)
        assert (payload["schema"], payload["command"]) == (1, argv[0])
    elif code == 0:
        assert re.fullmatch(r"[A-Za-z]+(,[A-Za-z]+)+", out.getvalue().splitlines()[0]), out.getvalue()
