"""End-to-end golden outputs: the exact stdout bytes of documented CLI calls.

The expected files in `tests/golden/` were written by the CLI before the
power-sum integrand evaluator replaced the epsilon-multiplication chain
(the `chern_*_n7_long` files: before the Chern-number sum moved to integer
numerators over a common denominator; `twist_r3_o8_long`: before the
integrand evaluator did; `betti_p1xp1_n7_long` and `genus_chi_y_p1xp1_n7_long`:
while the two models still had their own Betti sums and chi_y tables;
`chern_p1xp1_n6_long_eta` and `chern_blowup3_p1xp1_n5`: while the residue
pass still walked the fixed points one at a time; `genus_todd_blowup3_p1xp1_n7_long`
and `genus_phi21_k3_n7_long`: while `genus` still evaluated the power-sum class
of Hilb^n(S); `genus_todd_p2_n7_long`: while `genus --surface` still ran the
chart product of both models, also the one of coefficient 0;
`chern_blowup_p2_2_n6_long_eta`: while `chern` still summed a surface of four
rays on its own fan; `chern_blowup3_p1xp1_n7_long` and its `_eta` twin: while
`chern` still summed a surface of seven rays on its own fan), so they pin the
byte-identical output of every rewrite of the engine.  The `*_csv`
entries pin the `--csv` bytes of each command; they were written before
`main` took over the output step from the commands.  The `verify_*` entries
pin the report of the acceptance suite under each profile; they were written
while every check still built its own result records.  Each entry is
`<name>.json` (`<name>.csv` for a `--csv` argv, `<name>.txt` for `verify`)
with the argv below; regenerating one means running `python -m hilbloc.cli
<argv> > tests/golden/<file>` on a build whose output is already trusted.
The `lib_*` files pin library results above the CLI caps
(`library_golden.py`); the two n = 10 Chern-number pins replay only under
HILBLOC_ACCEPT_PROFILE=long, as CI's long acceptance step runs them.
Every argv replays with warnings as errors (`python -W error`) and must
leave stderr empty.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hilbloc
import library_golden
from hilbloc.localization import chern_numbers_hilb
from hilbloc.toric import build_model
from library_golden import LIBRARY_GOLDEN

GOLDEN_DIR = Path(__file__).parent / "golden"

# every README CLI line, plus the twist-series and chern workload sizes,
# the largest `universal` call, genera on a blowup, on P2, on P1xP1 and on K3, and Chern
# numbers on the eta ladder and on a surface of seven charts (several blocks of points),
# and the largest genus calls on a surface and on K3, Chern numbers of F_1 on the eta ladder,
# and the largest `chern` call on a surface of seven charts, on both ladders
GOLDEN = {
    "chern_p2_n4": ["chern", "--surface", "p2", "--n", "4"],
    "chern_blowup_n6": ["chern", "--surface", "blowup:p2:0", "--n", "6", "--long"],
    "universal_n3": ["universal", "--n", "3"],
    "chi_p2_n3_k2_r1": ["chi", "--surface", "p2", "--n", "3", "--k", "2", "--r", "1"],
    "twist_r2_o5": ["twist-series", "--r", "2", "--order", "5"],
    "betti_p2_n4": ["betti", "--model", "P2", "--n", "4"],
    "genus_phi21_k3_n5": ["genus", "--genus", "phi:2:1", "--k3", "--n", "5"],
    "series_id_a3": ["series-id", "--a", "3", "--y", "5/2", "--order", "30"],
    "twist_r2_o6_long": ["twist-series", "--r", "2", "--order", "6", "--long"],
    "twist_rm2_o6_long": ["twist-series", "--r", "-2", "--order", "6", "--long"],
    "twist_r3_o5": ["twist-series", "--r", "3", "--order", "5"],
    "twist_rm3_o5": ["twist-series", "--r", "-3", "--order", "5"],
    "chi_p1xp1_n3_k12_r2": ["chi", "--surface", "p1xp1", "--n", "3", "--k", "1,2", "--r", "2"],
    "chern_p2_n7_long": ["chern", "--surface", "p2", "--n", "7", "--long"],
    "chern_p1xp1_n7_long": ["chern", "--surface", "p1xp1", "--n", "7", "--long"],
    "chern_blowup_p2_1_n7_long": ["chern", "--surface", "blowup:p2:0", "--n", "7", "--long"],
    "twist_r3_o8_long": ["twist-series", "--r", "3", "--order", "8", "--long"],
    "universal_n5": ["universal", "--n", "5"],
    "universal_n7_long": ["universal", "--n", "7", "--long"],
    "genus_todd_p1xp1_n6_long": ["genus", "--genus", "todd", "--surface", "p1xp1", "--n", "6", "--long"],
    "genus_todd_p2_n7_long": ["genus", "--genus", "todd", "--surface", "p2", "--n", "7", "--long"],
    "genus_signature_blowup_p2_0_n5": [
        "genus", "--genus", "signature", "--surface", "blowup:p2:0", "--n", "5",
    ],
    "genus_euler_k3_n7_long": ["genus", "--genus", "euler", "--k3", "--n", "7", "--long"],
    "betti_p1xp1_n7_long": ["betti", "--model", "P1xP1", "--n", "7", "--long"],
    "genus_chi_y_p1xp1_n7_long": ["genus", "--genus", "chi_y", "--model", "P1xP1", "--n", "7", "--long"],
    "chern_p1xp1_n6_long_eta": ["chern", "--surface", "p1xp1", "--n", "6", "--long", "--ladder", "eta"],
    "chern_blowup3_p1xp1_n5": ["chern", "--surface", "blowup:blowup:blowup:p1xp1:0:0:0", "--n", "5"],
    "genus_todd_blowup3_p1xp1_n7_long": [
        "genus", "--genus", "todd", "--surface", "blowup:blowup:blowup:p1xp1:0:0:0", "--n", "7", "--long",
    ],
    "genus_phi21_k3_n7_long": ["genus", "--genus", "phi:2:1", "--k3", "--n", "7", "--long"],
    "chern_blowup_p2_2_n6_long_eta": ["chern", "--surface", "blowup:p2:2", "--n", "6", "--long", "--ladder", "eta"],
    "chern_blowup3_p1xp1_n7_long": ["chern", "--surface", "blowup:blowup:blowup:p1xp1:0:0:0", "--n", "7", "--long"],
    "chern_blowup3_p1xp1_n7_long_eta": [
        "chern", "--surface", "blowup:blowup:blowup:p1xp1:0:0:0", "--n", "7", "--long", "--ladder", "eta",
    ],
    # one --csv call per command
    "chern_p1xp1_n3_csv": ["chern", "--surface", "p1xp1", "--n", "3", "--csv"],
    "universal_n2_csv": ["universal", "--n", "2", "--csv"],
    "betti_p1xp1_n3_csv": ["betti", "--model", "P1xP1", "--n", "3", "--csv"],
    "chi_p1xp1_n2_k12_r2_csv": ["chi", "--surface", "p1xp1", "--n", "2", "--k", "1,2", "--r", "2", "--csv"],
    "twist_rm3_o5_csv": ["twist-series", "--r", "-3", "--order", "5", "--csv"],
    "genus_chi_y_p2_n3_csv": ["genus", "--genus", "chi_y", "--model", "P2", "--n", "3", "--csv"],
    "genus_signature_blowup_p2_0_n3_csv": [
        "genus", "--genus", "signature", "--surface", "blowup:p2:0", "--n", "3", "--csv",
    ],
    "series_id_a3_o10_csv": ["series-id", "--a", "3", "--y", "5/2", "--order", "10", "--csv"],
    # the acceptance report under each profile
    "verify_quick": ["verify", "--profile", "quick"],
    "verify_standard": ["verify", "--profile", "standard"],
    "verify_long": ["verify", "--profile", "long"],
}


def golden_file(name):
    argv = GOLDEN[name]
    suffix = "csv" if "--csv" in argv else "txt" if argv[0] == "verify" else "json"
    return GOLDEN_DIR / f"{name}.{suffix}"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_stdout(name):
    env = dict(os.environ, PYTHONPATH=str(Path(hilbloc.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "hilbloc.cli", *GOLDEN[name]], capture_output=True, env=env
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert proc.stdout == golden_file(name).read_bytes()


# about 0.7 s on P2 and 1.3 s on P1xP1 of CPU time
LONG_LIBRARY_GOLDEN = {"lib_chern_numbers_hilb_p2_n10", "lib_chern_numbers_hilb_p1xp1_n10"}
LONG = os.environ.get("HILBLOC_ACCEPT_PROFILE") == "long"


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=pytest.mark.skipif(not LONG, reason="HILBLOC_ACCEPT_PROFILE=long only"))
        if name in LONG_LIBRARY_GOLDEN
        else name
        for name in sorted(LIBRARY_GOLDEN)
    ],
)
def test_library_golden(name):
    # the cobordism layer above the CLI caps: values, their types and term order
    assert library_golden.compute(name) == library_golden.golden_file(name).read_text()


def test_theorem_1_at_n8_through_the_library():
    # F_1 = blowup:p2:0 and P1xP1 share (c1^2, c2) = (8, 4), so Hilb^8 of both has one class:
    # the same numbers and value types, two steps past `verify --profile long` (n <= 6)
    f1 = library_golden.dumps(chern_numbers_hilb(build_model("blowup:p2:0"), 8))
    assert f1 == library_golden.golden_file("lib_chern_numbers_hilb_p1xp1_n8").read_text()
