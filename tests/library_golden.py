"""Library goldens: results of `hilbloc` calls above the CLI caps, written as
JSON that keeps every value's type and every Poly's term order.

A scalar is the string "<type name> <value>" ("Fraction 3/4"), a Poly the
list of its terms [monomial, scalar] in `Poly.terms` order, a series
{"var", "order", "coeffs"} and a class {"dim", "numbers"}.  Regenerating a
file means running `python tests/library_golden.py` on a build whose
results are already trusted.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

from hilbloc.cobordism import ChernVector
from hilbloc.localization import chern_numbers_hilb, hilb_cobordism_series
from hilbloc.rings import Poly
from hilbloc.series import TruncSeries
from hilbloc.toric import p1xp1, p2
from hilbloc.universal import universal_chern_poly

GOLDEN_DIR = Path(__file__).parent / "golden"

# recorded before layer (c) moved to packed integer keys
LIBRARY_GOLDEN = {
    "lib_universal_chern_poly_n8": lambda: universal_chern_poly(8),
    "lib_hilb_cobordism_series_p2_n8": lambda: hilb_cobordism_series(p2(), 8),
    "lib_hilb_cobordism_series_p1xp1_n8": lambda: hilb_cobordism_series(p1xp1(), 8),
    # recorded before `chern` got a per-command cap above n = 7
    "lib_chern_numbers_hilb_p2_n8": lambda: chern_numbers_hilb(p2(), 8),
    "lib_chern_numbers_hilb_p2_n9": lambda: chern_numbers_hilb(p2(), 9),
    "lib_chern_numbers_hilb_p2_n10": lambda: chern_numbers_hilb(p2(), 10),
    "lib_chern_numbers_hilb_p1xp1_n8": lambda: chern_numbers_hilb(p1xp1(), 8),
    "lib_chern_numbers_hilb_p1xp1_n9": lambda: chern_numbers_hilb(p1xp1(), 9),
    "lib_chern_numbers_hilb_p1xp1_n10": lambda: chern_numbers_hilb(p1xp1(), 10),
}


def encode(x):
    """x as JSON data that keeps types and term order (see above)."""
    if isinstance(x, (int, Fraction)):
        return f"{type(x).__name__} {x}"
    if isinstance(x, Poly):
        return [[[list(pair) for pair in mono], encode(c)] for mono, c in x.terms.items()]
    if isinstance(x, TruncSeries):
        return {"var": x.var, "order": x.order, "coeffs": [encode(c) for c in x.coeffs]}
    if isinstance(x, ChernVector):
        return {"dim": x.dim, "numbers": [[list(la), encode(v)] for la, v in x.numbers]}
    raise TypeError(f"no golden encoding for {type(x).__name__}")


def dumps(x) -> str:
    return json.dumps(encode(x), separators=(",", ":")) + "\n"


def golden_file(name):
    return GOLDEN_DIR / f"{name}.json"


def compute(name) -> str:
    return dumps(LIBRARY_GOLDEN[name]())


if __name__ == "__main__":
    for name in sys.argv[1:] or LIBRARY_GOLDEN:
        golden_file(name).write_text(compute(name))
