"""A catalogue of mutants of `src/`: each one a small fault in the engine
that `hilbloc verify --profile quick` or a named set of tests must catch.

    python tests/mutants.py

The runner first checks the unmutated tree: `verify --profile quick` and
every listed test must pass on a plain copy.  Then, for each mutant, it
copies `src/`, `tests/` and `pyproject.toml` into a fresh temporary directory
outside the repository, replaces the mutant's old text, which must occur
exactly once in its file, by its new text, and runs `verify --profile quick`
and the mutant's tests with `pytest -x` on the copy.  A mutant is killed when
either run fails; it survives when both pass.  The repository itself is
never edited.  Exit status: 0 if every mutant is killed, 1 if one survives,
2 if the catalogue itself is broken (an old text found other than once, a
listed test that does not run, or a failure on the unmutated tree).

It is a CI step of its own, not part of tier-1: the seven mutants below
took 43 to 106 s of wall time on a 2-vCPU machine, most of it hypothesis
shrinking the failing example of the last one.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # under src/hilbloc
    old: str
    new: str
    tests: tuple  # pytest node ids, relative to the repository root
    reason: str


MUTANTS = (
    Mutant(
        "chart-denominators-skip-top",
        "localization.py",
        "return tuple(lcm(*map(prod, weights.values())) for weights in chart_specializations(model, order, spec))",
        "return tuple(lcm(*(prod(t) for la, t in weights.items() if sum(la) < order))"
        " for weights in chart_specializations(model, order, spec))",
        ("tests/test_localization.py::test_top_chern_number_is_goettsche",),
        "L_c without the partitions of size order no longer divides by prod t of every point of Hilb^order,"
        " so the floor D // L of a block loses part of its sum",
    ),
    Mutant(
        "cohomology-u-exponent",
        "universal.py",
        "row[a + 2 * c + j] += w * hj",
        "row[a + c + j] += w * hj",
        (
            "tests/test_universal.py::test_cohomology_table_matches_the_series",
            "tests/test_universal.py::test_genfun_u_minus_one_is_chi",
        ),
        "the factor 1/(1 - u^2 t)^h2 read as 1/(1 - u t)^h2 moves h^2-classes to odd degree,"
        " which changes chi(F^[n]) once h2 > 0",
    ),
    Mutant(
        "readback-sign",
        "cobordism.py",
        "tuple(t * auts[j] for j, t in zip(js, expansion.values()))",
        "tuple((t if j else -t) * auts[j] for j, t in zip(js, expansion.values()))",
        ("tests/test_cobordism.py::test_from_beta_matches_fraction_oracle",),
        "the entry of the slot of mu = (d) negated in every row of the readback table:"
        " every Chern number read back from a power-sum polynomial with a b_(d) term changes",
    ),
    Mutant(
        "sigma-orbit-multiplicity",
        "localization.py",
        "mults.append(1 if fp == image else 2)",
        "mults.append(1)",
        ("tests/test_localization.py::test_orbit_sums_match_full_sums",),
        "a sigma-orbit of two points counted once halves part of every orbit sum on P1xP1",
    ),
    Mutant(
        "ladder-second-spec-equal",
        "localization.py",
        "return [(1, b1), (1, b1 + 1)]",
        "return [(1, b1), (1, b1)]",
        (
            "tests/test_localization.py::test_chern_gate_catches_a_perturbed_second_sum",
            "tests/test_genera.py::test_betti_count_is_gated_by_the_second_spec",
        ),
        "the xi ladder's second 1-PS equal to its first: the two-specialization gate compares a sum with itself",
    ),
    Mutant(
        "surface-series-a-b-swapped",
        "cobordism.py",
        "((p2(), a), (p1xp1(), b))",
        "((p2(), b), (p1xp1(), a))",
        ("tests/test_cobordism.py::test_hilb_series_of_the_surface_class_is_the_localized_series",),
        "the main theorem's coefficients of P2 and P1xP1 exchanged: H(S) of every surface but one pair is wrong",
    ),
    Mutant(
        "poly-product-term-order",
        "rings.py",
        "        for m1, x1 in self.terms.items():\n            for m2, x2 in right:\n",
        "        for m2, x2 in right:\n            for m1, x1 in self.terms.items():\n",
        ("tests/test_series.py::test_univariate_kernels_match_generic_loops",),
        "IntPoly lists a product's terms by first appearance over the other factor's terms: the values stay,"
        " the term order of a Poly coefficient (pinned by the shape oracles of test_series) changes",
    ),
)


def _copy(root: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(REPO / part, root / part, ignore=ignore)
    shutil.copy(REPO / "pyproject.toml", root)


def _run(root: Path, tests) -> tuple:
    """(verify's exit status, pytest's exit status) on the copy at root."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    verify = [sys.executable, "-m", "hilbloc.cli", "verify", "--profile", "quick"]
    pytest = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return tuple(subprocess.run(cmd, cwd=root, env=env, capture_output=True).returncode for cmd in (verify, pytest))


def _mutate(root: Path, mutant: Mutant) -> None:
    path = root / "src" / "hilbloc" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: the old text occurs {text.count(mutant.old)} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="hilbloc-mutant-") as tmp:
        _copy(Path(tmp))
        if _run(Path(tmp), sorted({t for m in MUTANTS for t in m.tests})) != (0, 0):
            print("the unmutated tree fails verify --profile quick or a listed test", file=sys.stderr)
            return 2
    survivors = []
    for mutant in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="hilbloc-mutant-") as tmp:
            _copy(Path(tmp))
            try:
                _mutate(Path(tmp), mutant)
            except ValueError as exc:
                print(exc, file=sys.stderr)
                return 2
            verify, tests = _run(Path(tmp), mutant.tests)
        if tests not in (0, 1):  # 2-5: interrupted, internal error, usage error, no tests collected
            print(f"{mutant.name}: pytest exited {tests}, not a test failure", file=sys.stderr)
            return 2
        killed_by = [what for what, code in (("verify", verify), ("tests", tests)) if code]
        verdict = " and ".join(killed_by) + " killed it" if killed_by else f"SURVIVED, although {mutant.reason}"
        print(f"{mutant.name}: {verdict} ({time.perf_counter() - start:.1f} s)")
        if not killed_by:
            survivors.append(mutant.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
