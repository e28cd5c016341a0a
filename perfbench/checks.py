"""Output checks: committed digests of canonical stdout, and cheap
independent oracles.  A problem found here makes the op count as failed."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import factorial
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def canonical(stdout: str) -> str:
    """JSON output re-serialized with sorted keys; other output as is."""
    try:
        return json.dumps(json.loads(stdout), sort_keys=True, separators=(",", ":"))
    except ValueError:
        return stdout


def digest(stdout: str) -> str:
    return hashlib.sha256(canonical(stdout).encode()).hexdigest()


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def argv_key(argv) -> str:
    return " ".join(argv)


def gottsche(euler: int, n: int) -> int:
    """[q^n] prod_k (1 - q^k)^(-euler): the Euler number of Hilb^n(S)."""
    coeffs = [1] + [0] * n
    for k in range(1, n + 1):
        for _ in range(euler):
            for m in range(k, n + 1):
                coeffs[m] += coeffs[m - k]
    return coeffs[n]


def _rising_binomial(x: Fraction, m: int) -> Fraction:
    """[t^m] (1 - t)^(-x)."""
    acc = Fraction(1)
    for i in range(m):
        acc *= x + i
    return acc / factorial(m)


def _poly_value(poly: dict, env: dict) -> Fraction:
    """Evaluate the CLI's {"c1sq^2*c2": "p/q"} polynomial encoding."""
    total = Fraction(0)
    for mono, coeff in poly.items():
        term = Fraction(coeff)
        if mono != "1":
            for factor in mono.split("*"):
                var, _, exp = factor.partition("^")
                term *= env[var] ** int(exp or 1)
        total += term
    return total


def _surface_euler(spec: str) -> int:
    """Euler number of a CLI surface spec; blowing up a point adds one."""
    if spec.startswith("blowup:"):
        return 1 + _surface_euler(spec[len("blowup:"):].rpartition(":")[0])
    return {"p2": 3, "p1xp1": 4}[spec]


def oracle_problems(argv, out: dict, references) -> list:
    """Independent checks of one op's parsed JSON output."""
    problems = []
    command = argv[0]
    if command == "chern":
        n = out["n"]
        euler = gottsche(_surface_euler(out["surface"]), n)
        if n and Fraction(out["numbers"][str(2 * n)]) != euler:
            problems.append(f"c_{2 * n} != Gottsche Euler number {euler}")
    elif command == "twist-series":
        top = min(out["order"], 5)
        if [Fraction(c) for c in out["logA"][: top + 1]] != references.log_a_reference(out["r"], top):
            problems.append("log A_r differs from the printed table")
        if [Fraction(c) for c in out["B"][: top + 1]] != references.b_reference(out["r"], top):
            problems.append("B_r differs from the printed table")
    elif command == "universal":
        n = out["n"]
        value = _poly_value(out["polynomials"][str(2 * n)], {"c1sq": Fraction(0), "c2": Fraction(24)})
        if value != gottsche(24, n):
            problems.append(f"P_({2 * n})(0, 24) = {value} != K3 Euler number {gottsche(24, n)}")
    elif command == "genus":
        values = [Fraction(v["value"]) for v in out["values"]]
        phi_s = values[1]
        if values != [_rising_binomial(phi_s, m) for m in range(len(values))]:
            problems.append("phi values differ from (1-t)^(-phi(S))")
    return problems


def check_pass(ops, stdouts: list, digests: dict, references) -> list:
    """Problems per op of one pass (a list of lists, aligned with ops)."""
    problems = [[] for _ in ops]
    parsed = {}
    for i, (argv, stdout) in enumerate(zip(ops, stdouts)):
        want = digests.get(argv_key(argv))
        if want is None:
            problems[i].append("no committed digest")
        elif digest(stdout) != want:
            problems[i].append("digest mismatch")
        if argv[0] == "verify":
            if sum(line.startswith("PASS") for line in stdout.splitlines()) != 10:
                problems[i].append("a verify check did not pass")
            continue
        try:
            out = json.loads(stdout)
        except ValueError:
            problems[i].append("stdout is not JSON")
            continue
        try:
            problems[i].extend(oracle_problems(argv, out, references))
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
            problems[i].append(f"output lacks an expected field: {exc!r}")
            continue
        parsed[i] = out
    # Theorem 1: a one-point blowup of P2 has the Chern numbers of P1xP1.
    by_surface = {out.get("surface", ""): (i, out) for i, out in parsed.items() if out.get("command") == "chern"}
    if "p1xp1" in by_surface:
        ref = by_surface["p1xp1"][1]["numbers"]
        for surface, (i, out) in by_surface.items():
            if surface.startswith("blowup:p2:") and out["numbers"] != ref:
                problems[i].append("blowup numbers differ from P1xP1 numbers")
    return problems
