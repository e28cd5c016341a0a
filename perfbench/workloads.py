"""The benchmark's workloads: CLI argument lists made from a seed.

Every workload is deterministic.  The seed only picks among inputs of
equal cost (the blowup chart, the sign of r, the phi-genus k), and the
program sees nothing but the generated argv.

- chern: the integer Chern-number residue sum over 429, 1240 and 1240
  fixed points; it never touches `cobordism`.  It shows gains or losses
  of the `HILBLOC_THREADS` pool and of a single integrand evaluator.
- twist: the `Fraction`-heavy Riemann-Roch path (`_point_value`,
  `_eps_mul`).  It shares `fixed_points` with `chern` but uses the
  integrand differently, so an evaluator change that helps one and hurts
  the other shows up.
- universal: the CP-basis change dominates, once with symbolic `Poly`
  coefficients and once with numeric ones; localization is about 1%.
- verify-quick: all ten checks in one process, so caches are shared;
  many small-n integrals and ladder builds, with order-30 `fg_series`
  dominating.  It exposes per-call overhead and cache behaviour, and it
  is the only workload that exercises `series`.
"""

from __future__ import annotations

import random


def _chern(chart: int, tiny: bool) -> list:
    n = 3 if tiny else 7
    flags = [] if tiny else ["--long"]
    return [
        ["chern", "--surface", surface, "--n", str(n), *flags]
        for surface in ("p2", "p1xp1", f"blowup:p2:{chart}")
    ]


def _twist(sign: int, tiny: bool) -> list:
    if tiny:
        return [["twist-series", "--r", str(2 * sign), "--order", "3"],
                ["twist-series", "--r", str(3 * sign), "--order", "3"]]
    return [["twist-series", "--r", str(2 * sign), "--order", "6", "--long"],
            ["twist-series", "--r", str(3 * sign), "--order", "5"]]


def _universal(k: int, tiny: bool) -> list:
    n_univ, n_genus = (2, 2) if tiny else (5, 4)
    return [["universal", "--n", str(n_univ)],
            ["genus", "--genus", f"phi:2:{k}", "--k3", "--n", str(n_genus)]]


def _verify_quick(_choice, tiny: bool) -> list:
    return [["verify", "--profile", "quick"]]


# name -> (choices the seed picks from, argv builder)
WORKLOADS = {
    "chern": ((0, 1, 2), _chern),
    "twist": ((1, -1), _twist),
    "universal": ((0, 1, 2), _universal),
    "verify-quick": ((None,), _verify_quick),
}


def make_ops(name: str, seed: int, tiny: bool = False) -> list:
    """The argv list of one pass of the workload for this seed."""
    choices, build = WORKLOADS[name]
    return build(random.Random(f"{name}:{seed}").choice(choices), tiny)

