"""Hypothesis profiles.  The default profile keeps tier-1 short; `ci` runs the
oracle tests marked `ci_examples` with more examples in a fixed order, so a
rare kernel mismatch shows up on every CI run or on none:

    python -m pytest -m ci_examples --hypothesis-profile=ci

`mutants` (read by `tests/mutants.py`) leaves out the shrink phase: a test
that fails on a mutant fails at its first failing example, unshrunk, and
the catalogue kills the same mutants in less time.
"""

from hypothesis import Phase, settings

settings.register_profile("ci", max_examples=1000, derandomize=True)
settings.register_profile("mutants", phases=[phase for phase in Phase if phase not in (Phase.shrink, Phase.explain)])
