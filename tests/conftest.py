"""Hypothesis profiles.  The default profile keeps tier-1 short; `ci` runs the
oracle tests marked `ci_examples` with more examples in a fixed order, so a
rare kernel mismatch shows up on every CI run or on none:

    python -m pytest -m ci_examples --hypothesis-profile=ci
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, derandomize=True)
