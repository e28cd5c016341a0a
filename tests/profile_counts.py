"""Example counts for hypothesis oracle tests that set their own count.

A count given to `@settings` overrides the loaded profile, so such a test
asks for `example_count(n)`: n under the default profile, and the count of
the `ci` profile (registered in conftest.py) when that one is loaded.
"""

from hypothesis import settings


def example_count(tier1: int) -> int:
    if settings.get_current_profile_name() == "ci":
        return settings.default.max_examples
    return tier1
