"""Example counts for hypothesis oracle tests that set their own count.

A count given to `@settings` overrides the loaded profile, so such a test
asks for `example_count(n)`: n under the default profile, and the count of
the `ci` profile (registered in conftest.py) when that one is loaded.  A
test whose examples grow fast with a drawn size bounds the size by
`size_bound(tier1, ci)`, so that the ci profile's many examples stay short.
"""

from hypothesis import settings


def example_count(tier1: int) -> int:
    if settings.get_current_profile_name() == "ci":
        return settings.default.max_examples
    return tier1


def size_bound(tier1: int, ci: int) -> int:
    return ci if settings.get_current_profile_name() == "ci" else tier1
