"""Suite-wide settings: property tests run a fixed, bounded set of examples."""

from hypothesis import settings

settings.register_profile(
    "projmi", derandomize=True, database=None, deadline=None, max_examples=40
)
settings.load_profile("projmi")
