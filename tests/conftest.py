"""Hypothesis draws the same examples on every run and in every checkout:
the examples are derandomized and no example database is kept, so a Tier-1
result is a property of the tree alone."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
