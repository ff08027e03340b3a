"""Hypothesis draws the same examples on every run, and keeps no example
database, so a run's outcome depends only on the tree under test."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
