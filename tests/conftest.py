"""Shared test settings: every Hypothesis test draws the same examples on
every run (derandomized, no example database), so a pass or a failure
repeats on any checkout."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
