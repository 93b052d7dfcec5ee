"""Shared pytest configuration.

Hypothesis runs under a derandomized profile: every run draws the same
examples, so the suite stays reproducible and its time stays fixed, and no
example database is written.
"""

from hypothesis import settings

settings.register_profile("swphase", derandomize=True, database=None, deadline=None,
                          max_examples=50)
settings.load_profile("swphase")
