"""Shared pytest configuration.

Hypothesis runs under a derandomized profile: every run draws the same
examples, so the suite stays reproducible and its time stays fixed, and no
example database is written.
"""

import pytest
from hypothesis import settings

settings.register_profile("swphase", derandomize=True, database=None, deadline=None,
                          max_examples=50)
settings.load_profile("swphase")


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name[, calls]) wraps ``module.name`` for the test; every call
    appends its positional arguments to ``calls`` (a new list by default), which it returns.
    Pass one list to several bindings of a function to count them together."""

    def install(module, name, calls=None):
        calls = [] if calls is None else calls
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return install
