"""Shared test settings.

Property tests run under a deterministic hypothesis profile: the examples
are derived from each test's source, not drawn at random, so every run of
the suite checks the same cases, and their number is bounded to keep the
suite's wall time.
"""

try:
    from hypothesis import settings
except ImportError:         # only the property tests need it
    pass
else:
    settings.register_profile("deterministic", derandomize=True,
                              deadline=None, max_examples=50, database=None)
    settings.load_profile("deterministic")
