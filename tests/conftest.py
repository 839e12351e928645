"""Deterministic hypothesis settings, so the property tests repeat exactly."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("deterministic", derandomize=True, deadline=None, max_examples=40, database=None)
    settings.load_profile("deterministic")
