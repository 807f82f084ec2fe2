"""Shared test configuration.

Property tests run under a deterministic hypothesis profile: the same examples
on every run, no per-example deadline (timings on a loaded machine vary too
much to gate on), and a bounded example count so the suite stays short.
"""
from hypothesis import settings

settings.register_profile("qwalk", derandomize=True, deadline=None, max_examples=40)
settings.load_profile("qwalk")
