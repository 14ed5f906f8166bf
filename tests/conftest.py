"""Shared test settings: one deterministic hypothesis profile for every
property test, so a run draws the same examples on any machine and slow
hosts never trip a deadline."""

from hypothesis import settings

settings.register_profile("dslab", derandomize=True, deadline=None,
                          max_examples=60, database=None)
settings.load_profile("dslab")
