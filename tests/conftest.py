"""Hypothesis runs the same examples on every run: the profile derives
its random seed from each test, keeps no example database between runs
and sets no per-example deadline."""

from hypothesis import settings

settings.register_profile("lightcone", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("lightcone")
