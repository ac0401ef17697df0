"""One hypothesis profile for the whole suite: every run draws the same examples."""

from hypothesis import settings

settings.register_profile("fixed", derandomize=True, database=None, deadline=None)
settings.load_profile("fixed")
