"""Hypothesis profiles for the suite.

`fixed`, the default, is derandomized: every run draws the same examples.
`thorough` draws new examples on every run and prints a reproduction blob
for each failure; select it with `pytest --hypothesis-profile thorough`.
"""

from hypothesis import settings

settings.register_profile("fixed", derandomize=True, database=None, deadline=None)
settings.register_profile("thorough", database=None, deadline=None, print_blob=True)


def pytest_configure(config):
    # hypothesis's pytest plugin loads the profile named by --hypothesis-profile
    if config.getoption("hypothesis_profile") is None:
        settings.load_profile("fixed")
