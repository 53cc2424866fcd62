"""Hypothesis profiles for the test suite.

``tier1``, loaded by default, derandomizes every property test, so each run
draws the same examples and catches the same faults. It sets no example
count or deadline, so each test's own ``@settings`` hold. For a sweep that
draws fresh examples, select the ``random`` profile with hypothesis's own
option: ``pytest --hypothesis-profile=random``.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("random", derandomize=False)
settings.load_profile("tier1")
