"""Suite-wide settings: the hypothesis profile every property test runs under.

Derandomized, with no example database and no deadline, so a run is the
same on every machine and a slow, loaded runner cannot fail a test.
"""

from hypothesis import settings

settings.register_profile("pointpd", derandomize=True, database=None, deadline=None, max_examples=100)
settings.load_profile("pointpd")
