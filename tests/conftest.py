"""Shared test settings."""

from hypothesis import settings

# Property tests draw the same examples on every run, so the suite stays
# deterministic, and have no per-example deadline, which a slow or shared
# host would trip.  No example database is written.
settings.register_profile("gwalk", deadline=None, derandomize=True, database=None)
settings.load_profile("gwalk")
