"""Shared test settings."""

import numpy as np
from hypothesis import settings
from numpy._core._multiarray_umath import __cpu_features__

from oracles import complex_mul_is_fused, tan_is_libm

# Property tests draw the same examples on every run, so the suite stays
# deterministic, and have no per-example deadline, which a slow or shared
# host would trip.  No example database is written.
settings.register_profile("gwalk", deadline=None, derandomize=True, database=None)
settings.load_profile("gwalk")


def pytest_report_header(config):
    """numpy's tan kernel and enabled CPU features, which pick the entry of
    test_walk.PINNED_EVOLVE that the run checks, and whether its complex
    multiply rounds as fused, which keeps the real-space step's space-uniform
    gates complex and which test_csvio.PINNED["interference"] depends on."""
    enabled = " ".join(sorted(name for name, on in __cpu_features__.items() if on))
    return [f"gwalk: numpy {np.__version__}, tan_is_libm={tan_is_libm()}, "
            f"complex_mul_is_fused={complex_mul_is_fused()}",
            f"gwalk: numpy CPU features enabled: {enabled}"]
