"""Import-time set-up shared by the benchmark's scripts.

Importing this module pins the BLAS and OpenMP pools to one thread before
numpy loads, and puts the checkout's ``src`` first on the import path, so
the benchmark always measures the gwalk source next to it.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))


def load_gwalk():
    """Import gwalk from the checkout's ``src``; exit non-zero if it is not there."""
    try:
        import gwalk
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import gwalk from {SRC}: {exc}")
    origin = Path(gwalk.__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"bench: gwalk was imported from {origin}, not from {SRC}")
    return gwalk
