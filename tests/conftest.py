"""Test-suite setup. OpenBLAS is pinned to one thread before numpy loads, so
the timing gate c10 (tests/test_acceptance.py) times single-threaded BLAS
products; an OPENBLAS_NUM_THREADS already set in the environment is kept."""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
