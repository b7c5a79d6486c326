"""Thread-count control for the numeric backends.

AIRYLINK_THREADS caps the BLAS/OpenMP pool sizes.  It only takes effect if
applied before numpy first loads, so the package __init__ calls apply() before
it imports anything that loads numpy.  Explicitly set backend variables are
left alone.
"""

import os

_BACKEND_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def apply() -> None:
    value = os.environ.get("AIRYLINK_THREADS")
    if not value:
        return
    if not (value.isascii() and value.isdigit()) or int(value) < 1:
        raise ValueError("AIRYLINK_THREADS must be a positive integer")
    for var in _BACKEND_VARS:
        os.environ.setdefault(var, value)
