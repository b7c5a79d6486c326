"""Machine-speed probe: a fixed computation timed around every point.

Shared machines drift in speed by up to 2x over minutes. Every point of a
run is affected alike, so more points per run do not remove the drift. The
worker times this fixed piece of work before the first point and after
every point, and scales each point's wall time by REFERENCE_S over the mean
probe time on either side of it. A reported second is therefore a second on
a machine where the probe takes REFERENCE_S: the probe's time on an idle
2-vCPU Xeon VM with one BLAS thread.

The probe mixes the three kinds of work the workloads do: a Hankel-function
evaluation over an array (the RS kernel), a dense complex matrix product,
and a Python loop of small numpy operations (the per-slot training loop).
It uses no airylink code, so a change to the package cannot move it. Import
this module only after airylink, so that AIRYLINK_THREADS applies to numpy.
"""

import time

import numpy as np
from scipy import special

REFERENCE_S = 0.020
# Time spent probing after a point, as a share of that point's wall time.
SHARE = 0.05

_X = np.linspace(1.0, 2000.0, 40000)
_A = (np.arange(256 * 256).reshape(256, 256) % 7 - 3.0) * (1 + 1j)


def _work() -> float:
    start = time.perf_counter()
    special.hankel2(1, _X)
    _A @ _A
    rng = np.random.default_rng(0)
    rows, vec = _A[:16, :128], _A[0, :128]
    for _ in range(1500):
        received = rows @ vec + rng.standard_normal(16)
        float(np.sum(np.abs(received) ** 2))
    return time.perf_counter() - start


def sample(seconds: float) -> list:
    """Probe times, repeating the work for about `seconds` (at least once)."""
    times = [_work()]
    while sum(times) < seconds:
        times.append(_work())
    return times
