"""A fixed calibration kernel that measures how fast the host runs now.

On a shared host the same code runs at different speeds from one minute
to the next, because other machines on the host take shared caches,
memory bandwidth and core time.  The child times this kernel right
before and right after each config, and the parent scales each config's
time by how long the kernel took compared with ``REFERENCE_UNIT_S``.
The kernel uses numpy and plain Python only, never qthermo, so a change
to the library cannot change it.

Its mix follows the workloads: small complex Kronecker products and
matrix products, 64x64 dense solves and Hermitian eigenvalues, and a
Python dictionary loop like the secular binning.
"""

from __future__ import annotations

import time

import numpy as np

# Typical time of one unit on the machine the benchmark was made on
# (a 2-vCPU Intel Xeon KVM guest, one BLAS thread).  It only sets the
# scale of the reported number; any fixed value would do.
REFERENCE_UNIT_S = 0.078
UNITS = 10

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))
_M = _rng.standard_normal((64, 64))
_H = _M + _M.T
_B = _rng.standard_normal(64)


def unit() -> float:
    """One unit of fixed work, 0.05 to 0.12 s on the reference machine."""
    s = 0.0
    bins: dict[int, float] = {}
    for i in range(120):
        k = np.kron(_A, _A.conj())
        k = k @ k
        x = np.linalg.solve(_M + i * np.eye(64), _B)
        w = np.linalg.eigvalsh(_H + i * np.eye(64))
        for j in range(300):
            key = (j * 7) % 31
            bins[key] = bins.get(key, 0.0) + j * 0.5
        s += float(x[0]) + float(w[0]) + float(k[0, 0].real) + len(bins)
    return s


def calibrate(units: int = UNITS) -> float:
    """Mean seconds per unit over ``units`` back-to-back units.

    The host switches between a fast and a slow state within a second, and
    a config's time follows the share of time spent in each, so the mean
    is the estimate to use, not the median."""
    t = time.perf_counter()
    for _ in range(units):
        unit()
    return (time.perf_counter() - t) / units
