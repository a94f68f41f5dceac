"""Test-session defaults that must be in place before numpy is imported.

OpenBLAS starts a thread pool sized to the machine even for the 4x4 to
729x729 matrices used here, and the pool's start-up and hand-off cost more
than the threads gain; the suite runs markedly faster with one thread.
A value already set in the environment wins.  This file sits at the
repository root so that it loads before any test module, including those
under ``perfbench/``, imports numpy.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
