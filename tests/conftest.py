"""Run the test process's BLAS on one thread.

The flat kernels are small matmuls.  On a 2-core machine, a threaded BLAS
waits for a core that another process keeps busy, and the wall-clock
budgets in ``test_acceptance.py`` then measure the neighbour instead of the
code (``criterion_03`` took 5.3 s against its 1 s budget beside a second
BLAS-threaded process, 0.04 s alone).  The thread count is read when numpy
loads its BLAS, so it is set here, before any test module imports numpy; a
value already in the environment is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
