"""The default report does not depend on the BLAS thread count.

``ncprob verify all --seed 7`` at the default horizon 3 must print the same
bytes under one and two OpenBLAS threads, so that no stacked product adds
bits that move with the threading of a matrix product.  Deeper horizons are
not covered: at horizon 4 and 5 some check residuals still differ between
thread counts (a known gap, tracked in ROADMAP.md).
"""

import os
import subprocess
import sys
from pathlib import Path

import ncprob


def _verify_all(threads: int) -> bytes:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    src = str(Path(ncprob.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "ncprob", "verify", "all", "--seed", "7"]
    return subprocess.run(cmd, capture_output=True, check=True, env=env).stdout


def test_verify_all_prints_the_same_bytes_under_one_and_two_blas_threads():
    one, two = _verify_all(1), _verify_all(2)
    assert one.startswith(b"{")
    assert one == two
