"""Pin the BLAS libraries to one thread before any test module imports NumPy.

The suite's timing checks then measure the library rather than BLAS
threads competing for a small machine's cores. An explicit setting in
the environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
