"""Setup shared by every test module.

Pins BLAS to one thread before numpy loads, as ``bench/run.py`` does: on a
2-core host the default threading made the suite take twice as long and
let the acceptance tests' wall-time caps swing with it.  A value already
set in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
