"""A fixed NumPy and float-formatting loop that times the host, not bergbal.

The measuring host is shared and its speed drifts by tens of percent over
minutes (see README.md).  Timing this loop next to every pass and dividing
cancels most of that drift.  It uses the same kinds of work as a pass
(exponentials and BLAS on arrays the size of an m = 200 basis, a small
least-squares solve, float-to-text conversion), and no change to bergbal can
make it faster or slower.
"""
import json
import statistics
import time

import numpy as np


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.rows = 0.1 * rng.standard_normal((201, 4096))
        self.vector = rng.standard_normal(4096)
        self.square = rng.standard_normal((120, 120))
        self.floats = rng.standard_normal(20000).tolist()

    def _once(self):
        t0 = time.perf_counter()
        for _ in range(3):
            np.exp(self.rows) @ self.vector
        np.linalg.lstsq(self.square, self.vector[:120], rcond=None)
        json.dumps(self.floats)
        ",".join("%.17g" % x for x in self.floats)
        return time.perf_counter() - t0

    def seconds(self):
        """Median of three timings of the loop (about 0.1 s in all)."""
        return statistics.median(self._once() for _ in range(3))
