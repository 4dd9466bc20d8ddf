"""Host-speed calibration: a fixed kernel timed between the passes.

The benchmark's host is a share of a machine whose speed drifts: the same
pass can run 1.5-2x slower for stretches of ten seconds to several minutes,
which neither the guest's CPU time nor its steal time shows.  The kept
repetitions (``run.fastest``) absorb a stretch that covers part of a run,
not one that covers all of it.  So a run also times, before each pass and
after the last, a *window* of calls to a fixed kernel that touches none of
the program's code and does the same kinds of work (a Python loop over
small NumPy rows, as the DHB views do; dict bookkeeping; a SciPy sparse
product).  A window's *speed* is its median call time over
:data:`REFERENCE_CALL_S`, so a short interruption inside it does not count.
A pass's *speed factor* is the lower speed of the windows before and after
it: a slow stretch slows both, one stray slow window does not move it.
``run.end_to_end`` divides each pass's wall times by its factor before it
keeps the fastest repetitions.  A change to the program moves its timings
and not the kernel, so it moves the normalised timings by the same share.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp

#: median seconds of one kernel call on the reference host (2-vCPU Intel
#: Xeon VM at 2.1 GHz, Python 3.11, NumPy 2.4, SciPy 1.17) at its usual
#: speed, so that a speed of 1 means that speed
REFERENCE_CALL_S = 0.0035
#: kernel calls per window
CALLS = 24


class Calibrator:
    """The fixed kernel and the windows timed so far."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20260417)
        self.rows = [rng.integers(0, 2000, int(k)) for k in rng.integers(1, 40, 400)]
        self.matrix = sp.random(2000, 2000, density=0.004, random_state=rng, format="csr")
        self.keys = rng.integers(0, 1 << 20, 2000).tolist()
        #: per window, the seconds of each of its calls
        self.windows: list[list[float]] = []

    def kernel(self) -> int:
        cols = np.concatenate([row[np.argsort(row)] for row in self.rows])
        counts: dict[int, int] = {}
        for key in self.keys:
            counts[key % 1009] = counts.get(key % 1009, 0) + 1
        product = (self.matrix @ self.matrix).tocoo()
        return int(cols.size) + len(counts) + int(np.unique(product.row).size)

    def window(self) -> None:
        """Time one window of :data:`CALLS` kernel calls, call by call."""
        calls = []
        for _ in range(CALLS):
            start = time.perf_counter()
            self.kernel()
            calls.append(time.perf_counter() - start)
        self.windows.append(calls)

    def speeds(self) -> list[float]:
        """Each window's median call time over :data:`REFERENCE_CALL_S`."""
        return [statistics.median(calls) / REFERENCE_CALL_S for calls in self.windows]

    def factors(self, n_passes: int) -> list[float]:
        """The speed factor of each of the first ``n_passes`` passes (window
        ``k`` ran before pass ``k``): 1 at the reference speed, 1.5 when the
        host ran 1.5x slower."""
        speeds = self.speeds()
        return [min(speeds[k: k + 2]) for k in range(n_passes)]
