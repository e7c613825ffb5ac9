"""A fixed reference computation that gauges how fast the machine runs now.

On a shared machine the CPU speed a process gets drifts with what other
tenants run: identical work took up to 1.7 times the CPU time a few minutes
later, and every part of every workload moved by about the same factor.
Each measured CPU time is therefore divided by the CPU time of this kernel,
measured next to it, and multiplied by ``REFERENCE_SECONDS``: times are
reported as CPU seconds on a machine where one kernel call takes 20 ms.

The kernel uses no code of the package, so a change to the package moves
the measured times and not the yardstick.  It mixes the kinds of work the
package does: an interpreted loop, many small numpy calls, BLAS-3 products
and the rank-1 updates of elimination.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_SECONDS = 0.02


def reference_kernel() -> float:
    a = np.linspace(-1.0, 1.0, 160 * 160).reshape(160, 160) + np.eye(160)
    total = 0
    for i in range(40_000):
        total += i % 7
    row = a[0].copy()
    for _ in range(500):
        row = a[:16, :16] @ row[:16] - row[16:32]
        row = np.concatenate([row, a[1, 16:]]) / np.linalg.norm(row)
    for _ in range(10):
        a = a @ a.T
        a /= np.abs(a).max()
    w = np.linspace(-1.0, 1.0, 256 * 256).reshape(256, 256)
    for k in range(0, 255, 2):
        w[k + 1 :, k + 1 :] -= np.outer(w[k + 1 :, k] * 1e-3, w[k, k + 1 :])
    return total + float(a[0, 0]) + float(row[0]) + float(w[-1, -1])


def reference_cpu() -> float:
    """CPU seconds of one kernel call."""
    start = time.process_time()
    reference_kernel()
    return time.process_time() - start
