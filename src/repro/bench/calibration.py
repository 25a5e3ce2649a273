"""Host-speed calibration for wall-clock numbers kept across runs.

A wall-clock time recorded on one day can only be compared with one
recorded on another day after dividing out the host's speed.
:func:`calibrate_ms` times a fixed numpy gather + einsum kernel — the
same kernel as ``calibrate_ms`` in ``perfbench/run.py`` — so a time in
milliseconds becomes a time in *calibration units* (ms ÷ calib_ms).

:func:`fresh_calibrate_ms` runs the kernel in a fresh interpreter.  Each
repetition allocates and frees a 4.8 MB gather result, and whether that
allocation page-faults depends on the process's allocation history: on a
2-core VM, in-process samples after a large free ranged 2.3–4.0 ms while
fresh interpreters read 3.9 ms.  The kernel is memory-bound, so even
fresh samples stray on a shared host (2.3–5.3 ms around a typical
4.1 ms); take the median of several.
"""

from __future__ import annotations

import inspect
import statistics
import subprocess
import sys
import time

import numpy as np

__all__ = ["calibrate_ms", "fresh_calibrate_ms"]


def calibrate_ms() -> float:
    """A fixed numpy gather + einsum kernel: host speed, not program speed."""
    rng = np.random.default_rng(0)
    a = rng.random((200_000, 3))
    b = rng.random((200_000, 3))
    idx = rng.permutation(200_000)
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        np.einsum("ij,ij->i", np.take(a, idx, axis=0), b)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def fresh_calibrate_ms() -> float:
    """:func:`calibrate_ms` measured in a fresh interpreter."""
    code = "\n".join(
        [
            "import statistics, time",
            "import numpy as np",
            inspect.getsource(calibrate_ms),
            "print(calibrate_ms())",
        ]
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return float(out.stdout)
