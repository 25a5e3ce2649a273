"""The simulated SIMT device — this reproduction's stand-in for the GPUs.

The paper's performance story is carried by two architecture-independent
quantities: the *work* each thread performs (elementary-operation counts
per check type, Section 2/3) and the *schedule* (one thread per
orientation, warps execute in lock step, the slowest thread of the
slowest warp bounds the kernel, Section 4).  This package counts the
former exactly (:mod:`repro.engine.costs`, :mod:`repro.engine.counters`)
and models the latter (:mod:`repro.engine.simt`) for the two Table 2
platforms (:mod:`repro.engine.device`), producing simulated kernel times
that reproduce the paper's figures in shape.

Wall-clock NumPy times are reported separately by the benches; they
measure this Python implementation, not the paper's CUDA kernels.
"""

from repro.engine.device import DeviceSpec, GTX_1080_TI, GTX_1080, DEVICES, scaled_device
from repro.engine.costs import CostModel, DEFAULT_COSTS
from repro.engine.counters import ThreadCounters, StageBreakdown
from repro.engine.simt import simulate_kernel, simulate_stage
from repro.engine.autotune import TuneRow, tune_memo_levels
from repro.engine.pool import SharedScene, WorkerPool, resolve_workers

__all__ = [
    "DeviceSpec",
    "scaled_device",
    "TuneRow",
    "tune_memo_levels",
    "SharedScene",
    "WorkerPool",
    "resolve_workers",
    "GTX_1080_TI",
    "GTX_1080",
    "DEVICES",
    "CostModel",
    "DEFAULT_COSTS",
    "ThreadCounters",
    "StageBreakdown",
    "simulate_kernel",
    "simulate_stage",
]
