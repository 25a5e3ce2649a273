"""Benchmark harness: one generator per table/figure of the paper.

Each experiment function in :mod:`repro.bench.experiments` regenerates
the data behind one of the paper's tables or figures — same workloads,
same sweep axes, same reported quantities — at a configurable scale
(:mod:`repro.bench.config`; pure-Python substrate cannot run 2048^3 x
2000-pivot sweeps).  Results carry the paper's published values
alongside the measured ones so the report renderer
(:mod:`repro.bench.render`) prints paper-vs-measured rows, which is also
what EXPERIMENTS.md records.
"""

from repro.bench.calibration import calibrate_ms, fresh_calibrate_ms
from repro.bench.config import BenchScale, current_scale
from repro.bench.runner import build_workload, run_workload, Workload
from repro.bench.render import render_table, render_series
from repro.bench import experiments

__all__ = [
    "BenchScale",
    "current_scale",
    "calibrate_ms",
    "fresh_calibrate_ms",
    "build_workload",
    "run_workload",
    "Workload",
    "render_table",
    "render_series",
    "experiments",
]
