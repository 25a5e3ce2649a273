"""Traced-run instrumentation: seams into the program and span arithmetic.

Everything here stays on the benchmark's side of the program's public
surface.  The traced run installs the program's own tracer and metrics
registry (:mod:`repro.obs`) and adds two outside seams:

* :class:`DecideProbe` -- a pass-through method object whose ``decide``
  records one ``bench.decide`` span per call;
* :func:`box_probe` -- swaps the ``tool_aabb_batch`` name that
  :mod:`repro.cd.methods` calls for a wrapper recording one
  ``bench.box`` span (rows, hits) per call, and restores it afterwards.

A seam that never fires is reported as unmeasured, never as zero: a
refactor that moves a call site must not silently empty a layer.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.obs import MetricsRegistry, Tracer, get_tracer, use_metrics, use_tracer

# Per-layer metrics, in report order: (name, unit).  Times are per
# computed request (a map, or a path window) unless the name says _s.
PER_LAYER = (
    ("octree.build_s", "s"),
    ("octree.nodes", "count"),
    ("path.offset_s", "s"),
    ("path.points", "count"),
    ("ica.table_ms", "ms"),
    ("ica.entries", "count"),
    ("ica.entries_per_ms", "1/ms"),
    ("ica.table_share", "ratio"),
    ("cd.run_ms", "ms"),
    ("cd.decide_ms", "ms"),
    ("cd.decide_calls", "count"),
    ("cd.other_ms", "ms"),
    ("cd.levels", "count"),
    ("cd.dedup_ratio", "ratio"),
    ("cd.pairs", "count"),
    ("cd.pairs_per_s", "1/s"),
    ("cd.box_checks", "count"),
    ("cd.ica_fly_checks", "count"),
    ("cd.ica_memo_checks", "count"),
    ("cd.cull_checks", "count"),
    ("cd.corner_cases", "count"),
    ("cd.ica_efficiency", "ratio"),
    ("geometry.box_ms", "ms"),
    ("geometry.box_rows", "count"),
    ("geometry.box_hit_ratio", "ratio"),
    ("cd.decide_self_ms", "ms"),
    ("engine.pool.start_s", "s"),
    ("engine.pool.utilization", "ratio"),
    ("engine.pool.imbalance_ratio", "ratio"),
    ("engine.pool.task_wait_ms", "ms"),
    ("engine.workspace.reuse_ratio", "ratio"),
    ("engine.workspace.bytes_held", "bytes"),
    ("service.compute_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.cpu_ms", "ms"),
    ("service.wire_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.hit_p50_ms", "ms"),
    ("service.hit_p90_ms", "ms"),
    ("service.coalesced", "count"),
    ("service.rejected", "count"),
    ("service.registry.evictions", "count"),
    ("service.registry.table_builds", "count"),
    ("service.register_s", "s"),
    ("obs.trace_overhead_frac", "ratio"),
    ("obs.layer_coverage", "ratio"),
    ("host.calib_ms", "ms"),
)

# Metrics that belong to each outside seam: omitted (and named as
# unmeasured) when the seam never fired on a workload that runs it.
DECIDE_METRICS = ("cd.decide_ms", "cd.decide_calls", "cd.decide_self_ms", "cd.other_ms")
BOX_METRICS = ("geometry.box_ms", "geometry.box_rows", "geometry.box_hit_ratio", "cd.decide_self_ms")


class DecideProbe:
    """Pass-through wrapper around a CD method object.

    Every attribute but ``decide`` is the wrapped method's; ``decide``
    runs the wrapped one inside a ``bench.decide`` span.
    """

    def __init__(self, method) -> None:
        self._method = method
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._method, name)

    def decide(self, rt, wave):
        self.calls += 1
        with get_tracer().span("bench.decide"):
            return self._method.decide(rt, wave)


@dataclass
class BoxProbe:
    calls: int = 0


@contextmanager
def box_probe():
    """Wrap ``repro.cd.methods.tool_aabb_batch`` for the block."""
    import repro.cd.methods as methods

    probe = BoxProbe()
    real = getattr(methods, "tool_aabb_batch", None)
    if real is None:
        yield probe
        return

    def timed_box(pivot, dirs, centers, *args, **kwargs):
        probe.calls += 1
        tracer = get_tracer()
        with tracer.span("bench.box") as sp:
            hit = real(pivot, dirs, centers, *args, **kwargs)
        sp.set(rows=len(centers), hits=int(np.count_nonzero(hit)))
        return hit

    methods.tool_aabb_batch = timed_box
    try:
        yield probe
    finally:
        methods.tool_aabb_batch = real


@contextmanager
def traced():
    """Install a fresh program tracer and metrics registry for the block."""
    tracer = Tracer()
    registry = MetricsRegistry()
    with use_tracer(tracer), use_metrics(registry):
        yield tracer, registry


@dataclass
class SpanTotals:
    count: int = 0
    wall_s: float = 0.0
    self_s: float = 0.0  # wall minus the part its child spans cover


def span_totals(records) -> dict[str, SpanTotals]:
    """Per span name: count, wall time and self time.

    Self time is a span's duration minus the part of its interval that
    the union of its direct children covers (pool workers' spans run in
    parallel, so children may overlap).
    """
    children: dict[int, list] = {}
    for rec in records:
        if rec.parent >= 0:
            children.setdefault(rec.parent, []).append(rec)
    out: dict[str, SpanTotals] = {}
    for i, rec in enumerate(records):
        lo, hi = rec.t0, rec.t0 + rec.wall_s
        covered = 0.0
        run_lo = run_hi = None
        for a, b in sorted(
            (max(c.t0, lo), min(c.t0 + c.wall_s, hi)) for c in children.get(i, ())
        ):
            if b <= a:
                continue
            if run_hi is None or a > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = a, b
            else:
                run_hi = max(run_hi, b)
        if run_hi is not None:
            covered += run_hi - run_lo
        t = out.setdefault(rec.name, SpanTotals())
        t.count += 1
        t.wall_s += rec.wall_s
        t.self_s += rec.wall_s - covered
    return out


def attr_values(records, name: str, attr: str) -> list:
    return [rec.attrs[attr] for rec in records if rec.name == name and attr in rec.attrs]


def workspace_metrics(values: dict) -> dict:
    """``engine.workspace.*`` from ``{metric name: value}`` (registry or scrape)."""
    reuse = values.get("engine.workspace.reuse_hits", 0.0)
    grow = values.get("engine.workspace.grow_events", 0.0)
    return {
        "engine.workspace.reuse_ratio": reuse / (reuse + grow) if reuse + grow else 0.0,
        "engine.workspace.bytes_held": float(values.get("engine.workspace.bytes_held", 0.0)),
    }


def registry_values(registry: MetricsRegistry) -> dict:
    return {
        name: m["value"]
        for name, m in registry.as_dict().items()
        if m.get("type") in ("counter", "gauge") and m.get("value") is not None
    }


def self_time_table(totals: dict[str, SpanTotals], limit: int = 12) -> list[str]:
    rows = sorted(totals.items(), key=lambda kv: kv[1].self_s, reverse=True)[:limit]
    return [
        f"span {name:<22} count={t.count:<7d} wall_s={t.wall_s:.4f} self_s={t.self_s:.4f}"
        for name, t in rows
    ]
