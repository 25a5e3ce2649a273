"""The in-process workloads: cold AICA, cold PBoxOpt, and AICA path windows.

Each workload generates its request sequence from the seed, runs it
against the public API for a fixed time, keeps what it needs to check
the answers afterwards, and reports its end-to-end and per-layer
numbers.  The served workload lives in :mod:`perfbench.served`.
"""

from __future__ import annotations

import resource
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from multiprocessing import resource_tracker

import numpy as np

from repro import AICA, OrientationGrid, PBoxOpt, Scene, build_ica_table, run_cd
from repro.cd.pathrun import run_along_path
from repro.cd.verify import brute_force_map
from repro.engine.pool import SharedScene, WorkerPool, set_ambient_pool
from repro.obs import get_metrics, get_tracer

from perfbench import layers
from perfbench.inputs import (
    PIVOTS_PER_MODEL,
    build_inputs,
    finishing_tool,
    model_seed,
    window_starts,
)

N_MODELS = 4
# sim_gpu_ms averages the simulated cost of the first SIM_MAPS maps of
# the seeded sequence, so it repeats exactly for one seed whatever the
# host speed.
SIM_MAPS = 64
CHECKS_PER_MODEL = 2  # cross-method checks per model, sampled by seed
BRUTE_GRID = 8  # one brute_force_map check per model at this map size
# Untimed requests before the first timed one: buffers, page mappings
# and pool workers' arenas settle in the first few requests, which a
# long-lived caller pays once.
WARMUP_REQUESTS = 8


@dataclass
class MapRecord:
    model: int
    pivot: np.ndarray
    collides: np.ndarray
    sim_ms: float
    counters: object  # repro.engine.counters.ThreadCounters


@dataclass
class Phase:
    """What one timed phase saw from the caller's side."""

    latencies_s: list = field(default_factory=list)  # computed requests
    hits_s: list = field(default_factory=list)  # served cache hits
    maps: int = 0
    wall_s: float = 0.0
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    records: dict = field(default_factory=dict)  # sequence index -> records

    @property
    def maps_per_s(self) -> float:
        return self.maps / self.wall_s if self.wall_s > 0 else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def note_exception(phase: Phase, exc: Exception) -> None:
    kind = f"exception {type(exc).__name__}"
    if not phase.failures[kind]:
        traceback.print_exception(exc, file=sys.stderr)
    phase.failures[kind] += 1


def mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


class InProcess:
    """A workload that calls the library directly, one request at a time."""

    method_cls = AICA
    check_cls = PBoxOpt  # the independent method cross-checking each map
    grid = OrientationGrid.square(16)
    table_inside_run = False  # does cd.run include the ICA table build?

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.tool = finishing_tool()
        self.next_k = 0
        self.inputs = None
        self.done: dict[int, list[MapRecord]] = {}

    # -- lifecycle --------------------------------------------------------

    def setup(self) -> float:
        self.inputs = None  # a repeated set-up must not hold two input sets
        t0 = time.perf_counter()
        self.inputs = build_inputs(self.seed)
        return time.perf_counter() - t0

    def close(self) -> None:
        pass

    def warm_up(self) -> None:
        method = self.method_cls()
        for k in range(WARMUP_REQUESTS):
            self.done[k] = self.request(k, method)
        self.next_k = WARMUP_REQUESTS

    # -- requests ---------------------------------------------------------

    def model_of(self, k: int):
        return self.inputs.models[k % N_MODELS]

    def request(self, k: int, method) -> list[MapRecord]:
        raise NotImplementedError

    def record(self, k: int, pivot, result) -> MapRecord:
        if result.collides.shape != (self.grid.size,):
            raise ValueError(f"map has shape {result.collides.shape}")
        return MapRecord(
            k % N_MODELS, np.asarray(pivot), result.collides.copy(),
            result.timing.total_s * 1e3, result.counters,
        )

    def run(self, seconds: float, *, traced: bool = False) -> Phase:
        method = self.method_cls()
        if traced:
            method = layers.DecideProbe(method)
        self.probe = method
        phase = Phase()
        tracer = get_tracer()
        t_start = time.perf_counter()
        deadline = t_start + seconds
        t_end = t_start
        while time.perf_counter() < deadline:
            k = self.next_k
            self.next_k += 1
            phase.attempted += 1
            t0 = time.perf_counter()
            try:
                with tracer.span("bench.request", k=k):
                    recs = self.request(k, method)
            except Exception as exc:  # a failed request is counted, the run goes on
                note_exception(phase, exc)
                continue
            t_end = time.perf_counter()
            phase.latencies_s.append(t_end - t0)
            phase.maps += len(recs)
            phase.records[k] = recs
        phase.wall_s = t_end - t_start
        self.done.update(phase.records)
        return phase

    # -- end-to-end numbers ----------------------------------------------

    def sim_gpu_ms(self) -> float:
        """Mean simulated cost over the first SIM_MAPS maps of the sequence."""
        sims: list[float] = []
        k = 0
        method = self.method_cls()
        while len(sims) < SIM_MAPS:
            recs = self.done.get(k) or self.request(k, method)
            sims.extend(r.sim_ms for r in recs)
            k += 1
        return float(np.mean(sims[:SIM_MAPS]))

    def finish(self) -> tuple[Counter, float, float]:
        """Output checks, ``sim_gpu_ms`` and peak RSS in MiB.

        The RSS is read first so the checks' own arrays stay out of it.
        """
        rss = peak_rss_mb()
        return self.check(), self.sim_gpu_ms(), rss

    # -- output checks ----------------------------------------------------

    def sample(self, per_model: int) -> list[int]:
        """Seeded sample of answered requests, ``per_model`` of each model."""
        rng = np.random.default_rng([self.seed, 1])
        out = []
        for m in range(N_MODELS):
            ks = sorted(k for k in self.done if k % N_MODELS == m)
            if ks:
                out.extend(rng.choice(ks, size=min(per_model, len(ks)), replace=False))
        return [int(k) for k in out]

    def check_maps(self) -> Counter:
        """Cross-check sampled maps against a method sharing no decide code."""
        bad = Counter()
        other = self.check_cls()
        for k in self.sample(CHECKS_PER_MODEL):
            for rec in self.done[k]:
                m = self.inputs.models[rec.model]
                ref = run_cd(Scene(m.tree, self.tool, rec.pivot), self.grid, other, workers=1)
                if not np.array_equal(ref.collides, rec.collides):
                    bad[f"map check: {self.method_cls.name} != {other.name}"] += 1
        return bad

    def check_brute(self) -> Counter:
        bad = Counter()
        grid = OrientationGrid.square(BRUTE_GRID)
        for m in self.inputs.models:
            scene = Scene(m.tree, self.tool, m.pivots[0])
            got = run_cd(scene, grid, self.method_cls(), workers=1).collides
            if not np.array_equal(got, brute_force_map(scene, grid)):
                bad[f"map check: {self.method_cls.name} != brute_force_map"] += 1
        return bad

    def check(self) -> Counter:
        return self.check_maps() + self.check_brute()

    # -- per-layer numbers (traced phase) ----------------------------------

    def layer_metrics(self, phase: Phase, tracer, registry) -> dict:
        """Every per-layer metric; zero for layers this workload skips."""
        out = {name: 0.0 for name, _ in layers.PER_LAYER}
        inp = self.inputs
        out.update({
            "octree.build_s": inp.octree_build_s,
            "octree.nodes": inp.octree_nodes,
            "path.offset_s": inp.path_offset_s,
            "path.points": inp.path_points,
        })
        n = max(len(phase.latencies_s), 1)
        recs = [r for rs in phase.records.values() for r in rs]
        tot = layers.span_totals(tracer.records)

        def wall_ms(name):
            t = tot.get(name)
            return t.wall_s * 1e3 / n if t else 0.0

        table_ms = wall_ms("ica.table.build")
        run_ms = wall_ms("cd.run")
        table_in_run_ms = table_ms if self.table_inside_run else 0.0
        compute_ms = run_ms + table_ms - table_in_run_ms
        decide_ms = wall_ms("bench.decide")
        box_ms = wall_ms("bench.box")
        entries = layers.attr_values(tracer.records, "ica.table.build", "n_entries")
        pairs = sum(layers.attr_values(tracer.records, "cd.level", "pairs")) / n
        dedup = layers.attr_values(tracer.records, "cd.level", "dedup_ratio")
        rows = layers.attr_values(tracer.records, "bench.box", "rows")
        hits = layers.attr_values(tracer.records, "bench.box", "hits")
        out.update({
            "ica.table_ms": table_ms,
            "ica.entries": mean(entries),
            "ica.entries_per_ms": sum(entries) / (table_ms * n) if table_ms else 0.0,
            "ica.table_share": table_ms / compute_ms if compute_ms else 0.0,
            "cd.run_ms": run_ms,
            "cd.decide_ms": decide_ms,
            "cd.decide_calls": tot["bench.decide"].count / n if "bench.decide" in tot else 0.0,
            "cd.other_ms": run_ms - decide_ms - table_in_run_ms,
            "cd.levels": tot["cd.level"].count / max(len(recs), 1) if "cd.level" in tot else 0.0,
            "cd.dedup_ratio": mean(dedup),
            "cd.pairs": pairs,
            "cd.pairs_per_s": pairs / (run_ms / 1e3) if run_ms else 0.0,
            "geometry.box_ms": box_ms,
            "geometry.box_rows": sum(rows) / n,
            "geometry.box_hit_ratio": sum(hits) / sum(rows) if sum(rows) else 0.0,
            "cd.decide_self_ms": decide_ms - box_ms,
            "obs.layer_coverage": (
                1.0 - tot["bench.request"].self_s / tot["bench.request"].wall_s
                if "bench.request" in tot and tot["bench.request"].wall_s
                else 0.0
            ),
        })
        for field_name in ("box_checks", "ica_fly_checks", "ica_memo_checks",
                           "cull_checks", "corner_cases"):
            total = sum(int(getattr(r.counters, field_name).sum()) for r in recs)
            out[f"cd.{field_name}"] = total / n
        box = sum(r.counters.total_box_checks for r in recs)
        checks = sum(r.counters.total_checks for r in recs)
        out["cd.ica_efficiency"] = 1.0 - box / checks if checks else 0.0
        out.update(layers.workspace_metrics(layers.registry_values(registry)))
        return out

    def unmeasured(self, probe_calls: dict) -> list[str]:
        """Seams that should have fired on this workload but did not."""
        return [seam for seam, calls in probe_calls.items() if calls == 0]


class ColdAica(InProcess):
    """AICA at a fresh pivot per request: table build, then traversal."""

    def request(self, k: int, method) -> list[MapRecord]:
        m = self.model_of(k)
        pivot = m.pivots[(k // N_MODELS) % PIVOTS_PER_MODEL]
        tracer = get_tracer()
        with tracer.span("bench.ica"):
            table = build_ica_table(m.tree, self.tool, pivot)
        with tracer.span("bench.cd"):
            r = run_cd(Scene(m.tree, self.tool, pivot), self.grid, method,
                       workers=1, table=table)
        return [self.record(k, pivot, r)]


class ColdPBoxOpt(InProcess):
    """PBoxOpt on the same pivot sampler: cull panel plus exact box kernel."""

    method_cls = PBoxOpt
    check_cls = AICA
    grid = OrientationGrid.square(12)

    def request(self, k: int, method) -> list[MapRecord]:
        m = self.model_of(k)
        pivot = m.pivots[(k // N_MODELS) % PIVOTS_PER_MODEL]
        with get_tracer().span("bench.cd"):
            r = run_cd(Scene(m.tree, self.tool, pivot), self.grid, method, workers=1)
        return [self.record(k, pivot, r)]


class PathAica(InProcess):
    """AICA maps over windows of consecutive path pivots on a process pool."""

    grid = OrientationGrid.square(8)
    window = 4
    workers = 2
    windows_per_model = 64
    table_inside_run = True  # pool workers build each pivot's table in run_cd

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.pool = None
        self.arenas = []
        self.pool_start_s = 0.0
        self.pool_gauges: list[tuple[float, float]] = []

    def setup(self) -> float:
        self.close()
        self.inputs = None
        t0 = time.perf_counter()
        self.inputs = build_inputs(self.seed)
        self.starts = [
            window_starts(m.path, self.window, self.windows_per_model,
                          model_seed(self.seed, i) + N_MODELS)
            for i, m in enumerate(self.inputs.models)
        ]
        t1 = time.perf_counter()
        self.pool = WorkerPool(self.workers)
        # One trivial task per worker spawns them all now, not in the
        # first timed request.
        self.pool.map(abs, [0] * self.workers)
        set_ambient_pool(self.pool)
        t2 = time.perf_counter()
        # One shared-memory arena per part, reused by every window on it.
        self.arenas = [SharedScene.create(m.tree) for m in self.inputs.models]
        self.pool_start_s = t2 - t1
        return time.perf_counter() - t0

    def close(self) -> None:
        for arena in self.arenas:
            arena.destroy()
        self.arenas = []
        if self.pool is not None:
            set_ambient_pool(None)
            self.pool.shutdown()
            self.pool = None
            # The shared-memory arenas started multiprocessing's resource
            # tracker; stop it and wait for it, like every other child.
            tracker = getattr(resource_tracker, "_resource_tracker", None)
            if tracker is not None and hasattr(tracker, "_stop"):
                tracker._stop()

    def pivots_of(self, k: int) -> np.ndarray:
        m = self.model_of(k)
        s = self.starts[k % N_MODELS][(k // N_MODELS) % self.windows_per_model]
        return m.path[s : s + self.window]

    def run(self, seconds: float, *, traced: bool = False) -> Phase:
        # Pool workers receive the method by name, so no decide wrapper
        # can reach them: the decide/box seams stay off on this workload.
        return super().run(seconds, traced=False)

    def request(self, k: int, method) -> list[MapRecord]:
        m = self.model_of(k)
        pivots = self.pivots_of(k)
        pr = run_along_path(m.tree, self.tool, pivots, self.grid, method,
                            workers=self.workers, shared=self.arenas[k % N_MODELS])
        if get_tracer().enabled:
            reg = get_metrics()
            util = reg.gauge("engine.pool.utilization").value
            imb = reg.gauge("engine.pool.imbalance_ratio").value
            if util is not None and imb is not None:
                self.pool_gauges.append((util, imb))
        return [self.record(k, p, r) for p, r in zip(pivots, pr.results)]

    def check_maps(self) -> Counter:
        """Each sampled window must equal per-pivot serial ``run_cd``."""
        bad = Counter()
        for k in self.sample(1):
            m = self.inputs.models[k % N_MODELS]
            for rec in self.done[k]:
                ref = run_cd(Scene(m.tree, self.tool, rec.pivot), self.grid, AICA(), workers=1)
                if not np.array_equal(ref.collides, rec.collides):
                    bad["map check: path window != per-pivot run_cd"] += 1
        return bad

    def layer_metrics(self, phase: Phase, tracer, registry) -> dict:
        out = super().layer_metrics(phase, tracer, registry)
        waits = layers.span_totals(tracer.records).get("pool.task.wait")
        out.update({
            "engine.pool.start_s": self.pool_start_s,
            "engine.pool.utilization": mean([u for u, _ in self.pool_gauges]),
            "engine.pool.imbalance_ratio": mean([i for _, i in self.pool_gauges]),
            "engine.pool.task_wait_ms": waits.wall_s * 1e3 / waits.count if waits else 0.0,
        })
        return out

    def unmeasured(self, probe_calls: dict) -> list[str]:
        return []  # the seams are off by design here (see run)
