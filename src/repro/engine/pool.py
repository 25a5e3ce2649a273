"""Multi-process parallel execution of CD workloads.

The paper's algorithm is pleasingly parallel on two axes: orientations
(one GPU thread each, independent by construction) and pivots (each
``run_cd`` along a path is a separate problem).  The serial NumPy
substrate already exploits neither across *processes* — this module
does, while guaranteeing byte-identical results:

* :func:`run_cd_parallel` shards one run's orientation thread-blocks
  over a pool of worker processes; each worker traverses its range and
  returns its ``collides`` slice plus a :class:`ThreadCounters`, merged
  in the parent with ``merged_with``.  SIMT simulation, metrics export
  and the run report happen once on the merged result, exactly as the
  serial path would.
* :func:`run_along_path_parallel` shards a path's pivots; each worker
  performs a full serial ``run_cd`` (building its own per-pivot ICA
  table) and ships the result back.

In both modes the octree level arrays — and, for a single sharded run,
the memoized ICA table — live in :mod:`multiprocessing.shared_memory`:
workers attach zero-copy views instead of unpickling the tree per task
(:class:`SharedScene`).  Small inputs (tool, pivot, grid, config) travel
by pickle.

Worker selection: explicit ``workers=`` argument, else
``TraversalConfig.workers``, else the ``REPRO_WORKERS`` environment
variable (``auto`` = CPU count), else 1 — the serial reference path.
Per-worker trace spans are folded into the parent tracer
(:meth:`repro.obs.trace.Tracer.absorb`) so ``repro-bench --json``
reports keep their schema regardless of the worker count.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import replace
from multiprocessing import get_all_start_methods, get_context, resource_tracker, shared_memory

import numpy as np

from repro.engine.workspace import Workspace, export_workspace_metrics, use_workspace
from repro.geometry.aabb import AABB
from repro.ica.table import IcaTable
from repro.obs.context import TraceContext, use_trace_context
from repro.obs.metrics import get_metrics
from repro.obs.profile import Heartbeat, PoolStats, peak_rss_bytes, progress_enabled
from repro.obs.trace import Tracer, get_tracer, use_tracer
from repro.octree.linear import LinearOctree, OctreeLevel

__all__ = [
    "resolve_workers",
    "SharedScene",
    "WorkerPool",
    "get_ambient_pool",
    "set_ambient_pool",
    "use_pool",
    "run_cd_parallel",
    "run_along_path_parallel",
]

_ALIGN = 64  # byte alignment of each array inside the arena


def resolve_workers(value=None) -> int:
    """Normalize a worker-count request to an int ``>= 1``.

    ``None``/``0`` defer to ``REPRO_WORKERS`` (default 1); the string
    ``"auto"`` (either given directly or via the environment) means the
    machine's CPU count.
    """
    if value is None or value == 0:
        value = os.environ.get("REPRO_WORKERS", "").strip() or 1
    if isinstance(value, str):
        if value.lower() == "auto":
            value = os.cpu_count() or 1
        else:
            try:
                value = int(value)
            except ValueError:
                raise ValueError(
                    f"worker count must be an integer or 'auto', got {value!r}"
                ) from None
    value = int(value)
    if value < 0:
        raise ValueError(f"worker count must be >= 0, got {value}")
    return max(1, value)


# ---------------------------------------------------------------------------
# Shared-memory scene arena
# ---------------------------------------------------------------------------


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class SharedScene:
    """Octree level arrays (+ optional ICA table) in one shared block.

    The parent calls :meth:`create`, passes the picklable ``manifest``
    to workers, keeps the instance alive while tasks run, then calls
    :meth:`destroy`.  Workers call :meth:`attach` with the manifest and
    get back ``(tree, table)`` whose arrays are read-only views directly
    into the shared block — no copy, no pickling of the tree.
    """

    def __init__(self, shm: shared_memory.SharedMemory, manifest: dict):
        self._shm = shm
        self.manifest = manifest

    @classmethod
    def create(cls, tree: LinearOctree, table: IcaTable | None = None) -> "SharedScene":
        specs = []
        payload = []
        offset = 0

        def _add(key: str, arr: np.ndarray) -> None:
            nonlocal offset
            arr = np.ascontiguousarray(arr)
            specs.append(
                {
                    "key": key,
                    "dtype": arr.dtype.str,
                    "shape": tuple(arr.shape),
                    "offset": offset,
                }
            )
            payload.append(arr)
            offset = _aligned(offset + arr.nbytes)

        for l, lev in enumerate(tree.levels):
            _add(f"L{l}.codes", lev.codes)
            _add(f"L{l}.status", lev.status)
            _add(f"L{l}.child_start", lev.child_start)
            _add(f"L{l}.child_count", lev.child_count)
        if table is not None:
            for l in range(len(table.cos1)):
                _add(f"ica.cos1.{l}", table.cos1[l])
                _add(f"ica.cos2.{l}", table.cos2[l])

        shm = shared_memory.SharedMemory(create=True, size=max(1, offset))
        for spec, arr in zip(specs, payload):
            dst = np.frombuffer(
                shm.buf, dtype=np.dtype(spec["dtype"]), count=arr.size,
                offset=spec["offset"],
            ).reshape(spec["shape"])
            dst[...] = arr

        manifest = {
            "shm": shm.name,
            "domain_lo": tuple(float(x) for x in tree.domain.lo),
            "domain_hi": tuple(float(x) for x in tree.domain.hi),
            "depth": tree.depth,
            "arrays": specs,
            "table": None
            if table is None
            else {
                "levels": table.levels,
                "n_levels_stored": len(table.cos1),
                "pivot": tuple(float(x) for x in table.pivot),
                "n_entries": table.n_entries,
            },
        }
        return cls(shm, manifest)

    @staticmethod
    def attach(manifest: dict) -> tuple[LinearOctree, IcaTable | None]:
        """(Worker side) Rebuild the scene as views into the shared block.

        Attachments are cached per block name, so a worker reattaches at
        most once per scene regardless of how many tasks it runs.
        """
        name = manifest["shm"]
        cached = _ATTACHED.get(name)
        if cached is not None:
            return cached[1], cached[2]

        shm = _attach_untracked(name)
        views: dict[str, np.ndarray] = {}
        for spec in manifest["arrays"]:
            dtype = np.dtype(spec["dtype"])
            count = int(np.prod(spec["shape"], dtype=np.int64))
            arr = np.frombuffer(
                shm.buf, dtype=dtype, count=count, offset=spec["offset"]
            ).reshape(spec["shape"])
            arr.flags.writeable = False
            views[spec["key"]] = arr

        levels = [
            OctreeLevel(
                codes=views[f"L{l}.codes"],
                status=views[f"L{l}.status"],
                child_start=views[f"L{l}.child_start"],
                child_count=views[f"L{l}.child_count"],
            )
            for l in range(manifest["depth"] + 1)
        ]
        tree = LinearOctree(
            AABB(manifest["domain_lo"], manifest["domain_hi"]),
            manifest["depth"],
            levels,
            linked=True,
        )

        table = None
        meta = manifest["table"]
        if meta is not None:
            table = IcaTable(
                pivot=np.asarray(meta["pivot"], dtype=np.float64),
                levels=meta["levels"],
                cos1=[views[f"ica.cos1.{l}"] for l in range(meta["n_levels_stored"])],
                cos2=[views[f"ica.cos2.{l}"] for l in range(meta["n_levels_stored"])],
                n_entries=meta["n_entries"],
            )

        while len(_ATTACHED) >= _ATTACH_CACHE_MAX:
            stale = next(iter(_ATTACHED))
            _ATTACHED.pop(stale)[0].close()
        _ATTACHED[name] = (shm, tree, table)
        return tree, table

    @property
    def nbytes(self) -> int:
        return self._shm.size

    def destroy(self) -> None:
        """Release the block (close + unlink); idempotent."""
        try:
            self._shm.close()
            self._shm.unlink()
        except FileNotFoundError:
            pass


_REGISTER_LOCK = threading.Lock()


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Open an existing block without registering it with a resource tracker.

    Only the creator owns the block and unlinks it (:meth:`SharedScene.destroy`).
    Before Python 3.13 attaching registers the name too, and a pool worker
    forked before the parent's tracker started runs a tracker of its own:
    when the worker exits, that tracker unlinks the "leaked" block while
    the parent still serves from it.  Unregistering after the attach is no
    fix, because a fork child that shares the parent's tracker would drop
    the parent's own entry; so the register call is skipped for this name.
    """
    if sys.version_info >= (3, 13):
        return shared_memory.SharedMemory(name=name, track=False)
    with _REGISTER_LOCK:
        register = resource_tracker.register

        def register_others(res_name, rtype):
            if rtype != "shared_memory" or res_name.lstrip("/") != name.lstrip("/"):
                register(res_name, rtype)

        resource_tracker.register = register_others
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = register


# Worker-side attachment cache: shm name -> (shm, tree, table).  Bounded
# because a long-lived pool may see many scenes; evicting closes the
# stale mapping (the arrays die with the task that used them).
_ATTACHED: dict[str, tuple] = {}
_ATTACH_CACHE_MAX = 8


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------


def _start_method() -> str:
    method = os.environ.get("REPRO_POOL_START", "").strip()
    if method:
        return method
    return "fork" if "fork" in get_all_start_methods() else "spawn"


class WorkerPool:
    """A context-managed process pool running this module's task functions.

    Thin wrapper over :class:`concurrent.futures.ProcessPoolExecutor`
    with the repo's start-method policy (``fork`` where available for
    cheap startup, overridable via ``REPRO_POOL_START``).
    """

    def __init__(self, workers: int, *, start_method: str | None = None):
        self.workers = max(1, int(workers))
        ctx = get_context(start_method or _start_method())
        self._executor = ProcessPoolExecutor(max_workers=self.workers, mp_context=ctx)

    def map(self, fn, jobs: list, *, on_done=None) -> list:
        """Submit all jobs, return results in submission order.

        ``on_done(index)`` — when given — is called once per task as it
        completes, in completion order (the progress heartbeat's hook);
        results still come back in submission order.
        """
        futures = [self._executor.submit(fn, job) for job in jobs]
        if on_done is not None:
            index = {f: i for i, f in enumerate(futures)}
            for f in as_completed(futures):
                on_done(index[f])
        return [f.result() for f in futures]

    def shutdown(self) -> None:
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False


# ---------------------------------------------------------------------------
# Ambient (long-lived) pool
# ---------------------------------------------------------------------------

# By default every parallel run spins up its own WorkerPool and tears it
# down — correct, but per-call process startup is pure overhead for a
# long-lived caller answering many requests (repro.service).  Such a
# caller installs one pool here; run_cd_parallel / run_along_path_parallel
# dispatch onto it instead and never shut it down.
_AMBIENT_POOL: WorkerPool | None = None


def get_ambient_pool() -> WorkerPool | None:
    """The installed long-lived pool, or ``None`` (per-call pools)."""
    return _AMBIENT_POOL


def set_ambient_pool(pool: WorkerPool | None) -> WorkerPool | None:
    """Install ``pool`` as the ambient pool; returns the previous one.

    The caller keeps ownership: the parallel entry points never shut an
    ambient pool down, so install ``None`` and ``shutdown()`` it yourself
    when done.
    """
    global _AMBIENT_POOL
    prev = _AMBIENT_POOL
    _AMBIENT_POOL = pool
    return prev


@contextmanager
def use_pool(pool: WorkerPool | None):
    """Scoped :func:`set_ambient_pool`: reuse ``pool`` for the block."""
    prev = set_ambient_pool(pool)
    try:
        yield pool
    finally:
        set_ambient_pool(prev)


# ---------------------------------------------------------------------------
# Worker task functions (module-level: picklable under any start method)
# ---------------------------------------------------------------------------


# Worker-process-persistent buffer arena: one per worker, reused across
# every task the worker runs so the traversal's reuse hits survive task
# boundaries (a fresh arena per task would re-grow every buffer).
_WORKER_WS: Workspace | None = None


def _worker_workspace() -> Workspace:
    global _WORKER_WS
    if _WORKER_WS is None:
        _WORKER_WS = Workspace()
    return _WORKER_WS


def _worker_prologue() -> tuple[int, float]:
    """Per-task worker bookkeeping: progress suppression + start stamps.

    Heartbeat lines belong to the parent (which sees task completions);
    a worker re-entering the serial paths must not also print them, so
    the first task a worker runs turns ``REPRO_PROGRESS`` off for the
    worker's lifetime.  Returns ``(start_ns, perf_t0)``.
    """
    os.environ["REPRO_PROGRESS"] = "0"
    return time.time_ns(), time.perf_counter()


def _cd_block_task(job: dict) -> dict:
    """Traverse orientation range ``[t0, t1)`` of one CD run.

    Returns the range's ``collides`` slice, the per-thread counter
    slices (only this range's entries are nonzero, so slices lose
    nothing), the worker's trace spans when tracing was requested, and
    the telemetry the parent's utilization accounting consumes (pid,
    start stamp, busy seconds, peak RSS, trace epoch).
    """
    from repro.cd.methods import method_by_name
    from repro.cd.scene import Scene
    from repro.cd.traversal import Runtime, _traverse_range, initial_frontier
    from repro.engine.counters import ThreadCounters

    start_ns, busy_t0 = _worker_prologue()
    tree, table = SharedScene.attach(job["manifest"])
    scene = Scene(tree, job["tool"], job["pivot"])
    method = method_by_name(job["method"])
    grid = job["grid"]
    config = job["config"]
    M = grid.size
    t0, t1 = job["t0"], job["t1"]

    tracer = Tracer() if job["trace"] else None
    ws = _worker_workspace()
    ws_before = ws.stats()
    with use_tracer(tracer), use_workspace(ws), \
            use_trace_context(job.get("trace_ctx")):
        counters = ThreadCounters(n_threads=M, n_cyl=scene.n_cylinders)
        rt = Runtime(
            scene=scene,
            grid=grid,
            counters=counters,
            costs=job["costs"],
            config=config,
            table=table if getattr(method, "needs_table", False) else None,
        )
        L0, base_codes, base_idx, base_status = initial_frontier(
            scene, config.start_level
        )
        collides = np.zeros(M, dtype=bool)
        _traverse_range(
            rt, method, L0, base_codes, base_idx, base_status, collides, t0, t1
        )

    return {
        "t0": t0,
        "t1": t1,
        "collides": collides[t0:t1].copy(),
        "counters": {
            name: getattr(counters, name)[t0:t1].copy()
            for name in ThreadCounters.COUNTER_FIELDS
        },
        "spans": tracer.to_dicts() if tracer is not None else [],
        "epoch_ns": tracer.epoch_ns if tracer is not None else None,
        "pid": os.getpid(),
        "start_ns": start_ns,
        "busy_s": time.perf_counter() - busy_t0,
        "max_rss_bytes": peak_rss_bytes(),
        "workspace": ws.stats_since(ws_before),
    }


def _pivot_task(job: dict) -> dict:
    """One full serial ``run_cd`` at one pivot of a path run.

    The worker builds its own per-pivot ICA table (exactly as the
    serial path-run does), collects metrics into a throwaway registry
    (the parent re-exports from the returned counters so the ambient
    registry sees each run exactly once), and returns the CDResult plus
    the worker arena's workspace delta.
    """
    from repro.cd.scene import Scene
    from repro.cd.traversal import run_cd
    from repro.obs.metrics import MetricsRegistry, use_metrics

    start_ns, busy_t0 = _worker_prologue()
    tree, _ = SharedScene.attach(job["manifest"])
    scene = Scene(tree, job["tool"], job["pivot"])
    from repro.cd.methods import method_by_name

    method = method_by_name(job["method"])
    tracer = Tracer() if job["trace"] else None
    config = replace(job["config"], workers=1)  # no nested pools
    ws = _worker_workspace()
    ws_before = ws.stats()
    with use_tracer(tracer), use_metrics(MetricsRegistry()), use_workspace(ws), \
            use_trace_context(job.get("trace_ctx")):
        result = run_cd(
            scene, job["grid"], method,
            device=job["device"], costs=job["costs"], config=config,
        )
    return {
        "index": job["index"],
        "result": result,
        "spans": tracer.to_dicts() if tracer is not None else [],
        "epoch_ns": tracer.epoch_ns if tracer is not None else None,
        "pid": os.getpid(),
        "start_ns": start_ns,
        "busy_s": time.perf_counter() - busy_t0,
        "max_rss_bytes": peak_rss_bytes(),
        "workspace": ws.stats_since(ws_before),
    }


# ---------------------------------------------------------------------------
# Parent-side orchestration
# ---------------------------------------------------------------------------


def _export_pool_workspace(payloads) -> None:
    """Fold every task's workspace delta into ``engine.pool.workspace.*``.

    Worker arenas persist per process; report the largest single arena
    as the held-bytes level and sum the grow/reuse deltas.
    """
    agg = {"bytes_held": 0, "grow_events": 0, "reuse_hits": 0}
    for payload in payloads:
        wstats = payload["workspace"]
        agg["bytes_held"] = max(agg["bytes_held"], wstats["bytes_held"])
        agg["grow_events"] += wstats["grow_events"]
        agg["reuse_hits"] += wstats["reuse_hits"]
    export_workspace_metrics(get_metrics(), agg, prefix="engine.pool.workspace")


def _block_ranges(M: int, workers: int, thread_block: int) -> list[tuple[int, int]]:
    """Contiguous orientation ranges, one task each.

    The shard is at most one serial thread-block wide (so worker-side
    peak memory matches the serial path) and at least ``ceil(M/workers)``
    narrow (so every worker gets work even when ``M < thread_block``).
    """
    chunk = max(1, min(thread_block, -(-M // workers)))
    return [(a, min(a + chunk, M)) for a in range(0, M, chunk)]


def run_cd_parallel(
    scene, grid, method, *, device, costs, config, workers: int,
    table: IcaTable | None = None, shared: "SharedScene | None" = None,
):
    """One CD run with orientation thread-blocks sharded over a pool.

    Called by :func:`repro.cd.traversal.run_cd` when the resolved worker
    count exceeds 1; produces a byte-identical :class:`CDResult`.

    ``table`` is an optional precomputed stage-1 table for this exact
    (scene, memo_levels) — validated upstream by ``run_cd`` — and
    ``shared`` an optional prebuilt arena already holding the tree (and
    the table, when the method uses one); both let a long-lived caller
    skip the per-request rebuild.  A caller-provided arena is never
    destroyed here, and dispatch goes to the ambient pool
    (:func:`use_pool`) when one is installed.
    """
    from repro.cd.traversal import _finalize_run
    from repro.engine.counters import ThreadCounters
    from repro.ica.table import build_ica_table

    t_wall0 = time.perf_counter()
    tracer = get_tracer()
    M = grid.size
    ranges = _block_ranges(M, workers, config.thread_block)
    n_workers = min(workers, len(ranges))

    with tracer.span(
        "cd.run", method=method.name, orientations=M, workers=n_workers
    ) as run_sp:
        table_entries = 0
        if getattr(method, "needs_table", False):
            if table is None:
                table = build_ica_table(
                    scene.tree, scene.tool, scene.pivot, levels=config.memo_levels
                )
            table_entries = table.n_entries
        else:
            table = None  # never ship a table the method will not read

        own_arena = shared is None
        if own_arena:
            with tracer.span("pool.share") as share_sp:
                shared = SharedScene.create(scene.tree, table)
                share_sp.set(nbytes=shared.nbytes, tasks=len(ranges))

        jobs = [
            {
                "manifest": shared.manifest,
                "tool": scene.tool,
                "pivot": scene.pivot,
                "grid": grid,
                "config": config,
                "costs": costs,
                "method": method.name,
                "t0": a,
                "t1": b,
                "trace": tracer.enabled,
                "trace_ctx": None,  # filled under the traversal span below
            }
            for a, b in ranges
        ]

        collides = np.zeros(M, dtype=bool)
        counters = ThreadCounters(n_threads=M, n_cyl=scene.n_cylinders)
        L0 = min(config.start_level, scene.tree.depth)
        heartbeat = Heartbeat(len(jobs), "block") if progress_enabled() else None
        try:
            with tracer.span("cd.traversal", start_level=L0, workers=n_workers) as tsp:
                if tracer.enabled:
                    # Workers run under the traversal span's identity, so
                    # their spans carry this trace's ID and their roots
                    # link straight to the span they are absorbed under.
                    worker_ctx = TraceContext(
                        trace_id=tsp.trace_id, span_id=tsp.span_id
                    )
                    for job in jobs:
                        job["trace_ctx"] = worker_ctx
                pool_w0 = time.perf_counter()
                stats = PoolStats(n_workers, arena_bytes=shared.nbytes)
                on_done = (lambda i: heartbeat.tick(block=i)) if heartbeat else None
                ambient = get_ambient_pool()
                if ambient is not None:
                    payloads = ambient.map(_cd_block_task, jobs, on_done=on_done)
                else:
                    with WorkerPool(n_workers) as pool:
                        payloads = pool.map(_cd_block_task, jobs, on_done=on_done)
                pool_wall = time.perf_counter() - pool_w0
                for k, payload in enumerate(payloads):
                    a, b = payload["t0"], payload["t1"]
                    collides[a:b] = payload["collides"]
                    part = ThreadCounters(n_threads=M, n_cyl=scene.n_cylinders)
                    for name, values in payload["counters"].items():
                        getattr(part, name)[a:b] = values
                    counters = counters.merged_with(part)
                    stats.add_sample(k, payload)
                    if tracer.enabled:
                        tracer.absorb(
                            payload["spans"],
                            parent=tsp.index,
                            attrs={"pool_worker": k, "pool_pid": payload["pid"]},
                            epoch_ns=payload["epoch_ns"],
                        )
                if tracer.enabled:
                    stats.emit_wait_spans(tracer, parent=tsp.index)
                stats.export(get_metrics(), wall_s=pool_wall)
                _export_pool_workspace(payloads)
        finally:
            if own_arena:
                shared.destroy()

        return _finalize_run(
            scene, grid, method,
            device=device, costs=costs, config=config,
            collides=collides, counters=counters, table_entries=table_entries,
            run_sp=run_sp, t_wall0=t_wall0,
        )


def run_along_path_parallel(
    tree, tool, pivots: np.ndarray, grid, method, *, device, costs, config,
    workers: int, shared: "SharedScene | None" = None,
):
    """A path run with pivots sharded over a pool.

    Each worker runs the full serial per-pivot ``run_cd`` against the
    shared tree; the parent reassembles results in path order, re-exports
    each run's metrics, folds worker traces under per-pivot spans, and
    computes the overlap statistics exactly as the serial path does.

    ``shared`` — when given — is a prebuilt arena holding this tree (it
    may also carry an ICA table; pivot workers ignore it since every
    pivot needs its own).  Caller-provided arenas are not destroyed, and
    the ambient pool (:func:`use_pool`) is reused when installed.
    """
    from repro.cd.pathrun import PathRunResult, map_overlap
    from repro.cd.traversal import _export_run_metrics

    tracer = get_tracer()
    n_workers = min(workers, len(pivots))
    own_arena = shared is None
    if own_arena:
        shared = SharedScene.create(tree)
    heartbeat = Heartbeat(len(pivots), "pivot") if progress_enabled() else None
    try:
        with tracer.span(
            "cd.path.pool", pivots=len(pivots), workers=n_workers
        ) as pool_sp:
            pool_sp.set(nbytes=shared.nbytes)
            pool_ctx = (
                TraceContext(trace_id=pool_sp.trace_id, span_id=pool_sp.span_id)
                if tracer.enabled
                else None
            )
            jobs = [
                {
                    "manifest": shared.manifest,
                    "tool": tool,
                    "pivot": np.asarray(p, dtype=np.float64),
                    "grid": grid,
                    "config": config,
                    "costs": costs,
                    "device": device,
                    "method": method.name,
                    "index": i,
                    "trace": tracer.enabled,
                    "trace_ctx": pool_ctx,
                }
                for i, p in enumerate(pivots)
            ]
            pool_w0 = time.perf_counter()
            stats = PoolStats(n_workers, arena_bytes=shared.nbytes)
            on_done = (lambda i: heartbeat.tick(pivot=i)) if heartbeat else None
            ambient = get_ambient_pool()
            if ambient is not None:
                payloads = ambient.map(_pivot_task, jobs, on_done=on_done)
            else:
                with WorkerPool(n_workers) as pool:
                    payloads = pool.map(_pivot_task, jobs, on_done=on_done)
            pool_wall = time.perf_counter() - pool_w0
            for k, payload in enumerate(payloads):
                stats.add_sample(k, payload)
            if tracer.enabled:
                stats.emit_wait_spans(tracer, parent=pool_sp.index)
            stats.export(get_metrics(), wall_s=pool_wall)
            _export_pool_workspace(payloads)
    finally:
        if own_arena:
            shared.destroy()

    results = [None] * len(pivots)
    for payload in payloads:
        i = payload["index"]
        result = payload["result"]
        result.config = config  # workers forced serial; report the caller's config
        results[i] = result
        with tracer.span("cd.pivot", index=i) as sp:
            sp.set(colliding=result.n_colliding)
        if tracer.enabled and payload["spans"]:
            tracer.absorb(
                payload["spans"],
                parent=sp.index,
                attrs={"pool_worker": i, "pool_pid": payload["pid"]},
                epoch_ns=payload["epoch_ns"],
            )
            # Re-time the pivot span from the worker's root spans so span
            # totals reflect where the time actually went, and re-base its
            # start to the worker's (epoch-aligned) first root so the
            # timeline shows the pivot where it really ran.
            rec = tracer.records[sp.index]
            roots = [d for d in payload["spans"] if d["parent"] < 0]
            rec.wall_s = sum(d["wall_s"] for d in roots)
            rec.cpu_s = sum(d["cpu_s"] for d in roots)
            if payload["epoch_ns"] is not None:
                shift = (payload["epoch_ns"] - tracer.epoch_ns) / 1e9
                rec.t0 = min(d["t0"] for d in roots) + shift
        _export_run_metrics(
            result.counters,
            result.table_entries,
            result.timing.cd_tests_s,
            result.timing.ica_precompute_s,
            result.timing.wall_s,
        )

    overlaps = np.array(
        [map_overlap(a.collides, b.collides) for a, b in zip(results, results[1:])],
        dtype=np.float64,
    )
    return PathRunResult(
        results=results, pivots=np.asarray(pivots, dtype=np.float64), overlaps=overlaps
    )
