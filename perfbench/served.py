"""The served workload: a ``repro-serve`` child process under a closed loop.

Two client threads post AICA ``/v1/cd`` queries over loopback.  About
nine in ten repeat a key the server already answered (cache hits); the
rest override the pivot with a fresh one (cold).  Every answer is kept
and checked after the timed phase.
"""

from __future__ import annotations

import os
import resource
import selectors
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import AICA, OrientationGrid, Scene, run_cd
from repro.cd.verify import brute_force_map
from repro.obs import TraceContext, format_traceparent, get_tracer, new_span_id, new_trace_id
from repro.service.wire import ServiceTimeout, TransportError, http_json

from perfbench import layers
from perfbench.inputs import (
    FINISHING_SEGMENTS,
    RESOLUTION,
    START_LEVEL,
    build_inputs,
    build_tree,
    finishing_tool,
)
from perfbench.workloads import CHECKS_PER_MODEL, N_MODELS, SIM_MAPS, BRUTE_GRID, Phase, mean

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parent / "out"

GRID = (16, 16)
CLIENTS = 2
MISS_EVERY = 10  # one fresh pivot per this many requests
# Fresh pivots per model.  With the 8 repeat keys a run's distinct keys
# stay under the server's default 256-entry result cache, so the hit
# ratio moves only when the cache does.  A host fast enough to use them
# all sees its later "fresh" draws answered as repeats.
FRESH_PER_MODEL = 60
SEQUENCE_LEN = 20000
START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
EVICTED_404 = "404 unknown scene after registry eviction (re-registered)"


def start_server() -> tuple[subprocess.Popen, str]:
    """``repro-serve`` with default flags on a free loopback port."""
    OUT.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    with open(OUT / "serve.log", "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service.cli", "--port", "0"],
            stdout=subprocess.PIPE, stderr=log, env=env, cwd=ROOT,
        )
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    deadline = time.monotonic() + START_TIMEOUT_S
    try:
        while time.monotonic() < deadline:
            if not sel.select(timeout=0.5):
                if proc.poll() is not None:
                    break
                continue
            line = proc.stdout.readline().decode("utf-8", "replace")
            if not line:
                break
            if "listening on " in line:
                return proc, line.split("listening on ", 1)[1].split()[0]
    finally:
        sel.close()
    stop_server(proc)
    raise RuntimeError(f"repro-serve did not start; see {OUT / 'serve.log'}")


def stop_server(proc: subprocess.Popen) -> None:
    """Interrupt (the server's clean shutdown path), then kill if it lingers."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


@dataclass
class ClientLog:
    """What one client thread saw; merged after the threads are joined."""

    t_end: float
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    rows: list = field(default_factory=list)  # (key, latency_s, served, payload, map)


def server_side_s(served: str, payload: dict) -> float:
    """Time the server accounts for: queue wait, plus compute if this
    request ran it (a cache hit reports the original compute's time)."""
    wait_s = payload.get("cost", {}).get("queue_wait_ms", 0.0) / 1e3
    return wait_s + (payload["elapsed_s"] if served == "computed" else 0.0)


def post(url: str, body: dict, headers: dict | None = None):
    return http_json(url, body, timeout=REQUEST_TIMEOUT_S, headers=headers)


class ServedMix:
    """Closed-loop hit/miss mix against a ``repro-serve`` child process."""

    method_cls = AICA

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.tool = finishing_tool()
        self.proc = None
        self.url = ""
        self.inputs = None
        self.digests: list[str] = []
        self.register_s: list[float] = []
        self.nodes = 0
        self.next_i = 0
        self.lock = threading.Lock()
        self.answers: list = []  # (key, accessible map) of every 200 response
        self.sims: dict = {}  # key -> sim_total_ms
        self.sequence = self._sequence()

    # -- inputs -----------------------------------------------------------

    def _sequence(self) -> list[tuple[int, int]]:
        """``(model, pivot index)`` per request; index 0 is the registered
        pivot, 1 the second repeat key, 2.. fresh pivots.

        Each block of MISS_EVERY requests holds exactly one fresh pivot,
        at a seeded position, and fresh pivots take the models in turn:
        the mix and its model balance do not vary with the seed.
        """
        rng = np.random.default_rng([self.seed, 2])
        slots = rng.integers(0, MISS_EVERY, SEQUENCE_LEN // MISS_EVERY)
        repeat = rng.integers(0, 2, SEQUENCE_LEN)
        fresh = 0
        seq = []
        for i in range(SEQUENCE_LEN):
            if i % MISS_EVERY == slots[i // MISS_EVERY] and fresh < FRESH_PER_MODEL * N_MODELS:
                seq.append((fresh % N_MODELS, 2 + fresh // N_MODELS))
                fresh += 1
            else:
                seq.append((i % N_MODELS, int(repeat[i])))
        return seq

    def body(self, key: tuple[int, int], grid=GRID) -> dict:
        m, idx = key
        body = {"scene": self.digests[m], "grid": list(grid), "method": self.method_cls.name}
        if idx:
            body["pivot"] = self.inputs.models[m].pivots[idx].tolist()
        return body

    # -- lifecycle --------------------------------------------------------

    def setup(self) -> float:
        self.close()
        t0 = time.perf_counter()
        self.inputs = build_inputs(self.seed, with_trees=False)
        self.proc, self.url = start_server()
        self.digests = []
        self.register_s = []
        self.nodes = 0
        for m in range(N_MODELS):
            t1 = time.perf_counter()
            self.nodes += self.register(m)
            self.register_s.append(time.perf_counter() - t1)
        return time.perf_counter() - t0

    def register(self, m: int) -> int:
        """Register model ``m`` at its first pivot; returns its node count."""
        model = self.inputs.models[m]
        status, payload, _ = post(self.url + "/v1/scenes", {
            "model": model.name,
            "resolution": RESOLUTION,
            "expand_top": START_LEVEL,
            "tool": {"segments": [list(s) for s in FINISHING_SEGMENTS], "name": "finishing"},
            "pivot": model.pivots[0].tolist(),
        })
        if status != 200:
            raise RuntimeError(f"registering {model.name} failed: {status} {payload}")
        if len(self.digests) > m:
            self.digests[m] = payload["scene"]
        else:
            self.digests.append(payload["scene"])
        return int(payload["nodes"])

    def warm_up(self) -> None:
        """Answer every repeat key once, so repeats are cache hits."""
        for m in range(N_MODELS):
            for idx in (0, 1):
                payload = self.query((m, idx))
                self.answers.append(((m, idx), np.asarray(payload["map"], dtype=bool)))
                self.sims[(m, idx)] = payload["summary"]["sim_total_ms"]

    def close(self) -> None:
        if self.proc is not None:
            stop_server(self.proc)
            self.proc = None

    def metrics(self) -> dict:
        status, payload, _ = http_json(self.url + "/v1/metrics", timeout=REQUEST_TIMEOUT_S)
        if status != 200:
            raise RuntimeError(f"/v1/metrics answered {status}")
        return {k: v.get("value") for k, v in payload.items() if isinstance(v, dict)}

    # -- the timed phase --------------------------------------------------

    def _take(self) -> int:
        with self.lock:
            i = self.next_i
            self.next_i += 1
            return i

    def _client(self, deadline: float, traced: bool, log: ClientLog) -> None:
        while time.perf_counter() < deadline:
            key = self.sequence[self._take() % SEQUENCE_LEN]
            log.attempted += 1
            try:
                self._one(key, traced, log)
            except Exception as exc:  # count it and keep the client running
                log.failures[f"exception {type(exc).__name__}"] += 1

    def _one(self, key: tuple[int, int], traced: bool, log: ClientLog) -> None:
        """Post one query; record its answer or classify its failure."""
        tracer = get_tracer()
        headers = None
        if traced:
            ctx = TraceContext(trace_id=new_trace_id(), span_id=new_span_id())
            headers = {"traceparent": format_traceparent(ctx)}
            tt0 = tracer.now()
        t0 = time.perf_counter()
        try:
            status, payload, _ = post(self.url + "/v1/cd", self.body(key), headers)
        except ServiceTimeout:
            log.failures["timeout"] += 1
            return
        except TransportError:
            log.failures["unreachable"] += 1
            return
        if status == 404:
            # Only registry eviction drops a registered scene; re-register
            # it, as repro-router does, and carry on.
            log.failures[EVICTED_404] += 1
            self.register(key[0])
            return
        if status != 200:
            log.failures[f"http {status}"] += 1
            return
        amap = np.asarray(payload.get("map"), dtype=bool)
        t1 = time.perf_counter()
        if amap.shape != GRID:
            log.failures["map with the wrong shape"] += 1
            return
        served = "cache" if payload["cached"] else "coalesced" if payload["coalesced"] else "computed"
        log.rows.append((key, t1 - t0, served, payload, amap))
        log.t_end = max(log.t_end, t1)
        if traced:
            tracer.record_span(
                "bench.request", t0=tt0, wall_s=t1 - t0,
                attrs={"served": served, "model": key[0]},
                trace_id=ctx.trace_id, span_id=ctx.span_id,
            )

    def run(self, seconds: float, *, traced: bool = False) -> Phase:
        t_start = time.perf_counter()
        deadline = t_start + seconds
        logs = [ClientLog(t_end=t_start) for _ in range(CLIENTS)]
        self.metrics_before = self.metrics()
        threads = [
            threading.Thread(target=self._client, args=(deadline, traced, log), daemon=True)
            for log in logs
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=seconds + 2 * REQUEST_TIMEOUT_S)
        if any(t.is_alive() for t in threads):
            raise RuntimeError("a client thread did not finish")
        self.metrics_after = self.metrics()

        phase = Phase()
        phase.wall_s = max(log.t_end for log in logs) - t_start
        self.rows = []
        for log in logs:
            phase.attempted += log.attempted
            phase.failures.update(log.failures)
            for key, dt, served, payload, amap in log.rows:
                phase.maps += 1
                (phase.hits_s if served == "cache" else phase.latencies_s).append(dt)
                self.answers.append((key, amap))
                self.sims.setdefault(key, payload["summary"]["sim_total_ms"])
                self.rows.append((key, dt, served, payload))
        return phase

    # -- end-to-end numbers ----------------------------------------------

    def query(self, key, grid=GRID) -> dict:
        status, payload, _ = post(self.url + "/v1/cd", self.body(key, grid))
        if status != 200:
            raise RuntimeError(f"/v1/cd answered {status}: {payload}")
        return payload

    def sim_gpu_ms(self) -> float:
        """Mean simulated cost of the first SIM_MAPS distinct keys in sequence order."""
        keys = list(dict.fromkeys(self.sequence))[:SIM_MAPS]
        for key in keys:
            if key not in self.sims:
                self.sims[key] = self.query(key)["summary"]["sim_total_ms"]
        return float(np.mean([self.sims[k] for k in keys]))

    def finish(self) -> tuple[Counter, float, float]:
        """Output checks, ``sim_gpu_ms`` and the server's peak RSS in MiB.

        The server is stopped last, so its peak (the largest reaped
        child's) includes the whole run.
        """
        bad = self.check()
        sim = self.sim_gpu_ms()
        self.close()
        return bad, sim, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    # -- output checks ----------------------------------------------------

    def check(self) -> Counter:
        bad = Counter()
        first: dict = {}
        for key, amap in self.answers:
            ref = first.setdefault(key, amap)
            if not np.array_equal(ref, amap):
                bad["map check: two answers to one key differ"] += 1
        rng = np.random.default_rng([self.seed, 1])
        grid = OrientationGrid(*GRID)
        brute_grid = OrientationGrid.square(BRUTE_GRID)
        for m, model in enumerate(self.inputs.models):
            tree = build_tree(model.model)
            keys = sorted(k for k in first if k[0] == m)
            picks = rng.choice(len(keys), size=min(CHECKS_PER_MODEL, len(keys)), replace=False)
            for j in picks:
                key = keys[int(j)]
                scene = Scene(tree, self.tool, model.pivots[key[1]])
                direct = run_cd(scene, grid, self.method_cls(), workers=1)
                if direct.accessibility_map.tobytes() != first[key].tobytes():
                    bad["map check: served map != direct run_cd"] += 1
            served = np.asarray(self.query((m, 0), brute_grid.shape)["map"], dtype=bool)
            scene = Scene(tree, self.tool, model.pivots[0])
            if not np.array_equal(served, brute_grid.unflatten(~brute_force_map(scene, brute_grid))):
                bad["map check: served 8x8 map != brute_force_map"] += 1
        return bad

    # -- per-layer numbers (traced phase) ----------------------------------

    def layer_metrics(self, phase: Phase, tracer, registry) -> dict:
        out = {name: 0.0 for name, _ in layers.PER_LAYER}
        before, after = self.metrics_before, self.metrics_after

        def delta(name):
            return float(after.get(name) or 0) - float(before.get(name) or 0)

        computed = [(dt, served, p) for _, dt, served, p in self.rows if served != "cache"]
        cost = [p.get("cost", {}) for *_, p in computed]
        summaries = [p["summary"] for *_, p in computed]
        hits = phase.hits_s
        cache_hits, cache_misses = delta("service.cache.hits"), delta("service.cache.misses")
        lat = sum(dt for dt, _, _ in computed)
        covered = sum(server_side_s(served, p) for _, served, p in computed)
        wire_ms = [(dt - server_side_s(served, p)) * 1e3 for _, dt, served, p in self.rows]
        out.update({
            "octree.nodes": self.nodes,
            "path.offset_s": self.inputs.path_offset_s,
            "path.points": self.inputs.path_points,
            "cd.box_checks": mean([s["box_checks"] for s in summaries]),
            "cd.corner_cases": mean([s["corner_cases"] for s in summaries]),
            "cd.ica_efficiency": mean([s["ica_efficiency"] for s in summaries]),
            "service.compute_ms": mean([p["elapsed_s"] * 1e3 for *_, p in computed]),
            "service.queue_wait_ms": mean([c.get("queue_wait_ms", 0.0) for c in cost]),
            "service.cpu_ms": mean([c.get("cpu_ms", 0.0) for c in cost]),
            "service.wire_ms": float(np.median(wire_ms)) if wire_ms else 0.0,
            "service.cache_hit_ratio": (
                cache_hits / (cache_hits + cache_misses) if cache_hits + cache_misses else 0.0
            ),
            "service.hit_p50_ms": float(np.percentile(hits, 50)) * 1e3 if hits else 0.0,
            "service.hit_p90_ms": float(np.percentile(hits, 90)) * 1e3 if hits else 0.0,
            "service.coalesced": delta("service.coalesced"),
            "service.rejected": delta("service.rejected"),
            "service.registry.evictions": delta("service.registry.evictions"),
            "service.registry.table_builds": delta("service.registry.table_builds"),
            "service.register_s": mean(self.register_s),
            "obs.layer_coverage": covered / lat if lat else 0.0,
        })
        counters = {
            name: delta(name)
            for name in ("engine.workspace.reuse_hits", "engine.workspace.grow_events")
        }
        counters["engine.workspace.bytes_held"] = float(after.get("engine.workspace.bytes_held") or 0)
        out.update(layers.workspace_metrics(counters))
        return out

    def unmeasured(self, probe_calls: dict) -> list[str]:
        return []  # the seams live in the server process; nothing to probe here
