"""Accessibility maps over a BVH (ICA-pruned and exact-only variants).

Structural difference from the octree that this module makes measurable:
an octree's interior FULL node is *entirely solid*, so the inscribed-
sphere cone test can prove a collision high up the tree.  A BVH internal
node is only a *bound* — its box contains the primitives but is not
itself solid — so the cone test can only prove *misses* (via the
circumscribed sphere) on internal nodes; definite hits exist only at the
primitive (solid box) level.  The traversal below exploits exactly what
is sound:

* internal node: prune iff ``cos_angle <= miss_bound(cos_hi)`` of the
  circumscribed sphere of the node box; otherwise descend (no exact
  test needed);
* leaf primitive: the full two-sphere CHECKICA (hit / miss / corner →
  exact CHECKBOX), identical to the octree leaf handling.

Per-node and per-primitive cone values are memoized per pivot in a
stage-1 pass (the MICA idea transplanted), and costs are charged with
the same :class:`~repro.engine.costs.CostModel` constants so octree and
BVH traversals are compared on equal footing by ``ablation_bvh``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.bvh.build import BVH
from repro.engine.costs import CostModel, DEFAULT_COSTS
from repro.engine.counters import StageBreakdown, ThreadCounters
from repro.engine.device import DeviceSpec, GTX_1080_TI
from repro.engine.simt import simulate_kernel, simulate_stage
from repro.geometry.batch import tool_aabb_batch
from repro.ica.cone import ica_bounds_cos, miss_bound
from repro.ica.table import SQRT3
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.tool.tool import Tool

__all__ = ["BvhMethod", "BvhResult", "run_cd_bvh"]


@dataclass(frozen=True)
class BvhMethod:
    """Traversal flavor: ``use_ica=False`` is the exact-only baseline."""

    use_ica: bool = True

    @property
    def name(self) -> str:
        return "BVH-ICA" if self.use_ica else "BVH-Box"


@dataclass
class BvhResult:
    """Mirror of :class:`repro.cd.result.CDResult` for the BVH traversal."""

    method: str
    collides: np.ndarray
    counters: ThreadCounters
    timing: StageBreakdown
    table_entries: int
    bvh_nodes: int


def _node_tables(bvh: BVH, tool: Tool, pivot: np.ndarray):
    """Memoized cone values: per-node miss bound, per-primitive two bounds."""
    node_c = 0.5 * (bvh.node_lo + bvh.node_hi)
    node_h = 0.5 * (bvh.node_hi - bvh.node_lo)
    nd = np.linalg.norm(node_c - pivot, axis=1)
    node_r_circ = np.linalg.norm(node_h, axis=1)
    _, node_hi = ica_bounds_cos(tool.z0, tool.z1, tool.radius, nd, node_r_circ)

    pd = np.linalg.norm(bvh.centers - pivot, axis=1)
    r_in = bvh.halves.min(axis=1)
    r_circ = np.linalg.norm(bvh.halves, axis=1)
    prim_lo, _ = ica_bounds_cos(tool.z0, tool.z1, tool.radius, pd, r_in)
    _, prim_hi = ica_bounds_cos(tool.z0, tool.z1, tool.radius, pd, r_circ)
    return node_hi, prim_lo, prim_hi


def run_cd_bvh(
    bvh: BVH,
    tool: Tool,
    pivot,
    grid,
    method: BvhMethod = BvhMethod(),
    *,
    device: DeviceSpec = GTX_1080_TI,
    costs: CostModel = DEFAULT_COSTS,
    thread_block: int = 2048,
) -> BvhResult:
    """Generate the accessibility map by traversing ``bvh``.

    ``grid`` is any orientation provider (an
    :class:`~repro.geometry.orientation.OrientationGrid` or
    :class:`~repro.geometry.orientation.DirectionSet`).
    """
    with get_tracer().span(
        "bvh.run", method=method.name, orientations=grid.size, nodes=bvh.n_nodes
    ) as sp:
        result = _run_cd_bvh(
            bvh, tool, pivot, grid, method,
            device=device, costs=costs, thread_block=thread_block,
        )
        sp.set(
            colliding=int(result.collides.sum()),
            total_checks=result.counters.total_checks,
            table_entries=result.table_entries,
        )
    metrics = get_metrics()
    result.counters.export(metrics, prefix="bvh")
    metrics.counter("bvh.runs").inc()
    metrics.counter("bvh.sim_cd_s").inc(result.timing.cd_tests_s)
    metrics.counter("bvh.sim_precompute_s").inc(result.timing.ica_precompute_s)
    metrics.counter("bvh.wall_s").inc(result.timing.wall_s)
    return result


def _run_cd_bvh(
    bvh: BVH,
    tool: Tool,
    pivot,
    grid,
    method: BvhMethod,
    *,
    device: DeviceSpec,
    costs: CostModel,
    thread_block: int,
) -> BvhResult:
    t0 = time.perf_counter()
    tracer = get_tracer()
    pivot = np.asarray(pivot, dtype=np.float64).reshape(3)
    M = grid.size
    all_dirs = grid.directions()
    counters = ThreadCounters(n_threads=M, n_cyl=tool.n_cylinders)
    collides = np.zeros(M, dtype=bool)

    table_entries = 0
    node_hi = prim_lo = prim_hi = None
    if method.use_ica and bvh.n_nodes:
        with tracer.span("bvh.table.build"):
            node_hi, prim_lo, prim_hi = _node_tables(bvh, tool, pivot)
        table_entries = bvh.n_nodes + bvh.n_primitives

    if bvh.n_nodes == 0:
        wall = time.perf_counter() - t0
        return BvhResult(
            method=method.name,
            collides=collides,
            counters=counters,
            timing=StageBreakdown(0.0, 0.0, wall),
            table_entries=0,
            bvh_nodes=0,
        )

    node_c = 0.5 * (bvh.node_lo + bvh.node_hi)
    node_h3 = 0.5 * (bvh.node_hi - bvh.node_lo)

    def _exact_hits(threads, centers, halves3):
        counters.add_threads("box_checks", threads, M)
        return tool_aabb_batch(
            pivot, all_dirs[threads], centers, halves3, tool.z0, tool.z1, tool.radius
        )

    for b0 in range(0, M, thread_block):
        b1 = min(b0 + thread_block, M)
        threads = np.arange(b0, b1, dtype=np.intp)
        nodes = np.zeros(len(threads), dtype=np.intp)  # everyone starts at root

        while len(threads):
            live = ~collides[threads]
            threads = threads[live]
            nodes = nodes[live]
            if not len(threads):
                break
            counters.add_threads("nodes_visited", threads, M)

            if method.use_ica:
                # Internal/leaf alike: prune by the node's miss bound.
                rel = node_c[nodes] - pivot
                dist = np.sqrt(np.einsum("ij,ij->i", rel, rel))
                safe = np.maximum(dist, 1e-300)
                ca = np.clip(
                    np.einsum("ij,ij->i", all_dirs[threads], rel) / safe, -1.0, 1.0
                )
                ca = np.where(dist == 0.0, 1.0, ca)
                counters.add_threads("ica_memo_checks", threads, M)
                possible = ca > miss_bound(node_hi[nodes])
            else:
                possible = _exact_hits(threads, node_c[nodes], node_h3[nodes])

            threads = threads[possible]
            nodes = nodes[possible]
            if not len(threads):
                break

            leaf = bvh.left[nodes] < 0
            # -- leaves: test the owned primitives ------------------------
            if leaf.any():
                lt = threads[leaf]
                ln = nodes[leaf]
                counts = bvh.leaf_count[ln]
                starts = bvh.leaf_start[ln]
                total = int(counts.sum())
                offs = np.arange(total) - np.repeat(
                    np.cumsum(counts) - counts, counts
                )
                prim = bvh.prim_index[np.repeat(starts, counts) + offs]
                pt = np.repeat(lt, counts)

                if method.use_ica:
                    rel = bvh.centers[prim] - pivot
                    dist = np.sqrt(np.einsum("ij,ij->i", rel, rel))
                    safe = np.maximum(dist, 1e-300)
                    ca = np.clip(
                        np.einsum("ij,ij->i", all_dirs[pt], rel) / safe, -1.0, 1.0
                    )
                    ca = np.where(dist == 0.0, 1.0, ca)
                    counters.add_threads("ica_memo_checks", pt, M)
                    counters.add_threads("nodes_visited", pt, M)
                    yes = ca >= prim_lo[prim]
                    no = ~yes & (ca <= miss_bound(prim_hi[prim]))
                    corner = ~yes & ~no
                    if corner.any():
                        counters.add_threads("corner_cases", pt[corner], M)
                        hit = _exact_hits(
                            pt[corner], bvh.centers[prim[corner]], bvh.halves[prim[corner]]
                        )
                        yes[np.nonzero(corner)[0][hit]] = True
                else:
                    counters.add_threads("nodes_visited", pt, M)
                    yes = _exact_hits(pt, bvh.centers[prim], bvh.halves[prim])
                if yes.any():
                    collides[np.unique(pt[yes])] = True

            # -- internal nodes: descend to both children ------------------
            internal = ~leaf
            it = threads[internal]
            inn = nodes[internal]
            threads = np.concatenate([it, it])
            nodes = np.concatenate([bvh.left[inn], bvh.right[inn]])

    wall = time.perf_counter() - t0
    cd_s = simulate_kernel(counters.thread_ops(costs), device)
    pre_s = (
        simulate_stage(costs.ica_precompute(tool.n_cylinders), table_entries, device)
        if table_entries
        else 0.0
    )
    return BvhResult(
        method=method.name,
        collides=collides,
        counters=counters,
        timing=StageBreakdown(ica_precompute_s=pre_s, cd_tests_s=cd_s, wall_s=wall),
        table_entries=table_entries,
        bvh_nodes=bvh.n_nodes,
    )
