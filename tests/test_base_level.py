"""Differential test: the dense base level against the broadcast pair wave.

The traversal decides the base level (every thread of a block x every
base cell) as dense ``(cells, threads)`` matrices through each method's
``decide_base``.  The reference here is the route it replaced: the
block's full (thread, cell) product broadcast into four pair arrays and
handed to ``method.decide`` in one :class:`~repro.cd.traversal.Wave`.
For all five methods the outcomes, every per-thread counter, the
collision map and the four arrays of the first sparse wave must be
equal — on generated scenes with virtual base cells (trees expanded
below the start level, or not at all), with the base level at the leaf
level (AICA's corners then fall back to CHECKBOX), with thread blocks
that do not divide the grid, under every level routing, and pooled.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cd.traversal as trav
from repro.cd.methods import AICA, METHODS
from repro.cd.scene import Scene
from repro.cd.traversal import (
    BaseLevel,
    BaseWave,
    LevelContext,
    Runtime,
    TraversalConfig,
    Wave,
    _advance,
    _decide_base,
    _decide_chunked,
    initial_frontier,
    run_cd,
)
from repro.engine.costs import DEFAULT_COSTS
from repro.engine.counters import ThreadCounters
from repro.geometry.aabb import AABB
from repro.geometry.orientation import OrientationGrid
from repro.ica.table import build_ica_table
from repro.octree.build import build_from_sdf, expand_top
from repro.solids.sdf import BoxSDF, SphereSDF, Union
from repro.tool.tool import Tool

DOMAIN = AABB((-16.0, -16.0, -16.0), (16.0, 16.0, 16.0))

_coord = st.floats(-12.0, 12.0)
_size = st.floats(2.0, 14.0)
_point = st.tuples(_coord, _coord, _coord)
_leaf = st.one_of(
    st.builds(SphereSDF, _point, _size),
    st.builds(BoxSDF, _point, st.tuples(_size, _size, _size)),
)
solids = st.lists(_leaf, min_size=1, max_size=3).map(lambda parts: reduce(Union, parts))
# The cull packs one bit per cylinder in 8-bit words, so stacks of 8-10
# short cylinders (all of them inside the domain) cross a word boundary.
tools = st.one_of(
    st.lists(st.tuples(st.floats(0.1, 6.0), st.floats(1.0, 30.0)), min_size=1, max_size=4),
    st.lists(st.tuples(st.floats(0.1, 6.0), st.floats(0.5, 2.5)), min_size=8, max_size=10),
).map(Tool.from_segments)


def _broadcast_base(rt, method, base, collides, t0, t1):
    """The base level of block ``[t0, t1)`` as one broadcast pair wave.

    Every (thread, cell) pair in thread-major order, decided by
    ``method.decide`` through the level context the deeper levels use,
    then advanced.  Returns ``(outcomes, next frontier arrays)``.
    """
    n0 = base.n
    threads = np.repeat(np.arange(t0, t1, dtype=np.intp), n0)
    codes = np.tile(base.codes, t1 - t0)
    idx = np.tile(base.idx, t1 - t0)
    status = np.tile(base.status, t1 - t0)
    ctx = LevelContext(rt, base.level, base.half, t0, t1, threads, codes, idx, status)
    centers = dirs = None
    if not ctx.prepare_panels():
        centers = ctx.build_centers()
        dirs = rt.all_dirs[threads]
    wave = Wave(
        level=base.level, threads=threads, codes=codes, idx=idx, status=status,
        centers=centers, half=base.half, dirs=dirs, ctx=ctx,
    )
    rt.counters.add_threads("nodes_visited", threads, rt.counters.n_threads)
    outcomes = _decide_chunked(rt, method, wave)
    return outcomes, _advance(rt, wave, outcomes, collides)


def _runtime(scene, grid, config, table):
    counters = ThreadCounters(n_threads=grid.size, n_cyl=scene.n_cylinders)
    return Runtime(
        scene=scene, grid=grid, counters=counters, costs=DEFAULT_COSTS,
        config=config, table=table,
    )


def _assert_counters_equal(a: ThreadCounters, b: ThreadCounters, what: str) -> None:
    for name in ThreadCounters.COUNTER_FIELDS:
        np.testing.assert_array_equal(
            getattr(a, name), getattr(b, name), err_msg=f"{what}: {name}"
        )


def _check_base_level(scene, grid, config):
    """Dense base step vs broadcast wave, block by block, for every method."""
    L0, codes, idx, status = initial_frontier(scene, config.start_level)
    if not len(codes):
        return
    table = build_ica_table(scene.tree, scene.tool, scene.pivot, levels=config.memo_levels)
    M = grid.size
    for cls in METHODS:
        method = cls()
        rt_ref = _runtime(scene, grid, config, table)
        rt_dense = _runtime(scene, grid, config, table)
        rt_probe = _runtime(scene, grid, config, table)
        base = BaseLevel(rt_dense, L0, codes, idx, status)
        probe = BaseLevel(rt_probe, L0, codes, idx, status)
        col_ref = np.zeros(M, dtype=bool)
        col_dense = np.zeros(M, dtype=bool)
        for t0 in range(0, M, config.thread_block):
            t1 = min(t0 + config.thread_block, M)
            what = f"{cls.name} block [{t0}:{t1})"
            outcomes, nxt_ref = _broadcast_base(rt_ref, method, base, col_ref, t0, t1)
            nxt = _decide_base(rt_dense, method, base, col_dense, t0, t1)
            for got, want, name in zip(nxt, nxt_ref, ("threads", "codes", "idx", "status")):
                assert got.dtype == want.dtype, f"{what}: {name} dtype"
                np.testing.assert_array_equal(got, want, err_msg=f"{what}: {name}")
            out = method.decide_base(rt_probe, BaseWave(probe, t0, t1, (t0, t1)))
            np.testing.assert_array_equal(
                out, outcomes.reshape(t1 - t0, len(codes)).T, err_msg=f"{what}: outcomes"
            )
        np.testing.assert_array_equal(col_dense, col_ref, err_msg=f"{cls.name}: collides")
        _assert_counters_equal(rt_dense.counters, rt_ref.counters, cls.name)


@st.composite
def problems(draw):
    resolution = draw(st.sampled_from([8, 16]))
    depth = int(np.log2(resolution))
    tree = build_from_sdf(draw(solids), DOMAIN, resolution)
    # Expanding below the start level (or not at all) leaves FULL nodes
    # above it, which enter the base level as virtual cells; a start
    # level at or past the depth puts the base level at the leaves.
    start = draw(st.integers(1, depth + 1))
    expand = draw(st.integers(0, start))
    if expand:
        tree = expand_top(tree, expand)
    L0 = min(start, depth)
    lev = tree.levels[L0]
    if lev.n and draw(st.booleans()):
        # Pivot on a base cell's center (distance 0), face, edge or corner.
        i = draw(st.integers(0, lev.n - 1))
        steps = st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5])
        offset = np.array([draw(steps) for _ in range(3)]) * draw(st.sampled_from([0.0, 1.0]))
        pivot = tree.centers(L0, np.array([i]))[0] + tree.cell_half(L0) * offset
    else:
        pivot = np.array(draw(_point))
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    M = m * n
    config = TraversalConfig(
        start_level=start,
        memo_levels=draw(st.integers(1, depth + 1)),
        thread_block=draw(st.integers(1, M)),
        max_pairs=draw(st.sampled_from([0, 1, 7, 64, 4_000_000])),
        workers=1,
    )
    routing = draw(st.sampled_from(["default", "panels", "pairs"]))
    return Scene(tree, draw(tools), pivot), OrientationGrid(m, n), config, routing


@settings(max_examples=30, deadline=None)
@given(problems())
def test_dense_base_matches_broadcast_wave(problem):
    scene, grid, config, routing = problem
    with pytest.MonkeyPatch.context() as mp:
        if routing == "panels":
            mp.setattr(trav, "_PANEL_MIN_PAIRS", 1)
            mp.setattr(trav, "_PANEL_OVERSAMPLE", 1e9)
        elif routing == "pairs":
            mp.setattr(trav, "_PANEL_MIN_PAIRS", np.iinfo(np.intp).max)
        _check_base_level(scene, grid, config)


def test_leaf_base_level_boxes_aica_corners(sphere_scene):
    """At the leaf level AICA cannot expand, so its corners are box-checked."""
    grid = OrientationGrid.square(6)
    config = TraversalConfig(start_level=9, thread_block=7, workers=1)
    L0 = initial_frontier(sphere_scene, config.start_level)[0]
    assert L0 == sphere_scene.tree.depth
    r = run_cd(sphere_scene, grid, AICA(), config=config)
    assert r.counters.corner_cases.sum() > 0
    assert r.counters.box_checks.sum() > 0
    _check_base_level(sphere_scene, grid, config)


def test_cull_matches_reference_across_bit_words():
    """The packed cull equals ``tool_aabb_cull_batch`` with 8+ cylinders.

    Cylinder 7 is the last bit of the first word and the only wide one,
    so it alone decides many cells.
    """
    from repro.geometry.batch import tool_aabb_cull_batch

    tree = expand_top(build_from_sdf(SphereSDF((0.0, 0.0, 0.0), 8.0), DOMAIN, 16), 3)
    tool = Tool.from_segments([(0.5, 1.0)] * 7 + [(3.0, 2.0), (0.5, 1.0), (0.2, 1.0)])
    scene = Scene(tree, tool, np.array([0.0, 0.0, 9.0]))
    grid = OrientationGrid(4, 5)
    rt = _runtime(scene, grid, TraversalConfig(), None)
    base = BaseLevel(rt, *initial_frontier(scene, 3))
    got = BaseWave(base, 3, 17, (0, 20)).cull()
    cells, threads = np.meshgrid(np.arange(base.n), np.arange(3, 17), indexing="ij")
    want = tool_aabb_cull_batch(
        scene.pivot, rt.all_dirs[threads.ravel()], base.centers[cells.ravel()],
        base.half, tool.z0, tool.z1, tool.radius,
    ).reshape(got.shape)
    np.testing.assert_array_equal(got, want)
    without_wide = Tool.from_segments([(0.5, 1.0)] * 7 + [(0.5, 2.0), (0.5, 1.0), (0.2, 1.0)])
    narrow = tool_aabb_cull_batch(
        scene.pivot, rt.all_dirs[threads.ravel()], base.centers[cells.ravel()],
        base.half, without_wide.z0, without_wide.z1, without_wide.radius,
    )
    assert want.sum() > narrow.sum()  # cylinder 7 matters here


@pytest.fixture(scope="module")
def unexpanded_scene():
    """A box tree left unexpanded: its FULL core becomes virtual base cells."""
    tree = build_from_sdf(BoxSDF((0.0, 0.0, 0.0), (10.0, 10.0, 10.0)), DOMAIN, 16)
    return Scene(tree, Tool.from_segments([(1.0, 8.0), (3.0, 20.0)]), np.array([0.0, 0.0, 10.5]))


@pytest.mark.parametrize("method", [cls.name for cls in METHODS])
def test_pooled_dense_run_matches_broadcast_serial(unexpanded_scene, method):
    """workers=2 with dense base levels == a serial run on broadcast waves."""
    from repro.cd.methods import method_by_name

    scene = unexpanded_scene
    config = TraversalConfig(start_level=3, thread_block=11)
    idx = initial_frontier(scene, config.start_level)[2]
    assert (idx < 0).any(), "the fixture must have virtual base cells"
    grid = OrientationGrid.square(6)

    def broadcast(rt, method, base, collides, t0, t1):
        return _broadcast_base(rt, method, base, collides, t0, t1)[1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trav, "_decide_base", broadcast)
        ref = run_cd(scene, grid, method_by_name(method), config=config, workers=1)
    pooled = run_cd(scene, grid, method_by_name(method), config=config, workers=2)
    np.testing.assert_array_equal(pooled.collides, ref.collides)
    _assert_counters_equal(pooled.counters, ref.counters, method)
