"""White-box tests of the frontier traversal machinery."""

import numpy as np
import pytest

from repro.cd.scene import Scene
from repro.cd.traversal import (
    OUT_EXPAND,
    OUT_NO,
    OUT_YES,
    Runtime,
    TraversalConfig,
    Wave,
    _advance,
    _ranges,
    initial_frontier,
)
from repro.engine.costs import DEFAULT_COSTS
from repro.engine.counters import ThreadCounters
from repro.geometry.aabb import AABB
from repro.geometry.orientation import OrientationGrid
from repro.octree.build import build_from_dense, build_from_sdf, expand_top
from repro.octree.linear import STATUS_FULL, STATUS_MIXED
from repro.solids.sdf import SphereSDF
from repro.tool.tool import paper_tool


class TestRanges:
    def test_basic(self):
        np.testing.assert_array_equal(_ranges(np.array([3, 1, 2])), [0, 1, 2, 0, 0, 1])

    def test_empty(self):
        assert _ranges(np.array([], dtype=int)).size == 0

    def test_zeros_mixed(self):
        np.testing.assert_array_equal(_ranges(np.array([0, 2, 0, 1])), [0, 1, 0])


@pytest.fixture(scope="module")
def small_tree():
    dom = AABB((-16, -16, -16), (16, 16, 16))
    return build_from_sdf(SphereSDF((0, 0, 0), 9.0), dom, 16)


class TestInitialFrontier:
    def test_expanded_tree_all_stored(self, small_tree):
        tree = expand_top(small_tree, 3)
        scene = Scene(tree, paper_tool(), np.zeros(3))
        L0, codes, idx, status = initial_frontier(scene, 3)
        assert L0 == 3
        assert (idx >= 0).all(), "expanded trees need no virtual base cells"
        assert len(codes) == tree.levels[3].n

    def test_unexpanded_tree_virtualizes_full(self, small_tree):
        scene = Scene(small_tree, paper_tool(), np.zeros(3))
        L0, codes, idx, status = initial_frontier(scene, 3)
        n_above_full = sum(
            int((small_tree.levels[l].status == STATUS_FULL).sum()) for l in range(3)
        )
        if n_above_full:
            assert (idx < 0).any()
        # every virtual cell is FULL
        assert (status[idx < 0] == STATUS_FULL).all()

    def test_start_beyond_depth_clamps(self, small_tree):
        scene = Scene(small_tree, paper_tool(), np.zeros(3))
        L0, codes, idx, status = initial_frontier(scene, 99)
        assert L0 == small_tree.depth

    def test_codes_unique_per_level(self, small_tree):
        scene = Scene(small_tree, paper_tool(), np.zeros(3))
        _, codes, _, _ = initial_frontier(scene, 4)
        assert len(np.unique(codes)) == len(codes)


class TestAdvance:
    def _runtime(self, tree):
        grid = OrientationGrid.square(2)
        return Runtime(
            scene=Scene(tree, paper_tool(), np.zeros(3)),
            grid=grid,
            counters=ThreadCounters(n_threads=grid.size, n_cyl=4),
            costs=DEFAULT_COSTS,
            config=TraversalConfig(),
        )

    def _wave(self, rt, level, threads, codes, idx, status):
        tree = rt.scene.tree
        return Wave(
            level=level,
            threads=np.asarray(threads, dtype=np.intp),
            codes=np.asarray(codes, dtype=np.uint64),
            idx=np.asarray(idx, dtype=np.intp),
            status=np.asarray(status, dtype=np.uint8),
            centers=tree.centers_of_codes(level, np.asarray(codes, dtype=np.uint64)),
            half=tree.cell_half(level),
            dirs=rt.all_dirs[np.asarray(threads, dtype=np.intp)],
        )

    def test_yes_on_full_marks_collision(self, small_tree):
        rt = self._runtime(small_tree)
        # find a FULL node at some level
        for l, lev in enumerate(small_tree.levels):
            full_idx = np.nonzero(lev.status == STATUS_FULL)[0]
            if len(full_idx):
                break
        wave = self._wave(
            rt, l, [1], [lev.codes[full_idx[0]]], [full_idx[0]], [STATUS_FULL]
        )
        collides = np.zeros(4, dtype=bool)
        out = _advance(rt, wave, np.array([OUT_YES], dtype=np.uint8), collides)
        assert collides[1]
        assert len(out[0]) == 0  # nothing to expand

    def test_yes_on_mixed_expands_stored_children(self, small_tree):
        rt = self._runtime(small_tree)
        l = 2
        lev = small_tree.levels[l]
        mix = np.nonzero(lev.status == STATUS_MIXED)[0][0]
        wave = self._wave(rt, l, [0], [lev.codes[mix]], [mix], [STATUS_MIXED])
        collides = np.zeros(4, dtype=bool)
        threads, codes, idx, status = _advance(
            rt, wave, np.array([OUT_YES], dtype=np.uint8), collides
        )
        assert len(threads) == lev.child_count[mix]
        assert (idx >= 0).all()
        # children codes fall in the parent's code range
        parent = int(lev.codes[mix])
        assert ((codes >> np.uint64(3)) == parent).all()

    def test_expand_on_full_makes_virtual_children(self, small_tree):
        rt = self._runtime(small_tree)
        for l, lev in enumerate(small_tree.levels):
            full_idx = np.nonzero(lev.status == STATUS_FULL)[0]
            if len(full_idx) and l < small_tree.depth:
                break
        wave = self._wave(
            rt, l, [2], [lev.codes[full_idx[0]]], [full_idx[0]], [STATUS_FULL]
        )
        collides = np.zeros(4, dtype=bool)
        threads, codes, idx, status = _advance(
            rt, wave, np.array([OUT_EXPAND], dtype=np.uint8), collides
        )
        assert len(threads) == 8
        assert (idx == -1).all()
        assert (status == STATUS_FULL).all()

    def test_no_prunes(self, small_tree):
        rt = self._runtime(small_tree)
        lev = small_tree.levels[2]
        wave = self._wave(rt, 2, [0], [lev.codes[0]], [0], [lev.status[0]])
        collides = np.zeros(4, dtype=bool)
        out = _advance(rt, wave, np.array([OUT_NO], dtype=np.uint8), collides)
        assert len(out[0]) == 0
        assert not collides.any()

    def test_collided_thread_pairs_dropped(self, small_tree):
        rt = self._runtime(small_tree)
        l = 2
        lev = small_tree.levels[l]
        mix = np.nonzero(lev.status == STATUS_MIXED)[0][0]
        full_levels = [
            (fl, np.nonzero(flev.status == STATUS_FULL)[0])
            for fl, flev in enumerate(small_tree.levels)
        ]
        # same thread: one FULL-YES pair (collides) and one MIXED-YES pair
        wave = self._wave(
            rt,
            l,
            [3, 3],
            [lev.codes[mix], lev.codes[mix]],
            [mix, mix],
            [STATUS_FULL, STATUS_MIXED],  # treat first as solid
        )
        collides = np.zeros(4, dtype=bool)
        threads, *_ = _advance(
            rt, wave, np.array([OUT_YES, OUT_YES], dtype=np.uint8), collides
        )
        assert collides[3]
        assert len(threads) == 0, "pairs of a collided thread must be dropped"
        del full_levels


class TestMaxPairsChunking:
    """``TraversalConfig.max_pairs`` must bound decide() batches without
    changing any result.

    Regression: the field used to be documented but never read — waves
    of any size went to ``method.decide`` in one batch.
    """

    @pytest.fixture(scope="module")
    def scene(self, small_tree):
        tree = expand_top(small_tree, 3)
        return Scene(tree, paper_tool(), np.array([0.0, 0.0, 10.0]))

    @pytest.mark.parametrize("method_name", ["PBoxOpt", "AICA"])
    @pytest.mark.parametrize("cap", [1, 7])
    def test_tiny_cap_identical(self, scene, method_name, cap):
        from repro.cd import run_cd
        from repro.cd.methods import method_by_name

        grid = OrientationGrid.square(4)
        ref = run_cd(scene, grid, method_by_name(method_name))
        capped = run_cd(
            scene, grid, method_by_name(method_name),
            config=TraversalConfig(max_pairs=cap),
        )
        np.testing.assert_array_equal(capped.collides, ref.collides)
        for name in ThreadCounters.COUNTER_FIELDS:
            np.testing.assert_array_equal(
                getattr(capped.counters, name), getattr(ref.counters, name),
                err_msg=name,
            )

    def test_decide_sees_bounded_waves(self, scene):
        """Every decide() batch is at most max_pairs pairs wide, and every
        decide_base() chunk at most max(max_pairs, n0) (cell, thread) pairs.

        Start level 3 reaches levels below the base level (decide() runs);
        the default start level clamps to the leaf level, so the base
        level is the whole traversal and, with n0 > max_pairs, each
        decide_base() call sees a single thread column.
        """
        from repro.cd import run_cd
        from repro.cd.methods import method_by_name

        for start_level in (3, 5):
            method = method_by_name("AICA")
            sizes = []
            base_sizes = []
            original = method.decide
            original_base = method.decide_base

            def spy(rt, wave):
                sizes.append(wave.size)
                return original(rt, wave)

            def base_spy(rt, bw):
                base_sizes.append(bw.size)
                return original_base(rt, bw)

            method.decide = spy
            method.decide_base = base_spy
            # workers=1: the spies live in this process, not in pool workers
            run_cd(scene, OrientationGrid.square(4), method,
                   config=TraversalConfig(max_pairs=16, workers=1,
                                          start_level=start_level))
            n0 = len(initial_frontier(scene, start_level)[1])
            assert base_sizes and max(base_sizes) <= max(16, n0)
            if start_level < scene.tree.depth:
                assert sizes and max(sizes) <= 16
            else:
                assert n0 > 16 and set(base_sizes) == {n0}
                assert not sizes


class TestLeafOnlyTree:
    def test_depth_zero_tree(self):
        """A 1-voxel-deep tree (depth 0) still works end to end."""
        dom = AABB((-1, -1, -1), (1, 1, 1))
        tree = build_from_dense(np.ones((1, 1, 1), dtype=bool), dom)
        from repro.cd import AICA, run_cd

        scene = Scene(tree, paper_tool(), np.array([0.0, 0.0, 1.5]))
        r = run_cd(scene, OrientationGrid.square(4), AICA())
        # pointing the tool down into the unit cube must collide
        assert r.n_colliding > 0
