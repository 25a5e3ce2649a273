"""The five CD methods' per-wave decision kernels.

Each method implements ``decide(rt, wave) -> outcomes`` classifying every
live (thread, node) pair of a frontier wave as ``OUT_NO`` / ``OUT_YES``
/ ``OUT_EXPAND`` (see :mod:`repro.cd.traversal`), and
``decide_base(rt, bw) -> (cells, threads) outcomes``, the same verdicts
for the dense base level (every base cell x a chunk of thread columns,
:class:`~repro.cd.traversal.BaseWave`), with counters charged as
per-thread column sums.  All methods are
*exact*: the ICA-based ones resolve every inconclusive pair, either with
the exact ``CHECKBOX`` fallback or (AICA) by expanding the voxel and
deciding the children — so all five produce identical accessibility
maps, which the integration tests assert.

Costs are charged to the per-thread counters as the paper counts them:
one ``ica_fly`` event covers the whole two-sphere ``CHECKICA``
(``10*N_c + 3`` ops), one ``ica_memo`` event the memoized variant
(3 ops), one ``box`` event a full ``CHECKBOX`` (``216*N_c``), one
``cull`` event the optimized-PBox AABB pre-test.
"""

from __future__ import annotations

import numpy as np

from repro.cd.traversal import (
    OUT_EXPAND,
    OUT_NO,
    OUT_YES,
    BaseWave,
    Runtime,
    Wave,
    _box_screen_matrix,
    _fly_bounds,
    _ica_outcome_matrix,
)
from repro.geometry.batch import tool_aabb_batch, tool_aabb_cull_batch
from repro.ica.cone import miss_bound

__all__ = ["PBox", "PBoxOpt", "PICA", "MICA", "AICA", "METHODS", "method_by_name"]


def _box_check(rt: Runtime, wave: Wave, mask: np.ndarray) -> np.ndarray:
    """Exact whole-tool CHECKBOX on the masked pairs; returns (F,) bool
    (False outside the mask) and charges one box check per tested pair.

    When the wave has a level context the per-pair tool frames are
    gathered from the block's per-thread frame cache instead of being
    rebuilt inside the kernel — the frame depends only on the thread's
    direction, and :func:`repro.geometry.frames.frame_from_axis` is
    elementwise per row, so gathered frames are bit-equal to recomputed
    ones and the kernel's verdicts are unchanged.
    """
    out = np.zeros(wave.size, dtype=bool)
    if not mask.any():
        return out
    tool = rt.scene.tool
    ctx = wave.ctx
    if ctx is not None and ctx.use_panels:
        sel = np.flatnonzero(mask)
        if ctx.want_screen_panel(len(sel)):
            # Dense mask: the sphere screen is evaluated per (node,
            # thread) cell once for the whole level; each masked pair
            # gathers its verdict and only the undecided band runs the
            # exact rotate/clip/project kernel (on gathered geometry).
            scr_hit, scr_und = ctx.box_screen_panel()
            flat = ctx.pair_flat()[wave.offset : wave.offset + wave.size]
            np.take(scr_hit.reshape(-1), flat, out=out)
            out &= mask
            und = np.take(scr_und.reshape(-1), flat)
            und &= mask
            sel = np.flatnonzero(und)
            if len(sel):
                centers, dirs, frames = ctx.pair_geometry_subset(wave, sel)
                out[sel] = tool_aabb_batch(
                    rt.scene.pivot,
                    dirs,
                    centers,
                    wave.half,
                    tool.z0,
                    tool.z1,
                    tool.radius,
                    screen=False,
                    frames=frames,
                )
        elif len(sel):
            # Sparse mask (corner fallback, cull survivors): gather the
            # masked pairs' geometry and run the reference per-pair
            # kernel — the same rows through the same code path.
            centers, dirs, frames = ctx.pair_geometry_subset(wave, sel)
            out[sel] = tool_aabb_batch(
                rt.scene.pivot,
                dirs,
                centers,
                wave.half,
                tool.z0,
                tool.z1,
                tool.radius,
                frames=frames,
            )
        rt.counters.add_threads("box_checks", wave.threads[mask], rt.counters.n_threads)
        return out
    frames = None
    if ctx is not None:
        frames = ctx.block_frames()[wave.threads[mask] - ctx.t0]
    out[mask] = tool_aabb_batch(
        rt.scene.pivot,
        wave.dirs[mask],
        wave.centers[mask],
        wave.half,
        tool.z0,
        tool.z1,
        tool.radius,
        frames=frames,
    )
    rt.counters.add_threads("box_checks", wave.threads[mask], rt.counters.n_threads)
    return out


def _box_cells(rt: Runtime, bw: BaseWave, mask: np.ndarray) -> np.ndarray:
    """Exact whole-tool CHECKBOX on the masked cells of a base-level chunk.

    Returns the ``(cells, threads)`` hit matrix (False outside the mask)
    and charges one box check per masked cell, as column sums.  A mask
    covering at least half the matrix is sphere-screened per cell first
    (``_box_screen_matrix``) so only the undecided band runs the
    rotate/clip/project kernel; a sparser one runs the screening kernel
    on the masked cells alone.  Either way the masked cells are gathered
    with ``np.nonzero`` and verdicts are bit-equal to the per-pair path.
    """
    base = bw.base
    hit = np.zeros(mask.shape, dtype=bool)
    cols = np.count_nonzero(mask, axis=0)
    n_masked = int(cols.sum())
    if not n_masked:
        return hit
    rt.counters.add_range("box_checks", bw.t0, bw.t1, cols)
    tool = rt.scene.tool
    screen = True
    if 2 * n_masked >= mask.size:
        scr_hit, und = _box_screen_matrix(
            rt.workspace, tool, base.rel, base.rr, bw.dirs, base.half
        )
        np.logical_and(scr_hit, mask, out=hit)
        mask = und & mask
        screen = False
    cells, threads = np.nonzero(mask)
    if len(cells):
        hit[cells, threads] = tool_aabb_batch(
            rt.scene.pivot,
            bw.dirs[threads],
            base.centers[cells],
            base.half,
            tool.z0,
            tool.z1,
            tool.radius,
            screen=screen,
            frames=bw.frames()[threads],
        )
    return hit


class PBox:
    """Baseline: exact CHECKBOX at every visited node (Figure 4)."""

    name = "PBox"
    needs_table = False

    def decide(self, rt: Runtime, wave: Wave) -> np.ndarray:
        hit = _box_check(rt, wave, np.ones(wave.size, dtype=bool))
        return np.where(hit, OUT_YES, OUT_NO)

    def decide_base(self, rt: Runtime, bw: BaseWave) -> np.ndarray:
        hit = _box_cells(rt, bw, np.ones(bw.shape, dtype=bool))
        return np.where(hit, OUT_YES, OUT_NO)


class PBoxOpt:
    """Optimized PBox: AABB cull after rotation, then exact CHECKBOX.

    The cull builds the world AABB of each oriented tool cylinder and
    tests it against the voxel; a miss proves no intersection, a hit
    still requires the exact test.  This is conservative-sound, so the
    result is identical to PBox — just cheaper on the (many) far-away
    nodes.
    """

    name = "PBoxOpt"
    needs_table = False

    def decide(self, rt: Runtime, wave: Wave) -> np.ndarray:
        tool = rt.scene.tool
        ctx = wave.ctx
        if ctx is None:
            possible = tool_aabb_cull_batch(
                rt.scene.pivot,
                wave.dirs,
                wave.centers,
                wave.half,
                tool.z0,
                tool.z1,
                tool.radius,
            )
        elif ctx.use_panels:
            # Panel mode: one cull verdict per (unique node, block thread)
            # cell; every pair of the wave gathers its cell.
            flat = ctx.pair_flat()[wave.offset : wave.offset + wave.size]
            possible = np.take(ctx.cull_panel().reshape(-1), flat)
        else:
            possible = self._cull_pairs(rt, wave, ctx)
        rt.counters.add_threads("cull_checks", wave.threads, rt.counters.n_threads)
        hit = _box_check(rt, wave, possible)
        return np.where(hit, OUT_YES, OUT_NO)

    def decide_base(self, rt: Runtime, bw: BaseWave) -> np.ndarray:
        possible = bw.cull()
        rt.counters.add_range("cull_checks", bw.t0, bw.t1, bw.base.n)
        return np.where(_box_cells(rt, bw, possible), OUT_YES, OUT_NO)

    @staticmethod
    def _cull_pairs(rt: Runtime, wave: Wave, ctx) -> np.ndarray:
        """The AABB cull against per-thread cylinder boxes hoisted per block.

        The cylinder AABBs depend only on (pivot, dir), so the block
        computes them once (``_RunCache.block_cyl_aabbs``) and each pair
        only gathers.  A union-AABB pre-reject shrinks the per-cylinder
        test to candidate pairs: the union box misses the voxel on some
        axis iff *every* cylinder box misses it on that axis (the union
        bound per axis is the min/max over cylinders), so rejected pairs
        are exactly the pairs whose per-cylinder test is all-False — the
        returned mask is bit-equal to ``tool_aabb_cull_batch``.
        """
        lo, hi, ulo, uhi = ctx.block_cyl_aabbs()
        ws = rt.workspace
        n = wave.size
        rows = ws.take("pbo.rows", n, np.intp)
        np.subtract(wave.threads, ctx.t0, out=rows)
        blo = ws.take("pbo.blo", (n, 3))
        np.subtract(wave.centers, wave.half, out=blo)
        bhi = ws.take("pbo.bhi", (n, 3))
        np.add(wave.centers, wave.half, out=bhi)

        cand = ((ulo[rows] <= bhi) & (blo <= uhi[rows])).all(axis=-1)
        possible = ws.take("pbo.possible", n, bool)
        possible[:] = False
        sel = np.flatnonzero(cand)
        if len(sel):
            rs = rows[sel]
            possible[sel] = (
                (lo[rs] <= bhi[sel, None, :]) & (blo[sel, None, :] <= hi[rs])
            ).all(axis=-1).any(axis=-1)
        return possible


class _IcaBase:
    """Shared CHECKICA logic (Algorithm 1) for PICA / MICA / AICA.

    Subclasses set ``use_memo`` (gather stage-1 table values when
    available) and ``expand_corners`` (AICA's Section 4.3 optimization).
    """

    use_memo = False
    expand_corners = False
    needs_table = False

    def decide(self, rt: Runtime, wave: Wave) -> np.ndarray:
        if wave.ctx is not None and wave.ctx.use_panels:
            return self._decide_panel(rt, wave)
        return self._decide_pairs(rt, wave)

    def _decide_pairs(self, rt: Runtime, wave: Wave) -> np.ndarray:
        """The per-pair kernel: one CHECKICA per (thread, node) pair.

        Distances and cone bounds depend only on the node.  When the wave
        has a level context they are gathered from it (computed once per
        (block, level) over unique nodes instead of once per pair per
        chunk); otherwise :meth:`_inline_bounds` computes them for this
        wave's unique codes.  Both give bit-equal values, so outcomes and
        counters do not depend on which source ran.  Only the per-pair
        dot product ``dir . rel`` is evaluated here, into workspace
        buffers.
        """
        scene = rt.scene
        ws = rt.workspace
        n = wave.size
        rel = ws.take("ica.rel", (n, 3))
        np.subtract(wave.centers, scene.pivot, out=rel)
        ctx = wave.ctx
        if ctx is not None:
            sl = slice(wave.offset, wave.offset + n)
            dist = ctx.pair_dist()[sl]
            cos1, cos2, memo_stored = ctx.cos_bounds(self.use_memo)
            cos1, cos2 = cos1[sl], cos2[sl]
        else:
            dist = ws.take("ica.dist", n)
            np.einsum("ij,ij->i", rel, rel, out=dist)
            np.sqrt(dist, out=dist)
            cos1, cos2, memo_stored = self._inline_bounds(rt, wave, dist)

        # Compare in cosine space throughout: theta <= ica  <=>  cos_angle
        # >= cos(ica), and the dot product gives the cosine for free.
        cos_angle = ws.take("ica.cos_angle", n)
        np.einsum("ij,ij->i", wave.dirs, rel, out=cos_angle)
        safe = ws.take("ica.safe", n)
        np.maximum(dist, 1e-300, out=safe)
        np.divide(cos_angle, safe, out=cos_angle)
        np.clip(cos_angle, -1.0, 1.0, out=cos_angle)
        cos_angle[dist == 0.0] = 1.0

        yes = cos_angle >= cos1
        no = ~yes & (cos_angle <= miss_bound(cos2))
        corner = ~yes & ~no
        outcomes = np.full(n, OUT_NO, dtype=np.uint8)
        outcomes[yes] = OUT_YES
        if self._expands(rt, wave):
            outcomes[corner] = OUT_EXPAND
        return self._charge_and_settle(rt, wave, outcomes, corner, memo_stored)

    def decide_base(self, rt: Runtime, bw: BaseWave) -> np.ndarray:
        """CHECKICA on a base-level chunk, as a ``(cells, threads)`` matrix.

        The outcome matrix is the level panels' (``_ica_outcome_matrix``,
        bit-equal to the per-pair kernel) over the base cells' ``rel``/
        ``dist`` and per-cell cone bounds.  Every cell costs one
        ``ica_memo`` (stored, memoized level) or ``ica_fly`` check, so
        those are per-thread constants; corner cases and their CHECKBOX
        fallbacks are column sums.
        """
        base = bw.base
        cos1, cos2, n_memo = base.cos_bounds(self.use_memo)
        expand = self.expand_corners and base.level < rt.scene.tree.depth
        out, corner = _ica_outcome_matrix(
            rt.workspace, base.rel, base.dist, bw.dirs, cos1, cos2, expand
        )
        counters = rt.counters
        counters.add_range("ica_memo_checks", bw.t0, bw.t1, n_memo)
        counters.add_range("ica_fly_checks", bw.t0, bw.t1, base.n - n_memo)
        corner_cols = np.count_nonzero(corner, axis=0)
        if corner_cols.any():
            counters.add_range("corner_cases", bw.t0, bw.t1, corner_cols)
            if not expand:
                np.copyto(out, OUT_YES, where=_box_cells(rt, bw, corner))
        return out

    def _inline_bounds(self, rt: Runtime, wave: Wave, dist: np.ndarray):
        """Per-pair cone bounds ``(cos1, cos2, memo_stored)`` without a context.

        Stored pairs at a memoized level read the stage-1 table; every
        other pair gets on-the-fly bounds, computed once per unique code
        and gathered.  That dedup saves host time only: the simulated
        cost stays per pair (each GPU thread of PICA really does
        recompute its own ICA, which is exactly the redundancy MICA's
        table removes).
        """
        n = wave.size
        cos1 = np.empty(n)
        cos2 = np.empty(n)
        memo_stored = bool(
            self.use_memo and rt.table is not None and rt.table.has_level(wave.level)
        )
        memo = wave.idx >= 0 if memo_stored else np.zeros(n, dtype=bool)
        if memo.any():
            cos1[memo], cos2[memo] = rt.table.lookup(wave.level, wave.idx[memo])
        fly = np.flatnonzero(~memo)
        if len(fly):
            _, first, inverse = np.unique(
                wave.codes[fly], return_index=True, return_inverse=True
            )
            lo, hi = _fly_bounds(rt.scene.tool, dist[fly[first]], wave.half)
            cos1[fly] = lo[inverse]
            cos2[fly] = hi[inverse]
        return cos1, cos2, memo_stored

    def _decide_panel(self, rt: Runtime, wave: Wave) -> np.ndarray:
        """The panel kernel: the full (unique node x block thread) CHECKICA
        matrix is evaluated once per level and every pair gathers its cell.

        The panel einsum accumulates ``rel . dir`` over the coordinate
        axis in the same order as the per-pair einsum, so the gathered
        cosines — and therefore outcomes — are bit-equal to
        :meth:`_decide_pairs`.  Counters are charged with the same
        per-pair masks.
        """
        ctx = wave.ctx
        sl = slice(wave.offset, wave.offset + wave.size)
        out_mat, corner_mat, memo_stored = ctx.ica_outcome_panel(
            self.use_memo, self.expand_corners
        )
        flat = ctx.pair_flat()[sl]
        outcomes = np.take(out_mat.reshape(-1), flat)
        corner = np.take(corner_mat.reshape(-1), flat)
        return self._charge_and_settle(rt, wave, outcomes, corner, memo_stored)

    def _expands(self, rt: Runtime, wave: Wave) -> bool:
        """Whether this wave's corner cases are expanded (AICA above leaf level)."""
        return self.expand_corners and wave.level < rt.scene.tree.depth

    def _charge_and_settle(self, rt, wave, outcomes, corner, memo_stored) -> np.ndarray:
        """Charge one CHECKICA per pair and settle the corner band.

        Each pair costs one ``ica_memo`` event when it is stored at a
        memoized level, else one ``ica_fly`` event; each corner case is
        counted.  Corners that are not expanded get the exact CHECKBOX.
        """
        n_threads = rt.counters.n_threads
        memo = wave.idx >= 0 if memo_stored else np.zeros(wave.size, dtype=bool)
        if memo.any():
            rt.counters.add_threads("ica_memo_checks", wave.threads[memo], n_threads)
        fly = ~memo
        if fly.any():
            rt.counters.add_threads("ica_fly_checks", wave.threads[fly], n_threads)
        if corner.any():
            rt.counters.add_threads("corner_cases", wave.threads[corner], n_threads)
            if not self._expands(rt, wave):
                hit = _box_check(rt, wave, corner)
                outcomes[corner & hit] = OUT_YES
        return outcomes


class PICA(_IcaBase):
    """CHECKICA with on-the-fly cone angles; CHECKBOX fallback on corners."""

    name = "PICA"


class MICA(_IcaBase):
    """PICA plus the stage-1 memoized ICA table for the top ``S`` levels."""

    name = "MICA"
    use_memo = True
    needs_table = True


class AICA(_IcaBase):
    """MICA plus corner-case expansion (the paper's full method).

    An inconclusive voxel above leaf level is subdivided and CHECKICA is
    applied to its children instead of paying a 216-op CHECKBOX; only
    leaf-level corner cases still fall back to the exact test.
    """

    name = "AICA"
    use_memo = True
    needs_table = True
    expand_corners = True


METHODS: tuple = (PBox, PBoxOpt, PICA, MICA, AICA)


def method_by_name(name: str):
    """Instantiate a method by its paper name (case-insensitive)."""
    for cls in METHODS:
        if cls.name.lower() == name.lower():
            return cls()
    raise KeyError(f"unknown CD method {name!r}; choose from {[c.name for c in METHODS]}")
