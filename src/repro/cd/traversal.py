"""The shared level-synchronous octree traversal (Algorithm 2, batched).

On the GPU, each thread runs Algorithm 2's explicit-stack DFS over the
octree for its orientation.  The vectorized equivalent used here is a
*frontier*: the set of live (thread, node) pairs, advanced one octree
level at a time.  Per level, the active method classifies every pair
(``NO`` = prune, ``YES`` = the tool provably intersects the node's box,
``EXPAND`` = AICA's inconclusive-but-expandable corner case), and the
frontier is rebuilt:

* ``YES`` on a FULL node -> the thread's orientation collides; all of
  the thread's other pairs are dropped (Algorithm 2's early return);
* ``YES`` on a MIXED node -> the node's stored children join the
  frontier;
* ``EXPAND`` on a FULL interior node -> eight *virtual* FULL sub-cells
  join the frontier (geometric subdivision of a solid region, which the
  stored tree does not materialize).

The traversal visits exactly the nodes the per-thread DFS would visit,
up to within-level ordering after a collision (a sequential thread stops
mid-level; the batched version finishes the level).  Check counts per
thread are recorded in :class:`~repro.engine.counters.ThreadCounters`
and converted to simulated kernel time by :mod:`repro.engine.simt`.

Threads are processed in blocks (GPU thread blocks) so peak frontier
memory stays bounded at any map resolution.

The base level is special: its frontier is, by construction, the full
product of a block's threads and the base cells of
:func:`initial_frontier`.  It is decided as a dense (base cell x thread)
verdict matrix by each method's ``decide_base`` (see :class:`BaseLevel`),
and only its non-``NO`` cells are compacted into the first sparse wave.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.cd.result import CDResult
from repro.cd.scene import Scene
from repro.engine.costs import CostModel, DEFAULT_COSTS
from repro.engine.counters import StageBreakdown, ThreadCounters
from repro.engine.device import DeviceSpec, GTX_1080_TI
from repro.engine.simt import simulate_kernel, simulate_stage
from repro.engine.workspace import Workspace, export_workspace_metrics, get_ambient_workspace
from repro.geometry.orientation import OrientationGrid
from repro.ica.cone import ica_bounds_cos, miss_bound
from repro.ica.table import SQRT3, IcaTable, build_ica_table
from repro.obs.metrics import get_metrics
from repro.obs.profile import Heartbeat, progress_enabled
from repro.obs.trace import get_tracer
from repro.octree.linear import STATUS_FULL, STATUS_MIXED

__all__ = [
    "TraversalConfig",
    "Runtime",
    "Wave",
    "LevelContext",
    "BaseLevel",
    "BaseWave",
    "run_cd",
    "OUT_NO",
    "OUT_YES",
    "OUT_EXPAND",
]

OUT_NO = np.uint8(0)
OUT_YES = np.uint8(1)
OUT_EXPAND = np.uint8(2)


def _fly_bounds(tool, dist: np.ndarray, half: float):
    """On-the-fly CHECKICA cone bounds ``(cos_lo, cos_hi)`` at pivot distances ``dist``.

    ``cos_lo`` is GETTOOLICA's of the voxel's inscribed sphere (radius
    ``half``), ``cos_hi`` that of its circumscribed sphere
    (``sqrt(3) * half``) — Algorithm 1's two spheres.
    """
    lo, _ = ica_bounds_cos(tool.z0, tool.z1, tool.radius, dist, half)
    _, hi = ica_bounds_cos(tool.z0, tool.z1, tool.radius, dist, SQRT3 * half)
    return lo, hi

@dataclass(frozen=True)
class TraversalConfig:
    """Tunable parameters of the parallel scheme.

    ``start_level`` is the paper's top-level expansion (top 5 levels
    collapsed into one 32^3 base level); ``memo_levels`` is the paper's
    ``S`` (stage-1 precompute depth, default 8); ``thread_block`` bounds
    the number of orientations processed per frontier sweep;
    ``max_pairs`` bounds how many (thread, node) pairs a single
    ``method.decide`` call may see — larger frontiers are classified in
    chunks, capping the peak working set of a level (the decision
    kernels allocate a dozen temporaries per pair).  The dense base
    level is chunked by thread columns under the same bound: one
    ``method.decide_base`` call sees at most ``max(max_pairs, n0)``
    (cell, thread) pairs, ``n0`` being the number of base cells (one
    thread column is the smallest chunk).

    ``workers`` selects the execution engine: ``1`` is the serial
    reference path, ``N > 1`` shards the workload over ``N`` OS
    processes via :mod:`repro.engine.pool`, and ``None`` (the default)
    defers to the ``REPRO_WORKERS`` environment variable (itself
    defaulting to 1).  Results are byte-identical for any worker count.
    """

    start_level: int = 5
    memo_levels: int = 8
    thread_block: int = 2048
    max_pairs: int = 4_000_000  # frontier chunking threshold inside a block
    workers: int | None = None  # None = resolve from REPRO_WORKERS (default 1)


@dataclass
class Wave:
    """One frontier level's pair arrays, as seen by a method's decide().

    ``ctx`` is the level's shared :class:`LevelContext` (per-node /
    per-thread data hoisted out of the per-pair kernels); ``offset`` is
    this (sub-)wave's start within the context's full-level arrays
    (``_decide_chunked`` slices waves, and chunk ``[a:b)`` of the level
    maps to ``ctx`` rows ``[a:b)``).  The traversal always sets it;
    waves built without one (the voxel-mapping pricer, direct kernel
    tests) make the methods compute distances and cone bounds inline.
    """

    level: int
    threads: np.ndarray  # (F,) global thread (orientation) indices
    codes: np.ndarray  # (F,) uint64 Morton codes at `level`
    idx: np.ndarray  # (F,) stored-node index at `level`, -1 if virtual
    status: np.ndarray  # (F,) uint8 node status (virtual nodes are FULL)
    centers: np.ndarray | None  # (F, 3) node centers (None in panel mode)
    half: float  # cell half-edge at `level`
    dirs: np.ndarray | None  # (F, 3) tool direction per pair (None in panel mode)
    ctx: "LevelContext | None" = None  # shared per-(block, level) data
    offset: int = 0  # start row of this sub-wave within ctx's arrays

    @property
    def size(self) -> int:
        return len(self.threads)


@dataclass
class Runtime:
    """Per-run shared state handed to the methods.

    ``workspace`` is the buffer arena for wave arrays and kernel
    temporaries (the ambient one when installed, else a fresh private
    arena) and ``cache`` holds the run's deduplicated per-node and
    per-thread geometry (:class:`_RunCache`).
    """

    scene: Scene
    grid: OrientationGrid
    counters: ThreadCounters
    costs: CostModel
    config: TraversalConfig
    table: IcaTable | None = None
    all_dirs: np.ndarray = field(default=None)
    workspace: Workspace | None = None
    cache: "_RunCache | None" = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.all_dirs is None:
            self.all_dirs = self.grid.directions()
        if self.workspace is None:
            self.workspace = get_ambient_workspace() or Workspace()
        if self.cache is None:
            self.cache = _RunCache(self.scene)


class _RunCache:
    """One run's deduplicated geometry, shared across blocks and levels.

    Everything here is *recomputation elimination only*: each cached
    array is produced by exactly the elementwise formula a per-pair
    kernel would apply, evaluated once per stored node (or once per
    thread of a block) and gathered — so gathered values are bit-equal
    to the per-pair originals, which is what keeps maps and counters
    byte-identical whichever route a level takes.

    Per-level node caches are built lazily and only when the requesting
    frontier has at least as many pairs as the level has stored nodes
    (``want``): on narrow late-level frontiers computing every stored
    node would cost more than the per-pair computation, so callers fall
    back to it (the *values* are identical either way).  Once built, a
    cache serves every later block, chunk and level revisit for free.
    """

    __slots__ = (
        "scene",
        "_centers",
        "_dist",
        "_fly",
        "_frames",
        "_cyl",
        "_frames_t0",
        "_cyl_t0",
    )

    def __init__(self, scene: Scene) -> None:
        self.scene = scene
        self._centers: dict[int, np.ndarray] = {}
        self._dist: dict[int, np.ndarray] = {}
        self._fly: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._frames: np.ndarray | None = None
        self._cyl: tuple | None = None
        self._frames_t0 = -1
        self._cyl_t0 = -1

    # -- per stored node ---------------------------------------------------

    def level_centers(self, level: int, want: int) -> np.ndarray | None:
        """Centers of every stored node at ``level`` (or None: too narrow)."""
        c = self._centers.get(level)
        if c is None:
            lev = self.scene.tree.levels[level]
            if lev.n > want:
                return None
            c = self._centers[level] = self.scene.tree.centers_of_codes(level, lev.codes)
        return c

    def level_dist(self, level: int, want: int) -> np.ndarray | None:
        """Pivot distance of every stored node at ``level`` (the per-pair formula)."""
        d = self._dist.get(level)
        if d is None:
            centers = self.level_centers(level, want)
            if centers is None:
                return None
            rel = centers - self.scene.pivot
            d = self._dist[level] = np.sqrt(np.einsum("ij,ij->i", rel, rel))
        return d

    def level_fly_bounds(self, level: int, half: float, want: int):
        """On-the-fly CHECKICA cone bounds for every stored node at ``level``.

        Returns :func:`_fly_bounds` per stored node, or None when the
        level is wider than ``want`` pairs.
        """
        b = self._fly.get(level)
        if b is None:
            if self.scene.tree.levels[level].n > want:
                return None
            dist = self.level_dist(level, want)
            if dist is None:
                return None
            b = self._fly[level] = _fly_bounds(self.scene.tool, dist, half)
        return b

    # -- per thread of the current block ----------------------------------

    def block_frames(self, all_dirs: np.ndarray, t0: int, t1: int) -> np.ndarray:
        """Oriented tool frames for threads ``[t0, t1)`` (level-invariant)."""
        if self._frames_t0 != t0 or self._frames is None:
            from repro.geometry.frames import frame_from_axis

            self._frames = frame_from_axis(all_dirs[t0:t1])
            self._frames_t0 = t0
        return self._frames

    def block_cyl_aabbs(self, all_dirs: np.ndarray, t0: int, t1: int):
        """World AABBs of each oriented tool cylinder, per block thread.

        Returns ``(lo, hi, union_lo, union_hi)`` with shapes
        ``(B, C, 3)``/``(B, 3)`` — the per-cylinder boxes exactly as
        ``tool_aabb_cull_batch`` builds them per pair, plus their
        elementwise union.  The cylinders depend only on (pivot, dir),
        never on the node or the level, so one block computes them once.
        """
        if self._cyl_t0 != t0 or self._cyl is None:
            tool = self.scene.tool
            pivot = self.scene.pivot
            dirs = all_dirs[t0:t1]
            z0s = np.atleast_1d(np.asarray(tool.z0, dtype=np.float64))
            z1s = np.atleast_1d(np.asarray(tool.z1, dtype=np.float64))
            rads = np.atleast_1d(np.asarray(tool.radius, dtype=np.float64))
            lateral = rads[None, :, None] * np.sqrt(
                np.clip(1.0 - dirs[:, None, :] ** 2, 0.0, 1.0)
            )  # (B, C, 3)
            c0 = pivot + z0s[None, :, None] * dirs[:, None, :]
            c1 = pivot + z1s[None, :, None] * dirs[:, None, :]
            lo = np.minimum(c0, c1) - lateral
            hi = np.maximum(c0, c1) + lateral
            self._cyl = (lo, hi, lo.min(axis=1), hi.max(axis=1))
            self._cyl_t0 = t0
        return self._cyl


#: Panel-mode routing guards (see LevelContext.prepare_panels).  Pure
#: wall-clock heuristics: both sides of the guard are bit-equal, only
#: speed differs.  A panel pays O(U * B) where the per-pair path pays
#: O(F); require the frontier to be non-trivial and the panel to stay
#: within a small factor of the pair count.
_PANEL_MIN_PAIRS = 4096
_PANEL_OVERSAMPLE = 2.0


def _ica_outcome_matrix(ws: Workspace, rel, dist, dirs, cos1, cos2, expand: bool):
    """CHECKICA outcomes on a (node x thread) matrix: ``(out, corner)``.

    ``rel``/``dist``/``cos1``/``cos2`` are per node, ``dirs`` per thread.
    ``out[u, t]`` is the outcome the per-pair kernel gives pair (node u,
    thread t): the einsum accumulates ``rel . dir`` in the per-pair
    einsum's order and the divide/clip/threshold chain is the per-pair
    one, so every cell is bit-equal.  Corner cells hold ``OUT_EXPAND``
    when ``expand``, else ``OUT_NO`` pending the box fallback; ``corner``
    marks them.  Shared by the level panels and the dense base level.
    """
    shape = (len(rel), len(dirs))
    cos = ws.take("panel.cos", shape)
    np.einsum("uj,tj->ut", rel, dirs, out=cos)
    safe = ws.take("panel.safe", len(rel))
    np.maximum(dist, 1e-300, out=safe)
    np.divide(cos, safe[:, None], out=cos)
    np.clip(cos, -1.0, 1.0, out=cos)
    cos[dist == 0.0] = 1.0
    yes = ws.take("panel.yes", shape, bool)
    np.greater_equal(cos, cos1[:, None], out=yes)
    # corner == ~yes & ~(cos <= miss_bound(cos2)) (the reference's ~yes & ~no).
    corner = ws.take("panel.corner", shape, bool)
    np.less_equal(cos, miss_bound(cos2)[:, None], out=corner)
    np.logical_or(corner, yes, out=corner)
    np.logical_not(corner, out=corner)
    out = ws.take("panel.out", shape, np.uint8)
    np.multiply(yes, OUT_YES, out=out)
    if expand:
        np.copyto(out, OUT_EXPAND, where=corner)
    return out, corner


def _box_screen_matrix(ws: Workspace, tool, rel, rr, dirs, half: float):
    """CHECKBOX sphere-screen verdicts on a (node x thread) matrix.

    Returns ``(hit, undecided)`` bool matrices: the inscribed/
    circumscribed-sphere screen of :func:`tool_aabb_batch` evaluated per
    (node, thread) with the reference's exact op order (``rr`` is the
    per-node ``rel . rel``); only ``undecided`` cells still need the
    rotate/clip/project kernel.
    """
    from repro.geometry.batch import tool_point_distance_2d

    shape = (len(rel), len(dirs))
    axial = ws.take("panel.axial", shape)
    np.einsum("uj,tj->ut", rel, dirs, out=axial)
    radial = ws.take("panel.radial", shape)
    np.multiply(axial, axial, out=radial)
    np.subtract(rr[:, None], radial, out=radial)
    np.maximum(radial, 0.0, out=radial)
    np.sqrt(radial, out=radial)
    d2d = tool_point_distance_2d(tool.z0, tool.z1, tool.radius, axial, radial)
    # The reference compares against halves3.min(axis=1) and
    # sqrt(einsum(halves3, halves3)) of the broadcast scalar half;
    # reproduce both reductions on one (1, 3) row so the thresholds are
    # the same floats.
    h3 = np.array([[half, half, half]])
    r_in = h3.min(axis=1)[0]
    r_circ = np.sqrt(np.einsum("ij,ij->i", h3, h3))[0]
    hit = ws.take("panel.scr_hit", shape, bool)
    np.less_equal(d2d, r_in, out=hit)
    und = ws.take("panel.scr_und", shape, bool)
    np.less_equal(d2d, r_circ, out=und)
    und[hit] = False
    return hit, und


class LevelContext:
    """Shared data of one (block, level) of the traversal, computed lazily.

    One instance spans *every* ``decide`` chunk of a frontier level, so
    anything computed here — per-pair distances, CHECKICA cone bounds,
    the per-thread cull boxes — is paid once per level instead of once
    per ``max_pairs`` chunk.  All arrays are full-level (length ``F``);
    chunked sub-waves address them through ``Wave.offset``.

    Dedup keys: stored pairs use ``idx`` (the stored-node index — already
    unique per node, no sort needed); virtual pairs (``idx == -1``,
    AICA's expanded FULL octants and the above-base-level solid
    expansion) are deduplicated with one ``np.unique`` over their —
    typically small — code subset.

    **Panels.**  When a level's frontier is dense — the pairs cover the
    level's unique nodes many times over — the context switches to
    *panel* mode: the per-pair kernels' core quantities (the CHECKICA
    cosine test, the CHECKBOX screening distance, the optimized-PBox
    cull verdict) are evaluated on a ``(unique node, block thread)``
    matrix once per level and each pair merely gathers its ``(node,
    thread)`` cell.  Every matrix element is produced by exactly the
    per-pair formula (elementwise ops and order-preserving ``einsum``
    contractions), so gathered values are bit-equal to the reference
    kernels' and outcomes/counters stay byte-identical.  Panel mode is a
    pure routing decision (``_PANEL_*`` guards) between two bit-equal
    computations, so the thresholds are free to be tuned.
    """

    __slots__ = (
        "rt",
        "level",
        "half",
        "t0",
        "t1",
        "threads",
        "codes",
        "idx",
        "status",
        "centers",
        "n_stored",
        "_vsel",
        "_vuq",
        "_vinv",
        "_vcenters",
        "_vdist",
        "_dist",
        "_bounds",
        "_dense",
        "_use_panels",
        "_uloc",
        "_urows",
        "_n_us",
        "_flat",
        "_pnodes",
        "_pbounds",
        "_ica_panel",
        "_screen",
        "_cullmat",
    )

    def __init__(self, rt, level, half, t0, t1, threads, codes, idx, status):
        self.rt = rt
        self.level = level
        self.half = half
        self.t0 = t0
        self.t1 = t1
        self.threads = threads
        self.codes = codes
        self.idx = idx
        self.status = status
        self.centers = None
        self._vsel = None
        self._vuq = None
        self._vinv = None
        self._vcenters = None
        self._vdist = None
        self._dist = None
        self._bounds = None
        self._dense = False
        self._use_panels = None
        self._uloc = None
        self._urows = None
        self._n_us = 0
        self._flat = None
        self._pnodes = None
        self._pbounds = None
        self._ica_panel = None
        self._screen = None
        self._cullmat = None

    # -- virtual pairs -----------------------------------------------------

    def _virtual(self):
        """(selector, unique codes, inverse) of the virtual pairs."""
        if self._vsel is None:
            self._vsel = np.flatnonzero(self.idx < 0)
            if len(self._vsel):
                self._vuq, self._vinv = np.unique(
                    self.codes[self._vsel], return_inverse=True
                )
            else:
                self._vuq = np.zeros(0, dtype=np.uint64)
                self._vinv = np.zeros(0, dtype=np.intp)
        return self._vsel, self._vuq, self._vinv

    def _virtual_dist(self) -> np.ndarray:
        """Pivot distance per unique virtual node (the per-pair formula)."""
        if self._vdist is None:
            if self._vcenters is None:
                _, vuq, _ = self._virtual()
                self._vcenters = self.rt.scene.tree.centers_of_codes(self.level, vuq)
            rel = self._vcenters - self.rt.scene.pivot
            self._vdist = np.sqrt(np.einsum("ij,ij->i", rel, rel))
        return self._vdist

    # -- per-pair arrays (full level) --------------------------------------

    def build_centers(self) -> np.ndarray:
        """The level's (F, 3) centers, deduplicated per node when dense.

        Dense path: gather the stored-node center cache through ``idx``
        and patch virtual rows from their unique codes.  Narrow path
        (frontier smaller than the stored level): per-pair decode.  Either
        way every row equals ``centers_of_codes(level, codes)`` bit-for-bit.
        """
        rt = self.rt
        tree = rt.scene.tree
        F = len(self.codes)
        out = rt.workspace.take("wave.centers", (F, 3))
        vsel, vuq, vinv = self._virtual()
        self.n_stored = F - len(vsel)
        lev_centers = (
            rt.cache.level_centers(self.level, self.n_stored) if self.n_stored else None
        )
        if self.n_stored and lev_centers is None:
            # Narrow mixed frontier: per-pair decode.
            out[:] = tree.centers_of_codes(self.level, self.codes)
        else:
            self._dense = True
            if self.n_stored:
                # idx == -1 rows read a garbage (last) row; patched below.
                np.take(lev_centers, self.idx, axis=0, out=out)
            if len(vsel):
                self._vcenters = tree.centers_of_codes(self.level, vuq)
                out[vsel] = self._vcenters[vinv]
        self.centers = out
        return out

    def pair_dist(self) -> np.ndarray:
        """(F,) pivot distances per pair (lazy; the per-pair formula per node).

        The dense path is pure gathering; the narrow path is the in-place
        per-pair einsum.
        """
        if self._dist is None:
            rt = self.rt
            F = len(self.codes)
            d = rt.workspace.take("ctx.dist", F)
            if self._dense:
                if self.n_stored:
                    # level_centers exists (dense), so this always builds.
                    lev_dist = rt.cache.level_dist(self.level, self.n_stored)
                    np.take(lev_dist, self.idx, out=d)
                vsel, _, vinv = self._virtual()
                if len(vsel):
                    d[vsel] = self._virtual_dist()[vinv]
            else:
                rel = rt.workspace.take("ctx.rel", (F, 3))
                np.subtract(self.centers, rt.scene.pivot, out=rel)
                np.einsum("ij,ij->i", rel, rel, out=d)
                np.sqrt(d, out=d)
            self._dist = d
        return self._dist

    def cos_bounds(self, use_memo: bool):
        """(F,) CHECKICA cone bounds per pair, plus the memo applicability.

        Returns ``(cos1, cos2, memo_stored)`` where ``memo_stored`` says
        whether stored pairs at this level read the stage-1 table (in
        which case their bounds come from ``table.lookup`` and only
        virtual pairs carry on-the-fly bounds).  Computed once per
        (block, level); every ``decide`` chunk slices it.

        The bounds themselves are *stage-1 precompute* work — table
        lookups, unique-code dedup, and the sort-heavy
        :func:`~repro.ica.cone.ica_bounds_cos`.
        """
        if self._bounds is None:
            rt = self.rt
            tool = rt.scene.tool
            F = len(self.codes)
            ws = rt.workspace
            cos1 = ws.take("ctx.cos1", F)
            cos2 = ws.take("ctx.cos2", F)
            table = rt.table
            memo_stored = bool(
                use_memo and table is not None and table.has_level(self.level)
            )
            vsel, vuq, vinv = self._virtual()
            if memo_stored:
                ssel = np.flatnonzero(self.idx >= 0)
                if len(ssel):
                    c1, c2 = table.lookup(self.level, self.idx[ssel])
                    cos1[ssel] = c1
                    cos2[ssel] = c2
                if len(vsel):
                    self._fill_virtual_bounds(cos1, cos2, vsel, vuq, vinv)
            elif self._dense and self.n_stored == 0:
                # All-virtual wave: the unique-code dedup already happened.
                self._fill_virtual_bounds(cos1, cos2, vsel, vuq, vinv)
            else:
                fly_bounds = (
                    rt.cache.level_fly_bounds(self.level, self.half, self.n_stored)
                    if self._dense
                    else None
                )
                if fly_bounds is not None:
                    lo, hi = fly_bounds
                    np.take(lo, self.idx, out=cos1)
                    np.take(hi, self.idx, out=cos2)
                    if len(vsel):
                        self._fill_virtual_bounds(cos1, cos2, vsel, vuq, vinv)
                else:
                    # Narrow frontier: unique-by-code dedup over the
                    # whole (stored + virtual) wave in one pass.
                    uniq, inverse = np.unique(self.codes, return_inverse=True)
                    first = np.zeros(len(uniq), dtype=np.intp)
                    first[inverse[::-1]] = np.arange(F, dtype=np.intp)[::-1]
                    lo, hi = _fly_bounds(tool, self.pair_dist()[first], self.half)
                    cos1[:] = lo[inverse]
                    cos2[:] = hi[inverse]
            self._bounds = (cos1, cos2, memo_stored)
        return self._bounds

    def _fill_virtual_bounds(self, cos1, cos2, vsel, vuq, vinv) -> None:
        """On-the-fly bounds for the unique virtual nodes, scattered back."""
        lo, hi = _fly_bounds(self.rt.scene.tool, self._virtual_dist(), self.half)
        cos1[vsel] = lo[vinv]
        cos2[vsel] = hi[vinv]

    # -- panels: (unique node x block thread) matrices ----------------------

    @property
    def use_panels(self) -> bool:
        return bool(self._use_panels)

    def prepare_panels(self) -> bool:
        """Decide (once) whether this level runs on the panel fast path.

        Builds the pair -> panel-row map with a presence/cumsum
        compaction over the stored level (no sort): stored pairs map
        through ``idx``, virtual pairs append their unique codes as
        extra rows.  Eligibility: the frontier is at least as wide as
        the stored level (so the per-node side deduplicates) and the
        panel is not much larger than the pair count (so the per-thread
        side does not overshoot the per-pair cost).
        """
        if self._use_panels is not None:
            return self._use_panels
        rt = self.rt
        F = len(self.codes)
        lev_n = rt.scene.tree.levels[self.level].n
        B = self.t1 - self.t0
        ok = False
        if F >= _PANEL_MIN_PAIRS and lev_n <= F:
            vsel, vuq, vinv = self._virtual()
            self.n_stored = F - len(vsel)
            ws = rt.workspace
            # Length n+1: scattering through idx sends the virtual rows'
            # -1 into the sentinel slot instead of a real node.
            presence = ws.take("panel.presence", lev_n + 1, bool)
            presence[:] = False
            presence[self.idx] = True
            presence = presence[:lev_n]
            nus = 0
            rowmap = None
            if lev_n:
                rowmap = ws.take("panel.rowmap", lev_n, np.intp)
                np.cumsum(presence, out=rowmap)
                nus = int(rowmap[-1])
                np.subtract(rowmap, 1, out=rowmap)
            U = nus + len(vuq)
            if U * B <= _PANEL_OVERSAMPLE * F:
                u_loc = ws.take("panel.u_loc", F, np.intp)
                if nus:
                    # Virtual rows read a garbage entry; patched below.
                    np.take(rowmap, self.idx, out=u_loc)
                if len(vsel):
                    u_loc[vsel] = nus + vinv
                self._urows = np.flatnonzero(presence)
                self._uloc = u_loc
                self._n_us = nus
                self._dense = True
                ok = True
        self._use_panels = ok
        return ok

    def pair_flat(self) -> np.ndarray:
        """(F,) flat ``row * B + thread_col`` index of each pair's panel cell."""
        if self._flat is None:
            ws = self.rt.workspace
            F = len(self.codes)
            B = self.t1 - self.t0
            flat = ws.take("panel.flat", F, np.intp)
            np.subtract(self.threads, self.t0, out=flat)
            tmp = ws.take("panel.flat_tmp", F, np.intp)
            np.multiply(self._uloc, B, out=tmp)
            np.add(flat, tmp, out=flat)
            self._flat = flat
        return self._flat

    def _panel_nodes(self):
        """Per panel-row node geometry: ``(centers, rel, dist)``, each (U, ...).

        Stored rows gather the level caches; virtual rows append their
        deduplicated centers/distances — all values bit-equal to the
        per-pair formulas (the caches are built with them).
        """
        if self._pnodes is None:
            rt = self.rt
            F = len(self.codes)
            vsel, vuq, vinv = self._virtual()
            nus = self._n_us
            U = nus + len(vuq)
            ws = rt.workspace
            centers_w = ws.take("panel.centers", (U, 3))
            dist_w = ws.take("panel.dist", U)
            if nus:
                lev_centers = rt.cache.level_centers(self.level, F)
                lev_dist = rt.cache.level_dist(self.level, F)
                np.take(lev_centers, self._urows, axis=0, out=centers_w[:nus])
                np.take(lev_dist, self._urows, out=dist_w[:nus])
            if len(vuq):
                if self._vcenters is None:
                    self._vcenters = rt.scene.tree.centers_of_codes(self.level, vuq)
                centers_w[nus:] = self._vcenters
                dist_w[nus:] = self._virtual_dist()
            rel_w = ws.take("panel.rel", (U, 3))
            np.subtract(centers_w, rt.scene.pivot, out=rel_w)
            self._pnodes = (centers_w, rel_w, dist_w)
        return self._pnodes

    def _panel_bounds(self, use_memo: bool):
        """Per panel-row CHECKICA cone bounds ``(cos1, cos2, memo_stored)``."""
        if self._pbounds is None:
            rt = self.rt
            tool = rt.scene.tool
            _, _, dist_w = self._panel_nodes()
            vuq = self._vuq
            nus = self._n_us
            U = len(dist_w)
            ws = rt.workspace
            cos1 = ws.take("panel.cos1", U)
            cos2 = ws.take("panel.cos2", U)
            table = rt.table
            memo_stored = bool(
                use_memo and table is not None and table.has_level(self.level)
            )
            if memo_stored:
                if nus:
                    c1, c2 = table.lookup(self.level, self._urows)
                    cos1[:nus] = c1
                    cos2[:nus] = c2
                if len(vuq):
                    cos1[nus:], cos2[nus:] = _fly_bounds(tool, dist_w[nus:], self.half)
            else:
                cos1[:], cos2[:] = _fly_bounds(tool, dist_w, self.half)
            self._pbounds = (cos1, cos2, memo_stored)
        return self._pbounds

    def ica_outcome_panel(self, use_memo: bool, expand_corners: bool):
        """CHECKICA outcomes per panel cell: ``(out_mat, corner_mat, memo)``.

        ``out_mat[u, t]`` is the outcome pair ``(node u, thread t)``
        would get from the reference kernel (corner cells hold
        ``OUT_EXPAND`` when the method expands corners above leaf level,
        else ``OUT_NO`` pending the box fallback); ``corner_mat`` marks
        the corner band.  Computed once per (block, level); every decide
        chunk gathers.
        """
        if self._ica_panel is None:
            rt = self.rt
            _, rel_w, dist_w = self._panel_nodes()
            cos1_w, cos2_w, memo_stored = self._panel_bounds(use_memo)
            out_mat, corner = _ica_outcome_matrix(
                rt.workspace, rel_w, dist_w, rt.all_dirs[self.t0 : self.t1],
                cos1_w, cos2_w, expand_corners and self.level < rt.scene.tree.depth,
            )
            self._ica_panel = (out_mat, corner, memo_stored)
        return self._ica_panel

    def box_screen_panel(self):
        """CHECKBOX sphere-screen verdicts per panel cell.

        Returns ``(hit, undecided)`` bool matrices: the inscribed/
        circumscribed-sphere screen of :func:`tool_aabb_batch` evaluated
        per (node, thread) with the reference's exact op order; only
        ``undecided`` cells still need the rotate/clip/project kernel.
        """
        if self._screen is None:
            rt = self.rt
            ws = rt.workspace
            _, rel_w, _ = self._panel_nodes()
            rr = ws.take("panel.rr", len(rel_w))
            np.einsum("ij,ij->i", rel_w, rel_w, out=rr)
            hit, und = _box_screen_matrix(
                ws, rt.scene.tool, rel_w, rr, rt.all_dirs[self.t0 : self.t1], self.half
            )
            self._screen = (hit, und)
        return self._screen

    def want_screen_panel(self, n_masked: int) -> bool:
        """Whether the CHECKBOX screen should run on the whole panel.

        Worth it when the matrix already exists (gathering is free) or
        the mask covers enough of the panel that one per-cell pass
        undercuts the per-pair pass — corner/cull masks are usually
        sparse, and for those the gathered per-pair screen wins.  Both
        paths produce bit-equal verdicts, so this is purely a routing
        choice.
        """
        if self._screen is not None:
            return True
        _, vuq, _ = self._virtual()
        cells = (self._n_us + len(vuq)) * (self.t1 - self.t0)
        return 2 * n_masked >= cells

    def cull_panel(self) -> np.ndarray:
        """Optimized-PBox cull verdicts per panel cell ((U, B) bool).

        Per cell this is exactly ``tool_aabb_cull_batch``'s test against
        the block's hoisted cylinder AABBs, with the union-box pre-reject
        (exact: the union misses an axis iff every cylinder misses it).
        """
        if self._cullmat is None:
            ws = self.rt.workspace
            lo, hi, ulo, uhi = self.block_cyl_aabbs()
            centers_w, _, _ = self._panel_nodes()
            U = len(centers_w)
            B = self.t1 - self.t0
            blo = ws.take("panel.blo", (U, 3))
            np.subtract(centers_w, self.half, out=blo)
            bhi = ws.take("panel.bhi", (U, 3))
            np.add(centers_w, self.half, out=bhi)
            cand = (
                (ulo[None, :, :] <= bhi[:, None, :]) & (blo[:, None, :] <= uhi[None, :, :])
            ).all(axis=-1)
            possible = ws.take("panel.possible", (U, B), bool)
            possible[:] = False
            ur, tc = np.nonzero(cand)
            if len(ur):
                possible[ur, tc] = (
                    (lo[tc] <= bhi[ur, None, :]) & (blo[ur, None, :] <= hi[tc])
                ).all(axis=-1).any(axis=-1)
            self._cullmat = possible
        return self._cullmat

    def pair_geometry_subset(self, wave, sel: np.ndarray):
        """``(centers, dirs, frames)`` of sub-wave rows ``sel`` (gathers only).

        Used by the panel-mode CHECKBOX fallback, where full per-pair
        centers/dirs were never materialized; the gathered rows are
        bit-equal to what the eager path would have sliced.
        """
        g = wave.offset + sel
        centers_w, _, _ = self._panel_nodes()
        centers = centers_w[self._uloc[g]]
        tsel = self.threads[g]
        dirs = self.rt.all_dirs[tsel]
        frames = self.block_frames()[tsel - self.t0]
        return centers, dirs, frames

    # -- per-thread geometry (PBox / PBoxOpt hoists) -----------------------

    def block_frames(self) -> np.ndarray:
        """(B, 3, 3) oriented tool frames for this block's threads."""
        return self.rt.cache.block_frames(self.rt.all_dirs, self.t0, self.t1)

    def block_cyl_aabbs(self):
        """Per-thread cylinder AABBs ``(lo, hi, union_lo, union_hi)``."""
        return self.rt.cache.block_cyl_aabbs(self.rt.all_dirs, self.t0, self.t1)

    # -- observability ------------------------------------------------------

    def dedup_stats(self) -> tuple[int, float]:
        """(unique nodes, pairs-per-unique-node ratio) — tracing only."""
        vsel, vuq, _ = self._virtual()
        if self._use_panels:
            n_uniq = self._n_us + len(vuq)
        else:
            stored_idx = self.idx[self.idx >= 0]
            n_uniq = len(np.unique(stored_idx)) + len(vuq)
        F = len(self.codes)
        return n_uniq, round(F / max(n_uniq, 1), 2)


class BaseLevel:
    """The base level's node side, built once per traversal range.

    The base level's frontier is the full product of a block's threads
    and these ``n`` cells (:func:`initial_frontier`'s stored and virtual
    base cells), so each method decides it as a dense ``(n, threads)``
    verdict matrix (``decide_base``, one :class:`BaseWave` per thread
    chunk) instead of in pair space.  Every array here is exactly the
    elementwise formula the per-pair kernels apply to the same cell —
    centers decoded from the codes, ``rel = center - pivot``,
    ``dist = sqrt(rel . rel)``, table reads or :func:`_fly_bounds` — so
    matrix verdicts and counters are bit-equal to a sparse wave over the
    same pairs.
    """

    def __init__(self, rt: Runtime, level: int, codes, idx, status) -> None:
        tree = rt.scene.tree
        self.rt = rt
        self.level = level
        self.half = tree.cell_half(level)
        self.codes = codes
        self.idx = idx
        self.status = status
        self.n = len(codes)
        self.centers = tree.centers_of_codes(level, codes)
        self.rel = self.centers - rt.scene.pivot
        self.rr = np.einsum("ij,ij->i", self.rel, self.rel)
        self.dist = np.sqrt(self.rr)
        self._bounds: dict[bool, tuple] = {}
        self._axes = None

    def cos_bounds(self, use_memo: bool):
        """``(cos1, cos2, n_memo)``: CHECKICA cone bounds per cell.

        Stored cells at a memoized level read the stage-1 table (``n_memo``
        of them, each charged as one ``ica_memo`` check); every other
        cell gets the on-the-fly two-sphere bounds.
        """
        b = self._bounds.get(use_memo)
        if b is None:
            table = self.rt.table
            if use_memo and table is not None and table.has_level(self.level):
                memo = self.idx >= 0
            else:
                memo = np.zeros(self.n, dtype=bool)
            cos1 = np.empty(self.n)
            cos2 = np.empty(self.n)
            if memo.any():
                cos1[memo], cos2[memo] = table.lookup(self.level, self.idx[memo])
            fly = ~memo
            if fly.any():
                cos1[fly], cos2[fly] = _fly_bounds(
                    self.rt.scene.tool, self.dist[fly], self.half
                )
            b = self._bounds[use_memo] = (cos1, cos2, int(np.count_nonzero(memo)))
        return b

    def axis_intervals(self):
        """Per axis ``(inverse, lo, hi)``: the cells' box intervals, deduplicated.

        A cell's interval on an axis is ``center -/+ half``, a function of
        its center coordinate alone, so each axis keeps one interval per
        distinct coordinate and ``inverse`` maps every cell to its own.
        """
        if self._axes is None:
            axes = []
            for a in range(3):
                vals, inv = np.unique(self.centers[:, a], return_inverse=True)
                axes.append((inv, vals - self.half, vals + self.half))
            self._axes = axes
        return self._axes


@dataclass
class BaseWave:
    """Thread columns ``[t0, t1)`` of the base level, as seen by ``decide_base``.

    ``block`` is the enclosing thread block ``(t0, t1)``: the run cache
    keys its per-thread frames and cylinder boxes by block, and a chunk
    slices its columns out of them.
    """

    base: BaseLevel
    t0: int
    t1: int
    block: tuple[int, int]

    @property
    def shape(self) -> tuple[int, int]:
        """``(cells, threads)``: the shape of this chunk's verdict matrices."""
        return (self.base.n, self.t1 - self.t0)

    @property
    def size(self) -> int:
        """(cell, thread) pairs covered by this chunk."""
        return self.base.n * (self.t1 - self.t0)

    @property
    def dirs(self) -> np.ndarray:
        return self.base.rt.all_dirs[self.t0 : self.t1]

    def _cols(self) -> slice:
        return slice(self.t0 - self.block[0], self.t1 - self.block[0])

    def frames(self) -> np.ndarray:
        """(threads, 3, 3) oriented tool frames of this chunk's threads."""
        rt = self.base.rt
        return rt.cache.block_frames(rt.all_dirs, *self.block)[self._cols()]

    def cull(self) -> np.ndarray:
        """Optimized-PBox cull verdicts per cell ((n, threads) bool).

        Per cell this is exactly ``tool_aabb_cull_batch``'s test: some
        cylinder's world AABB overlaps the cell's box on all three axes.
        The test separates by axis and a cell's interval on an axis is
        shared by every cell with the same coordinate there
        (:meth:`BaseLevel.axis_intervals`), so each (axis, cylinder)
        comparison runs once per distinct coordinate and thread, packed
        as one bit per cylinder; a cell gathers its three axis words and
        ANDs them.  No (cells, threads, 3) temporary is built, and the
        verdicts are the same comparisons, so they are bit-equal.
        """
        rt = self.base.rt
        ws = rt.workspace
        lo, hi, _, _ = rt.cache.block_cyl_aabbs(rt.all_dirs, *self.block)
        lo, hi = lo[self._cols()], hi[self._cols()]
        n_cyl = lo.shape[1]
        shape = self.shape
        possible = ws.take("base.cull", shape, bool)
        acc = ws.take("base.cull_acc", shape, np.uint8)
        word = ws.take("base.cull_word", shape, np.uint8)
        for c0 in range(0, n_cyl, 8):  # one uint8 bit per cylinder
            for a, (inv, blo, bhi) in enumerate(self.base.axis_intervals()):
                bits = np.zeros((len(blo), shape[1]), dtype=np.uint8)
                for k, c in enumerate(range(c0, min(c0 + 8, n_cyl))):
                    m = (lo[None, :, c, a] <= bhi[:, None]) & (blo[:, None] <= hi[None, :, c, a])
                    bits |= m.astype(np.uint8) << k
                np.take(bits, inv, axis=0, out=acc if a == 0 else word, mode="clip")
                if a:
                    acc &= word
            if c0 == 0:
                np.not_equal(acc, 0, out=possible)
            else:
                possible |= acc != 0
        return possible


def _ranges(counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(c)`` for each c in counts: [0..c0), [0..c1), ..."""
    counts = np.asarray(counts, dtype=np.intp)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.intp)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    return np.arange(total, dtype=np.intp) - starts


def initial_frontier(scene: Scene, start_level: int):
    """Base cells after the top-level expansion.

    Returns ``(level, codes, idx, status)`` where the cells are all
    stored nodes at ``start_level`` plus the virtual leaf-ward expansion
    of any FULL node living above it (a solid region coarser than the
    base level still has to be visible to every thread).
    """
    tree = scene.tree
    L0 = min(start_level, tree.depth)
    codes = [tree.levels[L0].codes]
    idx = [np.arange(tree.levels[L0].n, dtype=np.intp)]
    status = [tree.levels[L0].status]
    for l in range(L0):
        lev = tree.levels[l]
        full = lev.status == STATUS_FULL
        if not full.any():
            continue
        shift = np.uint64(3 * (L0 - l))
        base = lev.codes[full] << shift
        n_sub = 1 << (3 * (L0 - l))
        sub = (base[:, None] + np.arange(n_sub, dtype=np.uint64)).ravel()
        codes.append(sub)
        idx.append(np.full(len(sub), -1, dtype=np.intp))
        status.append(np.full(len(sub), STATUS_FULL, dtype=np.uint8))
    return (
        L0,
        np.concatenate(codes),
        np.concatenate(idx),
        np.concatenate(status),
    )


def _advance(
    rt: Runtime, wave: Wave, outcomes: np.ndarray, collides: np.ndarray, ws_bank=None
):
    """Apply one level's outcomes; return the next level's frontier arrays.

    Marks collisions, drops pairs of collided threads, and expands the
    surviving YES-on-MIXED / EXPAND pairs (stored children for MIXED,
    virtual FULL octants for FULL interior nodes).

    ``ws_bank`` selects the workspace bank (the next level's parity) the
    output arrays are written into, so the advance reads the current
    level's arrays from one bank while filling the other and no
    allocation happens.  Callers that hold outputs across multiple
    advances (the voxel-mapping pricer, direct tests) pass None and get
    freshly allocated arrays.
    """
    tree = rt.scene.tree
    level = wave.level

    hit = (outcomes == OUT_YES) & (wave.status == STATUS_FULL)
    if hit.any():
        collides[np.unique(wave.threads[hit])] = True

    live = ~collides[wave.threads]
    grow = ((outcomes == OUT_YES) & (wave.status == STATUS_MIXED)) | (outcomes == OUT_EXPAND)
    grow &= live
    if not grow.any() or level >= tree.depth:
        return (
            np.zeros(0, dtype=wave.threads.dtype),
            np.zeros(0, dtype=np.uint64),
            np.zeros(0, dtype=np.intp),
            np.zeros(0, dtype=np.uint8),
        )

    nxt = tree.levels[level + 1]

    stored = grow & (wave.status == STATUS_MIXED)
    virtual = grow & (wave.status == STATUS_FULL)
    n_virt = 8 * int(np.count_nonzero(virtual))

    cs = cc = child_idx = None
    ns = 0
    if stored.any():
        parent_idx = wave.idx[stored]
        lev = tree.levels[level]
        cs = lev.child_start[parent_idx]
        cc = lev.child_count[parent_idx].astype(np.intp)
        child_idx = np.repeat(cs, cc) + _ranges(cc)
        ns = len(child_idx)

    total = ns + n_virt
    if ws_bank is None:
        out_threads = np.empty(total, dtype=wave.threads.dtype)
        out_codes = np.empty(total, dtype=np.uint64)
        out_idx = np.empty(total, dtype=np.intp)
        out_status = np.empty(total, dtype=np.uint8)
    else:
        ws = rt.workspace
        out_threads = ws.take(f"frontier.threads.{ws_bank}", total, wave.threads.dtype)
        out_codes = ws.take(f"frontier.codes.{ws_bank}", total, np.uint64)
        out_idx = ws.take(f"frontier.idx.{ws_bank}", total, np.intp)
        out_status = ws.take(f"frontier.status.{ws_bank}", total, np.uint8)

    if ns:
        out_threads[:ns] = np.repeat(wave.threads[stored], cc)
        out_codes[:ns] = nxt.codes[child_idx]
        out_idx[:ns] = child_idx
        out_status[:ns] = nxt.status[child_idx]

    if n_virt:
        base = wave.codes[virtual] << np.uint64(3)
        np.add(
            base[:, None],
            np.arange(8, dtype=np.uint64),
            out=out_codes[ns:].reshape(-1, 8),
        )
        out_threads[ns:].reshape(-1, 8)[:] = wave.threads[virtual][:, None]
        out_idx[ns:] = -1
        out_status[ns:] = STATUS_FULL

    return out_threads, out_codes, out_idx, out_status


def _subwave(wave: Wave, a: int, b: int) -> Wave:
    """The ``[a:b)`` slice of a wave's pair arrays (views, no copies)."""
    return Wave(
        level=wave.level,
        threads=wave.threads[a:b],
        codes=wave.codes[a:b],
        idx=wave.idx[a:b],
        status=wave.status[a:b],
        centers=wave.centers[a:b] if wave.centers is not None else None,
        half=wave.half,
        dirs=wave.dirs[a:b] if wave.dirs is not None else None,
        ctx=wave.ctx,
        offset=wave.offset + a,
    )


def _decide_chunked(rt: Runtime, method, wave: Wave) -> np.ndarray:
    """``method.decide`` with the frontier split into <= max_pairs chunks.

    Every decision kernel is per-pair pure and charges counters per pair,
    so splitting a level's pair arrays changes neither outcomes nor
    counters — only the peak size of the kernel's temporaries.

    **Counter purity.**  The byte-identity of chunked and unchunked runs
    (and of the panel and per-pair routes, and of any worker sharding)
    rests on a single
    invariant: *a decide() call charges counters for exactly the pairs
    of the wave it was handed* — never for other threads, never more
    than once per pair, never keyed off level-global state.  A method
    that, say, charged every thread of the block per call would pass
    unchunked runs and silently drift under chunking.  When chunking is
    active (and Python is not running with ``-O``), that invariant is
    asserted per chunk: counters of every thread *outside* the chunk
    must not move across the call.
    """
    cap = int(rt.config.max_pairs)
    if cap <= 0 or wave.size <= cap:
        return method.decide(rt, wave)
    counters = rt.counters
    outcomes = np.empty(wave.size, dtype=np.uint8)
    for a in range(0, wave.size, cap):
        b = min(a + cap, wave.size)
        if __debug__:
            outside = np.ones(counters.n_threads, dtype=bool)
            outside[wave.threads[a:b]] = False
            before = _counter_sums(counters, outside)
        outcomes[a:b] = method.decide(rt, _subwave(wave, a, b))
        if __debug__:
            assert _counter_sums(counters, outside) == before, (
                f"{method.name}.decide charged counters outside its sub-wave "
                f"(chunk [{a}:{b}) of {wave.size}); chunked and unchunked runs "
                "would diverge"
            )
    return outcomes


def _counter_sums(counters: ThreadCounters, sel) -> list[int]:
    """Every counter field summed over threads ``sel`` (the purity check)."""
    return [int(getattr(counters, f)[sel].sum()) for f in ThreadCounters.COUNTER_FIELDS]


def _decide_base(rt: Runtime, method, base: BaseLevel, collides, t0: int, t1: int):
    """Decide block ``[t0, t1)`` at the base level; return the next frontier.

    The block's base wave is every (thread, base cell) pair, so it is
    never materialized: ``method.decide_base`` returns the ``(n, threads)``
    outcome matrix of a chunk of thread columns — at most
    ``max(max_pairs, n)`` cells per call, with the same per-chunk
    counter-purity assert as :func:`_decide_chunked` — and only the
    non-``NO`` cells are compacted, thread-major (the order the pair
    wave would list them in), into a sparse wave for :func:`_advance`.
    Each thread visits all ``n`` base cells.
    """
    n = base.n
    cap = int(rt.config.max_pairs)
    step = t1 - t0 if cap <= 0 else max(1, cap // n)
    counters = rt.counters
    parts = []
    for a in range(t0, t1, step):
        b = min(a + step, t1)
        counters.add_range("nodes_visited", a, b, n)
        check = __debug__ and (a, b) != (t0, t1)
        if check:
            outside = np.ones(counters.n_threads, dtype=bool)
            outside[a:b] = False
            before = _counter_sums(counters, outside)
        out = method.decide_base(rt, BaseWave(base, a, b, (t0, t1)))
        if check:
            assert _counter_sums(counters, outside) == before, (
                f"{method.name}.decide_base charged counters outside its "
                f"sub-wave (thread columns [{a}:{b}) of block [{t0}:{t1}))"
            )
        # == np.nonzero(out.T), but a bool flatnonzero plus a stable
        # sort of the (few) survivors is several times faster.
        cells, cols = np.divmod(np.flatnonzero(out != OUT_NO), b - a)
        order = np.argsort(cols, kind="stable")
        cells, cols = cells[order], cols[order]
        parts.append((cols + a, cells, out[cells, cols]))
    threads, cells, outcomes = (np.concatenate(p) for p in zip(*parts))
    wave = Wave(
        level=base.level,
        threads=threads,
        codes=base.codes[cells],
        idx=base.idx[cells],
        status=base.status[cells],
        centers=None,
        half=base.half,
        dirs=None,
    )
    return _advance(rt, wave, outcomes, collides, ws_bank=(base.level + 1) & 1)


def _traverse_range(
    rt: Runtime,
    method,
    L0: int,
    base_codes: np.ndarray,
    base_idx: np.ndarray,
    base_status: np.ndarray,
    collides: np.ndarray,
    t_start: int,
    t_end: int,
    progress=None,
) -> None:
    """Run the frontier traversal for threads ``[t_start, t_end)``.

    Mutates ``collides`` and ``rt.counters`` for exactly those threads;
    threads are independent (a thread's pairs never read another
    thread's state), so any partition of ``[0, M)`` into ranges produces
    the same totals — the property the worker pool relies on.

    ``progress`` — when given — is called with ``(t0=..., t1=...)``
    after each completed thread-block (the serial path's heartbeat).
    """
    tracer = get_tracer()
    tree = rt.scene.tree
    counters = rt.counters
    M = counters.n_threads
    ws = rt.workspace
    n0 = len(base_codes)
    base = BaseLevel(rt, L0, base_codes, base_idx, base_status) if n0 else None
    for t0 in range(t_start, t_end, rt.config.thread_block):
        t1 = min(t0 + rt.config.thread_block, t_end)
        B = t1 - t0
        threads = ()  # no base cell (an all-empty tree): nothing to traverse
        if base is not None:
            with tracer.span("cd.level", level=L0, pairs=n0 * B) as lsp:
                threads, codes, idx, status = _decide_base(
                    rt, method, base, collides, t0, t1
                )
                lsp.set(unique_nodes=n0, dedup_ratio=float(B), dense=True,
                        descend=len(threads))

        level = L0 + 1
        while len(threads):
            with tracer.span("cd.level", level=level, pairs=len(threads)) as lsp:
                ctx = LevelContext(
                    rt, level, tree.cell_half(level), t0, t1,
                    threads, codes, idx, status,
                )
                if ctx.prepare_panels():
                    # Panel mode: kernels read (node x thread) matrices;
                    # per-pair centers/dirs are gathered on demand for
                    # the (rare) exact fallbacks.
                    centers = None
                    dirs = None
                else:
                    centers = ctx.build_centers()
                    dirs = ws.take("wave.dirs", (len(threads), 3))
                    np.take(rt.all_dirs, threads, axis=0, out=dirs)
                if tracer.enabled:
                    n_uniq, ratio = ctx.dedup_stats()
                    lsp.set(
                        unique_nodes=n_uniq,
                        dedup_ratio=ratio,
                        panel=ctx.use_panels,
                    )
                wave = Wave(
                    level=level,
                    threads=threads,
                    codes=codes,
                    idx=idx,
                    status=status,
                    centers=centers,
                    half=tree.cell_half(level),
                    dirs=dirs,
                    ctx=ctx,
                )
                counters.add_threads("nodes_visited", threads, M)
                outcomes = _decide_chunked(rt, method, wave)
                threads, codes, idx, status = _advance(
                    rt, wave, outcomes, collides, ws_bank=(level + 1) & 1
                )
            level += 1
            if level > tree.depth:
                break
        if progress is not None:
            progress(t0=t0, t1=t1)


def _export_run_metrics(
    counters: ThreadCounters,
    table_entries: int,
    cd_s: float,
    pre_s: float,
    wall: float,
) -> None:
    """One CD run's contribution to the ambient metrics registry.

    Shared by the serial path and the pool's parent-side merge so that a
    parallel run exports exactly the counts a serial run would.
    """
    metrics = get_metrics()
    counters.export(metrics, prefix="cd")
    metrics.counter("cd.runs").inc()
    metrics.counter("cd.table_entries").inc(table_entries)
    metrics.counter("cd.sim_cd_s").inc(cd_s)
    metrics.counter("cd.sim_precompute_s").inc(pre_s)
    metrics.counter("cd.wall_s").inc(wall)


def _finalize_run(
    scene: Scene,
    grid: OrientationGrid,
    method,
    *,
    device: DeviceSpec,
    costs: CostModel,
    config: TraversalConfig,
    collides: np.ndarray,
    counters: ThreadCounters,
    table_entries: int,
    run_sp,
    t_wall0: float,
) -> CDResult:
    """SIMT simulation + metrics export + result assembly for one run.

    Runs once per CD run on the (possibly merged) counters, whether the
    traversal executed serially or across a worker pool.
    """
    wall = time.perf_counter() - t_wall0
    cd_s = simulate_kernel(counters.thread_ops(costs), device)
    pre_s = (
        simulate_stage(costs.ica_precompute(scene.n_cylinders), table_entries, device)
        if table_entries
        else 0.0
    )
    run_sp.set(
        colliding=int(collides.sum()),
        total_checks=counters.total_checks,
        table_entries=table_entries,
        sim_cd_s=cd_s,
        sim_precompute_s=pre_s,
    )
    _export_run_metrics(counters, table_entries, cd_s, pre_s, wall)
    return CDResult(
        method=method.name,
        grid=grid,
        collides=collides,
        counters=counters,
        timing=StageBreakdown(ica_precompute_s=pre_s, cd_tests_s=cd_s, wall_s=wall),
        device_name=device.name,
        table_entries=table_entries,
        config=config,
    )


def _check_table(table: IcaTable, scene: Scene, config: TraversalConfig) -> None:
    """Reject a precomputed table that was built for a different problem.

    A mismatched pivot changes the map; a mismatched ``S`` changes the
    memo/fly counter split — either would silently break the byte-for-byte
    equivalence the caller is promised, so both are hard errors.
    """
    if not np.array_equal(np.asarray(table.pivot, dtype=np.float64), scene.pivot):
        raise ValueError(
            f"precomputed ICA table pivot {np.asarray(table.pivot).tolist()} "
            f"does not match scene pivot {scene.pivot.tolist()}"
        )
    expect = int(min(config.memo_levels, scene.tree.depth + 1))
    if table.levels != expect:
        raise ValueError(
            f"precomputed ICA table has S={table.levels}, "
            f"but this run needs S={expect} (config.memo_levels={config.memo_levels})"
        )


def run_cd(
    scene: Scene,
    grid: OrientationGrid,
    method,
    *,
    device: DeviceSpec = GTX_1080_TI,
    costs: CostModel = DEFAULT_COSTS,
    config: TraversalConfig = TraversalConfig(),
    workers: int | None = None,
    table: IcaTable | None = None,
    shared=None,
) -> CDResult:
    """Generate the accessibility map for ``scene`` with ``method``.

    ``method`` is one of the classes in :mod:`repro.cd.methods`.  Returns
    a :class:`CDResult` whose counters and timing cover both traversal
    stages (the ICA precompute, when the method uses one, and the CD
    tests).

    ``workers`` overrides ``config.workers`` (which itself defaults to
    the ``REPRO_WORKERS`` environment variable, then 1).  With ``N > 1``
    the orientation thread-blocks are sharded over ``N`` processes by
    :mod:`repro.engine.pool`; the map and counters are byte-identical to
    the serial path for every method.

    ``table`` is an optional precomputed stage-1 ICA table for exactly
    this (scene, ``config.memo_levels``) — e.g. loaded with
    :func:`repro.ica.io.load_ica_table` or cached by a scene registry —
    validated against the scene before use.  ``shared`` is an optional
    prebuilt :class:`repro.engine.pool.SharedScene` arena (tree + table)
    consulted only by the parallel path; the caller keeps ownership.
    Both leave results byte-identical; they only skip redundant setup.
    """
    from repro.engine.pool import resolve_workers, run_cd_parallel

    if table is not None and getattr(method, "needs_table", False):
        _check_table(table, scene, config)
    n_workers = resolve_workers(workers if workers is not None else config.workers)
    if n_workers > 1 and grid.size > 1:
        return run_cd_parallel(
            scene, grid, method,
            device=device, costs=costs, config=config, workers=n_workers,
            table=table, shared=shared,
        )

    t_wall0 = time.perf_counter()
    tracer = get_tracer()
    M = grid.size
    counters = ThreadCounters(n_threads=M, n_cyl=scene.n_cylinders)
    rt = Runtime(scene=scene, grid=grid, counters=counters, costs=costs, config=config)
    ws_before = rt.workspace.stats()

    with tracer.span("cd.run", method=method.name, orientations=M) as run_sp:
        table_entries = 0
        if getattr(method, "needs_table", False):
            rt.table = (
                table
                if table is not None
                else build_ica_table(
                    scene.tree, scene.tool, scene.pivot, levels=config.memo_levels
                )
            )
            table_entries = rt.table.n_entries

        L0, base_codes, base_idx, base_status = initial_frontier(scene, config.start_level)
        collides = np.zeros(M, dtype=bool)

        if progress_enabled():
            n_blocks = -(-M // config.thread_block)
            heartbeat = Heartbeat(n_blocks, "block")
            progress = heartbeat.tick
        else:
            progress = None
        with tracer.span("cd.traversal", start_level=L0):
            _traverse_range(
                rt, method, L0, base_codes, base_idx, base_status, collides, 0, M,
                progress=progress,
            )

        export_workspace_metrics(get_metrics(), rt.workspace.stats_since(ws_before))

        return _finalize_run(
            scene, grid, method,
            device=device, costs=costs, config=config,
            collides=collides, counters=counters, table_entries=table_entries,
            run_sp=run_sp, t_wall0=t_wall0,
        )
