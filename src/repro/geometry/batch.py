"""Vectorized (batched) intersection kernels.

These are the "GPU kernels" of the reproduction: each function processes
a whole batch of (orientation, voxel) work items in one NumPy pass, the
way one CUDA thread per orientation would process them on the paper's
hardware.  All kernels chunk internally so peak memory stays bounded
regardless of batch size.

Every kernel here has a scalar reference twin in
:mod:`repro.geometry.predicates`; the test suite checks elementwise
agreement on randomized inputs, so the exactness argument only has to be
made once, for the readable scalar code.

Conventions
-----------
* ``dirs``: per-item unit tool directions, shape ``(P, 3)``.
* ``centers`` / ``halves``: per-item voxel boxes, shapes ``(P, 3)`` and
  ``(P,)`` (cubes) or ``(P, 3)``.
* ``z0s, z1s, rads``: the tool's cylinder stack, shape ``(C,)`` each
  (tool coordinates; see :class:`repro.geometry.cylinder.Cylinder`).
* ``pivot``: the single pivot point of the scene, shape ``(3,)``.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.frames import frame_from_axis
from repro.geometry.predicates import BOX_FACES

__all__ = [
    "tool_aabb_batch",
    "tool_aabb_cull_batch",
    "tool_point_distance_2d",
    "DEFAULT_CHUNK",
]

DEFAULT_CHUNK = 16384

# Corner k of a box takes ``hi`` on axis a iff bit a of k is set (matches
# AABB.corners); expressed as -1/+1 multipliers of the half extent.
_CORNER_SIGNS = np.array(
    [[(k >> a) & 1 for a in range(3)] for k in range(8)], dtype=np.float64
) * 2.0 - 1.0

_FACE_IDX = np.asarray(BOX_FACES, dtype=np.intp)  # (6, 4)


def _as_halves3(halves, n: int) -> np.ndarray:
    """Normalize ``halves`` to shape ``(n, 3)``.

    Accepts a plain scalar (one cube size for the whole batch — the
    frontier engine's common case, every pair of a level shares the cell
    half-edge), a ``(n,)`` per-item-cube vector, or a full ``(n, 3)``
    array.  The result is a broadcast view; no per-call allocation.
    """
    h = np.asarray(halves, dtype=np.float64)
    if h.ndim == 1:
        h = h[:, None]
    return np.broadcast_to(h, (n, 3))


def _clip_slab_batch(poly: np.ndarray, z: np.ndarray, keep_greater: bool) -> np.ndarray:
    """Sutherland-Hodgman clip of batched convex polygons against a z half-space.

    ``poly`` has shape ``(..., K, 3)``.  Invalid rows are represented by
    *padding*: trailing slots repeat the first output vertex, so the
    geometric polygon is unchanged and no per-row vertex count is needed.
    Fully-clipped rows end up with all slots invalid; callers detect them
    through the returned all-pad rows being NaN-free but are expected to
    track liveness via :func:`_poly_alive` — here we simply return a
    polygon of shape ``(..., K+1, 3)`` plus rely on the caller-maintained
    ``alive`` mask (see :func:`_tool_aabb_block`).
    """
    sign = 1.0 if keep_greater else -1.0
    K = poly.shape[-2]
    lead = poly.shape[:-2]
    d = sign * (poly[..., 2] - z[..., None])  # (..., K)
    # Wraparound neighbors via two slice copies (np.roll's generic path
    # costs several times as much on these small trailing axes).
    d_next = np.empty_like(d)
    d_next[..., :-1] = d[..., 1:]
    d_next[..., -1] = d[..., 0]
    nxt = np.empty(lead + (K, 3), dtype=np.float64)
    nxt[..., :-1, :] = poly[..., 1:, :]
    nxt[..., -1, :] = poly[..., 0, :]

    keep_vertex = d >= 0.0
    crossing = ((d > 0.0) & (d_next < 0.0)) | ((d < 0.0) & (d_next > 0.0))

    denom = d - d_next
    t = np.where(crossing, d / np.where(crossing, denom, 1.0), 0.0)
    cross_pt = poly + t[..., None] * (nxt - poly)

    # Stable compaction by direct scatter: the output order interleaves
    # vertex i (if kept) then its crossing, so each valid entry's target
    # slot is the count of valid entries before it — a cumsum, no sort.
    # Entries past slot K (a convex K-gon clipped by one half-space has
    # at most K+1 vertices) and invalid entries land in a dump slot.
    s = keep_vertex.astype(np.int64)
    s += crossing
    np.cumsum(s, axis=-1, out=s)
    count = s[..., -1]
    pos_v = s - keep_vertex - crossing  # exclusive prefix: slot of vertex i
    pos_c = pos_v + keep_vertex  # crossing i goes right after its vertex
    dump = K + 1
    idx_v = np.where(keep_vertex & (pos_v <= K), pos_v, dump)
    idx_c = np.where(crossing & (pos_c <= K), pos_c, dump)

    res = np.empty(lead + (K + 2, 3), dtype=np.float64)
    np.put_along_axis(res, idx_v[..., None], poly, axis=-2)
    np.put_along_axis(res, idx_c[..., None], cross_pt, axis=-2)

    # Pad trailing slots with the first valid vertex (vertex 0 when the
    # row is fully clipped — matching the reference compaction).
    alive = count > 0
    pad = np.where(alive[..., None], res[..., 0, :], poly[..., 0, :])
    padmask = np.arange(K + 1) >= count[..., None]  # (..., K+1)
    out = np.where(padmask[..., None], pad[..., None, :], res[..., : K + 1, :])
    return out, alive


def _poly_circle_hit(pts: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Does the 2D origin lie within ``radius`` of each batched convex polygon?

    ``pts`` has shape ``(..., K, 2)`` with pad slots repeating a real
    vertex (zero-length pad edges are neutral in both tests below).
    """
    nxt = np.empty_like(pts)
    nxt[..., :-1, :] = pts[..., 1:, :]
    nxt[..., -1, :] = pts[..., 0, :]
    cross = pts[..., 0] * nxt[..., 1] - pts[..., 1] * nxt[..., 0]  # (..., K)
    nondegenerate = np.any(cross != 0.0, axis=-1)
    inside = (np.all(cross >= 0.0, axis=-1) | np.all(cross <= 0.0, axis=-1)) & nondegenerate

    edge = nxt - pts
    len_sq = np.einsum("...i,...i->...", edge, edge)
    proj = -np.einsum("...i,...i->...", pts, edge)
    t = np.where(len_sq > 0.0, np.clip(proj / np.where(len_sq > 0.0, len_sq, 1.0), 0.0, 1.0), 0.0)
    closest = pts + t[..., None] * edge
    dist_sq = np.min(np.einsum("...i,...i->...", closest, closest), axis=-1)

    return inside | (dist_sq <= (radius * radius)[...])


def _tool_aabb_block(
    pivot: np.ndarray,
    dirs: np.ndarray,
    centers: np.ndarray,
    halves3: np.ndarray,
    z0s: np.ndarray,
    z1s: np.ndarray,
    rads: np.ndarray,
    frames: np.ndarray | None = None,
) -> np.ndarray:
    """One chunk of the whole-tool CHECKBOX kernel; returns ``(P,)`` bool."""
    P = dirs.shape[0]
    C = z0s.shape[0]

    # Rotation step: all box corners into the (per-item) cylinder frame.
    if frames is None:
        frames = frame_from_axis(dirs)  # (P, 3, 3)
    corners = centers[:, None, :] + _CORNER_SIGNS[None, :, :] * halves3[:, None, :]
    local = np.einsum("pij,pkj->pki", frames, corners - pivot)  # (P, 8, 3)

    # Cylinder-inside-box: the axis midpoint of each cylinder is a cylinder
    # point; if it is inside the box the volumes overlap without any face
    # of the box entering the cylinder.
    mids = 0.5 * (z0s + z1s)  # (C,)
    mid_world = pivot[None, None, :] + mids[None, :, None] * dirs[:, None, :]  # (P, C, 3)
    inside_box = np.all(
        np.abs(mid_world - centers[:, None, :]) <= halves3[:, None, :], axis=-1
    )  # (P, C)
    hit = inside_box.any(axis=-1)

    # Decomposition + projection, face by face.  Two sound pre-rejects
    # shrink the clip batch without changing any verdict: a face whose
    # z-range misses the cylinder slab entirely would come out of the
    # two clips dead (``alive`` False) so its circle test cannot fire,
    # and a pair that already hit stays hit — ``hit`` only accumulates
    # through OR.  Only the surviving (pair, cylinder) rows are clipped.
    for f in range(6):
        quad = local[:, _FACE_IDX[f], :]  # (P, 4, 3)
        qz = quad[..., 2]
        qlo = qz.min(axis=-1)  # (P,)
        qhi = qz.max(axis=-1)
        act = (qlo[:, None] <= z1s[None, :]) & (qhi[:, None] >= z0s[None, :])
        act &= ~hit[:, None]
        pi, ci = np.nonzero(act)
        if not len(pi):
            continue
        poly, alive = _clip_slab_batch(quad[pi], z0s[ci], keep_greater=True)
        poly, alive2 = _clip_slab_batch(poly, z1s[ci], keep_greater=False)
        alive &= alive2
        face_hit = alive & _poly_circle_hit(poly[..., :2], rads[ci])
        hit[pi[face_hit]] = True
    return hit


def tool_aabb_batch(
    pivot,
    dirs,
    centers,
    halves,
    z0s,
    z1s,
    rads,
    *,
    chunk: int = DEFAULT_CHUNK,
    screen: bool = True,
    frames: np.ndarray | None = None,
) -> np.ndarray:
    """Batched whole-tool ``CHECKBOX``: does any tool cylinder hit each box?

    Exact (matches :func:`repro.geometry.predicates.tool_cylinders_aabb_intersects`
    elementwise).  Work items are processed in chunks of ``chunk`` to bound
    peak memory at roughly ``chunk * C * 300`` bytes.  ``halves`` may be
    a scalar (one cube size for the batch), ``(P,)`` or ``(P, 3)``.

    ``frames`` — optional precomputed per-item rotation frames
    ``(P, 3, 3)`` (``frame_from_axis(dirs)``, which is elementwise per
    item, so callers that know their items share directions may compute
    frames once per direction and gather).  Results are bit-identical
    with or without it; it only skips recomputation.

    ``screen=True`` first resolves each pair with the inscribed/
    circumscribed sphere argument (the geometric core of the paper's ICA
    abstraction, applied as a pure implementation shortcut): the 2D
    distance from the box center to the tool profile decides the pair
    exactly when it is ``<= r_inscribed`` (tool meets a sphere inside the
    box) or ``> r_circumscribed`` (tool misses a sphere containing the
    box).  Only pairs in the corner band — a few percent — run the
    expensive rotate/clip/project pipeline.  The result is bit-identical
    either way; ``screen=False`` exists so tests can exercise the full
    geometric pipeline on every input.

    Note this wall-clock shortcut has no effect on the *simulated* cost
    accounting: callers charge the paper's ``216 * N_c`` per CHECKBOX
    regardless of how this Python implementation resolves it.
    """
    pivot = np.asarray(pivot, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    z0s = np.atleast_1d(np.asarray(z0s, dtype=np.float64))
    z1s = np.atleast_1d(np.asarray(z1s, dtype=np.float64))
    rads = np.atleast_1d(np.asarray(rads, dtype=np.float64))
    P = dirs.shape[0]
    halves3 = _as_halves3(halves, P)

    if screen and P:
        rel = centers - pivot
        axial = np.einsum("ij,ij->i", rel, dirs)
        radial = np.sqrt(
            np.maximum(np.einsum("ij,ij->i", rel, rel) - axial * axial, 0.0)
        )
        d2d = tool_point_distance_2d(z0s, z1s, rads, axial, radial)
        r_in = halves3.min(axis=1)
        r_circ = np.sqrt(np.einsum("ij,ij->i", halves3, halves3))
        out = d2d <= r_in
        undecided = ~out & (d2d <= r_circ)
        if undecided.any():
            out[undecided] = tool_aabb_batch(
                pivot,
                dirs[undecided],
                centers[undecided],
                halves3[undecided],
                z0s,
                z1s,
                rads,
                chunk=chunk,
                screen=False,
                frames=frames[undecided] if frames is not None else None,
            )
        return out

    out = np.empty(P, dtype=bool)
    for start in range(0, P, chunk):
        sl = slice(start, min(start + chunk, P))
        out[sl] = _tool_aabb_block(
            pivot, dirs[sl], centers[sl], halves3[sl], z0s, z1s, rads,
            frames=frames[sl] if frames is not None else None,
        )
    return out


def tool_aabb_cull_batch(
    pivot, dirs, centers, halves, z0s, z1s, rads, *, chunk: int = 131072,
) -> np.ndarray:
    """Conservative AABB cull used by the *optimized PBox* method.

    For each work item, build the world-space AABB of every (oriented)
    tool cylinder and test it against the voxel box.  ``False`` means the
    exact test can be skipped (provably no intersection); ``True`` means
    "possible" and the exact kernel must run.  This is the paper's
    optimized-PBox trick: apply AABBs to the voxel after each rotation.
    ``halves`` may be a scalar, ``(P,)`` or ``(P, 3)``.
    """
    pivot = np.asarray(pivot, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    z0s = np.atleast_1d(np.asarray(z0s, dtype=np.float64))
    z1s = np.atleast_1d(np.asarray(z1s, dtype=np.float64))
    rads = np.atleast_1d(np.asarray(rads, dtype=np.float64))
    P = dirs.shape[0]
    halves3 = _as_halves3(halves, P)

    if P > chunk:
        out = np.empty(P, dtype=bool)
        for start in range(0, P, chunk):
            sl = slice(start, min(start + chunk, P))
            out[sl] = tool_aabb_cull_batch(
                pivot, dirs[sl], centers[sl], halves3[sl], z0s, z1s, rads,
                chunk=chunk,
            )
        return out

    # Per-axis lateral reach of an oriented cylinder: r * sqrt(1 - d_a^2).
    lateral = rads[None, :, None] * np.sqrt(
        np.clip(1.0 - dirs[:, None, :] ** 2, 0.0, 1.0)
    )  # (P, C, 3)
    c0 = pivot + z0s[None, :, None] * dirs[:, None, :]
    c1 = pivot + z1s[None, :, None] * dirs[:, None, :]
    lo = np.minimum(c0, c1) - lateral
    hi = np.maximum(c0, c1) + lateral

    blo = (centers - halves3)[:, None, :]
    bhi = (centers + halves3)[:, None, :]
    overlap = np.all((lo <= bhi) & (blo <= hi), axis=-1)  # (P, C)
    return overlap.any(axis=-1)


def tool_point_distance_2d(z0s, z1s, rads, axial, radial) -> np.ndarray:
    """Distance from (axial, radial) points to the tool's 2D profile.

    The tool is a solid of revolution, so this 2D rectangle distance *is*
    the 3D point-to-tool distance — the exact reduction behind the ICA
    abstraction.  ``axial``/``radial`` broadcast; the result has the
    broadcast shape (minimum over the tool's cylinders).
    """
    z0s = np.atleast_1d(np.asarray(z0s, dtype=np.float64))
    z1s = np.atleast_1d(np.asarray(z1s, dtype=np.float64))
    rads = np.atleast_1d(np.asarray(rads, dtype=np.float64))
    axial = np.asarray(axial, dtype=np.float64)[..., None]
    radial = np.asarray(radial, dtype=np.float64)[..., None]
    dz = np.maximum(z0s - axial, 0.0) + np.maximum(axial - z1s, 0.0)
    dr = np.maximum(radial - rads, 0.0)
    return np.min(np.hypot(dz, dr), axis=-1)
