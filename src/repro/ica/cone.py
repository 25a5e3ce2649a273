"""Exact inaccessible-cone-angle computation (GETTOOLICA).

Geometry
--------
Work in the 2D (axial, radial) half-plane containing the tool axis and
the sphere center.  The tool's generating profile is a union of
rectangles ``[z0_c, z1_c] x [0, R_c]``; the sphere of radius ``r`` at
distance ``d`` from the pivot touches the tool at orientation angle
``theta`` (angle between tool axis and pivot-to-center vector) iff the
point ``(d cos(theta), d sin(theta))`` lies within distance ``r`` of
some rectangle — i.e. inside the rectangle expanded (Minkowski sum) by a
disk of radius ``r``.  Each expanded rectangle is convex, so the arc of
radius ``d`` meets it in a single sub-arc; restricted to ``theta in
[0, pi]`` that is at most two intervals per cylinder, and the tool's
*inaccessible set* is the union over cylinders.

The paper defines a single ICA value ("the largest touching angle");
that is only sound when the inaccessible set is the interval
``[0, ica]``, which fails for voxels beyond the tool's reach or behind
the pivot.  We therefore return two sound bounds:

* ``ica_lo`` — the upper end of the inaccessible component containing
  ``theta = 0`` (sentinel ``-1`` when ``theta = 0`` is itself
  accessible), so ``theta <= ica_lo  =>  collision``;
* ``ica_hi`` — the supremum of the whole inaccessible set (``0`` when it
  is empty), so ``theta >= ica_hi  =>  no collision``.

``CHECKICA`` uses ``ica_lo`` of the voxel's *inscribed* sphere and
``ica_hi`` of its *circumscribed* sphere (Algorithm 1 / Figure 8).

Implementation
--------------
Everything is computed in **cosine space**: candidate crossing angles
between the arc and the five boundary components of each expanded
rectangle (two cap lines, the top line, two corner circles) have
closed-form cosines requiring only arithmetic and square roots — no
trigonometric calls, which dominate the cost otherwise.  Cosine is
strictly decreasing on ``[0, pi]``, so sorting cosines descending orders
candidates by increasing angle, and the *mean* of two consecutive
cosines is an interior sample of the segment between them (all that
membership evaluation needs).  Spurious candidates (crossings with a
component's extension outside its valid range) merely split a segment in
two and are harmless.

Membership is the hot step: ``8C + 1`` segment samples per sphere, each
tested against ``C`` rectangles.  It runs in row blocks of
:data:`MEMBER_BLOCK`, one cylinder at a time, with in-place ufuncs on
preallocated ``(block, 8C + 1)`` scratch and an in-place OR, so no
``(B, 8C + 1, C)`` temporary exists and the working set stays in cache.
The result is bit-identical to a one-shot broadcast because each element
still gets the same operations in the same order; only the loop nesting
changed.  The candidate columns are likewise written into one
preallocated array instead of being concatenated.

The cos-space results are exposed directly (:func:`ica_bounds_cos`) for
hot paths that also keep their query angles as cosines; the angle-space
API applies a single ``arccos`` per output.
"""

from __future__ import annotations

import numpy as np

from repro.tool.tool import Tool

__all__ = [
    "ica_bounds_cos",
    "ica_bounds_arrays",
    "tool_ica_batch",
    "tool_ica",
    "inaccessible_intervals",
    "ACCESSIBLE_SENTINEL",
    "COS_NEVER",
]

#: ``ica_lo`` (angle space) meaning "no collision guaranteed at any angle".
ACCESSIBLE_SENTINEL = -1.0

#: ``cos_lo`` (cos space) sentinel with the same meaning: query cosines
#: are <= 1, so ``cos_angle >= COS_NEVER`` never fires.
COS_NEVER = 2.0


#: Rows per membership block.  The cylinder loop sweeps four ``(block,
#: 8C+1)`` float64 scratch arrays (~200 KB each for a 3-cylinder tool), so
#: they stay in L2 instead of streaming multi-MB temporaries through memory.
MEMBER_BLOCK = 1024


def _member_cos(z0, z1, R, d, r, c) -> np.ndarray:
    """Touching test at cosine samples ``c (B, S)``; tool ``(C,)``, ``d``/``r`` ``(B,)``.

    ``z = d*c``, ``rho = d*sqrt(1 - c^2)`` (the ``theta in [0, pi]``
    branch), then per cylinder the 2D distance to its rectangle vs ``r``:
    ``dz = max(z0 - z, 0) + max(z - z1, 0)``, ``drho = max(rho - R, 0)``,
    ``dz^2 + drho^2 <= r^2``, OR-ed over cylinders.  Rows go through
    preallocated ``(MEMBER_BLOCK, S)`` scratch one cylinder at a time, so
    no ``(B, S, C)`` temporary exists; each element still sees the same
    operations in the same order, so the booleans are bit-identical to a
    one-shot broadcast over ``(B, S, C)``.
    """
    B, S = c.shape
    member = np.zeros((B, S), dtype=bool)
    n = min(B, MEMBER_BLOCK)
    z, rho, a, b = (np.empty((n, S)) for _ in range(4))
    hit = np.empty((n, S), dtype=bool)
    rr = (r * r)[:, None]
    cyls = list(zip(z0.tolist(), z1.tolist(), R.tolist()))
    for start in range(0, B, MEMBER_BLOCK):
        stop = min(start + MEMBER_BLOCK, B)
        m = stop - start
        zb, rhob, ab, bb, hitb = z[:m], rho[:m], a[:m], b[:m], hit[:m]
        db, rrb, mb = d[start:stop, None], rr[start:stop], member[start:stop]
        np.clip(c[start:stop], -1.0, 1.0, out=ab)
        np.multiply(db, ab, out=zb)
        np.multiply(ab, ab, out=bb)
        np.subtract(1.0, bb, out=bb)
        np.sqrt(bb, out=bb)
        np.multiply(db, bb, out=rhob)
        for z0c, z1c, Rc in cyls:
            np.subtract(z0c, zb, out=ab)
            np.maximum(ab, 0.0, out=ab)
            np.subtract(zb, z1c, out=bb)
            np.maximum(bb, 0.0, out=bb)
            ab += bb  # dz
            ab *= ab
            np.subtract(rhob, Rc, out=bb)
            np.maximum(bb, 0.0, out=bb)  # drho
            bb *= bb
            ab += bb
            np.less_equal(ab, rrb, out=hitb)
            mb |= hitb
    return member


def _sorted_candidates(z0, z1, R, d, r) -> np.ndarray:
    """Cosines of all potential arc/boundary crossings, sorted descending.

    Shape ``(B, 8C + 2)``; descending cosine == ascending angle.  Per
    cylinder: 2 cap-line crossings, 2 top-line crossings, 2 + 2
    corner-circle crossings; plus the global endpoints ``cos 0 = 1`` and
    ``cos pi = -1``.  Out-of-range values are clipped into ``[-1, 1]``,
    yielding degenerate (harmless) candidates.  All closed form:

    * cap line ``z = z1 + r``:  ``cos = (z1 + r) / d``;
    * top line ``rho = R + r``: ``cos = +-sqrt(1 - ((R + r)/d)^2)``;
    * corner circle at ``q = (zc, R)``: by the law of cosines the angle
      ``delta`` between the corner direction and the crossing satisfies
      ``cos delta = (d^2 + |q|^2 - r^2) / (2 d |q|)``, and
      ``cos(alpha +- delta)`` expands with ``cos alpha = zc/|q|``,
      ``sin alpha = R/|q|`` — arithmetic only.

    The columns are filled as ``(8C + 2, B)`` rows of one preallocated
    array (unit-stride over the batch), in the fixed column order cap-hi,
    cap-lo, +top, -top, then the z0 and z1 corners (+ then -) and the two
    endpoints, and transposed once into the sort.
    """
    C, B = z0.size, d.size
    d_ = np.maximum(d, 1e-300)  # guard the d = 0 degenerate case
    rows = np.empty((8 * C + 2, B))
    part = [rows[k * C : (k + 1) * C] for k in range(8)]  # (C, B) each

    np.add(z1[:, None], r, out=part[0])
    np.subtract(z0[:, None], r, out=part[1])
    caps = rows[: 2 * C]
    np.clip(np.divide(caps, d_, out=caps), -1.0, 1.0, out=caps)
    c_top = part[2]
    np.add(R[:, None], r, out=c_top)
    np.clip(np.divide(c_top, d_, out=c_top), 0.0, 1.0, out=c_top)  # sin of the top crossing
    np.multiply(c_top, c_top, out=c_top)
    np.sqrt(np.subtract(1.0, c_top, out=c_top), out=c_top)
    np.negative(c_top, out=part[3])

    dd, rr, d2 = d_ * d_, r * r, 2.0 * d_
    cos_d, sin_d, tmp = (np.empty((C, B)) for _ in range(3))
    for k, cz in ((4, z0), (6, z1)):
        Dq = np.maximum(np.hypot(cz, R), 1e-300)[:, None]  # (C, 1) pivot-to-corner distance
        cos_a = cz[:, None] / Dq
        sin_a = R[:, None] / Dq
        np.add(dd, Dq * Dq, out=cos_d)
        np.subtract(cos_d, rr, out=cos_d)
        np.divide(cos_d, np.multiply(d2, Dq, out=tmp), out=cos_d)
        np.clip(cos_d, -1.0, 1.0, out=cos_d)
        np.multiply(cos_d, cos_d, out=sin_d)
        np.sqrt(np.subtract(1.0, sin_d, out=sin_d), out=sin_d)
        np.multiply(cos_a, cos_d, out=cos_d)
        np.multiply(sin_a, sin_d, out=sin_d)
        np.add(cos_d, sin_d, out=part[k])
        np.subtract(cos_d, sin_d, out=part[k + 1])
    corners = rows[4 * C : 8 * C]
    np.clip(corners, -1.0, 1.0, out=corners)
    rows[-2] = 1.0
    rows[-1] = -1.0

    cand = np.empty((B, 8 * C + 2))
    np.negative(rows.T, out=cand)
    cand.sort(axis=1)
    return np.negative(cand, out=cand)


def ica_bounds_cos(
    z0, z1, R, dist, sphere_r, *, chunk: int = 65536
) -> tuple[np.ndarray, np.ndarray]:
    """Cos-space GETTOOLICA over batches.

    Returns ``(cos_lo, cos_hi)`` with the guarantees (for query cosine
    ``ca = cos(theta)``):

    * ``ca >= cos_lo``  =>  collision (``cos_lo = COS_NEVER`` if theta=0
      itself is accessible — never fires);
    * ``ca <= cos_hi``  =>  no collision (``cos_hi = 1`` when nothing is
      inaccessible).

    Batches larger than ``chunk`` are processed in slices so the
    ``(B, 8C+2)`` candidate and selection arrays stay bounded on deep
    traversal frontiers; membership inside a slice runs in
    :data:`MEMBER_BLOCK`-row blocks.
    """
    z0 = np.atleast_1d(np.asarray(z0, dtype=np.float64))
    z1 = np.atleast_1d(np.asarray(z1, dtype=np.float64))
    R = np.atleast_1d(np.asarray(R, dtype=np.float64))
    d, r = np.broadcast_arrays(
        np.asarray(dist, dtype=np.float64), np.asarray(sphere_r, dtype=np.float64)
    )
    shape = d.shape
    d = d.ravel()
    r = r.ravel()
    if np.any(r < 0.0):
        raise ValueError("sphere radius must be non-negative")

    if d.size > chunk:
        lo = np.empty(d.size)
        hi = np.empty(d.size)
        for start in range(0, d.size, chunk):
            sl = slice(start, min(start + chunk, d.size))
            lo[sl], hi[sl] = ica_bounds_cos(z0, z1, R, d[sl], r[sl], chunk=chunk)
        return lo.reshape(shape), hi.reshape(shape)

    cand = _sorted_candidates(z0, z1, R, d, r)  # (B, K)
    mids = 0.5 * (cand[:, :-1] + cand[:, 1:])  # interior cos samples
    member = _member_cos(z0, z1, R, d, r, mids)  # (B, K-1)

    # Supremum of the inaccessible set: the far (smaller-cos) edge of the
    # last member segment; cos 0 = 1 when the set is empty.  Picked by
    # index, not by a min over member edges: at a sphere exactly on the
    # top line the edges +0.0 and -0.0 tie, and a SIMD min may return
    # either sign, while the index names one candidate.
    row = np.arange(len(d))
    last = member.shape[1] - 1 - np.argmax(member[:, ::-1], axis=1)
    cos_hi = np.where(member.any(axis=1), cand[row, last + 1], 1.0)

    # End of the member run starting at theta = 0.
    first_false = np.argmax(~member, axis=1)
    all_true = member.all(axis=1)
    cos_lo = np.where(all_true, -1.0, cand[row, first_false])
    cos_lo = np.where(member[:, 0], cos_lo, COS_NEVER)

    return cos_lo.reshape(shape), cos_hi.reshape(shape)


def ica_bounds_arrays(z0, z1, R, dist, sphere_r) -> tuple[np.ndarray, np.ndarray]:
    """Angle-space GETTOOLICA (see module docstring for the guarantees)."""
    cos_lo, cos_hi = ica_bounds_cos(z0, z1, R, dist, sphere_r)
    lo = np.where(
        cos_lo >= COS_NEVER,
        ACCESSIBLE_SENTINEL,
        np.arccos(np.clip(cos_lo, -1.0, 1.0)),
    )
    hi = np.arccos(np.clip(cos_hi, -1.0, 1.0))
    return lo, hi


def tool_ica_batch(tool: Tool, dist, sphere_r) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized GETTOOLICA for a :class:`Tool`; returns ``(ica_lo, ica_hi)``
    in radians, broadcasting ``dist`` and ``sphere_r``."""
    return ica_bounds_arrays(tool.z0, tool.z1, tool.radius, dist, sphere_r)


def tool_ica(tool: Tool, dist: float, sphere_r: float) -> tuple[float, float]:
    """Scalar convenience wrapper around :func:`tool_ica_batch`."""
    lo, hi = tool_ica_batch(tool, np.asarray([dist]), np.asarray([sphere_r]))
    return float(lo[0]), float(hi[0])


def inaccessible_intervals(tool: Tool, dist: float, sphere_r: float) -> list[tuple[float, float]]:
    """The full inaccessible angle set as merged closed intervals.

    Mostly a test/diagnostic helper: :func:`tool_ica_batch` only needs the
    two bounds, but the intervals expose the complete structure (e.g. the
    detached interval of a voxel reachable only by the tool's side).
    """
    d = np.asarray([float(dist)])
    r = np.asarray([float(sphere_r)])
    cand = _sorted_candidates(tool.z0, tool.z1, tool.radius, d, r)
    mids = 0.5 * (cand[:, :-1] + cand[:, 1:])
    member = _member_cos(tool.z0, tool.z1, tool.radius, d, r, mids)[0]
    edges = np.arccos(np.clip(cand[0], -1.0, 1.0))
    out: list[tuple[float, float]] = []
    for seg in range(len(member)):
        if not member[seg]:
            continue
        a, b = float(edges[seg]), float(edges[seg + 1])
        if out and a <= out[-1][1] + 1e-12:
            out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return out
