"""The blocked GETTOOLICA kernel against the one-shot broadcast reference.

:func:`repro.ica.cone.ica_bounds_cos` evaluates segment membership in row
blocks, cylinder by cylinder, through preallocated scratch.  Its contract
is identity with the straightforward formulation kept here: every
candidate cosine computed in full and concatenated, and membership
broadcast over a ``(B, 8C+1, C)`` array.  The sorted candidates must be
byte-equal, the membership booleans equal, and both outputs
``np.array_equal`` — not merely close — on random tools, on the exact
distances where candidates coincide or degenerate, for point spheres,
and at batch sizes on either side of the block and chunk boundaries.

``np.array_equal`` is exact except for the sign of a zero, and that
exception is forced: at an exact tie between the candidates ``+0.0`` and
``-0.0`` (a distance exactly on the top line), ``cos_hi`` is the ``min``
of both, and numpy's SIMD ``min`` reduction returns either one depending
on the buffer's address.  The reference disagrees with itself there too.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ica.cone import COS_NEVER, MEMBER_BLOCK, _member_cos, _sorted_candidates, ica_bounds_cos
from repro.tool.tool import Tool, paper_tool


def reference_member(z0, z1, R, d, r, c):
    """Membership at cosine samples ``c (B, S)``, broadcast over ``(B, S, C)``."""
    cc = np.clip(c, -1.0, 1.0)
    z = (d[:, None] * cc)[:, :, None]
    rho = (d[:, None] * np.sqrt(1.0 - cc * cc))[:, :, None]
    dz = np.maximum(z0 - z, 0.0) + np.maximum(z - z1, 0.0)
    drho = np.maximum(rho - R, 0.0)
    return ((dz * dz + drho * drho) <= (r * r)[:, None, None]).any(axis=-1)


def reference_sorted_candidates(z0, z1, R, d, r):
    """All ``8C + 2`` candidate cosines as ten concatenated parts, sorted descending."""
    d_, r_ = np.maximum(d, 1e-300)[:, None], r[:, None]
    s_top = np.clip((R + r_) / d_, 0.0, 1.0)
    c_top = np.sqrt(1.0 - s_top * s_top)
    parts = [np.clip((z1 + r_) / d_, -1.0, 1.0), np.clip((z0 - r_) / d_, -1.0, 1.0), c_top, -c_top]
    for cz in (z0, z1):
        Dq = np.maximum(np.hypot(cz, R)[None, :], 1e-300)
        cos_a, sin_a = cz / Dq, R / Dq
        cos_delta = np.clip((d_ * d_ + Dq * Dq - r_ * r_) / (2.0 * d_ * Dq), -1.0, 1.0)
        sin_delta = np.sqrt(1.0 - cos_delta * cos_delta)
        parts.append(np.clip(cos_a * cos_delta + sin_a * sin_delta, -1.0, 1.0))
        parts.append(np.clip(cos_a * cos_delta - sin_a * sin_delta, -1.0, 1.0))
    parts.append(np.broadcast_to(np.array([1.0, -1.0]), (len(d), 2)))
    return -np.sort(-np.concatenate(parts, axis=1), axis=1)


def reference_bounds_cos(z0, z1, R, d, r):
    """GETTOOLICA ``(cos_lo, cos_hi)`` with membership broadcast over ``(B, K-1, C)``."""
    cand = reference_sorted_candidates(z0, z1, R, d, r)
    member = reference_member(z0, z1, R, d, r, 0.5 * (cand[:, :-1] + cand[:, 1:]))

    cos_hi = np.min(np.where(member, cand[:, 1:], COS_NEVER), axis=1)
    cos_hi = np.where(cos_hi == COS_NEVER, 1.0, cos_hi)
    first_false = np.argmax(~member, axis=1)
    cos_lo = np.where(member.all(axis=1), -1.0, cand[np.arange(len(d)), first_false])
    return np.where(member[:, 0], cos_lo, COS_NEVER), cos_hi


# A small chunk so that ``CHUNK + 1`` rows exercise the chunk recursion
# (one full chunk, then a one-row tail) at a size the reference can hold.
CHUNK = 2 * MEMBER_BLOCK + 7
BATCH_SIZES = (1, MEMBER_BLOCK - 1, MEMBER_BLOCK, MEMBER_BLOCK + 1, CHUNK + 1)


def special_distances(tool: Tool, r: np.ndarray) -> np.ndarray:
    """Per-row distances where candidates coincide or degenerate, shape ``(B, k)``.

    ``0``; the cap lines ``z1 + r`` and ``z0 - r``; the top line ``R + r``;
    the corner circles ``hypot(zc, R) +- r``; and a point beyond reach.
    """
    r = r[:, None]
    corners = np.concatenate([np.hypot(tool.z0, tool.radius), np.hypot(tool.z1, tool.radius)])
    reach = np.hypot(tool.z1.max(), tool.radius.max())
    return np.concatenate(
        [
            np.zeros_like(r),
            tool.z1 + r,
            tool.z0 - r,
            tool.radius + r,
            corners + r,
            corners - r,
            reach + r + 1.0 + np.zeros_like(r),
        ],
        axis=1,
    )


@st.composite
def random_tool(draw):
    n = draw(st.integers(1, 5))
    segs = [(draw(st.floats(0.5, 12.0)), draw(st.floats(1.0, 60.0))) for _ in range(n)]
    return Tool.from_segments(segs)


def random_rows(tool: Tool, size: int, seed: int):
    """``size`` rows mixing special and uniform distances; a third have ``r = 0``."""
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.0, 6.0, size)
    r[rng.random(size) < 1 / 3] = 0.0
    special = special_distances(tool, r)
    d = special[np.arange(size), rng.integers(0, special.shape[1], size)]
    far = 1.5 * np.hypot(tool.z1.max(), tool.radius.max()) + 10.0
    uniform = rng.random(size) < 0.4
    d[uniform] = rng.uniform(0.0, far, uniform.sum())
    return np.abs(d), r


def assert_matches_reference(tool: Tool, d, r, **kw):
    z0, z1, R = tool.z0, tool.z1, tool.radius
    cand = _sorted_candidates(z0, z1, R, d, r)
    assert cand.tobytes() == reference_sorted_candidates(z0, z1, R, d, r).tobytes()
    mids = 0.5 * (cand[:, :-1] + cand[:, 1:])
    assert np.array_equal(_member_cos(z0, z1, R, d, r, mids), reference_member(z0, z1, R, d, r, mids))
    got = ica_bounds_cos(z0, z1, R, d, r, **kw)
    want = reference_bounds_cos(z0, z1, R, d, r)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


@given(random_tool(), st.sampled_from(BATCH_SIZES), st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_blocked_kernel_matches_reference(tool, size, seed):
    d, r = random_rows(tool, size, seed)
    assert_matches_reference(tool, d, r, chunk=CHUNK)


@given(random_tool(), st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_every_special_distance_matches_reference(tool, seed):
    rng = np.random.default_rng(seed)
    r = np.concatenate([np.zeros(4), rng.uniform(0.01, 6.0, 12)])
    special = special_distances(tool, r)
    d = np.abs(special).ravel()
    assert_matches_reference(tool, d, np.repeat(r, special.shape[1]))


def test_default_chunk_boundary_matches_reference():
    """``65536 + 1`` rows through the default chunk; the reference runs in
    row slices (rows are independent) to keep its ``(B, K-1, C)`` arrays small."""
    tool = paper_tool()
    d, r = random_rows(tool, 65536 + 1, seed=7)
    got = ica_bounds_cos(tool.z0, tool.z1, tool.radius, d, r)
    for start in range(0, len(d), 8192):
        sl = slice(start, start + 8192)
        want = reference_bounds_cos(tool.z0, tool.z1, tool.radius, d[sl], r[sl])
        assert np.array_equal(got[0][sl], want[0])
        assert np.array_equal(got[1][sl], want[1])
