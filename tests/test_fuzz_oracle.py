"""Differential fuzz: every method against the brute-force map on generated scenes.

The fixture scenes pin a handful of geometries; this module draws new
ones.  Each example is a random CSG solid (spheres, boxes and cylinders
combined by union, difference and translation) voxelized at 8³ or 16³,
a random stack of one to four tool cylinders, a pivot on or near the
voxelized surface, and a 1×1, 1×n or small n×n orientation grid.  All
five methods must reproduce :func:`repro.cd.verify.brute_force_map`
exactly, once with the panel gates at their defaults and once with the
gates lowered so every level takes the (node × thread) panel kernels.

``brute_force_map`` runs the same vectorized CHECKBOX kernel
(``tool_aabb_batch``) as the traversal, so on the smallest scenes it is
itself checked against the scalar per-cylinder predicate
(``Tool.cylinders`` + ``tool_cylinders_aabb_intersects``).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

import repro.cd.traversal as trav
from repro.cd.methods import METHODS
from repro.cd.scene import Scene
from repro.cd.traversal import TraversalConfig, run_cd
from repro.cd.verify import brute_force_map
from repro.geometry.aabb import AABB
from repro.geometry.orientation import OrientationGrid
from repro.geometry.predicates import tool_cylinders_aabb_intersects
from repro.octree.build import build_from_sdf, expand_top
from repro.octree.linear import STATUS_FULL
from repro.solids.sdf import BoxSDF, CylinderSDF, Difference, SphereSDF, Translate, Union
from repro.tool.tool import Tool

DOMAIN = AABB((-16.0, -16.0, -16.0), (16.0, 16.0, 16.0))

_coord = st.floats(-12.0, 12.0)
_size = st.floats(3.0, 12.0)
_shift = st.floats(-6.0, 6.0)
_point = st.tuples(_coord, _coord, _coord)


def _cylinder(center_xy, z0, height, radius):
    return CylinderSDF(center_xy, z0, z0 + height, radius)


_leaf = st.one_of(
    st.builds(SphereSDF, _point, _size),
    st.builds(BoxSDF, _point, st.tuples(_size, _size, _size)),
    st.builds(_cylinder, st.tuples(_coord, _coord), _coord, _size, _size),
)
solids = st.recursive(
    _leaf,
    lambda kids: st.one_of(
        st.builds(Union, kids, kids),
        st.builds(Difference, kids, kids),
        st.builds(Translate, kids, st.tuples(_shift, _shift, _shift)),
    ),
    max_leaves=4,
)
tools = st.lists(
    st.tuples(st.floats(0.1, 4.0), st.floats(1.0, 30.0)), min_size=1, max_size=4
).map(Tool.from_segments)


def _grids(max_n: int):
    """1×1, 1×n, n×1 and n×n orientation grids with n <= max_n."""
    return st.one_of(
        st.just((1, 1)),
        st.tuples(st.just(1), st.integers(2, max_n)),
        st.tuples(st.integers(2, max_n), st.just(1)),
        st.integers(2, max_n).map(lambda n: (n, n)),
    )


def _surface_faces(tree):
    """Centers and outward normals of every voxel face between solid and empty."""
    occ = tree.leaf_occupancy().transpose(2, 1, 0)  # (x, y, z)
    padded = np.pad(occ, 1)
    cell = tree.cell_size(tree.depth)
    centers, normals = [], []
    for axis in range(3):
        for sign in (-1, 1):
            neighbour = np.roll(padded, -sign, axis=axis)[1:-1, 1:-1, 1:-1]
            ijk = np.argwhere(occ & ~neighbour)
            normal = np.zeros(3)
            normal[axis] = sign
            centers.append(DOMAIN.lo + (ijk + 0.5) * cell + 0.5 * cell * normal)
            normals.append(np.broadcast_to(normal, (len(ijk), 3)))
    return np.concatenate(centers), np.concatenate(normals)


def _draw_pivot(draw, tree) -> np.ndarray:
    """A point on a solid/empty voxel face, nudged along and across it.

    Offsets are multiples of the leaf half-edge, so many pivots sit
    exactly on voxel faces, edges and corners.
    """
    centers, normals = _surface_faces(tree)
    if not len(centers):
        return np.array(draw(_point))
    i = draw(st.integers(0, len(centers) - 1))
    half = tree.cell_half(tree.depth)
    steps = st.sampled_from([0.0, 0.0, 0.5, -0.5, 1.0, -1.0, 1e-9])
    along = draw(st.one_of(st.sampled_from([0.0, 1e-9, 0.5, 1.0, -0.5]), st.floats(1.0, 6.0)))
    across = np.array([draw(steps) for _ in range(3)])
    across[normals[i] != 0.0] = 0.0
    return centers[i] + half * (along * normals[i] + across)


@st.composite
def problems(draw, resolutions=(8, 16), max_grid=4):
    sdf = draw(solids)
    resolution = draw(st.sampled_from(resolutions))
    depth = int(np.log2(resolution))
    start = draw(st.integers(1, depth))
    tree = expand_top(build_from_sdf(sdf, DOMAIN, resolution), start)
    pivot = _draw_pivot(draw, tree)
    m, n = draw(_grids(max_grid))
    memo = draw(st.integers(1, depth + 1))
    config = TraversalConfig(start_level=start, memo_levels=memo, workers=1)
    return Scene(tree, draw(tools), pivot), OrientationGrid(m, n), config


def _all_methods_match(scene, grid, config, expected, routing):
    for cls in METHODS:
        got = run_cd(scene, grid, cls(), config=config, workers=1).collides
        np.testing.assert_array_equal(
            got, expected, err_msg=f"{cls.name} ({routing}) vs brute_force_map"
        )


@settings(max_examples=100)
@given(problems())
def test_every_method_matches_brute_force(problem):
    scene, grid, config = problem
    expected = brute_force_map(scene, grid)
    _all_methods_match(scene, grid, config, expected, "default gates")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trav, "_PANEL_MIN_PAIRS", 1)
        mp.setattr(trav, "_PANEL_OVERSAMPLE", 1e9)
        _all_methods_match(scene, grid, config, expected, "panels forced")


def _scalar_map(scene, grid) -> np.ndarray:
    """The map from the scalar CHECKBOX predicate, one box and pose at a time."""
    tree = scene.tree
    boxes = [
        AABB.cube(tree.centers(l, np.array([i]))[0], tree.cell_half(l))
        for l, lev in enumerate(tree.levels)
        for i in np.flatnonzero(lev.status == STATUS_FULL)
    ]
    out = np.zeros(grid.size, dtype=bool)
    for t, direction in enumerate(grid.directions()):
        cyls = scene.tool.cylinders(scene.pivot, direction)
        out[t] = any(tool_cylinders_aabb_intersects(cyls, box) for box in boxes)
    return out


@settings(max_examples=30)
@given(problems(resolutions=(8,), max_grid=3))
def test_brute_force_matches_scalar_checkbox(problem):
    scene, grid, _ = problem
    np.testing.assert_array_equal(brute_force_map(scene, grid), _scalar_map(scene, grid))
