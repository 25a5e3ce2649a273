"""Algorithm 1 (CHECKICA) semantics: the cone decisions vs the exact test.

These properties pin the heart of the paper: for any voxel, tool pose,
and pivot, the two cone comparisons must *never* contradict the exact
``CHECKBOX`` — a 'yes' (angle <= ica1 of the inscribed sphere) implies a
true intersection, a 'no' (angle >= ica2 of the circumscribed sphere)
implies a true miss, and only the corner band may remain undecided.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.aabb import AABB
from repro.geometry.cylinder import Cylinder
from repro.geometry.orientation import direction_from_angles
from repro.geometry.predicates import tool_cylinders_aabb_intersects
from repro.ica.cone import COS_NEVER, ica_bounds_cos, miss_bound
from repro.ica.table import SQRT3
from repro.tool.tool import Tool, ball_end_mill, paper_tool


@st.composite
def checkica_case(draw):
    tool = draw(st.sampled_from([paper_tool(), ball_end_mill()]))
    phi = draw(st.floats(0.01, np.pi - 0.01))
    gamma = draw(st.floats(0, 2 * np.pi))
    center = np.array(
        [draw(st.floats(-60, 60)), draw(st.floats(-60, 60)), draw(st.floats(-60, 60))]
    )
    half = draw(st.floats(0.05, 6.0))
    return tool, direction_from_angles(phi, gamma), center, half


class TestCheckIcaNeverContradictsCheckBox:
    @given(checkica_case())
    @settings(max_examples=150)
    def test_decisions_sound(self, case):
        tool, d, center, half = case
        pivot = np.zeros(3)
        dist = float(np.linalg.norm(center))
        cos_angle = float(np.clip(d @ center / max(dist, 1e-300), -1, 1))
        if dist == 0.0:
            cos_angle = 1.0

        cos1, _ = ica_bounds_cos(
            tool.z0, tool.z1, tool.radius, np.array([dist]), np.array([half])
        )
        _, cos2 = ica_bounds_cos(
            tool.z0, tool.z1, tool.radius, np.array([dist]), np.array([SQRT3 * half])
        )

        box = AABB.cube(center, half)
        cyls = [
            Cylinder(pivot, d, float(a), float(b), float(r))
            for a, b, r in zip(tool.z0, tool.z1, tool.radius)
        ]

        margin = 1e-9  # exclude exact-touch boundaries from the property
        if cos_angle >= cos1[0] + margin:
            assert tool_cylinders_aabb_intersects(cyls, box), (
                "CHECKICA claimed a definite hit that CHECKBOX denies"
            )
        if cos_angle <= cos2[0] - margin:
            assert not tool_cylinders_aabb_intersects(cyls, box), (
                "CHECKICA claimed a definite miss that CHECKBOX denies"
            )

    @given(checkica_case())
    @settings(max_examples=60)
    def test_band_ordering(self, case):
        tool, d, center, half = case
        dist = float(np.linalg.norm(center))
        cos1, _ = ica_bounds_cos(
            tool.z0, tool.z1, tool.radius, np.array([dist]), np.array([half])
        )
        _, cos2 = ica_bounds_cos(
            tool.z0, tool.z1, tool.radius, np.array([dist]), np.array([SQRT3 * half])
        )
        # the yes-region (cos >= cos1) and no-region (cos <= cos2) never
        # overlap: cos2 <= cos1 always (larger sphere -> larger cone)
        assert cos2[0] <= cos1[0] + 1e-12 or cos1[0] == COS_NEVER


class TestNoMissWhereTheSetReachesPi:
    """A pivot inside a sphere collides with it at every angle.

    GETTOOLICA then returns ``cos_hi = -1``: the far edge of a closed
    inaccessible set that contains ``theta = pi``.  Comparing
    ``cos_angle <= cos_hi`` called the exactly antiparallel direction a
    miss and pruned a node the tool intersects.
    """

    def test_miss_bound_never_fires_at_minus_one(self):
        tool = Tool.from_segments([(1.0, 1.0)])
        _, cos_hi = ica_bounds_cos(
            tool.z0, tool.z1, tool.radius, np.array([6.0]), np.array([8.0 * SQRT3])
        )
        assert cos_hi[0] == -1.0
        assert not (-1.0 <= miss_bound(cos_hi)[0])
        np.testing.assert_array_equal(miss_bound(np.array([0.5, 1.0])), [0.5, 1.0])

    def test_antiparallel_node_is_not_pruned(self):
        """A scene the differential fuzz found: the pivot lies on the solid's
        face inside a level-1 node whose center is exactly antiparallel to
        one orientation; the ICA methods used to report that orientation
        free."""
        from repro.cd.methods import METHODS
        from repro.cd.scene import Scene
        from repro.cd.traversal import TraversalConfig, run_cd
        from repro.cd.verify import brute_force_map
        from repro.geometry.orientation import OrientationGrid
        from repro.octree.build import build_from_sdf, expand_top
        from repro.solids.sdf import BoxSDF

        domain = AABB((-16.0, -16.0, -16.0), (16.0, 16.0, 16.0))
        tree = expand_top(build_from_sdf(BoxSDF((0.0, 0.0, 0.0), (6.0, 3.0, 3.0)), domain, 8), 1)
        scene = Scene(tree, Tool.from_segments([(1.0, 1.0)]), np.array([-8.0, -2.0, -2.0]))
        grid = OrientationGrid(2, 2)
        expected = brute_force_map(scene, grid)
        assert expected.all()
        for cls in METHODS:
            got = run_cd(
                scene, grid, cls(), config=TraversalConfig(start_level=1, memo_levels=1),
                workers=1,
            ).collides
            np.testing.assert_array_equal(got, expected, err_msg=cls.name)


class TestCornerBandShrinksWithVoxelSize:
    def test_band_measure_decreases(self):
        tool = paper_tool()
        dist = 60.0
        widths = []
        for half in (8.0, 4.0, 2.0, 1.0, 0.5, 0.25):
            cos1, _ = ica_bounds_cos(
                tool.z0, tool.z1, tool.radius, np.array([dist]), np.array([half])
            )
            _, cos2 = ica_bounds_cos(
                tool.z0,
                tool.z1,
                tool.radius,
                np.array([dist]),
                np.array([SQRT3 * half]),
            )
            lo = np.arccos(np.clip(cos1[0], -1, 1)) if cos1[0] <= 1.0 else 0.0
            hi = np.arccos(np.clip(cos2[0], -1, 1))
            widths.append(max(hi - lo, 0.0))
        # Figure 9's monotonicity: smaller voxels, narrower corner band.
        assert all(b <= a + 1e-12 for a, b in zip(widths, widths[1:]))
        assert widths[-1] < 0.05


class TestCustomToolShapes:
    """ICA decisions hold for unusual tool stacks, not just the paper's."""

    @pytest.mark.parametrize(
        "segments",
        [
            [(0.5, 100.0)],  # long needle
            [(30.0, 10.0)],  # flat puck
            [(5.0, 10.0), (1.0, 50.0), (20.0, 10.0)],  # waisted
        ],
    )
    def test_sound_for_shape(self, segments, rng):
        tool = Tool.from_segments(segments)
        pivot = np.zeros(3)
        for _ in range(40):
            d = direction_from_angles(rng.uniform(0.01, np.pi - 0.01), rng.uniform(0, 2 * np.pi))
            center = rng.uniform(-80, 80, 3)
            half = rng.uniform(0.1, 5.0)
            dist = float(np.linalg.norm(center))
            ca = float(np.clip(d @ center / max(dist, 1e-300), -1, 1))
            cos1, _ = ica_bounds_cos(
                tool.z0, tool.z1, tool.radius, np.array([dist]), np.array([half])
            )
            _, cos2 = ica_bounds_cos(
                tool.z0, tool.z1, tool.radius, np.array([dist]), np.array([SQRT3 * half])
            )
            box = AABB.cube(center, half)
            cyls = tool.cylinders(pivot, d)
            if ca >= cos1[0] + 1e-9:
                assert tool_cylinders_aabb_intersects(cyls, box)
            if ca <= cos2[0] - 1e-9:
                assert not tool_cylinders_aabb_intersects(cyls, box)
