"""Golden digests of maps and per-thread counters, frozen per method × scene.

The accessibility map and the per-thread check counters are the
reproduction's result: any host-side change to the engine must leave them
byte-identical.  ``tests/data/golden_counters.json`` pins a SHA-256 of
``collides.tobytes()`` followed by every ``ThreadCounters.COUNTER_FIELDS``
array for each of the five methods on the ``sphere_scene`` and
``head_scene`` fixtures at one fixed grid.  The test recomputes them
serial and pooled, under both level routings: the default panel gates,
and panels off (``_PANEL_MIN_PAIRS`` above any frontier, so every level
runs the per-pair kernels).  The digests were frozen from the former
straight-line reference traversal, so they are the oracle for both.

The same file pins the voxel-per-thread pricer
(:func:`repro.cd.mapping.run_voxel_mapping`, the Section 4.1 mapping
ablation): a SHA-256 of its ``collides`` and per-voxel-thread
``thread_ops`` for each method on ``sphere_scene``.  That pricer drives
the methods' kernels with waves of its own, so the traversal digests
above do not cover it.

Regenerate (only when a change is meant to move the numbers, and say so in
CHANGES.md)::

    PYTHONPATH=src python tests/test_golden_counters.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import repro.cd.traversal as trav
from repro.cd.mapping import run_voxel_mapping
from repro.cd.methods import METHODS
from repro.cd.traversal import run_cd
from repro.engine.counters import ThreadCounters
from repro.geometry.orientation import OrientationGrid

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_counters.json"
GRID_L = 16
SCENES = ("sphere_scene", "head_scene")
METHOD_NAMES = [cls.name for cls in METHODS]


def result_digest(result) -> str:
    h = hashlib.sha256(result.collides.tobytes())
    for name in ThreadCounters.COUNTER_FIELDS:
        h.update(getattr(result.counters, name).tobytes())
    return h.hexdigest()


def compute_digests(scene, *, workers: int = 1) -> dict[str, str]:
    grid = OrientationGrid.square(GRID_L)
    return {
        cls.name: result_digest(run_cd(scene, grid, cls(), workers=workers))
        for cls in METHODS
    }


def voxel_mapping_digests(scene) -> dict[str, str]:
    grid = OrientationGrid.square(GRID_L)
    out = {}
    for cls in METHODS:
        r = run_voxel_mapping(scene, grid, cls())
        h = hashlib.sha256(r.collides.tobytes())
        h.update(r.thread_ops.tobytes())
        out[cls.name] = h.hexdigest()
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_method_and_scene(golden):
    assert golden["grid"] == GRID_L
    assert sorted(golden["digests"]) == sorted(SCENES)
    for scene_name in SCENES:
        assert sorted(golden["digests"][scene_name]) == sorted(METHOD_NAMES)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("routing", ["default", "panels_off"])
@pytest.mark.parametrize("scene_name", SCENES)
def test_digests_match_golden(request, golden, scene_name, routing, workers):
    scene = request.getfixturevalue(scene_name)
    with pytest.MonkeyPatch.context() as mp:
        if routing == "panels_off":
            # Pool workers fork after the patch, so they inherit it.
            mp.setattr(trav, "_PANEL_MIN_PAIRS", np.iinfo(np.intp).max)
        got = compute_digests(scene, workers=workers)
    assert got == golden["digests"][scene_name]


def test_voxel_mapping_digests_match_golden(sphere_scene, golden):
    section = golden["voxel_mapping"]
    assert section["grid"] == GRID_L and section["scene"] == "sphere_scene"
    assert voxel_mapping_digests(sphere_scene) == section["digests"]


def _build_scenes() -> dict:
    # Mirrors the ``sphere_scene`` / ``head_scene`` fixtures in conftest.py;
    # a mismatch would make every golden test fail, never pass silently.
    from repro.cd.scene import Scene
    from repro.geometry.aabb import AABB
    from repro.octree.build import build_from_sdf, expand_top
    from repro.solids.models import head_model
    from repro.solids.sdf import SphereSDF
    from repro.tool.tool import paper_tool

    domain = AABB((-40.0, -40.0, -40.0), (40.0, 40.0, 40.0))
    sphere = expand_top(build_from_sdf(SphereSDF((0, 0, 0), 20.0), domain, 32), 5)
    head = head_model()
    head_tree = expand_top(build_from_sdf(head.sdf, head.domain, 64), 5)
    return {
        "sphere_scene": Scene(sphere, paper_tool(), np.array([0.0, 0.0, 21.0])),
        "head_scene": Scene(head_tree, paper_tool(), np.array([0.0, -30.0, 5.0])),
    }


if __name__ == "__main__":
    scenes = _build_scenes()
    doc = {
        "grid": GRID_L,
        "digest": "sha256(collides.tobytes() + COUNTER_FIELDS arrays in order)",
        "digests": {name: compute_digests(scene) for name, scene in scenes.items()},
        "voxel_mapping": {
            "grid": GRID_L,
            "scene": "sphere_scene",
            "digest": "sha256(collides.tobytes() + thread_ops.tobytes())",
            "digests": voxel_mapping_digests(scenes["sphere_scene"]),
        },
    }
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
