"""Golden digests of maps and per-thread counters, frozen per method × scene.

The accessibility map and the per-thread check counters are the
reproduction's result: any host-side change to the engine must leave them
byte-identical.  ``tests/data/golden_counters.json`` pins a SHA-256 of
``collides.tobytes()`` followed by every ``ThreadCounters.COUNTER_FIELDS``
array for each of the five methods on the ``sphere_scene`` and
``head_scene`` fixtures at one fixed grid.  The test recomputes them
under both engines, serial and pooled.

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

from repro.cd.methods import METHODS
from repro.cd.traversal import TraversalConfig, run_cd
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


def compute_digests(scene, *, engine: str = "v2", workers: int = 1) -> dict[str, str]:
    grid = OrientationGrid.square(GRID_L)
    cfg = TraversalConfig(engine=engine)
    return {
        cls.name: result_digest(run_cd(scene, grid, cls(), config=cfg, workers=workers))
        for cls in METHODS
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_method_and_scene(golden):
    assert golden["grid"] == GRID_L
    assert sorted(golden["digests"]) == sorted(SCENES)
    for scene_name in SCENES:
        assert sorted(golden["digests"][scene_name]) == sorted(METHOD_NAMES)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("engine", ["v1", "v2"])
@pytest.mark.parametrize("scene_name", SCENES)
def test_digests_match_golden(request, golden, scene_name, engine, workers):
    scene = request.getfixturevalue(scene_name)
    got = compute_digests(scene, engine=engine, workers=workers)
    assert got == golden["digests"][scene_name]


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
        "digests": {name: compute_digests(scene, engine="v1") for name, scene in scenes.items()},
    }
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
