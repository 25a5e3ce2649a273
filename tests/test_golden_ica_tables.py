"""Golden digests of memoized ICA tables, frozen per scene × tool.

The map/counter digests of ``test_golden_counters.py`` run at a 16² grid,
so a table entry that moves without flipping a map or a counter at that
grid would slip through them.  ``tests/data/golden_ica_tables.json`` pins
a SHA-256 over every level's ``cos1`` then ``cos2`` bytes from
:func:`repro.ica.table.build_ica_table`, for the ``sphere_scene`` and
``head_scene`` fixtures under the paper tool and the slender finishing
tool of the ``am_overlap`` experiment.

Regenerate (only when a change is meant to move the numbers, and say so in
CHANGES.md)::

    PYTHONPATH=src python tests/test_golden_ica_tables.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.ica.table import build_ica_table
from repro.tool.tool import Tool, paper_tool

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_ica_tables.json"
SCENES = ("sphere_scene", "head_scene")
TOOLS = {
    "paper": paper_tool,
    "finishing": lambda: Tool.from_segments(
        [(1.5, 20.0), (2.5, 60.0), (8.0, 40.0)], name="finishing"
    ),
}


def table_digest(table) -> str:
    h = hashlib.sha256()
    for lo, hi in zip(table.cos1, table.cos2):
        h.update(lo.tobytes())
        h.update(hi.tobytes())
    return h.hexdigest()


def compute_digests(scene) -> dict[str, str]:
    return {
        name: table_digest(build_ica_table(scene.tree, make(), scene.pivot))
        for name, make in TOOLS.items()
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_scene_and_tool(golden):
    assert sorted(golden["digests"]) == sorted(SCENES)
    for scene_name in SCENES:
        assert sorted(golden["digests"][scene_name]) == sorted(TOOLS)


@pytest.mark.parametrize("scene_name", SCENES)
def test_table_digests_match_golden(request, golden, scene_name):
    scene = request.getfixturevalue(scene_name)
    assert compute_digests(scene) == golden["digests"][scene_name]


if __name__ == "__main__":
    from test_golden_counters import _build_scenes

    doc = {
        "digest": "sha256(cos1[l].tobytes() + cos2[l].tobytes() for each memoized level l)",
        "digests": {name: compute_digests(scene) for name, scene in _build_scenes().items()},
    }
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
