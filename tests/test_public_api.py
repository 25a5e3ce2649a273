"""The public API surface: everything advertised imports and works."""

import importlib

import numpy as np
import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_version(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3

    @pytest.mark.parametrize(
        "module",
        [
            "repro.geometry",
            "repro.solids",
            "repro.octree",
            "repro.tool",
            "repro.ica",
            "repro.engine",
            "repro.cd",
            "repro.obs",
            "repro.path",
            "repro.milling",
            "repro.bench",
            "repro.viz",
            "repro.cli",
        ],
    )
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name} missing"

    def test_no_array_backend_seam(self):
        """The pluggable array backend was removed; nothing re-exports it."""
        import dataclasses

        import repro.engine
        from repro.cd import traversal

        with pytest.raises(ImportError):
            importlib.import_module("repro.engine.backend")
        removed = {
            "ArrayBackend", "BackendUnavailable", "available_backends",
            "export_backend_metrics", "get_backend", "resolve_backend",
        }
        assert not removed & set(repro.engine.__all__)
        assert not any(hasattr(repro.engine, n) for n in removed)
        assert not hasattr(traversal, "resolve_backend")
        fields = {f.name for f in dataclasses.fields(traversal.TraversalConfig)}
        assert "backend" not in fields

    def test_docstring_example_runs(self):
        """The package docstring's doctest is the first thing users copy."""
        import doctest

        results = doctest.testmod(repro, verbose=False)
        assert results.failed == 0
        assert results.attempted > 0


class TestMinimalUserJourney:
    """The README quickstart, as a test."""

    def test_quickstart_flow(self):
        from repro import (
            AICA,
            OrientationGrid,
            Scene,
            build_from_sdf,
            expand_top,
            paper_tool,
            run_cd,
        )
        from repro.geometry import AABB
        from repro.solids import SphereSDF

        domain = AABB((-40, -40, -40), (40, 40, 40))
        tree = expand_top(build_from_sdf(SphereSDF((0, 0, 0), 20.0), domain, 32))
        scene = Scene(tree, paper_tool(), np.array([0.0, 0.0, 21.0]))
        # 16x16: the smallest sampled phi (5.6 deg) fits inside the ~9 deg
        # clearance cone of the 6.35 mm cutter at a 1 mm standoff; an 8x8
        # map's smallest phi (11.25 deg) would not.
        result = run_cd(scene, OrientationGrid.square(16), AICA())
        assert result.n_accessible > 0
        assert result.n_colliding > 0
        assert "." in result.render_ascii() and "#" in result.render_ascii()
        assert result.summary()["sim_total_ms"] > 0
