"""The frontier traversal: workspaces, dedup/panels, and its two level routes.

Each level runs either the (node x thread) panel kernels or the per-pair
kernels, picked by the frontier size (``prepare_panels``).  The contract
under test is strict: for every method, any worker count, and any
chunking, both routes must produce accessibility maps AND per-thread
counters byte-identical to each other — the counters are the
simulated-GPU cost model, so a host-side optimization that changes them
is changing the paper's numbers, not speeding them up.  The golden
digests (``test_golden_counters.py``) pin both routes to the numbers of
the former straight-line reference traversal.
"""

from contextlib import contextmanager

import numpy as np
import pytest

import repro.cd.traversal as trav
from repro.cd.methods import METHODS, PICA, method_by_name
from repro.cd.traversal import TraversalConfig, run_cd
from repro.engine.counters import ThreadCounters
from repro.engine.workspace import (
    Workspace,
    get_ambient_workspace,
    use_workspace,
)
from repro.geometry.orientation import OrientationGrid
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.service.core import QuerySpec, Service

GRID = OrientationGrid.square(6)
METHOD_NAMES = [cls.name for cls in METHODS]


def _assert_identical(a, b, label: str) -> None:
    np.testing.assert_array_equal(
        a.collides, b.collides, err_msg=f"{label}: maps differ"
    )
    assert a.counters.n_threads == b.counters.n_threads
    for f in ThreadCounters.COUNTER_FIELDS:
        np.testing.assert_array_equal(
            getattr(a.counters, f),
            getattr(b.counters, f),
            err_msg=f"{label}: counter {f} differs",
        )


@contextmanager
def _routing(name: str):
    """``default`` panel gates, or ``panels_off``: every level per pair.

    Pool workers fork after the patch, so pooled runs inherit it.
    """
    with pytest.MonkeyPatch.context() as mp:
        if name == "panels_off":
            mp.setattr(trav, "_PANEL_MIN_PAIRS", np.iinfo(np.intp).max)
        yield


def _run_panels_off(scene, method: str, **kw):
    with _routing("panels_off"):
        return run_cd(scene, GRID, method_by_name(method), **kw)


# ---------------------------------------------------------------------------
# Workspace arena
# ---------------------------------------------------------------------------


class TestWorkspace:
    def test_take_shape_and_dtype(self):
        ws = Workspace()
        a = ws.take("x", 10)
        assert a.shape == (10,) and a.dtype == np.float64
        b = ws.take("y", (3, 4), np.intp)
        assert b.shape == (3, 4) and b.dtype == np.intp

    def test_reuse_same_storage(self):
        ws = Workspace()
        a = ws.take("x", 100)
        a[:] = 7.0
        b = ws.take("x", 50)
        assert np.shares_memory(a, b)
        assert (b == 7.0).all()
        assert ws.reuse_hits == 1 and ws.grow_events == 1

    def test_geometric_growth(self):
        ws = Workspace()
        ws.take("x", 100)
        ws.take("x", 101)  # within the 1.5x growth headroom next time
        assert ws.grow_events == 2
        ws.take("x", 120)  # capacity is now >= 151: a reuse, not a grow
        assert ws.grow_events == 2 and ws.reuse_hits == 1

    def test_dtype_change_discards(self):
        ws = Workspace()
        ws.take("x", 8, np.float64)
        ws.take("x", 8, np.int64)
        assert ws.grow_events == 2

    def test_nbytes_and_stats(self):
        ws = Workspace()
        ws.take("x", 10, np.float64)
        ws.take("y", 4, np.uint8)
        assert ws.nbytes == 10 * 8 + 4
        before = ws.stats()
        ws.take("x", 5)
        delta = ws.stats_since(before)
        assert delta["reuse_hits"] == 1 and delta["grow_events"] == 0

    def test_clear_keeps_counters(self):
        ws = Workspace()
        ws.take("x", 10)
        ws.clear()
        assert ws.nbytes == 0 and ws.grow_events == 1

    def test_ambient_scoping(self):
        outer = Workspace()
        inner = Workspace()
        assert get_ambient_workspace() is None
        with use_workspace(outer):
            assert get_ambient_workspace() is outer
            with use_workspace(inner):
                assert get_ambient_workspace() is inner
            assert get_ambient_workspace() is outer
        assert get_ambient_workspace() is None


# ---------------------------------------------------------------------------
# Route equivalence: every method, serial + pooled, chunked + unchunked
# ---------------------------------------------------------------------------


class TestEngineEquivalence:
    @pytest.mark.parametrize("method", METHOD_NAMES)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_maps_and_counters_identical(self, sphere_scene, method, workers):
        ref = _run_panels_off(sphere_scene, method, workers=workers)
        got = run_cd(sphere_scene, GRID, method_by_name(method), workers=workers)
        _assert_identical(ref, got, f"{method} workers={workers}")

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_chunked_identical_across_engines(self, sphere_scene, method):
        # max_pairs=7 forces many tiny chunks through every level —
        # the regression test for the counter-purity invariant that
        # chunked and unchunked runs (under either level route) charge
        # the same.
        ref = _run_panels_off(sphere_scene, method)
        for routing in ("default", "panels_off"):
            with _routing(routing):
                chunked = run_cd(
                    sphere_scene, GRID, method_by_name(method),
                    config=TraversalConfig(max_pairs=7),
                )
            _assert_identical(ref, chunked, f"{method} {routing} max_pairs=7")

    def test_workspace_metrics_exported(self, sphere_scene):
        # workers=1 pins the serial path even under REPRO_WORKERS: the
        # serial exporter owns the engine.workspace.* namespace (pooled
        # runs export engine.pool.workspace.* instead).
        with use_metrics(MetricsRegistry()) as reg:
            run_cd(sphere_scene, GRID, method_by_name("AICA"), workers=1)
        m = reg.as_dict()
        assert m["engine.workspace.grow_events"]["value"] > 0
        assert m["engine.workspace.bytes_held"]["value"] > 0

    def test_ambient_workspace_reused_across_runs(self, sphere_scene):
        # The amortization contract: a long-lived host installs one
        # arena and back-to-back runs stop growing — the second run's
        # takes are (almost) all reuse hits against the first's buffers.
        ws = Workspace()
        with use_workspace(ws), use_metrics(MetricsRegistry()) as reg:
            run_cd(sphere_scene, GRID, method_by_name("AICA"), workers=1)
            grows_first = ws.grow_events
            run_cd(sphere_scene, GRID, method_by_name("AICA"), workers=1)
        assert ws.grow_events == grows_first  # second run grew nothing
        assert ws.reuse_hits > 0
        m = reg.as_dict()
        assert m["engine.workspace.reuse_hits"]["value"] == ws.reuse_hits
        assert m["engine.workspace.grow_events"]["value"] == ws.grow_events

    def test_pool_workspace_metrics_exported(self, sphere_scene):
        # Small thread blocks give each pool worker several tasks, so
        # the per-process arenas record reuse across tasks of one run.
        with use_metrics(MetricsRegistry()) as reg:
            run_cd(
                sphere_scene, GRID, method_by_name("AICA"),
                config=TraversalConfig(thread_block=8), workers=2,
            )
        m = reg.as_dict()
        assert m["engine.pool.workspace.grow_events"]["value"] > 0
        assert m["engine.pool.workspace.reuse_hits"]["value"] > 0

    def test_path_pool_workspace_metrics_exported(self, sphere_scene):
        # Pivot-sharded path runs fold their workers' arenas into the
        # same engine.pool.workspace.* namespace as orientation sharding.
        from repro.cd.pathrun import run_along_path
        from repro.tool.tool import paper_tool

        pivots = sphere_scene.pivot + np.array(
            [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.5, 0.0]]
        )
        with use_metrics(MetricsRegistry()) as reg:
            run_along_path(
                sphere_scene.tree, paper_tool(), pivots, GRID,
                method_by_name("AICA"), workers=2,
            )
        m = reg.as_dict()
        assert m["engine.pool.workspace.grow_events"]["value"] > 0
        assert m["engine.pool.workspace.bytes_held"]["value"] > 0


# ---------------------------------------------------------------------------
# CHECKBOX screen routing: dense panel pass vs gathered per-pair pass
# ---------------------------------------------------------------------------


class TestScreenPanelRouting:
    """Both ``want_screen_panel`` branches must be byte-identical.

    The dense branch screens the whole (node x thread) panel once and
    gathers verdicts; the sparse branch gathers the masked pairs and
    screens them per pair.  The heuristic picks between them on mask
    density, so each branch is forced explicitly here and checked
    against a panels-off run.  These are also the forced-panel runs for
    every method: the low panel gates make the tiny scene take the dense
    CHECKICA, screen and cull panels.
    """

    def test_heuristic(self):
        import types

        import repro.cd.traversal as trav

        fake = types.SimpleNamespace(
            _screen=None,
            _virtual=lambda: (None, (), None),
            _n_us=10,
            t0=0,
            t1=4,  # cells = 10 * 4 = 40
        )
        want = trav.LevelContext.want_screen_panel
        assert want(fake, 20) is True  # 2*20 >= 40: dense pays off
        assert want(fake, 19) is False  # sparse mask: per-pair gather
        fake._screen = object()  # matrix already built: gathering is free
        assert want(fake, 0) is True

    @staticmethod
    def _force_panels(monkeypatch, dense: bool | None = None) -> None:
        # Low panel gates so the tiny scene runs panel mode at all
        # (n_masked spans tiny corner masks up to full-frontier masks),
        # then optionally pin the branch.
        import repro.cd.traversal as trav

        monkeypatch.setattr(trav, "_PANEL_MIN_PAIRS", 1)
        monkeypatch.setattr(trav, "_PANEL_OVERSAMPLE", 1e9)
        if dense is not None:
            monkeypatch.setattr(
                trav.LevelContext, "want_screen_panel", lambda self, n: dense
            )

    @pytest.mark.parametrize("dense", [True, False])
    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_forced_branches_identical(self, sphere_scene, monkeypatch, method, dense):
        cfg = TraversalConfig(start_level=2)
        ref = _run_panels_off(sphere_scene, method, config=cfg)
        self._force_panels(monkeypatch, dense)
        forced = run_cd(sphere_scene, GRID, method_by_name(method), config=cfg)
        _assert_identical(ref, forced, f"{method} dense={dense}")

    def test_forced_panels_pooled_identical_to_serial(self, sphere_scene, monkeypatch):
        # Under the default fork start method the pool workers inherit
        # the lowered gates, so both sides run the panel kernels from a
        # multi-level start.
        self._force_panels(monkeypatch)
        cfg = TraversalConfig(start_level=2)
        serial = run_cd(sphere_scene, GRID, method_by_name("AICA"), config=cfg, workers=1)
        pooled = run_cd(sphere_scene, GRID, method_by_name("AICA"), config=cfg, workers=2)
        _assert_identical(serial, pooled, "forced panels pooled vs serial")


# ---------------------------------------------------------------------------
# Counter purity under chunking
# ---------------------------------------------------------------------------


class _OverchargingPICA(PICA):
    """A deliberately broken method: charges threads outside its wave."""

    name = "OverchargingPICA"

    def decide(self, rt, wave):
        out = super().decide(rt, wave)
        # Charge one box check to *every* thread of the run — exactly the
        # level-global accounting the purity invariant forbids.
        rt.counters.add_threads(
            "box_checks",
            np.arange(rt.counters.n_threads),
            rt.counters.n_threads,
        )
        return out


class TestCounterPurity:
    def test_overcharging_method_is_caught_when_chunked(self, sphere_scene):
        # workers=1: the pool ships methods by registry name, so an ad
        # hoc method class only exists on the serial path — which is
        # where the purity assert lives anyway.
        with pytest.raises(AssertionError, match="outside its sub-wave"):
            run_cd(
                sphere_scene, GRID, _OverchargingPICA(),
                config=TraversalConfig(max_pairs=7), workers=1,
            )

    @pytest.mark.parametrize("routing", ["default", "panels_off"])
    def test_honest_methods_pass_the_assert(self, sphere_scene, routing):
        # Runs with chunking active and __debug__ on: completing at all
        # means every per-chunk purity assert held.
        with _routing(routing):
            run_cd(
                sphere_scene, GRID, method_by_name("AICA"),
                config=TraversalConfig(max_pairs=7),
            )


# ---------------------------------------------------------------------------
# Served-query path
# ---------------------------------------------------------------------------


class TestServedQueries:
    def test_service_engines_agree_and_reuse_workspace(self, sphere_scene):
        with use_metrics(MetricsRegistry()) as reg, Service(workers=1) as svc:
            digest = svc.register_scene(sphere_scene)
            spec = QuerySpec(scene=digest, grid=GRID.shape, method="AICA")
            served = svc.query(spec)
            # Second, distinct query on the same dispatch thread: the
            # service's per-thread arena must serve it from reused
            # buffers (the grow events happened on the first query).
            before = reg.as_dict()["engine.workspace.grow_events"]["value"]
            svc.query(QuerySpec(scene=digest, grid=GRID.shape, method="MICA"))
            after = reg.as_dict()["engine.workspace.grow_events"]["value"]
        direct = _run_panels_off(sphere_scene, "AICA")
        np.testing.assert_array_equal(served.accessible, direct.accessibility_map)
        m = reg.as_dict()
        assert m["engine.workspace.reuse_hits"]["value"] > 0
        # The second query grows at most a handful of method-specific
        # buffers; the bulk of the arena is reused across requests.
        assert after - before < before
