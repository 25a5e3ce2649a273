"""The observability subsystem: tracing, metrics, reports, regression gate."""

import json
import time

import numpy as np
import pytest

from repro.bench.runner import build_workload
from repro.cd import AICA, MICA, run_cd
from repro.geometry.orientation import OrientationGrid
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    get_metrics,
    use_metrics,
)
from repro.obs.report import (
    RunReport,
    build_report,
    compare,
    load_report,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    get_tracer,
    set_tracer,
    tracing_enabled,
    use_tracer,
)


class TestTracer:
    def test_default_is_noop(self):
        assert isinstance(get_tracer(), NullTracer)
        assert not tracing_enabled()
        # span() on the null tracer works and records nothing
        with get_tracer().span("anything", key=1) as sp:
            sp.set(more=2)
        assert get_tracer().to_dicts() == []

    def test_nesting_and_parents(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner.a"):
                pass
            with tr.span("inner.b"):
                with tr.span("leaf"):
                    pass
        names = [r.name for r in tr.records]
        assert names == ["outer", "inner.a", "inner.b", "leaf"]
        outer, a, b, leaf = tr.records
        assert outer.parent == -1 and outer.depth == 0
        assert a.parent == 0 and a.depth == 1
        assert b.parent == 0 and b.depth == 1
        assert leaf.parent == 2 and leaf.depth == 2

    def test_timing_and_containment(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                time.sleep(0.01)
        outer, inner = tr.records
        assert inner.wall_s >= 0.01
        assert outer.wall_s >= inner.wall_s
        assert outer.cpu_s >= 0.0

    def test_attributes(self):
        tr = Tracer()
        with tr.span("s", level=3) as sp:
            sp.set(pairs=128, level=4)
        assert tr.records[0].attrs == {"level": 4, "pairs": 128}

    def test_error_annotated(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            with tr.span("s"):
                raise ValueError("boom")
        assert tr.records[0].attrs["error"] == "ValueError"
        assert tr.records[0].wall_s >= 0.0

    def test_totals_aggregate_by_name(self):
        tr = Tracer()
        for _ in range(3):
            with tr.span("cd.level"):
                pass
        totals = tr.totals()
        assert totals["cd.level"]["count"] == 3
        assert totals["cd.level"]["wall_s"] >= 0.0

    def test_use_tracer_restores(self):
        tr = Tracer()
        before = get_tracer()
        with use_tracer(tr) as active:
            assert get_tracer() is tr is active
        assert get_tracer() is before

    def test_set_tracer_none_disables(self):
        prev = set_tracer(None)
        try:
            assert get_tracer() is NULL_TRACER
        finally:
            set_tracer(prev)

    def test_record_span_manual(self):
        tr = Tracer()
        with tr.span("outer"):
            pass
        idx = tr.record_span(
            "pool.task.wait", t0=0.5, wall_s=0.25, parent=0, attrs={"task": 3}
        )
        rec = tr.records[idx]
        assert rec.name == "pool.task.wait"
        assert rec.parent == 0 and rec.depth == 1
        assert rec.t0 == 0.5 and rec.wall_s == 0.25
        assert rec.attrs == {"task": 3}


class TestAbsorbEpochs:
    """Regression: absorbed worker spans must land on the parent's timeline,
    never before the parent run's epoch."""

    def _worker_trace(self):
        worker = Tracer()
        with worker.span("cd.level", level=5):
            with worker.span("leaf"):
                pass
        return worker

    def test_epoch_rebase_makes_offsets_absolute(self):
        parent = Tracer()
        time.sleep(0.02)
        with parent.span("cd.traversal"):
            pass
        worker = self._worker_trace()  # created ~0.02s after the parent epoch
        parent.absorb(
            worker.to_dicts(), parent=0, epoch_ns=worker.epoch_ns
        )
        shift = (worker.epoch_ns - parent.epoch_ns) / 1e9
        assert shift >= 0.02
        root, leaf = parent.records[1], parent.records[2]
        assert root.t0 >= parent.records[0].t0  # not before the parent span
        assert root.t0 >= 0.02  # absolute: carries the real wall offset
        assert leaf.t0 >= root.t0  # children shifted identically

    def test_absorbed_roots_never_precede_parent_without_epoch(self):
        parent = Tracer()
        time.sleep(0.02)
        with parent.span("cd.traversal"):
            pass
        worker = self._worker_trace()
        parent.absorb(worker.to_dicts(), parent=0)  # legacy payload: no epoch
        host_t0 = parent.records[0].t0
        for rec in parent.records[1:]:
            assert rec.t0 >= host_t0
            assert rec.t0 >= 0.0  # never before the run's epoch

    def test_rootless_absorb_without_epoch_keeps_offsets(self):
        parent = Tracer()
        worker = self._worker_trace()
        dicts = worker.to_dicts()
        parent.absorb(dicts)  # parent=-1, no epoch: nothing to anchor on
        assert [r.t0 for r in parent.records] == [d["t0"] for d in dicts]

    def test_reset_renews_epoch(self):
        tr = Tracer()
        first = tr.epoch_ns
        time.sleep(0.002)
        tr.reset()
        assert tr.epoch_ns > first


class TestMetrics:
    def test_counter(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        assert reg.counter("c").value == 5
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_gauge(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(1.5)
        reg.gauge("g").set(0.5)
        assert reg.gauge("g").value == 0.5

    def test_histogram(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        h.observe(0.0)
        h.observe_many(np.array([1, 2, 3, 1000]))
        assert h.count == 5
        assert h.min == 0.0 and h.max == 1000.0
        assert h.mean == pytest.approx(1006 / 5)
        d = h.to_dict()
        assert sum(d["buckets"]) == 5
        assert d["buckets"][0] == 1  # the [0,1) observation

    def test_empty_histogram_serializes_null_bounds(self, tmp_path):
        """Regression: an unobserved histogram must emit ``min``/``max`` as
        null (not +/-inf, which is invalid JSON) and survive a report
        round-trip."""
        reg = MetricsRegistry()
        reg.histogram("empty")
        d = reg.as_dict()["empty"]
        assert d["count"] == 0
        assert d["min"] is None and d["max"] is None
        json.dumps(d)  # must not need a default= escape hatch

        report = build_report("hist-null", metrics=reg)
        path = tmp_path / "r.json"
        report.save(path)
        loaded = load_report(path)
        again = loaded.metrics["empty"]
        assert again["min"] is None and again["max"] is None
        assert again["count"] == 0

    def test_type_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_as_dict_sorted_and_json_safe(self):
        reg = MetricsRegistry()
        reg.counter("b").inc(np.int64(3))
        reg.gauge("a").set(1.0)
        d = reg.as_dict()
        assert list(d) == ["a", "b"]
        json.dumps(d, default=int)

    def test_use_metrics_scopes(self):
        before = get_metrics()
        with use_metrics() as reg:
            assert get_metrics() is reg
            reg.counter("scoped").inc()
        assert get_metrics() is before
        assert "scoped" not in before

    def test_thread_counters_export(self):
        from repro.engine.counters import ThreadCounters

        tc = ThreadCounters(n_threads=4, n_cyl=2)
        tc.box_checks[:] = [1, 2, 3, 4]
        tc.ica_fly_checks[:] = 1
        tc.nodes_visited[:] = [10, 0, 5, 7]
        reg = MetricsRegistry()
        tc.export(reg, prefix="cd")
        assert reg.counter("cd.box_checks").value == 10
        assert reg.counter("cd.total_checks").value == 14
        assert reg.gauge("cd.critical_thread_checks").value == 10
        assert reg.histogram("cd.nodes_visited_per_thread").count == 4


class TestReport:
    def _report(self, **over):
        tr = Tracer()
        reg = MetricsRegistry()
        with tr.span("cd.run"):
            with tr.span("cd.level"):
                pass
        reg.counter("cd.total_checks").inc(100)
        reg.counter("cd.sim_cd_s").inc(2.0)
        kwargs = dict(tracer=tr, metrics=reg, meta={"scale": "smoke"})
        kwargs.update(over)
        return build_report("test", **kwargs)

    def test_json_roundtrip(self, tmp_path):
        rep = self._report(results=[{"rows": [[np.int64(1), np.float64(0.5)]]}])
        path = tmp_path / "r.json"
        rep.save(path)
        loaded = load_report(path)
        assert loaded.to_dict() == rep.to_dict()
        assert loaded.results[0]["rows"] == [[1, 0.5]]
        assert loaded.span_names() == {"cd.run", "cd.level"}
        assert loaded.metrics["cd.total_checks"]["value"] == 100

    def test_cd_result_in_payload(self):
        wl = build_workload("head", 16, n_pivots=1)
        r = run_cd(wl.scene(0), OrientationGrid.square(4), AICA())
        rep = build_report("cd", tracer=Tracer(), metrics=MetricsRegistry(), results=[r])
        d = rep.results[0]
        assert d["method"] == "AICA"
        assert d["config"]["memo_levels"] == 8  # self-describing: traversal config
        assert d["grid"] == {"m": 4, "n": 4, "size": 16}
        assert d["summary"]["total_checks"] > 0
        json.dumps(rep.to_dict())  # fully serialized already

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ValueError):
            load_report(path)

    def test_compare_identical_ok(self):
        rep = self._report()
        cmp = compare(rep, rep)
        assert cmp.ok
        assert cmp.checked >= 3  # 2 counters + 2 span names (cd.run, cd.level)
        assert cmp.regressions == [] and cmp.improvements == []

    def test_compare_flags_count_regression(self):
        base = self._report()
        cur = self._report()
        cur.metrics["cd.total_checks"]["value"] = 103  # +3% > 1% tolerance
        cmp = compare(base, cur)
        assert not cmp.ok
        assert [d.metric for d in cmp.regressions] == ["cd.total_checks"]
        assert cmp.regressions[0].kind == "count"
        assert "REGRESSION" in cmp.render()

    def test_compare_time_tolerance(self):
        base = self._report()
        cur = self._report()
        cur.metrics["cd.sim_cd_s"]["value"] = 2.4  # +20% < 25% tolerance
        assert compare(base, cur).ok
        cur.metrics["cd.sim_cd_s"]["value"] = 2.6  # +30% > 25% tolerance
        cmp = compare(base, cur)
        assert [d.metric for d in cmp.regressions] == ["cd.sim_cd_s"]
        assert cmp.regressions[0].kind == "time"

    def test_compare_span_wall_regression(self):
        base = self._report()
        cur = self._report()
        cur.span_totals["cd.run"]["wall_s"] = base.span_totals["cd.run"]["wall_s"] * 10 + 1
        cmp = compare(base, cur)
        assert any(d.metric == "span.cd.run.wall_s" for d in cmp.regressions)

    def test_compare_improvement_informational(self):
        base = self._report()
        cur = self._report()
        cur.metrics["cd.total_checks"]["value"] = 50
        cmp = compare(base, cur)
        assert cmp.ok  # shrinking is never a failure
        assert [d.metric for d in cmp.improvements] == ["cd.total_checks"]

    def test_compare_ignores_unmatched_metrics(self):
        base = self._report()
        cur = self._report()
        cur.metrics["new.metric"] = {"type": "counter", "value": 999}
        assert compare(base, cur).ok


class TestTracingNeutrality:
    """Tracing on/off must not change any computed result."""

    def test_traced_run_identical_maps(self):
        wl = build_workload("head", 16, n_pivots=1, seed=3)
        grid = OrientationGrid.square(6)
        scene = wl.scene(0)
        baseline = run_cd(scene, grid, MICA())  # default: no-op tracer
        with use_tracer(Tracer()) as tr, use_metrics(MetricsRegistry()):
            traced = run_cd(scene, grid, MICA())
        assert tr.records, "tracer saw no spans"
        assert np.array_equal(baseline.collides, traced.collides)
        assert np.array_equal(
            baseline.counters.nodes_visited, traced.counters.nodes_visited
        )
        assert baseline.counters.total_checks == traced.counters.total_checks
        assert baseline.timing.total_s == traced.timing.total_s  # simulated: exact


class TestCli:
    def test_json_report(self, tmp_path, capsys):
        from repro.bench.runner import clear_caches
        from repro.cli import main

        clear_caches()  # cold caches so the octree build happens under the tracer
        path = tmp_path / "out.json"
        assert main(["fig18", "--scale", "smoke", "--json", str(path)]) == 0
        rep = load_report(path)
        names = rep.span_names()
        assert {"octree.build", "ica.table.build", "cd.traversal", "cd.run"} <= names
        assert rep.meta["scale"] == "smoke"
        assert rep.meta["numpy"] == np.__version__ and "blas" in rep.meta
        assert "backend" not in rep.meta
        assert not any(n.startswith(("engine.backend.", "engine.pool.backend."))
                       for n in rep.metrics)
        assert rep.results[0]["exp_id"] == "fig18"
        assert rep.metrics["cd.total_checks"]["value"] > 0

    def test_compare_cli(self, tmp_path, capsys):
        from repro.cli import main

        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["table2", "--scale", "smoke", "--json", str(a)]) == 0
        rep = load_report(a)
        rep.metrics["synthetic.checks"] = {"type": "counter", "value": 100}
        rep.save(b)
        base = load_report(a)
        base.metrics["synthetic.checks"] = {"type": "counter", "value": 50}
        base.save(a)
        assert main(["compare", str(a), str(a)]) == 0
        assert main(["compare", str(a), str(b)]) == 1  # 2x the checks
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "synthetic.checks" in out

    def test_compare_missing_file(self, capsys):
        from repro.cli import main

        assert main(["compare", "/nonexistent/a.json", "/nonexistent/b.json"]) == 2

    def test_all_aggregates_failures(self, monkeypatch, capsys):
        import repro.cli as cli

        def crashing(scale):
            raise RuntimeError("synthetic failure")

        ran = []

        def working(scale):
            ran.append("ok")
            from repro.bench.experiments import table2

            return table2(scale)

        monkeypatch.setattr(
            cli, "ALL_EXPERIMENTS", {"boom": crashing, "fine": working}
        )
        # The crash is reported, the remaining experiment still runs, and
        # the failure lands in the exit code instead of aborting the loop.
        assert cli.main(["all", "--scale", "smoke"]) == 1
        assert ran == ["ok"]
        err = capsys.readouterr().err
        assert "boom FAILED" in err and "synthetic failure" in err

    def test_trace_flag_prints_summary(self, capsys):
        from repro.cli import main

        assert main(["table2", "--scale", "smoke", "--trace"]) == 0
        assert "trace summary" in capsys.readouterr().err


class TestThreadSafety:
    """Regression tests for lost updates under the serving tier's threads.

    ThreadingHTTPServer dispatches one thread per connection, so every
    metric object is hammered concurrently in production.  A bare
    ``self.value += n`` is a read-modify-write that drops increments under
    the GIL's preemption; these tests fail reliably without the locks.
    """

    def test_counter_hammered_from_8_threads(self):
        import threading

        reg = MetricsRegistry()
        n_threads, per_thread = 8, 10_000

        def hammer():
            c = reg.counter("hot")
            for _ in range(per_thread):
                c.inc()

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("hot").value == n_threads * per_thread

    def test_histogram_concurrent_observes(self):
        import threading

        reg = MetricsRegistry()
        n_threads, per_thread = 8, 2_000

        def hammer(seed):
            h = reg.histogram("lat")
            h.observe_many(np.full(per_thread // 2, float(seed + 1)))
            for _ in range(per_thread // 2):
                h.observe(float(seed + 1))

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        h = reg.histogram("lat")
        assert h.count == n_threads * per_thread
        assert sum(h.to_dict()["buckets"]) == h.count

    def test_registry_create_or_get_race_yields_one_object(self):
        import threading

        reg = MetricsRegistry()
        barrier = threading.Barrier(8)
        seen = []
        lock = threading.Lock()

        def create():
            barrier.wait()
            c = reg.counter("contested")
            with lock:
                seen.append(c)

        threads = [threading.Thread(target=create) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(c is seen[0] for c in seen)


class TestAccessLog:
    def test_writes_json_lines_to_path(self, tmp_path):
        from repro.obs.log import AccessLog

        path = tmp_path / "access.log"
        log = AccessLog(path=str(path))
        try:
            log.request(
                id="abc123", route="/v1/cd", method="POST", status=200, ms=12.5,
                served="computed", scene=None,
            )
            log.request(id="def456", route="/v1/healthz", method="GET", status=200, ms=0.3)
        finally:
            log.close()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["id"] for l in lines] == ["abc123", "def456"]
        assert lines[0]["served"] == "computed"
        assert "scene" not in lines[0]  # None extras are dropped
        assert lines[0]["status"] == 200 and lines[0]["ms"] == 12.5
        assert "ts" in lines[0]

    def test_stderr_resolved_dynamically(self, capsys):
        # ``sys.stderr`` must be looked up at write time, not captured at
        # construction — otherwise pytest's capture (and any stream
        # redirection in a long-lived server) would be bypassed.
        from repro.obs.log import AccessLog

        AccessLog().request(id="y", route="/", method="GET", status=200, ms=1.0)
        line = capsys.readouterr().err.strip().splitlines()[-1]
        assert json.loads(line)["id"] == "y"

    def test_env_control(self, monkeypatch, tmp_path):
        from repro.obs.log import NullAccessLog, access_log_from_env

        monkeypatch.setenv("REPRO_ACCESS_LOG", "0")
        assert isinstance(access_log_from_env(), NullAccessLog)
        monkeypatch.setenv("REPRO_ACCESS_LOG", "off")
        assert isinstance(access_log_from_env(), NullAccessLog)
        monkeypatch.delenv("REPRO_ACCESS_LOG")
        log = access_log_from_env()
        assert log.enabled and log.path is None  # default: stderr
        target = tmp_path / "a.log"
        monkeypatch.setenv("REPRO_ACCESS_LOG", str(target))
        log = access_log_from_env()
        try:
            assert log.enabled and log.path == str(target)
        finally:
            log.close()

    def test_null_log_is_inert(self):
        from repro.obs.log import NULL_ACCESS_LOG

        NULL_ACCESS_LOG.request(id="x", route="/", method="GET", status=500, ms=0)
        assert not NULL_ACCESS_LOG.enabled

    def test_request_id_format(self):
        from repro.obs.log import new_request_id

        ids = {new_request_id() for _ in range(100)}
        assert len(ids) == 100
        assert all(len(i) == 32 and set(i) <= set("0123456789abcdef") for i in ids)

    def test_use_access_log_scopes_global(self, tmp_path):
        from repro.obs.log import AccessLog, get_access_log, use_access_log

        before = get_access_log()
        log = AccessLog(path=str(tmp_path / "scoped.log"))
        with use_access_log(log):
            assert get_access_log() is log
        assert get_access_log() is before
        log.close()
