"""Tests of the benchmark itself: seeded inputs, output checks, smoke runs.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for p in (ROOT, ROOT / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

from perfbench import layers  # noqa: E402
from perfbench.inputs import build_inputs  # noqa: E402
from perfbench.run import END_TO_END, WORKLOADS  # noqa: E402
from perfbench.served import EVICTED_404, ClientLog, ServedMix  # noqa: E402
from perfbench.workloads import ColdAica, ColdPBoxOpt, PathAica  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, seed: int = 5, seconds: float = 1.0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


# -- seeded inputs -----------------------------------------------------------


def test_same_seed_same_pivots_and_keys():
    a = build_inputs(3, with_trees=False)
    b = build_inputs(3, with_trees=False)
    for ma, mb in zip(a.models, b.models):
        assert np.array_equal(ma.pivots, mb.pivots)
    assert ServedMix(3).sequence == ServedMix(3).sequence


def test_different_seed_different_pivots_and_keys():
    a = build_inputs(3, with_trees=False)
    b = build_inputs(4, with_trees=False)
    for ma, mb in zip(a.models, b.models):
        assert not np.array_equal(ma.pivots, mb.pivots)
    assert ServedMix(3).sequence != ServedMix(4).sequence


def test_served_mix_shape():
    seq = ServedMix(3).sequence
    fresh = [key for key in seq[:1000] if key[1] >= 2]
    assert 0.07 < len(fresh) / 1000 < 0.13
    assert len(set(fresh)) == len(fresh)  # a fresh pivot is never repeated
    assert len(set(seq)) <= 256  # distinct keys fit the default result cache
    assert [m for m, _ in seq[:8]] == [0, 1, 2, 3, 0, 1, 2, 3]


def test_same_seed_same_sim_gpu_ms():
    sims = []
    for _ in range(2):
        w = ColdAica(7)
        w.setup()
        sims.append(w.sim_gpu_ms())
    assert sims[0] == sims[1] and sims[0] > 0


def test_path_windows_are_consecutive_pivots():
    w = PathAica(2)
    w.inputs = build_inputs(2)
    w.starts = [np.array([5]) for _ in w.inputs.models]
    w.windows_per_model = 1
    pivots = w.pivots_of(1)
    assert np.array_equal(pivots, w.inputs.models[1].path[5:9])


# -- output checks -----------------------------------------------------------


def test_corrupted_map_fails_the_check():
    w = ColdAica(1)
    w.setup()
    w.warm_up()
    assert not w.check_maps()
    rec = w.done[0][0]
    rec.collides[0] = not rec.collides[0]
    assert sum(w.check_maps().values()) == 1


def test_corrupted_served_answer_fails_the_check():
    w = ServedMix(1)
    try:
        w.setup()
        w.warm_up()
        key, amap = w.answers[0]
        bad = amap.copy()
        bad[0, 0] = not bad[0, 0]
        w.answers.append((key, bad))
        assert w.check()["map check: two answers to one key differ"] == 1
    finally:
        w.close()


def test_registry_eviction_404_is_counted_and_the_scene_re_registered():
    """Fresh pivots on one scene register derived scenes in the 8-scene
    LRU and evict the other base scenes; their next query gets a 404."""
    w = ServedMix(1)
    try:
        w.setup()
        for idx in range(2, 8):
            w.query((0, idx))
        log = ClientLog(t_end=0.0)
        w._one((1, 0), False, log)
        assert log.failures == {EVICTED_404: 1} and not log.rows
        w._one((1, 0), False, log)
        assert len(log.rows) == 1
    finally:
        w.close()


# -- seams -------------------------------------------------------------------


def test_seams_fire_on_cold_pboxopt_and_a_missing_one_is_unmeasured():
    w = ColdPBoxOpt(1)
    w.setup()
    with layers.traced(), layers.box_probe() as box:
        w.run(0.3, traced=True)
    assert w.probe.calls > 0 and box.calls > 0
    assert w.unmeasured({"decide": w.probe.calls, "box": box.calls}) == []
    assert w.unmeasured({"decide": w.probe.calls, "box": 0}) == ["box"]


# -- span arithmetic ---------------------------------------------------------


class Rec:
    def __init__(self, name, t0, wall_s, parent=-1):
        self.name, self.t0, self.wall_s, self.parent = name, t0, wall_s, parent


def test_self_time_subtracts_the_union_of_children():
    recs = [
        Rec("req", 0.0, 10.0),
        Rec("a", 1.0, 4.0, parent=0),  # [1, 5]
        Rec("b", 3.0, 4.0, parent=0),  # [3, 7], overlaps a
        Rec("c", 9.0, 5.0, parent=0),  # [9, 14], clipped to [9, 10]
    ]
    tot = layers.span_totals(recs)
    assert tot["req"].self_s == pytest.approx(10.0 - 6.0 - 1.0)
    assert tot["a"].self_s == pytest.approx(4.0)


# -- BENCHMARK.json ----------------------------------------------------------


def test_benchmark_json_matches_the_metric_lists():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(layers.PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc, result = run_bench(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in END_TO_END]
    for m in result["metrics"].values():
        assert math.isfinite(m["value"]) and m["value"] > 0


@pytest.mark.parametrize("workload", ["cold_pboxopt", "served_mix"])
def test_smoke_traced_run_reports_every_layer_metric(workload):
    proc, result = run_bench(workload, trace=1, seconds=2.0)
    assert proc.returncode == 0, proc.stderr
    assert list(result["metrics"]) == [name for name, _ in layers.PER_LAYER]
    assert "unmeasured:" not in proc.stdout
    report = json.loads((ROOT / "perfbench" / "out" / f"trace-{workload}-seed5.json").read_text())
    assert report["schema"].startswith("repro.obs.report/")
