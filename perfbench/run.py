"""Benchmark entry point: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload cold_aica --seed 1 --seconds 20 --trace 0

Prints one line per metric (name, value, unit, and how it was taken),
the run metadata, any failures by kind, and as its last line one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run is split into an untraced and a traced half and the metrics are
the per-layer ones, and the traced half's spans are written as a
``repro.obs.report/v1`` report under ``perfbench/out/``.

Exit status: 0 when every output check passed, 1 when one failed (the
result line is still printed), 2 when the program cannot be imported or
the arguments are wrong (no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parent / "out"
for p in (ROOT, ROOT / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

WORKLOADS = ("cold_aica", "cold_pboxopt", "path_aica", "served_mix")

# End-to-end metrics: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("maps_per_s", "1/s"),
    ("sim_gpu_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)

SETUP_REPS = 3  # setup_s is the median of this many complete set-ups


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def make_workload(name: str, seed: int):
    from perfbench.served import ServedMix
    from perfbench.workloads import ColdAica, ColdPBoxOpt, PathAica

    return {
        "cold_aica": ColdAica,
        "cold_pboxopt": ColdPBoxOpt,
        "path_aica": PathAica,
        "served_mix": ServedMix,
    }[name](seed)


def calibrate_ms() -> float:
    """A fixed numpy gather + einsum kernel: host speed, not program speed."""
    rng = np.random.default_rng(0)
    a = rng.random((200_000, 3))
    b = rng.random((200_000, 3))
    idx = rng.permutation(200_000)
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        np.einsum("ij,ij->i", np.take(a, idx, axis=0), b)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_build() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict mode
        return "unknown"


def run_meta(args, calib_ms: float) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build(),
        "git_revision": git_revision(),
        "host.calib_ms": calib_ms,
    }


def percentile_ms(values_s, q: float) -> float:
    return float(np.percentile(values_s, q)) * 1e3 if len(values_s) else 0.0


def end_to_end(setup_s: float, phase, sim_ms: float, rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and how each was taken."""
    from perfbench.workloads import SIM_MAPS

    lat = phase.latencies_s
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": percentile_ms(lat, 50),
        "latency_p90_ms": percentile_ms(lat, 90),
        "maps_per_s": phase.maps_per_s,
        "sim_gpu_ms": sim_ms,
        "peak_rss_mb": rss_mb,
    }
    beyond = len(lat) - int(0.9 * len(lat))
    notes = {
        "setup_s": f"median of {SETUP_REPS} set-ups",
        "latency_p50_ms": f"{len(lat)} computed requests",
        "latency_p90_ms": f"{len(lat)} computed requests, {beyond} beyond p90",
        "maps_per_s": f"{phase.maps} maps in {phase.wall_s:.3f} s",
        "sim_gpu_ms": f"mean sim_total_ms of the first {SIM_MAPS} maps of the seeded sequence",
        "peak_rss_mb": "peak RSS of the process doing the work",
    }
    return metrics, notes


def print_metrics(metrics: dict, units: dict, notes: dict | None = None) -> None:
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if notes and notes.get(name) else ""
        print(f"metric {name} = {value!r} {units[name]}{note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.setdefault("no_proxy", "*")  # loopback only: never a proxy
    try:
        workload = make_workload(args.workload, args.seed)
        from perfbench import layers
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    calib_ms = calibrate_ms()
    meta = run_meta(args, calib_ms)
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# meta " + json.dumps(meta, sort_keys=True))

    try:
        setups = [workload.setup() for _ in range(SETUP_REPS)]
        setup_s = statistics.median(setups)
        workload.warm_up()
        failures = Counter()
        attempted = 0
        if not args.trace:
            phase = workload.run(args.seconds)
            phases = [phase]
        else:
            plain = workload.run(args.seconds / 2)
            with layers.traced() as (tracer, registry), layers.box_probe() as box:
                phase = workload.run(args.seconds / 2, traced=True)
            decide_calls = getattr(getattr(workload, "probe", None), "calls", 0)
            phases = [plain, phase]
        for ph in phases:
            failures.update(ph.failures)
            attempted += ph.attempted
        bad, sim_ms, rss_mb = workload.finish()
    finally:
        workload.close()

    failures.update(bad)
    failed = sum(failures.values())
    unmeasured: list[str] = []
    if not args.trace:
        metrics, notes = end_to_end(setup_s, phase, sim_ms, rss_mb)
        units = dict(END_TO_END)
        print_metrics(metrics, units, notes)
    else:
        metrics = workload.layer_metrics(phase, tracer, registry)
        metrics["host.calib_ms"] = calib_ms
        metrics["obs.trace_overhead_frac"] = (
            1.0 - phase.maps_per_s / plain.maps_per_s if plain.maps_per_s else 0.0
        )
        seams = {"decide": decide_calls, "box": box.calls}
        unmeasured = workload.unmeasured(seams)
        gone = set()
        if "decide" in unmeasured:
            gone.update(layers.DECIDE_METRICS)
        if "box" in unmeasured:
            gone.update(layers.BOX_METRICS)
        units = dict(layers.PER_LAYER)
        metrics = {name: metrics[name] for name, _ in layers.PER_LAYER if name not in gone}
        print_metrics(metrics, units)
        totals = layers.span_totals(tracer.records)
        for line in layers.self_time_table(totals):
            print(line)
        OUT.mkdir(exist_ok=True)
        report_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        from repro.obs import build_report

        build_report(
            f"perfbench {args.workload}", tracer=tracer, metrics=registry,
            meta=meta, results=[{"per_layer": metrics}],
        ).save(report_path)
        print(f"# trace report: {report_path.relative_to(ROOT)}")

    print(f"failed_frac = {failed / max(attempted, 1)!r} ratio ({failed} of {attempted} attempted)")
    for kind, n in sorted(failures.items()):
        print(f"failure: {kind} x{n}")
    for seam in unmeasured:
        print(f"unmeasured: the {seam} seam never fired; its metrics are left out")
    correct = not bad
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
