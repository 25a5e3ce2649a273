"""``repro-bench`` command-line entry point.

Usage::

    repro-bench list                  # available experiments
    repro-bench fig16                 # run one experiment and print it
    repro-bench fig16 --json out.json # also write a structured run report
    repro-bench all                   # run everything (respects scale)
    repro-bench fig16 --workers 4     # shard CD runs over 4 processes
    repro-bench compare a.json b.json # regression gate between two reports
    repro-bench fig16 --progress      # heartbeat per thread-block/pivot
    REPRO_BENCH_SCALE=medium repro-bench fig05
    REPRO_WORKERS=4 repro-bench fig16 # env equivalent of --workers

Saved ``--json`` reports are analyzed offline with ``repro-obs``
(:mod:`repro.obs.cli`): span trees, hotspots, Perfetto/flamegraph
exports, and full report diffs.

Exit codes: ``0`` success, ``1`` an experiment crashed (``all`` keeps
going and aggregates) or ``compare`` flagged a regression, ``2`` usage
errors (unknown experiment, unreadable report).

``--json`` installs a real tracer + fresh metrics registry for the run
and serializes spans, metrics, and the experiment tables through
:mod:`repro.obs.report`; without it (and without ``--trace`` or
``REPRO_TRACE=1``) tracing stays the no-op default so timings are
unperturbed.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback

import numpy as np

from repro.bench.config import SCALES, current_scale
from repro.bench.experiments import ALL_EXPERIMENTS
from repro.engine.pool import resolve_workers
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.profile import record_memory_metrics
from repro.obs.report import build_report, compare, load_report
from repro.obs.trace import Tracer, get_tracer, use_tracer

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        return _main_compare(argv[1:])
    return _main_run(argv)


# ---------------------------------------------------------------------------
# repro-bench <experiment> [--scale S] [--json PATH] [--trace]
# ---------------------------------------------------------------------------


def _blas_info() -> str | None:
    """Short BLAS build identifier for report meta (host comparability).

    Wall-clock baselines depend on the numpy build's BLAS as much as on
    the machine; recording it makes cross-host report diffs explainable.
    Best-effort: ``None`` when the build config is not introspectable.
    """
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
        name = blas.get("name")
        version = blas.get("version")
        if name:
            return f"{name} {version}" if version else str(name)
    except Exception:
        pass
    return None


def _main_run(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the paper's tables and figures "
        "(AICA collision detection, ICPP 2019).",
        epilog="Use 'repro-bench compare BASELINE CURRENT' to diff two --json reports.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (e.g. fig16), 'all', or 'list'",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=None,
        help="override REPRO_BENCH_SCALE for this run",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write a structured run report (spans + metrics + tables) to PATH",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="enable tracing and print a span summary (implied by --json)",
    )
    parser.add_argument(
        "--workers",
        metavar="N",
        default=None,
        help="worker processes for CD runs (int or 'auto'; overrides "
        "REPRO_WORKERS; default 1 = serial)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print a heartbeat line per completed thread-block/pivot "
        "with ETA (same as REPRO_PROGRESS=1)",
    )
    args = parser.parse_args(argv)
    if args.progress:
        os.environ["REPRO_PROGRESS"] = "1"

    try:
        workers = resolve_workers(args.workers)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.workers is not None:
        # Experiments build their own TraversalConfig instances; the env
        # variable is the channel every run_cd resolves its default from.
        os.environ["REPRO_WORKERS"] = str(workers)

    scale = SCALES[args.scale] if args.scale else current_scale()

    if args.experiment == "list":
        for name, fn in ALL_EXPERIMENTS.items():
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{name:22s} {doc}")
        return 0

    names = list(ALL_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2

    want_obs = args.json is not None or args.trace
    tracer = Tracer() if want_obs else get_tracer()
    metrics = MetricsRegistry()
    completed = []
    failures = []
    with use_tracer(tracer), use_metrics(metrics):
        for name in names:
            t0 = time.perf_counter()
            try:
                with tracer.span("bench.experiment", experiment=name):
                    result = ALL_EXPERIMENTS[name](scale)
            except Exception:
                # One crashing experiment must not abort the rest of `all`;
                # record it and fold into the exit code at the end.
                failures.append(name)
                print(f"[{name} FAILED]", file=sys.stderr)
                traceback.print_exc()
                continue
            dt = time.perf_counter() - t0
            print(result.render())
            print(f"\n[{name} completed in {dt:.1f}s at scale={scale.name}]\n")
            completed.append(result)

    if args.trace and tracer.enabled:
        print(_span_summary(tracer), file=sys.stderr)

    if args.json is not None:
        record_memory_metrics(metrics)  # parent peak RSS into every report
        report = build_report(
            args.experiment,
            tracer=tracer,
            metrics=metrics,
            meta={
                "scale": scale.name,
                "workers": workers,
                "numpy": np.__version__,
                "blas": _blas_info(),
                "experiments": [r.exp_id for r in completed],
                "failed": failures,
                "argv": argv,
            },
            results=[
                {"exp_id": r.exp_id, "title": r.title, "headers": r.headers, "rows": r.rows}
                for r in completed
            ],
        )
        try:
            report.save(args.json)
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 2
        print(f"[report written to {args.json}]")

    if failures:
        print(f"[{len(failures)} experiment(s) failed: {', '.join(failures)}]", file=sys.stderr)
        return 1
    return 0


def _span_summary(tracer: Tracer, top: int = 15) -> str:
    totals = tracer.totals()
    order = sorted(totals, key=lambda n: totals[n]["wall_s"], reverse=True)[:top]
    width = max((len(n) for n in order), default=4)
    lines = [f"-- trace summary (top {len(order)} spans by wall time) --"]
    for name in order:
        agg = totals[name]
        lines.append(
            f"{name:{width}s}  x{agg['count']:<6d} wall {agg['wall_s']:.3f}s "
            f"cpu {agg['cpu_s']:.3f}s"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# repro-bench compare <baseline.json> <current.json>
# ---------------------------------------------------------------------------


def _main_compare(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench compare",
        description="Diff two --json run reports and exit nonzero on regression.",
    )
    parser.add_argument("baseline", help="baseline report (repro-bench ... --json)")
    parser.add_argument("current", help="current report to check against the baseline")
    parser.add_argument(
        "--time-threshold",
        type=float,
        default=0.25,
        help="relative tolerance for timing metrics (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--count-threshold",
        type=float,
        default=0.01,
        help="relative tolerance for check-count metrics (default 0.01 = 1%%)",
    )
    parser.add_argument(
        "--min-time-delta",
        type=float,
        default=0.01,
        metavar="SECONDS",
        help="absolute floor below which timing movement is ignored (default 0.01s)",
    )
    args = parser.parse_args(argv)

    try:
        baseline = load_report(args.baseline)
        current = load_report(args.current)
    except (OSError, ValueError) as exc:
        print(f"cannot load report: {exc}", file=sys.stderr)
        return 2

    result = compare(
        baseline,
        current,
        time_threshold=args.time_threshold,
        count_threshold=args.count_threshold,
        min_time_delta_s=args.min_time_delta,
    )
    print(f"baseline: {args.baseline} ({baseline.label})")
    print(f"current:  {args.current} ({current.label})")
    print(result.render())
    return 0 if result.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
