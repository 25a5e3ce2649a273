"""Wall-clock gate: the traversal must beat the frozen v1 control on the host.

Every other bench asserts on simulated-GPU milliseconds; this one gates
real host time.  The control is the former reference traversal ("v1"),
frozen in calibration units (``repro.bench.experiments.V1_UNITS``); the
experiment divides each method's time by a same-run calibration kernel
and reports ``speedup = V1_UNITS[method] / units``.  It also asserts
that all five methods return the same map.
"""

from repro.bench.experiments import _METHOD_ORDER, wallclock


def test_wallclock(benchmark, scale, record):
    result = benchmark.pedantic(wallclock, args=(scale,), rounds=1, iterations=1)
    record(result)
    speedups = result.extras["speedups"]
    assert set(speedups) == {cls.name for cls in _METHOD_ORDER}, (
        f"no frozen v1 control for every method at scale {scale.name}"
    )

    # The traversal must never be a regression on any method.
    for name, s in speedups.items():
        assert s > 0.9, f"{name}: slower than the v1 control ({s:.2f}x)"

    # The headline gate — the two methods whose hot loops the panel and
    # dedup work targets (panel dedup for AICA, hoisted cull + panels for
    # PBoxOpt) must hold a 2x serial speedup at the fig16 data point.
    # The smoke scale's frontier is too small to amortize panel setup, so
    # only the no-regression floor applies there.
    if scale.name != "smoke":
        assert speedups["AICA"] >= 2.0, f"AICA speedup {speedups['AICA']:.2f}x < 2x"
        assert speedups["PBoxOpt"] >= 2.0, (
            f"PBoxOpt speedup {speedups['PBoxOpt']:.2f}x < 2x"
        )
