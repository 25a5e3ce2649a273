"""Per-thread instrumentation counters.

The traversal records, for every logical GPU thread (= orientation), how
many checks of each kind it executed.  These counts are the raw material
for almost every figure in the paper: per-thread check histograms
(Fig 14 col 1), critical-thread checks (Fig 13), box-check percentages
and ICA efficiency (Fig 15), and — through the cost model and SIMT
scheduler — every timing plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.costs import CostModel

__all__ = ["ThreadCounters", "StageBreakdown"]


@dataclass
class ThreadCounters:
    """Check counts per logical thread, by check type.

    ``n_threads`` is the CD-stage thread count ``M``; all arrays have that
    length.  "Checks" counts node visits (line 3 of Algorithm 2);
    the typed counters attribute each visit's work.
    """

    n_threads: int
    n_cyl: int
    box_checks: np.ndarray = field(default=None)  # exact CHECKBOX calls
    ica_fly_checks: np.ndarray = field(default=None)  # CHECKICA, on-the-fly cone
    ica_memo_checks: np.ndarray = field(default=None)  # CHECKICA, table lookup
    cull_checks: np.ndarray = field(default=None)  # PBoxOpt AABB pre-tests
    corner_cases: np.ndarray = field(default=None)  # CHECKICA inconclusive events
    nodes_visited: np.ndarray = field(default=None)  # stack pops (total checks)

    def __post_init__(self) -> None:
        for name in (
            "box_checks",
            "ica_fly_checks",
            "ica_memo_checks",
            "cull_checks",
            "corner_cases",
            "nodes_visited",
        ):
            if getattr(self, name) is None:
                setattr(self, name, np.zeros(self.n_threads, dtype=np.int64))

    # -- accumulation -----------------------------------------------------

    def add(self, name: str, thread_idx: np.ndarray, count=1) -> None:
        """Accumulate ``count`` events of type ``name`` on a batch of threads."""
        arr = getattr(self, name)
        np.add.at(arr, thread_idx, count)

    def add_threads(self, name: str, thread_idx: np.ndarray, n_threads: int) -> None:
        """Count one event per entry of ``thread_idx`` (bincount — much
        faster than ``np.add.at`` for the large frontier batches)."""
        if len(thread_idx) == 0:
            return
        arr = getattr(self, name)
        arr += np.bincount(thread_idx, minlength=n_threads).astype(np.int64)

    def add_range(self, name: str, t0: int, t1: int, counts) -> None:
        """Add ``counts`` (a scalar or one entry per thread) to threads ``[t0, t1)``."""
        getattr(self, name)[t0:t1] += counts

    # -- derived quantities -------------------------------------------------

    def thread_ops(self, costs: CostModel) -> np.ndarray:
        """Elementary-operation totals per thread under a cost model."""
        c = costs
        return (
            self.box_checks * c.checkbox(self.n_cyl)
            + self.ica_fly_checks * c.checkica_fly(self.n_cyl)
            + self.ica_memo_checks * c.checkica_memo(self.n_cyl)
            + self.cull_checks * c.aabb_cull(self.n_cyl)
            + self.nodes_visited * c.traversal_overhead
        )

    @property
    def total_checks(self) -> int:
        """All CD tests executed (the denominator of Figure 15)."""
        return int(
            (self.box_checks + self.ica_fly_checks + self.ica_memo_checks).sum()
        )

    @property
    def total_box_checks(self) -> int:
        return int(self.box_checks.sum())

    def box_check_fraction(self) -> float:
        """Fraction of CD tests that fell back to CHECKBOX (Fig 15)."""
        total = self.total_checks
        return self.total_box_checks / total if total else 0.0

    def ica_efficiency(self) -> float:
        """1 - box-check fraction: the paper's headline ~99% metric."""
        return 1.0 - self.box_check_fraction()

    def critical_thread(self) -> int:
        """Index of the thread with the most node visits (Fig 13/14)."""
        return int(np.argmax(self.nodes_visited))

    # -- observability ----------------------------------------------------

    COUNTER_FIELDS = (
        "box_checks",
        "ica_fly_checks",
        "ica_memo_checks",
        "cull_checks",
        "corner_cases",
        "nodes_visited",
    )

    def export(self, registry, prefix: str = "cd") -> None:
        """Accumulate this run's totals into a metrics registry.

        Counter names are ``{prefix}.{field}`` plus ``{prefix}.total_checks``;
        the per-thread visit distribution feeds the
        ``{prefix}.nodes_visited_per_thread`` histogram and the load-imbalance
        gauges (Fig 13/14's critical-thread view).
        """
        for name in self.COUNTER_FIELDS:
            registry.counter(f"{prefix}.{name}").inc(int(getattr(self, name).sum()))
        registry.counter(f"{prefix}.total_checks").inc(self.total_checks)
        registry.histogram(f"{prefix}.nodes_visited_per_thread").observe_many(
            self.nodes_visited
        )
        registry.gauge(f"{prefix}.ica_efficiency").set(self.ica_efficiency())
        registry.gauge(f"{prefix}.critical_thread_checks").set(
            int(self.nodes_visited.max(initial=0))
        )

    def merged_with(self, other: "ThreadCounters") -> "ThreadCounters":
        """Elementwise sum (for accumulating over pivots or thread blocks)."""
        if self.n_threads != other.n_threads or self.n_cyl != other.n_cyl:
            raise ValueError("cannot merge counters of different shapes")
        return ThreadCounters(
            n_threads=self.n_threads,
            n_cyl=self.n_cyl,
            box_checks=self.box_checks + other.box_checks,
            ica_fly_checks=self.ica_fly_checks + other.ica_fly_checks,
            ica_memo_checks=self.ica_memo_checks + other.ica_memo_checks,
            cull_checks=self.cull_checks + other.cull_checks,
            corner_cases=self.corner_cases + other.corner_cases,
            nodes_visited=self.nodes_visited + other.nodes_visited,
        )


@dataclass(frozen=True)
class StageBreakdown:
    """Simulated seconds per pipeline stage (Fig 18/19 stacked bars)."""

    ica_precompute_s: float = 0.0
    cd_tests_s: float = 0.0
    wall_s: float = 0.0  # measured NumPy wall time, for honesty alongside

    @property
    def total_s(self) -> float:
        """Simulated end-to-end kernel time (precompute + CD stage)."""
        return self.ica_precompute_s + self.cd_tests_s

    def to_dict(self) -> dict:
        return {
            "ica_precompute_s": self.ica_precompute_s,
            "cd_tests_s": self.cd_tests_s,
            "total_s": self.total_s,
            "wall_s": self.wall_s,
        }
