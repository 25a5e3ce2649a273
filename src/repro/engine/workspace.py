"""Reusable buffer arenas for the frontier traversal's hot loops.

The frontier traversal (:mod:`repro.cd.traversal`) builds every level's
wave arrays — ``threads/codes/idx/status/centers/dirs`` plus the decide
kernels' temporaries — inside a :class:`Workspace`: a named, growable
arena of flat NumPy buffers.  A buffer is requested by name and size
with :meth:`Workspace.take`; the arena hands back a view of a persistent
allocation, growing it geometrically when the request outruns the
capacity.  After the first few levels of the first run every request is
a *reuse hit* and the traversal stops paying allocator and page-fault
cost per level — the dominant fixed overhead of an allocating traversal
on small and medium frontiers.

Naming protocol (the only contract callers must respect):

* a name identifies one logical buffer; taking it again returns the
  *same* storage, so data written through an earlier view of that name
  is dead the moment the name is taken again;
* producers that must write a new generation of an array while the old
  generation is still being read (the frontier advance writes level
  ``L+1`` while level ``L``'s arrays are live) use *banked* names — the
  same stem suffixed with the level's parity — so reads and writes never
  share storage.

Workspaces are deliberately dumb: no locking (one workspace per thread —
see :func:`use_workspace`), no lifetime tracking, no zeroing.  Misuse
shows up as wrong *values*: the golden map/counter digests
(``tests/data/golden_counters.json``) and the brute-force differential
fuzz compare results byte-for-byte, which is exactly the test that
catches aliasing bugs.

A workspace can be installed as the *ambient* workspace of the current
thread (:func:`use_workspace` / :func:`set_ambient_workspace`); the
traversal runtime picks it up so long-lived hosts — the query service's
dispatch threads, the worker pool's processes — amortize one arena over
many requests instead of re-growing per call.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

import numpy as np

__all__ = [
    "Workspace",
    "get_ambient_workspace",
    "set_ambient_workspace",
    "use_workspace",
    "export_workspace_metrics",
]

#: Geometric growth factor: a buffer that must grow is sized to
#: ``max(request, ceil(GROWTH * old_capacity))`` elements so a slowly
#: expanding frontier triggers O(log) grow events, not O(levels).
GROWTH = 1.5


class Workspace:
    """A named arena of growable, reusable flat NumPy buffers."""

    __slots__ = ("_bufs", "grow_events", "reuse_hits")

    def __init__(self) -> None:
        self._bufs: dict[str, np.ndarray] = {}
        self.grow_events = 0
        self.reuse_hits = 0

    def take(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """An uninitialized ``shape`` view of the buffer called ``name``.

        ``shape`` is an int or tuple.  The view aliases the persistent
        buffer: it is valid until ``name`` is taken again, and its
        contents are whatever the previous taker left there.  A dtype
        change discards the old buffer (names are expected to keep one
        dtype; the engine's do).
        """
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        else:
            shape = tuple(int(s) for s in shape)
        n = 1
        for s in shape:
            n *= s
        dtype = np.dtype(dtype)
        buf = self._bufs.get(name)
        if buf is None or buf.dtype != dtype or buf.size < n:
            cap = n
            if buf is not None and buf.dtype == dtype:
                cap = max(n, int(buf.size * GROWTH) + 1)
            self._bufs[name] = buf = np.empty(cap, dtype=dtype)
            self.grow_events += 1
        else:
            self.reuse_hits += 1
        return buf[:n].reshape(shape)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held across all named buffers."""
        return sum(b.nbytes for b in self._bufs.values())

    def stats(self) -> dict:
        """A snapshot of the monotone counters (for delta accounting)."""
        return {
            "bytes_held": self.nbytes,
            "grow_events": self.grow_events,
            "reuse_hits": self.reuse_hits,
        }

    def stats_since(self, before: dict | None) -> dict:
        """Counter deltas since an earlier :meth:`stats` snapshot."""
        now = self.stats()
        if before:
            now["grow_events"] -= before.get("grow_events", 0)
            now["reuse_hits"] -= before.get("reuse_hits", 0)
        return now

    def clear(self) -> None:
        """Drop every buffer (the counters are kept: they are lifetime totals)."""
        self._bufs.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Workspace({len(self._bufs)} buffers, {self.nbytes} B, "
            f"grow={self.grow_events}, reuse={self.reuse_hits})"
        )


_tls = threading.local()


def get_ambient_workspace() -> Workspace | None:
    """The workspace installed for the current thread, if any."""
    return getattr(_tls, "workspace", None)


def set_ambient_workspace(ws: Workspace | None) -> Workspace | None:
    """Install ``ws`` for the current thread; returns the previous one."""
    prev = get_ambient_workspace()
    _tls.workspace = ws
    return prev


@contextmanager
def use_workspace(ws: Workspace | None) -> Iterator[Workspace | None]:
    """Scoped :func:`set_ambient_workspace` (no-op when ``ws`` is None)."""
    prev = set_ambient_workspace(ws)
    try:
        yield ws
    finally:
        set_ambient_workspace(prev)


def export_workspace_metrics(metrics, stats: dict, prefix: str = "engine.workspace") -> None:
    """Fold one run's workspace stats into a metrics registry.

    ``stats`` is a :meth:`Workspace.stats_since` delta (or a worker
    payload thereof): the grow/reuse deltas accumulate as counters, the
    held bytes report as a gauge (a level, not a rate — the arena
    persists across runs, so summing it would be meaningless).  Pooled
    runs pass ``prefix="engine.pool.workspace"``: their stats aggregate
    every worker's private arena, a different quantity from the serial
    run's single-arena stats, so the two live in different namespaces.
    """
    metrics.gauge(f"{prefix}.bytes_held").set(float(stats.get("bytes_held", 0)))
    metrics.counter(f"{prefix}.grow_events").inc(int(stats.get("grow_events", 0)))
    metrics.counter(f"{prefix}.reuse_hits").inc(int(stats.get("reuse_hits", 0)))
