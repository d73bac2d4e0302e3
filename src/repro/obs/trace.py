"""The trace recorder: spans + counters over the simulation kernel.

One recorder exists per :class:`~repro.simenv.kernel.Kernel`, shared by
every simulated process on that kernel — span streams from all five
frameworks of a universe interleave into a single timeline, exactly as
a cluster-wide trace collector would see them.  Each span records both
*simulated* time (``kernel.now``, what the experiments report) and
*wall-clock* time (``time.perf_counter()``, what the harness costs).

Span naming follows ``<framework>.<phase>``:

=====================  ====================================================
span name              opened around
=====================  ====================================================
``snapc.checkpoint``   the app-blocked window (Figure 1 A→F)
``snapc.fanout``       global→local request fan-out + acks (Figure 1 B–E)
``snapc.local``        one orted's local coordinator pass
``snapc.meta``         one global metadata write (per staging transition)
``snapc.stage``        background staging of one interval to stable storage
``crcp.coordinate``    one process's whole coordination
``crcp.bookmark``      the all-to-all bookmark exchange (``coord``)
``crcp.drain``         the channel drain loop
``crcp.quiesce``       waiting out the process's own in-flight sends
``crcp.round``         one aggregation round (``twophase``)
``crs.capture``        assembling the in-memory image
``crs.serialize``      pickling the image
``crs.hash``           the per-chunk hash pass (modelled over every byte)
``crs.write``          writing image or dirty chunks + metadata
``filem.transfer``     one tree / chunk-set copy (``rsh``; ``op`` says which;
                       on ``broadcast`` one rank: ``links``, ``read_bytes``)
``filem.gather``       a whole gather operation
``filem.stage_out``    a whole stage-out (gather + source cleanup)
``filem.broadcast``    a whole restart preload: a stream per node, a full image
                       per rank (``entries``/``links``/``files``/``read_bytes``)
``filem.offer``        one CAS negotiation (chunks offered vs missing)
``filem.ship``         shipping negotiated chunks into the CAS store
``filem.fetch``        rebuilding CAS-backed images on restart nodes
``inc.<layer>``        one layer's INC traversal (Figure 2 as data)
``errmgr.detect``      failure detection + survivor/staging teardown
``errmgr.recover``     one recovery attempt (snapshot pick → relaunch)
=====================  ====================================================

Counters (``count``): ``crcp.drained_msgs``, ``crcp.aborts``,
``snapc.scheduled_ckpts``, ``crs.chunks_hashed`` / ``crs.chunks_reused``
— chunk digests computed vs taken over from the previous snapshot — and
``filem.sessions`` — rsh sessions set up: per file on gather/stage-out,
per node stream on broadcast, per entry on chunk ship/fetch.

Disabled recorders hand out a shared :data:`NULL_SPAN` whose ``end`` is
a no-op, so instrumentation points cost one attribute check when
tracing is off.
"""

from __future__ import annotations

import json
import time
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.simenv.kernel import Kernel

#: schema version stamped into every JSON export
#: (v2 added the ``kernel_stats`` block)
TRACE_SCHEMA_VERSION = 2


class _NullSpan:
    """Stand-in handed out while tracing is disabled."""

    __slots__ = ()

    def end(self, **attrs: Any) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover
        return "<NullSpan>"


NULL_SPAN = _NullSpan()


class Span:
    """One timed region; finished (and recorded) by :meth:`end`."""

    __slots__ = ("_recorder", "name", "cat", "attrs", "t0", "t1", "wall0", "wall1")

    def __init__(self, recorder: "TraceRecorder", name: str, cat: str, attrs: dict):
        self._recorder = recorder
        self.name = name
        self.cat = cat
        self.attrs = attrs
        self.t0 = recorder.kernel.now
        self.t1: float | None = None
        self.wall0 = time.perf_counter()
        self.wall1: float | None = None

    def end(self, **attrs: Any) -> None:
        """Close the span; extra attributes merge into the record.

        Idempotent — abort paths may race a normal close.
        """
        if self.t1 is not None:
            return
        self.t1 = self._recorder.kernel.now
        self.wall1 = time.perf_counter()
        if attrs:
            self.attrs.update(attrs)
        self._recorder._finish(self)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "cat": self.cat,
            "t0": self.t0,
            "t1": self.t1,
            "dur": (self.t1 or self.t0) - self.t0,
            "wall": (self.wall1 or self.wall0) - self.wall0,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover
        state = "open" if self.t1 is None else f"dur={self.t1 - self.t0:.6f}"
        return f"<Span {self.name} {state}>"


class TraceRecorder:
    """Collects spans and counters for one kernel's lifetime."""

    def __init__(self, kernel: "Kernel", enabled: bool = False):
        self.kernel = kernel
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}

    # -- switches ------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        self.spans = []
        self.counters = {}

    # -- recording -----------------------------------------------------------

    def begin(self, name: str, cat: str | None = None, **attrs: Any):
        """Open a span; returns :data:`NULL_SPAN` when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, cat or name.split(".", 1)[0], attrs)

    def count(self, name: str, delta: float = 1) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + delta

    def _finish(self, span: Span) -> None:
        self.spans.append(span)

    # -- export --------------------------------------------------------------

    def to_dict(self) -> dict:
        """The JSON-shaped trace (see docs/OBSERVABILITY.md)."""
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "sim_time_s": self.kernel.now,
            "spans": [span.to_dict() for span in self.spans],
            "counters": dict(self.counters),
            "kernel_stats": self.kernel.stats_snapshot(),
        }

    def write_json(self, path: str) -> None:
        """Write the trace to *path* on the host filesystem."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
