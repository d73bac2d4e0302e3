"""Counts and ratios read off a settled universe's internals.

These reach past the public surface (staging records, the error
manager's log, the state store's counters, each rank's PML), so every
read is tolerant: an attribute that a later PR renames or removes
yields ``None`` plus a warning on stderr, never a crash, and no
end-to-end metric is computed here.
"""

from __future__ import annotations

import sys
from typing import Any, Callable

from repro.snapshot import STAGE_COMMITTED, STAGE_FAILED

from bench.workloads import MIB, staging_records

def _read(name: str, fn: Callable[[], Any]) -> Any:
    try:
        return fn()
    except (AttributeError, KeyError, TypeError) as exc:
        print(f"bench: adapter {name} unavailable: {exc!r}", file=sys.stderr)
        return None


def _ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


def _pml_stat(universes: list, key: str) -> int:
    total = 0
    for universe in universes:
        for job in universe.jobs.values():
            for proc in job.procs.values():
                ompi = proc.maybe_service("ompi")
                if ompi is not None:
                    total += ompi.pml.stats[key]
    return total


def counts(universes: list) -> dict[str, float | None]:
    """The 15 count-and-ratio metrics over one repetition's universes.

    Each metric is read on its own, so a renamed field costs that
    metric and no other.
    """

    def records() -> list:
        return [r for universe in universes for r in staging_records(universe)]

    def recovered() -> list:
        return [
            episode
            for universe in universes
            for episode in universe.hnp.errmgr.recovery_log
            if episode.recovered
        ]

    def dedup_ratio() -> float:
        # logical / moved on the CAS cells
        cas = [r for r in records() if r.cas and r.bytes_moved]
        return _ratio(sum(r.bytes_logical for r in cas), sum(r.bytes_moved for r in cas))

    def delta_write_ratio() -> float:
        # bytes shipped on delta intervals / what full images would ship
        full = [r.bytes_moved for r in records() if r.kind == "full" and r.bytes_moved]
        delta = [r.bytes_moved for r in records() if r.kind == "delta"]
        return _ratio(sum(delta), len(delta) * _ratio(sum(full), len(full)))

    def store_sum(attr: str) -> Callable[[], int]:
        # the null store (no failover) journals nothing: a true zero
        return lambda: sum(
            getattr(universe.statestore, attr)
            for universe in universes
            if universe.statestore.enabled
        )

    readers: dict[str, Callable[[], Any]] = {
        "snapc.intervals_requested": lambda: len(records()),
        "snapc.intervals_committed": lambda: sum(
            r.state == STAGE_COMMITTED for r in records()
        ),
        "snapc.intervals_failed": lambda: sum(r.state == STAGE_FAILED for r in records()),
        "filem.moved_mib": lambda: sum(r.bytes_moved for r in records()) / MIB,
        "filem.dedup_ratio": dedup_ratio,
        "crs.delta_write_ratio": delta_write_ratio,
        "errmgr.recoveries": lambda: len(recovered()),
        "errmgr.attempts_per_recovery": lambda: _ratio(
            sum(e.attempts for e in recovered()), len(recovered())
        ),
        "hnp.failovers": lambda: sum(u.failovers for u in universes),
        "statestore.appended": store_sum("appended"),
        "statestore.compactions": store_sum("compactions"),
        "statestore.dropped": store_sum("dropped"),
        "pml.eager_sent": lambda: _pml_stat(universes, "eager_sent"),
        "pml.rndv_sent": lambda: _pml_stat(universes, "rndv_sent"),
        "pml.unexpected": lambda: _pml_stat(universes, "unexpected"),
    }
    return {name: _read(name, fn) for name, fn in readers.items()}
