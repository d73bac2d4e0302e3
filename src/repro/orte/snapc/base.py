"""SNAPC framework base.

A SNAPC component implements both coordinator sides:

* the *global* side runs in the HNP — validates requests against the
  set of checkpointable processes (the section 5.1 veto rule),
  sequences intervals, drives local coordinators, aggregates local
  snapshots into a global snapshot on stable storage, and serves
  restart requests;
* the *local* side runs in each orted — relays the request to the
  application coordinators on its node and reports their local
  snapshot references back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.mca.component import Component
from repro.simenv.kernel import SimGen

if TYPE_CHECKING:  # pragma: no cover
    from repro.mca.registry import FrameworkRegistry
    from repro.orte.hnp import HNP
    from repro.orte.job import Job
    from repro.orte.orted import Orted
    from repro.snapshot import GlobalSnapshotMeta, GlobalSnapshotRef


@dataclass
class RestartPlan:
    """One restart attempt: *ref*'s metadata as :meth:`SNAPCComponent.usable_snapshot`
    verified it, and what the storage backend read doing so (*checked*, opaque
    outside the backend), which its preload uses instead of reading again."""

    ref: "GlobalSnapshotRef"
    meta: "GlobalSnapshotMeta"
    checked: dict


class SNAPCComponent(Component):
    """Base class for snapshot-coordinator components."""

    framework_name = "snapc"

    # -- global coordinator side (HNP) --------------------------------------

    def global_checkpoint(self, hnp: "HNP", job: "Job", options: dict) -> SimGen:
        """Coordinate one distributed checkpoint of *job*.

        Returns a :class:`GlobalSnapshotRef` on success.
        """
        raise NotImplementedError
        yield  # pragma: no cover

    def global_restart(self, hnp: "HNP", plan: RestartPlan, options: dict) -> SimGen:
        """Restart a job as *plan* says; returns the new :class:`Job`."""
        raise NotImplementedError
        yield  # pragma: no cover

    def abort_job(self, hnp: "HNP", jobid: int) -> None:
        """Stop background aggregation for a failed job (called by the
        error manager before recovery walks ``job.snapshots``)."""

    def job_finished(self, hnp: "HNP", job: "Job") -> None:
        """*job* finished: what its lineage kept for a restart can go."""

    def usable_snapshot(self, hnp: "HNP", ref: "GlobalSnapshotRef", skip: set[str]) -> SimGen:
        """``(plan, None)`` if *ref* can be restarted from right now, else
        ``(None, why)``; *skip* holds refs known bad this episode.  The
        only producer of a :class:`RestartPlan`."""
        raise NotImplementedError
        yield  # pragma: no cover

    # -- local coordinator side (orted) --------------------------------------

    def local_checkpoint(self, orted: "Orted", payload: dict) -> SimGen:
        """Relay a checkpoint request to this node's app coordinators.

        Returns ``{rank: result_dict}`` for the ranks handled here.
        """
        raise NotImplementedError
        yield  # pragma: no cover


def register_snapc_components(registry: "FrameworkRegistry") -> None:
    from repro.orte.snapc.full import FullSNAPC
    from repro.orte.snapc.none_snapc import NoneSNAPC

    registry.add_component("snapc", FullSNAPC)
    registry.add_component("snapc", NoneSNAPC)
