"""``none`` SNAPC component: distributed checkpointing disabled.

The runtime-level analogue of building without FT support: any
checkpoint or restart request is rejected at the global coordinator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.mca.component import component_of
from repro.orte.snapc.base import SNAPCComponent
from repro.util.errors import CheckpointError, RestartError

if TYPE_CHECKING:  # pragma: no cover
    from repro.orte.hnp import HNP
    from repro.orte.job import Job
    from repro.orte.orted import Orted
    from repro.simenv.kernel import SimGen


@component_of("snapc", "none", priority=0)
class NoneSNAPC(SNAPCComponent):
    def global_checkpoint(self, hnp: "HNP", job: "Job", options: dict) -> "SimGen":
        raise CheckpointError("snapshot coordination disabled (snapc=none)")
        yield  # pragma: no cover

    def usable_snapshot(self, hnp: "HNP", ref, skip: set[str]) -> "SimGen":
        raise RestartError("snapshot coordination disabled (snapc=none)")
        yield  # pragma: no cover

    def local_checkpoint(self, orted: "Orted", payload: dict) -> "SimGen":
        raise CheckpointError("snapshot coordination disabled (snapc=none)")
        yield  # pragma: no cover
