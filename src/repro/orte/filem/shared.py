"""``shared`` FILEM component: snapshots live on stable storage directly.

When every node mounts the shared RAID filesystem, local snapshots can
be written straight to their final location; gather degenerates to a
metadata existence check and a restart plans no preload (restarted
processes read their chain off stable storage).  This is what many
production sites run and the natural baseline for the E5 experiment.

Selected by ``--mca filem shared``; by default ``rsh`` wins (as in the
paper, whose first component was rsh-based).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.mca.component import component_of
from repro.orte.filem.base import FILEMComponent
from repro.simenv.kernel import Delay, SimGen
from repro.util.errors import VFSError

if TYPE_CHECKING:  # pragma: no cover
    from repro.orte.hnp import HNP


@component_of("filem", "shared", priority=5)
class SharedFILEM(FILEMComponent):
    wants_direct_stable = True

    def _probe(self, hnp: "HNP", entries, span_name: str) -> SimGen:
        """Snapshots already sit at their destination; verify presence."""
        span = hnp.proc.kernel.tracer.begin(
            span_name, cat="filem", entries=len(entries)
        )
        stable = hnp.universe.cluster.stable_fs
        yield Delay(stable.op_latency_s * max(1, len(entries)))
        for _node, src_dir, dst_dir in entries:
            # Snapshots were written directly at their destination.
            probe = dst_dir if stable.isdir(dst_dir) else src_dir
            if not stable.isdir(probe):
                span.end(bytes=0)
                raise VFSError(f"expected snapshot tree missing: {dst_dir}")
        span.end(bytes=0)
        return 0

    def gather(self, hnp: "HNP", entries: list[tuple[str, str, str]]) -> SimGen:
        moved = yield from self._probe(hnp, entries, "filem.gather")
        return moved

    def remove(self, hnp: "HNP", entries: list[tuple[str, str]]) -> SimGen:
        # Nothing was staged on node-local disks.
        yield Delay(0.0)
        return 0

    def stage_out(self, hnp: "HNP", entries: list[tuple[str, str, str]]) -> SimGen:
        # Snapshots were written directly at their final location;
        # verify presence, nothing to move and nothing to clean up.
        moved = yield from self._probe(hnp, entries, "filem.stage_out")
        return moved
