"""Periodic checkpoint service.

The paper motivates asynchronous checkpointing with "support services
(e.g., schedulers) [having] the ability to checkpoint a user's job for
various reasons" (§1).  This module is such a support service: it arms
a timer against the simulated clock and requests a checkpoint of a job
every ``interval_s``, skipping cycles while a previous request is still
in flight and stopping automatically when the job reaches a terminal
state.

Usage::

    service = PeriodicCheckpointer(universe, job.jobid, interval_s=0.2)
    service.start(first_at=0.1)
    universe.run_job_to_completion(job)
    print(service.taken)        # snapshot paths, in interval order
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.tools.api import ompi_checkpoint
from repro.util.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.orte.universe import Universe

log = get_logger("tools.scheduler")


class PeriodicCheckpointer:
    """Checkpoints one job on a fixed simulated-time cadence."""

    def __init__(
        self,
        universe: "Universe",
        jobid: int,
        interval_s: float,
        max_checkpoints: int | None = None,
    ):
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        self.universe = universe
        self.jobid = jobid
        self.interval_s = interval_s
        self.max_checkpoints = max_checkpoints
        #: snapshot paths of successful checkpoints, in order
        self.taken: list[str] = []
        #: error strings of failed attempts (job finished, veto, ...)
        self.failures: list[str] = []
        self._inflight = False
        self._stopped = False

    # -- control -----------------------------------------------------------

    def start(self, first_at: float | None = None) -> "PeriodicCheckpointer":
        """Arm the first tick (defaults to one interval from now)."""
        kernel = self.universe.kernel
        when = first_at if first_at is not None else kernel.now + self.interval_s
        kernel.call_at(when, self._tick)
        return self

    def stop(self) -> None:
        self._stopped = True

    @property
    def active(self) -> bool:
        return not self._stopped

    # -- internals ------------------------------------------------------------

    def _job_running(self) -> bool:
        job = self.universe.jobs.get(self.jobid)
        return job is not None and not job.is_done

    def _tick(self) -> None:
        if self._stopped or not self._job_running():
            self._stopped = True
            return
        if not self._inflight:
            self._fire()
        self.universe.kernel.call_later(self.interval_s, self._tick)

    def _fire(self) -> None:
        self._inflight = True
        handle = ompi_checkpoint(self.universe, self.jobid, at=None, wait=False)

        def on_done():
            from repro.simenv.kernel import WaitEvent

            yield WaitEvent(handle.done)
            self._inflight = False
            reply = handle.reply or {}
            if reply.get("ok"):
                self.taken.append(reply["snapshot"])
                if (
                    self.max_checkpoints is not None
                    and len(self.taken) >= self.max_checkpoints
                ):
                    self._stopped = True
            else:
                self.failures.append(reply.get("error", "unknown"))
            return None

        self.universe.kernel.spawn(
            on_done(), name=f"ckpt-scheduler-{self.jobid}", daemon=True
        )
