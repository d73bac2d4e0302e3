"""Jobs, application specs, and process placement.

An :class:`AppSpec` names a registered application (see
:mod:`repro.apps.registry`) plus its arguments; because the name and
arguments are recorded in global snapshot metadata, ``ompi-restart``
can reconstruct the job without the user re-supplying anything (paper
section 4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.orte.statestore import Durable
from repro.simenv.kernel import SimGen, WaitEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.simenv.process import SimProcess
    from repro.snapshot import GlobalSnapshotRef


@dataclass(frozen=True)
class AppSpec:
    """What to run: a registered app name + arguments."""

    name: str
    args: dict = field(default_factory=dict)


@dataclass
class ProcSpec:
    """Launch instructions for a single rank."""

    jobid: int
    rank: int
    node_name: str
    app: AppSpec
    #: present on the restart path: where the preloaded local snapshot
    #: lives on the target node ("fs" is "local" or "stable"), and the
    #: "digest" a snapshot the node kept since its checkpoint must match
    restart_from: dict | None = None


class JobState(enum.Enum):
    PENDING = "pending"
    LAUNCHING = "launching"
    RUNNING = "running"
    CHECKPOINTING = "checkpointing"
    FINISHED = "finished"
    FAILED = "failed"
    HALTED = "halted"  # checkpoint-and-terminate


#: each state -> the states a job may move to (terminal ones: none)
JOB_LIFECYCLE = {
    JobState.PENDING: {JobState.LAUNCHING, JobState.FAILED},
    JobState.LAUNCHING: {JobState.RUNNING, JobState.FAILED},
    JobState.RUNNING: {JobState.CHECKPOINTING, JobState.FINISHED, JobState.FAILED},
    JobState.CHECKPOINTING: {
        JobState.RUNNING, JobState.HALTED, JobState.FINISHED, JobState.FAILED,
    },
}


class Job(Durable):
    """One parallel application instance (a ``jobs`` row)."""

    TABLE = "jobs"
    LIFECYCLE = JOB_LIFECYCLE

    def __init__(self, jobid: int, app: AppSpec, np: int, params):
        self.jobid = jobid
        self.app = app
        self.np = np
        self.params = params
        self.state = JobState.PENDING
        self.procs: dict[int, "SimProcess"] = {}
        self.placements: dict[int, str] = {}
        self.results: dict[int, Any] = {}
        self.exited: set[int] = set()
        self.failed_ranks: set[int] = set()
        self.done_event = None  # set by Universe (needs kernel)
        #: True while a checkpoint-and-terminate is in progress
        self.halting = False
        #: checkpoint interval counter (paper section 4: logical ordering)
        self.next_interval = 1
        #: global snapshot refs taken of this job, in interval order (not
        #: journalled: a successor HNP finds them on stable storage)
        self.snapshots: list["GlobalSnapshotRef"] = []
        #: restarted-from reference, if this job came from ompi-restart
        self.restarted_from: "GlobalSnapshotRef | None" = None

    def durable_key(self) -> str:
        return str(self.jobid)

    def to_durable(self) -> dict:
        # CHECKPOINTING journals as running: its coordination dies with
        # the HNP, and a successor resumes the job RUNNING.
        state = self.state
        if state is JobState.CHECKPOINTING:
            state = JobState.RUNNING
        return {
            "app": self.app.name,
            "app_args": dict(self.app.args),
            "np": self.np,
            "state": state.value,
            "placements": {str(r): n for r, n in self.placements.items()},
            "restarted_from": (
                self.restarted_from.path if self.restarted_from else None
            ),
            "next_interval": self.next_interval,
        }

    @property
    def is_done(self) -> bool:
        return self.state in (JobState.FINISHED, JobState.FAILED, JobState.HALTED)

    def note_exit(self, rank: int, result: Any, failed: bool) -> None:
        self.exited.add(rank)
        if failed:
            self.failed_ranks.add(rank)
        else:
            self.results[rank] = result
        if len(self.exited) == self.np and not self.is_done:
            if self.failed_ranks:
                self._end(JobState.FAILED)
            else:
                self._end(JobState.HALTED if self.halting else JobState.FINISHED)

    def mark_failed(self) -> None:
        if not self.is_done:
            self._end(JobState.FAILED)

    def _end(self, state: JobState) -> None:
        self.change(state)
        if self.done_event is not None and not self.done_event.fired:
            self.done_event.fire(state)

    def wait(self) -> SimGen:
        """Generator: block until the job reaches a terminal state."""
        if self.is_done:
            return self.state
        state = yield WaitEvent(self.done_event)
        return state

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Job {self.jobid} app={self.app.name} np={self.np} "
            f"{self.state.value}>"
        )
