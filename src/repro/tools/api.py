"""Programmatic tool API.

Every tool creates a short-lived *tool process* on the first node,
sends its request to the HNP over RML, and waits for the reply —
structurally identical to the paper's command-line tools connecting to
mpirun.  Requests can be fired immediately (driving the kernel to
completion) or scheduled at a simulated time while a job runs
(``at=``), which is how the tests model "a system administrator
checkpoints a running job".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.orte.job import AppSpec, Job
from repro.orte.oob import (
    RML,
    TAG_CKPT_REPLY,
    TAG_CKPT_REQUEST,
    TAG_MIGRATE_REPLY,
    TAG_MIGRATE_REQUEST,
    TAG_PS_REPLY,
    TAG_PS_REQUEST,
    TAG_RESTART_REPLY,
    TAG_RESTART_REQUEST,
)
from repro.simenv.kernel import SimGen
from repro.simenv.process import SimProcess
from repro.snapshot import GlobalSnapshotRef
from repro.util.errors import CheckpointError, ReproError, RestartError
from repro.util.ids import hnp_name

if TYPE_CHECKING:  # pragma: no cover
    from repro.mca.params import MCAParams
    from repro.orte.universe import Universe
    from repro.simenv.kernel import SimEvent


@dataclass
class ToolHandle:
    """Future-like handle for an asynchronous tool invocation."""

    universe: "Universe"
    #: settles with the tool thread's outcome; exists from construction,
    #: so a caller may wait on it before a scheduled tool has started
    done: "SimEvent"
    reply: dict | None = None

    def result(self) -> dict:
        """Reply payload; raises if the tool has not completed."""
        if self.reply is None:
            raise ReproError("tool has not completed yet")
        return self.reply

    def wait(self) -> dict:
        """Drive the kernel until the tool completes.

        NOTE: each ``kernel.run()`` drains every ready event, so by the
        time the reply is visible the simulation may have advanced well
        past it (jobs may have finished).  Use :meth:`wait_stepped` to
        stop close to the reply instant.
        """
        kernel = self.universe.kernel
        while self.reply is None:
            if not kernel.pending:
                raise ReproError("tool cannot complete: simulation drained")
            kernel.run()
        return self.reply

    def wait_stepped(self, step: float = 0.02) -> dict:
        """Drive the kernel in *step*-sized slices until the reply
        lands, leaving the simulation within one step of that moment."""
        kernel = self.universe.kernel
        while self.reply is None:
            if not kernel.pending:
                raise ReproError("tool cannot complete: simulation drained")
            kernel.run(until=kernel.now + step)
        return self.reply


def _tool_session(
    universe: "Universe", tag: str, payload: dict, reply_tag: str, handle: ToolHandle
) -> SimGen:
    # Tools connect from the first node still up: after an HNP-node
    # crash and failover, node 0 may be dead while the universe lives on.
    host = next(
        (node for node in universe.cluster.nodes if node.up),
        universe.cluster.nodes[0],
    )
    proc = SimProcess(host, universe.new_tool_name(), label="tool")
    universe.register(proc)
    rml = RML(universe, proc)
    try:
        _, reply = yield from rml.rpc(hnp_name(), tag, payload, reply_tag)
        handle.reply = reply
    finally:
        rml.close()
        universe.deregister(proc.name)
        proc.exit(None)
    return handle.reply


def _launch_tool(
    universe: "Universe",
    tag: str,
    payload: dict,
    reply_tag: str,
    at: float | None,
) -> ToolHandle:
    kernel = universe.kernel
    handle = ToolHandle(universe, kernel.event(f"done:tool-{tag}"))

    def start() -> None:
        thread = kernel.spawn(
            _tool_session(universe, tag, payload, reply_tag, handle),
            name=f"tool-{tag}",
        )
        # The thread has not run yet, so nothing waits on its own done
        # event: it settles the handle's instead.
        thread.done = handle.done

    if at is None:
        start()
    else:
        kernel.call_at(at, start)
    return handle


# ---------------------------------------------------------------------------
# Public tools
# ---------------------------------------------------------------------------


def ompi_run(
    universe: "Universe",
    app_name: str,
    np: int,
    args: dict | None = None,
    params: "MCAParams | None" = None,
    wait: bool = True,
) -> Job:
    """Launch an MPI job (mpirun).  With ``wait=True`` the kernel runs
    until the job reaches a terminal state."""
    job = universe.submit(AppSpec(app_name, dict(args or {})), np, params)
    if wait:
        universe.run_job_to_completion(job)
    return job


def ompi_checkpoint(
    universe: "Universe",
    jobid: int,
    at: float | None = None,
    terminate: bool = False,
    wait: bool | None = None,
    wait_stable: bool = False,
    **options,
) -> ToolHandle:
    """Checkpoint a running job.

    ``at=None`` fires now; ``wait`` defaults to True when firing now.
    The reply carries the global snapshot reference path.  By default
    the reply arrives as soon as every local snapshot is written and
    the job has resumed; ``wait_stable=True`` restores the old
    synchronous behaviour (reply only after the global snapshot is
    committed to stable storage).
    """
    opts = dict(options)
    opts["terminate"] = terminate
    if wait_stable:
        opts["wait_stable"] = True
    handle = _launch_tool(
        universe,
        TAG_CKPT_REQUEST,
        {"jobid": jobid, "options": opts},
        TAG_CKPT_REPLY,
        at,
    )
    if wait is None:
        wait = at is None
    if wait:
        handle.wait()
        if not handle.reply.get("ok"):
            raise CheckpointError(handle.reply.get("error", "checkpoint failed"))
    return handle


def checkpoint_ref(handle: ToolHandle) -> GlobalSnapshotRef:
    """Extract the global snapshot reference from a checkpoint reply."""
    reply = handle.result()
    if not reply.get("ok"):
        raise CheckpointError(reply.get("error", "checkpoint failed"))
    return GlobalSnapshotRef(reply["snapshot"])


def ompi_restart(
    universe: "Universe",
    snapshot: "GlobalSnapshotRef | str",
    at: float | None = None,
    wait: bool = True,
    **options,
) -> "Job | ToolHandle":
    """Restart a job from a global snapshot reference.

    With ``wait=True`` returns the restarted :class:`Job` after it
    finishes; otherwise returns the :class:`ToolHandle` (its reply
    carries the new jobid).
    """
    path = snapshot.path if isinstance(snapshot, GlobalSnapshotRef) else snapshot
    handle = _launch_tool(
        universe,
        TAG_RESTART_REQUEST,
        {"snapshot": path, "options": dict(options)},
        TAG_RESTART_REPLY,
        at,
    )
    if not wait:
        return handle
    handle.wait()
    reply = handle.result()
    if not reply.get("ok"):
        raise RestartError(reply.get("error", "restart failed"))
    job = universe.job(reply["jobid"])
    universe.run_job_to_completion(job)
    return job


def ompi_migrate(
    universe: "Universe",
    jobid: int,
    placement: dict[int, str],
    at: float | None = None,
    wait: bool = True,
) -> "Job | ToolHandle":
    """Migrate a running job's ranks onto different nodes.

    Implemented as the paper's section-8 extension: checkpoint the job
    to stable storage, let its processes terminate, and restart it with
    the requested ``rank -> node`` placement (ranks not listed keep
    their usual placement preference).  With ``wait=True`` returns the
    migrated :class:`Job` after it finishes.
    """
    handle = _launch_tool(
        universe,
        TAG_MIGRATE_REQUEST,
        {"jobid": jobid, "placement": dict(placement)},
        TAG_MIGRATE_REPLY,
        at,
    )
    if not wait:
        return handle
    handle.wait()
    reply = handle.result()
    if not reply.get("ok"):
        raise RestartError(reply.get("error", "migration failed"))
    job = universe.job(reply["jobid"])
    universe.run_job_to_completion(job)
    return job


def ompi_ps(universe: "Universe") -> list[dict]:
    """List jobs known to the HNP (like the paper's ompi-ps)."""
    handle = _launch_tool(universe, TAG_PS_REQUEST, {}, TAG_PS_REPLY, None)
    handle.wait()
    return handle.result()["jobs"]
