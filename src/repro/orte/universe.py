"""The ORTE universe: HNP + per-node daemons + the job table.

``Universe`` boots the runtime over a :class:`repro.simenv.Cluster`:
one **HNP** ("head node process", the ``mpirun`` analogue) on the first
node and one **orted** daemon per node, all addressable over the OOB
control plane.  It also plays the role of Open MPI's name service —
mapping :class:`ProcessName` to live processes — and allocates jobids.

Everything user-facing goes through the tools layer
(:mod:`repro.tools`): ``ompi_run`` submits jobs here, and
``ompi-checkpoint``/``ompi-restart`` talk RML to the HNP exactly as the
paper's command-line tools talk to ``mpirun`` (Figure 1-A).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable

from repro.mca.params import MCAParams
from repro.orte.job import AppSpec, Job
from repro.util.errors import LaunchError
from repro.util.ids import ProcessName, daemon_name, hnp_name
from repro.util.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.mca.registry import FrameworkRegistry
    from repro.orte.hnp import HNP
    from repro.orte.orted import Orted
    from repro.orte.oob import RML
    from repro.simenv.cluster import Cluster
    from repro.simenv.kernel import SimEvent
    from repro.simenv.process import SimProcess

log = get_logger("orte.universe")

#: jobid used for tool processes (ompi-checkpoint etc.)
TOOL_JOBID = 999


class Universe:
    """One booted runtime over one cluster."""

    def __init__(
        self,
        cluster: "Cluster",
        params: MCAParams | None = None,
        make_registry: Callable[[], "FrameworkRegistry"] | None = None,
    ):
        from repro.mca.registry import default_registry
        from repro.orte.statestore import build_statestore

        self.cluster = cluster
        self.kernel = cluster.kernel
        self.params = params or MCAParams()
        if self.params.get_bool("obs_trace_enabled", False):
            self.kernel.tracer.enable()
        self.make_registry = make_registry or default_registry
        self._next_jobid = itertools.count(1)
        self._next_tool_vpid = itertools.count(0)
        self.jobs: dict[int, Job] = {}
        #: name service: ProcessName -> SimProcess
        self.directory: dict[ProcessName, "SimProcess"] = {}
        self.hnp: "HNP | None" = None
        self.orteds: dict[str, "Orted"] = {}
        #: orteds elect a successor HNP on HNP-node death
        self.failover_enabled = self.params.get_bool("orte_hnp_failover", False)
        #: failover-window probe pacing (the healthy path posts no timers)
        self.heartbeat_s = max(
            0.01, self.params.get_float("orte_hnp_heartbeat_s", 0.25)
        )
        #: durable control-plane store (Null unless failover/statestore on)
        self.statestore = build_statestore(self)
        #: failed jobid -> recovery outcome event; lives here rather than
        #: in the ErrMgr so campaign threads waiting on an outcome survive
        #: the HNP (and its ErrMgr) being replaced by failover
        self.recovery_outcomes: dict[int, "SimEvent"] = {}
        #: injected failures observed while no live HNP existed; the
        #: next incarnation drains them during rehydration
        self._orphaned_failures: list[str] = []
        #: completed HNP elections
        self.failovers = 0
        self._failover_in_flight = False
        self._boot()

    # -- boot ------------------------------------------------------------------

    def _boot(self) -> None:
        from repro.orte.hnp import HNP
        from repro.orte.orted import Orted
        from repro.simenv.process import SimProcess

        hnp_node = self.cluster.nodes[0]
        hnp_proc = SimProcess(hnp_node, hnp_name(), label="mpirun")
        self.register(hnp_proc)
        self.hnp = HNP(self, hnp_proc)
        for i, node in enumerate(self.cluster.nodes):
            orted_proc = SimProcess(node, daemon_name(i), label=f"orted@{node.name}")
            self.register(orted_proc)
            self.orteds[node.name] = Orted(self, orted_proc)

    # -- name service ---------------------------------------------------------

    def register(self, proc: "SimProcess") -> None:
        self.directory[proc.name] = proc

    def deregister(self, name: ProcessName) -> None:
        self.directory.pop(name, None)

    def lookup(self, name: ProcessName) -> "SimProcess | None":
        proc = self.directory.get(name)
        if proc is not None and not proc.alive:
            return None
        return proc

    def lookup_rml(self, name: ProcessName) -> "RML | None":
        proc = self.lookup(name)
        if proc is None:
            return None
        return proc.maybe_service("rml")

    # -- ids --------------------------------------------------------------------

    def new_jobid(self) -> int:
        return next(self._next_jobid)

    def new_tool_name(self) -> ProcessName:
        return ProcessName(TOOL_JOBID, next(self._next_tool_vpid))

    # -- jobs ------------------------------------------------------------------

    def create_job(
        self, app: AppSpec, np: int, params: MCAParams | None = None, **durable
    ) -> Job:
        """A new PENDING job, journalled at once with *durable* fields:
        a failed-over HNP never re-mints a journalled jobid."""
        if np < 1:
            raise LaunchError("np must be >= 1")
        merged = self.params.copy()
        if params is not None:
            merged.update(params)
        job = Job(self.new_jobid(), app, np, merged)
        job.done_event = self.kernel.event(f"job{job.jobid}.done")
        self.jobs[job.jobid] = job
        job.store = self.statestore
        job.change(**durable)
        return job

    def submit(self, app: AppSpec, np: int, params: MCAParams | None = None) -> Job:
        """Create a job and hand it to the HNP for launching."""
        job = self.create_job(app, np, params)
        assert self.hnp is not None
        self.hnp.submit(job)
        return job

    def job(self, jobid: int) -> Job:
        try:
            return self.jobs[jobid]
        except KeyError:
            raise LaunchError(f"no job {jobid}") from None

    # -- HNP failover ------------------------------------------------------------

    @property
    def failover_in_flight(self) -> bool:
        """True from election until the new HNP finishes rehydrating."""
        return self._failover_in_flight

    def electable_orteds(self) -> list["Orted"]:
        """Surviving orteds in election order (lowest daemon vpid wins).

        Every orted watcher computes this list independently at the
        same simulated instant, so they all agree on the winner without
        exchanging a single vote message — the deterministic election
        rule of the control plane.
        """
        return sorted(
            (o for o in self.orteds.values() if o.node.up and o.proc.alive),
            key=lambda o: o.proc.name.vpid,
        )

    def note_orphaned_failure(self, description: str) -> None:
        """Buffer an injected failure seen while no HNP was alive."""
        self._orphaned_failures.append(description)

    def drain_orphaned_failures(self) -> list[str]:
        out, self._orphaned_failures = self._orphaned_failures, []
        return out

    def restore_jobid_floor(self, floor: int) -> None:
        """Never allocate at or below *floor* (or any live jobid)."""
        self._next_jobid = itertools.count(max([floor, *self.jobs]) + 1)

    def elect_hnp(self, orted: "Orted") -> bool:
        """Install *orted*'s node as the new HNP; returns False if an
        election already ran (or the incumbent turned out alive).

        Synchronous up to the point the new HNP process exists and is
        registered — a second watcher resuming at the same instant sees
        ``failover_in_flight`` and stands down.  The rehydration itself
        (store replay, staging rebuild, job re-attach) runs in a thread
        of the new HNP process, so a failover *of the failover* is just
        another HNP death: the flag clears in its ``finally`` and the
        next election proceeds.
        """
        from repro.orte.hnp import HNP
        from repro.simenv.kernel import SimGen
        from repro.simenv.process import SimProcess

        if self._failover_in_flight:
            return False
        if self.hnp is not None and self.hnp.proc.alive:
            return False
        self._failover_in_flight = True
        # The dead incarnation's un-durable appends must not survive it.
        self.statestore.drop_pending()
        proc = SimProcess(
            orted.node, hnp_name(), label=f"mpirun@{orted.node.name}"
        )
        self.register(proc)
        hnp = HNP(self, proc, recovered=True)
        self.hnp = hnp
        self.failovers += 1
        log.warning(
            "HNP failover: orted on %s elected as the new mpirun",
            orted.node.name,
        )

        def rehydrate() -> SimGen:
            try:
                yield from hnp.rehydrate()
            finally:
                self._failover_in_flight = False

        proc.spawn_thread(rehydrate(), name="hnp-rehydrate", daemon=True)
        return True

    # -- convenience -------------------------------------------------------------

    def orted_for(self, node_name: str) -> "Orted":
        try:
            return self.orteds[node_name]
        except KeyError:
            raise LaunchError(f"no orted on node {node_name}") from None

    def run_job_to_completion(self, job: Job):
        """Drive the kernel until *job* finishes; returns its state."""

        def waiter():
            state = yield from job.wait()
            return state

        thread = self.kernel.spawn(waiter(), name=f"wait-job{job.jobid}")
        return self.kernel.run_until_complete(thread)
