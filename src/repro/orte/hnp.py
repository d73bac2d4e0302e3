"""HNP — the head node process (``mpirun`` analogue).

Hosts the global snapshot coordinator (paper Figure 1), the PLM and
FILEM frameworks, the job init/modex rendezvous, and the tool-facing
request handlers (checkpoint, restart, ps).  All incoming control
traffic is served by per-tag daemon threads so a long-running
checkpoint never blocks job management.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.orte.errmgr import ErrMgr
from repro.orte.job import Job, JobState, ProcSpec
from repro.orte.scheduler import CheckpointScheduler
from repro.orte.oob import (
    RML,
    TAG_CKPT_READY,
    TAG_CKPT_REPLY,
    TAG_CKPT_REQUEST,
    TAG_HNP_HEARTBEAT,
    TAG_INIT_GO,
    TAG_INIT_READY,
    TAG_MIGRATE_REPLY,
    TAG_MIGRATE_REQUEST,
    TAG_PROC_EXIT,
    TAG_PS_REPLY,
    TAG_PS_REQUEST,
    TAG_RESTART_REPLY,
    TAG_RESTART_REQUEST,
)
from repro.orte.statestore import DurableMap
from repro.simenv.kernel import Delay, Queue, SimGen, WaitEvent
from repro.snapshot import GlobalSnapshotRef, parse_global_dirname
from repro.util.errors import (
    CheckpointError, LaunchError, NetworkError, ReproError, RestartError,
)
from repro.util.ids import ProcessName
from repro.util.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.orte.universe import Universe
    from repro.simenv.process import SimProcess
    from repro.snapshot import GlobalSnapshotMeta

log = get_logger("orte.hnp")


class HNP:
    """The mpirun process's brain."""

    def __init__(
        self, universe: "Universe", proc: "SimProcess", recovered: bool = False
    ):
        self.universe = universe
        self.proc = proc
        #: True for an incarnation installed by HNP failover
        self.recovered = recovered
        self.rml = RML(universe, proc)
        #: durable control-plane store; the writer thread runs in this
        #: incarnation's process, so it dies (and is re-attached) with it
        self.statestore = universe.statestore
        self.statestore.attach(proc)
        self.registry = universe.make_registry()
        self.plm = self.registry.framework("plm").open(universe.params, context=self)
        self.snapc = self.registry.framework("snapc").open(universe.params, context=self)
        self.filem = self.registry.framework("filem").open(universe.params, context=self)
        self.errmgr = ErrMgr(self)
        self.ckpt_scheduler = CheckpointScheduler(self)
        #: jobid -> frozenset of ranks registered checkpointable (section
        #: 5.1); a ``ready`` row each
        self.ckpt_ready = DurableMap(
            self.statestore, "ready", encode=sorted, decode=frozenset
        )
        #: jobid -> queue of INIT_READY payloads
        self._init_queues: dict[int, Queue] = {}
        self._start_handlers()
        if universe.failover_enabled:
            self.proc.spawn_thread(
                self._drain_heartbeats(), name="hnp-heartbeat", daemon=True
            )

    # -- handler plumbing ---------------------------------------------------

    def _start_handlers(self) -> None:
        handlers = {
            TAG_INIT_READY: self._on_init_ready,
            TAG_PROC_EXIT: self._on_proc_exit,
            TAG_CKPT_READY: self._on_ckpt_ready,
            TAG_CKPT_REQUEST: self._on_ckpt_request,
            TAG_RESTART_REQUEST: self._on_restart_request,
            TAG_MIGRATE_REQUEST: self._on_migrate_request,
            TAG_PS_REQUEST: self._on_ps_request,
        }
        for tag, handler in handlers.items():
            self.proc.spawn_thread(
                self._serve(tag, handler), name=f"hnp-{tag}", daemon=True
            )

    def _serve(self, tag: str, handler) -> SimGen:
        while True:
            sender, payload = yield from self.rml.recv(tag)
            # Spawn a worker per message so slow handlers don't starve
            # the tag queue.
            self.proc.spawn_thread(
                handler(sender, payload), name=f"hnp-{tag}-worker", daemon=True
            )

    def _drain_heartbeats(self) -> SimGen:
        """Answer route-probes by existing: orted watchers only need
        the send to succeed, so draining the tag is the whole job."""
        while True:
            yield from self.rml.recv(TAG_HNP_HEARTBEAT)

    # -- job launch -----------------------------------------------------------

    def submit(self, job: Job) -> None:
        """Asynchronously launch *job* (called from outside the sim)."""
        specs = self._plan_placement(job)
        self.proc.spawn_thread(
            self._launch_wrapper(job, specs), name=f"hnp-launch-job{job.jobid}",
            daemon=True,
        )

    def _launch_wrapper(self, job: Job, specs: list[ProcSpec]) -> SimGen:
        try:
            yield from self.launch_and_init(job, specs)
        except ReproError as exc:
            log.warning("launch of job %d failed: %s", job.jobid, exc)
            job.mark_failed()
            # Ranks that did come up are orphans of a dead launch.
            self.errmgr._abort_survivors(job)
        return None

    def _plan_placement(self, job: Job) -> list[ProcSpec]:
        up = [n for n in self.universe.cluster.nodes if n.up]
        if not up:
            raise LaunchError("no nodes available")
        specs = []
        for rank in range(job.np):
            node = up[rank % len(up)]
            specs.append(
                ProcSpec(
                    jobid=job.jobid,
                    rank=rank,
                    node_name=node.name,
                    app=job.app,
                )
            )
        return specs

    def plan_restart_placement(
        self, meta: "GlobalSnapshotMeta", forced: dict | None = None
    ) -> dict[int, str]:
        """Map a snapshot's ranks to up nodes, honouring image portability.

        A rank goes back to its origin node while that is up (where the
        node may have kept its snapshot).  A displaced rank goes to an up
        node its image runs on (any, if portable) — restarting "in new
        process topologies" per section 6.3: the first that is no rank's
        origin and not yet used by the job, so it crowds no rank that
        stayed, else round-robin over them all.  ``forced`` (rank -> node
        name) overrides the preference per rank — the migration path —
        but still respects portability.
        """
        up = {n.name: n for n in self.universe.cluster.nodes if n.up}
        if not up:
            raise RestartError("no nodes available for restart")
        forced = {int(k): v for k, v in (forced or {}).items()}
        taken = {info["node"] for info in meta.locals.values()}
        placements: dict[int, str] = {}
        spill = 0
        for rank in range(meta.n_procs):
            info = meta.locals.get(rank)
            if info is None:
                raise RestartError(f"global snapshot missing rank {rank}")
            origin, portable, os_tag = info["node"], bool(info.get("portable", True)), info.get("os_tag")
            if rank in forced:
                target = up.get(forced[rank])
                if target is None:
                    raise RestartError(
                        f"rank {rank}: requested node {forced[rank]} is not up"
                    )
                if not portable and target.os_tag != os_tag:
                    raise RestartError(
                        f"rank {rank}: image ({os_tag}) is not "
                        f"portable to {target.name} ({target.os_tag})"
                    )
            elif origin in up:
                placements[rank] = origin
                continue
            else:
                candidates = [n for n in up.values() if portable or n.os_tag == os_tag]
                if not candidates:
                    raise RestartError(
                        f"rank {rank}: image from {origin} ({os_tag}) "
                        "has no compatible up node"
                    )
                fresh = next((n for n in candidates if n.name not in taken), None)
                target = fresh or candidates[spill % len(candidates)]
                spill += 1
            placements[rank] = target.name
            taken.add(target.name)
        return placements

    def launch_and_init(self, job: Job, specs: list[ProcSpec]) -> SimGen:
        """PLM launch + the MPI_INIT rendezvous (modex exchange)."""
        job.change(
            JobState.LAUNCHING, placements={s.rank: s.node_name for s in specs}
        )
        init_queue = self.proc.kernel.queue(f"init.job{job.jobid}")
        self._init_queues[job.jobid] = init_queue
        yield from self.plm.launch(self, specs)
        # Gather one INIT_READY (with a business card) per rank.  A
        # rank dying before initializing (e.g. a corrupt restart image)
        # aborts the whole launch rather than waiting forever.
        cards: dict[int, dict] = {}
        while len(cards) < job.np:
            payload = yield from init_queue.get()
            if "launch_abort" in payload:
                self._init_queues.pop(job.jobid, None)
                job.mark_failed()
                self.errmgr._abort_survivors(job)
                raise LaunchError(payload["launch_abort"])
            cards[payload["rank"]] = payload["card"]
        # Broadcast the modex: every rank learns every endpoint.
        modex = {rank: cards[rank] for rank in sorted(cards)}
        for rank in sorted(cards):
            yield from self.rml.send(
                ProcessName(job.jobid, rank),
                TAG_INIT_GO,
                {"modex": modex, "np": job.np},
            )
        self._init_queues.pop(job.jobid, None)
        if job.is_done:
            # A rank died while the modex went out: a failed launch.
            raise LaunchError(f"job {job.jobid} failed during launch")
        job.change(JobState.RUNNING)
        # Recovered jobs come through here too, so every incarnation
        # keeps checkpointing on the configured cadence.
        self.ckpt_scheduler.attach(job)
        return job

    # -- handlers ------------------------------------------------------------

    def _on_init_ready(self, sender, payload: dict) -> SimGen:
        queue = self._init_queues.get(payload["jobid"])
        if queue is not None:
            queue.put(payload)
        yield from ()
        return None

    def _on_proc_exit(self, sender, payload: dict) -> SimGen:
        jobid, rank = payload["jobid"], payload["rank"]
        job = self.universe.jobs.get(jobid)
        if job is None:
            return None
        failed, was_done = payload.get("failed", False), job.is_done
        job.note_exit(rank, payload.get("result"), failed)
        if job.state is JobState.FINISHED and not was_done:
            self.snapc.job_finished(self, job)
        if rank in self.ckpt_ready.get(jobid, ()):
            self.ckpt_ready[jobid] -= {rank}
        if failed:
            init_queue = self._init_queues.get(jobid)
            if init_queue is not None:
                # Still mid-init: wake the launch so it can abort.
                init_queue.put(
                    {
                        "launch_abort": (
                            f"rank {rank} died during init: "
                            f"{payload.get('result')}"
                        )
                    }
                )
            yield from self.errmgr.on_rank_failure(job, rank, payload.get("result"))
        return None

    def _on_ckpt_ready(self, sender, payload: dict) -> SimGen:
        jobid, rank = payload["jobid"], {payload["rank"]}
        ready = self.ckpt_ready.get(jobid, frozenset())
        self.ckpt_ready[jobid] = (
            ready | rank if payload.get("ready", True) else ready - rank
        )
        yield from ()
        return None

    def _on_ckpt_request(self, sender, payload: dict) -> SimGen:
        jobid = payload.get("jobid")
        options = payload.get("options", {})
        try:
            job = self.universe.job(jobid)
            ref = yield from self.snapc.global_checkpoint(self, job, options)
            # Parse the interval from the snapshot name itself —
            # ``job.next_interval - 1`` races when checkpoints overlap.
            parsed = parse_global_dirname(ref.path)
            reply = {
                "ok": True,
                "snapshot": ref.path,
                "interval": parsed[1] if parsed else None,
            }
        except ReproError as exc:
            reply = {"ok": False, "error": str(exc)}
        try:
            yield from self.rml.send(
                sender, TAG_CKPT_REPLY, self.rml.reply_to(payload, reply)
            )
        except NetworkError:
            pass  # requester vanished; nothing to do
        return None

    def _restart(self, ref: GlobalSnapshotRef, options: dict) -> SimGen:
        """Check *ref* once, then restart from it (the tools' restart)."""
        plan, why = yield from self.snapc.usable_snapshot(self, ref, set())
        if plan is None:
            raise RestartError(f"snapshot {ref.path}: {why}")
        return (yield from self.snapc.global_restart(self, plan, options))

    def _on_restart_request(self, sender, payload: dict) -> SimGen:
        try:
            ref = GlobalSnapshotRef(payload["snapshot"])
            job = yield from self._restart(ref, payload.get("options", {}))
            reply = {"ok": True, "jobid": job.jobid}
        except ReproError as exc:
            reply = {"ok": False, "error": str(exc)}
        try:
            yield from self.rml.send(
                sender, TAG_RESTART_REPLY, self.rml.reply_to(payload, reply)
            )
        except NetworkError:
            pass
        return None

    def _on_migrate_request(self, sender, payload: dict) -> SimGen:
        """Process migration (a paper section 8 extension): checkpoint
        the job to stable storage, let it terminate, and restart it
        with the requested rank→node placement."""
        try:
            job = self.universe.job(payload["jobid"])
            # A periodic checkpoint may be in flight; wait it out.
            for _attempt in range(200):
                if job.state != JobState.CHECKPOINTING:
                    break
                yield Delay(0.01)
            else:
                raise CheckpointError(
                    f"job {job.jobid} stuck checkpointing; cannot migrate"
                )
            ref = yield from self.snapc.global_checkpoint(
                self, job, {"terminate": True}
            )
            if not job.is_done:
                yield WaitEvent(job.done_event)
            new_job = yield from self._restart(ref, {"placement": payload.get("placement", {})})
            reply = {"ok": True, "jobid": new_job.jobid, "snapshot": ref.path}
        except ReproError as exc:
            reply = {"ok": False, "error": str(exc)}
        try:
            yield from self.rml.send(
                sender, TAG_MIGRATE_REPLY, self.rml.reply_to(payload, reply)
            )
        except NetworkError:
            pass
        return None

    def _on_ps_request(self, sender, payload: dict) -> SimGen:
        table = []
        for job in self.universe.jobs.values():
            table.append(
                {
                    "jobid": job.jobid,
                    "app": job.app.name,
                    "np": job.np,
                    "state": job.state.value,
                    "placements": dict(job.placements),
                    "snapshots": [ref.path for ref in job.snapshots],
                    "checkpointable": sorted(
                        self.ckpt_ready.get(job.jobid, set())
                    ),
                }
            )
        try:
            yield from self.rml.send(
                sender, TAG_PS_REPLY, self.rml.reply_to(payload, {"jobs": table})
            )
        except NetworkError:
            pass
        return None

    # -- failover rehydration --------------------------------------------------

    def rehydrate(self) -> SimGen:
        """Rebuild the control plane from the durable store (new HNP).

        Ordering is load-bearing: (1) replay the store; (2) restore the
        jobid floor (the highest journalled jobid) before anything can
        mint a job; (3) error-manager lineages/budgets/episodes and
        scheduler cadence state, which later steps consult; (4)
        checkpointable-rank registrations, filtered to ranks still
        alive; (5) rebuild staging from the global metadata on stable
        storage (committed intervals adopted, in-flight ones re-staged
        idempotently, node-local trees nothing needs swept); (6) hand off
        failures injected while no HNP was alive; (7) re-attach live
        jobs, re-plan half-launched incarnations, and journal every job
        as it now is; (8) resume recovery episodes the old HNP left
        unsettled.
        Every table is decoded by its record type's codec, and restoring
        goes through the funnel, which journals nothing already held.
        """
        universe = self.universe
        span = self.proc.kernel.tracer.begin(
            "hnp.failover", cat="orte", node=self.proc.node.name
        )
        tables = yield from self.statestore.replay()
        jobs = tables.get("jobs", {})
        universe.restore_jobid_floor(max(map(int, jobs), default=0))
        # Live Job objects survive in universe.jobs (campaign followers
        # hold references to them and their done events); the journal
        # contributes the one counter only it may have kept higher.
        for key, row in jobs.items():
            job = universe.jobs.get(int(key))
            if job is not None and row["next_interval"] > job.next_interval:
                job.change(next_interval=row["next_interval"])
        self.errmgr.rehydrate(tables)
        self.ckpt_scheduler.rehydrate(tables.get("sched", {}))
        self.ckpt_ready.restore({
            key: [r for r in ranks if universe.lookup(ProcessName(int(key), r))]
            for key, ranks in tables.get("ready", {}).items()
        })
        restaged = lost = adopted = swept = 0
        stager_fn = getattr(self.snapc, "stager", None)
        if stager_fn is not None:
            restaged, lost, adopted, swept = yield from stager_fn(self).rehydrate()
        # Failures injected while no HNP was alive hand off here; one
        # zero-delay hop lets the spawned handlers mark their jobs
        # FAILED before the re-attach pass assesses states.
        orphaned = universe.drain_orphaned_failures()
        for description in orphaned:
            self.errmgr._on_injected_failure(description)
        if orphaned:
            yield Delay(0.0)
        reattached, replanned = self._reattach_jobs()
        self.errmgr.resume_pending()
        span.end(
            committed_adopted=adopted,
            restaged=restaged,
            lost=lost,
            swept=swept,
            orphaned=len(orphaned),
            reattached=reattached,
            replanned=replanned,
        )
        log.warning(
            "HNP on %s rehydrated: %d interval(s) adopted, %d restaged, "
            "%d lost, %d job(s) reattached, %d re-planned",
            self.proc.node.name, adopted, restaged, lost, reattached,
            replanned,
        )
        return None

    def _reattach_jobs(self) -> tuple[int, int]:
        """Adopt or re-plan every non-terminal job; returns the counts
        ``(reattached, replanned)``.

        RUNNING jobs with all ranks alive re-attach to the checkpoint
        scheduler.  CHECKPOINTING flips back to RUNNING first — the
        coordination RPCs died with the old HNP, but the orted-side
        local phase settles on its own and the ranks resume computing (a
        checkpoint-and-terminate stays CHECKPOINTING until it halts).
        A job caught LAUNCHING lost its modex rendezvous and cannot be
        completed, only re-planned through the error manager; PENDING
        jobs are simply re-submitted.  Jobs with dead ranks go down the
        ordinary rank-failure path (detection the PROC_EXIT message
        never got to deliver).  Every adopted job is then journalled as
        it is: the dead incarnation's last appends may have been dropped.
        """
        universe = self.universe
        reattached = replanned = 0
        for jobid in sorted(universe.jobs):
            job = universe.jobs[jobid]
            if job.is_done:
                continue
            if job.state == JobState.PENDING:
                self.submit(job)
                replanned += 1
                continue
            if job.state == JobState.LAUNCHING:
                job.mark_failed()
                self.errmgr._abort_survivors(job)
                replanned += 1
                continue
            if job.state == JobState.CHECKPOINTING and not job.halting:
                job.change(JobState.RUNNING)
            dead = [
                rank for rank in range(job.np)
                if self.universe.lookup(ProcessName(job.jobid, rank)) is None
            ]
            if dead:
                self.proc.spawn_thread(
                    self.errmgr._handle_lost_ranks(
                        job, dead, "rank lost across HNP failover"
                    ),
                    name=f"errmgr-failover-job{job.jobid}",
                    daemon=True,
                )
                replanned += 1
            else:
                self.ckpt_scheduler.attach(job)
                reattached += 1
        for job in universe.jobs.values():
            job.change()
        return reattached, replanned
