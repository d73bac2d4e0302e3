"""``full`` SNAPC component — the paper's centralized coordinator.

Reproduces Figure 1's message flow:

* **A** — a tool (or an application's synchronous request) reaches the
  global coordinator in mpirun over OOB;
* **B/C** — the global coordinator fans the request to the local
  coordinators (orteds), which relay it to the application coordinators
  (the checkpoint notification threads);
* **D/E** — completion notifications flow back up;
* **F** — the global coordinator drives FILEM to aggregate the local
  snapshots into the global snapshot on stable storage *while the
  application resumes normal operation*: the request is answered and
  the job returns to RUNNING as soon as D/E are in; the gather, local
  cleanup, and metadata commit run in the background staging
  coordinator (:mod:`repro.orte.snapc.staging`).  Callers who want the
  old synchronous behaviour pass ``wait_stable``.
* **A** — the global snapshot reference is returned to the requester.

Section 5.1's veto rule is enforced before anything happens: if any
process in the request is not checkpointable, the request fails and no
process is affected.

Incremental checkpointing rides the same flow: the staging coordinator
plans each interval as full or delta (``snapc_full_interval_every``),
the ranks are told which base interval to diff against, and the global
metadata records the base-chain of directories a delta restart needs.

Restart is checked once: :meth:`FullSNAPC.usable_snapshot` returns a
:class:`RestartPlan` (or why there is none) to the tool, migration and
recovery alike, and :meth:`FullSNAPC.global_restart` runs the plan.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.mca.component import component_of
from repro.mca.params import MCAParams
from repro.orte.job import AppSpec, JobState
from repro.orte.oob import (
    TAG_CKPT_ABORT,
    TAG_CKPT_DO,
    TAG_CKPT_DONE,
    TAG_CKPT_TERM_ACK,
    TAG_SNAPC_LOCAL,
    TAG_SNAPC_LOCAL_DONE,
)
from repro.orte.snapc.base import RestartPlan, SNAPCComponent
from repro.orte.snapc.staging import (
    FULL_PLAN,
    KIND_DELTA,
    KIND_FULL,
    StagingCoordinator,
    StagingRecord,
)
from repro.simenv.kernel import Delay, WaitAll, WaitAny
from repro.snapshot import (
    SNAPSHOT_ROOT,
    STAGE_COMMITTED,
    STAGE_FAILED,
    STAGE_STAGING,
    GlobalSnapshotMeta,
    GlobalSnapshotRef,
    global_snapshot_dirname,
    local_snapshot_dir,
    parse_global_dirname,
    read_global_meta,
    staging_state,
)
from repro.util.errors import (
    CheckpointError,
    NetworkError,
    NotCheckpointableError,
    ReproError,
)
from repro.util.ids import ProcessName
from repro.util.logging import get_logger
from repro.vfs import path as vpath

if TYPE_CHECKING:  # pragma: no cover
    from repro.orte.hnp import HNP
    from repro.orte.job import Job
    from repro.orte.orted import Orted
    from repro.simenv.kernel import SimGen

log = get_logger("orte.snapc")

#: how long a request waits for readiness registrations still in flight
READY_GRACE_S = 0.05

#: request options consumed by the coordinator, not forwarded to ranks
_COORDINATOR_OPTIONS = ("wait_stable",)


@component_of("snapc", "full", priority=10)
class FullSNAPC(SNAPCComponent):
    # ------------------------------------------------------------------
    # Staging coordinator plumbing
    # ------------------------------------------------------------------

    def stager(self, hnp: "HNP") -> StagingCoordinator:
        """The per-HNP background staging coordinator (lazily built)."""
        stager = getattr(self, "_stager", None)
        if stager is None or stager.hnp is not hnp:
            stager = StagingCoordinator(self, hnp)
            self._stager = stager
        return stager

    def abort_job(self, hnp: "HNP", jobid: int) -> None:
        self.stager(hnp).abort_job(jobid)

    def job_finished(self, hnp: "HNP", job: "Job") -> None:
        for backend in self.stager(hnp).backends.values():
            backend.finished(job)

    def usable_snapshot(self, hnp: "HNP", ref: GlobalSnapshotRef, skip: set[str]) -> "SimGen":
        # Nothing is remembered between calls: persisted state is
        # verified afresh, so a transient fault or a since-repaired
        # store does not cost a good interval forever.
        from repro.apps.registry import has_app

        stager = self.stager(hnp)
        # An interval still staging here is waited for (recovery never
        # waits: ``job.snapshots`` holds COMMITTED intervals only).
        parsed = parse_global_dirname(ref.path)
        record = stager.record_for(*parsed) if parsed is not None else None
        if record is not None and (yield from stager.wait_settled(record)) != STAGE_COMMITTED:
            return None, f"never reached stable storage: {record.error or 'staging failed'}"
        try:
            meta = yield from read_global_meta(hnp.universe.cluster.stable_fs, ref)
        except ReproError as exc:
            return None, f"metadata unreadable: {exc}"
        staging = meta.staging or {}
        if staging.get("state") == STAGE_FAILED:
            return None, f"never reached stable storage: {staging.get('error') or 'staging failed'}"
        if staging.get("state") == STAGE_STAGING:
            # no live record (the coordinating HNP is gone) and the
            # metadata says the aggregation never finished
            return None, "incomplete: staging never committed"
        if not has_app(meta.app_name):
            return None, f"unknown application {meta.app_name!r}"
        plan = RestartPlan(ref, meta, {})
        why = yield from stager.backends[meta.cas].unusable(ref, meta, skip, plan.checked)
        return (None, why) if why else (plan, None)

    @staticmethod
    def _daemon_for(hnp: "HNP", node_name: str) -> ProcessName:
        """Resolve a node's orted address from the universe, not the
        node's name string (node naming schemes are configurable)."""
        return hnp.universe.orted_for(node_name).proc.name

    # ------------------------------------------------------------------
    # Global coordinator (runs in mpirun)
    # ------------------------------------------------------------------

    def global_checkpoint(self, hnp: "HNP", job: "Job", options: dict) -> "SimGen":
        if job.state != JobState.RUNNING:
            raise CheckpointError(
                f"job {job.jobid} is {job.state.value}, cannot checkpoint"
            )
        # Readiness registrations travel over OOB and may still be in
        # flight when a request arrives just after launch; give them a
        # short grace period before applying the section-5.1 veto.
        deadline = hnp.proc.kernel.now + READY_GRACE_S
        while True:
            ready = hnp.ckpt_ready.get(job.jobid, set())
            missing = sorted(set(range(job.np)) - ready)
            if not missing:
                break
            if hnp.proc.kernel.now >= deadline or job.state != JobState.RUNNING:
                # Section 5.1: notify the user; affect no process.
                raise NotCheckpointableError(
                    [str(ProcessName(job.jobid, r)) for r in missing]
                )
            yield Delay(READY_GRACE_S / 10)

        stager = self.stager(hnp)
        terminate = bool(options.get("terminate", False))
        wait_stable = bool(options.get("wait_stable", False))

        # Backpressure: a bounded number of intervals may be staging at
        # once; block here — before the application is disturbed —
        # until the pipeline has room.
        yield from stager.acquire_slot(job.jobid)
        if job.state != JobState.RUNNING:
            stager.release_slot(job.jobid)
            raise CheckpointError(
                f"job {job.jobid} is {job.state.value}, cannot checkpoint"
            )

        interval = job.next_interval
        job.change(JobState.CHECKPOINTING, next_interval=interval + 1)
        tracer = hnp.proc.kernel.tracer
        ckpt_span = tracer.begin(
            "snapc.checkpoint", cat="snapc", jobid=job.jobid,
            interval=interval, np=job.np,
        )
        job.halting = terminate
        stable = hnp.universe.cluster.stable_fs
        global_dir = vpath.join(
            SNAPSHOT_ROOT, global_snapshot_dirname(job.jobid, interval)
        )
        stable.mkdir(global_dir)
        ref = GlobalSnapshotRef(global_dir)
        direct_stable = hnp.filem.wants_direct_stable

        # Full or delta?  The staging coordinator owns the chain state.
        plan = stager.plan_interval(job.jobid)
        rank_options = {
            k: v for k, v in options.items() if k not in _COORDINATOR_OPTIONS
        }
        if plan["kind"] == KIND_DELTA:
            rank_options["incremental"] = True
            rank_options["base_interval"] = plan["base_interval"]

        # Fan out to the local coordinators, one RPC per involved node.
        by_node: dict[str, list[int]] = {}
        for rank, node_name in job.placements.items():
            by_node.setdefault(node_name, []).append(rank)

        results: dict[int, dict] = {}
        errors: list[str] = []
        abort_sent = {"done": False}

        def abort_one(rank: int) -> "SimGen":
            try:
                yield from hnp.rml.send(
                    ProcessName(job.jobid, rank), TAG_CKPT_ABORT, {}
                )
            except NetworkError:
                pass
            return None

        def broadcast_abort() -> "SimGen":
            """One rank vetoed mid-flight: release everyone else.

            The sends fan out concurrently — a sequential loop would
            serialize OOB latency across np ranks while vetoed
            processes sit blocked.
            """
            if abort_sent["done"]:
                return None
            abort_sent["done"] = True
            abort_events = [
                hnp.proc.spawn_thread(
                    abort_one(rank), name=f"snapc-abort-{rank}", daemon=True
                ).done
                for rank in range(job.np)
            ]
            yield WaitAll(abort_events)
            return None

        # where each rank writes its local snapshot
        targets = {
            rank: {"fs": "stable", "dir": ref.local_dir(rank)} if direct_stable
            else {"fs": "local", "dir": local_snapshot_dir(job.jobid, interval, rank)}
            for rank in range(job.np)
        }

        def contact(node_name: str, ranks: list[int]) -> "SimGen":
            try:
                _, reply = yield from hnp.rml.rpc(
                    self._daemon_for(hnp, node_name),
                    TAG_SNAPC_LOCAL,
                    {
                        "jobid": job.jobid,
                        "interval": interval,
                        "ranks": ranks,
                        "targets": {rank: targets[rank] for rank in ranks},
                        "terminate": terminate,
                        "options": dict(rank_options),
                    },
                    TAG_SNAPC_LOCAL_DONE,
                )
            except NetworkError as exc:
                errors.append(f"{node_name}: {exc}")
                yield from broadcast_abort()
                return None
            failed_here = False
            for rank_str, result in reply.get("results", {}).items():
                rank = int(rank_str)
                if result.get("ok"):
                    results[rank] = result
                else:
                    errors.append(f"rank {rank}: {result.get('error')}")
                    failed_here = True
            if failed_here:
                yield from broadcast_abort()
            return None

        # Figure 1 B–E: request fan-out to the local coordinators and
        # the completion notifications flowing back.
        fanout_span = tracer.begin(
            "snapc.fanout", cat="snapc", jobid=job.jobid,
            interval=interval, nodes=len(by_node),
        )
        events = []
        for node_name, ranks in sorted(by_node.items()):
            thread = hnp.proc.spawn_thread(
                contact(node_name, ranks),
                name=f"snapc-global-{node_name}",
                daemon=True,
            )
            events.append(thread.done)
        yield WaitAll(events)
        fanout_span.end(errors=len(errors))

        if errors or len(results) != job.np:
            job.halting = False
            if job.state == JobState.CHECKPOINTING:
                job.change(JobState.RUNNING)
            stager.release_slot(job.jobid)
            # no record names what the ranks wrote: it goes now, on threads nobody waits for
            local = [] if direct_stable else [(n, targets[r]["dir"]) for r, n in job.placements.items()]
            stager.backends[False].drop_local("fanout", local)
            hnp.proc.spawn_thread(stable.remove_tree(global_dir), name="fanout-cleanup", daemon=True)
            ckpt_span.end(ok=False)
            raise CheckpointError(
                f"checkpoint of job {job.jobid} failed: "
                + "; ".join(errors or ["missing local snapshots"])
            )

        # A delta interval where every rank fell back to a full image
        # (cold or mismatched chunk caches, e.g. after an aborted
        # attempt) is recorded as full so the chain does not grow.
        if plan["kind"] == KIND_DELTA and all(
            r.get("kind", KIND_FULL) == KIND_FULL for r in results.values()
        ):
            plan = dict(FULL_PLAN)

        # Tree or content-addressed: decided from the replies, once.
        backend = stager.backend_for(results)
        meta = GlobalSnapshotMeta(
            jobid=job.jobid,
            interval=interval,
            n_procs=job.np,
            sim_time=hnp.proc.kernel.now,
            app_name=job.app.name,
            app_args=dict(job.app.args),
            mca_params=job.params.to_dict(),
            locals={
                rank: {
                    "path": ref.local_dir(rank),
                    "node": results[rank]["node"],
                    "crs": results[rank]["crs"],
                    "os_tag": results[rank]["os_tag"],
                    "portable": results[rank].get("portable", True),
                    "last_rank": rank,
                    "kind": results[rank].get("kind", KIND_FULL),
                    "bytes": results[rank].get("bytes", 0),
                }
                for rank in sorted(results)
            },
            kind=plan["kind"],
            base_interval=plan["base_interval"],
            base_chain=list(plan["base_chain"]),
            cas=backend.cas,
            staging=staging_state(STAGE_STAGING),
        )
        record = StagingRecord.of(ref, meta, hnp.proc.kernel)
        backend.describe(record, results)
        # Figure 1-F: the application resumes normal operation NOW; the
        # aggregation runs in the background staging worker (our slot
        # transfers to the record and is released when it settles).
        stager.dispatch(record)
        ckpt_span.end(ok=True, kind=plan["kind"])
        if not terminate and job.state == JobState.CHECKPOINTING:
            job.change(JobState.RUNNING)
        log.info(
            "job %d checkpoint interval %d (%s) local phase complete -> %s",
            job.jobid,
            interval,
            plan["kind"],
            ref.path,
        )
        if wait_stable:
            state = yield from stager.wait_settled(record)
            if state != STAGE_COMMITTED:
                raise CheckpointError(
                    f"checkpoint of job {job.jobid} interval {interval} "
                    f"failed to reach stable storage: {record.error}"
                )
        return ref

    # ------------------------------------------------------------------
    # Restart (global coordinator side)
    # ------------------------------------------------------------------

    def global_restart(self, hnp: "HNP", plan: RestartPlan, options: dict) -> "SimGen":
        universe = hnp.universe
        ref, meta = plan.ref, plan.meta
        app = AppSpec(meta.app_name, dict(meta.app_args))
        params = MCAParams.from_dict(meta.mca_params)
        # Allow the restart request to override selected parameters
        # (e.g. a different BTL on the new topology).
        for key, value in options.get("mca_overrides", {}).items():
            params.set(key, value)
        # Seed the new job's snapshot history with the interval it came
        # from (preceded by the committed ancestors that interval
        # depends on): a failure before the job's first own checkpoint
        # then still has a recovery baseline to walk back through.
        job = universe.create_job(
            app, meta.n_procs, params, restarted_from=ref,
            snapshots=[
                GlobalSnapshotRef(d) for d in meta.base_chain if d != ref.path
            ] + [ref],
        )

        placements = hnp.plan_restart_placement(meta, options.get("placement"))
        backend = self.stager(hnp).backends[meta.cas]
        specs, entries = yield from backend.plan_restart(plan, job, placements)
        try:
            if entries:
                yield from backend.preload(plan, entries)
            yield from hnp.launch_and_init(job, specs)
        except ReproError:
            # A node dying mid-restart (during preload or launch) must
            # not leave the half-built job PENDING/LAUNCHING forever —
            # mark it failed so retrying recovery can re-plan placement.
            job.mark_failed()
            hnp.errmgr._abort_survivors(job)
            backend.drop_preload(entries, specs, job)
            raise
        # every rank read its image before it answered INIT_READY
        backend.drop_preload(entries, specs, job)
        log.info(
            "job %d restarted from %s as job %d", meta.jobid, ref.path, job.jobid
        )
        return job

    # ------------------------------------------------------------------
    # Local coordinator (runs in each orted)
    # ------------------------------------------------------------------

    def local_checkpoint(self, orted: "Orted", payload: dict) -> "SimGen":
        jobid = payload["jobid"]
        results: dict[int, dict] = {}
        local_span = orted.proc.kernel.tracer.begin(
            "snapc.local", cat="snapc", jobid=jobid,
            node=orted.proc.node.name, ranks=len(payload["ranks"]),
        )

        def one_rank(rank: int) -> "SimGen":
            target = payload["targets"][rank]
            name = ProcessName(jobid, rank)
            proc = orted.universe.lookup(name)
            if proc is None:
                results[rank] = {"ok": False, "error": f"{name} not found"}
                return None
            request = {
                "interval": payload["interval"],
                "fs": target["fs"],
                "dir": target["dir"],
                "terminate": payload["terminate"],
                "options": payload.get("options", {}),
            }

            def do_rpc() -> "SimGen":
                _, reply = yield from orted.rml.rpc(
                    name, TAG_CKPT_DO, request, TAG_CKPT_DONE
                )
                return reply

            rpc_thread = orted.proc.spawn_thread(
                do_rpc(), name=f"snapc-local-rpc-{rank}", daemon=True
            )
            index, value, exc = yield WaitAny(
                [rpc_thread.done, proc.exit_event]
            )
            if index == 0 and exc is None and value is not None:
                results[rank] = value
                if payload["terminate"] and value.get("ok"):
                    try:
                        yield from orted.rml.send(name, TAG_CKPT_TERM_ACK, {})
                    except NetworkError:
                        pass
            elif index == 1:
                rpc_thread.kill()
                results[rank] = {
                    "ok": False,
                    "error": f"{name} exited during checkpoint",
                }
            else:
                results[rank] = {"ok": False, "error": str(exc or "rpc failed")}
            return None

        events = []
        for rank in payload["ranks"]:
            thread = orted.proc.spawn_thread(
                one_rank(rank), name=f"snapc-local-{rank}", daemon=True
            )
            events.append(thread.done)
        yield WaitAll(events)
        local_span.end(
            ok=all(r.get("ok") for r in results.values())
        )
        return {str(rank): result for rank, result in results.items()}
