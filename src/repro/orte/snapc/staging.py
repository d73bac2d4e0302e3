"""Background staging coordinator for SNAPC ``full`` (Figure 1-F).

The paper says the global coordinator aggregates local snapshots onto
stable storage *while the application resumes normal operation*.  This
module makes that true: once every local snapshot is written and the
D/E notifications are back, the checkpoint request is answered and the
job returns to RUNNING; the FILEM gather, local-staging cleanup, and
global-metadata commit run here, in a per-job background worker inside
the HNP.

Lifecycle of one interval (a :class:`StagingRecord`, declared as
:data:`STAGE_LIFECYCLE`):

``STAGING`` (enqueued, metadata persisted with ``staging.state =
"staging"``) → ``COMMITTED`` (all local snapshots on stable storage,
metadata rewritten, the interval appended to ``job.snapshots``) or
``FAILED`` (a source node died mid-stage and retries were exhausted —
the application is never touched; the interval is simply not usable
and the next checkpoint is forced to a full image).

Ordering and backpressure: one worker per job drains a FIFO queue, so
intervals commit in request order; at most ``STAGE_DEPTH`` intervals may
be in flight (queued or staging), and a new checkpoint request blocks —
*before* the application is disturbed — until a slot frees up.

The coordinator also owns the incremental-checkpoint planning state:
which interval the next delta should diff against, the base-chain of
global directories a delta interval depends on, full-image cadence
(``snapc_full_interval_every``), and when a chain is compacted
(``snapc_full_max_chain`` — a chain that would grow past the bound is
reset during the newest interval's commit, leaving the app alone).

*How* an interval's bytes are moved, compacted, checked and brought back
is the business of its :class:`~repro.orte.snapc.backends.StagingBackend`,
looked up by ``record.cas`` / ``meta.cas``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.mca.params import Param
from repro.opal.crs.chunks import KIND_DELTA, KIND_FULL
from repro.orte.job import JobState
from repro.orte.snapc.backends import CasBackend, StagingBackend, TreeBackend
from repro.orte.statestore import IllegalTransition
from repro.simenv.kernel import SimGen, WaitEvent
from repro.snapshot import (
    LOCAL_STAGING_ROOT,
    SNAPSHOT_ROOT,
    STAGE_COMMITTED,
    STAGE_FAILED,
    STAGE_STAGING,
    GlobalSnapshotMeta,
    GlobalSnapshotRef,
    local_snapshot_dir,
    parse_global_dirname,
    read_global_meta,
    staging_state,
    write_global_meta,
)
from repro.util.errors import (
    NetworkError,
    ReproError,
    SnapshotError,
    VFSError,
)
from repro.util.logging import get_logger
from repro.vfs import path as vpath

if TYPE_CHECKING:  # pragma: no cover
    from repro.orte.hnp import HNP
    from repro.orte.snapc.full import FullSNAPC
    from repro.simenv.kernel import Kernel, Queue, SimEvent
    from repro.vfs.fsbase import FS

log = get_logger("orte.snapc.stage")

FULL_EVERY = Param("snapc_full_interval_every", 1, "every Nth interval is full, the rest deltas (1 = always full)")
MAX_CHAIN = Param("snapc_full_max_chain", 4, "delta-chain length past which a commit compacts the newest interval")
STAGE_DEPTH = 2  # intervals one job may have queued or staging before a new request blocks

#: the plan of an interval that stands on its own (plans and records
#: speak of kinds in the chunk format's words, KIND_FULL / KIND_DELTA)
FULL_PLAN = {
    "kind": KIND_FULL,
    "base_interval": None,
    "base_chain": [],
}


#: each state -> the states an interval may move to
STAGE_LIFECYCLE = {STAGE_STAGING: {STAGE_COMMITTED, STAGE_FAILED}}
#: a node-local snapshot tree of one interval: (tree, jobid, interval)
_LOCAL_TREE = re.compile(rf"^({LOCAL_STAGING_ROOT}/job(\d+)/interval(\d+))/")


@dataclass
class StagingRecord:
    """One interval's journey from local snapshots to stable storage.

    Its lifecycle state is ``meta.staging``, and the interval's global
    ``metadata.json`` is its one durable form: a failed-over HNP rebuilds
    the record from that document (:meth:`StagingCoordinator.rehydrate`),
    and the COMMITTED documents are the never-re-ship contract.
    """

    ref: GlobalSnapshotRef
    meta: GlobalSnapshotMeta
    #: global snapshot dirs this interval depends on (oldest first)
    base_chain: list[str]
    done: "SimEvent"
    enqueued_at: float
    #: what the backend's ``describe`` kept of the ranks' replies
    #: (opaque to the coordinator; never persisted)
    rank_manifests: dict = field(default_factory=dict)
    bytes_moved: int = 0
    #: sum of the ranks' logical image sizes (set by the CAS backend;
    #: the dedup ratio is bytes_logical / bytes_moved)
    bytes_logical: int = 0
    committed_at: float | None = None

    @classmethod
    def of(cls, ref: GlobalSnapshotRef, meta: GlobalSnapshotMeta, kernel: "Kernel") -> "StagingRecord":
        """The record *meta* describes: a new interval's, or one a
        failed-over HNP rebuilds from its ``metadata.json``."""
        return cls(
            ref=ref, meta=meta, base_chain=list(meta.base_chain),
            done=kernel.event(f"snapc.commit.job{meta.jobid}.{meta.interval}"),
            enqueued_at=meta.sim_time,
            committed_at=meta.staging.get("committed_sim_time"),
        )

    @property
    def jobid(self) -> int:
        return self.meta.jobid

    @property
    def interval(self) -> int:
        return self.meta.interval

    @property
    def state(self) -> str:
        return self.meta.staging["state"]

    @property
    def error(self) -> str | None:
        return self.meta.staging.get("error")

    @property
    def kind(self) -> str:
        """Full or delta: what the ranks were asked to write."""
        return self.meta.kind

    @property
    def cas(self) -> bool:
        """Which backend stores this interval (False: tree, True: CAS)."""
        return self.meta.cas

    @property
    def settled(self) -> bool:
        return self.state != STAGE_STAGING

    @property
    def gather_entries(self) -> list[tuple[str, str, str]]:
        """FILEM work, by rank: ``(node, local source dir, stable dir)``."""
        return [
            (info["node"], local_snapshot_dir(self.jobid, self.interval, rank),
             self.ref.local_dir(rank))
            for rank, info in sorted(self.meta.locals.items())
        ]

    def move(self, stable: "FS", state: str, error: str | None = None) -> SimGen:
        """The one lifecycle change: check the :data:`STAGE_LIFECYCLE`
        edge, and return the write of the new ``meta.staging`` to *stable*
        (its value is the error if stable storage bounced it, else None).
        A FAILED interval is failed at once; a COMMITTED one only once its
        metadata landed, so it is never observable as stable before it is."""
        if state not in STAGE_LIFECYCLE.get(self.state, ()):
            raise IllegalTransition(f"staging: {self.state} -> {state}")
        if state == STAGE_FAILED:
            self.meta.staging = staging_state(state, error)
            return self.persist(stable)
        return self._commit(stable, staging_state(state, committed_sim_time=stable.kernel.now))

    def _commit(self, stable: "FS", staging: dict) -> SimGen:
        bounced = yield from self.persist(stable, replace(self.meta, staging=staging))
        if bounced is None:
            self.meta.staging, self.committed_at = staging, stable.kernel.now
        return bounced

    def persist(self, stable: "FS", meta: GlobalSnapshotMeta | None = None) -> SimGen:
        """Write *meta* (the record's own by default) as the interval's
        ``metadata.json``; returns the error if stable storage bounced it."""
        meta = meta or self.meta
        span = stable.kernel.tracer.begin(
            "snapc.meta", cat="snapc", jobid=self.jobid, interval=self.interval,
        )
        try:
            yield from write_global_meta(stable, self.ref, meta)
        except (VFSError, NetworkError) as exc:
            return str(exc)
        span.end(state=meta.staging.get("state"))
        return None


@dataclass
class _JobStaging:
    """Per-job staging pipeline state."""

    jobid: int
    queue: "Queue"
    slot_event: "SimEvent"
    inflight: int = 0
    worker_started: bool = False
    records: dict[int, StagingRecord] = field(default_factory=dict)
    #: global dirs whose staging failed — anything chained on them is doomed
    failed_dirs: set[str] = field(default_factory=set)
    #: next checkpoint must be a full image (set after a staging failure)
    force_full: bool = False
    #: delta intervals dispatched since the last full one
    since_full: int = 0
    #: global dirs since the last full interval, oldest (the full) first
    chain_dirs: list[str] = field(default_factory=list)
    #: last interval whose local snapshots were successfully written
    last_interval: int | None = None
    #: the job failed; queued and in-flight intervals must not commit
    aborted: bool = False


class StagingCoordinator:
    """Per-HNP owner of the background staging pipeline."""

    def __init__(self, snapc: "FullSNAPC", hnp: "HNP"):
        self.snapc = snapc
        self.hnp = hnp
        self.every = max(1, FULL_EVERY.read(snapc.params))
        self.max_chain = max(1, MAX_CHAIN.read(snapc.params))
        #: ``record.cas`` / ``meta.cas`` -> the backend storing that interval
        self.backends: dict[bool, StagingBackend] = {
            False: TreeBackend(self),
            True: CasBackend(self),
        }
        self._jobs: dict[int, _JobStaging] = {}

    def backend_for(self, results: dict[int, dict]) -> StagingBackend:
        """The backend a new interval with these rank replies stages by."""
        return self.backends[self.backends[True].accepts(results)]

    @property
    def _kernel(self) -> "Kernel":
        return self.hnp.proc.kernel

    @property
    def _stable(self) -> "FS":
        return self.hnp.universe.cluster.stable_fs

    def _state(self, jobid: int) -> _JobStaging:
        st = self._jobs.get(jobid)
        if st is None:
            st = _JobStaging(
                jobid=jobid,
                queue=self._kernel.queue(f"snapc.stage.job{jobid}"),
                slot_event=self._kernel.event(f"snapc.stage.slot.job{jobid}"),
            )
            self._jobs[jobid] = st
        return st

    # -- backpressure --------------------------------------------------------

    def acquire_slot(self, jobid: int) -> SimGen:
        """Block until fewer than ``STAGE_DEPTH`` intervals are in flight."""
        st = self._state(jobid)
        while st.inflight >= STAGE_DEPTH:
            yield WaitEvent(st.slot_event)
        st.inflight += 1
        return None

    def release_slot(self, jobid: int) -> None:
        """Give a slot back without dispatching (aborted checkpoint)."""
        self._free_slot(self._state(jobid))

    def _free_slot(self, st: _JobStaging) -> None:
        st.inflight = max(0, st.inflight - 1)
        old, st.slot_event = st.slot_event, self._kernel.event(
            f"snapc.stage.slot.job{st.jobid}"
        )
        if not old.fired:
            old.fire(None)

    # -- incremental planning ------------------------------------------------

    def plan_interval(self, jobid: int) -> dict:
        """Decide full vs delta for the next interval (no state change).

        Returns ``{"kind", "base_interval", "base_chain"}``.
        """
        st = self._state(jobid)
        incremental = (
            self.every > 1
            and st.last_interval is not None
            and not st.force_full
            and st.since_full < self.every - 1
            and bool(st.chain_dirs)
        )
        if not incremental:
            return dict(FULL_PLAN)
        return {
            "kind": KIND_DELTA,
            "base_interval": st.last_interval,
            "base_chain": list(st.chain_dirs),
        }

    def _compacts(self, record: StagingRecord) -> bool:
        """A delta whose chain would grow past ``max_chain`` is rewritten
        as a full image during its commit."""
        return record.kind == KIND_DELTA and len(record.base_chain) + 1 > self.max_chain

    def _doom(self, st: _JobStaging, record: StagingRecord) -> None:
        """*record* failed: anything chained on it is doomed and the next
        checkpoint is forced to a full image."""
        st.failed_dirs.add(record.ref.path)
        st.force_full = True

    # -- dispatch ------------------------------------------------------------

    def dispatch(self, record: StagingRecord) -> None:
        """Hand a fanned-out interval to the background worker.

        The caller's backpressure slot transfers to the record; the
        worker releases it when the interval settles.
        """
        st = self._state(record.jobid)
        st.records[record.interval] = record
        st.last_interval = record.interval
        if record.kind == KIND_FULL or self._compacts(record):
            st.since_full = 0
            st.chain_dirs = [record.ref.path]
            st.force_full = False
        else:
            st.since_full += 1
            st.chain_dirs.append(record.ref.path)
        st.queue.put(record)
        if not st.worker_started:
            st.worker_started = True
            self.hnp.proc.spawn_thread(
                self._worker(st), name=f"snapc-stage-job{record.jobid}",
                daemon=True,
            )

    # -- abort (error manager) -------------------------------------------------

    _ABORT_ERROR = "staging aborted: job failed"

    def abort_job(self, jobid: int) -> None:
        """Stop staging for a failed job (called by the error manager).

        Queued (not yet started) intervals are failed immediately, and
        no interval of an aborted job is ever appended to its
        ``job.snapshots`` — recovery may already be walking that list.
        The one interval already mid-gather is allowed to settle on its
        own merits: its data predates the failure, so if the gather
        succeeds its COMMITTED metadata remains valid for an explicit
        ``ompi-restart``.
        """
        st = self._jobs.get(jobid)
        if st is None or st.aborted:
            return
        st.aborted = True
        st.force_full = True
        while True:
            ok, record = st.queue.try_get()
            if not ok:
                break
            write = record.move(self._stable, STAGE_FAILED, self._ABORT_ERROR)
            self._doom(st, record)
            if not record.done.fired:
                record.done.fire(record.state)
            if self.hnp.proc.alive:
                self.hnp.proc.spawn_thread(
                    write,
                    name=f"snapc-stage-abort-{record.jobid}.{record.interval}",
                    daemon=True,
                )
            self._free_slot(st)
        log.warning("job %d staging pipeline aborted", jobid)

    # -- lookup (restart / tools) ----------------------------------------------

    def record_for(self, jobid: int, interval: int) -> StagingRecord | None:
        st = self._jobs.get(jobid)
        return st.records.get(interval) if st is not None else None

    def wait_settled(self, record: StagingRecord) -> SimGen:
        """Block until *record* commits or fails; returns its state."""
        if not record.settled:
            yield WaitEvent(record.done)
        return record.state

    def committed_meta(self, path: str) -> SimGen:
        """The metadata of global snapshot directory *path* if it is
        COMMITTED — by the live record when this coordinator has one,
        and by what is persisted on stable storage — else None."""
        parsed = parse_global_dirname(path)
        live = self.record_for(*parsed) if parsed is not None else None
        if live is not None and live.state != STAGE_COMMITTED:
            return None
        try:
            meta = yield from read_global_meta(self._stable, GlobalSnapshotRef(path))
        except ReproError:
            return None
        state = (meta.staging or {}).get("state", STAGE_COMMITTED)
        return meta if state == STAGE_COMMITTED else None

    # -- the worker ------------------------------------------------------------

    def _worker(self, st: _JobStaging) -> SimGen:
        while True:
            record = yield from st.queue.get()
            try:
                yield from self._stage_one(st, record)
            finally:
                self._free_slot(st)

    def _stage_one(self, st: _JobStaging, record: StagingRecord) -> SimGen:
        backend = self.backends[record.cas]
        span = self._kernel.tracer.begin(
            "snapc.stage", cat="snapc", jobid=record.jobid,
            interval=record.interval, kind=record.kind,
            entries=len(record.gather_entries),
        )
        # Persist the in-flight state first so the interval is never
        # observable as stable before it is.  An injected stable-storage
        # write fault here fails the interval, not the worker thread.
        bounced = yield from record.persist(self._stable)
        if bounced:
            error = f"staging metadata write failed: {bounced}"
        else:
            error = backend.doomed_by(record, st.failed_dirs)

        if error is None:
            error = yield from backend.stage(record)

        if error is None and self._compacts(record):
            error = yield from backend.compact(record)

        if error is None:
            bounced = yield from record.move(self._stable, STAGE_COMMITTED)
            if bounced:
                # The data landed but the commit record did not: the
                # interval is not observably stable, so it fails (and
                # the next checkpoint is forced full).
                error = f"commit metadata write failed: {bounced}"

        if error is None:
            job = self.hnp.universe.jobs.get(record.jobid)
            # HALTED jobs (checkpoint-and-terminate) still collect their
            # final commit; FAILED jobs must not — recovery may already
            # be walking job.snapshots.
            if job is not None and not st.aborted and job.state != JobState.FAILED:
                job.snapshots = [*job.snapshots, record.ref]
            log.info(
                "job %d interval %d committed to stable storage (%s, %d bytes)",
                record.jobid, record.interval, record.kind, record.bytes_moved,
            )
        else:
            yield from record.move(self._stable, STAGE_FAILED, error)
            self._doom(st, record)
            log.warning(
                "job %d interval %d failed to stage: %s",
                record.jobid, record.interval, error,
            )
        span.end(ok=error is None, bytes=record.bytes_moved)
        backend.settled(record)
        if not record.done.fired:
            record.done.fire(record.state)
        return None

    # -- HNP failover rehydration -------------------------------------------------

    def rehydrate(self) -> SimGen:
        """Rebuild the staging pipeline from stable storage (new HNP).

        Lists the global snapshot root once and reads each interval's
        ``metadata.json``, the one durable record of its lifecycle.
        Returns ``(restaged, lost, adopted, swept)``: STAGING intervals
        re-dispatched through the normal worker; STAGING intervals that
        could not be (source node gone, local snapshots unreadable, or a
        newer interval of the job already COMMITTED), failed durably and
        never silently dropped; COMMITTED and FAILED intervals adopted as
        bookkeeping; and the node-local trees :meth:`_sweep` removed.
        COMMITTED intervals are **never re-shipped**: the bytes already
        on stable storage are the source of truth.  Re-dispatch itself is
        idempotent — every backend's ``stage`` skips what already landed
        — so an interval half-staged by the dead HNP finishes instead of
        doubling.
        """
        stable = self._stable
        names = yield from stable.listdir(SNAPSHOT_ROOT)
        records = []
        for _parsed, name in sorted((p, n) for n in names if (p := parse_global_dirname(n))):
            ref = GlobalSnapshotRef(vpath.join(SNAPSHOT_ROOT, name))
            try:
                meta = yield from read_global_meta(stable, ref)
            except (SnapshotError, VFSError) as exc:
                log.warning("%s not rehydrated: %s", ref.path, exc)
                continue
            records.append(StagingRecord.of(ref, meta, self._kernel))
        newest = {r.jobid: r.interval for r in records if r.state == STAGE_COMMITTED}
        restaged = lost = adopted = 0
        for record in records:
            st = self._state(record.jobid)
            # Delta-chain planning state died with the old HNP; the
            # next checkpoint of every rehydrated job is forced full.
            st.force_full = True
            st.last_interval = max(st.last_interval or 0, record.interval)
            job = self.hnp.universe.jobs.get(record.jobid)
            if record.settled:
                record.done.fire(record.state)
                st.records[record.interval] = record
                if record.state == STAGE_FAILED:
                    st.failed_dirs.add(record.ref.path)
                elif job is not None and record.ref not in job.snapshots:
                    # Records arrive in interval order, so the newest
                    # committed interval lands last — what restart picks.
                    job.snapshots = [*job.snapshots, record.ref]
                adopted += 1
            elif (yield from self._restage(st, record, newest.get(record.jobid, 0))):
                restaged += 1
            else:
                lost += 1
        return restaged, lost, adopted, self._sweep()

    def _restage(self, st: _JobStaging, record: StagingRecord, newest: int) -> SimGen:
        """Re-dispatch one in-flight interval; True if it re-entered the
        pipeline, False if it had to be failed durably.  One older than
        the job's *newest* COMMITTED interval (its FAILED write bounced
        before the old HNP died) is failed: restaging it would put an
        older snapshot after a newer one in ``job.snapshots``."""
        if record.interval < newest:
            error = f"superseded by committed interval {newest}"
        else:
            error = yield from self.backends[record.cas].resume(record)
        if error is None:
            yield from self.acquire_slot(st.jobid)
            self.dispatch(record)
            log.info(
                "job %d interval %d re-dispatched after HNP failover",
                st.jobid, record.interval,
            )
            return True
        # Unrecoverable: ``staging.state = failed`` goes into the global
        # metadata (updated, never clobbered) so an explicit
        # ``ompi-restart`` never picks the interval up.
        st.records[record.interval] = record
        write = record.move(self._stable, STAGE_FAILED, error)
        self._doom(st, record)
        record.done.fire(record.state)
        yield from write
        log.warning(
            "job %d interval %d lost across HNP failover: %s",
            st.jobid, record.interval, error,
        )
        return False

    def _sweep(self) -> int:
        """Remove every node-local ``/ckpt/job<J>/interval<K>`` tree that
        no restaged interval and no lineage's kept level needs — one
        whose interval the old HNP forgot, failed, or was still removing
        when it died — through the FILEM; returns how many."""
        cas = self.backends[True]
        keep = {(r.jobid, r.interval) for st in self._jobs.values() for r in st.records.values() if not r.settled}
        keep |= {(k.jobid, k.interval) for job in self.hnp.universe.jobs.values() if (k := cas.kept(job))}
        trees = sorted({
            (node.name, match[1])
            for node in self.hnp.universe.cluster.nodes
            if node.up and node.local_fs is not None
            for path in node.local_fs.list_tree(LOCAL_STAGING_ROOT)
            if (match := _LOCAL_TREE.match(path))
            and (int(match[2]), int(match[3])) not in keep
        })
        cas.drop_local("sweep", trees)
        return len(trees)

    def job_records(self, jobid: int) -> list[StagingRecord]:
        """All staging records of *jobid*, in interval order."""
        st = self._jobs.get(jobid)
        if st is None:
            return []
        return [st.records[i] for i in sorted(st.records)]
