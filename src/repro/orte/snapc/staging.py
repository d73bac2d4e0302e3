"""Background staging coordinator for SNAPC ``full`` (Figure 1-F).

The paper says the global coordinator aggregates local snapshots onto
stable storage *while the application resumes normal operation*.  This
module makes that true: once every local snapshot is written and the
D/E notifications are back, the checkpoint request is answered and the
job returns to RUNNING; the FILEM gather, local-staging cleanup, and
global-metadata commit run here, in a per-job background worker inside
the HNP.

Lifecycle of one interval (a :class:`StagingRecord`):

``STAGING`` (enqueued, metadata persisted with ``staging.state =
"staging"``) → ``COMMITTED`` (all local snapshots on stable storage,
metadata rewritten, the interval appended to ``job.snapshots``) or
``FAILED`` (a source node died mid-stage and retries were exhausted —
the application is never touched; the interval is simply not usable
and the next checkpoint is forced to a full image).

Ordering and backpressure: one worker per job drains a FIFO queue, so
intervals commit in request order; at most ``snapc_full_stage_depth``
intervals may be in flight (queued or staging), and a new checkpoint
request blocks — *before* the application is disturbed — until a slot
frees up.

The coordinator also owns the incremental-checkpoint planning state:
which interval the next delta should diff against, the base-chain of
global directories a delta interval depends on, full-image cadence
(``snapc_full_interval_every``), and chain-length compaction
(``snapc_full_max_chain`` — when a chain would grow past the bound the
newest interval is rewritten as a full image on stable storage during
its commit, resetting the chain without touching the application).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.opal.crs import chunks as chunkstore
from repro.orte.job import JobState
from repro.orte.snapc.admission import StagingAdmission
from repro.simenv.kernel import Delay, SimGen, WaitEvent
from repro.snapshot import (
    IMAGE_FILE,
    LOCAL_META,
    STAGE_COMMITTED,
    STAGE_FAILED,
    STAGE_STAGING,
    GlobalSnapshotMeta,
    GlobalSnapshotRef,
    LocalSnapshotMeta,
    LocalSnapshotRef,
    read_global_meta,
    read_local_meta,
    write_global_meta,
    write_local_meta,
)
from repro.util.errors import NetworkError, RestartError, SnapshotError, VFSError
from repro.util.logging import get_logger
from repro.vfs import path as vpath
from repro.vfs.cas import DEFAULT_ROOT as CAS_ROOT
from repro.vfs.cas import ChunkStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.orte.hnp import HNP
    from repro.orte.job import Job
    from repro.orte.snapc.full import FullSNAPC
    from repro.simenv.kernel import Kernel, Queue, SimEvent

log = get_logger("orte.snapc.stage")


@dataclass
class StagingRecord:
    """One interval's journey from local snapshots to stable storage."""

    jobid: int
    interval: int
    ref: GlobalSnapshotRef
    meta: GlobalSnapshotMeta
    #: "full" or "delta" (what the ranks were asked to write)
    kind: str
    #: global snapshot dirs this interval depends on (oldest first)
    base_chain: list[str]
    #: rewrite this interval as a full image during commit
    compact: bool
    #: FILEM work: (node_name, local_src_dir, stable_dst_dir); empty
    #: when snapshots were written directly to stable storage
    gather_entries: list[tuple[str, str, str]]
    terminate: bool
    done: "SimEvent"
    enqueued_at: float
    #: stage via the content-addressed store (offer/ship protocol)
    cas: bool = False
    #: rank -> capture-side ChunkManifest (CAS mode; aligned with
    #: ``gather_entries``, both ordered by rank)
    rank_manifests: dict = field(default_factory=dict)
    state: str = STAGE_STAGING
    error: str | None = None
    bytes_moved: int = 0
    #: sum of the ranks' logical image sizes (CAS mode; the dedup
    #: ratio is bytes_logical / bytes_moved)
    bytes_logical: int = 0
    committed_at: float | None = None

    @property
    def settled(self) -> bool:
        return self.state != STAGE_STAGING

    def to_durable(self) -> dict:
        """The lifecycle state journalled to the control-plane store."""
        return {
            "jobid": self.jobid,
            "interval": self.interval,
            "path": self.ref.path,
            "kind": self.kind,
            "base_chain": list(self.base_chain),
            "compact": self.compact,
            "gather_entries": [list(e) for e in self.gather_entries],
            "cas": self.cas,
            "terminate": self.terminate,
            "state": self.state,
            "error": self.error,
            "committed_at": self.committed_at,
        }

    @classmethod
    def from_durable(
        cls,
        value: dict,
        *,
        meta: GlobalSnapshotMeta,
        done: "SimEvent",
        now: float,
        **overrides,
    ) -> "StagingRecord":
        """Rebuild a record from its :meth:`to_durable` form.

        *meta*, *done* and *now* are the fields that never persist;
        *overrides* replace decoded fields (a lost interval is rebuilt
        as ``state=failed``).
        """
        fields = {
            "jobid": int(value["jobid"]),
            "interval": int(value["interval"]),
            "ref": GlobalSnapshotRef(value["path"]),
            "meta": meta,
            "kind": value.get("kind", meta.kind),
            "base_chain": list(value.get("base_chain", [])),
            "compact": bool(value.get("compact", False)),
            "gather_entries": [
                tuple(e) for e in value.get("gather_entries", [])
            ],
            "terminate": bool(value.get("terminate", False)),
            "done": done,
            "enqueued_at": now,
            "cas": bool(value.get("cas", False)),
            "state": value.get("state", STAGE_STAGING),
            "error": value.get("error"),
            "committed_at": value.get("committed_at"),
        }
        fields.update(overrides)
        return cls(**fields)


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
        params = snapc.params
        self.depth = max(1, params.get_int("snapc_full_stage_depth", 2))
        self.retries = max(0, params.get_int("snapc_full_stage_retries", 1))
        self.every = max(1, params.get_int("snapc_full_interval_every", 1))
        self.max_chain = max(1, params.get_int("snapc_full_max_chain", 4))
        #: stage intervals through the content-addressed store
        #: (opt-in; needs a FILEM component with supports_cas)
        self.cas_enabled = params.get_bool("snapc_full_cas", False)
        self.cas_root = params.get("snapc_full_cas_root", CAS_ROOT)
        #: universe-level admission gate shared by every job's pipeline
        #: (the per-job depth above bounds one job; this bounds them all).
        #: Cached on the universe so an HNP failover replaces the
        #: coordinator but not the gate: counters survive, and the
        #: rehydrating HNP can reclaim tokens the dead one's transfers
        #: still held.
        universe = hnp.universe
        if universe.staging_admission is None:
            universe.staging_admission = StagingAdmission(
                hnp.proc.kernel,
                tokens=params.get_int("snapc_stage_admission_tokens", 0),
                bytes_per_s=params.get_float("snapc_stage_admission_Bps", 0.0),
            )
        self.admission = universe.staging_admission
        self._jobs: dict[int, _JobStaging] = {}

    @property
    def store(self) -> ChunkStore:
        """The cluster-wide chunk store on stable storage (lazy).

        All store state lives on the filesystem, so re-opening it (a
        new coordinator, a test, ``ompi-restart`` after HNP loss) sees
        the same blobs and references.
        """
        store = getattr(self, "_store", None)
        if store is None:
            store = ChunkStore(
                self.hnp.universe.cluster.stable_fs, root=self.cas_root
            )
            self._store = store
        return store

    @property
    def _kernel(self) -> "Kernel":
        return self.hnp.proc.kernel

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
        """Block until fewer than ``depth`` intervals are in flight."""
        st = self._state(jobid)
        while st.inflight >= self.depth:
            yield WaitEvent(st.slot_event)
        st.inflight += 1
        return None

    def release_slot(self, jobid: int) -> None:
        """Give a slot back without dispatching (aborted checkpoint)."""
        st = self._state(jobid)
        st.inflight = max(0, st.inflight - 1)
        self._fire_slot(st)

    def _fire_slot(self, st: _JobStaging) -> None:
        old, st.slot_event = st.slot_event, self._kernel.event(
            f"snapc.stage.slot.job{st.jobid}"
        )
        if not old.fired:
            old.fire(None)

    # -- incremental planning ------------------------------------------------

    def plan_interval(self, jobid: int) -> dict:
        """Decide full vs delta for the next interval (no state change).

        Returns ``{"kind", "base_interval", "base_chain", "compact"}``.
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
            return {
                "kind": chunkstore.KIND_FULL,
                "base_interval": None,
                "base_chain": [],
                "compact": False,
            }
        return {
            "kind": chunkstore.KIND_DELTA,
            "base_interval": st.last_interval,
            "base_chain": list(st.chain_dirs),
            "compact": len(st.chain_dirs) + 1 > self.max_chain,
        }

    # -- durable state -------------------------------------------------------

    def _persist_record(self, record: StagingRecord) -> None:
        """Journal *record*'s lifecycle state to the control-plane store.

        Written at dispatch (``staging``) and at every settle
        (``committed``/``failed``), so a failed-over HNP knows exactly
        which intervals were in flight and which are durable — the
        COMMITTED set in the store is the never-re-ship contract.
        """
        self.hnp.statestore.put(
            "staging",
            f"{record.jobid}.{record.interval}",
            record.to_durable(),
        )

    # -- dispatch ------------------------------------------------------------

    def dispatch(self, record: StagingRecord) -> None:
        """Hand a fanned-out interval to the background worker.

        The caller's backpressure slot transfers to the record; the
        worker releases it when the interval settles.
        """
        st = self._state(record.jobid)
        st.records[record.interval] = record
        st.last_interval = record.interval
        if record.kind == chunkstore.KIND_FULL or record.compact:
            st.since_full = 0
            st.chain_dirs = [record.ref.path]
            st.force_full = False
        else:
            st.since_full += 1
            st.chain_dirs.append(record.ref.path)
        self._persist_record(record)
        st.queue.put(record)
        if not st.worker_started:
            st.worker_started = True
            self.hnp.proc.spawn_thread(
                self._worker(st), name=f"snapc-stage-job{record.jobid}",
                daemon=True,
            )

    # -- abort (error manager) -------------------------------------------------

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
            self._abort_record(st, record)
            st.inflight = max(0, st.inflight - 1)
            self._fire_slot(st)
        # A dead job must not sit on the universe's staging capacity:
        # force-release any admission tokens its in-flight transfer
        # holds (the worker's own release then no-ops).
        self.admission.release_job(jobid)
        log.warning("job %d staging pipeline aborted", jobid)

    _ABORT_ERROR = "staging aborted: job failed"

    def _abort_record(self, st: _JobStaging, record: StagingRecord) -> None:
        record.meta.staging = {
            "state": STAGE_FAILED,
            "committed_sim_time": None,
            "error": self._ABORT_ERROR,
        }
        record.state = STAGE_FAILED
        record.error = self._ABORT_ERROR
        st.failed_dirs.add(record.ref.path)
        self._persist_record(record)
        if not record.done.fired:
            record.done.fire(record.state)
        if not self.hnp.proc.alive:
            return

        def persist() -> SimGen:
            try:
                yield from self._write_meta(record)
            except (VFSError, NetworkError):
                pass
            return None

        self.hnp.proc.spawn_thread(
            persist(),
            name=f"snapc-stage-abort-{record.jobid}.{record.interval}",
            daemon=True,
        )

    # -- lookup (restart / tools) ----------------------------------------------

    def record_for(self, jobid: int, interval: int) -> StagingRecord | None:
        st = self._jobs.get(jobid)
        return st.records.get(interval) if st is not None else None

    def wait_settled(self, record: StagingRecord) -> SimGen:
        """Block until *record* commits or fails; returns its state."""
        if not record.settled:
            yield WaitEvent(record.done)
        return record.state

    def wait_committed(self, record: StagingRecord) -> SimGen:
        """Block until commit; raises :class:`RestartError` on failure."""
        state = yield from self.wait_settled(record)
        if state != STAGE_COMMITTED:
            raise RestartError(
                f"snapshot {record.ref.path} never reached stable storage: "
                f"{record.error or 'staging failed'}"
            )
        return record

    def _write_meta(self, record: StagingRecord) -> SimGen:
        span = self._kernel.tracer.begin(
            "snapc.meta", cat="snapc", jobid=record.jobid,
            interval=record.interval,
        )
        yield from write_global_meta(
            self.hnp.universe.cluster.stable_fs, record.ref, record.meta
        )
        span.end(state=record.meta.staging.get("state"))

    # -- the worker ------------------------------------------------------------

    def _worker(self, st: _JobStaging) -> SimGen:
        while True:
            record = yield from st.queue.get()
            try:
                yield from self._stage_one(st, record)
            finally:
                st.inflight = max(0, st.inflight - 1)
                self._fire_slot(st)

    def _stage_one(self, st: _JobStaging, record: StagingRecord) -> SimGen:
        hnp = self.hnp
        span = self._kernel.tracer.begin(
            "snapc.stage", cat="snapc", jobid=record.jobid,
            interval=record.interval, kind=record.kind,
            entries=len(record.gather_entries),
        )
        # Persist the in-flight state first so the interval is never
        # observable as stable before it is.  An injected stable-storage
        # write fault here fails the interval, not the worker thread.
        record.meta.staging = {
            "state": STAGE_STAGING,
            "committed_sim_time": None,
            "error": None,
        }
        error: str | None = None
        try:
            yield from self._write_meta(record)
        except (VFSError, NetworkError) as exc:
            error = f"staging metadata write failed: {exc}"

        if error is not None:
            pass
        elif not record.cas and any(
            d in st.failed_dirs for d in record.base_chain
        ):
            error = "a base interval of this delta failed to stage"
        else:
            # The transfer itself runs under the universe-level
            # admission gate: a token bounds concurrent stagings across
            # all jobs, and the moved bytes are charged to the shared
            # bandwidth budget.  Both are unlimited by default.
            yield from self.admission.acquire(record.jobid)
            try:
                if record.cas:
                    # A failed base interval does not doom a CAS delta:
                    # its chunks may already sit in the store (shipped
                    # by another rank, interval, or job); the
                    # negotiation decides.
                    error = yield from self._stage_cas(record)
                else:
                    error = yield from self._gather_with_retry(record)
                if error is None and record.bytes_moved:
                    yield from self.admission.throttle(record.bytes_moved)
            finally:
                self.admission.release(record.jobid)

        if error is None and record.compact:
            if record.cas:
                self._compact_by_reference(record)
            else:
                try:
                    yield from self._compact(record)
                except (VFSError, RestartError) as exc:
                    error = f"compaction failed: {exc}"

        if error is None:
            record.meta.staging = {
                "state": STAGE_COMMITTED,
                "committed_sim_time": self._kernel.now,
                "error": None,
            }
            try:
                yield from self._write_meta(record)
            except (VFSError, NetworkError) as exc:
                # The data landed but the commit record did not: the
                # interval is not observably stable, so it fails (and
                # the next checkpoint is forced full).
                error = f"commit metadata write failed: {exc}"

        if error is None:
            record.state = STAGE_COMMITTED
            record.committed_at = self._kernel.now
            job = hnp.universe.jobs.get(record.jobid)
            # HALTED jobs (checkpoint-and-terminate) still collect their
            # final commit; FAILED jobs must not — recovery may already
            # be walking job.snapshots.
            if job is not None and not st.aborted and job.state != JobState.FAILED:
                job.snapshots.append(record.ref)
            self._persist_record(record)
            log.info(
                "job %d interval %d committed to stable storage (%s, %d bytes)",
                record.jobid, record.interval, record.kind, record.bytes_moved,
            )
        else:
            record.meta.staging = {
                "state": STAGE_FAILED,
                "committed_sim_time": None,
                "error": error,
            }
            try:
                yield from self._write_meta(record)
            except (VFSError, NetworkError):
                pass  # stable storage itself is down; the record still knows
            record.state = STAGE_FAILED
            record.error = error
            st.failed_dirs.add(record.ref.path)
            st.force_full = True
            self._persist_record(record)
            log.warning(
                "job %d interval %d failed to stage: %s",
                record.jobid, record.interval, error,
            )
        span.end(ok=error is None, bytes=record.bytes_moved)
        if not record.done.fired:
            record.done.fire(record.state)
        return None

    def _gather_with_retry(self, record: StagingRecord) -> SimGen:
        """Move local snapshots to stable storage; returns error or None.

        Retries skip entries already completely staged (their
        ``metadata.json`` — the last file a tree copy writes — is on
        stable storage), so a node that dies *after* its transfer only
        costs the retry of the others.
        """
        if not record.gather_entries:
            return None
        stable = self.hnp.universe.cluster.stable_fs
        last_error: str | None = None
        for _attempt in range(self.retries + 1):
            pending = [
                e for e in record.gather_entries
                if not stable.exists(vpath.join(e[2], LOCAL_META))
            ]
            if not pending:
                return None
            try:
                moved = yield from self.hnp.filem.stage_out(self.hnp, pending)
                record.bytes_moved += int(moved or 0)
            except (VFSError, NetworkError) as exc:
                last_error = str(exc)
                continue
            missing = [
                e for e in record.gather_entries
                if not stable.exists(vpath.join(e[2], LOCAL_META))
            ]
            if not missing:
                return None
            last_error = (
                f"{len(missing)} local snapshot(s) missing after gather"
            )
        return last_error or "gather failed"

    def _compact(self, record: StagingRecord) -> SimGen:
        """Rewrite a committed-to-be delta interval as a full image.

        Runs entirely on stable storage: reconstruct each rank's image
        from its chain, write ``image.pkl`` plus a full manifest into
        the interval's own directory, and drop the chain from the
        metadata.  Restart of this interval then needs no other
        directory, bounding chain length at ``snapc_full_max_chain``.
        """
        stable = self.hnp.universe.cluster.stable_fs
        chain = [d for d in record.base_chain if d != record.ref.path]
        chain.append(record.ref.path)
        for rank in sorted(record.meta.locals):
            dirs = [vpath.join(d, f"rank{rank}") for d in chain]
            blob, manifest = yield from chunkstore.reconstruct_chain(
                stable, dirs, IMAGE_FILE
            )
            dst = record.ref.local_dir(rank)
            yield from stable.write(vpath.join(dst, IMAGE_FILE), blob)
            if manifest is not None:
                yield from chunkstore.write_full_manifest(
                    stable, dst, manifest.chunk_bytes, len(blob),
                    manifest.hashes, record.interval,
                )
        record.kind = chunkstore.KIND_FULL
        record.meta.kind = chunkstore.KIND_FULL
        record.meta.base_interval = None
        record.meta.base_chain = []
        log.info(
            "job %d interval %d compacted to a full image (chain was %d long)",
            record.jobid, record.interval, len(chain),
        )
        return None

    # -- content-addressed staging (offer/ship) ----------------------------------

    def _compact_by_reference(self, record: StagingRecord) -> None:
        """CAS compaction: rewrite references, move no bytes.

        A CAS interval's rank manifests already list *every* chunk
        digest and the bytes live in the store, so "rewriting as a full
        image" is a pure metadata change — the chain resets without a
        single chunk being copied.
        """
        record.kind = chunkstore.KIND_FULL
        record.meta.kind = chunkstore.KIND_FULL
        record.meta.base_interval = None
        record.meta.base_chain = []
        log.info(
            "job %d interval %d compacted by reference (no bytes moved)",
            record.jobid, record.interval,
        )

    def _stage_cas(self, record: StagingRecord) -> SimGen:
        """Negotiate with the store, ship only missing chunks; returns
        an error string or None.

        The offer is the union of every rank manifest's digests; the
        store answers with what it lacks (``filem.offer`` span); each
        missing digest is assigned to exactly one provider directory
        that physically holds its bytes, so identical chunks across
        ranks ship once.  Retries re-negotiate from the store's current
        contents — chunks that landed before a failure are never
        shipped twice.  On success the interval's rank directories on
        stable storage hold only a manifest and metadata; the bytes
        live in the store, referenced per rank directory.
        """
        store = self.store
        stable = self.hnp.universe.cluster.stable_fs
        ranks = sorted(record.rank_manifests)
        entries = [
            (rank, node, src)
            for rank, (node, src, _dst) in zip(ranks, record.gather_entries)
        ]
        manifests = record.rank_manifests
        record.bytes_logical = sum(m.total_bytes for m in manifests.values())

        offer: list[str] = []
        providers: list[dict[str, int]] = []
        for rank, _node, _src in entries:
            manifest = manifests[rank]
            offer.extend(manifest.hashes)
            lookup: dict[str, int] = {}
            for index in manifest.present:
                lookup.setdefault(manifest.hashes[index], index)
            providers.append(lookup)

        span = self._kernel.tracer.begin(
            "filem.offer", cat="filem", jobid=record.jobid,
            interval=record.interval, chunks_offered=len(dict.fromkeys(offer)),
        )
        yield Delay(stable.op_latency_s)
        first_missing = store.missing(offer)
        span.end(chunks_missing=len(first_missing))

        last_error: str | None = None
        for _attempt in range(self.retries + 1):
            yield Delay(stable.op_latency_s)
            missing = store.missing(offer)
            if not missing:
                last_error = None
                break
            ship_by: dict[int, list[int]] = {}
            unsourced = 0
            for digest in missing:
                for pos, lookup in enumerate(providers):
                    if digest in lookup:
                        ship_by.setdefault(pos, []).append(lookup[digest])
                        break
                else:
                    unsourced += 1
            if unsourced:
                # A delta's clean chunks have no local bytes; they must
                # already be in the store from the base interval.  If
                # they are not, no amount of retrying helps.
                return (
                    f"{unsourced} chunk(s) absent from the store with no "
                    "local source"
                )
            ship_entries = [
                (entries[pos][1], entries[pos][2], manifests[entries[pos][0]],
                 sorted(indices))
                for pos, indices in sorted(ship_by.items())
            ]
            try:
                moved = yield from self.hnp.filem.ship_chunks(
                    self.hnp, store, ship_entries
                )
                record.bytes_moved += int(moved or 0)
            except (VFSError, NetworkError, SnapshotError) as exc:
                last_error = str(exc)
                continue
        still_missing = store.missing(offer)
        if still_missing:
            return last_error or (
                f"{len(still_missing)} chunk(s) missing after ship"
            )

        # Commit: per-rank manifest + metadata on stable storage, chunk
        # references registered against the rank directory.
        for rank, node, _src in entries:
            manifest = manifests[rank]
            dst = record.ref.local_dir(rank)
            stable.mkdir(dst)
            cas_manifest = chunkstore.ChunkManifest(
                kind=chunkstore.KIND_FULL,
                chunk_bytes=manifest.chunk_bytes,
                total_bytes=manifest.total_bytes,
                hashes=list(manifest.hashes),
                # No chunk bytes live in this directory; restart
                # fetches them from the store.
                present=[],
                base_interval=None,
                interval=record.interval,
            )
            yield from chunkstore.write_manifest(stable, dst, cas_manifest)
            info = record.meta.locals.get(rank, {})
            local_meta = LocalSnapshotMeta(
                rank=rank,
                jobid=record.jobid,
                crs_component=info.get("crs", "simcr"),
                origin_node=info.get("node", node),
                os_tag=info.get("os_tag", ""),
                interval=record.interval,
                sim_time=record.meta.sim_time,
                portable=bool(info.get("portable", True)),
                kind=chunkstore.KIND_FULL,
                chunk_bytes=manifest.chunk_bytes,
                total_bytes=manifest.total_bytes,
                chunk_hashes=list(manifest.hashes),
                present_chunks=[],
            )
            yield from write_local_meta(
                stable, LocalSnapshotRef(stable.name, dst), local_meta
            )
            yield from store.add_refs(dst, manifest.hashes)
        # Local staging is no longer needed (kept until now so a failed
        # ship could retry from the same sources).
        try:
            yield from self.hnp.filem.remove(
                self.hnp, [(node, src) for _rank, node, src in entries]
            )
        except (VFSError, NetworkError):
            pass
        return None

    # -- HNP failover rehydration -------------------------------------------------

    def rehydrate(self, table: dict) -> SimGen:
        """Rebuild the staging pipeline from the durable store.

        Returns ``(restaged, lost, adopted)``: in-flight STAGING
        intervals re-dispatched through the normal worker, STAGING
        intervals that could not be rebuilt (source node gone, local
        snapshots unreadable — failed durably, never silently dropped),
        and settled records adopted as bookkeeping.  COMMITTED
        intervals are **never re-shipped**: adoption only reinstates
        the record and the ``job.snapshots`` entry; the bytes already
        on stable storage are the source of truth.  Re-dispatch itself
        is idempotent — the gather skips entries whose ``metadata.json``
        already landed, and CAS staging re-negotiates against the
        store's current contents — so an interval half-staged by the
        dead HNP finishes instead of doubling.
        """
        restaged = lost = adopted = 0
        records = sorted(
            table.values(),
            key=lambda v: (int(v["jobid"]), int(v["interval"])),
        )
        for value in records:
            jobid = int(value["jobid"])
            interval = int(value["interval"])
            st = self._state(jobid)
            # Delta-chain planning state died with the old HNP; the
            # next checkpoint of every rehydrated job is forced full.
            st.force_full = True
            if st.last_interval is None or interval > st.last_interval:
                st.last_interval = interval
            job = self.hnp.universe.jobs.get(jobid)
            if job is not None and job.next_interval <= interval:
                job.next_interval = interval + 1
            if value.get("state") in (STAGE_COMMITTED, STAGE_FAILED):
                self._adopt_settled(st, value, job)
                adopted += 1
            else:
                ok = yield from self._restage(st, value)
                if ok:
                    restaged += 1
                else:
                    lost += 1
        return restaged, lost, adopted

    def _stub_meta(self, jobid: int, interval: int) -> GlobalSnapshotMeta:
        """Placeholder metadata for records whose real file is elsewhere.

        Adopted/failed records need a meta object structurally, but the
        on-disk ``metadata.json`` written by the previous incarnation
        stays authoritative — the stub is never written over it.
        """
        return GlobalSnapshotMeta(
            jobid=jobid, interval=interval, n_procs=0,
            sim_time=0.0, app_name="",
        )

    def _adopt_settled(
        self, st: _JobStaging, value: dict, job: "Job | None"
    ) -> None:
        """Reinstate a COMMITTED/FAILED record without touching bytes."""
        interval = int(value["interval"])
        record = StagingRecord.from_durable(
            value,
            meta=self._stub_meta(st.jobid, interval),
            done=self._kernel.event(
                f"snapc.commit.job{st.jobid}.{interval}"
            ),
            now=self._kernel.now,
            gather_entries=[],
        )
        record.done.fire(record.state)
        st.records[interval] = record
        if record.state == STAGE_FAILED:
            st.failed_dirs.add(record.ref.path)
        elif job is not None and all(
            s.path != record.ref.path for s in job.snapshots
        ):
            # Records arrive in interval order, so the newest committed
            # interval lands last — exactly what restart picks.
            job.snapshots.append(record.ref)

    def _restage(self, st: _JobStaging, value: dict) -> SimGen:
        """Re-dispatch one in-flight interval; True if it re-entered
        the pipeline, False if it had to be failed durably."""
        interval = int(value["interval"])
        ref = GlobalSnapshotRef(value["path"])
        stable = self.hnp.universe.cluster.stable_fs
        try:
            meta = yield from read_global_meta(stable, ref)
        except (SnapshotError, VFSError) as exc:
            yield from self._fail_restage(
                st, value, f"global metadata lost across failover: {exc}"
            )
            return False
        record = StagingRecord.from_durable(
            value,
            meta=meta,
            done=self._kernel.event(
                f"snapc.commit.job{st.jobid}.{interval}"
            ),
            now=self._kernel.now,
        )
        if record.cas:
            error = yield from self._rebuild_manifests(record, meta)
            if error is not None:
                yield from self._fail_restage(st, value, error, meta=meta)
                return False
        yield from self.acquire_slot(st.jobid)
        self.dispatch(record)
        log.info(
            "job %d interval %d re-dispatched after HNP failover",
            st.jobid, interval,
        )
        return True

    def _fail_restage(
        self,
        st: _JobStaging,
        value: dict,
        error: str,
        meta: GlobalSnapshotMeta | None = None,
    ) -> SimGen:
        """Fail an unrecoverable in-flight interval, durably.

        Writes ``staging.state = failed`` into the interval's global
        metadata so an explicit ``ompi-restart`` never picks it up — a
        stub is written only when the real metadata was unreadable
        (readable metadata from the previous incarnation is updated,
        never clobbered with an empty stub).
        """
        interval = int(value["interval"])
        if meta is None:
            meta = self._stub_meta(st.jobid, interval)
        meta.staging = {
            "state": STAGE_FAILED,
            "committed_sim_time": None,
            "error": error,
        }
        record = StagingRecord.from_durable(
            value,
            meta=meta,
            done=self._kernel.event(
                f"snapc.commit.job{st.jobid}.{interval}"
            ),
            now=self._kernel.now,
            gather_entries=[],
            state=STAGE_FAILED,
            error=error,
        )
        record.done.fire(record.state)
        st.records[interval] = record
        st.failed_dirs.add(record.ref.path)
        st.force_full = True
        self._persist_record(record)
        try:
            yield from self._write_meta(record)
        except (VFSError, NetworkError):
            pass
        log.warning(
            "job %d interval %d lost across HNP failover: %s",
            st.jobid, interval, error,
        )
        return None

    def _rebuild_manifests(
        self, record: StagingRecord, meta: GlobalSnapshotMeta
    ) -> SimGen:
        """Recover a CAS interval's rank manifests from the source
        nodes' local snapshot metadata; returns an error or None.

        The capture-side manifests lived only in the dead HNP's heap,
        but each rank's local ``metadata.json`` records the same chunk
        geometry (digests, chunk size, present set), so the ship
        negotiation can restart from the nodes that still hold bytes.
        """
        ranks = sorted(meta.locals)
        if len(ranks) != len(record.gather_entries):
            return (
                f"persisted record lists {len(record.gather_entries)} "
                f"gather entries for {len(ranks)} ranks"
            )
        for rank, (node_name, src, _dst) in zip(
            ranks, record.gather_entries
        ):
            try:
                node = self.hnp.universe.cluster.node(node_name)
            except KeyError:
                return f"source node {node_name} unknown"
            if not node.up or node.local_fs is None:
                return f"source node {node_name} is down"
            try:
                local = yield from read_local_meta(
                    node.local_fs,
                    LocalSnapshotRef(node.local_fs.name, src),
                )
            except (SnapshotError, VFSError) as exc:
                return f"local snapshot on {node_name} unreadable: {exc}"
            record.rank_manifests[rank] = chunkstore.ChunkManifest(
                kind=local.kind,
                chunk_bytes=local.chunk_bytes,
                total_bytes=local.total_bytes,
                hashes=list(local.chunk_hashes),
                present=list(local.present_chunks),
                base_interval=local.base_interval,
                interval=local.interval,
            )
        return None

    # -- retirement / garbage collection -----------------------------------------

    def purge_interval(
        self, ref: GlobalSnapshotRef, meta: GlobalSnapshotMeta
    ) -> SimGen:
        """Retire one CAS-backed interval from stable storage.

        Releases every rank directory's chunk references, removes the
        global directory, and garbage-collects blobs nothing references
        any more — other intervals and jobs keep the chunks they still
        share (the dedup contract).  Returns ``(blobs_removed,
        bytes_freed)``.
        """
        stable = self.hnp.universe.cluster.stable_fs
        for rank in sorted(meta.locals):
            yield from self.store.release(ref.local_dir(rank))
        yield from stable.remove_tree(ref.path)
        removed, freed = yield from self.store.gc()
        log.info(
            "purged %s: %d blob(s), %d bytes reclaimed", ref.path, removed, freed
        )
        return removed, freed

    def job_records(self, jobid: int) -> list[StagingRecord]:
        """All staging records of *jobid*, in interval order."""
        st = self._jobs.get(jobid)
        if st is None:
            return []
        return [st.records[i] for i in sorted(st.records)]
