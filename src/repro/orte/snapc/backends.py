"""Storage backends of the staging coordinator: the one seam that knows
*how* an interval's bytes reach stable storage, are checked there, and
come back at restart.

Two backends exist, and both carry checked traffic:

* :class:`TreeBackend` — the paper's way.  FILEM gathers every rank's
  local snapshot directory into the global snapshot directory.  A
  delta interval depends on the directories of its base chain, so a
  base that failed to stage dooms it, and restart preload as well as
  compaction (``snapc_full_max_chain``) reconstruct each rank's image
  from the chain on stable storage — onto the rank's node, or back
  into the interval, rewritten as a full image.
* :class:`CasBackend` — the content-addressed store.  The coordinator
  offers the union of the ranks' chunk digests, the store answers with
  what it lacks, and FILEM ships each missing chunk once from one
  directory that holds it.  The rank directories then hold only a
  manifest that lists *every* digest, so an interval never depends on
  another directory: its persisted base chain is empty, compaction is
  a metadata change, and restart fetches (and verifies) chunks from
  the store, listed by the manifests the restart's check read — but
  for a rank back on the node that kept the newest committed interval
  (:meth:`CasBackend.kept`).  Either way a restarting rank reads two
  files: one full image and its metadata.

The code picks the backend itself.  At checkpoint time it is CAS iff
``snapc_full_cas`` is set, the FILEM component can ship chunks, and
every rank replied with chunk digests (a CRS that bypasses the chunk
format falls the whole interval back to the tree); afterwards an
interval is handled by the backend recorded in ``record.cas`` /
``meta.cas``.  The coordinator (:mod:`repro.orte.snapc.staging`) keeps
everything that does not differ: records, FIFO and slots, full/delta
planning, the metadata lifecycle and the failover skeleton.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property
from typing import TYPE_CHECKING

from repro.mca.params import Param
from repro.opal.crs import chunks as chunkstore
from repro.orte.job import JobState, ProcSpec
from repro.simenv.kernel import Delay, SimGen
from repro.snapshot import (
    IMAGE_FILE,
    LOCAL_META,
    STAGE_COMMITTED,
    GlobalSnapshotMeta,
    GlobalSnapshotRef,
    LocalSnapshotMeta,
    LocalSnapshotRef,
    write_local_meta,
)
from repro.util.errors import (
    NetworkError,
    ReproError,
    RestartError,
    SnapshotError,
    VFSError,
)
from repro.util.logging import get_logger
from repro.vfs import path as vpath
from repro.vfs.cas import DEFAULT_ROOT, ChunkStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.orte.job import Job
    from repro.orte.snapc.base import RestartPlan
    from repro.orte.snapc.staging import StagingCoordinator, StagingRecord

log = get_logger("orte.snapc.stage")

USE_CAS = Param("snapc_full_cas", False, "stage through the content-addressed store (FILEM must ship chunks)")
CAS_ROOT = Param("snapc_full_cas_root", DEFAULT_ROOT, "stable-storage directory of the chunk store")
RESTART_STAGING_ROOT = "/restart"
#: retries of a failed staging transfer before the interval is FAILED
STAGE_RETRIES = 1


class StagingBackend:
    """What the coordinator asks of a way to store intervals.

    Methods that return "an error" return a string, or None on success;
    the defaults are the halves both backends share.
    """

    #: the value recorded as ``record.cas`` / ``meta.cas``
    cas = False

    def __init__(self, stager: "StagingCoordinator"):
        self.stager = stager
        self.hnp = stager.hnp

    @property
    def stable(self):
        return self.hnp.universe.cluster.stable_fs

    def describe(self, record: "StagingRecord", results: dict[int, dict]) -> None:
        """Add what staging needs from the ranks' replies to *record*."""

    def doomed_by(self, record: "StagingRecord", failed_dirs: set[str]) -> str | None:
        """Why *record* cannot stage given the job's failed intervals."""
        return None

    def stage(self, record: "StagingRecord") -> SimGen:
        """Move the interval's bytes to stable storage; returns an error."""
        raise NotImplementedError
        yield  # pragma: no cover

    def compact(self, record: "StagingRecord") -> SimGen:
        """Make a staged delta restartable on its own; returns an error."""
        record.meta.kind = chunkstore.KIND_FULL
        record.meta.base_interval = None
        record.meta.base_chain = []
        return None
        yield  # pragma: no cover

    def resume(self, record: "StagingRecord") -> SimGen:
        """Recover what :meth:`describe` built, lost with the dead HNP's
        heap, before the interval is staged again; returns an error."""
        return None
        yield  # pragma: no cover

    def unusable(
        self, ref: GlobalSnapshotRef, meta: GlobalSnapshotMeta, skip, checked: dict
    ) -> SimGen:
        """Why a COMMITTED interval cannot be restarted from right now
        (None if it can); *skip* holds refs known bad this episode.  What
        the check reads that :meth:`preload` needs goes into *checked*."""
        raise NotImplementedError
        yield  # pragma: no cover

    def plan_restart(
        self, plan: "RestartPlan", job: "Job", placements: dict[int, str]
    ) -> SimGen:
        """``(specs, entries)``: one :class:`ProcSpec` per rank, and one
        ``(node, stable_chain_dirs, local_dst_dir)`` per rank that
        :meth:`preload` must land as a full image before they launch."""
        ref, meta = plan.ref, plan.meta
        # A delta interval is restored from its base-chain: every
        # directory the newest image depends on, oldest full first.
        # A rank reads it as such only off stable storage (``shared``
        # FILEM); a preloaded rank finds one flattened image.
        chain_dirs = [d for d in meta.base_chain if d != ref.path]
        chain_dirs.append(ref.path)
        direct_stable = self.hnp.filem.wants_direct_stable
        specs: list[ProcSpec] = []
        entries: list[tuple[str, list[str], str]] = []
        for rank in range(meta.n_procs):
            node_name = placements[rank]
            chain = [vpath.join(d, f"rank{rank}") for d in chain_dirs]
            if not direct_stable:
                landed = vpath.join(
                    RESTART_STAGING_ROOT, f"job{job.jobid}", f"rank{rank}"
                )
                entries.append((node_name, chain, landed))
                chain = [landed]
            specs.append(
                ProcSpec(
                    jobid=job.jobid,
                    rank=rank,
                    node_name=node_name,
                    app=job.app,
                    restart_from={
                        "fs": "stable" if direct_stable else "local",
                        "chain": chain,
                    },
                )
            )
        return specs, entries
        yield  # pragma: no cover

    def preload(self, plan: "RestartPlan", entries: list[tuple[str, list[str], str]]) -> SimGen:
        """Put checkpoint files on the target machines (section 5.2):
        one full image tree per entry."""
        yield from self.hnp.filem.broadcast(self.hnp, entries)

    def drop_preload(self, entries: list[tuple[str, list[str], str]], specs, job: "Job") -> None:
        """Remove the job's staging from every node :meth:`preload` landed
        on (partial trees too), once the attempt (*specs*, *job*) ended."""
        self.drop_local("restart", ((node, vpath.dirname(dst)) for node, _chain, dst in entries))

    def settled(self, record: "StagingRecord") -> None:
        """*record* just committed or failed."""

    def finished(self, job: "Job") -> None:
        """*job* finished, and with it its lineage."""

    def drop_local(self, what: str, trees) -> None:
        """Remove node-local *trees* ``(node, dir)``: a thread per tree,
        nobody waiting (FILEM skips a node that is down)."""
        for node, tree in dict.fromkeys(trees):
            self.hnp.proc.spawn_thread(
                self.hnp.filem.remove(self.hnp, [(node, tree)]),
                name=f"{what}-cleanup-{node}", daemon=True,
            )

    def purge(self, ref: GlobalSnapshotRef, meta: GlobalSnapshotMeta) -> SimGen:
        """Retire one interval from stable storage; returns
        ``(blobs_removed, bytes_freed)`` of store space reclaimed."""
        yield from self.stable.remove_tree(ref.path)
        return 0, 0


class TreeBackend(StagingBackend):
    """Directory trees gathered by FILEM (Figure 1-F as the paper has it)."""

    def doomed_by(self, record: "StagingRecord", failed_dirs: set[str]) -> str | None:
        if any(d in failed_dirs for d in record.base_chain):
            return "a base interval of this delta failed to stage"
        return None

    def stage(self, record: "StagingRecord") -> SimGen:
        """Gather the local snapshots, with retry.

        Retries skip entries already completely staged (their
        ``metadata.json`` — the last file a tree copy writes — is on
        stable storage), so a node that dies *after* its transfer only
        costs the retry of the others.  For ``shared`` FILEM every entry
        is already complete (src == dst) — the degenerate metadata check.
        """
        stable = self.stable

        def unstaged() -> list[tuple[str, str, str]]:
            return [
                e for e in record.gather_entries
                if not stable.exists(vpath.join(e[2], LOCAL_META))
            ]

        last_error: str | None = None
        for _attempt in range(STAGE_RETRIES + 1):
            pending = unstaged()
            if not pending:
                return None
            try:
                moved = yield from self.hnp.filem.stage_out(self.hnp, pending)
                record.bytes_moved += int(moved or 0)
            except (VFSError, NetworkError) as exc:
                last_error = str(exc)
                continue
            missing = unstaged()
            if not missing:
                return None
            last_error = f"{len(missing)} local snapshot(s) missing after gather"
        return last_error or "gather failed"

    def compact(self, record: "StagingRecord") -> SimGen:
        """Rewrite the interval as a full image, entirely on stable
        storage: reconstruct each rank's image from its chain, write
        ``image.pkl`` plus a full manifest into the interval's own
        directory (later deltas chain onto it), and drop the chain from
        the metadata.  Restart of this interval then needs no other
        directory."""
        stable = self.stable
        chain = [d for d in record.base_chain if d != record.ref.path]
        chain.append(record.ref.path)
        try:
            for rank in sorted(record.meta.locals):
                dirs = [vpath.join(d, f"rank{rank}") for d in chain]
                blob, manifest = yield from chunkstore.reconstruct_chain(stable, dirs)
                dst = record.ref.local_dir(rank)
                yield from stable.write(vpath.join(dst, IMAGE_FILE), blob)
                yield from chunkstore.write_manifest(stable, dst, replace(
                    manifest, kind=chunkstore.KIND_FULL, total_bytes=len(blob),
                    base_interval=None, present=list(range(manifest.n_chunks)),
                ))
        except (VFSError, RestartError) as exc:
            return f"compaction failed: {exc}"
        log.info(
            "job %d interval %d compacted to a full image (chain was %d long)",
            record.jobid, record.interval, len(chain),
        )
        return (yield from super().compact(record))

    def unusable(self, ref, meta, skip, checked) -> SimGen:
        """Every directory of the base chain must still be COMMITTED."""
        for dep in meta.base_chain:
            if dep == ref.path:
                continue
            # A dep that failed a restart this episode breaks every
            # chain through it — selecting such a chain would just burn
            # a recovery attempt on a known-bad base.
            if dep in skip or (yield from self.stager.committed_meta(dep)) is None:
                return "broken base chain"
        return None


class CasBackend(StagingBackend):
    """Chunks negotiated against the content-addressed store."""

    cas = True

    def __init__(self, stager: "StagingCoordinator"):
        super().__init__(stager)
        #: kept trees ``(node, dir)`` whose image failed a restart's check
        self.dropped: set[tuple[str, str]] = set()
        #: restart attempt's jobid -> the kept interval its ranks read
        self.reading: dict[int, "StagingRecord"] = {}
        #: kept interval's rank directory -> its committed digests folded
        #: into one, until its trees are dropped (they never change)
        self.folded: dict[str, str] = {}

    @cached_property
    def store(self) -> ChunkStore:
        """The cluster-wide chunk store on stable storage (opened on
        first use, so a run that never stages by CAS creates nothing).

        All store state lives on the filesystem, so re-opening it (a
        new coordinator, a test, ``ompi-restart`` after HNP loss) sees
        the same blobs and references.
        """
        return ChunkStore(self.stable, root=CAS_ROOT.read(self.stager.snapc.params))

    @property
    def _filem_moves_chunks(self) -> bool:
        return self.hnp.filem.supports_cas

    def accepts(self, results: dict[int, dict]) -> bool:
        """The checkpoint-time selection rule: opted in, a FILEM that
        ships chunks, and chunk digests from every rank."""
        return (
            USE_CAS.read(self.stager.snapc.params)
            and self._filem_moves_chunks
            and all(reply.get("hashes") for reply in results.values())
        )

    def describe(self, record: "StagingRecord", results: dict[int, dict]) -> None:
        """rank -> capture-side manifest (aligned with
        ``gather_entries``, both ordered by rank)."""
        # The manifests list every chunk digest, so restart never needs
        # another directory — the persisted chain is empty even when
        # the ranks wrote deltas.
        record.meta.base_chain = []
        record.rank_manifests = {
            rank: chunkstore.ChunkManifest(
                kind=reply.get("kind", chunkstore.KIND_FULL),
                chunk_bytes=reply.get("chunk_bytes", 0),
                total_bytes=reply.get("total_bytes", 0),
                hashes=list(reply.get("hashes", [])),
                present=list(reply.get("present", [])),
                base_interval=record.meta.base_interval,
                interval=record.interval,
            )
            for rank, reply in sorted(results.items())
        }

    # No doomed_by: a failed base interval does not doom a CAS delta —
    # its chunks may already sit in the store (shipped by another rank,
    # interval, or job); the negotiation decides.

    def stage(self, record: "StagingRecord") -> SimGen:
        """Negotiate with the store, ship only missing chunks.

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
        stable = self.stable
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

        span = self.hnp.proc.kernel.tracer.begin(
            "filem.offer", cat="filem", jobid=record.jobid,
            interval=record.interval, chunks_offered=len(dict.fromkeys(offer)),
        )
        yield Delay(stable.op_latency_s)
        first_missing = store.missing(offer)
        span.end(chunks_missing=len(first_missing))

        last_error: str | None = None
        for _attempt in range(STAGE_RETRIES + 1):
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
                return f"{unsourced} chunk(s) absent from the store with no local source"
            ship_entries = [
                (entries[pos][1], entries[pos][2], manifests[entries[pos][0]],
                 sorted(indices))
                for pos, indices in sorted(ship_by.items())
            ]
            try:
                moved = yield from self.hnp.filem.ship_chunks(self.hnp, store, ship_entries)
                record.bytes_moved += int(moved or 0)
            except (VFSError, NetworkError, SnapshotError) as exc:
                last_error = str(exc)
                continue
        still_missing = store.missing(offer)
        if still_missing:
            return last_error or f"{len(still_missing)} chunk(s) missing after ship"

        # Commit: per-rank manifest + metadata on stable storage, chunk
        # references registered against the rank directory.
        for rank, node, _src in entries:
            manifest = manifests[rank]
            dst = record.ref.local_dir(rank)
            stable.mkdir(dst)
            # No chunk bytes live in this directory; restart fetches
            # them from the store.
            cas_manifest = replace(
                manifest, kind=chunkstore.KIND_FULL, hashes=list(manifest.hashes),
                present=[], base_interval=None, interval=record.interval,
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
            )
            yield from write_local_meta(
                stable, LocalSnapshotRef(stable.name, dst), local_meta
            )
            yield from store.add_refs(dst, manifest.hashes)
        # The local trees stay: see :meth:`settled`.
        return None

    def compact(self, record: "StagingRecord") -> SimGen:
        """By reference: the rank manifests already list *every* chunk
        digest and the bytes live in the store, so the chain resets
        without a single chunk being copied."""
        log.info(
            "job %d interval %d compacted by reference (no bytes moved)",
            record.jobid, record.interval,
        )
        return (yield from super().compact(record))

    def resume(self, record: "StagingRecord") -> SimGen:
        """Rebuild the rank manifests from the source nodes.

        The capture-side manifests lived only in the dead HNP's heap,
        but each is also the ``chunks.json`` beside the rank's local
        snapshot, so the ship negotiation can restart from the nodes
        that still hold bytes.
        """
        for rank, (node_name, src, _dst) in zip(
            sorted(record.meta.locals), record.gather_entries
        ):
            try:
                node = self.hnp.universe.cluster.node(node_name)
            except KeyError:
                return f"source node {node_name} unknown"
            if not node.up or node.local_fs is None:
                return f"source node {node_name} is down"
            try:
                record.rank_manifests[rank] = yield from chunkstore.read_manifest(
                    node.local_fs, src
                )
            except (SnapshotError, VFSError) as exc:
                return f"local snapshot on {node_name} unreadable: {exc}"
        return None

    def unusable(self, ref, meta, skip, checked) -> SimGen:
        """Presence of every chunk in the store; the ranks' manifests are
        read concurrently (FILEM's bound), the verdict is the lowest
        failing rank's, and each manifest up to it goes into *checked*,
        for the fetch.

        Content is verified chunk-by-chunk during the restart fetch;
        this only keeps a restart (and recovery's attempt budget) from
        being spent on chunks already known to be gone.  Retryable: any
        checkpoint that ships the chunk again repairs the store.
        """
        def read(src: str) -> SimGen:
            try:
                return (yield from chunkstore.read_manifest(self.stable, src))
            except ReproError as exc:
                return exc

        ranks = sorted(meta.locals)
        srcs = [ref.local_dir(rank) for rank in ranks]
        found = yield from self.hnp.filem.run_bounded(self.hnp, "check", list(map(read, srcs)))
        for rank, src, manifest in zip(ranks, srcs, found):
            if isinstance(manifest, ReproError):
                return f"rank {rank} manifest unreadable: {manifest}"
            checked[src] = manifest
            absent = len(self.store.missing(manifest.hashes))
            if absent:
                return f"rank {rank}: {absent} chunk(s) absent from the store"
        return None

    def kept(self, job: "Job", but=None) -> "StagingRecord | None":
        """The interval whose node-local trees *job*'s lineage keeps: its
        newest COMMITTED one that recovery may walk back to (in its job's
        ``snapshots``), none once a job of the lineage finished — either
        one other than *but*.  The record's ``gather_entries`` name the
        trees, and its metadata rebuilds them: a successor HNP reuses and
        drops the same."""
        jobs = self.hnp.universe.jobs
        lineage = [jobs[j] for j in sorted(self.hnp.errmgr.lineage_jobids(job)) if j in jobs]
        if any(j.state is JobState.FINISHED and j is not but for j in lineage):
            return None
        return max((
            r for j in lineage for r in self.stager.job_records(j.jobid)
            if r.cas and r.state == STAGE_COMMITTED and r is not but and r.ref in j.snapshots
        ), key=lambda r: r.committed_at, default=None)

    def _drop_kept(self, record: "StagingRecord | None") -> None:
        # a restart still reading the trees drops them when it ends
        if record is not None and all(r is not record for r in self.reading.values()):
            self.drop_local("stage", ((node, src) for node, src, _dst in record.gather_entries))
            for rank in record.meta.locals:
                self.folded.pop(record.ref.local_dir(rank), None)

    def settled(self, record) -> None:
        """A COMMITTED interval's trees stay as its lineage's kept level
        (the paper's local snapshot, left where it was written) and the
        level they replace goes, so a lineage keeps at most one interval;
        any other interval's trees go at once."""
        job = self.hnp.universe.jobs.get(record.jobid)
        kept = job is not None and self.kept(job) is record
        self._drop_kept(self.kept(job, but=record) if kept else record)

    def finished(self, job) -> None:
        self._drop_kept(self.kept(job, but=job))

    def plan_restart(self, plan, job, placements) -> SimGen:
        # The rank directories hold only manifests, so a restart that
        # cannot get at the store must be refused before any process is
        # planned, not discovered by a rank reading an empty directory.
        if not self._filem_moves_chunks:
            raise RestartError(
                f"snapshot {plan.ref.path} is CAS-backed but FILEM "
                f"{self.hnp.filem.name!r} cannot fetch chunks"
            )
        specs, entries = yield from super().plan_restart(plan, job, placements)
        # "Reuse local": a rank placed on the node that kept this very
        # interval's full image reads it there, checked against the
        # committed manifest's digests (folded into one for the launch).
        # Every other rank is "land from stable".
        origin = self.hnp.universe.jobs.get(plan.meta.jobid)
        kept = self.kept(origin) if origin is not None else None
        if kept is None or kept.ref != plan.ref:
            return specs, entries
        self.reading[job.jobid], land = kept, []
        for spec, entry, (node, src, _dst) in zip(specs, entries, kept.gather_entries):
            full = plan.meta.locals[spec.rank].get("kind") == chunkstore.KIND_FULL
            if spec.node_name != node or (node, src) in self.dropped or not full:
                land.append(entry)
                continue
            rank_dir = plan.ref.local_dir(spec.rank)
            if rank_dir not in self.folded:
                self.folded[rank_dir] = chunkstore.fold_digests(plan.checked[rank_dir].hashes)
            spec.restart_from = {"fs": "local", "chain": [src], "digest": self.folded[rank_dir]}
        return specs, land

    def preload(self, plan, entries) -> SimGen:
        """Each distinct chunk is read once and verified on the way out;
        the manifests are the ones :meth:`unusable` read."""
        yield from self.hnp.filem.fetch_chunks(self.hnp, self.store, entries, plan.checked)

    def drop_preload(self, entries, specs, job) -> None:
        super().drop_preload(entries, specs, job)
        # a kept image that failed its check goes; the retry lands the rank
        bad = [
            (s.node_name, s.restart_from["chain"][0]) for s in specs
            if "digest" in s.restart_from and s.rank in job.failed_ranks
        ]
        self.dropped.update(bad)
        self.drop_local("kept", bad)
        read = self.reading.pop(job.jobid, None)
        origin = read and self.hnp.universe.jobs.get(read.jobid)
        if read and (origin is None or self.kept(origin) is not read):
            self._drop_kept(read)  # superseded while this attempt read it

    def purge(self, ref: GlobalSnapshotRef, meta: GlobalSnapshotMeta) -> SimGen:
        """Release every rank directory's chunk references, remove the
        global directory, and garbage-collect blobs nothing references
        any more — other intervals and jobs keep the chunks they still
        share (the dedup contract)."""
        for rank in sorted(meta.locals):
            yield from self.store.release(ref.local_dir(rank))
        yield from super().purge(ref, meta)
        removed, freed = yield from self.store.gc()
        log.info(
            "purged %s: %d blob(s), %d bytes reclaimed", ref.path, removed, freed
        )
        return removed, freed
