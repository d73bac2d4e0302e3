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
  the store, listed by the manifests the restart's check read.  Either
  way a restarting rank finds one full image.

The code picks the backend itself.  At checkpoint time it is CAS iff
``snapc_full_cas`` is set, the FILEM component can ship chunks, and
every rank replied with chunk digests (a CRS that bypasses the chunk
format falls the whole interval back to the tree); afterwards an
interval is handled by the backend recorded in ``record.cas`` /
``meta.cas``.  The coordinator (:mod:`repro.orte.snapc.staging`) keeps
everything that does not differ: records, FIFO and slots, full/delta
planning, admission, the metadata lifecycle and the failover skeleton.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

from repro.opal.crs import chunks as chunkstore
from repro.orte.job import ProcSpec
from repro.simenv.kernel import Delay, SimGen
from repro.snapshot import (
    LOCAL_META,
    GlobalSnapshotMeta,
    GlobalSnapshotRef,
    LocalSnapshotMeta,
    LocalSnapshotRef,
    read_local_meta,
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
from repro.vfs.cas import DEFAULT_ROOT as CAS_ROOT
from repro.vfs.cas import ChunkStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.orte.job import Job
    from repro.orte.snapc.base import RestartPlan
    from repro.orte.snapc.staging import StagingCoordinator, StagingRecord

log = get_logger("orte.snapc.stage")

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
        record.kind = record.meta.kind = chunkstore.KIND_FULL
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

    def drop_preload(self, entries: list[tuple[str, list[str], str]]) -> None:
        """Remove the job's staging from every node :meth:`preload`
        landed on (partial trees too), a thread per node, nobody waiting."""
        for node, staging in dict.fromkeys(
            (node, vpath.dirname(dst)) for node, _chain, dst in entries
        ):
            self.hnp.proc.spawn_thread(
                self.hnp.filem.remove(self.hnp, [(node, staging)]),
                name=f"restart-cleanup-{node}", daemon=True,
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
            last_error = (
                f"{len(missing)} local snapshot(s) missing after gather"
            )
        return last_error or "gather failed"

    def compact(self, record: "StagingRecord") -> SimGen:
        """Rewrite the interval as a full image, entirely on stable
        storage: reconstruct each rank's image from its chain, write
        ``image.pkl`` plus a full manifest into the interval's own
        directory, and drop the chain from the metadata.  Restart of
        this interval then needs no other directory."""
        stable = self.stable
        chain = [d for d in record.base_chain if d != record.ref.path]
        chain.append(record.ref.path)
        try:
            for rank in sorted(record.meta.locals):
                dirs = [vpath.join(d, f"rank{rank}") for d in chain]
                blob, manifest = yield from chunkstore.reconstruct_chain(stable, dirs)
                dst = record.ref.local_dir(rank)
                for name, data in chunkstore.full_image_tree(blob, manifest).items():
                    yield from stable.write(vpath.join(dst, name), data)
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

    @cached_property
    def store(self) -> ChunkStore:
        """The cluster-wide chunk store on stable storage (opened on
        first use, so a run that never stages by CAS creates nothing).

        All store state lives on the filesystem, so re-opening it (a
        new coordinator, a test, ``ompi-restart`` after HNP loss) sees
        the same blobs and references.
        """
        root = self.stager.snapc.params.get("snapc_full_cas_root", CAS_ROOT)
        return ChunkStore(self.stable, root=root)

    @property
    def _filem_moves_chunks(self) -> bool:
        return self.hnp.filem.supports_cas

    def accepts(self, results: dict[int, dict]) -> bool:
        """The checkpoint-time selection rule: opted in, a FILEM that
        ships chunks, and chunk digests from every rank."""
        return (
            self.stager.snapc.params.get_bool("snapc_full_cas", False)
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
        """Rebuild the rank manifests from the source nodes' local
        snapshot metadata.

        The capture-side manifests lived only in the dead HNP's heap,
        but each rank's local ``metadata.json`` records the same chunk
        geometry (digests, chunk size, present set), so the ship
        negotiation can restart from the nodes that still hold bytes.
        """
        ranks = sorted(record.meta.locals)
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

    def unusable(self, ref, meta, skip, checked) -> SimGen:
        """Presence of every chunk in the store, rank by rank; each
        rank directory's manifest goes into *checked*, for the fetch.

        Content is verified chunk-by-chunk during the restart fetch;
        this only keeps a restart (and recovery's attempt budget) from
        being spent on chunks already known to be gone.  Retryable: any
        checkpoint that ships the chunk again repairs the store.
        """
        for rank in sorted(meta.locals):
            src = ref.local_dir(rank)
            try:
                checked[src] = yield from chunkstore.read_manifest(self.stable, src)
            except ReproError as exc:
                return f"rank {rank} manifest unreadable: {exc}"
            absent = len(self.store.missing(checked[src].hashes))
            if absent:
                return f"rank {rank}: {absent} chunk(s) absent from the store"
        return None

    def plan_restart(self, plan, job, placements) -> SimGen:
        # The rank directories hold only manifests, so a restart that
        # cannot get at the store must be refused before any process is
        # planned, not discovered by a rank reading an empty directory.
        if not self._filem_moves_chunks:
            raise RestartError(
                f"snapshot {plan.ref.path} is CAS-backed but FILEM "
                f"{self.hnp.filem.name!r} cannot fetch chunks"
            )
        return (yield from super().plan_restart(plan, job, placements))

    def preload(self, plan, entries) -> SimGen:
        """Each distinct chunk is read once and verified on the way out;
        the manifests are the ones :meth:`unusable` read."""
        yield from self.hnp.filem.fetch_chunks(self.hnp, self.store, entries, plan.checked)

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
