"""CRS framework base: API every checkpointer component implements.

The paper (section 5.4) requires exactly two operations —

* ``checkpoint(pid)`` → local snapshot reference,
* ``restart(local snapshot reference)`` → a process resumed from it —

plus the ability to *enable and disable checkpointing* to protect
non-checkpointable code sections.  In this reproduction ``restart`` is
split in two because the new process is created by the ORTE launcher:
``restart_extract_chain`` reads and decodes the image (this framework's job),
and the launcher feeds the decoded image to the new process's layers.
"""

from __future__ import annotations

import pickle
from typing import TYPE_CHECKING, Any

from repro.mca.component import Component
from repro.opal.crs import chunks as chunkstore
from repro.simenv.kernel import Delay, SimGen
from repro.snapshot import (
    IMAGE_FILE,
    LocalSnapshotMeta,
    LocalSnapshotRef,
    read_local_meta,
    write_local_meta,
)
from repro.util.errors import CheckpointError, RestartError
from repro.vfs import path as vpath

if TYPE_CHECKING:  # pragma: no cover
    from repro.mca.registry import FrameworkRegistry
    from repro.opal.layer import CheckpointRequest, OpalLayer
    from repro.vfs.fsbase import FS


class CRSComponent(Component):
    """Base class of CRS components."""

    framework_name = "crs"
    #: whether images can be restarted on a node with a different OS tag
    portable_images = True

    # -- required API ----------------------------------------------------------

    def can_checkpoint(self, opal: "OpalLayer") -> bool:
        """Does this component support checkpointing this process?"""
        return True

    def capture(self, opal: "OpalLayer", request: "CheckpointRequest") -> dict[str, Any]:
        """Assemble the in-memory process image.  Subclasses override."""
        raise NotImplementedError

    def restore(self, opal: "OpalLayer", image: dict[str, Any]) -> None:
        """Reinstall a decoded image into a fresh process's layers."""
        opal.restore_contributors(image)

    # -- framework-level flow (shared by components) -----------------------------

    def checkpoint(self, opal: "OpalLayer", request: "CheckpointRequest") -> SimGen:
        """Take a local snapshot; returns ``(ref, meta, manifest)``, the
        last the ``chunks.json`` it wrote (every digest is listed there
        and nowhere else).

        Writes the image, ``chunks.json`` and ``metadata.json`` into
        ``request.snapshot_dir`` on ``request.target_fs``, paying the
        serialization, hashing and disk costs.  Chunk digests are
        compared before they are hashed (``chunks.hash_chunks``): only
        chunks that differ from this process's previous snapshot cost
        the host a SHA-256, while the modelled hash time stays that of
        the whole image.  When the request asks for an incremental
        snapshot (``options["incremental"]``) and that previous snapshot
        is the requested base interval, only those chunks are written
        (a **delta**); otherwise a full image is written.
        """
        if not self.can_checkpoint(opal):
            raise CheckpointError(
                f"CRS {self.name!r} cannot checkpoint {opal.proc.label}"
            )
        tracer = opal.proc.kernel.tracer
        rank = opal.proc.name.vpid
        span = tracer.begin("crs.capture", cat="crs", rank=rank, crs=self.name)
        image = self.capture(opal, request)
        span.end()
        span = tracer.begin("crs.serialize", cat="crs", rank=rank, crs=self.name)
        try:
            blob = pickle.dumps(image, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise CheckpointError(
                f"{opal.proc.label}: image not picklable: {exc}"
            ) from exc
        finally:
            span.end()
        fs = request.target_fs
        fs.mkdir(request.snapshot_dir)
        ref = LocalSnapshotRef(fs_name=fs.name, path=request.snapshot_dir)

        options = request.options or {}
        base_interval = options.get("base_interval")
        chunk_bytes = self.params.get_int(
            "crs_base_chunk_bytes", chunkstore.DEFAULT_CHUNK_BYTES
        )
        cache = opal.incr_chunk_cache
        span = tracer.begin("crs.hash", cat="crs", rank=rank, bytes=len(blob))
        # The modelled pass reads every byte, however many digests the
        # host takes over from the cache.
        hash_Bps = self.params.get_float("crs_base_hash_Bps", 4e9)
        if hash_Bps > 0:
            yield Delay(len(blob) / hash_Bps)
        hashes, dirty = chunkstore.hash_chunks(blob, chunk_bytes, cache)
        span.end()
        tracer.count("crs.chunks_hashed", len(dirty))
        tracer.count("crs.chunks_reused", len(hashes) - len(dirty))

        # ``dirty`` is a delta only against the cache it was compared with.
        use_delta = (
            bool(options.get("incremental"))
            and cache is not None
            and cache["interval"] == base_interval
            and cache["chunk_bytes"] == chunk_bytes
        )
        if use_delta:
            kind, present = chunkstore.KIND_DELTA, dirty
            payloads = {
                chunkstore.chunk_filename(i): blob[i * chunk_bytes : (i + 1) * chunk_bytes]
                for i in dirty
            }
        else:
            kind, present = chunkstore.KIND_FULL, list(range(len(hashes)))
            payloads, base_interval = {IMAGE_FILE: blob}, None
        manifest = chunkstore.ChunkManifest(
            kind=kind,
            chunk_bytes=chunk_bytes,
            total_bytes=len(blob),
            hashes=hashes,
            present=present,
            base_interval=base_interval,
            interval=request.interval,
        )
        written = sum(map(len, payloads.values()))
        span = tracer.begin(
            "crs.write", cat="crs", rank=rank, crs=self.name, fs=fs.name,
            bytes=written, kind=kind,
            **({"chunks": len(dirty)} if use_delta else {}),
        )
        for name, data in payloads.items():
            yield from fs.write(vpath.join(request.snapshot_dir, name), data)
        yield from chunkstore.write_manifest(fs, request.snapshot_dir, manifest)
        # What the next request compares against (and, if incremental,
        # diffs against): this interval's image and its digests.
        opal.incr_chunk_cache = {
            "interval": request.interval,
            "chunk_bytes": chunk_bytes,
            "hashes": hashes,
            "blob": blob,
        }

        meta = LocalSnapshotMeta(
            rank=opal.proc.name.vpid,
            jobid=opal.proc.name.jobid,
            crs_component=self.name,
            origin_node=opal.proc.node.name,
            os_tag=opal.proc.node.os_tag,
            interval=request.interval,
            sim_time=opal.proc.kernel.now,
            portable=self.portable_images,
            app_params={
                k: v for k, v in options.items()
                if k not in ("incremental", "base_interval")
            },
            files=[*payloads, chunkstore.CHUNK_MANIFEST],
            kind=kind,
            base_interval=base_interval,
            written_bytes=written,
            chunk_bytes=chunk_bytes,
            total_bytes=len(blob),
        )
        yield from write_local_meta(fs, ref, meta)
        span.end()
        return ref, meta, manifest

    def restart_extract_chain(
        self, fs: "FS", refs: list[LocalSnapshotRef], digest: str | None = None
    ) -> SimGen:
        """Read a local snapshot through its delta chain.

        ``refs`` is ordered oldest → newest; the newest entry is the
        snapshot to restore.  Full snapshots (and pre-incremental
        layouts) work with a single-entry chain; delta snapshots are
        reconstructed by overlaying changed chunks onto the nearest
        full base.  With *digest* (the committed manifest's digests,
        folded) the one ref is a full image this node kept since its
        checkpoint: its image alone is read, and refused unless its
        chunks fold to *digest*.  Returns ``(meta, image_dict)`` for the
        newest ref.
        """
        if not refs:
            raise RestartError("empty snapshot chain")
        newest = refs[-1]
        meta = yield from read_local_meta(fs, newest)
        if meta.crs_component != self.name:
            raise RestartError(
                f"snapshot {newest.path} was taken by CRS "
                f"{meta.crs_component!r}, not {self.name!r}"
            )
        if digest is None:
            blob, manifest = yield from chunkstore.reconstruct_chain(fs, [r.path for r in refs])
        else:
            blob, manifest = (yield from fs.read(vpath.join(newest.path, IMAGE_FILE))), None
            hash_Bps = self.params.get_float("crs_base_hash_Bps", 4e9)
            if hash_Bps > 0:
                yield Delay(len(blob) / hash_Bps)
            if chunkstore.image_digest(blob, meta.chunk_bytes) != digest:
                raise RestartError(
                    f"kept image at {newest.path} does not match its committed manifest"
                )
        # A preloaded image lands without its manifest: its size is
        # checked against the metadata that landed beside it.
        if manifest is None and len(blob) != meta.total_bytes:
            raise RestartError(
                f"image at {newest.path} is {len(blob)} bytes, "
                f"its metadata says {meta.total_bytes}"
            )
        try:
            image = pickle.loads(blob)
        except Exception as exc:  # bytes read back from storage: anything can come out
            raise RestartError(
                f"corrupt image at {newest.path}: {exc}"
            ) from exc
        return meta, image


def register_crs_components(registry: "FrameworkRegistry") -> None:
    from repro.opal.crs.none_crs import NoneCRS
    from repro.opal.crs.self_cb import SelfCRS
    from repro.opal.crs.simcr import SimCR

    registry.add_component("crs", SimCR)
    registry.add_component("crs", SelfCRS)
    registry.add_component("crs", NoneCRS)
