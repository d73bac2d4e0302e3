"""CRS framework base: API every checkpointer component implements.

The paper (section 5.4) requires exactly two operations —

* ``checkpoint(pid)`` → local snapshot reference,
* ``restart(local snapshot reference)`` → a process resumed from it —

plus the ability to *enable and disable checkpointing* to protect
non-checkpointable code sections.  In this reproduction ``restart`` is
split in two because the new process is created by the ORTE launcher:
``restart_extract`` reads and decodes the image (this framework's job),
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
        """Take a local snapshot; returns ``(ref, meta)``.

        Writes the image plus ``metadata.json`` into
        ``request.snapshot_dir`` on ``request.target_fs``, paying the
        serialization and disk costs.  When the request asks for an
        incremental snapshot (``options["incremental"]``) and this
        process holds a chunk-hash cache for the requested base
        interval, only the chunks that changed since the base are
        written (a **delta**); otherwise a full image is written.
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
        want_delta = bool(options.get("incremental"))
        base_interval = options.get("base_interval")
        chunk_bytes = self.params.get_int(
            "crs_base_chunk_bytes", chunkstore.DEFAULT_CHUNK_BYTES
        )
        chunks = chunkstore.split_chunks(blob, chunk_bytes)
        hash_span = tracer.begin(
            "crs.hash", cat="crs", rank=rank, bytes=len(blob)
        )
        hash_Bps = self.params.get_float("crs_base_hash_Bps", 4e9)
        if hash_Bps > 0:
            yield Delay(len(blob) / hash_Bps)
        hashes = [chunkstore.hash_chunk(c) for c in chunks]
        hash_span.end()

        cache = getattr(opal, "incr_chunk_cache", None)
        use_delta = (
            want_delta
            and cache is not None
            and base_interval is not None
            and cache.get("interval") == base_interval
            and cache.get("chunk_bytes") == chunk_bytes
        )
        if use_delta:
            dirty = chunkstore.diff_chunks(hashes, cache["hashes"])
            written = sum(len(chunks[i]) for i in dirty)
            span = tracer.begin(
                "crs.write", cat="crs", rank=rank, crs=self.name,
                fs=fs.name, bytes=written, kind="delta", chunks=len(dirty),
            )
            yield from chunkstore.write_delta(
                fs, request.snapshot_dir, chunks, hashes, dirty,
                chunk_bytes, request.interval, base_interval,
            )
            kind = chunkstore.KIND_DELTA
            files = [chunkstore.chunk_filename(i) for i in sorted(dirty)]
            present = sorted(dirty)
        else:
            written = len(blob)
            span = tracer.begin(
                "crs.write", cat="crs", rank=rank, crs=self.name,
                fs=fs.name, bytes=written, kind="full",
            )
            yield from fs.write(ref.image_path, blob)
            yield from chunkstore.write_full_manifest(
                fs, request.snapshot_dir, chunk_bytes, len(blob),
                hashes, request.interval,
            )
            kind = chunkstore.KIND_FULL
            files = [vpath.basename(ref.image_path)]
            base_interval = None
            present = list(range(len(hashes)))
        # Remember this interval's chunk shape so the next incremental
        # request can diff against it.
        opal.incr_chunk_cache = {
            "interval": request.interval,
            "chunk_bytes": chunk_bytes,
            "hashes": hashes,
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
            files=files + [chunkstore.CHUNK_MANIFEST],
            kind=kind,
            base_interval=base_interval if kind == chunkstore.KIND_DELTA else None,
            written_bytes=written,
            chunk_bytes=chunk_bytes,
            total_bytes=len(blob),
            chunk_hashes=list(hashes),
            present_chunks=present,
        )
        yield from write_local_meta(fs, ref, meta)
        span.end()
        return ref, meta

    def restart_extract(self, fs: "FS", ref: LocalSnapshotRef) -> SimGen:
        """Read a single local snapshot; returns ``(meta, image_dict)``."""
        result = yield from self.restart_extract_chain(fs, [ref])
        return result

    def restart_extract_chain(
        self, fs: "FS", refs: list[LocalSnapshotRef]
    ) -> SimGen:
        """Read a local snapshot through its delta chain.

        ``refs`` is ordered oldest → newest; the newest entry is the
        snapshot to restore.  Full snapshots (and pre-incremental
        layouts) work with a single-entry chain; delta snapshots are
        reconstructed by overlaying changed chunks onto the nearest
        full base.  Returns ``(meta, image_dict)`` for the newest ref.
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
        blob, _manifest = yield from chunkstore.reconstruct_chain(
            fs, [r.path for r in refs], IMAGE_FILE
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
