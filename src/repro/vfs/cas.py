"""Content-addressed chunk store on a simulated filesystem.

The CRS layer already chunk-hashes every image for incremental
checkpointing; this module promotes those hashes into a cluster-wide
**content-addressed store** (CAS) on stable storage.  A chunk is
stored once under its SHA-256 digest no matter how many ranks,
intervals, or jobs produced it, and the FILEM offer/ship protocol
(:meth:`missing` is the store's half of the negotiation) moves only
chunks the store does not yet hold.

Layout on the backing filesystem (``<root>`` defaults to ``/cas``)::

    <root>/objects/<digest[:2]>/<digest>   one file per unique chunk
    <root>/refs/<owner-key>.json           one file per owner

Reference counting is *derived*, never stored: an **owner** (by
convention a snapshot rank directory such as
``/snapshots/ompi_global_snapshot_1.3/rank0``) registers the digests it
depends on in its ref file, and a chunk is live while any ref file
lists it.  :meth:`gc` deletes unreferenced blobs.  Because all state
lives on the filesystem, the store survives coordinator loss — any HNP
(or test) can re-open it by pointing at the same root.

Reads verify content: :meth:`get` re-hashes the blob and raises
:class:`~repro.util.errors.SnapshotError` on a mismatch, which is what
makes restart-time *per-chunk* verification (and retryable recovery)
possible.
"""

from __future__ import annotations

import hashlib
import json

from repro.simenv.kernel import Delay, SimGen
from repro.util.errors import SnapshotError, VFSError
from repro.vfs import path as vpath
from repro.vfs.fsbase import FS

DEFAULT_ROOT = "/cas"
OBJECTS_DIR = "objects"
REFS_DIR = "refs"


def chunk_digest(data: bytes) -> str:
    """The store's content address: SHA-256 hex (matches the CRS
    manifest hashes, so capture-side manifests are CAS-ready)."""
    return hashlib.sha256(data).hexdigest()


class ChunkStore:
    """Hash-addressed blob store with derived refcounts and GC."""

    def __init__(self, fs: FS, root: str = DEFAULT_ROOT):
        self.fs = fs
        self.root = vpath.normalize(root)
        self._objects = vpath.join(self.root, OBJECTS_DIR)
        fs.mkdir(self.root)

    # -- paths -----------------------------------------------------------------

    def blob_path(self, digest: str) -> str:
        # vpath.join(self._objects, digest[:2], digest), root normalised once
        return f"{self._objects}/{digest[:2]}/{digest}"

    def _ref_path(self, owner: str) -> str:
        # Owners are arbitrary paths; key the ref file by a digest of
        # the owner name so no quoting scheme can collide.
        key = hashlib.sha256(owner.encode()).hexdigest()[:32]
        return vpath.join(self.root, REFS_DIR, f"{key}.json")

    # -- negotiation (untimed metadata) ------------------------------------------

    def has(self, digest: str) -> bool:
        return self.fs.exists(self.blob_path(digest))

    def missing(self, digests: list[str]) -> list[str]:
        """The store's answer to an offer: which of *digests* it lacks.

        Deduplicates while preserving first-seen order, so the caller
        can ship the result as-is.
        """
        return [d for d in dict.fromkeys(digests) if not self.has(d)]

    # -- blobs (timed) -----------------------------------------------------------

    def put(self, digest: str, data: bytes) -> SimGen:
        """Store one chunk; returns bytes written (0 on a dedup hit).

        The digest is recomputed before storing — a corrupt payload
        must not poison the address it claims.
        """
        if chunk_digest(data) != digest:
            raise SnapshotError(
                f"chunk payload does not match digest {digest[:12]}…"
            )
        if self.has(digest):
            yield Delay(self.fs.op_latency_s)
            return 0
        written = yield from self.fs.write(self.blob_path(digest), data)
        return written

    def put_many(self, chunks: "list[tuple[str, bytes]]") -> SimGen:
        """Store several chunks under one aggregate delay.

        Returns total bytes written (dedup hits contribute 0 but still
        pay one ``op_latency`` each, exactly like a :meth:`put` loop).
        Duplicate digests within the batch count as hits after the
        first occurrence.
        """
        hit_time = 0.0
        fresh: list[tuple[str, bytes]] = []
        seen: set[str] = set()
        for digest, data in chunks:
            if chunk_digest(data) != digest:
                raise SnapshotError(
                    f"chunk payload does not match digest {digest[:12]}…"
                )
            if digest in seen or self.has(digest):
                hit_time += self.fs.op_latency_s
            else:
                seen.add(digest)
                fresh.append((self.blob_path(digest), data))
        if hit_time:
            yield Delay(hit_time)
        if fresh:
            written = yield from self.fs.write_many(fresh)
        else:
            written = 0
        return written

    def get_many(self, digests: "list[str]") -> SimGen:
        """Read and verify several chunks under one aggregate delay.

        Returns the blobs in input order; duplicate digests are read
        once and fanned back out (a repeated chunk is one store blob).
        """
        unique = list(dict.fromkeys(digests))
        for digest in unique:
            if not self.fs.exists(self.blob_path(digest)):
                raise SnapshotError(f"chunk {digest[:12]}… absent from store")
        blobs = yield from self.fs.read_many(
            [self.blob_path(d) for d in unique]
        )
        by_digest: dict[str, bytes] = {}
        for digest, data in zip(unique, blobs):
            if chunk_digest(data) != digest:
                raise SnapshotError(f"chunk {digest[:12]}… fails verification")
            by_digest[digest] = data
        return [by_digest[d] for d in digests]

    def get(self, digest: str) -> SimGen:
        """Read and verify one chunk; raises ``SnapshotError`` when the
        chunk is absent or its content no longer matches its address."""
        path = self.blob_path(digest)
        if not self.fs.exists(path):
            raise SnapshotError(f"chunk {digest[:12]}… absent from store")
        data = yield from self.fs.read(path)
        if chunk_digest(data) != digest:
            raise SnapshotError(f"chunk {digest[:12]}… fails verification")
        return data

    # -- references --------------------------------------------------------------

    def add_refs(self, owner: str, digests: list[str]) -> SimGen:
        """Register *owner*'s dependency on *digests* (merged, idempotent)."""
        path = self._ref_path(owner)
        merged: list[str] = []
        if self.fs.exists(path):
            raw = yield from self.fs.read(path)
            merged = json.loads(raw.decode())["digests"]
        merged = list(dict.fromkeys(merged + list(digests)))
        payload = json.dumps({"owner": owner, "digests": merged}).encode()
        yield from self.fs.write(path, payload)
        return len(merged)

    def release(self, owner: str) -> SimGen:
        """Drop *owner*'s references (no-op if it holds none)."""
        path = self._ref_path(owner)
        if self.fs.exists(path):
            yield from self.fs.remove(path)
        else:
            yield Delay(self.fs.op_latency_s)
        return None

    def owners(self) -> list[str]:
        """Every owner currently holding references (untimed scan)."""
        refs_root = vpath.join(self.root, REFS_DIR)
        return sorted(
            json.loads(self.fs.peek(p).decode())["owner"]
            for p in self.fs.list_tree(refs_root)
        )

    def referenced(self) -> set[str]:
        """The union of every owner's digests (untimed scan)."""
        refs_root = vpath.join(self.root, REFS_DIR)
        live: set[str] = set()
        for path in self.fs.list_tree(refs_root):
            live.update(json.loads(self.fs.peek(path).decode())["digests"])
        return live

    def refcount(self, digest: str) -> int:
        """How many owners reference *digest* (untimed, for tests/tools)."""
        refs_root = vpath.join(self.root, REFS_DIR)
        return sum(
            digest in json.loads(self.fs.peek(p).decode())["digests"]
            for p in self.fs.list_tree(refs_root)
        )

    # -- garbage collection ------------------------------------------------------

    def gc(self) -> SimGen:
        """Delete unreferenced blobs; returns ``(removed, freed_bytes)``."""
        live = self.referenced()
        removed = 0
        freed = 0
        for path in self.fs.list_tree(vpath.join(self.root, OBJECTS_DIR)):
            digest = vpath.basename(path)
            if digest in live:
                continue
            try:
                freed += self.fs.stat(path).size
                yield from self.fs.remove(path)
                removed += 1
            except VFSError:
                continue
        return removed, freed

    # -- introspection -----------------------------------------------------------

    def stats(self) -> dict:
        """Blob count / stored bytes / reference counts (untimed)."""
        objects = self.fs.list_tree(vpath.join(self.root, OBJECTS_DIR))
        return {
            "blobs": len(objects),
            "stored_bytes": sum(self.fs.stat(p).size for p in objects),
            "owners": len(self.fs.list_tree(vpath.join(self.root, REFS_DIR))),
            "referenced": len(self.referenced()),
        }
