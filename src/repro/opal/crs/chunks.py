"""Chunked image store: the incremental-checkpoint file format.

A local snapshot's image is stored as a sequence of fixed-size chunks
described by a ``chunks.json`` manifest.  A **full** snapshot carries
the whole image (``image.pkl``) plus a manifest listing every chunk's
hash; a **delta** snapshot carries only the chunks that changed since
the base interval (``chunk_<i>.bin``) plus a manifest that still lists
*every* chunk's hash, so any reader can verify a reconstruction.

Reconstruction walks a chain of snapshot directories newest → oldest
until it finds a full image, then overlays each delta's present chunks
in interval order.  The chain may mix kinds per rank (a rank with no
chunk cache falls back to a full image inside a globally-delta
interval); reconstruction handles that per directory.

These helpers are shared by the CRS components (capture side), the
restart path (reconstruction: FILEM's preload on stable storage, or a
rank reading it directly), and the SNAPC staging coordinator
(compaction side), so the format lives in exactly one place.  Only the
capture side may take a digest over from the previous snapshot instead
of computing it (``hash_chunks``: both images are this process's own);
reconstruction hashes every byte it was handed back.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.simenv.kernel import SimGen
from repro.snapshot import CODEC, IMAGE_FILE, LOCAL_META, field_values
from repro.snapshot import pack_hashes, unpack_hashes
from repro.util.errors import RestartError, SnapshotError
from repro.vfs import path as vpath
from repro.vfs.fsbase import FS

CHUNK_MANIFEST = "chunks.json"
DEFAULT_CHUNK_BYTES = 64 * 1024

KIND_FULL = "full"
KIND_DELTA = "delta"


def chunk_filename(index: int) -> str:
    return f"chunk_{index:06d}.bin"


def split_chunks(blob: bytes, chunk_bytes: int) -> list[bytes]:
    if chunk_bytes <= 0:
        raise ValueError("chunk_bytes must be positive")
    return [blob[i : i + chunk_bytes] for i in range(0, len(blob), chunk_bytes)] or [
        b""
    ]


def hash_chunk(chunk: bytes) -> str:
    return hashlib.sha256(chunk).hexdigest()


@dataclass
class ChunkManifest:
    """Contents of a snapshot directory's ``chunks.json``."""

    kind: str
    chunk_bytes: int
    total_bytes: int
    #: every chunk's hash at this interval (full image shape)
    hashes: list[str] = field(default_factory=list)
    #: chunk indices physically present in this directory
    present: list[int] = field(default_factory=list)
    #: interval this delta diffs against (None for full images)
    base_interval: int | None = None
    interval: int = 0

    @property
    def n_chunks(self) -> int:
        return len(self.hashes)

    def to_json(self) -> bytes:
        def dump() -> bytes:
            # Hashes travel as one packed hex string; a full image's
            # ``present`` (the whole range) packs to null.
            data = field_values(self)
            data["hashes"] = pack_hashes(self.hashes)
            if self.present == list(range(len(self.hashes))):
                data["present"] = None
            return json.dumps(data, sort_keys=True).encode()

        return CODEC.encode(self, dump)

    @classmethod
    def from_json(cls, raw: bytes) -> "ChunkManifest":
        def parse() -> "ChunkManifest":
            data = json.loads(raw.decode())
            data["hashes"] = unpack_hashes(data.get("hashes", []))
            if data.get("present") is None:
                data["present"] = list(range(len(data["hashes"])))
            return cls(**data)

        return CODEC.decode(cls, raw, parse, "chunk manifest")


def manifest_path(snapshot_dir: str) -> str:
    return vpath.join(snapshot_dir, CHUNK_MANIFEST)


def write_manifest(fs: FS, snapshot_dir: str, manifest: ChunkManifest) -> SimGen:
    yield from fs.write(manifest_path(snapshot_dir), manifest.to_json())
    return manifest


def read_manifest(fs: FS, snapshot_dir: str) -> SimGen:
    raw = yield from fs.read(manifest_path(snapshot_dir))
    return ChunkManifest.from_json(raw)


def fold_digests(hashes: list[str]) -> str:
    """One digest standing for a whole digest list, in order."""
    return hash_chunk("".join(hashes).encode())


#: host memo of :func:`image_digest`, keyed by the whole image's SHA-256:
#: a kept image is checked again by every restart that reuses it
_IMAGE_DIGESTS: dict[tuple[bytes, int], str] = {}


def image_digest(blob: bytes, chunk_bytes: int) -> str:
    """:func:`fold_digests` of *blob*'s chunk digests, each distinct
    chunk hashed once (a finely chunked image repeats most chunks)."""
    key = (hashlib.sha256(blob).digest(), chunk_bytes)
    if key not in _IMAGE_DIGESTS:
        chunks = split_chunks(blob, chunk_bytes)
        digest_of = {chunk: hash_chunk(chunk) for chunk in dict.fromkeys(chunks)}
        if len(_IMAGE_DIGESTS) >= 1024:
            _IMAGE_DIGESTS.clear()
        _IMAGE_DIGESTS[key] = fold_digests(list(map(digest_of.__getitem__, chunks)))
    return _IMAGE_DIGESTS[key]


def hash_chunks(
    blob: bytes, chunk_bytes: int, cache: dict | None
) -> tuple[list[str], list[int]]:
    """Every chunk's digest, and the (ascending) indices that were hashed.

    Compare before hash: *cache* is the previous snapshot this process
    took (``{"chunk_bytes", "hashes", "blob"}``).  A chunk whose bytes
    equal the same range of that blob takes over its digest; one that
    differs, lies past it or is a trailing chunk of another length is
    hashed — as is every chunk when there is no cache or it was cut at
    another ``chunk_bytes``.  The digests are those of ``split_chunks``
    + ``hash_chunk``; the hashed indices are the delta against *cache*.
    """
    if chunk_bytes <= 0:
        raise ValueError("chunk_bytes must be positive")
    prev = cache["blob"] if cache and cache["chunk_bytes"] == chunk_bytes else None
    hashes: list[str] = []
    hashed: list[int] = []
    for index, start in enumerate(range(0, len(blob), chunk_bytes) or (0,)):
        chunk = blob[start : start + chunk_bytes]
        if prev is not None and chunk == prev[start : start + chunk_bytes]:
            hashes.append(cache["hashes"][index])
        else:
            hashes.append(hash_chunk(chunk))
            hashed.append(index)
    return hashes, hashed


def full_image_tree(blob: bytes, meta_raw: bytes) -> dict[str, bytes]:
    """The files a restarting rank finds, in the order they are written:
    ``image.pkl``, then *meta_raw* as ``metadata.json`` — last, the "tree
    complete" marker.  No manifest: the digests were checked before the
    image left stable storage, and the metadata records its size."""
    return {IMAGE_FILE: blob, LOCAL_META: meta_raw}


def reconstruct_chain(fs: FS, chain_dirs: list[str]) -> SimGen:
    """Rebuild the newest image from a base + delta directory chain.

    ``chain_dirs`` is ordered oldest → newest; the newest entry is the
    target interval.  Returns ``(blob, manifest)`` where *manifest* is
    the newest directory's manifest (None for a pre-incremental
    layout); every ``chunks.json`` is read once.  Raises
    :class:`RestartError` if no full base exists in the chain, a full
    image is not the size its manifest records, or the reconstruction
    does not verify against the newest manifest's hashes.
    """
    if not chain_dirs:
        raise RestartError("empty snapshot chain")
    newest = chain_dirs[-1]
    # Walk back to the nearest full image for this rank; a directory
    # without a manifest is one (the pre-incremental layout).
    deltas: list[tuple[str, ChunkManifest]] = []
    for base_dir in reversed(chain_dirs):
        base_manifest = None
        if not fs.exists(manifest_path(base_dir)):
            break
        base_manifest = yield from read_manifest(fs, base_dir)
        if base_manifest.kind == KIND_FULL:
            break
        deltas.insert(0, (base_dir, base_manifest))
    else:
        raise RestartError(f"snapshot chain for {newest} has no full base image")

    blob = yield from fs.read(vpath.join(base_dir, IMAGE_FILE))
    if base_manifest is not None and len(blob) != base_manifest.total_bytes:
        raise RestartError(
            f"full image is {len(blob)} bytes, manifest says "
            f"{base_manifest.total_bytes} ({base_dir})"
        )
    if not deltas:
        return blob, base_manifest

    # Each directory's overlay indices are relative to *its own*
    # chunk_bytes (``crs_base_chunk_bytes`` may change between
    # intervals), so the base is split per the base's geometry and the
    # image is re-split whenever a delta uses a different chunk size.
    # A legacy manifest-less base has no geometry of its own; it adopts
    # the first delta's.
    chunk_bytes = None if base_manifest is None else base_manifest.chunk_bytes
    chunks = None if chunk_bytes is None else split_chunks(blob, chunk_bytes)
    for directory, manifest in deltas:
        if chunks is None or chunk_bytes != manifest.chunk_bytes:
            if chunks is not None:
                blob = b"".join(chunks)
            chunk_bytes = manifest.chunk_bytes
            chunks = split_chunks(blob, chunk_bytes)
        # Grow/shrink to the delta's chunk count, then overlay.
        n = manifest.n_chunks
        if len(chunks) < n:
            chunks.extend([b""] * (n - len(chunks)))
        elif len(chunks) > n:
            del chunks[n:]
        for index in manifest.present:
            chunks[index] = yield from fs.read(vpath.join(directory, chunk_filename(index)))

    final = deltas[-1][1]
    blob = b"".join(chunks)
    if len(blob) != final.total_bytes:
        raise RestartError(
            f"reconstructed image is {len(blob)} bytes, manifest says "
            f"{final.total_bytes} ({newest})"
        )
    for index, chunk in enumerate(chunks):
        if hash_chunk(chunk) != final.hashes[index]:
            raise RestartError(
                f"reconstructed chunk {index} of {newest} fails verification"
            )
    return blob, final


def load_chunks(
    fs: FS, snapshot_dir: str, manifest: ChunkManifest, indices: list[int]
) -> SimGen:
    """Read selected chunk payloads out of one snapshot directory.

    Full directories store the image as a single file, so it is read
    once and sliced per the manifest's geometry; delta directories
    store individual chunk files and can only serve the indices listed
    in ``manifest.present``.  Returns ``{index: bytes}``.  This is the
    provider side of the CAS ship protocol.
    """
    want = sorted(set(indices))
    payloads: dict[int, bytes] = {}
    if not want:
        return payloads
    if manifest.kind == KIND_FULL:
        blob = yield from fs.read(vpath.join(snapshot_dir, IMAGE_FILE))
        chunks = split_chunks(blob, manifest.chunk_bytes)
        for index in want:
            if index >= len(chunks):
                raise SnapshotError(
                    f"chunk {index} out of range for {snapshot_dir}"
                )
            payloads[index] = chunks[index]
        return payloads
    present = set(manifest.present)
    for index in want:
        if index not in present:
            raise SnapshotError(
                f"chunk {index} not present in delta {snapshot_dir}"
            )
        payloads[index] = yield from fs.read(
            vpath.join(snapshot_dir, chunk_filename(index))
        )
    return payloads
