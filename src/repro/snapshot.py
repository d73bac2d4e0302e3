"""Snapshot references (paper section 4).

A *snapshot reference* is a single named handle to a checkpoint,
freeing the user from tracking checkpointer-specific file sets:

* **Local snapshot reference** — one process's checkpoint: a directory
  holding a ``metadata.json`` (which checkpointer was used, application
  parameters, interval number, origin node/OS) plus the checkpointer's
  own files (here: ``image.pkl``).
* **Global snapshot reference** — one distributed checkpoint: a
  directory holding a ``metadata.json`` (aggregated local references,
  last-known ranks, *runtime parameters*, global interval) plus the
  physical local snapshots, one per process.

Because the runtime parameters and application identity are recorded
at checkpoint time, ``ompi-restart`` needs nothing beyond the global
reference — the paper's usability point.

References are serialized as JSON into the simulated filesystems.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from functools import lru_cache

from repro.simenv.kernel import SimGen
from repro.util.errors import SnapshotError
from repro.vfs import path as vpath
from repro.vfs.fsbase import FS

LOCAL_META = "metadata.json"
GLOBAL_META = "metadata.json"
IMAGE_FILE = "image.pkl"

HASH_HEX_LEN = 64  # sha256 hexdigest width


def pack_hashes(hashes: "list[str]") -> "str | list[str]":
    """Join sha256 hex digests into one string for JSON transport.

    Encoding thousands of 64-char strings one by one dominates
    manifest/metadata serialization cost for finely chunked images.
    Lists holding anything other than full-width digests (test
    fixtures) pass through unpacked so the round trip is exact.
    """
    if not hashes or len(hashes[0]) != HASH_HEX_LEN:
        return hashes
    packed = "".join(hashes)
    if len(packed) != HASH_HEX_LEN * len(hashes):
        return hashes
    return packed


@lru_cache(maxsize=512)
def _split_packed(packed: str) -> tuple:
    return tuple(
        packed[i : i + HASH_HEX_LEN]
        for i in range(0, len(packed), HASH_HEX_LEN)
    )


def unpack_hashes(packed: "str | list[str]") -> list[str]:
    """Inverse of :func:`pack_hashes`; accepts both wire forms.

    Splits are memoized — every rank of a job writes the same image in
    the fleet benchmarks, so the same packed string is re-read per rank
    per restart.
    """
    if isinstance(packed, str):
        return list(_split_packed(packed))
    return list(packed)


@dataclass
class LocalSnapshotMeta:
    """Metadata describing a single-process snapshot."""

    rank: int
    jobid: int
    crs_component: str
    origin_node: str
    os_tag: str
    interval: int
    sim_time: float
    portable: bool = True
    app_params: dict = field(default_factory=dict)
    files: list[str] = field(default_factory=list)
    #: "full" or "delta" (incremental checkpointing)
    kind: str = "full"
    #: interval a delta image diffs against (None for full images)
    base_interval: int | None = None
    #: bytes physically written for this snapshot (full image or delta)
    written_bytes: int = 0
    #: CAS-ready manifest summary (chunk geometry + every chunk's
    #: digest); empty on pre-CAS snapshots
    chunk_bytes: int = 0
    total_bytes: int = 0
    chunk_hashes: list[str] = field(default_factory=list)
    #: chunk indices physically present in the snapshot directory
    present_chunks: list[int] = field(default_factory=list)

    def to_json(self) -> bytes:
        # Built by hand rather than via asdict(): asdict deep-copies
        # every chunk hash string, which dominates metadata-write cost
        # for finely chunked images.
        return json.dumps(
            {
                "rank": self.rank,
                "jobid": self.jobid,
                "crs_component": self.crs_component,
                "origin_node": self.origin_node,
                "os_tag": self.os_tag,
                "interval": self.interval,
                "sim_time": self.sim_time,
                "portable": self.portable,
                "app_params": self.app_params,
                "files": self.files,
                "kind": self.kind,
                "base_interval": self.base_interval,
                "written_bytes": self.written_bytes,
                "chunk_bytes": self.chunk_bytes,
                "total_bytes": self.total_bytes,
                "chunk_hashes": pack_hashes(self.chunk_hashes),
                "present_chunks": self.present_chunks,
            },
            sort_keys=True,
        ).encode()

    @classmethod
    def from_json(cls, raw: bytes) -> "LocalSnapshotMeta":
        try:
            data = json.loads(raw.decode())
            data["chunk_hashes"] = unpack_hashes(data.get("chunk_hashes", []))
            return cls(**data)
        except (ValueError, TypeError, KeyError) as exc:
            raise SnapshotError(f"bad local snapshot metadata: {exc}") from exc


#: staging lifecycle states persisted in global snapshot metadata
STAGE_STAGING = "staging"
STAGE_COMMITTED = "committed"
STAGE_FAILED = "failed"


def staging_state(
    state: str, error: str | None = None, committed_sim_time: float | None = None
) -> dict:
    """The value of :attr:`GlobalSnapshotMeta.staging` for *state*."""
    return {"state": state, "committed_sim_time": committed_sim_time, "error": error}


@dataclass
class GlobalSnapshotMeta:
    """Metadata describing a whole-job snapshot."""

    jobid: int
    interval: int
    n_procs: int
    sim_time: float
    app_name: str
    app_args: dict = field(default_factory=dict)
    mca_params: dict = field(default_factory=dict)
    #: rank -> {"path": str, "node": str, "crs": str, "os_tag": str}
    locals: dict = field(default_factory=dict)
    #: "full" or "delta" — delta intervals carry only changed chunks
    kind: str = "full"
    #: previous interval in the delta chain (None for full intervals)
    base_interval: int | None = None
    #: global snapshot dirs this interval depends on, oldest full first
    #: (empty for full intervals)
    base_chain: list = field(default_factory=list)
    #: True when the interval's chunk bytes live in the content-addressed
    #: store and the rank directories hold only manifests + metadata
    cas: bool = False
    #: aggregation-to-stable-storage lifecycle of this interval
    #: ({"state": staging|committed|failed, "committed_sim_time", "error"})
    staging: dict = field(default_factory=lambda: staging_state(STAGE_COMMITTED))

    def to_json(self) -> bytes:
        return json.dumps(asdict(self), sort_keys=True, indent=1).encode()

    @classmethod
    def from_json(cls, raw: bytes) -> "GlobalSnapshotMeta":
        try:
            data = json.loads(raw.decode())
            # JSON object keys are strings; normalize rank keys to int.
            data["locals"] = {int(k): v for k, v in data.get("locals", {}).items()}
            return cls(**data)
        except (ValueError, TypeError, KeyError) as exc:
            raise SnapshotError(f"bad global snapshot metadata: {exc}") from exc


@dataclass(frozen=True)
class LocalSnapshotRef:
    """Named reference to a local snapshot directory on some FS."""

    fs_name: str
    path: str

    @property
    def meta_path(self) -> str:
        return vpath.join(self.path, LOCAL_META)

    @property
    def image_path(self) -> str:
        return vpath.join(self.path, IMAGE_FILE)


@dataclass(frozen=True)
class GlobalSnapshotRef:
    """Named reference to a global snapshot directory on stable storage."""

    path: str

    @property
    def meta_path(self) -> str:
        return vpath.join(self.path, GLOBAL_META)

    def local_dir(self, rank: int) -> str:
        return vpath.join(self.path, f"rank{rank}")

    def __str__(self) -> str:  # pragma: no cover
        return self.path


def global_snapshot_dirname(jobid: int, interval: int) -> str:
    """Canonical global snapshot directory name."""
    return f"ompi_global_snapshot_{jobid}.{interval}"


def parse_global_dirname(path: str) -> tuple[int, int] | None:
    """``(jobid, interval)`` from a global snapshot path, or None."""
    name = path.rstrip("/").rsplit("/", 1)[-1]
    prefix = "ompi_global_snapshot_"
    if not name.startswith(prefix):
        return None
    try:
        jobid_s, interval_s = name[len(prefix):].split(".", 1)
        return int(jobid_s), int(interval_s)
    except ValueError:
        return None


# --------------------------------------------------------------------------
# Timed reader/writer helpers (generators)
# --------------------------------------------------------------------------


def write_local_meta(fs: FS, ref: LocalSnapshotRef, meta: LocalSnapshotMeta) -> SimGen:
    yield from fs.write(ref.meta_path, meta.to_json())
    return ref


def read_local_meta(fs: FS, ref: LocalSnapshotRef) -> SimGen:
    raw = yield from fs.read(ref.meta_path)
    return LocalSnapshotMeta.from_json(raw)


def write_global_meta(fs: FS, ref: GlobalSnapshotRef, meta: GlobalSnapshotMeta) -> SimGen:
    yield from fs.write(ref.meta_path, meta.to_json())
    return ref


def read_global_meta(fs: FS, ref: GlobalSnapshotRef) -> SimGen:
    if not fs.exists(ref.meta_path):
        raise SnapshotError(f"no global snapshot at {ref.path}")
    raw = yield from fs.read(ref.meta_path)
    return GlobalSnapshotMeta.from_json(raw)
