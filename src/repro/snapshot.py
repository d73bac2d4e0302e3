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

References are serialized as JSON into the simulated filesystems.  A
local reference lists no chunk digest: those live once, in the
checkpointer's ``chunks.json``, the one document whose size grows with
the chunk count and so the one that goes through :class:`DocumentCodec`.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, field

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
    manifest serialization cost for finely chunked images.
    Lists holding anything other than full-width digests (test
    fixtures) pass through unpacked so the round trip is exact.
    """
    if set(map(len, hashes)) != {HASH_HEX_LEN}:
        return hashes
    return "".join(hashes)


def unpack_hashes(packed: "str | list[str]") -> list[str]:
    """Inverse of :func:`pack_hashes`; accepts both wire forms.  A packed
    string that is not a whole number of digests is a ``ValueError``."""
    if not isinstance(packed, str):
        return list(packed)
    if len(packed) % HASH_HEX_LEN:
        raise ValueError(f"{len(packed)} packed characters are not whole digests")
    return [packed[i : i + HASH_HEX_LEN] for i in range(0, len(packed), HASH_HEX_LEN)]


def field_values(doc) -> dict:
    """A dataclass's fields, shallowly (``asdict`` deep-copies every digest)."""
    return {name: getattr(doc, name) for name in doc.__dataclass_fields__}


class DocumentCodec:
    """The one memo of the chunk-bearing document (``ChunkManifest``):
    bounded, LRU, keyed by content, never by path.

    Decoding is a pure function of the bytes and encoding of the field
    values, so each happens once per content, and a writer seeds the
    decode side with what it just encoded.  Corrupted bytes are different
    bytes: a miss, a real parse, the parser's error (never cached).  Kept
    are field values with lists frozen to tuples; every reader gets a
    fresh document that shares nothing mutable with them.
    """

    BOUND = 512  # as the per-substring cache it replaces; scale_1000 needs 132

    def clear(self) -> None:
        self._memo: OrderedDict = OrderedDict()
        self._counts = {"hits": 0, "decode_misses": 0, "encode_misses": 0}

    __init__ = clear

    def stats(self) -> dict:
        return dict(self._counts, entries=len(self._memo))

    def _lookup(self, key: tuple, missed: str, make):
        memo = self._memo
        value = memo.pop(key, None)
        self._counts[missed if value is None else "hits"] += 1
        memo[key] = value = make() if value is None else value  # now the newest
        while len(memo) > self.BOUND:
            memo.popitem(last=False)
        return value

    @staticmethod
    def _frozen(doc) -> tuple:
        return tuple(tuple(v) if type(v) is list else v for v in field_values(doc).values())

    def encode(self, doc, dump) -> bytes:
        """``dump()``, run once per distinct (hashable) field values."""
        kind, fields = type(doc), self._frozen(doc)

        def make() -> bytes:
            raw = dump()
            self._memo[kind, raw] = fields  # its reader need not parse it
            return raw

        return self._lookup((kind, fields), "encode_misses", make)

    def decode(self, kind: type, raw: bytes, parse, what: str):
        """The *kind* document ``parse()`` builds from *raw*, run once per
        distinct bytes; undecodable ones are a ``SnapshotError`` each time."""
        try:
            fields = self._lookup((kind, raw), "decode_misses", lambda: self._frozen(parse()))
        except (ValueError, TypeError, KeyError) as exc:
            raise SnapshotError(f"bad {what}: {exc}") from exc
        return kind(*(list(v) if type(v) is tuple else v for v in fields))


CODEC = DocumentCodec()


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
    #: chunk geometry and size of the image (its digests are listed in
    #: the checkpointer's ``chunks.json``, not here)
    chunk_bytes: int = 0
    total_bytes: int = 0

    def to_json(self) -> bytes:
        return json.dumps(field_values(self), sort_keys=True).encode()

    @classmethod
    def from_json(cls, raw: bytes) -> "LocalSnapshotMeta":
        try:
            return cls(**json.loads(raw.decode()))
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
        return json.dumps(field_values(self), sort_keys=True, indent=1).encode()

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


#: where global snapshot directories live on stable storage
SNAPSHOT_ROOT = "/snapshots"
#: where ranks write their local snapshots on their node's disk
LOCAL_STAGING_ROOT = "/ckpt"


def global_snapshot_dirname(jobid: int, interval: int) -> str:
    """Canonical global snapshot directory name."""
    return f"ompi_global_snapshot_{jobid}.{interval}"


def local_snapshot_dir(jobid: int, interval: int, rank: int) -> str:
    """Where *rank* writes its local snapshot of *interval* on its node."""
    return vpath.join(LOCAL_STAGING_ROOT, f"job{jobid}", f"interval{interval}", f"rank{rank}")


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
