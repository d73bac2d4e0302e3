"""Durable control-plane state store (write-ahead, crash-consistent).

The paper's global coordinator keeps everything that matters — the job
table, recovery lineages, checkpoint cadence — in mpirun's memory, so
the HNP's node is the one machine whose death kills the universe.
Skjellum & Schafer's critique of C/R libraries applies to the C/R
runtime itself: the recovery machinery must survive its own failures.
This module externalizes the control plane the way arXiv:1906.05020
externalizes runtime state, so a re-elected HNP can rebuild it.

Design: a journaled key/value store on stable storage, one JSON record
per mutation::

    <root>/base.json              compacted snapshot of every table
    <root>/wal/<seq>.json         one record: {seq, table, key, value, sha}

Writes are *ordered*, not synchronous: :meth:`StateStore.put` updates
the in-memory tables immediately and appends the record to a FIFO the
writer thread drains in sequence order through the VFS (whose writes
are atomic-at-close, the fsync analogue).  ``sha`` is a content hash
over ``(seq, table, key, value)`` via the CAS digest helper, so replay
detects torn or corrupted records instead of trusting them.  Replay
applies the newest intact ``base.json`` (a torn base falls back to the
WAL alone), then every WAL record in sequence order up to the first
record that fails its hash or fails to parse — the torn suffix is
discarded, exactly like a database WAL.  Sequence *gaps* are legal and
do not stop replay: an HNP dying with unwritten appends queued leaves
a hole where :meth:`drop_pending` discarded them.

Compaction folds the WAL into ``base.json`` once it grows past
``wal_max_records`` (:data:`WAL_MAX_RECORDS` unless a test asks for
fewer), and only at a quiet moment (no pending appends), so the base
always reflects exactly the records it replaces.
A crash between the base write and the WAL removal is safe: replay
ignores WAL records whose seq the base already covers.

The writer thread lives in the *current* HNP process (re-attached per
incarnation via :meth:`attach`), so it dies with the HNP and the next
incarnation's :meth:`replay` sees only what actually reached stable
storage.

Every value reaches :meth:`StateStore.put` through one funnel,
:meth:`StateStore.journal`, which puts a row only when it differs from
what the key holds.  A :class:`Durable` record (a job, a recovery
episode, a cadence estimator) changes, checks its edge and is journalled
whole in one :meth:`Durable.change`; a :class:`DurableMap` journals each
row it assigns.  :data:`TABLES` declares the tables, in the order a
successor replays them.  A checkpoint interval has no table: its global
``metadata.json`` on stable storage is its one durable record.

With ``orte_hnp_failover`` off the universe carries a
:class:`NullStateStore`, which performs no I/O, posts no kernel events
and encodes nothing.  A live store is not an idle cost that could
simply be left on: every ``put`` becomes one WAL file written through
``stable_fs.write``, which takes simulated time on the stable-storage
server that checkpoint staging shares, so the simulated makespan of
every run without failover would move.  Both values of the switch are
in real use (the fault campaigns run with failover, everything else
without).
"""

from __future__ import annotations

import json
from collections import UserDict, deque
from typing import TYPE_CHECKING, Any, Callable, ClassVar

from repro.mca.params import Param
from repro.simenv.kernel import Delay, SimGen, WaitEvent
from repro.util.errors import VFSError
from repro.util.logging import get_logger
from repro.vfs import path as vpath
from repro.vfs.cas import chunk_digest

if TYPE_CHECKING:  # pragma: no cover
    from repro.orte.universe import Universe
    from repro.simenv.kernel import SimEvent
    from repro.simenv.process import SimProcess

log = get_logger("orte.statestore")

DEFAULT_ROOT = "/universe/statestore"
ROOT = Param("statestore_root", DEFAULT_ROOT, "stable-storage directory of the control-plane store")
BASE_FILE = "base.json"
WAL_DIR = "wal"
#: writer back-off while stable storage refuses a record, sim seconds
RETRY_S = 0.05
#: WAL records accumulated before compaction into the base
WAL_MAX_RECORDS = 256
#: pseudo-table naming the base snapshot in its own hash
_BASE_TABLE = "__base__"
#: what a key no row holds is never equal to
_ABSENT = object()
#: the journal's tables, in the order a successor replays them
TABLES = (
    "jobs", "lineage", "attempts", "failures", "episodes", "sched", "ready",
)


def _record_sha(seq: int, table: str, key: str, value: Any) -> str:
    """Torn-write detector: content hash of one record's payload."""
    blob = json.dumps([seq, table, key, value], sort_keys=True)
    return chunk_digest(blob.encode())


class StateStore:
    """Write-ahead control-plane store on the cluster's stable storage."""

    enabled = True

    def __init__(
        self,
        universe: "Universe",
        root: str = DEFAULT_ROOT,
        wal_max_records: int = WAL_MAX_RECORDS,
    ):
        self.universe = universe
        self.kernel = universe.kernel
        self.fs = universe.cluster.stable_fs
        self.root = vpath.normalize(root)
        self.wal_max_records = max(1, int(wal_max_records))
        self._wal_root = vpath.join(self.root, WAL_DIR)
        self._base_path = vpath.join(self.root, BASE_FILE)
        self.fs.mkdir(self._wal_root)
        #: the live view: table name -> {key: value}
        self.tables: dict[str, dict[str, Any]] = {}
        #: records accepted but not yet durable: (seq, serialized bytes)
        self._pending: deque[tuple[int, bytes]] = deque()
        #: flush waiters: (target seq, event)
        self._flush_waiters: list[tuple[int, "SimEvent"]] = []
        self._wake: "SimEvent | None" = None
        self._next_seq = 0
        self._written_seq = -1
        self._base_seq = -1
        #: True from :meth:`drop_pending` until :meth:`replay`: the view
        #: then holds only what was journalled since the drop
        self._partial = False
        # counters (tests, meta-reports)
        self.appended = 0
        self.compactions = 0
        self.dropped = 0

    # -- paths ----------------------------------------------------------------

    def _wal_path(self, seq: int) -> str:
        return vpath.join(self._wal_root, f"{seq:08d}.json")

    def _wal_entries(self) -> list[tuple[int, str]]:
        entries = []
        for path in self.fs.list_tree(self._wal_root):
            name = path.rsplit("/", 1)[-1]
            if not name.endswith(".json"):
                continue
            try:
                entries.append((int(name[: -len(".json")]), path))
            except ValueError:
                continue
        entries.sort()
        return entries

    # -- mutation -------------------------------------------------------------

    def journal(self, table: str, key: Any, encode: Callable, *args: Any) -> None:
        """The funnel: journal ``encode(*args)`` as ``tables[table][key]``
        unless that is exactly what the key already holds."""
        if table not in TABLES:
            raise ValueError(f"undeclared statestore table {table!r}")
        value, key = encode(*args), str(key)
        if self.tables.get(table, {}).get(key, _ABSENT) != value:
            self.put(table, key, value)

    def put(self, table: str, key: str, value: Any) -> None:
        """Record ``tables[table][key] = value`` now; the WAL append,
        serialized here, is queued for the writer thread."""
        seq = self._next_seq
        self._next_seq += 1
        self.tables.setdefault(table, {})[key] = value
        record = {
            "seq": seq,
            "table": table,
            "key": key,
            "value": value,
            "sha": _record_sha(seq, table, key, value),
        }
        data = json.dumps(record, sort_keys=True).encode()
        self._pending.append((seq, data))
        if self._wake is not None and not self._wake.fired:
            self._wake.fire(None)

    def flush(self) -> SimGen:
        """Generator: block until every put so far is on stable storage."""
        if not self._pending:
            return None
        event = self.kernel.event("statestore.flush")
        self._flush_waiters.append((self._pending[-1][0], event))
        yield WaitEvent(event)
        return None

    def drop_pending(self) -> int:
        """Discard queued-but-unwritten appends (HNP death).

        Called by the election path *before* the new HNP attaches its
        writer: the dead incarnation's un-durable appends must not be
        written by the successor.  Their seqs become WAL gaps, which
        replay tolerates.
        """
        count = len(self._pending)
        self._pending.clear()
        self._flush_waiters.clear()
        self.dropped += count
        # The view forgets the dropped values with them: until replay
        # lays it over what is on disk, it holds only later journalling.
        self.tables = {}
        self._partial = True
        return count

    # -- the writer ------------------------------------------------------------

    def attach(self, proc: "SimProcess") -> None:
        """Start this incarnation's writer thread inside *proc*."""
        proc.spawn_thread(
            self._writer_loop(), name="statestore-writer", daemon=True
        )

    def _writer_loop(self) -> SimGen:
        while True:
            if not self._pending:
                self._wake = self.kernel.event("statestore.wake")
                yield WaitEvent(self._wake)
                continue
            seq, data = self._pending[0]
            yield from self._write_record(seq, data)
            # Same synchronous segment as the write completing: a kill
            # can never land between "durable" and "dequeued".
            self._pending.popleft()
            self._written_seq = seq
            self.appended += 1
            self._fire_flush_waiters()
            if (
                not self._pending
                and not self._partial
                and self._written_seq - self._base_seq >= self.wal_max_records
            ):
                yield from self._compact()

    def _write_record(self, seq: int, data: bytes) -> SimGen:
        span = self.kernel.tracer.begin(
            "statestore.append", cat="statestore", seq=seq, bytes=len(data)
        )
        path = self._wal_path(seq)
        retries = 0
        while True:
            try:
                yield from self.fs.write(path, data)
                break
            except VFSError:
                # Stable storage is in an injected fault window; the
                # record is not allowed to be lost, so pace and retry
                # until the window closes.
                retries += 1
                yield Delay(RETRY_S)
        span.end(retries=retries)
        return None

    def _fire_flush_waiters(self) -> None:
        matured = [w for w in self._flush_waiters if w[0] <= self._written_seq]
        if not matured:
            return
        self._flush_waiters = [
            w for w in self._flush_waiters if w[0] > self._written_seq
        ]
        for _seq, event in matured:
            if not event.fired:
                event.fire(None)

    def _compact(self) -> SimGen:
        """Fold the WAL into ``base.json`` (quiet moments only).

        The caller guarantees no appends are pending, so the in-memory
        tables are exactly the state the written WAL describes.  A
        failed base write just postpones compaction; a crash after the
        base write but before the WAL removal leaves stale records that
        replay ignores (their seq is covered by the base).
        """
        span = self.kernel.tracer.begin(
            "statestore.compact", cat="statestore", seq=self._written_seq
        )
        doc = {
            "seq": self._written_seq,
            "tables": self.tables,
            "sha": _record_sha(
                self._written_seq, _BASE_TABLE, "", self.tables
            ),
        }
        data = json.dumps(doc, sort_keys=True).encode()
        try:
            yield from self.fs.write(self._base_path, data)
        except VFSError as exc:
            span.end(ok=False, error=str(exc))
            return None
        try:
            yield from self.fs.remove_tree(self._wal_root)
        except VFSError:
            pass
        self.fs.mkdir(self._wal_root)
        self._base_seq = self._written_seq
        self.compactions += 1
        span.end(ok=True)
        return None

    # -- replay ---------------------------------------------------------------

    def replay(self) -> SimGen:
        """Generator: rebuild the tables from stable storage.

        Returns the replayed ``{table: {key: value}}`` mapping, with
        whatever was journalled since :meth:`drop_pending` laid over it
        (also installed as :attr:`tables`).  Torn records — a hash mismatch
        or unparsable JSON — end the replay at that point: everything
        after a torn record is untrusted, exactly like a torn WAL
        suffix.  Missing seqs are skipped over (dropped appends).
        """
        span = self.kernel.tracer.begin("statestore.replay", cat="statestore")
        tables: dict[str, dict[str, Any]] = {}
        base_seq = -1
        if self.fs.exists(self._base_path):
            try:
                raw = yield from self.fs.read(self._base_path)
                doc = json.loads(raw.decode())
                if doc.get("sha") == _record_sha(
                    doc["seq"], _BASE_TABLE, "", doc["tables"]
                ):
                    tables = doc["tables"]
                    base_seq = int(doc["seq"])
                else:
                    log.warning("statestore base is torn; replaying WAL only")
            except (VFSError, ValueError, KeyError, TypeError):
                log.warning("statestore base unreadable; replaying WAL only")
        applied = 0
        torn = 0
        last = base_seq
        for seq, path in self._wal_entries():
            if seq <= base_seq:
                continue  # compacted away; a stale record is harmless
            try:
                raw = yield from self.fs.read(path)
                doc = json.loads(raw.decode())
            except (VFSError, ValueError):
                torn = 1
                break
            if doc.get("seq") != seq or doc.get("sha") != _record_sha(
                seq, doc.get("table"), doc.get("key"), doc.get("value")
            ):
                torn = 1
                break
            tables.setdefault(doc["table"], {})[doc["key"]] = doc["value"]
            last = seq
            applied += 1
        for table, rows in self.tables.items():
            tables.setdefault(table, {}).update(rows)
        self.tables = tables
        self._partial = False
        self._written_seq = last
        self._base_seq = base_seq
        # Never rewind the in-memory counter: un-durable seqs that were
        # dropped must not be re-minted for different records.
        self._next_seq = max(self._next_seq, last + 1)
        span.end(applied=applied, last_seq=last, torn=torn)
        return tables


class NullStateStore:
    """Store used when failover is off: no writer, no kernel events, no
    encoding.  Nothing elects a successor then, so nothing flushes,
    drops or replays it either."""

    enabled = False

    def attach(self, proc: "SimProcess") -> None:
        return None

    def journal(self, table: str, key: Any, encode, *args: Any) -> None:
        return None


NULL_STORE = NullStateStore()


class IllegalTransition(RuntimeError):
    """A change asked for an edge its lifecycle does not declare."""


class Durable:
    """A record journalled whole as the ``durable_key()`` row of
    :attr:`TABLE`, encoded by ``to_durable()``; its fields change only
    through :meth:`change`.  ``store`` is bound by the record's creator
    (unbound, it journals nowhere)."""

    TABLE: ClassVar[str]
    LIFECYCLE: ClassVar[dict] = {}
    store: "StateStore | NullStateStore" = NULL_STORE

    def change(self, state: Any = None, **fields: Any) -> None:
        """Move to *state* along a :attr:`LIFECYCLE` edge (each state ->
        the states it may move to), set *fields*, journal the record."""
        if state is not None:
            if state not in self.LIFECYCLE.get(self.state, ()):
                raise IllegalTransition(f"{self.TABLE}: {self.state.value} -> {state.value}")
            fields["state"] = state
        for attr, value in fields.items():
            setattr(self, attr, value)
        self.store.journal(self.TABLE, self.durable_key(), self.to_durable)


class DurableMap(UserDict):
    """The rows of one table keyed by an int id: each assignment is
    journalled as ``encode(value)``.  Values are immutable, so a change
    can only be an assignment."""

    def __init__(self, store, table: str, encode=lambda v: v, decode=lambda v: v):
        super().__init__()
        self.store, self.table, self.encode, self.decode = (
            store, table, encode, decode
        )

    def __setitem__(self, key: int, value: Any) -> None:
        self.data[key] = value
        self.store.journal(self.table, key, self.encode, value)

    def restore(self, rows: dict) -> None:
        """Install replayed rows (journalling only what differs)."""
        for key, value in rows.items():
            self[int(key)] = self.decode(value)


def build_statestore(universe: "Universe", enabled: bool) -> "StateStore | NullStateStore":
    """The universe's store: Null unless HNP failover is *enabled*."""
    return StateStore(universe, root=ROOT.read(universe.params)) if enabled else NullStateStore()
