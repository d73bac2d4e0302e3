"""``rsh`` FILEM component (the paper's first implementation).

Remote-execution + copy semantics: bytes stream over the Ethernet
model, every rsh session pays ``SESSION_COST_S`` to set up, and
``filem_rsh_max_concurrent`` bounds how many transfers run at once so
simultaneous copies don't model an impossible network.  What is charged
and what is bounded depends on the operation:

* ``gather`` / ``stage_out``: a session per *file*; the bound is on
  *trees*.  Staging speed sets the checkpoint cadence through
  back-pressure, so this pricing is part of every write workload.
* ``broadcast`` (restart preload): a session per destination *node*,
  whose ranks stream through it back to back in entry order, one full
  image tree each (every chain, a full interval's one directory too, is
  rebuilt and verified at the source; see :meth:`RshFILEM.broadcast`);
  the bound is on *node streams*.
* ``ship_chunks`` (CAS): a session per entry.
* ``fetch_chunks`` (CAS restart preload): the ranks' metadata (bounded),
  then each distinct chunk their manifests list read once, in
  ``filem_rsh_max_concurrent`` stripes (the longest one sets the time),
  then a session per entry landing it as ``broadcast`` does.

The ``filem.sessions`` tracer counter adds up every session charged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.mca.component import component_of
from repro.mca.params import Param
from repro.opal.crs import chunks as chunkstore
from repro.orte.filem.base import FILEMComponent, node_local_fs
from repro.simenv.kernel import Delay, SimGen
from repro.snapshot import LOCAL_META
from repro.util.errors import SnapshotError, VFSError
from repro.vfs import path as vpath
from repro.vfs.transfer import copy_tree

if TYPE_CHECKING:  # pragma: no cover
    from repro.orte.hnp import HNP

SESSION_COST_S = 0.020  # rsh session setup latency (sim seconds)
MAX_CONCURRENT = Param("filem_rsh_max_concurrent", 4, "concurrent trees on gather/stage-out, node streams on broadcast")


@component_of("filem", "rsh", priority=10)
class RshFILEM(FILEMComponent):
    supports_cas = True

    def open(self, context: object | None = None) -> None:
        super().open(context)
        self.max_concurrent = MAX_CONCURRENT.read(self.params)

    def _eth_bw(self, hnp: "HNP") -> float:
        return hnp.universe.cluster.eth.model.bandwidth_Bps

    @staticmethod
    def _link_check(hnp: "HNP", node_name: str):
        """Data-plane partition probe for transfers touching a node.

        Returns a callable that raises :class:`NetworkError` while the
        node is partitioned from the storage network — tree copies and
        chunk ship/fetch call it mid-transfer, so an injected partition
        fails the stage exactly the way a dying link would.
        """
        failures = hnp.universe.cluster.failures
        return lambda: failures.check_link(node_name)

    def _copy(
        self, hnp: "HNP", op: str, node_name: str,
        src_fs, src_dir: str, dst_fs, dst_dir: str,
    ) -> SimGen:
        """One tree copy under a ``filem.transfer`` span, paying a
        session set-up per file."""
        tracer = hnp.proc.kernel.tracer
        span = tracer.begin("filem.transfer", cat="filem", op=op, node=node_name)
        if tracer.enabled:
            tracer.count("filem.sessions", len(src_fs.list_tree(src_dir)))
        moved = yield from copy_tree(
            src_fs, src_dir, dst_fs, dst_dir,
            extra_net_Bps=self._eth_bw(hnp),
            extra_latency_s=SESSION_COST_S,
            link_ok=self._link_check(hnp, node_name),
        )
        span.end(bytes=moved)
        return moved

    def _bounded(
        self, hnp: "HNP", op: str, gens: list, tally=(), preload=False, **attrs
    ) -> SimGen:
        """:meth:`run_bounded` under one ``filem.<op>`` span carrying *attrs* plus,
        at its end, what *gens* added up in *tally*; returns the bytes moved."""
        span = hnp.proc.kernel.tracer.begin(f"filem.{op}", cat="filem", **attrs)
        moved = sum(int(m or 0) for m in (yield from self.run_bounded(hnp, op, gens, preload)))
        span.end(bytes=moved, **dict(tally))
        return moved

    def _land(self, hnp: "HNP", node_name: str, dst_fs, dst_dir: str, tree: dict) -> SimGen:
        """Land one ``full_image_tree``: the wire for the whole tree, a partition
        probe before each file, ``metadata.json`` last; returns its bytes."""
        link_ok = self._link_check(hnp, node_name)
        moved = sum(map(len, tree.values()))
        yield Delay(moved / self._eth_bw(hnp))
        for name, data in tree.items():
            link_ok()
            yield from dst_fs.write(vpath.join(dst_dir, name), data)
        return moved

    def gather(self, hnp: "HNP", entries: list[tuple[str, str, str]]) -> SimGen:
        stable = hnp.universe.cluster.stable_fs
        gens = [
            self._copy(hnp, "gather", node, node_local_fs(hnp, node), src, stable, dst)
            for node, src, dst in entries
        ]
        return (yield from self._bounded(hnp, "gather", gens, entries=len(entries)))

    def stage_out(self, hnp: "HNP", entries: list[tuple[str, str, str]]) -> SimGen:
        def one(node_name: str, src_dir: str, dst_dir: str) -> SimGen:
            src_fs = node_local_fs(hnp, node_name)
            moved = yield from self._copy(
                hnp, "stage_out", node_name, src_fs, src_dir,
                hnp.universe.cluster.stable_fs, dst_dir,
            )
            # Continuation: drop this node's local staging right away,
            # overlapping the cleanup with the remaining transfers.  A
            # node dying between its copy and the cleanup is harmless —
            # the snapshot is already on stable storage.
            try:
                yield from src_fs.remove_tree(src_dir)
            except VFSError:
                pass
            return moved

        gens = [one(node, src, dst) for node, src, dst in entries]
        return (yield from self._bounded(hnp, "stage_out", gens, entries=len(entries)))

    def ship_chunks(self, hnp: "HNP", store, entries: list[tuple]) -> SimGen:
        """Ship only the negotiated chunk payloads into the CAS store.

        Each entry pays one rsh session plus Ethernet time for the
        chunks it actually moves; a chunk already stored by a
        concurrent entry costs its wire time but no storage write.
        Local sources are *not* removed here — the staging coordinator
        cleans up once the whole interval commits, so a failed ship can
        be retried from the same sources.
        """
        n_chunks = sum(len(indices) for _, _, _, indices in entries)
        eth = self._eth_bw(hnp)

        def one(node_name: str, src_dir: str, manifest, indices) -> SimGen:
            src_fs = node_local_fs(hnp, node_name)
            link_ok = self._link_check(hnp, node_name)
            inner = hnp.proc.kernel.tracer.begin(
                "filem.transfer", cat="filem", op="ship", node=node_name,
                chunks=len(indices),
            )
            link_ok()
            payloads = yield from chunkstore.load_chunks(src_fs, src_dir, manifest, indices)
            hnp.proc.kernel.tracer.count("filem.sessions")
            yield Delay(SESSION_COST_S)
            link_ok()
            # one aggregate wire delay + one batched store write:
            # O(1) kernel events per entry instead of O(chunks)
            ordered = [
                (manifest.hashes[i], payloads[i]) for i in sorted(payloads)
            ]
            moved = sum(len(data) for _, data in ordered)
            if moved:
                yield Delay(moved / eth)
            yield from store.put_many(ordered)
            inner.end(bytes=moved)
            return moved

        gens = [one(node, src, man, idx) for node, src, man, idx in entries]
        return (
            yield from self._bounded(
                hnp, "ship", gens, entries=len(entries), chunks=n_chunks
            )
        )

    def fetch_chunks(self, hnp: "HNP", store, entries: list, manifests: dict) -> SimGen:
        """Rebuild CAS-backed rank snapshots on their restart nodes.

        The ranks' metadata is read first, then the union of the digests
        their *manifests* list, once, in ``filem_rsh_max_concurrent`` stripes
        (the store re-hashes every chunk): an absent or rotten chunk, or
        an image of the wrong size, fails before any rank lands.  Each
        rank then lands as in :meth:`broadcast`, a session per entry.
        """
        tracer, stable = hnp.proc.kernel.tracer, hnp.universe.cluster.stable_fs
        dst_fss = [node_local_fs(hnp, node) for node, _chain, _dst in entries]
        span = tracer.begin("filem.fetch", cat="filem", entries=len(entries))

        def describe(node_name: str, src_dir: str) -> SimGen:
            self._link_check(hnp, node_name)()
            return manifests[src_dir], (yield from stable.read(vpath.join(src_dir, LOCAL_META)))

        # a CAS manifest lists every digest itself: the newest directory
        gens = [describe(node, chain[-1]) for node, chain, _dst in entries]
        docs = yield from self.run_bounded(hnp, "fetch", gens, preload=True)
        union = list(dict.fromkeys(d for manifest, _meta in docs for d in manifest.hashes))
        readers = max(1, self.max_concurrent)
        stripes = [s for s in (union[i::readers] for i in range(readers)) if s]
        got = yield from self.run_bounded(hnp, "fetch", list(map(store.get_many, stripes)), preload=True)
        chunks = {d: b for stripe, blobs in zip(stripes, got) for d, b in zip(stripe, blobs)}
        trees = []
        for (_node, chain, _dst), (manifest, meta_raw) in zip(entries, docs):
            blob = b"".join(chunks[d] for d in manifest.hashes)
            if len(blob) != manifest.total_bytes:
                raise SnapshotError(
                    f"{chain[-1]}: fetched image is {len(blob)} bytes, "
                    f"manifest says {manifest.total_bytes}"
                )
            trees.append(chunkstore.full_image_tree(blob, meta_raw))

        def land(node_name: str, dst_fs, dst_dir: str, tree: dict) -> SimGen:
            inner = tracer.begin("filem.transfer", cat="filem", op="fetch", node=node_name)
            tracer.count("filem.sessions")
            yield Delay(SESSION_COST_S)
            moved = yield from self._land(hnp, node_name, dst_fs, dst_dir, tree)
            inner.end(bytes=moved)
            return moved

        gens = [land(n, fs, dst, tree) for (n, _c, dst), fs, tree in zip(entries, dst_fss, trees)]
        moved = sum((yield from self.run_bounded(hnp, "fetch", gens, preload=True)))
        span.end(
            bytes=moved, chunks=sum(len(m.hashes) for m, _meta in docs), reads=len(union),
            read_bytes=sum(map(len, chunks.values())),
        )
        return moved

    def broadcast(self, hnp: "HNP", entries: list[tuple[str, list[str], str]]) -> SimGen:
        """Land one full image tree per rank.  Each rank's chain — one
        directory for a full interval — is rebuilt on stable storage
        (every chunk re-hashed against the newest manifest, so a bad
        chain is refused before any process is launched) and shipped
        once: a chunk a later delta overwrote is read, never sent.  A
        node's ranks, and so their rebuilds, follow one another."""
        tracer = hnp.proc.kernel.tracer
        stable = hnp.universe.cluster.stable_fs
        ranks: dict[str, list[tuple[list[str], str]]] = {}
        for node_name, chain, dst_dir in entries:
            ranks.setdefault(node_name, []).append((chain, dst_dir))
        tally = {"files": 0, "read_bytes": 0}

        def land(node_name: str, chain: list[str], dst_fs, dst_dir: str) -> SimGen:
            span = tracer.begin(
                "filem.transfer", cat="filem", op="broadcast", node=node_name, links=len(chain)
            )
            self._link_check(hnp, node_name)()
            source = _CountedReads(stable)
            blob, _manifest = yield from chunkstore.reconstruct_chain(source, chain)
            meta_raw = yield from source.read(vpath.join(chain[-1], LOCAL_META))
            tree = chunkstore.full_image_tree(blob, meta_raw)
            moved = yield from self._land(hnp, node_name, dst_fs, dst_dir, tree)
            span.end(bytes=moved, read_bytes=source.nbytes)
            if tracer.enabled:
                tally["files"] += len(tree)
                tally["read_bytes"] += source.nbytes
            return moved

        def stream(node_name: str, dst_fs, pairs) -> SimGen:
            # One session per node; its ranks follow in entry order.
            self._link_check(hnp, node_name)()
            tracer.count("filem.sessions")
            yield Delay(SESSION_COST_S)
            moved = 0
            for chain, dst_dir in pairs:
                moved += yield from land(node_name, chain, dst_fs, dst_dir)
            return moved

        # every destination is resolved before the first byte moves
        gens = [stream(n, node_local_fs(hnp, n), pairs) for n, pairs in ranks.items()]
        return (
            yield from self._bounded(
                hnp, "broadcast", gens, tally, preload=True, entries=len(entries),
                links=sum(len(chain) for _node, chain, _dst in entries),
                streams=len(gens), sessions=len(gens),
            )
        )


class _CountedReads:
    """Stable storage as one rank's rebuild reads it, adding up the bytes."""

    def __init__(self, fs):
        self.fs, self.exists, self.nbytes = fs, fs.exists, 0

    def read(self, path: str) -> SimGen:
        data = yield from self.fs.read(path)
        self.nbytes += len(data)
        return data
