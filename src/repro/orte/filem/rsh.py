"""``rsh`` FILEM component (the paper's first implementation).

Uses remote-execution + copy semantics: each tree copy pays an rsh
session setup latency and streams bytes over the Ethernet model, with
bounded concurrency (``filem_rsh_max_concurrent``) so simultaneous
gathers don't model an impossible network.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.mca.component import component_of
from repro.opal.crs import chunks as chunkstore
from repro.orte.filem.base import FILEMComponent, node_local_fs
from repro.simenv.kernel import Delay, SimGen
from repro.snapshot import IMAGE_FILE, LOCAL_META
from repro.util.errors import SnapshotError, VFSError
from repro.vfs import path as vpath
from repro.vfs.transfer import copy_tree

if TYPE_CHECKING:  # pragma: no cover
    from repro.orte.hnp import HNP


@component_of("filem", "rsh", priority=10)
class RshFILEM(FILEMComponent):
    supports_cas = True

    def open(self, context: object | None = None) -> None:
        super().open(context)
        self.session_cost_s = self.params.get_float("filem_rsh_session_cost", 0.020)
        self.max_concurrent = self.params.get_int("filem_rsh_max_concurrent", 4)

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

    def _traced_copy(self, hnp: "HNP", op: str, node_name: str, gen) -> SimGen:
        """Run one tree copy under a ``filem.transfer`` span."""
        span = hnp.proc.kernel.tracer.begin(
            "filem.transfer", cat="filem", op=op, node=node_name
        )
        moved = yield from gen
        span.end(bytes=int(moved or 0))
        return moved

    def gather(self, hnp: "HNP", entries: list[tuple[str, str, str]]) -> SimGen:
        span = hnp.proc.kernel.tracer.begin(
            "filem.gather", cat="filem", entries=len(entries)
        )
        gens = []
        for node_name, src_dir, dst_dir in entries:
            src_fs = node_local_fs(hnp, node_name)
            gens.append(
                self._traced_copy(
                    hnp,
                    "gather",
                    node_name,
                    copy_tree(
                        src_fs,
                        src_dir,
                        hnp.universe.cluster.stable_fs,
                        dst_dir,
                        extra_net_Bps=self._eth_bw(hnp),
                        extra_latency_s=self.session_cost_s,
                        link_ok=self._link_check(hnp, node_name),
                    ),
                )
            )
        moved = yield from self._run_bounded(hnp, gens, self.max_concurrent, "gather")
        span.end(bytes=moved)
        return moved

    def stage_out(self, hnp: "HNP", entries: list[tuple[str, str, str]]) -> SimGen:
        span = hnp.proc.kernel.tracer.begin(
            "filem.stage_out", cat="filem", entries=len(entries)
        )

        def one(node_name: str, src_dir: str, dst_dir: str) -> SimGen:
            src_fs = node_local_fs(hnp, node_name)
            moved = yield from self._traced_copy(
                hnp,
                "stage_out",
                node_name,
                copy_tree(
                    src_fs,
                    src_dir,
                    hnp.universe.cluster.stable_fs,
                    dst_dir,
                    extra_net_Bps=self._eth_bw(hnp),
                    extra_latency_s=self.session_cost_s,
                    link_ok=self._link_check(hnp, node_name),
                ),
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
        moved = yield from self._run_bounded(
            hnp, gens, self.max_concurrent, "stage_out"
        )
        span.end(bytes=moved)
        return moved

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
        span = hnp.proc.kernel.tracer.begin(
            "filem.ship", cat="filem", entries=len(entries), chunks=n_chunks
        )
        eth = self._eth_bw(hnp)

        def one(node_name: str, src_dir: str, manifest, indices) -> SimGen:
            src_fs = node_local_fs(hnp, node_name)
            link_ok = self._link_check(hnp, node_name)
            inner = hnp.proc.kernel.tracer.begin(
                "filem.transfer", cat="filem", op="ship", node=node_name,
                chunks=len(indices),
            )
            link_ok()
            payloads = yield from chunkstore.load_chunks(
                src_fs, src_dir, manifest, indices, IMAGE_FILE
            )
            yield Delay(self.session_cost_s)
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
        moved = yield from self._run_bounded(hnp, gens, self.max_concurrent, "ship")
        span.end(bytes=moved)
        return moved

    def fetch_chunks(self, hnp: "HNP", store, entries: list[tuple[str, str, str]]) -> SimGen:
        """Rebuild CAS-backed rank snapshots on their restart nodes.

        Every chunk is read out of the store (which re-hashes it — the
        per-chunk verification restart relies on), pays Ethernet time
        to the node, and the reassembled full image lands on the node's
        local filesystem next to the manifest and metadata copied from
        the stable rank directory.
        """
        span = hnp.proc.kernel.tracer.begin(
            "filem.fetch", cat="filem", entries=len(entries)
        )
        eth = self._eth_bw(hnp)
        stable = hnp.universe.cluster.stable_fs

        def one(node_name: str, src_dir: str, dst_dir: str) -> SimGen:
            dst_fs = node_local_fs(hnp, node_name)
            link_ok = self._link_check(hnp, node_name)
            inner = hnp.proc.kernel.tracer.begin(
                "filem.transfer", cat="filem", op="fetch", node=node_name
            )
            link_ok()
            manifest = yield from chunkstore.read_manifest(stable, src_dir)
            meta_raw = yield from stable.read(vpath.join(src_dir, LOCAL_META))
            yield Delay(self.session_cost_s)
            link_ok()
            parts = yield from store.get_many(list(manifest.hashes))
            blob = b"".join(parts)
            if blob:
                yield Delay(len(blob) / eth)
            if len(blob) != manifest.total_bytes:
                raise SnapshotError(
                    f"{src_dir}: fetched image is {len(blob)} bytes, "
                    f"manifest says {manifest.total_bytes}"
                )
            yield from dst_fs.write(vpath.join(dst_dir, IMAGE_FILE), blob)
            yield from chunkstore.write_full_manifest(
                dst_fs, dst_dir, manifest.chunk_bytes, len(blob),
                manifest.hashes, manifest.interval,
            )
            yield from dst_fs.write(vpath.join(dst_dir, LOCAL_META), meta_raw)
            inner.end(bytes=len(blob))
            return len(blob)

        gens = [one(node, src, dst) for node, src, dst in entries]
        moved = yield from self._run_bounded(hnp, gens, self.max_concurrent, "fetch")
        span.end(bytes=moved)
        return moved

    def broadcast(self, hnp: "HNP", entries: list[tuple[str, str, str]]) -> SimGen:
        span = hnp.proc.kernel.tracer.begin(
            "filem.broadcast", cat="filem", entries=len(entries)
        )
        gens = []
        for node_name, src_dir, dst_dir in entries:
            dst_fs = node_local_fs(hnp, node_name)
            gens.append(
                self._traced_copy(
                    hnp,
                    "broadcast",
                    node_name,
                    copy_tree(
                        hnp.universe.cluster.stable_fs,
                        src_dir,
                        dst_fs,
                        dst_dir,
                        extra_net_Bps=self._eth_bw(hnp),
                        extra_latency_s=self.session_cost_s,
                        link_ok=self._link_check(hnp, node_name),
                    ),
                )
            )
        moved = yield from self._run_bounded(
            hnp, gens, self.max_concurrent, "broadcast"
        )
        span.end(bytes=moved)
        return moved
