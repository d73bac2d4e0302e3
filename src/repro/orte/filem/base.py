"""FILEM framework base.

Runs at the HNP (the global coordinator requests remote file transfer,
Figure 1-F).  Entries are ``(node_name, src, dst)`` triples (``src`` a
directory chain on restart preload); the component decides the rest.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.mca.component import Component
from repro.simenv.kernel import SimGen, WaitAll, WaitEvent
from repro.util.errors import ReproError, VFSError

if TYPE_CHECKING:  # pragma: no cover
    from repro.mca.registry import FrameworkRegistry
    from repro.orte.hnp import HNP


class FILEMComponent(Component):
    """Base class for file-management components."""

    framework_name = "filem"
    #: True if local snapshots should be written directly to stable
    #: storage, making gather a metadata check (the ``shared`` case).
    wants_direct_stable = False
    #: True if the component implements the chunk-level offer/ship
    #: protocol against a content-addressed store (ship_chunks /
    #: fetch_chunks) — the deduplicating stage-out path.
    supports_cas = False
    #: how many of :meth:`run_bounded`'s threads run at once
    max_concurrent = 1

    def run_bounded(self, hnp: "HNP", op: str, gens: list, preload=False) -> SimGen:
        """Run *gens* as threads of the HNP, :attr:`max_concurrent` at a
        time; returns their results in order.  A failed *preload* stops
        its other transfers: nobody will read them."""
        kernel = hnp.proc.kernel
        slots = {"free": max(1, self.max_concurrent)}
        gate = [kernel.event(f"filem.{op}.slot")]

        def bounded(gen) -> SimGen:
            while slots["free"] <= 0:
                yield WaitEvent(gate[0])
            slots["free"] -= 1
            try:
                return (yield from gen)
            finally:
                slots["free"] += 1
                old, gate[0] = gate[0], kernel.event(f"filem.{op}.slot")
                if not old.fired:
                    old.fire(None)

        threads = [
            hnp.proc.spawn_thread(bounded(gen), name=f"filem-{op}-{i}", daemon=True)
            for i, gen in enumerate(gens)
        ]
        try:
            return (yield WaitAll([thread.done for thread in threads]))
        except ReproError:
            for thread in threads if preload else ():
                thread.kill()
            raise

    # Each op takes a list of work items and returns total bytes moved.

    def gather(self, hnp: "HNP", entries: list[tuple[str, str, str]]) -> SimGen:
        """Move node-local trees to stable storage.

        ``entries``: ``(node_name, local_src_dir, stable_dst_dir)``.
        """
        raise NotImplementedError
        yield  # pragma: no cover

    def broadcast(self, hnp: "HNP", entries: list[tuple[str, list[str], str]]) -> SimGen:
        """Preload one full image tree per rank onto its node.

        ``entries``: ``(node_name, stable_chain_dirs, local_dst_dir)``,
        the chain oldest → newest (one directory for a full interval).
        """
        raise NotImplementedError
        yield  # pragma: no cover

    def remove(self, hnp: "HNP", entries: list[tuple[str, str]]) -> SimGen:
        """Delete node-local trees.  ``entries``: ``(node_name, dir)``;
        a node that is down, or dies mid-removal, is skipped."""
        total = 0
        for node_name, tree in entries:
            node = hnp.universe.cluster.node(node_name)
            if node.local_fs is None or not node.local_fs.reachable:
                continue
            try:
                total += yield from node.local_fs.remove_tree(tree)
            except VFSError:
                continue
        return total

    def stage_out(self, hnp: "HNP", entries: list[tuple[str, str, str]]) -> SimGen:
        """Gather local trees to stable storage and clean up the sources.

        Default: gather, then remove everything.  Components override
        to fold the cleanup into a per-node continuation of each
        transfer so a node's local staging frees as soon as its own
        copy finishes.
        """
        moved = yield from self.gather(hnp, entries)
        yield from self.remove(
            hnp, [(node, src) for node, src, _dst in entries]
        )
        return moved

    # -- chunk-level CAS protocol (components with supports_cas) -------------

    def ship_chunks(self, hnp: "HNP", store, entries: list[tuple]) -> SimGen:
        """Ship chunk payloads from node-local snapshots into *store*.

        ``entries``: ``(node_name, local_src_dir, manifest, indices)``
        — only the listed chunk indices of each source directory move
        over the network.  Returns total bytes shipped.
        """
        raise NotImplementedError
        yield  # pragma: no cover

    def fetch_chunks(self, hnp: "HNP", store, entries: list, manifests: dict) -> SimGen:
        """Materialize CAS-backed snapshots onto nodes for restart.

        ``entries``: as for :meth:`broadcast`; the newest stable
        directory holds the rank metadata, and *manifests* maps it to
        the rank manifest the restart's check already read; each distinct
        chunk is fetched from *store* once (verified per chunk) and
        every reassembled image is written to its node-local
        destination.  Returns total bytes landed.
        """
        raise NotImplementedError
        yield  # pragma: no cover


def node_local_fs(hnp: "HNP", node_name: str):
    node = hnp.universe.cluster.node(node_name)
    if node.local_fs is None:
        raise VFSError(f"node {node_name} has no local filesystem")
    if not node.up or not node.local_fs.reachable:
        raise VFSError(f"node {node_name} local filesystem unreachable")
    return node.local_fs


def register_filem_components(registry: "FrameworkRegistry") -> None:
    from repro.orte.filem.rsh import RshFILEM
    from repro.orte.filem.shared import SharedFILEM

    registry.add_component("filem", RshFILEM)
    registry.add_component("filem", SharedFILEM)
