"""Virtual cluster builder.

A :class:`Cluster` bundles the kernel, the nodes (each with a local
disk and a NIC per fabric), the fabrics (GigE always; InfiniBand and
loopback optional), shared stable storage, the universe RNG, and the
failure injector — i.e. everything the paper's testbed provided.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netsim.models import LinkModel, ethernet_1g, infiniband, loopback
from repro.netsim.transport import Fabric
from repro.simenv.failure import FailureInjector
from repro.simenv.kernel import Kernel
from repro.simenv.node import Node
from repro.simenv.rng import RngStream
from repro.vfs.localfs import LocalFS
from repro.vfs.sharedfs import SharedFS


@dataclass
class ClusterSpec:
    """Declarative description of a cluster to build."""

    n_nodes: int = 4
    cpu_ghz: float = 2.0
    mem_bytes: int = 4 * 2**30
    seed: int = 20070326  # IPPS 2007, Long Beach
    with_infiniband: bool = True
    #: node-local scratch is at least as fast as one client's share of
    #: the RAID — the premise that makes staged (local-write, then
    #: background drain) checkpointing attractive
    local_disk_Bps: float = 240e6
    stable_Bps: float = 200e6
    os_tags: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("cluster needs at least one node")


class Cluster:
    """The simulated machine room."""

    def __init__(self, spec: ClusterSpec | None = None):
        self.spec = spec or ClusterSpec()
        self.kernel = Kernel()
        self.nodes: list[Node] = []
        self._nodes_by_name: dict[str, Node] = {}
        self.fabrics: dict[str, Fabric] = {}
        self.stable_fs = SharedFS(
            self.kernel, bandwidth_Bps=self.spec.stable_Bps
        )
        self.failures = FailureInjector(self)
        #: persistent named RNG streams — one stream object per name,
        #: so repeated draws advance state (see :meth:`rng`)
        self._rng_streams: dict[str, RngStream] = {}
        self._build()

    def _build(self) -> None:
        models: list[LinkModel] = [ethernet_1g(), loopback()]
        if self.spec.with_infiniband:
            models.append(infiniband())
        for model in models:
            self.fabrics[model.name] = Fabric(self.kernel, model)
        tags = self.spec.os_tags
        for i in range(self.spec.n_nodes):
            node = Node(
                self.kernel,
                name=f"node{i:02d}",
                cpu_ghz=self.spec.cpu_ghz,
                mem_bytes=self.spec.mem_bytes,
                os_tag=tags[i] if i < len(tags) else "linux-x86_64",
            )
            LocalFS(node, bandwidth_Bps=self.spec.local_disk_Bps)
            for fabric in self.fabrics.values():
                fabric.attach(node)
            self.nodes.append(node)
            self._nodes_by_name[node.name] = node

    # -- lookups ------------------------------------------------------------

    def node(self, name_or_index: "str | int") -> Node:
        if isinstance(name_or_index, int):
            return self.nodes[name_or_index]
        try:
            return self._nodes_by_name[name_or_index]
        except KeyError:
            raise KeyError(f"no node named {name_or_index!r}") from None

    def fabric(self, name: str) -> Fabric:
        try:
            return self.fabrics[name]
        except KeyError:
            raise KeyError(
                f"no fabric {name!r} (have {', '.join(sorted(self.fabrics))})"
            ) from None

    @property
    def eth(self) -> Fabric:
        return self.fabrics["eth"]

    def rng(self, stream: str) -> RngStream:
        """The cluster's persistent named RNG stream.

        The same name always returns the same stream *object*, so
        repeated draws advance its state — a Poisson process sampled
        through here produces i.i.d. exponential inter-arrivals, not
        the same first sample forever.  Two same-seed clusters still
        reproduce identical draw sequences per stream name.
        """
        cached = self._rng_streams.get(stream)
        if cached is None:
            cached = RngStream(self.spec.seed, stream)
            self._rng_streams[stream] = cached
        return cached

    @property
    def up_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.up]

    def run(self, until: float | None = None) -> float:
        return self.kernel.run(until=until)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Cluster nodes={len(self.nodes)} "
            f"fabrics={sorted(self.fabrics)} t={self.kernel.now:.6f}>"
        )
