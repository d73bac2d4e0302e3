"""BTL framework base."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.ft_event import FTState
from repro.mca.component import Component
from repro.netsim.transport import Endpoint
from repro.simenv.kernel import SimGen
from repro.util.errors import NetworkError

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.transport import Fabric
    from repro.mca.registry import FrameworkRegistry
    from repro.ompi.layer import OmpiLayer
    from repro.ompi.pml.ob1 import Ob1PML


class BTLComponent(Component):
    """Base class of byte-transfer-layer components."""

    framework_name = "btl"
    fabric_name = ""
    #: False if endpoint state cannot survive inside a process image
    checkpointable = True

    def __init__(self, params=None):
        super().__init__(params)
        self.ompi: "OmpiLayer | None" = None
        self.pml: "Ob1PML | None" = None
        self.fabric: "Fabric | None" = None
        self.ep: Endpoint | None = None
        self._attached = False
        self.sent_msgs = 0
        self.sent_bytes = 0

    # -- availability ------------------------------------------------------------

    def query(self, context: object | None = None) -> bool:
        ompi = context
        if ompi is None:
            return False
        node = ompi.proc.node
        return self.fabric_name in node.nics and self.fabric_name in ompi.cluster.fabrics

    # -- lifecycle ---------------------------------------------------------------

    def setup(self, ompi: "OmpiLayer", pml: "Ob1PML") -> None:
        self.ompi = ompi
        self.pml = pml
        self.fabric = ompi.cluster.fabric(self.fabric_name)

    def port_name(self) -> str:
        assert self.ompi is not None
        proc = self.ompi.proc
        return f"mpi.{proc.name.jobid}.{proc.name.vpid}.{proc.pid}.{self.name}"

    def open_endpoint(self) -> str:
        """Bind the receive endpoint and attach the progress handler.

        Returns the port name for the modex business card.  Reopening
        after :meth:`close_endpoint` first handles, in order, the
        frames that queued while the endpoint was down (peers
        re-establishing a connection do not lose traffic — they
        handshake).
        """
        assert self.ompi is not None and self.pml is not None
        if self.ep is None:
            self.ep = self.fabric.bind(self.ompi.proc.node.name, self.port_name())
        if not self._attached:
            # A progress-engine failure corrupts the MPI library:
            # SimProcess.handler kills the process loudly rather than
            # dropping traffic.
            self.fabric.attach_handler(
                self.ep, self.ompi.proc.handler(self._progress)
            )
            self._attached = True
        return self.ep.port

    def close_endpoint(self) -> None:
        """Tear down the connection state (detach the progress handler).

        The mailbox itself persists so in-flight frames from peers that
        resumed earlier wait for the reconnect instead of vanishing.
        """
        if self._attached:
            self.fabric.detach_handler(self.ep)
            self._attached = False

    def teardown(self) -> None:
        """Full teardown (MPI_FINALIZE / process halt): unbind too."""
        self.close_endpoint()
        if self.ep is not None:
            self.fabric.unbind(self.ep)
            self.ep = None

    def _progress(self, dgram) -> None:
        self.pml.handle_incoming(dgram.payload)

    @property
    def is_connected(self) -> bool:
        return self.ep is not None and self._attached

    # -- data path ---------------------------------------------------------------

    def reaches(self, my_node: str, peer_card: dict) -> bool:
        """Can this BTL carry traffic to the peer described by *card*?

        Network BTLs yield same-node peers to ``sm`` (shared memory has
        exclusivity for local traffic, as in Open MPI).
        """
        ports = peer_card.get("ports", {})
        if (
            self.name != "sm"
            and peer_card.get("node") == my_node
            and "sm" in ports
        ):
            return False
        return self.name in ports

    def send_msg(self, peer_card: dict, msg, wire_bytes: int) -> SimGen:
        """Blocking send: returns once *msg* is on the wire."""
        dst, msg = self._frame(peer_card, msg, wire_bytes)
        yield from self.fabric.send(self.ep, dst, msg, wire_bytes)
        self.sent_msgs += 1
        self.sent_bytes += wire_bytes
        return None

    def post_msg(
        self, peer_card: dict, msg, wire_bytes: int, on_wire: Callable[[], None]
    ) -> None:
        """Callback form of :meth:`send_msg`: returns at once and calls
        ``on_wire()`` when *msg* is on the wire — never, if the sending
        process dies first (the frame is then not delivered)."""
        dst, msg = self._frame(peer_card, msg, wire_bytes)
        proc = self.ompi.proc

        def sent(dgram) -> None:
            self.sent_msgs += 1
            self.sent_bytes += wire_bytes
            on_wire()

        self.fabric.post(
            self.ep, dst, msg, wire_bytes, sent, lambda: proc.alive
        )

    def _frame(self, peer_card: dict, msg, wire_bytes: int):
        """Destination endpoint and wire form of *msg*."""
        if self.ep is None:
            raise NetworkError(f"BTL {self.name} endpoint is closed")
        dst = Endpoint(peer_card["node"], peer_card["ports"][self.name])
        payload = getattr(msg, "payload", None)
        if payload is not None and wire_bytes >= 4096:
            # Model the DMA/serialization work of moving bytes onto the
            # wire: large buffers are physically copied, so per-message
            # wall cost becomes payload-dominated at size (the effect
            # that amortizes fixed interposition overheads on hardware).
            copied = self._buffer_copy(payload)
            if copied is not payload:
                import dataclasses

                msg = dataclasses.replace(msg, payload=copied)
        return dst, msg

    @staticmethod
    def _buffer_copy(payload):
        if hasattr(payload, "nbytes") and hasattr(payload, "copy"):  # ndarray
            return payload.copy()
        if isinstance(payload, (bytes, bytearray)):
            return bytes(payload)
        return payload

    # -- ft_event -----------------------------------------------------------------

    def ft_event(self, state: int) -> None:
        """Close non-checkpointable endpoints at CHECKPOINT; reconnect
        after (paper: "shutting down interconnect libraries that cannot
        be checkpointed and reconnecting peers when restarting")."""
        if not self.checkpointable:
            if state == FTState.CHECKPOINT:
                self.close_endpoint()
            elif state in (FTState.CONTINUE, FTState.RESTART):
                self.open_endpoint()
        if state == FTState.HALT:
            self.teardown()


def register_btl_components(registry: "FrameworkRegistry") -> None:
    from repro.ompi.btl.ib import IbBTL
    from repro.ompi.btl.sm import SmBTL
    from repro.ompi.btl.tcp import TcpBTL

    registry.add_component("btl", TcpBTL)
    registry.add_component("btl", IbBTL)
    registry.add_component("btl", SmBTL)
