"""Reliable, in-order datagram transport over a switched fabric.

Endpoints are ``(node_name, port)`` pairs.  A message is serialized by
the sender's NIC and delivered ``latency`` later.  There are two ways
to send and two ways to receive, over one wire model:

* ``Fabric.send`` is the blocking (generator) form: it returns once
  the message is on the wire.  ``Fabric.post`` is the callback form of
  the same thing for callers that must not block: it returns at once
  and calls ``on_wire(dgram)`` from a kernel timer when serialization
  ends.  A sender that dies mid-serialization (its thread is killed, or
  ``alive()`` is false by then) puts nothing on the wire; the datagram
  is counted in ``dropped``.
* An arriving datagram goes to the endpoint's *handler* if one is
  attached, else into the endpoint's mailbox for ``recv`` /
  ``try_recv`` / ``pending``.

Handler contract (``attach_handler`` / ``detach_handler``): the handler
runs to completion inside the kernel's delivery timer, so it must not
block and must not raise — nothing above it can catch, and the
exception would escape ``Kernel.run``.  Owners that run foreign code
in a handler wrap it (``SimProcess.handler``: a dead process handles
nothing, an exception kills the process).  Attaching takes effect from
a zero-delay kernel callback that first hands the handler everything
the mailbox holds, oldest first: frames that queued while no handler
was attached are handled before any later frame, at the simulated time
of the attach.  After ``detach_handler`` frames queue in the mailbox
again.

In-order delivery between any endpoint pair is guaranteed by
construction (single event queue + per-NIC serialization + fixed
latency).

In-flight accounting (``in_flight``) exists for tests and for the
fabric-level drain assertions in the CRCP experiments: the MPI-level
bookmark protocol must leave the fabric empty between any pair of
coordinated processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.netsim.models import LinkModel
from repro.netsim.nic import NIC
from repro.simenv.kernel import Delay, Queue, SimGen, TimerHandle
from repro.util.errors import NetworkError

if TYPE_CHECKING:  # pragma: no cover
    from repro.simenv.kernel import Kernel
    from repro.simenv.node import Node


@dataclass(frozen=True)
class Endpoint:
    """Address of a transport mailbox."""

    node: str
    port: str

    def __str__(self) -> str:  # pragma: no cover
        return f"{self.node}:{self.port}"


@dataclass
class Datagram:
    """One message on the wire."""

    src: Endpoint
    dst: Endpoint
    payload: Any
    nbytes: int
    fabric: str = ""
    send_time: float = 0.0
    meta: dict = field(default_factory=dict)


class Fabric:
    """A switched network connecting every attached node."""

    def __init__(self, kernel: "Kernel", model: LinkModel):
        self.kernel = kernel
        self.model = model
        self.name = model.name
        self.nics: dict[str, NIC] = {}
        self._mailboxes: dict[Endpoint, Queue] = {}
        self._handlers: dict[Endpoint, Callable[[Datagram], None]] = {}
        #: attach_handler calls whose install callback has not run yet
        self._attaching: dict[Endpoint, TimerHandle] = {}
        self.in_flight = 0
        self.delivered = 0
        self.dropped = 0

    # -- topology ------------------------------------------------------------

    def attach(self, node: "Node") -> NIC:
        if node.name in self.nics:
            raise NetworkError(f"{node.name} already attached to {self.name}")
        nic = NIC(node, self.model)
        self.nics[node.name] = nic
        node.nics[self.name] = nic
        return nic

    # -- endpoints ----------------------------------------------------------

    def bind(self, node_name: str, port: str) -> Endpoint:
        if node_name not in self.nics:
            raise NetworkError(f"node {node_name} not on fabric {self.name}")
        ep = Endpoint(node_name, port)
        if ep in self._mailboxes:
            raise NetworkError(f"endpoint {ep} already bound on {self.name}")
        self._mailboxes[ep] = self.kernel.queue(f"{self.name}:{ep}")
        return ep

    def unbind(self, ep: Endpoint) -> None:
        self.detach_handler(ep)
        self._mailboxes.pop(ep, None)

    # -- handlers -------------------------------------------------------------

    def attach_handler(self, ep: Endpoint, fn: Callable[[Datagram], None]) -> None:
        """Deliver *ep*'s datagrams to ``fn(dgram)`` instead of its
        mailbox (see the module docstring for the contract)."""
        mailbox = self._mailboxes.get(ep)
        if mailbox is None:
            raise NetworkError(f"endpoint {ep} not bound on {self.name}")
        self.detach_handler(ep)

        def install() -> None:
            del self._attaching[ep]
            self._handlers[ep] = fn
            # stop early if the handler detached itself (its owner died)
            while len(mailbox) and self._handlers.get(ep) is fn:
                fn(mailbox.try_get()[1])

        self._attaching[ep] = self.kernel.call_later(0.0, install)

    def detach_handler(self, ep: Endpoint) -> None:
        self._handlers.pop(ep, None)
        pending = self._attaching.pop(ep, None)
        if pending is not None:
            pending.cancel()

    # -- data path ----------------------------------------------------------

    def send(
        self,
        src: Endpoint,
        dst: Endpoint,
        payload: Any,
        nbytes: int,
        meta: dict | None = None,
    ) -> SimGen:
        """Blocking send: returns once the message is serialized onto
        the wire (not once delivered) — eager-protocol semantics."""
        dgram, delay = self._start_tx(src, dst, payload, nbytes, meta)
        try:
            yield Delay(delay)
        except GeneratorExit:
            self._abandon_tx()
            raise
        self._on_wire(dgram)
        return dgram

    def post(
        self,
        src: Endpoint,
        dst: Endpoint,
        payload: Any,
        nbytes: int,
        on_wire: Callable[[Datagram], None],
        alive: Callable[[], bool],
    ) -> None:
        """Callback form of :meth:`send`: returns at once; when the
        serialization delay has elapsed the message goes onto the wire
        and ``on_wire(dgram)`` runs — unless ``alive()`` is false by
        then (the sender died), in which case neither happens.  Raises
        :class:`NetworkError` like ``send`` if it cannot start."""
        dgram, delay = self._start_tx(src, dst, payload, nbytes, None)

        def serialized() -> None:
            if alive():
                self._on_wire(dgram)
                on_wire(dgram)
            else:
                self._abandon_tx()

        self.kernel.call_later(delay, serialized)

    def _start_tx(
        self, src: Endpoint, dst: Endpoint, payload: Any, nbytes: int,
        meta: dict | None,
    ) -> tuple[Datagram, float]:
        """Build the datagram and reserve the sender's NIC; returns it
        with the delay until it is on the wire."""
        nic = self.nics.get(src.node)
        if nic is None:
            raise NetworkError(f"node {src.node} not on fabric {self.name}")
        dgram = Datagram(
            src=src,
            dst=dst,
            payload=payload,
            nbytes=nbytes,
            fabric=self.name,
            send_time=self.kernel.now,
            meta=dict(meta or {}),
        )
        delay = nic.reserve_tx(nbytes)
        self.in_flight += 1
        return dgram, delay

    def _on_wire(self, dgram: Datagram) -> None:
        self.kernel.call_later(self.model.latency_s, lambda: self._deliver(dgram))

    def _abandon_tx(self) -> None:
        """The sender died before its message was on the wire."""
        self.in_flight -= 1
        self.dropped += 1

    def _deliver(self, dgram: Datagram) -> None:
        self.in_flight -= 1
        dst = dgram.dst
        dst_nic = self.nics.get(dst.node)
        if dst_nic is None or not dst_nic.up or not dst_nic.node.up:
            self.dropped += 1
            return
        receive = self._handlers.get(dst)
        if receive is None:
            mailbox = self._mailboxes.get(dst)
            if mailbox is None:
                self.dropped += 1
                return
            receive = mailbox.put
        dst_nic.note_rx(dgram.nbytes)
        self.delivered += 1
        receive(dgram)

    def recv(self, ep: Endpoint) -> SimGen:
        """Blocking receive from the endpoint's mailbox."""
        mailbox = self._mailboxes.get(ep)
        if mailbox is None:
            raise NetworkError(f"endpoint {ep} not bound on {self.name}")
        dgram = yield from mailbox.get()
        return dgram

    def try_recv(self, ep: Endpoint) -> tuple[bool, Datagram | None]:
        mailbox = self._mailboxes.get(ep)
        if mailbox is None:
            raise NetworkError(f"endpoint {ep} not bound on {self.name}")
        ok, dgram = mailbox.try_get()
        return ok, dgram

    def pending(self, ep: Endpoint) -> int:
        mailbox = self._mailboxes.get(ep)
        return len(mailbox) if mailbox is not None else 0

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Fabric {self.name} nodes={len(self.nics)} "
            f"inflight={self.in_flight}>"
        )
