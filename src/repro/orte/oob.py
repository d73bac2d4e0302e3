"""OOB/RML — the out-of-band control plane.

Open MPI's runtime messages (launch commands, checkpoint requests,
snapshot progress reports) travel out-of-band over TCP, not over the
MPI data path.  Here every runtime-visible process binds one endpoint
on the Ethernet fabric; the RML (routing message layer) multiplexes
*tags* over it and offers blocking ``send``/``recv`` plus a
correlation-id RPC helper.  The endpoint owns no thread: arriving
messages are filed under their tag from the fabric's delivery callback
(``Fabric.attach_handler``).

Message payloads are ordinary picklable dicts; transfer cost is the
pickled size over the Ethernet model, so control-plane chatter has a
real (small) price in the experiments.
"""

from __future__ import annotations

import pickle
from typing import TYPE_CHECKING, Any, Callable

from repro.netsim.transport import Endpoint
from repro.simenv.kernel import Queue, SimGen
from repro.util.errors import NetworkError
from repro.util.ids import ProcessName
from repro.util.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.orte.universe import Universe
    from repro.simenv.process import SimProcess

log = get_logger("orte.rml")

# Well-known RML tags ---------------------------------------------------------

TAG_LAUNCH = "plm.launch"
TAG_LAUNCH_ACK = "plm.launch_ack"
TAG_INIT_READY = "job.init_ready"
TAG_INIT_GO = "job.init_go"
TAG_PROC_EXIT = "job.proc_exit"
TAG_FINALIZE = "job.finalize"

TAG_CKPT_REQUEST = "snapc.request"        # tool/app -> HNP (global coordinator)
TAG_CKPT_REPLY = "snapc.reply"            # HNP -> tool/app
TAG_CKPT_READY = "snapc.ready"            # app -> HNP: checkpointable (un)registration
TAG_SNAPC_LOCAL = "snapc.local"           # HNP -> orted (local coordinators)
TAG_SNAPC_LOCAL_DONE = "snapc.local_done" # orted -> HNP
TAG_CKPT_DO = "snapc.app"                 # orted -> app coordinator
TAG_CKPT_DONE = "snapc.app_done"          # app coordinator -> orted
TAG_CKPT_TERM_ACK = "snapc.term_ack"      # orted -> app: safe to exit
TAG_CKPT_ABORT = "snapc.abort"            # HNP -> app: abandon coordination

TAG_RESTART_REQUEST = "snapc.restart"     # tool -> HNP
TAG_RESTART_REPLY = "snapc.restart_reply" # HNP -> tool
TAG_MIGRATE_REQUEST = "snapc.migrate"     # tool -> HNP
TAG_MIGRATE_REPLY = "snapc.migrate_reply" # HNP -> tool

TAG_CRCP_BOOKMARK = "crcp.bookmark"       # app <-> app: bookmark exchange
TAG_MODEX = "grpcomm.modex"               # endpoint/business-card exchange

TAG_PS_REQUEST = "tool.ps"                # ompi-ps
TAG_PS_REPLY = "tool.ps_reply"

TAG_HNP_HEARTBEAT = "orte.hnp_heartbeat"  # orted -> HNP: liveness probe


def payload_nbytes(payload: Any) -> int:
    """Wire size estimate of a control message."""
    try:
        return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    except (pickle.PicklingError, TypeError, AttributeError):
        return 256  # unpicklable in-process payload (a closure, a generator)


class RML:
    """Per-process routing message layer endpoint."""

    def __init__(self, universe: "Universe", proc: "SimProcess"):
        self.universe = universe
        self.proc = proc
        self.fabric = universe.cluster.eth
        port = f"oob.{proc.name.jobid}.{proc.name.vpid}.{proc.pid}"
        self.ep: Endpoint = self.fabric.bind(proc.node.name, port)
        self._queues: dict[str, Queue] = {}
        #: tag -> ``fn(sender, payload)`` filing its messages instead of a queue
        self._handlers: dict[str, Callable[[Any, Any], None]] = {}
        self._rpc_waiters: dict[int, object] = {}
        self._closed = False
        self.fabric.attach_handler(self.ep, proc.handler(self._route))
        proc.register_service("rml", self)

    # -- internals ------------------------------------------------------------

    def _queue(self, tag: str) -> Queue:
        queue = self._queues.get(tag)
        if queue is None:
            queue = self.proc.kernel.queue(f"rml.{self.proc.label}.{tag}")
            self._queues[tag] = queue
        return queue

    def _route(self, dgram) -> None:
        """Fabric handler: file one arriving message under its tag."""
        payload = dgram.payload
        # RPC replies are routed straight to their waiter so that
        # concurrent RPCs on the same reply tag cannot consume each
        # other's replies.
        if isinstance(payload, dict) and "rpc_id" in payload:
            waiter = self._rpc_waiters.pop(payload["rpc_id"], None)
            if waiter is not None:
                waiter.fire((dgram.meta.get("from"), payload))
                return
        tag, sender = dgram.meta.get("tag", "?"), dgram.meta.get("from")
        if tag in self._handlers:
            self._handlers[tag](sender, payload)
        else:
            self._queue(tag).put((sender, payload))

    # -- API -----------------------------------------------------------------

    def send(self, dst: ProcessName, tag: str, payload: Any) -> SimGen:
        """Blocking send of one control message."""
        if self._closed:
            raise NetworkError(f"{self.proc.label}: RML closed")
        target = self.universe.lookup_rml(dst)
        if target is None:
            raise NetworkError(f"{self.proc.label}: no route to {dst}")
        yield from self.fabric.send(
            self.ep,
            target.ep,
            payload,
            payload_nbytes(payload),
            meta={"tag": tag, "from": self.proc.name},
        )
        return None

    def on(self, tag: str, fn: Callable[[Any, Any], None]) -> None:
        """File every later message under *tag* with ``fn(sender, payload)``,
        called from the delivery callback (so it must not block)."""
        self._handlers[tag] = fn

    def recv(self, tag: str) -> SimGen:
        """Blocking receive; returns ``(sender_name, payload)``."""
        pair = yield from self._queue(tag).get()
        return pair

    def try_recv(self, tag: str) -> tuple[bool, Any]:
        return self._queue(tag).try_get()

    def rpc(self, dst: ProcessName, tag: str, payload: dict, reply_tag: str) -> SimGen:
        """Request/reply with correlation ids.

        The callee must echo ``rpc_id`` in its reply payload dict.
        """
        from repro.simenv.kernel import WaitEvent

        # kernel-scoped: universe-unique (_route hands any payload
        # carrying a known rpc_id to its waiter) yet deterministic
        # across universes in one session
        rpc_id = self.proc.kernel.next_id("rml.rpc")
        request = dict(payload)
        request["rpc_id"] = rpc_id
        event = self.proc.kernel.event(f"rpc-{rpc_id}")
        self._rpc_waiters[rpc_id] = event
        try:
            yield from self.send(dst, tag, request)
            sender, reply = yield WaitEvent(event)
        finally:
            self._rpc_waiters.pop(rpc_id, None)
        return sender, reply

    def reply_to(self, request_payload: dict, reply_payload: dict) -> dict:
        """Build a reply echoing the request's correlation id."""
        out = dict(reply_payload)
        if "rpc_id" in request_payload:
            out["rpc_id"] = request_payload["rpc_id"]
        return out

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.fabric.unbind(self.ep)
