"""``ob1`` — the default point-to-point component.

Implements the classic Open MPI ob1 design over BTLs:

* **eager** protocol for payloads up to ``pml_ob1_eager_limit``: the
  whole message ships at once; the send completes when serialized (the
  payload is copied, so the sender's buffer is immediately reusable);
* **rendezvous** for larger payloads: RTS → (match) → CTS → DATA; the
  send completes once the data is on the wire, the receive when it
  lands.

The PML is callback-driven and owns no thread.  Each BTL hands an
arriving fragment straight to :meth:`handle_incoming` from the fabric's
delivery callback, and ``isend`` posts a send's first fragment (the
eager fragment, or the RTS) in the caller, so sends reach the wire in
program order and ``isend`` returns immediately (MPI semantics).  An
eager send completes from the BTL's on-wire callback.  Only a
rendezvous takes short-lived helper threads: the sender's blocks until
the CTS arrives and then sends the DATA, and the receiver sends that
CTS from one.

Checkpoint/restart integration (used by the CRCP ``coord`` component):

* ``enter_drain``/``leave_drain`` — while draining, unmatched RTS
  fragments are CTSed immediately so their payloads land in the
  unexpected queue (the channel must be empty in the global snapshot);
* ``quiesce_sends`` — wait until every started send is on the wire;
* ``capture_state``/``restore_state`` — the PML's part of the process
  image: matching queues, request table, sequence counters.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Callable

from repro.mca.component import component_of
from repro.core.ft_event import drive_ft_event
from repro.ompi.constants import ANY_SOURCE, MSG_HEADER_BYTES
from repro.ompi.datatype import copy_payload, nbytes_of
from repro.ompi.pml.base import PMLComponent
from repro.ompi.pml.matching import MatchingEngine, MPIMsg, PostedRecv
from repro.ompi.status import Status
from repro.simenv.kernel import SimEvent, SimGen, WaitEvent
from repro.util.errors import MPIError, NetworkError
from repro.util.logging import get_logger
from repro.util.seq import SeqWindow

if TYPE_CHECKING:  # pragma: no cover
    from repro.ompi.communicator import Communicator
    from repro.ompi.layer import OmpiLayer

log = get_logger("ompi.pml.ob1")


@component_of("pml", "ob1", priority=10)
class Ob1PML(PMLComponent):
    def open(self, context: object | None = None) -> None:
        super().open(context)
        self.eager_limit = self.params.get_int("pml_ob1_eager_limit", 65536)

    def setup(self, ompi: "OmpiLayer") -> None:
        self.ompi = ompi
        self.requests = ompi.requests
        self.matching = MatchingEngine()
        self.btls = ompi.btls
        for btl in self.btls:
            btl.setup(ompi, self)
        #: per-(cid, dst comm rank) payload sequence counters
        self.send_seq: dict[tuple[int, int], int] = {}
        #: per-(cid, src comm rank) delivery windows (invariant checks)
        self.recv_windows: dict[tuple[int, int], SeqWindow] = {}
        self.next_msg_id = 1
        #: sender side: msg_id -> event fired by CTS arrival
        self.pending_cts: dict[int, SimEvent] = {}
        #: receiver side: msg_id -> req_id of the matched posted recv
        self.pending_rendezvous: dict[int, int] = {}
        self.active_sends = 0
        self._quiet_event: SimEvent | None = None
        self.drain_mode = False
        #: messages that raced ahead of MPI_INIT completion (a peer may
        #: leave MPI_INIT and send while we are still inside it; real
        #: TCP buffers hold such traffic)
        self._preinit: list[MPIMsg] = []
        #: wrapper hooks (world-rank based); None without a wrapper
        self.send_hook: Callable[[int], None] | None = None
        self.delivered_hook: Callable[[int], None] | None = None
        # statistics
        self.stats = {
            "eager_sent": 0,
            "rndv_sent": 0,
            "delivered": 0,
            "unexpected": 0,
        }

    # ------------------------------------------------------------------
    # send path
    # ------------------------------------------------------------------

    def isend(self, comm: "Communicator", dst: int, tag: int, payload: Any) -> SimGen:
        if not (0 <= dst < comm.size):
            raise MPIError(f"isend: bad destination rank {dst}")
        if tag < 0:
            raise MPIError(f"isend: negative tag {tag}")
        req = self.requests.new("send")
        key = (comm.cid, dst)
        seq = self.send_seq.get(key, 0)
        self.send_seq[key] = seq + 1
        if self.send_hook is not None:
            self.send_hook(comm.world_rank(dst))
        nbytes = nbytes_of(payload)
        eager = nbytes <= self.eager_limit
        if eager:
            # The payload is copied now: the sender's buffer is
            # reusable as soon as isend returns.
            first = MPIMsg(
                "eager",
                comm.cid,
                comm.rank,
                dst,
                tag,
                seq,
                nbytes,
                payload=copy_payload(payload),
                src_world=comm.my_world_rank,
            )
            wire_bytes = MSG_HEADER_BYTES + nbytes

            def on_wire() -> None:
                self.stats["eager_sent"] += 1
                req.complete_ok(None)
                self._send_done()

        else:
            first = MPIMsg(
                "rts",
                comm.cid,
                comm.rank,
                dst,
                tag,
                seq,
                nbytes,
                msg_id=self.next_msg_id,
                src_world=comm.my_world_rank,
            )
            self.next_msg_id += 1
            wire_bytes = MSG_HEADER_BYTES

            def on_wire() -> None:
                pass  # a rendezvous completes when its DATA is on the wire

        # The first fragment of either protocol is posted here, in the
        # caller, so that sends to one peer reserve the NIC in program
        # order (MPI non-overtaking: matching is in arrival order).
        try:
            card = self.ompi.peer_card(comm.world_rank(dst))
            self.select_btl(card).post_msg(card, first, wire_bytes, on_wire)
        except NetworkError as exc:
            req.complete_error(f"send failed: {exc}")
        else:
            self.active_sends += 1
            if not eager:
                self._await_cts(req, card, first, payload)
        if False:  # pragma: no cover - keeps this a generator function
            yield
        return req.id

    def _await_cts(self, req, card, rts: MPIMsg, payload) -> None:
        """The rest of a rendezvous (RTS → CTS → DATA) once the RTS is
        posted.  The wait for the CTS blocks, so it runs on a helper
        thread."""
        cts_event = self.ompi.kernel.event(f"cts-{rts.msg_id}")
        self.pending_cts[rts.msg_id] = cts_event
        data = dataclasses.replace(rts, kind="data", payload=payload)
        self.ompi.proc.spawn_thread(
            self._rendezvous_thread(req, card, cts_event, data),
            name=f"ob1-rndv-{req.id}",
            daemon=True,
        )

    def _rendezvous_thread(self, req, card, cts_event, data: MPIMsg) -> SimGen:
        try:
            yield WaitEvent(cts_event)
            # Select only now: the preferred BTL may have been shut
            # down between RTS and CTS by a concurrent checkpoint.
            btl = self.select_btl(card)
            yield from btl.send_msg(card, data, MSG_HEADER_BYTES + data.nbytes)
            self.stats["rndv_sent"] += 1
            req.complete_ok(None)
        except NetworkError as exc:
            req.complete_error(f"send failed: {exc}")
        finally:
            self._send_done()
        return None

    def _send_done(self) -> None:
        """One send left the ``active_sends`` set (on the wire, failed,
        or its helper was killed); wake ``quiesce_sends`` at zero."""
        self.active_sends -= 1
        if self.active_sends == 0 and self._quiet_event is not None:
            event, self._quiet_event = self._quiet_event, None
            if not event.fired:
                event.fire(None)

    def select_btl(self, card: dict):
        my_node = self.ompi.proc.node.name
        for btl in self.btls:  # priority order
            if btl.is_connected and btl.reaches(my_node, card):
                return btl
        raise NetworkError(
            f"{self.ompi.proc.label}: no BTL reaches {card.get('node')}"
        )

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------

    def irecv(self, comm: "Communicator", src: int, tag: int) -> SimGen:
        if src != ANY_SOURCE and not (0 <= src < comm.size):
            raise MPIError(f"irecv: bad source rank {src}")
        req = self.requests.new("recv")
        req.recv_params = (comm.cid, src, tag)
        posted = PostedRecv(req.id, comm.cid, src, tag)
        matched = self.matching.post(posted)
        if matched is not None:
            self._consume_match(req, matched)
        if False:  # pragma: no cover - keeps this a generator function
            yield
        return req.id

    def _consume_match(self, req, msg: MPIMsg) -> None:
        if msg.kind in ("eager", "data"):
            req.complete_ok((msg.payload, Status(msg.src, msg.tag, msg.nbytes)))
        elif msg.kind == "rts":
            self.pending_rendezvous[msg.msg_id] = req.id
            self._spawn_cts(msg)
        else:  # pragma: no cover - matching engine filters kinds
            raise MPIError(f"matched {msg.kind} message")

    def _spawn_cts(self, rts: MPIMsg) -> None:
        cts = MPIMsg(
            "cts", rts.cid, rts.dst, rts.src, rts.tag, rts.seq, 0, msg_id=rts.msg_id
        )

        def sender() -> SimGen:
            card = self.ompi.peer_card(rts.src_world)
            try:
                btl = self.select_btl(card)
                yield from btl.send_msg(card, cts, MSG_HEADER_BYTES)
            except NetworkError as exc:
                log.warning("CTS to rank %d failed: %s", rts.src, exc)
            return None

        self.ompi.proc.spawn_thread(
            sender(), name=f"ob1-cts-{rts.msg_id}", daemon=True
        )

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------

    def wait(self, req_id: int) -> SimGen:
        req = self.requests.get(req_id)
        result = yield from req.wait()
        self.requests.free(req_id)
        return result

    def test(self, req_id: int) -> tuple[bool, Any]:
        req = self.requests.get(req_id)
        done, result = req.test()
        if done:
            self.requests.free(req_id)
        return done, result

    def iprobe(self, comm: "Communicator", src: int, tag: int):
        """Non-blocking probe of the unexpected queue.

        Returns a :class:`Status` for the earliest matching buffered
        message, or None.
        """
        probe = PostedRecv(-1, comm.cid, src, tag)
        for msg in self.matching.unexpected:
            if probe.matches(msg):
                return Status(msg.src, msg.tag, msg.nbytes)
        return None

    # ------------------------------------------------------------------
    # progress (called from the BTLs' fabric handlers: must not block)
    # ------------------------------------------------------------------

    def handle_incoming(self, msg: MPIMsg) -> None:
        if self.ompi.comm_world is None:
            self._preinit.append(msg)
            return
        if msg.kind == "eager":
            self._note_delivered(msg)
            recv = self.matching.arrive(msg)
            if recv is not None:
                self._consume_match(self.requests.get(recv.req_id), msg)
            else:
                self.stats["unexpected"] += 1
        elif msg.kind == "rts":
            recv = self.matching.arrive(msg)
            if recv is not None:
                self._consume_match(self.requests.get(recv.req_id), msg)
            elif self.drain_mode:
                self.matching.draining.add(msg.msg_id)
                self._spawn_cts(msg)
        elif msg.kind == "cts":
            event = self.pending_cts.pop(msg.msg_id, None)
            if event is not None and not event.fired:
                event.fire(None)
        elif msg.kind == "data":
            self._note_delivered(msg)
            req_id = self.pending_rendezvous.pop(msg.msg_id, None)
            if req_id is not None:
                req = self.requests.get(req_id)
                req.complete_ok((msg.payload, Status(msg.src, msg.tag, msg.nbytes)))
            elif msg.msg_id in self.matching.draining:
                buffered = MPIMsg(
                    "data",
                    msg.cid,
                    msg.src,
                    msg.dst,
                    msg.tag,
                    msg.seq,
                    msg.nbytes,
                    payload=copy_payload(msg.payload),
                    msg_id=msg.msg_id,
                )
                self.matching.replace_rts_with_data(buffered)
                self.stats["unexpected"] += 1
                # A receive posted while the drain was in flight may be
                # waiting for exactly this payload.
                self._rematch(buffered)
            else:  # pragma: no cover - protocol violation
                raise MPIError(f"orphan DATA fragment msg_id={msg.msg_id}")
        else:  # pragma: no cover
            raise MPIError(f"unknown message kind {msg.kind!r}")

    def _rematch(self, msg: MPIMsg) -> None:
        """Match a just-buffered payload against already-posted recvs."""
        for i, recv in enumerate(self.matching.posted):
            if recv.matches(msg):
                self.matching.posted.pop(i)
                self.matching.unexpected.remove(msg)
                self._consume_match(self.requests.get(recv.req_id), msg)
                return

    def flush_preinit(self) -> None:
        """Process traffic buffered while MPI_INIT was still running."""
        held, self._preinit = self._preinit, []
        for msg in held:
            self.handle_incoming(msg)

    def _note_delivered(self, msg: MPIMsg) -> None:
        self.stats["delivered"] += 1
        window = self.recv_windows.setdefault((msg.cid, msg.src), SeqWindow())
        window.deliver(msg.seq)
        if self.delivered_hook is not None:
            self.delivered_hook(msg.src_world)

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------

    def enter_drain(self) -> None:
        if self.drain_mode:
            return
        self.drain_mode = True
        for rts in self.matching.pending_rts():
            self.matching.draining.add(rts.msg_id)
            self._spawn_cts(rts)

    def leave_drain(self) -> None:
        # Idempotent: the coordinator's abort path may run after the
        # drain loop already exited (or before it ever entered).
        self.drain_mode = False

    def quiesce_sends(self) -> SimGen:
        """Block until every started send is on the wire (or failed)."""
        while self.active_sends > 0:
            if self._quiet_event is None:
                self._quiet_event = self.ompi.kernel.event("ob1-quiet")
            yield WaitEvent(self._quiet_event)
        return None

    def ft_event(self, state: int) -> SimGen:
        for btl in self.btls:
            yield from drive_ft_event(btl, state)
        return None

    # ------------------------------------------------------------------
    # image capture / restore
    # ------------------------------------------------------------------

    def capture_state(self) -> dict:
        if self.active_sends or self.pending_cts or self.pending_rendezvous:
            raise MPIError(
                "PML captured while not quiesced "
                f"(active={self.active_sends}, cts={len(self.pending_cts)}, "
                f"rndv={len(self.pending_rendezvous)})"
            )
        pending_sends = self.requests.pending_of_kind("send")
        if pending_sends:
            raise MPIError(
                f"PML captured with {len(pending_sends)} incomplete sends"
            )
        return {
            "matching": self.matching.capture(),
            "requests": self.requests.capture(),
            "send_seq": dict(self.send_seq),
            "recv_windows": {
                key: window.snapshot()
                for key, window in self.recv_windows.items()
            },
            "next_msg_id": self.next_msg_id,
        }

    def restore_state(self, state: dict) -> None:
        self.matching.restore(state["matching"])
        self.requests.restore(state["requests"])
        self.send_seq = {tuple(k): v for k, v in state["send_seq"].items()}
        self.recv_windows = {
            tuple(key): SeqWindow.restore(snap)
            for key, snap in state["recv_windows"].items()
        }
        self.next_msg_id = state["next_msg_id"]
