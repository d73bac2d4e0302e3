"""MPI message matching.

Implements the standard matching rules: a posted receive ``(cid, src,
tag)`` (with ``ANY_SOURCE``/``ANY_TAG`` wildcards) matches the earliest
arrival-ordered candidate; candidates from one sender match in send
order (guaranteed by the in-order transport plus the single
arrival-ordered ``unexpected`` list, which holds both buffered payloads
and rendezvous RTS placeholders so cross-protocol ordering is
preserved).

The engine is deliberately free of I/O — the PML drives it — which
makes its state a clean image contribution: ``capture``/``restore``
round-trip the posted and unexpected queues across checkpoint/restart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.ompi.constants import ANY_SOURCE, ANY_TAG
from repro.util.errors import MPIError


@dataclass
class MPIMsg:
    """One MPI-level message (or protocol fragment)."""

    kind: str  # "eager" | "rts" | "cts" | "data"
    cid: int
    src: int
    dst: int
    tag: int
    seq: int
    nbytes: int
    payload: Any = None
    msg_id: int = 0
    #: sender's *world* rank — lets the progress engine account for and
    #: route protocol traffic without resolving the communicator (which
    #: may not be registered locally yet during collective comm
    #: construction)
    src_world: int = -1

    def to_state(self) -> dict:
        return {
            "kind": self.kind,
            "cid": self.cid,
            "src": self.src,
            "dst": self.dst,
            "tag": self.tag,
            "seq": self.seq,
            "nbytes": self.nbytes,
            "payload": self.payload,
            "msg_id": self.msg_id,
            "src_world": self.src_world,
        }

    @classmethod
    def from_state(cls, state: dict) -> "MPIMsg":
        return cls(**state)


@dataclass
class PostedRecv:
    """A posted receive awaiting a match."""

    req_id: int
    cid: int
    src: int
    tag: int

    def matches(self, msg: MPIMsg) -> bool:
        if msg.cid != self.cid:
            return False
        if self.src != ANY_SOURCE and msg.src != self.src:
            return False
        if self.tag != ANY_TAG and msg.tag != self.tag:
            return False
        return True


class MatchingEngine:
    """Posted-receive and unexpected-message queues."""

    def __init__(self) -> None:
        self.posted: list[PostedRecv] = []
        #: arrival-ordered payloads ("eager"/"data") and RTS placeholders
        self.unexpected: list[MPIMsg] = []
        #: msg_ids of RTS entries we have drain-CTSed (payload will
        #: replace the placeholder in place, preserving order)
        self.draining: set[int] = set()

    # -- receive side -----------------------------------------------------------

    def post(self, recv: PostedRecv) -> MPIMsg | None:
        """Try to match a new posted receive.

        Returns the matched unexpected entry (payload *or* RTS) and
        removes it from the queue; returns None (and queues the post)
        if nothing matches.
        """
        for i, msg in enumerate(self.unexpected):
            if msg.kind == "rts" and msg.msg_id in self.draining:
                continue  # already being pulled by the drain
            if recv.matches(msg):
                return self.unexpected.pop(i)
        self.posted.append(recv)
        return None

    def cancel_post(self, req_id: int) -> bool:
        for i, recv in enumerate(self.posted):
            if recv.req_id == req_id:
                self.posted.pop(i)
                return True
        return False

    # -- arrival side -------------------------------------------------------------

    def arrive(self, msg: MPIMsg) -> PostedRecv | None:
        """Record an arriving ``eager`` or ``rts`` message.

        Returns the matching posted receive (removed from the queue) or
        None after buffering the message as unexpected.
        """
        if msg.kind not in ("eager", "rts"):
            raise MPIError(f"matching engine got {msg.kind} message")
        for i, recv in enumerate(self.posted):
            if recv.matches(msg):
                return self.posted.pop(i)
        self.unexpected.append(msg)
        return None

    def replace_rts_with_data(self, data: MPIMsg) -> None:
        """Swap a drained RTS placeholder for its payload, in place."""
        for i, msg in enumerate(self.unexpected):
            if msg.kind == "rts" and msg.msg_id == data.msg_id:
                self.unexpected[i] = data
                self.draining.discard(data.msg_id)
                return
        raise MPIError(f"no draining RTS with msg_id {data.msg_id}")

    def pending_rts(self) -> list[MPIMsg]:
        """Unexpected RTS entries not yet being drained."""
        return [
            m
            for m in self.unexpected
            if m.kind == "rts" and m.msg_id not in self.draining
        ]

    # -- image capture/restore ----------------------------------------------------

    def capture(self) -> dict:
        rts_left = [m for m in self.unexpected if m.kind == "rts"]
        if rts_left or self.draining:
            raise MPIError(
                "matching engine captured with undrained rendezvous "
                f"traffic ({len(rts_left)} RTS, {len(self.draining)} draining)"
            )
        return {
            "posted": [
                (r.req_id, r.cid, r.src, r.tag) for r in self.posted
            ],
            "unexpected": [m.to_state() for m in self.unexpected],
        }

    def restore(self, state: dict) -> None:
        self.posted = [
            PostedRecv(req_id, cid, src, tag)
            for req_id, cid, src, tag in state["posted"]
        ]
        self.unexpected = [MPIMsg.from_state(s) for s in state["unexpected"]]
        self.draining = set()
