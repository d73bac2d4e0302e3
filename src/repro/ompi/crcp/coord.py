"""``coord`` — LAM/MPI-like coordinated checkpoint/restart protocol.

The protocol (paper section 6.3, after [19]) makes the global snapshot
consistent by emptying every channel:

1. **Gate** — new application sends block at the wrapper's
   ``before_send`` hook (in-flight sends keep progressing).
2. **Bookmark exchange** — every process tells every peer how many
   messages it has initiated toward them (cumulative, *whole messages*
   rather than bytes — this paper's refinement over LAM/MPI).
3. **Drain** — receive until the per-peer delivered count reaches the
   peer's bookmark; unmatched rendezvous RTS fragments are CTSed so
   their payloads land in the unexpected queue ("outstanding messages
   are posted by the receiving peer").
4. **Quiesce** — wait for the process's own in-flight sends to finish
   serializing.

After this, the channels are empty: everything counted is buffered in
some process's image.  ``resume`` lifts the gate on CONTINUE/RESTART.

Bookmarks travel over the OOB control plane (RML), not the MPI data
path, so the exchange itself never perturbs the counts.

**Epochs.** Coordination attempts are numbered by a local *epoch*
counter that every rank advances in lockstep (one increment per
global checkpoint attempt).  Bookmarks carry the sender's epoch and are
filed on arrival: one from an attempt we gave up on is dropped instead
of corrupting the next interval's exchange, one from an attempt we have
not entered yet is kept for it.  The coordinating thread wakes once,
when its attempt's last bookmark is filed (or the attempt is aborted).
"""

from __future__ import annotations

from repro.mca.component import component_of
from repro.ompi.crcp.base import CRCPComponent
from repro.orte.oob import TAG_CRCP_BOOKMARK
from repro.simenv.kernel import SimEvent, SimGen, WaitEvent
from repro.util.errors import CheckpointError
from repro.util.ids import ProcessName
from repro.util.logging import get_logger

log = get_logger("ompi.crcp.coord")


@component_of("crcp", "coord", priority=10)
class CoordCRCP(CRCPComponent):
    def setup(self, ompi) -> None:
        super().setup(ompi)
        #: cumulative messages initiated toward each world rank
        self.sent_count: dict[int, int] = {}
        #: cumulative payloads delivered from each world rank
        self.recvd_count: dict[int, int] = {}
        self.gate_active = False
        self.aborted = False
        self._gate_event: SimEvent | None = None
        self._delivery_event: SimEvent | None = None
        #: coordination attempt number; advances once per attempt on
        #: every rank, tagging bookmarks so stragglers from an aborted
        #: attempt cannot pollute the next one
        self._epoch = 0
        #: epoch -> {peer world rank: its bookmark}, filed on arrival
        self._bookmarks: dict[int, dict[int, int]] = {}
        #: fires when the current attempt's bookmarks are all filed
        self._bookmarked: SimEvent | None = None
        self._n_peers = 0
        ompi.rml.on(TAG_CRCP_BOOKMARK, self._file_bookmark)
        #: True between ``pml.enter_drain()`` and ``pml.leave_drain()``
        #: so the abort path only undoes a drain it actually entered
        self._draining = False
        #: current coordination phase, ``None`` when idle — one of
        #: ``"bookmark"``, ``"drain"``, ``"quiesce"``.  Observability
        #: surface for tests and the phase-abort fault injector.
        self.phase: str | None = None
        self._phase_span = None
        self._coord_span = None
        #: statistics for the drain-cost experiment (E4)
        self.stats = {"coordinations": 0, "drained_msgs": 0, "aborts": 0}

    # -- hot-path hooks -----------------------------------------------------------

    def gate_wait(self) -> SimGen:
        while self.gate_active:
            if self._gate_event is None:
                self._gate_event = self.ompi.kernel.event("crcp-gate")
            yield WaitEvent(self._gate_event)
        return None

    def note_send(self, dst_world: int) -> None:
        # Called with the gate known-inactive; the increment is atomic
        # with the gate check (single-threaded kernel, no yield between).
        self.sent_count[dst_world] = self.sent_count.get(dst_world, 0) + 1

    def after_send(self, dst_world: int) -> None:
        pass

    def before_recv_post(self, src_world: int) -> None:
        pass

    def on_delivered(self, src_world: int) -> None:
        self.recvd_count[src_world] = self.recvd_count.get(src_world, 0) + 1
        if self._delivery_event is not None:
            event, self._delivery_event = self._delivery_event, None
            if not event.fired:
                event.fire(None)

    def _file_bookmark(self, _sender, payload: dict) -> None:
        epoch = payload["epoch"]
        if epoch < self._epoch:
            # A peer's bookmark from an aborted attempt that arrived
            # after we gave up on it.  Its cumulative count is outdated
            # — acting on it would end the drain early and lose
            # messages from the image.
            return
        got = self._bookmarks.setdefault(epoch, {})
        got[payload["from_world"]] = payload["sent_to_you"]
        event = self._bookmarked
        if epoch == self._epoch and event is not None and len(got) == self._n_peers:
            self._bookmarked = None
            event.fire(None)

    # -- phase bookkeeping ---------------------------------------------------------

    def _enter_phase(self, name: str) -> None:
        tracer = self.ompi.kernel.tracer
        if self._phase_span is not None:
            self._phase_span.end()
        self.phase = name
        self._phase_span = tracer.begin(
            f"crcp.{name}",
            cat="crcp",
            rank=self.ompi.proc.name.vpid,
            epoch=self._epoch,
        )

    def _leave_phases(self, aborted: bool = False) -> None:
        if self._phase_span is not None:
            self._phase_span.end(aborted=aborted)
            self._phase_span = None
        if self._coord_span is not None:
            self._coord_span.end(aborted=aborted)
            self._coord_span = None
        self.phase = None

    # -- coordination --------------------------------------------------------------

    def coordinate(self) -> SimGen:
        ompi = self.ompi
        self.stats["coordinations"] += 1
        self._epoch += 1
        self.gate_active = True
        self.aborted = False
        comm = ompi.comm_world
        me = comm.rank
        peers = comm.peer_ranks()
        self._n_peers = len(peers)
        self._bookmarks = {e: b for e, b in self._bookmarks.items() if e >= self._epoch}
        self._coord_span = ompi.kernel.tracer.begin(
            "crcp.coordinate",
            cat="crcp",
            rank=ompi.proc.name.vpid,
            proto=self.name,
            epoch=self._epoch,
        )
        try:
            if peers:
                rml = ompi.rml
                jobid = ompi.proc.name.jobid
                self._enter_phase("bookmark")
                for peer in peers:
                    world = comm.world_rank(peer)
                    yield from rml.send(
                        ProcessName(jobid, world),
                        TAG_CRCP_BOOKMARK,
                        {
                            "from_world": comm.world_rank(me),
                            "sent_to_you": self.sent_count.get(world, 0),
                            "epoch": self._epoch,
                        },
                    )
                expected = self._bookmarks.setdefault(self._epoch, {})
                if len(expected) < len(peers) and not self.aborted:
                    self._bookmarked = ompi.kernel.event("crcp-bookmarks")
                    yield WaitEvent(self._bookmarked)
                if self.aborted:
                    self._abort_cleanup()

                # Drain until every peer's bookmark is met.
                pml = ompi.pml_base
                self._enter_phase("drain")
                pml.enter_drain()
                self._draining = True
                drained_at_start = sum(self.recvd_count.values())
                while any(
                    self.recvd_count.get(world, 0) < count
                    for world, count in expected.items()
                ):
                    if self._delivery_event is None:
                        self._delivery_event = ompi.kernel.event("crcp-drain")
                    yield WaitEvent(self._delivery_event)
                    if self.aborted:
                        self._abort_cleanup()
                pml.leave_drain()
                self._draining = False
                drained = sum(self.recvd_count.values()) - drained_at_start
                self.stats["drained_msgs"] += drained
                ompi.kernel.tracer.count("crcp.drained_msgs", drained)

            # Our own in-flight sends must be fully on the wire — and by
            # the symmetric argument, delivered — before the image is cut.
            self._enter_phase("quiesce")
            yield from ompi.pml_base.quiesce_sends()
            if self.aborted:
                self._abort_cleanup()
        finally:
            self._leave_phases(aborted=self.aborted)
        log.debug("%s coordinated (drained)", ompi.proc.label)
        return None

    def abort(self) -> None:
        """Abandon an in-flight coordination (another process vetoed).

        Safe to call from outside the coordinating thread: flags the
        abort and pokes both wait points (the bookmark wait and the
        drain loop's delivery event).
        The gate stays closed here — it is lifted by ``resume(False)``
        when the coordinating thread runs ``_abort_cleanup`` and, on
        the normal failure path, again by the roll-forward
        INC(CONTINUE).
        """
        if not self.gate_active:
            return
        self.aborted = True
        self.stats["aborts"] += 1
        self.ompi.kernel.tracer.count("crcp.aborts")
        for event in (self._bookmarked, self._delivery_event):
            if event is not None and not event.fired:
                event.fire(None)
        self._bookmarked = self._delivery_event = None

    def _abort_cleanup(self) -> None:
        # Only undo a drain this attempt actually entered: an abort
        # during bookmark collection never reached enter_drain, and an
        # abort during quiesce already left it.
        if self._draining:
            self.ompi.pml_base.leave_drain()
            self._draining = False
        self.resume(False)
        raise CheckpointError(
            f"{self.ompi.proc.label}: checkpoint coordination aborted"
        )

    def resume(self, restarting: bool) -> None:
        self.gate_active = False
        if self._gate_event is not None:
            event, self._gate_event = self._gate_event, None
            if not event.fired:
                event.fire(None)

    # -- image ------------------------------------------------------------------

    def capture_image_state(self, crs_name: str):
        if self.gate_active is False:
            raise CheckpointError("CRCP image captured outside coordination")
        log.debug(
            "%s: bookmark state into %s image", self.ompi.proc.label, crs_name
        )
        return {
            "sent": dict(self.sent_count),
            "recvd": dict(self.recvd_count),
        }

    def restore_image_state(self, state) -> None:
        self.sent_count = {int(k): v for k, v in state["sent"].items()}
        self.recvd_count = {int(k): v for k, v in state["recvd"].items()}
