"""ORTE per-application-process layer.

Hosts the process's runtime-facing state: its RML endpoint, the ORTE
INC (the middle of the three-layer notification stack, Figure 2), and
the *application coordinator* — the checkpoint notification thread of
paper section 6.5, which waits for checkpoint requests from the local
coordinator, drives the OPAL entry point, and reports the resulting
local snapshot back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.ft_event import FTState
from repro.opal.layer import CheckpointRequest
from repro.orte.oob import (
    RML,
    TAG_CKPT_ABORT,
    TAG_CKPT_DO,
    TAG_CKPT_DONE,
    TAG_CKPT_TERM_ACK,
)
from repro.simenv.kernel import SimGen
from repro.util.errors import NetworkError, ReproError
from repro.util.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.opal.layer import OpalLayer
    from repro.orte.universe import Universe
    from repro.simenv.process import SimProcess

log = get_logger("orte.proc")


class OrteProcLayer:
    """Per-app-process ORTE state."""

    SERVICE_KEY = "orte"

    def __init__(self, proc: "SimProcess", universe: "Universe", opal: "OpalLayer"):
        self.proc = proc
        self.universe = universe
        self.opal = opal
        self.rml = RML(universe, proc)
        #: trace of ft_event states seen (tests / Figure-2 reproduction)
        self.ft_trace: list[FTState] = []
        opal.inc_stack.register("orte", self._orte_inc)
        proc.register_service(self.SERVICE_KEY, self)
        self._notif_thread = proc.spawn_thread(
            self._notification_loop(), name="cr-notify", daemon=True
        )
        self._abort_thread = proc.spawn_thread(
            self._abort_loop(), name="cr-abort", daemon=True
        )

    # -- INC -----------------------------------------------------------------

    def _orte_inc(self, state: FTState, down) -> SimGen:
        # The ORTE layer's runtime connections (RML over TCP) survive a
        # checkpoint in-process; nothing to quiesce here beyond
        # recording the traversal, but the hook point exists exactly as
        # in Open MPI (one INC per layer).
        self.ft_trace.append(state)
        yield from down(state)
        return None

    # -- application coordinator (the checkpoint notification thread) -----------

    def _notification_loop(self) -> SimGen:
        while True:
            sender, payload = yield from self.rml.recv(TAG_CKPT_DO)
            reply = yield from self._handle_checkpoint(payload)
            try:
                yield from self.rml.send(
                    sender, TAG_CKPT_DONE, self.rml.reply_to(payload, reply)
                )
            except NetworkError:
                pass
            if reply.get("ok") and payload.get("terminate"):
                # Checkpoint-and-terminate: the INC stack already saw
                # HALT.  Wait for the local coordinator to acknowledge
                # receipt of our reply, then drop the process (exiting
                # immediately would race the in-flight CKPT_DONE).
                yield from self.rml.recv(TAG_CKPT_TERM_ACK)
                self.proc.exit("halted")

    def _abort_loop(self) -> SimGen:
        """Second service thread: abort notifications must be
        deliverable while the notification thread is busy coordinating."""
        while True:
            yield from self.rml.recv(TAG_CKPT_ABORT)
            ompi = self.proc.maybe_service("ompi")
            if ompi is not None and ompi.crcp is not None:
                ompi.crcp.abort()

    def _handle_checkpoint(self, payload: dict) -> SimGen:
        target_fs = self._resolve_fs(payload["fs"])
        request = CheckpointRequest(
            interval=payload["interval"],
            target_fs=target_fs,
            snapshot_dir=payload["dir"],
            terminate=bool(payload.get("terminate", False)),
            options=dict(payload.get("options", {})),
        )
        try:
            ref, meta, manifest = yield from self.opal.entry_point(request)
        except ReproError as exc:
            log.warning("%s: checkpoint failed: %s", self.proc.label, exc)
            return {"ok": False, "error": str(exc)}
        return {
            "ok": True,
            "path": ref.path,
            "fs": payload["fs"],
            "node": meta.origin_node,
            "crs": meta.crs_component,
            "os_tag": meta.os_tag,
            "portable": meta.portable,
            "kind": meta.kind,
            "bytes": meta.written_bytes,
            # CAS-ready manifest summary: lets the global coordinator
            # negotiate with the chunk store without reading remote
            # manifests first.
            "chunk_bytes": meta.chunk_bytes,
            "total_bytes": meta.total_bytes,
            "hashes": manifest.hashes,
            "present": manifest.present,
        }

    def _resolve_fs(self, kind: str):
        if kind == "stable":
            return self.universe.cluster.stable_fs
        local = self.proc.node.local_fs
        if local is None:
            raise ReproError(f"node {self.proc.node.name} has no local fs")
        return local
