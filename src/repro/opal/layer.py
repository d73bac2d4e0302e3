"""OPAL layer object: one per simulated process.

Responsibilities (paper sections 5.5, 6.4, 6.5):

* open the CRS framework and expose checkpoint enable/disable — in
  Open MPI checkpointing is enabled at the end of ``MPI_INIT`` and
  disabled on entry to ``MPI_FINALIZE``;
* own the INC stack and register the bottom-most (OPAL) INC;
* own the *image contributor* registry.  A real CRS (BLCR) captures
  all process memory implicitly; our simulated CRS instead gathers
  explicit state contributions from each subsystem that owns
  process-image state (the application runner, the PML matching
  engine, the CRCP bookmarks);
* implement ``entry_point`` — the function the checkpoint notification
  thread calls to run Figure 2's sequence: INC(CHECKPOINT) down the
  stack, take the checkpoint via CRS, INC(CONTINUE or HALT) back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

from repro.core.ft_event import FTState, drive_ft_event
from repro.core.inc import INCStack
from repro.simenv.kernel import SimGen
from repro.util.errors import CheckpointError, NotCheckpointableError
from repro.util.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.mca.params import MCAParams
    from repro.mca.registry import FrameworkRegistry
    from repro.opal.crs.base import CRSComponent
    from repro.simenv.process import SimProcess
    from repro.vfs.fsbase import FS

log = get_logger("opal.layer")


@runtime_checkable
class ImageContributor(Protocol):
    """A subsystem owning process-image state."""

    image_key: str

    def capture_image_state(self, crs_name: str) -> Any:
        """Return picklable state for the image taken by *crs_name*."""
        ...  # pragma: no cover - protocol

    def restore_image_state(self, state: Any) -> None:
        """Reinstall previously captured state in a fresh process."""
        ...  # pragma: no cover - protocol


@dataclass
class CheckpointRequest:
    """One checkpoint request as seen by a single process."""

    interval: int
    target_fs: "FS"
    snapshot_dir: str
    terminate: bool = False
    options: dict = field(default_factory=dict)


class OpalLayer:
    """Per-process OPAL state."""

    SERVICE_KEY = "opal"

    def __init__(
        self,
        proc: "SimProcess",
        registry: "FrameworkRegistry",
        params: "MCAParams",
    ):
        self.proc = proc
        self.registry = registry
        self.params = params
        self.inc_stack = INCStack()
        self.inc_stack.tracer = proc.kernel.tracer
        self.inc_stack.owner = proc.label
        self.contributors: dict[str, ImageContributor] = {}
        self.checkpoint_enabled = False
        self.checkpoint_in_progress = False
        #: the last snapshot taken by this process ({"interval",
        #: "chunk_bytes", "hashes", "blob"}): the next request hashes only
        #: chunks that differ from it, an incremental one emits only those.
        #: Dropped at HALT and at MPI_FINALIZE — nothing checkpoints after
        self.incr_chunk_cache: dict[str, Any] | None = None
        #: SELF-component application callbacks (checkpoint/continue/restart)
        self.self_callbacks: dict[str, Any] = {}
        self.crs: "CRSComponent" = registry.framework("crs").open(
            params, context=self
        )
        self.inc_stack.register("opal", self._opal_inc)
        proc.register_service(self.SERVICE_KEY, self)

    # -- contributors ---------------------------------------------------------

    def register_contributor(self, contributor: ImageContributor) -> None:
        key = contributor.image_key
        if key in self.contributors:
            raise ValueError(f"image contributor {key!r} already registered")
        self.contributors[key] = contributor

    # -- enable/disable ----------------------------------------------------------

    def enable_checkpoint(self) -> None:
        """Called at the end of MPI_INIT (paper section 6.4)."""
        self.checkpoint_enabled = True

    def disable_checkpoint(self) -> None:
        """Called on entry to MPI_FINALIZE."""
        self.checkpoint_enabled = False
        self.incr_chunk_cache = None

    # -- INC -----------------------------------------------------------------

    def _opal_inc(self, state: FTState, down) -> SimGen:
        # Bottom of the stack: nothing below, then notify the CRS
        # component itself (it may hold open file handles etc.).
        yield from down(state)
        yield from drive_ft_event(self.crs, state)

    # -- Figure 2: the entry point -----------------------------------------------

    def entry_point(self, request: CheckpointRequest) -> SimGen:
        """Run the full single-process checkpoint sequence.

        Returns ``(LocalSnapshotRef, LocalSnapshotMeta, ChunkManifest)``.
        """
        if not self.checkpoint_enabled:
            raise NotCheckpointableError([self.proc.label])
        if self.checkpoint_in_progress:
            raise CheckpointError(
                f"{self.proc.label}: checkpoint already in progress"
            )
        self.checkpoint_in_progress = True
        prepared = False
        try:
            yield from self.inc_stack.invoke(FTState.CHECKPOINT)
            prepared = True
            ref, meta, manifest = yield from self.crs.checkpoint(self, request)
            post = FTState.HALT if request.terminate else FTState.CONTINUE
            yield from self.inc_stack.invoke(post)
            if request.terminate:
                self.incr_chunk_cache = None
            return ref, meta, manifest
        except CheckpointError:
            if prepared:
                # The library is quiesced (gates closed, IB down) but
                # the checkpoint failed; roll forward to CONTINUE so the
                # process resumes unharmed (the section 5.1 guarantee).
                yield from self.inc_stack.invoke(FTState.CONTINUE)
            raise
        finally:
            self.checkpoint_in_progress = False

    def restart_notify(self) -> SimGen:
        """Run INC(RESTART) in a freshly reconstructed process."""
        yield from self.inc_stack.invoke(FTState.RESTART)
        return None

    # -- restore -------------------------------------------------------------

    def restore_contributors(self, image: dict[str, Any]) -> None:
        """Reinstall captured subsystem state (restart path).

        Contributors registered but absent from the image are left at
        their freshly initialized defaults; image keys with no
        registered contributor are an error (the process would silently
        lose state).
        """
        for key, state in image.items():
            contributor = self.contributors.get(key)
            if contributor is None:
                raise CheckpointError(
                    f"{self.proc.label}: image has state for unknown "
                    f"contributor {key!r}"
                )
            contributor.restore_image_state(state)
