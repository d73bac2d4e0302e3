"""PML framework base.

The public PML API is uniformly *generator-based* (``yield from
pml.isend(...)``) even where the default component completes
immediately: this is what lets the CRCP wrapper PML make any entry
point blocking (e.g. gating new sends while a checkpoint coordination
is in flight) without changing callers — the paper's wrapper-component
trick (section 6.3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.mca.component import Component
from repro.simenv.kernel import SimGen

if TYPE_CHECKING:  # pragma: no cover
    from repro.mca.registry import FrameworkRegistry
    from repro.ompi.communicator import Communicator
    from repro.ompi.layer import OmpiLayer


def nothing() -> SimGen:
    """An empty generator — ``yield from nothing()`` is a no-op."""
    return None
    yield  # pragma: no cover


class PMLComponent(Component):
    """Base class of point-to-point management components."""

    framework_name = "pml"

    def setup(self, ompi: "OmpiLayer") -> None:
        """Bind to the layer (called once at MPI init)."""
        raise NotImplementedError

    # -- data path (generators) ---------------------------------------------

    def isend(self, comm: "Communicator", dst: int, tag: int, payload: Any) -> SimGen:
        """Initiate a send; returns a request id."""
        raise NotImplementedError
        yield  # pragma: no cover

    def irecv(self, comm: "Communicator", src: int, tag: int) -> SimGen:
        """Post a receive; returns a request id."""
        raise NotImplementedError
        yield  # pragma: no cover

    def wait(self, req_id: int) -> SimGen:
        """Block until the request completes; returns its result."""
        raise NotImplementedError
        yield  # pragma: no cover

    def test(self, req_id: int) -> tuple[bool, Any]:
        raise NotImplementedError

    def iprobe(self, comm: "Communicator", src: int, tag: int):
        raise NotImplementedError

    # -- progress (synchronous, called from the BTLs' fabric handlers) ---------

    def handle_incoming(self, msg: Any) -> None:
        raise NotImplementedError

    # -- image --------------------------------------------------------------

    def capture_state(self) -> dict:
        raise NotImplementedError

    def restore_state(self, state: dict) -> None:
        raise NotImplementedError


def register_pml_components(registry: "FrameworkRegistry") -> None:
    from repro.ompi.pml.ob1 import Ob1PML

    registry.add_component("pml", Ob1PML)
