"""OMPI layer object: one per application process.

Owns the PML stack (BTLs, ob1, optional CRCP wrapper), communicators,
the request table, the MPI init/finalize rendezvous, and the OMPI INC —
which enforces the paper's ordering requirement: the CRCP coordinates
*before any other MPI subsystem* is notified of a checkpoint, and only
then does the PML ``ft_event`` shut down non-checkpointable
interconnects (sections 5.3, 6.3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.ft_event import FTState, drive_ft_event
from repro.mca.params import Param
from repro.ompi.communicator import Communicator
from repro.ompi.constants import CID_WORLD
from repro.ompi.crcp.wrapper import CRCPWrapperPML
from repro.ompi.group import Group
from repro.ompi.ops import InlineRuntime, drive_ops
from repro.ompi.request import RequestTable
from repro.orte.oob import TAG_CKPT_READY, TAG_INIT_GO, TAG_INIT_READY
from repro.simenv.kernel import SimGen
from repro.util.errors import CheckpointError, MPIError
from repro.util.ids import hnp_name
from repro.util.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.mca.params import MCAParams
    from repro.mca.registry import FrameworkRegistry
    from repro.opal.layer import OpalLayer
    from repro.orte.oob import RML
    from repro.orte.universe import Universe
    from repro.simenv.process import SimProcess

log = get_logger("ompi.layer")

CR_ENABLED = Param("ompi_cr_enabled", True, "build with C/R support (wrapper PML installed)")


class _PMLContributor:
    """Adapter exposing the PML state as an image contributor."""

    image_key = "ompi.pml"

    def __init__(self, ompi: "OmpiLayer"):
        self._ompi = ompi

    def capture_image_state(self, crs_name: str):
        return self._ompi.pml.capture_state()

    def restore_image_state(self, state) -> None:
        self._ompi.pml.restore_state(state)


class OmpiLayer:
    """Per-process MPI library state."""

    SERVICE_KEY = "ompi"

    def __init__(
        self,
        proc: "SimProcess",
        universe: "Universe",
        opal: "OpalLayer",
        rml: "RML",
        registry: "FrameworkRegistry",
        params: "MCAParams",
    ):
        self.proc = proc
        self.universe = universe
        self.cluster = universe.cluster
        self.kernel = proc.kernel
        self.opal = opal
        self.rml = rml
        self.params = params
        self.requests = RequestTable(self.kernel)
        self.btls = registry.framework("btl").open_all(params, context=self)
        self.pml_base = registry.framework("pml").open(params, context=self)
        self.ft_enabled = CR_ENABLED.read(params)
        if self.ft_enabled:
            self.crcp = registry.framework("crcp").open(params, context=self)
            self.pml = CRCPWrapperPML(self.pml_base, self.crcp)
        else:
            self.crcp = None
            self.pml = self.pml_base
        self.pml.setup(self)
        self.coll = registry.framework("coll").open(params, context=self)
        self.comms: dict[int, Communicator] = {}
        self.comm_world: Communicator | None = None
        self.next_cid = CID_WORLD + 1
        #: modex database: world rank -> business card
        self.modex: dict[int, dict] = {}
        self.initialized = False
        self.finalized = False
        opal.register_contributor(_PMLContributor(self))
        if self.crcp is not None:
            opal.register_contributor(self.crcp)
        opal.inc_stack.register("ompi", self._ompi_inc)
        proc.register_service(self.SERVICE_KEY, self)

    # ------------------------------------------------------------------
    # init / finalize
    # ------------------------------------------------------------------

    def mpi_init(self) -> SimGen:
        """MPI_INIT: endpoint binding, modex exchange, world setup.

        Checkpointing is enabled at the end (paper section 6.4).
        """
        if self.initialized:
            raise MPIError("MPI already initialized")
        ports = {btl.name: btl.open_endpoint() for btl in self.btls}
        card = {"node": self.proc.node.name, "ports": ports}
        name = self.proc.name
        yield from self.rml.send(
            hnp_name(),
            TAG_INIT_READY,
            {"jobid": name.jobid, "rank": name.vpid, "card": card},
        )
        _, payload = yield from self.rml.recv(TAG_INIT_GO)
        self.modex = {int(k): v for k, v in payload["modex"].items()}
        np_procs = payload["np"]
        world_group = Group(list(range(np_procs)))
        self.comm_world = Communicator(CID_WORLD, world_group, name.vpid)
        self.comms[CID_WORLD] = self.comm_world
        self.initialized = True
        self.pml_base.flush_preinit()
        if self.ft_enabled:
            self.opal.enable_checkpoint()
            yield from self.rml.send(
                hnp_name(),
                TAG_CKPT_READY,
                {"jobid": name.jobid, "rank": name.vpid, "ready": True},
            )
        return self.comm_world

    def mpi_finalize(self) -> SimGen:
        """MPI_FINALIZE: checkpointing off first, then a barrier."""
        if not self.initialized or self.finalized:
            raise MPIError("MPI_FINALIZE without matching init")
        if self.ft_enabled:
            self.opal.disable_checkpoint()
            yield from self.rml.send(
                hnp_name(),
                TAG_CKPT_READY,
                {
                    "jobid": self.proc.name.jobid,
                    "rank": self.proc.name.vpid,
                    "ready": False,
                },
            )
        rt = InlineRuntime(self)
        yield from drive_ops(rt, self.coll.barrier(self.comm_world))
        for btl in self.btls:
            btl.teardown()
        self.finalized = True
        return None

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def peer_card(self, world_rank: int) -> dict:
        try:
            return self.modex[world_rank]
        except KeyError:
            raise MPIError(f"no modex entry for world rank {world_rank}") from None

    def register_comm(self, comm: Communicator) -> None:
        if comm.cid in self.comms:
            raise MPIError(f"communicator id {comm.cid} already in use")
        self.comms[comm.cid] = comm

    # ------------------------------------------------------------------
    # INC
    # ------------------------------------------------------------------

    def _ompi_inc(self, state: FTState, down) -> SimGen:
        if state == FTState.CHECKPOINT:
            if self.crcp is None:
                raise CheckpointError(
                    f"{self.proc.label}: built without CR support "
                    "(ompi_cr_enabled=0)"
                )
            # Coordination strictly precedes every other MPI subsystem
            # notification (paper section 5.3).
            yield from self.crcp.coordinate()
            yield from drive_ft_event(self.pml_base, state)
            yield from drive_ft_event(self.coll, state)
        yield from down(state)
        if state in (FTState.CONTINUE, FTState.RESTART):
            yield from drive_ft_event(self.pml_base, state)
            yield from drive_ft_event(self.coll, state)
            if self.crcp is not None:
                self.crcp.resume(state == FTState.RESTART)
        elif state == FTState.HALT:
            for btl in self.btls:
                btl.teardown()
        return None
