"""Application runtime: the op-driving runner and the ``ctx`` API.

The **AppRunner** drives the application generator, executing each
yielded :class:`MPIOp` and recording its outcome.  That outcome log is
the application half of the ``simcr`` process image: restart replays
the log against a fresh generator (ops suppressed, outcomes fed back),
reconstructing the exact application state at the checkpoint, then
switches to live execution.  Failed ops are logged too — ``("err",
type, message)`` — so applications that catch and handle errors replay
identically.

The **AppContext** is the user-facing MPI façade (mpi4py-flavoured
lowercase API: ``send``/``recv``/``bcast``…).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.core.ft_event import FTState
from repro.ompi import errors_map
from repro.ompi.coll.base import SUM, check_app_tag
from repro.ompi.communicator import Communicator
from repro.ompi.constants import ANY_SOURCE, ANY_TAG
from repro.ompi.group import Group
from repro.ompi.ops import (
    MPIOp,
    OpCheckpoint,
    OpCompute,
    OpIProbe,
    OpIRecv,
    OpISend,
    OpLog,
    OpNow,
    OpTest,
    OpWait,
)
from repro.ompi.status import Status
from repro.simenv.kernel import SimGen
from repro.simenv.rng import RngStream
from repro.util.errors import MPIError, ReproError, RestartError
from repro.util.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.ompi.layer import OmpiLayer
    from repro.opal.layer import OpalLayer
    from repro.orte.job import ProcSpec
    from repro.orte.proc_layer import OrteProcLayer
    from repro.orte.universe import Universe
    from repro.simenv.process import SimProcess

log = get_logger("apps.runner")


class AppRunner:
    """Drives an application main generator; owns the record-replay log."""

    image_key = "app.runner"

    def __init__(
        self,
        proc: "SimProcess",
        universe: "Universe",
        opal: "OpalLayer",
        orte_layer: "OrteProcLayer",
        ompi: "OmpiLayer",
        spec: "ProcSpec",
    ):
        self.proc = proc
        self.universe = universe
        self.opal = opal
        self.orte = orte_layer
        self.ompi = ompi
        self.spec = spec
        self.kernel = proc.kernel
        self.rml = orte_layer.rml
        #: outcomes of completed ops, in program order
        self.log: list[Any] = []
        #: the op currently executing (None between ops)
        self.current_op: MPIOp | None = None
        self._restored_log: list[Any] | None = None
        self.is_restart = spec.restart_from is not None
        self.ctx = AppContext(self)
        opal.register_contributor(self)

    # -- image contribution -------------------------------------------------------

    def capture_image_state(self, crs_name: str):
        if crs_name == "self":
            # Application state is the user's business under SELF.
            return None
        log = list(self.log)
        if isinstance(self.current_op, OpCheckpoint):
            # The main thread is blocked inside a synchronous checkpoint
            # request — the very checkpoint being taken.  In the image,
            # that call is recorded as *returned*, so the restarted
            # process resumes out of the checkpoint call with a
            # "restarted" indicator rather than re-requesting a
            # checkpoint (Open MPI's synchronous-API semantics).
            log.append(
                (
                    "ok",
                    {
                        "ok": True,
                        "restarted": True,
                        "snapshot": None,
                        "interval": None,
                        "error": None,
                    },
                )
            )
        return {"log": log}

    def restore_image_state(self, state) -> None:
        self._restored_log = list(state["log"])

    # -- the process main thread ---------------------------------------------------

    def main_thread(self) -> SimGen:
        from repro.apps.registry import get_app

        if self.is_restart:
            yield from self._load_image()
        yield from self.ompi.mpi_init()
        self.ctx._post_init()

        replay = list(self._restored_log or [])
        self.log = list(replay)
        restart_pending = self.is_restart
        if restart_pending and not replay:
            # Nothing to replay (SELF images, or a checkpoint taken
            # before the first op): notify RESTART before app code runs.
            yield from self.opal.restart_notify()
            restart_pending = False

        main = get_app(self.spec.app.name)
        gen = main(self.ctx)
        index = 0
        value: Any = None
        throw: BaseException | None = None
        while True:
            try:
                if throw is not None:
                    op = gen.throw(throw)
                    throw = None
                else:
                    op = gen.send(value) if index or value is not None else next(gen)
            except StopIteration as stop:
                result = stop.value
                break
            if not isinstance(op, MPIOp):
                raise MPIError(
                    f"{self.proc.label}: application yielded {op!r}, "
                    "expected an MPIOp"
                )
            if index < len(replay):
                entry = replay[index]
                index += 1
                value, throw = self._decode_entry(entry)
                continue
            if restart_pending:
                yield from self.opal.restart_notify()
                restart_pending = False
            self.current_op = op
            try:
                value = yield from op.execute(self)
                self.log.append(("ok", value))
            except ReproError as exc:
                self.log.append(("err", type(exc).__name__, str(exc)))
                throw = exc
                value = None
            finally:
                self.current_op = None
            index += 1

        yield from self.ompi.mpi_finalize()
        return result

    def _decode_entry(self, entry) -> tuple[Any, BaseException | None]:
        kind = entry[0]
        if kind == "ok":
            return entry[1], None
        if kind == "err":
            return None, errors_map.rebuild(entry[1], entry[2])
        raise RestartError(f"corrupt replay log entry {entry!r}")

    def _load_image(self) -> SimGen:
        from repro.snapshot import LocalSnapshotRef

        info = self.spec.restart_from
        assert info is not None
        if info["fs"] == "stable":
            fs = self.universe.cluster.stable_fs
        else:
            fs = self.proc.node.local_fs
        # One preloaded (or kept, checked against *digest*) full image;
        # off stable storage (``shared`` FILEM) a delta's base-chain,
        # oldest full first, newest last.
        refs = [LocalSnapshotRef(fs_name=fs.name, path=d) for d in info["chain"]]
        meta, image = yield from self.opal.crs.restart_extract_chain(fs, refs, info.get("digest"))
        if not meta.portable and meta.os_tag != self.proc.node.os_tag:
            raise RestartError(
                f"image from {meta.origin_node} ({meta.os_tag}) is not "
                f"portable to {self.proc.node.name} ({self.proc.node.os_tag})"
            )
        self.opal.crs.restore(self.opal, image)
        return None


class AppContext:
    """The API applications program against.

    Point-to-point and collective calls follow mpi4py's lowercase
    pickle-style conventions; everything blocking is used as
    ``x = yield ctx.op(...)`` (single ops) or
    ``x = yield from ctx.helper(...)`` (composites).
    """

    def __init__(self, runner: AppRunner):
        self._runner = runner
        self.args: dict = dict(runner.spec.app.args)
        self.restored_state: Any = None
        self._rng: RngStream | None = None

    # -- identity -----------------------------------------------------------------

    def _post_init(self) -> None:
        """Called by the runner right after MPI_INIT."""
        opal = self._runner.opal
        self.restored_state = opal.self_callbacks.pop("_restored_state", None)

    @property
    def comm_world(self) -> Communicator:
        comm = self._runner.ompi.comm_world
        if comm is None:
            raise MPIError("MPI not initialized yet")
        return comm

    @property
    def rank(self) -> int:
        return self.comm_world.rank

    @property
    def size(self) -> int:
        return self.comm_world.size

    @property
    def rng(self) -> RngStream:
        """Deterministic per-(app, rank) random stream.

        Keyed by application name + rank (not jobid), so a restarted
        job replays the identical stream.
        """
        if self._rng is None:
            self._rng = RngStream(
                self._runner.universe.cluster.spec.seed,
                f"app.{self._runner.spec.app.name}.rank{self.rank}",
            )
        return self._rng

    # -- point-to-point (single ops) ----------------------------------------------

    def isend(self, payload: Any, dst: int, tag: int = 0, comm: Communicator | None = None) -> MPIOp:
        return OpISend(comm or self.comm_world, dst, check_app_tag(tag), payload)

    def irecv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG, comm: Communicator | None = None) -> MPIOp:
        if tag not in (ANY_TAG,):
            check_app_tag(tag)
        return OpIRecv(comm or self.comm_world, src, tag)

    def wait(self, req_id: int) -> MPIOp:
        return OpWait(req_id)

    def test(self, req_id: int) -> MPIOp:
        return OpTest(req_id)

    def iprobe(self, src: int = ANY_SOURCE, tag: int = ANY_TAG, comm: Communicator | None = None) -> MPIOp:
        return OpIProbe(comm or self.comm_world, src, tag)

    # -- point-to-point (blocking composites) ----------------------------------------

    def send(self, payload: Any, dst: int, tag: int = 0, comm: Communicator | None = None) -> SimGen:
        req = yield self.isend(payload, dst, tag, comm)
        yield OpWait(req)
        return None

    def recv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG, comm: Communicator | None = None) -> SimGen:
        """Blocking receive; returns ``(payload, Status)``."""
        req = yield self.irecv(src, tag, comm)
        result = yield OpWait(req)
        payload, status_tuple = result
        return payload, Status.from_tuple(status_tuple)

    def sendrecv(
        self,
        payload: Any,
        dst: int,
        src: int = ANY_SOURCE,
        tag: int = 0,
        comm: Communicator | None = None,
    ) -> SimGen:
        send_req = yield self.isend(payload, dst, tag, comm)
        recv_req = yield self.irecv(src, tag if src != ANY_SOURCE else ANY_TAG, comm)
        result = yield OpWait(recv_req)
        yield OpWait(send_req)
        received, status_tuple = result
        return received, Status.from_tuple(status_tuple)

    def waitall(self, req_ids: list[int]) -> SimGen:
        results = []
        for req in req_ids:
            results.append((yield OpWait(req)))
        return results

    # -- collectives ---------------------------------------------------------------

    def _coll(self):
        return self._runner.ompi.coll

    def barrier(self, comm: Communicator | None = None) -> SimGen:
        yield from self._coll().barrier(comm or self.comm_world)
        return None

    def bcast(self, value: Any, root: int = 0, comm: Communicator | None = None) -> SimGen:
        result = yield from self._coll().bcast(comm or self.comm_world, value, root)
        return result

    def reduce(self, value: Any, op=SUM, root: int = 0, comm: Communicator | None = None) -> SimGen:
        result = yield from self._coll().reduce(
            comm or self.comm_world, value, op=op, root=root
        )
        return result

    def allreduce(self, value: Any, op=SUM, comm: Communicator | None = None) -> SimGen:
        result = yield from self._coll().allreduce(comm or self.comm_world, value, op=op)
        return result

    def gather(self, value: Any, root: int = 0, comm: Communicator | None = None) -> SimGen:
        result = yield from self._coll().gather(comm or self.comm_world, value, root=root)
        return result

    def scatter(self, values, root: int = 0, comm: Communicator | None = None) -> SimGen:
        result = yield from self._coll().scatter(
            comm or self.comm_world, values, root=root
        )
        return result

    def allgather(self, value: Any, comm: Communicator | None = None) -> SimGen:
        result = yield from self._coll().allgather(comm or self.comm_world, value)
        return result

    def alltoall(self, values, comm: Communicator | None = None) -> SimGen:
        result = yield from self._coll().alltoall(comm or self.comm_world, values)
        return result

    def scan(self, value: Any, op=SUM, comm: Communicator | None = None) -> SimGen:
        result = yield from self._coll().scan(comm or self.comm_world, value, op=op)
        return result

    # -- communicator management ------------------------------------------------------

    def comm_dup(self, comm: Communicator | None = None) -> SimGen:
        base = comm or self.comm_world
        cid = yield from self._agree_cid(base)
        dup = Communicator(cid, base.group, base.my_world_rank)
        self._runner.ompi.register_comm(dup)
        return dup

    def comm_split(self, color: int, key: int, comm: Communicator | None = None) -> SimGen:
        base = comm or self.comm_world
        cid = yield from self._agree_cid(base)
        triples = yield from self._coll().allgather(base, (color, key, base.rank))
        members = sorted(
            (k, r) for (c, k, r) in triples if c == color
        )
        world_ranks = [base.world_rank(r) for _k, r in members]
        split = Communicator(cid + color, Group(world_ranks), base.my_world_rank)
        self._runner.ompi.register_comm(split)
        return split

    def _agree_cid(self, base: Communicator) -> SimGen:
        from repro.ompi.coll.base import MAX

        ompi = self._runner.ompi
        proposal = ompi.next_cid
        agreed = yield from self._coll().allreduce(base, proposal, op=MAX)
        # Reserve a generous block so comm_split's color offsets are safe.
        ompi.next_cid = agreed + base.size + 1
        return agreed

    # -- local ops ----------------------------------------------------------------

    def compute(self, seconds: float | None = None, work: float | None = None) -> MPIOp:
        return OpCompute(seconds=seconds, work=work)

    def now(self) -> MPIOp:
        return OpNow()

    def log(self, message: str) -> MPIOp:
        return OpLog(message)

    def checkpoint(self, terminate: bool = False, **options) -> MPIOp:
        """Synchronous checkpoint request (common API, paper section 1)."""
        return OpCheckpoint(terminate=terminate, options=options)

    # -- fault tolerance registration ------------------------------------------------

    def register_inc(self, inc: Callable) -> Callable:
        """Register an application INC; returns the previous callback
        (which the new INC must invoke — paper section 5.5).

        The INC signature is ``inc(state, down)`` where ``down(state)``
        is a generator calling the rest of the stack.
        """
        return self._runner.opal.inc_stack.register("app", inc)

    def register_self_callbacks(
        self,
        checkpoint: Callable | None = None,
        restart: Callable | None = None,
        continue_: Callable | None = None,
    ) -> None:
        """Register SELF-CRS callbacks (paper sections 2, 6.4)."""
        callbacks = self._runner.opal.self_callbacks
        if checkpoint is not None:
            callbacks["checkpoint"] = checkpoint
        if restart is not None:
            callbacks["restart"] = restart
        if continue_ is not None:
            callbacks["continue"] = continue_

    # -- constants re-exported for app convenience -----------------------------------

    ANY_SOURCE = ANY_SOURCE
    ANY_TAG = ANY_TAG
    FTState = FTState
